"""CNN execution: float reference backend and LUT-backed integer backend.

Both backends take one (C, H, W) sample or an (N, C, H, W) stack whose
trailing shape is the network's input. One sample returns class
probabilities of shape (classes,) and per-sample captures; a stack returns
(N, classes) and adds a leading N axis to every captured value. `evaluate`,
`prepare_quantized` and `fit_last_layer` run their inputs in stacked chunks
of at most BATCH_ELEMENTS input elements.

One layer walk, `_forward`, serves every pass: inference on both backends,
calibration and the last-layer fit. It runs pooling, ReLU (in place only on
arrays the pass made itself), flatten, residual adds and softmax, and hands
each MAC layer to the backend's MAC step. A projected shortcut is a MAC
layer too: the 1x1 strided conv "{name}.proj" of the residual source, as
`nets.mac_layers` lists it. Every MAC step is one grouped conv (`_mac`),
channel-major: the product (G, O/G, K/G) weight rows @ (N, G, K/G, P)
windows over the batch axis, weight rows always on the left. A conv has
G = 1, a depthwise layer G = C and a dense layer is one window, so outputs
come out NCHW with no transpose. The float step's rows are a free reshape
of the stored weights (`_weight_rows`) and its product is a real matmul.

`_mac` receives each layer's input unpadded and walks its groups in blocks
of at most WINDOW_BYTES of windows (at least one group, so a conv or dense
layer is one block): it copies a block's channels into the interior of one
scratch buffer whose border is filled once per call with the code of real
0, windows it and takes that block's product. The blocks fill the layer's
(N, G, O/G, P) product, which `_mac` returns before bias; each backend
finishes it and adds the bias with `_add_bias`. Neither a layer's whole
padded input nor its whole window tensor exists at once (cache blocking;
Goto and van de Geijn, ACM TOMS 2008). The float pad is 0. The vector
engine quantizes and centres its input before `_mac`, so its pad is 0, the
centred code of 0; the cluster engine keeps unsigned codes, so its pad is
the activation zero point za. Each `QuantizedLayer` holds its centred weight
codes once, as the rows `_mac` reads (`lhs`). The integer step's captures
and scaling run once per layer on the assembled product, a
layer's captured accumulators are written in one update, and the ledger's
events are charged once per (net, cfg, bits) and copied into each call's
fresh ledger.

Tables are certified once, then multiplies use the certified products: the
vector engine's first run checks `mac8` over all 65,536 byte pairs against
a*b. Once every byte product is a*b, the cluster's byte passes, recombined
and corrected for zero points, give the integer sum of products of centred
codes, so the vector engine takes that sum as one matmul at 4, 8 and 16
bits. engine="cluster" multiplies unsigned bytes, as the cluster does: its
codes stay unsigned integers from `quantize` to `mac8`, uint8 at 4 and 8
bits and uint16 at 16, and its weight codes are lhs + zw,
cast once per call. Byte i of each operand is taken once as uint8, the
codes themselves or a byte of their uint16 view, and each of the
operand_bytes(bits)**2 byte passes (four at 16 bits) runs through `mac8` in
lockstep, one call per block of k with at most CLUSTER_LANES lanes unless a
single k has more outputs. mac8 runs them as byte lanes in the MAC
program's compiled kernel and assembles each lane's product in int64; the
engine shifts and sums the passes and applies the zero-point corrections in
int64, and that int64 accumulator is what the layer captures and scales.
Products are non-negative, so checking the running sums against the 32-bit
accumulator after each block raises on exactly the inputs a per-MAC check
does.

On the vector engine, codes stay float integers from `quantize` to the
accumulator, in one float type per MAC layer. Centred codes are at most
q = 2^bits - 1 in magnitude, so every partial sum of a K-long dot product
is at most K*q^2 in any summation order. A layer whose K*q^2 < 2^24 takes
float32, which holds those integers exactly: K <= 258 at 8 bits, K <= 74,565
at 4 bits, never at 16. Every other layer takes float64; building a layer
with K*q^2 >= 2^53 raises. `quantized_layer` makes that choice once
(`_product_dtype`) and centres the weight codes into that type; `quantize`
casts the activation codes into it, and centring, the scratch buffer,
windows and the product stay in it.
The accumulator is scaled in float64 in every layer, so outputs do not
depend on the type. int64 appears only in captured accumulators (cast once
per layer from the vector engine's float product), in the cluster engine's
product, and in the codes a weight container loads. Integer results are
exact, so both engines, any batch and any direct integer oracle agree
bit-for-bit, with or without captures.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .cluster import Cluster, check_accumulator, mac8, operand_bytes
from .lut_core import build_function_table  # noqa: F401 - perfbench's tracer wraps engine.build_function_table
from .nets import MAC_KINDS, NetworkSpec, groups, mac_layers, projection, weight_shape
from .perf import charge_layer
from .quantizer import SUPPORTED_BITS, CalibrationError, QuantParams, calibrate, quantize
from .system import EnergyLedger, SystemConfig
from .weights import WeightSet

# Input elements per stacked chunk in evaluate, prepare_quantized and
# fit_last_layer: 8 tinymalnet samples, or one mobilenet_v2 sample. On a
# 2-core Xeon VM with 2 MB of L2 per core, 8-bit tinymalnet evaluation ran
# fastest at 8-16 samples per chunk; at 64 it took 1.6x as long, its conv1
# windows alone (4 MB) far past the L2 cache.
BATCH_ELEMENTS = 8192

# Lanes per lockstep mac8 call on the cluster engine: as many as the
# certification byte table holds, so no call holds more lanes than it does.
CLUSTER_LANES = 65_536

# Window bytes per block of groups in a MAC step (_window_blocks): a depthwise
# layer pads and windows this many bytes of its groups at a time instead of
# the whole layer. On the 2-core VM above, one mobilenet_v2 infer_float sample took
# 46-51 ms with 256 KiB to 1 MiB blocks, 49-56 ms with 128 KiB, 51-53 ms
# with 2 MiB (the L2 size) and 80 ms with one block per layer.
WINDOW_BYTES = 512 * 1024


def _as_batch(net: NetworkSpec, x) -> tuple[np.ndarray, bool]:
    """x as an (N, C, H, W) float64 stack, and whether it was one (C, H, W) sample."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (3, 4) or x.shape[-3:] != net.input_shape:
        raise ValueError(
            f"input shape {x.shape} is neither the network input {net.input_shape}"
            f" nor a stack (N, *{net.input_shape})"
        )
    if len(x) == 0:
        raise ValueError("cannot run an empty stack of inputs")
    return (x[None], True) if x.ndim == 3 else (x, False)


def _chunks(net: NetworkSpec, inputs):
    """Consecutive samples of `inputs` stacked (N, C, H, W), at most BATCH_ELEMENTS elements per stack."""
    per = max(1, BATCH_ELEMENTS // math.prod(net.input_shape))
    it = iter(inputs)
    while chunk := list(itertools.islice(it, per)):
        yield np.stack(chunk)


# ---------------------------------------------------------------------------
# the layer walk, the MAC step and the float reference backend


def _windows(x: np.ndarray, kh: int, kw: int, stride: int) -> np.ndarray:
    """(N,C,H,W) -> (N, C, kh*kw, P) windows with rows ordered (ki, kj); x already holds any padding (_window_blocks).

    One copy through a strided view of x (numpy checks that the view stays inside x's
    buffer); a 1x1, stride-1 window needs no copy and stays a view of x.
    """
    x = np.ascontiguousarray(x)
    n, c, h, w = x.shape
    oh = (h - kh) // stride + 1
    ow = (w - kw) // stride + 1
    sn, sc, sh, sw = x.strides
    view = np.ndarray((n, c, kh, kw, oh, ow), x.dtype, x, 0, (sn, sc, sh, sw, sh * stride, sw * stride))
    return view.reshape(n, c, kh * kw, oh * ow)


def _mac(layer, x: np.ndarray, lhs: np.ndarray, product, pad=0) -> np.ndarray:
    """A MAC layer's (N, G, O/G, P) product from its unpadded (N, C, H, W) or (N, K) input, one block of groups at a time.

    lhs is the layer's (G, O/G, K/G) weight rows over its G groups
    (nets.groups), read as given. Every layer is the product lhs @ (N, G,
    K/G, P) windows, each group's K/G ordered (c, ki, kj), a free reshape of
    the windows: a conv has G = 1 and a depthwise layer G = C. A dense layer is one
    window per sample, so each sample is its own product and a stack's rows
    equal single calls. product(lhs, rhs) runs once per block of groups
    (_window_blocks, whose border holds `pad`), and the blocks' (N, gb, O/G,
    P) results fill one (N, G, O/G, P) array; a layer of one block returns
    that block's product.
    """
    g = len(lhs)
    blocks = [(0, x[:, None, :, None])] if layer.kind == "dense" else _window_blocks(layer, x, pad)
    out = None
    for g0, win in blocks:
        gb = win.shape[1]
        acc = product(lhs[g0 : g0 + gb], win)
        if gb == g:
            return acc
        if out is None:
            out = np.empty((len(acc), g, *acc.shape[2:]), acc.dtype)
        out[:, g0 : g0 + gb] = acc
    return out


def _add_bias(layer, acc: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """A layer's (N, G, O/G, P) result plus its bias, added in place, as (N, *out_shape), NCHW."""
    out = acc.reshape(len(acc), len(bias), -1)
    out += bias[:, None]
    return out.reshape(len(out), *layer.out_shape)


def _window_blocks(layer, x: np.ndarray, pad=0):
    """(g0, windows) for each block of a conv layer's groups: the (N, gb, K/G, P) windows of groups g0 to g0 + gb.

    A block holds as many groups as fit WINDOW_BYTES of windows, and at least
    one, so a conv (G = 1) is one block. A padded layer copies each block's
    channels into the interior of one scratch buffer, whose border is filled
    with `pad` once per call, and windows that: pad is 0 for the float input
    and the vector engine's centred codes, and the zero-point code za for
    the cluster engine's unsigned codes, in each case the code of real 0. So
    neither the whole padded input nor the whole window tensor exists at once.
    """
    n, c, h, w = x.shape
    kh, kw = layer.kernel
    p, per_group = layer.padding, c // groups(layer)
    group_bytes = n * per_group * kh * kw * math.prod(layer.out_shape[1:]) * x.itemsize
    block = max(1, WINDOW_BYTES // group_bytes) * per_group  # channels per block
    if p:
        shape = (n, min(block, c), h + 2 * p, w + 2 * p)
        scratch = np.full(shape, pad, x.dtype) if pad else np.zeros(shape, x.dtype)
    for c0 in range(0, c, block):
        xb = x[:, c0 : c0 + block]
        if p:
            padded = scratch[:, : xb.shape[1]]
            padded[:, :, p:-p, p:-p] = xb
            xb = padded
        win = _windows(xb, kh, kw, layer.stride)
        yield c0 // per_group, win.reshape(n, -1, per_group * kh * kw, win.shape[-1])


def _pool2d(x: np.ndarray, k: int, stride: int, pad: int) -> np.ndarray:
    """Max pooling over the last two axes of (N, C, H, W)."""
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)), constant_values=-np.inf)
    oh = (x.shape[-2] - k) // stride + 1
    ow = (x.shape[-1] - k) // stride + 1
    out = None
    for i in range(k):
        for j in range(k):
            tap = x[..., i : i + stride * oh : stride, j : j + stride * ow : stride]
            out = tap.copy() if out is None else np.maximum(out, tap, out=out)
    return out


def softmax(z: np.ndarray) -> np.ndarray:
    """Softmax along the last axis: one logit vector, or one row per sample."""
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _forward(net: NetworkSpec, x: np.ndarray, single: bool, mac, captures: dict | None):
    """The one layer walk of both backends over an (N, C, H, W) stack; mac(layer, x) runs each MAC layer.

    A projected shortcut runs as mac(projection, source). The walk runs every
    other layer itself, keeps only the outputs a later residual_add reads, and
    captures the logits. Returns x[0] for a single sample.
    """
    sources = {layer.residual_from for layer in net.layers if layer.kind == "residual_add"}
    saved = {}
    owned = False  # whether x is a temporary of this pass, not the input or a saved residual source
    for layer in net.layers:
        if layer.kind in MAC_KINDS:
            x = mac(layer, x)
        elif layer.kind == "maxpool2d":
            x = _pool2d(x, layer.kernel[0], layer.stride, layer.padding)
        elif layer.kind == "relu":
            x = np.maximum(x, 0.0, out=x if owned else None)
        elif layer.kind == "flatten":
            x = x.reshape(len(x), -1)
        elif layer.kind == "residual_add":
            res = saved[layer.residual_from]
            x = x + (mac(projection(layer), res) if layer.proj else res)
        elif layer.kind == "softmax":
            if captures is not None:
                captures["logits"] = (x[0] if single else x).copy()
            x = softmax(x)
        if layer.name in sources:
            saved[layer.name] = x
            owned = False
        elif layer.kind != "flatten":  # a flattened x is a view of the x before it
            owned = True
    return x[0] if single else x


def _weight_rows(layer, ws: WeightSet):
    """A MAC layer's float64 (G, O/G, K/G) weight rows and its bias.

    The rows are a free reshape of the stored (O, C/G, kh, kw) tensor, each
    group's K/G ordered (c, ki, kj), or the (1, O, K) transposed view of a
    dense layer's (K, O) matrix.
    """
    try:
        w = np.asarray(ws[f"{layer.name}.w"].data, dtype=np.float64)
        b = np.asarray(ws[f"{layer.name}.b"].data, dtype=np.float64)
    except KeyError:
        raise KeyError(f"missing weights for layer {layer.name!r}") from None
    if layer.kind == "dense":
        return w.T[None], b
    return w.reshape(groups(layer), layer.out_channels // groups(layer), -1), b


def _float_mac(ws: WeightSet, layer, x: np.ndarray) -> np.ndarray:
    """The float backend's MAC step: a real-arithmetic matmul of the layer's weights with each block's windows, plus bias."""
    rows, bias = _weight_rows(layer, ws)
    return _add_bias(layer, _mac(layer, x, rows, np.matmul), bias)


def infer_float(net: NetworkSpec, ws: WeightSet, x: np.ndarray, captures: dict | None = None) -> np.ndarray:
    """Forward pass in real arithmetic; returns the class probabilities.

    x is one (C, H, W) sample, which returns a (classes,) vector, or an
    (N, C, H, W) stack, which returns (N, classes). captures["layer_inputs"]
    holds each MAC layer's input, a projection's under "{name}.proj", with
    the leading N axis for a stack; captures["logits"] the pre-softmax scores.
    """
    x, single = _as_batch(net, x)
    inputs = captures.setdefault("layer_inputs", {}) if captures is not None else None

    def mac(layer, x):
        if inputs is not None:
            inputs[layer.name] = (x[0] if single else x).copy()
        return _float_mac(ws, layer, x)

    return _forward(net, x, single, mac, captures)


# ---------------------------------------------------------------------------
# LUT-backed integer backend


class CertificationError(RuntimeError):
    """The MAC microprogram's product of a byte pair differs from a*b."""


def _byte_products() -> np.ndarray:
    """products[a, b]: the MAC microprogram's output for every byte pair, one lane each."""
    byte = np.arange(256, dtype=np.int64)
    return mac8(Cluster(), byte[:, None], byte[None, :])


@functools.cache
def _certify_byte_products() -> None:
    """Check the MAC microprogram against a*b on all 65,536 byte pairs, once per process."""
    products, byte = _byte_products(), np.arange(256, dtype=np.int64)
    wrong = np.argwhere(products != byte[:, None] * byte[None, :])
    if len(wrong):
        a, b = (int(v) for v in wrong[0])
        raise CertificationError(
            f"mac8 byte table is wrong at ({a}, {b}): {int(products[a, b])}, not {a * b}"
            f" ({len(wrong)} of 65536 pairs differ)"
        )


def _product_dtype(k: int, bits: int) -> np.dtype:
    """The float type that holds every integer of a k-long product of centred `bits`-bit codes exactly.

    Centred codes are at most q = 2**bits - 1 in magnitude, so every partial
    sum of the product is at most k*q^2 in magnitude, in any summation order.
    float32 holds it while k*q^2 < 2**24 (k <= 74,565 at 4 bits, 258 at 8,
    never at 16), float64 while k*q^2 < 2**53; past that, ValueError.
    """
    bound = k * ((1 << bits) - 1) ** 2
    if bound < 1 << 24:
        return np.dtype(np.float32)
    if bound < 1 << 53:
        return np.dtype(np.float64)
    raise ValueError(f"dot length {k}: a {bits}-bit dot product may reach 2**53, past float64's exact integers")


def _raw_dot_vector(lhs: np.ndarray, rhs: np.ndarray, bits: int) -> np.ndarray:
    """Sum of products sum_k lhs[..., i, k] * rhs[..., k, j], broadcast over leading axes: one matmul.

    lhs and rhs hold integer codes of one float type, zero-centred in
    infer_lut, and the result holds integers of that type. Tables are
    certified once, then multiplies use the certified products: once mac8 has
    matched a*b on every byte pair, the cluster's byte passes recombined with
    its zero-point corrections give the integer sum of products of the centred
    codes, so the vector engine takes that sum as one BLAS matmul, at every
    precision. Its partial sums are integers of magnitude at most K*q^2 with
    q = 2**bits - 1, exact in float32 while K*q^2 < 2^24 (K <= 258 at 8 bits,
    74,565 at 4, never at 16) and in float64 while K*q^2 < 2^53; each
    QuantizedLayer picks its codes' type from that bound (_product_dtype).
    The product does not read `bits`; the parameter stays because perfbench's
    corrupted-accumulator test wraps this function by its three-argument form.
    """
    _certify_byte_products()
    return lhs @ rhs


def _unsigned_dot_cluster(
    lhs: np.ndarray, zl: int, rhs: np.ndarray, zr: int, bits: int, cluster: Cluster
) -> np.ndarray:
    """sum_k (lhs - zl) * (rhs - zr) as int64 from unsigned codes, where mac8 multiplies unsigned bytes.

    lhs and rhs hold unsigned `bits`-bit codes of one type, uint8 at 4 and 8
    bits and uint16 at 16, and zl and zr are their zero points.
    Byte i of each is taken once as a uint8 array: the codes themselves
    below 16 bits, and at 16 bits the two bytes of a little-endian uint16
    view, so mac8 runs its byte lanes with no cast of its own. A bits-bit MAC
    is operand_bytes(bits)**2 byte passes: byte i of lhs by byte j of rhs,
    shifted left by 8*(i + j) bits and summed. Each pass is one mac8 call per
    block of k: a call's lanes are a[..., :, k0:k1, None] by
    b[..., None, k0:k1, :], each from a zero accumulator, and each returns
    its lanes' products as int64; the host sums them over k. A block holds as
    many k as fit in CLUSTER_LANES lanes, and one k when a single k already
    has more outputs than that. The zero-point corrections, sum lhs*rhs -
    zr*sum lhs - zl*(sum rhs - K*zr), run in int64 too.

    Each pass's running sums are checked against the 32-bit accumulator after
    every block. Products are non-negative, so a lane's sum never decreases as
    k grows: a sum below 2**32 means every partial sum of the one-MAC-at-a-time
    accumulation was below it too. The check therefore raises
    AccumulatorOverflowError on exactly the inputs a per-MAC check does.
    """
    k_len = lhs.shape[-1]
    per_k = math.prod(np.broadcast_shapes(lhs.shape[:-1] + (1,), rhs.shape[:-2] + (1, rhs.shape[-1])))
    block = max(1, CLUSTER_LANES // per_k)
    n = operand_bytes(bits)
    for (i, a), (j, b) in itertools.product(enumerate(_byte_planes(lhs, n)), enumerate(_byte_planes(rhs, n))):
        total = 0
        for k0 in range(0, k_len, block):
            cluster.accumulator = 0
            products = mac8(cluster, a[..., :, k0 : k0 + block, None], b[..., None, k0 : k0 + block, :])
            total = total + products.sum(axis=-2)
            check_accumulator(total)
        acc = total if i + j == 0 else acc + (total << 8 * (i + j))  # the first pass is byte 0 by byte 0
    acc -= zr * lhs.sum(axis=-1, keepdims=True, dtype=np.int64)
    acc -= zl * (rhs.sum(axis=-2, keepdims=True, dtype=np.int64) - k_len * zr)
    return acc


def _byte_planes(codes: np.ndarray, n: int) -> list[np.ndarray]:
    """Byte i of each unsigned code for i < n, low byte first, as uint8 arrays of codes' shape.

    One byte is the uint8 codes themselves; two are the bytes of the codes'
    little-endian uint16 view, with no shift.
    """
    if n == 1:
        return [codes]
    pairs = np.ascontiguousarray(codes, dtype="<u2").view(np.uint8).reshape(*codes.shape, 2)
    return [pairs[..., 0], pairs[..., 1]]


@dataclass(frozen=True)
class QuantizedLayer:
    """One MAC layer's weight operand and quantization parameters; build one with quantized_layer.

    lhs holds the layer's zero-centred weight codes once, read-only, as the
    (G, O/G, K/G) rows _mac reads, in the float type the vector engine's
    codes and product take in infer_lut (_product_dtype). It is the layer's
    only weight array: the container's unsigned codes are derived from it
    (qweight), and so are the cluster engine's, once per infer_lut call.
    """

    name: str
    lhs: np.ndarray
    wparams: QuantParams
    bias: np.ndarray
    act_params: QuantParams  # input activation quantization at this layer

    @property
    def qweight(self) -> np.ndarray:
        """The unsigned (K/G, O) float64 codes a weight container holds, derived from lhs on every read.

        (K, O) for a conv or dense layer, (k, C) for a depthwise one.
        """
        centred = self.lhs.transpose(2, 0, 1).reshape(self.lhs.shape[-1], -1)  # (K/G, O), a view of lhs
        return np.add(centred, self.wparams.zero_point, dtype=np.float64)


def quantized_layer(layer, qweight, wparams: QuantParams, bias, act_params: QuantParams) -> QuantizedLayer:
    """A QuantizedLayer for MAC layer `layer` from its unsigned (K/G, O) weight codes.

    The codes are centred once into the read-only (G, O/G, K/G) rows the
    layer's product reads, in the float type _product_dtype picks from K/G
    and the wider of the two precisions. The caller's array is left as it was.
    """
    dtype = _product_dtype(len(qweight), max(wparams.bits, act_params.bits))
    lhs = np.subtract(qweight.T, wparams.zero_point, dtype=dtype, order="C")
    lhs = lhs.reshape(groups(layer), -1, len(qweight))
    lhs.flags.writeable = False
    return QuantizedLayer(layer.name, lhs, wparams, bias, act_params)


@dataclass
class QuantizedModel:
    net: NetworkSpec
    bits: int
    layers: dict[str, QuantizedLayer] = field(default_factory=dict)


def prepare_quantized(
    net: NetworkSpec, ws: WeightSet, cal_inputs, bits: int
) -> QuantizedModel:
    """Quantize weights (symmetric) and calibrate activations (asymmetric) on the float pass's layer inputs."""
    if bits not in SUPPORTED_BITS:
        raise ValueError(f"precision must be {', '.join(map(str, SUPPORTED_BITS[:-1]))}, or {SUPPORTED_BITS[-1]} bits")
    extremes: dict[str, tuple] = {}  # running (lo, hi) of each MAC layer's input

    def mac(layer, x):
        mn, mx = float(x.min()), float(x.max())
        if not (math.isfinite(mn) and math.isfinite(mx)):  # min/max below would drop a NaN
            raise CalibrationError(f"calibration input to layer {layer.name!r} is not finite")
        lo, hi = extremes.get(layer.name, (mn, mx))
        extremes[layer.name] = (min(lo, mn), max(hi, mx))
        return _float_mac(ws, layer, x)

    for xs in _chunks(net, cal_inputs):
        _forward(net, xs, False, mac, None)
    qm = QuantizedModel(net=net, bits=bits)
    for layer in mac_layers(net):
        rows, b = _weight_rows(layer, ws)
        wmat = rows.reshape(-1, rows.shape[-1]).T  # a (K/G, O) view, the layout a container holds codes in
        wp = calibrate(wmat, bits, symmetric=True)
        codes = quantize(wmat, wp)
        del rows, wmat  # so the float weights are freed before the centred rows are built
        act = calibrate(np.array(extremes.get(layer.name, ())), bits, symmetric=False)
        qm.layers[layer.name] = quantized_layer(layer, codes, wp, b, act)
    return qm


@functools.lru_cache(maxsize=64)
def _channel_keys(name: str, channels: int) -> tuple[str, ...]:
    """A depthwise layer's capture keys, "name[c]" for each channel c."""
    return tuple(f"{name}[{c}]" for c in range(channels))


@functools.lru_cache(maxsize=16)
def _ledger_events(net: NetworkSpec, cfg: SystemConfig, bits: int) -> tuple[tuple, ...]:
    """The ledger events of one sample of `net`, charged once per (net, cfg, bits) by perf.charge_layer."""
    ledger = EnergyLedger()
    for layer in net.layers:
        charge_layer(ledger, layer, cfg, bits)
    return tuple(ledger.events)


def infer_lut(
    qm: QuantizedModel,
    x: np.ndarray,
    cfg: SystemConfig | None = None,
    engine: str = "vector",
    captures: dict | None = None,
):
    """Quantized forward pass on the LUT backend.

    Each MAC layer quantizes its input once and hands the codes to _mac
    unpadded, which pads each block of groups with the code of real 0 and
    takes the block's product. The vector engine centres its float codes in
    place, pads with 0 and takes _raw_dot_vector; the cluster engine keeps
    unsigned uint8 or uint16 codes, pads with the zero point za and takes
    _unsigned_dot_cluster's int64 accumulator. The layer's captures and
    scaling run once on the assembled product.

    x is one (C, H, W) sample or an (N, C, H, W) stack. Returns (probabilities,
    ledger); a stack's probabilities are (N, classes). Integer accumulators per
    MAC layer land in captures["acc"] when a captures dict is supplied: (P, O)
    under a conv's name and a projected shortcut's "{name}.proj", (1, O) under
    a dense layer's (the pre-softmax integer output when it is the last) and
    (P, 1) under "name[c]" for each channel c of a depthwise layer, each with a
    leading N axis for a stack. The ledger prices one sample, which is what
    each sample of a stack costs: its events are charged by perf.charge_layer,
    once per layer and once per (net, cfg, bits) (_ledger_events), so each
    layer costs what perf.layer_cost says and the totals match
    perf.estimate. Every call returns a fresh ledger with its own event list.
    """
    if engine not in ("vector", "cluster"):
        raise ValueError(f"unknown engine {engine!r}")
    cfg = cfg or SystemConfig()
    x, single = _as_batch(qm.net, x)
    cluster = Cluster() if engine == "cluster" else None
    accs = captures.setdefault("acc", {}) if captures is not None else None

    def mac(layer, x):
        """Quantize x once and take one grouped-conv product: sum((qw - zw) * (qa - za))."""
        ql = qm.layers[layer.name]
        za, zw = ql.act_params.zero_point, ql.wparams.zero_point
        if cluster is None:
            q = quantize(x, ql.act_params, ql.lhs.dtype)
            q -= za  # centred in place; _mac pads with 0, the centred code of 0
            acc = _mac(layer, q, ql.lhs, lambda lhs, rhs: _raw_dot_vector(lhs, rhs, qm.bits))
        else:
            # unsigned codes from quantize to mac8; _mac pads with za, the code of 0
            codes = np.uint8 if operand_bytes(qm.bits) == 1 else np.uint16
            q, w = quantize(x, ql.act_params, codes), (ql.lhs + zw).astype(codes)
            acc = _mac(layer, q, w, lambda lhs, rhs: _unsigned_dot_cluster(lhs, zw, rhs, za, qm.bits, cluster), za)
        if accs is not None:
            # int64 once per layer (the cluster's product already is), viewed group-major (G, N, P, O/G);
            # captures are views of it
            view = acc.astype(np.int64, copy=False).transpose(1, 0, 3, 2)
            if single:
                view = view[:, 0]
            if layer.kind == "depthwise_conv2d":  # one key per channel, written in one update
                accs.update(zip(_channel_keys(layer.name, len(view)), view))
            else:
                accs[layer.name] = view[0]
        acc = acc.astype(np.float64, copy=False)  # every product's integers are scaled in float64
        acc *= ql.act_params.scale * ql.wparams.scale
        return _add_bias(layer, acc, ql.bias)

    probs = _forward(qm.net, x, single, mac, captures)
    return probs, EnergyLedger(list(_ledger_events(qm.net, cfg, qm.bits)))


# ---------------------------------------------------------------------------
# desk-scale training (closed-form last-layer fit) and metrics


def init_random_weights(net: NetworkSpec, seed: int) -> WeightSet:
    """He-scaled random weights and zero biases for every layer mac_layers yields."""
    rng = np.random.default_rng(seed)
    ws = WeightSet()
    for layer in mac_layers(net):
        shape, out_channels = weight_shape(layer), layer.out_shape[0]
        w = rng.normal(0, np.sqrt(2 / (math.prod(shape) // out_channels)), shape)  # fan-in K/G
        ws.add(f"{layer.name}.w", w.astype(np.float32))
        ws.add(f"{layer.name}.b", np.zeros(out_channels, dtype=np.float32))
    return ws


# Ridge penalty per training sample of the last-layer fit.
RIDGE = 1.0


def fit_last_layer(net: NetworkSpec, ws: WeightSet, inputs, labels) -> WeightSet:
    """Single-pass ridge fit of the final dense layer on frozen upstream features.

    Features are standardized for the solve; the affine correction is folded
    back into the dense weights and bias, so inference stays a plain layer.
    """
    dense = [l for l in net.layers if l.kind == "dense"][-1]
    feats = []

    def mac(layer, x):
        if layer is dense:
            feats.append(x)  # nothing later in the pass writes to a MAC layer's input
        return _float_mac(ws, layer, x)

    for xs in _chunks(net, inputs):
        _forward(net, xs, False, mac, None)
    X = np.concatenate(feats)
    y = np.asarray(labels, dtype=int)
    mu = X.mean(axis=0)
    sd = X.std(axis=0)
    # Floor near-dead feature scales so the folded weights stay in a range
    # that survives low-bit symmetric weight quantization.
    sd = np.maximum(sd, np.median(sd) + 1e-12)
    Xs = (X - mu) / sd
    Y = -np.ones((len(y), dense.out_features))
    Y[np.arange(len(y)), y] = 1.0
    gram = Xs.T @ Xs + RIDGE * len(y) * np.eye(Xs.shape[1])
    W = np.linalg.solve(gram, Xs.T @ Y)
    ws.add(f"{dense.name}.w", (W / sd[:, None]).astype(np.float32))
    ws.add(f"{dense.name}.b", (-(mu / sd) @ W).astype(np.float32))
    return ws


@dataclass(frozen=True)
class MetricsReport:
    accuracy: float
    precision: float
    recall: float
    f1: float
    probability_gap: float  # mean P(true) - P(predicted); 0 when always correct
    tp: int
    fp: int
    tn: int
    fn: int


def metrics_from_predictions(y_true, probs) -> MetricsReport:
    """Two-class metrics with malware (class 1) as the positive class."""
    y_true = np.asarray(y_true, dtype=int)
    probs = np.asarray(probs, dtype=np.float64)
    if len(y_true) == 0:
        raise ValueError("cannot evaluate an empty corpus")
    y_pred = probs.argmax(axis=1)
    tp = int(np.sum((y_true == 1) & (y_pred == 1)))
    fp = int(np.sum((y_true == 0) & (y_pred == 1)))
    tn = int(np.sum((y_true == 0) & (y_pred == 0)))
    fn = int(np.sum((y_true == 1) & (y_pred == 0)))
    n = len(y_true)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    gap = float(np.mean(probs[np.arange(n), y_true] - probs[np.arange(n), y_pred]))
    return MetricsReport(
        accuracy=(tp + tn) / n,
        precision=precision,
        recall=recall,
        f1=f1,
        probability_gap=gap,
        tp=tp,
        fp=fp,
        tn=tn,
        fn=fn,
    )


def evaluate(
    net: NetworkSpec,
    ws: WeightSet,
    inputs,
    labels,
    bits: int | None = None,
    cal_count: int = 32,
) -> MetricsReport:
    """Corpus evaluation in the float backend or the LUT backend at a precision.

    The LUT backend calibrates on the first cal_count inputs. Both backends
    run the corpus in stacked chunks of at most BATCH_ELEMENTS input elements.
    """
    if len(inputs) == 0:
        raise ValueError("cannot evaluate an empty corpus")
    if len(inputs) != len(labels):
        raise ValueError(f"{len(inputs)} inputs but {len(labels)} labels")
    if bits is None:
        probs = np.concatenate([infer_float(net, ws, xs) for xs in _chunks(net, inputs)])
    else:
        qm = prepare_quantized(net, ws, inputs[:cal_count], bits)
        probs = np.concatenate([infer_lut(qm, xs)[0] for xs in _chunks(net, inputs)])
    return metrics_from_predictions(labels, probs)
