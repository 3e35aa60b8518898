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
`mac_layers` lists it. Every MAC step is channel-major (`_mac`): one product
of weight rows with input windows over the batch axis, (O, K) @ (N, K, P)
for a conv, the grouped (C, 1, k) @ (N, C, k, P) for a depthwise layer and
(N, 1, K) @ (K, O) for a dense one, so outputs come out NCHW with no
transpose. The float step's product is a real matmul.

The integer step quantizes a layer's input once, centres it on its zero
point in place and pads it with 0, the centred code of 0; weight codes are
centred per call. Tables are certified once, then multiplies use the
certified products: the vector engine's first run checks `mac8` over all
65,536 byte pairs against a*b. Once every byte product is a*b, the
cluster's byte passes, recombined and corrected for zero points, give the
integer sum of products of centred codes, so the vector engine takes that
sum as one matmul at 4, 8 and 16 bits. engine="cluster" adds the
zero points back, casts the unsigned codes to int64 once per layer and runs
each of the operand_bytes(bits)**2 byte passes (four at 16 bits) through
`mac8` in lockstep, one call per block of k with at most CLUSTER_LANES lanes
unless a single k has more outputs; it shifts and sums the passes and
applies the zero-point corrections in int64. Products are non-negative, so
checking the running sums against the 32-bit accumulator after each block
raises on exactly the inputs a per-MAC check does.

Codes stay float integers from `quantize` to the accumulator, in one float
type per MAC layer. Centred codes are at most q = 2^bits - 1 in magnitude,
so every partial sum of a K-long dot product is at most K*q^2 in any
summation order. A layer whose K*q^2 < 2^24 takes float32, which holds
those integers exactly: K <= 258 at 8 bits, K <= 74,565 at 4 bits, never at 16.
Every other layer takes float64; building a layer with K*q^2 >= 2^53
raises. `QuantizedLayer` makes that choice once (`_product_dtype`): `quantize`
casts the layer's codes to its type, and centring, padding, windows, the
centred weight codes and the product stay in it. The accumulator is scaled
in float64 in every layer, so outputs do not depend on the type. int64
appears only in captured accumulators (cast once per layer), in the cluster
engine's product, and in the codes a weight container loads. Integer
results are exact, so both engines, any batch and any direct integer oracle
agree bit-for-bit, with or without captures.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .cluster import Cluster, check_accumulator, mac8, operand_bytes
from .lut_core import build_function_table  # noqa: F401 - perfbench's tracer wraps engine.build_function_table
from .nets import LayerSpec, NetworkSpec
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


def _as_batch(net: NetworkSpec, x) -> tuple[np.ndarray, bool]:
    """x as an (N, C, H, W) float64 stack, and whether it was one (C, H, W) sample."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (3, 4) or x.shape[-3:] != net.input_shape:
        raise ValueError(
            f"input shape {x.shape} is neither the network input {net.input_shape}"
            f" nor a stack (N, *{net.input_shape})"
        )
    return (x[None], True) if x.ndim == 3 else (x, False)


def _chunks(net: NetworkSpec, inputs):
    """Consecutive samples of `inputs` stacked (N, C, H, W), at most BATCH_ELEMENTS elements per stack."""
    per = max(1, BATCH_ELEMENTS // math.prod(net.input_shape))
    it = iter(inputs)
    while chunk := list(itertools.islice(it, per)):
        yield np.stack(chunk)


# ---------------------------------------------------------------------------
# the layer walk, the MAC step and the float reference backend


def _windows(x: np.ndarray, kh: int, kw: int, stride: int, pad: int):
    """(N,C,H,W) -> (N, C, kh*kw, P) windows with rows ordered (ki, kj); padding holds 0.

    One copy through a strided view of x (numpy checks that the view stays inside x's
    buffer); a 1x1, stride-1 window needs no copy and stays a view of x.
    """
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    x = np.ascontiguousarray(x)
    n, c, h, w = x.shape
    oh = (h - kh) // stride + 1
    ow = (w - kw) // stride + 1
    sn, sc, sh, sw = x.strides
    view = np.ndarray((n, c, kh, kw, oh, ow), x.dtype, x, 0, (sn, sc, sh, sw, sh * stride, sw * stride))
    return view.reshape(n, c, kh * kw, oh * ow), oh, ow


def _mac(layer, x: np.ndarray, wmat: np.ndarray, bias: np.ndarray, product) -> np.ndarray:
    """A MAC layer's outputs from its (N, C, H, W) or (N, K) input: one channel-major product(lhs, rhs) plus bias.

    wmat is the layer's (K, O) weight matrix, (k, C) for a depthwise layer. A
    dense layer is (N, 1, K) @ (K, O), one row per sample, so a stack's rows
    equal single calls; a conv is (O, K) @ (N, K, P), K ordered (c, ki, kj), a
    free reshape of the windows; a depthwise layer is (C, 1, k) @ (N, C, k, P).
    The bias is added in place on the product's array, and outputs are NCHW.
    """
    if layer.kind == "dense":
        out = product(x[:, None, :], wmat)[:, 0]
        out += bias
        return out
    win, oh, ow = _windows(x, *layer.kernel, layer.stride, layer.padding)
    if layer.kind == "conv2d":
        out = product(wmat.T, win.reshape(len(win), -1, win.shape[-1]))
    else:
        out = product(wmat.T[:, None, :], win)
    out = out.reshape(len(out), -1, oh * ow)
    out += bias[:, None]
    return out.reshape(len(out), -1, oh, ow)


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


MAC_KINDS = ("conv2d", "depthwise_conv2d", "dense")


def _projection(layer) -> LayerSpec:
    """A projected shortcut's 1x1 strided conv of the residual source, named "{layer.name}.proj"."""
    return LayerSpec(
        name=f"{layer.name}.proj", kind="conv2d", kernel=(1, 1), stride=layer.stride,
        in_channels=layer.proj_in_shape[0], out_channels=layer.out_channels,
        in_shape=layer.proj_in_shape, out_shape=layer.out_shape,
    )


def mac_layers(net: NetworkSpec):
    """Every layer that holds weights, in order: the MAC layers, and each projected shortcut as its 1x1 conv."""
    for layer in net.layers:
        if layer.kind in MAC_KINDS:
            yield layer
        elif layer.proj:
            yield _projection(layer)


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
            x = x + (mac(_projection(layer), res) if layer.proj else res)
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


def _weight_matrix(layer, ws: WeightSet):
    """A MAC layer's float64 (K, O) weight matrix, (k, C) for a depthwise layer, and its bias."""
    try:
        w = np.asarray(ws[f"{layer.name}.w"].data, dtype=np.float64)
        b = np.asarray(ws[f"{layer.name}.b"].data, dtype=np.float64)
    except KeyError:
        raise KeyError(f"missing weights for layer {layer.name!r}") from None
    if layer.kind == "dense":
        return w, b
    return w.reshape(layer.out_channels, -1).T, b  # a conv's K ordered (c, ki, kj); one column per depthwise channel


def _float_mac(ws: WeightSet, layer, x: np.ndarray) -> np.ndarray:
    """The float backend's MAC step: a real-arithmetic matmul of x with the layer's weights."""
    return _mac(layer, x, *_weight_matrix(layer, ws), np.matmul)


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


def _centered_dot_cluster(
    lhs: np.ndarray, zl: int, rhs: np.ndarray, zr: int, bits: int, cluster: Cluster
) -> np.ndarray:
    """_raw_dot_vector's sum of zero-centred codes on the cluster, as float64, where mac8 multiplies unsigned bytes.

    The unsigned codes ul = lhs + zl and ur = rhs + zr are cast once to
    C-ordered int64 (mac8's broadcast lanes ran about 1.15x slower on
    transposed conv weights). A bits-bit MAC is operand_bytes(bits)**2 byte
    passes: byte i of ul by byte j of ur, shifted left by 8*(i + j) bits and
    summed. Each pass is one mac8 call per block of k: a call's lanes are
    a[..., :, k0:k1, None] by b[..., None, k0:k1, :], each from a zero
    accumulator, and the host sums the products over k. A block holds as many
    k as fit in CLUSTER_LANES lanes, and one k when a single k already has
    more outputs than that. The zero-point corrections, sum ul*ur - zr*sum ul
    - zl*(sum ur - K*zr), run in int64 too.

    Each pass's running sums are checked against the 32-bit accumulator after
    every block. Products are non-negative, so a lane's sum never decreases as
    k grows: a sum below 2**32 means every partial sum of the one-MAC-at-a-time
    accumulation was below it too. The check therefore raises
    AccumulatorOverflowError on exactly the inputs a per-MAC check does.
    """
    k_len = lhs.shape[-1]
    per_k = math.prod(np.broadcast_shapes(lhs.shape[:-1] + (1,), rhs.shape[:-2] + (1, rhs.shape[-1])))
    block = max(1, CLUSTER_LANES // per_k)
    ul, ur = lhs.astype(np.int64, order="C"), rhs.astype(np.int64, order="C")
    ul += zl
    ur += zr
    n = operand_bytes(bits)
    # byte i of each operand, taken once; codes of at most 8 bits are their own byte
    lbytes = [ul >> 8 * i & 255 for i in range(n)] if n > 1 else [ul]
    rbytes = [ur >> 8 * i & 255 for i in range(n)] if n > 1 else [ur]
    acc = 0
    for (i, a), (j, b) in itertools.product(enumerate(lbytes), enumerate(rbytes)):
        total = 0
        for k0 in range(0, k_len, block):
            cluster.accumulator = 0
            products = mac8(cluster, a[..., :, k0 : k0 + block, None], b[..., None, k0 : k0 + block, :])
            total = total + products.sum(axis=-2)
            check_accumulator(total)
        acc = acc + (total << 8 * (i + j))
    acc -= zr * ul.sum(axis=-1, keepdims=True)
    acc -= zl * (ur.sum(axis=-2, keepdims=True) - k_len * zr)
    return acc.astype(np.float64)


@dataclass(frozen=True)
class QuantizedLayer:
    """One MAC layer's weight codes and quantization parameters.

    qweight is cast to float64 once, when the layer is built, and held
    read-only; change a layer with dataclasses.replace, which casts again.
    dtype is the float type the layer's codes and product take in infer_lut,
    chosen once from its dot length and bits (_product_dtype).
    """

    name: str
    qweight: np.ndarray  # (K, O) unsigned codes; (k, C) for a depthwise layer
    wparams: QuantParams
    bias: np.ndarray
    act_params: QuantParams  # input activation quantization at this layer
    dtype: np.dtype = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        qweight = np.asarray(self.qweight, dtype=np.float64).view()  # a view: the caller's array keeps its flags
        qweight.flags.writeable = False
        object.__setattr__(self, "qweight", qweight)
        bits = max(self.wparams.bits, self.act_params.bits)
        object.__setattr__(self, "dtype", _product_dtype(len(qweight), bits))


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
        wmat, b = _weight_matrix(layer, ws)
        wp = calibrate(wmat, bits, symmetric=True)
        act = calibrate(np.array(extremes.get(layer.name, ())), bits, symmetric=False)
        qm.layers[layer.name] = QuantizedLayer(
            name=layer.name,
            qweight=quantize(wmat, wp),
            wparams=wp,
            bias=b,
            act_params=act,
        )
    return qm


def infer_lut(
    qm: QuantizedModel,
    x: np.ndarray,
    cfg: SystemConfig | None = None,
    engine: str = "vector",
    captures: dict | None = None,
):
    """Quantized forward pass on the LUT backend.

    x is one (C, H, W) sample or an (N, C, H, W) stack. Returns (probabilities,
    ledger); a stack's probabilities are (N, classes). Integer accumulators per
    MAC layer land in captures["acc"] when a captures dict is supplied: (P, O)
    under a conv's name and a projected shortcut's "{name}.proj", (1, O) under
    a dense layer's (the pre-softmax integer output when it is the last) and
    (P, 1) under "name[c]" for each channel c of a depthwise layer, each with a
    leading N axis for a stack. The ledger prices one sample, which is what
    each sample of a stack costs: it is charged once per layer by
    perf.charge_layer, so each layer costs what perf.layer_cost says and the
    totals match perf.estimate.
    """
    if engine not in ("vector", "cluster"):
        raise ValueError(f"unknown engine {engine!r}")
    cfg = cfg or SystemConfig()
    x, single = _as_batch(qm.net, x)
    cluster = Cluster() if engine == "cluster" else None
    accs = captures.setdefault("acc", {}) if captures is not None else None

    def capture(key, acc):
        accs[key] = acc[0] if single else acc

    def mac(layer, x):
        """Quantize x once, centre it, and take one channel-major product: sum((qw - zw) * (qa - za))."""
        ql = qm.layers[layer.name]
        za, zw = ql.act_params.zero_point, ql.wparams.zero_point
        zl, zr = (za, zw) if layer.kind == "dense" else (zw, za)  # the product's lhs and rhs zero points
        q = quantize(x, ql.act_params, ql.dtype)
        q -= za  # quantize's own array, centred in place; padding it with 0 pads x with 0, since quantize(0) == za

        def product(lhs, rhs):
            if cluster is None:
                acc = _raw_dot_vector(lhs, rhs, qm.bits)
            else:
                acc = _centered_dot_cluster(lhs, zl, rhs, zr, qm.bits, cluster)
            if accs is not None:
                codes = acc.astype(np.int64)  # one cast per layer; depthwise channels are views of it
                if layer.kind == "dense":  # (N, 1, O)
                    capture(layer.name, codes)
                elif layer.kind == "conv2d":  # (N, O, P)
                    capture(layer.name, codes.transpose(0, 2, 1))
                else:  # (N, C, 1, P)
                    for c in range(codes.shape[1]):
                        capture(f"{layer.name}[{c}]", codes[:, c].transpose(0, 2, 1))
            acc = acc.astype(np.float64, copy=False)  # a float32 product's integers are scaled in float64 too
            acc *= ql.act_params.scale * ql.wparams.scale
            return acc

        # the weight codes are centred per call: the layer holds unsigned codes only
        return _mac(layer, q, np.subtract(ql.qweight, zw, dtype=ql.dtype), ql.bias, product)

    probs = _forward(qm.net, x, single, mac, captures)
    ledger = EnergyLedger()
    for layer in qm.net.layers:
        charge_layer(ledger, layer, cfg, qm.bits)
    return probs, ledger


# ---------------------------------------------------------------------------
# desk-scale training (closed-form last-layer fit) and metrics


def init_random_weights(net: NetworkSpec, seed: int) -> WeightSet:
    """He-scaled random weights and zero biases for every layer mac_layers yields."""
    rng = np.random.default_rng(seed)
    ws = WeightSet()
    for layer in mac_layers(net):
        if layer.kind == "conv2d":
            kh, kw = layer.kernel
            fan_in = layer.in_channels * kh * kw
            w = rng.normal(0, np.sqrt(2 / fan_in), (layer.out_channels, layer.in_channels, kh, kw))
            ws.add(f"{layer.name}.w", w.astype(np.float32))
            ws.add(f"{layer.name}.b", np.zeros(layer.out_channels, dtype=np.float32))
        elif layer.kind == "depthwise_conv2d":
            kh, kw = layer.kernel
            w = rng.normal(0, np.sqrt(2 / (kh * kw)), (layer.in_channels, 1, kh, kw))
            ws.add(f"{layer.name}.w", w.astype(np.float32))
            ws.add(f"{layer.name}.b", np.zeros(layer.in_channels, dtype=np.float32))
        else:
            w = rng.normal(0, np.sqrt(2 / layer.in_features), (layer.in_features, layer.out_features))
            ws.add(f"{layer.name}.w", w.astype(np.float32))
            ws.add(f"{layer.name}.b", np.zeros(layer.out_features, dtype=np.float32))
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
