"""CNN execution: float reference backend and LUT-backed integer backend.

Both backends take one (C, H, W) sample or an (N, C, H, W) stack whose
trailing shape is the network's input. One sample returns what it always
has: class probabilities of shape (classes,) and per-sample captures. A
stack returns (N, classes) probabilities and adds a leading N axis to every
captured value. `evaluate`, `prepare_quantized` and `fit_last_layer` run
their inputs in stacked chunks of at most BATCH_ELEMENTS input elements.

The integer backend's products come from the cluster's MAC microprogram.
Tables are certified once, then multiplies use the certified products: the
vector engine's first run checks `mac8` over all 65,536 byte pairs against
a*b and raises naming any pair that differs. Once every byte product is a*b,
the cluster's byte passes, recombined and corrected for zero points, give
the integer sum of products of zero-centred codes, so the vector engine
takes that sum as one float64 BLAS matmul per MAC layer at 4, 8 and 16 bits.
engine="cluster" runs every product through `mac8` in lockstep: it adds the
zero points back, runs each byte pass (four at 16 bits) as one call per
block of k, with one lane per (output, k) pair and at most CLUSTER_LANES
lanes unless a single k has more outputs, and applies the zero-point
corrections host-side. The host sums the products over k and checks the
running sums against the 32-bit accumulator. Products are non-negative, so
a sum below 2^32 means every partial sum of a one-MAC-at-a-time accumulation
was below it too: the check raises on exactly the inputs a per-MAC check
does.

Codes travel as float64 integers from a layer's one `quantize` call to its
accumulator: `quantize` returns them as float64, and they are centred on
their zero point, windowed and multiplied in float64, with no cast. Each
layer's unsigned weight codes are held as float64 from when its
QuantizedLayer is built, and centred per call. That is exact while every
integer on the way stays below 2^53. Centred codes are at most q in
magnitude, so each product lies in [-q^2, q^2] and every partial sum of a
K-long dot product is at most K*q^2 in magnitude; on the cluster engine
so is each unsigned byte-pass sum and each partial sum of its corrections,
a sum of K terms (l*r - l*zr, say) that each lie in [-q^2, q^2]. So K*q^2 < 2^53 is checked per call, with q = 255 up to 8 bits
and q = 65535 at 16 bits. int64 appears in three places only: captured
accumulators, cast once per layer, the cluster engine's operands and sums
around `mac8`, and the codes a weight container loads.

Every MAC layer is channel-major: one dot product of the layer's centred
weight rows with its centred input windows, over the batch axis. A conv is
(O, K) @ (N, K, P) -> (N, O, P), a depthwise layer of C channels the grouped
product (C, 1, k) @ (N, C, k, P), and a dense layer (N, 1, K) @ (K, O). Outputs
come out NCHW along the long P axis, so the next layer reads them without a
transpose. A layer's input is quantized and centred once, before windowing,
and padded with 0, the centred code of 0. Bias addition and softmax run
host-side, as do the cluster engine's 16-bit byte pass recombination and
zero-point corrections. Integer results are exact, so both engines, any
batch and any direct integer oracle agree bit-for-bit, with or without
captures.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .cluster import Cluster, check_accumulator, mac8
from .lut_core import build_function_table  # noqa: F401 - perfbench's tracer wraps engine.build_function_table
from .nets import NetworkSpec
from .perf import charge_layer
from .quantizer import CalibrationError, QuantParams, calibrate, quantize
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
# float reference backend


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


def _channel_major(kind: str, wmat: np.ndarray, win: np.ndarray):
    """Operands of a windowed MAC layer's product lhs @ rhs -> (N, O, P), or (N, C, 1, P) depthwise.

    wmat is the layer's (K, O) weight matrix, (k, C) for a depthwise layer.
    """
    if kind == "conv2d":  # (O, K) @ (N, K, P); K ordered (c, ki, kj), a free reshape of the windows
        return wmat.T, win.reshape(len(win), -1, win.shape[-1])
    return wmat.T[:, None, :], win  # depthwise: (C, 1, k) @ (N, C, k, P)


def _nchw(out: np.ndarray, bias: np.ndarray, oh: int, ow: int) -> np.ndarray:
    """(N, O, P) or (N, O, 1, P) layer outputs plus a per-channel bias, added in place, as (N, O, OH, OW)."""
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


def _conv_w(ws: WeightSet, name: str):
    try:
        w = ws[f"{name}.w"].data
        b = ws[f"{name}.b"].data
    except KeyError:
        raise KeyError(f"missing weights for layer {name!r}") from None
    return np.asarray(w, dtype=np.float64), np.asarray(b, dtype=np.float64)


def infer_float(net: NetworkSpec, ws: WeightSet, x: np.ndarray, captures: dict | None = None) -> np.ndarray:
    """Forward pass in real arithmetic; returns the class probabilities.

    x is one (C, H, W) sample, which returns a (classes,) vector, or an
    (N, C, H, W) stack, which returns (N, classes). captures["layer_inputs"]
    holds each MAC layer's input, with the leading N axis for a stack.
    """
    x, single = _as_batch(net, x)
    sources, saved = _residual_sources(net), {}
    owned = False  # whether x is a temporary of this pass, not the input or a saved residual source
    for layer in net.layers:
        if layer.kind in ("conv2d", "depthwise_conv2d", "dense"):
            wmat, b = _weight_matrix(layer, ws)
            if captures is not None:
                captures.setdefault("layer_inputs", {})[layer.name] = (x[0] if single else x).copy()
            if layer.kind == "dense":  # one (1, K) @ (K, O) per sample: a stack's rows equal single calls
                x = (x[:, None, :] @ wmat)[:, 0] + b
            else:
                win, oh, ow = _windows(x, *layer.kernel, layer.stride, layer.padding)
                lhs, rhs = _channel_major(layer.kind, wmat, win)
                x = _nchw(lhs @ rhs, b, oh, ow)
        elif layer.kind == "maxpool2d":
            x = _pool2d(x, layer.kernel[0], layer.stride, layer.padding)
        elif layer.kind == "relu":
            x = np.maximum(x, 0.0, out=x if owned else None)
        elif layer.kind == "flatten":
            x = x.reshape(len(x), -1)
        elif layer.kind == "residual_add":
            res = saved[layer.residual_from]
            if layer.proj:  # a 1x1 strided conv
                w, b = _conv_w(ws, f"{layer.name}.proj")
                win, oh, ow = _windows(res, 1, 1, layer.stride, 0)
                lhs, rhs = _channel_major("conv2d", w.reshape(layer.out_channels, -1).T, win)
                res = _nchw(lhs @ rhs, b, oh, ow)
            x = x + res
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


def _residual_sources(net: NetworkSpec) -> set[str]:
    """Layers whose outputs a later residual_add reads; only these are kept."""
    return {layer.residual_from for layer in net.layers if layer.kind == "residual_add"}


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


def _check_float64_exact(k: int, bits: int) -> None:
    """A k-long dot product of `bits`-bit codes, and its zero-point corrections, stay below 2**53.

    The bound is k*255*255 up to 8 bits and k*65535*65535 at 16 bits.
    """
    top = 255 if bits <= 8 else 65535
    if k * top * top >= 1 << 53:
        raise ValueError(
            f"dot length {k}: a {bits}-bit dot product may reach 2**53, past float64's exact integers"
        )


def _split_bytes(codes: np.ndarray):
    """(high byte, low byte) of float64 16-bit codes; scaling by 1/256 is exact, so floor drops the low byte."""
    high = codes * (1 / 256)
    np.floor(high, out=high)
    low = high * -256
    low += codes
    return high, low


def _byte_passes(lhs: np.ndarray, rhs: np.ndarray, bits: int):
    """(multiplier, lhs bytes, rhs bytes) per cluster byte pass; 16-bit operands take four, recombined host-side."""
    if bits <= 8:
        return ((1, lhs, rhs),)
    (lh, ll), (rh, rl) = _split_bytes(lhs), _split_bytes(rhs)
    return ((1 << 16, lh, rh), (1 << 8, lh, rl), (1 << 8, ll, rh), (1, ll, rl))


def _raw_dot_vector(lhs: np.ndarray, rhs: np.ndarray, bits: int) -> np.ndarray:
    """Sum of products sum_k lhs[..., i, k] * rhs[..., k, j], broadcast over leading axes: one float64 matmul.

    lhs and rhs hold float64 integer codes, zero-centred in infer_lut, and so
    does the result. Tables are certified once, then multiplies use the
    certified products: once mac8 has matched a*b on every byte pair, the
    cluster's byte passes recombined with its zero-point corrections give the
    integer sum of products of the centred codes, so the vector engine takes
    that sum as one BLAS matmul, at every precision. Its partial sums are
    integers of magnitude at most K*q^2, exact while K*q^2 < 2^53; infer_lut
    checks the bound for its precision before each call (_check_float64_exact).
    """
    _certify_byte_products()
    return lhs @ rhs


def _raw_dot_cluster(lhs: np.ndarray, rhs: np.ndarray, bits: int, cluster: Cluster) -> np.ndarray:
    """Unsigned sum_k lhs[..., i, k] * rhs[..., k, j] on the cluster: per byte pass, one mac8 call per block of k.

    A call's lanes are a[..., :, k0:k1, None] by b[..., None, k0:k1, :], each
    from a zero accumulator, and the host sums the products over k. A block
    holds as many k as fit in CLUSTER_LANES lanes, and one k when a single k
    already has more outputs than that. The float64 codes go to mac8 as
    C-ordered int64; the accumulators come back as float64.

    Each pass's running sums are checked against the 32-bit accumulator after
    every block. Products are non-negative, so a lane's sum never decreases as
    k grows: a sum below 2**32 means every partial sum of the one-MAC-at-a-time
    accumulation was below it too. The check therefore raises
    AccumulatorOverflowError on exactly the inputs a per-MAC check does.
    """
    k_len = lhs.shape[-1]
    per_k = math.prod(np.broadcast_shapes(lhs.shape[:-1] + (1,), rhs.shape[:-2] + (1, rhs.shape[-1])))
    block = max(1, CLUSTER_LANES // per_k)
    out = 0
    for mul, a, b in _byte_passes(lhs, rhs, bits):
        # C order whatever the codes' layout: mac8's broadcast lanes ran about 1.15x slower on transposed conv weights
        a, b = a.astype(np.int64, order="C"), b.astype(np.int64, order="C")
        total = 0
        for k0 in range(0, k_len, block):
            cluster.accumulator = 0
            products = mac8(cluster, a[..., :, k0 : k0 + block, None], b[..., None, k0 : k0 + block, :])
            total = total + products.sum(axis=-2)
            check_accumulator(total)
        out = out + total * mul
    return out.astype(np.float64)


def _centered_dot_cluster(
    lhs: np.ndarray, zl: int, rhs: np.ndarray, zr: int, bits: int, cluster: Cluster
) -> np.ndarray:
    """_raw_dot_vector's sum of zero-centred codes on the cluster, where mac8 multiplies unsigned codes.

    lhs + zl and rhs + zr are the unsigned codes l and r; their product runs
    through _raw_dot_cluster and is corrected in place, to sum l*(r - zr) and
    then sum (l - zl)*(r - zr). Each of these, and each correction, is a sum
    of K terms in [-q^2, q^2], so it stays exact in float64.
    """
    unsigned = lhs + zl
    acc = _raw_dot_cluster(unsigned, rhs + zr, bits, cluster)
    acc -= zr * unsigned.sum(axis=-1, keepdims=True)
    acc -= zl * rhs.sum(axis=-2, keepdims=True)
    return acc


@dataclass(frozen=True)
class QuantizedLayer:
    """One MAC layer's weight codes and quantization parameters.

    qweight is cast to float64 once, when the layer is built, and held
    read-only; change a layer with dataclasses.replace, which casts again.
    """

    name: str
    qweight: np.ndarray  # (K, O) unsigned codes; (k, C) for a depthwise layer
    wparams: QuantParams
    bias: np.ndarray
    act_params: QuantParams  # input activation quantization at this layer

    def __post_init__(self):
        qweight = np.asarray(self.qweight, dtype=np.float64).view()  # a view: the caller's array keeps its flags
        qweight.flags.writeable = False
        object.__setattr__(self, "qweight", qweight)


@dataclass
class QuantizedModel:
    net: NetworkSpec
    bits: int
    layers: dict[str, QuantizedLayer] = field(default_factory=dict)


def _weight_matrix(layer, ws: WeightSet):
    w, b = _conv_w(ws, layer.name)
    if layer.kind == "conv2d":
        return w.reshape(layer.out_channels, -1).T, b
    if layer.kind == "dense":
        return w, b
    if layer.kind == "depthwise_conv2d":
        return w.reshape(w.shape[0], -1).T, b  # (kh*kw, C) column per channel
    raise ValueError(layer.kind)


def refuse_projected_shortcuts(net: NetworkSpec) -> None:
    """The LUT backend runs identity shortcuts only; say which layer it cannot run."""
    for layer in net.layers:
        if layer.kind == "residual_add" and layer.proj:
            raise NotImplementedError(
                f"{net.name}: layer {layer.name!r} has a projected shortcut; only the perf model runs those"
            )


def prepare_quantized(
    net: NetworkSpec, ws: WeightSet, cal_inputs, bits: int
) -> QuantizedModel:
    """Quantize weights (symmetric) and calibrate activations (asymmetric)."""
    if bits not in (4, 8, 16):
        raise ValueError("precision must be 4, 8, or 16 bits")
    refuse_projected_shortcuts(net)
    extremes: dict[str, tuple] = {}  # running (lo, hi) of each MAC layer's input
    for xs in _chunks(net, cal_inputs):
        captures: dict = {}
        infer_float(net, ws, xs, captures=captures)
        for name, arr in captures["layer_inputs"].items():
            mn, mx = float(arr.min()), float(arr.max())
            if not (math.isfinite(mn) and math.isfinite(mx)):  # min/max below would drop a NaN
                raise CalibrationError(f"calibration input to layer {name!r} is not finite")
            lo, hi = extremes.get(name, (mn, mx))
            extremes[name] = (min(lo, mn), max(hi, mx))
    qm = QuantizedModel(net=net, bits=bits)
    for layer in net.layers:
        if layer.kind not in ("conv2d", "depthwise_conv2d", "dense"):
            continue
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
    under a conv's name, (1, O) under a dense layer's (the pre-softmax integer
    output when it is the last) and (P, 1) under "name[c]" for each channel c
    of a depthwise layer, each with a leading N axis for a stack. The ledger
    prices one sample, which is what each sample of a stack costs: it is
    charged once per layer by perf.charge_layer, so each layer costs what
    perf.layer_cost says and the totals match perf.estimate.
    """
    if engine not in ("vector", "cluster"):
        raise ValueError(f"unknown engine {engine!r}")
    cfg = cfg or SystemConfig()
    net = qm.net
    refuse_projected_shortcuts(net)
    x, single = _as_batch(net, x)
    ledger = EnergyLedger()
    cluster = Cluster() if engine == "cluster" else None
    sources, saved = _residual_sources(net), {}
    owned = False  # as in infer_float
    accs = captures.setdefault("acc", {}) if captures is not None else {}

    def dot(lhs, zl, rhs, zr):
        """sum_k lhs[..., i, k] * rhs[..., k, j] of zero-centred codes; zl and zr are lhs's and rhs's zero points."""
        _check_float64_exact(lhs.shape[-1], qm.bits)
        if cluster is None:
            return _raw_dot_vector(lhs, rhs, qm.bits)
        return _centered_dot_cluster(lhs, zl, rhs, zr, qm.bits, cluster)

    def capture(key, acc):
        accs[key] = acc[0] if single else acc

    def mac_layer(layer, x):
        """Quantize x once, centre and window it, and take one channel-major product: sum((qw - zw) * (qa - za))."""
        ql = qm.layers[layer.name]
        za, zw = ql.act_params.zero_point, ql.wparams.zero_point
        scale = ql.act_params.scale * ql.wparams.scale
        q = quantize(x, ql.act_params)
        q -= za  # quantize's own array, centred in place
        w = ql.qweight - zw  # a per-call temporary: the layer holds unsigned codes only
        if layer.kind == "dense":
            acc = dot(q[:, None, :], za, w, zw)
            if captures is not None:  # (N, 1, O)
                capture(layer.name, acc.astype(np.int64))
            acc = acc[:, 0]
            acc *= scale
            acc += ql.bias
            return acc
        # padding the centred codes with 0 is padding x with 0, since quantize(0) == za
        win, oh, ow = _windows(q, *layer.kernel, layer.stride, layer.padding)
        lhs, rhs = _channel_major(layer.kind, w, win)
        acc = dot(lhs, zw, rhs, za).reshape(len(q), -1, oh * ow)
        if captures is not None:
            codes = acc.astype(np.int64)  # one cast per layer; depthwise channels are views of it
            if layer.kind == "conv2d":
                capture(layer.name, codes.transpose(0, 2, 1))
            else:
                for c in range(codes.shape[1]):
                    capture(f"{layer.name}[{c}]", codes[:, c, :, None])
        acc *= scale
        return _nchw(acc, ql.bias, oh, ow)

    for layer in net.layers:
        if layer.kind in ("conv2d", "depthwise_conv2d", "dense"):
            x = mac_layer(layer, x)
        elif layer.kind == "maxpool2d":
            x = _pool2d(x, layer.kernel[0], layer.stride, layer.padding)
        elif layer.kind == "relu":
            x = np.maximum(x, 0.0, out=x if owned else None)
        elif layer.kind == "flatten":
            x = x.reshape(len(x), -1)
        elif layer.kind == "residual_add":
            x = x + saved[layer.residual_from]
        elif layer.kind == "softmax":
            if captures is not None:
                captures["logits"] = (x[0] if single else x).copy()
            x = softmax(x)
        charge_layer(ledger, layer, cfg, qm.bits)
        if layer.name in sources:
            saved[layer.name] = x
            owned = False
        elif layer.kind != "flatten":  # a flattened x is a view of the x before it
            owned = True
    return (x[0] if single else x), ledger


# ---------------------------------------------------------------------------
# desk-scale training (closed-form last-layer fit) and metrics


def init_random_weights(net: NetworkSpec, seed: int) -> WeightSet:
    """He-scaled random conv/dense weights, zero biases."""
    rng = np.random.default_rng(seed)
    ws = WeightSet()
    for layer in net.layers:
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
        elif layer.kind == "dense":
            w = rng.normal(0, np.sqrt(2 / layer.in_features), (layer.in_features, layer.out_features))
            ws.add(f"{layer.name}.w", w.astype(np.float32))
            ws.add(f"{layer.name}.b", np.zeros(layer.out_features, dtype=np.float32))
    return ws


def fit_last_layer(net: NetworkSpec, ws: WeightSet, inputs, labels, ridge: float = 1.0) -> WeightSet:
    """Single-pass ridge fit of the final dense layer on frozen upstream features.

    Features are standardized for the solve; the affine correction is folded
    back into the dense weights and bias, so inference stays a plain layer.
    """
    dense = [l for l in net.layers if l.kind == "dense"][-1]
    feats = []
    for xs in _chunks(net, inputs):
        captures: dict = {}
        infer_float(net, ws, xs, captures=captures)
        feats.append(captures["layer_inputs"][dense.name])
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
    gram = Xs.T @ Xs + ridge * len(y) * np.eye(Xs.shape[1])
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


# Published reference row for the full-corpus classifier, rendered alongside
# desk-scale results (accuracy / f1 / recall).
REFERENCE_METRICS = (0.987, 0.987, 0.982)


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
    cfg: SystemConfig | None = None,
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
        probs = np.concatenate([infer_lut(qm, xs, cfg)[0] for xs in _chunks(net, inputs)])
    return metrics_from_predictions(labels, probs)
