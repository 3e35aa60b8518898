"""CNN execution: float reference backend and LUT-backed integer backend.

The integer backend's products come from the cluster's MAC microprogram.
Tables are certified once, then multiplies use the certified products: the
vector engine's first run checks `mac8` over all 65,536 byte pairs against
a*b and raises naming any pair that differs; after that each byte pass is one
float64 BLAS matmul, exact while K*255^2 < 2^53 (checked per call).
engine="cluster" runs every product through `mac8` in lockstep, one lane per
output accumulator, with the 32-bit overflow check per lane.

Every MAC layer is one unsigned dot product (P, K) @ (K, O) over an optional
leading group axis: a depthwise layer of C channels is the grouped product
(C, P, k) @ (C, k, 1). A layer's input is quantized once, before windowing,
and padded with the activation zero point. Zero-point corrections, bias
addition, 16-bit byte pass recombination and softmax run host-side. Integer
results are exact, so both engines and any direct integer oracle agree
bit-for-bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .cluster import Cluster, mac8
from .lut_core import build_function_table  # noqa: F401 - perfbench's tracer wraps engine.build_function_table
from .nets import NetworkSpec
from .perf import charge_layer
from .quantizer import CalibrationError, QuantParams, calibrate, quantize
from .system import EnergyLedger, SystemConfig
from .weights import WeightSet


# ---------------------------------------------------------------------------
# float reference backend


def _windows(x: np.ndarray, kh: int, kw: int, stride: int, pad: int, fill=0):
    """(C,H,W) -> (C, kh*kw, P) windows with rows ordered (ki, kj); padding holds `fill`.

    A depthwise layer reads it as (C, P, k) through a transposed view, a
    conv2d as the (P, C*kh*kw) patch matrix through _patch_matrix."""
    c, h, w = x.shape
    if pad:
        x = np.pad(x, ((0, 0), (pad, pad), (pad, pad)), constant_values=fill)
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w + 2 * pad - kw) // stride + 1
    cols = np.empty((c, kh, kw, oh, ow), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, i, j] = x[:, i : i + stride * oh : stride, j : j + stride * ow : stride]
    return cols.reshape(c, kh * kw, oh * ow), oh, ow


def _patch_matrix(win: np.ndarray) -> np.ndarray:
    """(C, k, P) windows -> (P, C*k) patches with columns ordered (c, ki, kj), a view."""
    return win.reshape(-1, win.shape[-1]).T


def _pool2d(x: np.ndarray, k: int, stride: int, pad: int) -> np.ndarray:
    c, h, w = x.shape
    if pad:
        x = np.pad(x, ((0, 0), (pad, pad), (pad, pad)), constant_values=-np.inf)
    oh = (h + 2 * pad - k) // stride + 1
    ow = (w + 2 * pad - k) // stride + 1
    out = np.full((c, oh, ow), -np.inf, dtype=np.float64)
    for i in range(k):
        for j in range(k):
            out = np.maximum(out, x[:, i : i + stride * oh : stride, j : j + stride * ow : stride])
    return out


def softmax(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max())
    return e / e.sum()


def _conv_w(ws: WeightSet, name: str):
    try:
        w = ws[f"{name}.w"].data
        b = ws[f"{name}.b"].data
    except KeyError:
        raise KeyError(f"missing weights for layer {name!r}") from None
    return np.asarray(w, dtype=np.float64), np.asarray(b, dtype=np.float64)


def infer_float(net: NetworkSpec, ws: WeightSet, x: np.ndarray, captures: dict | None = None) -> np.ndarray:
    """Forward pass in real arithmetic; returns the class probability vector."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != net.input_shape:
        raise ValueError(f"input shape {x.shape} != network input {net.input_shape}")
    sources, saved = _residual_sources(net), {}
    for layer in net.layers:
        if layer.kind in ("conv2d", "depthwise_conv2d"):
            w, b = _conv_w(ws, layer.name)
            kh, kw = layer.kernel
            if captures is not None:
                captures.setdefault("layer_inputs", {})[layer.name] = x.copy()
            win, oh, ow = _windows(x, kh, kw, layer.stride, layer.padding)
            if layer.kind == "conv2d":
                out = _patch_matrix(win) @ w.reshape(layer.out_channels, -1).T + b
                x = out.T.reshape(layer.out_channels, oh, ow)
            else:  # one group per channel: (C, P, k) @ (C, k, 1)
                out = win.transpose(0, 2, 1) @ w.reshape(w.shape[0], -1, 1)
                x = (out[..., 0] + b[:, None]).reshape(-1, oh, ow)
        elif layer.kind == "dense":
            w, b = _conv_w(ws, layer.name)
            if captures is not None:
                captures.setdefault("layer_inputs", {})[layer.name] = x.copy()
            x = x @ w + b
        elif layer.kind == "maxpool2d":
            x = _pool2d(x, layer.kernel[0], layer.stride, layer.padding)
        elif layer.kind == "relu":
            x = np.maximum(x, 0.0)
        elif layer.kind == "flatten":
            x = x.reshape(-1)
        elif layer.kind == "residual_add":
            res = saved[layer.residual_from]
            if layer.proj:
                w, b = _conv_w(ws, f"{layer.name}.proj")
                win, oh, ow = _windows(res, 1, 1, layer.stride, 0)
                res = (_patch_matrix(win) @ w.reshape(layer.out_channels, -1).T + b).T.reshape(
                    layer.out_channels, oh, ow
                )
            x = x + res
        elif layer.kind == "softmax":
            if captures is not None:
                captures["logits"] = x.copy()
            x = softmax(x)
        if layer.name in sources:
            saved[layer.name] = x
    return x


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


def _check_float64_exact(k: int) -> None:
    """A byte pass sums k products of at most 255*255; float64 holds such sums exactly below 2**53."""
    if k * 255 * 255 >= 1 << 53:
        raise ValueError(f"dot length {k}: a byte-pass sum may reach 2**53, past float64's exact integers")


def _byte_passes(qa: np.ndarray, qw: np.ndarray, bits: int):
    """(shift, qa bytes, qw bytes) per byte pass; 16-bit operands take four, recombined host-side."""
    if bits <= 8:
        return ((0, qa, qw),)
    ah, al, wh, wl = qa >> 8, qa & 0xFF, qw >> 8, qw & 0xFF
    return ((16, ah, wh), (8, ah, wl), (8, al, wh), (0, al, wl))


def _raw_dot_vector(qa: np.ndarray, qw: np.ndarray, bits: int) -> np.ndarray:
    """Unsigned sum of products sum_k qa[..., p, k] * qw[..., k, o] over an optional leading group axis.

    Tables are certified once, then multiplies use the certified products: once
    mac8 has matched a*b on every byte pair, each byte pass is one float64 BLAS
    matmul cast back to int64, exact while K*255^2 < 2^53.
    """
    _certify_byte_products()
    _check_float64_exact(qa.shape[-1])
    return sum(
        (a.astype(np.float64) @ w.astype(np.float64)).astype(np.int64) << shift
        for shift, a, w in _byte_passes(qa, qw, bits)
    )


def _raw_dot_cluster(qa: np.ndarray, qw: np.ndarray, bits: int, cluster: Cluster) -> np.ndarray:
    """Same sum on the cluster: per byte pass, K lockstep mac8 calls with one lane per output (and group)."""
    out = 0
    for shift, a, w in _byte_passes(qa, qw, bits):
        cluster.accumulator = 0
        for k in range(qa.shape[-1]):
            mac8(cluster, a[..., :, k : k + 1], w[..., k : k + 1, :])
        out = out + (cluster.accumulator << shift)
    return out


@dataclass
class QuantizedLayer:
    name: str
    qweight: np.ndarray  # (K, O) unsigned codes
    wparams: QuantParams
    bias: np.ndarray
    act_params: QuantParams  # input activation quantization at this layer


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


def _refuse_projected_shortcuts(net: NetworkSpec) -> None:
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
    _refuse_projected_shortcuts(net)
    extremes: dict[str, tuple] = {}  # running (lo, hi) of each MAC layer's input
    for x in cal_inputs:
        captures: dict = {}
        infer_float(net, ws, x, captures=captures)
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

    Returns (probabilities, ledger). Integer accumulators per MAC layer land in
    captures["acc"] when a captures dict is supplied; the final dense layer's
    accumulator row is the pre-softmax integer output. The ledger is charged
    once per layer by perf.charge_layer, so each layer costs what
    perf.layer_cost says and the totals match perf.estimate.
    """
    if engine not in ("vector", "cluster"):
        raise ValueError(f"unknown engine {engine!r}")
    cfg = cfg or SystemConfig(precision_bits=qm.bits if qm.bits in (4, 8, 16) else 8)
    net = qm.net
    _refuse_projected_shortcuts(net)
    ledger = EnergyLedger()
    cluster = Cluster() if engine == "cluster" else None
    x = np.asarray(x, dtype=np.float64)
    if x.shape != net.input_shape:
        raise ValueError(f"input shape {x.shape} != network input {net.input_shape}")
    sources, saved = _residual_sources(net), {}

    def raw_dot(qa, qw):
        if engine == "cluster":
            return _raw_dot_cluster(qa, qw, qm.bits, cluster)
        return _raw_dot_vector(qa, qw, qm.bits)

    def mac_layer(layer, x):
        """Quantize x once, window it and run one (grouped) unsigned dot product.

        The host corrects the zero points, so acc = sum((qa - za) * (qw - zw)).
        """
        ql = qm.layers[layer.name]
        za, zw = ql.act_params.zero_point, ql.wparams.zero_point
        q = quantize(x, ql.act_params)
        if layer.kind == "dense":
            qa, qw = q[None, :], ql.qweight
        else:  # padding with za is padding x with 0, since quantize(0) == za
            win, oh, ow = _windows(q, *layer.kernel, layer.stride, layer.padding, fill=za)
            if layer.kind == "conv2d":
                qa, qw = _patch_matrix(win), ql.qweight
            else:  # depthwise: one group per channel, (C, P, k) @ (C, k, 1)
                qa, qw = win.transpose(0, 2, 1), ql.qweight.T[:, :, None]
        acc = (
            raw_dot(qa, qw)
            - za * qw.sum(axis=-2, dtype=np.int64)[..., None, :]
            - zw * qa.sum(axis=-1, dtype=np.int64)[..., :, None]
            + qa.shape[-1] * za * zw
        )
        scale = ql.act_params.scale * ql.wparams.scale
        accs = captures.setdefault("acc", {}) if captures is not None else {}
        if layer.kind == "dense":
            accs[layer.name] = acc
            return (scale * acc + ql.bias)[0]
        if layer.kind == "conv2d":
            accs[layer.name] = acc
            return (scale * acc + ql.bias).T.reshape(layer.out_channels, oh, ow)
        accs.update((f"{layer.name}[{c}]", acc_c) for c, acc_c in enumerate(acc))
        return (scale * acc[..., 0] + ql.bias[:, None]).reshape(-1, oh, ow)

    for layer in net.layers:
        if layer.kind in ("conv2d", "depthwise_conv2d", "dense"):
            x = mac_layer(layer, x)
        elif layer.kind == "maxpool2d":
            x = _pool2d(x, layer.kernel[0], layer.stride, layer.padding)
        elif layer.kind == "relu":
            x = np.maximum(x, 0.0)
        elif layer.kind == "flatten":
            x = x.reshape(-1)
        elif layer.kind == "residual_add":
            x = x + saved[layer.residual_from]
        elif layer.kind == "softmax":
            if captures is not None:
                captures["logits"] = x.copy()
            x = softmax(x)
        charge_layer(ledger, layer, cfg, qm.bits)
        if layer.name in sources:
            saved[layer.name] = x
    return x, ledger


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
    for x in inputs:
        captures: dict = {}
        infer_float(net, ws, x, captures=captures)
        feats.append(captures["layer_inputs"][dense.name])
    X = np.stack(feats)
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
    """Corpus evaluation in the float backend or the LUT backend at a precision."""
    if bits is None:
        probs = np.stack([infer_float(net, ws, x) for x in inputs])
    else:
        qm = prepare_quantized(net, ws, inputs[:cal_count], bits)
        probs = np.stack([infer_lut(qm, x, cfg)[0] for x in inputs])
    return metrics_from_predictions(labels, probs)
