"""Independent oracles and generators shared across the test suite.

Everything here recomputes expected values from first principles (plain
arithmetic, numpy sliding windows, scalar loops) without touching the code
paths under test.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from lutpim.engine import init_random_weights
from lutpim.nets import LayerSpec, NetworkSpec, build_network
from lutpim.quantizer import quantize

# Scalar definitions of every LUT operation, written independently of the
# implementation's table builder.
SCALAR_OPS = {
    "MUL4": lambda a, b: (a * b) & 0xFF,
    "ADD4": lambda a, b: (a + b) & 0xFF,
    "PASS": lambda a, b: a,
}


def bilinear_point(pixels: np.ndarray, y: float, x: float) -> float:
    """Scalar bilinear sample with corner-aligned coordinates."""
    h, w = pixels.shape
    y0, x0 = int(np.floor(y)), int(np.floor(x))
    y1, x1 = min(y0 + 1, h - 1), min(x0 + 1, w - 1)
    fy, fx = y - y0, x - x0
    return (
        pixels[y0, x0] * (1 - fy) * (1 - fx)
        + pixels[y0, x1] * (1 - fy) * fx
        + pixels[y1, x0] * fy * (1 - fx)
        + pixels[y1, x1] * fy * fx
    )


def naive_conv2d(x, w, b, stride, pad):
    """Direct-summation float convolution; x (C,H,W), w (O,C,kh,kw)."""
    if pad:
        x = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    out_c, in_c, kh, kw = w.shape
    oh = (x.shape[1] - kh) // stride + 1
    ow = (x.shape[2] - kw) // stride + 1
    out = np.zeros((out_c, oh, ow))
    for o in range(out_c):
        for i in range(oh):
            for j in range(ow):
                acc = 0.0
                for c in range(in_c):
                    for di in range(kh):
                        for dj in range(kw):
                            acc += x[c, i * stride + di, j * stride + dj] * w[o, c, di, dj]
                out[o, i, j] = acc + b[o]
    return out


def _patches(x, kh, kw, stride, pad):
    """(C,H,W) -> (P, C*kh*kw) via sliding windows, ordered (c, ki, kj)."""
    if pad:
        x = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    win = sliding_window_view(x, (kh, kw), axis=(1, 2))[:, ::stride, ::stride]
    c, oh, ow = win.shape[:3]
    return win.transpose(1, 2, 0, 3, 4).reshape(oh * ow, c * kh * kw), oh, ow


def oracle_quantized_forward(qm, x):
    """Direct integer-arithmetic replay of the quantized pipeline.

    Signed accumulators come straight from sum((qa - Za) * (qw - Zw)) in int64,
    with both kinds of codes cast to int64 first; no LUT machinery involved. A
    projected shortcut is a 1x1 strided conv of the residual source, keyed
    "{name}.proj". Returns (probabilities, {layer: acc array}).
    """
    net = qm.net
    x = np.asarray(x, dtype=np.float64)
    accs = {}
    saved = {}

    def conv(name, x, kernel, stride, pad):
        ql = qm.layers[name]
        cols, oh, ow = _patches(x, *kernel, stride, pad)
        qa = quantize(cols, ql.act_params).astype(np.int64)
        acc = (qa - ql.act_params.zero_point) @ (ql.qweight.astype(np.int64) - ql.wparams.zero_point)
        accs[name] = acc
        return (ql.act_params.scale * ql.wparams.scale * acc + ql.bias).T.reshape(-1, oh, ow)

    for layer in net.layers:
        if layer.kind == "conv2d":
            x = conv(layer.name, x, layer.kernel, layer.stride, layer.padding)
        elif layer.kind in ("dense", "depthwise_conv2d"):
            ql = qm.layers[layer.name]
            za, zw = ql.act_params.zero_point, ql.wparams.zero_point
            scale = ql.act_params.scale * ql.wparams.scale
            if layer.kind == "dense":
                qa = quantize(x[None, :], ql.act_params).astype(np.int64)
                acc = (qa - za) @ (ql.qweight.astype(np.int64) - zw)
                accs[layer.name] = acc
                x = (scale * acc + ql.bias)[0]
            else:
                qw = ql.qweight.astype(np.int64)  # qweight is derived on every read, so read it once per layer
                chans = []
                for c in range(x.shape[0]):
                    cols, oh, ow = _patches(x[c : c + 1], *layer.kernel, layer.stride, layer.padding)
                    qa = quantize(cols, ql.act_params).astype(np.int64)
                    acc = (qa - za) @ (qw[:, c : c + 1] - zw)
                    accs[f"{layer.name}[{c}]"] = acc
                    chans.append((scale * acc[:, 0] + ql.bias[c]).reshape(oh, ow))
                x = np.stack(chans)
        elif layer.kind == "maxpool2d":
            k, s, p = layer.kernel[0], layer.stride, layer.padding
            if p:
                x = np.pad(x, ((0, 0), (p, p), (p, p)), constant_values=-np.inf)
            win = sliding_window_view(x, (k, k), axis=(1, 2))[:, ::s, ::s]
            x = win.max(axis=(3, 4))
        elif layer.kind == "relu":
            x = np.maximum(x, 0.0)
        elif layer.kind == "flatten":
            x = x.reshape(-1)
        elif layer.kind == "residual_add":
            res = saved[layer.residual_from]
            if layer.proj:
                res = conv(f"{layer.name}.proj", res, (1, 1), layer.stride, 0)
            x = x + res
        elif layer.kind == "softmax":
            e = np.exp(x - x.max())
            x = e / e.sum()
        saved[layer.name] = x
    return x, accs


def random_small_network(rng: np.random.Generator) -> NetworkSpec:
    """Tiny conv net with randomized shapes for backend-equivalence sweeps."""
    side = int(rng.integers(8, 13))
    c1 = int(rng.integers(2, 5))
    k = 3
    pad = int(rng.integers(0, 2))
    layers = [
        LayerSpec(name="conv1", kind="conv2d", kernel=(k, k), padding=pad, out_channels=c1),
        LayerSpec(name="relu1", kind="relu"),
    ]
    if rng.random() < 0.5:
        layers.append(LayerSpec(name="pool1", kind="maxpool2d", kernel=(2, 2), stride=2))
    if rng.random() < 0.5:
        layers += [
            LayerSpec(name="conv2", kind="conv2d", kernel=(k, k), out_channels=int(rng.integers(2, 5))),
            LayerSpec(name="relu2", kind="relu"),
        ]
    layers += [
        LayerSpec(name="flatten", kind="flatten"),
        LayerSpec(name="dense", kind="dense", out_features=3),
        LayerSpec(name="softmax", kind="softmax"),
    ]
    return build_network(f"rand_{rng.integers(1 << 30)}", (1, side, side), layers)


def depthwise_residual_network() -> NetworkSpec:
    """Small net with a depthwise layer and an identity residual_add."""
    return build_network(
        "dw_res",
        (2, 6, 6),
        [
            LayerSpec(name="conv", kind="conv2d", kernel=(3, 3), padding=1, out_channels=3),
            LayerSpec(name="relu", kind="relu"),
            LayerSpec(name="dw", kind="depthwise_conv2d", kernel=(3, 3), padding=1),
            LayerSpec(name="add", kind="residual_add", residual_from="relu"),
            LayerSpec(name="relu_add", kind="relu"),
            LayerSpec(name="pool", kind="maxpool2d", kernel=(2, 2), stride=2),
            LayerSpec(name="flatten", kind="flatten"),
            LayerSpec(name="dense", kind="dense", out_features=2),
            LayerSpec(name="softmax", kind="softmax"),
        ],
    )


def strided_depthwise_network() -> NetworkSpec:
    """Small net with a stride-2, unpadded depthwise layer, the shape of mobilenet's downsampling blocks.

    No relu precedes the depthwise layer or the padded conv after it, so
    their inputs go negative and their activation zero points are nonzero.
    """
    return build_network(
        "dw_s2",
        (2, 9, 11),
        [
            LayerSpec(name="conv", kind="conv2d", kernel=(1, 1), out_channels=3),
            LayerSpec(name="dw", kind="depthwise_conv2d", kernel=(3, 3), stride=2, padding=0),
            LayerSpec(name="conv_pad", kind="conv2d", kernel=(3, 3), padding=1, out_channels=2),
            LayerSpec(name="relu", kind="relu"),
            LayerSpec(name="flatten", kind="flatten"),
            LayerSpec(name="dense", kind="dense", out_features=2),
            LayerSpec(name="softmax", kind="softmax"),
        ],
    )


def wide_depthwise_network() -> NetworkSpec:
    """One padded depthwise layer whose float64 windows, 50 * 9 * 24 * 24 * 8 bytes (2.1 MB), span several window blocks.

    50 groups split unevenly at the default budget, so the last block is smaller.
    """
    return build_network(
        "dw_wide",
        (50, 24, 24),
        [
            LayerSpec(name="dw", kind="depthwise_conv2d", kernel=(3, 3), padding=1),
            LayerSpec(name="relu", kind="relu"),
            LayerSpec(name="flatten", kind="flatten"),
            LayerSpec(name="dense", kind="dense", out_features=2),
            LayerSpec(name="softmax", kind="softmax"),
        ],
    )


def relu_hazard_network() -> NetworkSpec:
    """A relu on the input and a relu after a saved residual source: two arrays no pass may overwrite.

    Fed inputs of both signs, a relu that ran in place would change the
    caller's input, or the shortcut that "add" reads from "conv".
    """
    return build_network(
        "relu_hazards",
        (2, 6, 6),
        [
            LayerSpec(name="relu_in", kind="relu"),
            LayerSpec(name="conv", kind="conv2d", kernel=(3, 3), padding=1, out_channels=2),
            LayerSpec(name="relu", kind="relu"),
            LayerSpec(name="conv2", kind="conv2d", kernel=(3, 3), padding=1, out_channels=2),
            LayerSpec(name="add", kind="residual_add", residual_from="conv"),
            LayerSpec(name="relu_add", kind="relu"),
            LayerSpec(name="flatten", kind="flatten"),
            LayerSpec(name="dense", kind="dense", out_features=2),
            LayerSpec(name="softmax", kind="softmax"),
        ],
    )


def projected_shortcut_net():
    """A strided conv beside a 1x1 strided projection of its input, and weights for both.

    The projection's weights and bias are drawn again from a normal
    distribution, so its bias is nonzero.
    """
    net = build_network(
        "proj",
        (2, 7, 7),
        [
            LayerSpec(name="conv", kind="conv2d", kernel=(3, 3), padding=1, out_channels=3),
            LayerSpec(name="relu", kind="relu"),
            LayerSpec(name="conv_s2", kind="conv2d", kernel=(3, 3), stride=2, padding=1, out_channels=4),
            LayerSpec(name="add", kind="residual_add", residual_from="relu", proj=True, stride=2, out_channels=4),
            LayerSpec(name="flatten", kind="flatten"),
            LayerSpec(name="dense", kind="dense", out_features=2),
            LayerSpec(name="softmax", kind="softmax"),
        ],
    )
    rng = np.random.default_rng(32)
    ws = init_random_weights(net, seed=32)
    ws.add("add.proj.w", rng.normal(size=(4, 3, 1, 1)).astype(np.float32))
    ws.add("add.proj.b", rng.normal(size=4).astype(np.float32))
    return net, ws


def random_inputs(net: NetworkSpec, rng: np.random.Generator, n: int):
    return [rng.random(net.input_shape) for _ in range(n)]


def code_path_network() -> NetworkSpec:
    """Every edge of infer_lut's requantization between MAC layers.

    conv_a's output reaches conv_b through a padded max pool and a ReLU after
    it, so conv_b requantizes it with the ReLU folded into the clip at the
    zero point; conv_b feeds dw with no ReLU between, so dw's clip's lower
    bound is 0. dw's output reaches conv_c through relu_src, a residual
    source, so conv_c quantizes its input, as does dense, which reads the
    add's output.
    """
    return build_network(
        "code_paths",
        (2, 8, 8),
        [
            LayerSpec(name="conv_a", kind="conv2d", kernel=(3, 3), padding=1, out_channels=3),
            LayerSpec(name="pool_a", kind="maxpool2d", kernel=(3, 3), stride=2, padding=1),
            LayerSpec(name="relu_a", kind="relu"),
            LayerSpec(name="conv_b", kind="conv2d", kernel=(3, 3), padding=1, out_channels=4),
            LayerSpec(name="dw", kind="depthwise_conv2d", kernel=(3, 3), padding=1),
            LayerSpec(name="relu_src", kind="relu"),
            LayerSpec(name="conv_c", kind="conv2d", kernel=(1, 1), out_channels=4),
            LayerSpec(name="add", kind="residual_add", residual_from="relu_src"),
            LayerSpec(name="flatten", kind="flatten"),
            LayerSpec(name="dense", kind="dense", out_features=2),
            LayerSpec(name="softmax", kind="softmax"),
        ],
    )
