"""Independent reference for the benchmark's correctness checks.

`replay_quantized` recomputes a quantized forward pass in plain int64
arithmetic: each conv, depthwise and dense layer's signed accumulator is
sum((qa - za) * (qw - zw)), with no LUT table and no zero-point expansion.
`replay_float` recomputes the float forward pass. Both use numpy only, never a
lutpim function, so the work they do never shows in a traced run's counts.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

MAC_KINDS = ("conv2d", "depthwise_conv2d", "dense")


def _patches(x, kernel, stride, pad):
    """(C,H,W) -> (P, C*kh*kw) sliding windows, columns ordered (c, ki, kj)."""
    if pad:
        x = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    win = sliding_window_view(x, kernel, axis=(1, 2))[:, ::stride, ::stride]
    c, oh, ow = win.shape[:3]
    return win.transpose(1, 2, 0, 3, 4).reshape(oh * ow, -1), oh, ow


def _channel_patches(x, layer):
    """(C,H,W) -> (C, P, kh*kw): each channel's own windows, for depthwise layers."""
    pad = layer.padding
    if pad:
        x = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    win = sliding_window_view(x, layer.kernel, axis=(1, 2))[:, :: layer.stride, :: layer.stride]
    c, oh, ow = win.shape[:3]
    return win.reshape(c, oh * ow, -1), oh, ow


def _quantize(r, params):
    q = np.rint(np.asarray(r, dtype=np.float64) / params.scale) + params.zero_point
    return np.clip(q, 0, (1 << params.bits) - 1).astype(np.int64)


def _pool(x, layer):
    k, s, p = layer.kernel[0], layer.stride, layer.padding
    if p:
        x = np.pad(x, ((0, 0), (p, p), (p, p)), constant_values=-np.inf)
    return sliding_window_view(x, (k, k), axis=(1, 2))[:, ::s, ::s].max(axis=(3, 4))


def _softmax(z):
    e = np.exp(z - z.max())
    return e / e.sum()


def _replay(net, x, mac_layer):
    """Walk the layer list; `mac_layer(layer, x)` computes conv/depthwise/dense."""
    x = np.asarray(x, dtype=np.float64)
    for layer in net.layers:
        if layer.kind in MAC_KINDS:
            x = mac_layer(layer, x)
        elif layer.kind == "maxpool2d":
            x = _pool(x, layer)
        elif layer.kind == "relu":
            x = np.maximum(x, 0.0)
        elif layer.kind == "flatten":
            x = x.reshape(-1)
        elif layer.kind == "softmax":
            x = _softmax(x)
        else:
            raise ValueError(f"oracle does not replay layer kind {layer.kind!r}")
    return x


def replay_quantized(net, layers, x):
    """Integer replay. `layers[name]` has qweight (K, O), wparams, act_params, bias.

    Returns (probabilities, accumulators) with accumulators keyed as
    infer_lut's captures["acc"]: the layer name, or "name[c]" per depthwise
    channel.
    """
    accs = {}

    def mac_layer(layer, x):
        ql = layers[layer.name]
        za, zw = ql.act_params.zero_point, ql.wparams.zero_point
        scale = ql.act_params.scale * ql.wparams.scale
        if layer.kind == "dense":
            acc = (_quantize(x[None, :], ql.act_params) - za) @ (ql.qweight - zw)
            accs[layer.name] = acc
            return (scale * acc + ql.bias)[0]
        if layer.kind == "conv2d":
            cols, oh, ow = _patches(x, layer.kernel, layer.stride, layer.padding)
            acc = (_quantize(cols, ql.act_params) - za) @ (ql.qweight - zw)
            accs[layer.name] = acc
            return (scale * acc + ql.bias).T.reshape(layer.out_channels, oh, ow)
        chans = []
        for c in range(x.shape[0]):
            cols, oh, ow = _patches(x[c : c + 1], layer.kernel, layer.stride, layer.padding)
            acc = (_quantize(cols, ql.act_params) - za) @ (ql.qweight[:, c : c + 1] - zw)
            accs[f"{layer.name}[{c}]"] = acc
            chans.append((scale * acc[:, 0] + ql.bias[c]).reshape(oh, ow))
        return np.stack(chans)

    return _replay(net, x, mac_layer), accs


def replay_float(net, ws, x):
    """Float replay from the weight container's float tensors."""

    def mac_layer(layer, x):
        w = np.asarray(ws[f"{layer.name}.w"].data, dtype=np.float64)
        b = np.asarray(ws[f"{layer.name}.b"].data, dtype=np.float64)
        if layer.kind == "dense":
            return x @ w + b
        if layer.kind == "conv2d":
            cols, oh, ow = _patches(x, layer.kernel, layer.stride, layer.padding)
            return (cols @ w.reshape(layer.out_channels, -1).T + b).T.reshape(layer.out_channels, oh, ow)
        cols, oh, ow = _channel_patches(x, layer)
        return (np.einsum("cpk,ck->cp", cols, w.reshape(w.shape[0], -1)) + b[:, None]).reshape(-1, oh, ow)

    return _replay(net, x, mac_layer)


def layers_from_container(net, ws):
    """Quantized layers as a `quantize`-written container stores them."""
    layers = {}
    for layer in net.layers:
        if layer.kind in MAC_KINDS:
            qw = ws[f"{layer.name}.qw"]
            layers[layer.name] = SimpleNamespace(
                qweight=np.asarray(qw.data, dtype=np.int64),
                wparams=qw.params,
                act_params=ws[f"act/{layer.name}"].params,
                bias=np.asarray(ws[f"{layer.name}.b"].data, dtype=np.float64),
            )
    return layers


def same_accumulators(got: dict, want: dict) -> bool:
    return got.keys() == want.keys() and all(np.array_equal(got[k], want[k]) for k in want)
