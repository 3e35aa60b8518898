import copy
import dataclasses
import functools
import itertools
import math
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import lutpim
import lutpim.cluster as cluster_module
import lutpim.engine as engine_module
from lutpim.cluster import AccumulatorOverflowError, Cluster
from lutpim.engine import (
    CLUSTER_LANES,
    evaluate,
    fit_last_layer,
    infer_float,
    infer_lut,
    init_random_weights,
    metrics_from_predictions,
    prepare_quantized,
    quantized_layer,
    softmax,
)
from lutpim.lut_core import OpTag
from lutpim.nets import ZOO, LayerSpec, NetworkSpec, build_network, get_network, mac_layers, tinymalnet
from lutpim.perf import charge_layer, estimate
from lutpim.quantizer import CalibrationError, QuantParams, calibrate
from lutpim.system import EnergyLedger, SystemConfig
from lutpim.weights import (
    WeightFormatError,
    WeightSet,
    load_weights,
    save_weights,
)
from tests.helpers import (
    depthwise_residual_network,
    naive_conv2d,
    oracle_quantized_forward,
    projected_shortcut_net,
    random_inputs,
    random_small_network,
    relu_hazard_network,
    strided_depthwise_network,
    wide_depthwise_network,
)


def tiny_conv_net():
    return build_network(
        "t",
        (2, 6, 6),
        [
            LayerSpec(name="conv", kind="conv2d", kernel=(3, 3), out_channels=3),
            LayerSpec(name="relu", kind="relu"),
            LayerSpec(name="flatten", kind="flatten"),
            LayerSpec(name="dense", kind="dense", out_features=2),
            LayerSpec(name="softmax", kind="softmax"),
        ],
    )


def test_softmax_basics():
    p = softmax(np.array([0.0, 0.0]))
    assert p == pytest.approx([0.5, 0.5])
    q = softmax(np.array([1000.0, 0.0]))  # stable under large logits
    assert q[0] == pytest.approx(1.0)
    assert softmax(np.array([0.3, -2.0, 1.1])).sum() == pytest.approx(1.0)


def test_softmax_of_a_batch_is_the_softmax_of_each_row():
    z = np.random.default_rng(9).normal(scale=50.0, size=(4, 3))
    p = softmax(z)
    assert p.shape == (4, 3)
    assert p.sum(axis=1) == pytest.approx(np.ones(4))
    for row, logits in zip(p, z):
        assert softmax(logits).shape == (3,)
        assert np.array_equal(row, softmax(logits))


def test_infer_float_zero_weights():
    net = tiny_conv_net()
    ws = WeightSet()
    ws.add("conv.w", np.zeros((3, 2, 3, 3), np.float32))
    ws.add("conv.b", np.zeros(3, np.float32))
    ws.add("dense.w", np.zeros((3 * 4 * 4, 2), np.float32))
    ws.add("dense.b", np.zeros(2, np.float32))
    probs = infer_float(net, ws, np.random.default_rng(0).random((2, 6, 6)))
    assert probs == pytest.approx([0.5, 0.5])


def test_infer_float_matches_naive_conv_oracle():
    net = tiny_conv_net()
    rng = np.random.default_rng(8)
    ws = init_random_weights(net, seed=77)
    x = rng.random((2, 6, 6))
    captures = {}
    infer_float(net, ws, x, captures=captures)
    w = ws["conv.w"].data.astype(np.float64)
    b = ws["conv.b"].data.astype(np.float64)
    expect = np.maximum(naive_conv2d(x, w, b, stride=1, pad=0), 0.0).reshape(-1)
    dense_w = ws["dense.w"].data.astype(np.float64)
    logits = expect @ dense_w + ws["dense.b"].data
    probs = infer_float(net, ws, x)
    assert probs == pytest.approx(softmax(logits), abs=1e-6)


def test_infer_float_depthwise_matches_naive_conv_oracle():
    # stride 2, no padding, non-square input: the grouped product against a per-channel direct sum
    net = strided_depthwise_network()
    ws = init_random_weights(net, seed=31)
    captures = {}
    infer_float(net, ws, np.random.default_rng(31).random(net.input_shape), captures=captures)
    x = captures["layer_inputs"]["dw"]
    w = ws["dw.w"].data.astype(np.float64)
    b = ws["dw.b"].data.astype(np.float64)
    expect = np.concatenate(
        [naive_conv2d(x[c : c + 1], w[c : c + 1], b[c : c + 1], stride=2, pad=0) for c in range(3)]
    )
    assert expect.shape == (3, 4, 5)
    got = captures["layer_inputs"]["conv_pad"]
    assert got == pytest.approx(expect, rel=1e-12, abs=1e-12)


def test_infer_float_projected_shortcut_matches_naive_conv_oracle():
    net, ws = projected_shortcut_net()
    rng = np.random.default_rng(32)
    captures = {}
    infer_float(net, ws, rng.random(net.input_shape), captures=captures)
    res = captures["layer_inputs"]["conv_s2"]  # relu's output, the shortcut's source

    def conv(name, stride, pad):
        w, b = (ws[f"{name}.{t}"].data.astype(np.float64) for t in "wb")
        return naive_conv2d(res, w, b, stride=stride, pad=pad)

    expect = (conv("conv_s2", 2, 1) + conv("add.proj", 2, 0)).reshape(-1)
    assert captures["layer_inputs"]["dense"] == pytest.approx(expect, rel=1e-12, abs=1e-12)


def test_infer_float_on_a_stack_equals_single_calls():
    rng = np.random.default_rng(33)
    nets = [tinymalnet(), depthwise_residual_network(), strided_depthwise_network(), relu_hazard_network()]
    cases = [(net, init_random_weights(net, seed=33)) for net in nets]
    cases.append(projected_shortcut_net())
    for net, ws in cases:
        xs = np.stack(random_inputs(net, rng, 3))
        caps = {}
        probs = infer_float(net, ws, xs, captures=caps)
        assert probs.shape == (3, 2)
        for i, x in enumerate(xs):
            single = {}
            assert np.array_equal(probs[i], infer_float(net, ws, x, captures=single)), net.name
            assert np.array_equal(caps["logits"][i], single["logits"])
            for name, arr in single["layer_inputs"].items():
                assert np.array_equal(caps["layer_inputs"][name][i], arr), (net.name, name)


@pytest.mark.parametrize("shape", [(1, 6, 6), (6, 6), (3, 2, 6, 5), (1, 3, 2, 6, 6)])
def test_an_input_of_the_wrong_shape_is_refused(shape):
    net = tiny_conv_net()
    rng = np.random.default_rng(14)
    ws = init_random_weights(net, seed=14)
    qm = prepare_quantized(net, ws, random_inputs(net, rng, 2), 8)
    names_both = re.escape(f"input shape {shape}") + ".*" + re.escape(str(net.input_shape))
    with pytest.raises(ValueError, match=names_both):
        infer_float(net, ws, np.zeros(shape))
    with pytest.raises(ValueError, match=names_both):
        infer_lut(qm, np.zeros(shape))


def test_identity_conv_passthrough():
    net = build_network(
        "ident",
        (1, 4, 4),
        [
            LayerSpec(name="conv", kind="conv2d", kernel=(1, 1), out_channels=1),
            LayerSpec(name="flatten", kind="flatten"),
            LayerSpec(name="dense", kind="dense", out_features=2),
            LayerSpec(name="softmax", kind="softmax"),
        ],
    )
    ws = WeightSet()
    ws.add("conv.w", np.ones((1, 1, 1, 1), np.float32))
    ws.add("conv.b", np.zeros(1, np.float32))
    ws.add("dense.w", np.eye(16, 2, dtype=np.float32))
    ws.add("dense.b", np.zeros(2, np.float32))
    x = np.arange(16, dtype=np.float64).reshape(1, 4, 4) / 16
    captures = {}
    infer_float(net, ws, x, captures=captures)
    assert captures["logits"] == pytest.approx([x.ravel()[0], x.ravel()[1]])


@pytest.mark.parametrize("bits", [4, 8, 16])
def test_lut_backend_matches_integer_oracle(bits):
    rng = np.random.default_rng(100 + bits)
    nets = [random_small_network(rng) for _ in range(3)]
    nets += [depthwise_residual_network(), strided_depthwise_network()]
    for net in nets:
        ws = init_random_weights(net, seed=int(rng.integers(1 << 20)))
        cal = random_inputs(net, rng, 4)
        qm = prepare_quantized(net, ws, cal, bits)
        for x in random_inputs(net, rng, 3):
            captures = {}
            probs, _ = infer_lut(qm, x, SystemConfig(), captures=captures)
            oprobs, oaccs = oracle_quantized_forward(qm, x)
            for name, acc in oaccs.items():
                assert (captures["acc"][name] == acc).all(), (net.name, name)
            assert probs == pytest.approx(oprobs, abs=1e-12)


def test_cluster_engine_matches_vector_engine():
    rng = np.random.default_rng(55)
    net = build_network(
        "xs",
        (1, 5, 5),
        [
            LayerSpec(name="conv", kind="conv2d", kernel=(3, 3), out_channels=2),
            LayerSpec(name="relu", kind="relu"),
            LayerSpec(name="flatten", kind="flatten"),
            LayerSpec(name="dense", kind="dense", out_features=2),
            LayerSpec(name="softmax", kind="softmax"),
        ],
    )
    ws = init_random_weights(net, seed=5)
    cal = random_inputs(net, rng, 3)
    for bits in (4, 8, 16):
        qm = prepare_quantized(net, ws, cal, bits)
        _assert_cluster_matches_vector(qm, rng.random(net.input_shape))
    # network scale (tinymalnet), depthwise and residual layers
    rng = np.random.default_rng(56)
    for net, precisions in (
        (tinymalnet(), (8,)),
        (depthwise_residual_network(), (4, 8, 16)),
        (strided_depthwise_network(), (4, 8, 16)),
    ):
        ws = init_random_weights(net, seed=6)
        cal = random_inputs(net, rng, 3)
        for bits in precisions:
            qm = prepare_quantized(net, ws, cal, bits)
            _assert_cluster_matches_vector(qm, rng.random(net.input_shape))


@pytest.mark.parametrize("engine", ["vector", "cluster"])
@pytest.mark.parametrize("bits", [4, 8, 16])
def test_infer_lut_on_a_stack_equals_single_calls(bits, engine):
    rng = np.random.default_rng(200 + bits)
    for net in (tinymalnet(), depthwise_residual_network(), strided_depthwise_network(), relu_hazard_network()):
        ws = init_random_weights(net, seed=int(rng.integers(1 << 20)))
        qm = prepare_quantized(net, ws, random_inputs(net, rng, 3), bits)
        xs = np.stack(random_inputs(net, rng, 3))
        caps = {}
        probs, ledger = infer_lut(qm, xs, SystemConfig(), engine=engine, captures=caps)
        assert probs.shape == (3, 2)
        for i, x in enumerate(xs):
            single = {}
            p, single_ledger = infer_lut(qm, x, SystemConfig(), engine=engine, captures=single)
            _, oaccs = oracle_quantized_forward(qm, x)
            assert np.array_equal(probs[i], p), (net.name, i)
            assert np.array_equal(caps["logits"][i], single["logits"])
            assert caps["acc"].keys() == single["acc"].keys() == oaccs.keys()
            for name, acc in oaccs.items():
                assert np.array_equal(single["acc"][name], acc), (net.name, name)
                assert np.array_equal(caps["acc"][name][i], acc), (net.name, name)
            assert ledger.events == single_ledger.events  # a stack's ledger prices one sample


@pytest.mark.parametrize("engine", ["vector", "cluster"])
@pytest.mark.parametrize("bits", [4, 8, 16])
def test_infer_lut_without_captures_equals_with_captures(bits, engine):
    rng = np.random.default_rng(300 + bits)
    for net in (tinymalnet(), depthwise_residual_network(), strided_depthwise_network()):
        ws = init_random_weights(net, seed=int(rng.integers(1 << 20)))
        qm = prepare_quantized(net, ws, random_inputs(net, rng, 3), bits)
        for x in (rng.random(net.input_shape), np.stack(random_inputs(net, rng, 2))):
            caps = {}
            probs, ledger = infer_lut(qm, x, SystemConfig(), engine=engine, captures=caps)
            bare_probs, bare_ledger = infer_lut(qm, x, SystemConfig(), engine=engine)
            assert np.array_equal(probs, bare_probs), (net.name, x.shape)
            assert ledger.events == bare_ledger.events
            assert caps["acc"] and all(acc.dtype == np.int64 for acc in caps["acc"].values())


def saturating_network() -> NetworkSpec:
    """Conv, padded strided depthwise, conv and dense with no relu, so every layer's input takes both signs.

    The dense layer's K = 13 * 5 * 5 = 325 is odd and past 2**24 / 255**2, so its
    sums at 8 and 16 bits are integers float32 would round.
    """
    return build_network(
        "saturating",
        (2, 9, 9),
        [
            LayerSpec(name="conv", kind="conv2d", kernel=(3, 3), padding=1, out_channels=6),
            LayerSpec(name="dw", kind="depthwise_conv2d", kernel=(3, 3), stride=2, padding=1),
            LayerSpec(name="conv2", kind="conv2d", kernel=(3, 3), padding=1, out_channels=13),
            LayerSpec(name="flatten", kind="flatten"),
            LayerSpec(name="dense", kind="dense", out_features=2),
            LayerSpec(name="softmax", kind="softmax"),
        ],
    )


@pytest.mark.parametrize("engine", ["vector", "cluster"])
@pytest.mark.parametrize("bits", [4, 8, 16])
def test_saturated_codes_reach_the_integer_oracle_exactly(bits, engine, monkeypatch):
    """Activation codes at 0 and qmax, weight codes at 0 and qmax: the largest terms every correction sees."""
    net = saturating_network()
    rng = np.random.default_rng(400 + bits)
    qm = prepare_quantized(net, init_random_weights(net, seed=40), random_inputs(net, rng, 2), bits)
    qmax = (1 << bits) - 1
    for i, layer in enumerate(mac_layers(net)):
        ql = qm.layers[layer.name]
        qm.layers[layer.name] = quantized_layer(
            layer,
            rng.choice([0, qmax], size=ql.qweight.shape),
            QuantParams(scale=1.0, zero_point=1 << (bits - 1), bits=bits),
            ql.bias,
            # each layer's scale is 1e8 below the last, so any nonzero input lands past either end
            QuantParams(scale=1e-6 * 1e-8**i, zero_point=(qmax, 0, 1 << (bits - 1), qmax)[i], bits=bits),
        )
    codes, quantized = [], []
    real_mac, real_quantize = engine_module._mac, engine_module.quantize

    def mac(step, x, lhs, product, pad=0):
        # the codes each layer's product reads: the vector engine's are centred, the cluster's unsigned
        za = qm.layers[step.layer.name].act_params.zero_point
        codes.append(x + za if engine == "vector" else x.copy())
        return real_mac(step, x, lhs, product, pad)

    def quantize(r, p, dtype, **kw):
        quantized.append(np.shape(r))
        return real_quantize(r, p, dtype, **kw)

    monkeypatch.setattr(engine_module, "_mac", mac)
    monkeypatch.setattr(engine_module, "quantize", quantize)
    x = rng.choice([-1.0, 1.0], size=net.input_shape) * (0.5 + rng.random(net.input_shape))
    captures = {}
    probs, _ = infer_lut(qm, x, SystemConfig(), engine=engine, captures=captures)
    if engine == "vector":
        # K = 18, 9, 54 and 325: float32 holds K*255^2 for all but the dense layer at 8 bits
        f32, f64 = np.dtype(np.float32), np.dtype(np.float64)
        assert [q.dtype for q in codes] == {4: [f32] * 4, 8: [f32, f32, f32, f64], 16: [f64] * 4}[bits]
    else:  # unsigned integer codes from quantize or _requantize to mac8
        assert [q.dtype for q in codes] == [np.dtype(np.uint8 if bits <= 8 else np.uint16)] * 4
    for q in codes:
        assert q.min() == 0 and q.max() == qmax
    # no relu or residual add between MAC layers: each requantizes the output before it, and only the first quantizes
    assert quantized == [(1, *net.input_shape)]
    oprobs, oaccs = oracle_quantized_forward(qm, x)
    assert captures["acc"].keys() == oaccs.keys()
    for name, acc in oaccs.items():
        assert captures["acc"][name].dtype == np.int64
        assert np.array_equal(captures["acc"][name], acc), (bits, name)
    assert probs == pytest.approx(oprobs, abs=1e-12)


@pytest.mark.parametrize("backend", ["float", "vector", "cluster"])
def test_inference_leaves_the_callers_input_unchanged(backend):
    net = relu_hazard_network()
    rng = np.random.default_rng(71)
    ws = init_random_weights(net, seed=71)
    xs = rng.standard_normal((3, *net.input_shape))  # both signs, so the first relu has work to do
    qm = prepare_quantized(net, ws, list(xs), 8)
    for x in (xs[0], xs):
        before = x.copy()
        if backend == "float":
            infer_float(net, ws, x)
        else:
            infer_lut(qm, x, SystemConfig(), engine=backend)
        assert np.array_equal(x, before), x.shape


@pytest.mark.parametrize("engine", ["vector", "cluster"])
@pytest.mark.parametrize("bits", [4, 8, 16])
def test_relu_after_a_saved_residual_source_matches_the_integer_oracle(bits, engine):
    net = relu_hazard_network()
    rng = np.random.default_rng(500 + bits)
    ws = init_random_weights(net, seed=50)
    qm = prepare_quantized(net, ws, list(rng.standard_normal((3, *net.input_shape))), bits)
    x = rng.standard_normal(net.input_shape)
    captures = {}
    probs, _ = infer_lut(qm, x, SystemConfig(), engine=engine, captures=captures)
    oprobs, oaccs = oracle_quantized_forward(qm, x)
    assert captures["acc"].keys() == oaccs.keys()
    for name, acc in oaccs.items():
        assert np.array_equal(captures["acc"][name], acc), (bits, name)
    assert probs == pytest.approx(oprobs, abs=1e-12)


def test_infer_float_relu_after_a_saved_residual_source_matches_naive_conv_oracle():
    net = relu_hazard_network()
    rng = np.random.default_rng(72)
    ws = init_random_weights(net, seed=72)
    x = rng.standard_normal(net.input_shape)
    captures = {}
    infer_float(net, ws, x, captures=captures)

    def conv(name, inp):
        w, b = (ws[f"{name}.{t}"].data.astype(np.float64) for t in "wb")
        return naive_conv2d(inp, w, b, stride=1, pad=1)

    shortcut = conv("conv", np.maximum(x, 0.0))
    expect = np.maximum(shortcut + conv("conv2", np.maximum(shortcut, 0.0)), 0.0).reshape(-1)
    assert captures["layer_inputs"]["dense"] == pytest.approx(expect, rel=1e-12, abs=1e-12)


def test_a_quantized_layer_holds_its_centred_codes_once_read_only():
    net = tiny_conv_net()
    rng = np.random.default_rng(15)
    qm = prepare_quantized(net, init_random_weights(net, seed=15), random_inputs(net, rng, 2), 8)
    for ql in qm.layers.values():
        # one weight array, the (G, O/G, K/G) rows in the product's type; the unsigned codes are derived
        assert [name for name, v in vars(ql).items() if isinstance(v, np.ndarray)] == ["lhs", "bias"]
        assert ql.lhs.dtype == engine_module._product_dtype(ql.lhs.shape[-1], 8) and not ql.lhs.flags.writeable
        with pytest.raises(ValueError):
            ql.lhs[0, 0, 0] = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            ql.lhs = ql.lhs.copy()
        assert ql.qweight.dtype == np.float64
    conv = next(mac_layers(net))
    built = qm.layers[conv.name]
    shape = built.qweight.shape
    for codes in (rng.integers(0, 256, size=shape), rng.integers(0, 256, size=shape) * 1.0):
        ql = quantized_layer(conv, codes, built.wparams, built.bias, built.act_params)
        assert ql.lhs.dtype == np.float32 and not ql.lhs.flags.writeable  # K = 18
        assert np.array_equal(ql.lhs, (codes - 128).T.reshape(1, 3, 18))
        assert ql.qweight.dtype == np.float64 and np.array_equal(ql.qweight, codes)
        assert codes.flags.writeable  # the caller's array is left as it was


def _assert_cluster_matches_vector(qm, x):
    """Both engines and the integer oracle agree on every accumulator; the ledgers on MACs."""
    cv, cc = {}, {}
    pv, lv = infer_lut(qm, x, SystemConfig(), engine="vector", captures=cv)
    pc, lc = infer_lut(qm, x, SystemConfig(), engine="cluster", captures=cc)
    _, oaccs = oracle_quantized_forward(qm, x)
    assert cv["acc"].keys() == cc["acc"].keys() == oaccs.keys()
    for name in cv["acc"]:
        assert (cv["acc"][name] == cc["acc"][name]).all(), (qm.net.name, name)
        assert (cc["acc"][name] == oaccs[name]).all(), (qm.net.name, name)
    assert pv == pytest.approx(pc, abs=0)
    assert lv.mac_count == lc.mac_count


@pytest.mark.parametrize("bits", [4, 8, 16])
def test_a_projected_shortcut_runs_as_a_mac_layer(bits):
    """Its 1x1 strided conv matches the oracle on both engines, and runs the MACs its residual_add is charged."""
    net, ws = projected_shortcut_net()
    rng = np.random.default_rng(700 + bits)
    qm = prepare_quantized(net, ws, random_inputs(net, rng, 3), bits)
    assert list(qm.layers) == ["conv", "conv_s2", "add.proj", "dense"]
    x = rng.standard_normal(net.input_shape)
    _assert_cluster_matches_vector(qm, x)
    captures = {}
    probs, ledger = infer_lut(qm, x, SystemConfig(), captures=captures)
    oprobs, _ = oracle_quantized_forward(qm, x)
    assert probs == pytest.approx(oprobs, abs=1e-12)
    assert captures["acc"]["add.proj"].shape == (16, 4)  # (P, O) of a stride-2 1x1 conv of the (3, 7, 7) source
    rep = estimate(net, SystemConfig(), bits)
    by_name = {lc.name: lc for lc in rep.layers}
    assert captures["acc"]["add.proj"].size * 3 == by_name["add"].mac_count == 192  # K = 3 input channels
    assert ledger.mac_count == sum(lc.macs_effective for lc in rep.layers)
    assert ledger.total_ns == pytest.approx(rep.latency_ns, rel=1e-12)
    assert ledger.total_pj == pytest.approx(rep.energy_pj, rel=1e-12)


@pytest.mark.parametrize("engine", ["vector", "cluster"])
def test_a_model_mixing_precisions_runs_and_charges_each_layer_at_its_own(engine):
    """tinymalnet with conv1 at 8 bits, conv2 at 16 and dense at 4: the oracle's accumulators and per-layer charges."""
    net = tinymalnet()
    ws = init_random_weights(net, seed=90)
    rng = np.random.default_rng(90)
    cal = random_inputs(net, rng, 3)
    by_bits = {bits: prepare_quantized(net, ws, cal, bits) for bits in (4, 8, 16)}
    precisions = {"conv1": 8, "conv2": 16, "dense": 4}
    qm = dataclasses.replace(by_bits[8], layers={name: by_bits[b].layers[name] for name, b in precisions.items()})
    for name, b in precisions.items():
        assert qm.layers[name].wparams.bits == qm.layers[name].act_params.bits == b
    want = EnergyLedger()
    for layer in net.layers:  # a layer without MACs costs the same at any precision
        charge_layer(want, layer, SystemConfig(), precisions.get(layer.name, 8))
    xs = np.stack(random_inputs(net, rng, 3))
    for x in (xs[0], xs):
        captures = {}
        _, ledger = infer_lut(qm, x, SystemConfig(), engine=engine, captures=captures)
        oracle = [oracle_quantized_forward(qm, sample)[1] for sample in xs[: len(x) if x.ndim == 4 else 1]]
        assert captures["acc"].keys() == oracle[0].keys()
        for name, acc in captures["acc"].items():
            expect = np.stack([o[name] for o in oracle]) if x.ndim == 4 else oracle[0][name]
            assert np.array_equal(acc, expect), (x.shape, name)
        assert ledger.events == want.events


@pytest.mark.parametrize("name", ["tinymalnet", "mobilenet_v2", "resnet18"])
def test_random_weights_cover_every_mac_layer_and_projection(name):
    net = get_network(name)
    ws = init_random_weights(net, seed=1)
    layers = list(mac_layers(net))
    assert ws.entries.keys() == {f"{layer.name}.{t}" for layer in layers for t in "wb"}
    projections = [layer.name for layer in layers if layer.name.endswith(".proj")]
    shapes = {  # the stored layouts: (O, C/G, kh, kw) for a conv, one group per depthwise channel, (K, O) for dense
        "tinymalnet": {"conv2.w": (16, 8, 3, 3), "dense.w": (576, 2)},
        "mobilenet_v2": {"ir0_dw.w": (32, 1, 3, 3), "ir1_dw.w": (96, 1, 3, 3), "fc.w": (1280, 1000)},
        "resnet18": {"conv1.w": (64, 3, 7, 7), "fc.w": (512, 1000)},
    }[name]
    assert {key: ws[key].data.shape for key in shapes} == shapes
    if name == "resnet18":
        assert projections == ["s2b0_add.proj", "s3b0_add.proj", "s4b0_add.proj"]
        assert ws["s2b0_add.proj.w"].data.shape == (128, 64, 1, 1)
        probs = infer_float(net, ws, np.random.default_rng(1).random(net.input_shape))
        assert probs.shape == (1000,) and probs.sum() == pytest.approx(1.0)
    else:
        assert projections == []


def test_vector_engine_refuses_an_uncertified_byte_table(monkeypatch):
    net = tiny_conv_net()
    rng = np.random.default_rng(12)
    qm = prepare_quantized(net, init_random_weights(net, seed=12), random_inputs(net, rng, 2), 8)
    real_mac8 = engine_module.mac8

    def mac8_with_one_wrong_product(cluster, a, b):
        acc = real_mac8(cluster, a, b)
        if np.shape(acc) == (256, 256):  # the byte table: one lane per (a, b)
            acc = acc.copy()
            acc[200, 3] += 1
        return acc

    monkeypatch.setattr(engine_module, "mac8", mac8_with_one_wrong_product)
    engine_module._certify_byte_products.cache_clear()
    try:
        with pytest.raises(engine_module.CertificationError, match=r"\(200, 3\): 601, not 600"):
            infer_lut(qm, rng.random(net.input_shape))
    finally:
        engine_module._certify_byte_products.cache_clear()


def test_cluster_engine_32_bit_limit_at_the_boundary():
    # a (1, K) @ (K, 1) byte pass over two mac8 calls: 66,051 * 255*255 + 4*255 == 2**32 - 1
    k = 66_052
    lhs, rhs = np.full((1, k), 255, np.uint8), np.full((k, 1), 255, np.uint8)
    lhs[0, -1] = 4
    acc = engine_module._unsigned_dot_cluster(lhs, 0, rhs, 0, Cluster())
    assert acc.dtype == np.int64 and acc.tolist() == [[2**32 - 1]]
    lhs[0, -1], rhs[-1, 0] = 5, 205  # 2**32 + 4
    with pytest.raises(AccumulatorOverflowError):
        engine_module._unsigned_dot_cluster(lhs, 0, rhs, 0, Cluster())


def _record_cluster_calls(monkeypatch):
    """Per _unsigned_dot_cluster call: [lhs shape, rhs shape, lane count of each mac8 call it made]."""
    calls, real_dot, real_mac8 = [], engine_module._unsigned_dot_cluster, engine_module.mac8

    def dot(lhs, zl, rhs, zr, cluster):
        calls.append([lhs.shape, rhs.shape, []])
        return real_dot(lhs, zl, rhs, zr, cluster)

    def mac8(cluster, a, b):
        calls[-1][2].append(np.broadcast(a, b).size)
        return real_mac8(cluster, a, b)

    monkeypatch.setattr(engine_module, "_unsigned_dot_cluster", dot)
    monkeypatch.setattr(engine_module, "mac8", mac8)
    return calls


def _assert_blocks_of_k(calls, passes):
    """Each call made passes * ceil(K / block) mac8 calls, none wider than the lane bound, covering every MAC once."""
    for lhs_shape, rhs_shape, lanes in calls:
        k = lhs_shape[-1]
        per_k = math.prod(np.broadcast_shapes(lhs_shape[:-1] + (1,), rhs_shape[:-2] + (1, rhs_shape[-1])))
        block = max(1, CLUSTER_LANES // per_k)
        assert len(lanes) == passes * math.ceil(k / block), (lhs_shape, rhs_shape)
        assert max(lanes) <= max(CLUSTER_LANES, per_k), (lhs_shape, rhs_shape)
        assert sum(lanes) == passes * k * per_k, (lhs_shape, rhs_shape)


@pytest.mark.parametrize("make_net, bits, n", [(tinymalnet, 8, 8), (saturating_network, 16, 1)])
def test_cluster_engine_runs_blocks_of_k_within_the_lane_bound(make_net, bits, n, monkeypatch):
    net = make_net()
    rng = np.random.default_rng(500 + bits)
    qm = prepare_quantized(net, init_random_weights(net, seed=50), random_inputs(net, rng, 2), bits)
    xs = np.stack(random_inputs(net, rng, n))
    calls = _record_cluster_calls(monkeypatch)
    infer_lut(qm, xs, SystemConfig(), engine="cluster")
    assert len(calls) == len(qm.layers)
    _assert_blocks_of_k(calls, passes=1 if bits <= 8 else 4)


@pytest.mark.parametrize("bits", [4, 8, 16])
@pytest.mark.parametrize(
    "make_net",
    [tinymalnet, projected_shortcut_net, strided_depthwise_network, depthwise_residual_network],
    ids=["tinymalnet", "projected_shortcut", "strided_depthwise", "depthwise_residual"],
)
def test_cluster_engine_runs_the_mac_count_its_ledger_charges(make_net, bits, monkeypatch):
    """Per MAC layer of one sample, the mac8 lanes run equal the layer's ledger `mac` count: its MACs times passes."""
    made = make_net()
    net, ws = made if isinstance(made, tuple) else (made, init_random_weights(made, seed=80))
    rng = np.random.default_rng(80 + bits)
    qm = prepare_quantized(net, ws, random_inputs(net, rng, 2), bits)
    calls = _record_cluster_calls(monkeypatch)
    _, ledger = infer_lut(qm, rng.random(net.input_shape), SystemConfig(), engine="cluster")
    assert len(calls) == len(qm.layers)
    assert [sum(lanes) for _, _, lanes in calls] == [n for cat, n, _, _ in ledger.events if cat == "mac"]


@pytest.mark.parametrize("bits", [8, 16])
def test_cluster_counts_do_not_follow_host_blocking(bits, monkeypatch):
    """One sample's steps, lookups, tables and routes are the same however the host splits its layers into calls."""
    net = tinymalnet()
    rng = np.random.default_rng(60 + bits)
    qm = prepare_quantized(net, init_random_weights(net, seed=60), random_inputs(net, rng, 2), bits)
    x = rng.random(net.input_shape)
    clusters, counts = [], []
    monkeypatch.setattr(engine_module, "Cluster", lambda: clusters.append(Cluster()) or clusters[-1])
    for lanes, window_elements in itertools.product((65_536, 4_096, 512), (1, engine_module.WINDOW_ELEMENTS)):
        monkeypatch.setattr(engine_module, "CLUSTER_LANES", lanes)
        monkeypatch.setattr(engine_module, "WINDOW_ELEMENTS", window_elements)
        _, ledger = infer_lut(qm, x, engine="cluster")
        cl = clusters.pop()
        counts.append((cl.step_counter, [(c.lookup_count, c.table) for c in cl.cores], cl.router.transfer_log))
    # lane-steps: the MAC program's 8 steps for every MAC pass the ledger charges
    assert counts[0][0] == cluster_module.MAC_STEPS * ledger.mac_count
    assert counts == [counts[0]] * len(counts)


def test_cluster_engine_runs_one_k_per_call_past_the_lane_bound(monkeypatch):
    # one k of a (2, 3) @ (3, 40000) product already has 80,000 outputs
    rng = np.random.default_rng(14)
    lhs, rhs = rng.integers(0, 256, (2, 3), dtype=np.uint8), rng.integers(0, 256, (3, 40_000), dtype=np.uint8)
    calls = _record_cluster_calls(monkeypatch)
    want = lhs.astype(np.int64) @ rhs.astype(np.int64)
    assert np.array_equal(engine_module._unsigned_dot_cluster(lhs, 0, rhs, 0, Cluster()), want)
    assert calls[0][2] == [80_000] * 3
    _assert_blocks_of_k(calls, passes=1)


def test_cluster_function_tables_are_built_once_per_process(monkeypatch):
    built, real_build = Counter(), cluster_module.build_function_table
    monkeypatch.setattr(cluster_module, "build_function_table", lambda tag: built.update([tag]) or real_build(tag))
    cluster_module._table.cache_clear()
    cluster_module._mac_table.cache_clear()
    for a in range(5):
        cluster_module.mac8(Cluster(), a, 7)
    # scalar calls run the MAC program step by step and build no byte table
    assert cluster_module._mac_table.cache_info().currsize == 0
    cluster_module.mac8(Cluster(), np.arange(3, dtype=np.uint8), 7)
    info = cluster_module._mac_table.cache_info()
    assert (info.misses, info.currsize) == (1, 1)
    net = tiny_conv_net()
    rng = np.random.default_rng(15)
    qm = prepare_quantized(net, init_random_weights(net, seed=15), random_inputs(net, rng, 2), 8)
    for _ in range(3):
        infer_lut(qm, rng.random(net.input_shape), engine="cluster")
    assert built == {OpTag.MUL4: 1, OpTag.ADD4: 1}
    # the MAC program's byte table is built once, on the first lane mac8 call
    assert cluster_module._mac_table.cache_info().misses == 1
    (table, raw, lanes), products = cluster_module._table(OpTag.MUL4), cluster_module._mac_table()
    assert isinstance(raw, bytes) and raw == table.assembled_bytes() == lanes.tobytes()
    assert not lanes.flags.writeable and not products.flags.writeable
    assert products.dtype == np.int64 and products.shape == (65_536,)


def test_cluster_lanes_read_the_programs_products_not_a_times_b(monkeypatch):
    real_build = cluster_module.build_function_table

    def build_with_one_wrong_mul4_entry(tag):
        table = real_build(tag)
        if tag is not OpTag.MUL4:
            return table
        words = list(table.words)
        words[0] ^= 1 << 0x35  # 3 * 5 reads 14, not 15
        return dataclasses.replace(table, words=tuple(words))

    monkeypatch.setattr(cluster_module, "build_function_table", build_with_one_wrong_mul4_entry)
    caches = (cluster_module._table, cluster_module._mac_table, engine_module._certify_byte_products)
    for cache in caches:
        cache.cache_clear()
    try:
        byte = np.arange(256, dtype=np.uint8)
        lanes = cluster_module.mac8(Cluster(), byte[:, None], byte[None, :])
        one_lane = [[cluster_module.mac8(Cluster(), a, b) for b in range(256)] for a in range(256)]
        assert lanes.tolist() == one_lane
        assert (lanes != np.outer(byte.astype(np.int64), byte)).any()
        net = tiny_conv_net()
        rng = np.random.default_rng(16)
        qm = prepare_quantized(net, init_random_weights(net, seed=16), random_inputs(net, rng, 2), 8)
        with pytest.raises(engine_module.CertificationError, match=r"\(3, 5\): 14, not 15"):
            infer_lut(qm, rng.random(net.input_shape))
    finally:
        for cache in caches:
            cache.cache_clear()


def test_importing_lutpim_builds_no_cluster_table():
    # the tables are built on first use, so a cold start does not pay for them
    code = (
        "import lutpim, lutpim.cli, lutpim.engine\n"
        "from lutpim import cluster\n"
        "print(cluster._table.cache_info().currsize, cluster._mac_table.cache_info().currsize)"
    )
    src = str(Path(lutpim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert run.stdout.split() == ["0", "0"]


@pytest.mark.parametrize(
    "bits, k, dtype",
    [(4, 74_565, np.float32), (4, 74_566, np.float64), (8, 258, np.float32), (8, 259, np.float64), (16, 1, np.float64)],
)
def test_product_dtype_at_each_float32_edge(bits, k, dtype):
    # K*q^2 < 2^24 with q = 2^bits - 1: the last K whose sums float32 holds exactly, and the first past it
    q = (1 << bits) - 1
    assert (k * q * q < 2**24) == (dtype is np.float32)
    assert engine_module._product_dtype(k, bits) == dtype


@pytest.mark.parametrize("bits", [4, 8, 16])
def test_product_dtype_refuses_a_dot_past_float64s_exact_integers(bits):
    # the vector engine's one product of centred codes, and the cluster engine's recombined byte
    # passes and corrections, reach K*q^2
    q = (1 << bits) - 1
    k_max = (2**53 - 1) // (q * q)
    assert k_max * q * q < 2**53 <= (k_max + 1) * q * q
    assert engine_module._product_dtype(k_max, bits) == np.float64
    with pytest.raises(ValueError, match=f"dot length {k_max + 1}: a {bits}-bit"):
        engine_module._product_dtype(k_max + 1, bits)


@pytest.mark.parametrize("bits, k_max", [(4, 74_565), (8, 258)])
def test_saturated_float32_product_is_exact_at_the_largest_float32_k(bits, k_max):
    """Products, byte-pass sums and the cluster's zero-point corrections all reach K*q^2 = 2^24 - 91 or - 766."""
    assert engine_module._product_dtype(k_max, bits) == np.float32
    rng = np.random.default_rng(700 + bits)
    q = (1 << bits) - 1
    for zl, zr in itertools.product((0, q), repeat=2):
        for lcodes, rcodes in [(np.full(k_max, c), np.full(k_max, d)) for c in (0, q) for d in (0, q)] + [
            (rng.choice([0, q], size=k_max), rng.choice([0, q], size=k_max))
        ]:
            lhs, rhs = (lcodes - zl)[None, :], (rcodes - zr)[:, None]
            expect = lhs.astype(np.int64) @ rhs.astype(np.int64)
            vector = engine_module._raw_dot_vector(lhs.astype(np.float32), rhs.astype(np.float32), bits)
            cluster = engine_module._unsigned_dot_cluster(
                lcodes[None, :].astype(np.uint8), zl, rcodes[:, None].astype(np.uint8), zr, Cluster()
            )
            assert vector.dtype == np.float32 and cluster.dtype == np.int64
            assert np.array_equal(vector, expect), (zl, zr)
            assert np.array_equal(cluster, expect), (zl, zr)


def float32_edge_network() -> NetworkSpec:
    """1x1 convs whose dot lengths are K = 258 and 259, the last float32 K at 8 bits and the first past it."""
    return build_network(
        "k258",
        (258, 2, 2),
        [
            LayerSpec(name="k258", kind="conv2d", kernel=(1, 1), out_channels=259),
            LayerSpec(name="k259", kind="conv2d", kernel=(1, 1), out_channels=3),
            LayerSpec(name="flatten", kind="flatten"),
            LayerSpec(name="dense", kind="dense", out_features=2),
            LayerSpec(name="softmax", kind="softmax"),
        ],
    )


def _dot_length(layer) -> int:
    """K of a MAC layer from its spec: the length of each of its dot products."""
    if layer.kind == "dense":
        return layer.in_shape[0]
    kh, kw = layer.kernel
    return kh * kw * (1 if layer.kind == "depthwise_conv2d" else layer.in_shape[0])


def _run_bytes(qm, x, engine):
    """Probabilities, acc and logits captures and ledger events of one infer_lut call, as bytes."""
    captures = {}
    probs, ledger = infer_lut(qm, x, SystemConfig(), engine=engine, captures=captures)
    accs = {name: (acc.dtype.str, acc.shape, acc.tobytes()) for name, acc in captures["acc"].items()}
    return probs.tobytes(), accs, captures["logits"].tobytes(), ledger.events


@pytest.mark.parametrize("engine", ["vector", "cluster"])
@pytest.mark.parametrize("bits", [4, 8, 16])
@pytest.mark.parametrize(
    "make_net", [strided_depthwise_network, projected_shortcut_net, tinymalnet, float32_edge_network],
    ids=["strided_depthwise", "projected_shortcut", "tinymalnet", "k258"],
)
def test_float32_layers_give_the_bytes_of_float64_layers(make_net, bits, engine, monkeypatch):
    made = make_net()
    net, ws = made if isinstance(made, tuple) else (made, init_random_weights(made, seed=70))
    rng = np.random.default_rng(70 + bits)
    qm = prepare_quantized(net, ws, random_inputs(net, rng, 3), bits)
    dtypes = [ql.lhs.dtype for ql in qm.layers.values()]
    assert (np.float32 in dtypes) == (bits < 16)
    if make_net is float32_edge_network:
        f32, f64 = np.dtype(np.float32), np.dtype(np.float64)
        assert dtypes[:2] == {4: [f32, f32], 8: [f32, f64], 16: [f64, f64]}[bits]
    monkeypatch.setattr(engine_module, "_product_dtype", lambda k, bits: np.dtype(np.float64))
    qm64 = dataclasses.replace(qm, layers={})
    for layer in mac_layers(net):  # the same codes, rebuilt with float64 rows
        ql = qm.layers[layer.name]
        qm64.layers[layer.name] = quantized_layer(layer, ql.qweight, ql.wparams, ql.bias, ql.act_params)
    assert all(ql.lhs.dtype == np.float64 for ql in qm64.layers.values())
    for x in (rng.random(net.input_shape), np.stack(random_inputs(net, rng, 3))):
        assert _run_bytes(qm, x, engine) == _run_bytes(qm64, x, engine), (make_net, bits, engine, x.shape)


@pytest.mark.parametrize("name", sorted(ZOO))
def test_float32_layers_from_the_zoo_specs(name):
    net = get_network(name)
    layers = {layer.name: layer for layer in mac_layers(net)}
    for bits, dtype in ((4, np.float32), (16, np.float64)):
        assert all(engine_module._product_dtype(_dot_length(layer), bits) == dtype for layer in layers.values())
    at8 = {n: engine_module._product_dtype(_dot_length(layer), 8) for n, layer in layers.items()}
    if name == "tinymalnet":
        assert at8 == {"conv1": np.float32, "conv2": np.float32, "dense": np.float64}  # K = 9, 72 and 576
    if name == "mobilenet_v2":
        depthwise = [n for n, layer in layers.items() if layer.kind == "depthwise_conv2d"]
        assert len(depthwise) == 17 and all(at8[n] == np.float32 for n in depthwise)


def test_vector_product_is_exact_at_the_16_bit_bound():
    k_max = (2**53 - 1) // (65535 * 65535)
    lhs, rhs = np.full((1, k_max), 65535.0), np.full((k_max, 1), 65535.0)
    assert engine_module._raw_dot_vector(lhs, rhs, 16).tolist() == [[k_max * 65535 * 65535]]


@pytest.mark.parametrize("bits", [4, 8, 16])
def test_both_engines_take_the_same_product_of_centred_codes(bits):
    """The vector engine's product of centred codes equals the cluster's passes and corrections of unsigned codes."""
    rng = np.random.default_rng(600 + bits)
    qmax = (1 << bits) - 1
    zl, zr = 1 << (bits - 1), int(rng.integers(0, qmax + 1))
    for lhs_shape, rhs_shape in (((3, 7), (2, 7, 5)), ((4, 1, 9), (2, 4, 9, 6)), ((2, 1, 8), (8, 3))):
        for codes in ([0, qmax], range(qmax + 1)):  # saturated, then any code
            ul, ur = rng.choice(codes, size=lhs_shape), rng.choice(codes, size=rhs_shape)
            lhs, rhs = ul - zl, ur - zr
            expect = np.matmul(lhs.astype(np.int64), rhs.astype(np.int64))
            vector = engine_module._raw_dot_vector(lhs.astype(np.float64), rhs.astype(np.float64), bits)
            unsigned = np.uint8 if bits <= 8 else np.uint16
            cluster = engine_module._unsigned_dot_cluster(ul.astype(unsigned), zl, ur.astype(unsigned), zr, Cluster())
            assert cluster.dtype == np.int64
            assert np.array_equal(vector, expect), (lhs_shape, rhs_shape)
            assert np.array_equal(cluster, expect), (lhs_shape, rhs_shape)


def test_each_mac_layer_quantizes_its_input_once(monkeypatch):
    """Each MAC layer's product reads its input's codes once per batch; quantize runs only where the plan says."""
    events = []
    real_mac, real_quantize = engine_module._mac, engine_module.quantize

    def mac(step, x, lhs, product, pad=0):
        events.append((step.layer.name, x.dtype, x.shape))
        return real_mac(step, x, lhs, product, pad)

    def quantize(r, p, dtype, **kw):
        events.append(("quantize", np.shape(r)))
        return real_quantize(r, p, dtype, **kw)

    runs = []
    for net, want in (
        # every layer but the first requantizes the output of the one before
        (strided_depthwise_network(), [("quantize", (2, 9, 11)), ("conv", (2, 9, 11)), ("dw", (3, 9, 11)),
                                       ("conv_pad", (3, 4, 5)), ("dense", (2 * 4 * 5,))]),
        # conv's output is by way of relu a residual source, and dense reads the add's output: dw and dense
        # quantize their inputs
        (depthwise_residual_network(), [("quantize", (2, 6, 6)), ("conv", (2, 6, 6)), ("quantize", (3, 6, 6)),
                                        ("dw", (3, 6, 6)), ("quantize", (3 * 3 * 3,)), ("dense", (3 * 3 * 3,))]),
    ):
        rng = np.random.default_rng(13)
        qm = prepare_quantized(net, init_random_weights(net, seed=13), random_inputs(net, rng, 2), 8)
        runs.append((net, want, qm, rng))
    monkeypatch.setattr(engine_module, "_mac", mac)
    monkeypatch.setattr(engine_module, "quantize", quantize)
    for net, want, qm, rng in runs:
        for n, x in ((1, rng.random(net.input_shape)), (3, np.stack(random_inputs(net, rng, 3)))):
            # K = 2, 9, 27 and 40 in the first net, 18, 9 and 27 in the second: float32's exact integers at 8 bits
            for engine, codes in (("vector", np.dtype(np.float32)), ("cluster", np.dtype(np.uint8))):
                events.clear()
                infer_lut(qm, x, engine=engine)
                # the MAC layers' inputs, once per batch; one sample runs as a stack of one
                assert events == [
                    (what, (n, *shape)) if what == "quantize" else (what, codes, (n, *shape)) for what, shape in want
                ], (net.name, n, engine)


def _assert_same_outputs(a, b, where):
    """Two nested captures / outputs hold equal keys and arrays of equal shape, dtype and values."""
    if isinstance(a, dict):
        assert a.keys() == b.keys(), where
        for key in a:
            _assert_same_outputs(a[key], b[key], (*where, key))
    else:
        assert a.dtype == b.dtype and np.array_equal(a, b), where


@pytest.mark.parametrize("bits", [4, 8, 16])
def test_window_blocks_change_no_output(bits, monkeypatch):
    """One group per block, the default blocks and one block per layer give equal outputs and captures, and the integer oracle's."""
    rng = np.random.default_rng(700 + bits)
    nets = (strided_depthwise_network(), depthwise_residual_network(), tinymalnet(), wide_depthwise_network())
    nets = [(net, init_random_weights(net, seed=70 + i)) for i, net in enumerate(nets)] + [projected_shortcut_net()]
    for net, ws in nets:
        qm = prepare_quantized(net, ws, random_inputs(net, rng, 3), bits)
        xs = np.stack(random_inputs(net, rng, 3))
        runs = []
        for budget in (1, engine_module.WINDOW_ELEMENTS, 1 << 40):
            monkeypatch.setattr(engine_module, "WINDOW_ELEMENTS", budget)
            run = {}
            for x in (xs[0], xs):
                run["float", x.ndim] = caps = {}
                caps["probs"] = infer_float(net, ws, x, captures=caps)
                for engine in ("vector", "cluster"):
                    run[engine, x.ndim] = caps = {}
                    caps["probs"], _ = infer_lut(qm, x, SystemConfig(), engine=engine, captures=caps)
            runs.append(run)
        for run in runs[1:]:
            _assert_same_outputs(runs[0], run, (net.name, bits))
        for i, x in enumerate(xs):
            oprobs, oaccs = oracle_quantized_forward(qm, x)
            for engine in ("vector", "cluster"):
                single, stack = runs[0][engine, 3], runs[0][engine, 4]
                assert stack["acc"].keys() == oaccs.keys()
                for name, acc in oaccs.items():
                    assert np.array_equal(stack["acc"][name][i], acc), (net.name, engine, name)
                    if i == 0:
                        assert np.array_equal(single["acc"][name], acc), (net.name, engine, name)
                assert stack["probs"][i] == pytest.approx(oprobs, abs=1e-12)


def test_no_windows_array_exceeds_the_window_budget(monkeypatch):
    """A wide depthwise layer is windowed in blocks of at most WINDOW_ELEMENTS, on both backends and a stack."""
    net = wide_depthwise_network()
    rng = np.random.default_rng(71)
    ws = init_random_weights(net, seed=71)
    qm = prepare_quantized(net, ws, random_inputs(net, rng, 2), 8)
    real_windows = engine_module._windows
    sizes = []

    def windows(x, *geometry):
        win = real_windows(x, *geometry)
        sizes.append((win.size, len(x)))
        return win

    monkeypatch.setattr(engine_module, "_windows", windows)
    per_sample = 3 * 3 * 24 * 24  # one group's windows of one sample: k * P elements
    channels = net.input_shape[0]
    for x in (rng.random(net.input_shape), np.stack(random_inputs(net, rng, 3))):
        for run in (lambda: infer_float(net, ws, x), lambda: infer_lut(qm, x)):
            sizes.clear()
            run()
            assert len(sizes) > 1  # 259,200 window elements per sample would not fit one block
            for size, n in sizes:
                assert size <= max(engine_module.WINDOW_ELEMENTS, n * per_sample)
            _, n = sizes[0]
            assert sum(size for size, _ in sizes) == channels * n * per_sample  # every group, once


def _record_plan_builds(monkeypatch):
    """The (stack size, window budget) each layer plan is built from, from now on; earlier plans are not reused."""
    builds, build = [], engine_module._plan.__wrapped__

    def plan(net, n, budget):
        builds.append((n, budget))
        return build(net, n, budget)

    monkeypatch.setattr(engine_module, "_plan", functools.lru_cache(maxsize=32)(plan))
    return builds


def test_every_pass_builds_one_plan_per_net_stack_size_and_window_budget(monkeypatch):
    net = tinymalnet()
    rng = np.random.default_rng(19)
    ws = init_random_weights(net, seed=19)
    cal, labels = random_inputs(net, rng, 3), [0, 1, 1]  # one chunk of 3
    x, xs = rng.random(net.input_shape), np.stack(random_inputs(net, rng, 3))
    builds = _record_plan_builds(monkeypatch)
    for _ in range(3):
        qm = prepare_quantized(net, ws, cal, 8)  # a chunk of 3, and the plan of one sample for the weight rows
        fit_last_layer(net, ws, cal, labels)
        for inputs in (x, xs):
            infer_float(net, ws, inputs)
            for engine in ("vector", "cluster"):
                infer_lut(qm, inputs, engine=engine)
    assert Counter(builds) == {(3, engine_module.WINDOW_ELEMENTS): 1, (1, engine_module.WINDOW_ELEMENTS): 1}


def test_a_window_budget_change_between_calls_takes_effect(monkeypatch):
    net = wide_depthwise_network()
    ws = init_random_weights(net, seed=72)
    x = np.random.default_rng(72).random(net.input_shape)
    calls, real_windows = [], engine_module._windows
    monkeypatch.setattr(engine_module, "_windows", lambda *a: calls.append(1) or real_windows(*a))
    builds = _record_plan_builds(monkeypatch)
    default, blocks, probs = engine_module.WINDOW_ELEMENTS, [], []
    for budget in (default, 1, default, 1):
        monkeypatch.setattr(engine_module, "WINDOW_ELEMENTS", budget)
        calls.clear()
        probs.append(infer_float(net, ws, x))
        blocks.append(len(calls))
    # 12 of the 50 groups' windows (5,184 elements each) fit the default budget, one group fits 1 element
    assert blocks == [5, 50, 5, 50]
    assert builds == [(1, default), (1, 1)]
    assert all(np.array_equal(p, probs[0]) for p in probs)


def test_equal_networks_share_one_plan(monkeypatch):
    """Two equal nets built apart share one plan, and every pass runs on either with the other's plan."""
    net, twin = tinymalnet(), tinymalnet()
    assert net == twin and net is not twin
    rng = np.random.default_rng(73)
    ws = init_random_weights(net, seed=73)
    cal, x = random_inputs(net, rng, 3), rng.random(net.input_shape)
    builds = _record_plan_builds(monkeypatch)
    want = infer_float(net, ws, x)
    assert np.array_equal(infer_float(twin, ws, x), want)
    budget = engine_module.WINDOW_ELEMENTS
    assert engine_module._plan(twin, 1, budget) is engine_module._plan(net, 1, budget)
    fitted = fit_last_layer(net, init_random_weights(net, seed=73), cal, [0, 1, 1])
    fitted_twin = fit_last_layer(twin, init_random_weights(twin, seed=73), cal, [0, 1, 1])
    for key in ("dense.w", "dense.b"):
        assert np.array_equal(fitted[key].data, fitted_twin[key].data)
    for engine in ("vector", "cluster"):
        caps, twin_caps = {}, {}
        infer_lut(prepare_quantized(net, ws, cal, 8), x, engine=engine, captures=caps)
        infer_lut(prepare_quantized(twin, ws, cal, 8), x, engine=engine, captures=twin_caps)
        _assert_same_outputs(caps, twin_caps, (engine,))
    assert builds == [(1, budget), (3, budget)]


def test_a_plan_is_complete_when_it_is_built():
    """No pass fills in or changes a MAC step of the plans it runs, on either backend, engine, precision or stack."""
    rng = np.random.default_rng(74)
    budget = engine_module.WINDOW_ELEMENTS
    for net in (wide_depthwise_network(), depthwise_residual_network()):
        ws = init_random_weights(net, seed=74)
        xs = np.stack(random_inputs(net, rng, 3))
        plans = {n: engine_module._plan(net, n, budget) for n in (1, 3)}
        built = {n: [copy.deepcopy(vars(step)) for step in plan.macs] for n, plan in plans.items()}
        for bits in (4, 8, 16):
            qm = prepare_quantized(net, ws, list(xs), bits)
            for x in (xs[0], xs):
                infer_float(net, ws, x)
                for engine in ("vector", "cluster"):
                    infer_lut(qm, x, engine=engine, captures={})
        for n, plan in plans.items():
            assert engine_module._plan(net, n, budget) is plan, (net.name, n)  # the passes ran this plan
            assert [vars(step) for step in plan.macs] == built[n], (net.name, n)


def test_calibration_from_running_extremes_matches_concatenated_inputs():
    net = tinymalnet()
    ws = init_random_weights(net, seed=21)
    cal = random_inputs(net, np.random.default_rng(21), 3)
    collected = {}
    for x in cal:
        captures = {}
        infer_float(net, ws, x, captures=captures)
        for name, arr in captures["layer_inputs"].items():
            collected.setdefault(name, []).append(arr.ravel())
    for bits in (4, 8, 16):
        qm = prepare_quantized(net, ws, cal, bits)
        assert qm.layers.keys() == collected.keys()
        for name, ql in qm.layers.items():
            want = calibrate(np.concatenate(collected[name]), bits, symmetric=False)
            assert ql.act_params == want, (bits, name)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_calibration_rejects_a_non_finite_layer_input(bad):
    net = tiny_conv_net()
    ws = init_random_weights(net, seed=22)
    cal = random_inputs(net, np.random.default_rng(22), 3)
    cal[1][0, 2, 3] = bad
    with np.errstate(invalid="ignore"), pytest.raises(CalibrationError, match="layer 'conv'"):
        prepare_quantized(net, ws, cal, 8)


def test_prepare_quantized_rejects_bad_bits():
    net = tiny_conv_net()
    ws = init_random_weights(net, seed=1)
    with pytest.raises(ValueError):
        prepare_quantized(net, ws, random_inputs(net, np.random.default_rng(0), 2), 12)


def test_infer_lut_checks_engine_before_building_a_cluster(monkeypatch):
    net = tiny_conv_net()
    rng = np.random.default_rng(4)
    qm = prepare_quantized(net, init_random_weights(net, seed=4), random_inputs(net, rng, 2), 8)
    monkeypatch.setattr(engine_module, "Cluster", lambda: pytest.fail("Cluster built for an unknown engine"))
    with pytest.raises(ValueError, match="unknown engine 'warp'"):
        infer_lut(qm, rng.random(net.input_shape), engine="warp")


def test_ledger_counts_match_network_shape():
    net = tinymalnet()
    ws = init_random_weights(net, seed=3)
    rng = np.random.default_rng(3)
    cal = random_inputs(net, rng, 2)
    qm = prepare_quantized(net, ws, cal, bits=8)
    _, ledger = infer_lut(qm, cal[0], SystemConfig())
    # conv1 64800 + conv2 194688 + dense 1152, computed from the shape formulas
    assert ledger.mac_count == 64800 + 194688 + 1152
    counts = ledger.event_counts()
    assert counts.get("intra", 0) > 0  # relu/pool traffic is accounted


def _charged_events(net, cfg, bits):
    """The events perf.charge_layer charges for every layer of `net`, into a fresh ledger."""
    ledger = EnergyLedger()
    for layer in net.layers:
        charge_layer(ledger, layer, cfg, bits)
    return ledger.events


def _assert_ledger_is_the_estimate(ledger, net, cfg, bits):
    assert ledger.events == _charged_events(net, cfg, bits)
    rep = estimate(net, cfg, bits)
    assert ledger.mac_count == sum(lc.macs_effective for lc in rep.layers)
    assert ledger.total_ns == pytest.approx(rep.latency_ns, rel=1e-12)
    assert ledger.total_pj == pytest.approx(rep.energy_pj, rel=1e-12)


def test_each_call_gets_its_own_ledger():
    net = tinymalnet()
    rng = np.random.default_rng(31)
    qm = prepare_quantized(net, init_random_weights(net, seed=31), random_inputs(net, rng, 2), 8)
    x = rng.random(net.input_shape)
    _, first = infer_lut(qm, x, SystemConfig())
    first.events.append(("mac", 1, 6.4, 1.0))
    first.account_transfer("intra", count=3)
    _, second = infer_lut(qm, x, SystemConfig())
    assert second.events is not first.events
    _assert_ledger_is_the_estimate(second, net, SystemConfig(), 8)
    assert len(first.events) == len(second.events) + 2


@pytest.mark.parametrize("bits", [4, 8, 16])
def test_each_system_config_and_precision_gets_its_own_ledger(bits):
    net = tinymalnet()
    rng = np.random.default_rng(32)
    ws = init_random_weights(net, seed=32)
    cal = random_inputs(net, rng, 2)
    qm = prepare_quantized(net, ws, cal, bits)
    cfgs = [SystemConfig(), SystemConfig(clusters_per_subarray=8), SystemConfig(cluster_count=512)]
    events = []
    for cfg in cfgs:
        _, ledger = infer_lut(qm, cal[0], cfg)
        _assert_ledger_is_the_estimate(ledger, net, cfg, bits)
        _, cluster_ledger = infer_lut(qm, cal[0], cfg, engine="cluster")
        assert cluster_ledger.events == ledger.events
        events.append(ledger.events)
    assert events[0] != events[1] and events[0] != events[2] and events[1] != events[2]
    assert infer_lut(qm, cal[0])[1].events == events[0]  # no cfg is the default SystemConfig


@pytest.mark.parametrize("make_net", [strided_depthwise_network, depthwise_residual_network])
@pytest.mark.parametrize("engine", ["vector", "cluster"])
def test_depthwise_captures_hold_one_int64_column_per_channel(make_net, engine):
    """ "name[c]" is channel c's (P, 1) accumulator, (N, P, 1) for a stack, keyed in channel order."""
    net = make_net()
    rng = np.random.default_rng(33)
    qm = prepare_quantized(net, init_random_weights(net, seed=33), random_inputs(net, rng, 3), 8)
    dw = next(layer for layer in net.layers if layer.kind == "depthwise_conv2d")
    channels, positions = dw.out_shape[0], math.prod(dw.out_shape[1:])
    keys = [f"dw[{c}]" for c in range(channels)]
    xs = random_inputs(net, rng, 3)
    singles = []
    for x in xs:
        captures = {}
        infer_lut(qm, x, SystemConfig(), engine=engine, captures=captures)
        accs = captures["acc"]
        assert [k for k in accs if k.startswith("dw")] == keys
        _, oaccs = oracle_quantized_forward(qm, x)
        for key in keys:
            assert accs[key].dtype == np.int64 and accs[key].shape == (positions, 1)
            assert np.array_equal(accs[key], oaccs[key]), key
        singles.append(accs)
    captures = {}
    infer_lut(qm, np.stack(xs), SystemConfig(), engine=engine, captures=captures)
    assert [k for k in captures["acc"] if k.startswith("dw")] == keys
    for key in keys:
        stacked = captures["acc"][key]
        assert stacked.dtype == np.int64 and stacked.shape == (3, positions, 1)
        for i, single in enumerate(singles):
            assert np.array_equal(stacked[i], single[key]), (key, i)


def test_weights_round_trip(tmp_path):
    rng = np.random.default_rng(19)
    ws = WeightSet()
    ws.add("conv.w", rng.normal(size=(4, 2, 3, 3)).astype(np.float32))
    ws.add("conv.b", rng.normal(size=4).astype(np.float32))
    q = rng.integers(0, 255, size=(10, 3), dtype=np.int64)
    ws.add("conv.qw", q, params=QuantParams(scale=0.05, zero_point=7, bits=8))
    q4 = rng.integers(0, 15, size=(6,), dtype=np.int64)
    ws.add("d.q4", q4, params=QuantParams(scale=0.3, zero_point=8, bits=4))
    q16 = rng.integers(0, 65535, size=(3, 2), dtype=np.int64)
    ws.add("d.q16", q16, params=QuantParams(scale=1e-3, zero_point=11, bits=16))
    p = tmp_path / "w.pimw"
    save_weights(ws, p)
    back = load_weights(p)
    assert set(back.entries) == set(ws.entries)
    assert (back["conv.w"].data == ws["conv.w"].data).all()
    assert back["conv.w"].params is None
    for name in ("conv.qw", "d.q4", "d.q16"):
        assert (back[name].data == ws[name].data).all()
        assert back[name].params == ws[name].params
    # second save is byte-identical
    p2 = tmp_path / "w2.pimw"
    save_weights(back, p2)
    assert p.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("bits", [4, 8, 16])
def test_float64_and_int64_codes_save_to_the_same_bytes(bits, tmp_path):
    rng = np.random.default_rng(bits)
    codes = rng.integers(0, 1 << bits, size=(7, 5))
    codes[0, :2] = 0, (1 << bits) - 1
    params = QuantParams(scale=0.01, zero_point=1 << (bits - 1), bits=bits)
    for dtype in (np.int64, np.float64):
        ws = WeightSet()
        ws.add("layer.qw", codes.astype(dtype), params)
        save_weights(ws, tmp_path / f"{np.dtype(dtype).name}.pimw")
    assert (tmp_path / "float64.pimw").read_bytes() == (tmp_path / "int64.pimw").read_bytes()
    assert np.array_equal(load_weights(tmp_path / "float64.pimw")["layer.qw"].data, codes)


def test_weights_header(tmp_path):
    ws = WeightSet()
    ws.add("x", np.zeros(2, np.float32))
    p = tmp_path / "w.pimw"
    save_weights(ws, p)
    raw = p.read_bytes()
    assert raw[:4] == b"PIMW"
    assert raw[4] == 1
    assert int.from_bytes(raw[5:9], "little") == 1  # tensor count


def test_weights_error_cases(tmp_path):
    bad = tmp_path / "bad.pimw"
    bad.write_bytes(b"NOPE" + bytes(16))
    with pytest.raises(WeightFormatError):
        load_weights(bad)
    ver = tmp_path / "ver.pimw"
    ver.write_bytes(b"PIMW\x09" + bytes(16))
    with pytest.raises(WeightFormatError):
        load_weights(ver)
    ws = WeightSet()
    ws.add("conv.w", np.zeros((2, 2), np.float32))
    full = tmp_path / "full.pimw"
    save_weights(ws, full)
    trunc = tmp_path / "trunc.pimw"
    trunc.write_bytes(full.read_bytes()[:-5])
    with pytest.raises(WeightFormatError, match="conv.w"):
        load_weights(trunc)


def test_metrics_worked_example():
    # 50 TP, 10 FP, 10 FN, 30 TN -> accuracy 80/100, precision 50/60, recall 50/60
    y = np.array([1] * 60 + [0] * 40)
    probs = np.zeros((100, 2))
    probs[:50] = (0.1, 0.9)  # TP
    probs[50:60] = (0.8, 0.2)  # FN
    probs[60:70] = (0.2, 0.8)  # FP
    probs[70:] = (0.9, 0.1)  # TN
    m = metrics_from_predictions(y, probs)
    assert m.tp == 50 and m.fp == 10 and m.fn == 10 and m.tn == 30
    assert m.accuracy == pytest.approx(0.8)
    assert m.precision == pytest.approx(50 / 60)
    assert m.recall == pytest.approx(50 / 60)
    assert m.f1 == pytest.approx(2 * (50 / 60) * (50 / 60) / ((50 / 60) + (50 / 60)))


def test_metrics_perfect_classifier():
    y = np.array([0, 1, 1, 0])
    probs = np.array([[0.9, 0.1], [0.2, 0.8], [0.1, 0.9], [0.6, 0.4]])
    m = metrics_from_predictions(y, probs)
    assert m.accuracy == 1.0 and m.f1 == 1.0
    assert m.probability_gap == 0.0


@pytest.mark.parametrize("bits", [None, 4, 8, 16])
def test_evaluate_in_chunks_equals_a_per_sample_loop(bits):
    net = tinymalnet()
    ws = init_random_weights(net, seed=34)
    rng = np.random.default_rng(34)
    inputs = random_inputs(net, rng, 17)  # two full chunks and one sample
    labels = rng.integers(0, 2, size=17)
    if bits is None:
        probs = [infer_float(net, ws, x) for x in inputs]
    else:
        qm = prepare_quantized(net, ws, inputs[:5], bits)
        probs = [infer_lut(qm, x)[0] for x in inputs]
    want = metrics_from_predictions(labels, np.stack(probs))
    assert evaluate(net, ws, inputs, labels, bits=bits, cal_count=5) == want


@pytest.mark.parametrize("bits", [None, 8])
def test_evaluate_refuses_an_empty_or_mismatched_corpus(bits, monkeypatch):
    net = tiny_conv_net()
    ws = init_random_weights(net, seed=15)
    inputs = random_inputs(net, np.random.default_rng(15), 3)
    for name in ("infer_float", "infer_lut", "prepare_quantized"):
        monkeypatch.setattr(engine_module, name, lambda *a, **k: pytest.fail("evaluate worked before checking"))
    with pytest.raises(ValueError, match="cannot evaluate an empty corpus"):
        evaluate(net, ws, [], [], bits=bits)
    with pytest.raises(ValueError, match="3 inputs but 2 labels"):
        evaluate(net, ws, inputs, [0, 1], bits=bits)


def test_trained_model_separates_corpus(trained_model, eval_corpus):
    net, ws = trained_model
    inputs, labels = eval_corpus
    m = evaluate(net, ws, inputs, labels)
    assert m.accuracy >= 0.95


def test_an_empty_stack_is_refused_by_both_backends():
    net = tiny_conv_net()
    ws = init_random_weights(net, seed=16)
    qm = prepare_quantized(net, ws, random_inputs(net, np.random.default_rng(16), 2), 8)
    empty = np.empty((0, *net.input_shape))
    with pytest.raises(ValueError, match="empty stack"):
        infer_float(net, ws, empty)
    for engine in ("vector", "cluster"):
        with pytest.raises(ValueError, match="empty stack"):
            infer_lut(qm, empty, engine=engine)


def test_a_second_infer_lut_call_hashes_no_layer_spec(monkeypatch):
    net = tinymalnet()
    qm = prepare_quantized(net, init_random_weights(net, seed=17), random_inputs(net, np.random.default_rng(17), 2), 8)
    x = np.random.default_rng(18).random(net.input_shape)
    infer_lut(qm, x)
    hashed = []
    real_hash = LayerSpec.__hash__
    monkeypatch.setattr(LayerSpec, "__hash__", lambda layer: hashed.append(layer.name) or real_hash(layer))
    infer_lut(qm, x)
    assert hashed == []
    twin = tinymalnet()  # equal and hashed alike, though built apart
    assert twin == net and hash(twin) == hash(net) and hashed
