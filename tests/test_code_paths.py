"""infer_lut requantizes a MAC layer's output for the next MAC layer: the plan, the code writer and the bias check."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lutpim.engine as engine_module
from lutpim.engine import BiasError, infer_lut, init_random_weights, prepare_quantized, quantized_layer
from lutpim.nets import get_network, mac_layers, tinymalnet
from lutpim.quantizer import QuantParams, quantize
from lutpim.system import SystemConfig
from tests.helpers import code_path_network, oracle_quantized_forward, random_inputs


def _requantizing(net):
    """(MAC layer, whether a relu lies before it) of each MAC step that requantizes its input."""
    plan = engine_module._plan(net, 1, engine_module.WINDOW_ELEMENTS)
    return [(s.layer.name, s.relu) for s in plan.macs if s.requantize]


def test_the_plan_requantizes_where_nothing_but_relu_pool_and_flatten_lies_between_mac_layers():
    assert _requantizing(code_path_network()) == [("conv_b", True), ("dw", False)]
    assert _requantizing(tinymalnet()) == [("conv2", True), ("dense", True)]
    # mobilenet_v2 has no residual add: every MAC layer but the first, with no relu after a project layer
    net = get_network("mobilenet_v2")
    names = [layer.name for layer in mac_layers(net)]
    assert _requantizing(net) == [(name, not before.endswith("_project")) for before, name in zip(names, names[1:])]
    # resnet18: only each block's second conv, whose input comes from the first through a relu that no add reads
    blocks = [f"s{stage}b{b}" for stage in (1, 2, 3, 4) for b in (0, 1)]
    assert _requantizing(get_network("resnet18")) == [(f"{b}_conv2", True) for b in blocks]


def _code_path_model(bits):
    """code_path_network's model at `bits`, or at "8/16": conv_b at 16 bits, the rest at 8. Its biases are nonzero."""
    net = code_path_network()
    rng = np.random.default_rng(91)
    ws = init_random_weights(net, seed=91)
    for layer in mac_layers(net):
        ws.add(f"{layer.name}.b", rng.normal(scale=0.5, size=layer.out_shape[0]).astype(np.float32))
    cal = [rng.standard_normal(net.input_shape) for _ in range(3)]
    if bits != "8/16":
        return net, prepare_quantized(net, ws, cal, bits)
    by_bits = {b: prepare_quantized(net, ws, cal, b) for b in (8, 16)}
    layers = {name: by_bits[16 if name == "conv_b" else 8].layers[name] for name in by_bits[8].layers}
    return net, dataclasses.replace(by_bits[8], layers=layers)


@pytest.mark.parametrize("bits", [4, 8, 16, "8/16"])
def test_every_edge_of_the_code_path_matches_the_integer_oracle(bits, monkeypatch):
    """A padded pool, a relu after it, no relu, a residual source and a precision boundary: the oracle's results.

    Both engines, one sample and a stack of 3, one group per window block and
    the default blocks. The oracle quantizes every MAC layer's float input.
    """
    net, qm = _code_path_model(bits)
    xs = np.random.default_rng(92).standard_normal((3, *net.input_shape))  # both signs, so each relu has work
    oracle = [oracle_quantized_forward(qm, x) for x in xs]
    seen = {}
    real_mac = engine_module._mac

    def mac(step, x, lhs, product, pad=0):
        seen[step.layer.name] = x.dtype
        return real_mac(step, x, lhs, product, pad)

    monkeypatch.setattr(engine_module, "_mac", mac)
    for budget in (1, engine_module.WINDOW_ELEMENTS):
        monkeypatch.setattr(engine_module, "WINDOW_ELEMENTS", budget)
        for x in (xs[0], xs):
            for engine in ("vector", "cluster"):
                captures = {}
                probs, _ = infer_lut(qm, x, SystemConfig(), engine=engine, captures=captures)
                for i, (oprobs, oaccs) in enumerate(oracle[: len(x) if x.ndim == 4 else 1]):
                    assert captures["acc"].keys() == oaccs.keys()
                    for name, acc in oaccs.items():
                        got = captures["acc"][name][i] if x.ndim == 4 else captures["acc"][name]
                        assert np.array_equal(got, acc), (bits, budget, x.shape, engine, name)
                    assert (probs[i] if x.ndim == 4 else probs) == pytest.approx(oprobs, abs=1e-12)
                if bits == "8/16":  # conv_b requantizes 8-bit conv_a's output to 16-bit codes, and dw conv_b's to 8-bit
                    f32, f64, u8, u16 = (np.dtype(t) for t in (np.float32, np.float64, np.uint8, np.uint16))
                    assert seen == (
                        {"conv_a": f32, "conv_b": f64, "dw": f32, "conv_c": f32, "dense": f32}
                        if engine == "vector"
                        else {"conv_a": u8, "conv_b": u16, "dw": u8, "conv_c": u8, "dense": u8}
                    )


def _ulps(v: float, d: int) -> float:
    """v moved d float64 ulps."""
    for _ in range(abs(d)):
        v = np.nextafter(v, np.copysign(np.inf, d))
    return v


@given(
    bits=st.sampled_from([4, 8, 16]),
    scale=st.floats(1e-6, 1e3),
    zero=st.integers(0, 65535),
    codes=st.lists(st.integers(0, 65535), min_size=1, max_size=8),
    seed=st.integers(0, 2**32 - 1),
)
@example(bits=8, scale=1e-6, zero=200, codes=[0], seed=0)  # a/S of the largest values overflows to +-inf
@settings(settings.get_profile("derandomized"), max_examples=200)
def test_written_codes_are_quantize_codes_byte_for_byte(bits, scale, zero, codes, seed):
    """The code writer equals quantize(max(a, 0)) and quantize(a), in every code type; centred, quantize(...) - Z.

    The values: within a few ulps of a half-way a/S, +-0.0 and -0.25*S,
    whose rint is -0.0, a/S past 2**53, where adding Z rounds, float64's
    largest values, whose a/S overflows when S < 1, and a spread of values.
    """
    p = QuantParams(scale=scale, zero_point=zero % (1 << bits), bits=bits)
    halves = [(c % (1 << bits) - p.zero_point + 0.5) * scale for c in codes]  # k + 0.5 with k + Z a code
    near = [_ulps(v, d) for v in halves for d in range(-4, 5)]
    edges = [0.0, -0.0, -0.25 * scale, 0.25 * scale]
    big = [sign * m * 2.0**53 * scale for sign in (-1, 1) for m in (1, 1.5, 3)]
    huge = [-np.finfo(np.float64).max, np.finfo(np.float64).max, -1e300, 1e300]
    spread = np.random.default_rng(seed).uniform(-2.0, 2.0, 64) * (1 << bits) * scale
    a = np.concatenate([near, edges, big, huge, spread])
    for dtype in (np.float32, np.float64, np.uint8 if bits <= 8 else np.uint16):
        for relu in (False, True):
            with np.errstate(over="ignore"):
                want = quantize(np.maximum(a, 0.0) if relu else a, p, dtype)
                got = engine_module._requantize(a.copy(), p, relu, dtype)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), (dtype, relu)
            if np.dtype(dtype).kind == "f":  # the vector engine's centred codes
                with np.errstate(over="ignore"):
                    centred = engine_module._requantize(a.copy(), p, relu, dtype, centred=True)
                want_centred = want - dtype(p.zero_point)
                assert centred.dtype == want_centred.dtype and np.array_equal(centred, want_centred)
                # the only bytes that differ are a centred 0 of either sign
                assert (centred + dtype(0.0)).tobytes() == want_centred.tobytes(), (dtype, relu)


def test_a_centred_code_of_0_may_be_negative_zero():
    """rint(-0.25) is -0.0, which the centred clip keeps: the vector engine reads it as 0, as it does +0.0."""
    p = QuantParams(scale=0.5, zero_point=7, bits=8)
    assert quantize(-0.125, p) - p.zero_point == 0
    codes = engine_module._requantize(np.array([-0.125, 0.0]), p, False, np.float32, centred=True)
    assert np.array_equal(codes, [0.0, 0.0]) and list(np.signbit(codes)) == [True, False]
    codes = engine_module._requantize(np.array([-0.125, 0.0]), p, True, np.float32, centred=True)
    assert np.array_equal(codes, [0.0, 0.0]) and not np.signbit(codes[1])


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("layer", ["conv1", "dense"])
def test_a_layer_whose_bias_is_not_finite_is_refused_when_it_is_built(layer, value):
    net = tinymalnet()
    rng = np.random.default_rng(93)
    ws = init_random_weights(net, seed=93)
    cal = random_inputs(net, rng, 2)
    qm = prepare_quantized(net, ws, cal, 8)
    spec = next(l for l in mac_layers(net) if l.name == layer)
    ql = qm.layers[layer]
    bias = ql.bias.copy()
    bias[0] = value
    message = f"bias {layer}.b of layer '{layer}' is not finite"
    with pytest.raises(BiasError, match=message):
        quantized_layer(spec, ql.qweight, ql.wparams, bias, ql.act_params)
    ws.add(f"{layer}.b", bias.astype(np.float32))
    # not CalibrationError on conv2's input, which a conv1 bias poisons; the calibration pass computes with the bias
    with pytest.raises(BiasError, match=message), np.errstate(invalid="ignore"):
        prepare_quantized(net, ws, cal, 8)


def test_a_bias_that_takes_the_output_bound_past_float64_is_refused():
    """K*q^2*sa*sw + max|b| overflows, from a finite bias and a finite bound, or from scales whose product overflows."""
    net = tinymalnet()
    qm = prepare_quantized(net, init_random_weights(net, seed=94), random_inputs(net, np.random.default_rng(94), 2), 8)
    spec, ql = next(iter(mac_layers(net))), qm.layers["conv1"]
    peak = np.full_like(ql.bias, np.finfo(np.float64).max)
    wide = QuantParams(scale=1e290, zero_point=ql.act_params.zero_point, bits=8)  # K*q^2*sa*sw near 6e295
    message = r"bias conv1.b of layer 'conv1': the output bound K\*q\^2\*sa\*sw \+ max\|b\| = "
    with pytest.raises(BiasError, match=message):
        quantized_layer(spec, ql.qweight, ql.wparams, peak, wide)
    quantized_layer(spec, ql.qweight, ql.wparams, peak, ql.act_params)  # a bound that stays finite is built
    with pytest.raises(BiasError, match=message):
        quantized_layer(spec, ql.qweight, QuantParams(scale=1e10, zero_point=128, bits=8), ql.bias,
                        QuantParams(scale=1e300, zero_point=0, bits=8))
