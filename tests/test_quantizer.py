import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lutpim.quantizer import (
    CalibrationError,
    QuantParams,
    calibrate,
    dequantize,
    quantize,
)


def test_asymmetric_calibration_example():
    p = calibrate(np.array([0.0, 25.5]), bits=8)
    assert p.scale == pytest.approx(0.1)
    assert p.zero_point == 0
    assert quantize(12.8, p) == 128
    assert dequantize(128, p) == pytest.approx(12.8)


def test_asymmetric_negative_range():
    p = calibrate(np.array([-1.0, 1.0]), bits=4)
    assert p.scale == pytest.approx(2.0 / 15.0)
    assert p.zero_point == 8  # round(1/(2/15)) = round(7.5) -> 8
    assert dequantize(p.zero_point, p) == pytest.approx(2.0 / 15.0 * 0.0 + p.scale * 0)


def test_symmetric_calibration():
    p = calibrate(np.array([-3.0, 2.0]), bits=8, symmetric=True)
    assert p.scale == pytest.approx(3.0 / 127.0)
    assert p.zero_point == 128
    # symmetric zero is represented exactly
    assert quantize(0.0, p) == 128
    assert dequantize(quantize(0.0, p), p) == 0.0


def test_degenerate_range():
    p = calibrate(np.full(5, 7.0), bits=8)
    assert p.scale == 1.0
    assert dequantize(quantize(7.0, p), p) == pytest.approx(7.0)
    z = calibrate(np.zeros(3), bits=8, symmetric=True)
    assert z.scale == 1.0


def test_round_half_even():
    p = QuantParams(scale=1.0, zero_point=0, bits=8)
    assert quantize(0.5, p) == 0
    assert quantize(1.5, p) == 2
    assert quantize(2.5, p) == 2
    assert quantize(3.5, p) == 4


def test_saturation():
    p = QuantParams(scale=0.1, zero_point=0, bits=8)
    assert quantize(1e9, p) == 255
    assert quantize(-1e9, p) == 0
    p4 = QuantParams(scale=0.1, zero_point=8, bits=4, symmetric=True)
    assert quantize(1e9, p4) == 15


@pytest.mark.parametrize("bits", [4, 8, 16])
@pytest.mark.parametrize("symmetric", [False, True])
def test_round_trip_error_bound(bits, symmetric):
    # in-range values reconstruct within half a scale step
    vals = np.linspace(-4.0, 4.0, 10_000)
    p = calibrate(vals, bits, symmetric=symmetric)
    err = np.abs(dequantize(quantize(vals, p), p) - vals)
    assert err.max() <= p.scale / 2 + 1e-12


def test_rms_error_decreases_with_bits():
    rng = np.random.default_rng(5)
    vals = rng.normal(size=4096)
    rms = []
    for bits in (4, 8, 16):
        p = calibrate(vals, bits)
        rms.append(float(np.sqrt(np.mean((dequantize(quantize(vals, p), p) - vals) ** 2))))
    assert rms[0] > rms[1] > rms[2]


@given(
    a=st.floats(-100, 100),
    b=st.floats(-100, 100),
    bits=st.sampled_from([4, 8, 16]),
)
@settings(settings.get_profile("derandomized"), max_examples=200)
def test_quantize_monotone(a, b, bits):
    p = QuantParams(scale=0.37, zero_point=1 << (bits - 1), bits=bits)
    if a <= b:
        assert quantize(a, p) <= quantize(b, p)
    else:
        assert quantize(a, p) >= quantize(b, p)


def test_errors():
    with pytest.raises(CalibrationError):
        calibrate(np.array([]), bits=8)
    with pytest.raises(CalibrationError):
        calibrate(np.array([1.0, np.nan]), bits=8)
    with pytest.raises(ValueError):
        calibrate(np.array([1.0]), bits=5)
    p = QuantParams(scale=1.0, zero_point=0, bits=4)
    with pytest.raises(ValueError):
        dequantize(16, p)
    with pytest.raises(ValueError):
        quantize(np.inf, p)
    with pytest.raises(ValueError):
        QuantParams(scale=-1.0, zero_point=0, bits=8)
    with pytest.raises(ValueError):
        QuantParams(scale=1.0, zero_point=300, bits=8)
    with pytest.raises(ValueError):
        QuantParams(scale=1.0, zero_point=0, bits=8, symmetric=True)


@pytest.mark.parametrize("bits", [4, 8, 16])
def test_array_codes_are_float64_integers_equal_to_the_integer_formula(bits):
    rng = np.random.default_rng(bits)
    p = QuantParams(scale=0.25, zero_point=(1 << bits) // 3, bits=bits)
    ties = (np.arange(-40, 40) + 0.5) * p.scale  # r/S lands exactly halfway between two integers
    spread = (1 << bits) * p.scale
    vals = np.concatenate([ties, rng.uniform(-spread, spread, 500)]).reshape(20, -1)
    q = quantize(vals, p)
    # Python's round() is half-even; clamp in int
    want = [min(max(round(v / p.scale) + p.zero_point, 0), p.qmax) for v in vals.ravel().tolist()]
    assert q.dtype == np.float64 and q.shape == vals.shape
    assert np.array_equal(q, np.rint(q))
    assert np.array_equal(q.ravel().astype(np.int64), np.array(want, dtype=np.int64))
    assert q.min() == 0 and q.max() == p.qmax


def _ulps(v: float, d: int) -> float:
    """v moved d float64 ulps."""
    for _ in range(abs(d)):
        v = np.nextafter(v, np.copysign(np.inf, d))
    return v


def _ties_and_both_ends(bits, scale, zero, codes, seed):
    """(p, x): values within a few ulps of a half-way r/S, spread values, and one past each end of the range."""
    p = QuantParams(scale=scale, zero_point=zero % (1 << bits), bits=bits)
    halves = [(c % (1 << bits) - p.zero_point + 0.5) * scale for c in codes]  # k + 0.5 with k + Z a code
    near = [_ulps(v, d) for v in halves for d in range(-4, 5)]
    spread = np.random.default_rng(seed).uniform(-2.0, 2.0, 64) * (1 << bits) * scale
    ends = np.array([-1.0, 1.0]) * (2 << bits) * scale  # twice the range from 0: clips to 0 and qmax
    return p, np.concatenate([near, spread, ends])


CODE_CASES = dict(
    bits=st.sampled_from([4, 8, 16]),
    scale=st.floats(1e-6, 1e3),
    zero=st.integers(0, 65535),
    codes=st.lists(st.integers(0, 65535), min_size=1, max_size=8),
    seed=st.integers(0, 2**32 - 1),
)


@given(**CODE_CASES)
@settings(settings.get_profile("derandomized"), max_examples=200)
def test_float32_codes_round_as_float64_codes(bits, scale, zero, codes, seed):
    """quantize(x, p, float32) equals quantize(x, p), also within a few ulps of a half-way r/S.

    Dividing in float32 instead would round some of those x/S to the other integer.
    """
    p, x = _ties_and_both_ends(bits, scale, zero, codes, seed)
    q32, q64 = quantize(x, p, np.float32), quantize(x, p)
    assert q32.dtype == np.float32 and q64.dtype == np.float64
    assert np.array_equal(q32, q64)


@given(**CODE_CASES)
@settings(settings.get_profile("derandomized"), max_examples=200)
def test_unsigned_codes_equal_float64_codes(bits, scale, zero, codes, seed):
    """quantize(x, p, uint8) at 4 and 8 bits and quantize(x, p, uint16) at 16 equal quantize(x, p) code for code."""
    p, x = _ties_and_both_ends(bits, scale, zero, codes, seed)
    dtype = np.uint8 if bits <= 8 else np.uint16
    q, q64 = quantize(x, p, dtype), quantize(x, p)
    assert q.dtype == dtype
    assert np.array_equal(q, q64)
    assert q[-2] == 0 and q[-1] == p.qmax


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [0, 7, -1])
def test_non_finite_values_anywhere_in_an_array_raise(bad, where):
    p = QuantParams(scale=0.1, zero_point=3, bits=8)
    vals = np.linspace(-1.0, 1.0, 24).reshape(2, 3, 4)
    vals.flat[where] = bad
    with pytest.raises(ValueError, match="non-finite"):
        quantize(vals, p)


def test_an_overflowing_quotient_clips():
    p = QuantParams(scale=1e-300, zero_point=9, bits=8)
    with np.errstate(over="ignore"):
        q = quantize(np.array([1e300, -1e300, 0.0]), p)
    assert q.tolist() == [255.0, 0.0, 9.0]


def test_quantize_leaves_its_input_unchanged():
    p = QuantParams(scale=0.3, zero_point=5, bits=4)
    vals = np.linspace(-9.0, 9.0, 50).reshape(5, 10)
    before = vals.copy()
    q = quantize(vals, p)
    assert np.array_equal(vals, before) and not np.shares_memory(q, vals)


def test_a_scalar_returns_an_int():
    p = QuantParams(scale=1.0, zero_point=2, bits=8)
    for r in (2.5, 3, np.float64(2.5), np.array(2.5)):
        q = quantize(r, p)
        assert type(q) is int and q == (4 if r != 3 else 5)


def test_dequantize_refuses_non_integral_codes():
    p = QuantParams(scale=0.5, zero_point=2, bits=8)
    for bad in (1.5, np.array([1.0, 2.5]), np.array([np.nan])):
        with pytest.raises(ValueError, match="integers"):
            dequantize(bad, p)
    codes = np.array([0, 2, 255])
    assert np.array_equal(dequantize(codes.astype(np.float64), p), dequantize(codes, p))
    assert dequantize(3.0, p) == 0.5
