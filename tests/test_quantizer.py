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
@settings(max_examples=200, deadline=None)
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
