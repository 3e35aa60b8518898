"""Uniform affine quantization r = S*(q - Z) for N in SUPPORTED_BITS, plus calibration.

Weights use the symmetric scheme (Z fixed at mid-range); activations use
asymmetric min-max calibration. Rounding is half-even throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SUPPORTED_BITS = (4, 8, 16)


class CalibrationError(ValueError):
    """Empty or non-finite calibration input."""


@dataclass(frozen=True)
class QuantParams:
    scale: float
    zero_point: int
    bits: int

    def __post_init__(self):
        if self.bits not in SUPPORTED_BITS:
            raise ValueError(f"bits must be one of {SUPPORTED_BITS}, got {self.bits}")
        if not (self.scale > 0 and math.isfinite(self.scale)):
            raise ValueError(f"scale must be positive and finite, got {self.scale}")
        if not 0 <= self.zero_point <= self.qmax:
            raise ValueError(f"zero_point {self.zero_point} outside [0, {self.qmax}]")

    @property
    def qmax(self) -> int:
        return (1 << self.bits) - 1


def calibrate(values, bits: int, symmetric: bool = False) -> QuantParams:
    """Min-max affine calibration, or symmetric (Z at mid-range); degenerate ranges fall back to scale 1.

    values are read in place, in any memory order: one min and one max, with
    no copy of a non-contiguous view and no full-size temporary.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise CalibrationError("cannot calibrate from an empty value set")
    lo, hi = float(arr.min()), float(arr.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):  # min and max propagate NaN
        raise CalibrationError("calibration values must be finite")
    qmax = (1 << bits) - 1
    if symmetric:
        peak = max(-lo, hi)  # the largest magnitude
        half = (1 << (bits - 1)) - 1
        scale = peak / half if peak > 0 else 1.0
        return QuantParams(scale=scale, zero_point=1 << (bits - 1), bits=bits)
    if hi == lo:
        scale = 1.0
    else:
        scale = (hi - lo) / qmax
    zp = int(min(max(round(-lo / scale), 0), qmax))
    return QuantParams(scale=scale, zero_point=zp, bits=bits)


def quantize(r, p: QuantParams, dtype=np.float64):
    """q = clamp(round_half_even(r/S) + Z, 0, 2^N - 1).

    A scalar returns an int. An array returns a fresh C-ordered array of
    `dtype` and of r's shape holding the integer codes. The division,
    rounding, zero point and clip run in float64 whatever the dtype, so a
    half-way r/S rounds as it does at float64; the clipped codes are then
    cast to `dtype` once. float32 and float64 hold every code up to 16 bits
    exactly, uint8 every 4- and 8-bit code and uint16 every 16-bit code;
    the codes are clipped before the cast, so an unsigned cast never wraps.
    r is left unchanged. NaN or +-inf anywhere in r raises
    ValueError; a finite r whose r/S overflows clips like any other value
    past the range.
    """
    arr = np.asarray(r, dtype=np.float64)
    # min and max propagate NaN, and are +-inf exactly when some value is
    if arr.size and not (math.isfinite(arr.min()) and math.isfinite(arr.max())):
        raise ValueError("cannot quantize non-finite values")
    q = np.divide(arr, p.scale, out=np.empty(arr.shape))
    np.rint(q, out=q)
    q += p.zero_point
    np.clip(q, 0, p.qmax, out=q)
    q = q.astype(dtype, copy=False)
    return int(q) if arr.ndim == 0 else q


def dequantize(q, p: QuantParams):
    """D(q) = S * (q - Z); q holds integer codes, as integers or integral floats."""
    arr = np.asarray(q)
    if arr.dtype.kind == "f" and not np.array_equal(arr, np.rint(arr)):
        raise ValueError("quantized values must be integers")
    if arr.size and (arr.min() < 0 or arr.max() > p.qmax):
        raise ValueError(f"quantized value outside [0, {p.qmax}]")
    r = p.scale * (arr.astype(np.float64) - p.zero_point)
    return float(r) if arr.ndim == 0 else r
