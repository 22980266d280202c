"""Bit-exact signed fixed-point complex arithmetic for the accelerator data types.

All parts are Q1.(w-1): one sign bit, w-1 fraction bits, numeric value
raw / 2^(w-1), representable range [-1, 1).  Three formats are supported,
named by the total complex width: C64 (32-bit parts), C32 (16-bit parts)
and C16 (8-bit parts).

Overflow saturates and is reported through a sticky flag owned by the
caller; rounding is round-to-nearest, ties to even, everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np


class DataType(Enum):
    """Complex fixed-point format: (bits per re/im part, max FFT points)."""

    C64 = (32, 512)
    C32 = (16, 1024)
    C16 = (8, 2048)

    def __init__(self, part_width: int, max_points: int):
        self.part_width = part_width
        self.max_points = max_points

    @property
    def scale(self) -> int:
        """2^(w-1), the value of 1.0 if it were representable."""
        return 1 << (self.part_width - 1)

    @property
    def min_raw(self) -> int:
        return -(1 << (self.part_width - 1))

    @property
    def max_raw(self) -> int:
        return (1 << (self.part_width - 1)) - 1

    @classmethod
    def from_tag(cls, tag: str) -> "DataType":
        if not isinstance(tag, str):
            raise ValueError(f"data type must be a string tag, got {tag!r}")
        try:
            return cls[tag.upper()]
        except KeyError:
            raise ValueError(f"unknown data type {tag!r}; expected C64/C32/C16") from None


class ScalingPolicy(Enum):
    DIVIDE_BY_TWO_PER_STAGE = "divide-by-two-per-stage"
    NONE = "none"


@dataclass
class OverflowFlag:
    """Sticky saturation indicator; set once any operation clips."""

    seen: bool = False


def _round_half_even_shift(value: int, shift: int) -> int:
    """value / 2^shift rounded to nearest, ties to even. Exact on ints."""
    if shift == 0:
        return value
    q = value >> shift
    rem = value & ((1 << shift) - 1)
    half = 1 << (shift - 1)
    if rem > half or (rem == half and (q & 1)):
        q += 1
    return q


def sat_round(value: int, width: int, shift: int = 0,
              flag: OverflowFlag | None = None) -> int:
    """Round ``value / 2^shift`` to nearest-even, saturate to ``width`` bits.

    ``value`` is an exact sum/product held at extended precision; ``shift``
    is the number of fraction bits discarded (0 for additions, w-1 when
    rescaling a Q2.(2w-2) product back to Q1.(w-1)).  Saturation clips to
    [-2^(w-1), 2^(w-1)-1] and sets the sticky flag when one is supplied.
    """
    q = _round_half_even_shift(value, shift)
    hi = (1 << (width - 1)) - 1
    lo = -(1 << (width - 1))
    if q > hi:
        if flag is not None:
            flag.seen = True
        return hi
    if q < lo:
        if flag is not None:
            flag.seen = True
        return lo
    return q


@dataclass(frozen=True)
class FixedComplex:
    """One complex sample; ``re``/``im`` are raw Q1.(w-1) integers."""

    re: int
    im: int
    dtype: DataType

    def __post_init__(self):
        lo, hi = self.dtype.min_raw, self.dtype.max_raw
        if not (lo <= self.re <= hi and lo <= self.im <= hi):
            raise ValueError(
                f"raw parts ({self.re}, {self.im}) out of range for {self.dtype.name}")

    def __complex__(self) -> complex:
        return dequantize(self)


def zero(dtype: DataType) -> FixedComplex:
    return FixedComplex(0, 0, dtype)


def one(dtype: DataType) -> FixedComplex:
    """Largest representable positive real (~1.0; exact 1.0 does not exist)."""
    return FixedComplex(dtype.max_raw, 0, dtype)


def quantize(x: complex, dtype: DataType, flag: OverflowFlag | None = None) -> FixedComplex:
    """Round a double-precision complex to Q1.(w-1), saturating outside [-1, 1)."""
    x = complex(x)
    s = dtype.scale
    re = sat_round(_round_float(x.real * s), dtype.part_width, 0, flag)
    im = sat_round(_round_float(x.imag * s), dtype.part_width, 0, flag)
    return FixedComplex(re, im, dtype)


def _round_float(v: float) -> int:
    # Python round() is round-half-even on floats, matching sat_round's rule.
    return int(round(v))


def dequantize(x: FixedComplex) -> complex:
    s = x.dtype.scale
    return complex(x.re / s, x.im / s)


def cmul(a: FixedComplex, b: FixedComplex, flag: OverflowFlag | None = None) -> FixedComplex:
    """Complex product, accumulated exactly, then rescaled to Q1.(w-1)."""
    if a.dtype is not b.dtype:
        raise ValueError(f"dtype mismatch: {a.dtype.name} * {b.dtype.name}")
    w = a.dtype.part_width
    re_acc = a.re * b.re - a.im * b.im
    im_acc = a.re * b.im + a.im * b.re
    return FixedComplex(sat_round(re_acc, w, w - 1, flag),
                        sat_round(im_acc, w, w - 1, flag),
                        a.dtype)


def butterfly(a: FixedComplex, b: FixedComplex, w: FixedComplex,
              policy: ScalingPolicy = ScalingPolicy.DIVIDE_BY_TWO_PER_STAGE,
              flag: OverflowFlag | None = None) -> tuple[FixedComplex, FixedComplex]:
    """Radix-2 butterfly: t = w*b; returns (a + t, a - t).

    Under DIVIDE_BY_TWO_PER_STAGE both outputs are halved (round to
    nearest-even) before storage, which makes overflow impossible for any
    in-range operands with |w| <= 1.
    """
    if not (a.dtype is b.dtype is w.dtype):
        raise ValueError("butterfly operands must share a dtype")
    width = a.dtype.part_width
    shift = 1 if policy is ScalingPolicy.DIVIDE_BY_TWO_PER_STAGE else 0
    t = cmul(w, b, flag)
    out0 = FixedComplex(sat_round(a.re + t.re, width, shift, flag),
                        sat_round(a.im + t.im, width, shift, flag), a.dtype)
    out1 = FixedComplex(sat_round(a.re - t.re, width, shift, flag),
                        sat_round(a.im - t.im, width, shift, flag), a.dtype)
    return out0, out1


# -- array forms ---------------------------------------------------------------
#
# The executor moves whole stages at once, so it needs the same arithmetic on
# int64 arrays of raw parts.  Every intermediate fits: C64 partial products
# reach 2^62 and a complex product's real or imaginary sum stays within
# |w| * |b| <= 2^62.5 because every twiddle has |w| <= 1 (checked when the
# twiddle table is built).


def sat_round_array(values, width: int, shift: int = 0,
                    flag: OverflowFlag | None = None) -> np.ndarray:
    """Element-wise ``sat_round`` on an int64 array; the flag is set if any
    element saturates.  An int64 ``values`` is rounded in place and
    returned; any other input is converted to a new int64 array first.

    Ties go to even by adding ``half - 1`` plus the parity of the truncated
    quotient before the shift.  That sum stays in int64, so the rounding is
    exact, only for |values| < 2^63 - 2^shift; the executor stays below
    2^62.5.  Clipping runs only if the extremes are out of range.
    """
    q = np.asarray(values, dtype=np.int64)
    if shift:
        q += ((q >> shift) & 1) + ((1 << (shift - 1)) - 1)
        q >>= shift
    lo, hi = -(1 << (width - 1)), (1 << (width - 1)) - 1
    if q.size and (q.min() < lo or q.max() > hi):
        if flag is not None:
            flag.seen = True
        np.minimum(np.maximum(q, lo, out=q), hi, out=q)
    return q


def quantize_parts(values, dtype: DataType,
                   flag: OverflowFlag | None = None) -> tuple[np.ndarray, np.ndarray]:
    """``quantize`` over a complex array: int64 raw (re, im), saturated.

    ``np.rint`` rounds half to even like ``round``; clipping one step past
    either rail before the cast keeps huge finite values saturating (and
    flagging) where the scalar form would overflow converting them.
    """
    x = np.asarray(values, dtype=np.complex128)
    if not np.isfinite(x).all():
        raise ValueError("cannot quantize NaN or infinite samples")
    with np.errstate(over="ignore"):
        scaled = np.rint(np.stack([x.real, x.imag]) * dtype.scale)
    raw = np.clip(scaled, dtype.min_raw - 1, dtype.max_raw + 1).astype(np.int64)
    re, im = sat_round_array(raw, dtype.part_width, 0, flag)
    return re, im


def dequantize_parts(re, im, dtype: DataType) -> np.ndarray:
    """``dequantize`` over arrays of raw parts; exact, the scale being 2^(w-1)."""
    out = np.empty(len(re), dtype=np.complex128)
    out.real = np.divide(re, dtype.scale)
    out.imag = np.divide(im, dtype.scale)
    return out


def butterfly_array(x, w, dtype: DataType,
                    policy: ScalingPolicy = ScalingPolicy.DIVIDE_BY_TWO_PER_STAGE,
                    flag: OverflowFlag | None = None) -> np.ndarray:
    """``butterfly`` over raw parts, in place and bit-exact with the scalar
    form.  ``x`` is an int64 array with (re, im) on its first axis and the
    operands (a, b) on its second-to-last; ``w`` holds (re, im) on its first
    axis, |w| <= 1, and broadcasts against ``a``.  Every (a, b) becomes
    (out0, out1) and ``x`` is returned.  Rounds twice: both product sums,
    then all of ``x``."""
    width = dtype.part_width
    shift = 1 if policy is ScalingPolicy.DIVIDE_BY_TWO_PER_STAGE else 0
    a, b = x[..., 0, :], x[..., 1, :]
    t, u = w[0] * b, w[1] * b[::-1]         # u = (w im * b im, w im * b re)
    t[0] -= u[0]
    t[1] += u[1]
    sat_round_array(t, width, width - 1, flag)
    np.subtract(a, t, out=b)
    a += t
    return sat_round_array(x, width, shift, flag)


# Sample packing into 32-bit memory words:
# C64: one sample = 2 words (re word then im word).
# C32: one sample = 1 word, re in the low half, im in the high half.
# C16: two samples per word, sample 2i in the low half-word; within a
#      half-word re is the low byte, im the high byte.
# So little-endian words ('<u4') viewed as signed part_width-bit integers
# hold sample j's re at part 2j and its im at part 2j + 1, in every format.


def sample_parts(words: np.ndarray, dtype: DataType) -> np.ndarray:
    """The (samples x 2) signed raw (re, im) view of contiguous ``'<u4'``
    memory words; writing to it writes the words."""
    return words.view(f"<i{dtype.part_width // 8}").reshape(-1, 2)
