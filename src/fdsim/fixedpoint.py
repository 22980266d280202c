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
from functools import lru_cache

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

    @property
    def register(self) -> str:
        """The executor's register type: signed integers of twice the part
        width, which hold every intermediate of ``butterfly_array``."""
        return f"<i{self.part_width // 4}"

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
    nearest-even) before storage.  That does not rule out saturation for
    in-range operands with |w| <= 1: t saturates once |w * b| reaches 1,
    and a - t = 2^w - 1 (a at max_raw, t at min_raw, as for b = (0, min_raw)
    and w = -j) is a tie that rounds up to 2^(w-1) and saturates.
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
# The executor runs whole stages at once, on integers of twice the part width
# (``DataType.register``).  Every intermediate fits: a partial product of two
# parts is at most 2^(2w-2), and a complex product's real or imaginary sum is
# at most |w| * |b| <= 2^(2w-2) * sqrt(2) because every twiddle has |w| <= 1
# (checked when the twiddle table is built).  With the rounding offset added
# it stays below 2^(2w-1): 23234 < 32767 for C16.


@lru_cache(maxsize=None)
def _rounding(register: np.dtype, width: int, shift: int, floor_safe: bool = False):
    """``sat_round`` on arrays of ``register``, with its constants bound once:
    ``round(q, parity, flag)`` rounds ``q`` in place and returns it, using
    ``parity`` (same shape and type, or None) as scratch.  ``floor_safe``
    skips the lower rail for sums that cannot reach below it.

    Ties go to even by adding ``half - 1`` plus the parity of the truncated
    quotient before the shift.  That sum stays in the integer type, so the
    rounding is exact only for |q| < 2^(bits-1) - 2^shift; the executor's
    registers stay below that.  Clipping runs only if the extremes are out
    of range.  The constants are 0-d arrays of the register type, since a
    Python int operand costs a conversion on every ufunc call.
    """
    def constant(value):
        return np.array(value, dtype=register)

    shift_c, one = constant(shift), constant(1)
    offset = constant((1 << (shift - 1)) - 1) if shift > 1 else None
    lo, hi = -(1 << (width - 1)), (1 << (width - 1)) - 1
    lo_c, hi_c = constant(lo), constant(hi)
    minimum, maximum = np.minimum.reduce, np.maximum.reduce

    def round_(q, parity, flag):
        if shift:
            parity = np.right_shift(q, shift_c, out=parity)
            np.bitwise_and(parity, one, out=parity)
            q += parity
            if offset is not None:
                q += offset
            q >>= shift_c
        if q.size and (maximum(q, axis=None) > hi
                       or not floor_safe and minimum(q, axis=None) < lo):
            if flag is not None:
                flag.seen = True
            np.minimum(np.maximum(q, lo_c, out=q), hi_c, out=q)
        return q
    return round_


def sat_round_array(values, width: int, shift: int = 0,
                    flag: OverflowFlag | None = None) -> np.ndarray:
    """Element-wise ``sat_round`` on an integer array; the flag is set if any
    element saturates.  An integer ``values`` is rounded in place, at its
    own integer width (see ``_rounding``), and returned; any other input is
    converted to a new int64 array first.
    """
    q = np.asarray(values)
    if q.dtype.kind != "i":
        q = q.astype(np.int64)
    return _rounding(q.dtype, width, shift)(q, None, flag)


def quantize_pairs(pairs: np.ndarray, dtype: DataType,
                   flag: OverflowFlag | None = None) -> np.ndarray:
    """``quantize`` on the interleaved ``(samples, 2)`` float64 (re, im) view
    of a complex array: the raw parts as integral doubles, saturated.

    ``np.rint`` rounds half to even like ``round``.  A part saturates
    exactly when it lies outside [-1 - 2^-w, 1 - 2^-w) (the scale is a power
    of two, so scaling is exact and a tie at either edge rounds to the even
    rail value), so one range check on the input finds every saturation,
    NaN and infinity before anything is scaled; huge finite values are
    clipped, and flagged, where the scalar form would overflow.
    """
    edge = 0.5 / dtype.scale
    if not (np.minimum.reduce(pairs, axis=None) >= -1 - edge
            and np.maximum.reduce(pairs, axis=None) < 1 - edge):
        if not np.isfinite(pairs).all():
            raise ValueError("cannot quantize NaN or infinite samples")
        if flag is not None:
            flag.seen = True
        with np.errstate(over="ignore"):
            scaled = np.rint(pairs * dtype.scale)
        return np.clip(scaled, dtype.min_raw, dtype.max_raw, out=scaled)
    scaled = np.multiply(pairs, dtype.scale)
    return np.rint(scaled, out=scaled)


def complex_pairs(values) -> np.ndarray:
    """The interleaved ``(samples, 2)`` float64 (re, im) view of ``values``
    as a contiguous complex128 vector: memory's part order."""
    return np.ascontiguousarray(values, dtype=np.complex128).view(np.float64).reshape(-1, 2)


def quantize_parts(values, dtype: DataType,
                   flag: OverflowFlag | None = None) -> np.ndarray:
    """``quantize`` over a complex array: the ``(2, samples)`` int64 raw
    (re, im), saturated; a transposed view of the interleaved parts."""
    return quantize_pairs(complex_pairs(values), dtype, flag).astype(np.int64).T


def dequantize_parts(parts, dtype: DataType, gain: int = 1) -> np.ndarray:
    """``dequantize`` over the interleaved ``(samples, 2)`` raw (re, im)
    parts, times ``gain``: a complex vector.  Exact for a power-of-two gain,
    the scale being 2^(w-1); a zero part gives +0.0."""
    return np.multiply(parts, gain / dtype.scale).view(np.complex128).reshape(-1)


def butterfly_array(x, twiddles, dtype: DataType,
                    policy: ScalingPolicy = ScalingPolicy.DIVIDE_BY_TWO_PER_STAGE,
                    flag: OverflowFlag | None = None) -> np.ndarray:
    """``butterfly`` over every pair of a register image, one pass per
    twiddle array, in place and bit-exact with the scalar form.

    ``x`` is a 1-D image of n samples (n a multiple of 4) in ``dtype.register``:
    re then im parts of samples 0..n/2-1, then re then im of samples
    n/2..n-1, i.e. ``(2, 2, n/2)`` as (half, part, sample).  Each item of
    ``twiddles``, a ``(2, n)`` array or the pair of its rows, is one pass of
    pairs q, |w_q| <= 1 (``pass_twiddles`` builds it): row 0 holds
    w_q re at columns q and n/2 + q, row 1 holds w_q im at column q and
    -w_q im at column n/2 + q, the sign of the b im * w im term of the
    complex product.  A pass pairs samples a = q and b = q + n/2 and writes
    out0 to sample 2q and out1 to sample 2q + 1 (constant geometry), so a
    sample at q moves to the m-bit left rotation of q; after m = log2(n)
    passes every sample is back where it started.  Rounds twice per pass:
    both product sums, then all outputs.  Returns ``x``.
    """
    width = dtype.part_width
    halve = policy is ScalingPolicy.DIVIDE_BY_TWO_PER_STAGE
    round_product = _rounding(x.dtype, width, width - 1)
    # a +- t >= -2^w halves to min_raw at the lowest, so only the upper
    # rail can clip a halved output
    round_output = _rounding(x.dtype, width, int(halve), halve)
    n = len(x) // 2
    other, scratch = np.empty_like(x), np.empty_like(x)
    t, u = scratch[:n], scratch[n:]          # t = w re * b, u = w im * b
    t_parts = t.reshape(2, -1)               # (part, sample)
    u_swapped = u.reshape(2, -1)[::-1]       # (b im * -w im, b re * w im)
    t_q = t.reshape(2, 2, -1)                # (part, half of the pairs, pair)
    passes = []
    for src, dst in ((x, other), (other, x)):
        out = dst.reshape(2, 2, -1, 2)       # (half, part, pair, out0/out1)
        passes.append((src[:n].reshape(2, 2, -1), src[n:], dst,
                       out[..., 0].swapaxes(0, 1), out[..., 1].swapaxes(0, 1)))
    for i, (w_re, w_im) in enumerate(twiddles):
        a, b, dst, out0, out1 = passes[i & 1]
        np.multiply(b, w_re, out=t)
        np.multiply(b, w_im, out=u)
        np.add(t_parts, u_swapped, out=t_parts)
        round_product(t, u, flag)
        np.add(a, t_q, out=out0)
        np.subtract(a, t_q, out=out1)
        round_output(dst, scratch, flag)
    if len(twiddles) & 1:
        x[:] = other
    return x


def pass_twiddles(w) -> np.ndarray:
    """The ``butterfly_array`` twiddle array of one pass from the ``(2, k)``
    (re, im) twiddles of its k pairs; ``(2, passes, k)`` twiddles give one
    array per pass."""
    re, im = w
    return np.concatenate([re, re, im, -im], axis=-1).reshape(*re.shape[:-1], 2, -1)


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
