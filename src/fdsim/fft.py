"""Radix-2 fixed-point FFT: twiddle storage, the double-precision oracle
(numpy's FFT) and the cycle-accurate executor that runs compiled
stage/reorder programs against the banked memory.

Stages walk natural-order data with decreasing half-spans and leave a
bit-reversed spectrum; the final reorder pass restores natural order.
Every butterfly in block ``c`` of stage ``s`` uses twiddle exponent
``bit_reverse_index(c, s) * half_span``, which is what makes the
decomposition exact (checked against the oracle down to the last stage).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from .fixedpoint import (DataType, FixedComplex, OverflowFlag, ScalingPolicy,
                         butterfly_array, complex_pairs, dequantize_parts,
                         pass_twiddles, quantize_pairs, quantize_parts)
from .membank import (DEFAULT_TOTAL_WORDS, HI_HALF_STROBE, IDLE, LO_HALF_STROBE,
                      WRITE_COLUMN, BankedMemory, CycleStats, arbitrate,
                      sample_array, words_per_samples)
from .schedule import MIN_POINTS, bit_reversal, schedule_reorder, schedule_stages

# The scalar forms stay importable from here; the run path uses the arrays.
from .fixedpoint import butterfly, quantize  # noqa: F401
from .membank import (load_samples, pack_samples, read_samples,  # noqa: F401
                      unpack_samples)
# perfbench's tracer wraps the per-stage plan builder by this name
from .schedule import schedule_stage  # noqa: F401


class ConfigurationError(ValueError):
    """Run configuration the model rejects (size, alignment, schema...)."""


BASE_ALIGN_WORDS = 4


# -- twiddle storage ----------------------------------------------------------


@lru_cache(maxsize=None)
def twiddle_table(dtype: DataType) -> np.ndarray:
    """The one lookup table of a data type, sized for its largest FFT: the
    read-only (2 x max_points/2) int64 raw (re, im) parts of each entry.

    Entry k holds exp(-2*pi*i*k/max_points) quantized to the data type;
    smaller transforms stride through the same table.  Quantization is
    round-to-nearest with a magnitude fix-up: entries that round outside
    the unit circle are nudged one step toward zero (minimal-error choice
    of component) so that |entry| <= 1.0 always holds.
    """
    n_max = dtype.max_points
    z = np.exp(-2j * np.pi * np.arange(n_max // 2) / n_max)
    re, im = quantize_parts(z, dtype)
    # an entry that rounds outside the unit circle takes the in-circle
    # candidate of least error among (re - sgn, im), (re, im - sgn) and
    # (re - sgn, im - sgn), the first of them on a tie
    r2 = dtype.scale ** 2
    out = np.flatnonzero(re * re + im * im > r2)
    cand_re = re[out] - np.array([[1], [0], [1]]) * np.sign(re[out])
    cand_im = im[out] - np.array([[0], [1], [1]]) * np.sign(im[out])
    error = ((cand_re - z.real[out] * dtype.scale) ** 2
             + (cand_im - z.imag[out] * dtype.scale) ** 2)
    error[cand_re * cand_re + cand_im * cand_im > r2] = np.inf
    best = error.argmin(axis=0), np.arange(len(out))
    re[out], im[out] = cand_re[best], cand_im[best]
    # the array butterfly's int64 product sums stay below 2^63 only if |w| <= 1
    if (re * re + im * im > r2).any():
        raise AssertionError(f"{dtype.name} twiddle outside the unit circle")
    parts = np.stack([re, im])
    parts.flags.writeable = False
    return parts


def twiddle_lookup(dtype: DataType, n_points: int, k: int) -> FixedComplex:
    """W_n^k from the type's table; one table serves all sizes by stride."""
    if n_points > dtype.max_points:
        raise ValueError(f"{n_points} points exceed table size {dtype.max_points}")
    if not 0 <= k < n_points // 2:
        raise ValueError(f"twiddle exponent {k} out of range for {n_points} points")
    re, im = twiddle_table(dtype)[:, k * (dtype.max_points // n_points)].tolist()
    return FixedComplex(re, im, dtype)


# -- double-precision reference oracle ---------------------------------------
#
# numpy's FFT is the one oracle.  Against a direct DFT whose angles are
# reduced mod n (the reference in tests/test_fft_reference.py) its error is
# within 5e-15 of max|X| at every size of the grid.


def fft_reference(x) -> np.ndarray:
    """Double-precision DFT of a power-of-two length vector."""
    x = np.asarray(x, dtype=np.complex128)
    n = len(x)
    if n < 1 or n & (n - 1):
        raise ValueError(f"length {n} is not a power of two")
    return np.fft.fft(x)


def spectrum_snr_db(reference, measured) -> float:
    """10*log10(|ref|^2 / |ref - measured|^2) over a whole spectrum."""
    err = np.add.reduce(np.square(np.abs(np.subtract(reference, measured))), axis=None)
    sig = np.add.reduce(np.square(np.abs(reference)), axis=None)
    if err == 0:
        return math.inf
    if sig == 0:
        return -math.inf
    return 10.0 * math.log10(sig / err)


# -- the accelerator run ------------------------------------------------------


@dataclass(frozen=True)
class FftJob:
    n_points: int
    dtype: DataType
    base_address: int = 0
    scaling: ScalingPolicy = ScalingPolicy.DIVIDE_BY_TWO_PER_STAGE

    def validate(self, memory: BankedMemory | None = None) -> None:
        """Checks the size and alignment rules, and that the sample array
        fits in ``memory``, by default one of ``DEFAULT_TOTAL_WORDS``."""
        n = self.n_points
        if n < MIN_POINTS or n & (n - 1):
            raise ConfigurationError(f"n_points {n} must be a power of two >= {MIN_POINTS}")
        if n > self.dtype.max_points:
            raise ConfigurationError(
                f"{n} points exceed the {self.dtype.name} limit of {self.dtype.max_points}")
        if self.base_address % BASE_ALIGN_WORDS:
            raise ConfigurationError(
                f"base_address {self.base_address} not {BASE_ALIGN_WORDS}-word aligned")
        end = self.base_address + words_per_samples(self.dtype, n)
        total_words = DEFAULT_TOTAL_WORDS if memory is None else memory.total_words
        if self.base_address < 0 or end > total_words:
            raise ConfigurationError("sample array does not fit in memory")


@dataclass
class FftResultSummary:
    stats: CycleStats
    overflow: bool
    scaling_stages: int   # spectrum is DFT / 2**scaling_stages


@lru_cache(maxsize=None)
def _program(n_points: int, dtype: DataType):
    """The compiled program of (n_points, dtype): its cycle statistics, each
    stage's twiddles in constant geometry as the pair of rows of its
    ``pass_twiddles`` array (read-only, in ``dtype.register``), and the
    reorder's (dst, src) half-words.

    The program is arbitrated here, once, in one ``arbitrate`` call over
    the port matrix of every stage and then the reorder, at base address 0.
    A base address b moves bank k to (k + b) mod 16, a bijection, so which
    requests share a bank, and with that every stall, is the same at every
    base.  A phase's stalls and read cycles are those of its rows; the
    reorder's stalls are the only ones outside ``stage_conflicts``.

    Stage s of ``fft_fixed`` pairs register positions q and q + n/2, which
    after s constant-geometry passes hold block q mod 2^s of the in-place
    stage, so column q of its twiddles is that block's twiddle: entry
    bit_reverse(c, m-1) * max_points/n of the table for block c.  The
    reorder moves half-word ``dst[k]`` of the sample array from half-word
    ``src[k]``: ``dst`` is the strobed halves of the plan's written words in
    write order, and ``src`` what the plan's moves send there.

    Both are read off the plans unchecked; ``tests/test_validator.py``
    proves every one of the 24 programs against the plan validator.
    """
    stages = schedule_stages(n_points, dtype)
    reorder = schedule_reorder(n_points, dtype)
    staged = stages.ports.shape[0] * stages.ports.shape[1]
    ports = np.concatenate([stages.ports.reshape(staged, -1), reorder.ports])
    conflicts, _ = arbitrate(ports, WRITE_COLUMN)
    reading = (ports[:, ~WRITE_COLUMN] != IDLE).any(axis=1)
    stats = MappingProxyType({
        "butterfly_cycles": int(reading[:staged].sum()),
        "reorder_cycles": int(reading[staged:].sum()),
        "stall_cycles": int(conflicts.sum()), "overhead_cycles": len(ports) - int(reading.sum()),
        "conflicts": int(conflicts.sum()), "stage_conflicts": int(conflicts[:staged].sum())})
    # pair q of pass s takes the twiddle of block q mod 2^s
    m = len(stages.ports)
    blocks = bit_reversal(m - 1) * (dtype.max_points // n_points)
    pair = np.arange(n_points // 2)
    mod = (1 << np.arange(m))[:, None] - 1
    twiddles = pass_twiddles(twiddle_table(dtype).astype(dtype.register)[:, blocks[pair & mod]])
    twiddles.flags.writeable = False

    per_sample = dtype.part_width // 8      # a sample's half-words are consecutive
    src, dst = (reorder.entries.T[..., None] * per_sample
                + np.arange(per_sample)).reshape(2, -1)
    source = np.empty(n_points * per_sample, dtype=np.intp)
    source[dst] = src
    words = reorder.ports[:, WRITE_COLUMN, None]
    strobed = (reorder.strobes[..., None] & [LO_HALF_STROBE, HI_HALF_STROBE] != 0) & (words != IDLE)
    written = (2 * words + np.arange(2, dtype=np.intp))[strobed]
    return stats, tuple(map(tuple, twiddles)), (written, source[written])


def fft_fixed(job: FftJob, memory: BankedMemory) -> FftResultSummary:
    """In-place fixed-point FFT on the memory image, cycle-accounted.

    The cycle statistics are the program's (``_program``): its arbitration
    does not depend on the data or the base address, so an op does only the
    work that depends on its samples.  The stages run on a register image
    of the sample array (``butterfly_array``) whose m constant-geometry
    passes leave every sample at its in-place position; the image is
    stored back once, and the reorder moves half-words.  The tests prove,
    for every program, that this equals moving the data cycle by cycle
    through the ports.  On return the memory holds the natural-order spectrum
    scaled by 2**-scaling_stages; the summary carries the sticky overflow
    flag and the cycle statistics.
    """
    job.validate(memory)
    stats, twiddles, (dst, src) = _program(job.n_points, job.dtype)
    flag = OverflowFlag()
    parts = sample_array(memory, job.base_address, job.n_points, job.dtype)
    in_image_order = parts.reshape(2, -1, 2).transpose(0, 2, 1)   # (half, part, sample)
    image = np.empty(2 * job.n_points, dtype=job.dtype.register)
    image.reshape(in_image_order.shape)[:] = in_image_order
    butterfly_array(image, twiddles, job.dtype, job.scaling, flag)
    in_image_order[:] = image.reshape(in_image_order.shape)
    halves = parts.reshape(-1).view("<u2")
    halves[dst] = halves[src]

    m = job.n_points.bit_length() - 1
    scaling = m if job.scaling is ScalingPolicy.DIVIDE_BY_TWO_PER_STAGE else 0
    return FftResultSummary(CycleStats(**stats), flag.seen, scaling)


def load_quantized(memory: BankedMemory, job: FftJob, values,
                   flag: OverflowFlag | None = None) -> np.ndarray:
    """Quantize a complex vector and place it at the job's base address.

    Returns the quantized samples as exact doubles: the oracle's input.
    """
    pairs = complex_pairs(values)
    if len(pairs) != job.n_points:
        raise ConfigurationError(f"expected {job.n_points} samples, got {len(pairs)}")
    parts = sample_array(memory, job.base_address, job.n_points, job.dtype)
    parts[:] = quantize_pairs(pairs, job.dtype, flag)
    return dequantize_parts(parts, job.dtype)


def read_spectrum(memory: BankedMemory, job: FftJob, gain: int = 1) -> np.ndarray:
    """Dequantized natural-order spectrum currently in memory, times
    ``gain``; a power-of-two gain, such as 2**scaling_stages, is exact."""
    return dequantize_parts(sample_array(memory, job.base_address, job.n_points, job.dtype),
                            job.dtype, gain)
