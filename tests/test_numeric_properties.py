"""Metamorphic relations: properties that relate two runs of the model.

A bit-exact test compares two implementations, or one against a frozen
hash, so a change made to the spec and to both implementations together
passes it.  A relation between two runs of the same model does not depend
on either implementation (T. Y. Chen, S. C. Cheung and S. M. Yiu,
*Metamorphic testing: a new approach for generating next test cases*,
HKUST tech. report 1998).

FFT: negation commutes with the transform bit for bit at every size and
type, on inputs that do not saturate (round half to even is odd-symmetric;
saturation is not).  A real input has a conjugate-symmetric spectrum bit
for bit at C32 only: the C64 and C16 twiddle tables break quadrant symmetry
at the entries pinned below, so a change to the twiddle ROM shows as a
named difference, not as a hash mismatch.

I2S: each relation below holds at every mode, alignment, polarity, FSYNC
style and frame size.
"""

import itertools

import numpy as np
import pytest

from fdsim.fft import FftJob, fft_fixed, twiddle_table
from fdsim.fixedpoint import DataType
from fdsim.i2s import (LEAD_IN_SLOTS, NO_DRIVER, Alignment, BusConfig, BusMode,
                       FsyncStyle, Polarity, encode)
from fdsim.membank import BankedMemory, sample_array
from fdsim.schedule import fft_sizes

PROGRAMS = [(n, dtype) for dtype in DataType for n in fft_sizes(dtype)]
PROGRAM_IDS = [f"{dtype.name}-{n}" for n, dtype in PROGRAMS]


def fft_raw(parts, dtype):
    """The raw (re, im) parts of the spectrum of raw input ``parts``, as
    int64, with the run's overflow flag."""
    n, memory = len(parts), BankedMemory()
    sample_array(memory, 0, n, dtype)[:] = parts
    summary = fft_fixed(FftJob(n, dtype), memory)
    return sample_array(memory, 0, n, dtype).astype(np.int64), summary.overflow


def random_parts(n, dtype, draw):
    """(n, 2) raw parts drawn over [min_raw + 1, max_raw]: their negation
    is in range too."""
    rng = np.random.default_rng([n, draw])
    return rng.integers(dtype.min_raw + 1, dtype.max_raw + 1, size=(n, 2))


@pytest.mark.parametrize("n, dtype", PROGRAMS, ids=PROGRAM_IDS)
def test_negation_commutes_with_the_transform(n, dtype):
    checked = 0
    for draw in range(8):
        x = random_parts(n, dtype, draw)
        (plain, plain_flag), (negated, negated_flag) = fft_raw(x, dtype), fft_raw(-x, dtype)
        if plain_flag or negated_flag:
            continue
        assert np.array_equal(negated, -plain), f"draw {draw}"
        checked += 1
    assert checked >= 6, f"only {checked} of 8 draws stay clear of saturation"


@pytest.mark.parametrize("n", fft_sizes(DataType.C32))
def test_real_input_has_a_conjugate_symmetric_spectrum_at_c32(n):
    k = np.arange(1, n)
    for draw in range(4):
        x = random_parts(n, DataType.C32, draw)
        x[:, 1] = 0
        spectrum, flag = fft_raw(x, DataType.C32)
        assert not flag, f"draw {draw} saturates"
        assert np.array_equal(spectrum[n - k], spectrum[k] * [1, -1]), f"draw {draw}"


# each table entry j, 0 < j < H, with w[H - j] != -conj(w[j]), H the table's
# length, and the parts (re, im) of the first two
QUADRANT_ASYMMETRIES = {
    DataType.C64: ([64, 192], [[1518500250, -1518500249], [-1518500249, -1518500250]]),
    DataType.C32: ([], []),
    DataType.C16: ([1, 2, 256, 768, 1022, 1023], [[127, 0], [127, -1]]),
}


@pytest.mark.parametrize("dtype", list(DataType), ids=lambda dtype: dtype.name)
def test_twiddle_quadrant_asymmetries_pinned(dtype):
    re, im = twiddle_table(dtype)
    j = np.arange(1, len(re))
    mirror = len(re) - j
    broken = j[(re[mirror] != -re[j]) | (im[mirror] != im[j])]
    entries, parts = QUADRANT_ASYMMETRIES[dtype]
    assert broken.tolist() == entries
    assert [[re[e], im[e]] for e in entries[:2]] == parts


LINES = ("bclk", "fsync", "sd", "driver")


def bus_configs():
    for mode, alignment, polarity, style, frame_bits in itertools.product(
            BusMode, Alignment, Polarity, FsyncStyle, (16, 24, 32)):
        for n_devices in ((1,) if mode is BusMode.STANDARD_I2S else (3, 16)):
            yield BusConfig(mode, n_devices, frame_bits, polarity=polarity,
                            alignment=alignment, fsync_style=style)


CONFIGS = list(bus_configs())
CONFIG_IDS = [f"{c.mode.value}-{c.alignment.value}-{c.polarity.value}-"
              f"{c.fsync_style.value}-{c.frame_bits}b-{c.n_devices}dev" for c in CONFIGS]


def random_words(config, periods, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 1 << config.channel_bits, size=(periods, config.n_devices, 2))


@pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_IDS)
def test_dropping_the_first_period_drops_its_ticks(config):
    # every line of the shorter run is the longer run's line without the
    # first period's 2 * frame_slots ticks, counted from where SD's data begins
    words = random_words(config, 4, seed=config.frame_slots)
    whole, rest = encode(config, words), encode(config, words[1:])
    first = 2 * (LEAD_IN_SLOTS + config.data_delay)
    period = slice(first, first + 2 * config.frame_slots)
    for line in LINES:
        assert np.array_equal(getattr(rest, line),
                              np.delete(getattr(whole, line), period)), line


@pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_IDS)
def test_permuting_devices_permutes_their_slots(config):
    # device d of the permuted payload sends what device perm[d] sent, in
    # the slots device d drives; the clock, frame sync and slot owners stay
    words = random_words(config, 3, seed=config.frame_bits)
    perm = np.random.default_rng(config.n_devices).permutation(config.n_devices)[::-1]
    plain, permuted = encode(config, words), encode(config, words[:, perm])
    for line in ("bclk", "fsync", "driver"):
        assert np.array_equal(getattr(permuted, line), getattr(plain, line)), line
    owner = plain.driver
    for d, source in enumerate(perm):
        assert np.array_equal(permuted.sd[owner == d], plain.sd[owner == source]), d
    assert not permuted.sd[owner == NO_DRIVER].any()
