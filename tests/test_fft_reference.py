import numpy as np
import pytest

import fdsim.fft
from fdsim.fft import dft_direct, fft_recursive, fft_reference, spectrum_snr_db
from fdsim.fixedpoint import DataType
from fdsim.harness import full_size_grid


def rec(v):
    """The textbook even/odd recursion that ``fft_recursive`` evaluates level-wise."""
    n = len(v)
    if n == 1:
        return v
    even = rec(v[::2])
    odd = rec(v[1::2])
    tw = np.exp(-2j * np.pi * np.arange(n // 2) / n)
    half = tw * odd
    return np.concatenate([even + half, even - half])


def test_impulse_is_flat():
    x = np.zeros(32, dtype=complex)
    x[0] = 1.0
    assert np.allclose(fft_reference(x), np.ones(32), atol=1e-12)


def test_all_ones_concentrates_in_dc():
    n = 64
    want = np.zeros(n, dtype=complex)
    want[0] = n
    assert np.allclose(fft_reference(np.ones(n)), want, atol=1e-9)


def test_complex_tone_bins():
    # derived with the direct O(N^2) oracle: under the exp(-2*pi*i/N)
    # kernel a +3-cycle tone lands in bin 3, a -3-cycle tone in bin 13
    n = 16
    t = np.arange(n)
    up = dft_direct(np.exp(2j * np.pi * 3 * t / n))
    down = dft_direct(np.exp(-2j * np.pi * 3 * t / n))
    assert int(np.argmax(np.abs(up))) == 3
    assert int(np.argmax(np.abs(down))) == 13
    assert abs(up[3]) == pytest.approx(16.0)
    off = np.delete(np.abs(up), 3)
    assert np.max(off) < 1e-9


def test_direct_and_recursive_agree():
    rng = np.random.default_rng(5)
    n = 8
    while n <= 256:
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        d = dft_direct(x)
        r = fft_recursive(x)
        assert np.max(np.abs(d - r)) / np.max(np.abs(d)) < 1e-9
        n *= 2


@pytest.mark.parametrize("n", [2 ** k for k in range(1, 12)])
def test_level_wise_is_bit_identical_to_recursion(n):
    rng = np.random.default_rng(n)
    impulse = np.zeros(n, dtype=complex)
    impulse[n // 2] = 0.5
    for x in (rng.normal(size=n) + 1j * rng.normal(size=n),
              rng.uniform(-1, 1, n) * 1e-3 + 0.5j, impulse):
        assert (fft_recursive(x).view(np.uint64) == rec(x).view(np.uint64)).all()


def test_matches_numpy_fft():
    rng = np.random.default_rng(6)
    for n in (64, 1024):
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        assert np.max(np.abs(fft_reference(x) - np.fft.fft(x))) < 1e-8


def test_non_power_of_two_rejected():
    for fn in (fft_reference, dft_direct, fft_recursive):
        with pytest.raises(ValueError):
            fn(np.zeros(12, dtype=complex))


def test_snr_definition():
    ref = np.array([1.0, 1.0, 1.0, 1.0], dtype=complex)
    assert spectrum_snr_db(ref, ref) == np.inf
    noisy = ref + np.array([0.1, 0, 0, 0])
    assert spectrum_snr_db(ref, noisy) == pytest.approx(10 * np.log10(4 / 0.01))


class TestOracleConstants:
    """The DFT matrix and the level twiddles are built once per size; a
    fresh build by these expressions is the reference."""

    @staticmethod
    def fresh_matrix(n):
        k = np.arange(n)
        return np.exp(-2j * np.pi * np.outer(k, k) / n)

    @staticmethod
    def fresh_level(sub):
        return np.exp(-2j * np.pi * np.arange(sub) / (2 * sub))

    @pytest.mark.parametrize("n", [2 ** k for k in range(3, 9)])
    def test_matrix_read_only_and_bit_equal(self, n):
        w = fdsim.fft._dft_matrix(n)
        assert fdsim.fft._dft_matrix(n) is w and not w.flags.writeable
        with pytest.raises(ValueError):
            w[0, 0] = 0
        assert (w.view(np.uint64) == self.fresh_matrix(n).view(np.uint64)).all()

    @pytest.mark.parametrize("sub", [2 ** k for k in range(11)])
    def test_level_twiddles_read_only_and_bit_equal(self, sub):
        tw = fdsim.fft._level_twiddles(sub)
        assert fdsim.fft._level_twiddles(sub) is tw and not tw.flags.writeable
        with pytest.raises(ValueError):
            tw[0] = 0
        assert (tw.view(np.uint64) == self.fresh_level(sub).view(np.uint64)).all()

    def test_matrix_cache_holds_only_grid_sizes(self):
        fdsim.fft._dft_matrix.cache_clear()
        rng = np.random.default_rng(3)
        for dtype in DataType:
            for n in full_size_grid(dtype):
                fft_reference(rng.normal(size=n) + 1j * rng.normal(size=n))
        dft_direct(np.ones(512))        # direct calls above 256 points are not kept
        assert fdsim.fft._dft_matrix.cache_info().currsize <= 6

    @pytest.mark.parametrize("n", [64, 1024])
    def test_same_bits_before_and_after_other_sizes(self, n):
        rng = np.random.default_rng(n)
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        before = fft_reference(x)
        for other in (8, 128, 256, 512, 2048):
            fft_reference(rng.normal(size=other) + 0.5j)
        assert (fft_reference(x).view(np.uint64) == before.view(np.uint64)).all()
