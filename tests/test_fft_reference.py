import numpy as np
import pytest

from fdsim.fft import dft_direct, fft_recursive, fft_reference, spectrum_snr_db


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
