import numpy as np
import pytest

from fdsim.fft import fft_reference, spectrum_snr_db


def direct_dft(x):
    """O(N^2) direct summation with each angle reduced mod n: the reference
    the oracle is checked against."""
    x = np.asarray(x, dtype=np.complex128)
    n = len(x)
    k = np.arange(n)
    return np.exp(-2j * np.pi * (np.outer(k, k) % n) / n) @ x


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
    # derived with the direct O(N^2) DFT: under the exp(-2*pi*i/N)
    # kernel a +3-cycle tone lands in bin 3, a -3-cycle tone in bin 13
    n = 16
    t = np.arange(n)
    up = direct_dft(np.exp(2j * np.pi * 3 * t / n))
    down = direct_dft(np.exp(-2j * np.pi * 3 * t / n))
    assert int(np.argmax(np.abs(up))) == 3
    assert int(np.argmax(np.abs(down))) == 13
    assert abs(up[3]) == pytest.approx(16.0)
    off = np.delete(np.abs(up), 3)
    assert np.max(off) < 1e-9


@pytest.mark.parametrize("n", [2 ** k for k in range(3, 12)])
def test_within_5e_15_of_direct_dft(n):
    for seed in range(3):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        want = direct_dft(x)
        assert np.max(np.abs(fft_reference(x) - want)) <= 5e-15 * np.max(np.abs(want))


def test_non_power_of_two_rejected():
    with pytest.raises(ValueError):
        fft_reference(np.zeros(12, dtype=complex))


def test_snr_definition():
    ref = np.array([1.0, 1.0, 1.0, 1.0], dtype=complex)
    assert spectrum_snr_db(ref, ref) == np.inf
    noisy = ref + np.array([0.1, 0, 0, 0])
    assert spectrum_snr_db(ref, noisy) == pytest.approx(10 * np.log10(4 / 0.01))


class TestOracleConstants:
    """The oracle keeps nothing between calls that changes its bits."""

    @pytest.mark.parametrize("n", [64, 1024])
    def test_same_bits_before_and_after_other_sizes(self, n):
        rng = np.random.default_rng(n)
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        before = fft_reference(x)
        for other in (8, 128, 256, 512, 2048):
            fft_reference(rng.normal(size=other) + 0.5j)
        assert (fft_reference(x).view(np.uint64) == before.view(np.uint64)).all()
