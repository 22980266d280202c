import cmath
import dataclasses
import hashlib
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import fdsim.fft
import fdsim.schedule
from fdsim.fft import (ConfigurationError, FftJob, fft_fixed, fft_reference,
                       load_quantized, read_spectrum, spectrum_snr_db,
                       twiddle_lookup, twiddle_table)
from fdsim.fixedpoint import (DataType, OverflowFlag, ScalingPolicy,
                              dequantize, quantize)
from fdsim.harness import SNR_FLOORS_DB
from fdsim.membank import (_STROBE_MASKS, FULL_STROBE, HI_HALF_STROBE, IDLE,
                           LO_HALF_STROBE, WRITE_COLUMN, BankedMemory, CycleStats,
                           MemoryModelError, pack_samples, read_samples,
                           words_per_samples)
from fdsim.schedule import (WRITE_LAG_REORDER, WRITE_LAG_STAGE,
                            bit_reverse_index, compile_reorder, compile_stage,
                            fft_sizes, schedule_reorder, schedule_stage,
                            schedule_stages, total_cycle_model)
from reference_packing import pack_parts, unpack_parts
from test_fixedpoint import one_pass

ALL_DTYPES = list(DataType)


def run_fixed(x, dtype, n, scaling=ScalingPolicy.DIVIDE_BY_TWO_PER_STAGE,
              base=0):
    mem = BankedMemory()
    job = FftJob(n, dtype, base, scaling)
    oracle_in = load_quantized(mem, job, x)
    summary = fft_fixed(job, mem)
    return mem, job, summary, oracle_in


class TestBitReverse:
    def test_examples(self):
        assert bit_reverse_index(0, 5) == 0
        assert bit_reverse_index(1, 3) == 4
        assert bit_reverse_index(6, 3) == 3

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            bit_reverse_index(8, 3)

    @given(st.integers(1, 11), st.data())
    def test_involution(self, bits, data):
        i = data.draw(st.integers(0, (1 << bits) - 1))
        assert bit_reverse_index(bit_reverse_index(i, bits), bits) == i


def ref_twiddle_parts(dtype):
    """The per-entry twiddle builder ``twiddle_table`` replaced: scalar
    ``quantize``, then nudges toward zero until the entry is in the circle."""
    n_max = dtype.max_points
    scale = dtype.scale
    entries = []
    for k in range(n_max // 2):
        z = cmath.exp(-2j * cmath.pi * k / n_max)
        q = quantize(z, dtype)
        re, im = q.re, q.im
        while re * re + im * im > scale * scale:
            candidates = []
            if re:
                candidates.append((re - (1 if re > 0 else -1), im))
            if im:
                candidates.append((re, im - (1 if im > 0 else -1)))
            if re and im:
                candidates.append((re - (1 if re > 0 else -1),
                                   im - (1 if im > 0 else -1)))
            ok = [c for c in candidates
                  if c[0] * c[0] + c[1] * c[1] <= scale * scale]
            pool = ok or candidates
            re, im = min(pool, key=lambda c: (c[0] - z.real * scale) ** 2
                         + (c[1] - z.imag * scale) ** 2)
        entries.append((re, im))
    return np.array(entries, dtype=np.int64).T


class TestTwiddleTable:
    @pytest.mark.parametrize("dtype", ALL_DTYPES)
    def test_matches_scalar_builder(self, dtype):
        table = twiddle_table(dtype)
        want = ref_twiddle_parts(dtype)
        assert table.dtype == want.dtype
        assert np.array_equal(table, want)
        assert not table.flags.writeable

    @pytest.mark.parametrize("dtype", ALL_DTYPES)
    def test_endpoints(self, dtype):
        assert twiddle_table(dtype).shape == (2, dtype.max_points // 2)
        first = twiddle_lookup(dtype, dtype.max_points, 0)
        assert (first.re, first.im) == (dtype.max_raw, 0)
        quarter = twiddle_lookup(dtype, dtype.max_points, dtype.max_points // 4)
        assert (quarter.re, quarter.im) == (0, -dtype.scale)

    @pytest.mark.parametrize("dtype", ALL_DTYPES)
    def test_unit_magnitude_bound(self, dtype):
        table = twiddle_table(dtype)
        s2 = dtype.scale ** 2
        assert all(re * re + im * im <= s2 for re, im in table.T.tolist())

    @pytest.mark.parametrize("dtype", ALL_DTYPES)
    def test_entries_near_exact(self, dtype):
        ulp = 1.0  # raw units
        for k in range(0, dtype.max_points // 2, 37):
            z = cmath.exp(-2j * cmath.pi * k / dtype.max_points)
            e = twiddle_lookup(dtype, dtype.max_points, k)
            assert abs(e.re - z.real * dtype.scale) <= ulp + 0.5
            assert abs(e.im - z.imag * dtype.scale) <= ulp + 0.5

    def test_lookup_stride(self):
        q = twiddle_lookup(DataType.C64, 4, 1)
        assert (q.re, q.im) == (0, -DataType.C64.scale)      # ~ -1j
        # exp(-i*pi/4) rounds just outside the unit circle; the stored
        # entry is the nearest-rounded value pulled back inside by 1 ulp
        eighth = twiddle_lookup(DataType.C64, 8, 1)
        want = quantize(cmath.exp(-2j * cmath.pi / 8), DataType.C64)
        assert abs(eighth.re - want.re) <= 1
        assert abs(eighth.im - want.im) <= 1
        s2 = DataType.C64.scale ** 2
        assert eighth.re ** 2 + eighth.im ** 2 <= s2
        assert want.re ** 2 + want.im ** 2 > s2  # why the nudge exists

    def test_lookup_range_checks(self):
        with pytest.raises(ValueError):
            twiddle_lookup(DataType.C64, 16, 8)
        with pytest.raises(ValueError):
            twiddle_lookup(DataType.C64, 1024, 0)


class TestJobValidation:
    def test_size_limits_per_dtype(self):
        for dtype in ALL_DTYPES:
            mem = BankedMemory()
            FftJob(dtype.max_points, dtype).validate(mem)
            with pytest.raises(ConfigurationError):
                FftJob(dtype.max_points * 2, dtype).validate(mem)

    def test_too_small(self):
        with pytest.raises(ConfigurationError):
            FftJob(4, DataType.C64).validate(BankedMemory())

    def test_alignment(self):
        with pytest.raises(ConfigurationError):
            FftJob(8, DataType.C64, base_address=2).validate(BankedMemory())

    def test_capacity(self):
        with pytest.raises(ConfigurationError):
            FftJob(512, DataType.C64, base_address=65536 - 512).validate(
                BankedMemory())


def _bits(values):
    return np.asarray(values, dtype=np.complex128).view(np.uint64).tolist()


class TestLoadAndReadBack:
    """The array load and read-back against their scalar definitions."""

    @pytest.mark.parametrize("dtype", ALL_DTYPES)
    def test_load_quantized_matches_scalar(self, dtype):
        n = 64
        rng = np.random.default_rng(9)
        x = rng.uniform(-1.2, 1.2, n) + 1j * rng.uniform(-1.2, 1.2, n)
        x[:4] = [(k + 0.5) / dtype.scale for k in (-2, -1, 0, 1)]   # exact ties
        mem, job, flag = BankedMemory(), FftJob(n, dtype, 4096), OverflowFlag()
        got = load_quantized(mem, job, x, flag)
        want = [quantize(v, dtype) for v in x]
        assert read_samples(mem, 4096, n, dtype) == want
        assert _bits(got) == _bits([dequantize(q) for q in want])
        assert flag.seen                    # parts past +-1 saturate

    @pytest.mark.parametrize("dtype", ALL_DTYPES)
    def test_read_spectrum_matches_scalar(self, dtype):
        n = dtype.max_points
        rng = np.random.default_rng(n)
        x = rng.uniform(-0.9, 0.9, n) + 1j * rng.uniform(-0.9, 0.9, n)
        mem, job, _, _ = run_fixed(x, dtype, n)
        want = [dequantize(s) for s in read_samples(mem, 0, n, dtype)]
        assert _bits(read_spectrum(mem, job)) == _bits(want)

    @pytest.mark.parametrize("dtype", ALL_DTYPES)
    def test_read_spectrum_gain_is_exact(self, dtype):
        # a power-of-two gain scales the dequantized parts without rounding
        n = 256 if dtype is DataType.C64 else dtype.max_points
        rng = np.random.default_rng(5)
        x = rng.uniform(-0.9, 0.9, n) + 1j * rng.uniform(-0.9, 0.9, n)
        mem, job, summary, _ = run_fixed(x, dtype, n)
        gain = 1 << summary.scaling_stages
        want = [complex(s.re / dtype.scale * gain, s.im / dtype.scale * gain)
                for s in read_samples(mem, 0, n, dtype)]
        assert _bits(read_spectrum(mem, job, gain)) == _bits(want)
        assert _bits(read_spectrum(mem, job, gain)) == _bits(read_spectrum(mem, job) * gain)

    @pytest.mark.parametrize("dtype", ALL_DTYPES)
    def test_zero_parts_load_as_positive_zero(self, dtype):
        # parts that round to 0 from below are +0.0 in the oracle's input
        tiny = -0.25 / dtype.scale
        x = np.array([tiny + 1j * tiny, -0.0 - 0.0j] * 4)
        got = load_quantized(BankedMemory(), FftJob(8, dtype), x)
        assert _bits(got) == [0] * 16

    def test_length_checked_before_values(self):
        job = FftJob(8, DataType.C64)
        with pytest.raises(ConfigurationError):
            load_quantized(BankedMemory(), job, np.full(7, np.nan))
        with pytest.raises(ValueError):
            load_quantized(BankedMemory(), job, np.full(8, np.inf))

    def test_capacity_checked(self):
        mem, job = BankedMemory(total_words=16), FftJob(16, DataType.C64)
        with pytest.raises(MemoryModelError):
            load_quantized(mem, job, np.zeros(16))
        with pytest.raises(MemoryModelError):
            read_spectrum(mem, job)


class TestSpectra:
    def test_impulse_flat_within_one_ulp(self):
        # amplitude-0.5 impulse, C64, N=512: every bin is 0.5/512 exactly
        n, dtype = 512, DataType.C64
        x = np.zeros(n, dtype=complex)
        x[0] = 0.5
        mem, job, summary, _ = run_fixed(x, dtype, n)
        want = quantize(0.5 / n, dtype)
        for s in read_samples(mem, 0, n, dtype):
            assert abs(s.re - want.re) <= 1
            assert abs(s.im) <= 1
        assert not summary.overflow

    def test_all_zero_input(self):
        n, dtype = 64, DataType.C32
        mem, job, summary, _ = run_fixed(np.zeros(n, dtype=complex), dtype, n)
        assert all(s.re == 0 and s.im == 0 for s in read_samples(mem, 0, n, dtype))
        assert not summary.overflow

    @pytest.mark.parametrize("dtype", ALL_DTYPES)
    def test_white_noise_snr_floor(self, dtype):
        for n in (64, dtype.max_points):
            rng = np.random.default_rng(1234)
            x = rng.uniform(-0.9, 0.9, n) + 1j * rng.uniform(-0.9, 0.9, n)
            mem, job, summary, oracle_in = run_fixed(x, dtype, n)
            got = read_spectrum(mem, job) * (1 << summary.scaling_stages)
            snr = spectrum_snr_db(fft_reference(oracle_in), got)
            assert snr >= SNR_FLOORS_DB[dtype]

    @pytest.mark.parametrize("dtype", ALL_DTYPES)
    @pytest.mark.parametrize("bin_k", [0, 3])
    def test_tone_bin_positions(self, dtype, bin_k):
        # natural-order output: the oracle's peak bin and ours coincide
        for n in (8, 64, dtype.max_points):
            t = np.arange(n)
            x = 0.7 * np.exp(2j * np.pi * bin_k * t / n)
            mem, job, summary, oracle_in = run_fixed(x, dtype, n)
            got = read_spectrum(mem, job)
            ref = fft_reference(oracle_in)
            assert int(np.argmax(np.abs(got))) == int(np.argmax(np.abs(ref))) \
                == bin_k

    def test_linearity_under_halving(self):
        n, dtype = 64, DataType.C32
        rng = np.random.default_rng(3)
        x = rng.uniform(-0.5, 0.5, n) + 1j * rng.uniform(-0.5, 0.5, n)
        _, job1, s1, _ = run_fixed(x, dtype, n)
        base = read_spectrum(*_job_mem(x, dtype, n))
        ulp = 2 ** -(dtype.part_width - 1)
        for alpha in (0.5, 0.25):
            mem, job, summary, _ = run_fixed(alpha * x, dtype, n)
            scaled = read_spectrum(mem, job)
            err = np.abs(scaled - alpha * base)
            assert np.max(err.real) <= 2 * ulp and np.max(err.imag) <= 2 * ulp

    def test_parseval(self):
        n, dtype = 256, DataType.C32
        rng = np.random.default_rng(11)
        x = rng.uniform(-0.9, 0.9, n) + 1j * rng.uniform(-0.9, 0.9, n)
        mem, job, summary, oracle_in = run_fixed(x, dtype, n)
        got = read_spectrum(mem, job) * (1 << summary.scaling_stages)
        spec_energy = np.sum(np.abs(got) ** 2) / n
        time_energy = np.sum(np.abs(oracle_in) ** 2)
        tol = 3 * 10 ** (-SNR_FLOORS_DB[dtype] / 20)
        assert abs(spec_energy - time_energy) <= tol * time_energy

    def test_overflow_flag_without_scaling(self):
        n, dtype = 8, DataType.C32
        x = np.full(n, 0.9 + 0.0j)
        mem, job, summary, _ = run_fixed(x, dtype, n, ScalingPolicy.NONE)
        assert summary.overflow
        assert summary.scaling_stages == 0

    def test_scaling_count(self):
        n = 64
        _, _, summary, _ = run_fixed(np.zeros(n, dtype=complex), DataType.C64, n)
        assert summary.scaling_stages == 6

    def test_nonzero_base_address(self):
        n, dtype = 64, DataType.C16
        rng = np.random.default_rng(8)
        x = rng.uniform(-0.9, 0.9, n) + 1j * rng.uniform(-0.9, 0.9, n)
        mem0, job0, s0, _ = run_fixed(x, dtype, n, base=0)
        mem1, job1, s1, _ = run_fixed(x, dtype, n, base=4096)
        assert read_samples(mem0, 0, n, dtype) == read_samples(mem1, 4096, n, dtype)
        assert s0.stats.as_dict() == s1.stats.as_dict()

    @pytest.mark.parametrize("base", [0, 4, 8, 12])
    @pytest.mark.parametrize("dtype", ALL_DTYPES)
    def test_phase_attribution_at_every_bank_offset(self, dtype, base):
        # a base shift renames the banks, and the whole program is arbitrated
        # in one pass: each phase's stalls and read cycles must still land
        # where the cycle model puts them, no stall in a butterfly stage
        for n in fft_sizes(dtype):
            x = np.random.default_rng(n + base).uniform(-0.9, 0.9, n) + 0.2j
            _, _, summary, _ = run_fixed(x, dtype, n, base=base)
            assert summary.stats.as_dict() == total_cycle_model(n, dtype).as_dict(), \
                (dtype, n, base)
            assert summary.stats.stage_conflicts == 0

    @pytest.mark.parametrize("dtype", ALL_DTYPES)
    def test_every_row_charged_to_its_phase(self, dtype, monkeypatch, fresh_programs):
        # an arbiter that rejects one request in every cycle: each phase's
        # stalls are then its cycle count, which a bound off by one row in
        # either direction gets wrong; the program arbitrates once
        calls = []

        def one_stall_per_cycle(memory, addresses, write_mask):
            calls.append(len(addresses))
            return np.ones(len(addresses), dtype=np.int64), None

        monkeypatch.setattr(BankedMemory, "access_batch", one_stall_per_cycle)
        for n in fft_sizes(dtype):
            stages = sum(len(schedule_stage(n, dtype, s).ports)
                         for s in range(n.bit_length() - 1))
            reorder = len(schedule_reorder(n, dtype).ports)
            calls.clear()
            _, _, summary, _ = run_fixed(np.zeros(n), dtype, n)
            assert calls == [stages + reorder]
            assert (summary.stats.stage_conflicts, summary.stats.conflicts) == \
                (stages, stages + reorder), (dtype, n)

    @pytest.mark.parametrize("dtype", ALL_DTYPES)
    def test_program_arbitrates_once(self, dtype, monkeypatch, fresh_programs):
        # the first op of a program arbitrates all of it in one call; any
        # later op, at any base, takes its statistics from the program
        calls, arbitrate = [], BankedMemory.access_batch

        def counting(memory, addresses, write_mask):
            calls.append(len(addresses))
            return arbitrate(memory, addresses, write_mask)

        monkeypatch.setattr(BankedMemory, "access_batch", counting)
        n = 64
        rows = sum(len(schedule_stage(n, dtype, s).ports) for s in range(6)) \
            + len(schedule_reorder(n, dtype).ports)
        first = run_fixed(np.zeros(n), dtype, n)[2].stats
        assert calls == [rows]
        second = run_fixed(np.full(n, 0.5), dtype, n, base=12)[2].stats
        assert calls == [rows]
        assert first.as_dict() == second.as_dict() == total_cycle_model(n, dtype).as_dict()

    def test_determinism(self):
        n, dtype = 128, DataType.C32
        rng = np.random.default_rng(21)
        x = rng.uniform(-0.9, 0.9, n) + 1j * rng.uniform(-0.9, 0.9, n)
        mem_a, _, sum_a, _ = run_fixed(x, dtype, n)
        mem_b, _, sum_b, _ = run_fixed(x, dtype, n)
        assert (mem_a.words == mem_b.words).all()
        assert sum_a.stats.as_dict() == sum_b.stats.as_dict()

    @pytest.mark.parametrize("dtype", ALL_DTYPES)
    def test_scheduling_never_alters_numerics(self, dtype):
        # over the whole size grid: the executor's memory words equal those of
        # the scalar butterfly applied stage by stage on a plain list, and its
        # cycle statistics equal the cycle model's
        for n in fft_sizes(dtype):
            rng = np.random.default_rng(n)
            x = rng.uniform(-0.9, 0.9, n) + 1j * rng.uniform(-0.9, 0.9, n)
            mem, job, summary, _ = run_fixed(x, dtype, n)
            want = straight_line_fft([quantize(v, dtype) for v in x], dtype)
            got = mem.words[:words_per_samples(dtype, n)].tolist()
            assert got == pack_samples(want, dtype), (dtype, n)
            assert summary.stats.as_dict() == total_cycle_model(n, dtype).as_dict()

    @pytest.mark.parametrize("dtype", ALL_DTYPES)
    def test_matches_reference_executor(self, dtype):
        # memory words, flag and cycle statistics of the typed-view executor
        # against the unpack -> butterfly -> route -> pack executor, at every
        # size and bank offset, with and without scaling; samples 0 and n/2
        # meet in stage 0 with w = 1, so an unscaled run always saturates
        for n in fft_sizes(dtype):
            phases = reference_phases(n, dtype)
            x = np.random.default_rng(n).uniform(-0.95, 0.95, n) + 0.3j
            x[[0, n // 2]] = 0.9 + 0.9j
            for scaling in ScalingPolicy:
                for base in (0, 4, 8, 12):
                    mem, job, summary, _ = run_fixed(x, dtype, n, scaling, base)
                    ref = BankedMemory()
                    load_quantized(ref, job, x)
                    flag, stats = reference_fft(phases, job, ref)
                    assert (mem.words == ref.words).all(), (dtype, n, scaling, base)
                    assert summary.overflow == flag
                    assert summary.stats.as_dict() == stats.as_dict()
                    assert flag or scaling is not ScalingPolicy.NONE


# sha256 of the executor's memory words, overflow flag and cycle statistics
# over the whole size grid, both scaling policies and four bank offsets,
# computed before the executor was rewritten; any change of a bit fails
GOLDEN_EXECUTOR_SHA256 = (
    "fe91bd3989080f61fa3d030942ad6895066c23c5557c79b40802a764fa838642")


def _frozen_inputs(n):
    """Noise at 0.9, and noise at 2.0 with +-(1+1j)*0.999 corners, which
    saturates on load.  Unscaled runs saturate in the stages on both; the
    loud input also saturates under divide-by-two at 9 of the 24 sizes."""
    rng = np.random.default_rng(n)
    quiet = 0.9 * (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n))
    loud = 2.0 * (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n))
    loud[:4] = np.array([1 + 1j, -1 - 1j, 1 - 1j, -1 + 1j]) * 0.999
    return quiet, loud


def executor_digest():
    digest = hashlib.sha256()
    for dtype in ALL_DTYPES:
        for n in fft_sizes(dtype):
            for x in _frozen_inputs(n):
                for scaling in ScalingPolicy:
                    for base in (0, 4, 8, 12):
                        mem, _, summary, _ = run_fixed(x, dtype, n, scaling, base)
                        digest.update(mem.words.tobytes())
                        digest.update(json.dumps([summary.overflow,
                                                  summary.stats.as_dict()]).encode())
    return digest.hexdigest()


# sha256 of each compiled program (``_program``: its statistics, twiddle
# rows and reorder half-words) and of its reorder plan (ports, strobes and
# moves), computed before the stages were compiled in one pass
GOLDEN_PROGRAM_SHA256 = {
    DataType.C64: (
        (8, "370e9c2b5b8949a66703054dff575477182e618c113cab8c2f5bf4adb3d5535e"),
        (16, "dc735ecf967222c429b433e6b7408faf972779f1f416a93afa588e7128febd91"),
        (32, "6b9d8ae67f5ca08610a729461653d23b0d2734148a4a7c29bd5b920ecb6abd3e"),
        (64, "2b7f6c2e0e5716c8fcfb631a1d64616697f64eb069450196b467ffeeed6aa7f4"),
        (128, "7c9e1e528531d594d77eccc0deb13c6840ec21a80410bd18888d746c2eaa771c"),
        (256, "61ddb1ca9589b5e5c3ffe9ab1e57390db3027e0e879e640e9545cc03787781fd"),
        (512, "26b889be17653e2b5fe0a8546df3bc51ff51fb6e9136ed4e5baae4d6ea638057")),
    DataType.C32: (
        (8, "4c7329d240713ab5a95f9fa26a015ab291bab12279ede80a55028dd8866e69ae"),
        (16, "a0f1e11b9f19af51379aba18b4cf42ea9d45b479581697b35587a96603ace9ac"),
        (32, "4d134e963a637aa0d8b6a578d7f0a5bdc7c937c9e73d4f2cb645b25e90fcc6f4"),
        (64, "a288fa2c0bad87cccfe6c6e443f77cc0c5470a4bf93c48a8c42cb6ae941ea8d5"),
        (128, "4ba470849af257280ac93231bf3722460a78eb31224e057ca8caf73b7e726e06"),
        (256, "1d5691a047ee02c2937332f83b81d4f9569664178db9918d0be728b5ad1c7290"),
        (512, "5be0c86418dcc7443da18a1527b51379332d86437300b58e5ec8b7d0166419ba"),
        (1024, "91a173ede3a527fc7de7e6409cd7f3155f442f42ac6d51e7c886aef954b4e83e")),
    DataType.C16: (
        (8, "b74682d7082681f80aa4426ada12fd7c9f709323bd5b8b47b7d620c3f8584a3c"),
        (16, "86f2b717d102efeab82e9f7a1f9803d75bdf20fa74355cc64dbabccbfdcb2063"),
        (32, "4d404687a73829345a88115788bb8ec580494877e5e1921bc8b3edebeccac1c6"),
        (64, "15befb67216253af7dc3806be8a9ded80012ee55f07349477af00bdeed54810e"),
        (128, "54bb8b75f0c84e014177e4e9c99936d3726ba6085ea113d2dfd3ff5a8df0e856"),
        (256, "fb3ecb2cc3e104ac9d1f4df3fe75f304106289e1e0ee8c9432cea0e528d97c29"),
        (512, "da05b30bfaeef9b20caae21f3047a9f6b243bb5cb367dd3df9d914363f9a9e90"),
        (1024, "647f41d67e7d4f8d6b28b81e113e8c3ade3fc424726fd4c965ef6f51995feed8"),
        (2048, "ad34f0e4ffa484c97b63d83970d1697912f1d16ecb96663186051d83b1484c4c")),
}


def program_digest(n, dtype):
    stats, twiddles, (dst, src) = fdsim.fft._program(n, dtype)
    reorder = schedule_reorder(n, dtype)
    digest = hashlib.sha256(json.dumps(dict(stats), sort_keys=True).encode())
    for row in (row for rows in twiddles for row in rows):
        digest.update(row.dtype.str.encode())
        digest.update(row.tobytes())
    for array in (dst, src, reorder.ports, reorder.strobes, reorder.entries):
        digest.update(array.astype("<i8").tobytes())
    return digest.hexdigest()


class TestFrozenOutput:
    def test_executor_output_frozen(self):
        assert executor_digest() == GOLDEN_EXECUTOR_SHA256

    @pytest.mark.parametrize("dtype", ALL_DTYPES)
    def test_compiled_programs_frozen(self, dtype):
        assert [(n, program_digest(n, dtype)) for n in fft_sizes(dtype)] == \
            list(GOLDEN_PROGRAM_SHA256[dtype])


class TestCompiledPrograms:
    @pytest.mark.parametrize("dtype", ALL_DTYPES)
    def test_reorder_moves_the_words_it_reads(self, dtype, monkeypatch,
                                              fresh_programs):
        # one swap unit sends its first two samples to each other's target:
        # the spectrum must come out wrong exactly there
        n = 64
        x = np.random.default_rng(2).uniform(-0.9, 0.9, n) + 0.3j
        real = schedule_reorder(n, dtype)
        (s0, d0), (s1, d1) = real.entries[:2].tolist()
        entries = real.entries.copy()
        entries[:2] = (s0, d1), (s1, d0)
        broken = dataclasses.replace(real, entries=entries)
        monkeypatch.setattr(fdsim.fft, "schedule_reorder", lambda n, dtype: broken)
        mem, _, summary, _ = run_fixed(x, dtype, n)
        got = read_samples(mem, 0, n, dtype)
        want = straight_line_fft([quantize(v, dtype) for v in x], dtype)
        assert want[d0] != want[d1]
        assert (got[d0], got[d1]) == (want[d1], want[d0])
        assert [g for i, g in enumerate(got) if i not in (d0, d1)] == \
            [w for i, w in enumerate(want) if i not in (d0, d1)]

    @pytest.mark.parametrize("dtype", ALL_DTYPES)
    def test_register_capacity_checked_at_compile(self, dtype, monkeypatch):
        # the last stage computes each group the cycle after reading it; one
        # more cycle before the write overfills the output register set
        compile_stage(schedule_stage(64, dtype, 5))
        monkeypatch.setattr(fdsim.schedule, "WRITE_LAG_STAGE", WRITE_LAG_STAGE + 1)
        with pytest.raises(AssertionError, match="output register overflow"):
            compile_stage(schedule_stage(64, dtype, 5))

    def test_same_cycle_read_and_write_rejected(self, monkeypatch):
        monkeypatch.setattr(fdsim.schedule, "WRITE_LAG_STAGE", 0)
        with pytest.raises(AssertionError, match="reads and writes one word in one cycle"):
            compile_stage(schedule_stage(16, DataType.C32, 0))

    def test_double_write_rejected(self):
        sched = schedule_reorder(64, DataType.C32)
        ports = sched.ports.copy()
        ports[-1, WRITE_COLUMN] = ports[2, WRITE_COLUMN]
        with pytest.raises(AssertionError, match="writes a word twice"):
            compile_reorder(dataclasses.replace(sched, ports=ports))

    def test_write_before_read_rejected(self):
        # the last reads move to the first cycle: the first cycle's words,
        # now read last, are read after their writes
        sched = schedule_reorder(64, DataType.C32)
        ports = sched.ports.copy()
        last_read = max(t for t, row in enumerate(ports) if (row[~WRITE_COLUMN] != IDLE).any())
        ports[[0, last_read], :4] = ports[[last_read, 0], :4]    # the read ports
        with pytest.raises(AssertionError, match="reads a word after writing it"):
            compile_reorder(dataclasses.replace(sched, ports=ports))

    def test_unsupported_strobe_rejected(self):
        sched = schedule_reorder(64, DataType.C16)
        strobes = sched.strobes.copy()
        strobes[WRITE_LAG_REORDER, 0] = 0x1
        with pytest.raises(AssertionError, match="unsupported strobe 0x1"):
            compile_reorder(dataclasses.replace(sched, strobes=strobes))

    def test_write_without_move_rejected(self):
        sched = schedule_reorder(64, DataType.C32)
        with pytest.raises(AssertionError, match="without a move"):
            compile_reorder(dataclasses.replace(sched, entries=sched.entries[1:]))

    def test_output_to_another_word_rejected(self):
        # two write ports of one cycle trade words: each butterfly output
        # would land on the other operand's word
        sched = schedule_stage(16, DataType.C32, 0)
        ports = sched.ports.copy()
        ports[WRITE_LAG_STAGE, [4, 5]] = ports[WRITE_LAG_STAGE, [5, 4]]
        with pytest.raises(AssertionError, match="to a word other than its operand's"):
            compile_stage(dataclasses.replace(sched, ports=ports))

    def test_im_word_before_re_word_rejected(self):
        # the first two read ports of a row, and the write ports of the
        # same words, trade words: sample 0's im word is read before its re
        sched = schedule_stage(16, DataType.C64, 0)
        ports = sched.ports.copy()
        ports[0, [0, 1]] = ports[0, [1, 0]]
        ports[WRITE_LAG_STAGE, [4, 5]] = ports[WRITE_LAG_STAGE, [5, 4]]
        with pytest.raises(AssertionError, match=r"C64 words must come as \(re, im\) pairs"):
            compile_stage(dataclasses.replace(sched, ports=ports))

    def test_part_outside_read_stream_rejected(self):
        sched = schedule_stage(16, DataType.C32, 0)
        ports = sched.ports.copy()
        ports[0, 0] = IDLE
        with pytest.raises(AssertionError, match="gathers a part outside its read stream"):
            compile_stage(dataclasses.replace(sched, ports=ports))

    def test_part_outside_write_stream_rejected(self):
        sched = schedule_stage(16, DataType.C32, 0)
        ports = sched.ports.copy()
        ports[WRITE_LAG_STAGE, 4] = IDLE
        with pytest.raises(AssertionError, match="scatters a part outside its write stream"):
            compile_stage(dataclasses.replace(sched, ports=ports))

    @pytest.mark.parametrize("dtype", ALL_DTYPES)
    def test_butterflies_outside_block_layout_rejected(self, dtype):
        # two butterflies trade rows with their cycles: the data flow checks
        # still pass, but the executor would pair the wrong samples
        sched = schedule_stage(64, dtype, 2)
        flies = sched.butterflies.copy()
        flies[[0, 1]] = flies[[1, 0]]
        with pytest.raises(AssertionError, match="butterfly outside the block layout"):
            compile_stage(dataclasses.replace(sched, butterflies=flies))

    @pytest.mark.parametrize("dtype", ALL_DTYPES)
    def test_twiddle_of_another_block_rejected(self, dtype):
        # block 0 of stage 2 gets the exponent of block 1
        sched = schedule_stage(64, dtype, 2)
        flies, h = sched.butterflies.copy(), 64 >> 3
        flies[:h, 3] = bit_reverse_index(1, 2) * h
        with pytest.raises(AssertionError, match="twiddle exponent other than"):
            compile_stage(dataclasses.replace(sched, butterflies=flies))

    @pytest.mark.parametrize("stage", [3, 5], ids=["middle", "last"])
    @pytest.mark.parametrize("dtype", ALL_DTYPES)
    @pytest.mark.parametrize("mutation, message", [
        ("swap_butterflies", "has a butterfly outside the block layout"),
        ("other_block_twiddle", "has a twiddle exponent other than"),
        ("drop_read", "gathers a part outside its read stream"),
        ("drop_write", "scatters a part outside its write stream"),
    ])
    def test_stack_rejection_names_the_stage(self, mutation, message, dtype, stage):
        # one stage of a whole 64-point program is broken as in the tests
        # above; the stacked compile must name that stage
        plans = schedule_stages(64, dtype)
        ports, flies, h = plans.ports.copy(), plans.butterflies.copy(), 64 >> (stage + 1)
        if mutation == "swap_butterflies":
            flies[stage, [0, 1]] = flies[stage, [1, 0]]
        elif mutation == "other_block_twiddle":
            flies[stage, :h, 3] = bit_reverse_index(1, stage) * h
        elif mutation == "drop_read":
            ports[stage, 0, 0] = IDLE
        else:
            ports[stage, WRITE_LAG_STAGE, 4] = IDLE
        with pytest.raises(AssertionError, match=f"^stage {stage} of 64-point {dtype.name} "
                                                 f"{message}"):
            compile_stage(dataclasses.replace(plans, ports=ports, butterflies=flies))

    @pytest.mark.parametrize("stage", [3, 5], ids=["middle", "last"])
    def test_stack_register_overflow_names_the_stage(self, stage, monkeypatch):
        # the stack is planned one write cycle late, then every stage but
        # one writes on time again; a C16 stage of spans below one port
        # group then overfills its output registers
        monkeypatch.setattr(fdsim.schedule, "WRITE_LAG_STAGE", WRITE_LAG_STAGE + 1)
        plans = schedule_stages(64, DataType.C16)
        ports = plans.ports.copy()
        on_time = np.arange(len(ports)) != stage
        ports[on_time, :-1, 4:] = ports[on_time, 1:, 4:]
        ports[on_time, -1, 4:] = IDLE
        with pytest.raises(AssertionError,
                           match=f"^stage {stage} of 64-point C16: output register overflow"):
            compile_stage(dataclasses.replace(plans, ports=ports))

    @pytest.mark.parametrize("dtype", ALL_DTYPES)
    def test_program_build_peak_memory(self, dtype):
        # traced peak bytes of building the largest program, measured before
        # the stages were compiled in one pass, plus 10%
        bound = {DataType.C64: 757_874, DataType.C32: 911_496, DataType.C16: 1_197_462}
        build = fdsim.fft._program.__wrapped__
        build(dtype.max_points, dtype)      # imports and the type's tables
        tracemalloc.start()
        try:
            build(dtype.max_points, dtype)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * bound[dtype]

    def test_move_outside_strobed_half_rejected(self):
        # a fix-up write that strobes the other half of its word: the move
        # into the half it used to strobe now lands in a half nobody writes
        sched = schedule_reorder(64, DataType.C16)
        strobes = sched.strobes.copy()
        t, p = np.argwhere(strobes == LO_HALF_STROBE)[0]
        strobes[t, p] = HI_HALF_STROBE
        with pytest.raises(AssertionError, match="outside the strobed halves it writes"):
            compile_reorder(dataclasses.replace(sched, strobes=strobes))

    def test_move_from_unread_word_rejected(self):
        # a palindrome is never read by the reorder, so it cannot be a source
        sched = schedule_reorder(64, DataType.C32)
        entries = sched.entries.copy()
        entries[0, 0] = 0
        broken = dataclasses.replace(sched, entries=entries)
        with pytest.raises(AssertionError, match="before reading its source"):
            compile_reorder(broken)


def _stream(ports, write):
    """The words of the read or the write ports, cycle by cycle."""
    words = ports[:, WRITE_COLUMN if write else ~WRITE_COLUMN]
    return words[words != IDLE]


def _samples_of(words, dtype):
    """The sample each unpacked part of a word stream belongs to."""
    if dtype is DataType.C64:
        return words[0::2] // 2
    if dtype is DataType.C32:
        return words
    return np.stack([2 * words, 2 * words + 1], axis=1).ravel()


def reference_phases(n, dtype):
    """Each phase's plan with the arrays the reference executor routes by:
    for a stage, butterflies (a, b, twiddle index) and ``route`` as places
    in the read stream; for the reorder, the write strobes and the moves
    (write half, read half) over the two streams."""
    phases = []
    for s in range(n.bit_length() - 1):
        plan = schedule_stage(n, dtype, s)
        position = np.empty(n, dtype=np.int64)
        position[_samples_of(_stream(plan.ports, False), dtype)] = np.arange(n)
        _, a, b, exp = plan.butterflies.T
        flies = (position[a], position[b], exp * (dtype.max_points // n))
        phases.append((plan, flies, position[_samples_of(_stream(plan.ports, True), dtype)]))
    plan = schedule_reorder(n, dtype)
    reads, writes = _stream(plan.ports, False), _stream(plan.ports, True)
    strobes = plan.strobes[plan.ports[:, WRITE_COLUMN] != IDLE]
    per_sample = {DataType.C64: 4, DataType.C32: 2, DataType.C16: 1}[dtype]
    src, dst = (plan.entries.T[..., None] * per_sample + np.arange(per_sample)).reshape(2, -1)
    source = np.full(2 * (max(writes.max(initial=0), reads.max(initial=0), n) + 1), -1)
    source[dst] = src
    lanes = {FULL_STROBE: (0, 1), LO_HALF_STROBE: (0,), HI_HALF_STROBE: (1,)}
    k, half = np.array([(k, h) for k, s in enumerate(strobes.tolist())
                        for h in lanes[s]], dtype=np.int64).reshape(-1, 2).T
    src = source[2 * writes[k] + half]
    slot = {w: i for i, w in reversed(list(enumerate(reads.tolist())))}
    moves = (2 * k + half, [2 * slot[h // 2] + h % 2 for h in src.tolist()])
    return phases + [(plan, strobes, moves)]


def reference_fft(phases, job, memory):
    """An executor that moves words, not parts: per stage, unpack the read
    stream, run the butterflies, route and pack to the write stream; the
    reorder writes its moved half-words under the strobe masks.  Each
    phase is arbitrated on its own.  Returns the flag and the statistics."""
    dtype, base, words = job.dtype, job.base_address, memory.words
    table, flag, stats = twiddle_table(dtype), OverflowFlag(), CycleStats()
    for i, (plan, *routing) in enumerate(phases):
        ports = plan.ports
        stalls = int(memory.access_batch(np.where(ports == IDLE, IDLE, ports + base),
                                         WRITE_COLUMN)[0].sum())
        reading = int((ports[:, ~WRITE_COLUMN] != IDLE).any(axis=1).sum())
        stats.overhead_cycles += len(ports) - reading
        stats.conflicts += stalls
        reads, writes = base + _stream(ports, False), base + _stream(ports, True)
        if i == len(phases) - 1:
            stats.reorder_cycles = reading
            strobes, (out_half, in_half) = routing
            got = words[reads]
            halves = np.stack([got & 0xFFFF, got >> 16], axis=1).ravel()
            out = np.zeros(2 * len(writes), dtype=np.uint32)
            out[out_half] = halves[in_half]
            mask = np.array([_STROBE_MASKS[s] for s in strobes.tolist()], dtype=np.uint32)
            words[writes] = (words[writes] & ~mask) | ((out[0::2] | out[1::2] << 16) & mask)
            continue
        stats.butterfly_cycles += reading
        stats.stage_conflicts += stalls
        (a, b, w), route = routing
        re, im = unpack_parts(words[reads], dtype)
        (re[a], im[a]), (re[b], im[b]) = one_pass(
            np.stack([re[a], im[a], re[b], im[b]]), table[:, w], dtype,
            job.scaling, flag)
        words[writes] = pack_parts(re[route], im[route], dtype)
    stats.stall_cycles = stats.conflicts
    return flag.seen, stats


def straight_line_fft(samples, dtype):
    """Textbook in-place walk of the same stage recurrence, no scheduling."""
    from fdsim.fixedpoint import butterfly
    from fdsim.fft import twiddle_lookup

    x = list(samples)
    n = len(x)
    m = n.bit_length() - 1
    for s in range(m):
        h = n >> (s + 1)
        for c in range(1 << s):
            w = twiddle_lookup(dtype, n, bit_reverse_index(c, s) * h)
            base = c * 2 * h
            for j in range(base, base + h):
                x[j], x[j + h] = butterfly(x[j], x[j + h], w)
    out = [None] * n
    for i in range(n):
        out[bit_reverse_index(i, m)] = x[i]
    return out


def _job_mem(x, dtype, n):
    mem = BankedMemory()
    job = FftJob(n, dtype)
    load_quantized(mem, job, x)
    fft_fixed(job, mem)
    return mem, job
