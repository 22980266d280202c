import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdsim.fixedpoint import DataType, FixedComplex, sample_parts
from fdsim.membank import (DEFAULT_TOTAL_WORDS, HI_HALF_STROBE, IDLE, LO_HALF_STROBE,
                           N_BANKS, N_PORTS, WRITE_COLUMN, BankedMemory,
                           MemoryModelError, Request, arbitrate, bandwidth_bytes_per_s,
                           export_image, load_samples,
                           pack_samples, read_samples, unpack_samples,
                           words_per_samples)
from fdsim.schedule import fft_sizes
from reference.image import import_image
from reference_packing import pack_parts, unpack_parts


def reads(addrs, start_port=0):
    return [Request(start_port + i, a) for i, a in enumerate(addrs)]


def same_bank_cube(addresses):
    """Reference arbitration by an (ports x ports) same-bank cube per cycle:
    port p is rejected if a lower port q shares its bank.  Idle ports get
    distinct negative banks, so they never collide."""
    addresses = np.asarray(addresses, dtype=np.int64)
    banks = np.where(addresses != IDLE, addresses % N_BANKS, -1 - np.arange(N_PORTS))
    same_bank = banks[:, :, None] == banks[:, None, :]
    rejected = (same_bank & np.tri(N_PORTS, k=-1, dtype=bool)).any(axis=2)
    return rejected.sum(axis=1), rejected


class TestAccess:
    def test_eight_distinct_banks_all_complete(self):
        mem = BankedMemory()
        reqs = [Request(p, p) for p in range(4)]
        reqs += [Request(4 + p, 4 + p, write=True, data=p) for p in range(4)]
        res = mem.access(0, reqs)
        assert res.conflicts == 0
        assert len(res.completed) == 8
        assert not res.rejected

    def test_same_bank_conflict(self):
        mem = BankedMemory()
        res = mem.access(0, [Request(0, 0), Request(1, 16)])
        assert res.conflicts == 1
        assert len(res.completed) == 1
        assert res.completed[0].port == 0      # lowest port wins
        assert res.rejected[0].port == 1

    def test_consecutive_quads_never_conflict(self):
        # derived by exhaustive sweep: 4 consecutive words hit 4 distinct banks
        mem = BankedMemory()
        for a in range(64):
            res = mem.access(a, reads([a, a + 1, a + 2, a + 3]))
            assert res.conflicts == 0

    def test_port_direction_enforced(self):
        mem = BankedMemory()
        with pytest.raises(ValueError):
            mem.access(0, [Request(0, 0, write=True, data=1)])
        with pytest.raises(ValueError):
            mem.access(0, [Request(5, 0)])

    def test_duplicate_port_rejected(self):
        mem = BankedMemory()
        with pytest.raises(ValueError):
            mem.access(0, [Request(0, 0), Request(0, 1)])

    def test_address_range(self):
        mem = BankedMemory(total_words=64)
        with pytest.raises(MemoryModelError):
            mem.access(0, [Request(0, 64)])

    def test_determinism(self):
        def run():
            mem = BankedMemory()
            conflicts = 0
            for c in range(32):
                reqs = reads([(c * 3) % 40, (c * 7) % 40, (c * 11) % 40][:3])
                reqs.append(Request(4, (c * 5) % 40, write=True, data=c))
                conflicts += mem.access(c, reqs).conflicts
            return conflicts, mem.words.tobytes()

        assert run() == run()

    @given(st.lists(st.tuples(st.booleans(), st.integers(0, 255)),
                    min_size=1, max_size=8))
    @settings(max_examples=200)
    def test_completions_partition_and_banks_unique(self, spec):
        mem = BankedMemory()
        reqs = []
        read_port, write_port = 0, 4
        for is_write, addr in spec:
            if is_write and write_port < 8:
                reqs.append(Request(write_port, addr, write=True, data=addr))
                write_port += 1
            elif not is_write and read_port < 4:
                reqs.append(Request(read_port, addr))
                read_port += 1
        if not reqs:
            return
        res = mem.access(0, reqs)
        assert len(res.completed) + len(res.rejected) == len(reqs)
        banks = [r.address % N_BANKS for r in res.completed]
        assert len(banks) == len(set(banks))
        assert res.conflicts == len(res.rejected)


class TestArbitrate:
    @given(st.lists(st.lists(st.one_of(st.just(IDLE), st.integers(0, 63)),
                             min_size=N_PORTS, max_size=N_PORTS),
                    min_size=1, max_size=6))
    @settings(max_examples=60)
    def test_rows_match_single_cycle_access(self, rows):
        conflicts, rejected = arbitrate(np.array(rows), WRITE_COLUMN, total_words=64)
        for t, row in enumerate(rows):
            reqs = [Request(p, a, write=p >= 4) for p, a in enumerate(row) if a != IDLE]
            res = BankedMemory(total_words=64).access(t, reqs)
            assert conflicts[t] == res.conflicts
            assert [p for p in range(N_PORTS) if rejected[t, p]] == \
                [r.port for r in res.rejected]

    @given(st.lists(st.lists(st.one_of(st.just(IDLE), st.integers(0, 255)),
                             min_size=N_PORTS, max_size=N_PORTS),
                    min_size=1, max_size=40))
    @settings(max_examples=200)
    def test_matches_same_bank_cube(self, rows):
        # addresses span 16 banks 16 times over, so rows mix same-bank and
        # same-address collisions with idle ports
        conflicts, rejected = arbitrate(np.array(rows), WRITE_COLUMN, total_words=256)
        want_conflicts, want_rejected = same_bank_cube(rows)
        assert conflicts.tolist() == want_conflicts.tolist()
        assert rejected.tolist() == want_rejected.tolist()

    def test_validation(self):
        with pytest.raises(ValueError, match="port requests must be"):
            arbitrate(np.zeros((2, 4), dtype=int), WRITE_COLUMN, total_words=64)
        with pytest.raises(ValueError, match="write on a read port"):
            arbitrate(np.zeros((1, 8), dtype=int), np.ones(8, dtype=bool), total_words=64)
        with pytest.raises(ValueError, match="read on a write port"):
            arbitrate(np.zeros((1, 8), dtype=int), np.zeros(8, dtype=bool), total_words=64)
        for bad in (64, IDLE - 1):
            with pytest.raises(MemoryModelError, match="outside capacity"):
                arbitrate(np.full((1, 8), bad, dtype=np.int32), WRITE_COLUMN, total_words=64)

    def test_arbitrate_needs_no_memory(self):
        # its capacity defaults to the default memory's
        rows = np.array([[0, 16, IDLE, 3, 1, 17, 33, IDLE]])
        conflicts, rejected = arbitrate(rows, WRITE_COLUMN, total_words=64)
        assert conflicts.tolist() == [3]
        assert rejected.tolist() == [[False, True, False, False, False, True, True, False]]
        arbitrate(np.full((1, 8), DEFAULT_TOTAL_WORDS - 1), WRITE_COLUMN)
        with pytest.raises(MemoryModelError, match=f"outside capacity {DEFAULT_TOTAL_WORDS}"):
            arbitrate(np.full((1, 8), DEFAULT_TOTAL_WORDS), WRITE_COLUMN)
        with pytest.raises(MemoryModelError, match="outside capacity 64"):
            arbitrate(rows + 32, WRITE_COLUMN, total_words=64)


class TestPacking:
    def test_c32_word_layout(self):
        # re=1, im=-1 raw -> 0xFFFF0001
        s = FixedComplex(1, -1, DataType.C32)
        assert pack_samples([s], DataType.C32) == [0xFFFF0001]

    def test_c64_two_words(self):
        s = FixedComplex(5, -6, DataType.C64)
        assert pack_samples([s], DataType.C64) == [5, 0xFFFFFFFA]

    def test_c16_half_word_order(self):
        # sample 2i in the low half-word; re low byte, im high byte
        samples = [FixedComplex(i + 1, -(i + 1), DataType.C16) for i in range(4)]
        words = pack_samples(samples, DataType.C16)
        assert len(words) == 2
        assert words[0] & 0xFF == 1            # sample 0 re
        assert (words[0] >> 8) & 0xFF == 0xFF  # sample 0 im = -1
        assert (words[0] >> 16) & 0xFF == 2    # sample 1 re
        assert unpack_samples(words, DataType.C16, 4) == samples

    @pytest.mark.parametrize("dtype", list(DataType))
    @given(st.lists(st.integers(0, 2**32 - 1), min_size=2, max_size=40))
    @settings(max_examples=40)
    def test_typed_views_of_words(self, dtype, values):
        # the executor's views: row j of the parts is sample j's (re, im),
        # half-word 2w + h is the low (h = 0) or high half of word w; parts
        # written through the view give the reference's words
        words = np.array(values[:len(values) // 2 * 2], dtype=BankedMemory().words.dtype)
        assert words.dtype == np.dtype("<u4")
        re, im = unpack_parts(words, dtype)
        parts = sample_parts(words, dtype)
        assert (parts[:, 0].tolist(), parts[:, 1].tolist()) == (re.tolist(), im.tolist())
        halves = words.view("<u2")
        assert halves.tolist() == np.stack([words & 0xFFFF, words >> 16], axis=1).ravel().tolist()
        written = np.zeros_like(words)
        sample_parts(written, dtype)[:] = np.stack([re, im], axis=1)
        assert written.tolist() == pack_parts(re, im, dtype).tolist() == words.tolist()

    @pytest.mark.parametrize("dtype", list(DataType))
    def test_words_per_samples_matches_the_packing(self, dtype):
        per_type = {DataType.C64: lambda n: 2 * n, DataType.C32: lambda n: n,
                    DataType.C16: lambda n: n // 2}[dtype]
        for n in fft_sizes(dtype):
            assert words_per_samples(dtype, n) == per_type(n), (dtype, n)

    @pytest.mark.parametrize("n", [1, 3, 17])
    def test_c16_odd_sample_count_rejected(self, n):
        samples = [FixedComplex(0, 0, DataType.C16)] * n
        with pytest.raises(ValueError, match="even sample count"):
            words_per_samples(DataType.C16, n)
        with pytest.raises(ValueError, match="even sample count"):
            pack_samples(samples, DataType.C16)
        with pytest.raises(ValueError, match="even sample count"):
            load_samples(BankedMemory(), 0, samples, DataType.C16)

    @pytest.mark.parametrize("dtype", list(DataType))
    def test_round_trip_through_memory(self, dtype):
        import random
        rnd = random.Random(99)
        n = 16
        samples = [FixedComplex(rnd.randint(dtype.min_raw, dtype.max_raw),
                                rnd.randint(dtype.min_raw, dtype.max_raw), dtype)
                   for _ in range(n)]
        mem = BankedMemory()
        load_samples(mem, 32, samples, dtype)
        assert read_samples(mem, 32, n, dtype) == samples

    def test_capacity_guard(self):
        mem = BankedMemory(total_words=16)
        samples = [FixedComplex(0, 0, DataType.C64)] * 9
        with pytest.raises(MemoryModelError):
            load_samples(mem, 0, samples, DataType.C64)

    def test_half_word_strobe_preserves_other_half(self):
        mem = BankedMemory()
        mem.write_word(3, 0xAAAABBBB)
        mem.write_word(3, 0x11112222, strobe=LO_HALF_STROBE)
        assert mem.read_word(3) == 0xAAAA2222
        mem.write_word(3, 0x55556666, strobe=HI_HALF_STROBE)
        assert mem.read_word(3) == 0x55552222


class TestBandwidth:
    def test_peak_at_350mhz(self):
        assert bandwidth_bytes_per_s(350e6) == pytest.approx(22.4e9)

    def test_linear_scaling(self):
        assert bandwidth_bytes_per_s(175e6) == pytest.approx(11.2e9)

    def test_near_zero(self):
        assert bandwidth_bytes_per_s(1e-9) == pytest.approx(6.4e-8)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            bandwidth_bytes_per_s(0)


class TestImageIO:
    def test_round_trip(self, tmp_path):
        mem = BankedMemory(total_words=256)
        samples = [FixedComplex(i, -i, DataType.C32) for i in range(8)]
        load_samples(mem, 16, samples, DataType.C32)
        path = tmp_path / "image.bin"
        export_image(mem, path, DataType.C32, 8, 16)
        back, sidecar = import_image(path)
        assert (back.words == mem.words).all()
        assert sidecar["dtype"] is DataType.C32
        assert sidecar["n_points"] == 8
        assert sidecar["base_address"] == 16
