import hashlib
import json
from collections import Counter

import pytest

import fdsim.fft
import fdsim.schedule
from fdsim import cli
from fdsim.fft import FftJob
from fdsim.fixedpoint import DataType
from fdsim.harness import FftRunSpec, InputSpec, run_fft_experiment
from fdsim.membank import IDLE, N_BANKS, WRITE_COLUMN, BankedMemory, Request
from fdsim.schedule import (REGISTER_CAPACITY, THROUGHPUT, bit_reverse_index,
                            dump_reorder_schedule, dump_stage_schedule,
                            fft_sizes, schedule_reorder, schedule_stage,
                            total_cycle_model)

ALL_DTYPES = list(DataType)


def sizes_for(dtype, subset=True):
    sizes = fft_sizes(dtype)
    return [sizes[0], 64, sizes[-1]] if subset else sizes


def stage_count(n):
    return n.bit_length() - 1


def port_rows(ports):
    """(read words, write words) of each cycle of a port matrix."""
    return [(tuple(a for a in row[:4] if a != IDLE), tuple(a for a in row[4:] if a != IDLE))
            for row in ports.tolist()]


def read_cycles(ports):
    return int((ports[:, ~WRITE_COLUMN] != IDLE).any(axis=1).sum())


def flies_by_cycle(sched):
    """(sample_a, sample_b, twiddle_exp) of each cycle of a stage plan."""
    flies = [[] for _ in sched.ports]
    for t, a, b, exp in sched.butterflies.tolist():
        flies[t].append((a, b, exp))
    return flies


def replay_stalls(sched):
    """Reorder conflicts, cycle by cycle through the scalar arbiter."""
    mem = BankedMemory()
    conflicts = 0
    for t, (reads, writes) in enumerate(port_rows(sched.ports)):
        reqs = [Request(p, a) for p, a in enumerate(reads)]
        reqs += [Request(4 + p, a, write=True, data=0, strobe=int(sched.strobes[t, p]))
                 for p, a in enumerate(writes)]
        conflicts += mem.access(t, reqs).conflicts
    return conflicts


# (n_points, reorder read cycles, reorder stalls) at every size: replayed
# once, frozen; a schedule change must be deliberate
GOLDEN_REORDER = {
    DataType.C64: ((8, 2, 0), (16, 6, 0), (32, 12, 0), (64, 28, 4), (128, 56, 6),
                   (256, 120, 36), (512, 240, 70)),
    DataType.C32: ((8, 1, 0), (16, 3, 0), (32, 6, 3), (64, 14, 4), (128, 28, 4),
                   (256, 60, 12), (512, 120, 23), (1024, 248, 51)),
    DataType.C16: ((8, 2, 0), (16, 4, 0), (32, 4, 0), (64, 8, 0), (128, 16, 2),
                   (256, 32, 6), (512, 64, 8), (1024, 128, 20), (2048, 256, 102)),
}


class TestSizes:
    @pytest.mark.parametrize("dtype", ALL_DTYPES)
    def test_sizes_run_from_8_to_the_type_limit(self, dtype):
        every = (8, 16, 32, 64, 128, 256, 512, 1024, 2048)
        assert fft_sizes(dtype) == every[:every.index(dtype.max_points) + 1]

    @pytest.mark.parametrize("dtype", ALL_DTYPES)
    @pytest.mark.parametrize("build", [lambda n, dtype: schedule_stage(n, dtype, 0),
                                       schedule_reorder, total_cycle_model],
                             ids=["schedule_stage", "schedule_reorder", "total_cycle_model"])
    def test_sizes_outside_the_range_rejected(self, build, dtype):
        for n in (4, 2 * dtype.max_points):
            with pytest.raises(ValueError, match=f"{n} points invalid for {dtype.name}"):
                build(n, dtype)


class TestStageSchedule:
    @pytest.mark.parametrize("dtype", ALL_DTYPES)
    def test_covers_every_butterfly_once(self, dtype):
        for n in sizes_for(dtype):
            for s in range(stage_count(n)):
                sched = schedule_stage(n, dtype, s)
                h = n >> (s + 1)
                seen = Counter()
                for _, ia, ib, exp in sched.butterflies.tolist():
                    assert ib == ia + h
                    assert 0 <= exp < n // 2
                    seen[ia] += 1
                assert len(seen) == n // 2
                assert all(v == 1 for v in seen.values())

    @pytest.mark.parametrize("dtype", ALL_DTYPES)
    def test_cycle_shape(self, dtype):
        for n in sizes_for(dtype):
            for s in range(stage_count(n)):
                sched = schedule_stage(n, dtype, s)
                for (reads, writes), flies in zip(port_rows(sched.ports),
                                                  flies_by_cycle(sched)):
                    for group in (reads, writes):
                        assert len(group) in (0, 4)
                        if group:
                            base = group[0]
                            assert group == (base, base + 1, base + 2, base + 3)
                            banks = {a % N_BANKS for a in group}
                            assert len(banks) == 4
                    assert len(flies) <= THROUGHPUT[dtype]

    @pytest.mark.parametrize("dtype", ALL_DTYPES)
    def test_read_write_bank_disjoint_in_cycle(self, dtype):
        # the conflict-freedom contract, statically
        for n in sizes_for(dtype, subset=False):
            for s in range(stage_count(n)):
                sched = schedule_stage(n, dtype, s)
                for reads, writes in port_rows(sched.ports):
                    rbanks = {a % N_BANKS for a in reads}
                    wbanks = {a % N_BANKS for a in writes}
                    assert not rbanks & wbanks

    @pytest.mark.parametrize("dtype", ALL_DTYPES)
    def test_conflict_free_replay(self, dtype):
        for n in sizes_for(dtype):
            mem = BankedMemory()
            conflicts = 0
            cycle = 0
            for s in range(stage_count(n)):
                for reads, writes in port_rows(schedule_stage(n, dtype, s).ports):
                    reqs = [Request(p, a) for p, a in enumerate(reads)]
                    reqs += [Request(4 + p, a, write=True, data=0)
                             for p, a in enumerate(writes)]
                    conflicts += mem.access(cycle, reqs).conflicts
                    cycle += 1
            assert conflicts == 0

    def test_n16_c64_stage0_is_eight_cycles(self):
        sched = schedule_stage(16, DataType.C64, 0)
        assert read_cycles(sched.ports) == 8
        assert len(sched.butterflies) == 8

    def test_n16_c16_two_cycles_any_stage(self):
        for s in range(4):
            sched = schedule_stage(16, DataType.C16, s)
            assert read_cycles(sched.ports) == 2
            # 4 butterflies per compute cycle
            busy = [len(f) for f in flies_by_cycle(sched) if f]
            assert busy and all(b == 4 for b in busy)

    def test_n8_c64_wing_gathering(self):
        # distance-4 operand pairs appear in the span-4 stage; every stage
        # carries 4 butterflies gathered via 2-sample wing loads
        for s, span in ((0, 4), (1, 2), (2, 1)):
            sched = schedule_stage(8, DataType.C64, s)
            flies = sched.butterflies.tolist()
            assert len(flies) == 4
            assert all(ib - ia == span for _, ia, ib, _ in flies)

    def test_invalid_stage(self):
        with pytest.raises(ValueError):
            schedule_stage(16, DataType.C64, 4)
        with pytest.raises(ValueError):
            schedule_stage(12, DataType.C64, 0)


class TestReorderSchedule:
    @pytest.mark.parametrize("dtype", ALL_DTYPES)
    def test_realizes_bit_reversal_exactly_once(self, dtype):
        for n in sizes_for(dtype):
            sched = schedule_reorder(n, dtype)
            m = stage_count(n)
            moving = {i for i in range(n) if bit_reverse_index(i, m) != i}
            srcs = [src for src, _ in sched.entries.tolist()]
            assert sorted(srcs) == sorted(moving)
            assert all(dst == bit_reverse_index(src, m)
                       for src, dst in sched.entries.tolist())

    def test_n8_swaps(self):
        sched = schedule_reorder(8, DataType.C64)
        got = {tuple(sorted(e)) for e in sched.entries.tolist()}
        assert got == {(1, 4), (3, 6)}

    def test_palindromes_emit_no_transaction(self):
        sched = schedule_reorder(16, DataType.C64)
        touched = {s for s, _ in sched.entries.tolist()}
        for i in range(16):
            if bit_reverse_index(i, 4) == i:
                assert i not in touched

    @pytest.mark.parametrize("dtype", ALL_DTYPES)
    def test_port_budget(self, dtype):
        for n in sizes_for(dtype):
            for reads, writes in port_rows(schedule_reorder(n, dtype).ports):
                assert len(reads) <= 4
                assert len(writes) <= 4

    @pytest.mark.parametrize("dtype", ALL_DTYPES)
    def test_expected_stalls_match_replay(self, dtype):
        # the model's stalls come from its own table, never from the scheduler
        for n in sizes_for(dtype, subset=False):
            stalls = replay_stalls(schedule_reorder(n, dtype))
            assert stalls == total_cycle_model(n, dtype).stall_cycles, (dtype, n)

    def test_golden_reorder_counts_at_every_size(self):
        for dtype, n, reorder_cycles, stalls in (
                (dtype, *row) for dtype, rows in GOLDEN_REORDER.items() for row in rows):
            sched = schedule_reorder(n, dtype)
            conflicts, _ = BankedMemory().access_batch(sched.ports, WRITE_COLUMN)
            assert (read_cycles(sched.ports), conflicts.sum()) == (reorder_cycles, stalls)
            model = total_cycle_model(n, dtype)
            assert (model.reorder_cycles, model.stall_cycles) == (reorder_cycles, stalls)


class TestCycleModel:
    def test_throughput_examples(self):
        assert total_cycle_model(512, DataType.C64).butterfly_cycles == 2304
        assert total_cycle_model(2048, DataType.C16).butterfly_cycles == 2816
        assert total_cycle_model(1024, DataType.C32).butterfly_cycles == 2560

    @pytest.mark.parametrize("dtype", ALL_DTYPES)
    def test_closed_form(self, dtype):
        for n in sizes_for(dtype, subset=False):
            m = stage_count(n)
            stats = total_cycle_model(n, dtype)
            assert stats.butterfly_cycles == (n // 2) * m // THROUGHPUT[dtype]
            assert stats.total_cycles == (stats.butterfly_cycles
                                          + stats.reorder_cycles
                                          + stats.stall_cycles
                                          + stats.overhead_cycles)
            assert stats.conflicts == stats.stall_cycles

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            total_cycle_model(4, DataType.C64)
        with pytest.raises(ValueError):
            total_cycle_model(1024, DataType.C64)

    def test_reads_no_scheduler(self, monkeypatch):
        def unavailable(*args):
            raise AssertionError("the cycle model called a scheduler")

        for name in ("schedule_stage", "schedule_reorder", "_reorder_read_cycles"):
            monkeypatch.setattr(fdsim.schedule, name, unavailable)
        for dtype in ALL_DTYPES:
            for n in sizes_for(dtype, subset=False):
                total_cycle_model(n, dtype)

    def test_changed_greedy_fails_cycle_model_match(self, monkeypatch, fresh_programs):
        # taking the last lowest-cost unit instead of the first moves the
        # C64-512 reorder stalls from 70 to 80; the pinned model must notice
        def last_lowest(pending, occupied):
            # a key is a unit's bank mask under one bit per self conflict
            costs = [(key & (occupied | -1 << N_BANKS)).bit_count() for key in pending]
            return len(costs) - 1 - costs[::-1].index(min(costs))

        spec = FftRunSpec(FftJob(512, DataType.C64),
                          input=InputSpec(source="noise", amplitude=0.9))
        assert run_fft_experiment(spec, seed=1).checks["cycle_model_match"]
        fdsim.fft._program.cache_clear()
        monkeypatch.setattr(fdsim.schedule, "_pick_unit", last_lowest)
        report = run_fft_experiment(spec, seed=1)
        assert report.metrics["stall_cycles"] == 80
        assert report.checks["cycle_model_match"] is False


# sha256 of the full `schedule dump` text (every stage, then the reorder)
GOLDEN_DUMP_SHA256 = {
    DataType.C64: (
        (8, "eb8417f1e48abe77d40b1da7a8c61ac9f4e019a52fb19f33316cc631a4f8502a"),
        (16, "57d706401d05d68d5f8deb35f4340b3e32ff097dc802ced14d94fffaa5fb55c5"),
        (32, "30342f284482bbcd074137e680063dbd5d5944a7e4d3903e78c759c6b1719473"),
        (64, "f0e8b540288f5e3f03fa93a6925fa4a636f4ddeaf17e8c6cabfee45f9eb3c6f2"),
        (128, "249148c18c77b83138f8ad1ec902e492cca75a1a9a6aa1b6ea3cd0a0f96c7c8f"),
        (256, "be1293810e21fae675369feb6c84db34a37c50f2d926ab1d60bcb60347b6d0e3"),
        (512, "4ae24baf45231d9fdf186edc7cdbff31d1619d08986730e3586932a04592d2bf")),
    DataType.C32: (
        (8, "b82775146304e83cd8f6ccca90be7ccdb8e4543e1e1f620f078fd9d7f8e54f82"),
        (16, "bc2fbd648ca804f14103671dd1704fe26eff3ea14fd38d71eb8125506b016bfa"),
        (32, "ba2c2a5367518fad8d88e683ba5b738e8f1333c7a260d3ff8a07456ac2a28d02"),
        (64, "fb4f966e8dbc6a2cf24733f343284b7233b144d1576dc4914d96ba4373e59833"),
        (128, "5e6d3a04b65bd9ca87d5bace2e81d2f8178d3984d6d7dce5d5e414a43c603e85"),
        (256, "b4bdec7c9e0befd1892834d2dff124f8a2ca2b460fbcbe1881dcb79a111362f4"),
        (512, "c2f06a649894d761482c9384904ac62373356e0b1ae3f445566235472b0f4623"),
        (1024, "09241d8acb2ef65108a20256882e65cccf7d6da44a66db1c5abe82efa2715478")),
    DataType.C16: (
        (8, "7b923ab943ceb662bba59833ce211057121d6d3d11e2a6f5eb010e853c071844"),
        (16, "7df5f78f23e678a5e50d8c2ef63994f9a95360629925e75b6361621044683045"),
        (32, "d735d7d31e4e11c5392e54fb76d15e9c8fc37839c177e9f52a856cc2dc9b24c1"),
        (64, "4bb8693ea4c14443f69a16536d0c4bcd79dd86110c2b7942d4a9506cf124b589"),
        (128, "9e82237e78d9569c8b63efcccc556595b919ba23f764a45793d22016920c7acc"),
        (256, "19163df41415972dc5f189dfc4a1d91603cf192fb7523e0a06b9cc4ee3baa91e"),
        (512, "ae6ec180a475c422a987027c6f65437aebdfddcdd399df3ad553ed85f30df730"),
        (1024, "6604c949692f39d74d07f7cac1f688c34db7114e6c66edcb582c12089cd06fee"),
        (2048, "0eff59f9c64a8d0af793aab41746f45cb761785439c79d545f53e7228c241acf")),
}


class TestDump:
    def test_stage_dump_golden(self):
        text = dump_stage_schedule(schedule_stage(8, DataType.C64, 0))
        lines = text.splitlines()
        assert lines[0] == "# stage 0 of 8-point C64"
        # 4 read groups + 3 drain cycles
        assert len(lines) == 1 + 4 + 3
        assert lines[1].startswith("cycle     0  R:     0     1     2     3")
        assert "W:     0     1     2     3" in lines[4]
        assert lines[-1].split("R:")[1].strip().startswith("-")

    def test_reorder_dump_mentions_stalls(self):
        text = dump_reorder_schedule(schedule_reorder(8, DataType.C64))
        assert text.startswith("# reorder of 8-point C64")
        assert "expected stalls" in text

    @pytest.mark.parametrize("dtype", ALL_DTYPES)
    def test_full_dump_text_frozen(self, dtype, tmp_path, capsys):
        for n, digest in GOLDEN_DUMP_SHA256[dtype]:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"version": 1, "kind": "fft-run", "seed": 1,
                                       "fft": {"n_points": n, "dtype": dtype.name}}))
            assert cli.main(["schedule", "dump", "--config", str(cfg)]) == 0
            text = capsys.readouterr().out
            assert hashlib.sha256(text.encode()).hexdigest() == digest, (dtype, n)

    def test_register_capacity_constants(self):
        assert REGISTER_CAPACITY[DataType.C64] == 4
        assert REGISTER_CAPACITY[DataType.C32] == 8
        assert REGISTER_CAPACITY[DataType.C16] == 16
