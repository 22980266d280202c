"""The plan validator (``tests/reference/validator.py``) and the proof it
gives the shipped programs.

``fdsim.fft._program`` reads its block twiddles and its reorder route off
the plans without checking them.  ``test_shipped_program_is_proven`` runs
the validator over the stage stack and the reorder of all 24 programs and
requires ``_program``'s arrays to equal the validator's, so every program
a run can use moves, in one batch per phase, exactly what its ports carry.
A scheduler edit that breaks a plan fails here, not at run time.  The
other tests break one plan each and require the validator to reject it,
naming the check and the phase.
"""

import dataclasses

import numpy as np
import pytest

import fdsim.fft
import fdsim.schedule
from fdsim.fft import twiddle_table
from fdsim.fixedpoint import DataType, pass_twiddles
from fdsim.membank import HI_HALF_STROBE, IDLE, LO_HALF_STROBE, WRITE_COLUMN
from fdsim.schedule import (WRITE_LAG_REORDER, WRITE_LAG_STAGE, bit_reverse_index,
                            fft_sizes, schedule_reorder, schedule_stage,
                            schedule_stages)
from reference.validator import compile_reorder, compile_stage

ALL_DTYPES = list(DataType)
PROGRAMS = [(n, dtype) for dtype in ALL_DTYPES for n in fft_sizes(dtype)]


@pytest.mark.parametrize("n, dtype", PROGRAMS,
                         ids=[f"{dtype.name}-{n}" for n, dtype in PROGRAMS])
def test_shipped_program_is_proven(n, dtype):
    blocks = compile_stage(schedule_stages(n, dtype))
    route = compile_reorder(schedule_reorder(n, dtype))
    _, twiddles, (dst, src) = fdsim.fft._program.__wrapped__(n, dtype)
    # pair q of pass s takes the twiddle of block q mod 2^s
    pair, mod = np.arange(n // 2), (1 << np.arange(len(twiddles)))[:, None] - 1
    want = pass_twiddles(twiddle_table(dtype).astype(dtype.register)[:, blocks[pair & mod]])
    got = np.array(twiddles)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    for got, want in zip((dst, src), route):
        assert got.dtype == want.dtype and np.array_equal(got, want)


class TestRejections:
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
