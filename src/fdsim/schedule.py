"""Port transaction plans for butterfly stages and the final reorder.

Stages run on natural-order data with decreasing half-spans; all loads and
stores are groups of 4 consecutive word addresses ("wing sets"), staged
through the butterfly register sets, and writes trail reads by 3 cycles,
which keeps every stage cycle bank-conflict-free.  The final bit-reversal
is realized as swap units (the permutation is an involution); its cycles
can and do collide in the banks, each rejected request stalling the
pipeline for exactly one cycle.

A plan is arrays from the start: a (cycles x 8) port-address matrix, one
row per cycle and ``IDLE`` on an unused port, plus a stage's butterflies
or the reorder's write strobes and sample moves.  All addresses are word
offsets from the start of the sample array; the executor adds the job's
base address.

The executor (``fft._program``) reads two things off the plans: each
block's twiddle index and the reorder's half-word route.  The 24 plans are
a finite domain, so they are proven once, by the tests, not by every run:
the plan validator in ``tests/reference`` shows that moving each phase's
data in one batch moves only what the ports carry, as moving it cycle by
cycle would, and the Tier-1 suite requires ``_program``'s arrays to equal
the validator's.  A run still arbitrates every cycle of its program.  So a
scheduler edit that breaks a plan fails the tests, not a run.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import indexOf

import numpy as np

from .fixedpoint import DataType
from .membank import (FULL_STROBE, HI_HALF_STROBE, IDLE, LO_HALF_STROBE,
                      N_BANKS, N_PORTS, WRITE_COLUMN, WRITE_PORTS,
                      CycleStats, arbitrate, words_per_samples)

WRITE_LAG_STAGE = 3
WRITE_LAG_REORDER = 2

MIN_POINTS = 8
# butterflies the engine completes per cycle
THROUGHPUT = {DataType.C64: 1, DataType.C32: 2, DataType.C16: 4}
# register-set capacity in samples ("two sets of four C64 registers"): four
# registers per butterfly lane
REGISTER_CAPACITY = {dtype: 4 * lanes for dtype, lanes in THROUGHPUT.items()}


def fft_sizes(dtype: DataType) -> tuple[int, ...]:
    """The transform sizes the engine runs on ``dtype``: the powers of two
    from MIN_POINTS up to the type's limit."""
    return tuple(1 << m for m in range(MIN_POINTS.bit_length() - 1,
                                       dtype.max_points.bit_length()))


def bit_reverse_index(i, bits: int):
    """Reverse the low ``bits`` bits of ``i``, an int or an integer array;
    involutive."""
    if bits < 0 or np.any((i < 0) | (i >= 1 << bits)):
        raise ValueError(f"index {i} out of range for {bits} bits")
    r = i & 0
    for _ in range(bits):
        r = (r << 1) | (i & 1)
        i = i >> 1
    return r


@lru_cache(maxsize=None)
def bit_reversal(bits: int) -> np.ndarray:
    """``bit_reverse_index`` of 0 .. 2^bits - 1, read-only."""
    table = bit_reverse_index(np.arange(1 << bits, dtype=np.int32), bits)
    table.flags.writeable = False
    return table


def _check_size(n_points: int, dtype: DataType) -> int:
    """log2 of ``n_points``, one of ``fft_sizes(dtype)``."""
    if n_points not in fft_sizes(dtype):
        raise ValueError(f"{n_points} points invalid for {dtype.name}")
    return n_points.bit_length() - 1


def _port_plan(reads, write_lag):
    """(cycles x 8) ports: each row of ``reads`` (read-stream words, 4
    ports) is read at its cycle and written back ``write_lag`` cycles later.
    A stack of read streams gives a stack of port plans."""
    ports = np.full(reads.shape[:-2] + (reads.shape[-2] + write_lag, N_PORTS), IDLE,
                    dtype=np.int32)
    ports[..., :reads.shape[-2], ~WRITE_COLUMN] = reads
    ports[..., write_lag:, WRITE_COLUMN] = reads
    return ports


@dataclass(frozen=True)
class StageSchedule:
    """One stage's plan, or the plans of consecutive stages from ``stage``
    on, stacked along a leading axis (``schedule_stages``)."""
    n_points: int
    dtype: DataType
    stage: int
    ports: np.ndarray          # (cycles x 8) word offsets, IDLE when unused
    butterflies: np.ndarray    # (n/2 x 4) rows (cycle, sample_a, sample_b, twiddle_exp)


def schedule_stages(n_points: int, dtype: DataType) -> StageSchedule:
    """The plans of all m stages, stacked: (m x cycles x 8) ports and
    (m x n/2 x 4) butterflies.  Built afresh on every call; the executor
    caches only its compiled arrays (``fft._program``).

    Butterfly u of stage s pairs sample a = the u-th left-half sample of
    the blocks of 2h with a + h, h = n / 2^(s+1) being the half-span; its
    block c = u // h takes twiddle exponent bit_reverse(c, s) * h, which is
    bit_reverse(c, m-1) at every stage.  Wing-pair spans (h >= one group)
    read left and right wing groups alternately; a pair's butterflies split
    into two engine-rate batches on the two cycles after the right wing
    lands.  Smaller spans pack whole blocks per group and compute the cycle
    after the read.  Every stage reads n / (samples per group) groups.
    """
    m = _check_size(n_points, dtype)
    spg = 4 * 32 // (2 * dtype.part_width)        # samples per 4-word port group
    h = (n_points >> np.arange(1, m + 1, dtype=np.int32))[:, None]
    wings = h >= spg
    u = np.arange(n_points // 2, dtype=np.int32)
    block = u // h
    a = block * h + u
    exp = bit_reversal(m - 1)[block]
    fly_at = np.where(wings, u // spg * 2 + 2 + u % spg // THROUGHPUT[dtype], a // spg + 1)
    # read group r (spg samples, 4 words) is group `first` of the array: in
    # a wing stage, wing r % 2 of group pair g = r // 2, that is group
    # g + (g // groups + wing) * groups with groups = h / spg; else group r
    r = np.arange(n_points // spg, dtype=np.int32)
    groups = np.maximum(h // spg, 1)
    first = np.where(wings, r // 2 + (r // 2 // groups + r % 2) * groups, r)
    reads = 4 * first[..., None] + np.arange(4, dtype=np.int32)
    return StageSchedule(n_points, dtype, 0, _port_plan(reads, WRITE_LAG_STAGE),
                         np.stack([fly_at, a, a + h, exp], axis=-1))


def schedule_stage(n_points: int, dtype: DataType, stage: int) -> StageSchedule:
    """Stage ``stage``'s plan: its slice of ``schedule_stages``."""
    plans = schedule_stages(n_points, dtype)
    if not 0 <= stage < len(plans.ports):
        raise ValueError(f"stage {stage} invalid for {n_points} points")
    return StageSchedule(n_points, dtype, stage, plans.ports[stage], plans.butterflies[stage])


# -- final bit-reversed reorder ----------------------------------------------


@dataclass(frozen=True)
class ReorderSchedule:
    n_points: int
    dtype: DataType
    ports: np.ndarray          # (cycles x 8) word offsets, IDLE when unused
    strobes: np.ndarray        # (cycles x 4) byte strobe of each write port
    entries: np.ndarray        # (k x 2) rows (src sample, dst sample), whole permutation


def _unit_keys(words):
    """The greedy's key of each swap unit (a row of ``words``, the words it
    reads): the 16-bit mask of its banks, under one bit per self conflict."""
    masks = np.bitwise_or.reduce(1 << words % N_BANKS, axis=1).tolist()
    return [((1 << words.shape[1] - mask.bit_count()) - 1) << N_BANKS | mask for mask in masks]


def _pick_unit(pending, occupied):
    """Index of the first pending unit key with the fewest collisions: its
    self conflicts plus its banks in the ``occupied`` bank mask."""
    collisions = (occupied | -1 << N_BANKS).__and__
    try:        # a unit that collides nowhere
        return indexOf(map(collisions, pending), 0)
    except ValueError:
        costs = list(map(int.bit_count, map(collisions, pending)))
        return costs.index(min(costs))


def _greedy_slots(keys, per_slot, lag):
    """Deterministic greedy grouping of units into slots of up to
    ``per_slot``: each pick keeps the slot's banks clear of those of the
    slot ``lag`` slots back, whose writes echo beside its reads.  Returns
    the unit indices in slot order, -1 filling the last slot."""
    pending, units, order = list(keys), list(range(len(keys))), []
    slot_banks = [0] * lag
    while pending:
        banks = 0
        for _ in range(min(per_slot, len(pending))):
            i = _pick_unit(pending, slot_banks[-lag] | banks)
            banks |= pending.pop(i) & (1 << N_BANKS) - 1
            order.append(units.pop(i))
        slot_banks.append(banks)
    return np.array(order + [-1] * (-len(order) % per_slot), dtype=np.intp)


# the strobes of a group of four fix-ups' two read cycles
_FIXUP_STROBES = np.array([[HI_HALF_STROBE] * 2 + [LO_HALF_STROBE] * 2,
                           [LO_HALF_STROBE] * 2 + [HI_HALF_STROBE] * 2])


def _reorder_read_cycles(n_points, dtype):
    """Swap units grouped into read cycles: the (cycles x 4) words and
    strobes of the reads, and the (k x 2) sample moves of the units."""
    m = n_points.bit_length() - 1
    if dtype is not DataType.C16:
        # one slot per cycle, as many swap units as fill the read ports
        per_sample = words_per_samples(dtype, 1)
        i = np.arange(n_points)
        j = bit_reversal(m)
        i, j = i[i < j], j[i < j]
        words = (np.stack([i, j], axis=1)[..., None] * per_sample
                 + np.arange(per_sample)).reshape(len(i), -1)
        moves = np.stack([i, j, j, i], axis=1)
        per_slot, lag = WRITE_PORTS.start // (2 * per_sample), WRITE_LAG_REORDER
    else:
        # bit reversal maps word pair (s, s+q) onto (d, d+q); a slot reads
        # its units' base words, then the words q above them
        q, half = n_points // 4, n_points // 2
        s = np.arange(q)
        d = bit_reversal(m)[2 * s] >> 1
        words = np.stack([s[s < d], d[s < d]], axis=1)
        samples = 2 * words[..., None] + [0, 1, half, half + 1]
        moves = np.stack([samples, bit_reversal(m)[samples]], axis=-1)
        per_slot, lag = 2, WRITE_LAG_REORDER // 2
    order = _greedy_slots(_unit_keys(words), per_slot, lag)
    reads = np.vstack([words, np.full(words.shape[1], IDLE)])[order].reshape(-1, 4)
    moves = moves[order[order >= 0]].reshape(-1, 2)
    if dtype is not DataType.C16:
        return reads, np.where(reads == IDLE, 0, FULL_STROBE), moves
    reads = np.stack([reads, np.where(reads == IDLE, IDLE, reads + q)], axis=1).reshape(-1, 4)
    # samples 2s and 2s+n/2+1 of a pair with d = s are palindromes; a
    # fix-up swaps 2s+1 <-> 2s+n/2, a half-word of words s and s+q each.
    # Four fix-ups take two cycles with staggered halves: the first two
    # read s, then s+q, the others s+q, then s.
    f = s[d == s]
    group = np.concatenate([f, np.full(-len(f) % 4, IDLE)]).reshape(-1, 1, 4)
    fixups = np.where(group == IDLE, IDLE, group + [[0, 0, q, q], [q, q, 0, 0]])
    strobes = np.where(fixups == IDLE, 0, _FIXUP_STROBES).reshape(-1, 4)
    swaps = np.stack([2 * f + 1, 2 * f + half, 2 * f + half, 2 * f + 1], axis=1)
    return (np.vstack([reads, fixups.reshape(-1, 4)]),
            np.vstack([np.where(reads == IDLE, 0, FULL_STROBE), strobes]),
            np.vstack([moves, swaps.reshape(-1, 2)]))


def schedule_reorder(n_points: int, dtype: DataType) -> ReorderSchedule:
    """Built afresh on every call; the executor caches only its compiled
    arrays (``fft._program``).  Each read cycle's words are written back,
    with the strobes they were read with, ``WRITE_LAG_REORDER`` cycles later."""
    _check_size(n_points, dtype)
    reads, read_strobes, entries = _reorder_read_cycles(n_points, dtype)
    lag = WRITE_LAG_REORDER if len(reads) else 0
    strobes = np.zeros((len(reads) + lag, len(WRITE_PORTS)), dtype=np.int32)
    strobes[lag:] = read_strobes
    return ReorderSchedule(n_points, dtype, _port_plan(reads, lag), strobes,
                           entries.astype(np.int32).reshape(-1, 2))


# -- cycle model -----------------------------------------------------------------

# Reorder stalls per size of ``fft_sizes``: the greedy that orders the swap
# units has no closed form, so its counts are replayed once and pinned here.
# The executor arbitrates every cycle it runs, so a changed greedy shows up
# as a mismatch with this table.
REORDER_STALLS = {DataType.C64: (0, 0, 0, 4, 6, 36, 70),
                  DataType.C32: (0, 0, 3, 4, 4, 12, 23, 51),
                  DataType.C16: (0, 0, 0, 0, 2, 6, 8, 20, 102)}


def _reorder_read_cycles_closed_form(n_points: int, m: int, dtype: DataType) -> int:
    """Read cycles of the reorder, without building it.

    An m-bit palindrome is fixed by its first ceil(m/2) bits, so 2^ceil(m/2)
    samples stay in place and the other N - 2^ceil(m/2) form swap pairs.
    C64 reads one pair (four words) per cycle: (N - 2^ceil(m/2)) / 2.  C32
    reads two pairs per cycle; N and 2^ceil(m/2) are multiples of 4 from
    N = 8, so the pair count is even: (N - 2^ceil(m/2)) / 4.

    C16 moves word pairs (s, s + N/4), s < N/4, holding samples 2s, 2s + 1,
    2s + N/2, 2s + N/2 + 1.  Reversal maps sample 2s (bits 0 and m-1 clear)
    to an even sample 2d below N/2, so pair s lands on pair d.  d = s iff
    2s is a palindrome with both end bits clear: its inner m - 2 bits are a
    palindrome, so P = 2^(ceil(m/2) - 1) pairs stay and only swap their
    middle samples (fix-ups).  The other N/4 - P pairs form U = (N/4 - P)/2
    swap units.  Two units take two cycles (base words, then words + N/4),
    and four fix-ups take two cycles: 2 ceil(U/2) + 2 ceil(P/4).
    """
    palindromes = 1 << (m + 1) // 2
    if dtype is DataType.C64:
        return (n_points - palindromes) // 2
    if dtype is DataType.C32:
        return (n_points - palindromes) // 4
    fixups = palindromes // 2
    units = (n_points // 4 - fixups) // 2
    return 2 * -(-units // 2) + 2 * -(-fixups // 4)


def total_cycle_model(n_points: int, dtype: DataType) -> CycleStats:
    """Closed-form cycle prediction; the simulator must match it exactly.
    It reads nothing from the schedulers."""
    m = _check_size(n_points, dtype)
    reorder = _reorder_read_cycles_closed_form(n_points, m, dtype)
    stalls = REORDER_STALLS[dtype][fft_sizes(dtype).index(n_points)]
    return CycleStats(
        butterfly_cycles=(n_points // 2) * m // THROUGHPUT[dtype],
        reorder_cycles=reorder,
        stall_cycles=stalls,
        overhead_cycles=WRITE_LAG_STAGE * m + (WRITE_LAG_REORDER if reorder else 0),
        conflicts=stalls,
    )


# -- debug dump ---------------------------------------------------------------


def _ports_text(row):
    """The read and the write words of one port-matrix row, as dump text."""
    return tuple(" ".join(f"{a:5d}" for a in words if a != IDLE) or "-"
                 for words in (row[:WRITE_PORTS.start], row[WRITE_PORTS.start:]))


def dump_stage_schedule(sched: StageSchedule) -> str:
    lines = [f"# stage {sched.stage} of {sched.n_points}-point {sched.dtype.name}"]
    exps = [[] for _ in sched.ports]
    for t, _, _, e in sched.butterflies.tolist():
        exps[t].append(str(e))
    for t, (row, e) in enumerate(zip(sched.ports.tolist(), exps)):
        reads, writes = _ports_text(row)
        lines.append(f"cycle {t:5d}  R: {reads:<23}  W: {writes:<23}  T: "
                     f"{' '.join(e) or '-'}")
    return "\n".join(lines) + "\n"


def dump_reorder_schedule(sched: ReorderSchedule) -> str:
    """The plan, headed by the stalls one arbitration pass over it counts."""
    conflicts, _ = arbitrate(sched.ports, WRITE_COLUMN)
    lines = [f"# reorder of {sched.n_points}-point {sched.dtype.name}"
             f" (expected stalls {conflicts.sum()})"]
    for t, row in enumerate(sched.ports.tolist()):
        reads, writes = _ports_text(row)
        lines.append(f"cycle {t:5d}  R: {reads:<23}  W: {writes}")
    return "\n".join(lines) + "\n"
