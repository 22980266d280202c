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

``compile_stage`` and ``compile_reorder`` turn a plan into what the
executor runs: a stage's block twiddles, the reorder's half-word indices.
They also prove, per phase, that moving its data in one batch moves only
what the ports carry, as moving it cycle by cycle would.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import indexOf

import numpy as np

from .fixedpoint import DataType
from .membank import (FULL_STROBE, HI_HALF_STROBE, IDLE, LO_HALF_STROBE,
                      N_BANKS, N_PORTS, WRITE_COLUMN, WRITE_PORTS,
                      BankedMemory, CycleStats, words_per_samples)

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
def _bit_reversal(bits: int) -> np.ndarray:
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
    caches only its compiled arrays (``compile_stage``).

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
    exp = _bit_reversal(m - 1)[block]
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
        j = _bit_reversal(m)
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
        d = _bit_reversal(m)[2 * s] >> 1
        words = np.stack([s[s < d], d[s < d]], axis=1)
        samples = 2 * words[..., None] + [0, 1, half, half + 1]
        moves = np.stack([samples, _bit_reversal(m)[samples]], axis=-1)
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
    arrays (``compile_reorder``).  Each read cycle's words are written back,
    with the strobes they were read with, ``WRITE_LAG_REORDER`` cycles later."""
    _check_size(n_points, dtype)
    reads, read_strobes, entries = _reorder_read_cycles(n_points, dtype)
    lag = WRITE_LAG_REORDER if len(reads) else 0
    strobes = np.zeros((len(reads) + lag, len(WRITE_PORTS)), dtype=np.int32)
    strobes[lag:] = read_strobes
    return ReorderSchedule(n_points, dtype, _port_plan(reads, lag), strobes,
                           entries.astype(np.int32).reshape(-1, 2))


# -- compiled programs ----------------------------------------------------------


def _check(ok, message):
    if not ok:
        raise AssertionError(message)


def _fail(failing, names, message):
    """Raise ``message`` for the first failing phase of a stack, if there
    is one: ``failing`` is a verdict per phase or the phases that fail, and
    ``names`` names each phase."""
    if failing.dtype == bool:
        failing = failing.nonzero()[0]
    if len(failing):
        raise AssertionError(names[failing.min()] + message)


def _streams(ports):
    """(phase, cycle, word) of each request of the read and of the write
    stream of a stack of phases, in phase, cycle and port order."""
    for side in (ports[..., ~WRITE_COLUMN], ports[..., WRITE_COLUMN]):
        index = (side != IDLE).reshape(-1).nonzero()[0]
        yield (*np.divmod((index // len(WRITE_PORTS)).astype(np.int32), ports.shape[1]),
               side.reshape(-1)[index])


def _check_batchable(names, ports):
    """A phase may move its data in one batch only if no word is written
    twice and every word is read before it is written.  ``ports`` is a
    stack of phases.  Returns ``_streams(ports)``."""
    (r_phase, r_cycle, r_word), (w_phase, w_cycle, w_word) = _streams(ports)
    k, span = len(names), max(int(ports.max()), 0) + 1
    w_key = w_phase * span + w_word
    written = np.zeros((k, span), dtype=bool)
    written.reshape(-1)[w_key] = True
    _fail(written.sum(axis=1) < np.bincount(w_phase, minlength=k), names,
          " writes a word twice")
    written_at = np.full(k * span, np.iinfo(np.int32).max, dtype=np.int32)
    written_at[w_key] = w_cycle
    written_at = written_at[r_phase * span + r_word]
    _fail(r_phase[r_cycle == written_at], names, " reads and writes one word in one cycle")
    _fail(r_phase[r_cycle > written_at], names, " reads a word after writing it")
    return (r_phase, r_cycle, r_word), (w_phase, w_cycle, w_word)


def _check_block_layout(names, sched, k):
    """Checks that a stack of ``k`` stage plans is in the block layout
    (``compile_stage``).  Returns the butterflies' (cycle, a, b) and the
    twiddle exponent of block c at entry c."""
    n = sched.n_points
    fly_at, a, b, exp = sched.butterflies.reshape(k, -1, 4).transpose(2, 0, 1)
    h = (n >> np.arange(sched.stage + 1, sched.stage + k + 1, dtype=np.int32))[:, None]
    u = np.arange(n // 2, dtype=np.int32)
    block = u // h
    # a butterfly table of another size fails at every stage
    in_layout = a.shape == block.shape and ((a == block * h + u) & (b == a + h)).all(axis=1)
    _fail(~np.broadcast_to(in_layout, k), names,
          " has a butterfly outside the block layout")
    twiddle = _bit_reversal(n.bit_length() - 2)     # bit_reverse(c, s) * h, any s
    _fail((exp != twiddle[block]).any(axis=1), names,
          " has a twiddle exponent other than bit_reverse(block) * h")
    return (fly_at, a, b), twiddle


def _samples_per_unit(dtype):
    return max(32 // dtype.part_width // 2, 1)


def _stream_units(phases, cycles, words, dtype):
    """(phase, unit, cycle its last word moves) per unit a word stream
    carries, in stream order.  A unit is the least run of words that holds
    whole samples: a C64 sample's (re, im) word pair, which must come in
    turn in one phase, or one word of C32 or C16 samples."""
    if dtype.part_width < 32:
        return phases, words, cycles
    re, im = words[0::2], words[1::2]
    _check(len(re) == len(im) and (phases[0::2] == phases[1::2]).all()
           and (re % 2 == 0).all() and (im == re + 1).all(),
           f"{dtype.name} words must come as (re, im) pairs")
    return phases[0::2], re // 2, np.maximum(cycles[0::2], cycles[1::2])


def _check_in_place(names, reads, writes, n, dtype):
    """Checks that each phase of a stack of stage plans reads every sample
    once and writes each back to its words in read order.  Returns the
    units (``_stream_units``) of the read stream and their write cycles."""
    k, n_units = len(names), n // _samples_per_unit(dtype)
    phase, unit, read_at = _stream_units(*reads, dtype)
    once = np.bincount((phase * n_units + unit)[unit < n_units],
                       minlength=k * n_units).reshape(k, n_units) == 1
    _fail(~once.all(axis=1) | (np.bincount(phase, minlength=k) != n_units),
          names, " does not read every sample once")
    w_phase, written, written_at = _stream_units(*writes, dtype)
    # the streams are aligned up to the first phase that writes other
    # than n_units units
    same = min(len(written), len(unit))
    _fail(np.concatenate([np.flatnonzero(np.bincount(w_phase, minlength=k) != n_units),
                          phase[:same][written[:same] != unit[:same]]]),
          names, " writes a butterfly output to a word other than its operand's")
    return (phase, unit, read_at), written_at


def _check_timing(names, units, written_at, flies, n, cycles, dtype):
    """Checks that each unit's samples are computed after it is read and
    before it is written, and that no register set of a stack of stage
    plans holds more than REGISTER_CAPACITY samples."""
    (phase, unit, read_at), (fly_at, a, b) = units, flies
    k, per_unit = len(names), _samples_per_unit(dtype)
    done_at = np.empty(k * n, dtype=np.int32)      # each sample's butterfly cycle
    first = np.arange(0, k * n, n, dtype=np.int32)[:, None]
    done_at[a + first] = done_at[b + first] = fly_at
    done_at = done_at.reshape(-1, per_unit)
    key = phase * (n // per_unit) + unit
    _fail(phase[read_at >= done_at.min(axis=1)[key]], names,
          " computes a butterfly before its operands are read")
    _fail(phase[done_at.max(axis=1)[key] > written_at], names,
          " writes a sample before its butterfly")

    # samples each register set holds after each cycle
    row = np.arange(0, k * cycles, cycles, dtype=np.int32)     # each phase's first

    def moved(at):
        return np.bincount(at.ravel(), minlength=k * cycles)

    done = 2 * moved(fly_at + row[:, None])
    held = np.stack([per_unit * moved(row[phase] + read_at) - done,
                     done - per_unit * moved(row[phase] + written_at)])
    peak = held.reshape(2, k, cycles).cumsum(axis=2).max(axis=2)
    capacity = REGISTER_CAPACITY[dtype]
    for s in np.flatnonzero((peak > capacity).any(axis=0))[:1]:
        side = int(peak[0, s] <= capacity)
        raise AssertionError(f"{names[s]}: {('input', 'output')[side]} register overflow "
                             f"{peak[side, s]} > {capacity}")


def compile_stage(sched: StageSchedule) -> np.ndarray:
    """Stage plans -> entry c: the twiddle table index of block c in every
    stage that has a block c (stage s has 2^s).

    The executor runs stage s on the samples viewed as (blocks, 2, h): block
    c pairs sample c*2h + j with the one h above it, j < h, under twiddle
    exponent bit_reverse(c, s) * h.  This checks that the plan is in that
    block layout and that its data flow is realisable: every part used lies
    in a word read and a word written; each sample is read, used by one
    butterfly and written back in place (the k-th write stores the result
    of the k-th read) once, in that order; and no register set holds more
    than REGISTER_CAPACITY samples.

    ``sched`` is one stage's plan or a stack of them (``schedule_stages``).
    Each check runs once over the stack and names the first stage that
    fails it."""
    n, dtype, ports = sched.n_points, sched.dtype, sched.ports
    k = len(ports) if ports.ndim == 3 else 1
    names = [f"stage {s} of {n}-point {dtype.name}" for s in range(sched.stage, sched.stage + k)]
    _check(ports.ndim in (2, 3) and ports.shape[-1] == N_PORTS,
           f"{names[0]} needs more than the port budget")
    ports = ports.reshape(k, -1, N_PORTS)
    reads, writes = _check_batchable(names, ports)
    flies, twiddle = _check_block_layout(names, sched, k)
    # the butterflies' operands are then samples 0..n-1: every word of the
    # sample array must be in both streams
    n_words = words_per_samples(dtype, n)
    for (phase, _, word), action in ((reads, " gathers a part outside its read stream"),
                                     (writes, " scatters a part outside its write stream")):
        carried = np.zeros((k, n_words + 1), dtype=bool)
        carried[phase, np.minimum(word, n_words)] = True
        _fail(~carried[:, :n_words].all(axis=1), names, action)
    units, written_at = _check_in_place(names, reads, writes, n, dtype)
    _check_timing(names, units, written_at, flies, n, ports.shape[1], dtype)
    return twiddle * (dtype.max_points // n)       # the table serves all sizes


# the halves (lo, hi) of a word that each supported strobe writes
_STROBE_HALVES = {FULL_STROBE: (True, True), LO_HALF_STROBE: (True, False),
                  HI_HALF_STROBE: (False, True)}
_HALVES_BY_STROBE = np.array([_STROBE_HALVES.get(s, (False, False)) for s in range(16)])


def compile_reorder(sched: ReorderSchedule) -> tuple[np.ndarray, np.ndarray]:
    """Reorder plan -> (dst, src): half-word ``dst[k]`` of the sample array
    viewed as ``'<u2'`` takes the value half-word ``src[k]`` held before.
    The plan's moves, in half-words, fill exactly the strobed halves of the
    written words, each from a half-word an earlier read of this pass
    returned."""
    dtype, ports = sched.dtype, sched.ports
    what = f"reorder of {sched.n_points}-point {dtype.name}"
    _check(ports.ndim == 2 and ports.shape[1] == N_PORTS,
           f"{what} needs more than the port budget")
    (_, r_cycle, r_word), (_, w_cycle, w_word) = _check_batchable([what], ports[None])
    strobes = sched.strobes[ports[:, WRITE_COLUMN] != IDLE]
    unsupported = set(strobes.tolist()) - _STROBE_HALVES.keys()
    _check(not unsupported, f"{what}: unsupported strobe {min(unsupported, default=0):#x}")

    n_halves = 2 * (max(int(ports.max()), words_per_samples(dtype, sched.n_points)) + 1)
    per_sample = dtype.part_width // 8      # a sample's half-words are consecutive
    src, dst = (sched.entries.T[..., None] * per_sample
                + np.arange(per_sample)).reshape(2, -1)
    k, half = np.nonzero(_HALVES_BY_STROBE[strobes])
    written = 2 * w_word[k] + half
    strobed = np.zeros(n_halves + 1, dtype=bool)
    strobed[written] = True
    _check(strobed[np.minimum(dst, n_halves)].all(),
           f"{what} moves a half-word outside the strobed halves it writes")
    source = np.full(n_halves, -1)
    source[dst] = src
    src = source[written]
    for i in np.flatnonzero(src < 0)[:1]:
        raise AssertionError(f"{what} writes half {half[i]} of word {w_word[k[i]]} "
                             "without a move")
    first_read = np.full(n_halves // 2, np.iinfo(np.int64).max)
    np.minimum.at(first_read, r_word, r_cycle)
    for i in np.flatnonzero(first_read[src // 2] >= w_cycle[k])[:1]:
        raise AssertionError(f"{what} writes word {w_word[k[i]]} before reading its source")
    return written.astype(np.intp), src.astype(np.intp)


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
    conflicts, _ = BankedMemory().access_batch(sched.ports, WRITE_COLUMN)
    lines = [f"# reorder of {sched.n_points}-point {sched.dtype.name}"
             f" (expected stalls {conflicts.sum()})"]
    for t, row in enumerate(sched.ports.tolist()):
        reads, writes = _ports_text(row)
        lines.append(f"cycle {t:5d}  R: {reads:<23}  W: {writes}")
    return "\n".join(lines) + "\n"
