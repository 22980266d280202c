"""Per-cycle port transaction plans for butterfly stages and the final reorder.

Stages run on natural-order data with decreasing half-spans; all loads and
stores are groups of 4 consecutive word addresses ("wing sets"), staged
through the butterfly register sets, and writes trail reads by 3 cycles,
which keeps every stage cycle bank-conflict-free.  The final bit-reversal
is realized as swap units (the permutation is an involution); its cycles
can and do collide in the banks, each rejected request stalling the
pipeline for exactly one cycle.

All schedule addresses are word offsets from the start of the sample
array; the executor adds the job's base address.

``compile_stage`` and ``compile_reorder`` turn a schedule into the int32
arrays the executor runs: a (cycles x 8) port-address matrix and the data
routing from the words a phase reads to the words it writes.  They also
prove, per phase, what lets the executor move a phase's data as one batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fixedpoint import DataType
from .membank import (FULL_STROBE, HI_HALF_STROBE, IDLE, LO_HALF_STROBE,
                      N_BANKS, N_PORTS, WRITE_PORTS, CycleStats)

WRITE_LAG_STAGE = 3
WRITE_LAG_REORDER = 2

# samples carried by one 4-word port group
_SAMPLES_PER_GROUP = {DataType.C64: 2, DataType.C32: 4, DataType.C16: 8}
# butterflies the engine completes per cycle
THROUGHPUT = {DataType.C64: 1, DataType.C32: 2, DataType.C16: 4}
# register-set capacity in samples ("two sets of four C64 registers")
REGISTER_CAPACITY = {DataType.C64: 4, DataType.C32: 8, DataType.C16: 16}


def bit_reverse_index(i: int, bits: int) -> int:
    """Reverse the low ``bits`` bits of ``i``; involutive."""
    if bits < 0 or not 0 <= i < (1 << bits):
        raise ValueError(f"index {i} out of range for {bits} bits")
    r = 0
    for _ in range(bits):
        r = (r << 1) | (i & 1)
        i >>= 1
    return r


def _log2_points(n_points: int) -> int:
    if n_points < 2 or n_points & (n_points - 1):
        raise ValueError(f"{n_points} is not a power of two")
    return n_points.bit_length() - 1


def word_of_sample(index: int, dtype: DataType) -> int:
    if dtype is DataType.C64:
        return 2 * index
    if dtype is DataType.C32:
        return index
    return index // 2


def _group_words(first_sample: int, dtype: DataType) -> tuple[int, ...]:
    start = word_of_sample(first_sample, dtype)
    return (start, start + 1, start + 2, start + 3)


@dataclass(frozen=True)
class StageCycle:
    reads: tuple[int, ...]                       # word offsets, ports 0-3
    writes: tuple[int, ...]                      # word offsets, ports 4-7
    butterflies: tuple[tuple[int, int, int], ...]  # (sample_a, sample_b, twiddle_exp)


@dataclass
class StageSchedule:
    n_points: int
    dtype: DataType
    stage: int
    cycles: list[StageCycle]

    @property
    def read_cycles(self) -> int:
        return sum(1 for c in self.cycles if c.reads)


def _read_groups_and_batches(n_points, dtype, stage):
    """Ordered read groups plus butterfly batches keyed by cycle index.

    Wing-pair spans (half-span >= one group) alternate left/right wing
    groups; a pair's butterflies split into two engine-rate batches on the
    two cycles after the right wing lands.  Smaller spans pack whole
    blocks per group and compute the cycle after the read.
    """
    m = _log2_points(n_points)
    h = n_points >> (stage + 1)
    spg = _SAMPLES_PER_GROUP[dtype]
    rate = THROUGHPUT[dtype]
    groups: list[int] = []                # first sample index of each read group
    batches: dict[int, list] = {}

    def add_batch(cycle, flies):
        batches.setdefault(cycle, []).extend(flies)

    if h >= spg:
        for c in range(n_points // (2 * h)):
            exp = bit_reverse_index(c, stage) * h
            base = c * 2 * h
            for g in range(h // spg):
                left = base + g * spg
                t = len(groups)
                groups.append(left)          # left wings at cycle t
                groups.append(left + h)      # right wings at cycle t+1
                flies = [(x, x + h, exp) for x in range(left, left + spg)]
                add_batch(t + 2, flies[:rate])
                add_batch(t + 3, flies[rate:])
    else:
        blocks_per_group = spg // (2 * h)
        for g in range(n_points // spg):
            first = g * spg
            t = len(groups)
            groups.append(first)
            flies = []
            for b in range(blocks_per_group):
                block = first // (2 * h) + b
                exp = bit_reverse_index(block, stage) * h
                start = block * 2 * h
                flies += [(x, x + h, exp) for x in range(start, start + h)]
            add_batch(t + 1, flies)
    return groups, batches


def schedule_stage(n_points: int, dtype: DataType, stage: int) -> StageSchedule:
    """Built afresh on every call; the executor caches only its compiled
    arrays (``compile_stage``)."""
    m = _log2_points(n_points)
    if not 0 <= stage < m:
        raise ValueError(f"stage {stage} invalid for {n_points} points")
    if n_points > dtype.max_points:
        raise ValueError(f"{n_points} points exceed {dtype.name} limit")
    groups, batches = _read_groups_and_batches(n_points, dtype, stage)
    n_cycles = len(groups) + WRITE_LAG_STAGE
    cycles = []
    for t in range(n_cycles):
        reads = _group_words(groups[t], dtype) if t < len(groups) else ()
        writes = (_group_words(groups[t - WRITE_LAG_STAGE], dtype)
                  if t >= WRITE_LAG_STAGE else ())
        cycles.append(StageCycle(reads, writes, tuple(batches.get(t, ()))))
    return StageSchedule(n_points, dtype, stage, cycles)


# -- final bit-reversed reorder ----------------------------------------------


@dataclass(frozen=True)
class ReorderCycle:
    reads: tuple[int, ...]
    writes: tuple[tuple[int, int], ...]   # (word offset, byte strobe)


@dataclass
class ReorderSchedule:
    n_points: int
    dtype: DataType
    cycles: list[ReorderCycle]
    entries: tuple[tuple[int, int], ...]  # (src sample, dst sample), whole permutation
    expected_stalls: int

    @property
    def read_cycles(self) -> int:
        return sum(1 for c in self.cycles if c.reads)


def _pick_unit(pending, occupied_banks):
    """Index of the pending unit with fewest bank collisions (stable)."""
    best_i = 0
    best_cost = None
    for i, unit in enumerate(pending):
        banks = [w % N_BANKS for w in unit["words"]]
        cost = (len(banks) - len(set(banks))) + sum(1 for b in set(banks)
                                                    if b in occupied_banks)
        if best_cost is None or cost < best_cost:
            best_i, best_cost = i, cost
            if cost == 0:
                break
    return best_i


def _sample_swap_units(n_points, m, dtype):
    units = []
    for i in range(n_points):
        j = bit_reverse_index(i, m)
        if i < j:
            if dtype is DataType.C64:
                words = (2 * i, 2 * i + 1, 2 * j, 2 * j + 1)
            else:
                words = (i, j)
            units.append({"words": words, "moves": ((i, j), (j, i))})
    return units


def _word_pair_units(n_points, m):
    """C16 units: bit reversal maps word pair (s, s+q) onto (d, d+q)."""
    q = n_points // 4
    pair_units, fixups = [], []
    for s in range(q):
        d = bit_reverse_index(2 * s, m) >> 1
        if d == s:
            # samples 2s and 2s+n/2+1 are palindromes; swap 2s+1 <-> 2s+n/2
            a, b = 2 * s + 1, 2 * s + n_points // 2
            fixups.append({"words": (s, s + q), "moves": ((a, b), (b, a))})
        elif s < d:
            samples = [2 * s, 2 * s + 1, 2 * s + n_points // 2, 2 * s + n_points // 2 + 1,
                       2 * d, 2 * d + 1, 2 * d + n_points // 2, 2 * d + n_points // 2 + 1]
            moves = tuple((x, bit_reverse_index(x, m)) for x in samples)
            pair_units.append({"base": (s, d), "words": (s, d), "moves": moves})
    return pair_units, fixups, q


def _reorder_read_cycles(n_points, dtype):
    """Greedy, deterministic grouping of swap units into read cycles.

    Returns (cycles, entries): cycles as lists of (word, strobe) reads;
    unit order is chosen to keep the cycle's banks clear of the write set
    echoing two cycles behind it.
    """
    m = _log2_points(n_points)
    read_cycles: list[list[tuple[int, int]]] = []
    entries: list[tuple[int, int]] = []

    if dtype is not DataType.C16:
        units = _sample_swap_units(n_points, m, dtype)
        per_cycle = 1 if dtype is DataType.C64 else 2
        prev2: set[int] = set()
        prev1: set[int] = set()
        while units:
            chosen = []
            occupied = set(prev2)
            for _ in range(min(per_cycle, len(units))):
                i = _pick_unit(units, occupied)
                unit = units.pop(i)
                chosen.append(unit)
                occupied |= {w % N_BANKS for w in unit["words"]}
            words = [w for u in chosen for w in u["words"]]
            read_cycles.append([(w, FULL_STROBE) for w in words])
            for u in chosen:
                entries.extend(u["moves"])
            prev2, prev1 = prev1, {w % N_BANKS for w in words}
        return read_cycles, entries

    pair_units, fixups, q = _word_pair_units(n_points, m)
    prev_slot: set[int] = set()
    while pair_units:
        chosen = []
        occupied = set(prev_slot)
        for _ in range(min(2, len(pair_units))):
            i = _pick_unit(pair_units, occupied)
            unit = pair_units.pop(i)
            chosen.append(unit)
            occupied |= {w % N_BANKS for w in unit["words"]}
        base = [w for u in chosen for w in u["base"]]
        read_cycles.append([(w, FULL_STROBE) for w in base])
        read_cycles.append([(w + q, FULL_STROBE) for w in base])
        for u in chosen:
            entries.extend(u["moves"])
        prev_slot = {w % N_BANKS for w in base}
    # fixups: half-word swaps, four per two cycles with staggered halves
    for i in range(0, len(fixups), 4):
        grp = fixups[i:i + 4]
        lo, hi = grp[:2], grp[2:]
        read_cycles.append([(u["words"][0], HI_HALF_STROBE) for u in lo]
                           + [(u["words"][1], LO_HALF_STROBE) for u in hi])
        read_cycles.append([(u["words"][1], LO_HALF_STROBE) for u in lo]
                           + [(u["words"][0], HI_HALF_STROBE) for u in hi])
        for u in grp:
            entries.extend(u["moves"])
    return read_cycles, entries


@lru_cache(maxsize=None)
def _schedule_reorder_cached(n_points, dtype):
    read_cycles, entries = _reorder_read_cycles(n_points, dtype)
    n_cycles = len(read_cycles) + (WRITE_LAG_REORDER if read_cycles else 0)
    cycles = []
    stalls = 0
    for t in range(n_cycles):
        reads = tuple(a for a, _ in read_cycles[t]) if t < len(read_cycles) else ()
        writes = (tuple(read_cycles[t - WRITE_LAG_REORDER])
                  if t >= WRITE_LAG_REORDER else ())
        banks = [a % N_BANKS for a in reads] + [a % N_BANKS for a, _ in writes]
        stalls += len(banks) - len(set(banks))
        cycles.append(ReorderCycle(reads, writes))
    return ReorderSchedule(n_points, dtype, cycles, tuple(entries), stalls)


def schedule_reorder(n_points: int, dtype: DataType) -> ReorderSchedule:
    _log2_points(n_points)
    if n_points > dtype.max_points:
        raise ValueError(f"{n_points} points exceed {dtype.name} limit")
    return _schedule_reorder_cached(n_points, dtype)


# -- compiled programs ----------------------------------------------------------


@dataclass(frozen=True)
class StageProgram:
    """One butterfly stage as arrays.

    Samples are numbered by their place in the read stream (the words of
    ports 0-3, cycle by cycle).  ``butterflies`` rows are (a, b, twiddle
    table index); ``route[k]`` is the read-stream sample written as the
    k-th sample of the write stream (ports 4-7, cycle by cycle).
    """

    ports: np.ndarray          # (cycles x 8) word offsets, IDLE when unused
    butterflies: np.ndarray    # (n/2 x 3)
    route: np.ndarray          # (n,)


@dataclass(frozen=True)
class ReorderProgram:
    """The reorder pass as arrays.

    Half-words are numbered 2 * word + half over the read and the write
    stream; ``moves`` rows are (write half-word, read half-word).
    """

    ports: np.ndarray          # (cycles x 8) word offsets, IDLE when unused
    strobes: np.ndarray        # byte strobe of each write-stream word
    moves: np.ndarray          # (k x 2)


def _check(ok, message):
    if not ok:
        raise AssertionError(message)


def _port_matrix(cycles, writes_of):
    ports = np.full((len(cycles), N_PORTS), IDLE, dtype=np.int32)
    for t, c in enumerate(cycles):
        writes = writes_of(c)
        _check(len(c.reads) <= WRITE_PORTS.start and len(writes) <= len(WRITE_PORTS),
               f"cycle {t} needs more than the port budget")
        ports[t, :len(c.reads)] = c.reads
        ports[t, WRITE_PORTS.start:WRITE_PORTS.start + len(writes)] = writes
    return ports


def _streams(ports):
    """(cycle, word) of the read and the write stream, in port order."""
    reads, writes = ports[:, :WRITE_PORTS.start], ports[:, WRITE_PORTS.start:]
    r_cycle, r_port = np.nonzero(reads != IDLE)
    w_cycle, w_port = np.nonzero(writes != IDLE)
    return ((r_cycle, reads[r_cycle, r_port]),
            (w_cycle, writes[w_cycle, w_port]))


def _check_batchable(what, ports):
    """A phase may move its data as one gather and one scatter only if no
    word is written twice and every word is read before it is written."""
    (r_cycle, r_word), (w_cycle, w_word) = _streams(ports)
    _check(len(np.unique(w_word)) == len(w_word), f"{what} writes a word twice")
    written_at = np.full(ports.max() + 1, np.iinfo(np.int32).max)
    written_at[w_word] = w_cycle
    _check(not (r_cycle == written_at[r_word]).any(),
           f"{what} reads and writes one word in one cycle")
    _check(not (r_cycle > written_at[r_word]).any(),
           f"{what} reads a word after writing it")


def _stream_samples(cycles, words, dtype):
    """(sample index, cycle its last word moves) per sample a word stream
    carries, in unpack order."""
    if dtype is DataType.C64:
        _check((words[0::2] % 2 == 0).all() and (words[1::2] == words[0::2] + 1).all(),
               "C64 words must come as (re, im) pairs")
        return words[0::2] // 2, np.maximum(cycles[0::2], cycles[1::2])
    if dtype is DataType.C32:
        return words, cycles
    return (np.stack([2 * words, 2 * words + 1], axis=1).ravel(),
            np.repeat(cycles, 2))


def _is_permutation(values, n):
    return len(values) == n and np.array_equal(np.sort(values), np.arange(n))


def compile_stage(sched: StageSchedule) -> StageProgram:
    """Stage schedule -> StageProgram, checking that the data flow is
    realisable: each sample is read, used by one butterfly and written
    once, in that order, and the register sets never hold more than
    REGISTER_CAPACITY samples."""
    n, dtype = sched.n_points, sched.dtype
    what = f"stage {sched.stage} of {n}-point {dtype.name}"
    ports = _port_matrix(sched.cycles, lambda c: c.writes)
    _check_batchable(what, ports)
    (r_cycle, r_word), (w_cycle, w_word) = _streams(ports)
    samples, read_at = _stream_samples(r_cycle, r_word, dtype)
    _check(_is_permutation(samples, n), f"{what} does not read every sample once")
    position = np.empty(n, dtype=np.int64)
    position[samples] = np.arange(n)

    flies = [(t, a, b, exp) for t, c in enumerate(sched.cycles)
             for a, b, exp in c.butterflies]
    fly_at, a, b, exp = (np.array(col, dtype=np.int64) for col in zip(*flies))
    a, b = position[a], position[b]
    _check(_is_permutation(np.concatenate([a, b]), n),
           f"{what} does not use every sample in one butterfly")
    _check((read_at[a] < fly_at).all() and (read_at[b] < fly_at).all(),
           f"{what} computes a butterfly before its operands are read")
    done_at = np.empty(n, dtype=np.int64)
    done_at[a] = done_at[b] = fly_at

    written, written_at = _stream_samples(w_cycle, w_word, dtype)
    written = position[written]
    _check(_is_permutation(written, n), f"{what} does not write every sample once")
    _check((done_at[written] <= written_at).all(),
           f"{what} writes a sample before its butterfly")

    def per_cycle(at):
        return np.cumsum(np.bincount(at, minlength=len(ports)))

    held_in = per_cycle(read_at) - per_cycle(np.concatenate([fly_at, fly_at]))
    held_out = per_cycle(np.concatenate([fly_at, fly_at])) - per_cycle(written_at)
    capacity = REGISTER_CAPACITY[dtype]
    _check(held_in.max() <= capacity, f"{what}: input register overflow "
           f"{held_in.max()} > {capacity}")
    _check(held_out.max() <= capacity, f"{what}: output register overflow "
           f"{held_out.max()} > {capacity}")

    stride = dtype.max_points // n           # twiddle table serves all sizes
    butterflies = np.stack([a, b, exp * stride], axis=1).astype(np.int32)
    return StageProgram(ports, butterflies, written.astype(np.int32))


_STROBE_HALVES = {FULL_STROBE: (0, 1), LO_HALF_STROBE: (0,), HI_HALF_STROBE: (1,)}


def _sample_halves(index, dtype):
    """(word, half) pieces holding one sample, in part order."""
    if dtype is DataType.C64:
        return ((2 * index, 0), (2 * index, 1), (2 * index + 1, 0), (2 * index + 1, 1))
    if dtype is DataType.C32:
        return ((index, 0), (index, 1))
    return ((index // 2, index % 2),)


def compile_reorder(sched: ReorderSchedule) -> ReorderProgram:
    """Reorder schedule -> ReorderProgram.  Every written half-word is
    routed from a half-word an earlier read of this pass returned, as the
    schedule's moves say."""
    dtype = sched.dtype
    what = f"reorder of {sched.n_points}-point {dtype.name}"
    ports = _port_matrix(sched.cycles, lambda c: [a for a, _ in c.writes])
    _check_batchable(what, ports)
    (r_cycle, r_word), (w_cycle, w_word) = _streams(ports)
    strobes = [strobe for c in sched.cycles for _, strobe in c.writes]
    read_slot = {int(word): (k, int(t)) for k, (t, word) in
                 reversed(list(enumerate(zip(r_cycle, r_word))))}
    source = {}
    for src, dst in sched.entries:
        source.update(zip(_sample_halves(dst, dtype), _sample_halves(src, dtype)))
    moves = []
    for k, (t, word, strobe) in enumerate(zip(w_cycle, w_word, strobes)):
        _check(strobe in _STROBE_HALVES, f"{what}: unsupported strobe {strobe:#x}")
        for half in _STROBE_HALVES[strobe]:
            src_word, src_half = source.get((int(word), half), (None, None))
            _check(src_word is not None,
                   f"{what} writes half {half} of word {word} without a move")
            slot, read_t = read_slot.get(src_word, (None, t))
            _check(read_t < t, f"{what} writes word {word} before reading its source")
            moves.append((2 * k + half, 2 * slot + src_half))
    return ReorderProgram(ports, np.array(strobes, dtype=np.int32),
                          np.array(moves, dtype=np.int32).reshape(-1, 2))


def total_cycle_model(n_points: int, dtype: DataType) -> CycleStats:
    """Closed-form cycle prediction; the simulator must match it exactly."""
    m = _log2_points(n_points)
    if not 8 <= n_points <= dtype.max_points:
        raise ValueError(f"{n_points} points invalid for {dtype.name}")
    butterfly = (n_points // 2) * m // THROUGHPUT[dtype]
    reorder = schedule_reorder(n_points, dtype)
    stats = CycleStats(
        butterfly_cycles=butterfly,
        reorder_cycles=reorder.read_cycles,
        stall_cycles=reorder.expected_stalls,
        overhead_cycles=WRITE_LAG_STAGE * m
        + (WRITE_LAG_REORDER if reorder.read_cycles else 0),
        conflicts=reorder.expected_stalls,
    )
    stats.total_cycles = (stats.butterfly_cycles + stats.reorder_cycles
                          + stats.stall_cycles + stats.overhead_cycles)
    return stats


# -- debug dump ---------------------------------------------------------------


def dump_stage_schedule(sched: StageSchedule) -> str:
    lines = [f"# stage {sched.stage} of {sched.n_points}-point {sched.dtype.name}"]
    for t, c in enumerate(sched.cycles):
        reads = " ".join(f"{a:5d}" for a in c.reads) or "-"
        writes = " ".join(f"{a:5d}" for a in c.writes) or "-"
        exps = " ".join(str(e) for _, _, e in c.butterflies) or "-"
        lines.append(f"cycle {t:5d}  R: {reads:<23}  W: {writes:<23}  T: {exps}")
    return "\n".join(lines) + "\n"


def dump_reorder_schedule(sched: ReorderSchedule) -> str:
    lines = [f"# reorder of {sched.n_points}-point {sched.dtype.name}"
             f" (expected stalls {sched.expected_stalls})"]
    for t, c in enumerate(sched.cycles):
        reads = " ".join(f"{a:5d}" for a in c.reads) or "-"
        writes = " ".join(f"{a:5d}" for a, _ in c.writes) or "-"
        lines.append(f"cycle {t:5d}  R: {reads:<23}  W: {writes}")
    return "\n".join(lines) + "\n"
