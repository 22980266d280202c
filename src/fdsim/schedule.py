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


def _check_size(n_points: int, dtype: DataType) -> int:
    """log2 of ``n_points``, one of ``fft_sizes(dtype)``."""
    if n_points not in fft_sizes(dtype):
        raise ValueError(f"{n_points} points invalid for {dtype.name}")
    return n_points.bit_length() - 1


def _port_plan(reads, write_lag):
    """(cycles x 8) ports: each row of ``reads`` (read-stream words, 4
    ports) is read at its cycle and written back ``write_lag`` cycles later."""
    ports = np.full((len(reads) + write_lag, N_PORTS), IDLE, dtype=np.int32)
    ports[:len(reads), ~WRITE_COLUMN] = reads
    ports[write_lag:, WRITE_COLUMN] = reads
    return ports


@dataclass(frozen=True)
class StageSchedule:
    n_points: int
    dtype: DataType
    stage: int
    ports: np.ndarray          # (cycles x 8) word offsets, IDLE when unused
    butterflies: np.ndarray    # (n/2 x 4) rows (cycle, sample_a, sample_b, twiddle_exp)


def schedule_stage(n_points: int, dtype: DataType, stage: int) -> StageSchedule:
    """Built afresh on every call; the executor caches only its compiled
    arrays (``compile_stage``).

    Butterfly u pairs sample a = the u-th left-half sample of the blocks of
    2h with a + h, h being the half-span.  Wing-pair spans (h >= one group)
    read left and right wing groups alternately; a pair's butterflies split
    into two engine-rate batches on the two cycles after the right wing
    lands.  Smaller spans pack whole blocks per group and compute the cycle
    after the read.
    """
    m = _check_size(n_points, dtype)
    if not 0 <= stage < m:
        raise ValueError(f"stage {stage} invalid for {n_points} points")
    h = n_points >> (stage + 1)
    spg = 4 * 32 // (2 * dtype.part_width)        # samples per 4-word port group
    u = np.arange(n_points // 2)
    a = u // h * 2 * h + u % h
    exp = bit_reverse_index(a // (2 * h), stage) * h
    if h >= spg:
        block, group, wing = np.indices((n_points // (2 * h), h // spg, 2)).reshape(3, -1)
        first = block * 2 * h + group * spg + wing * h     # first sample of each read
        fly_at = u // spg * 2 + 2 + u % spg // THROUGHPUT[dtype]
    else:
        first = np.arange(0, n_points, spg)
        fly_at = a // spg + 1
    reads = (first * 4 // spg)[:, None] + np.arange(4)
    return StageSchedule(n_points, dtype, stage, _port_plan(reads, WRITE_LAG_STAGE),
                         np.stack([fly_at, a, a + h, exp], axis=1))


# -- final bit-reversed reorder ----------------------------------------------


@dataclass(frozen=True)
class ReorderSchedule:
    n_points: int
    dtype: DataType
    ports: np.ndarray          # (cycles x 8) word offsets, IDLE when unused
    strobes: np.ndarray        # (cycles x 4) byte strobe of each write port
    entries: np.ndarray        # (k x 2) rows (src sample, dst sample), whole permutation


def _unit(words, moves):
    """A swap unit: the words it reads and the sample moves it carries."""
    banks = {w % N_BANKS for w in words}
    return {"words": words, "moves": moves, "banks": banks,
            "self_conflicts": len(words) - len(banks)}


def _pick_unit(pending, occupied_banks):
    """Index of the pending unit with fewest bank collisions (stable)."""
    best_i = 0
    best_cost = None
    for i, unit in enumerate(pending):
        cost = unit["self_conflicts"] + len(unit["banks"] & occupied_banks)
        if best_cost is None or cost < best_cost:
            best_i, best_cost = i, cost
            if cost == 0:
                break
    return best_i


def _sample_swap_units(n_points, m, words_per_sample):
    i = np.arange(n_points)
    j = bit_reverse_index(i, m)
    i, j = i[i < j], j[i < j]
    words = (np.stack([i, j], axis=1)[..., None] * words_per_sample
             + np.arange(words_per_sample)).reshape(len(i), -1)
    return [_unit(tuple(w), ((a, b), (b, a)))
            for w, a, b in zip(words.tolist(), i.tolist(), j.tolist())]


def _word_pair_units(n_points, m):
    """C16 units: bit reversal maps word pair (s, s+q) onto (d, d+q)."""
    q = n_points // 4
    s = np.arange(q)
    d = bit_reverse_index(2 * s, m) >> 1
    # samples 2s and 2s+n/2+1 of a pair with d = s are palindromes; a
    # fix-up swaps 2s+1 <-> 2s+n/2
    f = s[d == s]
    fixups = [_unit((w, w + q), ((a, b), (b, a))) for w, a, b in
              zip(f.tolist(), (2 * f + 1).tolist(), (2 * f + n_points // 2).tolist())]
    s, d = s[s < d], d[s < d]
    half = n_points // 2
    samples = (2 * np.stack([s, d], axis=1)[..., None] + [0, 1, half, half + 1]).reshape(-1, 8)
    moves = np.stack([samples, bit_reverse_index(samples, m)], axis=2)
    pair_units = [_unit((a, b), tuple(map(tuple, mv)))
                  for a, b, mv in zip(s.tolist(), d.tolist(), moves.tolist())]
    return pair_units, fixups, q


def _greedy_slots(units, per_slot, lag):
    """Deterministic greedy grouping of units into slots of up to
    ``per_slot``: each pick keeps the slot's banks clear of those of the
    slot ``lag`` slots back, whose writes echo beside its reads."""
    slots, banks = [], [set()] * lag
    while units:
        occupied = set(banks[-lag])
        slot = []
        for _ in range(min(per_slot, len(units))):
            slot.append(units.pop(_pick_unit(units, occupied)))
            occupied |= slot[-1]["banks"]
        slots.append(slot)
        banks.append(set().union(*(u["banks"] for u in slot)))
    return slots


def _reorder_read_cycles(n_points, dtype):
    """Swap units grouped into read cycles: (cycles, entries), cycles as
    lists of (word, strobe) reads and entries as the units' moves."""
    m = n_points.bit_length() - 1
    if dtype is not DataType.C16:
        # one slot per cycle, as many swap units as fill the read ports
        per_sample = words_per_samples(dtype, 1)
        slots = _greedy_slots(_sample_swap_units(n_points, m, per_sample),
                              WRITE_PORTS.start // (2 * per_sample), WRITE_LAG_REORDER)
        read_cycles = [[(w, FULL_STROBE) for u in slot for w in u["words"]]
                       for slot in slots]
    else:
        # a slot reads its units' base words, then the words q above them
        pair_units, fixups, q = _word_pair_units(n_points, m)
        slots = _greedy_slots(pair_units, 2, WRITE_LAG_REORDER // 2)
        read_cycles = [[(w + offset, FULL_STROBE) for u in slot for w in u["words"]]
                       for slot in slots for offset in (0, q)]
        # fixups: half-word swaps, four per two cycles with staggered halves
        for i in range(0, len(fixups), 4):
            lo, hi = fixups[i:i + 2], fixups[i + 2:i + 4]
            read_cycles.append([(u["words"][0], HI_HALF_STROBE) for u in lo]
                               + [(u["words"][1], LO_HALF_STROBE) for u in hi])
            read_cycles.append([(u["words"][1], LO_HALF_STROBE) for u in lo]
                               + [(u["words"][0], HI_HALF_STROBE) for u in hi])
        slots.append(fixups)
    return read_cycles, [move for slot in slots for u in slot for move in u["moves"]]


def schedule_reorder(n_points: int, dtype: DataType) -> ReorderSchedule:
    """Built afresh on every call; the executor caches only its compiled
    arrays (``compile_reorder``).  Each read cycle's words are written back,
    with the strobes they were read with, ``WRITE_LAG_REORDER`` cycles later."""
    _check_size(n_points, dtype)
    read_cycles, entries = _reorder_read_cycles(n_points, dtype)
    reads = np.full((len(read_cycles), len(WRITE_PORTS), 2), (IDLE, 0), dtype=np.int32)
    for t, cycle in enumerate(read_cycles):
        reads[t, :len(cycle)] = cycle
    lag = WRITE_LAG_REORDER if read_cycles else 0
    strobes = np.zeros((len(reads) + lag, len(WRITE_PORTS)), dtype=np.int32)
    strobes[lag:] = reads[..., 1]
    return ReorderSchedule(n_points, dtype, _port_plan(reads[..., 0], lag), strobes,
                           np.array(entries, dtype=np.int32).reshape(-1, 2))


# -- compiled programs ----------------------------------------------------------


def _check(ok, message):
    if not ok:
        raise AssertionError(message)


def _streams(ports):
    """(cycle, word) of the read and the write stream, in port order."""
    reads, writes = ports[:, ~WRITE_COLUMN], ports[:, WRITE_COLUMN]
    r_cycle, r_port = np.nonzero(reads != IDLE)
    w_cycle, w_port = np.nonzero(writes != IDLE)
    return ((r_cycle, reads[r_cycle, r_port]),
            (w_cycle, writes[w_cycle, w_port]))


def _check_batchable(what, ports):
    """A phase may move its data in one batch only if no word is written
    twice and every word is read before it is written.
    Returns ``_streams(ports)``."""
    _check(ports.ndim == 2 and ports.shape[1] == N_PORTS,
           f"{what} needs more than the port budget")
    (r_cycle, r_word), (w_cycle, w_word) = _streams(ports)
    _check(np.bincount(w_word, minlength=1).max() <= 1, f"{what} writes a word twice")
    written_at = np.full(ports.max() + 1, np.iinfo(np.int32).max)
    written_at[w_word] = w_cycle
    _check(not (r_cycle == written_at[r_word]).any(),
           f"{what} reads and writes one word in one cycle")
    _check(not (r_cycle > written_at[r_word]).any(),
           f"{what} reads a word after writing it")
    return (r_cycle, r_word), (w_cycle, w_word)


def _stream_samples(cycles, words, dtype):
    """(sample index, cycle its last word moves) per sample a word stream
    carries, in unpack order."""
    per_word = 32 // dtype.part_width
    parts = (words[:, None] * per_word + np.arange(per_word)).ravel()
    cycles = np.repeat(cycles, per_word)
    re, im = parts[0::2], parts[1::2]
    _check(len(re) == len(im) and (re % 2 == 0).all() and (im == re + 1).all(),
           f"{dtype.name} words must come as (re, im) pairs")
    return re // 2, np.maximum(cycles[0::2], cycles[1::2])


def _is_permutation(values, n):
    return len(values) == n and np.array_equal(np.sort(values), np.arange(n))


def compile_stage(sched: StageSchedule) -> np.ndarray:
    """Stage plan -> the twiddle table index of each of its 2^s blocks.

    The executor runs stage s on the samples viewed as (blocks, 2, h): block
    c pairs sample c*2h + j with the one h above it, j < h, under twiddle
    exponent bit_reverse(c, s) * h.  This checks that the plan is in that
    block layout and that its data flow is realisable: every part used lies
    in a word read and a word written; each sample is read, used by one
    butterfly and written back in place (the k-th write stores the result
    of the k-th read) once, in that order; and no register set holds more
    than REGISTER_CAPACITY samples."""
    n, dtype, ports = sched.n_points, sched.dtype, sched.ports
    what = f"stage {sched.stage} of {n}-point {dtype.name}"
    (r_cycle, r_word), (w_cycle, w_word) = _check_batchable(what, ports)
    fly_at, a, b, exp = sched.butterflies.astype(np.int64).T
    h, u = n >> (sched.stage + 1), np.arange(n // 2)
    _check(np.array_equal(a, u // h * 2 * h + u % h) and np.array_equal(b, a + h),
           f"{what} has a butterfly outside the block layout")
    block_exp = bit_reverse_index(np.arange(n // (2 * h)), sched.stage) * h
    _check(np.array_equal(exp, np.repeat(block_exp, h)),
           f"{what} has a twiddle exponent other than bit_reverse(block) * h")
    parts = 2 * np.stack([a, a, b, b]) + np.array([[0], [1], [0], [1]])
    word = parts * dtype.part_width // 32
    _check(np.isin(word, r_word).all(), f"{what} gathers a part outside its read stream")
    _check(np.isin(word, w_word).all(), f"{what} scatters a part outside its write stream")
    samples, read_at = _stream_samples(r_cycle, r_word, dtype)
    _check(_is_permutation(samples, n), f"{what} does not read every sample once")
    written, written_at = _stream_samples(w_cycle, w_word, dtype)
    _check(np.array_equal(written, samples),
           f"{what} writes a butterfly output to a word other than its operand's")
    position = np.empty(n, dtype=np.int64)
    position[samples] = np.arange(n)

    a, b = position[a], position[b]
    _check(_is_permutation(np.concatenate([a, b]), n),
           f"{what} does not use every sample in one butterfly")
    _check((read_at[a] < fly_at).all() and (read_at[b] < fly_at).all(),
           f"{what} computes a butterfly before its operands are read")
    done_at = np.empty(n, dtype=np.int64)
    done_at[a] = done_at[b] = fly_at
    _check((done_at <= written_at).all(), f"{what} writes a sample before its butterfly")

    def per_cycle(at):
        return np.cumsum(np.bincount(at, minlength=len(ports)))

    held_in = per_cycle(read_at) - per_cycle(np.concatenate([fly_at, fly_at]))
    held_out = per_cycle(np.concatenate([fly_at, fly_at])) - per_cycle(written_at)
    capacity = REGISTER_CAPACITY[dtype]
    _check(held_in.max() <= capacity, f"{what}: input register overflow "
           f"{held_in.max()} > {capacity}")
    _check(held_out.max() <= capacity, f"{what}: output register overflow "
           f"{held_out.max()} > {capacity}")

    return block_exp * (dtype.max_points // n)     # the table serves all sizes


# the halves (lo, hi) of a word that each supported strobe writes
_STROBE_HALVES = {FULL_STROBE: (True, True), LO_HALF_STROBE: (True, False),
                  HI_HALF_STROBE: (False, True)}


def compile_reorder(sched: ReorderSchedule) -> tuple[np.ndarray, np.ndarray]:
    """Reorder plan -> (dst, src): half-word ``dst[k]`` of the sample array
    viewed as ``'<u2'`` takes the value half-word ``src[k]`` held before.
    The plan's moves, in half-words, fill exactly the strobed halves of the
    written words, each from a half-word an earlier read of this pass
    returned."""
    dtype, ports = sched.dtype, sched.ports
    what = f"reorder of {sched.n_points}-point {dtype.name}"
    (r_cycle, r_word), (w_cycle, w_word) = _check_batchable(what, ports)
    strobes = sched.strobes[ports[:, WRITE_COLUMN] != IDLE]
    unsupported = set(strobes.tolist()) - _STROBE_HALVES.keys()
    _check(not unsupported, f"{what}: unsupported strobe {min(unsupported, default=0):#x}")

    n_halves = 2 * (max(int(ports.max()), words_per_samples(dtype, sched.n_points)) + 1)
    per_sample = dtype.part_width // 8      # a sample's half-words are consecutive
    src, dst = (sched.entries.T[..., None] * per_sample
                + np.arange(per_sample)).reshape(2, -1)
    k, half = np.nonzero(np.array([_STROBE_HALVES[s] for s in strobes.tolist()],
                                  dtype=bool).reshape(-1, 2))
    written = 2 * w_word[k] + half
    _check(np.isin(dst, written).all(),
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
