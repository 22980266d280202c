"""The plan validator: the proof that each compiled program is realisable.

``compile_stage`` and ``compile_reorder`` take the plans ``fdsim.schedule``
builds and return what ``fdsim.fft._program`` computes directly from them:
a stage's block twiddles and the reorder's half-word route.  On the way
they prove, per phase, that moving its data in one batch moves only what
the ports carry, as moving it cycle by cycle would; a plan that breaks that
raises ``AssertionError`` naming its phase.  ``tests/test_validator.py``
runs them over all 24 programs and requires ``_program``'s arrays to equal
theirs.
"""

import numpy as np

from fdsim.membank import (FULL_STROBE, HI_HALF_STROBE, IDLE, LO_HALF_STROBE,
                           N_PORTS, WRITE_COLUMN, WRITE_PORTS, words_per_samples)
from fdsim.schedule import (REGISTER_CAPACITY, ReorderSchedule, StageSchedule,
                            bit_reversal)


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
    twiddle = bit_reversal(n.bit_length() - 2)     # bit_reverse(c, s) * h, any s
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
