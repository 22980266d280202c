"""The array codec against the per-bit, per-tick loops it replaced.

``ref_*`` are the scalar encoder, decoder, edge sampler, VCD writer and WAV
writer, kept as the reference that ``fdsim.i2s`` must match exactly.  They
take and give per-period ``FramePayload`` lists; ``words_from_frames``
turns such a list into the codec's ``(periods, K, 2)`` word array.
"""

import dataclasses
import json
import wave
from itertools import chain
from numbers import Integral

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdsim.i2s import (FRAME_BITS_CHOICES, LEAD_IN_SLOTS, NO_DRIVER, Alignment,
                       BusConfig, BusMode, FramePayload, FramingError,
                       FsyncStyle, Polarity, Timeline, _sampled, decode,
                       decode_words, encode, frames_from_array,
                       payloads_to_wav, write_vcd)


def words_from_frames(config, frames) -> np.ndarray:
    """Checked ``(periods, K, 2)`` int64 left/right words, indexed by device,
    from per-period payload lists.

    Each period must hold one payload per device id 0..K-1, in any order,
    and every word must fit in ``channel_bits``.
    """
    if not frames:
        raise ValueError("need at least one sample period")
    K = config.n_devices
    if any(len(period) != K for period in frames):
        raise ValueError("payload count must equal n_devices")
    fields = list(chain.from_iterable(chain.from_iterable(frames)))
    if not all(issubclass(t, Integral) for t in set(map(type, fields))):
        raise TypeError("payload fields must be integers")
    try:
        table = np.array(fields, dtype=np.int64)
    except OverflowError:
        # ints past int64 stay exact here only to be rejected below
        table = np.array(fields, dtype=object)
    table = table.reshape(len(frames), K, 3)
    devices = table[..., 0]
    if not (np.sort(devices, axis=1) == np.arange(K)).all():
        raise ValueError("payload device ids must be 0..K-1")
    k = config.channel_bits
    words = table[..., 1:]
    bad = ((words < 0) | (words >= 1 << k)).any(axis=-1)
    if bad.any():
        raise ValueError(f"device {devices[bad][0]} payload exceeds {k} bits")
    order = np.argsort(devices, axis=1)
    return np.take_along_axis(words, order[..., None], axis=1)


def truncated(timeline, n_ticks):
    """The first ``n_ticks`` ticks of ``timeline``, as a copy."""
    return Timeline(timeline.bclk[:n_ticks].copy(), timeline.fsync[:n_ticks].copy(),
                    timeline.sd[:n_ticks].copy(), timeline.driver[:n_ticks].copy())


def listed_decode(timeline, config):
    """``decode_words`` with its words, and any ``.partial``, as payload lists."""
    try:
        return frames_from_array(decode_words(timeline, config))
    except FramingError as e:
        raise FramingError(str(e), partial=frames_from_array(e.partial)) from None


def ref_slot_layout(config, payloads):
    """Per-slot (sd, driver) for one sample period, before the data delay."""
    n, k, K = config.frame_bits, config.channel_bits, config.n_devices
    sd = np.zeros(config.frame_slots, dtype=np.int8)
    drv = np.full(config.frame_slots, NO_DRIVER, dtype=np.int16)
    by_dev = {p.device: p for p in payloads}
    for d in range(K):
        p = by_dev[d]
        if config.mode is BusMode.TDM_DSP:
            base = d * n
            for j in range(k):
                sd[base + j] = (p.left >> (k - 1 - j)) & 1
                sd[base + k + j] = (p.right >> (k - 1 - j)) & 1
            drv[base:base + n] = d
        else:
            lbase = d * k
            rbase = K * k + d * k
            for j in range(k):
                sd[lbase + j] = (p.left >> (k - 1 - j)) & 1
                sd[rbase + j] = (p.right >> (k - 1 - j)) & 1
            drv[lbase:lbase + k] = d
            drv[rbase:rbase + k] = d
    return sd, drv


def ref_fsync_period(config):
    fs = np.zeros(config.frame_slots, dtype=np.int8)
    if config.mode is BusMode.TDM_DSP:
        width = 1 if config.fsync_style is FsyncStyle.PULSE else config.channel_bits
        fs[:width] = 1
    else:
        fs[config.n_devices * config.channel_bits:] = 1
    return fs


def ref_encode(config, frames):
    delay = config.data_delay
    total_slots = LEAD_IN_SLOTS + len(frames) * config.frame_slots + delay
    sd = np.zeros(total_slots, dtype=np.int8)
    fsync = np.full(total_slots, config.idle_fsync, dtype=np.int8)
    driver = np.full(total_slots, NO_DRIVER, dtype=np.int16)
    for p, period in enumerate(frames):
        start = LEAD_IN_SLOTS + p * config.frame_slots
        fsync[start:start + config.frame_slots] = ref_fsync_period(config)
        slot_sd, slot_drv = ref_slot_layout(config, period)
        sd[start + delay:start + delay + config.frame_slots] = slot_sd
        driver[start + delay:start + delay + config.frame_slots] = slot_drv
    ticks = np.arange(2 * total_slots)
    if config.polarity is Polarity.SAMPLE_ON_RISING:
        bclk = (ticks % 2).astype(np.int8)
    else:
        bclk = ((ticks + 1) % 2).astype(np.int8)
    fsync_ticks = np.repeat(fsync, 2)
    fsync_ticks = np.append(fsync_ticks[1:], fsync_ticks[-1])
    return Timeline(bclk, fsync_ticks, np.repeat(sd, 2), np.repeat(driver, 2))


def ref_sampled(timeline, config):
    level_after = 1 if config.polarity is Polarity.SAMPLE_ON_RISING else 0
    b = timeline.bclk
    edges = np.nonzero(b[1:] != b[:-1])[0] + 1
    edges = edges[b[edges] == level_after]
    edges = edges[edges >= 1]
    return (timeline.sd[edges - 1], timeline.fsync[edges - 1],
            timeline.driver[edges - 1])


def ref_find_frame_start(fsync_bits, config):
    if config.mode is BusMode.TDM_DSP:
        hits = np.nonzero((fsync_bits[1:] == 1) & (fsync_bits[:-1] == 0))[0] + 1
    else:
        hits = np.nonzero((fsync_bits[1:] == 0) & (fsync_bits[:-1] == 1))[0] + 1
    if len(hits) == 0:
        raise FramingError("frame sync never asserted")
    return int(hits[0])


def ref_bits_to_int(bits):
    value = 0
    for b in bits:
        value = (value << 1) | int(b)
    return value


def ref_decode(timeline, config):
    sd_bits, fs_bits, _ = ref_sampled(timeline, config)
    start = ref_find_frame_start(fs_bits, config)
    n, k, K = config.frame_bits, config.channel_bits, config.n_devices
    delay = config.data_delay
    per = config.frame_slots
    available = len(sd_bits) - start - delay
    complete = max(available // per, 0)
    tail = available - complete * per
    periods = []
    for p in range(complete):
        base = start + delay + p * per
        window = sd_bits[base:base + per]
        payloads = []
        for d in range(K):
            if config.mode is BusMode.TDM_DSP:
                left = ref_bits_to_int(window[d * n:d * n + k])
                right = ref_bits_to_int(window[d * n + k:d * n + n])
            else:
                left = ref_bits_to_int(window[d * k:(d + 1) * k])
                right = ref_bits_to_int(window[K * k + d * k:K * k + (d + 1) * k])
            payloads.append(FramePayload(d, left, right))
        periods.append(payloads)
    if complete == 0:
        raise FramingError("timeline ends before one complete frame", partial=[])
    if tail > 0:
        raise FramingError(f"timeline truncated {tail} bits into a frame",
                           partial=periods)
    return periods


def ref_write_vcd(timeline, path):
    signals = [("bclk", 1, "b", timeline.bclk),
               ("fsync", 1, "f", timeline.fsync),
               ("sd", 1, "s", timeline.sd),
               ("driver", 8, "d", timeline.driver)]
    lines = ["$timescale 1ns $end", "$scope module audio_bus $end"]
    for name, width, ident, _ in signals:
        lines.append(f"$var wire {width} {ident} {name} $end")
    lines += ["$upscope $end", "$enddefinitions $end"]

    def fmt(ident, width, value):
        if width == 1:
            return f"{int(value)}{ident}"
        return f"b{int(value) & 0xFF:08b} {ident}"

    last = {}
    for t in range(timeline.n_ticks):
        changes = []
        for name, width, ident, arr in signals:
            v = int(arr[t])
            if last.get(ident) != v:
                changes.append(fmt(ident, width, v))
                last[ident] = v
        if changes or t == 0:
            lines.append(f"#{t}")
            lines.extend(changes)
    lines.append(f"#{timeline.n_ticks}")
    path.write_text("\n".join(lines) + "\n")


def ref_wav_data(frames, config):
    """The int16 sample matrix ``payloads_to_wav`` writes, one payload at a time."""
    k = config.channel_bits
    data = np.zeros((len(frames), 2 * config.n_devices), dtype=np.int16)
    for p, period in enumerate(frames):
        for payload in period:
            for c, value in enumerate((payload.left, payload.right)):
                value &= (1 << k) - 1
                if value & (1 << (k - 1)):
                    value -= 1 << k
                data[p, 2 * payload.device + c] = value
    return data


def decode_outcome(decoder, timeline, config):
    """(payloads, None) on success, (partial, message) on a FramingError."""
    try:
        return decoder(timeline, config), None
    except FramingError as e:
        return e.partial, str(e)


@st.composite
def scenarios(draw):
    mode = draw(st.sampled_from(BusMode))
    K = 1 if mode is BusMode.STANDARD_I2S else draw(st.integers(1, 16))
    config = BusConfig(mode, K, draw(st.sampled_from(FRAME_BITS_CHOICES)),
                       polarity=draw(st.sampled_from(Polarity)),
                       alignment=draw(st.sampled_from(Alignment)),
                       fsync_style=draw(st.sampled_from(FsyncStyle)))
    top = (1 << config.channel_bits) - 1
    word = st.one_of(st.just(0), st.just(top), st.integers(0, top))
    frames = []
    for _ in range(draw(st.integers(1, 4))):
        order = draw(st.permutations(range(K)))
        frames.append([FramePayload(d, draw(word), draw(word)) for d in order])
    return config, frames


class TestAgainstReference:
    @settings(max_examples=60, deadline=None)
    @given(scenarios())
    def test_encode_levels(self, scenario):
        config, frames = scenario
        got = encode(config, words_from_frames(config, frames))
        want = ref_encode(config, frames)
        for name in ("bclk", "fsync", "sd", "driver"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype, name
            assert np.array_equal(a, b), name

    @settings(max_examples=60, deadline=None)
    @given(scenarios(), st.data())
    def test_decode_and_truncation(self, scenario, data):
        config, frames = scenario
        timeline = encode(config, words_from_frames(config, frames))
        decoded = decode(timeline, config)
        assert decoded == ref_decode(timeline, config)
        assert decoded == [sorted(period) for period in frames]
        assert all(type(p) is FramePayload and all(type(v) is int for v in p)
                   for period in decoded for p in period)
        json.dumps(decoded)
        cut = truncated(timeline, data.draw(st.integers(0, timeline.n_ticks)))
        # the opposite polarity samples the other edge: odd ticks
        for polarity in Polarity:
            sampler = dataclasses.replace(config, polarity=polarity)
            for got, want, line in zip(_sampled(cut, sampler), ref_sampled(cut, sampler),
                                       (cut.sd, cut.fsync, cut.driver)):
                assert got.dtype == want.dtype and np.array_equal(got, want)
                assert np.shares_memory(got, line) or not got.size
        assert (decode_outcome(listed_decode, cut, config)
                == decode_outcome(ref_decode, cut, config))

    @pytest.mark.parametrize("mode, K, frame_bits, periods", [
        *[pytest.param(mode, 1 if mode is BusMode.STANDARD_I2S else 3, 24, 2, id=str(mode))
          for mode in BusMode],
        # the benchmark's bus: driver ids up to 15, and several signals
        # changing on one tick
        *[pytest.param(mode, 16, 32, 3, id=f"16x32-{mode}")
          for mode in (BusMode.TDM_I2S, BusMode.TDM_DSP)]])
    @pytest.mark.parametrize("cut", [None, 0, 1, 101])
    def test_vcd_bytes(self, tmp_path, mode, K, frame_bits, periods, cut):
        config = BusConfig(mode, K, frame_bits, alignment=Alignment.ONE_BIT_DELAY)
        timeline = encode(config, words_from_frames(
            config, [[FramePayload(d, 0xA5 ^ d, 0x3C + p) for d in range(K)]
                     for p in range(periods)]))
        if cut is not None:
            timeline = truncated(timeline, cut)
        write_vcd(timeline, tmp_path / "got.vcd")
        ref_write_vcd(timeline, tmp_path / "want.vcd")
        assert (tmp_path / "got.vcd").read_bytes() == (tmp_path / "want.vcd").read_bytes()

    @settings(max_examples=20, deadline=None)
    @given(scenarios())
    def test_wav_samples(self, tmp_path_factory, scenario):
        config, frames = scenario
        path = tmp_path_factory.mktemp("wav") / "payloads.wav"
        payloads_to_wav(path, words_from_frames(config, frames), config)
        with wave.open(str(path), "rb") as w:
            got = np.frombuffer(w.readframes(w.getnframes()), dtype="<i2")
        assert np.array_equal(got, ref_wav_data(frames, config).ravel())
