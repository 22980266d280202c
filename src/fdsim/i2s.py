"""Bit-exact timeline encoder/decoder for standard I2S, I2S TDM and TDM DSP
mode, with FSYNC generation, latency calculators, VCD export and
multi-channel WAV payload interchange.

Time base: one tick is half a BCLK period, so a bit slot spans two ticks.
Level arrays hold the line state during tick interval [t, t+1); the
driving side updates SD at slot starts, FSYNC half a slot earlier (on the
opposite clock edge), and the sampling side reads the level present just
before its own clock edge.  The half-slot FSYNC lead is what makes a
wrong-polarity decode come out shifted by one data bit against the frame
sync, and therefore detectable.
"""

from __future__ import annotations

import wave
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import NamedTuple

import numpy as np

LEAD_IN_SLOTS = 2  # idle bit slots before the first frame
MAX_DEVICES = 16
MAX_SAMPLE_RATE_HZ = 48000
FRAME_BITS_CHOICES = (16, 24, 32)
NO_DRIVER = -1
# _find_frame_start looks at the first 64 sampled slots, then 16x as many
FRAME_SEARCH_PREFIX = 64
FRAME_SEARCH_GROWTH = 16


class BusMode(Enum):
    STANDARD_I2S = "standard-i2s"
    TDM_I2S = "tdm-i2s"
    TDM_DSP = "tdm-dsp"


class Polarity(Enum):
    SAMPLE_ON_RISING = "sample-on-rising"
    SAMPLE_ON_FALLING = "sample-on-falling"


class Alignment(Enum):
    ALIGNED = "aligned"
    ONE_BIT_DELAY = "one-bit-delay"


class FsyncStyle(Enum):
    PULSE = "pulse"
    CHANNEL_LENGTH = "channel-length"


class FramingError(Exception):
    """Frame sync missing or frame truncated; carries any partial decode."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial if partial is not None else []


@dataclass(frozen=True)
class BusConfig:
    mode: BusMode
    n_devices: int = 1
    frame_bits: int = 32
    sample_rate: int = 48000
    clk_div: int = 1
    polarity: Polarity = Polarity.SAMPLE_ON_RISING
    alignment: Alignment = Alignment.ALIGNED
    fsync_style: FsyncStyle = FsyncStyle.PULSE

    def __post_init__(self):
        if not 1 <= self.n_devices <= MAX_DEVICES:
            raise ValueError(f"n_devices {self.n_devices} outside 1..{MAX_DEVICES}")
        if self.frame_bits not in FRAME_BITS_CHOICES:
            raise ValueError(f"frame_bits must be one of {FRAME_BITS_CHOICES}")
        if not 0 < self.sample_rate <= MAX_SAMPLE_RATE_HZ:
            raise ValueError(f"sample_rate {self.sample_rate} outside (0, 48000]")
        if self.clk_div < 1:
            raise ValueError("clk_div must be >= 1")
        if self.mode is BusMode.STANDARD_I2S and self.n_devices != 1:
            raise ValueError("standard I2S carries exactly one device")

    @property
    def channel_bits(self) -> int:
        return self.frame_bits // 2

    @property
    def frame_slots(self) -> int:
        """Bit slots per sample period."""
        return self.n_devices * self.frame_bits

    @property
    def data_delay(self) -> int:
        return 1 if self.alignment is Alignment.ONE_BIT_DELAY else 0

    @property
    def idle_fsync(self) -> int:
        # I2S-style framing idles high so the first frame begins on a
        # falling edge; DSP mode idles low and asserts a pulse.
        return 0 if self.mode is BusMode.TDM_DSP else 1


class FramePayload(NamedTuple):
    """One device's words in one period; only ``decode``'s list view uses it."""

    device: int
    left: int
    right: int


@dataclass
class Timeline:
    """Per-tick line levels: bclk, fsync, sd plus the driving device id."""

    bclk: np.ndarray
    fsync: np.ndarray
    sd: np.ndarray
    driver: np.ndarray

    @property
    def n_ticks(self) -> int:
        return len(self.bclk)

    def truncated(self, n_ticks: int) -> "Timeline":
        return Timeline(self.bclk[:n_ticks].copy(), self.fsync[:n_ticks].copy(),
                        self.sd[:n_ticks].copy(), self.driver[:n_ticks].copy())


def bclk_frequency(n_devices: int, frame_bits: int, sample_rate: float) -> float:
    """BCLK needed to move every device's frame each sample period."""
    if n_devices <= 0 or frame_bits <= 0 or sample_rate < 0:
        raise ValueError("n_devices and frame_bits must be positive, rate >= 0")
    return n_devices * frame_bits * sample_rate


def latency_tdm(n_bits: int, n_devices: int, tclk: float = 1.0) -> float:
    """Frame latency of a source on the TDM I2S bus: (n/2)*(K+1)*Tclk."""
    if n_bits % 2 or n_bits <= 0:
        raise ValueError("n_bits must be positive and even")
    if n_devices < 1:
        raise ValueError("need at least one device")
    return (n_bits // 2) * (n_devices + 1) * tclk

def latency_dsp(n_bits: int, tclk: float = 1.0) -> float:
    """DSP-mode frame latency: a fixed n_bits*Tclk, independent of K."""
    if n_bits <= 0:
        raise ValueError("n_bits must be positive")
    return n_bits * tclk


def frames_from_array(words: np.ndarray) -> list[list[FramePayload]]:
    """Per-period payload lists, of Python ints, from ``(periods, K, 2)``
    left/right words indexed by device."""
    periods, n_devices, _ = words.shape
    devices = np.broadcast_to(np.arange(n_devices)[:, None], (periods, n_devices, 1))
    rows = np.concatenate([devices, words], axis=-1).tolist()
    return [list(map(FramePayload._make, period)) for period in rows]


def timeline_ticks(config: BusConfig, periods: int) -> int:
    """Length of the timeline ``encode`` builds for ``periods`` periods."""
    return 2 * (LEAD_IN_SLOTS + config.data_delay + periods * config.frame_slots)


def _check_words(config: BusConfig, words: np.ndarray) -> None:
    """``words`` must be a ``(periods, K, 2)`` integer array of left/right
    words indexed by device, every word in ``[0, 2^channel_bits)``."""
    if words.ndim != 3 or words.shape[2] != 2:
        raise ValueError(f"payload words must be shaped (periods, n_devices, 2), "
                         f"got {words.shape}")
    if len(words) == 0:
        raise ValueError("need at least one sample period")
    if words.shape[1] != config.n_devices:
        raise ValueError("payload count must equal n_devices")
    if words.dtype.kind not in "iu":
        raise TypeError(f"payload fields must be integers, got {words.dtype}")
    k = config.channel_bits
    if words.min() < 0 or words.max() >= 1 << k:
        bad = ((words < 0) | (words >= 1 << k)).any(axis=-1)
        raise ValueError(f"device {np.nonzero(bad)[1][0]} payload exceeds {k} bits")


def _slot_words(config: BusConfig) -> tuple[np.ndarray, np.ndarray]:
    """(device, channel) of the word carried in each word slot of one sample
    period, channel 0 being left.  DSP mode sends each device's left then
    right word; TDM and standard I2S send every device's left word, then
    every right word."""
    slots = np.arange(2 * config.n_devices, dtype=np.int16)
    if config.mode is BusMode.TDM_DSP:
        return np.divmod(slots, 2)
    channel, device = np.divmod(slots, config.n_devices)
    return device, channel


def _fsync_period(config: BusConfig) -> np.ndarray:
    fs = np.zeros(config.frame_slots, dtype=np.int8)
    if config.mode is BusMode.TDM_DSP:
        width = 1 if config.fsync_style is FsyncStyle.PULSE else config.channel_bits
        fs[:width] = 1
    else:
        # frame-select: low across the left block, high across the right
        fs[config.n_devices * config.channel_bits:] = 1
    return fs


def encode(config: BusConfig, words: np.ndarray) -> Timeline:
    """Serialize ``(periods, K, 2)`` left/right words into a bit-exact timeline.

    ``words[p, d]`` is device ``d``'s (left, right) pair in sample period
    ``p``; ``_check_words`` states what is accepted, ``_slot_words`` the
    order the words go out in.  MSB first; SD changes on the driving edge;
    FSYNC per mode and style.
    """
    _check_words(config, words)
    device, channel = _slot_words(config)
    # the slot-ordered words as big-endian 16-bit words expand MSB first in
    # one flat unpackbits; each word keeps its low k bits
    k = config.channel_bits
    slots = words[:, device, channel].astype(">u2", order="C")
    bits = np.unpackbits(slots.view(np.uint8)).reshape(-1, 16)[:, 16 - k:]

    periods = len(words)
    first = 2 * (LEAD_IN_SLOTS + config.data_delay)
    data = slice(first, first + 2 * periods * config.frame_slots)
    n_ticks = timeline_ticks(config, periods)
    sd = np.zeros(n_ticks, dtype=np.int8)
    # every level is built per tick: a bit slot is two ticks, and bit b
    # times 257 is the 16-bit word of two bytes (b, b)
    sd[data] = np.multiply(bits, 257, dtype=np.uint16).view(np.int8).ravel()
    driver = np.full(n_ticks, NO_DRIVER, dtype=np.int16)
    driver[data].reshape(periods, -1)[:] = np.repeat(device, 2 * k)
    # FSYNC is driven on the opposite half-edge, half a slot (one tick) ahead
    # of SD; the last tick keeps its slot's level
    fsync = np.full(n_ticks, config.idle_fsync, dtype=np.int8)
    lead = 2 * LEAD_IN_SLOTS - 1
    fsync[lead:lead + 2 * periods * config.frame_slots].reshape(periods, -1)[:] = \
        np.repeat(_fsync_period(config), 2)
    fsync[-1] = fsync[-2]

    if config.polarity is Polarity.SAMPLE_ON_RISING:
        phases = np.array([0, 1], dtype=np.int8)    # drive low phase, rise mid-slot
    else:
        phases = np.array([1, 0], dtype=np.int8)
    return Timeline(np.tile(phases, n_ticks // 2), fsync, sd, driver)


def _sampled(timeline: Timeline, config: BusConfig):
    """Views of the line levels captured at each sampling edge (setup values).

    BCLK toggles every tick, so the level just before each sampling edge is
    every other tick, from tick 0 if BCLK sits at its sampled-edge level at
    tick 1 and from tick 1 if not (a wrong-polarity decode).
    """
    after_edge = 1 if config.polarity is Polarity.SAMPLE_ON_RISING else 0
    first = int(timeline.n_ticks > 1 and timeline.bclk[1] != after_edge)
    before_edge = slice(first, timeline.n_ticks - 1, 2)
    return (timeline.sd[before_edge], timeline.fsync[before_edge],
            timeline.driver[before_edge])


def _find_frame_start(fsync_bits: np.ndarray, config: BusConfig) -> int:
    """Index of the first sampled slot where FSYNC leaves its idle level.

    That is the first active slot after the first idle one.  A well-formed
    line rises a few slots in, so prefixes of growing length are searched
    rather than the whole line; a rise inside a prefix is the line's first.
    """
    length = FRAME_SEARCH_PREFIX
    while len(fsync_bits):
        active = fsync_bits[:length] != config.idle_fsync
        idle = int(active.argmin())
        # 0 when the prefix is all active or stays idle from its first idle slot
        rise = int(active[idle:].argmax())
        if rise:
            return idle + rise
        if length >= len(fsync_bits):
            break
        length *= FRAME_SEARCH_GROWTH
    raise FramingError("frame sync never asserted",
                       partial=np.zeros((0, config.n_devices, 2), dtype=np.int64))


def decode_words(timeline: Timeline, config: BusConfig) -> np.ndarray:
    """Recover the ``(periods, K, 2)`` words; exact inverse of ``encode``.

    Raises FramingError when FSYNC never appears or when the timeline
    ends inside a frame (the complete periods ride on ``.partial``, shaped
    ``(0, K, 2)`` when there are none).
    """
    sd_bits, fs_bits, _ = _sampled(timeline, config)
    # data of period p lives in slots [base + p*per, base + (p+1)*per)
    base = _find_frame_start(fs_bits, config) + config.data_delay
    k, K = config.channel_bits, config.n_devices
    per = config.frame_slots
    available = len(sd_bits) - base
    complete = max(available // per, 0)
    tail = available - complete * per

    # each word's k bits, left-padded to 16, pack MSB first in one flat
    # packbits into big-endian 16-bit words
    padded = np.zeros((complete * 2 * K, 16), dtype=np.uint8)
    padded[:, 16 - k:] = sd_bits[base:base + complete * per].reshape(-1, k)
    device, channel = _slot_words(config)
    words = np.empty((complete, K, 2), dtype=np.int64)
    words[:, device, channel] = np.packbits(padded).view(">u2").reshape(complete, 2 * K)
    if complete == 0:
        raise FramingError("timeline ends before one complete frame", partial=words)
    if tail > 0:
        raise FramingError(f"timeline truncated {tail} bits into a frame",
                           partial=words)
    return words


def decode(timeline: Timeline, config: BusConfig) -> list[list[FramePayload]]:
    """``decode_words`` as per-period ``FramePayload`` lists of Python ints;
    a FramingError passes through with its array ``.partial``."""
    return frames_from_array(decode_words(timeline, config))


def measure_latency(timeline: Timeline, config: BusConfig) -> int:
    """First-sample-complete latency in Tclk units, read off the timeline.

    Measured from the start of the first frame's data slots to the end of
    the slot in which device 0 finishes its frame (left and right).
    """
    _, fs_bits, drv_bits = _sampled(timeline, config)
    start = _find_frame_start(fs_bits, config)
    base = start + config.data_delay
    window = drv_bits[base:base + config.frame_slots]
    if len(window) < config.frame_slots:
        raise FramingError("timeline ends before the first frame completes")
    owned = np.nonzero(window == 0)[0]
    if len(owned) == 0:
        raise FramingError("device 0 never drives the line")
    return int(owned[-1]) + 1


# -- waveform / payload interchange ------------------------------------------


def _vcd_line(ident: str, width: int, value: int) -> str:
    if width == 1:
        return f"\n{value}{ident}"
    return f"\nb{value & 0xFF:08b} {ident}"


def write_vcd(timeline: Timeline, path) -> None:
    """Value-change dump of the timeline (1 tick = half BCLK = 1 time unit).

    Each signal is dumped at tick 0 and at every tick where it changes; a
    tick's changes follow its ``#tick`` stamp in signal order.
    """
    signals = [("bclk", 1, "b", timeline.bclk),
               ("fsync", 1, "f", timeline.fsync),
               ("sd", 1, "s", timeline.sd),
               ("driver", 8, "d", timeline.driver)]
    lines = ["$timescale 1ns $end", "$scope module audio_bus $end"]
    for name, width, ident, _ in signals:
        lines.append(f"$var wire {width} {ident} {name} $end")
    lines += ["$upscope $end", "$enddefinitions $end"]

    n_ticks = timeline.n_ticks
    ticks, texts = [], []
    for _, width, ident, levels in signals:
        at = np.flatnonzero(levels[1:] != levels[:-1]) + 1
        if n_ticks:
            at = np.concatenate(([0], at))
        values = np.unique(levels)
        text = np.array([_vcd_line(ident, width, v) for v in values.tolist()],
                        dtype=object)
        ticks.append(at)
        texts.append(text[np.searchsorted(values, levels[at])])
    # a stable sort by tick keeps signal order within a tick; each tick's
    # "#tick" stamp goes before its first change
    ticks = np.concatenate(ticks)
    order = np.argsort(ticks, kind="stable")
    ticks, texts = ticks[order], np.concatenate(texts)[order]
    first = np.flatnonzero(np.diff(ticks, prepend=-1))
    stamps = [f"\n#{tick}" for tick in ticks[first].tolist()]
    body = "".join(np.insert(texts, first, stamps).tolist())
    Path(path).write_text("\n".join(lines) + body + f"\n#{n_ticks}\n")


def payloads_to_wav(path, words: np.ndarray, config: BusConfig) -> None:
    """Standard multi-channel 16-bit WAV: channels dev0.L, dev0.R, dev1.L, ...

    Channel words narrower than 16 bits are stored sign-extended; the
    round trip back through ``wav_to_payloads`` is bit-exact.  ``words``
    is checked as ``encode`` checks it.
    """
    k = config.channel_bits
    K = config.n_devices
    _check_words(config, words)
    words = words.reshape(-1, 2 * K)
    sign = 1 << (k - 1)
    data = ((words ^ sign) - sign).astype("<i2")
    # wave.open(path) would leave a half-built writer that complains when
    # collected if the file cannot be opened
    with open(path, "wb") as f, wave.open(f, "wb") as w:
        w.setnchannels(2 * K)
        w.setsampwidth(2)
        w.setframerate(config.sample_rate)
        w.writeframes(data.tobytes())


def wav_to_payloads(path, config: BusConfig) -> np.ndarray:
    """The ``(periods, K, 2)`` words of a WAV that ``payloads_to_wav`` wrote."""
    k = config.channel_bits
    K = config.n_devices
    with wave.open(str(path), "rb") as w:
        if w.getnchannels() != 2 * K:
            raise ValueError(f"expected {2 * K} channels, file has {w.getnchannels()}")
        if w.getsampwidth() != 2:
            raise ValueError("expected 16-bit PCM")
        raw = np.frombuffer(w.readframes(w.getnframes()), dtype="<i2")
    return raw.astype(np.int64).reshape(-1, K, 2) & ((1 << k) - 1)
