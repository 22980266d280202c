import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdsim.i2s import (FRAME_SEARCH_GROWTH, FRAME_SEARCH_PREFIX, LEAD_IN_SLOTS,
                       Alignment, BusConfig, BusMode,
                       FramePayload, FramingError, FsyncStyle, Polarity,
                       bclk_frequency, decode, decode_words, encode,
                       frames_from_array, latency_dsp, latency_tdm,
                       measure_latency, payloads_to_wav, timeline_ticks,
                       wav_to_payloads, write_vcd)
from test_i2s_reference import truncated, words_from_frames


def random_frames(config, periods, seed=0):
    rng = np.random.default_rng(seed)
    k = config.channel_bits
    return [[FramePayload(d, int(rng.integers(0, 1 << k)),
                          int(rng.integers(0, 1 << k)))
             for d in range(config.n_devices)]
            for _ in range(periods)]


def encode_frames(config, frames):
    return encode(config, words_from_frames(config, frames))


def sampled_bits(timeline, config):
    from fdsim.i2s import _sampled
    return _sampled(timeline, config)


class TestConfig:
    def test_limits(self):
        with pytest.raises(ValueError):
            BusConfig(BusMode.TDM_DSP, n_devices=17)
        with pytest.raises(ValueError):
            BusConfig(BusMode.TDM_DSP, frame_bits=20)
        with pytest.raises(ValueError):
            BusConfig(BusMode.TDM_DSP, sample_rate=96000)
        with pytest.raises(ValueError):
            BusConfig(BusMode.STANDARD_I2S, n_devices=2)

    def test_payload_width_check(self):
        cfg = BusConfig(BusMode.TDM_DSP, 1, 16)  # 8-bit channels
        with pytest.raises(ValueError):
            words_from_frames(cfg, [[FramePayload(0, 256, 0)]])


class TestLatencyFormulas:
    def test_tdm_examples(self):
        assert latency_tdm(32, 4) == 80
        assert latency_tdm(32, 1) == 32
        assert latency_tdm(16, 16) == 136

    def test_dsp_examples(self):
        assert latency_dsp(32) == 32
        assert latency_dsp(16) == 16

    def test_dsp_has_no_k_term(self):
        assert len({latency_dsp(32) for _ in range(1, 17)}) == 1

    def test_tclk_scales(self):
        assert latency_tdm(32, 4, tclk=2.5) == 200.0
        assert latency_dsp(16, tclk=0.5) == 8.0

    def test_validation(self):
        with pytest.raises(ValueError):
            latency_tdm(15, 4)
        with pytest.raises(ValueError):
            latency_dsp(0)


class TestBclkLaw:
    def test_full_array_at_48k(self):
        assert bclk_frequency(16, 32, 48000) == 24_576_000

    def test_single_device(self):
        assert bclk_frequency(1, 32, 48000) == 1_536_000

    def test_zero_rate(self):
        assert bclk_frequency(4, 32, 0) == 0

    def test_rejects_nonpositive_shape(self):
        with pytest.raises(ValueError):
            bclk_frequency(0, 32, 48000)


class TestEncode:
    def test_standard_i2s_bit_pattern(self):
        # L=0x8000 -> MSB-first 1,0,...,0 with FSYNC low; R=0x0001 -> ...,1
        cfg = BusConfig(BusMode.STANDARD_I2S, 1, 32)
        tl = encode_frames(cfg, [[FramePayload(0, 0x8000, 0x0001)]])
        sd, fs, _ = sampled_bits(tl, cfg)
        start = LEAD_IN_SLOTS
        left = list(sd[start:start + 16])
        right = list(sd[start + 16:start + 32])
        assert left == [1] + [0] * 15
        assert right == [0] * 15 + [1]
        assert all(b == 0 for b in fs[start:start + 16])
        assert all(b == 1 for b in fs[start + 16:start + 32])

    def test_tdm_dsp_slot_structure(self):
        # K=4, n=32: FSYNC pulse then 128 data bits; device 2's MSB at slot 64
        cfg = BusConfig(BusMode.TDM_DSP, 4, 32)
        frames = [[FramePayload(d, 0x8000 if d == 2 else 0, 0)
                   for d in range(4)]]
        tl = encode_frames(cfg, frames)
        sd, fs, drv = sampled_bits(tl, cfg)
        start = LEAD_IN_SLOTS
        assert fs[start] == 1 and fs[start + 1] == 0   # one-BCLK pulse
        data = sd[start:start + 128]
        assert data[64] == 1
        assert sum(data) == 1
        assert list(drv[start:start + 128]) == [d for d in range(4)
                                                for _ in range(32)]

    def test_one_bit_delay_shifts_stream(self):
        cfg_a = BusConfig(BusMode.TDM_DSP, 2, 16)
        cfg_d = BusConfig(BusMode.TDM_DSP, 2, 16,
                          alignment=Alignment.ONE_BIT_DELAY)
        frames = random_frames(cfg_a, 2, seed=42)
        sd_a, _, _ = sampled_bits(encode_frames(cfg_a, frames), cfg_a)
        sd_d, _, _ = sampled_bits(encode_frames(cfg_d, frames), cfg_d)
        assert list(sd_d[1:len(sd_a)]) == list(sd_a[:-1])

    def test_fsync_channel_length(self):
        cfg = BusConfig(BusMode.TDM_DSP, 2, 32,
                        fsync_style=FsyncStyle.CHANNEL_LENGTH)
        tl = encode_frames(cfg, random_frames(cfg, 1))
        _, fs, _ = sampled_bits(tl, cfg)
        start = LEAD_IN_SLOTS
        assert all(b == 1 for b in fs[start:start + 16])
        assert fs[start + 16] == 0

    def test_fsync_periodicity(self):
        cfg = BusConfig(BusMode.TDM_DSP, 4, 16)
        periods = 5
        tl = encode_frames(cfg, random_frames(cfg, periods))
        _, fs, _ = sampled_bits(tl, cfg)
        rising = [i for i in range(1, len(fs))
                  if fs[i] == 1 and fs[i - 1] == 0]
        assert len(rising) == periods
        assert all(b - a == cfg.frame_slots
                   for a, b in zip(rising, rising[1:]))

    def test_slot_exclusivity(self):
        # driver id is a step function with exactly K steps per period
        cfg = BusConfig(BusMode.TDM_DSP, 8, 16)
        tl = encode_frames(cfg, random_frames(cfg, 2))
        _, _, drv = sampled_bits(tl, cfg)
        start = LEAD_IN_SLOTS
        period = drv[start:start + cfg.frame_slots]
        steps = [d for i, d in enumerate(period)
                 if i == 0 or d != period[i - 1]]
        assert steps == list(range(8))

    def test_payload_set_shape_enforced(self):
        cfg = BusConfig(BusMode.TDM_DSP, 2, 16)
        with pytest.raises(ValueError):
            words_from_frames(cfg, [[FramePayload(0, 1, 2)]])
        with pytest.raises(ValueError):
            words_from_frames(cfg, [[FramePayload(0, 1, 2), FramePayload(0, 3, 4)]])
        with pytest.raises(ValueError):
            words_from_frames(cfg, [])

    @pytest.mark.parametrize("period, message", [
        ([FramePayload(1, 1, 2)], "payload count"),
        ([FramePayload(1, 1, 2), FramePayload(1, 3, 4), FramePayload(0, 5, 6)],
         "payload count"),
        ([FramePayload(1, 1, 2), FramePayload(1, 3, 4)], "device ids"),
        ([FramePayload(0, 1, 2), FramePayload(2, 3, 4)], "device ids"),
        ([FramePayload(0, 1, 2), FramePayload(2 ** 70, 3, 4)], "device ids"),
        ([FramePayload(1, 1, 2), FramePayload(0, -1, 4)], "device 0 payload"),
        ([FramePayload(1, 1, 256), FramePayload(0, 3, 4)], "device 1 payload"),
        ([FramePayload(1, 1, 2), FramePayload(0, 2 ** 63, 4)], "device 0 payload"),
        ([FramePayload(1, 1, 2), FramePayload(0, 3, 2 ** 70)], "device 0 payload"),
        ([FramePayload(1, -2 ** 70, 2), FramePayload(0, 3, 4)], "device 1 payload"),
    ], ids=["short", "long", "duplicate", "id-past-K", "id-2^70", "minus-1",
            "2^k", "2^63", "2^70", "-2^70"])
    def test_bad_period_rejected(self, period, message):
        # the bad period follows a valid one
        cfg = BusConfig(BusMode.TDM_DSP, 2, 16)       # 8-bit channels
        good = [FramePayload(0, 0, 255), FramePayload(1, 255, 0)]
        with pytest.raises(ValueError, match=message):
            words_from_frames(cfg, [good, period])

    def test_non_integer_payload_rejected(self):
        cfg = BusConfig(BusMode.TDM_DSP, 1, 16)
        with pytest.raises(TypeError):
            words_from_frames(cfg, [[FramePayload(0, 1.5, 2)]])


class TestWordArray:
    """``encode``'s one check at the array boundary."""

    CFG = BusConfig(BusMode.TDM_DSP, 3, 16)       # 8-bit channels

    def words(self, periods=2, n_devices=3, dtype=np.int64):
        return np.arange(periods * n_devices * 2, dtype=dtype).reshape(
            periods, n_devices, 2)

    @pytest.mark.parametrize("shape, message", [
        ((6,), "shaped"), ((2, 3), "shaped"), ((2, 3, 2, 1), "shaped"),
        ((2, 3, 3), "shaped"), ((2, 3, 1), "shaped"),
        ((0, 3, 2), "at least one sample period"),
        ((2, 2, 2), "payload count"), ((2, 4, 2), "payload count"),
    ], ids=["1-d", "2-d", "4-d", "last-axis-3", "last-axis-1", "zero-periods",
            "K-1", "K+1"])
    def test_bad_shape_rejected(self, shape, message):
        with pytest.raises(ValueError, match=message):
            encode(self.CFG, np.zeros(shape, dtype=np.int64))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, bool, object])
    def test_non_integer_dtype_rejected(self, dtype):
        with pytest.raises(TypeError, match="payload fields must be integers"):
            encode(self.CFG, self.words().astype(dtype))

    @pytest.mark.parametrize("dtype, value, device", [
        (np.int64, -1, 1), (np.int64, 256, 2), (np.uint64, 2 ** 63, 0),
        (np.int8, -128, 1), (np.uint16, 256, 2),
    ], ids=["minus-1", "2^k", "uint64-2^63", "int8-min", "uint16-2^k"])
    def test_out_of_range_word_rejected(self, dtype, value, device):
        words = self.words(dtype=dtype)
        words[1, device, 1] = value
        with pytest.raises(ValueError, match=f"device {device} payload exceeds 8 bits"):
            encode(self.CFG, words)

    def test_first_bad_device_named(self):
        words = self.words()
        words[0, 2, 0] = 256
        words[1, 0, 1] = 256
        with pytest.raises(ValueError, match="device 2 payload"):
            encode(self.CFG, words)

    @pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.int32, np.uint64])
    def test_every_integer_dtype_gives_the_same_timeline(self, dtype):
        want = encode(self.CFG, self.words())
        got = encode(self.CFG, self.words(dtype=dtype))
        for name in ("bclk", "fsync", "sd", "driver"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name

    def test_words_at_the_rails_accepted(self):
        words = self.words()
        words[0] = 0
        words[1] = 255
        assert np.array_equal(decode_words(encode(self.CFG, words), self.CFG), words)


def grid_configs():
    for mode in BusMode:
        for K in ([1] if mode is BusMode.STANDARD_I2S else [1, 2, 4, 8, 16]):
            for n in (16, 24, 32):
                for pol in Polarity:
                    for align in Alignment:
                        styles = (list(FsyncStyle) if mode is BusMode.TDM_DSP
                                  else [FsyncStyle.PULSE])
                        for style in styles:
                            yield BusConfig(mode, K, n, polarity=pol,
                                            alignment=align, fsync_style=style)


class TestRoundTrip:
    def test_full_grid(self):
        for i, cfg in enumerate(grid_configs()):
            frames = random_frames(cfg, 2, seed=i)
            assert decode(encode_frames(cfg, frames), cfg) == frames

    def test_all_zero_sd(self):
        cfg = BusConfig(BusMode.TDM_DSP, 4, 16)
        zero = [[FramePayload(d, 0, 0) for d in range(4)]]
        assert decode(encode_frames(cfg, zero), cfg) == zero

    def test_wrong_polarity_detected(self):
        # a polarity-sensitive pattern: data shifts one bit against FSYNC
        cfg = BusConfig(BusMode.TDM_DSP, 2, 32,
                        polarity=Polarity.SAMPLE_ON_RISING)
        preamble = [[FramePayload(0, 0xA5A5, 0x0F0F),
                     FramePayload(1, 0x3C3C, 0xFFFF)]] * 2
        tl = encode_frames(cfg, preamble)
        wrong_cfg = BusConfig(BusMode.TDM_DSP, 2, 32,
                              polarity=Polarity.SAMPLE_ON_FALLING)
        try:
            got = decode(tl, wrong_cfg)
        except FramingError:
            got = None
        assert got != preamble


    def test_word_arrays_round_trip(self):
        for i, cfg in enumerate(grid_configs()):
            words = words_from_frames(cfg, random_frames(cfg, 3, seed=i))
            tl = encode(cfg, words)
            assert tl.n_ticks == timeline_ticks(cfg, 3)
            decoded = decode_words(tl, cfg)
            assert decoded.dtype == np.int64 and np.array_equal(decoded, words)


class TestDecodeErrors:
    @pytest.mark.parametrize("cut", [0, 1, 5, 40, 67])
    def test_partial_before_one_frame_is_empty_words(self, cut):
        # 2 devices x 16 bits: 4 lead-in ticks, then 64 ticks a frame
        cfg = BusConfig(BusMode.TDM_DSP, 2, 16)
        tl = truncated(encode_frames(cfg, random_frames(cfg, 2)), cut)
        with pytest.raises(FramingError) as err:
            decode_words(tl, cfg)
        assert err.value.partial.shape == (0, 2, 2)

    def test_truncated_words_partial(self):
        cfg = BusConfig(BusMode.TDM_I2S, 3, 24)
        words = words_from_frames(cfg, random_frames(cfg, 3, seed=4))
        tl = encode(cfg, words)
        with pytest.raises(FramingError, match="truncated") as err:
            decode_words(truncated(tl, tl.n_ticks - 2), cfg)
        assert np.array_equal(err.value.partial, words[:2])

    def test_no_fsync(self):
        cfg = BusConfig(BusMode.TDM_DSP, 2, 16)
        tl = encode_frames(cfg, random_frames(cfg, 1))
        tl.fsync[:] = 0
        with pytest.raises(FramingError):
            decode(tl, cfg)

    def test_truncated_with_partials(self):
        cfg = BusConfig(BusMode.TDM_DSP, 2, 16)
        frames = random_frames(cfg, 3, seed=9)
        tl = encode_frames(cfg, frames)
        cut = truncated(tl, tl.n_ticks - cfg.frame_slots)  # lose half a frame
        with pytest.raises(FramingError) as err:
            decode(cut, cfg)
        assert frames_from_array(err.value.partial) == frames[:2]


MAX_LINE = 5000
# the prefix lengths _find_frame_start searches below MAX_LINE
SEARCH_BOUNDARIES = [FRAME_SEARCH_PREFIX * FRAME_SEARCH_GROWTH ** j for j in range(2)]
assert SEARCH_BOUNDARIES[-1] < MAX_LINE < SEARCH_BOUNDARIES[-1] * FRAME_SEARCH_GROWTH


def whole_line_frame_start(fsync_bits, idle):
    """The first rise from idle to active over the whole line, or None."""
    active = fsync_bits != idle
    starts = active[1:] > active[:-1]
    return int(starts.argmax()) + 1 if starts.any() else None


@st.composite
def fsync_lines(draw):
    """(line, idle level): empty, all idle, all active, a rise at or one slot
    either side of a search boundary (optionally active from slot 0), or
    random runs of idle and active slots."""
    idle = draw(st.integers(0, 1))
    shape = draw(st.sampled_from(["empty", "all-idle", "all-active", "boundary", "runs"]))
    n = draw(st.integers(1, MAX_LINE))
    if shape == "empty":
        active = np.zeros(0, dtype=bool)
    elif shape in ("all-idle", "all-active"):
        active = np.full(n, shape == "all-active")
    elif shape == "boundary":
        rise = draw(st.sampled_from([b + d for b in SEARCH_BOUNDARIES for d in (-1, 0, 1)]))
        active = np.zeros(draw(st.integers(rise + 1, MAX_LINE)), dtype=bool)
        active[:draw(st.integers(0, rise - 1))] = True    # active from slot 0
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        active[rise:] = rng.integers(0, 2, len(active) - rise)
        active[rise] = True
    else:
        runs = draw(st.lists(st.integers(1, 2000), max_size=6))
        active = np.repeat(np.arange(len(runs)) % 2 == draw(st.integers(0, 1)),
                           runs)[:MAX_LINE]
    line = np.where(active, 1 - idle, idle).astype(np.int8)
    # the decoder sees every other tick of the FSYNC line
    return (np.repeat(line, 2)[::2] if draw(st.booleans()) else line), idle


class TestFrameStart:
    @settings(max_examples=300, deadline=None)
    @given(fsync_lines())
    def test_prefix_search_matches_whole_line(self, case):
        from fdsim.i2s import _find_frame_start
        line, idle = case
        cfg = BusConfig(BusMode.TDM_DSP if idle == 0 else BusMode.TDM_I2S, 3, 16)
        assert cfg.idle_fsync == idle
        expected = whole_line_frame_start(line, idle)
        if expected is None:
            with pytest.raises(FramingError, match="frame sync never asserted") as err:
                _find_frame_start(line, cfg)
            assert err.value.partial.shape == (0, 3, 2)
            assert err.value.partial.dtype == np.int64
        else:
            assert _find_frame_start(line, cfg) == expected


class TestMeasureLatency:
    @pytest.mark.parametrize("mode", [BusMode.TDM_I2S, BusMode.TDM_DSP])
    def test_matches_formulas(self, mode):
        for K in (1, 2, 4, 8, 16):
            for n in (16, 24, 32):
                cfg = BusConfig(mode, K, n)
                tl = encode_frames(cfg, random_frames(cfg, 2, seed=K * n))
                measured = measure_latency(tl, cfg)
                want = (latency_dsp(n) if mode is BusMode.TDM_DSP
                        else latency_tdm(n, K))
                assert measured == want

    def test_k4_examples(self):
        cfg = BusConfig(BusMode.TDM_I2S, 4, 32)
        assert measure_latency(encode_frames(cfg, random_frames(cfg, 1)), cfg) == 80
        cfg = BusConfig(BusMode.TDM_DSP, 4, 32)
        assert measure_latency(encode_frames(cfg, random_frames(cfg, 1)), cfg) == 32

    def test_incomplete_timeline(self):
        cfg = BusConfig(BusMode.TDM_I2S, 4, 32)
        tl = encode_frames(cfg, random_frames(cfg, 1))
        with pytest.raises(FramingError):
            measure_latency(truncated(tl, cfg.frame_slots), cfg)


class TestWaveformExport:
    def test_vcd_structure(self, tmp_path):
        cfg = BusConfig(BusMode.STANDARD_I2S, 1, 16)
        tl = encode_frames(cfg, random_frames(cfg, 1, seed=3))
        path = tmp_path / "dump.vcd"
        write_vcd(tl, path)
        text = path.read_text()
        assert text.startswith("$timescale")
        assert "$var wire 1 b bclk $end" in text
        assert "#0" in text
        # bclk toggles every tick: final timestamp equals the tick count
        assert f"#{tl.n_ticks}" in text

    @pytest.mark.parametrize("n", [16, 24, 32])
    def test_wav_round_trip(self, tmp_path, n):
        cfg = BusConfig(BusMode.TDM_DSP, 4, n)
        frames = random_frames(cfg, 10, seed=n)
        path = tmp_path / "mics.wav"
        payloads_to_wav(path, words_from_frames(cfg, frames), cfg)
        assert frames_from_array(wav_to_payloads(path, cfg)) == frames
