import copy
import dataclasses
import hashlib
import json
import math
import tracemalloc
import wave
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import fdsim.cli as cli
import fdsim.harness as harness
from fdsim.fft import ConfigurationError, FftJob
from fdsim.fixedpoint import DataType
from fdsim.harness import (FftRunSpec, FftSweepSpec, I2sRunSpec, I2sSweepSpec,
                           InputSpec, PayloadSpec, Report, build_fft_input,
                           build_payloads, load_config, ops_count, parse_config,
                           run_fft_experiment, run_fft_sweep, run_i2s_scenario,
                           run_i2s_sweep)
from fdsim.i2s import BusConfig, BusMode, frames_from_array, timeline_ticks


def fft_config(**over):
    fft = {"n_points": 64, "dtype": "C32",
           "input": {"source": "noise", "amplitude": 0.9}}
    fft.update(over)
    return {"version": 1, "kind": "fft-run", "seed": 7, "fft": fft}


def i2s_config(**over):
    i2s = {"mode": "tdm-i2s", "n_devices": 2}
    i2s.update(over)
    return {"version": 1, "kind": "i2s-run", "seed": 7, "i2s": i2s}


class TestConfigParsing:
    def test_fft_run(self):
        cfg = parse_config(fft_config())
        assert cfg.kind == "fft-run"
        assert cfg.seed == 7
        assert cfg.spec.job.dtype is DataType.C32

    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            parse_config({"version": 1, "kind": "mystery"})

    def test_bad_version(self):
        with pytest.raises(ConfigurationError):
            parse_config({"version": 2, "kind": "fft-run", "fft": {}})

    def test_missing_required(self):
        with pytest.raises(ConfigurationError):
            parse_config({"version": 1, "kind": "fft-run", "fft": {"dtype": "C64"}})

    def test_bad_input_source(self):
        with pytest.raises(ConfigurationError):
            parse_config(fft_config(input={"source": "sine"}))

    def test_i2s_run(self):
        cfg = parse_config({"version": 1, "kind": "i2s-run", "seed": 1,
                            "i2s": {"mode": "tdm-dsp", "n_devices": 4}})
        assert cfg.spec.bus.mode is BusMode.TDM_DSP

    def test_i2s_bad_mode(self):
        with pytest.raises(ConfigurationError):
            parse_config({"version": 1, "kind": "i2s-run",
                          "i2s": {"mode": "spdif"}})

    def test_load_config_missing_file(self):
        with pytest.raises(ConfigurationError):
            load_config("/nonexistent/cfg.json")

    def test_load_config_bad_json(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text("{nope")
        with pytest.raises(ConfigurationError):
            load_config(p)


# one valid config per kind, every optional key spelled out
VALID_CONFIGS = [
    fft_config(base_address=0, scaling="none", clock_hz=1e8, dump_memory_image=False,
               input={"source": "tone", "amplitude": 0.5, "bin": 3,
                      "path": "no-such-input.wav"}),
    {"version": 1, "kind": "fft-sweep", "seed": 1,
     "sweep": {"dtypes": ["C64"], "n_points": [8, 16]},
     "fft": {"clock_hz": 1e8, "input": {"source": "impulse", "amplitude": 0.5,
                                        "bin": 3, "path": "no-such-input.wav"}}},
    {"version": 1, "kind": "i2s-run", "seed": 2,
     "i2s": {"mode": "tdm-i2s", "n_devices": 4, "frame_bits": 32,
             "sample_rate": 48000, "clk_div": 1, "polarity": "sample-on-rising",
             "alignment": "aligned", "fsync_style": "pulse",
             "periods": 2, "payload": {"source": "random", "path": "no-such-payload.wav",
                                       "export_wav": False}}},
    {"version": 1, "kind": "i2s-sweep", "seed": 3,
     "sweep": {"modes": ["tdm-dsp"], "n_devices": [1, 2], "frame_bits": [16]},
     "i2s": {"sample_rate": 48000, "periods": 2}},
]


def _key_paths(doc, prefix=()):
    for key, value in doc.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _key_paths(value, prefix + (key,))


# each kind's sections: (key path, the harness tables that read it)
SCHEMA = {
    "fft-run": {("fft",): (harness.JOB_KEYS, harness.FFT_RUN_KEYS),
                ("fft", "input"): (harness.INPUT_KEYS,)},
    "fft-sweep": {("sweep",): (harness.FFT_AXES,), ("fft",): (harness.FFT_SWEEP_KEYS,),
                  ("fft", "input"): (harness.INPUT_KEYS,)},
    "i2s-run": {("i2s",): (harness.BUS_KEYS, harness.I2S_RUN_KEYS),
                ("i2s", "payload"): (harness.PAYLOAD_KEYS,)},
    "i2s-sweep": {("sweep",): (harness.I2S_AXES,), ("i2s",): (harness.I2S_SWEEP_KEYS,)},
}


def _json_values(numbers):
    return st.recursive(
        st.none() | st.booleans() | numbers | st.text(max_size=8),
        lambda inner: (st.lists(inner, max_size=3)
                       | st.dictionaries(st.text(max_size=5), inner, max_size=3)),
        max_leaves=6)


JSON_VALUES = _json_values(st.integers() | st.floats())
# numbers small enough that no drawn periods or size asks for a huge allocation
SMALL_JSON_VALUES = _json_values(
    st.integers(-1024, 1024) | st.floats(-1024, 1024)
    | st.sampled_from([math.nan, math.inf, -math.inf]))
ONE_KEY_OF_A_VALID_CONFIG = st.sampled_from(VALID_CONFIGS).flatmap(
    lambda doc: st.tuples(st.just(doc), st.sampled_from(list(_key_paths(doc)))))


def _with_key_replaced(case, value) -> dict:
    doc, path = case
    doc = copy.deepcopy(doc)
    *outer, key = path
    target = doc
    for part in outer:
        target = target[part]
    target[key] = value
    return doc


class TestConfigRobustness:
    @pytest.mark.parametrize("doc", VALID_CONFIGS, ids=lambda d: d["kind"])
    def test_valid_configs_parse(self, doc):
        assert parse_config(doc).kind == doc["kind"]

    def test_valid_configs_spell_out_every_key(self):
        # the key-replacement properties below fuzz only the keys spelled out here
        assert set(SCHEMA) == set(harness.KINDS) == {doc["kind"] for doc in VALID_CONFIGS}
        for doc in VALID_CONFIGS:
            schema = {("version",), ("kind",), ("seed",)}
            for section, tables in SCHEMA[doc["kind"]].items():
                schema |= {section} | {section + (key,) for t in tables for key in t}
            assert schema <= set(_key_paths(doc)), doc["kind"]

    @given(ONE_KEY_OF_A_VALID_CONFIG, JSON_VALUES)
    @settings(max_examples=80)
    def test_any_one_key_replaced_parses_or_is_a_config_error(self, case, value):
        try:
            parse_config(_with_key_replaced(case, value))
        except ConfigurationError:
            pass

    @given(ONE_KEY_OF_A_VALID_CONFIG, SMALL_JSON_VALUES)
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_any_one_key_replaced_exits_0_1_or_2(self, tmp_path, case, value):
        doc = _with_key_replaced(case, value)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        verb = case[0]["kind"].split("-")
        argv = verb + ["--config", str(cfg), "--out", str(tmp_path / "out")]
        assert cli.main(argv) in (0, 1, 2)

    @pytest.mark.parametrize("key, value", [
        ("n_points", 64.5), ("n_points", float("inf")), ("n_points", float("nan")),
        ("n_points", True), ("base_address", 0.5), ("dtype", 5)])
    def test_fft_keys_typed(self, key, value):
        with pytest.raises(ConfigurationError):
            parse_config(fft_config(**{key: value}))

    def test_integral_float_accepted(self):
        assert parse_config(fft_config(n_points=64.0)).spec.job.n_points == 64

    @pytest.mark.parametrize("amplitude", [float("inf"), -float("inf"), float("nan")])
    def test_non_finite_amplitude(self, amplitude):
        with pytest.raises(ConfigurationError):
            parse_config(fft_config(input={"source": "noise", "amplitude": amplitude}))


class TestInputs:
    def test_impulse(self):
        x = build_fft_input(InputSpec(source="impulse", amplitude=0.5), 16, 0)
        assert x[0] == 0.5 and np.all(x[1:] == 0)

    def test_tone_bin(self):
        x = build_fft_input(InputSpec(source="tone", amplitude=0.5, bin=2), 16, 0)
        assert np.allclose(np.abs(x), 0.5)

    def test_noise_seeded(self):
        a = build_fft_input(InputSpec(), 64, 3)
        b = build_fft_input(InputSpec(), 64, 3)
        c = build_fft_input(InputSpec(), 64, 4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("n", [8, 2048])
    def test_noise_is_the_two_draw_stream(self, n):
        # the one (2, n) draw gives the bits of a draw of re then one of im
        for seed in range(50):
            rng = np.random.default_rng(seed)
            want = rng.uniform(-0.9, 0.9, n) + 1j * rng.uniform(-0.9, 0.9, n)
            got = build_fft_input(InputSpec(amplitude=0.9), n, seed)
            assert got.dtype == np.complex128
            assert got.tobytes() == want.tobytes(), seed

    def test_wav_file(self, tmp_path):
        path = tmp_path / "in.wav"
        data = (np.arange(64, dtype=np.int16) * 256).astype("<i2")
        with wave.open(str(path), "wb") as w:
            w.setnchannels(1)
            w.setsampwidth(2)
            w.setframerate(48000)
            w.writeframes(data.tobytes())
        x = build_fft_input(InputSpec(source="file", path=str(path)), 64, 0)
        assert x[1] == pytest.approx(256 / 32768)

    def test_wav_too_short(self, tmp_path):
        path = tmp_path / "in.wav"
        with wave.open(str(path), "wb") as w:
            w.setnchannels(1)
            w.setsampwidth(2)
            w.setframerate(48000)
            w.writeframes(b"\x00\x00" * 8)
        with pytest.raises(ConfigurationError):
            build_fft_input(InputSpec(source="file", path=str(path)), 64, 0)


class TestFftReport:
    def test_checks_pass_and_metrics(self):
        spec = parse_config(fft_config()).spec
        report = run_fft_experiment(spec, seed=7)
        assert report.passed
        assert report.metrics["butterfly_cycles"] == 32 * 6 // 2
        assert report.metrics["ops"] == ops_count(64)

    def test_gops_identity(self):
        spec = parse_config(fft_config(n_points=512, dtype="C64")).spec
        report = run_fft_experiment(spec, seed=1)
        gops = report.metrics["gops"]
        total = report.metrics["total_cycles"]
        ops = report.metrics["ops"]
        clock = report.metrics["clock_hz"]
        assert abs(gops * 1e9 * total / clock - ops) <= 1e-6 * ops

    def test_gops_inconsistent_on_cycle_undercount(self, monkeypatch):
        real = harness.fft_fixed

        def undercounting(job, memory):
            summary = real(job, memory)
            summary.stats = dataclasses.replace(
                summary.stats, butterfly_cycles=summary.stats.butterfly_cycles * 4 // 5)
            return summary

        monkeypatch.setattr(harness, "fft_fixed", undercounting)
        spec = parse_config(fft_config(n_points=512, dtype="C64")).spec
        report = run_fft_experiment(spec, seed=1)
        assert report.metrics["ops"] > 10 * report.metrics["total_cycles"]
        assert not report.checks["gops_consistent"]

    def test_byte_identical_reports(self):
        spec = parse_config(fft_config(n_points=128, dtype="C16")).spec
        a = run_fft_experiment(spec, seed=5).to_json()
        b = run_fft_experiment(spec, seed=5).to_json()
        assert a.encode() == b.encode()

    def test_seed_changes_noise_report(self):
        spec = parse_config(fft_config()).spec
        a = run_fft_experiment(spec, seed=5)
        b = run_fft_experiment(spec, seed=6)
        assert a.metrics["snr_db"] != b.metrics["snr_db"]

    def test_failing_floor_fails_report(self, monkeypatch):
        monkeypatch.setitem(harness.SNR_FLOORS_DB, DataType.C32, 1000.0)
        spec = parse_config(fft_config()).spec
        report = run_fft_experiment(spec, seed=7)
        assert not report.passed
        assert not report.checks["snr_floor"]

    def test_memory_image_dump(self, tmp_path):
        spec = FftRunSpec(FftJob(64, DataType.C32), dump_memory_image=True)
        run_fft_experiment(spec, seed=0, out_dir=tmp_path)
        assert (tmp_path / "memory.bin").exists()
        assert (tmp_path / "memory.bin.json").exists()


# strings json escapes: quotes, backslashes, control and non-ASCII characters
JSON_TEXT = st.text(st.sampled_from('a"\\/\x00\x1f\x7f\n\t\u00e9\u2028\U0001f600')
                    | st.characters(), max_size=6)
JSON_SCALARS = (st.none() | st.booleans() | st.integers() | st.integers(-2 ** 200, 2 ** 200)
                | st.floats() | st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf])
                | JSON_TEXT)


def _nested(depth):
    """JSON values nested up to ``depth`` containers deep; empty ones too."""
    if depth == 0:
        return JSON_SCALARS
    inner = _nested(depth - 1)
    return (inner | st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
            | st.dictionaries(JSON_TEXT, inner, max_size=4))


# sha256 of report.json then report.txt, written by the parent of the C-encoded
# report writer
PINNED_REPORTS = {
    "fft-run": ("fft run", fft_config(),
                "10af8f84ab5a5a3edaf3697d27630945f3830f542ee9815ac9d842f719e958ad"),
    "fft-sweep": ("fft sweep", {"version": 1, "kind": "fft-sweep", "seed": 3,
                                "sweep": {"dtypes": ["C64", "C16"], "n_points": [8, 64]},
                                "fft": {"input": {"source": "tone", "bin": 5}}},
                  "ebc87305961602ef6da83567ba41e49a32b123d117c0b69b9fa6daf09b9d8ad6"),
    "i2s-run": ("i2s run", i2s_config(periods=4),
                "c37f02290cf3c82446a65a0d62bacb5ad821a9c74e449098f26aaac4dcb3c6dc"),
    "i2s-sweep": ("i2s sweep", {"version": 1, "kind": "i2s-sweep", "seed": 2,
                                "sweep": {"modes": ["tdm-dsp", "tdm-i2s"],
                                          "n_devices": [1, 4], "frame_bits": [16, 32]}},
                  "e95ba4c8dd106097a679e2be345d3ac3090f9e462da7af04c89236f257080453"),
}


class TestReportWriter:
    """``Report.to_json`` writes the bytes of ``json.dumps(doc,
    sort_keys=True, indent=2)`` without json's pure-Python encoder."""

    @given(_nested(3))
    @settings(max_examples=300)
    def test_matches_json_dumps(self, value):
        assert harness._indented_json(value) == json.dumps(value, sort_keys=True, indent=2)

    @given(_nested(2), st.dictionaries(JSON_TEXT, JSON_SCALARS, max_size=6),
           st.dictionaries(JSON_TEXT, st.booleans(), max_size=4))
    @settings(max_examples=100)
    def test_report_matches_json_dumps(self, config, metrics, checks):
        report = Report("k\u00e9nd", 7, config, metrics, checks)
        doc = {"kind": report.kind, "seed": 7, "config": config, "metrics": metrics,
               "checks": checks, "passed": report.passed}
        assert report.to_json() == json.dumps(doc, sort_keys=True, indent=2) + "\n"

    def test_bool_beside_int_and_signed_zeros(self):
        doc = {"b": [True, 1, False, 0, None], "z": [0.0, -0.0], "": {},
               "l": [[], {}, [[]]], "n": [math.nan, math.inf, -math.inf, 2 ** 100]}
        assert harness._indented_json(doc) == json.dumps(doc, sort_keys=True, indent=2)

    @pytest.mark.parametrize("kind", sorted(PINNED_REPORTS))
    def test_reports_pinned(self, tmp_path, capsys, kind):
        verb, doc, digest = PINNED_REPORTS[kind]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert cli.main(verb.split() + ["--config", str(cfg), "--out", str(out)]) == 0
        text = (out / "report.json").read_bytes() + (out / "report.txt").read_bytes()
        assert hashlib.sha256(text).hexdigest() == digest


class TestSweeps:
    def test_fft_sweep_rows_and_checks(self, tmp_path):
        spec = FftSweepSpec(dtypes=(DataType.C64, DataType.C32, DataType.C16),
                            n_points=(8, 16, 32, 64))
        report, rows = run_fft_sweep(spec, seed=2, out_dir=tmp_path)
        assert report.passed
        assert len(rows) == 12
        assert rows == sorted(rows, key=lambda r: (r["dtype"], r["n_points"]))
        assert (tmp_path / "summary.csv").read_text().startswith("dtype,")

    def test_i2s_sweep_dsp_flat(self, tmp_path):
        spec = I2sSweepSpec(modes=(BusMode.TDM_I2S, BusMode.TDM_DSP),
                            n_devices=(1, 2, 4, 8, 16), frame_bits=(32,))
        report, rows = run_i2s_sweep(spec, seed=0, out_dir=tmp_path)
        assert report.passed
        dsp = [r["latency_tclk"] for r in rows if r["mode"] == "tdm-dsp"]
        assert len(set(dsp)) == 1
        tdm = [(r["n_devices"], r["latency_tclk"]) for r in rows
               if r["mode"] == "tdm-i2s"]
        assert sorted(tdm) == tdm and len({v for _, v in tdm}) == len(tdm)

    def test_i2s_sweep_echoes_periods(self, tmp_path):
        # two sweeps that differ only in periods run differently, so their
        # reports must differ, each echoing its own value
        reports = []
        for periods in (2, 5):
            cfg = tmp_path / f"sweep{periods}.json"
            cfg.write_text(json.dumps({
                "version": 1, "kind": "i2s-sweep", "seed": 3,
                "sweep": {"modes": ["tdm-dsp"], "n_devices": [1, 2], "frame_bits": [16]},
                "i2s": {"periods": periods}}))
            out = tmp_path / f"out{periods}"
            assert cli.main(["i2s", "sweep", "--config", str(cfg), "--out", str(out)]) == 0
            reports.append((out / "report.json").read_text())
            assert json.loads(reports[-1])["config"]["periods"] == periods
        assert reports[0] != reports[1]

    @pytest.mark.parametrize("frame_bits", [16, 24, 32])
    def test_payload_draw_is_the_per_word_stream(self, frame_bits):
        bus = BusConfig(BusMode.TDM_I2S, 5, frame_bits)
        top = 1 << bus.channel_bits
        for seed in range(10):
            rng = np.random.default_rng(seed)
            want = [[(d, int(rng.integers(0, top)), int(rng.integers(0, top)))
                     for d in range(5)] for _ in range(4)]
            words = build_payloads(I2sRunSpec(bus=bus, periods=4), seed)
            assert frames_from_array(words) == want

    def test_i2s_scenario_wav_payload(self, tmp_path):
        bus = BusConfig(BusMode.TDM_DSP, 2, 16)
        spec = I2sRunSpec(bus=bus, periods=4, payload=PayloadSpec(export_wav=True))
        report = run_i2s_scenario(spec, seed=3, out_dir=tmp_path)
        assert report.passed
        wav = tmp_path / "payloads.wav"
        assert wav.exists()
        spec2 = I2sRunSpec(bus=bus, payload=PayloadSpec("wav", str(wav)))
        report2 = run_i2s_scenario(spec2, seed=0)
        assert report2.passed
        assert report2.metrics["periods"] == 4
        assert report2.config["periods"] == 4


def _fft_member(spec, defect):
    """A member report whose metrics pass every FFT series check, unless
    ``defect`` names the one to break."""
    n, dtype = spec.job.n_points, spec.job.dtype
    butterfly = n // 2 * (n.bit_length() - 1) // {"C64": 1, "C32": 2, "C16": 4}[dtype.name]
    if defect == "ratio" and dtype is DataType.C32:
        butterfly += 1
    total = 100 if defect == "monotonic" and dtype is DataType.C64 else 2 * butterfly + n
    passed = not (defect == "member" and (n, dtype) == (16, DataType.C16))
    return Report("fft-run", 0, {}, defaultdict(
        int, butterfly_cycles=butterfly, total_cycles=total), {"member": passed})


def _i2s_member(spec, defect):
    """A member report whose latency passes every I2S series check, unless
    ``defect`` names the one to break."""
    bus = spec.bus
    dsp = bus.mode is BusMode.TDM_DSP
    latency = bus.frame_bits if dsp else bus.frame_bits * bus.n_devices
    if defect == "dsp" and dsp:
        latency += bus.n_devices
    if defect == "tdm" and not dsp:
        latency = bus.frame_bits
    passed = not (defect == "member" and dsp and bus.n_devices == 2)
    return Report("i2s-run", 0, {}, {"bclk_hz": 1, "latency_tclk_measured": latency},
                  {"member": passed})


def _failed(report) -> set:
    return {name for name, ok in report.checks.items() if not ok}


def _flip_one_bit(words):
    words = words.copy()
    words[-1, 0, 1] ^= 1
    return words


# (harness name, defect applied to its result, the one check it must fail)
RUN_DEFECTS = {
    "flip-bit": ("decode_words", _flip_one_bit, "round_trip_identity"),
    "drop-period": ("decode_words", lambda words: words[:-1], "round_trip_identity"),
    "latency-plus-1": ("measure_latency", lambda tclk: tclk + 1,
                       "latency_matches_formula"),
}


class TestI2sRunChecks:
    @pytest.mark.parametrize("mode", list(BusMode))
    @pytest.mark.parametrize("defect", [None, *RUN_DEFECTS])
    def test_defect_fails_its_own_check(self, tmp_path, monkeypatch, capsys,
                                        mode, defect):
        check = None
        if defect is not None:
            name, alter, check = RUN_DEFECTS[defect]
            real = getattr(harness, name)
            monkeypatch.setattr(harness, name, lambda *a: alter(real(*a)))
        n_devices = 1 if mode is BusMode.STANDARD_I2S else 3
        report = run_i2s_scenario(I2sRunSpec(BusConfig(mode, n_devices, 24), 4), seed=5)
        assert _failed(report) == ({check} if check else set())
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(i2s_config(mode=mode.value, n_devices=n_devices)))
        assert cli.main(["i2s", "run", "--config", str(cfg)]) == (1 if check else 0)
        out = capsys.readouterr().out
        assert f"{check}: FAIL" in out if check else "FAIL" not in out


class TestSweepChecks:
    @pytest.mark.parametrize("defect, check", [
        (None, None), ("member", "members_pass"),
        ("monotonic", "cycles_monotonic_in_n"), ("ratio", "butterfly_ratio_1_2_4")])
    def test_fft_defect_fails_its_own_check(self, monkeypatch, defect, check):
        monkeypatch.setattr(harness, "run_fft_experiment",
                            lambda spec, seed: _fft_member(spec, defect))
        report, _ = run_fft_sweep(FftSweepSpec(
            dtypes=(DataType.C64, DataType.C32, DataType.C16), n_points=(8, 16, 32)), 0)
        assert _failed(report) == ({check} if check else set())

    @pytest.mark.parametrize("defect, check", [
        (None, None), ("member", "members_pass"),
        ("dsp", "dsp_latency_flat_in_k"), ("tdm", "tdm_latency_grows_with_k")])
    def test_i2s_defect_fails_its_own_check(self, monkeypatch, defect, check):
        monkeypatch.setattr(harness, "run_i2s_scenario",
                            lambda spec, seed: _i2s_member(spec, defect))
        report, _ = run_i2s_sweep(I2sSweepSpec(
            modes=(BusMode.TDM_I2S, BusMode.TDM_DSP), n_devices=(1, 2, 4),
            frame_bits=(16, 32)), 0)
        assert _failed(report) == ({check} if check else set())


def _encode_must_not_run(config, words):
    raise AssertionError("a rejected config reached encode")


# one period past the 2^22-tick budget
OVER_BUDGET = [
    ("i2s run", i2s_config(mode="tdm-dsp", n_devices=16, periods=4096)),
    ("i2s run", i2s_config(mode="tdm-i2s", n_devices=16, frame_bits=24, periods=5462)),
    ("i2s sweep", {"version": 1, "kind": "i2s-sweep", "i2s": {"periods": 4096}}),
    ("i2s sweep", {"version": 1, "kind": "i2s-sweep", "i2s": {"periods": 16384},
                   "sweep": {"modes": ["tdm-dsp"], "n_devices": [1, 4],
                             "frame_bits": [32]}}),
]
OVER_BUDGET_IDS = ["i2s-run-over-budget", "i2s-run-24-bit-over-budget",
                   "i2s-sweep-largest-member-over-budget",
                   "i2s-sweep-one-member-over-budget"]
# the longest runs that fit, and a sweep bounded by MAX_PERIODS alone
AT_BUDGET = [
    i2s_config(mode="tdm-dsp", n_devices=16, periods=4095, alignment="one-bit-delay"),
    i2s_config(mode="tdm-i2s", n_devices=16, frame_bits=24, periods=5461),
    {"version": 1, "kind": "i2s-sweep", "i2s": {"periods": 4095}},
    {"version": 1, "kind": "i2s-sweep", "i2s": {"periods": 16383},
     "sweep": {"modes": ["tdm-dsp"], "n_devices": [1, 4], "frame_bits": [32]}},
    {"version": 1, "kind": "i2s-sweep", "i2s": {"periods": 48000},
     "sweep": {"n_devices": [1, 2], "frame_bits": [16]}},
]


class TestSizeBudget:
    @pytest.mark.parametrize("doc", [doc for _, doc in OVER_BUDGET], ids=OVER_BUDGET_IDS)
    def test_rejected_at_parse(self, doc):
        with pytest.raises(ConfigurationError, match="over the budget of 4194304"):
            parse_config(doc)

    @pytest.mark.parametrize("doc", AT_BUDGET)
    def test_largest_runs_accepted_at_parse(self, doc):
        parse_config(doc)

    def test_benchmark_and_default_sweep_fit(self):
        for mode in ("tdm-i2s", "tdm-dsp"):
            for alignment in ("aligned", "one-bit-delay"):
                parse_config(i2s_config(mode=mode, n_devices=16, frame_bits=32,
                                        periods=48, alignment=alignment))
        parse_config({"version": 1, "kind": "i2s-sweep"})

    @pytest.mark.parametrize("mode", [BusMode.TDM_DSP, BusMode.TDM_I2S])
    def test_peak_memory_per_tick(self, mode):
        # MAX_TIMELINE_TICKS is sized on this figure: 6.07 traced bytes per
        # tick at 2048 periods of 16 devices x 32 bits, the decode's padded
        # bit window on top of the timeline's 5 bytes per tick
        spec = I2sRunSpec(BusConfig(mode, 16, 32), 2048)
        run_i2s_scenario(spec, 0)           # imports and first-call set-up
        tracemalloc.start()
        try:
            run_i2s_scenario(spec, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6.1 * timeline_ticks(spec.bus, spec.periods)

    def test_wav_payload_checked_before_encode(self, tmp_path, monkeypatch, capsys):
        def write_wav(path, periods):
            with wave.open(str(path), "wb") as w:
                w.setnchannels(32)
                w.setsampwidth(2)
                w.setframerate(48000)
                w.writeframes(bytes(periods * 32 * 2))
            return str(path)

        bus = BusConfig(BusMode.TDM_DSP, 16, 32)
        fits = write_wav(tmp_path / "fits.wav", 4095)
        words = build_payloads(I2sRunSpec(bus, payload=PayloadSpec("wav", fits)), 0)
        assert words.shape == (4095, 16, 2)
        over = write_wav(tmp_path / "over.wav", 4096)
        monkeypatch.setattr(harness, "encode", _encode_must_not_run)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(i2s_config(
            mode="tdm-dsp", n_devices=16, payload={"source": "wav", "path": over})))
        assert cli.main(["i2s", "run", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == (
            "configuration error: 4096 periods of 512 bit slots need 4194308 "
            "timeline ticks, over the budget of 4194304\n")


class TestCli:
    def _write(self, tmp_path, doc):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(doc))
        return str(p)

    def test_fft_run_ok(self, tmp_path, capsys):
        cfg = self._write(tmp_path, fft_config())
        code = cli.main(["fft", "run", "--config", cfg,
                         "--out", str(tmp_path / "out"), "--format", "json"])
        assert code == 0
        out = capsys.readouterr().out
        assert json.loads(out)["passed"] is True
        assert (tmp_path / "out" / "report.json").exists()
        assert (tmp_path / "out" / "report.txt").exists()

    def test_cli_reports_are_byte_identical(self, tmp_path):
        cfg = self._write(tmp_path, fft_config())
        cli.main(["fft", "run", "--config", cfg, "--out", str(tmp_path / "a")])
        cli.main(["fft", "run", "--config", cfg, "--out", str(tmp_path / "b")])
        a = (tmp_path / "a" / "report.json").read_bytes()
        b = (tmp_path / "b" / "report.json").read_bytes()
        assert a == b

    def test_seed_override(self, tmp_path):
        cfg = self._write(tmp_path, fft_config())
        cli.main(["fft", "run", "--config", cfg, "--seed", "99",
                  "--out", str(tmp_path / "a")])
        doc = json.loads((tmp_path / "a" / "report.json").read_text())
        assert doc["seed"] == 99

    def test_bad_config_exits_2(self, tmp_path, capsys):
        cfg = self._write(tmp_path, {"version": 1, "kind": "nope"})
        assert cli.main(["fft", "run", "--config", cfg]) == 2

    @pytest.mark.parametrize("where", ["directory", "under-a-file"])
    def test_unreadable_config_exits_2(self, tmp_path, capsys, where):
        # a directory used to exit 1 with an IsADirectoryError traceback
        path = tmp_path
        if where == "under-a-file":
            (tmp_path / "file").write_text("{}")
            path = tmp_path / "file" / "cfg.json"
        assert cli.main(["fft", "run", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: cannot read config: [Errno ")
        assert err.endswith(f"'{path}'\n") and err.count("\n") == 1

    @pytest.mark.parametrize("raw, message", [
        (b"\xef\xbb\xbf" + json.dumps(fft_config()).encode(),
         "configuration error: config is not valid JSON: Unexpected UTF-8 BOM "
         "(decode using utf-8-sig): line 1 column 1 (char 0)\n"),
        (b'{"version": 1, "kind": "\xff"}',
         "invalid argument: 'utf-8' codec can't decode byte 0xff in position 24: "
         "invalid start byte\n"),
    ], ids=["bom", "invalid-utf-8"])
    def test_undecodable_config_exits_2(self, tmp_path, capsys, raw, message):
        p = tmp_path / "cfg.json"
        p.write_bytes(raw)
        assert cli.main(["fft", "run", "--config", str(p)]) == 2
        assert capsys.readouterr().err == message

    @pytest.mark.parametrize("newline", ["\r\n", "\r"])
    def test_config_newlines_read_as_text(self, tmp_path, newline):
        # JSON error positions count characters after universal-newline
        # translation, as Path.read_text gives them
        p = tmp_path / "cfg.json"
        p.write_bytes(newline.join(['{', '"version": 1,', '"kind" "fft-run"', '}']).encode())
        with pytest.raises(json.JSONDecodeError) as want:
            json.loads(p.read_text())
        with pytest.raises(ConfigurationError) as got:
            load_config(p)
        assert str(got.value) == f"config is not valid JSON: {want.value}"

    @pytest.mark.parametrize("verb", ["fft run", "schedule dump"])
    def test_out_path_of_a_file_exits_2(self, tmp_path, capsys, monkeypatch, verb):
        # used to exit 1 with a FileExistsError traceback
        def must_not_run(*args):
            raise AssertionError("ran with an unusable output directory")

        monkeypatch.setattr(harness, "run_fft_experiment", must_not_run)
        cfg = self._write(tmp_path, fft_config(n_points=8))
        taken = tmp_path / "taken"
        taken.write_text("")
        assert cli.main(verb.split() + ["--config", cfg, "--out", str(taken)]) == 2
        captured = capsys.readouterr()
        assert captured.err == ("configuration error: cannot create output directory: "
                                f"[Errno 17] File exists: '{taken}'\n")
        assert taken.read_text() == ""

    # output file -> (argv, config of a run that writes it)
    OUTPUT_FILES = {
        "report.json": (["fft", "run"], fft_config(n_points=8)),
        "report.txt": (["fft", "run"], fft_config(n_points=8)),
        "memory.bin": (["fft", "run"], fft_config(n_points=8, dump_memory_image=True)),
        "memory.bin.json": (["fft", "run"], fft_config(n_points=8, dump_memory_image=True)),
        "timeline.vcd": (["i2s", "run", "--timeline-dump"], i2s_config(periods=1)),
        "payloads.wav": (["i2s", "run"], i2s_config(periods=1, payload={"export_wav": True})),
        "summary.csv": (["fft", "sweep"], {"version": 1, "kind": "fft-sweep",
                                           "sweep": {"dtypes": ["C64"], "n_points": [8]}}),
        "schedule.txt": (["schedule", "dump"], fft_config(n_points=8)),
    }

    @pytest.mark.parametrize("name", OUTPUT_FILES)
    @pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning")
    def test_unwritable_output_file_exits_2(self, tmp_path, capsys, name):
        # each used to exit 1 with an IsADirectoryError traceback; the error
        # filter fails a writer that is left to complain when collected
        argv, doc = self.OUTPUT_FILES[name]
        cfg = self._write(tmp_path, doc)
        taken = tmp_path / "out" / name
        taken.mkdir(parents=True)
        assert cli.main(argv + ["--config", cfg, "--out", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert captured.err == ("configuration error: cannot write output: "
                                f"[Errno 21] Is a directory: '{taken}'\n")
        assert "Traceback" not in captured.err and captured.out == ""

    @pytest.mark.parametrize("kind", ["fft-run", "fft-sweep"])
    @pytest.mark.parametrize("clock_hz", [0, float("nan"), -1.0, float("inf")])
    def test_bad_clock_exits_2(self, tmp_path, capsys, kind, clock_hz):
        # 0 used to divide by zero (exit 1 with a traceback), NaN to fail a check
        doc = fft_config(clock_hz=clock_hz)
        if kind == "fft-sweep":
            doc.update(kind=kind, sweep={"dtypes": ["C64"], "n_points": [8]})
        cfg = self._write(tmp_path, doc)
        assert cli.main(["fft", kind.split("-")[1], "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "clock_hz" in err and "Traceback" not in err

    def test_parser_built_once_and_args_kept_apart(self, tmp_path, monkeypatch):
        seen = []
        real = cli._cmd_experiment

        def spy(args, kind):
            seen.append(dict(vars(args)))
            return real(args, kind)

        monkeypatch.setattr(cli, "_cmd_experiment", spy)
        i2s = tmp_path / "i2s.json"
        i2s.write_text(json.dumps({"version": 1, "kind": "i2s-run", "seed": 2,
                                   "i2s": {"mode": "tdm-i2s", "n_devices": 2}}))
        fft = self._write(tmp_path, fft_config())
        assert cli.main(["i2s", "run", "--config", str(i2s), "--out",
                         str(tmp_path / "out"), "--timeline-dump", "--seed", "5"]) == 0
        assert cli.main(["fft", "run", "--config", fft]) == 0
        assert cli.build_parser() is cli.build_parser()
        assert seen[0]["timeline_dump"] is True and seen[0]["seed"] == 5
        assert "timeline_dump" not in seen[1]
        assert (seen[1]["group"], seen[1]["verb"]) == ("fft", "run")
        assert seen[1]["out"] is None and seen[1]["seed"] is None
        assert (tmp_path / "out" / "timeline.vcd").exists()

    @pytest.mark.parametrize("source", ["noise", "tone", "impulse"])
    @pytest.mark.parametrize("amplitude", [float("inf"), float("nan")])
    def test_non_finite_amplitude_exits_2(self, tmp_path, capsys, source, amplitude):
        # inf used to overflow in rng.uniform (noise) or in quantize (tone)
        cfg = self._write(tmp_path, fft_config(
            input={"source": source, "amplitude": amplitude}))
        assert cli.main(["fft", "run", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "amplitude" in err and "Traceback" not in err

    def test_non_finite_samples_exit_2(self, tmp_path, capsys, monkeypatch):
        # samples that reach the quantizer by any other route
        monkeypatch.setattr(harness, "build_fft_input",
                            lambda spec, n, seed: np.full(n, np.nan, dtype=complex))
        cfg = self._write(tmp_path, fft_config())
        assert cli.main(["fft", "run", "--config", cfg]) == 2
        assert "NaN" in capsys.readouterr().err

    @pytest.mark.parametrize("verb, text, message", [
        ("fft run", json.dumps(fft_config(input="noise")),
         "fft config section 'input' must be a JSON object"),
        ("fft sweep", '{"version": 1, "kind": "fft-sweep", "sweep": "x"}',
         "fft-sweep config section 'sweep' must be a JSON object"),
        ("i2s run", json.dumps({"version": 1, "kind": "i2s-run",
                                "i2s": {"mode": "tdm-i2s", "payload": "random"}}),
         "i2s-run config section 'payload' must be a JSON object"),
        ("fft run", json.dumps(fft_config(dtype=5)), "data type must be a string tag, got 5"),
        ("fft run", json.dumps(fft_config(n_points="N")).replace('"N"', "1e400"),
         "n_points must be an integer, got inf"),
        ("fft run", json.dumps(fft_config(n_points=64.5)),
         "n_points must be an integer, got 64.5"),
        ("fft run", json.dumps(fft_config()).replace('"seed": 7', '"seed": [7]'),
         "int() argument must be a string, a bytes-like object or a real number, "
         "not 'list'"),
        ("fft run", json.dumps(fft_config(dump_memory_image="no")),
         "dump_memory_image must be true or false, got 'no'"),
        ("fft run", json.dumps(fft_config(dump_memory_image=1)),
         "dump_memory_image must be true or false, got 1"),
        ("fft run", json.dumps({**fft_config(), "version": True}),
         "unsupported config version True"),
        ("fft run", json.dumps(fft_config(input={"source": "file", "path": 5})),
         "path must be a string, got 5"),
        ("fft run", json.dumps(fft_config(input={"source": "file",
                                                 "path": "/nonexistent.wav"})),
         "cannot read WAV input: [Errno 2] No such file or directory: '/nonexistent.wav'"),
        ("i2s run", json.dumps(i2s_config(payload={"export_wav": "yes"})),
         "export_wav must be true or false, got 'yes'"),
        ("i2s run", json.dumps(i2s_config(payload={"source": "wav", "path": 5})),
         "path must be a string, got 5"),
        ("i2s run", json.dumps(i2s_config(payload={"source": "wav",
                                                   "path": "/nonexistent.wav"})),
         "cannot read payload WAV: [Errno 2] No such file or directory: "
         "'/nonexistent.wav'"),
        ("i2s run", json.dumps(i2s_config(payload={"source": "wav", "path": "/"})),
         "cannot read payload WAV: [Errno 21] Is a directory: '/'"),
        ("i2s run", json.dumps(i2s_config(periods=-1)), "periods must be in 1..48000, got -1"),
        ("i2s sweep", json.dumps({"version": 1, "kind": "i2s-sweep",
                                  "i2s": {"periods": 0}}),
         "periods must be in 1..48000, got 0"),
        ("fft sweep", json.dumps({"version": 1, "kind": "fft-sweep",
                                  "sweep": {"dtypes": ["C64"], "n_points": [4096]}}),
         "fft-sweep config selects no runs"),
        ("fft sweep", json.dumps({"version": 1, "kind": "fft-sweep",
                                  "sweep": {"dtypes": []}}),
         "fft-sweep config selects no runs"),
        ("i2s sweep", json.dumps({"version": 1, "kind": "i2s-sweep",
                                  "sweep": {"modes": ["standard-i2s"],
                                            "n_devices": [2, 4]}}),
         "i2s-sweep config selects no runs"),
        *[("fft sweep", json.dumps({"version": 1, "kind": "fft-sweep",
                                    "sweep": {"dtypes": ["C64"], "n_points": sizes}}),
           message)
          for sizes, message in [
              ([], "fft-sweep config selects no runs"),
              (0, "n_points must be a JSON list, got 0"),
              (False, "n_points must be a JSON list, got False"),
              ("", "n_points must be a JSON list, got ''"),
              ([64, 8, 8], "n_points repeats a value: [64, 8, 8]")]],
        ("i2s sweep", json.dumps({"version": 1, "kind": "i2s-sweep",
                                  "sweep": {"n_devices": [2, 2]}}),
         "n_devices repeats a value: [2, 2]"),
        ("schedule dump", json.dumps(fft_config(n_points=2, dtype="C16")),
         "n_points 2 must be a power of two >= 8"),
        ("schedule dump", json.dumps(fft_config(n_points=4, dtype="C64")),
         "n_points 4 must be a power of two >= 8"),
        ("fft run", json.dumps({**fft_config(), "seed": "7"}), "seed must be an integer, got '7'"),
        ("fft run", json.dumps(fft_config(n_points="8")), "n_points must be an integer, got '8'"),
        ("fft run", json.dumps(fft_config(clock_hz=True)),
         "clock_hz must be a finite number, got True"),
        ("fft run", json.dumps(fft_config(clock_hz="1e9")),
         "clock_hz must be a finite number, got '1e9'"),
        ("fft run", json.dumps(fft_config(input={"source": "noise", "amplitude": "0.5"})),
         "amplitude must be a finite number, got '0.5'"),
        ("fft run", json.dumps(fft_config(input={"source": "noise", "amplitude": True})),
         "amplitude must be a finite number, got True"),
        ("fft sweep", json.dumps({"version": 1, "kind": "fft-sweep",
                                  "sweep": {"dtypes": ["C64"], "n_points": [8]},
                                  "fft": {"clock_hz": True}}),
         "clock_hz must be a finite number, got True"),
        ("i2s run", json.dumps(i2s_config(n_devices="2")),
         "n_devices must be an integer, got '2'"),
        ("i2s run", json.dumps({"version": 1, "kind": "i2s-run",
                                "i2s": {"mode": "tdm-dsp", "n_devices": 16,
                                        "periods": 10 ** 12}}),
         "periods must be in 1..48000, got 1000000000000"),
        ("i2s sweep", json.dumps({"version": 1, "kind": "i2s-sweep",
                                  "i2s": {"periods": 10 ** 12}}),
         "periods must be in 1..48000, got 1000000000000"),
        *[(verb, json.dumps(doc), message) for (verb, doc), message in zip(OVER_BUDGET, [
            "4096 periods of 512 bit slots need 4194308 timeline ticks, "
            "over the budget of 4194304",
            "5462 periods of 384 bit slots need 4194820 timeline ticks, "
            "over the budget of 4194304",
            "4096 periods of 512 bit slots need 4194308 timeline ticks, "
            "over the budget of 4194304",
            "16384 periods of 128 bit slots need 4194308 timeline ticks, "
            "over the budget of 4194304"])],
        # numpy would reject these seeds only when it draws, or never for a
        # tone, which draws nothing
        *[(verb, json.dumps({**doc, "seed": -5}),
           "seed must be a non-negative integer, got -5")
          for verb, doc in [("fft run", fft_config(input={"source": "tone"})),
                            ("fft run", fft_config()), ("i2s run", i2s_config())]],
    ], ids=["input-str", "sweep-str", "payload-str", "dtype-int", "n_points-1e400",
            "n_points-64.5", "seed-list", "dump_memory_image-str",
            "dump_memory_image-int", "version-true", "file-path-int",
            "file-path-missing", "export_wav-str", "wav-path-int",
            "wav-path-missing", "wav-path-directory", "periods-negative",
            "sweep-periods-0", "fft-sweep-no-size-fits", "fft-sweep-no-dtype",
            "i2s-sweep-no-standard-member", "fft-sweep-n_points-empty",
            "fft-sweep-n_points-0", "fft-sweep-n_points-false", "fft-sweep-n_points-str",
            "fft-sweep-n_points-repeated", "i2s-sweep-n_devices-repeated",
            "schedule-dump-C16-2", "schedule-dump-C64-4", "seed-str", "n_points-str",
            "clock_hz-true", "clock_hz-str", "amplitude-str", "amplitude-true",
            "fft-sweep-clock_hz-true", "i2s-n_devices-str", "i2s-run-periods-huge",
            "i2s-sweep-periods-huge", *OVER_BUDGET_IDS, "seed-negative-tone",
            "seed-negative-noise", "seed-negative-i2s-run"])
    def test_malformed_config_exits_2(self, tmp_path, capsys, monkeypatch, verb, text,
                                      message):
        monkeypatch.setattr(harness, "encode", _encode_must_not_run)
        p = tmp_path / "cfg.json"
        p.write_text(text)
        assert cli.main(verb.split() + ["--config", str(p)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error") and "Traceback" not in err
        assert err.count("\n") == 1
        assert err == f"configuration error: {message}\n"

    def test_negative_seed_override_exits_2(self, tmp_path, capsys):
        cfg = self._write(tmp_path, fft_config())
        assert cli.main(["fft", "run", "--config", cfg, "--seed", "-1",
                         "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            "configuration error: seed must be a non-negative integer, got -1\n")
        assert not (tmp_path / "out").exists()

    def test_kind_mismatch_exits_2(self, tmp_path):
        cfg = self._write(tmp_path, fft_config())
        assert cli.main(["i2s", "run", "--config", cfg]) == 2

    def test_check_failure_exits_1(self, tmp_path, monkeypatch):
        monkeypatch.setitem(harness.SNR_FLOORS_DB, DataType.C32, 1000.0)
        cfg = self._write(tmp_path, fft_config())
        assert cli.main(["fft", "run", "--config", cfg]) == 1

    def test_i2s_run_with_timeline(self, tmp_path):
        cfg = self._write(tmp_path, {
            "version": 1, "kind": "i2s-run", "seed": 2,
            "i2s": {"mode": "tdm-i2s", "n_devices": 4, "frame_bits": 32}})
        code = cli.main(["i2s", "run", "--config", cfg,
                         "--out", str(tmp_path / "out"), "--timeline-dump"])
        assert code == 0
        assert (tmp_path / "out" / "timeline.vcd").exists()

    def test_timeline_dump_needs_out(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(harness, "encode", _encode_must_not_run)
        monkeypatch.chdir(tmp_path)
        cfg = self._write(tmp_path, i2s_config())
        assert cli.main(["i2s", "run", "--config", cfg, "--timeline-dump"]) == 2
        assert capsys.readouterr().err == "configuration error: --timeline-dump needs --out\n"
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    @pytest.mark.parametrize("argv", [["fft", "run"], ["i2s", "run", "--timeline-dump"],
                                      ["schedule", "dump"]], ids=" ".join)
    def test_empty_out_exits_2(self, tmp_path, capsys, monkeypatch, argv):
        # used to exit 0, fft run writing memory.bin into the working directory
        # and no report, schedule dump writing nothing
        monkeypatch.chdir(tmp_path)
        doc = i2s_config() if argv[0] == "i2s" else fft_config(dump_memory_image=True)
        cfg = self._write(tmp_path, doc)
        assert cli.main(argv + ["--config", cfg, "--out", ""]) == 2
        captured = capsys.readouterr()
        assert captured.err == "configuration error: output directory path is empty\n"
        assert captured.out == ""
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    def test_out_holds_every_file_of_the_run(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = self._write(tmp_path, fft_config(dump_memory_image=True))
        assert cli.main(["fft", "run", "--config", cfg, "--out", "out"]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "out"]
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
            "memory.bin", "memory.bin.json", "report.json", "report.txt"]

    def test_sweep_csv(self, tmp_path):
        cfg = self._write(tmp_path, {
            "version": 1, "kind": "fft-sweep", "seed": 1,
            "sweep": {"dtypes": ["C64"], "n_points": [8, 16, 32]}})
        code = cli.main(["fft", "sweep", "--config", cfg,
                         "--out", str(tmp_path / "out")])
        assert code == 0
        csv_text = (tmp_path / "out" / "summary.csv").read_text()
        assert csv_text.count("\n") == 4  # header + 3 rows

    def test_schedule_dump(self, tmp_path, capsys):
        cfg = self._write(tmp_path, fft_config(n_points=8, dtype="C64"))
        code = cli.main(["schedule", "dump", "--config", cfg,
                         "--out", str(tmp_path / "out")])
        assert code == 0
        text = (tmp_path / "out" / "schedule.txt").read_text()
        assert "# stage 0 of 8-point C64" in text
        assert "# reorder of 8-point C64" in text

    def test_schedule_dump_single_stage(self, tmp_path, capsys):
        cfg = self._write(tmp_path, fft_config(n_points=16, dtype="C16"))
        code = cli.main(["schedule", "dump", "--config", cfg, "--stage", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "# stage 1 of 16-point C16" in out
        assert "# reorder" not in out

    def test_schedule_dump_stage_and_reorder_exclusive(self, tmp_path, capsys):
        cfg = self._write(tmp_path, fft_config(n_points=8, dtype="C64"))
        with pytest.raises(SystemExit) as exited:
            cli.main(["schedule", "dump", "--config", cfg, "--stage", "0", "--reorder"])
        assert exited.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err
