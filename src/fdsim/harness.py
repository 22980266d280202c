"""Experiment front-end: config parsing, end-to-end runs, sweeps and reports.

Configs are a single versioned JSON document.  Reports come out in two
forms: human-readable text and canonical machine-readable JSON that is
byte-identical across reruns of the same (config, seed).
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import sys
import wave
from dataclasses import dataclass, field, fields, is_dataclass
from enum import Enum
from functools import lru_cache
from itertools import repeat
from json.encoder import c_make_encoder, encode_basestring_ascii
from pathlib import Path

import numpy as np

from .fft import (ConfigurationError, FftJob, fft_fixed, fft_reference,
                  load_quantized, read_spectrum, spectrum_snr_db)
from .fixedpoint import DataType, OverflowFlag, ScalingPolicy
from .i2s import (MAX_SAMPLE_RATE_HZ, Alignment, BusConfig, BusMode, FsyncStyle,
                  Polarity, bclk_frequency, decode_words, encode, latency_dsp,
                  latency_tdm, measure_latency, payloads_to_wav, timeline_ticks,
                  wav_to_payloads, write_vcd)
# Not on the run path: the benchmark's span tracer (perfbench/spans.py)
# looks the list decoder up under this name.
from .i2s import decode  # noqa: F401
from .membank import N_BANKS, BankedMemory, bandwidth_bytes_per_s, export_image
from .schedule import THROUGHPUT, fft_sizes, total_cycle_model

CONFIG_VERSION = 1
OPS_PER_BUTTERFLY = 10        # 4 real multiplies + 6 real additions
PEAK_OPS_PER_CYCLE = {dtype: OPS_PER_BUTTERFLY * lanes for dtype, lanes in THROUGHPUT.items()}
# Clock at which 40 ops/cycle peaks at 10.16 GOPS; the silicon's actual
# operating point is a chart, not machine-readable, so this is an input.
DEFAULT_CLOCK_HZ = 254e6

# Regression floors for white-noise SNR vs the oracle, calibrated once at
# each type's maximum size (seed 1234, amplitude 0.9) and frozen with 1 dB
# slack.  Smaller sizes run fewer stages and sit above their type's floor.
SNR_FLOORS_DB = {DataType.C64: 158.2, DataType.C32: 58.7, DataType.C16: 7.9}
SNR_CALIBRATION = {"seed": 1234, "amplitude": 0.9,
                   "measured_at_max_size_db": {"C64": 159.201, "C32": 59.684,
                                               "C16": 8.947}}
# What reading a WAV named by a config can raise for a bad path or file.
WAV_READ_ERRORS = (OSError, EOFError, wave.Error)


def _wav_reason(error: Exception) -> str:
    """An error's message; ``wave`` raises an EOFError with none when the
    file ends inside its header, a 0-byte file included."""
    return str(error) or "file ends inside its WAV header"


def ops_count(n_points: int) -> int:
    return OPS_PER_BUTTERFLY * (n_points // 2) * (n_points.bit_length() - 1)


# -- config schema ------------------------------------------------------------
#
# Config sections are read by tables of key -> parser(value, key).  A key
# the section leaves out is left out of the constructor call, so each
# default is written once, on its dataclass below.

# one second of frames at the fastest sample rate
MAX_PERIODS = MAX_SAMPLE_RATE_HZ
# numpy's uniform draw needs its range, twice the amplitude, to be finite
MAX_NOISE_AMPLITUDE = sys.float_info.max / 2
# the peak memory bandwidth, 16 banks x 4 bytes per cycle, must be finite;
# GOPS, at most 40 ops per cycle, then is too
MAX_CLOCK_HZ = sys.float_info.max / (N_BANKS * 4)
# Timeline length budget of one I2S run.  A run holds about 6.1 bytes of
# arrays per tick at its peak (tracemalloc, 16 devices x 32 bits), so this
# bounds it near 25 MB: 4095 periods of 16 devices x 32 bits.
MAX_TIMELINE_TICKS = 1 << 22


def _check_periods(periods: int) -> None:
    if not 1 <= periods <= MAX_PERIODS:
        raise ConfigurationError(f"periods must be in 1..{MAX_PERIODS}, got {periods}")


def _check_size(bus: BusConfig, periods: int) -> None:
    ticks = timeline_ticks(bus, periods)
    if ticks > MAX_TIMELINE_TICKS:
        raise ConfigurationError(
            f"{periods} periods of {bus.frame_slots} bit slots need {ticks} "
            f"timeline ticks, over the budget of {MAX_TIMELINE_TICKS}")


@dataclass(frozen=True)
class InputSpec:
    source: str = "noise"           # noise | tone | impulse | file
    amplitude: float = 0.9
    bin: int = 3                    # tone bin
    path: str | None = None         # WAV path for source == file

    def __post_init__(self):
        if self.source not in ("noise", "tone", "impulse", "file"):
            raise ConfigurationError(f"unknown input source {self.source!r}")
        if self.source == "file" and not self.path:
            raise ConfigurationError("file input needs a path")
        # numpy's uniform rejects a -0.0 amplitude as it does a negative one
        if self.source == "noise" and math.copysign(1.0, self.amplitude) < 0:
            raise ConfigurationError(f"noise amplitude must be non-negative, got {self.amplitude}")
        if self.source == "noise" and self.amplitude > MAX_NOISE_AMPLITUDE:
            raise ConfigurationError(
                f"noise amplitude must be at most {MAX_NOISE_AMPLITUDE}, got {self.amplitude}")


@dataclass(frozen=True)
class FftRunSpec:
    job: FftJob
    clock_hz: float = DEFAULT_CLOCK_HZ
    input: InputSpec = field(default_factory=InputSpec)
    dump_memory_image: bool = False

    def __post_init__(self):
        # checked here, so a bad run config exits before --out is made
        self.job.validate()
        if self.input.source == "tone" and not 0 <= self.input.bin < self.job.n_points:
            raise ConfigurationError(f"tone bin {self.input.bin} out of range")


def _set_members(spec, kind: str, members: list) -> None:
    """Give a sweep its runs, each checked as its spec was built."""
    if not members:
        raise ConfigurationError(f"{kind} config selects no runs")
    object.__setattr__(spec, "members", tuple(members))


@dataclass(frozen=True)
class FftSweepSpec:
    dtypes: tuple[DataType, ...] = (DataType.C64, DataType.C32, DataType.C16)
    n_points: tuple[int, ...] | None = None   # None: full grid per dtype
    clock_hz: float = DEFAULT_CLOCK_HZ
    input: InputSpec = field(default_factory=InputSpec)
    # (row key, run spec) of each run; a size above a type's limit is skipped
    members: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _set_members(self, "fft-sweep", [
            ({"dtype": dtype.name, "n_points": n},
             FftRunSpec(FftJob(n, dtype), self.clock_hz, self.input))
            for dtype in self.dtypes
            for n in (fft_sizes(dtype) if self.n_points is None else self.n_points)
            if n <= dtype.max_points])


@dataclass(frozen=True)
class PayloadSpec:
    source: str = "random"          # random | wav
    path: str | None = None         # WAV path for source == wav
    export_wav: bool = False

    def __post_init__(self):
        if self.source not in ("random", "wav"):
            raise ConfigurationError(f"unknown payload source {self.source!r}")
        if self.source == "wav" and not self.path:
            raise ConfigurationError("wav payload needs a path")


@dataclass(frozen=True)
class I2sRunSpec:
    bus: BusConfig
    periods: int = 3
    payload: PayloadSpec = field(default_factory=PayloadSpec)

    def __post_init__(self):
        # a WAV payload's size is known, and checked, once the file is read
        if self.payload.source == "random":
            _check_periods(self.periods)
            _check_size(self.bus, self.periods)


@dataclass(frozen=True)
class I2sSweepSpec:
    modes: tuple[BusMode, ...] = (BusMode.TDM_I2S, BusMode.TDM_DSP)
    n_devices: tuple[int, ...] = tuple(range(1, 17))
    frame_bits: tuple[int, ...] = (16, 24, 32)
    sample_rate: int = 48000
    periods: int = 2
    # (row key, run spec) of each run; standard I2S runs one device only
    members: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_periods(self.periods)
        _set_members(self, "i2s-sweep", [
            ({"mode": mode.value, "n_devices": k_dev, "frame_bits": n},
             I2sRunSpec(BusConfig(mode, k_dev, n, self.sample_rate), self.periods))
            for mode in self.modes for n in self.frame_bits for k_dev in self.n_devices
            if mode is not BusMode.STANDARD_I2S or k_dev == 1])


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    spec: object
    seed: int = 0

    def __post_init__(self):
        # numpy seeds its generators with non-negative integers only
        if self.seed < 0:
            raise ConfigurationError(f"seed must be a non-negative integer, got {self.seed}")


def _int(value, key) -> int:
    """A JSON integer: not a fraction, NaN, inf, boolean or string."""
    if isinstance(value, (bool, str)) or (isinstance(value, float) and not value.is_integer()):
        raise ConfigurationError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _number(value, key) -> float:
    """A finite JSON number: not a boolean or a string."""
    if isinstance(value, (bool, str)) or not math.isfinite(value):
        raise ConfigurationError(f"{key} must be a finite number, got {value!r}")
    return float(value)


def _clock(value, key) -> float:
    clock_hz = _number(value, key)
    if clock_hz <= 0:
        raise ConfigurationError(f"{key} must be positive, got {clock_hz}")
    if clock_hz > MAX_CLOCK_HZ:
        raise ConfigurationError(f"{key} must be at most {MAX_CLOCK_HZ}, got {clock_hz}")
    return clock_hz


def _bool(value, key) -> bool:
    if not isinstance(value, bool):
        raise ConfigurationError(f"{key} must be true or false, got {value!r}")
    return value


def _path(value, key) -> str | None:
    """Null, or a file name the OS can take (``os.fsencode`` raises on one it cannot)."""
    if value is not None and not isinstance(value, str):
        raise ConfigurationError(f"{key} must be a string, got {value!r}")
    if value is not None and b"\0" in os.fsencode(value):
        raise ConfigurationError(f"{key} must not hold a NUL byte, got {value!r}")
    return value


def _keyless(convert):
    """Parser from a conversion, such as an enum, whose errors name no key."""
    return lambda value, key: convert(value)


def _axis(parse=_int):
    """Parser of a sweep axis: a JSON list of distinct values, each ``parse``d."""
    def read(value, key) -> tuple:
        if not isinstance(value, list):
            raise ConfigurationError(f"{key} must be a JSON list, got {value!r}")
        values = tuple(parse(v, key) for v in value)
        if len(set(values)) < len(values):
            raise ConfigurationError(f"{key} repeats a value: {value!r}")
        return values
    return read


def _sizes(value, key) -> tuple | None:
    """Sweep sizes: an axis, or null for each type's full grid."""
    return None if value is None else _axis()(value, key)


def _fields(d, table: dict, key: str, label: str, required=()) -> dict:
    """Each key of ``table`` that ``d``, section ``key`` of a ``label``
    config, holds, parsed in table order."""
    if not isinstance(d, dict):
        raise ConfigurationError(f"{label} config section {key!r} must be a JSON object")
    kwargs = {}
    for name, parse in table.items():
        if name in d:
            kwargs[name] = parse(d[name], name)
        elif name in required:
            raise ConfigurationError(f"{key} config missing required key {name!r}")
    return kwargs


def _nested(cls, table, label):
    """Parser of a section of a ``label`` config whose keys ``table`` reads
    into a ``cls``."""
    return lambda value, key: cls(**_fields(value, table, key, label))


_AS_IS = _keyless(lambda value: value)    # for a value its spec type checks
JOB_KEYS = {"n_points": _int, "dtype": _keyless(DataType.from_tag),
            "base_address": _int, "scaling": _keyless(ScalingPolicy)}
INPUT_KEYS = {"source": _AS_IS, "amplitude": _number, "bin": _int, "path": _path}
FFT_RUN_KEYS = {"clock_hz": _clock, "input": _nested(InputSpec, INPUT_KEYS, "fft"),
                "dump_memory_image": _bool}
FFT_AXES = {"dtypes": _axis(_keyless(DataType.from_tag)), "n_points": _sizes}
FFT_SWEEP_KEYS = {"clock_hz": _clock,
                  "input": _nested(InputSpec, INPUT_KEYS, "fft-sweep")}
BUS_KEYS = {"mode": _keyless(BusMode), "n_devices": _int, "frame_bits": _int,
            "sample_rate": _int, "clk_div": _int, "polarity": _keyless(Polarity),
            "alignment": _keyless(Alignment), "fsync_style": _keyless(FsyncStyle)}
PAYLOAD_KEYS = {"source": _AS_IS, "path": _path, "export_wav": _bool}
I2S_RUN_KEYS = {"periods": _int,
                "payload": _nested(PayloadSpec, PAYLOAD_KEYS, "i2s-run")}
I2S_AXES = {"modes": _axis(_keyless(BusMode)), "n_devices": _axis(),
            "frame_bits": _axis()}
I2S_SWEEP_KEYS = {"sample_rate": _int, "periods": _int}


def _read_fft_run(raw: dict) -> FftRunSpec:
    if "fft" not in raw:
        raise ConfigurationError("fft-run config missing required key 'fft'")
    fft = raw["fft"]
    job = _fields(fft, JOB_KEYS, "fft", "fft-run", ("n_points", "dtype"))
    return FftRunSpec(FftJob(**job), **_fields(fft, FFT_RUN_KEYS, "fft", "fft-run"))


def _read_fft_sweep(raw: dict) -> FftSweepSpec:
    return FftSweepSpec(**_fields(raw.get("sweep", {}), FFT_AXES, "sweep", "fft-sweep"),
                        **_fields(raw.get("fft", {}), FFT_SWEEP_KEYS, "fft", "fft-sweep"))


def _read_i2s_run(raw: dict) -> I2sRunSpec:
    if "i2s" not in raw:
        raise ConfigurationError("i2s-run config missing required key 'i2s'")
    i2s = raw["i2s"]
    bus = _fields(i2s, BUS_KEYS, "i2s", "i2s-run", ("mode",))
    return I2sRunSpec(BusConfig(**bus), **_fields(i2s, I2S_RUN_KEYS, "i2s", "i2s-run"))


def _read_i2s_sweep(raw: dict) -> I2sSweepSpec:
    return I2sSweepSpec(**_fields(raw.get("sweep", {}), I2S_AXES, "sweep", "i2s-sweep"),
                        **_fields(raw.get("i2s", {}), I2S_SWEEP_KEYS, "i2s", "i2s-sweep"))


def parse_config(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigurationError("config must be a JSON object")
    version = raw.get("version")
    if isinstance(version, bool) or version != CONFIG_VERSION:
        raise ConfigurationError(f"unsupported config version {version!r}")
    kind = raw.get("kind")
    try:
        seed = {"seed": _int(raw["seed"], "seed")} if "seed" in raw else {}
        if not isinstance(kind, str) or kind not in KINDS:
            raise ConfigurationError(f"unknown experiment kind {kind!r}")
        return ExperimentConfig(kind, KINDS[kind][0](raw), **seed)
    # RecursionError: a message's repr of a value nested nearly too deep for json.loads
    except (TypeError, ValueError, OverflowError, RecursionError) as e:
        if isinstance(e, ConfigurationError):
            raise
        raise ConfigurationError(str(e)) from None


def load_config(path) -> ExperimentConfig:
    """Parse the config file at ``path``: UTF-8 text with universal newlines,
    as ``Path.read_text`` reads it on a UTF-8 host."""
    try:
        with open(path, "rb") as f:
            text = f.read().decode("utf-8")
        if "\r" in text:
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        raw = json.loads(text)
    except FileNotFoundError:
        raise ConfigurationError(f"config file not found: {path}") from None
    except UnicodeDecodeError as e:
        raise ConfigurationError(f"config is not valid UTF-8: {e}") from None
    except (json.JSONDecodeError, RecursionError) as e:    # RecursionError: nested too deep
        raise ConfigurationError(f"config is not valid JSON: {e}") from None
    except (OSError, ValueError) as e:      # ValueError: a path open cannot take
        raise ConfigurationError(f"cannot read config: {e}") from None
    return parse_config(raw)


# -- reports ------------------------------------------------------------------


@dataclass
class Report:
    kind: str
    seed: int
    config: dict
    metrics: dict
    checks: dict

    @property
    def passed(self) -> bool:
        return all(self.checks.values())

    def to_json(self) -> str:
        doc = {"kind": self.kind, "seed": self.seed, "config": self.config,
               "metrics": self.metrics, "checks": self.checks,
               "passed": self.passed}
        return _indented_json(doc) + "\n"

    def to_text(self) -> str:
        out = io.StringIO()
        out.write(f"fdsim report [{self.kind}]  seed={self.seed}\n")
        out.write("\nmetrics:\n")
        for key in sorted(self.metrics):
            out.write(f"  {key}: {self.metrics[key]}\n")
        out.write("\nchecks:\n")
        for key in sorted(self.checks):
            out.write(f"  {key}: {'PASS' if self.checks[key] else 'FAIL'}\n")
        out.write(f"\noverall: {'PASS' if self.passed else 'FAIL'}\n")
        return out.getvalue()


JSON_CONTAINERS = (dict, list, tuple)


@lru_cache(maxsize=None)
def _json_level(level: int):
    """What ``json.dumps(..., indent=2)`` writes around the members of a
    container nested ``level`` deep: json's C encoder, with sorted keys and
    the members' line break and indent as its item separator; the opening
    line break and indent; that separator; the closing line break and indent.
    """
    indent = "\n" + "  " * (level + 1)
    encoder = c_make_encoder(None, None, encode_basestring_ascii, None, ": ",
                             "," + indent, True, False, True)
    return encoder, indent, "," + indent, "\n" + "  " * level


def _indented_json(value, level: int = 0) -> str:
    """``json.dumps(value, sort_keys=True, indent=2)`` of a value nested
    ``level`` deep, whose dict keys are strings.

    ``indent`` sends ``json.dumps`` to its pure-Python encoder.  Here the C
    encoder writes each container that holds no container in one call, with
    its level's separator (``_json_level``); a container that holds one
    writes each member through this function, dicts in sorted key order.
    """
    encode, indent, separator, close = _json_level(level)
    if isinstance(value, dict):
        brackets, members = "{}", value.values()
    elif isinstance(value, (list, tuple)):
        brackets, members = "[]", value
    else:
        return "".join(encode(value, 0))
    if not value:
        return brackets
    if not any(map(isinstance, members, repeat(JSON_CONTAINERS))):
        body = "".join(encode(value, 0))[1:-1]
    elif isinstance(value, dict):
        body = separator.join(f"{encode_basestring_ascii(key)}: "
                              f"{_indented_json(member, level + 1)}"
                              for key, member in sorted(value.items()))
    else:
        body = separator.join(_indented_json(member, level + 1) for member in value)
    return brackets[0] + indent + body + close + brackets[1]


def _echo(value):
    """A parsed config value as the report echoes it: a dataclass as the
    fields a config sets, a DataType by name, any other enum by value, a
    tuple as a list."""
    if isinstance(value, Enum):
        return value.name if isinstance(value, DataType) else value.value
    if isinstance(value, tuple):
        return [_echo(v) for v in value]
    if is_dataclass(value):
        return {f.name: _echo(getattr(value, f.name)) for f in fields(value) if f.init}
    return value


def _run_sweep(kind: str, echo: dict, run, members: tuple, columns: dict,
               order: tuple, series_checks, seed: int, out_dir) -> Report:
    """Run each ``(row key, member spec)`` pair with ``run`` and report.

    A row is the key, the member metrics named by ``columns`` (column:
    metric) and ``passed``; rows are sorted on the ``order`` columns.
    ``series_checks`` maps the finished rows to the sweep's own checks.
    """
    rows = []
    for key, member_spec in members:
        member = run(member_spec, seed)
        rows.append({**key, **{c: member.metrics[m] for c, m in columns.items()},
                     "passed": member.passed})
    rows.sort(key=lambda r: tuple(r[c] for c in order))
    checks = {"members_pass": all(r["passed"] for r in rows), **series_checks(rows)}
    report = Report(kind, seed, echo, {"runs": len(rows)}, checks)
    if out_dir is not None:
        write_csv(out_dir / "summary.csv", rows)
    return report


def _rising(rows, group: str, x: str, y: str) -> bool:
    """Within each value of column ``group``, ``y`` rises strictly with ``x``."""
    series: dict = {}
    for r in rows:
        series.setdefault(r[group], []).append((r[x], r[y]))
    return all(b > a for s in map(sorted, series.values())
               for (_, a), (_, b) in zip(s, s[1:]))


# -- FFT experiments ----------------------------------------------------------


def build_fft_input(spec: InputSpec, n_points: int, seed: int) -> np.ndarray:
    if spec.source == "impulse":
        x = np.zeros(n_points, dtype=np.complex128)
        x[0] = spec.amplitude
        return x
    if spec.source == "tone":
        t = np.arange(n_points)
        return spec.amplitude * np.exp(2j * np.pi * spec.bin * t / n_points)
    if spec.source == "noise":
        # one (2, n) draw is the stream of an n-sample draw of the re parts
        # then one of the im parts; re + 1j * im of those gives these bits
        parts = np.random.default_rng(seed).uniform(-spec.amplitude, spec.amplitude,
                                                    (2, n_points))
        return parts.T.copy().view(np.complex128).reshape(-1)
    # file: first channel of a WAV, scaled to [-1, 1)
    try:
        with wave.open(str(spec.path), "rb") as w:
            width = w.getsampwidth()
            channels = w.getnchannels()
            raw = w.readframes(w.getnframes())
    except WAV_READ_ERRORS as e:
        raise ConfigurationError(f"cannot read WAV input: {_wav_reason(e)}") from None
    if width != 2:
        raise ConfigurationError("only 16-bit WAV input is supported")
    if len(raw) % (2 * channels):
        raise ConfigurationError("WAV input ends inside a frame")
    data = np.frombuffer(raw, dtype="<i2").reshape(-1, channels)[:, 0]
    if len(data) < n_points:
        raise ConfigurationError(
            f"WAV has {len(data)} samples, need {n_points}")
    return (data[:n_points] / 32768.0).astype(np.complex128)


def run_fft_experiment(spec: FftRunSpec, seed: int,
                       out_dir: Path | None = None) -> Report:
    job = spec.job
    memory = BankedMemory()
    x = build_fft_input(spec.input, job.n_points, seed)

    input_flag = OverflowFlag()
    oracle_input = load_quantized(memory, job, x, input_flag)

    summary = fft_fixed(job, memory)
    spectrum = read_spectrum(memory, job, 1 << summary.scaling_stages)
    reference = fft_reference(oracle_input)
    snr = spectrum_snr_db(reference, spectrum)

    model = total_cycle_model(job.n_points, job.dtype)
    stats = summary.stats
    ops = ops_count(job.n_points)
    gops = ops / (stats.total_cycles / spec.clock_hz) / 1e9

    checks = {
        "cycle_model_match": model.as_dict() == stats.as_dict(),
        "conflict_locality": stats.stage_conflicts == 0,
        "stalls_equal_conflicts": stats.stall_cycles == stats.conflicts,
        # no run can beat the peak, so a cycle undercount shows here
        "gops_consistent": ops <= PEAK_OPS_PER_CYCLE[job.dtype] * stats.total_cycles,
    }
    if spec.input.source in ("noise", "tone", "impulse"):
        checks["snr_floor"] = snr >= SNR_FLOORS_DB[job.dtype]
    if spec.input.source == "tone":
        checks["peak_bin"] = (int(np.argmax(np.abs(spectrum)))
                              == int(np.argmax(np.abs(reference)))
                              == spec.input.bin % job.n_points)

    metrics = {
        "n_points": job.n_points,
        "dtype": job.dtype.name,
        "input_source": spec.input.source,
        "input_saturated": input_flag.seen,
        "overflow": summary.overflow,
        "scaling_stages": summary.scaling_stages,
        "snr_db": round(float(snr), 3) if math.isfinite(snr) else "inf",
        "ops": ops,
        "clock_hz": spec.clock_hz,
        "gops": round(float(gops), 6),
        "peak_ops_per_cycle": PEAK_OPS_PER_CYCLE[job.dtype],
        "peak_memory_bandwidth_bytes_per_s": bandwidth_bytes_per_s(spec.clock_hz),
        **stats.as_dict(),
    }
    report = Report("fft-run", seed, {**_echo(job), "clock_hz": spec.clock_hz,
                                      "input": _echo(spec.input)}, metrics, checks)
    if out_dir is not None and spec.dump_memory_image:
        export_image(memory, out_dir / "memory.bin", job.dtype,
                     job.n_points, job.base_address)
    return report


def run_fft_sweep(spec: FftSweepSpec, seed: int, out_dir: Path | None = None) -> Report:
    echo = {**_echo(spec), "n_points": "full"} if spec.n_points is None else _echo(spec)
    columns = {c: c for c in ("butterfly_cycles", "reorder_cycles", "stall_cycles",
                              "overhead_cycles", "total_cycles", "conflicts",
                              "stage_conflicts", "snr_db", "gops")}
    return _run_sweep("fft-sweep", echo, run_fft_experiment, spec.members, columns,
                      ("dtype", "n_points"), _fft_series_checks, seed, out_dir)


def _fft_series_checks(rows) -> dict:
    """Cycles rise with n per type; C32/C16 butterfly cycles are 1/2 and 1/4
    of C64's at equal size."""
    by_key = {(r["dtype"], r["n_points"]): r["butterfly_cycles"] for r in rows}
    ratios_ok = all(bf * {"C64": 1, "C32": 2, "C16": 4}[dtype] == by_key[("C64", n)]
                    for (dtype, n), bf in by_key.items() if ("C64", n) in by_key)
    return {"cycles_monotonic_in_n": _rising(rows, "dtype", "n_points", "total_cycles"),
            "butterfly_ratio_1_2_4": ratios_ok}


# -- I2S experiments ----------------------------------------------------------


def build_payloads(spec: I2sRunSpec, seed: int) -> np.ndarray:
    """The run's ``(periods, K, 2)`` left/right words, indexed by device."""
    if spec.payload.source == "wav":
        try:
            words = wav_to_payloads(spec.payload.path, spec.bus)
        except (*WAV_READ_ERRORS, ValueError) as e:     # ValueError: not this bus's words
            raise ConfigurationError(f"cannot read payload WAV: {_wav_reason(e)}") from None
        if not len(words):
            raise ConfigurationError("payload WAV holds no frames")
        _check_size(spec.bus, len(words))
        return words
    # one draw in (period, device, left/right) order is the same stream as
    # one scalar draw per word in that order
    rng = np.random.default_rng(seed)
    return rng.integers(0, 1 << spec.bus.channel_bits,
                        size=(spec.periods, spec.bus.n_devices, 2))


def run_i2s_scenario(spec: I2sRunSpec, seed: int, out_dir: Path | None = None,
                     timeline_dump: bool = False) -> Report:
    bus = spec.bus
    words = build_payloads(spec, seed)
    timeline = encode(bus, words)
    decoded = decode_words(timeline, bus)
    measured = measure_latency(timeline, bus)
    if bus.mode is BusMode.TDM_DSP:
        formula = latency_dsp(bus.frame_bits)
    else:
        formula = latency_tdm(bus.frame_bits, bus.n_devices)
    bclk = bclk_frequency(bus.n_devices, bus.frame_bits, bus.sample_rate)

    checks = {
        "round_trip_identity": np.array_equal(decoded, words),
        "latency_matches_formula": measured == formula,
    }
    metrics = {
        "mode": bus.mode.value,
        "n_devices": bus.n_devices,
        "frame_bits": bus.frame_bits,
        "sample_rate_hz": bus.sample_rate,
        "periods": len(words),
        "bclk_hz": bclk,
        "peripheral_clock_hz": bclk * bus.clk_div,
        "latency_tclk_measured": measured,
        "latency_tclk_formula": formula,
        "latency_seconds": measured / bclk if bclk else None,
        "timeline_ticks": timeline.n_ticks,
    }
    if out_dir is not None:
        if timeline_dump:
            write_vcd(timeline, out_dir / "timeline.vcd")
        if spec.payload.export_wav:
            payloads_to_wav(out_dir / "payloads.wav", words, bus)
    return Report("i2s-run", seed, {"bus": _echo(bus), "periods": len(words),
                                    "payload_source": spec.payload.source},
                  metrics, checks)


def run_i2s_sweep(spec: I2sSweepSpec, seed: int, out_dir: Path | None = None) -> Report:
    columns = {"bclk_hz": "bclk_hz", "latency_tclk": "latency_tclk_measured"}
    return _run_sweep("i2s-sweep", _echo(spec), run_i2s_scenario, spec.members, columns,
                      ("mode", "frame_bits", "n_devices"), _i2s_series_checks,
                      seed, out_dir)


def _i2s_series_checks(rows) -> dict:
    """DSP latency is one value per frame size; TDM latency rises with K."""
    dsp = [r for r in rows if r["mode"] == BusMode.TDM_DSP.value]
    tdm = [r for r in rows if r["mode"] == BusMode.TDM_I2S.value]
    return {"dsp_latency_flat_in_k": len({(r["frame_bits"], r["latency_tclk"]) for r in dsp})
            == len({r["frame_bits"] for r in dsp}),
            "tdm_latency_grows_with_k": _rising(tdm, "frame_bits", "n_devices",
                                                "latency_tclk")}


# -- output plumbing ----------------------------------------------------------


def write_csv(path, rows: list[dict]) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)


def make_out_dir(out_dir: str) -> Path:
    """Create the output directory ``out_dir``; a path that cannot be one,
    such as an existing file or the empty string, is a ConfigurationError."""
    if not out_dir:
        raise ConfigurationError("output directory path is empty")
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as e:      # ValueError: a path mkdir cannot take
        raise ConfigurationError(f"cannot create output directory: {e}") from None
    return out_dir


def run_experiment(config: ExperimentConfig, out_dir: str | None = None,
                   timeline_dump: bool = False) -> Report:
    """Run a parsed config and return its report.  With ``out_dir``, the
    directory is created before the run, the run writes its files into it,
    and report.json and report.txt follow; without it, nothing is written."""
    if out_dir is not None:
        out_dir = make_out_dir(out_dir)
    report = KINDS[config.kind][1](config.spec, config.seed, out_dir, timeline_dump)
    if out_dir is not None:
        (out_dir / "report.json").write_text(report.to_json())
        (out_dir / "report.txt").write_text(report.to_text())
    return report


# kind: (reader of the raw config, runner of its spec).  The runners look the
# run functions up when they are called, so a patched one is the one run.
KINDS = {
    "fft-run": (_read_fft_run, lambda spec, seed, out, dump: run_fft_experiment(spec, seed, out)),
    "fft-sweep": (_read_fft_sweep, lambda spec, seed, out, dump: run_fft_sweep(spec, seed, out)),
    "i2s-run": (_read_i2s_run, lambda spec, seed, out, dump:
                run_i2s_scenario(spec, seed, out, dump)),
    "i2s-sweep": (_read_i2s_sweep, lambda spec, seed, out, dump: run_i2s_sweep(spec, seed, out)),
}
