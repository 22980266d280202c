"""Output guard: frozen goldens for the modeled results and the checks
that compare each op's output against them.

Goldens hold data and statistics, never report bytes, so a change to the
report's config echo does not trip the guard while any change to a modeled
result does:

* ``cycle_stats``: ``CycleStats.as_dict()`` per (dtype, n) of the size grid,
  read from each FFT report; independent of the seed.
* ``fft_spectrum``: a digest of the spectrum's memory words (from the CLI's
  ``memory.bin`` image) per fft-grid config at ``GUARD_SEED``.
* ``i2s_report``: the seed-independent report figures per i2s-tdm16 config.
* ``i2s_digest``: digests of the timeline (from the CLI's ``timeline.vcd``)
  and of the payloads ``fdsim.i2s.decode`` recovers from it, per i2s-tdm16
  config at ``GUARD_SEED``.

Regenerate with ``python3 perfbench/guard.py --freeze`` only on a commit
whose modeled results are known good.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import numpy as np

import workloads

GUARD_SEED = 20230512
GOLDENS_PATH = Path(__file__).with_name("goldens.json")
CYCLE_KEYS = ("total_cycles", "butterfly_cycles", "reorder_cycles",
              "stall_cycles", "overhead_cycles", "conflicts", "stage_conflicts")
I2S_REPORT_KEYS = ("timeline_ticks", "bclk_hz", "latency_tclk_measured",
                   "latency_tclk_formula", "periods")
WORDS_PER_SAMPLE = {"C64": 2.0, "C32": 1.0, "C16": 0.5}


def load_goldens(path=GOLDENS_PATH) -> dict:
    return json.loads(Path(path).read_text())


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def fft_key(config: dict) -> str:
    fft = config["fft"]
    return f"{fft['dtype']}-{fft['n_points']}"


def cycle_stats(report: dict) -> dict:
    return {k: report["metrics"][k] for k in CYCLE_KEYS}


def i2s_figures(report: dict) -> dict:
    return {k: report["metrics"][k] for k in I2S_REPORT_KEYS}


def spectrum_digest(out_dir: Path, config: dict) -> str:
    """Digest of the spectrum's words in the dumped memory image."""
    sidecar = json.loads((out_dir / "memory.bin.json").read_text())
    words = np.fromfile(out_dir / "memory.bin", dtype="<u4")
    fft = config["fft"]
    n_words = int(fft["n_points"] * WORDS_PER_SAMPLE[fft["dtype"]])
    base = sidecar["base_address"]
    return _sha(words[base:base + n_words].tobytes())


def parse_vcd(text: str) -> dict[str, np.ndarray]:
    """Per-tick level arrays, by signal name, from a value-change dump."""
    names, changes, t = {}, {}, 0
    for line in text.splitlines():
        head = line[:1]
        if head == "#":
            t = int(line[1:])
        elif head in ("0", "1"):
            changes[line[1:]].append((t, int(head)))
        elif head == "b":
            bits, ident = line[1:].split()
            changes[ident].append((t, int(bits, 2)))
        elif line.startswith("$var"):
            _, _, _, ident, name, _ = line.split()
            names[ident] = name
            changes[ident] = []
    # the last timestamp marks the end of the dump
    return {names[ident]: np.repeat([v for _, v in series],
                                    np.diff([u for u, _ in series] + [t]))
            for ident, series in changes.items()}


def i2s_digests(out_dir: Path, config: dict) -> dict:
    """Digests of the dumped timeline and of the payloads decoded from it."""
    from fdsim.i2s import (Alignment, BusConfig, BusMode, FsyncStyle,
                           Polarity, Timeline, decode)

    levels = parse_vcd((out_dir / "timeline.vcd").read_text())
    timeline_bytes = b"".join(levels[k].astype("<i8").tobytes()
                              for k in ("bclk", "fsync", "sd", "driver"))
    d = config["i2s"]
    bus = BusConfig(mode=BusMode(d["mode"]), n_devices=d["n_devices"],
                    frame_bits=d["frame_bits"], sample_rate=d["sample_rate"],
                    polarity=Polarity(d["polarity"]),
                    alignment=Alignment(d["alignment"]),
                    fsync_style=FsyncStyle(d["fsync_style"]))
    timeline = Timeline(levels["bclk"].astype(np.int8),
                        levels["fsync"].astype(np.int8),
                        levels["sd"].astype(np.int8),
                        levels["driver"].astype(np.int16))
    decoded = [[(p.device, p.left, p.right) for p in period]
               for period in decode(timeline, bus)]
    return {"timeline": _sha(timeline_bytes),
            "payloads": _sha(json.dumps(decoded).encode())}


def check_report(goldens: dict, op: dict, report: dict) -> list[str]:
    """Mismatches of one op's report against the seed-independent goldens."""
    if op["verb"] == "fft":
        key = fft_key(op["config"])
        expected = goldens["cycle_stats"].get(key)
        got = cycle_stats(report)
        return [] if got == expected else [f"{key} cycle stats {got} != {expected}"]
    expected = goldens["i2s_report"].get(op["name"])
    got = i2s_figures(report)
    return [] if got == expected else [f"{op['name']} report {got} != {expected}"]


def guard_output(op: dict, out_dir: Path):
    """Digest value(s) of a guard op's dumped output."""
    if op["verb"] == "fft":
        return spectrum_digest(out_dir, op["config"])
    return i2s_digests(out_dir, op["config"])


def check_guard_output(goldens: dict, op: dict, out_dir: Path) -> list[str]:
    """Mismatches of one guard op's dumped output against its digest golden."""
    table = goldens["fft_spectrum" if op["verb"] == "fft" else "i2s_digest"]
    expected = table.get(op["name"])
    got = guard_output(op, out_dir)
    return [] if got == expected else [f"{op['name']} digest {got} != {expected}"]


def guard_argv(op: dict, config_path: Path, out_dir: Path) -> list[str]:
    """CLI arguments that make the guard op dump its modeled output."""
    extra = ["--timeline-dump"] if op["verb"] == "i2s" else []
    return [op["verb"], "run", "--config", str(config_path),
            "--out", str(out_dir), "--format", "json", *extra]


def guard_ops(workload: str) -> list[dict]:
    """The workload's configs as generated at GUARD_SEED.

    FFT workloads take theirs from fft-grid, whose configs carry the
    spectrum digests, so fft-max's three configs are guarded identically.
    """
    names = {op["name"] for op in workloads.make_ops(workload, GUARD_SEED)}
    source = "fft-grid" if workload.startswith("fft") else workload
    return [op for op in workloads.make_ops(source, GUARD_SEED)
            if op["name"] in names]


def guard_config(op: dict) -> dict:
    config = json.loads(json.dumps(op["config"]))
    if op["verb"] == "fft":
        config["fft"]["dump_memory_image"] = True
    return config


def freeze(work_dir: Path) -> dict:
    """Run every guarded config once at GUARD_SEED and collect the goldens."""
    from fdsim.cli import main

    goldens = {"guard_seed": GUARD_SEED, "cycle_stats": {}, "fft_spectrum": {},
               "i2s_report": {}, "i2s_digest": {}}
    for workload in ("fft-grid", "i2s-tdm16"):
        for i, op in enumerate(workloads.make_ops(workload, GUARD_SEED)):
            out_dir = work_dir / f"{workload}-{i}"
            out_dir.mkdir(parents=True, exist_ok=True)
            path = out_dir / "config.json"
            path.write_text(json.dumps(guard_config(op)))
            with contextlib.redirect_stdout(io.StringIO()) as buf:
                main(guard_argv(op, path, out_dir))
            report = json.loads(buf.getvalue())
            if op["verb"] == "fft":
                goldens["cycle_stats"][fft_key(op["config"])] = cycle_stats(report)
                goldens["fft_spectrum"][op["name"]] = guard_output(op, out_dir)
            else:
                goldens["i2s_report"][op["name"]] = i2s_figures(report)
                goldens["i2s_digest"][op["name"]] = guard_output(op, out_dir)
    return goldens


if __name__ == "__main__":
    import argparse
    import tempfile

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--freeze", action="store_true", required=True,
                        help="rewrite goldens.json from the current program")
    parser.parse_args()
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    with tempfile.TemporaryDirectory(dir=root) as tmp:
        frozen = freeze(Path(tmp))
    GOLDENS_PATH.write_text(json.dumps(frozen, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDENS_PATH}")
