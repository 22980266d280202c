"""Cold-process benchmark: what a user's ``fdsim`` command costs, end to end.

    python3 tools/cold_process.py --parent HEAD~1 --out BENCH_x.json

Times fresh ``python -m fdsim.cli`` processes, wall clock from start to
exit, for these cases:

- ``fft run`` on noise at C64-512, C32-1024 and C16-2048, each type's
  largest size;
- one ``i2s run`` of 16 devices, 32-bit frames at 48 kHz;
- the default ``fft sweep`` and ``i2s sweep``.

It also times a cold build of all 24 FFT programs (``fft._program``) inside
one fresh interpreter, as the child itself measures it.

The parent tree is ``git archive`` of ``--parent``; the change is the
working tree's ``src``.  Both are copied into a temporary directory, so
neither run reads a ``__pycache__`` of the repository and nothing is written
into it.  Each of the 10 pairs runs every case on both trees back to back,
alternating which tree goes first, in two modes:

- ``source``: ``PYTHONDONTWRITEBYTECODE=1``, so fdsim is compiled from
  source in every process (the installed packages keep their own bytecode);
- ``bytecode``: bytecode cached under a temporary ``PYTHONPYCACHEPREFIX``,
  filled by one untimed run of each case first.

Every process must exit 0, and a case's stdout must be byte-identical
between the two trees and across runs; the tool stops with an error
otherwise, so it never reports a speedup for a change that alters output or
fails its checks (exit 1).  The JSON written to ``--out`` holds every time,
and per case and mode each side's median and quartiles, the change's wins
and the ratio of the medians.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from io import BytesIO
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent

I2S_BUS = {"mode": "tdm-i2s", "n_devices": 16, "frame_bits": 32, "sample_rate": 48000}
CONFIGS = {
    **{f"fft-run-{dtype}-{n}": {"version": 1, "kind": "fft-run", "seed": 1,
                                "fft": {"n_points": n, "dtype": dtype,
                                        "input": {"source": "noise", "amplitude": 0.9}}}
       for dtype, n in (("C64", 512), ("C32", 1024), ("C16", 2048))},
    "i2s-run-16": {"version": 1, "kind": "i2s-run", "seed": 1, "i2s": I2S_BUS},
    "fft-sweep": {"version": 1, "kind": "fft-sweep"},
    "i2s-sweep": {"version": 1, "kind": "i2s-sweep"},
}
# Builds every program in a fresh interpreter, after the imports, and
# prints the build's own seconds.
BUILD_24 = """\
import time
from fdsim.fft import _program
from fdsim.fixedpoint import DataType
from fdsim.schedule import fft_sizes
start = time.perf_counter()
for dtype in DataType:
    for n in fft_sizes(dtype):
        _program(n, dtype)
print(time.perf_counter() - start)
"""
MODES = ("source", "bytecode")
PAIRS = 10


def extract(rev: str, into: Path) -> Path:
    """The ``src`` of git revision ``rev`` under ``into``."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev, "src"],
                             cwd=ROOT, check=True, capture_output=True).stdout
    with tarfile.open(fileobj=BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    return into / "src"


def command(case: str, config_dir: Path) -> list[str]:
    if case == "build-24":
        return [sys.executable, "-c", BUILD_24]
    kind = CONFIGS[case]["kind"]
    return [sys.executable, "-m", "fdsim.cli", *kind.split("-"),
            "--config", str(config_dir / f"{case}.json")]


def environment(src: Path, mode: str, pycache: Path) -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX", "PYTHONPATH")}
    env["PYTHONPATH"] = str(src)
    if mode == "source":
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    else:
        env["PYTHONPYCACHEPREFIX"] = str(pycache)
    return env


def run_once(argv, env, cwd) -> tuple[float, bytes]:
    start = time.perf_counter()
    done = subprocess.run(argv, env=env, cwd=cwd, capture_output=True)
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"{argv} exited {done.returncode}: {done.stderr.decode()[-500:]}")
    return elapsed, done.stdout


def summary(times: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", default="HEAD", help="git revision of the parent tree")
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)

    cases = [*CONFIGS, "build-24"]
    with tempfile.TemporaryDirectory(prefix="cold-process-") as tmp:
        tmp = Path(tmp)
        trees = {"parent": extract(args.parent, tmp / "parent"),
                 "change": Path(shutil.copytree(
                     ROOT / "src", tmp / "change" / "src",
                     ignore=shutil.ignore_patterns("__pycache__", "*.egg-info")))}
        configs, work = tmp / "configs", tmp / "cwd"
        configs.mkdir()
        work.mkdir()
        for case, doc in CONFIGS.items():
            (configs / f"{case}.json").write_text(json.dumps(doc))
        pycache = tmp / "pycache"

        def env(side, mode):
            return environment(trees[side], mode, pycache)

        expected = {}
        for case in CONFIGS:       # also fills the bytecode cache
            outputs = {side: run_once(command(case, configs), env(side, "bytecode"), work)[1]
                       for side in trees}
            if outputs["parent"] != outputs["change"]:
                raise RuntimeError(f"{case}: stdout differs between parent and change")
            expected[case] = outputs["parent"]
        for side in trees:
            run_once(command("build-24", configs), env(side, "bytecode"), work)

        times = {case: {mode: {"parent": [], "change": []} for mode in MODES} for case in cases}
        for pair in range(PAIRS):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for case in cases:
                for mode in MODES:
                    for side in order:
                        elapsed, out = run_once(command(case, configs), env(side, mode), work)
                        if case == "build-24":
                            elapsed = float(out)
                        elif out != expected[case]:
                            raise RuntimeError(f"{case}: {side} stdout changed in pair {pair + 1}")
                        times[case][mode][side].append(elapsed)
            print(f"pair {pair + 1} of {PAIRS} done", file=sys.stderr)

    results = {}
    for case in cases:
        for mode in MODES:
            parent, change = times[case][mode]["parent"], times[case][mode]["change"]
            results[f"{case}/{mode}"] = {
                "parent_s": parent, "change_s": change,
                "parent": summary(parent), "change": summary(change),
                "change_wins": sum(c < p for p, c in zip(parent, change)),
                "speedup": statistics.median(parent) / statistics.median(change),
            }
    record = {
        "what": "wall seconds of fresh `python -m fdsim.cli` processes (build-24: the "
                "child's own seconds to build all 24 programs after its imports)",
        "parent": args.parent, "change": "working tree",
        "pairs": PAIRS,
        "host": {"python": platform.python_version(), "numpy": numpy.__version__,
                 "machine": platform.machine(), "cpus": os.cpu_count()},
        "results": results,
    }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    for key, r in results.items():
        print(f"{key:28s} parent {r['parent']['median'] * 1e3:8.1f} ms  "
              f"change {r['change']['median'] * 1e3:8.1f} ms  "
              f"x{r['speedup']:.3f}  wins {r['change_wins']}/{PAIRS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
