"""Self-checks of the benchmark itself.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import guard  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def test_declared_metrics_are_well_formed():
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert len(names) == len(set(names))
    for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert m["unit"] and m["better"] in ("lower", "higher"), m
    for m in BENCHMARK["end_to_end"]:
        assert 0 < m["bound"] <= 0.25, m
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_equal_declared(trace, kind):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "i2s-tdm16",
         "--seed", "5", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = {m["name"]: m["unit"] for m in BENCHMARK[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for name in declared:
        assert f"  {name} " in proc.stdout


def test_workloads_depend_only_on_seed():
    assert workloads.make_ops("fft-grid", 3) == workloads.make_ops("fft-grid", 3)
    assert workloads.make_ops("fft-grid", 3) != workloads.make_ops("fft-grid", 4)
    sizes = {w: len(workloads.make_ops(w, 1)) for w in workloads.WORKLOADS}
    assert sizes == {"fft-max": 3, "fft-grid": 72, "i2s-tdm16": 16}
    assert {op["name"] for op in guard.guard_ops("fft-max")} == {
        op["name"] for op in workloads.make_ops("fft-max", 1)}


def _guard_run(op, tmp_path):
    out_dir = tmp_path / op["name"]
    out_dir.mkdir()
    path = out_dir / "config.json"
    path.write_text(json.dumps(guard.guard_config(op)))
    code, stdout, _ = run.call_cli(guard.guard_argv(op, path, out_dir))
    assert code == 0
    return json.loads(stdout), out_dir


@pytest.mark.parametrize("workload,index", [("fft-grid", 0), ("i2s-tdm16", 0)])
def test_perturbed_golden_fails_guard(workload, index, tmp_path):
    goldens = guard.load_goldens()
    op = guard.guard_ops(workload)[index]
    report, out_dir = _guard_run(op, tmp_path)
    assert guard.check_report(goldens, op, report) == []
    assert guard.check_guard_output(goldens, op, out_dir) == []

    bad = json.loads(json.dumps(goldens))
    if op["verb"] == "fft":
        bad["cycle_stats"][guard.fft_key(op["config"])]["stall_cycles"] += 1
        bad["fft_spectrum"][op["name"]] = "0" * 64
    else:
        bad["i2s_report"][op["name"]]["timeline_ticks"] += 2
        bad["i2s_digest"][op["name"]]["payloads"] = "0" * 64
    assert guard.check_report(bad, op, report)
    assert guard.check_guard_output(bad, op, out_dir)


def test_flipped_memory_word_fails_guard(tmp_path):
    goldens = guard.load_goldens()
    op = guard.guard_ops("fft-grid")[0]
    _, out_dir = _guard_run(op, tmp_path)
    image = out_dir / "memory.bin"
    words = np.fromfile(image, dtype="<u4")
    words[1] ^= 1
    words.tofile(image)
    assert guard.check_guard_output(goldens, op, out_dir)


def test_tracer_restores_every_wrapped_name():
    import fdsim.fft
    import fdsim.membank

    before = {(m, p): getattr(*spans._resolve(m, p)) for m, p in spans.ALL_POINTS}
    with spans.Tracer() as tracer:
        assert fdsim.fft.butterfly is not before[("fdsim.fft", "butterfly")]
        fdsim.membank.BankedMemory().access(0, [])
    assert tracer.names and len(tracer.start) == 1
    after = {(m, p): getattr(*spans._resolve(m, p)) for m, p in spans.ALL_POINTS}
    assert after == before


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fft-max", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170, check=False)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
