"""fdsim benchmark: runs one workload through ``fdsim.cli.main`` in-process,
checks every output against frozen goldens and prints the metrics.

    python3 perfbench/run.py --workload fft-max --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics: set-up in fresh interpreters,
then a warm closed loop (one client, one thread) that runs the workload's
configs round-robin in whole rounds until ``--seconds`` have passed.
``--trace 1`` makes the separate traced run that gives the per-layer
metrics.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; a fuller record goes to
``.bench_out/results/``.  Declared metric names, units and directions come
from ``BENCHMARK.json``.
"""

from __future__ import annotations

import os

# One client, one process, one thread: keep numpy's BLAS from spinning up
# worker threads that would compete for the second core.  Set before numpy
# is first imported; the set-up interpreters inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import math
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy

import guard
import hostspeed
import workloads
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3
TAIL_MIN_BEYOND = 10
MAX_SPANS = 600_000        # bounds the traced run's memory (about 90 B a span)
# SNR floors frozen at the seed commit (fdsim.harness.SNR_FLOORS_DB), so the
# margin stays comparable if the program's floors change.
SNR_FLOORS_DB = {"C64": 158.2, "C32": 58.7, "C16": 7.9}
LAYERS = ("cli", "harness", "fft", "schedule", "fixedpoint", "membank", "i2s")


class Run:
    """Op bookkeeping shared by every phase of one benchmark run."""

    def __init__(self, goldens):
        self.goldens = goldens
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []
        self.reports: dict[str, dict] = {}     # op name -> latest report

    def record(self, op, code, stdout, extra_check=None):
        """Count one op and check its result against the goldens."""
        problems = []
        if code not in (0, 1):
            problems.append(f"{op['name']} exit code {code}")
        else:
            report = json.loads(stdout)
            self.reports[op["name"]] = report
            problems += guard.check_report(self.goldens, op, report)
            if extra_check:
                problems += extra_check()
        self.attempted += 1
        self.failed += code != 0 or bool(problems)
        self.mismatches += problems

    def record_crash(self, op):
        self.attempted += 1
        self.failed += 1
        self.mismatches.append(f"{op['name']} raised:\n{traceback.format_exc()}")


def call_cli(argv):
    """One op through the public CLI entry point, stdout captured."""
    import fdsim.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        start = time.perf_counter()
        code = fdsim.cli.main(argv)
        seconds = time.perf_counter() - start
    return code, buf.getvalue(), seconds


def write_configs(ops, directory: Path):
    paths = []
    for i, op in enumerate(ops):
        path = directory / f"op{i:03d}.json"
        path.write_text(json.dumps(op["config"]))
        paths.append(path)
    return paths


def op_argv(op, path):
    return [op["verb"], "run", "--config", str(path), "--format", "json"]


def probe_setup(argvs, work: Path, spans_path=None):
    """Run probe_setup.py in a fresh interpreter; returns its JSON result."""
    ops_file = work / "setup_ops.json"
    ops_file.write_text(json.dumps(argvs))
    cmd = [sys.executable, str(HERE / "probe_setup.py"), str(ROOT), str(ops_file)]
    if spans_path:
        cmd.append(str(spans_path))
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150,
                          check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def guard_pass(run, workload, work: Path):
    """Run the workload's configs at the guard seed, dumping and digesting
    their modeled output; this also warms the caches of this process."""
    for i, op in enumerate(guard.guard_ops(workload)):
        out_dir = work / f"guard{i:03d}"
        out_dir.mkdir()
        path = out_dir / "config.json"
        path.write_text(json.dumps(guard.guard_config(op)))
        try:
            code, stdout, _ = call_cli(guard.guard_argv(op, path, out_dir))
            run.record(op, code, stdout, lambda: guard.check_guard_output(
                run.goldens, op, out_dir))
        except Exception:
            run.record_crash(op)


def timed_rounds(run, ops, argvs, seconds, on_op=None):
    """Closed loop over whole rounds until ``seconds`` have passed.

    After each op, outside its timing, the host-speed reference loop runs
    once.  Returns (config index, op seconds, reference seconds) per op.
    """
    samples = []
    start = time.perf_counter()
    while True:
        for i, (op, argv) in enumerate(zip(ops, argvs)):
            if on_op:
                on_op(len(samples))
            try:
                code, stdout, dt = call_cli(argv)
                samples.append((i, dt, hostspeed.reference_s()))
                run.record(op, code, stdout)
            except Exception:
                run.record_crash(op)
        if time.perf_counter() - start >= seconds:
            return samples


def tail(values):
    """Highest whole percentile leaving >= 10 samples beyond it (nearest
    rank); the median when there are too few samples for any higher one."""
    xs = sorted(values)
    n = len(xs)
    for p in range(99, 50, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= TAIL_MIN_BEYOND:
            return xs[rank - 1], p, n
    return xs[math.ceil(n / 2) - 1], 50, n


def sim_steps(report):
    """Simulated clock steps of one op: accelerator cycles or half-BCLK ticks."""
    m = report["metrics"]
    return m["total_cycles"] if "total_cycles" in m else m["timeline_ticks"]


def model_figures(run, ops):
    """Deterministic simulated figures for one pass over the config mix."""
    reports = [run.reports[op["name"]] for op in ops if op["name"] in run.reports]
    fft = [r["metrics"] for r in reports if "total_cycles" in r["metrics"]]
    margins = [m["snr_db"] - SNR_FLOORS_DB[m["dtype"]] for m in fft
               if isinstance(m["snr_db"], (int, float))]
    return {
        "error_rate": run.failed / max(run.attempted, 1),
        "sim_total_cycles": sum(m["total_cycles"] for m in fft),
        "sim_stall_cycles": sum(m["stall_cycles"] for m in fft),
        "sim_bus_ticks": sum(r["metrics"].get("timeline_ticks", 0) for r in reports),
        "snr_margin_db": min(margins) if margins else None,
    }


def timing(times, steps):
    """Median, tail and throughput figures of per-op times."""
    tail_s, tail_p, n = tail(times)
    return {"op_p50_s": statistics.median(times), "op_tail_s": tail_s,
            "ops_per_s": n / sum(times), "sim_steps_per_s": steps / sum(times)}, tail_p


def end_to_end(run, ops, samples, setups):
    """End-to-end metrics, host times normalized to nominal host speed;
    the raw host-time figures go into the extra record."""
    raw = [dt for _, dt, _ in samples]
    factors = hostspeed.scale_factors([ref for _, _, ref in samples])
    # whole rounds only, so every config of the mix is weighted equally
    steps = sum(sim_steps(run.reports[ops[i]["name"]]) for i, _, _ in samples)
    values, tail_p = timing([dt * f for dt, f in zip(raw, factors)], steps)
    raw_values, _ = timing(raw, steps)
    values.update({
        "setup_s": statistics.median(s["setup_s"] * hostspeed.NOMINAL_S / s["ref_s"]
                                     for s in setups),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in setups)})
    raw_values["setup_s"] = statistics.median(s["setup_s"] for s in setups)
    return values, {"op_tail_percentile": tail_p, "op_samples": len(raw),
                    "rounds": len(raw) // len(ops),
                    "host_speed": hostspeed.NOMINAL_S / statistics.median(
                        ref for _, _, ref in samples),
                    "raw_host_time": raw_values}


def _ratio(a, b):
    return a / b if b else 0.0


def per_layer(tracer, t, n_ops, build, overhead_ratio):
    c = tracer.counts

    def incl(*labels):
        return sum(t[x]["incl_s"] for x in labels) / n_ops

    def calls(label):
        return t[label]["calls"] / n_ops

    def layer_self(layer):
        return sum(v["self_s"] for k, v in t.items()
                   if k.startswith(layer + ".")) / n_ops

    requested = c["membank.read_requests"] + c["membank.write_requests"]
    return {
        "fixedpoint.butterfly_calls": calls("fixedpoint.butterfly"),
        "fixedpoint.butterfly_s": incl("fixedpoint.butterfly"),
        "fixedpoint.butterflies_per_s": _ratio(t["fixedpoint.butterfly"]["calls"],
                                               t["fixedpoint.butterfly"]["incl_s"]),
        "fixedpoint.sat_round_calls": calls("fixedpoint.sat_round"),
        "fixedpoint.sat_round_s": incl("fixedpoint.sat_round"),
        "fixedpoint.quantize_s": incl("fixedpoint.quantize"),
        "membank.access_calls": calls("membank.BankedMemory.access"),
        "membank.access_s": incl("membank.BankedMemory.access"),
        "membank.access_per_s": _ratio(t["membank.BankedMemory.access"]["calls"],
                                       t["membank.BankedMemory.access"]["incl_s"]),
        "membank.read_requests": c["membank.read_requests"] / n_ops,
        "membank.write_requests": c["membank.write_requests"] / n_ops,
        "membank.rejected": c["membank.rejected"] / n_ops,
        "membank.grant_ratio": _ratio(c["membank.completed"], requested),
        "membank.pack_s": incl("membank.pack_samples", "membank.unpack_samples",
                               "membank.load_samples", "membank.read_samples"),
        "schedule.stage_build_s": build.get("schedule.schedule_stage", 0.0),
        "schedule.reorder_build_s": build.get("schedule.schedule_reorder", 0.0),
        "schedule.lookup_s": incl("schedule.schedule_stage",
                                  "schedule.schedule_reorder"),
        "schedule.model_s": incl("schedule.total_cycle_model"),
        "fft.fixed_s": incl("fft.fft_fixed"),
        "fft.fixed_self_s": t["fft.fft_fixed"]["self_s"] / n_ops,
        "fft.twiddle_build_s": build.get("fft.twiddle_table", 0.0),
        "fft.twiddle_lookup_s": incl("fft.twiddle_lookup", "fft.twiddle_table"),
        "fft.oracle_s": incl("fft.fft_reference"),
        "fft.load_s": incl("fft.load_quantized"),
        "fft.read_s": incl("fft.read_spectrum"),
        "i2s.encode_s": incl("i2s.encode"),
        "i2s.decode_s": incl("i2s.decode"),
        "i2s.latency_s": incl("i2s.measure_latency"),
        "i2s.encode_ticks_per_s": _ratio(c["i2s.encode_ticks"],
                                         t["i2s.encode"]["incl_s"]),
        "i2s.decode_ticks_per_s": _ratio(c["i2s.decode_ticks"],
                                         t["i2s.decode"]["incl_s"]),
        "harness.input_s": incl("harness.build_fft_input",
                                "harness.build_payloads"),
        "harness.run_s": incl("harness.run_experiment"),
        "harness.self_s": layer_self("harness"),
        "cli.config_s": incl("harness.load_config"),
        "cli.self_s": layer_self("cli"),
        "trace.overhead_ratio": overhead_ratio,
    }, {layer: layer_self(layer) for layer in LAYERS}


def traced_run(run, ops, argvs, seconds):
    """Alternate untraced and traced rounds until ``seconds`` have passed or
    MAX_SPANS are held; returns the tracer, traced op count and overhead."""
    tracer = Tracer()
    untraced_s = traced_s = 0.0
    traced_ops = 0
    start = time.perf_counter()
    while True:
        untraced_s += sum(dt for _, dt, _ in timed_rounds(run, ops, argvs, 0))
        with tracer:
            samples = timed_rounds(
                run, ops, argvs, 0,
                on_op=lambda k: setattr(tracer, "current_op", traced_ops + k))
        traced_ops += len(samples)
        traced_s += sum(dt for _, dt, _ in samples)
        if time.perf_counter() - start >= seconds or len(tracer) >= MAX_SPANS:
            break
    return tracer, traced_ops, traced_s / untraced_s


def git_commit():
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel",
                              "HEAD"], capture_output=True, text=True, timeout=10,
                             check=True).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return top[1] if Path(top[0]).resolve() == ROOT else "unknown"


def main(argv=None):
    parser = argparse.ArgumentParser(description="fdsim benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fdsim" / "cli.py").is_file():
        print(f"fdsim sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    meta = json.loads((HERE / "meta.json").read_text())
    declared = bench["per_layer" if args.trace else "end_to_end"]
    ops = workloads.make_ops(args.workload, args.seed)
    run = Run(guard.load_goldens())
    OUT.mkdir(exist_ok=True)
    (OUT / "results").mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        work = Path(tmp)
        argvs = [op_argv(op, p) for op, p in zip(ops, write_configs(ops, work))]
        setups = [probe_setup(argvs, work, OUT / f"{args.workload}.setup-spans.npz"
                              if args.trace else None)
                  for _ in range(1 if args.trace else SETUP_REPEATS)]
        for s in setups:
            run.attempted += len(s["exit_codes"])
            run.failed += sum(1 for c in s["exit_codes"] if c != 0)
            run.mismatches += [f"set-up op exit code {c}"
                               for c in s["exit_codes"] if c not in (0, 1)]
        guard_pass(run, args.workload, work)
        if args.trace:
            tracer, n_ops, overhead = traced_run(run, ops, argvs, args.seconds)
            arrays = tracer.arrays()
            tracer.save(OUT / f"{args.workload}.spans.npz", arrays)
            totals = tracer.totals(arrays)
            values, layer_s = per_layer(tracer, totals, n_ops, setups[0]["build"],
                                        overhead)
            extra = {"traced_ops": n_ops, "layer_self_s_per_op": layer_s,
                     "nesting_violations": Tracer.nesting_violations(arrays)}
            del arrays
        else:
            samples = timed_rounds(run, ops, argvs, args.seconds)
            values, extra = end_to_end(run, ops, samples, setups)
    figures = model_figures(run, ops)
    values.update({k: v for k, v in figures.items() if v is not None})
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"benchmark computes no value for {missing}", file=sys.stderr)
        return 1

    describe = {m["name"]: {"unit": m["unit"], "better": m["better"]}
                for m in bench["end_to_end"] + bench["per_layer"]}
    describe.update(meta["extra_metrics"])
    print(f"# fdsim benchmark  workload={args.workload} seed={args.seed} "
          f"trace={args.trace}")
    for name, value in values.items():
        print(f"  {name:30s} {value:>16.6g} {describe[name]['unit']}")
    for name, value in extra.items():
        print(f"  {name:30s} {value}")
    if args.trace:
        report_layers(totals, layer_s, n_ops, extra["nesting_violations"])
    for problem in run.mismatches[:20]:
        print(f"MISMATCH {problem}")

    result = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "commit": git_commit(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "why": next(w["why"] for w in bench["workloads"]
                    if w["name"] == args.workload),
        "metrics": {k: {"value": v, **describe[k]} for k, v in values.items()},
        "extra": extra, "mismatches": run.mismatches,
        "attempted": run.attempted, "failed": run.failed, **meta["notes"],
    }
    (OUT / "results" / f"{tag}.json").write_text(json.dumps(result, indent=1))
    print(json.dumps({
        "correct": not run.mismatches, "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared}}))
    return 0


def report_layers(totals, layer_s, n_ops, violations):
    op_s = totals["cli.main"]["incl_s"] / n_ops
    print(f"  traced op time {op_s:.6g} s; self time by layer:")
    for layer, s in sorted(layer_s.items(), key=lambda kv: -kv[1]):
        print(f"    {layer:12s} {s:.6g} s  {100 * s / op_s:5.1f}%")
    print(f"  largest layer: {max(layer_s, key=layer_s.get)}")
    fixed = totals["fft.fft_fixed"]
    if fixed["calls"]:
        gap = fixed["self_s"] + fixed["child_s"] - fixed["incl_s"]
        print(f"  fft.fixed_self_s + child spans - fft.fixed_s = {gap / n_ops:.3g} s "
              f"({100 * abs(gap) / fixed['incl_s']:.4f}% of fft.fixed_s); "
              f"{violations} spans outside their parent or overlapping a sibling")


if __name__ == "__main__":
    sys.exit(main())
