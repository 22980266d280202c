"""Command-line front end.

    fdsim fft run    --config cfg.json [--seed N] [--out DIR] [--format text|json]
    fdsim fft sweep  --config cfg.json ...
    fdsim i2s run    --config cfg.json [--out DIR [--timeline-dump]] ...
    fdsim i2s sweep  --config cfg.json ...
    fdsim schedule dump --config cfg.json [--stage N | --reorder] [--out DIR]

Exit codes: 0 all checks pass, 1 invariant failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from functools import lru_cache

from .fft import ConfigurationError
from .harness import load_config, make_out_dir, run_experiment
from .membank import BankedMemory
from .schedule import (dump_reorder_schedule, dump_stage_schedule,
                       schedule_reorder, schedule_stage)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2


def _add_common(parser):
    """Add the options every experiment verb takes; returns ``parser``."""
    parser.add_argument("--config", required=True, help="JSON experiment config")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="stdout report format")
    return parser


@lru_cache(maxsize=1)
def _parsers():
    """The argument tree and its ``(group, verb) -> verb parser`` map, built
    once per process; parsing leaves both unchanged."""
    parser = argparse.ArgumentParser(
        prog="fdsim",
        description="Cycle-level FFT engine / banked memory / audio bus model")
    top = parser.add_subparsers(dest="group", required=True)
    verbs = {}

    fft = top.add_parser("fft", help="fixed-point FFT experiments")
    fft_sub = fft.add_subparsers(dest="verb", required=True)
    verbs["fft", "run"] = _add_common(fft_sub.add_parser("run", help="one end-to-end FFT run"))
    verbs["fft", "sweep"] = _add_common(fft_sub.add_parser("sweep", help="size/dtype sweep"))

    i2s = top.add_parser("i2s", help="audio bus scenarios")
    i2s_sub = i2s.add_subparsers(dest="verb", required=True)
    verbs["i2s", "run"] = run = _add_common(
        i2s_sub.add_parser("run", help="encode/decode one scenario"))
    run.add_argument("--timeline-dump", action="store_true",
                     help="write timeline.vcd to the output directory")
    verbs["i2s", "sweep"] = _add_common(
        i2s_sub.add_parser("sweep", help="mode/device-count sweep"))

    sched = top.add_parser("schedule", help="inspect port schedules")
    sched_sub = sched.add_subparsers(dest="verb", required=True)
    verbs["schedule", "dump"] = dump = sched_sub.add_parser(
        "dump", help="print per-cycle transactions")
    dump.add_argument("--config", required=True,
                      help="fft-run config naming n_points and dtype")
    only = dump.add_mutually_exclusive_group()
    only.add_argument("--stage", type=int, default=None,
                      help="dump only this stage")
    only.add_argument("--reorder", action="store_true",
                      help="dump only the reorder pass")
    dump.add_argument("--out", default=None, help="output directory")
    return parser, verbs


def build_parser() -> argparse.ArgumentParser:
    """The argument tree, built once per process; parsing leaves it unchanged."""
    return _parsers()[0]


def parse_args(argv=None) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, in one argparse pass when it can be.

    An argv that starts with a known group and verb, and holds no ``--``,
    goes straight to that verb's parser, the one the tree would hand the
    rest to.  Anything else, and arguments that parser leaves over, go
    through the whole tree, so help, usage errors and exit codes stay
    argparse's own.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    tree, verbs = _parsers()
    parser = verbs.get(tuple(argv[:2]))
    if parser is not None and "--" not in argv:
        args, extras = parser.parse_known_args(
            argv[2:], argparse.Namespace(group=argv[0], verb=argv[1]))
        if not extras:
            return args
    return tree.parse_args(argv)


def _expected_kind(config, expected):
    if config.kind != expected:
        raise ConfigurationError(
            f"this command needs a {expected!r} config, got {config.kind!r}")


def _cmd_experiment(args, expected_kind):
    timeline_dump = getattr(args, "timeline_dump", False)
    if timeline_dump and args.out is None:
        raise ConfigurationError("--timeline-dump needs --out")
    config = load_config(args.config)
    _expected_kind(config, expected_kind)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    report = run_experiment(config, out_dir=args.out, timeline_dump=timeline_dump)
    sys.stdout.write(report.to_json() if args.format == "json"
                     else report.to_text())
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def _cmd_schedule_dump(args):
    config = load_config(args.config)
    _expected_kind(config, "fft-run")
    job = config.spec.job
    job.validate(BankedMemory())
    pieces = []
    if not args.reorder:
        stages = ([args.stage] if args.stage is not None
                  else range(job.n_points.bit_length() - 1))
        for s in stages:
            pieces.append(dump_stage_schedule(
                schedule_stage(job.n_points, job.dtype, s)))
    if args.reorder or args.stage is None:
        pieces.append(dump_reorder_schedule(
            schedule_reorder(job.n_points, job.dtype)))
    text = "\n".join(pieces)
    if args.out is not None:
        (make_out_dir(args.out) / "schedule.txt").write_text(text)
    sys.stdout.write(text)
    return EXIT_OK


def run_command(args) -> int:
    """Run the command that parsed ``args`` name; returns the exit code."""
    try:
        if args.group == "schedule":
            return _cmd_schedule_dump(args)
        kind = f"{args.group}-{args.verb}"
        return _cmd_experiment(args, kind)
    except ConfigurationError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as e:
        print(f"invalid argument: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as e:
        # every read maps its own OSError, so one that gets here is a write
        print(f"configuration error: cannot write output: {e}", file=sys.stderr)
        return EXIT_CONFIG


def main(argv=None) -> int:
    return run_command(parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
