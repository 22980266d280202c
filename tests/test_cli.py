"""The CLI's argument parsing: one argparse pass per command, and the same
exit code, stdout and stderr as parsing with the whole argparse tree."""

import argparse
import contextlib
import io
import json
import random

import pytest

import fdsim.cli as cli

GROUP_VERBS = {"fft": ("run", "sweep"), "i2s": ("run", "sweep"), "schedule": ("dump",)}
VERBS = {(group, verb) for group, verbs in GROUP_VERBS.items() for verb in verbs}

# one small config per kind; schedule dump reads an fft-run config
CONFIGS = {
    "fft-run": {"version": 1, "kind": "fft-run", "seed": 1,
                "fft": {"n_points": 8, "dtype": "C64"}},
    "fft-sweep": {"version": 1, "kind": "fft-sweep", "seed": 1,
                  "sweep": {"dtypes": ["C64"], "n_points": [8, 16]}},
    "i2s-run": {"version": 1, "kind": "i2s-run", "seed": 2,
                "i2s": {"mode": "tdm-i2s", "n_devices": 2, "periods": 1}},
    "i2s-sweep": {"version": 1, "kind": "i2s-sweep", "seed": 3,
                  "sweep": {"modes": ["tdm-dsp"], "n_devices": [1, 2], "frame_bits": [16]},
                  "i2s": {"periods": 1}},
}
# an fft-run whose impulse misses the SNR floor: exit 1
FAILING_CONFIG = {"version": 1, "kind": "fft-run",
                  "fft": {"n_points": 128, "dtype": "C64", "input": {"source": "impulse"}}}

CORPUS_SEED = 30
CORPUS_SIZE = 1200


@pytest.fixture
def paths(tmp_path, monkeypatch):
    # help is wrapped to COLUMNS, so the terminal must not decide it
    monkeypatch.setenv("COLUMNS", "100")
    found = {}
    for kind, doc in CONFIGS.items():
        found[kind] = tmp_path / f"{kind}.json"
        found[kind].write_text(json.dumps(doc))
    found["fails"] = tmp_path / "fails.json"
    found["fails"].write_text(json.dumps(FAILING_CONFIG))
    found["bad-json"] = tmp_path / "bad.json"
    found["bad-json"].write_text("{nope")
    found["missing"] = tmp_path / "missing.json"
    found["file"] = found["bad-json"]
    found["dir"] = tmp_path
    found["out"] = tmp_path / "out"
    return {k: str(v) for k, v in found.items()}


def _head(rng):
    """A group and verb, most often a known pair."""
    if rng.random() < 0.75:
        group = rng.choice(list(GROUP_VERBS))
        return [group, rng.choice(GROUP_VERBS[group])]
    return rng.choice([
        [], ["fft"], ["i2s"], ["schedule"], ["ff", "run"], ["fft", "ru"], ["fft", "dump"],
        ["schedule", "run"], ["run"], ["bogus", "run"], ["fft", "run", "run"],
        ["-h"], ["--help"], ["--he"], ["fft", "-h"], ["i2s", "--help"], ["schedule", "-h"],
        ["--", "fft", "run"], ["fft", "--", "run"], ["--config", "x"], ["-x", "fft", "run"],
        ["fft", "--seed", "1", "run"], ["fft", "RUN"], ["FFT", "run"], ["fft", "run", "-"]])


def _config(rng, paths, kind):
    """Most often the verb's own config."""
    return paths[rng.choice([kind] * 8 + list(CONFIGS)
                            + ["fails", "fails", "missing", "bad-json", "dir"])]


def _option(rng, paths, verb):
    """One option the verb takes, with a value it takes."""
    if verb == ("schedule", "dump"):
        return rng.choice([["--out", paths["out"]], ["--o", paths["out"]],
                           ["--stage", rng.choice(["0", "1", "2"])], ["--stage=1"],
                           ["--st", "0"], ["--reorder"], ["--re"]])
    options = [["--seed", rng.choice(["0", "3", "99", "007"])], ["--seed=4"],
               ["--se", "2"], ["--out", paths["out"]], [f"--out={paths['out']}"],
               ["--o", paths["out"]], ["--format", rng.choice(["text", "json"])],
               ["--format=json"], ["--fo", "json"], ["--f", "text"]]
    if verb == ("i2s", "run"):
        options += [["--timeline-dump"], ["--time"], ["--t"]]
    return rng.choice(options)


def _odd(rng, paths, kind):
    """An option that is unknown, misspelt, misplaced or given a bad value."""
    return rng.choice([
        ["--config"], ["--config="], [f"--config={_config(rng, paths, kind)}"],
        ["--conf", _config(rng, paths, kind)], ["-c", paths[kind]],
        ["--seed", rng.choice(["-1", "x", "1.5", ""])], ["--seed"],
        ["--out", ""], ["--out", paths["file"]], ["--format", rng.choice(["xml", "js", ""])],
        ["--timeline-dump"], ["--timeline-dump=1"], ["--stage", rng.choice(["9", "x", "-1"])],
        ["--reorder"], ["--reorder", "--stage", "0"], ["--stage", "1"],
        ["-h"], ["--help"], ["--he"], ["-hx"],
        ["foo"], ["--bogus"], ["-x"], ["--"], ["-"], ["--=x"], ["-5"]])


def _corpus(paths):
    """Every help level and the --stage/--reorder exclusion, then seeded
    random argvs."""
    corpus = [[], ["-h"], ["--help"]]
    for group, verbs in GROUP_VERBS.items():
        corpus += [[group], [group, "-h"], [group, "--help"]]
        corpus += [[group, verb, flag] for verb in verbs for flag in ("-h", "--help")]
    dump = ["schedule", "dump", "--config", paths["fft-run"]]
    corpus += [dump + ["--stage", "1", "--reorder"], dump + ["--reorder", "--stage", "0"],
               dump + ["--stage", "1"], dump + ["--reorder"], dump]
    rng = random.Random(CORPUS_SEED)
    while len(corpus) < CORPUS_SIZE:
        argv = _head(rng)
        verb = tuple(argv[:2])
        kind = "-".join(verb) if verb in VERBS and verb[0] != "schedule" else "fft-run"
        if rng.random() < 0.9:
            argv += ["--config", _config(rng, paths, kind)]
        for _ in range(rng.randrange(4)):
            argv += (_option(rng, paths, verb) if rng.random() < 0.85
                     else _odd(rng, paths, kind))
        if rng.random() < 0.1:
            tail = argv[2:]
            rng.shuffle(tail)
            argv[2:] = tail
        corpus.append(argv)
    return corpus


def _outcome(route, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = route(argv)
        except SystemExit as e:
            code = ("SystemExit", e.code)
    return code, out.getvalue(), err.getvalue()


def _whole_tree(argv):
    return cli.run_command(cli.build_parser().parse_args(argv))


def test_corpus_matches_whole_tree_parse(paths):
    corpus = _corpus(paths)
    assert len(corpus) >= 1000
    differ, codes = [], []
    for argv in corpus:
        want = _outcome(_whole_tree, argv)
        got = _outcome(cli.main, argv)
        codes.append(want[0])
        if got != want:
            differ.append((argv, want, got))
    assert not differ, differ[:3]
    # the corpus reaches help, usage errors and every command's exit codes
    for code in [0, 1, 2, ("SystemExit", 0), ("SystemExit", 2)]:
        assert codes.count(code) >= 10, code


@pytest.mark.parametrize("argv", [["--", "fft", "run"], ["fft", "run", "--config", "x", "y"],
                                  ["fft", "-h"], ["schedule", "dump", "--config", "x",
                                                  "--seed", "1"]],
                         ids=" ".join)
def test_whole_tree_parses_what_no_verb_parser_takes(argv, monkeypatch):
    progs = []
    real = argparse.ArgumentParser.parse_args

    def spy(self, *args, **kwargs):
        progs.append(self.prog)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", spy)
    with pytest.raises(SystemExit), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        cli.main(argv)
    assert progs == ["fdsim"]


@pytest.mark.parametrize("group, kind", [("fft", "fft-run"), ("i2s", "i2s-run")])
def test_one_parse_per_run(paths, monkeypatch, capsys, group, kind):
    progs = []
    real = argparse.ArgumentParser.parse_known_args

    def spy(self, *args, **kwargs):
        progs.append(self.prog)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", spy)
    assert cli.main([group, "run", "--config", paths[kind], "--format", "json"]) == 0
    assert progs == [f"fdsim {group} run"]
    assert json.loads(capsys.readouterr().out)["passed"] is True
