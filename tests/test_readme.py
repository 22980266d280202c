"""The README's tables are the one declaration of what each report kind
emits and what each config section reads; these tests hold them to the code.

A table belongs to the ``###`` heading above it, and each of its rows
names one key, in backticks, in its first cell.  A report table's second
cell is the key's role: ``check``, ``metric`` or ``column`` of
``summary.csv``.
"""

import csv
import re
from itertools import chain
from pathlib import Path

import fdsim.harness as harness

README = Path(__file__).resolve().parent.parent / "README.md"
LEDGER = "The paper's figures"

# report kind -> the sections of one small config of it; the tone input
# makes an fft-run emit every check it can
SMALL_RUNS = {
    "fft-run": {"fft": {"n_points": 8, "dtype": "C16",
                        "input": {"source": "tone", "bin": 1}}},
    "fft-sweep": {"sweep": {"dtypes": ["C64", "C16"], "n_points": [8, 16]}},
    "i2s-run": {"i2s": {"mode": "tdm-dsp", "n_devices": 2, "frame_bits": 16,
                        "periods": 1}},
    "i2s-sweep": {"sweep": {"modes": ["tdm-i2s", "tdm-dsp"], "n_devices": [1, 2],
                            "frame_bits": [16]},
                  "i2s": {"periods": 1}},
}
REPORT_TABLES = {f"`{kind}`": kind for kind in SMALL_RUNS}

# README heading -> the parse tables of ``fdsim.harness`` that read its section
CONFIG_TABLES = {
    "`fft` section of `fft-run`": ("JOB_KEYS", "FFT_RUN_KEYS"),
    "`input` section of `fft`": ("INPUT_KEYS",),
    "`sweep` section of `fft-sweep`": ("FFT_AXES",),
    "`fft` section of `fft-sweep`": ("FFT_SWEEP_KEYS",),
    "`i2s` section of `i2s-run`": ("BUS_KEYS", "I2S_RUN_KEYS"),
    "`payload` section of `i2s`": ("PAYLOAD_KEYS",),
    "`sweep` section of `i2s-sweep`": ("I2S_AXES",),
    "`i2s` section of `i2s-sweep`": ("I2S_SWEEP_KEYS",),
}


def readme_tables() -> dict:
    """{heading: [(key, second cell)]} of every key table in the README."""
    tables, heading = {}, None
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            heading = line.lstrip("#").strip()
        elif line.startswith("|"):
            tables.setdefault(heading, []).append(
                [cell.strip() for cell in line.strip("|").split("|")])
    assert set(tables) == {*REPORT_TABLES, *CONFIG_TABLES, LEDGER}, "a table no test reads"
    del tables[LEDGER]
    keyed = {}
    for heading, (header, rule, *rows) in tables.items():
        assert set(rule[0]) <= set("-:"), f"{heading}: no header row"
        for cells in rows:
            key = re.fullmatch(r"`([^`]+)`", cells[0])
            assert key, f"{heading}: row {cells[0]!r} names no key"
            keyed.setdefault(heading, []).append((key[1], cells[1]))
    return keyed


def assert_same_keys(label, documented, emitted):
    """The README rows of one table against the keys the code has for it."""
    rows = set(documented)
    assert len(rows) == len(documented), f"{label}: a repeated row"
    assert not emitted - rows, f"{label}: no README row for {sorted(emitted - rows)}"
    assert not rows - emitted, f"{label}: README rows the code lacks: {sorted(rows - emitted)}"


def test_report_tables_match_the_reports(tmp_path):
    tables = readme_tables()
    for heading, kind in REPORT_TABLES.items():
        config = harness.parse_config({"version": 1, "kind": kind, **SMALL_RUNS[kind]})
        report = harness.run_experiment(config, str(tmp_path / kind))
        emitted = {*(("check", key) for key in report.checks),
                   *(("metric", key) for key in report.metrics)}
        if kind.endswith("sweep"):
            with open(tmp_path / kind / "summary.csv", newline="") as f:
                emitted |= {("column", column) for column in next(csv.reader(f))}
        assert_same_keys(kind, [(role, key) for key, role in tables[heading]], emitted)


def test_config_tables_match_the_parse_tables():
    tables = readme_tables()
    parse_tables = [name for name, value in vars(harness).items()
                    if name.endswith(("_KEYS", "_AXES")) and isinstance(value, dict)]
    assert sorted(chain.from_iterable(CONFIG_TABLES.values())) == sorted(parse_tables)
    for heading, names in CONFIG_TABLES.items():
        read = {key for name in names for key in getattr(harness, name)}
        assert_same_keys(heading, [key for key, _ in tables[heading]], read)
