"""The names the benchmark's span tracer wraps still exist.

``perfbench/spans.py`` wraps fdsim functions by the module and attribute
its callers look them up by, and ``perfbench/run.py`` turns the spans into
per-layer metrics by label (defining module plus function name).  A renamed
or moved function would make its metric read 0 without failing the
benchmark, so these checks load the tracer's tables, without changing
``sys.path``, and resolve every name.
"""

import importlib.util
import json
from collections import Counter
from pathlib import Path

import fdsim.cli as cli

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"

# span labels perfbench/run.py reads for harness.input_s, harness.run_s and
# cli.config_s
HARNESS_LABELS = ("harness.build_fft_input", "harness.build_payloads",
                  "harness.run_experiment", "harness.load_config")
# the per-layer spans of one FFT op: each is called once per `fft run`
ONCE_PER_FFT_RUN = (("fdsim.harness", "build_fft_input"), ("fdsim.harness", "load_quantized"),
                    ("fdsim.harness", "fft_fixed"), ("fdsim.harness", "read_spectrum"),
                    ("fdsim.harness", "fft_reference"), ("fdsim.harness", "total_cycle_model"),
                    ("fdsim.cli", "load_config"))


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _wrapped_functions():
    spans = _spans()
    return [getattr(*spans._resolve(module, path)) for module, path in spans.ALL_POINTS]


def test_every_traced_name_resolves():
    assert all(callable(fn) for fn in _wrapped_functions())


def test_harness_labels_name_harness_functions():
    labels = {f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}": fn
              for fn in _wrapped_functions()}
    for label in HARNESS_LABELS:
        assert label in labels, label
        assert labels[label].__module__ == "fdsim.harness", label


def test_fft_run_calls_each_traced_name_once(tmp_path, capsys):
    spans = _spans()
    assert set(ONCE_PER_FFT_RUN) <= set(spans.WARM_POINTS)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"version": 1, "kind": "fft-run", "seed": 3,
                               "fft": {"n_points": 64, "dtype": "C32"}}))
    with spans.Tracer(ONCE_PER_FFT_RUN) as tracer:
        assert cli.main(["fft", "run", "--config", str(cfg), "--format", "json"]) == 0
    calls = Counter(tracer.names[i] for i in tracer.name)
    assert len(tracer.names) == len(ONCE_PER_FFT_RUN)
    assert calls == {label: 1 for label in tracer.names}
    assert cli.load_config.__module__ == "fdsim.harness"     # the tracer restored it
