"""The names the benchmark uses still exist.

``perfbench/spans.py`` wraps fdsim functions by the module and attribute
its callers look them up by, and ``perfbench/run.py`` turns the spans into
per-layer metrics by label (defining module plus function name).  A renamed
or moved function would make its metric read 0 without failing the
benchmark, so these checks load the tracer's tables, without changing
``sys.path``, and resolve every name.  The benchmark's other modules import
fdsim names inside their functions; a name that no longer resolves there
fails each op that reaches it, so every such import is resolved too.
"""

import ast
import importlib.util
import json
from collections import Counter
from pathlib import Path

import numpy as np

import fdsim.cli as cli
import fdsim.i2s as i2s

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SPANS_PATH = PERFBENCH / "spans.py"

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


def _fdsim_imports():
    """(file, module, name) of each ``from fdsim... import name`` in the
    benchmark's modules."""
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "fdsim":
                yield from ((path.name, node.module, alias.name) for alias in node.names)


def test_every_benchmark_import_resolves():
    imports = list(_fdsim_imports())
    assert ("guard.py", "fdsim.i2s", "decode") in imports
    missing = [(file, module, name) for file, module, name in imports
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []


def test_decode_gives_what_the_guard_reads():
    # perfbench/guard.py digests (device, left, right) of each decoded payload
    bus = i2s.BusConfig(i2s.BusMode.TDM_I2S, n_devices=2, frame_bits=16)
    words = np.array([[[1, 2], [3, 4]], [[5, 6], [7, 8]]])
    decoded = [[(p.device, p.left, p.right) for p in period]
               for period in i2s.decode(i2s.encode(bus, words), bus)]
    assert decoded == [[(0, 1, 2), (1, 3, 4)], [(0, 5, 6), (1, 7, 8)]]
