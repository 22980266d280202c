"""In-memory span tracer for the traced benchmark run.

The tracer wraps fdsim's public functions at the names their callers look
them up by (a module global or a class attribute), records one span per
call, and restores every original on ``uninstall``.  Untraced runs never
construct a tracer, so they patch nothing.

A span is (name, start, end, parent span, op id).  Spans live in flat
typed arrays while the run is going and are written out once, at the end.
A span's self time is its duration minus the durations of its child spans;
calls are synchronous, so children never overlap each other.
"""

from __future__ import annotations

import importlib
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

NO_PARENT = -1

# (module the caller looks the name up in, attribute path).  The span name is
# the defining module plus the function name, so its prefix is the layer.
WARM_POINTS = (
    ("fdsim.cli", "main"),
    ("fdsim.cli", "load_config"),
    ("fdsim.cli", "run_experiment"),
    ("fdsim.harness", "build_fft_input"),
    ("fdsim.harness", "build_payloads"),
    ("fdsim.harness", "load_quantized"),
    ("fdsim.harness", "fft_fixed"),
    ("fdsim.harness", "read_spectrum"),
    ("fdsim.harness", "fft_reference"),
    ("fdsim.harness", "total_cycle_model"),
    ("fdsim.harness", "encode"),
    ("fdsim.harness", "decode"),
    ("fdsim.harness", "measure_latency"),
    ("fdsim.fft", "quantize"),
    ("fdsim.fft", "twiddle_lookup"),
    ("fdsim.fft", "butterfly"),
    ("fdsim.fixedpoint", "sat_round"),
    ("fdsim.fft", "pack_samples"),
    ("fdsim.fft", "unpack_samples"),
    ("fdsim.fft", "load_samples"),
    ("fdsim.fft", "read_samples"),
    ("fdsim.membank", "BankedMemory.access"),
)
# Functions whose first call per argument tuple builds a cached table.
BUILD_POINTS = (
    ("fdsim.fft", "twiddle_table"),
    ("fdsim.fft", "schedule_stage"),
    ("fdsim.fft", "schedule_reorder"),
    ("fdsim.schedule", "schedule_reorder"),
)
ALL_POINTS = WARM_POINTS + BUILD_POINTS


def _count_access(counts, args, result):
    requests = args[2] if len(args) > 2 else args[1]
    writes = sum(1 for r in requests if r.write)
    counts["membank.write_requests"] += writes
    counts["membank.read_requests"] += len(requests) - writes
    counts["membank.completed"] += len(result.completed)
    counts["membank.rejected"] += len(result.rejected)


def _count_encode(counts, args, result):
    counts["i2s.encode_ticks"] += result.n_ticks


def _count_decode(counts, args, result):
    counts["i2s.decode_ticks"] += args[0].n_ticks


HOOKS = {
    "membank.BankedMemory.access": _count_access,
    "i2s.encode": _count_encode,
    "i2s.decode": _count_decode,
}


def _resolve(module, path):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Records spans for calls into the wrapped fdsim functions."""

    def __init__(self, points=ALL_POINTS):
        self.points = points
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name = array("i")
        self.op = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.cold = array("b")
        self.counts: Counter = Counter()
        self.current_op = -1
        self._stack = [NO_PARENT]
        self._seen_keys: set = set()
        self._saved: list = []

    def __len__(self):
        return len(self.start)

    def install(self):
        for module, path in self.points:
            owner, attr = _resolve(module, path)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, (module, path) in BUILD_POINTS))
        return self

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, fn, is_build):
        label = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"
        name_id = self.name_ids.setdefault(label, len(self.names))
        if name_id == len(self.names):
            self.names.append(label)
        hook = HOOKS.get(label)
        stack, seen = self._stack, self._seen_keys
        names, ops, parents = self.name, self.op, self.parent
        starts, ends, colds = self.start, self.end, self.cold

        def wrapper(*args, **kwargs):
            sid = len(starts)
            names.append(name_id)
            ops.append(self.current_op)
            parents.append(stack[-1])
            ends.append(0.0)
            if is_build:
                key = (name_id, args, tuple(sorted(kwargs.items())))
                colds.append(key not in seen)
                seen.add(key)
            else:
                colds.append(False)
            stack.append(sid)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(self.counts, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- analysis -----------------------------------------------------------

    def arrays(self):
        """Spans as numpy arrays: name, op, parent, start, end, cold, self."""
        name = np.array(self.name, dtype=np.int32)
        parent = np.array(self.parent, dtype=np.int64)
        start = np.array(self.start, dtype=np.float64)
        end = np.array(self.end, dtype=np.float64)
        duration = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=duration[has_parent],
                            minlength=len(duration))
        return {"name": name, "op": np.array(self.op, dtype=np.int32),
                "parent": parent, "start": start, "end": end,
                "cold": np.array(self.cold, dtype=bool),
                "duration": duration, "child": child,
                "self": duration - child}

    @staticmethod
    def nesting_violations(a) -> int:
        """Spans of ``arrays()`` output that leave their parent's interval or
        overlap a sibling.

        Zero means every parent's children are disjoint and inside it, so
        its self time plus its children's durations is its duration.
        """
        parent, start, end = a["parent"], a["start"], a["end"]
        child = np.nonzero(parent >= 0)[0]
        outside = ((start[child] < start[parent[child]])
                   | (end[child] > end[parent[child]])).sum()
        order = child[np.lexsort((start[child], parent[child]))]
        siblings = parent[order[1:]] == parent[order[:-1]]
        overlap = (siblings & (start[order[1:]] < end[order[:-1]])).sum()
        return int(outside + overlap)

    def totals(self, a, mask=None):
        """Per span name over ``arrays()`` output, optionally masked: calls,
        inclusive seconds, self seconds, child seconds."""
        out = {}
        for nid, label in enumerate(self.names):
            sel = a["name"] == nid if mask is None else mask & (a["name"] == nid)
            out[label] = {"calls": int(sel.sum()),
                          "incl_s": float(a["duration"][sel].sum()),
                          "self_s": float(a["self"][sel].sum()),
                          "child_s": float(a["child"][sel].sum())}
        return out

    def save(self, path, a):
        np.savez_compressed(path, names=np.array(self.names),
                            **{k: a[k] for k in ("name", "op", "parent",
                                                 "start", "end", "cold")})
