"""Host-speed probe used to normalize host times.

On a small shared VM the host's speed drifts by 15-30% over a few seconds
(with no steal time), and a pure-Python integer loop slows in step with the
simulator.  The benchmark times this fixed loop next to the work it measures
and scales the work's time to ``NOMINAL_S``, the loop's time on the 2-core
Xeon host the benchmark was tuned on, so host-speed swings cancel.  The loop
and the constant must never change: every normalized figure depends on them.
"""

import statistics
import time

ITERATIONS = 20000
NOMINAL_S = 0.0017
WINDOW = 4          # reference samples on each side of an op


def reference_s() -> float:
    """Host seconds for the fixed reference loop."""
    start = time.perf_counter()
    acc = 0
    for i in range(ITERATIONS):
        acc += i * i % 7
    return time.perf_counter() - start


def scale_factors(refs: list[float]) -> list[float]:
    """Per-sample factor NOMINAL_S / (median of the reference samples
    within WINDOW places of it)."""
    return [NOMINAL_S / statistics.median(refs[max(0, k - WINDOW):k + WINDOW + 1])
            for k in range(len(refs))]
