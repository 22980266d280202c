"""Set-up probe, run in a fresh interpreter by run.py.

Times ``import fdsim`` plus the first op of each distinct config of a
workload (which fills the twiddle and schedule caches), and reports that
time, the host-speed reference time around it, the process's peak RSS and
the ops' exit codes as one JSON line.
With a spans path it also traces the cold table builds and saves the spans.

    python3 perfbench/probe_setup.py ROOT OPS_JSON [SPANS_NPZ]
"""

import contextlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from hostspeed import reference_s


def main(argv):
    root, ops_path = Path(argv[0]), Path(argv[1])
    spans_path = argv[2] if len(argv) > 2 else None
    argvs = json.loads(ops_path.read_text())
    sys.path.insert(0, str(root / "src"))

    refs = [reference_s() for _ in range(5)]
    start = time.perf_counter()
    import fdsim.cli
    tracer = None
    if spans_path:
        from spans import BUILD_POINTS, Tracer
        tracer = Tracer(BUILD_POINTS).install()
    codes = []
    for i, op_argv in enumerate(argvs):
        if tracer is not None:
            tracer.current_op = i
        with contextlib.redirect_stdout(io.StringIO()):
            codes.append(fdsim.cli.main(op_argv))
    setup_s = time.perf_counter() - start
    refs += [reference_s() for _ in range(5)]

    result = {"setup_s": setup_s, "ref_s": statistics.median(refs),
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
              "exit_codes": codes}
    if tracer is not None:
        tracer.uninstall()
        arrays = tracer.arrays()
        tracer.save(spans_path, arrays)
        result["build"] = {label: t["incl_s"] for label, t in
                           tracer.totals(arrays, arrays["cold"]).items()}
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
