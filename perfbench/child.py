"""One workload in a fresh process; prints one JSON record as its last line.

Run by ``run.py``, never directly by a user.  With ``--setup-only`` it imports
detcouple and builds the workload's inputs, and reports how long that took.
Otherwise it also runs one tiny warm-up operation (lazy imports, first-call
set-up), then timed operations until the next one would overrun
``--seconds``.  With ``--trace 1`` untraced and traced operations alternate,
so the traced run measures its own overhead.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_library():
    sys.path.insert(0, str(SRC))
    import detcouple
    if Path(detcouple.__file__).resolve().parent != SRC / "detcouple":
        raise SystemExit(f"imported detcouple from {detcouple.__file__}, not {SRC}")
    import workloads
    return workloads


def _run_op(wl, inputs, index, tracer):
    """Time one operation, then check and digest its output (untimed)."""
    rec = {"op": index, "traced": tracer is not None, "failures": []}
    try:
        if tracer is not None:
            tracer.install(index)
        start = time.perf_counter()
        try:
            out = wl.run(inputs)
        finally:
            rec["wall_s"] = time.perf_counter() - start
            if tracer is not None:
                tracer.uninstall()
        rec["failures"] += wl.check(inputs, out)
        rec["digest"] = wl.digest(inputs, out)
        rec["work"] = wl.work(inputs, out)
    except Exception as exc:  # a failed op is counted and the run goes on
        rec["failures"].append(f"raised {exc.__class__.__name__}: {exc}")
    finally:
        wl.cleanup(inputs)
    if tracer is not None:
        rec["layers"] = tracer.layer_metrics(index)
        rec["untraced"] = list(tracer.untraced)
    return rec


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", default="full")
    ap.add_argument("--scratch", required=True)
    ap.add_argument("--spans", help="write the traced run's spans to this JSON file")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    workloads = _import_library()
    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.build(args.seed, args.size, args.scratch)
    setup_s = time.perf_counter() - _T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    from detcouple import sde
    import tracing

    _run_op(wl, wl.build(args.seed, "tiny", args.scratch), -1, None)   # warm-up
    tracer = tracing.Tracer() if args.trace else None
    ops = []
    start = time.perf_counter()
    while True:
        op_start = time.perf_counter()
        op_tracer = tracer if len(ops) % 2 == 1 else None
        ops.append(_run_op(wl, inputs, len(ops), op_tracer))
        last = time.perf_counter() - op_start
        pending = tracer is not None and len(ops) < 2   # one traced op at least
        if not pending and time.perf_counter() - start + last > args.seconds:
            break

    if tracer is not None and args.spans:
        last_traced = max(op["op"] for op in ops if op["traced"])
        Path(args.spans).write_text(json.dumps(tracer.span_records(last_traced)))
    worker_count = getattr(sde, "_worker_count", None)
    import numpy
    import scipy
    print(json.dumps({
        "setup_s": setup_s,
        "ops": ops,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "workers": worker_count(None) if worker_count else None,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
        "detcouple_threads": os.environ.get("DETCOUPLE_THREADS"),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
