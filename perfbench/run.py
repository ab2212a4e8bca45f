"""Path-step benchmark of detcouple: one workload per invocation.

    python3 perfbench/run.py --workload e3-csv --seed 0 --seconds 60 --trace 0

Run from the root of a source checkout; detcouple is imported from its
``src/`` and nowhere else, so a directory without the library fails.  The
workload runs in a fresh child process with ``DETCOUPLE_THREADS`` unset, so
the library picks its default worker count.  With ``--trace 0`` the result
carries the end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` the
per-layer metrics, from a run that alternates untraced and traced
operations.  Before the result, one JSON line reports the op times, output
digests, ``outputs_identical``, any failures and the provenance.  The last
line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

``--record-golden`` runs one untraced operation and stores its digests in
``perfbench/golden.json`` under the seed; later runs compare against them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench_out"
GOLDEN = HERE / "golden.json"
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
SETUP_PROBES = 4        # extra fresh processes timed for setup_s, besides the run's own
DEADLINE_S = 170.0      # the whole invocation must end within 180 s


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _child(args: list[str], deadline: float) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "DETCOUPLE_THREADS"}
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), *args],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("workload process overran the time limit")
    if proc.returncode != 0:
        raise BenchError(f"workload process exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("workload process printed nothing")
    return json.loads(lines[-1])


def _provenance(rec: dict) -> dict:
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "detcouple").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "workers": rec["workers"], "detcouple_threads": rec["detcouple_threads"],
            "machine": platform.machine(), **rec["versions"],
            "git_commit": commit, "src_sha256": src.hexdigest()}


def _load_golden() -> dict:
    return json.loads(GOLDEN.read_text())


def _compare(ops: list[dict], golden: dict | None) -> tuple[bool, str]:
    """Digests agree across all ops (traced or not) and with the golden, if any."""
    digests = [op["digest"] for op in ops if "digest" in op]
    same = len(digests) == len(ops) and all(d == digests[0] for d in digests)
    if golden is None:
        return same, "absent"
    match = same and digests[0] == golden
    return match, "match" if match else "mismatch"


def _metrics(spec: list[dict], values: dict) -> dict:
    missing = [m["name"] for m in spec if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def run(args) -> int:
    deadline = time.monotonic() + DEADLINE_S
    SCRATCH.mkdir(exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--size", args.size, "--scratch", str(SCRATCH)]
    probes = []
    if not args.trace:
        probes = [_child(common + ["--setup-only"], deadline)["setup_s"]
                  for _ in range(SETUP_PROBES)]
    rec = _child(common + ["--seconds", str(args.seconds), "--trace", str(args.trace),
                           "--spans", str(SCRATCH / f"spans-{args.workload}.json")],
                 deadline)

    ops = rec["ops"]
    plain = [op for op in ops if not op["traced"]]
    traced = [op for op in ops if op["traced"]]
    failed = sum(1 for op in ops if op["failures"])
    golden = None
    if args.size == "full":
        golden = _load_golden()["digests"].get(str(args.seed), {}).get(args.workload)
    identical, golden_state = _compare(ops, golden)
    wall = statistics.median(op["wall_s"] for op in plain)
    if args.trace:
        # median_low keeps counts whole: every value is one traced op's own
        layers = {name: statistics.median_low(op["layers"][name] for op in traced)
                  for name in traced[0]["layers"]}
        layers["trace.overhead_s"] = statistics.median(op["wall_s"] for op in traced) - wall
        metrics = _metrics(BENCH["per_layer"], layers)
    else:
        work = max((op.get("work", 0) for op in ops), default=0)
        metrics = _metrics(BENCH["end_to_end"], {
            "wall_s": wall,
            "path_steps_per_s": work / wall,
            "setup_s": statistics.median(probes + [rec["setup_s"]]),
            "peak_rss_mb": rec["peak_rss_kb"] / 1024.0,
            "pass_ratio": (len(ops) - failed) / len(ops),
        })

    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "size": args.size,
        "ops": len(ops), "op_wall_s": [op["wall_s"] for op in ops],
        "setup_samples_s": probes + [rec["setup_s"]],
        "outputs_identical": identical, "golden": golden_state,
        "digest": ops[0].get("digest"),
        "untraced_layers": sorted({u for op in traced for u in op["untraced"]}),
        "failures": [f"op {op['op']}: {f}" for op in ops for f in op["failures"]],
        "provenance": _provenance(rec),
    }))
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


def record_golden(args) -> int:
    deadline = time.monotonic() + DEADLINE_S
    SCRATCH.mkdir(exist_ok=True)
    rec = _child(["--workload", args.workload, "--seed", str(args.seed), "--size", "full",
                  "--scratch", str(SCRATCH), "--seconds", "0"], deadline)
    op = rec["ops"][0]
    if op["failures"]:
        raise BenchError(f"not recording a failing output: {op['failures']}")
    golden = _load_golden()
    golden["digests"].setdefault(str(args.seed), {})[args.workload] = op["digest"]
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"seed": args.seed, "workload": args.workload, "digest": op["digest"]}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, help="workload seed (default: golden.json default_seed)")
    ap.add_argument("--seconds", type=float, default=10.0, help="measuring time per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny sizes are for the self-test only")
    ap.add_argument("--record-golden", action="store_true")
    args = ap.parse_args(argv)
    try:
        if not (ROOT / "src" / "detcouple" / "__init__.py").is_file():
            raise BenchError(f"no detcouple sources under {ROOT / 'src'}")
        if args.seed is None:
            args.seed = _load_golden()["default_seed"]
        if args.seed < 0:
            raise BenchError("--seed must be non-negative")
        return record_golden(args) if args.record_golden else run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
