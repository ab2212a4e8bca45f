"""Self-test of the benchmark at tiny sizes (about 20 seconds).

    python3 perfbench/selftest.py

Checks that every workload prints every metric of BENCHMARK.json with its
unit, traced and untraced; that each output check rejects a corrupted
output; that a wrong digest reads as not identical; that the tracer restores
what it wraps and reports a missing name instead of raising; and that the
benchmark fails without a result when the library sources are absent.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from detcouple import sde  # noqa: E402

SCRATCH = run.SCRATCH / "selftest"
problems = []


def expect(cond, what):
    print(f"[{'ok' if cond else 'FAIL'}] {what}")
    if not cond:
        problems.append(what)


def bench(cwd: Path, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def metrics_printed():
    for name in run.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = bench(ROOT, "--workload", name, "--seed", "3", "--seconds", "0",
                         "--size", "tiny", "--trace", str(trace))
            what = f"{name} --trace {trace}"
            if proc.returncode != 0:
                expect(False, f"{what} exits 0: {proc.stderr[-500:]}")
                continue
            *_, report, result = proc.stdout.strip().splitlines()
            result, report = json.loads(result), json.loads(report)
            want = {m["name"]: m["unit"] for m in run.BENCH[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{what}: result has exactly the four keys")
            expect(got == want, f"{what}: every {key} metric printed with its unit")
            expect(all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()),
                   f"{what}: every value is a number")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{what}: tiny outputs pass their checks")
            expect(report["outputs_identical"] is True,
                   f"{what}: outputs identical across {report['ops']} ops")
            expect(report["provenance"]["workers"] is not None,
                   f"{what}: provenance has the worker count")


def corrupted_outputs_fail():
    SCRATCH.mkdir(parents=True, exist_ok=True)
    for name in run.WORKLOADS:
        wl = workloads.WORKLOADS[name]
        inp = wl.build(5, "tiny", SCRATCH)
        try:
            out = wl.run(inp)
            expect(wl.check(inp, out) == [], f"{name}: genuine tiny output passes")
            if name == "e3-csv":
                csv = inp["out"] / "paths.csv"
                csv.write_text("".join(csv.read_text().splitlines(True)[:-1]))
            else:
                out[2][0] = 1e-11
            expect(wl.check(inp, out) != [], f"{name}: corrupted output fails its check")
        finally:
            wl.cleanup(inp)

    ops = [{"digest": {"a": "1"}}, {"digest": {"a": "1"}}]
    expect(run._compare(ops, {"a": "1"}) == (True, "match"), "matching digests read as identical")
    expect(run._compare(ops, {"a": "2"}) == (False, "mismatch"), "a wrong golden digest fails")
    expect(not run._compare(ops + [{"digest": {"a": "3"}}], None)[0],
           "ops with differing digests are not identical")


def tracer_is_transparent():
    original = sde._advance_batch
    tracing.LAYERS["missing.layer"] = ("detcouple.sde", ("no_such_function",))
    tracer = tracing.Tracer()
    try:
        tracer.install(0)
        expect(sde._advance_batch is not original, "tracer wraps sde._advance_batch")
        expect(any(u.startswith("missing.layer") for u in tracer.untraced),
               "a missing traced name is reported as untraced")
    finally:
        tracer.uninstall()
        del tracing.LAYERS["missing.layer"]
    expect(sde._advance_batch is original, "tracer restores what it wrapped")


def fails_without_sources():
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.iterdir():
        if path.is_file():
            shutil.copy(path, bare / "perfbench")
    proc = bench(bare, "--workload", "e3-csv", "--seed", "0", "--seconds", "1", "--trace", "0")
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "without src/ the benchmark exits non-zero and prints no result")
    shutil.rmtree(bare)


if __name__ == "__main__":
    metrics_printed()
    corrupted_outputs_fail()
    tracer_is_transparent()
    fails_without_sources()
    shutil.rmtree(SCRATCH, ignore_errors=True)
    print(f"{len(problems)} problem(s)")
    sys.exit(1 if problems else 0)
