"""The two benchmark workloads: inputs from the seed, one operation, its checks.

Each workload turns the benchmark seed into library inputs (the library sees
only those), runs one operation, checks the output against the acceptance
thresholds the library itself uses, and digests the output bytes.  The
``tiny`` sizes exist for the self-test only; full sizes are what the
benchmark measures.

The library is called through module attributes (``cli.main``,
``verify.identity_scan_all``) so that the tracer's wrappers are seen.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from detcouple import cli, sde, verify


def library_seeds(seed: int, count: int) -> list[int]:
    """Library seeds derived from the benchmark seed (non-negative, < 2**32)."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def _sha(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable     # (seed, size, scratch_dir) -> inputs dict
    run: Callable       # inputs -> output
    check: Callable     # (inputs, output) -> list of failure messages
    digest: Callable    # (inputs, output) -> {part: sha256}
    work: Callable      # (inputs, output) -> work items (path-steps) in the op
    cleanup: Callable = lambda inputs: None


# ---------------------------------------------------------------------------
# detcouple simulate, in process: e3-csv


def _e3_build(seed, size, scratch):
    P, T = (1000, 1.0) if size == "full" else (5, 0.01)
    out = Path(scratch) / "e3-csv"
    argv = ["simulate", "--space", "euclidean", "--dim", "3",
            "--profile", "euclidean-max-growth", "--rho0", "1", "--paths", str(P),
            "--dt", "1e-3", "--T", str(T), "--tolerance", "0.1",
            "--seed", str(library_seeds(seed, 1)[0]), "--out", str(out)]
    return {"argv": argv, "out": out, "n_paths": P, "samples": len(sde.time_grid(1e-3, T))}


def _e3_run(inp):
    return cli.main(inp["argv"])


def _file_stats(path: Path):
    h = hashlib.sha256()
    lines = 0
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 22), b""):
            h.update(block)
            lines += block.count(b"\n")
    return h.hexdigest(), lines


def _e3_check(inp, code):
    fails = [] if code == 0 else [f"exit status {code}"]
    want = 1 + inp["n_paths"] * inp["samples"]
    _, lines = _file_stats(inp["out"] / "paths.csv")
    if lines != want:
        fails.append(f"paths.csv has {lines} lines, expected {want}")
    if not json.loads((inp["out"] / "summary.json").read_text())["pass"]:
        fails.append("summary.json reports pass = false")
    return fails


def _e3_digest(inp, code):
    return {name: _file_stats(inp["out"] / name)[0] for name in ("paths.csv", "summary.json")}


def _e3_work(inp, code):
    return inp["n_paths"] * (inp["samples"] - 1)


def _e3_cleanup(inp):
    shutil.rmtree(inp["out"], ignore_errors=True)


# ---------------------------------------------------------------------------
# identity scan plus the SO(3) rotation oracle: verify-scan


def _verify_build(seed, size, scratch):
    scan_seed, oracle_seed = library_seeds(seed, 2)
    samples, P = (100_000, 2000) if size == "full" else (200, 20)
    return {"samples": samples, "scan_seed": scan_seed, "oracle_seed": oracle_seed,
            "rho0": math.pi / 2, "dt": 1e-3, "T": 1.0 if size == "full" else 0.02,
            "n_paths": P}


def _verify_run(inp):
    reports = verify.identity_scan_all(inp["samples"], inp["scan_seed"])
    times, sup, fX, fY = verify.rotation_ensemble(inp["rho0"], inp["dt"], inp["T"],
                                                  inp["oracle_seed"], inp["n_paths"])
    return reports, times, sup, fX, fY


def _verify_check(inp, out):
    reports, _, sup, _, _ = out
    fails = [f"{r.name}: residual {r.statistic:.3g} > 1e-10"
             for r in reports if not r.statistic <= 1e-10]
    if not float(sup.max()) <= 1e-12:
        fails.append(f"rotation oracle sup {float(sup.max()):.3g} > 1e-12")
    return fails


def _verify_digest(inp, out):
    reports, _, sup, fX, fY = out
    scan = json.dumps([r.to_dict() for r in reports], sort_keys=True).encode()
    return {"scan": hashlib.sha256(scan).hexdigest(), "oracle": _sha(sup, fX, fY)}


def _verify_work(inp, out):
    reports, times = out[0], out[1]
    return inp["n_paths"] * (times.size - 1) + sum(r.ensemble for r in reports)


WORKLOADS = {w.name: w for w in (
    Workload("e3-csv", _e3_build, _e3_run, _e3_check, _e3_digest, _e3_work, _e3_cleanup),
    Workload("verify-scan", _verify_build, _verify_run, _verify_check, _verify_digest,
             _verify_work),
)}
