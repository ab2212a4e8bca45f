"""Command-line front end: simulate / check / verify / converge.

Configuration comes from flags, optionally seeded by a flat key=value config
file (one key per line, ``#`` comments); flags override file values.  All
outputs are written deterministically: identical configuration and seed give
byte-identical files regardless of DETCOUPLE_THREADS.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import model_space as ms
from . import profiles as pf
from .errors import DetcoupleError, ValidationError
from .sde import EnsembleResult, simulate_ensemble
from .verify import (VerifyReport, convergence_study, distance_error_stats, identity_scan,
                     mean_decay_check, rotation_ensemble)

DEFAULTS = {
    "space": "sphere",
    "dim": 2,
    "K": None,            # per-space default: +1 / 0 / -1
    "profile": "constant",
    "rho0": None,
    "rho0_deg": None,
    "table": None,
    "dt": 1e-3,
    "T": 1.0,
    "paths": 100,
    "seed": 0,
    "enforce_distance": False,
    "clamp_derivative": False,
    "tolerance": 0.05,
    "csv_stride": 1,
    "samples": 20000,
    "dts": "1e-2,3e-3,1e-3,3e-4,1e-4",
    "out": ".",
}

_BOOL_KEYS = ("enforce_distance", "clamp_derivative")
_PROFILE_ALIASES = {
    "contracting": "sphere-contracting",
    "repulsive": "sphere-repulsive",
    "lower": "hyperbolic-lower",
    "upper": "hyperbolic-upper",
    "max-growth": "euclidean-max-growth",
}


@dataclass
class RunConfig:
    space: str
    dim: int
    K: float
    profile: str
    rho0: float
    table: str | None
    dt: float
    T: float
    paths: int
    seed: int
    enforce_distance: bool
    clamp_derivative: bool
    tolerance: float
    csv_stride: int
    samples: int
    dts: tuple[float, ...]
    out: Path


def _parse_file(path: str) -> dict:
    values = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in DEFAULTS:
            raise ValidationError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = val
    return values


def _coerce(key: str, val):
    if val is None or not isinstance(val, str):
        return val
    if key in _BOOL_KEYS:
        low = val.lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ValidationError(f"field {key}: expected a boolean, got {val!r}")
    if key in ("dim", "paths", "seed", "csv_stride", "samples"):
        return int(val)
    if key in ("K", "rho0", "rho0_deg", "dt", "T", "tolerance"):
        return float(val)
    return val


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="detcouple",
        description="Simulate and verify Brownian couplings with deterministic distance "
                    "on constant-curvature model spaces.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (
        ("simulate", "simulate a coupled ensemble; writes paths.csv and summary.json"),
        ("check", "check a profile's admissibility; writes admissibility.json"),
        ("verify", "run the verification suites; writes verify.json"),
        ("converge", "dt-convergence of the tracking error; writes converge.csv/.json"),
    ):
        p = sub.add_parser(name, help=doc)
        p.add_argument("--config", help="flat key=value configuration file")
        p.add_argument("--space", choices=["euclidean", "sphere", "hyperbolic"])
        p.add_argument("--dim", type=int, help="manifold dimension n >= 1")
        p.add_argument("--K", type=float, help="curvature (default +1/0/-1 per space)")
        p.add_argument("--profile", help="constant | sphere-contracting | sphere-repulsive | "
                                         "hyperbolic-lower | hyperbolic-upper | "
                                         "euclidean-max-growth | tabulated")
        p.add_argument("--rho0", type=float, help="initial distance (geodesic units)")
        p.add_argument("--rho0-deg", type=float, dest="rho0_deg",
                       help="initial distance in degrees (spheres only)")
        p.add_argument("--table", help="CSV file with header t,rho for tabulated profiles")
        p.add_argument("--dt", type=float)
        p.add_argument("--T", type=float)
        p.add_argument("--paths", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--enforce-distance", action="store_const", const=True,
                       dest="enforce_distance")
        p.add_argument("--clamp-derivative", action="store_const", const=True,
                       dest="clamp_derivative")
        p.add_argument("--tolerance", type=float, help="pass threshold for mean sup error")
        p.add_argument("--csv-stride", type=int, dest="csv_stride",
                       help="write every k-th sample to paths.csv")
        p.add_argument("--samples", type=int, help="identity-scan sample count (verify)")
        p.add_argument("--dts", help="comma-separated dt list (converge)")
        p.add_argument("--out", help="output directory")
    return parser


def parse_config(argv) -> tuple[str, RunConfig]:
    """Resolve flags over config-file values over defaults into a RunConfig."""
    args = _build_parser().parse_args(argv)
    merged = dict(DEFAULTS)
    if args.config:
        merged.update(_parse_file(args.config))
    for key in DEFAULTS:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
    merged = {k: _coerce(k, v) for k, v in merged.items()}

    space = merged["space"]
    if merged["K"] is None:
        merged["K"] = {"euclidean": 0.0, "sphere": 1.0, "hyperbolic": -1.0}[space]
    if merged["dim"] < 1:
        raise ValidationError(f"field dim: must be a positive integer, got {merged['dim']}")
    for key in ("dt", "tolerance"):
        if not merged[key] > 0:
            raise ValidationError(f"field {key}: must be positive, got {merged[key]}")
    if merged["T"] < 0:
        raise ValidationError(f"field T: must be non-negative, got {merged['T']}")
    for key in ("paths", "csv_stride", "samples"):
        if merged[key] < 1:
            raise ValidationError(f"field {key}: must be >= 1, got {merged[key]}")
    if not 0 <= merged["seed"] < 2**64:
        raise ValidationError(f"field seed: must lie in [0, 2**64), got {merged['seed']}")

    profile = _PROFILE_ALIASES.get(merged["profile"], merged["profile"])
    known = {k.value for k in pf.ProfileKind}
    if profile not in known:
        raise ValidationError(f"field profile: unknown profile {merged['profile']!r}")

    if merged["rho0_deg"] is not None:
        if space != "sphere":
            raise ValidationError("field rho0-deg: only meaningful on spheres")
        if merged["rho0"] is not None:
            raise ValidationError("fields rho0 and rho0-deg are mutually exclusive")
        r = 1.0 / np.sqrt(merged["K"])
        merged["rho0"] = np.radians(merged["rho0_deg"]) * r
    if merged["rho0"] is None:
        if profile != "tabulated":
            raise ValidationError("field rho0: required for closed-form profiles")
        merged["rho0"] = 0.0   # taken from the table

    try:
        dts = tuple(float(s) for s in str(merged["dts"]).split(",") if s.strip())
    except ValueError:
        raise ValidationError(f"field dts: expected comma-separated floats, got {merged['dts']!r}")

    cfg = RunConfig(space=space, dim=merged["dim"], K=merged["K"], profile=profile,
                    rho0=merged["rho0"], table=merged["table"], dt=merged["dt"],
                    T=merged["T"], paths=merged["paths"], seed=merged["seed"],
                    enforce_distance=merged["enforce_distance"],
                    clamp_derivative=merged["clamp_derivative"],
                    tolerance=merged["tolerance"], csv_stride=merged["csv_stride"],
                    samples=merged["samples"], dts=dts, out=Path(merged["out"]))
    return args.command, cfg


def build_space(cfg: RunConfig) -> ms.SpaceSpec:
    kind = ms.SpaceKind(cfg.space)
    return ms.SpaceSpec(kind, cfg.dim, cfg.K)


def build_profile(cfg: RunConfig, spec: ms.SpaceSpec):
    kind = pf.ProfileKind(cfg.profile)
    if kind is pf.ProfileKind.TABULATED:
        if not cfg.table:
            raise ValidationError("field table: required for tabulated profiles")
        prof = pf.tabulated_from_csv(cfg.table)
    elif kind is pf.ProfileKind.CONSTANT:
        prof = pf.constant(cfg.rho0)
    else:
        builder = {
            pf.ProfileKind.SPHERE_CONTRACTING: pf.sphere_contracting,
            pf.ProfileKind.SPHERE_REPULSIVE: pf.sphere_repulsive,
            pf.ProfileKind.HYPERBOLIC_LOWER: pf.hyperbolic_lower,
            pf.ProfileKind.HYPERBOLIC_UPPER: pf.hyperbolic_upper,
            pf.ProfileKind.EUCLIDEAN_MAX_GROWTH: pf.euclidean_max_growth,
        }[kind]
        prof = builder(spec, cfg.rho0)
    if cfg.clamp_derivative:
        prof = pf.ClampedProfile(spec, prof)
    return prof


# ---------------------------------------------------------------------------
# output files


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def write_paths_csv(path, result: EnsembleResult, stride: int = 1) -> None:
    """Per-sample rows ``t,path,dist,target,abs_err`` with 17 significant digits."""
    if result.d_emp is None:
        raise ValidationError("ensemble was run without recorded distances")
    idx = list(range(0, result.times.size, stride))
    if idx[-1] != result.times.size - 1:
        idx.append(result.times.size - 1)
    with open(path, "w", newline="") as fh:
        fh.write("t,path,dist,target,abs_err\n")
        for p in range(result.n_paths):
            dp = result.d_emp[p]
            for i in idx:
                t, d, g = result.times[i], dp[i], result.target[i]
                fh.write(f"{_fmt(t)},{p},{_fmt(d)},{_fmt(g)},{_fmt(abs(d - g))}\n")


def write_summary_json(path, result: EnsembleResult, cfg: RunConfig, passed: bool) -> None:
    summary = {
        "space": cfg.space,
        "n": cfg.dim,
        "K": cfg.K,
        "profile": cfg.profile,
        "dt": cfg.dt,
        "T": cfg.T,
        "paths": cfg.paths,
        "seed": cfg.seed,
        "mean_sup_err": result.mean_sup_err,
        "max_sup_err": result.max_sup_err,
        "rms_err": result.rms_err(),
        "pass": bool(passed),
    }
    Path(path).write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")


def _write_json(path, payload) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# subcommands


def _starts(spec, profile, cfg):
    rho0 = profile.rho0 if cfg.profile == "tabulated" else cfg.rho0
    return ms.canonical_start(spec, rho0)


def cmd_simulate(cfg: RunConfig) -> int:
    spec = build_space(cfg)
    profile = build_profile(cfg, spec)
    x0, y0 = _starts(spec, profile, cfg)
    result = simulate_ensemble(spec, profile, x0, y0, cfg.dt, cfg.T, cfg.seed, cfg.paths,
                               enforce_distance=cfg.enforce_distance, record_distances=True)
    passed = result.mean_sup_err <= cfg.tolerance
    cfg.out.mkdir(parents=True, exist_ok=True)
    write_paths_csv(cfg.out / "paths.csv", result, cfg.csv_stride)
    write_summary_json(cfg.out / "summary.json", result, cfg, passed)
    print(f"mean sup error {result.mean_sup_err:.6g} "
          f"(max {result.max_sup_err:.6g}) over {cfg.paths} paths -> "
          f"{'pass' if passed else 'FAIL'}")
    return 0 if passed else 1


def cmd_check(cfg: RunConfig) -> int:
    spec = build_space(cfg)
    profile = build_profile(cfg, spec)
    report = pf.check_admissibility(spec, profile, T=cfg.T if cfg.T > 0 else None)
    payload = {
        "space": cfg.space, "n": cfg.dim, "K": cfg.K, "profile": cfg.profile,
        "admissible": report.admissible,
        "first_violation_time": report.first_violation_time,
        "reasons": list(report.reasons),
        "lo_active": report.lo_active,
        "hi_active": report.hi_active,
        "min_lo_margin": float(np.nanmin(report.lo_margin)),
        "min_hi_margin": float(np.nanmin(report.hi_margin)),
    }
    cfg.out.mkdir(parents=True, exist_ok=True)
    _write_json(cfg.out / "admissibility.json", payload)
    if report.admissible:
        active = [s for s, a in (("lower", report.lo_active), ("upper", report.hi_active)) if a]
        extra = f" ({' and '.join(active)} bound active)" if active else ""
        print(f"admissible on [0, {cfg.T:.6g}]{extra}")
        return 0
    print(f"not admissible: {'; '.join(report.reasons)}", file=sys.stderr)
    return 1


def cmd_verify(cfg: RunConfig) -> int:
    spec = build_space(cfg)
    profile = build_profile(cfg, spec)
    x0, y0 = _starts(spec, profile, cfg)
    reports: list[VerifyReport] = [identity_scan(spec, cfg.samples, cfg.seed)]

    result = simulate_ensemble(spec, profile, x0, y0, cfg.dt, cfg.T, cfg.seed, cfg.paths,
                               enforce_distance=cfg.enforce_distance, record_distances=True)
    reports.append(distance_error_stats(result, tolerance=cfg.tolerance))

    # envelope bracketing of the ensemble-mean distance
    rho0 = profile.rho0
    env_lo, env_hi = pf.envelope(spec, rho0, result.times)
    bracket = max(0.0, float(np.max(env_lo - result.mean_d_emp)),
                  float(np.max(result.mean_d_emp - env_hi)))
    reports.append(VerifyReport("envelope-bracket", bracket, cfg.tolerance,
                                cfg.paths, cfg.dt))

    marg_paths = max(cfg.paths, 500)
    marg = simulate_ensemble(spec, profile, x0, y0, cfg.dt, cfg.T, cfg.seed + 1, marg_paths,
                             enforce_distance=cfg.enforce_distance)
    reports.extend(mean_decay_check(marg, spec, x0, y0, bias_allowance=0.05,
                                    min_paths=min(500, marg_paths)))

    if spec.kind is ms.SpaceKind.SPHERE and spec.n == 2 and spec.K == 1.0 \
            and cfg.profile == "constant":
        _, sup, fX, _ = rotation_ensemble(rho0, cfg.dt, cfg.T, cfg.seed + 2, marg_paths)
        reports.append(VerifyReport("rotation-oracle-constancy", float(sup.max()), 1e-12,
                                    marg_paths, cfg.dt))
        m1 = np.linalg.norm(marg.final_X.mean(axis=0))
        m2 = np.linalg.norm(fX.mean(axis=0))
        se = np.sqrt(2.0 / marg_paths)   # conservative scale for unit vectors
        reports.append(VerifyReport("rotation-oracle-mean-agreement", float(abs(m1 - m2)),
                                    3.0 * se, marg_paths, cfg.dt))

    payload = {"reports": [r.to_dict() for r in reports],
               "pass": all(r.passed for r in reports)}
    cfg.out.mkdir(parents=True, exist_ok=True)
    _write_json(cfg.out / "verify.json", payload)
    for r in reports:
        print(f"[{'pass' if r.passed else 'FAIL'}] {r.name}: "
              f"{r.statistic:.3e} (tol {r.tolerance:.3e})")
    return 0 if payload["pass"] else 1


def cmd_converge(cfg: RunConfig) -> int:
    spec = build_space(cfg)
    profile = build_profile(cfg, spec)
    x0, y0 = _starts(spec, profile, cfg)
    report = convergence_study(spec, profile, list(cfg.dts), cfg.paths, cfg.seed,
                               x0, y0, T=cfg.T)
    cfg.out.mkdir(parents=True, exist_ok=True)
    with open(cfg.out / "converge.csv", "w", newline="") as fh:
        fh.write("dt,mean_sup_err\n")
        for dt, err in zip(report.details["dt"], report.details["mean_sup_err"]):
            fh.write(f"{_fmt(dt)},{_fmt(err)}\n")
    _write_json(cfg.out / "converge.json", report.to_dict())
    print(f"slope {report.details['slope']:.3f}; decreasing: "
          f"{report.details['strictly_decreasing']} -> {'pass' if report.passed else 'FAIL'}")
    return 0 if report.passed else 1


_COMMANDS = {
    "simulate": cmd_simulate,
    "check": cmd_check,
    "verify": cmd_verify,
    "converge": cmd_converge,
}


def main(argv=None) -> int:
    try:
        command, cfg = parse_config(argv if argv is not None else sys.argv[1:])
        return _COMMANDS[command](cfg)
    except DetcoupleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
