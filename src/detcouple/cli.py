"""Command-line front end: simulate / check / verify / converge.

Every setting is one entry of ``FIELDS``: the flag ``--name`` (``_`` written
as ``-``), the key ``name`` of a flat key=value config file (one key per
line, ``#`` comments) and the field ``name`` of ``RunConfig``.  Flags override
file values, which override the defaults.  A value from either source goes
through the same parser and check, so a bad one exits with status 2 and a
message naming the field; an unreadable config or table file exits 2 naming
the file.  All outputs are written deterministically: identical
configuration and seed give byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import make_dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import model_space as ms
from . import profiles as pf
from .errors import DetcoupleError, ValidationError
from .sde import EnsembleResult, simulate_ensemble
from .verify import (MIN_DECAY_PATHS, VerifyReport, convergence_study, distance_error_stats,
                     identity_scan, mean_decay_check, rotation_ensemble)


class Kind(NamedTuple):
    """How a field's text becomes its value: ``parse`` it, then require ``ok``."""

    parse: Callable[[str], object]      # raises ValueError on malformed text
    expect: str                         # what a valid value is, for the error message
    ok: Callable[[object], bool] = lambda value: True


def _one_of(names, aliases=None) -> Kind:
    aliases = aliases or {}
    return Kind(lambda text: aliases.get(text, text), "one of " + " | ".join(names),
                lambda value: value in names)


_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}
_SPACES = tuple(k.value for k in ms.SpaceKind)
_PROFILES = tuple(k.value for k in pf.ProfileKind)
_PROFILE_ALIASES = {
    "contracting": "sphere-contracting",
    "repulsive": "sphere-repulsive",
    "lower": "hyperbolic-lower",
    "upper": "hyperbolic-upper",
    "max-growth": "euclidean-max-growth",
}

TEXT = Kind(str, "text")
NUMBER = Kind(float, "a number")
POSITIVE = Kind(float, "a finite number > 0", lambda value: 0 < value < np.inf)
COUNT = Kind(int, "an integer >= 1", lambda value: value >= 1)
BOOL = Kind(lambda text: _BOOLS.get(text.lower()), "a boolean (true/false, yes/no, on/off, 1/0)",
            lambda value: value is not None)


class Field(NamedTuple):
    """One setting: how its text is read, its default text and its --help line."""

    kind: Kind
    default: str | None                 # parsed like a given value; None leaves it unset
    help: str


FIELDS = {
    "space": Field(_one_of(_SPACES), "sphere", "model space: " + " | ".join(_SPACES)),
    "dim": Field(COUNT, "2", "manifold dimension n >= 1"),
    "K": Field(NUMBER, None, "curvature (default +1/0/-1 per space)"),
    "profile": Field(_one_of(_PROFILES, _PROFILE_ALIASES), "constant",
                     "distance profile: " + " | ".join(_PROFILES)),
    "rho0": Field(NUMBER, None, "initial distance (geodesic units)"),
    "rho0_deg": Field(NUMBER, None, "initial distance in degrees (spheres only)"),
    "table": Field(TEXT, None, "CSV file with header t,rho for tabulated profiles"),
    "dt": Field(POSITIVE, "1e-3", "time step"),
    "T": Field(Kind(float, "a finite number >= 0", lambda value: 0 <= value < np.inf), "1.0",
               "time horizon"),
    "paths": Field(COUNT, "100", "number of coupled pairs"),
    "seed": Field(Kind(int, "an integer in [0, 2**64)", lambda value: 0 <= value < 2**64),
                  "0", "noise seed"),
    "enforce_distance": Field(BOOL, "false", "put Y back at the target distance after each step"),
    "clamp_derivative": Field(BOOL, "false", "clip rho' into the admissible band"),
    "tolerance": Field(POSITIVE, "0.05", "pass threshold for mean sup error"),
    "csv_stride": Field(COUNT, "1", "write every k-th sample to paths.csv"),
    "samples": Field(COUNT, "20000", "identity-scan sample count (verify)"),
    "dts": Field(Kind(lambda text: tuple(float(s) for s in text.split(",") if s.strip()),
                      "comma-separated finite numbers > 0",
                      lambda value: all(0 < dt < np.inf for dt in value)),
                 "1e-2,3e-3,1e-3,3e-4,1e-4", "comma-separated dt list (converge)"),
    "out": Field(Kind(Path, "a path"), ".", "output directory"),
}

RunConfig = make_dataclass("RunConfig", list(FIELDS), namespace={
    "__module__": __name__,
    "__doc__": "A resolved run: one attribute per entry of FIELDS, parsed and checked."})


def _coerce(key: str, text: str):
    """Parse and check the text of field ``key``, from a flag or a config file."""
    kind = FIELDS[key].kind
    try:
        value = kind.parse(text)
    except ValueError:
        pass
    else:
        if kind.ok(value):
            return value
    raise ValidationError(f"field {key}: expected {kind.expect}, got {text!r}")


def _parse_file(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValidationError(f"{path}: cannot read config file: {exc.strerror}") from None
    values = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in FIELDS:
            raise ValidationError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = val
    return values


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
        for key, field in FIELDS.items():
            # a flag's value stays text until _coerce, like a config-file value
            switch = {"action": "store_const", "const": "true"} if field.kind is BOOL else {}
            p.add_argument("--" + key.replace("_", "-"), dest=key, help=field.help, **switch)
    return parser


def parse_config(argv) -> tuple[str, RunConfig]:
    """Resolve flags over config-file values over defaults into a RunConfig."""
    args = _build_parser().parse_args(argv)
    given = {key: field.default for key, field in FIELDS.items()}
    if args.config:
        given.update(_parse_file(args.config))
    given.update((key, text) for key, text in vars(args).items()
                 if key in FIELDS and text is not None)
    cfg = RunConfig(**{key: None if text is None else _coerce(key, text)
                       for key, text in given.items()})

    if cfg.K is None:
        cfg.K = {"euclidean": 0.0, "sphere": 1.0, "hyperbolic": -1.0}[cfg.space]
    if cfg.rho0_deg is not None:
        if cfg.space != "sphere":
            raise ValidationError("field rho0-deg: only meaningful on spheres")
        if cfg.rho0 is not None:
            raise ValidationError("fields rho0 and rho0-deg are mutually exclusive")
        r = build_space(cfg).r          # rejects K <= 0 before it reaches sqrt
        cfg.rho0 = np.radians(cfg.rho0_deg) * r
    if cfg.rho0 is None and cfg.profile != "tabulated":
        raise ValidationError("field rho0: required for closed-form profiles")
    return args.command, cfg


def build_space(cfg: RunConfig) -> ms.SpaceSpec:
    kind = ms.SpaceKind(cfg.space)
    return ms.SpaceSpec(kind, cfg.dim, cfg.K)


def build_profile(cfg: RunConfig, spec: ms.SpaceSpec) -> pf.DistanceProfile:
    kind = pf.ProfileKind(cfg.profile)
    if kind is pf.ProfileKind.TABULATED:
        if not cfg.table:
            raise ValidationError("field table: required for tabulated profiles")
        prof = pf.tabulated_from_csv(cfg.table)
    else:
        prof = pf.BUILDERS[kind](spec, cfg.rho0)
    return pf.clamped(spec, prof) if cfg.clamp_derivative else prof


# ---------------------------------------------------------------------------
# output files


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def write_paths_csv(path, result: EnsembleResult, stride: int = 1) -> None:
    """Per-sample rows ``t,path,dist,target,abs_err`` with 17 significant digits.

    Rows are path-major: every kept sample of path 0, then of path 1, and so
    on.  Every ``stride``-th sample is kept, plus the final one.
    """
    if result.d_emp is None:
        raise ValidationError("ensemble was run without recorded distances")
    if stride < 1:
        raise ValidationError(f"stride must be >= 1, got {stride}")
    last = result.times.size - 1
    idx = list(range(0, last + 1, stride))
    if idx[-1] != last:
        idx.append(last)
    idx = np.array(idx)
    target = result.target[idx]
    # t and target are shared by all paths: format them once into a per-path
    # template whose %-slots take (path, dist, abs_err) of each row.
    # '%.17g' % x gives the same text as f"{x:.17g}".
    template = "".join(f"{_fmt(t)},%d,%.17g,{_fmt(g)},%.17g\n"
                       for t, g in zip(result.times[idx], target))
    rows = np.empty((idx.size, 3))
    with open(path, "w", newline="") as fh:
        fh.write("t,path,dist,target,abs_err\n")
        for p in range(result.n_paths):
            rows[:, 0] = p
            rows[:, 1] = result.d_emp[p, idx]
            np.abs(np.subtract(rows[:, 1], target, out=rows[:, 2]), out=rows[:, 2])
            fh.write(template % tuple(rows.ravel().tolist()))


def _write_json(path, payload) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_summary_json(path, result: EnsembleResult, cfg: RunConfig, passed: bool) -> None:
    _write_json(path, {
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
    })


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(cfg: RunConfig) -> int:
    spec = build_space(cfg)
    profile = build_profile(cfg, spec)
    x0, y0 = ms.canonical_start(spec, profile.rho0)
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
        print(f"admissible on [0, {report.grid[-1]:.6g}]{extra}")
        return 0
    print(f"not admissible: {'; '.join(report.reasons)}", file=sys.stderr)
    return 1


def cmd_verify(cfg: RunConfig) -> int:
    spec = build_space(cfg)
    profile = build_profile(cfg, spec)
    x0, y0 = ms.canonical_start(spec, profile.rho0)
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

    marg_paths = max(cfg.paths, MIN_DECAY_PATHS)
    marg = simulate_ensemble(spec, profile, x0, y0, cfg.dt, cfg.T, cfg.seed + 1, marg_paths,
                             enforce_distance=cfg.enforce_distance)
    reports.extend(mean_decay_check(marg, spec, x0, y0, bias_allowance=0.05))

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
    x0, y0 = ms.canonical_start(spec, profile.rho0)
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
