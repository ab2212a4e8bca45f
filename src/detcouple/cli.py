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
import functools
import itertools
import json
import shutil
import sys
from contextlib import contextmanager, suppress
from dataclasses import make_dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import model_space as ms
from . import profiles as pf
from .errors import DetcoupleError, ValidationError, _array_rows
from .sde import EnsembleResult, check_run, simulate_ensemble
from .shards import cuts, fork_map
from .verify import (MIN_DECAY_PATHS, VerifyReport, check_dts, convergence_study,
                     distance_error_stats, envelope_check, identity_scan, mean_decay_check,
                     oracle_applies, oracle_check)


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
    if cfg.profile == "tabulated" and (cfg.rho0, cfg.rho0_deg) != (None, None):
        name = "rho0" if cfg.rho0 is not None else "rho0-deg"
        raise ValidationError(f"field {name}: a tabulated profile starts at its table's first rho")
    if cfg.rho0_deg is not None:
        if cfg.space != "sphere":
            raise ValidationError("field rho0-deg: only meaningful on spheres")
        if cfg.rho0 is not None:
            raise ValidationError("fields rho0 and rho0-deg are mutually exclusive")
        r = build_space(cfg).r          # rejects K <= 0 before it reaches sqrt
        cfg.rho0 = np.radians(cfg.rho0_deg) * r
    if cfg.rho0 is None and cfg.profile != "tabulated":
        raise ValidationError("field rho0: required for closed-form profiles")
    if args.command in ("verify", "converge") and not cfg.T > 0:
        # at T = 0 every statistic is rounding noise
        raise ValidationError(f"field T: {args.command} needs a horizon T > 0, got {cfg.T}")
    if args.command == "converge" and cfg.enforce_distance:
        raise ValidationError("field enforce_distance: converge measures the scheme's own "
                              "error and cannot enforce the distance")
    if args.command == "verify" and cfg.seed > 2**64 - 3:
        # cmd_verify also draws from seed + 1 and seed + 2
        raise ValidationError(f"field seed: verify needs an integer in [0, 2**64 - 3], "
                              f"got {cfg.seed}")
    return args.command, cfg


def build_space(cfg: RunConfig) -> ms.SpaceSpec:
    kind = ms.SpaceKind(cfg.space)
    return ms.SpaceSpec(kind, cfg.dim, cfg.K)


def build_profile(cfg: RunConfig, spec: ms.SpaceSpec) -> pf.DistanceProfile:
    kind = pf.ProfileKind(cfg.profile)
    if kind is pf.ProfileKind.TABULATED:
        if not cfg.table:
            raise ValidationError("field table: required for tabulated profiles")
        return pf.tabulated_from_csv(cfg.table)
    return pf.BUILDERS[kind](spec, cfg.rho0)


# ---------------------------------------------------------------------------
# output files


@contextmanager
def _writing(path):
    """Turn an ``OSError`` into a ``ValidationError`` naming the file, so it exits 2."""
    try:
        yield
    except OSError as exc:
        raise ValidationError(f"cannot write {exc.filename or path}: "
                              f"{exc.strerror or exc}") from None


def _fmt(x: float) -> str:
    return f"{x:.17g}"


# _fmt in bulk.  For 1e-4 <= x < 1e16, '%.17g' is fixed-point: with
# e = floor(log10 x) and s = 16 - e, its 17 significant digits are those of
# D = x * 10**s rounded half-to-even to an integer, and its point goes after
# digit e of D (after "0." and -1 - e zeros when e < 0).  10**s is an exact
# double (s <= 20), so x * 10**s = hi + lo exactly, by Veltkamp's split and
# Dekker's two-product (Numer. Math. 18, 1971), and D is hi + rint(lo): where D
# lands in [1e16, 1e17), |lo| <= ulp(hi)/2 <= 8 forces hi >= 1e16 - 8 > 2**53,
# so hi is an even integer and numpy's half-to-even rint of lo rounds hi + lo
# half to even.  Every other D, as when a log10 rounds across a power of ten,
# is outside [1e16, 1e17); such values, and every value outside the range, are
# formatted by _fmt, except exact zeros, whose text is '0' or '-0'.
# Most values formatted per _fmt_bulk call, at least 2 (one row's t and target):
# about 350 bytes each while formatted, so a block's working set is about 2.8 MB.
FORMAT_VALUES = 8192
_WIDTH = 24             # longest '%.17g' text: -1.7976931348623157e+308


def _split(a):
    """Veltkamp's split: ``a = hi + lo`` with ``hi`` and ``lo`` 26 bits each."""
    c = 134217729.0 * a         # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


@functools.cache
def _format_tables():
    """The formatter's constants, built on first use so that import stays cheap.

    10**s for s = 0 .. 20 and its split; the four ASCII digits of each of
    0 .. 9999 as one uint32, and their trailing zeros; and keep[j], 20 bytes
    of which the first j are 0xff, as five uint32.
    """
    pow10 = np.array([float(10**s) for s in range(21)])
    ascii4 = np.empty((10, 10, 10, 10, 4), np.uint8)
    for k in range(4):
        ascii4[..., k] = np.arange(ord("0"), ord("9") + 1).reshape((10,) + (1,) * (3 - k))
    zeros = np.zeros(10_000, np.int8)
    for step in (10, 100, 1000, 10_000):
        zeros[::step] += 1                  # a multiple of step ends in one more zero
    keep = np.frombuffer(b"".join(b"\xff" * j + bytes(20 - j) for j in range(21)),
                         np.uint32).reshape(21, 5)
    return (pow10, *_split(pow10), ascii4.view(np.uint32).ravel(), zeros, keep)


def _fmt_bulk(x: np.ndarray) -> list[bytes]:
    """``[_fmt(v).encode() for v in x.flat]`` for a float64 array ``x``, computed in bulk."""
    pow10, pow10_hi, pow10_lo, digits4, zeros4, keep = _format_tables()
    x = x.ravel()
    texts = np.zeros(x.size, f"S{_WIDTH}")
    rows = np.flatnonzero((x >= 1e-4) & (x < 1e16))
    v = x[rows]
    e = np.clip(np.floor(np.log10(v)), -4, 15).astype(np.intp)
    s = 16 - e
    hi = v * pow10[s]
    vh, vl = _split(v)
    ph, pl = pow10_hi[s], pow10_lo[s]
    lo = ((vh * ph - hi) + vh * pl + vl * ph) + vl * pl
    D = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    ok = (D >= 10**16) & (D < 10**17)
    D, e, rows = D[ok], e[ok], rows[ok]

    # D's 17 digits as five ASCII groups: 1 + 4 + 4 | 4 + 4 digits
    top = D // 10**8
    low = (D - top * 10**8).astype(np.int32)
    top = top.astype(np.int32)
    lead = top // 10**4
    groups = (lead // 10**4, lead % 10**4, top % 10**4, low // 10**4, low % 10**4)
    digits = np.empty((D.size, 5), np.uint32)       # bytes: '000', then the 17 digits
    for k, g in enumerate(groups):
        digits[:, k] = digits4[g]
    # cut the fraction's trailing zeros to NUL, and its point if no digit is left
    zeros = zeros4[groups[4]]
    more = np.flatnonzero(zeros == 4)
    for g in groups[3:0:-1]:
        zeros[more] += zeros4[g[more]]
        more = more[g[more] == 0]
    zeros = np.minimum(zeros, 16 - e)
    cut = np.flatnonzero(zeros)
    digits[cut] &= keep[20 - zeros[cut]]
    point = np.where(zeros < 16 - e, ord("."), 0)
    digits = digits.view("V20").ravel()

    for k in np.flatnonzero(np.bincount(e + 4)) - 4:
        r = np.flatnonzero(e == k)
        d = np.take(digits, r).view(np.uint8).reshape(r.size, 20)[:, 3:]
        text = np.zeros((r.size, _WIDTH), np.uint8)
        if k >= 0:
            text[:, :k + 1] = d[:, :k + 1]
            text[:, k + 1] = point[r]
            text[:, k + 2:18] = d[:, k + 1:]
        else:
            text[:, :1 - k] = np.frombuffer(b"0.000"[:1 - k], np.uint8)
            text[:, 1 - k:18 - k] = d
        texts[rows[r]] = text.view(f"S{_WIDTH}").ravel()

    zero = np.flatnonzero(x == 0)
    texts[zero] = np.where(np.signbit(x[zero]), b"-0", b"0")
    rest = np.flatnonzero(texts == b"")     # no text yet: every other value has one
    texts = texts.tolist()                  # each without its NUL padding
    for i in rest:
        texts[i] = _fmt(float(x[i])).encode()
    return texts


def _write_rows(fh, d_emp, idx, times, target, p0, p1) -> None:
    """Write the rows of paths ``p0 .. p1 - 1`` to ``fh``, path-major, given the kept
    samples' ``times`` and ``target``.

    ``_fmt_bulk`` formats every value, at most ``FORMAT_VALUES`` at a time, in chunks
    of ``FORMAT_VALUES // 2`` samples: whole paths while a path's kept samples fit,
    else one path a chunk at a time.  Each chunk's t and target texts are formatted
    once per call, into a template whose \\0 takes the path index and whose %b slots
    take (dist, abs_err).
    """
    step = min(idx.size, max(1, FORMAT_VALUES // 2))    # samples per chunk
    paths = max(1, FORMAT_VALUES // (2 * idx.size))     # paths per block
    chunks = []
    for s0 in range(0, idx.size, step):
        texts = _fmt_bulk(np.stack([times[s0:s0 + step], target[s0:s0 + step]], axis=-1))
        chunks.append((s0, b"".join(b"%b,\0,%%b,%b,%%b\n" % pair
                                    for pair in zip(texts[::2], texts[1::2]))))
    for b0 in range(p0, p1, paths):
        b1 = min(b0 + paths, p1)
        for s0, part in chunks:
            cols = idx[s0:s0 + step]
            rows = np.empty((b1 - b0, cols.size, 2))
            rows[..., 0] = d_emp[b0:b1, cols]
            np.abs(np.subtract(rows[..., 0], target[s0:s0 + step], out=rows[..., 1]),
                   out=rows[..., 1])
            texts = _fmt_bulk(rows)
            per_path = 2 * cols.size
            for k, p in enumerate(range(b0, b1)):
                fh.write(part.replace(b"\0", b"%d" % p)
                         % tuple(texts[k * per_path:(k + 1) * per_path]))


def write_paths_csv(path, result: EnsembleResult, stride: int = 1) -> None:
    """Per-sample rows ``t,path,dist,target,abs_err`` with 17 significant digits.

    Rows are path-major: every kept sample of path 0, then of path 1, and so
    on.  Every ``stride``-th sample is kept, plus the final one.  Each value's
    text is exactly Python's ``'%.17g' % x`` (``_fmt``), computed in bulk by
    ``_write_rows``, whose working set does not grow with the number of paths.

    The paths are cut into contiguous shards by ``shards.cuts``, one per usable
    core but with at least ``shards.MIN_SHARD_WORK`` rows and one path each,
    and written by ``shards.fork_map``: shard 0 in this process straight into
    ``path``, each other shard ``i`` by a forked child into ``<path>.part<i>``,
    which is appended in order and removed.  Every shard runs the same ``_write_rows``,
    so the bytes do not depend on the number of cores.  A failed shard raises
    its own exception here; no part file outlives the call.
    """
    if result.d_emp is None:
        raise ValidationError("ensemble was run without recorded distances")
    if stride < 1:
        raise ValidationError(f"stride must be >= 1, got {stride}")
    last = result.times.size - 1
    idx = np.arange(0, last + 1, stride)
    if idx[-1] != last:
        idx = np.append(idx, last)
    times, target = result.times[idx], result.target[idx]

    bounds = cuts(result.n_paths, result.n_paths * idx.size)
    parts = [path] + [f"{path}.part{i}" for i in range(1, len(bounds) - 1)]

    def write_shard(i):
        with open(parts[i], "wb") as fh:
            if i == 0:
                fh.write(b"t,path,dist,target,abs_err\n")
            _write_rows(fh, result.d_emp, idx, times, target, bounds[i], bounds[i + 1])

    try:
        fork_map(write_shard, range(len(parts)))
        with open(path, "ab") as fh:
            for part in parts[1:]:
                with open(part, "rb") as src:
                    shutil.copyfileobj(src, fh, 1 << 20)
    finally:
        for part in parts[1:]:
            Path(part).unlink(missing_ok=True)


def _write_json(path, payload) -> None:
    with _writing(path):
        Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_summary_json(path, result: EnsembleResult, cfg: RunConfig, passed: bool) -> None:
    """The run's settings and error statistics.  ``rms_err`` is computed in place, so
    ``result.d_emp`` holds the squared errors afterwards: write ``paths.csv`` first."""
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
        "rms_err": result.rms_err(in_place=True),
        "pass": bool(passed),
    })


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(cfg: RunConfig, spec: ms.SpaceSpec, profile: pf.DistanceProfile) -> int:
    result = simulate_ensemble(spec, profile, cfg.dt, cfg.T, cfg.seed, cfg.paths,
                               enforce_distance=cfg.enforce_distance, record_distances=True)
    passed = result.mean_sup_err <= cfg.tolerance
    with _writing(cfg.out / "paths.csv"):
        write_paths_csv(cfg.out / "paths.csv", result, cfg.csv_stride)
    write_summary_json(cfg.out / "summary.json", result, cfg, passed)
    print(f"mean sup error {result.mean_sup_err:.6g} "
          f"(max {result.max_sup_err:.6g}) over {cfg.paths} paths -> "
          f"{'pass' if passed else 'FAIL'}")
    return 0 if passed else 1


def _least(margin):
    """The least margin of the points (or segments) in range; None when none is."""
    margin = margin[~np.isnan(margin)]
    return float(margin.min()) if margin.size else None


def cmd_check(cfg: RunConfig, spec: ms.SpaceSpec, profile: pf.DistanceProfile) -> int:
    report = pf.check_admissibility(spec, profile, T=cfg.T if cfg.T > 0 else None)
    payload = {
        "space": cfg.space, "n": cfg.dim, "K": cfg.K, "profile": cfg.profile,
        "admissible": report.admissible,
        "first_violation_time": report.first_violation_time,
        "reasons": list(report.reasons),
        "lo_active": report.lo_active,
        "hi_active": report.hi_active,
        "min_lo_margin": _least(report.lo_margin),
        "min_hi_margin": _least(report.hi_margin),
    }
    _write_json(cfg.out / "admissibility.json", payload)
    if report.admissible:
        active = [s for s, a in (("lower", report.lo_active), ("upper", report.hi_active)) if a]
        extra = f" ({' and '.join(active)} bound active)" if active else ""
        print(f"admissible on [0, {report.grid[-1]:.6g}]{extra}")
        return 0
    print(f"not admissible: {'; '.join(report.reasons)}", file=sys.stderr)
    return 1


def cmd_verify(cfg: RunConfig, spec: ms.SpaceSpec, profile: pf.DistanceProfile) -> int:
    reports: list[VerifyReport] = [identity_scan(spec, cfg.samples, cfg.seed)]

    result = simulate_ensemble(spec, profile, cfg.dt, cfg.T, cfg.seed, cfg.paths,
                               enforce_distance=cfg.enforce_distance, record_distances=True)
    reports.append(distance_error_stats(result, tolerance=cfg.tolerance))
    reports.append(envelope_check(result, cfg.tolerance))

    marg = simulate_ensemble(spec, profile, cfg.dt, cfg.T, cfg.seed + 1,
                             max(cfg.paths, MIN_DECAY_PATHS),
                             enforce_distance=cfg.enforce_distance)
    reports.extend(mean_decay_check(marg))
    if oracle_applies(marg):
        reports.extend(oracle_check(marg, cfg.seed + 2))

    payload = {"reports": [r.to_dict() for r in reports],
               "pass": all(r.passed for r in reports)}
    _write_json(cfg.out / "verify.json", payload)
    for r in reports:
        print(f"[{'pass' if r.passed else 'FAIL'}] {r.name}: "
              f"{r.statistic:.3e} (tol {r.tolerance:.3e})")
    return 0 if payload["pass"] else 1


def cmd_converge(cfg: RunConfig, spec: ms.SpaceSpec, profile: pf.DistanceProfile) -> int:
    report = convergence_study(spec, profile, list(cfg.dts), cfg.paths, cfg.seed, T=cfg.T)
    path = cfg.out / "converge.csv"
    with _writing(path), open(path, "w", newline="") as fh:
        fh.write("dt,mean_sup_err\n")
        for dt, err in zip(report.details["dt"], report.details["mean_sup_err"]):
            fh.write(f"{_fmt(dt)},{_fmt(err)}\n")
    _write_json(cfg.out / "converge.json", report.to_dict())
    slope = report.details["slope"]
    print(f"slope {'none' if slope is None else format(slope, '.3f')}; decreasing: "
          f"{report.details['strictly_decreasing']} -> {'pass' if report.passed else 'FAIL'}")
    return 0 if report.passed else 1


_COMMANDS = {
    "simulate": cmd_simulate,
    "check": cmd_check,
    "verify": cmd_verify,
    "converge": cmd_converge,
}


def main(argv=None) -> int:
    made = []                           # the directories this call makes, deepest first
    try:
        command, cfg = parse_config(argv if argv is not None else sys.argv[1:])
        spec = build_space(cfg)
        profile = build_profile(cfg, spec)
        if command == "converge":
            check_dts(cfg.dts)
        for dt in {"simulate": [cfg.dt], "verify": [cfg.dt], "converge": cfg.dts}.get(command, []):
            # simulate and verify record every distance, converge none
            check_run(spec, profile, dt, cfg.T, cfg.paths, record_distances=command != "converge")
        if command == "verify":
            _array_rows("samples", cfg.samples, spec.ambient_dim)
        # the input is good: make the output directory before any work
        with _writing(cfg.out):
            made = list(itertools.takewhile(lambda d: not d.exists(),
                                            (cfg.out, *cfg.out.parents)))
            cfg.out.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[command](cfg, spec, profile)
    except DetcoupleError as exc:
        # a failed command leaves no directory of its own making that holds nothing
        for d in made:
            with suppress(OSError):
                d.rmdir()
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
