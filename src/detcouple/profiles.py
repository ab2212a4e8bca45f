"""Deterministic distance profiles and the admissibility band.

A profile is the prescribed geodesic distance t -> rho(t) between the two
coupled Brownian motions.  A profile is realizable on a space exactly when
rho is continuous and rho'(t) stays inside the curvature-dependent band
[lo(rho), hi(rho)] returned by :func:`admissible_bounds` (k = n - 1):

* K > 0:  lo = -k sqrt(K) tan(sqrt(K) rho / 2),  hi = k sqrt(K) cot(sqrt(K) rho / 2)
* K = 0:  lo = 0,                                hi = 2k / rho
* K < 0:  lo = k s tanh(s rho / 2),              hi = k s coth(s rho / 2),  s = sqrt(-K)

lo is monotone in rho and hi decreasing, so a linear piece of a profile lies
in the band exactly when its slope does at both of its end values.

The built-in profiles are the closed forms that saturate one endpoint of the
band everywhere (extreme couplings), plus the constant profile; ``BUILDERS``
maps each of their kinds to its builder.  Closed forms are evaluated in the
unit-curvature model of their space and rescaled by r in length and r^2 in
time.  A tabulated profile is the piecewise-linear function through its nodes.
"""

from __future__ import annotations

import csv
import enum
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .model_space import COINCIDENT_TOL, SpaceKind, SpaceSpec

# distance from the sphere pole at which profiles are declared invalid
POLE_MARGIN = 1e-6


class ProfileKind(enum.Enum):
    CONSTANT = "constant"
    SPHERE_CONTRACTING = "sphere-contracting"
    SPHERE_REPULSIVE = "sphere-repulsive"
    HYPERBOLIC_LOWER = "hyperbolic-lower"
    HYPERBOLIC_UPPER = "hyperbolic-upper"
    EUCLIDEAN_MAX_GROWTH = "euclidean-max-growth"
    TABULATED = "tabulated"


@dataclass(frozen=True)
class DistanceProfile:
    """Target distance rho(t) and its derivative rho'(t).

    Closed-form kinds carry the ``spec`` of the space they were built for and
    are evaluated in its unit-curvature model.  Tabulated profiles carry
    their nodes and are the piecewise-linear function through them: rho' is
    the slope of the segment [t_i, t_{i+1}) that contains t, and the last
    node takes the last slope.
    """

    kind: ProfileKind
    rho0: float
    spec: SpaceSpec | None = None
    times: np.ndarray | None = None
    values: np.ndarray | None = None

    def eval(self, t):
        """Return (rho(t), rho'(t)) at finite times ``t >= 0``; vectorized over ``t``."""
        t = np.asarray(t, dtype=float)
        if not np.all(np.isfinite(t) & (t >= 0)):
            raise ValidationError("profile times must be finite and non-negative")
        kind = self.kind
        if kind is ProfileKind.CONSTANT:
            rho, drho = np.full(t.shape, self.rho0), np.zeros_like(t)
        elif kind is ProfileKind.TABULATED:
            tmax = self.times[-1]
            if np.any(t > tmax * (1 + 1e-12) + 1e-300):
                raise ValidationError(f"time outside tabulated range [0, {tmax:.6g}]")
            tt = np.minimum(t, tmax)
            rho = np.interp(tt, self.times, self.values)
            seg = np.searchsorted(self.times, tt, side="right").clip(1, self.times.size - 1)
            drho = (np.diff(self.values) / np.diff(self.times))[seg - 1]
        else:
            # closed forms: evaluate in the unit model and rescale
            r, k = self.spec.r, self.spec.n - 1
            tau, u0 = t / r**2, self.rho0 / r
            if kind is ProfileKind.EUCLIDEAN_MAX_GROWTH:
                rho_u = np.sqrt(u0**2 + 4.0 * k * tau)
                drho_u = 2.0 * k / rho_u
            elif kind is ProfileKind.SPHERE_CONTRACTING:
                w = np.exp(-k * tau / 2.0) * np.sin(u0 / 2.0)
                rho_u = 2.0 * np.arcsin(w)
                drho_u = -k * w / np.sqrt(1.0 - w * w)
            elif kind is ProfileKind.SPHERE_REPULSIVE:
                w = np.exp(-k * tau / 2.0) * np.cos(u0 / 2.0)
                rho_u = 2.0 * np.arccos(w)
                drho_u = k * w / np.sqrt(1.0 - w * w)
            elif kind is ProfileKind.HYPERBOLIC_LOWER:
                w = np.exp(k * tau / 2.0) * np.sinh(u0 / 2.0)
                rho_u = 2.0 * np.arcsinh(w)
                drho_u = k * w / np.sqrt(1.0 + w * w)
            else:
                w = np.exp(k * tau / 2.0) * np.cosh(u0 / 2.0)
                rho_u = 2.0 * np.arccosh(w)
                drho_u = k * w / np.sqrt(w * w - 1.0)
            rho, drho = r * rho_u, drho_u / r
        return rho[()], drho[()]

    @property
    def end_time(self) -> float:
        """Last time the profile is defined for (inf for closed forms)."""
        return float(self.times[-1]) if self.kind is ProfileKind.TABULATED else np.inf


def constant(rho0: float) -> DistanceProfile:
    if not 0 < rho0 < np.inf:
        raise ValidationError(f"rho0 must be a finite number > 0, got {rho0}")
    return DistanceProfile(ProfileKind.CONSTANT, float(rho0))


def _closed_form(kind: ProfileKind, space: SpaceKind, spec: SpaceSpec, rho0) -> DistanceProfile:
    if spec.kind is not space:
        raise ValidationError(f"{kind.value} profile requires a {space.value} space")
    if not 0 < rho0 < spec.max_distance:
        raise ValidationError(f"rho0 must lie in (0, {spec.max_distance:.6g}), got {rho0}")
    return DistanceProfile(kind, float(rho0), spec)


def sphere_contracting(spec: SpaceSpec, rho0: float) -> DistanceProfile:
    """rho(t) = 2r arcsin(exp(-(n-1)t/(2r^2)) sin(rho0/(2r))): saturates the lower bound."""
    return _closed_form(ProfileKind.SPHERE_CONTRACTING, SpaceKind.SPHERE, spec, rho0)


def sphere_repulsive(spec: SpaceSpec, rho0: float) -> DistanceProfile:
    """rho(t) = 2r arccos(exp(-(n-1)t/(2r^2)) cos(rho0/(2r))): saturates the upper bound."""
    return _closed_form(ProfileKind.SPHERE_REPULSIVE, SpaceKind.SPHERE, spec, rho0)


def hyperbolic_lower(spec: SpaceSpec, rho0: float) -> DistanceProfile:
    """rho(t) = 2r arcsinh(exp((n-1)t/(2r^2)) sinh(rho0/(2r))): slowest admissible growth."""
    return _closed_form(ProfileKind.HYPERBOLIC_LOWER, SpaceKind.HYPERBOLIC, spec, rho0)


def hyperbolic_upper(spec: SpaceSpec, rho0: float) -> DistanceProfile:
    """rho(t) = 2r arccosh(exp((n-1)t/(2r^2)) cosh(rho0/(2r))): fastest admissible growth."""
    return _closed_form(ProfileKind.HYPERBOLIC_UPPER, SpaceKind.HYPERBOLIC, spec, rho0)


def euclidean_max_growth(spec: SpaceSpec, rho0: float) -> DistanceProfile:
    """rho(t) = sqrt(rho0^2 + 4(n-1)t): saturates rho rho' = 2(n-1)."""
    return _closed_form(ProfileKind.EUCLIDEAN_MAX_GROWTH, SpaceKind.EUCLIDEAN, spec, rho0)


# every kind but TABULATED, as a builder (spec, rho0) -> profile
BUILDERS = {
    ProfileKind.CONSTANT: lambda spec, rho0: constant(rho0),
    ProfileKind.SPHERE_CONTRACTING: sphere_contracting,
    ProfileKind.SPHERE_REPULSIVE: sphere_repulsive,
    ProfileKind.HYPERBOLIC_LOWER: hyperbolic_lower,
    ProfileKind.HYPERBOLIC_UPPER: hyperbolic_upper,
    ProfileKind.EUCLIDEAN_MAX_GROWTH: euclidean_max_growth,
}


def tabulated(times, values) -> DistanceProfile:
    """Profile from (t, rho) samples; strictly increasing t starting at 0."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.ndim != 1 or times.shape != values.shape or times.size < 2:
        raise ValidationError("table needs matching 1-d t and rho arrays with at least 2 rows")
    if not (np.all(np.isfinite(times)) and np.all(np.isfinite(values))):
        raise ValidationError("tabulated t and rho values must be finite")
    if times[0] != 0.0:
        raise ValidationError("tabulated times must start at 0")
    if not np.all(np.diff(times) > 0):
        raise ValidationError("tabulated times must be strictly increasing")
    if not np.all(values > 0):
        raise ValidationError("tabulated rho values must be positive")
    return DistanceProfile(ProfileKind.TABULATED, float(values[0]), times=times, values=values)


def tabulated_from_csv(path) -> DistanceProfile:
    """Read a two-column CSV with header ``t,rho``."""
    rows = []
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [h.strip() for h in header] != ["t", "rho"]:
                raise ValidationError(f"{path}: expected CSV header 't,rho'")
            for row in filter(None, reader):
                try:
                    t, rho = map(float, row)    # exactly two fields
                except ValueError:
                    raise ValidationError(f"{path}:{reader.line_num}: expected two numbers "
                                          f"t,rho, got {','.join(row)!r}") from None
                rows.append((t, rho))
    except OSError as exc:
        raise ValidationError(f"{path}: cannot read table: {exc.strerror}") from None
    if not rows:
        raise ValidationError(f"{path}: empty table")
    arr = np.asarray(rows, dtype=float)
    try:
        return tabulated(arr[:, 0], arr[:, 1])
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# admissibility band


def admissible_bounds(spec: SpaceSpec, rho):
    """Band [lo, hi] of admissible rho' at distance ``rho``; vectorized."""
    rho = np.asarray(rho, dtype=float)
    if np.any(rho <= 0):
        raise ValidationError("admissible band is defined for rho > 0")
    k = spec.n - 1
    if spec.kind is SpaceKind.SPHERE:
        if np.any(rho >= spec.max_distance):
            raise ValidationError("distance at or beyond the sphere pole")
        sK = np.sqrt(spec.K)
        lo = -k * sK * np.tan(sK * rho / 2.0)
        hi = k * sK / np.tan(sK * rho / 2.0)
    elif spec.kind is SpaceKind.HYPERBOLIC:
        s = np.sqrt(-spec.K)
        lo = k * s * np.tanh(s * rho / 2.0)
        hi = k * s / np.tanh(s * rho / 2.0)
    else:
        lo = np.zeros_like(rho)
        hi = 2.0 * k / rho
    return lo[()], hi[()]


@dataclass(frozen=True)
class AdmissibilityReport:
    """Band check, with margins per grid point (for a table, per segment)."""

    admissible: bool
    first_violation_time: float | None
    grid: np.ndarray
    lo_margin: np.ndarray     # rho' - lo  (>= -tol required)
    hi_margin: np.ndarray     # hi - rho'  (>= -tol required)
    reasons: tuple[str, ...]
    lo_active: bool           # profile saturates the lower bound somewhere
    hi_active: bool


def check_admissibility(spec: SpaceSpec, profile: DistanceProfile, grid=None,
                        T: float | None = None) -> AdmissibilityReport:
    """Check lo(rho) - tol <= rho' <= hi(rho) + tol on [0, T]; tol = 1e-8 absorbs rounding.

    A closed form is checked at the points of ``grid`` (default: 10^4 uniform
    points on [0, T], T defaulting to 1).  A table is checked exactly on
    [0, grid[-1]] or [0, T] (T defaulting to its range): the band ends are
    monotone in rho, so a segment keeps its slope in the band iff it does at
    both end values.  Its report's grid is its nodes in range plus the
    range's end, and each margin is a segment's, at its worse end.  Range
    violations (rho <= 0; on spheres rho <= COINCIDENT_TOL * r, or rho at the
    pole) are reported, not raised.
    """
    if grid is None:
        if T is None:
            T = profile.end_time if np.isfinite(profile.end_time) else 1.0
        grid = np.linspace(0.0, T, 10000)
    grid = np.asarray(grid, dtype=float)
    if (grid.ndim != 1 or grid.size == 0 or not np.all(np.isfinite(grid)) or grid[0] != 0.0
            or np.any(np.diff(grid) <= 0)):
        raise ValidationError("grid must be a nonempty, finite, increasing 1-d array from 0")
    table = profile.kind is ProfileKind.TABULATED
    if table:
        grid = np.append(profile.times[profile.times < grid[-1]], grid[-1])

    rho, drho = profile.eval(grid)

    reasons = []
    in_range = rho > 0
    if spec.kind is SpaceKind.SPHERE:
        in_range &= rho > COINCIDENT_TOL * spec.r
        in_range &= rho < spec.max_distance - POLE_MARGIN * spec.r
    if not np.all(in_range):
        bad = int(np.argmin(in_range))
        reasons.append(f"rho leaves the valid range at t = {grid[bad]:.6g}")

    lo = np.full(grid.shape, np.nan)
    hi = np.full(grid.shape, np.nan)
    if np.any(in_range):
        lo[in_range], hi[in_range] = admissible_bounds(spec, rho[in_range])
    if table:
        # segment j, [grid[j], grid[j + 1]], has slope drho[j]
        drho = drho[:-1]
        lo_margin = np.minimum(drho - lo[:-1], drho - lo[1:])
        hi_margin = np.minimum(hi[:-1] - drho, hi[1:] - drho)
        in_range = in_range[:-1] & in_range[1:]
    else:
        lo_margin = drho - lo
        hi_margin = hi - drho

    tol = 1e-8
    ok = in_range & (lo_margin >= -tol) & (hi_margin >= -tol)
    admissible = bool(np.all(ok))
    i = int(np.argmin(ok))
    first_violation = None if admissible else float(grid[i])
    if not admissible and not reasons:
        band = f"[{lo[i]:.6g}, {hi[i]:.6g}]"
        if table:
            reasons.append(f"slope {drho[i]:.6g} of segment [{grid[i]:.6g}, {grid[i + 1]:.6g}] "
                           f"leaves the band, {band} at its start and "
                           f"[{lo[i + 1]:.6g}, {hi[i + 1]:.6g}] at its end")
        else:
            reasons.append(f"rho' = {drho[i]:.6g} outside {band} at t = {grid[i]:.6g}")

    lo_active = bool(np.any(in_range & (np.abs(lo_margin) <= tol)))
    hi_active = bool(np.any(in_range & (np.abs(hi_margin) <= tol)))
    return AdmissibilityReport(admissible, first_violation, grid, lo_margin, hi_margin,
                               tuple(reasons), lo_active, hi_active)


# ---------------------------------------------------------------------------
# reachable envelope


def envelope(spec: SpaceSpec, rho0: float, t):
    """Minimal and maximal rho(t) reachable from rho0; vectorized over t.

    Both endpoints are attained by the extreme built-in profiles (integrating
    an endpoint of the band), and are evaluated as those profiles.
    """
    lower, upper = {
        SpaceKind.SPHERE: (ProfileKind.SPHERE_CONTRACTING, ProfileKind.SPHERE_REPULSIVE),
        SpaceKind.HYPERBOLIC: (ProfileKind.HYPERBOLIC_LOWER, ProfileKind.HYPERBOLIC_UPPER),
        SpaceKind.EUCLIDEAN: (ProfileKind.CONSTANT, ProfileKind.EUCLIDEAN_MAX_GROWTH),
    }[spec.kind]
    return BUILDERS[lower](spec, rho0).eval(t)[0], BUILDERS[upper](spec, rho0).eval(t)[0]
