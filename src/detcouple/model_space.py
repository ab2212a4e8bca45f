"""Constant-curvature model spaces: point validation, geodesic distances, scaling.

The three spaces are Euclidean space (curvature 0), the sphere of radius
r = 1/sqrt(K) embedded in R^{n+1} (curvature K > 0), and the upper half-space
model of hyperbolic space (curvature K < 0).  Hyperbolic points always carry
unit half-space coordinates; the scale r only enters through the metric, so
distances are r times the unit-model formula and coordinates are never
multiplied by r.  Sphere points live on the radius-r sphere.

All geometry helpers accept arrays whose last axis is the ambient coordinate
axis, so they work on single points and on batches of points alike.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateStateError, ValidationError

# On-manifold validation tolerance; post-integration drift before
# re-projection can exceed machine epsilon.
ON_MANIFOLD_TOL = 1e-9


class SpaceKind(enum.Enum):
    EUCLIDEAN = "euclidean"
    SPHERE = "sphere"
    HYPERBOLIC = "hyperbolic"


@dataclass(frozen=True)
class SpaceSpec:
    """Which model space: curvature sign, manifold dimension and scale.

    ``n`` is the manifold dimension (>= 1), ``K`` the curvature and
    ``r = 1/sqrt(|K|)`` the scale for K != 0 (conventionally 1 for K = 0).
    """

    kind: SpaceKind
    n: int
    K: float

    def __post_init__(self):
        if self.n < 1 or int(self.n) != self.n:
            raise ValidationError(f"manifold dimension must be a positive integer, got {self.n}")
        if self.kind is SpaceKind.EUCLIDEAN and self.K != 0.0:
            raise ValidationError("Euclidean space requires K = 0")
        if self.kind is SpaceKind.SPHERE and not self.K > 0.0:
            raise ValidationError("sphere requires K > 0")
        if self.kind is SpaceKind.HYPERBOLIC and not self.K < 0.0:
            raise ValidationError("hyperbolic space requires K < 0")

    @property
    def r(self) -> float:
        """Scale of the space, 1/sqrt(|K|) for curved spaces."""
        return 1.0 if self.K == 0.0 else 1.0 / np.sqrt(abs(self.K))

    @property
    def ambient_dim(self) -> int:
        """Dimension of the ambient coordinate vector (n+1 on spheres)."""
        return self.n + 1 if self.kind is SpaceKind.SPHERE else self.n

    @property
    def max_distance(self) -> float:
        """Diameter of the space (pi*r on spheres, infinite otherwise)."""
        return np.pi * self.r if self.kind is SpaceKind.SPHERE else np.inf

    def unit(self) -> "SpaceSpec":
        """The unit-curvature version of this space (K in {-1, 0, +1})."""
        if self.kind is SpaceKind.EUCLIDEAN:
            return self
        return SpaceSpec(self.kind, self.n, 1.0 if self.K > 0 else -1.0)


def euclidean(n: int) -> SpaceSpec:
    return SpaceSpec(SpaceKind.EUCLIDEAN, n, 0.0)


def sphere(n: int, K: float = 1.0) -> SpaceSpec:
    return SpaceSpec(SpaceKind.SPHERE, n, K)


def hyperbolic(n: int, K: float = -1.0) -> SpaceSpec:
    return SpaceSpec(SpaceKind.HYPERBOLIC, n, K)


@dataclass(frozen=True)
class PointReport:
    """Result of validating a point against a space."""

    ok: bool
    issues: tuple[str, ...]
    norm_error: float = 0.0     # | |x| - r | on spheres
    first_coord: float = np.nan  # x_1 on hyperbolic spaces


def validate_point(spec: SpaceSpec, x: np.ndarray, tol: float = ON_MANIFOLD_TOL) -> PointReport:
    """Check a single point against the space's constraints; never raises."""
    x = np.asarray(x, dtype=float)
    issues = []
    if x.ndim != 1 or x.shape[0] != spec.ambient_dim:
        issues.append(f"expected ambient dimension {spec.ambient_dim}, got shape {x.shape}")
        return PointReport(False, tuple(issues))
    if not np.all(np.isfinite(x)):
        issues.append("non-finite coordinates")
        return PointReport(False, tuple(issues))
    if spec.kind is SpaceKind.SPHERE:
        err = abs(float(np.linalg.norm(x)) - spec.r)
        if err > tol * max(1.0, spec.r):
            issues.append(f"norm {np.linalg.norm(x):.6g} differs from radius {spec.r:.6g}")
        return PointReport(not issues, tuple(issues), norm_error=err)
    if spec.kind is SpaceKind.HYPERBOLIC:
        x1 = float(x[0])
        if not x1 > 0.0:
            issues.append(f"first coordinate must be strictly positive, got {x1:.6g}")
        return PointReport(not issues, tuple(issues), first_coord=x1)
    return PointReport(True, ())


def require_valid_point(spec: SpaceSpec, x: np.ndarray) -> np.ndarray:
    """Validate and return the point as a float array; raise on violation."""
    report = validate_point(spec, x)
    if not report.ok:
        raise ValidationError("; ".join(report.issues))
    return np.asarray(x, dtype=float)


# ---------------------------------------------------------------------------
# distances


def unit_distance(kind: SpaceKind, x, y):
    """Geodesic distance in the unit-curvature model of ``kind`` (batched)."""
    x = np.asarray(x)
    y = np.asarray(y)
    if kind is SpaceKind.EUCLIDEAN:
        return np.linalg.norm(x - y, axis=-1)
    if kind is SpaceKind.SPHERE:
        # chord form 2*arcsin(|x-y|/2): stable near 0, exact at antipodes
        chord = np.linalg.norm(x - y, axis=-1)
        return 2.0 * np.arcsin(np.clip(0.5 * chord, -1.0, 1.0))
    # arccosh(1+u) evaluated as log1p for stability near u = 0
    d2 = ((x - y) ** 2).sum(axis=-1)
    u = d2 / (2.0 * x[..., 0] * y[..., 0])
    return np.log1p(u + np.sqrt(u * (u + 2.0)))


def geodesic_distance(spec: SpaceSpec, x: np.ndarray, y: np.ndarray, validate: bool = True):
    """Geodesic distance between points of the space (r times the unit model).

    Accepts batched inputs with the coordinate axis last.  With
    ``validate=True`` (the default for single points) both inputs are checked
    first and a :class:`ValidationError` is raised on violation.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if validate and x.ndim == 1 and y.ndim == 1:
        require_valid_point(spec, x)
        require_valid_point(spec, y)
    if spec.kind is SpaceKind.SPHERE:
        return spec.r * unit_distance(spec.kind, x / spec.r, y / spec.r)
    return spec.r * unit_distance(spec.kind, x, y)


# ---------------------------------------------------------------------------
# scaling between M^n_K and the unit-curvature model


def to_unit_model(spec: SpaceSpec, x: np.ndarray, t: float):
    """Map (point, time) of M^n_K to the unit-curvature model: (x/r, t/r^2).

    Hyperbolic half-space coordinates are scale-free (the metric carries r^2),
    so only time is rescaled there.
    """
    x = np.asarray(x, dtype=float)
    r = spec.r
    if spec.kind is SpaceKind.SPHERE:
        return x / r, t / r**2
    if spec.kind is SpaceKind.HYPERBOLIC:
        return x.copy(), t / r**2
    return x.copy(), t


def from_unit_model(spec: SpaceSpec, x_unit: np.ndarray, t_unit: float):
    """Inverse of :func:`to_unit_model`."""
    x_unit = np.asarray(x_unit, dtype=float)
    r = spec.r
    if spec.kind is SpaceKind.SPHERE:
        return r * x_unit, r**2 * t_unit
    if spec.kind is SpaceKind.HYPERBOLIC:
        return x_unit.copy(), r**2 * t_unit
    return x_unit.copy(), t_unit


# ---------------------------------------------------------------------------
# geodesic interpolation (used to enforce exact distances after a step)


def point_at_distance(spec: SpaceSpec, x: np.ndarray, y: np.ndarray, s):
    """Point at geodesic distance ``s`` from ``x`` along the geodesic to ``y``.

    Batched over leading axes; ``s`` broadcasts against them.  Requires
    x != y (the geodesic direction must be defined).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    s = np.asarray(s, dtype=float)
    if spec.kind is SpaceKind.EUCLIDEAN:
        z = y - x
        norm = np.linalg.norm(z, axis=-1)
        if np.any(norm <= 0):
            raise DegenerateStateError("coincident points have no geodesic direction")
        return x + z * (s / norm)[..., None]
    if spec.kind is SpaceKind.SPHERE:
        r = spec.r
        xu, yu = x / r, y / r
        eta = (xu * yu).sum(axis=-1)
        tang = yu - eta[..., None] * xu
        tnorm = np.linalg.norm(tang, axis=-1)
        if np.any(tnorm <= 1e-15):
            raise DegenerateStateError("coincident or antipodal points on the sphere")
        ang = s / r
        out = np.cos(ang)[..., None] * xu + np.sin(ang)[..., None] * (tang / tnorm[..., None])
        out /= np.linalg.norm(out, axis=-1, keepdims=True)
        return r * out
    return _hyperbolic_point_at_distance(x, y, s / spec.r)


def _hyperbolic_point_at_distance(x, y, s):
    # Geodesics of the half-space are vertical rays or semicircles centered on
    # the boundary; arc length along a semicircle is log(tan(theta/2)).
    x1 = x[..., 0]
    y1 = y[..., 0]
    zt = y[..., 1:] - x[..., 1:]
    b = np.linalg.norm(zt, axis=-1)
    vertical = b <= 1e-14 * (x1 + y1)
    if np.any(vertical & (x1 == y1)):
        raise DegenerateStateError("coincident hyperbolic points")

    lead = np.broadcast_shapes(x1.shape, y1.shape, np.shape(s))
    out = np.empty(lead + x.shape[-1:], dtype=float)
    s = np.broadcast_to(s, lead)

    # vertical ray: only the first coordinate moves, multiplicatively
    sigma = np.where(y1 >= x1, 1.0, -1.0)
    out_vert_1 = x1 * np.exp(sigma * s)

    # semicircle of center c (along the boundary direction w) and radius R
    b_safe = np.where(vertical, 1.0, b)
    w = zt / b_safe[..., None]
    c = (b_safe**2 + y1**2 - x1**2) / (2.0 * b_safe)
    R = np.hypot(c, x1)
    theta_x = np.arctan2(x1, c)
    theta_y = np.arctan2(y1, c - b_safe)
    tau_x = np.tan(0.5 * theta_x)
    sgn = np.where(theta_y >= theta_x, 1.0, -1.0)
    theta_new = 2.0 * np.arctan(tau_x * np.exp(sgn * s))
    new_1 = R * np.sin(theta_new)
    new_t = x[..., 1:] + (c - R * np.cos(theta_new))[..., None] * w

    out[..., 0] = np.where(vertical, out_vert_1, new_1)
    out[..., 1:] = np.where(vertical[..., None], np.broadcast_to(x[..., 1:], new_t.shape), new_t)
    return out


# ---------------------------------------------------------------------------
# sampling helpers (tests and verification harness)


def random_points(spec: SpaceSpec, size: int, rng: np.random.Generator) -> np.ndarray:
    """Sample ``size`` valid points, coordinate scale O(1)."""
    N = spec.ambient_dim
    if spec.kind is SpaceKind.SPHERE:
        g = rng.standard_normal((size, N))
        return spec.r * g / np.linalg.norm(g, axis=-1, keepdims=True)
    if spec.kind is SpaceKind.HYPERBOLIC:
        pts = 0.8 * rng.standard_normal((size, N))
        pts[:, 0] = np.exp(0.4 * rng.standard_normal(size))
        return pts
    return rng.standard_normal((size, N))


def canonical_start(spec: SpaceSpec, rho0: float) -> tuple[np.ndarray, np.ndarray]:
    """A deterministic pair of points at geodesic distance ``rho0``."""
    if not 0 < rho0 < spec.max_distance:
        raise ValidationError(f"rho0 must lie in (0, {spec.max_distance:.6g}), got {rho0}")
    N = spec.ambient_dim
    if spec.kind is SpaceKind.SPHERE:
        ang = rho0 / spec.r
        x = np.zeros(N)
        x[0] = spec.r
        y = np.zeros(N)
        y[0] = spec.r * np.cos(ang)
        y[1] = spec.r * np.sin(ang)
        return x, y
    if spec.kind is SpaceKind.HYPERBOLIC:
        x = np.zeros(N)
        x[0] = 1.0
        y = np.zeros(N)
        y[0] = np.exp(rho0 / spec.r)
        return x, y
    x = np.zeros(N)
    y = np.zeros(N)
    y[0] = rho0
    return x, y
