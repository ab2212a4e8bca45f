"""Constant-curvature model spaces: point validation, geodesic distances, scaling.

The three spaces are Euclidean space (curvature 0), the sphere of radius
r = 1/sqrt(K) embedded in R^{n+1} (curvature K > 0), and the upper half-space
model of hyperbolic space (curvature K < 0).  Hyperbolic points always carry
unit half-space coordinates; the scale r only enters through the metric.
Sphere points live on the radius-r sphere.

Every formula is written once, for the unit-curvature model of its space.
M^n_K is that model rescaled by r in length (and r^2 in time):
:func:`to_unit_model` and :func:`from_unit_model` map coordinates across the
boundary (x/r on spheres, unchanged otherwise), and the geometry helpers map
to the unit model, apply the unit-model formula and map back.

All geometry helpers accept arrays whose last axis is the ambient coordinate
axis, so they work on single points and on batches of points alike.
"""

from __future__ import annotations

import enum
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateStateError, ValidationError, _require_positive_int

# On-manifold validation tolerance; post-integration drift before
# re-projection can exceed machine epsilon.
ON_MANIFOLD_TOL = 1e-9
# Points coincide, for the coupling, at |x - y| <= this on E^n and this * (x1 + y1) on H^n.
# A sphere distance at most this * r is out of range (profiles.check_admissibility).
COINCIDENT_TOL = 1e-12


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
        if not isinstance(self.kind, SpaceKind):
            raise ValidationError(f"kind must be a SpaceKind, got {self.kind!r}")
        _require_positive_int("manifold dimension", self.n)
        if not (isinstance(self.K, numbers.Real) and np.isfinite(self.K)):
            raise ValidationError(f"curvature K must be a finite number, got {self.K!r}")
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


def euclidean(n: int) -> SpaceSpec:
    return SpaceSpec(SpaceKind.EUCLIDEAN, n, 0.0)


def sphere(n: int, K: float = 1.0) -> SpaceSpec:
    return SpaceSpec(SpaceKind.SPHERE, n, K)


def hyperbolic(n: int, K: float = -1.0) -> SpaceSpec:
    return SpaceSpec(SpaceKind.HYPERBOLIC, n, K)


def require_valid_point(spec: SpaceSpec, x) -> np.ndarray:
    """The point as a float array; raise ``ValidationError`` if it is not on the space."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.shape[0] != spec.ambient_dim:
        raise ValidationError(f"expected ambient dimension {spec.ambient_dim}, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValidationError("non-finite coordinates")
    if spec.kind is SpaceKind.SPHERE:
        norm = float(np.linalg.norm(x))
        if abs(norm - spec.r) > ON_MANIFOLD_TOL * max(1.0, spec.r):
            raise ValidationError(f"norm {norm:.6g} differs from radius {spec.r:.6g}")
    if spec.kind is SpaceKind.HYPERBOLIC and not x[0] > 0.0:
        raise ValidationError(f"first coordinate must be strictly positive, got {x[0]:.6g}")
    return x


# ---------------------------------------------------------------------------
# the unit-curvature model boundary


def to_unit_model(spec: SpaceSpec, x) -> np.ndarray:
    """Coordinates of points of M^n_K in the unit-curvature model.

    Sphere points are divided by r.  Euclidean and half-space coordinates are
    scale-free (the half-space metric carries the r^2), so they come back as
    the same float array.
    """
    x = np.asarray(x, dtype=float)
    return x / spec.r if spec.kind is SpaceKind.SPHERE else x


def from_unit_model(spec: SpaceSpec, x_unit) -> np.ndarray:
    """Inverse of :func:`to_unit_model`."""
    x_unit = np.asarray(x_unit, dtype=float)
    return spec.r * x_unit if spec.kind is SpaceKind.SPHERE else x_unit


# ---------------------------------------------------------------------------
# dot products and norms over the coordinate axis


def _dots(a, b):
    """Dot products over the last axis, with the bits of ``(a * b).sum(axis=-1)``.

    For 1 <= N < 8 coordinates numpy's pairwise sum adds the N products one
    at a time, left to right, from +0.0.  Written out, that sum skips the
    generic reduction, which costs several times the multiply at these
    lengths.  From N = 8 on numpy adds in unrolled blocks, in an order of its
    own, and N = 0 has no first term, so both keep the reduction.
    """
    p = a * b
    N = p.shape[-1]
    if not 1 <= N < 8:
        return p.sum(axis=-1)
    s = 0.0 + p[..., 0]
    for k in range(1, N):
        s += p[..., k]
    return s


def _norm(a):
    """``np.linalg.norm(a, axis=-1)`` with the same bits: the root of :func:`_dots`."""
    return np.sqrt(_dots(a, a))


# ---------------------------------------------------------------------------
# distances


def unit_distance(kind: SpaceKind, x, y):
    """Geodesic distance in the unit-curvature model of ``kind`` (batched)."""
    x = np.asarray(x)
    y = np.asarray(y)
    if kind is SpaceKind.EUCLIDEAN:
        return _norm(x - y)
    if kind is SpaceKind.SPHERE:
        # chord form 2*arcsin(|x-y|/2): stable near 0, exact at antipodes
        chord = _norm(x - y)
        return 2.0 * np.arcsin(np.clip(0.5 * chord, -1.0, 1.0))
    # arccosh(1+u) evaluated as log1p for stability near u = 0
    z = x - y
    d2 = _dots(z, z)
    u = d2 / (2.0 * x[..., 0] * y[..., 0])
    return np.log1p(u + np.sqrt(u * (u + 2.0)))


def geodesic_distance(spec: SpaceSpec, x, y):
    """Geodesic distance between points of the space: r times the unit-model distance.

    Accepts batched inputs with the coordinate axis last.  Single points are
    checked first and raise :class:`ValidationError` when off the space.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim == 1 and y.ndim == 1:
        require_valid_point(spec, x)
        require_valid_point(spec, y)
    return spec.r * unit_distance(spec.kind, to_unit_model(spec, x), to_unit_model(spec, y))


# ---------------------------------------------------------------------------
# geodesic interpolation (used to enforce exact distances after a step)


def unit_point_at_distance(kind: SpaceKind, x, y, s):
    """Point at geodesic distance ``s`` from ``x`` toward ``y`` in the unit model of ``kind``.

    Batched over leading axes; ``s`` broadcasts against them.  Requires
    x != y (the geodesic direction must be defined).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    s = np.asarray(s, dtype=float)
    if kind is SpaceKind.EUCLIDEAN:
        z = y - x
        norm = _norm(z)
        if np.any(norm <= 0):
            raise DegenerateStateError("coincident points have no geodesic direction")
        return x + z * (s / norm)[..., None]
    if kind is SpaceKind.SPHERE:
        eta = _dots(x, y)
        tang = y - eta[..., None] * x
        tnorm = _norm(tang)
        if np.any(tnorm <= 1e-15):
            raise DegenerateStateError("coincident or antipodal points on the sphere")
        out = np.cos(s)[..., None] * x + np.sin(s)[..., None] * (tang / tnorm[..., None])
        out /= _norm(out)[..., None]
        return out

    # x -> e1 by (z - (0, x~)) / x1; (sinh(rho - s) h_x + sinh(s) h_y) / sinh(rho), t = 1/(P0 + Pn)
    rho = unit_distance(kind, x, y)
    if np.any(rho <= 0):
        raise DegenerateStateError("coincident hyperbolic points")
    x1 = x[..., 0]
    sx = x1 * np.sinh(s)
    D = y[..., 0] * np.sinh(rho - s) + sx
    out = x + (sx / D)[..., None] * (y - x)
    out[..., 0] = x1 * y[..., 0] * np.sinh(rho) / D
    return out


# ---------------------------------------------------------------------------
# the canonical start pair


def canonical_start(spec: SpaceSpec, rho0: float) -> tuple[np.ndarray, np.ndarray]:
    """A deterministic pair of points at geodesic distance ``rho0``."""
    if not 0 < rho0 < spec.max_distance:
        raise ValidationError(f"rho0 must lie in (0, {spec.max_distance:.6g}), got {rho0}")
    s = rho0 / spec.r
    x = np.zeros(spec.ambient_dim)
    y = np.zeros(spec.ambient_dim)
    with np.errstate(over="ignore", invalid="ignore"):
        if spec.kind is SpaceKind.SPHERE:
            x[0], y[0], y[1] = 1.0, np.cos(s), np.sin(s)
        elif spec.kind is SpaceKind.HYPERBOLIC:
            x[0], y[0] = 1.0, np.exp(s)
        else:
            y[0] = s
        if not np.isfinite(unit_distance(spec.kind, x, y)):
            raise ValidationError(f"rho0 = {rho0:g} is too large: "
                                  "the start points' distance overflows")
    # as the coupling judges it; no later E^n or H^n target is closer (band floor >= 0)
    scale = x[0] + y[0] if spec.kind is SpaceKind.HYPERBOLIC else 1.0
    if spec.kind is not SpaceKind.SPHERE and _norm(x - y) <= COINCIDENT_TOL * scale:
        raise ValidationError(f"rho0 = {rho0:g} is too small: the start points coincide")
    return from_unit_model(spec, x), from_unit_model(spec, y)
