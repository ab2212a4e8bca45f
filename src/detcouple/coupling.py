"""The coupling: the increment dW = J dB + K dC that keeps the distance deterministic.

The second Brownian motion is driven by dW = J dB + K dC, with J J' + K K' = I
and dB, dC independent.  The right (J, K) cancels the martingale part of the
distance and gives its deterministic part the prescribed rate.  Each space
works with a function eta of the distance rho (``eta_from_rho``):

* Euclidean, eta = rho^2 / 2:  J' fixes Z = X - Y and scales its orthogonal
  complement by lambda = 1 - eta'/(n-1); the realized drift is
  n - tr J = eta'.
* Sphere, eta = cos rho:  J' reflects X -> -Y, Y -> -X on span{X, Y} and
  scales the orthogonal complement by gamma = eta + eta'/(n-1).  (The
  realized drift -(n-1) eta + (n-1) gamma must equal eta', which pins this
  formula down.)
* Hyperbolic half-space, eta = cosh rho - 1:  on the plane spanned by e_1
  and the boundary displacement Z-tilde, J' acts as the two-plane map A_phi
  with phi = -eta'/(n-1) + (X_1^2 + Y_1^2)/(X_1 Y_1), whose determinant is d;
  the orthogonal complement is scaled by gamma = 1 + eta - eta'/(n-1).

``drive`` is the only implementation of this algebra.  It returns dW without
forming J or K, batched over leading axes, and it is what the simulator runs.
The ``*_matrices`` functions read J and K off ``drive`` applied to basis
vectors, so the identity scans check the same code; they perform no
validation.  ``build_*`` are the validating single-state entry points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AdmissibilityError, DegenerateStateError, ValidationError
from .model_space import SpaceKind

BAND_TOL = 1e-10        # admissible-band slack absorbed before raising
DEGENERATE_ETA = 1e-9   # sphere states with |X.Y| >= 1 - this are rejected


@dataclass(frozen=True)
class CouplingMatrices:
    """The pair (J, K) with J J' + K K' = I driving the second motion."""

    J: np.ndarray
    Kmat: np.ndarray

    def identity_residual(self) -> float:
        JK = self.J @ self.J.T + self.Kmat @ self.Kmat.T
        return float(np.max(np.abs(JK - np.eye(self.J.shape[0]))))

    def op_norm(self) -> float:
        return float(np.linalg.svd(self.J, compute_uv=False)[0])


def eta_from_rho(kind: SpaceKind, rho, rho_prime):
    """(eta, eta') of a unit-model distance rho moving at rate rho'."""
    if kind is SpaceKind.EUCLIDEAN:
        return 0.5 * rho * rho, rho * rho_prime
    if kind is SpaceKind.SPHERE:
        return np.cos(rho), -np.sin(rho) * rho_prime
    return np.cosh(rho) - 1.0, np.sinh(rho) * rho_prime


# ---------------------------------------------------------------------------
# the matrix-free kernel


def _dots(a, b):
    return (a * b).sum(axis=-1)


def _col(a):
    """A per-state scalar as a factor of the coordinate axis."""
    return a[..., None] if np.ndim(a) else a


def drive(kind: SpaceKind, n: int, X, Y, eta, eta_prime, dB, dC):
    """Increment dW = J dB + K dC of the second motion at the state (X, Y).

    ``X, Y`` are unit-model points with the coordinate axis last; ``eta``
    and ``eta_prime`` are the space's distance function and its prescribed
    rate; ``dB, dC`` are the increments of the two independent drivers.
    Everything broadcasts over leading axes.  The band-derived eigenvalues
    are clipped into [-1, 1] to absorb floating-point noise at
    band-saturating profiles.
    """
    if n == 1 and kind is not SpaceKind.SPHERE:
        return dB   # translation / synchronous coupling: the only admissible one
    k = n - 1

    if kind is SpaceKind.EUCLIDEAN:
        lam = np.clip(1.0 - eta_prime / k, -1.0, 1.0)
        Z = X - Y
        xi = Z / np.linalg.norm(Z, axis=-1, keepdims=True)
        a = _dots(xi, dB)
        c = _dots(xi, dC)
        return _col(lam) * dB + ((1.0 - lam) * a)[..., None] * xi \
            + _col(np.sqrt(np.maximum(0.0, 1.0 - lam**2))) * (dC - c[..., None] * xi)

    if kind is SpaceKind.SPHERE:
        gamma = np.clip(eta + eta_prime / k, -1.0, 1.0) if n >= 2 else np.zeros(np.shape(eta))
        return _sphere_drive(X, Y, gamma, dB, dC)

    gamma, d, (m, l, p, q, u, zt, small, M2) = _hyperbolic_plane(X, Y, eta, eta_prime)
    gamma = np.clip(gamma, -1.0, 1.0)
    d = np.clip(d, -1.0, 1.0)
    xi2t = zt / np.where(small, 1.0, u)[..., None]
    b11 = np.where(small, 1.0, (m * p + d * l * q) / M2)
    b12 = np.where(small, 0.0, (l * p - d * m * q) / M2)
    b21 = np.where(small, 0.0, (m * q - d * l * p) / M2)
    b22 = np.where(small, d, (l * q + d * m * p) / M2)
    # K's plane block (I - A'A)^{1/2} = sqrt(1 - d^2) u2 u2', u2 = (-l, m)/|(m, l)|,
    # is exact: a generic matrix square root would blur its null direction
    fk = np.sqrt(np.maximum(0.0, 1.0 - d * d)) / M2
    ra = np.where(small, 0.0, fk * l * l)
    rb = np.where(small, 0.0, -fk * m * l)
    rc = np.where(small, np.sqrt(np.maximum(0.0, 1.0 - d * d)), fk * m * m)

    a1 = dB[..., 0]
    a2 = _dots(xi2t, dB[..., 1:])
    c1 = dC[..., 0]
    c2 = _dots(xi2t, dC[..., 1:])
    gperp = np.sqrt(np.maximum(0.0, 1.0 - gamma**2))
    # J = A_phi' on the plane (transposed block) and gamma transversally;
    # K = the plane block (ra, rb; rb, rc) and gperp transversally
    w1 = (gamma * dB[..., 0] + ((b11 * a1 + b21 * a2) - gamma * a1)) \
        + (gperp * dC[..., 0] + ((ra * c1 + rb * c2) - gperp * c1))
    wt = (_col(gamma) * dB[..., 1:] + ((b12 * a1 + b22 * a2) - gamma * a2)[..., None] * xi2t) \
        + (_col(gperp) * dC[..., 1:] + ((rb * c1 + rc * c2) - gperp * c2)[..., None] * xi2t)
    return np.concatenate([w1[..., None], wt], axis=-1)


def _sphere_drive(X, Y, gamma, dB, dC):
    """Sphere dW for an explicit transverse eigenvalue gamma.

    J is the reflection X -> -Y, Y -> -X on span{X, Y} extended by gamma on
    the orthogonal complement; K vanishes on span{X, Y} and is
    sqrt(1 - gamma^2) transversally.  The reflection uses the actual points.
    """
    c = _dots(X, Y)                               # cos of the actual angle
    w = Y - c[..., None] * X
    s = np.linalg.norm(w, axis=-1)
    xi2 = w / s[..., None]
    a1 = _dots(X, dB)
    a2 = _dots(xi2, dB)
    dW = _col(gamma) * (dB - a1[..., None] * X - a2[..., None] * xi2) \
        + (-c * a1 - s * a2)[..., None] * X + (-s * a1 + c * a2)[..., None] * xi2
    b1 = _dots(X, dC)
    b2 = _dots(xi2, dC)
    return dW + _col(np.sqrt(np.maximum(0.0, 1.0 - gamma**2))) \
        * (dC - b1[..., None] * X - b2[..., None] * xi2)


def hyperbolic_two_plane_scalars(X, Y):
    """The scalars (m, l, p, q) of the half-space two-plane construction.

    The two-plane map sends m e1 + l xi2 to p e1 + q xi2, where xi2 is the
    unit boundary displacement; m^2 + l^2 = p^2 + q^2.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    x1, y1 = X[..., 0], Y[..., 0]
    zt = X[..., 1:] - Y[..., 1:]
    u = np.linalg.norm(zt, axis=-1)
    m = u * u + x1 * x1 - y1 * y1
    l = 2.0 * y1 * u
    p = -u * u + x1 * x1 - y1 * y1
    q = 2.0 * x1 * u
    return m, l, p, q, u, zt


def _hyperbolic_plane(X, Y, eta, eta_prime):
    """Unclipped transverse eigenvalue gamma and two-plane determinant d (n >= 2).

    Also returns the plane scalars (m, l, p, q, u, zt), the mask of
    vertical pairs (zero boundary displacement, where the plane degenerates
    and d = gamma) and m^2 + l^2 with those pairs set to 1.
    """
    k = X.shape[-1] - 1
    x1, y1 = X[..., 0], Y[..., 0]
    m, l, p, q, u, zt = hyperbolic_two_plane_scalars(X, Y)
    gamma = 1.0 + eta - eta_prime / k
    small = u <= 1e-13 * (x1 + y1)
    M2 = np.where(small, 1.0, m * m + l * l)
    phi = -eta_prime / k + (x1 * x1 + y1 * y1) / (x1 * y1)
    denom = (1.0 + eta) * l * q + m * p
    denom = np.where(np.abs(denom) < 1e-300, 1.0, denom)
    d = (phi * M2 - ((1.0 + eta) * m * p + l * q)) / denom
    d = np.where(small, gamma, d)
    return gamma, d, (m, l, p, q, u, zt, small, M2)


# ---------------------------------------------------------------------------
# J and K read off the kernel


def _read_off(step, X, Y, *scalars):
    """J, K of the linear map (dB, dC) -> step(X, Y, *scalars, dB, dC).

    The drivers are one unbatched (N, N) identity, whose row i is e_i, and
    an (N,) zero vector.  They broadcast against states of shape
    (..., 1, N), so row i of the result is J e_i (or K e_i).
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    lead = np.broadcast_shapes(X.shape[:-1], Y.shape[:-1], *map(np.shape, scalars))
    args = [X[..., None, :], Y[..., None, :]]
    args += [np.broadcast_to(np.asarray(s, dtype=float), lead)[..., None] for s in scalars]
    N = X.shape[-1]
    eye, zero = np.eye(N), np.zeros(N)
    J = np.broadcast_to(step(*args, eye, zero), lead + (N, N)).swapaxes(-1, -2)
    K = np.broadcast_to(step(*args, zero, eye), lead + (N, N)).swapaxes(-1, -2)
    return J, K


def euclidean_matrices(X, Y, eta, eta_prime):
    """J, K realizing d(eta)/dt = eta' in Euclidean space, eta = |X - Y|^2 / 2."""
    n = np.shape(X)[-1]
    return _read_off(lambda *a: drive(SpaceKind.EUCLIDEAN, n, *a), X, Y, eta, eta_prime)


def sphere_matrices(X, Y, eta, eta_prime):
    """J, K realizing d(eta)/dt = eta' at the sphere state (X, Y), eta = cos rho."""
    n = np.shape(X)[-1] - 1
    return _read_off(lambda *a: drive(SpaceKind.SPHERE, n, *a), X, Y, eta, eta_prime)


def sphere_matrices_from_gamma(X, Y, gamma):
    """J, K on the sphere from an explicit transverse eigenvalue gamma."""
    return _read_off(_sphere_drive, X, Y, gamma)


def hyperbolic_matrices(X, Y, eta, eta_prime):
    """J, K realizing d(eta)/dt = eta' at the half-space state (X, Y).

    Returns (J, K, gamma, d).  J and K are built from gamma and d clipped
    into [-1, 1]; the returned gamma and d are unclipped, so callers can
    reject out-of-band input (d is 1 in dimension 1).
    """
    n = np.shape(X)[-1]
    J, K = _read_off(lambda *a: drive(SpaceKind.HYPERBOLIC, n, *a), X, Y, eta, eta_prime)
    if n == 1:
        ones = np.ones(J.shape[:-2])
        return J, K, ones, ones
    gamma, d, _ = _hyperbolic_plane(np.asarray(X, dtype=float), np.asarray(Y, dtype=float),
                                    eta, eta_prime)
    return J, K, gamma, d


# ---------------------------------------------------------------------------
# validating single-state constructors


def build_euclidean(n: int, Z, rho: float, rho_prime: float) -> CouplingMatrices:
    """Matrices with J'Z = Z, K'Z = 0 and n - tr J = rho rho'."""
    Z = np.asarray(Z, dtype=float)
    if Z.shape != (n,):
        raise ValidationError(f"Z must have shape ({n},), got {Z.shape}")
    if np.linalg.norm(Z) <= 1e-12:
        raise DegenerateStateError("coincident points: Z = 0")
    drift = rho * rho_prime
    if n == 1:
        if abs(drift) > BAND_TOL:
            raise AdmissibilityError("in dimension 1 only a constant distance is admissible")
    elif not -1.0 - 1e-12 <= 1.0 - drift / (n - 1) <= 1.0 + 1e-12:
        raise AdmissibilityError(
            f"rho rho' = {drift:.6g} outside the admissible range [0, {2*(n-1):.6g}]")
    J, K = euclidean_matrices(Z, np.zeros(n), 0.5 * rho * rho, drift)
    return CouplingMatrices(J, K)


def build_sphere(n: int, X, Y, eta: float, eta_prime: float) -> CouplingMatrices:
    """Matrices realizing d(eta)/dt = eta' on the unit sphere, eta = cos rho.

    The reflection part is built from the actual points; ``eta`` enters only
    the transverse eigenvalue gamma = eta + eta'/(n-1) and the band check
    -(n-1)(eta+1) <= eta' <= -(n-1)(eta-1).
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if X.shape != (n + 1,) or Y.shape != (n + 1,):
        raise ValidationError(f"points must have ambient dimension {n + 1}")
    for v in (X, Y):
        if abs(np.linalg.norm(v) - 1.0) > 1e-9:
            raise ValidationError("sphere points must be unit vectors")
    c = float(np.dot(X, Y))
    if abs(c) >= 1.0 - DEGENERATE_ETA:
        raise DegenerateStateError("coincident or antipodal points on the sphere")
    k = n - 1
    if not -k * (eta + 1.0) - BAND_TOL <= eta_prime <= -k * (eta - 1.0) + BAND_TOL:
        raise AdmissibilityError(
            f"eta' = {eta_prime:.6g} outside the band [{-k*(eta+1):.6g}, {-k*(eta-1):.6g}]")
    J, K = sphere_matrices(X, Y, eta, eta_prime)
    return CouplingMatrices(J, K)


def build_hyperbolic(n: int, X, Y, eta: float, eta_prime: float) -> CouplingMatrices:
    """Matrices realizing d(eta)/dt = eta' on half-space, eta = cosh(rho) - 1."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if X.shape != (n,) or Y.shape != (n,):
        raise ValidationError(f"points must have ambient dimension {n}")
    if X[0] <= 0 or Y[0] <= 0:
        raise ValidationError("half-space points need a positive first coordinate")
    if np.linalg.norm(X - Y) <= 1e-12 * (X[0] + Y[0]):
        raise DegenerateStateError("coincident points")
    k = n - 1
    if not k * eta - BAND_TOL <= eta_prime <= k * eta + 2.0 * k + BAND_TOL:
        raise AdmissibilityError(
            f"eta' = {eta_prime:.6g} outside the band [{k*eta:.6g}, {k*eta + 2*k:.6g}]")
    J, K, _, d = hyperbolic_matrices(X, Y, eta, eta_prime)
    if np.any(np.abs(d) > 1.0 + 1e-10):
        raise AdmissibilityError(f"two-plane determinant {float(np.max(np.abs(d))):.6g} exceeds 1")
    return CouplingMatrices(J, K)
