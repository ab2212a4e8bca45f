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
``euclidean_matrices``, ``sphere_matrices`` and ``hyperbolic_matrices`` are
the only way to form (J, K).  They validate every state of the batch, the
half-space two-plane determinant d included, then read J and K off ``drive``
applied to basis vectors, so the identity scans check the same code that the
simulator runs.
"""

from __future__ import annotations

import numpy as np

from .errors import AdmissibilityError, DegenerateStateError, ValidationError
from .model_space import COINCIDENT_TOL, ON_MANIFOLD_TOL, SpaceKind, _dots, _norm

BAND_TOL = 1e-10        # admissible-band slack absorbed before raising
DEGENERATE_ETA = 1e-9   # sphere states with |X.Y| >= 1 - this are rejected
VERTICAL_TOL = 1e-13    # half-space pairs with |Z-tilde| <= this * (X_1 + Y_1) are vertical


def eta_from_rho(kind: SpaceKind, rho, rho_prime):
    """(eta, eta') of a unit-model distance rho moving at rate rho'."""
    if kind is SpaceKind.EUCLIDEAN:
        return 0.5 * rho * rho, rho * rho_prime
    if kind is SpaceKind.SPHERE:
        return np.cos(rho), -np.sin(rho) * rho_prime
    return np.cosh(rho) - 1.0, np.sinh(rho) * rho_prime


# ---------------------------------------------------------------------------
# the matrix-free kernel


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
        xi = Z / _norm(Z)[..., None]
        a = _dots(xi, dB)
        c = _dots(xi, dC)
        return _col(lam) * dB + ((1.0 - lam) * a)[..., None] * xi \
            + _col(np.sqrt(np.maximum(0.0, 1.0 - lam**2))) * (dC - c[..., None] * xi)

    if kind is SpaceKind.SPHERE:
        # J is the reflection X -> -Y, Y -> -X on span{X, Y}, built from the
        # actual points, extended by gamma on the orthogonal complement; K
        # vanishes on span{X, Y} and is sqrt(1 - gamma^2) transversally
        gamma = np.clip(eta + eta_prime / k, -1.0, 1.0) if n >= 2 else np.zeros(np.shape(eta))
        c = _dots(X, Y)                               # cos of the actual angle
        w = Y - c[..., None] * X
        s = _norm(w)
        xi2 = w / s[..., None]
        a1 = _dots(X, dB)
        a2 = _dots(xi2, dB)
        dW = _col(gamma) * (dB - a1[..., None] * X - a2[..., None] * xi2) \
            + (-c * a1 - s * a2)[..., None] * X + (-s * a1 + c * a2)[..., None] * xi2
        b1 = _dots(X, dC)
        b2 = _dots(xi2, dC)
        return dW + _col(np.sqrt(np.maximum(0.0, 1.0 - gamma**2))) \
            * (dC - b1[..., None] * X - b2[..., None] * xi2)

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


def _hyperbolic_plane(X, Y, eta, eta_prime):
    """Unclipped transverse eigenvalue gamma and two-plane determinant d.

    Also returns the plane scalars (m, l, p, q, u, zt): the two-plane map
    sends m e1 + l xi2 to p e1 + q xi2, where xi2 = zt / u is the unit
    boundary displacement, and m^2 + l^2 = p^2 + q^2.  Then the mask of
    vertical pairs (zero boundary displacement, where the plane degenerates
    and d = gamma) and m^2 + l^2 with those pairs set to 1.  In dimension 1
    every pair is vertical and J = 1, so gamma = d = 1.
    """
    k = X.shape[-1] - 1
    x1, y1 = X[..., 0], Y[..., 0]
    zt = X[..., 1:] - Y[..., 1:]
    u = _norm(zt)
    m = u * u + x1 * x1 - y1 * y1
    l = 2.0 * y1 * u
    p = -u * u + x1 * x1 - y1 * y1
    q = 2.0 * x1 * u
    small = u <= VERTICAL_TOL * (x1 + y1)
    M2 = np.where(small, 1.0, m * m + l * l)
    if k == 0:
        gamma = d = np.ones(np.broadcast_shapes(small.shape, np.shape(eta), np.shape(eta_prime)))
        return gamma, d, (m, l, p, q, u, zt, small, M2)
    gamma = 1.0 + eta - eta_prime / k
    phi = -eta_prime / k + (x1 * x1 + y1 * y1) / (x1 * y1)
    denom = (1.0 + eta) * l * q + m * p
    denom = np.where(np.abs(denom) < 1e-300, 1.0, denom)
    d = (phi * M2 - ((1.0 + eta) * m * p + l * q)) / denom
    d = np.where(small, gamma, d)
    return gamma, d, (m, l, p, q, u, zt, small, M2)


# ---------------------------------------------------------------------------
# J and K read off the kernel


def _checked(kind: SpaceKind, X, Y, eta, eta_prime):
    """The state (n, X, Y, eta, eta') as float arrays, once every state is admissible.

    Raises ``ValidationError`` for points of different shapes, non-finite or
    off the manifold, ``DegenerateStateError`` for coincident (or, on the
    sphere, antipodal) points and ``AdmissibilityError`` for eta' outside
    the band or, on the half-space, a two-plane determinant d outside
    [-1, 1], naming the value and the band at the first bad state.
    """
    X, Y, eta, eta_prime = (np.asarray(a, dtype=float) for a in (X, Y, eta, eta_prime))
    if X.ndim == 0 or X.shape != Y.shape:
        raise ValidationError(f"points must have equal shapes, got {X.shape} and {Y.shape}")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(Y))):
        raise ValidationError("points must have finite coordinates")
    n = X.shape[-1] - 1 if kind is SpaceKind.SPHERE else X.shape[-1]
    k = n - 1
    if kind is SpaceKind.EUCLIDEAN:
        if np.any(np.linalg.norm(X - Y, axis=-1) <= COINCIDENT_TOL):
            raise DegenerateStateError("coincident points")
        lo, hi = 0.0, 2.0 * k
    elif kind is SpaceKind.SPHERE:
        if not np.all(np.abs(np.linalg.norm(np.stack([X, Y]), axis=-1) - 1.0) <= ON_MANIFOLD_TOL):
            raise ValidationError("sphere points must be unit vectors")
        if not np.all(np.abs(_dots(X, Y)) < 1.0 - DEGENERATE_ETA):
            raise DegenerateStateError("coincident or antipodal points on the sphere")
        lo, hi = -k * (eta + 1.0), -k * (eta - 1.0)
    else:
        if not (np.all(X[..., 0] > 0) and np.all(Y[..., 0] > 0)):
            raise ValidationError("half-space points need a positive first coordinate")
        if np.any(np.linalg.norm(X - Y, axis=-1) <= COINCIDENT_TOL * (X[..., 0] + Y[..., 0])):
            raise DegenerateStateError("coincident points")
        lo, hi = k * eta, k * eta + 2.0 * k
    _require_band("eta'", eta_prime, lo, hi)
    if kind is SpaceKind.HYPERBOLIC:
        _require_band("two-plane determinant d", _hyperbolic_plane(X, Y, eta, eta_prime)[1],
                      -1.0, 1.0)
    return n, X, Y, eta, eta_prime


def _require_band(name, value, lo, hi):
    """Raise ``AdmissibilityError`` at the first state with value outside [lo, hi]."""
    value, lo, hi = (a.ravel() for a in np.broadcast_arrays(value, lo, hi))
    bad = np.flatnonzero(~((lo - BAND_TOL <= value) & (value <= hi + BAND_TOL)))
    if bad.size:
        i = bad[0]
        raise AdmissibilityError(
            f"{name} = {value[i]:.6g} outside the band [{lo[i]:.6g}, {hi[i]:.6g}]")


def _read_off(kind: SpaceKind, n: int, X, Y, eta, eta_prime):
    """J, K of the linear map (dB, dC) -> drive(kind, n, X, Y, eta, eta', dB, dC).

    The drivers are one unbatched (N, N) identity, whose row i is e_i, and
    an (N,) zero vector.  They broadcast against states of shape
    (..., 1, N), so row i of the result is J e_i (or K e_i).
    """
    N = X.shape[-1]
    lead = np.broadcast_shapes(X.shape[:-1], eta.shape, eta_prime.shape)
    args = [X[..., None, :], Y[..., None, :]]
    args += [np.broadcast_to(s, lead)[..., None] for s in (eta, eta_prime)]
    eye, zero = np.eye(N), np.zeros(N)
    J = np.broadcast_to(drive(kind, n, *args, eye, zero), lead + (N, N)).swapaxes(-1, -2)
    K = np.broadcast_to(drive(kind, n, *args, zero, eye), lead + (N, N)).swapaxes(-1, -2)
    return J, K


def euclidean_matrices(X, Y, eta, eta_prime):
    """J, K realizing d(eta)/dt = eta' in Euclidean space, eta = |X - Y|^2 / 2."""
    return _read_off(SpaceKind.EUCLIDEAN, *_checked(SpaceKind.EUCLIDEAN, X, Y, eta, eta_prime))


def sphere_matrices(X, Y, eta, eta_prime):
    """J, K realizing d(eta)/dt = eta' at the sphere state (X, Y), eta = cos rho."""
    return _read_off(SpaceKind.SPHERE, *_checked(SpaceKind.SPHERE, X, Y, eta, eta_prime))


def hyperbolic_matrices(X, Y, eta, eta_prime):
    """J, K realizing d(eta)/dt = eta' at the half-space state (X, Y), eta = cosh rho - 1."""
    return _read_off(SpaceKind.HYPERBOLIC, *_checked(SpaceKind.HYPERBOLIC, X, Y, eta, eta_prime))
