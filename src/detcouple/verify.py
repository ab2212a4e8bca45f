"""Monte Carlo and algebraic verification harness.

Three independent lines of evidence that the constructions are right:

* identity scans: the matrix identities (J J' + K K' = I, the cancellation
  relations, the drift match, the two-plane scalar identities) hold at
  random admissible states up to rounding;
* path statistics: simulated ensembles track the target distance, and the
  marginals of each motion decay like genuine Brownian motion;
* the rotation oracle: an entirely different construction of the sphere
  fixed-distance coupling (a common random rotation applied to both start
  points), exact up to roundoff, to cross-check the SDE ensembles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .coupling import (euclidean_matrices, hyperbolic_matrices, hyperbolic_two_plane_scalars,
                       sphere_matrices)
from .errors import ValidationError, _key_word, _require_positive_int
from .model_space import SpaceKind, SpaceSpec, to_unit_model
from .sde import NOISE_BLOCK_STEPS, EnsembleResult, path_gaussians, simulate_ensemble, time_grid

SCAN_TOL = 1e-10                   # identity residuals pass at or below this
SCAN_DIMS = ((2, 0.4), (3, 0.4), (1, 0.1), (5, 0.1))   # identity_scan_all: (n, share of samples)
BOUNDARY_ALIGNED_FRACTION = 0.25   # hyperbolic scan pairs with zero boundary displacement
SLOPE_RANGE = (0.4, 1.1)           # accepted log-log slope of the dt-convergence study
MIN_DECAY_PATHS = 500              # smallest ensemble mean_decay_check accepts


@dataclass(frozen=True)
class VerifyReport:
    """One named check: passes iff statistic <= tolerance."""

    name: str
    statistic: float
    tolerance: float
    ensemble: int | None = None
    dt: float | None = None
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return bool(self.statistic <= self.tolerance)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "statistic": self.statistic,
            "tolerance": self.tolerance,
            "pass": self.passed,
            "ensemble": self.ensemble,
            "dt": self.dt,
            "details": {k: _jsonable(v) for k, v in self.details.items()},
        }


def _jsonable(v):
    if isinstance(v, np.ndarray):
        return v.tolist()
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    return v


# ---------------------------------------------------------------------------
# distance tracking statistics


def distance_error_stats(result: EnsembleResult, tolerance: float = 0.05) -> VerifyReport:
    """Sup/mean/RMS statistics of |d_emp - target| over an ensemble run with
    ``record_distances=True``; the reported statistic is the ensemble mean of
    the per-path sup error."""
    return VerifyReport("distance-tracking", result.mean_sup_err, tolerance, result.n_paths,
                        result.dt, {
        "mean_sup_err": result.mean_sup_err,
        "max_sup_err": result.max_sup_err,
        "rms_err": result.rms_err(),
    })


# ---------------------------------------------------------------------------
# algebraic identity scan


def _max_abs(x):
    return float(np.max(np.abs(x))) if np.size(x) else 0.0


def _scan_euclidean(n, size, rng):
    Z = rng.standard_normal((size, n))
    norm = np.linalg.norm(Z, axis=-1)
    Z[norm < 1e-3] *= (1e-3 / norm[norm < 1e-3])[:, None]
    rho = np.linalg.norm(Z, axis=-1)
    drho = rng.uniform(0.0, 2.0 * (n - 1) / rho) if n >= 2 else np.zeros(size)
    J, K = euclidean_matrices(Z, np.zeros_like(Z), 0.5 * rho * rho, rho * drho)
    res = {
        "cancel": max(_max_abs(np.einsum("pji,pj->pi", J, Z) - Z),
                      _max_abs(np.einsum("pji,pj->pi", K, Z))),
        "drift": _max_abs(n - np.trace(J, axis1=-2, axis2=-1) - rho * drho),
    }
    return J, K, res


def _scan_sphere(n, size, rng):
    N = n + 1
    X = rng.standard_normal((size, N))
    X /= np.linalg.norm(X, axis=-1, keepdims=True)
    tang = rng.standard_normal((size, N))
    tang -= (tang * X).sum(-1, keepdims=True) * X
    # redraw near-radial directions: normalizing them would lose precision
    for _ in range(40):
        bad = np.linalg.norm(tang, axis=-1) < 0.1
        if not np.any(bad):
            break
        tang[bad] = rng.standard_normal((int(bad.sum()), N))
        tang[bad] -= (tang[bad] * X[bad]).sum(-1, keepdims=True) * X[bad]
    tang /= np.linalg.norm(tang, axis=-1, keepdims=True)
    ang = rng.uniform(0.02, np.pi - 0.02, size)
    Y = np.cos(ang)[:, None] * X + np.sin(ang)[:, None] * tang
    eta = (X * Y).sum(-1)
    k = n - 1
    if n >= 2:
        etap = rng.uniform(-k * (eta + 1.0), k * (1.0 - eta))
    else:
        etap = np.zeros(size)
    J, K = sphere_matrices(X, Y, eta, etap)
    v = X - eta[:, None] * Y
    eye = np.eye(N)
    U = eye - X[:, :, None] * X[:, None, :]
    V = eye - Y[:, :, None] * Y[:, None, :]
    trUJV = np.einsum("pij,pkj,pki->p", U, J, V)
    res = {
        "cancel": max(_max_abs(np.einsum("pji,pj->pi", J, v) - (eta[:, None] * X - Y)),
                      _max_abs(np.einsum("pji,pj->pi", K, v))),
        "drift": _max_abs(-n * eta + trUJV - etap),
    }
    if n == 1:
        res["rotation_branch_K"] = _max_abs(K)
    return J, K, res


def _scan_hyperbolic(n, size, rng):
    X = 0.8 * rng.standard_normal((size, n))
    Y = 0.8 * rng.standard_normal((size, n))
    X[:, 0] = np.exp(0.4 * rng.standard_normal(size))
    Y[:, 0] = np.exp(0.4 * rng.standard_normal(size))
    if n >= 2:
        # a sub-batch with zero boundary displacement exercises the diagonal branch
        naligned = int(size * BOUNDARY_ALIGNED_FRACTION)
        Y[:naligned, 1:] = X[:naligned, 1:]
        same = np.abs(X[:, 0] - Y[:, 0]) < 1e-6
        Y[same, 0] *= 1.5
    eta = ((X - Y) ** 2).sum(-1) / (2.0 * X[:, 0] * Y[:, 0])
    k = n - 1
    etap = k * eta + rng.uniform(0.0, 2.0 * k, size) if n >= 2 else np.zeros(size)
    J, K, gamma, d = hyperbolic_matrices(X, Y, eta, etap)
    m, l, p, q, u, zt = hyperbolic_two_plane_scalars(X, Y)
    M2 = m * m + l * l
    xi2 = np.zeros_like(X)
    general = u > 1e-13 * (X[:, 0] + Y[:, 0])
    xi2[general, 1:] = zt[general] / u[general, None]
    e1 = np.zeros_like(X)
    e1[:, 0] = 1.0
    v = m[:, None] * e1 + l[:, None] * xi2
    rhs = p[:, None] * e1 + q[:, None] * xi2
    scale = np.maximum(1.0, np.sqrt(M2))[:, None]
    Jtv = np.einsum("pji,pj->pi", J, v)
    Ktv = np.einsum("pji,pj->pi", K, v)
    drift = (1.0 + eta) * (n - 2 - J[:, 0, 0]) \
        - (np.trace(J, axis1=-2, axis2=-1) - J[:, 0, 0]) \
        + (X[:, 0] ** 2 + Y[:, 0] ** 2) / (X[:, 0] * Y[:, 0])
    res = {
        "cancel": max(_max_abs((Jtv - rhs) / scale), _max_abs(Ktv / scale)),
        "drift": _max_abs(drift - etap),
        "two_plane_norm": _max_abs((M2 - (p * p + q * q)) / np.maximum(M2, 1.0)),
        "d_eq_gamma": _max_abs(d - gamma),
        "d_bound": max(0.0, float(np.max(np.abs(d))) - 1.0),
    }
    if n >= 2 and np.any(general):
        # det of the two-plane block equals d
        Q = np.stack([e1, xi2], axis=-1)[general]
        B = np.einsum("pia,pij,pjb->pab", Q, J[general].transpose(0, 2, 1), Q)
        res["det_block"] = _max_abs(np.linalg.det(B) - d[general])
    return J, K, res


def identity_scan(spec: SpaceSpec, num_samples: int, seed: int) -> VerifyReport:
    """Residuals of all construction identities at random admissible states."""
    _require_positive_int("num_samples", num_samples)
    rng = np.random.default_rng(_key_word("seed", seed))
    n = spec.n
    if spec.kind is SpaceKind.EUCLIDEAN:
        J, K, res = _scan_euclidean(n, num_samples, rng)
    elif spec.kind is SpaceKind.SPHERE:
        J, K, res = _scan_sphere(n, num_samples, rng)
    else:
        J, K, res = _scan_hyperbolic(n, num_samples, rng)
    JK = np.einsum("pij,pkj->pik", J, J) + np.einsum("pij,pkj->pik", K, K)
    res["unitarity"] = _max_abs(JK - np.eye(J.shape[-1]))
    res["op_norm_excess"] = max(0.0, float(np.linalg.svd(J, compute_uv=False).max()) - 1.0)
    worst = max(res.values())
    return VerifyReport(f"identity-scan-{spec.kind.value}-n{n}", worst, SCAN_TOL,
                        num_samples, None, res)


def identity_scan_all(num_samples_per_space: int, seed: int) -> list[VerifyReport]:
    """Identity scans over all three spaces, samples split across ``SCAN_DIMS``."""
    _key_word("seed", seed)
    _key_word("last scan seed", seed + 97 * 2 + len(SCAN_DIMS) - 1)
    reports = []
    for offset, kind in enumerate([SpaceKind.EUCLIDEAN, SpaceKind.SPHERE, SpaceKind.HYPERBOLIC]):
        for j, (n, w) in enumerate(SCAN_DIMS):
            spec = SpaceSpec(kind, n, {SpaceKind.EUCLIDEAN: 0.0, SpaceKind.SPHERE: 1.0,
                                       SpaceKind.HYPERBOLIC: -1.0}[kind])
            size = max(1, int(num_samples_per_space * w))
            reports.append(identity_scan(spec, size, seed + 97 * offset + j))
    return reports


# ---------------------------------------------------------------------------
# marginal sanity: mean decay of each motion


def _mean_decay_stat(states_unit, start_unit, kind: SpaceKind, n: int, t_unit: float):
    if kind is SpaceKind.SPHERE:
        theory = np.exp(-n * t_unit / 2.0) * np.asarray(start_unit)
        mean = states_unit.mean(axis=0)
        diff = mean - theory
        stat = float(np.linalg.norm(diff))
        cov = np.cov(states_unit.T)
        u = diff / stat if stat > 0 else np.ones(len(mean)) / np.sqrt(len(mean))
        se = float(np.sqrt(u @ np.atleast_2d(cov) @ u / states_unit.shape[0]))
        return stat, se
    if kind is SpaceKind.HYPERBOLIC:
        theory = start_unit[0] * np.exp(-(n - 2) * t_unit / 2.0)
        x1 = states_unit[:, 0]
        stat = float(abs(x1.mean() - theory))
        se = float(x1.std(ddof=1) / np.sqrt(len(x1)))
        return stat, se
    mean = states_unit.mean(axis=0)
    diff = mean - np.asarray(start_unit)
    stat = float(np.linalg.norm(diff))
    se = float(np.sqrt(np.trace(np.atleast_2d(np.cov(states_unit.T))) / states_unit.shape[0]))
    return stat, se


def mean_decay_check(result: EnsembleResult, spec: SpaceSpec, x0, y0,
                     bias_allowance: float = 0.0) -> list[VerifyReport]:
    """Check E[X(T)] (and Y) against the exact Brownian mean decay.

    The coupling must not distort either marginal; the tolerance is three
    standard errors plus an explicit discretization-bias allowance.
    """
    if result.n_paths < MIN_DECAY_PATHS:
        raise ValidationError(f"need at least {MIN_DECAY_PATHS} paths, got {result.n_paths}")
    t_unit = result.T / spec.r**2
    out = []
    for label, states, start in (("X", result.final_X, x0), ("Y", result.final_Y, y0)):
        stat, se = _mean_decay_stat(to_unit_model(spec, states), to_unit_model(spec, start),
                                    spec.kind, spec.n, t_unit)
        out.append(VerifyReport(
            f"mean-decay-{spec.kind.value}-{label}", stat, 3.0 * se + bias_allowance,
            result.n_paths, result.dt, {"standard_error": se, "bias_allowance": bias_allowance}))
    return out


# ---------------------------------------------------------------------------
# SO(3) rotation oracle for the sphere fixed-distance coupling


def _rodrigues(delta):
    """Batched closed-form exponential of the antisymmetric matrix [delta]_x."""
    theta = np.linalg.norm(delta, axis=-1)
    safe = np.where(theta > 0, theta, 1.0)
    a = delta / safe[..., None]
    zero = np.zeros_like(theta)
    Kx = np.stack([
        np.stack([zero, -a[..., 2], a[..., 1]], axis=-1),
        np.stack([a[..., 2], zero, -a[..., 0]], axis=-1),
        np.stack([-a[..., 1], a[..., 0], zero], axis=-1),
    ], axis=-2)
    st = np.sin(theta)[..., None, None]
    ct = (1.0 - np.cos(theta))[..., None, None]
    R = np.eye(3) + st * Kx + ct * (Kx @ Kx)
    return np.where((theta > 0)[..., None, None], R, np.eye(3))


def rotation_ensemble(rho0: float, dt: float, T: float, seed: int, n_paths: int):
    """Both points carried by one Brownian rotation per path: the distance is
    exactly constant and each image is a Brownian motion on the 2-sphere.

    Returns (times, sup_err (P,), final_X (P,3), final_Y (P,3)).
    """
    if not 0 < rho0 < np.pi:
        raise ValidationError("rho0 must lie in (0, pi)")
    _key_word("seed", seed)
    _require_positive_int("n_paths", n_paths)
    x = np.array([1.0, 0.0, 0.0])
    y = np.array([np.cos(rho0), np.sin(rho0), 0.0])
    times = time_grid(dt, T)
    M = times.size - 1
    Z = np.tile(np.eye(3), (n_paths, 1, 1))
    sup = np.zeros(n_paths)
    for b0 in range(0, M, NOISE_BLOCK_STEPS):
        b1 = min(b0 + NOISE_BLOCK_STEPS, M)
        z = path_gaussians(seed, 0, n_paths, b0, b1, 3)
        for i in range(b0, b1):
            delta = np.sqrt(times[i + 1] - times[i]) * z[:, i - b0]
            Z = Z @ _rodrigues(delta)
            d = np.arccos(np.clip(np.einsum("pij,j,pik,k->p", Z, x, Z, y), -1.0, 1.0))
            sup = np.maximum(sup, np.abs(d - rho0))
    return times, sup, Z @ x, Z @ y


# ---------------------------------------------------------------------------
# dt-convergence of the tracking error


def convergence_study(spec: SpaceSpec, profile, dt_list, paths_per_dt: int, seed: int,
                      x0, y0, T: float = 1.0) -> VerifyReport:
    """Mean sup tracking error per dt, with the fitted log-log slope.

    Passes when the errors strictly decrease along decreasing dt and the
    slope lies inside ``SLOPE_RANGE``.
    """
    dt_list = list(dt_list)
    if len(dt_list) < 3 or any(b >= a for a, b in zip(dt_list, dt_list[1:])):
        raise ValidationError("need at least 3 strictly decreasing dt values")
    errors = []
    for level, dt in enumerate(dt_list):
        res = simulate_ensemble(spec, profile, x0, y0, dt, T, seed, paths_per_dt,
                                first_path_index=level * paths_per_dt)
        errors.append(res.mean_sup_err)
    slope = float(np.polyfit(np.log(dt_list), np.log(errors), 1)[0])
    decreasing = all(b < a for a, b in zip(errors, errors[1:]))
    stat = 0.0
    if not decreasing:
        stat = 1.0
    stat += max(0.0, SLOPE_RANGE[0] - slope, slope - SLOPE_RANGE[1])
    return VerifyReport(f"convergence-{spec.kind.value}", stat, 0.0, paths_per_dt, None, {
        "dt": list(map(float, dt_list)),
        "mean_sup_err": list(map(float, errors)),
        "slope": slope,
        "strictly_decreasing": decreasing,
    })
