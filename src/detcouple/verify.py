"""Monte Carlo and algebraic verification harness.

Three independent lines of evidence that the constructions are right:

* identity scans: the matrix identities (J J' + K K' = I, the cancellation
  relations, the drift match, the two-plane scalar identities) hold at
  random admissible states up to rounding;
* path statistics: simulated ensembles track the target distance, their
  mean distance stays inside the reachable envelope, and the marginals of
  each motion have the exact mean of the scheme that moved it;
* the rotation oracle: an entirely different construction of the sphere
  fixed-distance coupling (one random rotation per step turns both points),
  exact up to roundoff, to cross-check the SDE ensembles.  Its distance,
  2 atan2(|X - Y|, |X + Y|), is accurate across (0, pi), and its increments
  come from the simulator's noise stream, ``sde.step_gaussians``.

The identity scans of :func:`identity_scan_all` run on every usable core
through ``shards.fork_map``, each whole in one process: a scan draws its
whole sample, then checks it in batches of at most ``shards.BATCH`` states.
The oracle's paths run through ``shards.map_ranges``, in batches of at most
as many paths.  No report depends on the cores or the batches.

Each property has one check here, which ``detcouple verify`` and the
acceptance suite both call.  Statistical tolerances are three standard
errors of the ensembles compared, derived from the runs themselves.  The
mean-decay check needs one run: it compares each motion with the exact mean
of its integrator at the run's own steps, not with the dt -> 0 limit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import hyperu

from .coupling import _hyperbolic_plane, euclidean_matrices, hyperbolic_matrices, sphere_matrices
from .errors import ValidationError, _array_rows, _key_word, _require_positive_int
from .model_space import (SpaceKind, SpaceSpec, _dots, _norm, canonical_start, euclidean,
                          hyperbolic, sphere, to_unit_model)
from .profiles import envelope
from .sde import EnsembleResult, simulate_ensemble, step_gaussians, time_grid
from .shards import batches, fork_map, map_ranges, shard_count

SCAN_TOL = 1e-10                   # identity residuals pass at or below this
SCAN_DIMS = ((2, 0.4), (3, 0.4), (1, 0.1), (5, 0.1))   # identity_scan_all: (n, share of samples)
BOUNDARY_ALIGNED_FRACTION = 0.25   # hyperbolic scan pairs with zero boundary displacement
SLOPE_RANGE = (0.4, 1.1)           # accepted log-log slope of the dt-convergence study
MIN_DECAY_PATHS = 500              # smallest ensemble mean_decay_check and oracle_check accept


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


def _sample_euclidean(n, size, rng):
    Z = rng.standard_normal((size, n))
    norm = np.linalg.norm(Z, axis=-1)
    Z[norm < 1e-3] *= (1e-3 / norm[norm < 1e-3])[:, None]
    rho = np.linalg.norm(Z, axis=-1)
    drho = rng.uniform(0.0, 2.0 * (n - 1) / rho) if n >= 2 else np.zeros(size)
    return Z, np.zeros_like(Z), 0.5 * rho * rho, rho * drho


def _sample_sphere(n, size, rng):
    N = n + 1
    X = rng.standard_normal((size, N))
    X /= _norm(X)[:, None]
    tang = rng.standard_normal((size, N))
    tang -= _dots(tang, X)[:, None] * X
    # redraw near-radial directions: normalizing them would lose precision
    for _ in range(40):
        bad = _norm(tang) < 0.1
        if not np.any(bad):
            break
        redraw, Xb = rng.standard_normal((int(bad.sum()), N)), X[bad]
        redraw -= _dots(redraw, Xb)[:, None] * Xb
        tang[bad] = redraw
    tang /= _norm(tang)[:, None]
    ang = rng.uniform(0.02, np.pi - 0.02, size)
    # Y = cos(ang) X + sin(ang) tang, with tang's memory for the second term
    Y = np.cos(ang)[:, None] * X
    tang *= np.sin(ang)[:, None]
    Y += tang
    del tang                            # so eta's products take its place
    eta = _dots(X, Y)
    k = n - 1
    if n >= 2:
        etap = rng.uniform(-k * (eta + 1.0), k * (1.0 - eta))
    else:
        etap = np.zeros(size)
    return X, Y, eta, etap


def _sample_hyperbolic(n, size, rng):
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
    return X, Y, eta, etap


def _residuals(kind: SpaceKind, n: int, X, Y, eta, eta_prime) -> dict:
    """Every construction identity's worst residual over the states (X, Y, eta, eta').

    J and K come from the space's ``*_matrices``.  The cancellation is
    J' v = w and K' v = 0, relative to ``scale``; the drift is the rate of
    eta that J realizes, against eta'.

    Each residual is the maximum over the states of a value computed from
    each state alone, and ``det_block`` is reported only when some state is
    a non-vertical half-space pair.  So the report of a sample is the
    maximum, key by key, of the reports of any split of it into batches.
    """
    matrices = {SpaceKind.EUCLIDEAN: euclidean_matrices, SpaceKind.SPHERE: sphere_matrices,
                SpaceKind.HYPERBOLIC: hyperbolic_matrices}[kind]
    J, K = matrices(X, Y, eta, eta_prime)
    # the space-free residuals first, so their temporaries and the space's never coexist
    unitarity = _max_abs(np.einsum("pij,pkj->pik", J, J) + np.einsum("pij,pkj->pik", K, K)
                         - np.eye(J.shape[-1]))
    op_norm_excess = max(0.0, float(np.linalg.svd(J, compute_uv=False).max()) - 1.0)
    extras, scale = {}, 1.0
    if kind is SpaceKind.EUCLIDEAN:
        v = w = X - Y
        drift = n - np.trace(J, axis1=-2, axis2=-1)
    elif kind is SpaceKind.SPHERE:
        v, w = X - eta[:, None] * Y, eta[:, None] * X - Y
        U = np.eye(n + 1) - X[:, :, None] * X[:, None, :]
        V = np.eye(n + 1) - Y[:, :, None] * Y[:, None, :]
        drift = -n * eta + np.einsum("pij,pkj,pki->p", U, J, V)
        if n == 1:
            extras["rotation_branch_K"] = _max_abs(K)
    else:
        gamma, d, (m, l, p, q, u, zt, vertical, _) = _hyperbolic_plane(X, Y, eta, eta_prime)
        general = ~vertical
        xi2 = np.zeros_like(X)
        xi2[general, 1:] = zt[general] / u[general, None]
        e1 = np.zeros_like(X)
        e1[:, 0] = 1.0
        v = m[:, None] * e1 + l[:, None] * xi2
        w = p[:, None] * e1 + q[:, None] * xi2
        M2 = m * m + l * l
        scale = np.maximum(1.0, np.sqrt(M2))[:, None]
        drift = (1.0 + eta) * (n - 2 - J[:, 0, 0]) \
            - (np.trace(J, axis1=-2, axis2=-1) - J[:, 0, 0]) \
            + (X[:, 0] ** 2 + Y[:, 0] ** 2) / (X[:, 0] * Y[:, 0])
        extras = {
            "two_plane_norm": _max_abs((M2 - (p * p + q * q)) / np.maximum(M2, 1.0)),
            "d_eq_gamma": _max_abs(d - gamma),
            "d_bound": max(0.0, float(np.max(np.abs(d))) - 1.0),
        }
        if np.any(general):
            # det of the two-plane block equals d
            Q = np.stack([e1, xi2], axis=-1)[general]
            B = np.einsum("pia,pij,pjb->pab", Q, J[general].transpose(0, 2, 1), Q)
            extras["det_block"] = _max_abs(np.linalg.det(B) - d[general])
    return {
        "cancel": max(_max_abs((np.einsum("pji,pj->pi", J, v) - w) / scale),
                      _max_abs(np.einsum("pji,pj->pi", K, v) / scale)),
        "drift": _max_abs(drift - eta_prime),
        **extras,
        "unitarity": unitarity,
        "op_norm_excess": op_norm_excess,
    }


def identity_scan(spec: SpaceSpec, num_samples: int, seed: int) -> VerifyReport:
    """Residuals of all construction identities at random admissible states.

    The states are drawn in one go, as the generator's stream order fixes
    their bits, and checked by :func:`_residuals` in batches of at most ``shards.BATCH``
    states, whose reports are merged key by key by their maximum: the whole sample's
    report, bit for bit."""
    _require_positive_int("num_samples", num_samples)
    rng = np.random.default_rng(_key_word("seed", seed))
    sample = {SpaceKind.EUCLIDEAN: _sample_euclidean, SpaceKind.SPHERE: _sample_sphere,
              SpaceKind.HYPERBOLIC: _sample_hyperbolic}[spec.kind]
    too_many = _array_rows("samples", num_samples, spec.ambient_dim)
    try:
        states = sample(spec.n, num_samples, rng)
    except MemoryError:
        raise too_many from None
    res = {}
    for q, q1 in batches(0, num_samples):
        batch = _residuals(spec.kind, spec.n, *(a[q:q1] for a in states))
        for key, value in batch.items():
            # np.maximum, unlike max, keeps a NaN wherever it stands
            res[key] = float(np.maximum(res.get(key, value), value))
    return VerifyReport(f"identity-scan-{spec.kind.value}-n{spec.n}",
                        float(np.max(list(res.values()))), SCAN_TOL, num_samples, None, res)


def identity_scan_all(num_samples_per_space: int, seed: int) -> list[VerifyReport]:
    """Identity scans over all three spaces, samples split across ``SCAN_DIMS``.

    The 12 scans are shared out among the usable cores, and the reports come
    back in the order above: space, then ``SCAN_DIMS``."""
    _require_positive_int("num_samples_per_space", num_samples_per_space)
    seed = _key_word("seed", seed)
    _key_word("last scan seed", seed + 97 * 2 + len(SCAN_DIMS) - 1)
    scans = []                          # (spec, samples, seed), in report order
    for offset, space in enumerate([euclidean, sphere, hyperbolic]):
        for j, (n, w) in enumerate(SCAN_DIMS):
            scans.append((space(n), max(1, int(num_samples_per_space * w)), seed + 97 * offset + j))
    # each scan runs whole in one shard, as a split would change its generator's
    # stream.  A scan costs about the same time per state and ambient coordinate in
    # every space and n; the scans are dealt to the k shards costliest first, back
    # and forth: to shard 0, 1, .., k - 1, then k - 1, .., 0, and so on
    cost = [size * spec.ambient_dim for spec, size, _ in scans]
    order = sorted(range(len(scans)), key=lambda j: -cost[j])
    k = shard_count(sum(size for _, size, _ in scans), len(scans))
    groups = [order[s::2 * k] + order[2 * k - 1 - s::2 * k] for s in range(k)]
    reports = [None] * len(scans)
    shard_results = fork_map(lambda group: [identity_scan(*scans[j]) for j in group], groups)
    for group, shard_reports in zip(groups, shard_results):
        for j, report in zip(group, shard_reports):
            reports[j] = report
    return reports


# ---------------------------------------------------------------------------
# path statistics: envelope, marginal mean decay


def envelope_check(result: EnsembleResult, tolerance: float) -> VerifyReport:
    """How far the ensemble-mean distance of a run with recorded distances leaves the
    reachable envelope from the start value ``result.target[0]``; passes within ``tolerance``."""
    if result.mean_d_emp is None:
        raise ValidationError("ensemble was run without recorded distances")
    env_lo, env_hi = envelope(result.spec, result.target[0], result.times)
    bracket = max(0.0, float(np.max(env_lo - result.mean_d_emp)),
                  float(np.max(result.mean_d_emp - env_hi)))
    return VerifyReport("envelope-bracket", bracket, tolerance, result.n_paths, result.dt)


def _mean_norm_and_se(states):
    """Norm of the ensemble mean and its standard error along the mean's direction."""
    mean = states.mean(axis=0)
    nrm = float(np.linalg.norm(mean))
    u = mean / nrm
    return nrm, float(np.sqrt(u @ np.atleast_2d(np.cov(states.T)) @ u / states.shape[0]))


def sphere_mean_factor(n: int, h) -> np.ndarray:
    """The factor c by which one step of the sphere integrator, of unit-model
    length ``h`` (an array), shrinks the mean: E[X(t + h) | X(t)] = c X(t).

    The step is X <- (a X + sqrt(h) g) / |a X + sqrt(h) g| with a = 1 - n h / 2
    and g a standard normal tangent vector, so c = E[a / sqrt(a^2 + h Q)] with
    Q ~ chi^2_n.  In closed form c = sign(a) z^(n/2) U(n/2, (n+1)/2, z) with
    z = a^2 / (2 h); Kummer's transformation turns it into the form used here,
    sign(a) sqrt(z) U(1/2, (3-n)/2, z), which does not overflow at large n.
    At a = 0, c = 0.
    """
    h = np.asarray(h, dtype=float)
    a = 1.0 - n * h / 2.0
    c = np.zeros_like(h)
    live = a != 0
    z = a[live] ** 2 / (2.0 * h[live])
    c[live] = np.sign(a[live]) * np.sqrt(z) * hyperu(0.5, (3 - n) / 2.0, z)
    return c


def mean_decay_check(result: EnsembleResult) -> list[VerifyReport]:
    """Check E[X(T)] and E[Y(T)] against the exact mean of the scheme that produced them.

    Given the past, dW = J dB + K dC is N(0, dt I) because J J' + K K' = I, so
    Y's step has the law of X's, and each motion's exact mean follows from its
    own start, ``result.x0`` or ``result.y0``, in the unit model (time
    tau = t / r^2):

    * E^n: the start, since X + dB is exact;
    * H^n: the first coordinate only, x1(0) exp(-(n-2) tau / 2), since the
      lognormal x1 step is exact;
    * S^n: the start times the product of :func:`sphere_mean_factor` over the
      steps of ``result.times``.

    The statistic is |mean - exact| over those coordinates, and the tolerance
    three standard errors sqrt(tr Cov / P), as E|mean - exact|^2 = tr Cov / P.
    With ``enforce_distance`` Y is put back on the target distance after each
    step, so it is not the scheme and its check may fail.
    """
    if result.n_paths < MIN_DECAY_PATHS:
        raise ValidationError(f"need at least {MIN_DECAY_PATHS} paths, got {result.n_paths}")
    if not result.T > 0:
        # at T = 0 every statistic is rounding noise and every standard error 0
        raise ValidationError(f"a mean-decay check needs a horizon T > 0, got T = {result.T}")
    spec = result.spec
    coords = slice(None)
    if spec.kind is SpaceKind.SPHERE:
        decay = np.prod(sphere_mean_factor(spec.n, np.diff(result.times / spec.r**2)))
    elif spec.kind is SpaceKind.HYPERBOLIC:
        coords = slice(0, 1)
        decay = np.exp(-(spec.n - 2) * (result.T / spec.r**2) / 2.0)
    else:
        decay = 1.0
    out = []
    for label, states, start in (("X", result.final_X, result.x0),
                                 ("Y", result.final_Y, result.y0)):
        states = to_unit_model(spec, states)[:, coords]
        exact = to_unit_model(spec, start)[coords] * decay
        stat = float(np.linalg.norm(states.mean(axis=0) - exact))
        se = float(np.sqrt(np.trace(np.atleast_2d(np.cov(states.T))) / result.n_paths))
        out.append(VerifyReport(f"mean-decay-{spec.kind.value}-{label}", stat, 3.0 * se,
                                result.n_paths, result.dt,
                                {"standard_error": se, "exact_mean": exact}))
    return out


# ---------------------------------------------------------------------------
# SO(3) rotation oracle for the sphere fixed-distance coupling


def _rotate(delta, points):
    """Each (P, 3) array of ``points`` turned row by row by exp([delta]_x), with
    Rodrigues' vector formula v cos(theta) + (a x v) sin(theta) + a (a . v)(1 - cos(theta)),
    where theta = |delta| and a = delta / theta; a = 0 where theta is 0, so v is kept."""
    theta = _norm(delta)
    a = delta / np.where(theta > 0, theta, 1.0)[:, None]
    cos, sin = np.cos(theta)[:, None], np.sin(theta)[:, None]
    turned = []
    for v in points:
        axv = np.empty_like(v)
        axv[:, 0] = a[:, 1] * v[:, 2] - a[:, 2] * v[:, 1]
        axv[:, 1] = a[:, 2] * v[:, 0] - a[:, 0] * v[:, 2]
        axv[:, 2] = a[:, 0] * v[:, 1] - a[:, 1] * v[:, 0]
        turned.append(v * cos + axv * sin + a * (_dots(a, v)[:, None] * (1.0 - cos)))
    return turned


def rotation_ensemble(rho0: float, dt: float, T: float, seed: int, n_paths: int):
    """Both points turned by one Brownian rotation per path: the distance is
    exactly constant and each image is a Brownian motion on the 2-sphere.

    Each step turns X and Y by the same exp([sqrt(h) z]_x), with z three normals
    from :func:`step_gaussians`.  That is the law of carrying a rotation Z and
    turning it on the right, X = Z x: Z R Z' has the law of R, as
    Q exp([delta]_x) Q' = exp([Q delta]_x) and delta is isotropic, so (X, Y) is
    the same Markov chain.  The distance is read as 2 atan2(|X - Y|, |X + Y|),
    accurate to rounding at every distance in (0, pi).

    Returns (times, sup_err (P,), final_X (P,3), final_Y (P,3)).  The paths
    run on every usable core in batches of at most ``shards.BATCH``, each
    drawing its increments from :func:`step_gaussians`, so the bits depend on
    neither the cores nor the batches.
    """
    x, y = canonical_start(sphere(2), rho0)
    seed = _key_word("seed", seed)
    _require_positive_int("n_paths", n_paths)
    times = time_grid(dt, T)
    M = times.size - 1

    def run_paths(p0, p1):
        X, Y = np.tile(x, (p1 - p0, 1)), np.tile(y, (p1 - p0, 1))
        sup = np.zeros(p1 - p0)
        for i, z in enumerate(step_gaussians(seed, p0, p1 - p0, M, 3)):
            X, Y = _rotate(np.sqrt(times[i + 1] - times[i]) * z, (X, Y))
            d = 2.0 * np.arctan2(_norm(X - Y), _norm(X + Y))
            sup = np.maximum(sup, np.abs(d - rho0))
        return sup, X, Y

    parts = map_ranges(run_paths, n_paths, n_paths * M)
    sup, final_X, final_Y = (np.concatenate(part) for part in zip(*parts))
    return times, sup, final_X, final_Y


def oracle_applies(result: EnsembleResult) -> bool:
    """Whether :func:`oracle_check` can check ``result``: a constant distance
    on the unit 2-sphere, the one coupling the rotation oracle builds."""
    return result.spec == sphere(2) and bool(np.all(result.target == result.target[0]))


def oracle_check(result: EnsembleResult, seed: int) -> list[VerifyReport]:
    """Cross-check a constant-distance ensemble on the unit 2-sphere against a
    :func:`rotation_ensemble` of the same size, step and horizon.

    Two reports: the oracle's distance stays constant to 1e-12, and the
    norms of the two ensemble means of X agree within three mutual standard
    errors, which need at least MIN_DECAY_PATHS paths.
    """
    if not oracle_applies(result):
        raise ValidationError("the rotation oracle needs a constant distance on sphere(2), "
                              f"got {result.spec} with distances {result.target.min():.6g} "
                              f"to {result.target.max():.6g}")
    if result.n_paths < MIN_DECAY_PATHS:
        raise ValidationError(f"need at least {MIN_DECAY_PATHS} paths, got {result.n_paths}")
    _, sup, rot_X, _ = rotation_ensemble(result.target[0], result.dt, result.T, seed,
                                         result.n_paths)
    m_sde, se_sde = _mean_norm_and_se(result.final_X)
    m_rot, se_rot = _mean_norm_and_se(rot_X)
    return [
        VerifyReport("rotation-oracle-constancy", float(sup.max()), 1e-12,
                     result.n_paths, result.dt),
        VerifyReport("rotation-oracle-mean-agreement", abs(m_sde - m_rot),
                     float(3.0 * np.hypot(se_sde, se_rot)), result.n_paths, result.dt, {
            "mean_norm_sde": m_sde, "mean_norm_oracle": m_rot,
            "standard_error_sde": se_sde, "standard_error_oracle": se_rot}),
    ]


# ---------------------------------------------------------------------------
# dt-convergence of the tracking error


def check_dts(dt_list) -> list:
    """The step sizes of a convergence study, as a list: at least 3, strictly decreasing."""
    dt_list = list(dt_list)
    if len(dt_list) < 3 or any(b >= a for a, b in zip(dt_list, dt_list[1:])):
        raise ValidationError("need at least 3 strictly decreasing dt values")
    return dt_list


def convergence_study(spec: SpaceSpec, profile, dt_list, paths_per_dt: int, seed: int,
                      T: float = 1.0) -> VerifyReport:
    """Mean sup tracking error per dt, with the fitted log-log slope.

    Every dt runs from the profile's canonical start, on its own block of
    path indices.  Passes when the errors strictly decrease along decreasing
    dt and the slope lies inside ``SLOPE_RANGE``; an error of 0 leaves no slope (None).
    """
    if not T > 0:
        raise ValidationError(f"a convergence study needs a horizon T > 0, got T = {T}")
    dt_list = check_dts(dt_list)
    errors = []
    for level, dt in enumerate(dt_list):
        res = simulate_ensemble(spec, profile, dt, T, seed, paths_per_dt,
                                first_path_index=level * paths_per_dt)
        errors.append(res.mean_sup_err)
    slope = float(np.polyfit(np.log(dt_list), np.log(errors), 1)[0]) if min(errors) > 0 else None
    decreasing = all(b < a for a, b in zip(errors, errors[1:]))
    stat = 0.0 if decreasing else 1.0
    stat += 1.0 if slope is None else max(0.0, SLOPE_RANGE[0] - slope, slope - SLOPE_RANGE[1])
    return VerifyReport(f"convergence-{spec.kind.value}", stat, 0.0, paths_per_dt, None, {
        "dt": list(map(float, dt_list)),
        "mean_sup_err": list(map(float, errors)),
        "slope": slope,
        "strictly_decreasing": decreasing,
    })
