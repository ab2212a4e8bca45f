"""Euler-Maruyama time stepping of coupled ensembles.

Both motions are advanced in the unit-curvature model; general curvature is
handled by rescaling time (and, on spheres, coordinates) at the boundary.
Per step the first motion is driven by dB and the second by
dW = coupling.drive(...), evaluated at the left endpoint from the profile's
target (rho, rho') and the current state: the simulator runs the same
coupling kernel that the identity scans verify.

Integrators: Euclidean plain Euler; sphere Ito Euler of the tangential SDE
followed by renormalization; hyperbolic first coordinate advanced by its
exact lognormal solution X1 <- X1 exp(dB1 - (n-1) dt / 2) (unconditional
positivity) and remaining coordinates by Euler with the pre-step X1.

Noise is counter-based: the increments of a path are a pure function of
(seed, path_index, step index), so a path's trajectory does not depend on
which chunk of the ensemble runs it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .coupling import _dots, drive, eta_from_rho
from .errors import ValidationError, _key_word, _require_positive_int
from .model_space import (SpaceKind, SpaceSpec, from_unit_model, geodesic_distance,
                          require_valid_point, to_unit_model, unit_point_at_distance)
from .model_space import unit_distance as _unit_distance
from .profiles import check_admissibility

# Paths are simulated in fixed-size chunks: they cap the noise block's memory
# and fix the order in which mean_d_emp sums the paths.
CHUNK_PATHS = 256
NOISE_BLOCK_STEPS = 1024


@dataclass
class EnsembleResult:
    """Streaming summary of an ensemble of coupled paths on a common grid."""

    spec: SpaceSpec
    dt: float
    T: float
    seed: int
    n_paths: int
    enforce_distance: bool
    times: np.ndarray            # (M+1,) sample times
    target: np.ndarray           # (M+1,) profile values
    sup_err: np.ndarray          # (P,) per-path sup |d_emp - target|
    final_X: np.ndarray          # (P, N) states at T
    final_Y: np.ndarray
    mean_d_emp: np.ndarray       # (M+1,) ensemble mean distance
    d_emp: np.ndarray | None = None      # (P, M+1) when distances are recorded
    paths_X: np.ndarray | None = None    # (P, M+1, N) when full paths are recorded
    paths_Y: np.ndarray | None = None

    @property
    def mean_sup_err(self) -> float:
        return float(np.mean(self.sup_err))

    @property
    def max_sup_err(self) -> float:
        return float(np.max(self.sup_err))

    def rms_err(self) -> float:
        """RMS of d_emp - target over every path and sample (needs recorded distances)."""
        if self.d_emp is None:
            raise ValidationError("ensemble was run without recorded distances")
        return float(np.sqrt(np.mean((self.d_emp - self.target) ** 2)))


# ---------------------------------------------------------------------------
# counter-based noise


def blocks_per_draw(words: int) -> int:
    return -(-words // 4)


def block_gaussians(seed: int, path_index: int, counter: int, n_draws: int, words: int) -> np.ndarray:
    """(n_draws, words) standard normals keyed by (seed, path_index); draw i
    starts at Philox block counter + i * blocks_per_draw(words), so a draw is
    a pure function of its key and counter, whatever was drawn before it."""
    bpd = blocks_per_draw(words)
    bg = np.random.Philox(key=np.array([seed, path_index], dtype=np.uint64),
                          counter=int(counter))
    raw = bg.random_raw(n_draws * bpd * 4).reshape(n_draws, bpd * 4)[:, :words]
    u = (raw >> np.uint64(11)).astype(np.float64) * 2.0**-53 + 2.0**-54
    return ndtri(u)


def path_gaussians(seed: int, first_path_index: int, n_paths: int, step0: int, step1: int,
                   words: int) -> np.ndarray:
    """(n_paths, step1 - step0, words) normals of steps [step0, step1) for the
    consecutive paths first_path_index, first_path_index + 1, ..."""
    z = np.empty((n_paths, step1 - step0, words))
    for j in range(n_paths):
        z[j] = block_gaussians(seed, first_path_index + j, step0 * blocks_per_draw(words),
                               step1 - step0, words)
    return z


# ---------------------------------------------------------------------------
# batched one-step advance (unit-curvature models)


def _advance_batch(kind: SpaceKind, n: int, X, Y, rho_t, drho_t, dt, zB, zC):
    """One step for a batch of unit-model states; mutates nothing, returns (X, Y).

    ``rho_t, drho_t`` are the profile targets at the step's left endpoint
    and ``zB, zC`` standard normals; the space's integrator advances X by
    dB and Y by the coupling's dW.
    """
    root = np.sqrt(dt)
    dB = root * zB
    dC = root * zC
    eta, eta_prime = eta_from_rho(kind, rho_t, drho_t)
    dW = drive(kind, n, X, Y, eta, eta_prime, dB, dC)

    if kind is SpaceKind.EUCLIDEAN:
        return X + dB, Y + dW

    if kind is SpaceKind.SPHERE:
        Xn = X + (dB - _dots(X, dB)[..., None] * X) - (n / 2.0) * dt * X
        Yn = Y + (dW - _dots(Y, dW)[..., None] * Y) - (n / 2.0) * dt * Y
        Xn /= np.linalg.norm(Xn, axis=-1, keepdims=True)
        Yn /= np.linalg.norm(Yn, axis=-1, keepdims=True)
        return Xn, Yn

    # hyperbolic half-space
    k = n - 1
    x1_pre = X[..., 0:1]
    y1_pre = Y[..., 0:1]
    Xn = np.empty_like(X)
    Yn = np.empty_like(Y)
    Xn[..., 0] = X[..., 0] * np.exp(dB[..., 0] - k * dt / 2.0)
    Yn[..., 0] = Y[..., 0] * np.exp(dW[..., 0] - k * dt / 2.0)
    Xn[..., 1:] = X[..., 1:] + x1_pre * dB[..., 1:]
    Yn[..., 1:] = Y[..., 1:] + y1_pre * dW[..., 1:]
    return Xn, Yn


# ---------------------------------------------------------------------------
# time grid and unit-model reduction


def time_grid(dt: float, T: float) -> np.ndarray:
    """Fixed-dt grid on [0, T]; the final partial step lands exactly on T."""
    if not (np.isfinite(T) and T >= 0 and np.isfinite(dt) and dt > 0):
        raise ValidationError(f"need finite T >= 0 and finite dt > 0, got T = {T}, dt = {dt}")
    steps = int(np.floor(T / dt + 1e-9))
    ts = dt * np.arange(steps + 1)
    if T - ts[-1] > 1e-12 * max(1.0, T):
        ts = np.append(ts, T)
    ts[-1] = T if T > 0 else 0.0
    return ts


# ---------------------------------------------------------------------------
# ensembles


def simulate_ensemble(spec: SpaceSpec, profile, x0, y0, dt: float, T: float,
                      seed: int, n_paths: int, enforce_distance: bool = False,
                      record_distances: bool = False, record_paths: bool = False,
                      first_path_index: int = 0) -> EnsembleResult:
    """Simulate ``n_paths`` independent coupled pairs on a common grid.

    Paths ``first_path_index``, ... run in fixed chunks of CHUNK_PATHS, and
    each path's noise depends only on (seed, path index, step).
    """
    _require_positive_int("n_paths", n_paths)
    _key_word("seed", seed)
    _key_word("first_path_index", first_path_index)
    _key_word("last path index", first_path_index + n_paths - 1)
    times = time_grid(dt, T)
    x0 = require_valid_point(spec, x0)
    y0 = require_valid_point(spec, y0)
    rho0, _ = profile.eval(0.0)
    d0 = geodesic_distance(spec, x0, y0)
    if abs(d0 - rho0) > 1e-9 * max(1.0, rho0):
        raise ValidationError(f"initial distance {d0:.12g} does not match rho(0) = {rho0:.12g}")
    if np.isfinite(profile.end_time) and T > profile.end_time * (1 + 1e-12):
        raise ValidationError(f"profile only defined up to t = {profile.end_time:.6g}")

    r = spec.r
    target = np.atleast_1d(np.asarray(profile.eval(times)[0], dtype=float))
    if times.size > 1:
        rep = check_admissibility(spec, profile, grid=times)
        if not rep.admissible:
            raise ValidationError("profile not admissible on [0, T]: " + "; ".join(rep.reasons))

    xu = to_unit_model(spec, x0)
    yu = to_unit_model(spec, y0)
    taus = times / r**2
    # the profile's (rho, rho') at every grid time, in unit-model units
    rho_u, drho_u = profile.eval(taus * r**2)
    rho_u, drho_u = rho_u / r, drho_u * r
    N = spec.ambient_dim
    M = times.size - 1

    sup_err = np.empty(n_paths)
    final_X = np.empty((n_paths, N))
    final_Y = np.empty((n_paths, N))
    mean_d = np.zeros(times.size)
    d_all = np.empty((n_paths, times.size)) if (record_distances or record_paths) else None
    pX = np.empty((n_paths, times.size, N)) if record_paths else None
    pY = np.empty((n_paths, times.size, N)) if record_paths else None

    for i0 in range(0, n_paths, CHUNK_PATHS):
        i1 = min(i0 + CHUNK_PATHS, n_paths)
        X = np.tile(xu, (i1 - i0, 1))
        Y = np.tile(yu, (i1 - i0, 1))
        d = np.empty((i1 - i0, times.size))
        d[:, 0] = _unit_distance(spec.kind, X, Y)
        if record_paths:
            pX[i0:i1, 0] = X
            pY[i0:i1, 0] = Y
        for b0 in range(0, M, NOISE_BLOCK_STEPS):
            b1 = min(b0 + NOISE_BLOCK_STEPS, M)
            z = path_gaussians(seed, first_path_index + i0, i1 - i0, b0, b1, 2 * N)
            for i in range(b0, b1):
                zB = z[:, i - b0, :N]
                zC = z[:, i - b0, N:]
                X, Y = _advance_batch(spec.kind, spec.n, X, Y, rho_u[i], drho_u[i],
                                      taus[i + 1] - taus[i], zB, zC)
                if enforce_distance:
                    Y = unit_point_at_distance(spec.kind, X, Y, rho_u[i + 1])
                d[:, i + 1] = _unit_distance(spec.kind, X, Y)
                if record_paths:
                    pX[i0:i1, i + 1] = X
                    pY[i0:i1, i + 1] = Y
        d *= r
        sup_err[i0:i1] = np.max(np.abs(d - target[None, :]), axis=1)
        final_X[i0:i1] = X
        final_Y[i0:i1] = Y
        if d_all is not None:
            d_all[i0:i1] = d
        mean_d += d.sum(axis=0)
    mean_d /= n_paths

    # map unit-model states back to the space's own coordinates
    fX, fY = from_unit_model(spec, final_X), from_unit_model(spec, final_Y)
    if record_paths:
        pX, pY = from_unit_model(spec, pX), from_unit_model(spec, pY)
    return EnsembleResult(spec, dt, T, seed, n_paths, enforce_distance, times, target,
                          sup_err, fX, fY, mean_d, d_all, pX, pY)
