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
(seed, path_index, step index), so ensembles can be generated in any chunk
or worker order with identical results.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .coupling import drive, eta_from_rho
from .errors import ValidationError
from .model_space import (SpaceKind, SpaceSpec, from_unit_model, geodesic_distance,
                          point_at_distance, require_valid_point, to_unit_model)
from .model_space import unit_distance as _unit_distance
from .profiles import check_admissibility

# Paths are simulated in fixed-size chunks; worker count never changes which
# chunks exist, so results are bit-identical for any thread count.
CHUNK_PATHS = 256
NOISE_BLOCK_STEPS = 1024
KEY_LIMIT = 2**64     # seeds and path indices are Philox key words


@dataclass(frozen=True)
class PathRecord:
    """Sampled trajectory of one coupled pair."""

    spec: SpaceSpec
    times: np.ndarray      # (M+1,)
    X: np.ndarray          # (M+1, ambient_dim)
    Y: np.ndarray
    d_emp: np.ndarray      # geodesic distance per sample
    target: np.ndarray     # profile value per sample
    seed: int
    path_index: int

    @property
    def sup_error(self) -> float:
        return float(np.max(np.abs(self.d_emp - self.target)))


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
        if self.d_emp is not None:
            return float(np.sqrt(np.mean((self.d_emp - self.target) ** 2)))
        return float(np.sqrt(np.mean((self.mean_d_emp - self.target) ** 2)))


# ---------------------------------------------------------------------------
# counter-based noise


def _key_word(name: str, value) -> int:
    value = int(value)
    if not 0 <= value < KEY_LIMIT:
        raise ValidationError(f"{name} must lie in [0, 2**64), got {value}")
    return value


class NoiseStream:
    """Deterministic Gaussian stream keyed by (seed, path_index, counter).

    The counter advances in Philox blocks (4 words of 64 bits); a draw of
    ``k`` normals consumes ceil(k/4) blocks, so identical (seed, path_index,
    counter) always regenerate identical increments regardless of history.
    """

    def __init__(self, seed: int, path_index: int = 0, counter: int = 0):
        self.seed = _key_word("seed", seed)
        self.path_index = _key_word("path_index", path_index)
        self.counter = int(counter)

    def gaussians(self, count: int) -> np.ndarray:
        z = block_gaussians(self.seed, self.path_index, self.counter, 1, count)[0]
        self.counter += blocks_per_draw(count)
        return z


def blocks_per_draw(words: int) -> int:
    return -(-words // 4)


def block_gaussians(seed: int, path_index: int, counter: int, n_draws: int, words: int) -> np.ndarray:
    """(n_draws, words) standard normals; draw i starts at block
    counter + i * blocks_per_draw(words)."""
    bpd = blocks_per_draw(words)
    bg = np.random.Philox(key=np.array([seed, path_index], dtype=np.uint64),
                          counter=int(counter))
    raw = bg.random_raw(n_draws * bpd * 4).reshape(n_draws, bpd * 4)[:, :words]
    u = (raw >> np.uint64(11)).astype(np.float64) * 2.0**-53 + 2.0**-54
    return ndtri(u)


# ---------------------------------------------------------------------------
# batched one-step advance (unit-curvature models)


def _dots(a, b):
    return (a * b).sum(axis=-1)


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


class _UnitProfile:
    """View of a profile in unit-model length/time units."""

    def __init__(self, profile, r: float):
        self.profile = profile
        self.r = r
        self.rho0 = profile.rho0 / r

    def eval(self, tau):
        rho, drho = self.profile.eval(np.asarray(tau) * self.r**2)
        return rho / self.r, drho * self.r


# ---------------------------------------------------------------------------
# ensembles


def simulate_path(spec: SpaceSpec, profile, x0, y0, dt: float, T: float,
                  stream: NoiseStream | int, path_index: int = 0,
                  enforce_distance: bool = False) -> PathRecord:
    """Simulate one coupled pair; reproducible from (seed, path_index)."""
    if isinstance(stream, NoiseStream):
        seed, path_index = stream.seed, stream.path_index
    else:
        seed = int(stream)
    res = simulate_ensemble(spec, profile, x0, y0, dt, T, seed, n_paths=1,
                            first_path_index=path_index,
                            enforce_distance=enforce_distance,
                            record_paths=True, workers=1)
    return PathRecord(spec, res.times, res.paths_X[0], res.paths_Y[0],
                      res.d_emp[0], res.target, seed, path_index)


def _worker_count(workers: int | None) -> int:
    if workers is not None:
        return max(1, int(workers))
    env = os.environ.get("DETCOUPLE_THREADS", "")
    if env.strip():
        try:
            return max(1, int(env))
        except ValueError:
            raise ValidationError(f"DETCOUPLE_THREADS must be an integer, got {env!r}")
    return max(1, os.cpu_count() or 1)


def simulate_ensemble(spec: SpaceSpec, profile, x0, y0, dt: float, T: float,
                      seed: int, n_paths: int, enforce_distance: bool = False,
                      record_distances: bool = False, record_paths: bool = False,
                      first_path_index: int = 0,
                      workers: int | None = None) -> EnsembleResult:
    """Simulate ``n_paths`` independent coupled pairs on a common grid.

    Results are bit-identical for any worker count: paths are partitioned
    into fixed chunks of CHUNK_PATHS and each path's noise depends only on
    (seed, path index, step).
    """
    if not (isinstance(n_paths, (int, np.integer)) and n_paths >= 1):
        raise ValidationError(f"n_paths must be a positive integer, got {n_paths}")
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

    uprof = _UnitProfile(profile, r)
    xu, _ = to_unit_model(spec, x0, 0.0)
    yu, _ = to_unit_model(spec, y0, 0.0)
    taus = times / r**2
    N = spec.ambient_dim
    M = times.size - 1

    sup_err = np.empty(n_paths)
    final_X = np.empty((n_paths, N))
    final_Y = np.empty((n_paths, N))
    mean_d = np.zeros(times.size)
    d_all = np.empty((n_paths, times.size)) if (record_distances or record_paths) else None
    pX = np.empty((n_paths, times.size, N)) if record_paths else None
    pY = np.empty((n_paths, times.size, N)) if record_paths else None

    chunks = [(i, min(i + CHUNK_PATHS, n_paths)) for i in range(0, n_paths, CHUNK_PATHS)]

    def run_chunk(bounds):
        i0, i1 = bounds
        P = i1 - i0
        X = np.tile(xu, (P, 1))
        Y = np.tile(yu, (P, 1))
        d = np.empty((P, times.size))
        d[:, 0] = _unit_distance(spec.kind, X, Y)
        if record_paths:
            pX[i0:i1, 0] = X
            pY[i0:i1, 0] = Y
        words = 2 * N
        bpd = blocks_per_draw(words)
        for b0 in range(0, M, NOISE_BLOCK_STEPS):
            b1 = min(b0 + NOISE_BLOCK_STEPS, M)
            z = np.empty((P, b1 - b0, words))
            for j in range(P):
                z[j] = block_gaussians(seed, first_path_index + i0 + j, b0 * bpd,
                                       b1 - b0, words)
            for i in range(b0, b1):
                dtau = taus[i + 1] - taus[i]
                rho_u, drho_u = uprof.eval(taus[i])
                zB = z[:, i - b0, :N]
                zC = z[:, i - b0, N:]
                X, Y = _advance_batch(spec.kind, spec.n, X, Y, rho_u, drho_u,
                                      dtau, zB, zC)
                if enforce_distance:
                    rho_next, _ = uprof.eval(taus[i + 1])
                    Y = point_at_distance(spec.unit(), X, Y, rho_next)
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
        return i0, d.sum(axis=0)

    nworkers = _worker_count(workers)
    if nworkers == 1 or len(chunks) == 1:
        partial = [run_chunk(c) for c in chunks]
    else:
        with ThreadPoolExecutor(max_workers=nworkers) as pool:
            partial = list(pool.map(run_chunk, chunks))
    for _, dsum in sorted(partial, key=lambda kv: kv[0]):
        mean_d += dsum
    mean_d /= n_paths

    # map unit-model states back to the space's own coordinates
    fX, _ = from_unit_model(spec, final_X, 0.0)
    fY, _ = from_unit_model(spec, final_Y, 0.0)
    if record_paths:
        pX, _ = from_unit_model(spec, pX, 0.0)
        pY, _ = from_unit_model(spec, pY, 0.0)

    return EnsembleResult(spec, dt, T, seed, n_paths, enforce_distance, times, target,
                          sup_err, fX, fY, mean_d, d_all, pX, pY)
