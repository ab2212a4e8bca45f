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
which shard of the ensemble runs it. Every ensemble, the rotation oracle's
included, steps through :func:`step_gaussians`, the one owner of how draws
are blocked in memory: a batch opens each path's Philox stream once and
draws a block of steps for all its paths at a time into a step-major
(steps, paths, words) buffer, whose raw words and normals stay within
NOISE_BLOCK_BYTES.

An ensemble, the rotation oracle's included, runs through ``shards.map_ranges``:
its paths are cut into contiguous shards, one per core, which step in batches of
at most ``shards.BATCH`` paths.  A path's outputs are its own, so shards and
batches may end at any path and no bit depends on them.  The mean distance is
one numpy sum over the paths of the recorded distances, taken after stepping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .coupling import drive, eta_from_rho
from .errors import ValidationError, _array_rows, _key_word, _require_positive_int
from .model_space import (SpaceKind, SpaceSpec, _dots, _norm, canonical_start, from_unit_model,
                          to_unit_model, unit_point_at_distance)
from .model_space import unit_distance as _unit_distance
from .profiles import check_admissibility
from .shards import map_ranges

# Most bytes step_gaussians holds in its block of steps (4 MiB, or one step if that is
# more): per path and step, the draw's raw Philox words (4 * blocks_per_draw(words)
# doubles) and its normals (words doubles).  Each path's open stream adds about 1 KiB.
# The block length changes no value; 2 MiB blocks slowed 2,048-path batches.
NOISE_BLOCK_BYTES = 4 * 2**20


@dataclass
class EnsembleResult:
    """Streaming summary of an ensemble of coupled paths on a common grid."""

    spec: SpaceSpec
    dt: float
    T: float
    seed: int
    n_paths: int
    enforce_distance: bool
    x0: np.ndarray               # (N,) start pair, canonical_start(spec, rho(0)),
    y0: np.ndarray               #      in the space's own coordinates
    times: np.ndarray            # (M+1,) sample times
    target: np.ndarray           # (M+1,) profile values
    sup_err: np.ndarray          # (P,) per-path sup |d_emp - target|
    final_X: np.ndarray          # (P, N) states at T
    final_Y: np.ndarray
    mean_d_emp: np.ndarray | None        # (M+1,) mean distance when distances are recorded
    d_emp: np.ndarray | None = None      # (P, M+1) when distances are recorded
    paths_X: np.ndarray | None = None    # (P, M+1, N) when full paths are recorded
    paths_Y: np.ndarray | None = None

    @property
    def mean_sup_err(self) -> float:
        return float(np.mean(self.sup_err))

    @property
    def max_sup_err(self) -> float:
        return float(np.max(self.sup_err))

    def rms_err(self, in_place: bool = False) -> float:
        """RMS of d_emp - target over every path and sample (needs recorded distances).

        ``in_place=True`` squares the errors in d_emp's own memory rather than in
        a second (P, M+1) array, with the same bits, and leaves d_emp holding
        the squared errors: ask for it only when the distances are no longer
        needed."""
        if self.d_emp is None:
            raise ValidationError("ensemble was run without recorded distances")
        err = np.subtract(self.d_emp, self.target, out=self.d_emp if in_place else None)
        return float(np.sqrt(np.mean(np.square(err, out=err))))


# ---------------------------------------------------------------------------
# counter-based noise


def blocks_per_draw(words: int) -> int:
    return -(-words // 4)


def noise_stream(seed: int, path_index: int, counter: int = 0) -> np.random.Generator:
    """The Philox stream keyed by (seed, path_index), from block ``counter``."""
    return np.random.Generator(np.random.Philox(key=np.array([seed, path_index], dtype=np.uint64),
                                                counter=int(counter)))


def block_gaussians(streams, n_draws: int, words: int, out=None) -> np.ndarray:
    """The next ``n_draws`` draws of ``words`` standard normals from each stream, step-major:
    row i of the (n_draws, len(streams), words) result holds every stream's draw i.

    A draw takes blocks_per_draw(words) Philox blocks of 4 words and uses its first
    ``words``, so draw i of a stream opened at block counter c starts at block
    c + i * blocks_per_draw(words): a pure function of its key and counter, whatever
    was drawn before it.  ``out``, if given, receives the normals."""
    raw = np.empty((len(streams), n_draws, 4 * blocks_per_draw(words)))
    for stream, r in zip(streams, raw):
        stream.random(out=r)        # (word >> 11) * 2**-53, one 64-bit word per double
    if out is None:
        out = np.empty((n_draws, len(streams), words))
    np.add(raw.transpose(1, 0, 2)[..., :words], 2.0**-54, out=out)
    return ndtri(out, out=out)


def step_gaussians(seed: int, first_path_index: int, n_paths: int, n_steps: int, words: int):
    """Yield the (n_paths, words) normals of steps 0, ..., n_steps - 1 for the
    consecutive paths first_path_index, first_path_index + 1, ...

    Each path's stream is opened once, at counter 0.  :func:`block_gaussians` draws
    every path's steps together, a block of as many steps as NOISE_BLOCK_BYTES holds
    (at least one) at a time, into one step-major (steps, n_paths, words) buffer.  A
    yielded step is a contiguous row of it that the next block overwrites: copy it
    to keep it."""
    streams = [noise_stream(seed, first_path_index + j) for j in range(n_paths)]
    step_bytes = 8 * n_paths * (4 * blocks_per_draw(words) + words)
    block = max(1, NOISE_BLOCK_BYTES // step_bytes)
    z = np.empty((min(block, n_steps), n_paths, words))
    for s0 in range(0, n_steps, block):
        k = min(block, n_steps - s0)
        yield from block_gaussians(streams, k, words, z[:k])


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
        Xn /= _norm(Xn)[..., None]
        Yn /= _norm(Yn)[..., None]
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
    """Fixed-dt grid on [0, T] from 0.0; the final partial step lands exactly on
    T, and a horizon below the snap tolerance is one step."""
    if not (np.isfinite(T) and T >= 0 and np.isfinite(dt) and dt > 0):
        raise ValidationError(f"need finite T >= 0 and finite dt > 0, got T = {T}, dt = {dt}")
    steps = np.floor(float(T) / float(dt) + 1e-9)    # inf, not a warning, past the float range
    too_many = ValidationError(f"T = {T:g} in steps of dt = {dt:g} is {steps:g} steps, "
                               "more than an array can hold")
    # numpy counts an array's bytes in an intp, and the grid holds at most steps + 2 doubles
    if not steps < np.iinfo(np.intp).max // 8 - 2:
        raise too_many
    try:
        ts = dt * np.arange(int(steps) + 1)
    except MemoryError:
        raise too_many from None
    if T - ts[-1] > 1e-12 * max(1.0, T) or (steps == 0 and T > 0):
        ts = np.append(ts, T)
    ts[-1] = T if T > 0 else 0.0
    return ts


# ---------------------------------------------------------------------------
# ensembles


def check_run(spec: SpaceSpec, profile, dt: float, T: float, n_paths: int,
              record_distances: bool = False, record_paths: bool = False):
    """(times, x0, y0, too_many) of a run of ``n_paths`` paths to ``T`` in steps of ``dt``,
    after the checks that need no path: the grid, the start distance, the horizon,
    admissibility on the grid and the size of the widest result array that the run
    records.  ``too_many`` is that size's error, for a ``MemoryError`` in the allocation."""
    times = time_grid(dt, T)
    x0, y0 = canonical_start(spec, profile.rho0)
    if np.isfinite(profile.end_time) and T > profile.end_time * (1 + 1e-12):
        raise ValidationError(f"profile only defined up to t = {profile.end_time:.6g}")
    if times.size > 1:
        rep = check_admissibility(spec, profile, grid=times)
        if not rep.admissible:
            raise ValidationError("profile not admissible on [0, T]: " + "; ".join(rep.reasons))
    N = spec.ambient_dim            # width: the widest result array's doubles per path
    width = N * times.size if record_paths else max(N, times.size) if record_distances else N
    return times, x0, y0, _array_rows("paths", n_paths, width)


def simulate_ensemble(spec: SpaceSpec, profile, dt: float, T: float, seed: int,
                      n_paths: int, enforce_distance: bool = False,
                      record_distances: bool = False, record_paths: bool = False,
                      first_path_index: int = 0) -> EnsembleResult:
    """Simulate ``n_paths`` independent coupled pairs on a common grid.

    Every pair starts from ``canonical_start(spec, profile.rho0)``: the spaces
    are two-point homogeneous, so only rho(0) matters.  Path ``first_path_index
    + j``'s noise depends only on (seed, its index, step).  Contiguous groups of
    paths run on every usable core, with at least ``shards.MIN_SHARD_WORK``
    path-steps each, and each group steps in batches of at most ``shards.BATCH``
    paths (``shards.map_ranges``); the result has the same bits on any number of
    cores.  ``mean_d_emp`` is None unless distances are recorded.

    The run is checked by :func:`check_run` first.  ``cli.main`` runs the same
    check before it makes the output directory, so a CLI run makes it twice.
    """
    _require_positive_int("n_paths", n_paths)
    seed = _key_word("seed", seed)
    first_path_index = _key_word("first_path_index", first_path_index)
    _key_word("last path index", first_path_index + n_paths - 1)
    times, x0, y0, too_many = check_run(spec, profile, dt, T, n_paths, record_distances,
                                        record_paths)
    target, drho = profile.eval(times)

    r = spec.r
    xu, yu = to_unit_model(spec, x0), to_unit_model(spec, y0)
    taus = times / r**2
    # the profile's (rho, rho') at every grid time, in unit-model units
    rho_u, drho_u = target / r, drho * r
    N = spec.ambient_dim
    M = times.size - 1
    try:
        sup_err, final_X, final_Y = (np.empty(n_paths), np.empty((n_paths, N)),
                                     np.empty((n_paths, N)))
        d_all = np.empty((n_paths, times.size)) if (record_distances or record_paths) else None
        pX = np.empty((n_paths, times.size, N)) if record_paths else None
        pY = np.empty((n_paths, times.size, N)) if record_paths else None
    except MemoryError:
        raise too_many from None
    outputs = [a for a in (sup_err, final_X, final_Y, d_all, pX, pY) if a is not None]

    def step_batch(p0, p1):
        """Step paths p0 .. p1 - 1 as one batch into their rows of ``outputs``;
        return (p0, p1, the rows)."""
        X, Y = np.tile(xu, (p1 - p0, 1)), np.tile(yu, (p1 - p0, 1))
        sup = np.zeros(p1 - p0)
        noise = step_gaussians(seed, first_path_index + p0, p1 - p0, M, 2 * N)
        for i in range(times.size):
            if i:
                z = next(noise)
                X, Y = _advance_batch(spec.kind, spec.n, X, Y, rho_u[i - 1], drho_u[i - 1],
                                      taus[i] - taus[i - 1], z[:, :N], z[:, N:])
                if enforce_distance:
                    Y = unit_point_at_distance(spec.kind, X, Y, rho_u[i])
            d = _unit_distance(spec.kind, X, Y) * r
            np.maximum(sup, np.abs(d - target[i]), out=sup)
            if d_all is not None:
                d_all[p0:p1, i] = d
            if record_paths:
                pX[p0:p1, i], pY[p0:p1, i] = X, Y
        sup_err[p0:p1], final_X[p0:p1], final_Y[p0:p1] = sup, X, Y
        return p0, p1, [a[p0:p1] for a in outputs]

    for p0, p1, rows in map_ranges(step_batch, n_paths, n_paths * M):
        for a, part in zip(outputs, rows):
            a[p0:p1] = part
    mean_d = None if d_all is None else d_all.sum(axis=0) / n_paths

    # map unit-model states back to the space's own coordinates
    fX, fY = from_unit_model(spec, final_X), from_unit_model(spec, final_Y)
    if record_paths:
        pX, pY = from_unit_model(spec, pX), from_unit_model(spec, pY)
    return EnsembleResult(spec, dt, T, seed, n_paths, enforce_distance, x0, y0, times, target,
                          sup_err, fX, fY, mean_d, d_all, pX, pY)
