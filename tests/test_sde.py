import contextlib
import hashlib
import os
import re
import tracemalloc

import numpy as np
import pytest
from scipy import stats
from scipy.special import ndtri

import detcouple.sde as sde_mod
import detcouple.shards as shards_mod
import detcouple.verify as vf_mod
from detcouple import cli
from detcouple import coupling as cp
from detcouple import model_space as ms
from detcouple import profiles as pf
from detcouple.errors import ValidationError
from detcouple.sde import (_advance_batch, block_gaussians, blocks_per_draw, noise_stream,
                           simulate_ensemble, step_gaussians, time_grid)
from detcouple.verify import _rotate, rotation_ensemble
from sampling import random_points

S2 = ms.sphere(2)
H2 = ms.hyperbolic(2)
H3 = ms.hyperbolic(3)
E2 = ms.euclidean(2)
E3 = ms.euclidean(3)


def _draws(seed, path_index, counter, n_draws, words):
    """(n_draws, words): one call's draws of the stream keyed by (seed, path_index) from ``counter``."""
    return block_gaussians([noise_stream(seed, path_index, counter)], n_draws, words)[:, 0]


def _first_form(seed, path_index, n_draws, words):
    """The same draws as the noise was first written: one ``random_raw`` call per path,
    the top 53 bits of each word scaled into (0, 1), then ``ndtri``."""
    bpd = blocks_per_draw(words)
    bg = np.random.Philox(key=np.array([seed, path_index], dtype=np.uint64), counter=0)
    raw = bg.random_raw(n_draws * bpd * 4).reshape(n_draws, bpd * 4)[:, :words]
    return ndtri((raw >> np.uint64(11)).astype(np.float64) * 2.0**-53 + 2.0**-54)


def _block_bytes(n_steps, n_paths, words):
    """The NOISE_BLOCK_BYTES that holds ``n_steps`` steps of ``n_paths`` paths: per path
    and step, 4 * blocks_per_draw(words) raw words and ``words`` normals, 8 bytes each."""
    return n_steps * n_paths * 8 * (4 * blocks_per_draw(words) + words)


def test_noise_replay_determinism():
    a = _draws(42, 7, 0, 1, 6)
    assert np.array_equal(a, _draws(42, 7, 0, 1, 6))
    # six words take two Philox blocks: the next draw starts at counter 2
    c = _draws(42, 7, 0, 2, 6)[1]
    assert blocks_per_draw(6) == 2
    assert np.array_equal(c, _draws(42, 7, 2, 1, 6)[0])
    assert not np.array_equal(a[0], c)
    assert not np.array_equal(a, _draws(42, 8, 0, 1, 6))
    assert not np.array_equal(a, _draws(43, 7, 0, 1, 6))


def test_block_matches_sequential_draws():
    words = 6
    batch = _draws(3, 5, 0, 10, words)
    seq = np.array([_draws(3, 5, i * blocks_per_draw(words), 1, words)[0] for i in range(10)])
    assert np.array_equal(batch, seq)
    # one call draws every stream's next steps, step-major, each as if drawn alone
    both = block_gaussians([noise_stream(3, 5), noise_stream(3, 6)], 10, words)
    assert both.shape == (10, 2, words)
    assert np.array_equal(both[:, 0], batch) and np.array_equal(both[:, 1], _draws(3, 6, 0, 10, words))
    # a stream continues where its last call ended
    stream = noise_stream(3, 5)
    assert np.array_equal(np.concatenate([block_gaussians([stream], k, words)[:, 0]
                                          for k in (3, 1, 6)]), batch)
    # the stacked steps are the per-path draws
    steps = [z.copy() for z in step_gaussians(3, 4, 3, 10, words)]
    assert len(steps) == 10 and steps[0].shape == (3, words) and steps[0].flags.c_contiguous
    z = np.stack(steps, axis=1)
    for j in range(3):
        assert np.array_equal(z[j], _draws(3, 4 + j, 0, 10, words))


def test_small_noise_blocks_change_no_value(monkeypatch, shards):
    # the simulator and the oracle at blocks of 1, 2 and 3 steps on 1, 2 and 3 cores, in
    # batches of at most 2 paths (a 1-path batch's blocks are twice as long)
    prof = pf.sphere_contracting(S2, 1.0)

    def run():
        res = simulate_ensemble(S2, prof, 1e-2, 0.2, 9, 7, record_paths=True)
        oracle = rotation_ensemble(1.0, 1e-2, 0.2, 9, 7)
        return [res.paths_X, res.paths_Y, res.d_emp, res.mean_d_emp, *oracle]

    monkeypatch.setattr(shards_mod, "BATCH", 2)
    whole = run()
    for cores in (1, 2, 3):
        forks = shards(cores)
        for block in (1, 2, 3):
            n_forks = len(forks)
            # block steps of the simulator's 6 words; the oracle's 3 words get 2 * block
            monkeypatch.setattr(sde_mod, "NOISE_BLOCK_BYTES", _block_bytes(block, 2, 6))
            blocked = run()
            assert len(forks) - n_forks == 2 * (cores - 1), (cores, block)
            for a, b in zip(whole, blocked):
                assert np.array_equal(a, b), (cores, block)

    # every path's steps at those blocks (20 steps: a partial last block) are its own
    # stream drawn in one call, with the bits of the form first written
    for words in (3, 4, 6):
        want = [_draws(9, 4 + j, 0, 20, words) for j in range(5)]
        for j in range(5):
            assert np.array_equal(want[j], _first_form(9, 4 + j, 20, words)), (words, j)
        for block in (1, 2, 3):
            monkeypatch.setattr(sde_mod, "NOISE_BLOCK_BYTES", _block_bytes(block, 5, words))
            steps = np.stack([z.copy() for z in step_gaussians(9, 4, 5, 20, words)])
            for j in range(5):
                assert np.array_equal(steps[:, j], want[j]), (words, block, j)


def test_step_gaussians_holds_at_most_the_cap(monkeypatch):
    calls = []

    def counted(streams, n_draws, words, out=None):
        calls.append((len(streams), n_draws))
        return block_gaussians(streams, n_draws, words, out)

    monkeypatch.setattr(sde_mod, "block_gaussians", counted)
    P, M, words = 2000, 1000, 3
    for _ in step_gaussians(0, 0, P, M, words):
        pass
    block = max(n_draws for _, n_draws in calls)
    assert _block_bytes(block, P, words) <= sde_mod.NOISE_BLOCK_BYTES
    # one call per block draws every path's steps
    assert all(n_streams == P for n_streams, _ in calls)
    assert sum(n_draws for _, n_draws in calls) == M and len(calls) == -(-M // block) > 1


@pytest.mark.parametrize("words", [3, 6])
def test_noise_working_set_stays_within_the_cap(words):
    # the NOISE_BLOCK_BYTES comment: a block of at most 4 MiB or one step, and about
    # 1 KiB per open stream
    for P in (1, 7, 512, 2048):
        bound = max(4 * 2**20, _block_bytes(1, P, words)) + 1024 * P
        tracemalloc.start()
        try:
            for _ in step_gaussians(3, 0, P, 1000, words):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound, (P, peak, bound)


def test_driving_increment_moments():
    dt = 1e-3
    z = _draws(123, 0, 0, 1_000_000, 4) * np.sqrt(dt)
    dB, dC = z[:, :2], z[:, 2:]
    n = z.shape[0]
    for col in range(2):
        assert abs(dB[:, col].mean()) <= 4 * np.sqrt(dt / n)
        assert abs(dB[:, col].var() / dt - 1.0) <= 0.01
        assert abs(dC[:, col].var() / dt - 1.0) <= 0.01
    # independence of the two drivers: cross-covariance within 3 SE
    for i in range(2):
        for j in range(2):
            cov = np.mean(dB[:, i] * dC[:, j])
            assert abs(cov) <= 3 * dt / np.sqrt(n)


def test_zero_noise_sphere_step_is_fixed_point():
    # radial drift is removed by renormalization
    x0, y0 = ms.canonical_start(S2, np.pi / 2)
    zero = np.zeros((1, 3))
    X, Y = _advance_batch(ms.SpaceKind.SPHERE, 2, x0[None], y0[None], np.pi / 2, 0.0, 1e-3,
                          zero, zero)
    assert np.max(np.abs(X - x0)) <= 1e-15
    assert np.max(np.abs(Y - y0)) <= 1e-15


def test_euclidean_translation_coupling_keeps_z_exactly():
    res = simulate_ensemble(E2, pf.constant(1.5), 1e-2, 0.5, 5, 4)
    assert res.times.size == 51
    # J = I, K = 0: both points receive bitwise-identical increments, so Z
    # only moves by the rounding of the two running sums
    assert np.max(np.abs((res.final_X - res.final_Y) - (res.x0 - res.y0))) <= 1e-13


def test_sphere_single_step_distance_error_order_dt():
    dt = 1e-4
    prof = pf.constant(np.pi / 2)
    res = simulate_ensemble(S2, prof, dt, dt, 77, 50)
    assert res.times.size == 2
    assert res.max_sup_err <= 100 * dt
    res = simulate_ensemble(S2, prof, dt, dt, 77, 1, enforce_distance=True)
    assert res.max_sup_err <= 1e-14


# ---------------------------------------------------------------------------
# the simulator's step is the verified (J, K)


def _matrix_step(kind, n, X, Y, rho, drho, dt, zB, zC):
    """The space's integrator applied to J dB + K dC, with J and K from *_matrices."""
    dB, dC = np.sqrt(dt) * zB, np.sqrt(dt) * zC
    eta, etap = cp.eta_from_rho(kind, rho, drho)
    if kind is ms.SpaceKind.EUCLIDEAN:
        J, K = cp.euclidean_matrices(X, Y, eta, etap)
    elif kind is ms.SpaceKind.SPHERE:
        J, K = cp.sphere_matrices(X, Y, eta, etap)
    else:
        J, K = cp.hyperbolic_matrices(X, Y, eta, etap)
    dW = np.einsum("pij,pj->pi", J, dB) + np.einsum("pij,pj->pi", K, dC)
    if kind is ms.SpaceKind.EUCLIDEAN:
        return X + dB, Y + dW
    if kind is ms.SpaceKind.SPHERE:
        def euler_project(P, d):
            P = P + d - (P * d).sum(-1, keepdims=True) * P - (n / 2.0) * dt * P
            return P / np.linalg.norm(P, axis=-1, keepdims=True)
        return euler_project(X, dB), euler_project(Y, dW)

    def log_first_coord(P, d):
        out = P + P[:, :1] * d
        out[:, 0] = P[:, 0] * np.exp(d[:, 0] - (n - 1) * dt / 2.0)
        return out
    return log_first_coord(X, dB), log_first_coord(Y, dW)


KERNEL_SPACES = [ms.euclidean(n) for n in (1, 2, 3)] + [ms.sphere(n) for n in (1, 2, 3)] \
    + [ms.hyperbolic(n) for n in (1, 2, 3)]


@pytest.mark.parametrize("spec", KERNEL_SPACES, ids=lambda s: f"{s.kind.value}{s.n}")
def test_kernel_step_equals_matrix_step(spec):
    rng = np.random.default_rng(31 + spec.n)
    P, dt, rho = 64, 1e-2, 0.9
    X = random_points(spec, P, rng)
    Y = ms.unit_point_at_distance(spec.kind, X, random_points(spec, P, rng), rho)
    if spec.kind is ms.SpaceKind.HYPERBOLIC and spec.n > 1:
        # vertical pairs: the degenerate branch of the two-plane map
        Y[:8] = X[:8]
        Y[:8, 0] *= np.exp(rho)
    lo, hi = pf.admissible_bounds(spec, rho)
    N = spec.ambient_dim
    for drho in (lo, hi, lo + 0.3 * (hi - lo)):
        zB, zC = rng.standard_normal((2, P, N))
        got = _advance_batch(spec.kind, spec.n, X, Y, rho, drho, dt, zB, zC)
        want = _matrix_step(spec.kind, spec.n, X, Y, rho, drho, dt, zB, zC)
        for g, w in zip(got, want):
            assert np.max(np.abs(g - w)) <= 1e-14


@pytest.mark.parametrize("spec,prof", [
    (ms.sphere(2, K=2.0), lambda s: pf.sphere_contracting(s, 1.0)),
    (ms.hyperbolic(3, K=-0.5), lambda s: pf.hyperbolic_upper(s, 1.0)),
], ids=["sphere2-K2", "hyperbolic3-K-0.5"])
def test_general_curvature_step_equals_matrix_step(spec, prof):
    # one simulated step, through the unit-model rescaling, against the
    # verified matrices driven by the same noise
    profile = prof(spec)
    x0, y0 = ms.canonical_start(spec, 1.0)
    dt, P, seed = 1e-2, 5, 3
    res = simulate_ensemble(spec, profile, dt, dt, seed, P)
    r, N = spec.r, spec.ambient_dim
    z = block_gaussians([noise_stream(seed, j) for j in range(P)], 1, 2 * N)[0]
    xu = ms.to_unit_model(spec, x0)
    yu = ms.to_unit_model(spec, y0)
    rho, drho = profile.eval(0.0)
    want = _matrix_step(spec.kind, spec.n, np.tile(xu, (P, 1)), np.tile(yu, (P, 1)),
                        rho / r, drho * r, dt / r**2, z[:, :N], z[:, N:])
    for g, w in zip((res.final_X, res.final_Y), want):
        assert np.max(np.abs(g - ms.from_unit_model(spec, w))) <= 1e-14


# ---------------------------------------------------------------------------
# input validation


@pytest.mark.parametrize("seed", [-1, -2, 2**64, 2**70, 2.7, 1.5, True, "5", np.inf, np.nan,
                                  None])
def test_out_of_range_seed_rejected(seed):
    with pytest.raises(ValidationError):
        simulate_ensemble(E2, pf.constant(1.0), 1e-2, 0.1, seed, 2)
    with pytest.raises(ValidationError):
        simulate_ensemble(E2, pf.constant(1.0), 1e-2, 0.1, 0, 2, first_path_index=seed)


def test_large_seeds_do_not_alias():
    # seeds are Philox key words: every value in [0, 2**64) is its own stream
    seeds = (0, 1, 2**63, 2**63 + 1, 2**64 - 2, 2**64 - 1)
    draws = [_draws(s, 0, 0, 1, 4) for s in seeds]
    for i in range(len(draws)):
        for j in range(i):
            assert not np.array_equal(draws[i], draws[j])
    assert np.array_equal(_draws(2**63 + 1, 0, 0, 1, 4), draws[3])
    with pytest.raises(ValidationError):   # the last path index would pass 2**64
        simulate_ensemble(E2, pf.constant(1.0), 1e-2, 0.1, 0, 3, first_path_index=2**64 - 2)


@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_cli_negative_seed_exits_2(command, tmp_path, capsys):
    code = cli.main([command, "--space", "euclidean", "--dim", "2", "--profile", "constant",
                     "--rho0", "1", "--paths", "2", "--dt", "0.01", "--T", "0.1",
                     "--seed", "-1", "--out", str(tmp_path / "run")])
    assert code == 2
    assert "seed" in capsys.readouterr().err


@pytest.mark.parametrize("dt,T,n_paths", [
    (1e-2, np.inf, 2),
    (1e-2, np.nan, 2),
    (np.inf, 1.0, 2),
    (np.nan, 1.0, 2),
    (1e-2, -1.0, 2),
    (0.0, 1.0, 2),
    (1e-2, 1.0, 0),
    (1e-2, 1.0, -3),
], ids=["T-inf", "T-nan", "dt-inf", "dt-nan", "T-negative", "dt-zero", "paths-0", "paths-neg"])
def test_bad_grid_and_ensemble_inputs_rejected(dt, T, n_paths):
    if n_paths >= 1:
        with pytest.raises(ValidationError):
            time_grid(dt, T)
    with pytest.raises(ValidationError):
        simulate_ensemble(E2, pf.constant(1.0), dt, T, 0, n_paths)


def test_grid_memory_error_is_a_validation_error(monkeypatch):
    def arange(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(np, "arange", arange)
    with pytest.raises(ValidationError, match="^T = 1 in steps of dt = 0.001 is 1000 steps, "
                                              "more than an array can hold$"):
        time_grid(1e-3, 1.0)


def test_paths_memory_error_is_a_validation_error(monkeypatch):
    empty = np.empty

    def no_room(shape, *args, **kwargs):
        assert np.prod(shape, dtype=object) * 8 < np.iinfo(np.intp).max, \
            "allocated past numpy's index limit"
        if np.prod(shape, dtype=object) >= 10**12:
            raise MemoryError
        return empty(shape, *args, **kwargs)

    monkeypatch.setattr(np, "empty", no_room)
    # 10**12 paths of 101 distances each would fit an array, 10**17 would not
    for n_paths, width, record in ((10**12, 2, False), (10**12, 101, True), (10**17, 101, True)):
        with pytest.raises(ValidationError, match=f"^{n_paths} paths of {width} doubles each are "
                                                  "more than an array can hold$"):
            simulate_ensemble(E2, pf.constant(1.0), 1e-2, 1.0, 0, n_paths,
                              record_distances=record)


def test_non_integer_n_paths_rejected():
    for n_paths in (2.5, True):
        with pytest.raises(ValidationError, match="n_paths"):
            simulate_ensemble(E2, pf.constant(1.0), 1e-2, 0.1, 0, n_paths)


def test_time_grid():
    ts = time_grid(1e-4, 1.0)
    assert ts.size == 10001 and ts[0] == 0.0 and ts[-1] == 1.0
    ts = time_grid(1e-3, 0.0025)   # partial final step
    assert ts.size == 4 and ts[-1] == 0.0025
    assert time_grid(0.1, 0.0).tolist() == [0.0]
    # a horizon below the final-step snap still starts at 0
    assert time_grid(1e-3, 1e-13).tolist() == [0.0, 1e-13]


def test_checked_seed_stored():
    res = simulate_ensemble(E2, pf.constant(1.0), 1e-2, 0.1, np.uint64(2**63), 2)
    assert type(res.seed) is int and res.seed == 2**63


def _one_path(spec, profile, dt, T, seed, path_index=0):
    """Path ``path_index`` of the seed's ensemble, recorded in full."""
    return simulate_ensemble(spec, profile, dt, T, seed, n_paths=1,
                             first_path_index=path_index, record_paths=True)


def test_single_path_t0():
    res = _one_path(S2, pf.constant(1.0), 1e-3, 0.0, 11)
    assert res.times.tolist() == [0.0]
    assert res.d_emp.shape == (1, 1)
    assert res.d_emp[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_rms_err_needs_recorded_distances():
    prof = pf.sphere_contracting(S2, 1.0)
    res = simulate_ensemble(S2, prof, 1e-2, 0.2, 4, 5, record_distances=True)
    per_path = np.concatenate([np.abs(row - res.target) for row in res.d_emp])
    assert res.rms_err() == pytest.approx(np.sqrt(np.mean(per_path ** 2)), rel=1e-12)
    # in place: the same bits, and d_emp left holding the squared errors
    rms, squares = res.rms_err(), (res.d_emp - res.target) ** 2
    assert res.rms_err(in_place=True) == rms
    assert np.array_equal(res.d_emp, squares) and squares.sum() > 0
    bare = simulate_ensemble(S2, prof, 1e-2, 0.2, 4, 5)
    with pytest.raises(ValidationError, match="recorded distances"):
        bare.rms_err()


def test_path_replay_bitwise():
    a = _one_path(S2, pf.constant(1.0), 1e-3, 0.3, 21, path_index=4)
    b = _one_path(S2, pf.constant(1.0), 1e-3, 0.3, 21, path_index=4)
    assert np.array_equal(a.paths_X, b.paths_X) and np.array_equal(a.d_emp, b.d_emp)


def test_single_path_equals_ensemble_row():
    prof = pf.hyperbolic_lower(H3, 1.0)
    res = simulate_ensemble(H3, prof, 1e-3, 0.2, 33, n_paths=6, record_paths=True)
    one = _one_path(H3, prof, 1e-3, 0.2, 33, path_index=2)
    assert np.array_equal(one.paths_X[0], res.paths_X[2])
    assert np.array_equal(one.paths_Y[0], res.paths_Y[2])
    assert np.array_equal(one.d_emp[0], res.d_emp[2])
    # the recorded distances are recomputable from the recorded points
    redone = ms.geodesic_distance(H3, one.paths_X[0], one.paths_Y[0])
    assert np.max(np.abs(redone - one.d_emp[0])) <= 1e-12


def test_hyperbolic_plane_lower_extreme_tracks_closed_form():
    prof = pf.hyperbolic_lower(H2, 1.0)
    res = simulate_ensemble(H2, prof, 1e-3, 1.0, 44, 20)
    target = 2.0 * np.arcsinh(np.exp(res.times / 2.0) * np.sinh(0.5))
    assert np.max(np.abs(res.target - target)) <= 1e-12
    assert res.mean_sup_err <= 0.08


def test_on_manifold_invariants():
    res = simulate_ensemble(S2, pf.constant(1.2), 1e-3, 0.3, 8, 4, record_paths=True)
    norms = np.linalg.norm(res.paths_X, axis=-1)
    assert np.max(np.abs(norms - 1.0)) <= 5e-15
    resh = simulate_ensemble(H3, pf.hyperbolic_lower(H3, 1.0), 5e-3, 0.5, 8, 4, record_paths=True)
    assert np.all(resh.paths_X[..., 0] > 0)
    assert np.all(resh.paths_Y[..., 0] > 0)


def test_hyperbolic_positivity_under_coarse_steps():
    # the lognormal first-coordinate update cannot cross zero even at dt = 0.1
    res = simulate_ensemble(H2, pf.hyperbolic_lower(H2, 0.5), 0.1, 5.0, 13, 64, record_paths=True)
    assert np.all(res.paths_X[..., 0] > 0)
    assert np.all(res.paths_Y[..., 0] > 0)


def test_euclidean_quadratic_variation():
    T, dt = 1.0, 1e-3
    X = _one_path(E2, pf.constant(1.0), dt, T, 99).paths_X[0]
    for coord in range(2):
        qv = np.sum(np.diff(X[:, coord]) ** 2)
        assert abs(qv - T) <= 3 * np.sqrt(2 * T * dt)


KS_SEED = 20240917
KS_MIN_P = 1e-4     # fixed in advance: a fixed-seed KS test fails by chance at its own level


def _euclidean_radius_ks_p_value():
    """KS p-value of |Y(T) - y0|^2 / T against chi^2_3 for 2,000 E3 pairs.

    Y is a Brownian motion, and on E^n its Euler step is exact, so the law
    holds at any dt, whatever the coupling does to the distance.
    """
    E3 = ms.euclidean(3)
    res = simulate_ensemble(E3, pf.tabulated([0, 1], [1, 1.5]), 1e-3, 1.0, KS_SEED, 2000)
    r2 = ((res.final_Y - res.y0) ** 2).sum(axis=1) / res.T
    return stats.kstest(r2, stats.chi2(3).cdf).pvalue


def test_euclidean_marginal_has_its_exact_law(monkeypatch):
    assert _euclidean_radius_ks_p_value() >= KS_MIN_P
    # driving dC by dB makes Cov(dW) = (J + K)(J + K)', not I: the law breaks
    # while every first moment stays right
    real_drive = sde_mod.drive
    monkeypatch.setattr(sde_mod, "drive", lambda kind, n, X, Y, eta, eta_prime, dB, dC:
                        real_drive(kind, n, X, Y, eta, eta_prime, dB, dB))
    assert _euclidean_radius_ks_p_value() < KS_MIN_P


def test_hyperbolic_quadratic_variation_matches_integrated_x1sq():
    T, dt = 1.0, 1e-4
    X = _one_path(H2, pf.hyperbolic_lower(H2, 1.0), dt, T, 101).paths_X[0]
    qv = np.sum(np.diff(X[:, 1]) ** 2)
    riemann = np.sum(X[:-1, 0] ** 2) * dt
    assert abs(qv / riemann - 1.0) <= 0.05


def test_dimension_one_couplings_are_exact():
    # translation (flat), rotation (circle), synchronous (hyperbolic line):
    # the only admissible couplings in dimension 1 keep the distance fixed
    # to rounding, with no discretization error
    for spec, rho0 in ((ms.euclidean(1), 1.0), (ms.sphere(1), 1.0), (ms.hyperbolic(1), 0.8)):
        res = simulate_ensemble(spec, pf.constant(rho0), 1e-3, 0.5, 3, 8)
        assert res.max_sup_err <= 1e-12, spec.kind


def test_start_beyond_the_diameter_rejected_before_stepping(monkeypatch):
    # the start pair comes from canonical_start, which rejects rho(0) >= pi r
    def no_step(*args):
        raise AssertionError("stepped")

    monkeypatch.setattr(sde_mod, "_advance_batch", no_step)
    with pytest.raises(ValidationError, match="rho0 must lie in"):
        simulate_ensemble(S2, pf.constant(4.0), 1e-2, 0.1, 0, 2)


@pytest.mark.parametrize("build", [pf.sphere_repulsive, lambda spec, rho0: _s3_table(spec, rho0)],
                         ids=["closed-form", "tabulated"])
def test_result_records_the_canonical_start(build):
    spec = ms.sphere(3, K=0.3)
    profile = build(spec, 1.0)
    res = simulate_ensemble(spec, profile, 1e-2, 0.1, 4, 3, record_paths=True)
    x0, y0 = ms.canonical_start(spec, profile.rho0)
    assert res.x0.tobytes() == x0.tobytes() and res.y0.tobytes() == y0.tobytes()
    # and the recorded paths begin there
    assert np.max(np.abs(res.paths_X[:, 0] - x0)) <= 1e-15
    assert np.max(np.abs(res.paths_Y[:, 0] - y0)) <= 1e-15


def test_inadmissible_profile_rejected_before_stepping():
    ts = np.linspace(0.0, 1.0, 101)
    bad = pf.tabulated(ts, 1.0 - 0.5 * ts)
    with pytest.raises(ValidationError):
        simulate_ensemble(E2, bad, 1e-2, 1.0, 0, 2)
    # beyond the tabulated range
    ok = pf.tabulated(ts, 1.0 + 0.5 * ts)
    with pytest.raises(ValidationError):
        simulate_ensemble(E2, ok, 1e-2, 2.0, 0, 2)


def test_kinked_table_tracked_at_its_slopes():
    # rho = pi/2 until t = 0.5, then falling at rate 0.6, inside the band: the
    # ensemble mean follows the kink (a rate interpolated across the kink, not
    # the segment slopes, biases it by 0.015)
    ts = np.linspace(0.0, 1.0, 11)
    after = np.maximum(ts - 0.5, 0.0)
    res = simulate_ensemble(S2, pf.tabulated(ts, np.pi / 2 - 0.6 * after), 1e-4, 1.0, 0, 400,
                            record_distances=True)
    assert np.max(np.abs(res.mean_d_emp - res.target)) <= 0.005
    # the nodes of sphere_contracting after the kink leave the band on [0.5, 0.6]
    kinked = np.where(ts <= 0.5, np.pi / 2, pf.sphere_contracting(S2, np.pi / 2).eval(after)[0])
    with pytest.raises(ValidationError, match=re.escape("of segment [0.5, 0.6] leaves the band")):
        simulate_ensemble(S2, pf.tabulated(ts, kinked), 1e-4, 1.0, 0, 400)


def test_enforce_distance_exact_tracking():
    res = simulate_ensemble(S2, pf.sphere_contracting(S2, np.pi / 2), 1e-3, 1.0,
                            17, 8, enforce_distance=True)
    assert res.max_sup_err <= 1e-12


def test_general_curvature_sphere_tracks():
    spec = ms.sphere(2, K=4.0)
    prof = pf.constant(0.7)
    res = simulate_ensemble(spec, prof, 1e-4, 0.25, 23, 20)
    assert res.mean_sup_err <= 0.05
    assert np.allclose(np.linalg.norm(res.final_X, axis=-1), spec.r, atol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_flat_limit_euclidean_is_the_hyperbolic_limit_path_by_path(n):
    # E^n and H^n both draw 2n words per step from starts on the first axis, so one
    # seed drives both with the same increments, and as K -> 0 each H^n path tends to
    # its E^n path: the largest distance gap shrinks like sqrt|K| = 1 / r
    ramp = pf.tabulated([0.0, 1.0], [1.0, 1.5])
    d_E = simulate_ensemble(ms.euclidean(n), ramp, 1e-3, 1.0, 7, 200,
                            record_distances=True).d_emp
    Ks = np.array([1e-4, 1e-6, 1e-8])
    gaps = [np.max(np.abs(simulate_ensemble(ms.hyperbolic(n, K=-K), ramp, 1e-3, 1.0, 7, 200,
                                            record_distances=True).d_emp - d_E)) for K in Ks]
    slope = np.polyfit(np.log(Ks), np.log(gaps), 1)[0]
    assert abs(slope - 0.5) <= 0.05, (gaps, slope)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_flat_limit_euclidean_is_the_sphere_limit_in_law(n):
    # S^n draws 2(n + 1) words per step from a start on another axis, so its Brownian
    # motions are not E^n's: as K -> 0 the laws agree, and so do the mean sup errors,
    # within 3 combined standard errors
    ramp = pf.tabulated([0.0, 1.0], [1.0, 1.5])

    def sup_err(spec):
        sup = simulate_ensemble(spec, ramp, 1e-3, 1.0, 7, 400).sup_err
        return sup.mean(), sup.var(ddof=1) / sup.size

    mean_E, var_E = sup_err(ms.euclidean(n))
    for K in (1e-4, 1e-6):
        mean_S, var_S = sup_err(ms.sphere(n, K))
        z = (mean_S - mean_E) / np.sqrt(var_S + var_E)
        assert abs(z) <= 3.0, (K, mean_S, mean_E, z)


@pytest.mark.parametrize("record", ["nothing", "distances", "paths"])
def test_chunked_ensembles_cross_chunk_boundary(record, monkeypatch, shards):
    # path results must not depend on which shard or batch ran them, nor on what is
    # recorded, and the mean of the recorded distances is one sum over the paths
    # wherever the shards and batches end
    prof = pf.constant(1.0)
    big = simulate_ensemble(S2, prof, 1e-2, 0.1, 5, 10, record_paths=True)
    recorded = {"nothing": (), "distances": ("d_emp",),
                "paths": ("d_emp", "paths_X", "paths_Y")}[record]
    # shards of 10, 5 + 5 and 4 + 3 + 3 paths, in batches of 1, 2, 4 and 8 paths
    for cores, batch in [(c, b) for c in (1, 2, 3) for b in (1, 2, 4, 8)]:
        monkeypatch.setattr(shards_mod, "BATCH", batch)
        forks = shards(cores)
        n_forks = len(forks)
        small = simulate_ensemble(S2, prof, 1e-2, 0.1, 5, 10,
                                  record_distances=record == "distances",
                                  record_paths=record == "paths")
        assert len(forks) - n_forks == shards_mod.shard_count(10 * 10, 10) - 1 == cores - 1
        for name in ("final_X", "final_Y", "sup_err") + recorded:
            assert np.array_equal(getattr(big, name), getattr(small, name)), (cores, batch, name)
        for name in {"d_emp", "paths_X", "paths_Y"} - set(recorded):
            assert getattr(small, name) is None, (cores, batch, name)
        if record == "nothing":
            assert small.mean_d_emp is None
        else:
            assert np.array_equal(small.mean_d_emp, small.d_emp.sum(axis=0) / 10), (cores, batch)


@pytest.mark.parametrize("run,words", [
    (lambda P: simulate_ensemble(S2, pf.constant(1.0), 1e-2, 0.2, 3, P), 6),
    (lambda P: rotation_ensemble(1.0, 1e-2, 0.2, 3, P), 3),
], ids=["simulate_ensemble", "rotation_ensemble"])
def test_noise_draws_and_batch_width_do_not_grow_with_the_shard(run, words, monkeypatch, shards):
    draws, widths = [], []

    def counted(streams, n_draws, words, out=None):
        # a stream's Philox key is (seed, path index)
        draws.extend(int(s.bit_generator.state["state"]["key"][1]) for s in streams)
        return block_gaussians(streams, n_draws, words, out)

    def advance(kind, n, X, *args):
        widths.append(len(X))
        return _advance_batch(kind, n, X, *args)

    def rotate(delta, points):
        widths.append(len(delta))
        return _rotate(delta, points)

    monkeypatch.setattr(sde_mod, "block_gaussians", counted)
    monkeypatch.setattr(sde_mod, "_advance_batch", advance)
    monkeypatch.setattr(vf_mod, "_rotate", rotate)
    monkeypatch.setattr(shards_mod, "BATCH", 4)
    # a batch of 4 paths holds 5 of its 20 steps of noise at a time
    monkeypatch.setattr(sde_mod, "NOISE_BLOCK_BYTES", _block_bytes(5, 4, words))
    shards(1)
    for P in (4, 40):
        draws.clear()
        widths.clear()
        run(P)
        assert sorted(draws) == sorted(list(range(P)) * 4), P     # 4 blocks per path
        assert max(widths) == 4 and len(widths) == 20 * P // 4, P


def test_failed_simulator_shard_raises_in_the_parent(tmp_path, capsys, shards, monkeypatch):
    forks = shards(3)
    parent, forks_before = os.getpid(), []
    real_advance = sde_mod._advance_batch

    def advance(*args):
        # shard 1 is the first child forked since the call began
        if os.getpid() != parent and len(forks) == forks_before[-1]:
            raise ValidationError("shard 1 cannot step")
        return real_advance(*args)

    monkeypatch.setattr(sde_mod, "_advance_batch", advance)
    # a block-buffered stdout still holds the line when the children fork
    with open(tmp_path / "stdout.txt", "w") as stdout, contextlib.redirect_stdout(stdout):
        print("printed once")
        forks_before.append(len(forks))
        with pytest.raises(ValidationError, match="^shard 1 cannot step$"):
            simulate_ensemble(E2, pf.constant(1.0), 1e-2, 0.1, 5, 6)
    assert (tmp_path / "stdout.txt").read_text() == "printed once\n"
    assert len(forks) == forks_before[-1] + 2
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)

    out = tmp_path / "run"
    forks_before.append(len(forks))
    assert cli.main(["simulate", "--space", "euclidean", "--profile", "constant", "--rho0", "1",
                     "--dt", "1e-2", "--T", "0.1", "--paths", "6", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: shard 1 cannot step\n"
    # failed before writing, so no paths.csv.part*, and the empty --out is removed
    assert not out.exists()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


_STEP_LOOPS = {
    "e3": lambda T: simulate_ensemble(E3, pf.euclidean_max_growth(E3, 1.0), 1e-3, T, 5, 8),
    "s2": lambda T: simulate_ensemble(S2, pf.sphere_contracting(S2, 1.0), 1e-3, T, 5, 8),
    "h3": lambda T: simulate_ensemble(H3, pf.hyperbolic_lower(H3, 1.0), 1e-3, T, 5, 8),
    "oracle": lambda T: rotation_ensemble(1.0, 1e-3, T, 5, 8),
}


@pytest.mark.parametrize("loop", sorted(_STEP_LOOPS))
def test_step_loops_make_no_generic_reduction_calls(loop, monkeypatch, shards):
    # the steps sum their short coordinate axes by hand (model_space._dots and _norm,
    # which the oracle's verify._rotate and its distance use too): these calls may run
    # per run, never per step
    calls = []
    for module, name in ((np, "einsum"), (np, "stack"), (np.linalg, "norm")):
        def counted(*args, _real=getattr(module, name), _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    shards(1)
    _STEP_LOOPS[loop](0.01)
    short = sorted(calls)
    calls.clear()
    _STEP_LOOPS[loop](0.1)                  # 100 steps against 10
    assert sorted(calls) == short


# ---------------------------------------------------------------------------
# pinned simulator arrays

def _s3_table(spec, rho0):
    ts = np.linspace(0.0, 1.1, 12)
    return pf.tabulated(ts, rho0 + 0.2 * ts + 0.1 * np.sin(3.0 * ts))


ARRAY_CASES = {
    # S2 at K=2, 1100 steps: crosses a noise block, with distance enforcement
    "s2-K2-contracting-enforced": (ms.sphere(2, K=2.0), pf.sphere_contracting, 5, 1e-3, 1.1, 3,
                                   True),
    "h3-K-0.5-upper": (ms.hyperbolic(3, K=-0.5), pf.hyperbolic_upper, 7, 1e-2, 0.5, 4, False),
    "s3-K0.3-repulsive-enforced": (ms.sphere(3, K=0.3), pf.sphere_repulsive, 5, 1e-3, 1.1, 6,
                                   True),
    "s3-K0.3-tabulated-enforced": (ms.sphere(3, K=0.3), _s3_table, 5, 1e-3, 1.1, 8, True),
    # 260 paths: mean_d_emp is the axis-0 sum of every row, added one at a time
    "e3-260-paths": (ms.euclidean(3), pf.euclidean_max_growth, 260, 1e-2, 0.2, 5, False),
}

# SHA-256 of each little-endian float64 array, recorded before the
# simulator became one serial loop with a grid-wide profile evaluation (the
# K=0.3 cases: before the unit-model scaling moved into model_space; the
# tabulated case: when a table's rho' became its segment slopes; the
# e3-260-paths mean_d_emp: when it became one sum over all paths)
ARRAY_DIGESTS = {
    "s2-K2-contracting-enforced": {
        "d_emp": "d5bb83c545ba2e9228368b75bc87e512ee29d3611f191831a3e287008412634b",
        "paths_X": "20334ba3d820b1affbf705b6de264321b2729f1c1cc406343531c165a1c3b479",
        "paths_Y": "3e65c2ec2bd209ce4f13a4a74b251d1aa090bf3d458bb2c59828948cbd9fbb63",
        "final_X": "3c3213ee0bd770277d363ec870a78066121fa2aa757c5700493439c57eaee90b",
        "final_Y": "67a263412a1b5c98d671c322bd9d75d86d76006b17dab42467cfdf3b72ab3574",
        "sup_err": "9e788e42de465491931ad2eab9a119883d3a672ed2ed6616f4599fcf4b112a3c",
        "mean_d_emp": "6571b3b55cd4270d00c16d1c9185d7b308d0299027c8d7cd393fe52ea69033cd",
        "target": "d4b1de1766b7c682a5c898011898ecd3a2e468271e52e42c3d9d862e767c6f69",
    },
    "h3-K-0.5-upper": {
        "d_emp": "41a1a02e2c41762b425e4c9d7a0c28855f25fe37146b9e721373a2ad7c407674",
        "paths_X": "ce74bb778883679e685aa59bd7d854fd3485db1b34eeff2576753e72801f4fe2",
        "paths_Y": "a32c90f2528a1763dd917fb869a879babeccaa376ecb6270fe2e9ddd04d24953",
        "final_X": "daeb0c60122afb80f6efeddb595bcaafeb489d820137d2badab8415b8afa1fe8",
        "final_Y": "35e5dbb538e9133c469214ef0d003b89039d07925ab41d0efecc4042be620db7",
        "sup_err": "81775759b6abeee74a9af6b806786886ec1658a561c5a8885177e5ea7745e2e6",
        "mean_d_emp": "98f9f737e04bf2b772b34decc9ff23c277a5de99b2c94a5574dcef160888ea18",
        "target": "ffbe54ac9d7210764fbd5f0a1e29cc10ee6cc54a6d4583c2693bd62b3bb12e20",
    },
    "s3-K0.3-repulsive-enforced": {
        "d_emp": "de8a011501a908af3c63188e7fe91b63e484c449d109b1ebeaada7749b732d21",
        "paths_X": "c7b68d057e63ee2d39599c098421cd9e51ce186b3a47be422b61a0cbe98939c3",
        "paths_Y": "78991da98584f7d30e04ab2e1f1be367d844f078675e97883204c940db0329db",
        "final_X": "293ec2fe7decaf4b0af4a3440c7fe9234d16f58bb7d5a8be5ff30f5c616b4921",
        "final_Y": "b4074431dbfb0bcb8ea3d724d8a28ed6832a8473159047194ad06a59b626d4cc",
        "sup_err": "4673023a1f7c88285ad08c677aa920d228f5db556952d66f61d9239a9ddd54cf",
        "mean_d_emp": "21274faa378430e813c69f014371a0560a3ec149d8680c822efaf131136c45e2",
        "target": "6b00b24423c749b75d8b27fd07579914ce81773c32f22f375af2123849296eaa",
    },
    "s3-K0.3-tabulated-enforced": {
        "d_emp": "89672ac7457271539bf663a38ba09d7f9521ec594b882a866860658c52288db6",
        "paths_X": "dbd679a1fac2946c2c468ca818b2af980035246296d990aa9d1e0a40dfb8ef59",
        "paths_Y": "82508bd1267405e2dfb8b037b0710c04fae83546c9b9737881269c2788a1287a",
        "final_X": "577ef0319a7b15733f894e6a25ffcd80f9f43f539bcd35a8a9e5e8c30d9d427d",
        "final_Y": "ecfeeca3f57b943629de1ed55703b4bd856ca96f4a488d47b0b6f1cf86063cfb",
        "sup_err": "620ef1dadcfb6d02f311a728877155ef40861cd7f4dd61f84e55fda4f436525c",
        "mean_d_emp": "cfe91841fcef17c9a17b7bd85817e38cfb52443f91576b8d27d6a0b551126566",
        "target": "21fe989c912af25caa266ffde311de01a09e6e1cfe6abfd439020ac55f64b859",
    },
    "e3-260-paths": {
        "d_emp": "fb3f3a5554cb58700eb5f98d7b0c4a4a5594b5831ca1d1c4cba291909164fa6a",
        "paths_X": "e27ae92d3469007fe8fe62aea9f7319b57d764c7e673c0d85d829e47d411677d",
        "paths_Y": "56eea0a26bd8abf21662e6a4ed214ac58db969f687b54c436e2664506b3852a0",
        "final_X": "289f07fb352384e56adfeb733fc89443a9d562b8538ed6b98fd18a56fab45231",
        "final_Y": "29b0d6b6736b3fe35e0494d94faaf328df8b99710ac57339b6939cdd6b64fd5f",
        "sup_err": "50bba46831e23817408d2a6e2aaea7850a510d2632a27370fdbe0000e2a733a6",
        "mean_d_emp": "2d2026e67296fbb0a8c168a5d7eccb93367ee1083a002d5c3a03b6c032a1bc9c",
        "target": "f84f099c703eb6d8a36ed70b08e3e9af6c92259295bd20665ddc01c8cc53d9b3",
    },
}


@pytest.mark.parametrize("case", sorted(ARRAY_CASES))
def test_simulate_ensemble_array_digests(case, shards):
    spec, build, P, dt, T, seed, enforce = ARRAY_CASES[case]
    for cores in (1, 2, 3):
        forks = shards(cores)
        n_forks = len(forks)
        res = simulate_ensemble(spec, build(spec, 1.0), dt, T, seed, P,
                                enforce_distance=enforce, record_paths=True)
        got = {name: hashlib.sha256(np.ascontiguousarray(getattr(res, name), dtype="<f8")
                                    .tobytes()).hexdigest()
               for name in ARRAY_DIGESTS[case]}
        assert got == ARRAY_DIGESTS[case], cores
        assert len(forks) - n_forks == shards_mod.shard_count(P * (res.times.size - 1), P) - 1
