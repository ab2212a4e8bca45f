import numpy as np
import pytest

import detcouple.sde as sde_mod
from detcouple import cli
from detcouple import coupling as cp
from detcouple import model_space as ms
from detcouple import profiles as pf
from detcouple.errors import ValidationError
from detcouple.sde import (NoiseStream, _advance_batch, block_gaussians, simulate_ensemble,
                           simulate_path, time_grid)

S2 = ms.sphere(2)
H2 = ms.hyperbolic(2)
H3 = ms.hyperbolic(3)
E2 = ms.euclidean(2)


def test_noise_replay_determinism():
    a = NoiseStream(42, 7).gaussians(6)
    b = NoiseStream(42, 7).gaussians(6)
    assert np.array_equal(a, b)
    s = NoiseStream(42, 7)
    s.gaussians(6)
    c = s.gaussians(6)
    assert not np.array_equal(a, c)
    # explicit counter replay
    d = NoiseStream(42, 7, counter=s.counter - 2).gaussians(6)
    assert np.array_equal(c, d)
    assert not np.array_equal(a, NoiseStream(42, 8).gaussians(6))
    assert not np.array_equal(a, NoiseStream(43, 7).gaussians(6))


def test_block_matches_sequential_draws():
    words = 6
    batch = block_gaussians(3, 5, 0, 10, words)
    s = NoiseStream(3, 5)
    seq = np.array([s.gaussians(words) for _ in range(10)])
    assert np.array_equal(batch, seq)


def test_driving_increment_moments():
    dt = 1e-3
    z = block_gaussians(123, 0, 0, 1_000_000, 4) * np.sqrt(dt)
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
    x0, y0 = ms.canonical_start(E2, 1.5)
    res = simulate_ensemble(E2, pf.constant(1.5), x0, y0, 1e-2, 0.5, 5, 4, workers=1)
    assert res.times.size == 51
    # J = I, K = 0: both points receive bitwise-identical increments, so Z
    # only moves by the rounding of the two running sums
    assert np.max(np.abs((res.final_X - res.final_Y) - (x0 - y0))) <= 1e-13


def test_sphere_single_step_distance_error_order_dt():
    dt = 1e-4
    prof = pf.constant(np.pi / 2)
    x0, y0 = ms.canonical_start(S2, np.pi / 2)
    res = simulate_ensemble(S2, prof, x0, y0, dt, dt, 77, 50, workers=1)
    assert res.times.size == 2
    assert res.max_sup_err <= 100 * dt
    res = simulate_ensemble(S2, prof, x0, y0, dt, dt, 77, 1, enforce_distance=True, workers=1)
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
        J, K, _, _ = cp.hyperbolic_matrices(X, Y, eta, etap)
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
    X = ms.random_points(spec, P, rng)
    Y = ms.point_at_distance(spec, X, ms.random_points(spec, P, rng), rho)
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
    res = simulate_ensemble(spec, profile, x0, y0, dt, dt, seed, P, workers=1)
    r, N = spec.r, spec.ambient_dim
    z = np.stack([block_gaussians(seed, j, 0, 1, 2 * N)[0] for j in range(P)])
    xu, _ = ms.to_unit_model(spec, x0, 0.0)
    yu, _ = ms.to_unit_model(spec, y0, 0.0)
    rho, drho = profile.eval(0.0)
    want = _matrix_step(spec.kind, spec.n, np.tile(xu, (P, 1)), np.tile(yu, (P, 1)),
                        rho / r, drho * r, dt / r**2, z[:, :N], z[:, N:])
    for g, w in zip((res.final_X, res.final_Y), want):
        assert np.max(np.abs(g - ms.from_unit_model(spec, w, 0.0)[0])) <= 1e-14


# ---------------------------------------------------------------------------
# input validation


@pytest.mark.parametrize("seed", [-1, -2, 2**64, 2**70])
def test_out_of_range_seed_rejected(seed):
    with pytest.raises(ValidationError):
        NoiseStream(seed)
    with pytest.raises(ValidationError):
        NoiseStream(0, path_index=seed)
    x0, y0 = ms.canonical_start(E2, 1.0)
    with pytest.raises(ValidationError):
        simulate_ensemble(E2, pf.constant(1.0), x0, y0, 1e-2, 0.1, seed, 2)
    with pytest.raises(ValidationError):
        simulate_ensemble(E2, pf.constant(1.0), x0, y0, 1e-2, 0.1, 0, 2,
                          first_path_index=seed)


def test_large_seeds_do_not_alias():
    # seeds are Philox key words: every value in [0, 2**64) is its own stream
    draws = [NoiseStream(s).gaussians(4) for s in (0, 1, 2**63, 2**63 + 1, 2**64 - 2, 2**64 - 1)]
    for i in range(len(draws)):
        for j in range(i):
            assert not np.array_equal(draws[i], draws[j])
    assert np.array_equal(NoiseStream(2**63 + 1).gaussians(4), draws[3])
    x0, y0 = ms.canonical_start(E2, 1.0)
    with pytest.raises(ValidationError):   # the last path index would pass 2**64
        simulate_ensemble(E2, pf.constant(1.0), x0, y0, 1e-2, 0.1, 0, 3,
                          first_path_index=2**64 - 2)


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
    x0, y0 = ms.canonical_start(E2, 1.0)
    if n_paths >= 1:
        with pytest.raises(ValidationError):
            time_grid(dt, T)
    with pytest.raises(ValidationError):
        simulate_ensemble(E2, pf.constant(1.0), x0, y0, dt, T, 0, n_paths)


def test_time_grid():
    ts = time_grid(1e-4, 1.0)
    assert ts.size == 10001 and ts[0] == 0.0 and ts[-1] == 1.0
    ts = time_grid(1e-3, 0.0025)   # partial final step
    assert ts.size == 4 and ts[-1] == 0.0025
    assert time_grid(0.1, 0.0).tolist() == [0.0]


def test_simulate_path_t0():
    x0, y0 = ms.canonical_start(S2, 1.0)
    rec = simulate_path(S2, pf.constant(1.0), x0, y0, 1e-3, 0.0, 11)
    assert rec.times.tolist() == [0.0]
    assert rec.d_emp[0] == pytest.approx(1.0, abs=1e-12)


def test_path_replay_bitwise():
    x0, y0 = ms.canonical_start(S2, 1.0)
    a = simulate_path(S2, pf.constant(1.0), x0, y0, 1e-3, 0.3, 21, path_index=4)
    b = simulate_path(S2, pf.constant(1.0), x0, y0, 1e-3, 0.3, 21, path_index=4)
    assert np.array_equal(a.X, b.X) and np.array_equal(a.d_emp, b.d_emp)


def test_single_path_equals_ensemble_row():
    x0, y0 = ms.canonical_start(H3, 1.0)
    prof = pf.hyperbolic_lower(H3, 1.0)
    res = simulate_ensemble(H3, prof, x0, y0, 1e-3, 0.2, 33, n_paths=6,
                            record_paths=True, workers=1)
    rec = simulate_path(H3, prof, x0, y0, 1e-3, 0.2, 33, path_index=2)
    assert np.array_equal(rec.X, res.paths_X[2])
    assert np.array_equal(rec.Y, res.paths_Y[2])
    assert np.array_equal(rec.d_emp, res.d_emp[2])
    # the recorded distances are recomputable from the recorded points
    redone = ms.geodesic_distance(H3, rec.X, rec.Y, validate=False)
    assert np.max(np.abs(redone - rec.d_emp)) <= 1e-12


def test_hyperbolic_plane_lower_extreme_tracks_closed_form():
    x0, y0 = ms.canonical_start(H2, 1.0)
    prof = pf.hyperbolic_lower(H2, 1.0)
    res = simulate_ensemble(H2, prof, x0, y0, 1e-3, 1.0, 44, 20, workers=1)
    target = 2.0 * np.arcsinh(np.exp(res.times / 2.0) * np.sinh(0.5))
    assert np.max(np.abs(res.target - target)) <= 1e-12
    assert res.mean_sup_err <= 0.08


def test_worker_count_invariance():
    x0, y0 = ms.canonical_start(S2, np.pi / 2)
    prof = pf.constant(np.pi / 2)
    kw = dict(record_distances=True)
    res1 = simulate_ensemble(S2, prof, x0, y0, 1e-3, 0.2, 3, 300, workers=1, **kw)
    res3 = simulate_ensemble(S2, prof, x0, y0, 1e-3, 0.2, 3, 300, workers=3, **kw)
    assert np.array_equal(res1.d_emp, res3.d_emp)
    assert np.array_equal(res1.mean_d_emp, res3.mean_d_emp)
    assert np.array_equal(res1.final_X, res3.final_X)


def test_on_manifold_invariants():
    x0, y0 = ms.canonical_start(S2, 1.2)
    res = simulate_ensemble(S2, pf.constant(1.2), x0, y0, 1e-3, 0.3, 8, 4,
                            record_paths=True, workers=1)
    norms = np.linalg.norm(res.paths_X, axis=-1)
    assert np.max(np.abs(norms - 1.0)) <= 5e-15
    xh, yh = ms.canonical_start(H3, 1.0)
    resh = simulate_ensemble(H3, pf.hyperbolic_lower(H3, 1.0), xh, yh, 5e-3, 0.5, 8, 4,
                             record_paths=True, workers=1)
    assert np.all(resh.paths_X[..., 0] > 0)
    assert np.all(resh.paths_Y[..., 0] > 0)


def test_hyperbolic_positivity_under_coarse_steps():
    # the lognormal first-coordinate update cannot cross zero even at dt = 0.1
    xh, yh = ms.canonical_start(H2, 0.5)
    res = simulate_ensemble(H2, pf.hyperbolic_lower(H2, 0.5), xh, yh, 0.1, 5.0, 13, 64,
                            record_paths=True, workers=1)
    assert np.all(res.paths_X[..., 0] > 0)
    assert np.all(res.paths_Y[..., 0] > 0)


def test_euclidean_quadratic_variation():
    T, dt = 1.0, 1e-3
    x0, y0 = ms.canonical_start(E2, 1.0)
    rec = simulate_path(E2, pf.constant(1.0), x0, y0, dt, T, 99)
    for coord in range(2):
        qv = np.sum(np.diff(rec.X[:, coord]) ** 2)
        assert abs(qv - T) <= 3 * np.sqrt(2 * T * dt)


def test_hyperbolic_quadratic_variation_matches_integrated_x1sq():
    T, dt = 1.0, 1e-4
    xh, yh = ms.canonical_start(H2, 1.0)
    rec = simulate_path(H2, pf.hyperbolic_lower(H2, 1.0), xh, yh, dt, T, 101)
    qv = np.sum(np.diff(rec.X[:, 1]) ** 2)
    riemann = np.sum(rec.X[:-1, 0] ** 2) * dt
    assert abs(qv / riemann - 1.0) <= 0.05


def test_dimension_one_couplings_are_exact():
    # translation (flat), rotation (circle), synchronous (hyperbolic line):
    # the only admissible couplings in dimension 1 keep the distance fixed
    # to rounding, with no discretization error
    for spec, rho0 in ((ms.euclidean(1), 1.0), (ms.sphere(1), 1.0), (ms.hyperbolic(1), 0.8)):
        x0, y0 = ms.canonical_start(spec, rho0)
        res = simulate_ensemble(spec, pf.constant(rho0), x0, y0, 1e-3, 0.5, 3, 8,
                                workers=1)
        assert res.max_sup_err <= 1e-12, spec.kind


def test_initial_distance_mismatch_rejected():
    x0, y0 = ms.canonical_start(S2, 1.0)
    with pytest.raises(ValidationError):
        simulate_ensemble(S2, pf.constant(1.1), x0, y0, 1e-3, 0.1, 0, 2)


def test_inadmissible_profile_rejected_before_stepping():
    ts = np.linspace(0.0, 1.0, 101)
    bad = pf.tabulated(ts, 1.0 - 0.5 * ts)
    x0, y0 = ms.canonical_start(E2, 1.0)
    with pytest.raises(ValidationError):
        simulate_ensemble(E2, bad, x0, y0, 1e-2, 1.0, 0, 2)
    # beyond the tabulated range
    ok = pf.tabulated(ts, 1.0 + 0.5 * ts)
    with pytest.raises(ValidationError):
        simulate_ensemble(E2, ok, x0, y0, 1e-2, 2.0, 0, 2)


def test_enforce_distance_exact_tracking():
    x0, y0 = ms.canonical_start(S2, np.pi / 2)
    res = simulate_ensemble(S2, pf.sphere_contracting(S2, np.pi / 2), x0, y0, 1e-3, 1.0,
                            17, 8, enforce_distance=True, workers=1)
    assert res.max_sup_err <= 1e-12


def test_general_curvature_sphere_tracks():
    spec = ms.sphere(2, K=4.0)
    prof = pf.constant(0.7)
    x0, y0 = ms.canonical_start(spec, 0.7)
    res = simulate_ensemble(spec, prof, x0, y0, 1e-4, 0.25, 23, 20, workers=1)
    assert res.mean_sup_err <= 0.05
    assert np.allclose(np.linalg.norm(res.final_X, axis=-1), spec.r, atol=1e-12)


def test_chunked_ensembles_cross_chunk_boundary(monkeypatch):
    # fixed chunking: path results must not depend on which chunk ran them
    x0, y0 = ms.canonical_start(E2, 1.0)
    prof = pf.constant(1.0)
    big = simulate_ensemble(E2, prof, x0, y0, 1e-2, 0.1, 5, 10, record_distances=True,
                            workers=1)
    monkeypatch.setattr(sde_mod, "CHUNK_PATHS", 4)
    small = simulate_ensemble(E2, prof, x0, y0, 1e-2, 0.1, 5, 10, record_distances=True,
                              workers=2)
    assert np.array_equal(big.d_emp, small.d_emp)
