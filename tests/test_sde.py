import hashlib

import numpy as np
import pytest

import detcouple.sde as sde_mod
from detcouple import cli
from detcouple import coupling as cp
from detcouple import model_space as ms
from detcouple import profiles as pf
from detcouple.errors import ValidationError
from detcouple.sde import (_advance_batch, block_gaussians, blocks_per_draw, path_gaussians,
                           simulate_ensemble, time_grid)

S2 = ms.sphere(2)
H2 = ms.hyperbolic(2)
H3 = ms.hyperbolic(3)
E2 = ms.euclidean(2)


def test_noise_replay_determinism():
    a = block_gaussians(42, 7, 0, 1, 6)
    assert np.array_equal(a, block_gaussians(42, 7, 0, 1, 6))
    # six words take two Philox blocks: the next draw starts at counter 2
    c = block_gaussians(42, 7, 0, 2, 6)[1]
    assert blocks_per_draw(6) == 2
    assert np.array_equal(c, block_gaussians(42, 7, 2, 1, 6)[0])
    assert not np.array_equal(a[0], c)
    assert not np.array_equal(a, block_gaussians(42, 8, 0, 1, 6))
    assert not np.array_equal(a, block_gaussians(43, 7, 0, 1, 6))


def test_block_matches_sequential_draws():
    words = 6
    batch = block_gaussians(3, 5, 0, 10, words)
    seq = np.array([block_gaussians(3, 5, i * blocks_per_draw(words), 1, words)[0]
                    for i in range(10)])
    assert np.array_equal(batch, seq)
    # a path block is the per-path draws stacked, for any step range
    z = path_gaussians(3, 4, 3, 2, 10, words)
    assert z.shape == (3, 8, words)
    for j in range(3):
        assert np.array_equal(z[j], block_gaussians(3, 4 + j, 0, 10, words)[2:])


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
    res = simulate_ensemble(E2, pf.constant(1.5), x0, y0, 1e-2, 0.5, 5, 4)
    assert res.times.size == 51
    # J = I, K = 0: both points receive bitwise-identical increments, so Z
    # only moves by the rounding of the two running sums
    assert np.max(np.abs((res.final_X - res.final_Y) - (x0 - y0))) <= 1e-13


def test_sphere_single_step_distance_error_order_dt():
    dt = 1e-4
    prof = pf.constant(np.pi / 2)
    x0, y0 = ms.canonical_start(S2, np.pi / 2)
    res = simulate_ensemble(S2, prof, x0, y0, dt, dt, 77, 50)
    assert res.times.size == 2
    assert res.max_sup_err <= 100 * dt
    res = simulate_ensemble(S2, prof, x0, y0, dt, dt, 77, 1, enforce_distance=True)
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
    res = simulate_ensemble(spec, profile, x0, y0, dt, dt, seed, P)
    r, N = spec.r, spec.ambient_dim
    z = np.stack([block_gaussians(seed, j, 0, 1, 2 * N)[0] for j in range(P)])
    xu = ms.to_unit_model(spec, x0)
    yu = ms.to_unit_model(spec, y0)
    rho, drho = profile.eval(0.0)
    want = _matrix_step(spec.kind, spec.n, np.tile(xu, (P, 1)), np.tile(yu, (P, 1)),
                        rho / r, drho * r, dt / r**2, z[:, :N], z[:, N:])
    for g, w in zip((res.final_X, res.final_Y), want):
        assert np.max(np.abs(g - ms.from_unit_model(spec, w))) <= 1e-14


# ---------------------------------------------------------------------------
# input validation


@pytest.mark.parametrize("seed", [-1, -2, 2**64, 2**70])
def test_out_of_range_seed_rejected(seed):
    x0, y0 = ms.canonical_start(E2, 1.0)
    with pytest.raises(ValidationError):
        simulate_ensemble(E2, pf.constant(1.0), x0, y0, 1e-2, 0.1, seed, 2)
    with pytest.raises(ValidationError):
        simulate_ensemble(E2, pf.constant(1.0), x0, y0, 1e-2, 0.1, 0, 2,
                          first_path_index=seed)


def test_large_seeds_do_not_alias():
    # seeds are Philox key words: every value in [0, 2**64) is its own stream
    seeds = (0, 1, 2**63, 2**63 + 1, 2**64 - 2, 2**64 - 1)
    draws = [block_gaussians(s, 0, 0, 1, 4) for s in seeds]
    for i in range(len(draws)):
        for j in range(i):
            assert not np.array_equal(draws[i], draws[j])
    assert np.array_equal(block_gaussians(2**63 + 1, 0, 0, 1, 4), draws[3])
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


def test_non_integer_n_paths_rejected():
    x0, y0 = ms.canonical_start(E2, 1.0)
    for n_paths in (2.5, True):
        with pytest.raises(ValidationError, match="n_paths"):
            simulate_ensemble(E2, pf.constant(1.0), x0, y0, 1e-2, 0.1, 0, n_paths)


def test_time_grid():
    ts = time_grid(1e-4, 1.0)
    assert ts.size == 10001 and ts[0] == 0.0 and ts[-1] == 1.0
    ts = time_grid(1e-3, 0.0025)   # partial final step
    assert ts.size == 4 and ts[-1] == 0.0025
    assert time_grid(0.1, 0.0).tolist() == [0.0]


def _one_path(spec, profile, x0, y0, dt, T, seed, path_index=0):
    """Path ``path_index`` of the seed's ensemble, recorded in full."""
    return simulate_ensemble(spec, profile, x0, y0, dt, T, seed, n_paths=1,
                             first_path_index=path_index, record_paths=True)


def test_single_path_t0():
    x0, y0 = ms.canonical_start(S2, 1.0)
    res = _one_path(S2, pf.constant(1.0), x0, y0, 1e-3, 0.0, 11)
    assert res.times.tolist() == [0.0]
    assert res.d_emp.shape == (1, 1)
    assert res.d_emp[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_rms_err_needs_recorded_distances():
    x0, y0 = ms.canonical_start(S2, 1.0)
    prof = pf.sphere_contracting(S2, 1.0)
    res = simulate_ensemble(S2, prof, x0, y0, 1e-2, 0.2, 4, 5, record_distances=True)
    per_path = np.concatenate([np.abs(row - res.target) for row in res.d_emp])
    assert res.rms_err() == pytest.approx(np.sqrt(np.mean(per_path ** 2)), rel=1e-12)
    bare = simulate_ensemble(S2, prof, x0, y0, 1e-2, 0.2, 4, 5)
    with pytest.raises(ValidationError, match="recorded distances"):
        bare.rms_err()


def test_path_replay_bitwise():
    x0, y0 = ms.canonical_start(S2, 1.0)
    a = _one_path(S2, pf.constant(1.0), x0, y0, 1e-3, 0.3, 21, path_index=4)
    b = _one_path(S2, pf.constant(1.0), x0, y0, 1e-3, 0.3, 21, path_index=4)
    assert np.array_equal(a.paths_X, b.paths_X) and np.array_equal(a.d_emp, b.d_emp)


def test_single_path_equals_ensemble_row():
    x0, y0 = ms.canonical_start(H3, 1.0)
    prof = pf.hyperbolic_lower(H3, 1.0)
    res = simulate_ensemble(H3, prof, x0, y0, 1e-3, 0.2, 33, n_paths=6, record_paths=True)
    one = _one_path(H3, prof, x0, y0, 1e-3, 0.2, 33, path_index=2)
    assert np.array_equal(one.paths_X[0], res.paths_X[2])
    assert np.array_equal(one.paths_Y[0], res.paths_Y[2])
    assert np.array_equal(one.d_emp[0], res.d_emp[2])
    # the recorded distances are recomputable from the recorded points
    redone = ms.geodesic_distance(H3, one.paths_X[0], one.paths_Y[0])
    assert np.max(np.abs(redone - one.d_emp[0])) <= 1e-12


def test_hyperbolic_plane_lower_extreme_tracks_closed_form():
    x0, y0 = ms.canonical_start(H2, 1.0)
    prof = pf.hyperbolic_lower(H2, 1.0)
    res = simulate_ensemble(H2, prof, x0, y0, 1e-3, 1.0, 44, 20)
    target = 2.0 * np.arcsinh(np.exp(res.times / 2.0) * np.sinh(0.5))
    assert np.max(np.abs(res.target - target)) <= 1e-12
    assert res.mean_sup_err <= 0.08


def test_on_manifold_invariants():
    x0, y0 = ms.canonical_start(S2, 1.2)
    res = simulate_ensemble(S2, pf.constant(1.2), x0, y0, 1e-3, 0.3, 8, 4,
                            record_paths=True)
    norms = np.linalg.norm(res.paths_X, axis=-1)
    assert np.max(np.abs(norms - 1.0)) <= 5e-15
    xh, yh = ms.canonical_start(H3, 1.0)
    resh = simulate_ensemble(H3, pf.hyperbolic_lower(H3, 1.0), xh, yh, 5e-3, 0.5, 8, 4,
                             record_paths=True)
    assert np.all(resh.paths_X[..., 0] > 0)
    assert np.all(resh.paths_Y[..., 0] > 0)


def test_hyperbolic_positivity_under_coarse_steps():
    # the lognormal first-coordinate update cannot cross zero even at dt = 0.1
    xh, yh = ms.canonical_start(H2, 0.5)
    res = simulate_ensemble(H2, pf.hyperbolic_lower(H2, 0.5), xh, yh, 0.1, 5.0, 13, 64,
                            record_paths=True)
    assert np.all(res.paths_X[..., 0] > 0)
    assert np.all(res.paths_Y[..., 0] > 0)


def test_euclidean_quadratic_variation():
    T, dt = 1.0, 1e-3
    x0, y0 = ms.canonical_start(E2, 1.0)
    X = _one_path(E2, pf.constant(1.0), x0, y0, dt, T, 99).paths_X[0]
    for coord in range(2):
        qv = np.sum(np.diff(X[:, coord]) ** 2)
        assert abs(qv - T) <= 3 * np.sqrt(2 * T * dt)


def test_hyperbolic_quadratic_variation_matches_integrated_x1sq():
    T, dt = 1.0, 1e-4
    xh, yh = ms.canonical_start(H2, 1.0)
    X = _one_path(H2, pf.hyperbolic_lower(H2, 1.0), xh, yh, dt, T, 101).paths_X[0]
    qv = np.sum(np.diff(X[:, 1]) ** 2)
    riemann = np.sum(X[:-1, 0] ** 2) * dt
    assert abs(qv / riemann - 1.0) <= 0.05


def test_dimension_one_couplings_are_exact():
    # translation (flat), rotation (circle), synchronous (hyperbolic line):
    # the only admissible couplings in dimension 1 keep the distance fixed
    # to rounding, with no discretization error
    for spec, rho0 in ((ms.euclidean(1), 1.0), (ms.sphere(1), 1.0), (ms.hyperbolic(1), 0.8)):
        x0, y0 = ms.canonical_start(spec, rho0)
        res = simulate_ensemble(spec, pf.constant(rho0), x0, y0, 1e-3, 0.5, 3, 8)
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
                            17, 8, enforce_distance=True)
    assert res.max_sup_err <= 1e-12


def test_general_curvature_sphere_tracks():
    spec = ms.sphere(2, K=4.0)
    prof = pf.constant(0.7)
    x0, y0 = ms.canonical_start(spec, 0.7)
    res = simulate_ensemble(spec, prof, x0, y0, 1e-4, 0.25, 23, 20)
    assert res.mean_sup_err <= 0.05
    assert np.allclose(np.linalg.norm(res.final_X, axis=-1), spec.r, atol=1e-12)


def test_chunked_ensembles_cross_chunk_boundary(monkeypatch):
    # fixed chunking: path results must not depend on which chunk ran them
    x0, y0 = ms.canonical_start(E2, 1.0)
    prof = pf.constant(1.0)
    big = simulate_ensemble(E2, prof, x0, y0, 1e-2, 0.1, 5, 10, record_distances=True)
    monkeypatch.setattr(sde_mod, "CHUNK_PATHS", 4)
    small = simulate_ensemble(E2, prof, x0, y0, 1e-2, 0.1, 5, 10, record_distances=True)
    assert np.array_equal(big.d_emp, small.d_emp)


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
    # at K=0.3, 128 grid times differ from taus * r**2 in the last bit; a
    # closed form maps both to the same tau, a table interpolates in t itself
    "s3-K0.3-repulsive-enforced": (ms.sphere(3, K=0.3), pf.sphere_repulsive, 5, 1e-3, 1.1, 6,
                                   True),
    "s3-K0.3-tabulated-enforced": (ms.sphere(3, K=0.3), _s3_table, 5, 1e-3, 1.1, 8, True),
    # 260 paths cross the 256-path chunk boundary
    "e3-260-paths": (ms.euclidean(3), pf.euclidean_max_growth, 260, 1e-2, 0.2, 5, False),
}

# SHA-256 of each little-endian float64 array, recorded before the
# simulator became one serial loop with a grid-wide profile evaluation (the
# K=0.3 cases: before the unit-model scaling moved into model_space)
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
        "d_emp": "c5eb764268f29a5e649a937b3ca63a39a7eef735fcd84604727fc3b07e15554c",
        "paths_X": "dbd679a1fac2946c2c468ca818b2af980035246296d990aa9d1e0a40dfb8ef59",
        "paths_Y": "f4c723a4e3774a87a3d32aa6958bf6cd34589cfb71f8d413abf48be121bc407b",
        "final_X": "577ef0319a7b15733f894e6a25ffcd80f9f43f539bcd35a8a9e5e8c30d9d427d",
        "final_Y": "c88ec8dbe54fa3e8201fc4d62f1e254f2ae1eace75faa9dc30621ee80b9713d6",
        "sup_err": "3f05edce4be73b68310cef0cdc0df8b75f531eec2e69029a9b723dc5e5512ef6",
        "mean_d_emp": "fd4f60d8348167361b02d61c5e87ca4dc0a989357955b33d2e310fde9a5d4e35",
        "target": "21fe989c912af25caa266ffde311de01a09e6e1cfe6abfd439020ac55f64b859",
    },
    "e3-260-paths": {
        "d_emp": "fb3f3a5554cb58700eb5f98d7b0c4a4a5594b5831ca1d1c4cba291909164fa6a",
        "paths_X": "e27ae92d3469007fe8fe62aea9f7319b57d764c7e673c0d85d829e47d411677d",
        "paths_Y": "56eea0a26bd8abf21662e6a4ed214ac58db969f687b54c436e2664506b3852a0",
        "final_X": "289f07fb352384e56adfeb733fc89443a9d562b8538ed6b98fd18a56fab45231",
        "final_Y": "29b0d6b6736b3fe35e0494d94faaf328df8b99710ac57339b6939cdd6b64fd5f",
        "sup_err": "50bba46831e23817408d2a6e2aaea7850a510d2632a27370fdbe0000e2a733a6",
        "mean_d_emp": "6e1ba2209a912a9afde752c5fa7ce3fd741a9a21fdc11f81e246652ff7c98f4b",
        "target": "f84f099c703eb6d8a36ed70b08e3e9af6c92259295bd20665ddc01c8cc53d9b3",
    },
}


@pytest.mark.parametrize("case", sorted(ARRAY_CASES))
def test_simulate_ensemble_array_digests(case):
    spec, build, P, dt, T, seed, enforce = ARRAY_CASES[case]
    x0, y0 = ms.canonical_start(spec, 1.0)
    res = simulate_ensemble(spec, build(spec, 1.0), x0, y0, dt, T, seed, P,
                            enforce_distance=enforce, record_paths=True)
    got = {name: hashlib.sha256(np.ascontiguousarray(getattr(res, name), dtype="<f8")
                                .tobytes()).hexdigest()
           for name in ARRAY_DIGESTS[case]}
    assert got == ARRAY_DIGESTS[case]
