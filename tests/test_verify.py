import numpy as np
import pytest
from scipy.linalg import expm

from detcouple import model_space as ms
from detcouple import profiles as pf
from detcouple import verify as vf
from detcouple.errors import ValidationError
from detcouple.sde import simulate_ensemble
from detcouple.verify import _rodrigues

S2 = ms.sphere(2)
H2 = ms.hyperbolic(2)
E2 = ms.euclidean(2)


def test_identity_scan_all_spaces_small():
    reports = vf.identity_scan_all(20_000, seed=7)
    for rep in reports:
        assert rep.passed, (rep.name, rep.statistic, rep.details)
        assert rep.statistic <= 1e-10


def test_identity_scan_sphere_n1_rotation_branch():
    rep = vf.identity_scan(ms.sphere(1), 2000, seed=8)
    assert rep.passed
    assert rep.details["rotation_branch_K"] <= 1e-12   # K vanishes: rotation coupling


def test_identity_scan_hyperbolic_details():
    rep = vf.identity_scan(ms.hyperbolic(3), 5000, seed=9)
    assert rep.passed
    for key in ("two_plane_norm", "d_eq_gamma", "d_bound", "det_block", "drift", "cancel"):
        assert rep.details[key] <= 1e-10


def test_distance_error_stats_enforced():
    res = simulate_ensemble(S2, pf.constant(np.pi / 2), 1e-3, 0.5, 3, 16,
                            enforce_distance=True, record_distances=True)
    rep = vf.distance_error_stats(res, tolerance=1e-12)
    assert rep.passed
    assert rep.details["max_sup_err"] <= 1e-12


def test_rodrigues_matches_expm():
    rng = np.random.default_rng(12)
    for _ in range(50):
        delta = 0.3 * rng.standard_normal(3)
        K = np.array([[0, -delta[2], delta[1]],
                      [delta[2], 0, -delta[0]],
                      [-delta[1], delta[0], 0]])
        R = _rodrigues(delta)
        assert np.max(np.abs(R - expm(K))) <= 1e-12
        assert np.max(np.abs(R @ R.T - np.eye(3))) <= 1e-14
        assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-13)
    assert np.array_equal(_rodrigues(np.zeros(3)), np.eye(3))


def test_rotation_oracle_distance_constant():
    times, sup, fX, fY = vf.rotation_ensemble(np.pi / 2, 1e-3, 1.0, seed=4, n_paths=50)
    assert sup.max() <= 1e-12
    assert np.allclose(np.linalg.norm(fX, axis=-1), 1.0, atol=1e-12)


def test_rotation_preserves_coincident_points():
    # the same rotation applied to equal start points keeps them equal
    rng = np.random.default_rng(5)
    Z = np.eye(3)
    x = np.array([0.0, 0.0, 1.0])
    for _ in range(200):
        Z = Z @ _rodrigues(0.1 * rng.standard_normal(3))
        assert ms.geodesic_distance(S2, Z @ x, Z @ x) == 0.0


def test_rotation_oracle_rho0_validation():
    with pytest.raises(ValidationError):
        vf.rotation_ensemble(0.0, 1e-3, 1.0, 0, 1)
    with pytest.raises(ValidationError):
        vf.rotation_ensemble(np.pi, 1e-3, 1.0, 0, 1)


def test_identity_scan_rejects_out_of_range_seed():
    for num_samples, seed, what in ((10, -1, "seed"), (10, 2**64, "seed"), (10, 2.7, "seed"),
                                    (10, True, "seed"), (10, "5", "seed"), (10, np.inf, "seed"),
                                    (10, np.nan, "seed"), (10, None, "seed"),
                                    (0, 0, "num_samples"), (-1, 0, "num_samples")):
        with pytest.raises(ValidationError, match=what):
            vf.identity_scan(S2, num_samples, seed)
    assert vf.identity_scan(S2, 10, 2**64 - 1).passed


def test_identity_scan_all_rejects_out_of_range_seed():
    # the per-scan seeds run up to seed + 97 * 2 + len(dims) - 1
    for seed in (-1, 2**64 - 1, 2.7, True, "5", np.inf, np.nan, None):
        with pytest.raises(ValidationError, match="seed"):
            vf.identity_scan_all(10, seed)
    for num_samples in (-5, 0, 2.5):
        with pytest.raises(ValidationError, match="num_samples_per_space"):
            vf.identity_scan_all(num_samples, 0)


def test_rotation_ensemble_rejects_bad_seed_and_n_paths():
    for seed in (-1, 2**64, 2.7, True, "5", np.inf, np.nan, None):
        with pytest.raises(ValidationError, match="seed"):
            vf.rotation_ensemble(1.0, 1e-2, 0.1, seed, 2)
    for n_paths in (0, -3, 2.5, True):
        with pytest.raises(ValidationError, match="n_paths"):
            vf.rotation_ensemble(1.0, 1e-2, 0.1, 0, n_paths)


def test_mean_decay_euclidean_martingale():
    res = simulate_ensemble(E2, pf.constant(1.0), 1e-2, 0.5, 6, 600)
    reports = vf.mean_decay_check(res)
    for rep in reports:
        assert rep.passed, (rep.name, rep.statistic, rep.tolerance)


# (statistic, tolerance, standard error) of each check, recorded when every
# caller still passed canonical_start's pair to simulate_ensemble and mean_decay_check
DECAY_PINS = {
    "mean-decay-hyperbolic-X": (0.03699648229208141, 0.10559815591162594, 0.035199385303875314),
    "mean-decay-hyperbolic-Y": (0.02815857538554667, 0.275893372339049, 0.09196445744634967),
    "mean-decay-sphere-X": (0.021127134030897055, 0.05772623864045755, 0.019242079546819182),
    "mean-decay-sphere-Y": (0.03492989153081731, 0.057843628894846386, 0.019281209631615462),
}


def _assert_pinned(reports):
    for rep in reports:
        got = (rep.statistic, rep.tolerance, rep.details["standard_error"])
        assert got == DECAY_PINS[rep.name], rep.name


def test_mean_decay_hyperbolic_n2_constant_mean():
    # n = 2 kills the drift: E[X1] stays at X1(0)
    res = simulate_ensemble(H2, pf.hyperbolic_lower(H2, 1.0), 1e-2, 0.5, 8, 600)
    reports = vf.mean_decay_check(res)
    for rep in reports:
        assert rep.passed, (rep.name, rep.statistic, rep.tolerance)
    _assert_pinned(reports)


def test_mean_decay_reads_the_result_space():
    # the curvature comes from the result: K = 4 quickens the decay of E[X(T)]
    spec = ms.sphere(2, K=4.0)
    res = simulate_ensemble(spec, pf.constant(0.5), 1e-3, 0.1, 6, 600)
    reports = vf.mean_decay_check(res)
    for rep in reports:
        assert rep.passed, (rep.name, rep.statistic, rep.tolerance)
    _assert_pinned(reports)


def test_mean_decay_requires_ensemble():
    res = simulate_ensemble(E2, pf.constant(1.0), 1e-2, 0.1, 6, 10)
    with pytest.raises(ValidationError):
        vf.mean_decay_check(res)


def test_convergence_study_small():
    rep = vf.convergence_study(S2, pf.constant(np.pi / 2), [1e-2, 3e-3, 1e-3], 32, 15, T=0.5)
    assert rep.details["strictly_decreasing"]
    assert 0.3 <= rep.details["slope"] <= 1.2
    with pytest.raises(ValidationError):
        vf.convergence_study(S2, pf.constant(np.pi / 2), [1e-3, 1e-2], 8, 0)


def test_verify_report_serialization():
    rep = vf.VerifyReport("demo", 0.5, 1.0, 10, 1e-3, {"arr": np.arange(3)})
    d = rep.to_dict()
    assert d["pass"] is True and d["details"]["arr"] == [0, 1, 2]
