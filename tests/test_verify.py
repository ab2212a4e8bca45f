import dataclasses

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


def _at_dt_and_2dt(spec, profile, dt, T, seed, n_paths, **kwargs):
    return [simulate_ensemble(spec, profile, step, T, seed, n_paths, **kwargs)
            for step in (dt, 2 * dt)]


def test_mean_decay_euclidean_martingale():
    reports = vf.mean_decay_check(*_at_dt_and_2dt(E2, pf.constant(1.0), 1e-2, 0.5, 6, 600))
    for rep in reports:
        assert rep.passed, (rep.name, rep.statistic, rep.tolerance)
        assert rep.details["coarse_dt"] == 2e-2
        # X + dB is exact: no bias allowance, the tolerance is 3 SE as it always was
        assert rep.details["bias_allowance"] == 0.0
        assert rep.tolerance == 3 * rep.details["standard_error"]
        assert rep.statistic <= 3 * rep.details["standard_error"], rep.name


# (statistic, tolerance, standard error) of each check.  The statistics and
# standard errors were recorded when every caller still passed canonical_start's
# pair to simulate_ensemble and mean_decay_check.  The tolerances were
# re-recorded when the bias allowance became twice the change of X's mean
# from 2 dt to dt (it was 0 here): 3 SE + 0.02270019695721892 on H2 and
# 3 SE + 0.006580798465769977 on S2 with K = 4.  Each statistic still passes
# within 3 SE alone, as it did with no allowance.
DECAY_PINS = {
    "mean-decay-hyperbolic-X": (0.03699648229208141, 0.12829835286884486, 0.035199385303875314),
    "mean-decay-hyperbolic-Y": (0.02815857538554667, 0.2985935692962679, 0.09196445744634967),
    "mean-decay-sphere-X": (0.021127134030897055, 0.06430703710622752, 0.019242079546819182),
    "mean-decay-sphere-Y": (0.03492989153081731, 0.06442442736061636, 0.019281209631615462),
}


def _assert_pinned(reports):
    for rep in reports:
        got = (rep.statistic, rep.tolerance, rep.details["standard_error"])
        assert got == DECAY_PINS[rep.name], rep.name
        assert rep.statistic <= 3 * rep.details["standard_error"], rep.name


def test_mean_decay_hyperbolic_n2_constant_mean():
    # n = 2 kills the drift: E[X1] stays at X1(0)
    reports = vf.mean_decay_check(*_at_dt_and_2dt(H2, pf.hyperbolic_lower(H2, 1.0),
                                                  1e-2, 0.5, 8, 600))
    for rep in reports:
        assert rep.passed, (rep.name, rep.statistic, rep.tolerance)
    _assert_pinned(reports)


def test_mean_decay_reads_the_result_space():
    # the curvature comes from the result: K = 4 quickens the decay of E[X(T)]
    spec = ms.sphere(2, K=4.0)
    reports = vf.mean_decay_check(*_at_dt_and_2dt(spec, pf.constant(0.5), 1e-3, 0.1, 6, 600))
    for rep in reports:
        assert rep.passed, (rep.name, rep.statistic, rep.tolerance)
    _assert_pinned(reports)


def test_mean_decay_requires_ensemble():
    with pytest.raises(ValidationError, match="paths"):
        vf.mean_decay_check(*_at_dt_and_2dt(E2, pf.constant(1.0), 1e-2, 0.1, 6, 10))
    with pytest.raises(ValidationError, match="T > 0"):
        vf.mean_decay_check(*_at_dt_and_2dt(S2, pf.constant(1.0), 1e-2, 0.0, 6, 500))


@pytest.mark.parametrize("field, value", [
    ("seed", 7), ("spec", ms.euclidean(3)), ("n_paths", 501), ("T", 0.2),
    ("dt", 3e-2), ("dt", 1e-2), ("enforce_distance", True),
    ("y0", np.array([1.5, 0.0])),
])
def test_mean_decay_rejects_a_coarse_run_of_another_ensemble(field, value):
    res, coarse = _at_dt_and_2dt(E2, pf.constant(1.0), 1e-2, 0.1, 6, 500)
    assert len(vf.mean_decay_check(res, coarse)) == 2
    with pytest.raises(ValidationError, match="coarse run"):
        vf.mean_decay_check(res, dataclasses.replace(coarse, **{field: value}))


def test_oracle_check_needs_a_constant_distance_on_the_unit_2_sphere():
    for spec, profile in ((H2, pf.hyperbolic_lower(H2, 1.0)),
                          (ms.sphere(2, K=4.0), pf.constant(0.5)),
                          (S2, pf.sphere_contracting(S2, 1.0))):
        res = simulate_ensemble(spec, profile, 1e-2, 0.1, 3, 4)
        with pytest.raises(ValidationError, match="rotation oracle"):
            vf.oracle_check(res, 4)
        assert not vf.oracle_applies(res)
    # a constant table is a constant distance too
    res = simulate_ensemble(S2, pf.tabulated([0.0, 1.0], [1.0, 1.0]), 1e-2, 0.1, 3, 4)
    assert vf.oracle_applies(res)
    res = simulate_ensemble(S2, pf.constant(1.0), 1e-2, 0.1, 3, 4)
    assert vf.oracle_applies(res)
    constancy, agreement = vf.oracle_check(res, 4)
    assert constancy.passed and constancy.ensemble == 4 and agreement.dt == 1e-2
    assert set(agreement.details) == {"mean_norm_sde", "mean_norm_oracle",
                                      "standard_error_sde", "standard_error_oracle"}


def test_convergence_study_small():
    rep = vf.convergence_study(S2, pf.constant(np.pi / 2), [1e-2, 3e-3, 1e-3], 32, 15, T=0.5)
    assert rep.details["strictly_decreasing"]
    assert 0.3 <= rep.details["slope"] <= 1.2
    with pytest.raises(ValidationError):
        vf.convergence_study(S2, pf.constant(np.pi / 2), [1e-3, 1e-2], 8, 0)


def test_convergence_study_needs_a_positive_horizon():
    # at T = 0 every error is rounding noise, which no dt can decrease
    for T in (0.0, -1.0):
        with pytest.raises(ValidationError, match="T > 0"):
            vf.convergence_study(S2, pf.constant(np.pi / 2), [1e-2, 3e-3, 1e-3], 8, 0, T=T)


def test_verify_report_serialization():
    rep = vf.VerifyReport("demo", 0.5, 1.0, 10, 1e-3, {"arr": np.arange(3)})
    d = rep.to_dict()
    assert d["pass"] is True and d["details"]["arr"] == [0, 1, 2]
