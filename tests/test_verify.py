import hashlib
import json
import os
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import expm
from scipy.stats import chi

import detcouple.shards as shards_mod
from detcouple import model_space as ms
from detcouple import profiles as pf
from detcouple import verify as vf
from detcouple.errors import ValidationError
from detcouple.sde import simulate_ensemble, time_grid

S2 = ms.sphere(2)
H2 = ms.hyperbolic(2)
E2 = ms.euclidean(2)


def test_identity_scan_all_spaces_small():
    reports = vf.identity_scan_all(20_000, seed=7)
    for rep in reports:
        assert rep.passed, (rep.name, rep.statistic, rep.details)
        assert rep.statistic <= 1e-10


def _sha(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()


# SHA-256 of rotation_ensemble(pi / 2, 1e-3, 0.5, 11, 600): the same at every
# core count, batch width and numeric platform
ORACLE_DIGEST = "3ab2787ff7cfb179fbbe1d8ee178de49c2276640f796c0b73e8cc99b7bf4a557"


def test_rotation_ensemble_digest_on_1_2_and_3_cores(shards, monkeypatch):
    # the second round steps batches of 21 paths, which end inside every shard
    for batch in (shards_mod.BATCH, 21):
        monkeypatch.setattr(shards_mod, "BATCH", batch)
        for cores in (1, 2, 3):
            forks = shards(cores)
            n_forks = len(forks)
            out = vf.rotation_ensemble(np.pi / 2, 1e-3, 0.5, 11, 600)
            assert len(forks) - n_forks == cores - 1, (batch, cores)
            assert _sha(*out) == ORACLE_DIGEST, batch


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"),
                    reason="the emulated dispatch levels are x86-64 ones")
@pytest.mark.parametrize("env", [
    {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"},
    {"OPENBLAS_CORETYPE": "Haswell"},
], ids=["numpy-without-avx512", "openblas-haswell"])
def test_rotation_ensemble_digest_under_emulated_numeric_platforms(env):
    # numpy picks SIMD loops, and OpenBLAS its kernels, by CPU; a child process run
    # with the loops or kernels of an older x86-64 CPU must read the native digest.
    # numpy ignores a disabled feature that the CPU lacks.
    src = str(Path(vf.__file__).resolve().parents[1])
    child_env = {**os.environ, **env,
                 "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = ("import hashlib, numpy as np\n"
            "from detcouple.verify import rotation_ensemble\n"
            "h = hashlib.sha256()\n"
            "for a in rotation_ensemble(np.pi / 2, 1e-3, 0.5, 11, 600):\n"
            "    h.update(np.ascontiguousarray(a, dtype='<f8').tobytes())\n"
            "print(h.hexdigest())\n")
    proc = subprocess.run([sys.executable, "-c", code], env=child_env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ORACLE_DIGEST


def test_identity_scan_all_digest_on_1_2_and_3_cores(shards, monkeypatch):
    # recorded when the 12 scans ran in one process, each on its whole sample; the
    # reports keep their order, and the second round checks batches of 21 states
    for batch in (shards_mod.BATCH, 21):
        monkeypatch.setattr(shards_mod, "BATCH", batch)
        for cores in (1, 2, 3):
            forks = shards(cores)
            n_forks = len(forks)
            reports = vf.identity_scan_all(30_000, 13)
            assert len(forks) - n_forks == cores - 1
            text = json.dumps([r.to_dict() for r in reports], sort_keys=True).encode()
            assert hashlib.sha256(text).hexdigest() == \
                "1dab46d8cb7a878e230264ea791c2858702e0b68d9579e7710b1a352834836ff", batch


SAMPLERS = {ms.SpaceKind.EUCLIDEAN: vf._sample_euclidean, ms.SpaceKind.SPHERE: vf._sample_sphere,
            ms.SpaceKind.HYPERBOLIC: vf._sample_hyperbolic}


@pytest.mark.parametrize("space", [ms.euclidean, ms.sphere, ms.hyperbolic])
@pytest.mark.parametrize("n", [n for n, _ in vf.SCAN_DIMS] + [8])
def test_identity_scan_is_the_whole_sample_report_at_any_batch_bound(space, n, monkeypatch):
    # batches of at most 1, 2, 7 and 2,048 states; each sample size leaves a last
    # batch of one state
    spec, seed = space(n), 17
    for batch, size in ((1, 43), (2, 43), (7, 43), (shards_mod.BATCH, 2049)):
        whole = vf._residuals(spec.kind, n, *SAMPLERS[spec.kind](n, size,
                                                                 np.random.default_rng(seed)))
        monkeypatch.setattr(shards_mod, "BATCH", batch)
        rep = vf.identity_scan(spec, size, seed)
        assert rep.details == whole, batch
        assert rep.statistic == max(whole.values())
    if spec.kind is ms.SpaceKind.HYPERBOLIC and n >= 2:
        # the first batch of 7 holds vertical pairs only, so its report has no det_block:
        # the scan's comes from the other batches
        states = SAMPLERS[spec.kind](n, 43, np.random.default_rng(seed))
        assert "det_block" not in vf._residuals(spec.kind, n, *(a[:7] for a in states))
        assert "det_block" in rep.details


def test_identity_scan_working_set_is_the_sample_and_one_batch():
    # drawing the S3 sample holds at most 5 arrays of (size, N) doubles (X, Y and their
    # transients), and a batch's residuals at most 8 (N, N) doubles per state; the
    # residuals of the whole sample at once peaked at about 30 MiB
    spec, size = ms.sphere(3), 40_000
    N = spec.ambient_dim
    bound = 8 * (5 * size * N + 8 * N * N * shards_mod.BATCH)
    vf.identity_scan(spec, 10, 3)
    tracemalloc.start()
    try:
        assert vf.identity_scan(spec, size, 3).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound, (peak, bound)


@pytest.mark.parametrize("n,size", [(3, 40_000), (5, 100_000)])
def test_sample_sphere_holds_three_state_arrays(n, size):
    # at most three (size, N) double arrays live at once (X, and two of tang, Y and
    # one product) plus three (size,) ones; building Y from cos X + sin tang with tang
    # still live peaked at 147 and 210 bytes per state here
    N = n + 1
    vf._sample_sphere(n, 10, np.random.default_rng(0))
    tracemalloc.start()
    try:
        vf._sample_sphere(n, size, np.random.default_rng(3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = 8 * size * (3 * N + 3)
    assert peak <= bound, (peak / size, bound / size)


def test_samples_memory_error_is_a_validation_error(monkeypatch):
    def sample(n, size, rng):
        assert size < 10**18, "drew a sample past numpy's index limit"
        raise MemoryError

    monkeypatch.setattr(vf, "_sample_sphere", sample)
    for size in (10**12, 10**18):
        with pytest.raises(ValidationError, match=f"^{size} samples of 3 doubles each are "
                                                  "more than an array can hold$"):
            vf.identity_scan(S2, size, 0)


def test_identity_scan_sphere_n1_rotation_branch():
    rep = vf.identity_scan(ms.sphere(1), 2000, seed=8)
    assert rep.passed
    assert rep.details["rotation_branch_K"] <= 1e-12   # K vanishes: rotation coupling


def test_identity_scan_hyperbolic_details():
    rep = vf.identity_scan(ms.hyperbolic(3), 5000, seed=9)
    assert rep.passed
    for key in ("two_plane_norm", "d_eq_gamma", "d_bound", "det_block", "drift", "cancel"):
        assert rep.details[key] <= 1e-10


@pytest.mark.parametrize("case", ["s2", "h2-upper", "h3-lower"])
def test_distance_error_stats_enforced(case):
    # on H^n the pair separates linearly: rho(T) is about 100 on both
    spec, prof, dt, T, seed, P = {
        "s2": (S2, pf.constant(np.pi / 2), 1e-3, 0.5, 3, 16),
        "h2-upper": (H2, pf.hyperbolic_upper(H2, 1.0), 0.1, 100.0, 0, 8),
        "h3-lower": (ms.hyperbolic(3), pf.hyperbolic_lower(ms.hyperbolic(3), 1.0), 0.1, 50.0, 0, 8),
    }[case]
    res = simulate_ensemble(spec, prof, dt, T, seed, P, enforce_distance=True,
                            record_distances=True)
    rep = vf.distance_error_stats(res, tolerance=1e-12)
    assert rep.passed
    assert rep.details["max_sup_err"] <= 1e-12


def test_envelope_check_needs_recorded_distances():
    prof = pf.sphere_contracting(S2, 1.0)
    recorded = simulate_ensemble(S2, prof, 1e-2, 0.2, 4, 5, record_distances=True)
    assert vf.envelope_check(recorded, 0.05).statistic >= 0.0
    bare = simulate_ensemble(S2, prof, 1e-2, 0.2, 4, 5)
    assert bare.mean_d_emp is None
    with pytest.raises(ValidationError, match="recorded distances"):
        vf.envelope_check(bare, 0.05)


def test_rodrigues_matches_expm():
    rng = np.random.default_rng(12)
    delta = 0.3 * rng.standard_normal((50, 3))
    V = rng.standard_normal((50, 3))
    X, Y = vf._rotate(delta, (np.eye(3)[[0] * 50], V))
    for p, d in enumerate(delta):
        R = expm(np.array([[0, -d[2], d[1]], [d[2], 0, -d[0]], [-d[1], d[0], 0]]))
        assert np.max(np.abs(X[p] - R[:, 0])) <= 1e-12
        assert np.max(np.abs(Y[p] - R @ V[p])) <= 1e-12
    assert np.max(np.abs(np.linalg.norm(Y, axis=-1) - np.linalg.norm(V, axis=-1))) <= 1e-14
    # theta = 0, of either sign, keeps the point's bits
    zero = np.array([[0.0, 0.0, 0.0], [-0.0, 0.0, -0.0]])
    (same,) = vf._rotate(zero, (V[:2],))
    assert np.array_equal(same, V[:2])


def test_rotation_oracle_distance_constant():
    times, sup, fX, fY = vf.rotation_ensemble(np.pi / 2, 1e-3, 1.0, seed=4, n_paths=50)
    assert sup.max() <= 1e-12
    assert np.allclose(np.linalg.norm(fX, axis=-1), 1.0, atol=1e-12)


@pytest.mark.parametrize("rho0", [1e-4, 1e-3, 1e-2, np.pi / 2, np.pi - 1e-2, np.pi - 1e-3])
def test_rotation_oracle_distance_constant_at_both_ends(rho0):
    # the distance 2 atan2(|X - Y|, |X + Y|) keeps its digits near 0 and near pi,
    # where an arccos of the cosine is off by up to 1.3e-10
    _, sup, _, _ = vf.rotation_ensemble(rho0, 1e-3, 1.0, 0, 50)
    assert sup.max() <= 1e-12


def test_rotation_oracle_has_the_exact_mean_of_its_rotations():
    # a step's rotation exp([delta]_x), delta ~ N(0, h I), has E[R] = c(h) I with
    # c(h) = (1 + 2 E[cos|delta|]) / 3 and E[cos|delta|] = (1 - h) exp(-h / 2), so
    # E[X(T)] is the product of c over the steps times the start, and so is E[Y(T)]
    hs = np.array([1e-3, 1e-2, 0.1, 1.0])
    e_cos = [quad(lambda s: np.cos(np.sqrt(h) * s) * chi.pdf(s, 3), 0, np.inf)[0] for h in hs]
    assert np.allclose(e_cos, (1.0 - hs) * np.exp(-hs / 2.0), rtol=0, atol=1e-10)

    P, dt, rho0 = 20_000, 1e-2, 1.0
    _, _, fX, fY = vf.rotation_ensemble(rho0, dt, 1.0, 5, P)
    h = np.diff(time_grid(dt, 1.0))
    decay = np.prod((1.0 + 2.0 * (1.0 - h) * np.exp(-h / 2.0)) / 3.0)
    for states, start in zip((fX, fY), ms.canonical_start(S2, rho0)):
        stat = np.linalg.norm(states.mean(axis=0) - decay * start)
        se = np.sqrt(np.trace(np.cov(states.T)) / P)
        assert stat <= 3.0 * se, (stat, se)


def test_rotation_preserves_coincident_points():
    # the same rotation applied to equal start points keeps them equal
    rng = np.random.default_rng(5)
    X = Y = np.array([[0.0, 0.0, 1.0]])
    for _ in range(200):
        X, Y = vf._rotate(0.1 * rng.standard_normal((1, 3)), (X, Y))
        assert ms.geodesic_distance(S2, X[0], Y[0]) == 0.0


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


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_sphere_mean_factor_is_the_chi_square_expectation(n):
    # c = E[a / sqrt(a^2 + h Q)], Q ~ chi^2_n, written as Q = R^2 with R ~ chi_n,
    # whose density is smooth; h > 2 / n makes a < 0
    hs = np.concatenate([np.geomspace(1e-6, 1.5, 25), [0.9 * 2 / n, 1.1 * 2 / n]])
    got = vf.sphere_mean_factor(n, hs)
    for h, c in zip(hs, got):
        a = 1.0 - n * h / 2.0
        want = quad(lambda r: a / np.sqrt(a * a + h * r * r) * chi.pdf(r, n), 0.0, np.inf,
                    epsabs=0.0, epsrel=1e-12)[0]
        # scipy's hyperu is good to about 3e-8 here (worst at z = a^2 / (2h) of 10 to 20),
        # far below any standard error the check meets
        assert abs(c - want) <= 1e-7, (h, c, want)
    assert np.all(got[hs > 2 / n] < 0)


def test_sphere_mean_factor_vanishes_at_a_zero():
    # h = 2 / n gives a = 0 exactly: the step is a pure tangent jump, and no
    # RuntimeWarning (an error under pytest) comes from the 0 * inf of the closed form
    for n in (1, 2, 3, 5):
        assert 1.0 - n * (2.0 / n) / 2.0 == 0.0
        assert vf.sphere_mean_factor(n, np.array([2.0 / n])).tolist() == [0.0]


def test_mean_decay_euclidean_martingale():
    reports = vf.mean_decay_check(simulate_ensemble(E2, pf.constant(1.0), 1e-2, 0.5, 6, 600))
    for rep in reports:
        assert rep.passed, (rep.name, rep.statistic, rep.tolerance)
        # X + dB is exact: the exact mean is the start, the tolerance 3 SE
        assert rep.tolerance == 3 * rep.details["standard_error"]
        assert sorted(rep.details) == ["exact_mean", "standard_error"]
    assert reports[0].details["exact_mean"].tolist() == [0.0, 0.0]


# (statistic, tolerance, standard error) of each check.  The tolerance is three
# standard errors of the whole compared mean, sqrt(tr Cov / P), about the exact
# mean of the scheme.
DECAY_PINS = {
    "mean-decay-hyperbolic-X": (0.03699648229208141, 0.10559815591162594, 0.035199385303875314),
    "mean-decay-hyperbolic-Y": (0.02815857538554667, 0.27589337233904904, 0.09196445744634968),
    "mean-decay-sphere-X": (0.021077787400457508, 0.09067068921832233, 0.030223563072774108),
    "mean-decay-sphere-Y": (0.03494466957374652, 0.09094268659742011, 0.030314228865806703),
}


def _assert_pinned(reports):
    for rep in reports:
        got = (rep.statistic, rep.tolerance, rep.details["standard_error"])
        assert got == DECAY_PINS[rep.name], rep.name


def test_mean_decay_hyperbolic_n2_constant_mean():
    # n = 2 kills the drift: E[X1] stays at X1(0)
    reports = vf.mean_decay_check(simulate_ensemble(H2, pf.hyperbolic_lower(H2, 1.0),
                                                    1e-2, 0.5, 8, 600))
    for rep in reports:
        assert rep.passed, (rep.name, rep.statistic, rep.tolerance)
        assert rep.details["exact_mean"].shape == (1,)
    _assert_pinned(reports)


def test_mean_decay_reads_the_result_space():
    # the curvature comes from the result: K = 4 quickens the decay of E[X(T)]
    spec = ms.sphere(2, K=4.0)
    reports = vf.mean_decay_check(simulate_ensemble(spec, pf.constant(0.5), 1e-3, 0.1, 6, 600))
    for rep in reports:
        assert rep.passed, (rep.name, rep.statistic, rep.tolerance)
    _assert_pinned(reports)


def test_mean_decay_reads_the_scheme_not_the_dt_to_0_limit():
    # at dt = 0.1 on S5 four steps take the scheme's |E X| to 0.315, against
    # e^(-nT/2) = 0.368: about 8 standard errors at 20,000 paths.  The check
    # passes against the first and would fail against the second.
    spec = ms.sphere(5)
    res = simulate_ensemble(spec, pf.constant(np.pi / 2), 0.1, 0.4, 3, 20_000)
    reports = vf.mean_decay_check(res)
    for rep, start, final in zip(reports, (res.x0, res.y0), (res.final_X, res.final_Y)):
        assert rep.passed, (rep.name, rep.statistic, rep.tolerance)
        limit = np.exp(-spec.n * res.T / 2.0) * start
        assert np.linalg.norm(final.mean(axis=0) - limit) > 3 * rep.details["standard_error"]


def test_mean_decay_requires_ensemble():
    with pytest.raises(ValidationError, match="paths"):
        vf.mean_decay_check(simulate_ensemble(E2, pf.constant(1.0), 1e-2, 0.1, 6, 10))
    with pytest.raises(ValidationError, match="T > 0"):
        vf.mean_decay_check(simulate_ensemble(S2, pf.constant(1.0), 1e-2, 0.0, 6, 500))


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
    res = simulate_ensemble(S2, pf.constant(1.0), 1e-2, 0.1, 3, 500)
    assert vf.oracle_applies(res)
    constancy, agreement = vf.oracle_check(res, 4)
    assert constancy.passed and constancy.ensemble == 500 and agreement.dt == 1e-2
    assert set(agreement.details) == {"mean_norm_sde", "mean_norm_oracle",
                                      "standard_error_sde", "standard_error_oracle"}
    # one or two paths have no standard error to compare
    for P in (1, 2):
        res = simulate_ensemble(S2, pf.constant(1.0), 1e-2, 0.1, 0, P)
        with pytest.raises(ValidationError, match=f"^need at least 500 paths, got {P}$"):
            vf.oracle_check(res, 0)


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
