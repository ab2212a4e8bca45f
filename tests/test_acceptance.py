"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
lines alongside pytest's own verdicts.
"""

import time

import numpy as np
import pytest

from detcouple import cli
from detcouple import model_space as ms
from detcouple import profiles as pf
from detcouple import verify as vf
from detcouple.coupling import euclidean_matrices, hyperbolic_matrices, sphere_matrices
from detcouple.errors import AdmissibilityError
from detcouple.sde import simulate_ensemble
from sampling import random_points

S2 = ms.sphere(2)
H2 = ms.hyperbolic(2)
H3 = ms.hyperbolic(3)
E2 = ms.euclidean(2)

SEED = 20240917


def report(num: int, ok: bool, desc: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] acceptance criterion {num}: {desc}")
    assert ok, f"criterion {num}: {desc}"


@pytest.fixture(scope="module")
def scan_reports():
    t0 = time.perf_counter()
    reports = vf.identity_scan_all(100_000, seed=SEED)
    return reports, time.perf_counter() - t0


@pytest.fixture(scope="module")
def sphere_marginal_ensemble():
    """The fixed-distance sphere ensemble of criteria 7 and 8."""
    return simulate_ensemble(S2, pf.constant(np.pi / 2), 1e-3, 1.0, SEED + 1, 2000)


def test_criterion_01_algebraic_identity_suite(scan_reports):
    reports, elapsed = scan_reports
    worst = max(r.statistic for r in reports)
    ok = worst <= 1e-10 and elapsed < 30.0
    report(1, ok, f"identity residuals over 3x100k states: max {worst:.2e} "
                  f"(tol 1e-10), runtime {elapsed:.1f}s < 30s")


def test_criterion_02_drift_match_oracle(scan_reports):
    reports, _ = scan_reports
    worst_drift = max(r.details["drift"] for r in reports)
    # substituting the transverse eigenvalue 1 - (eta' + (n-1) eta)/(n-1)
    # in place of eta + eta'/(n-1) must break the drift match
    rng = np.random.default_rng(SEED + 2)
    mismatch = []
    for _ in range(200):
        X = random_points(S2, 1, rng)[0]
        t = rng.standard_normal(3)
        t -= (t @ X) * X
        t /= np.linalg.norm(t)
        ang = rng.uniform(0.3, np.pi - 0.3)
        Y = np.cos(ang) * X + np.sin(ang) * t
        eta = float(X @ Y)
        etap = rng.uniform(-(eta + 1.0), 1.0 - eta)
        gamma_sub = np.clip(1.0 - (etap + eta), -1.0, 1.0)
        J, _ = sphere_matrices(X, Y, gamma_sub, 0.0)
        U = np.eye(3) - np.outer(X, X)
        V = np.eye(3) - np.outer(Y, Y)
        mismatch.append(abs(-2.0 * eta + np.trace(U @ J.T @ V) - etap))
    substituted_fails = max(mismatch) > 1e-3
    ok = worst_drift <= 1e-8 and substituted_fails
    report(2, ok, f"drift matches requested rate to {worst_drift:.2e} (tol 1e-8); "
                  f"substituted one-minus eigenvalue mismatches by {max(mismatch):.2e}")


def test_criterion_03_fixed_distance_tracking():
    prof = pf.constant(np.pi / 2)
    t0 = time.perf_counter()
    raw = simulate_ensemble(S2, prof, 1e-4, 1.0, SEED + 3, 100)
    enforced = simulate_ensemble(S2, prof, 1e-4, 1.0, SEED + 3, 100, enforce_distance=True)
    elapsed = time.perf_counter() - t0
    ok = raw.mean_sup_err <= 0.05 and enforced.max_sup_err <= 1e-12 and elapsed < 60.0
    report(3, ok, f"sphere fixed-distance sup error {raw.mean_sup_err:.4f} <= 0.05; "
                  f"enforced {enforced.max_sup_err:.2e} <= 1e-12; "
                  f"runtime {elapsed:.1f}s < 60s")


def test_criterion_04_extreme_profile_tracking():
    prof = pf.sphere_contracting(S2, np.pi / 2)
    res_a = simulate_ensemble(S2, prof, 1e-4, 1.0, SEED + 4, 100, record_distances=True)
    target_a = 2.0 * np.arcsin(np.exp(-res_a.times / 2.0) * np.sin(np.pi / 4))
    assert np.max(np.abs(res_a.target - target_a)) <= 1e-12

    profh = pf.hyperbolic_lower(H3, 1.0)
    res_b = simulate_ensemble(H3, profh, 1e-4, 1.0, SEED + 5, 100, record_distances=True)
    target_b = 2.0 * np.arcsinh(np.exp(res_b.times) * np.sinh(0.5))
    assert np.max(np.abs(res_b.target - target_b)) <= 1e-12

    # ensemble-mean distance tracks the closed form pointwise and stays
    # inside the reachable envelope up to the tracking tolerance
    assert np.max(np.abs(res_a.mean_d_emp - target_a)) <= 0.05
    bracket = vf.envelope_check(res_b, 0.08)

    ok = res_a.mean_sup_err <= 0.05 and res_b.mean_sup_err <= 0.08 and bracket.passed
    report(4, ok, f"contracting sphere sup error {res_a.mean_sup_err:.4f} <= 0.05; "
                  f"hyperbolic lower-extreme sup error {res_b.mean_sup_err:.4f} <= 0.08, "
                  f"envelope bracket {bracket.statistic:.4f} <= 0.08")


def test_criterion_05_hyperbolic_linear_growth():
    lo, hi = pf.envelope(H3, 1.0, 30.0)
    ok = 1.9 <= lo / 30.0 <= 2.1 and 1.9 <= hi / 30.0 <= 2.1
    report(5, ok, f"envelope endpoints over t: {lo/30:.4f}, {hi/30:.4f} in [1.9, 2.1]")


def test_criterion_06_admissibility_rejections():
    rejects = []
    rejects.append(not pf.check_admissibility(H2, pf.constant(1.0), T=1.0).admissible)
    ts = np.linspace(0.0, 1.0, 101)
    rejects.append(not pf.check_admissibility(E2, pf.tabulated(ts, 2.0 - 0.5 * ts),
                                              grid=ts).admissible)
    ramp = pf.tabulated(ts, 1.0 + 0.2 * ts)
    for spec in (ms.euclidean(1), ms.sphere(1), ms.hyperbolic(1)):
        rejects.append(not pf.check_admissibility(spec, ramp, grid=ts).admissible)
    ok = all(rejects)
    report(6, ok, "rejected: constant on H2, decreasing on R2, non-constant in dim 1 "
                  "(all three spaces)")


def test_criterion_07_marginal_sanity(sphere_marginal_ensemble):
    t0 = time.perf_counter()
    checks = vf.mean_decay_check(sphere_marginal_ensemble)

    profh = pf.hyperbolic_lower(H3, 1.0)
    checks += vf.mean_decay_check(simulate_ensemble(H3, profh, 1e-3, 1.0, SEED + 6, 2000))
    elapsed = time.perf_counter() - t0

    ok = all(c.passed for c in checks) and elapsed < 180.0
    detail = "; ".join(f"{c.name}: {c.statistic:.3f} <= {c.tolerance:.3f}" for c in checks)
    report(7, ok, f"{detail}; runtime {elapsed:.0f}s < 180s")


def test_criterion_08_oracle_equivalence(sphere_marginal_ensemble):
    constancy, agreement = vf.oracle_check(sphere_marginal_ensemble, SEED + 7)
    ok = constancy.passed and agreement.passed
    report(8, ok, f"rotation coupling distance constant to {constancy.statistic:.2e} <= 1e-12; "
                  f"mean-decay stats differ by {agreement.statistic:.4f} <= "
                  f"{agreement.tolerance:.4f} (mutual 3 SE)")


def test_criterion_09_convergence():
    rep = vf.convergence_study(S2, pf.constant(np.pi / 2),
                               [1e-2, 3e-3, 1e-3, 3e-4, 1e-4], 100, SEED + 8, T=1.0)
    ok = rep.passed
    report(9, ok, f"tracking errors {['%.4f' % e for e in rep.details['mean_sup_err']]} "
                  f"strictly decreasing: {rep.details['strictly_decreasing']}; "
                  f"log-log slope {rep.details['slope']:.3f} in [0.4, 1.1]")


def test_criterion_10_determinism(tmp_path, capsys, shards):
    argv = ["simulate", "--space", "sphere", "--dim", "2", "--profile", "constant",
            "--rho0", "1.5707963267948966", "--dt", "1e-3", "--T", "0.2",
            "--paths", "300", "--seed", "5"]
    outputs = []
    for cores, sub in enumerate(("run1", "run2", "run3"), 1):
        shards(cores)
        out = tmp_path / sub
        assert cli.main(argv + ["--out", str(out)]) == 0
        outputs.append(((out / "paths.csv").read_bytes(),
                        (out / "summary.json").read_bytes()))
    ok = outputs[0] == outputs[1] == outputs[2]
    report(10, ok, "three repeated runs, on 1, 2 and 3 usable cores, produce byte-identical "
                   "paths.csv and summary.json")


def _ito_band(kind, n, X, Y, eta):
    """The eta' that a coupling dW = J dB + K dC realizes at unit-model states (X, Y).

    With dX = s_X dB + mu_X dt and dY = s_Y dW + mu_Y dt, Ito's formula gives eta the
    martingale part (b + J'a).dB + (K'a).dC, b = s_X' grad_X eta, a = s_Y' grad_Y eta,
    and the drift L_X eta + L_Y eta + tr(M J), M = s_X' grad_X grad_Y eta s_Y.  The
    distance is deterministic iff J'a^ = -b^ and K'a^ = 0, that is J = -a^ b^' + C
    with C any contraction from b^-perp to a^-perp, so eta' fills
    [base - |A|_*, base + |A|_*], base = L_X eta + L_Y eta - b^'M a^ and
    A = P_{b^-perp} M P_{a^-perp}, whose nuclear norm is the largest tr(A C).
    """
    I = np.eye(X.shape[-1])
    if kind is ms.SpaceKind.EUCLIDEAN:          # eta = |X - Y|^2 / 2; s = I, mu = 0
        Z = X - Y
        gX, gY, H = Z, -Z, -I
        LX = LY = np.full(len(X), n / 2.0)
        sX = sY = I
    elif kind is ms.SpaceKind.SPHERE:           # eta = X.Y; s = I - XX', mu = -(n/2) X
        gX, gY, H = Y, X, I
        LX = LY = -n / 2.0 * eta
        sX = I - X[:, :, None] * X[:, None, :]
        sY = I - Y[:, :, None] * Y[:, None, :]
    else:                                       # eta = |X - Y|^2 / (2 x1 y1); s = x1 I,
        x1, y1 = X[:, 0], Y[:, 0]               # mu = -((n - 2)/2) x1 e1
        Z = X - Y
        zt2 = np.sum(Z[:, 1:] ** 2, axis=-1)
        gX = Z / (x1 * y1)[:, None] - I[0] * (eta / x1)[:, None]
        gY = -Z / (x1 * y1)[:, None] - I[0] * (eta / y1)[:, None]
        H = -I / (x1 * y1)[:, None, None] - Z[:, :, None] * I[0] / (x1 * y1 * y1)[:, None, None] \
            - I[0][:, None] * gY[:, None, :] / x1[:, None, None]
        # the closed-form Euclidean Laplacians of eta in X and in Y
        lapX = (n - 1) / (x1 * y1) + (y1 ** 2 + zt2) / (x1 ** 3 * y1)
        lapY = (n - 1) / (x1 * y1) + (x1 ** 2 + zt2) / (y1 ** 3 * x1)
        LX = 0.5 * x1 ** 2 * lapX - (n - 2) / 2.0 * x1 * gX[:, 0]
        LY = 0.5 * y1 ** 2 * lapY - (n - 2) / 2.0 * y1 * gY[:, 0]
        sX, sY = x1[:, None, None] * I, y1[:, None, None] * I
    b = np.einsum("...ji,...j->...i", sX, gX)
    a = np.einsum("...ji,...j->...i", sY, gY)
    M = np.swapaxes(sX, -1, -2) @ H @ sY
    bh = b / np.linalg.norm(b, axis=-1, keepdims=True)
    ah = a / np.linalg.norm(a, axis=-1, keepdims=True)
    base = LX + LY - np.einsum("...i,...ij,...j->...", bh, M, ah)
    A = (I - bh[:, :, None] * bh[:, None, :]) @ M @ (I - ah[:, :, None] * ah[:, None, :])
    nuclear = np.linalg.svd(A, compute_uv=False).sum(axis=-1)
    return base - nuclear, base + nuclear


BAND_CASES = [(ms.euclidean, 0.0), (ms.sphere, 1.0), (ms.sphere, 0.3),
              (ms.hyperbolic, -1.0), (ms.hyperbolic, -0.3)]


@pytest.mark.parametrize("space,K", BAND_CASES,
                         ids=[f"{space.__name__}-K{K:g}" for space, K in BAND_CASES])
def test_criterion_11_band_derived_from_itos_formula(space, K):
    # the "only if" half: no coupling realizes an eta' outside the band, and the
    # band is admissible_bounds in eta form (eta' = deta/drho rho' in the unit model,
    # where rho = r rho_u and rho_u' = r rho' on the time scale t / r^2)
    worst = 0.0
    for n in (1, 2, 3, 5):
        spec = space(n) if K == 0.0 else space(n, K)
        kind, r = spec.kind, spec.r
        sample = {ms.SpaceKind.EUCLIDEAN: vf._sample_euclidean,
                  ms.SpaceKind.SPHERE: vf._sample_sphere,
                  ms.SpaceKind.HYPERBOLIC: vf._sample_hyperbolic}[kind]
        X, Y, eta, _ = sample(n, 10_000, np.random.default_rng(SEED + 11 + n))
        lo, hi = _ito_band(kind, n, X, Y, eta)
        if kind is ms.SpaceKind.SPHERE:
            rho = 2.0 * np.arctan2(np.linalg.norm(X - Y, axis=-1), np.linalg.norm(X + Y, axis=-1))
        else:
            rho = ms.unit_distance(kind, X, Y)
        deta = {ms.SpaceKind.EUCLIDEAN: rho, ms.SpaceKind.SPHERE: -np.sin(rho),
                ms.SpaceKind.HYPERBOLIC: np.sinh(rho)}[kind]
        ends = np.sort(np.stack(pf.admissible_bounds(spec, r * rho)) * (r * deta), axis=0)
        scale = np.maximum(1.0, np.abs(ends))
        worst = max(worst, float(np.max(np.abs(np.stack([lo, hi]) - ends) / scale)))

        matrices = {ms.SpaceKind.EUCLIDEAN: euclidean_matrices,
                    ms.SpaceKind.SPHERE: sphere_matrices,
                    ms.SpaceKind.HYPERBOLIC: hyperbolic_matrices}[kind]
        for end, beyond in ((lo, -1e-6), (hi, 1e-6)):
            matrices(X, Y, eta, end)                    # every state, at the derived end
            for i in range(0, len(X), 100):             # every 100th state, just beyond it
                with pytest.raises(AdmissibilityError):
                    matrices(X[i], Y[i], eta[i], end[i] + beyond)
    report(11, worst <= 1e-10, f"{spec.kind.value} K={K:g}: the eta' band derived from Ito's "
                               f"formula at 4 x 10^4 states is admissible_bounds to "
                               f"{worst:.1e} (relative, tol 1e-10), and the kernel takes its "
                               f"ends and rejects eta' 1e-6 beyond them")
