import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detcouple import coupling as cp
from detcouple import model_space as ms
from detcouple import profiles as pf
from detcouple.errors import AdmissibilityError, DegenerateStateError, ValidationError
from sampling import random_points

S2 = ms.sphere(2)


def unitarity(J, K) -> float:
    return float(np.max(np.abs(J @ J.T + K @ K.T - np.eye(J.shape[0]))))


def op_norm(J) -> float:
    return float(np.linalg.svd(J, compute_uv=False)[0])


def sphere_drift(X, Y, J):
    # deterministic drift of eta = X.Y under the coupled dynamics
    N = len(X)
    U = np.eye(N) - np.outer(X, X)
    V = np.eye(N) - np.outer(Y, Y)
    return -N * float(X @ Y) + float(np.trace(U @ J.T @ V)) + float(X @ Y)


def hyperbolic_drift(X, Y, J):
    n = len(X)
    eta = np.sum((X - Y) ** 2) / (2 * X[0] * Y[0])
    return (1 + eta) * (n - 2 - J[0, 0]) - (np.trace(J) - J[0, 0]) \
        + (X[0] ** 2 + Y[0] ** 2) / (X[0] * Y[0])


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("N", range(10))
def test_dots_and_norm_have_the_bits_of_numpy_reductions(N):
    rng = np.random.default_rng(100 + N)
    P = 4000

    def wide(*shape):   # random signs and mantissas over exponents 2**-1074 .. 2**1023
        return rng.choice([-1.0, 1.0], shape) * np.ldexp(rng.random(shape) + 0.5,
                                                         rng.integers(-1075, 1023, shape))
    a, b = wide(P, N), wide(P, N)
    normal = rng.standard_normal((P, N)), rng.standard_normal((P, N))
    zeros = rng.choice([-0.0, 0.0], (P, N)), rng.choice([-0.0, 0.0], (P, N))
    special = [rng.choice([-0.0, 0.0, 1.5, -2.0, np.inf, -np.inf, np.nan], (P, N))
               for _ in range(2)]
    pairs = [(a, b), normal, zeros, tuple(special), (a.T.copy().T, b),    # strided last axis
             (a[0], b[0]),                                                # one point
             (normal[0][:, None, :], np.eye(N))]                          # _read_off's shape
    with np.errstate(all="ignore"):
        for x, y in pairs:
            assert _same_bits(ms._dots(x, y), (x * y).sum(axis=-1))
            assert _same_bits(ms._norm(x), np.linalg.norm(x, axis=-1))


# ---------------------------------------------------------------------------
# Euclidean


def test_euclidean_translation():
    J, K = cp.euclidean_matrices([2.0, 0.0], np.zeros(2), 2.0, 0.0)   # rho = 2, rho' = 0
    assert np.array_equal(J, np.eye(2)) and not K.any()


def test_euclidean_mirror_at_saturation():
    # rho rho' = 2(n-1) forces lambda = -1: reflection across Z
    J, K = cp.euclidean_matrices([2.0, 0.0], np.zeros(2), 2.0, 2.0)   # rho = 2, rho' = 1
    assert np.allclose(J, np.diag([1.0, -1.0]), atol=1e-15)
    assert not K.any()
    assert J.T @ np.array([2.0, 0.0]) == pytest.approx([2.0, 0.0])


def test_euclidean_lambda_zero():
    # rho = 2, rho' = 1: rho rho' = 2 -> lambda = 0
    J, K = cp.euclidean_matrices([1.7, 0.0, 0.0], np.zeros(3), 2.0, 2.0)
    assert np.allclose(J, np.diag([1.0, 0.0, 0.0]), atol=1e-15)
    assert np.allclose(K, np.diag([0.0, 1.0, 1.0]), atol=1e-15)


def test_euclidean_postconditions_random():
    rng = np.random.default_rng(10)
    for _ in range(200):
        n = rng.integers(2, 6)
        Z = rng.standard_normal(n)
        rho = float(np.linalg.norm(Z))
        drho = rng.uniform(0.0, 2 * (n - 1) / rho)
        J, K = cp.euclidean_matrices(Z, np.zeros(n), rho**2 / 2, rho * drho)
        assert np.max(np.abs(J.T @ Z - Z)) <= 1e-12 * rho
        assert np.max(np.abs(K.T @ Z)) <= 1e-12 * rho
        assert n - np.trace(J) == pytest.approx(rho * drho, abs=1e-12)
        assert unitarity(J, K) <= 1e-12
        assert op_norm(J) <= 1 + 1e-12


def test_euclidean_errors():
    with pytest.raises(AdmissibilityError):
        cp.euclidean_matrices([1.0, 0.0], np.zeros(2), 0.5, 3.0)     # rho rho' > 2(n-1)
    with pytest.raises(AdmissibilityError):
        cp.euclidean_matrices([1.0, 0.0], np.zeros(2), 0.5, -0.2)    # decreasing distance
    with pytest.raises(DegenerateStateError):
        cp.euclidean_matrices([0.0, 0.0], np.zeros(2), 0.5, 0.0)
    with pytest.raises(AdmissibilityError):
        cp.euclidean_matrices([1.0], np.zeros(1), 0.5, 0.5)          # only constant in dim 1
    assert np.array_equal(cp.euclidean_matrices([1.0], np.zeros(1), 0.5, 0.0)[0], [[1.0]])


# ---------------------------------------------------------------------------
# sphere


def test_sphere_fixed_distance_example():
    X = np.array([1.0, 0.0, 0.0])
    Y = np.array([0.0, 1.0, 0.0])
    J, K = cp.sphere_matrices(X, Y, 0.0, 0.0)
    expect_J = np.array([[0.0, -1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    expect_K = np.diag([0.0, 0.0, 1.0])
    assert np.allclose(J, expect_J, atol=1e-15)
    assert np.allclose(K, expect_K, atol=1e-15)
    assert unitarity(J, K) <= 1e-15


@pytest.mark.parametrize("etap,gamma", [(-1.0, -1.0), (1.0, 1.0)])
def test_sphere_band_endpoints_kill_transverse_noise(etap, gamma):
    # at either band endpoint gamma = -+1 and K vanishes transversally
    X = np.array([1.0, 0.0, 0.0])
    Y = np.array([0.0, 1.0, 0.0])
    J, K = cp.sphere_matrices(X, Y, 0.0, etap)
    assert np.max(np.abs(K)) <= 1e-15
    e3 = np.array([0.0, 0.0, 1.0])
    assert J @ e3 == pytest.approx(gamma * e3)


def test_sphere_cancellation_and_drift_random():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(2, 5))
        spec = ms.sphere(n)
        X = random_points(spec, 1, rng)[0]
        t = rng.standard_normal(n + 1)
        t -= (t @ X) * X
        t /= np.linalg.norm(t)
        ang = rng.uniform(0.05, np.pi - 0.05)
        Y = np.cos(ang) * X + np.sin(ang) * t
        eta = float(X @ Y)
        k = n - 1
        etap = rng.uniform(-k * (eta + 1), k * (1 - eta))
        J, K = cp.sphere_matrices(X, Y, eta, etap)
        v = X - eta * Y
        assert np.max(np.abs(J.T @ v - (eta * X - Y))) <= 1e-12
        assert np.max(np.abs(K.T @ v)) <= 1e-12
        assert unitarity(J, K) <= 1e-12
        assert op_norm(J) <= 1 + 1e-12
        N = n + 1
        U = np.eye(N) - np.outer(X, X)
        V = np.eye(N) - np.outer(Y, Y)
        drift = -(n - 1) * eta + np.trace(U @ J.T @ V) - eta
        # tr(U J' V) contributes eta from the span{X, Y} block
        assert drift == pytest.approx(etap, abs=1e-10)


def test_sphere_reflection_on_span():
    rng = np.random.default_rng(12)
    X = random_points(S2, 1, rng)[0]
    Y = random_points(S2, 1, rng)[0]
    J, K = cp.sphere_matrices(X, Y, float(X @ Y), 0.3)
    w = Y - (X @ Y) * X
    F = np.stack([X, w / np.linalg.norm(w)], axis=1)   # orthonormal basis of span{X, Y}
    B = F.T @ J.T @ F
    assert np.allclose(B @ B.T, np.eye(2), atol=1e-12)     # orthogonal
    assert np.allclose(B, B.T, atol=1e-12)                 # symmetric
    assert np.linalg.det(B) == pytest.approx(-1.0, abs=1e-12)   # a reflection


def test_sphere_n1_rotation_coupling():
    X = np.array([1.0, 0.0])
    Y = np.array([np.cos(1.0), np.sin(1.0)])
    J, K = cp.sphere_matrices(X, Y, float(X @ Y), 0.0)
    assert J @ X == pytest.approx(-Y, abs=1e-15)
    assert J @ Y == pytest.approx(-X, abs=1e-15)
    assert np.max(np.abs(K)) <= 1e-15
    with pytest.raises(AdmissibilityError):
        cp.sphere_matrices(X, Y, float(X @ Y), 0.1)   # nonzero eta' impossible


def test_sphere_errors():
    X = np.array([1.0, 0.0, 0.0])
    Y = np.array([0.0, 1.0, 0.0])
    with pytest.raises(AdmissibilityError):
        cp.sphere_matrices(X, Y, 0.0, 1.5)    # above -(n-1)(eta-1) = 1
    with pytest.raises(DegenerateStateError):
        cp.sphere_matrices(X, X, 1.0, 0.0)
    with pytest.raises(DegenerateStateError):
        cp.sphere_matrices(X, -X, -1.0, 0.0)
    with pytest.raises(ValidationError):
        cp.sphere_matrices(2 * X, Y, 0.0, 0.0)


def test_sphere_drift_consistent_gamma_vs_one_minus_variant():
    # gamma = eta + eta'/(n-1) realizes the requested drift; the variant with
    # a leading 1 - (eta' + (n-1) eta)/(n-1) does not (and can leave [-1, 1])
    rng = np.random.default_rng(13)
    mismatch = []
    for _ in range(100):
        n = 2
        X = random_points(S2, 1, rng)[0]
        t = rng.standard_normal(3)
        t -= (t @ X) * X
        t /= np.linalg.norm(t)
        ang = rng.uniform(0.3, np.pi - 0.3)
        Y = np.cos(ang) * X + np.sin(ang) * t
        eta = float(X @ Y)
        etap = rng.uniform(-(eta + 1), (1 - eta))
        gamma_good = eta + etap / (n - 1)
        gamma_bad = 1.0 - (etap + (n - 1) * eta) / (n - 1)
        for gamma, good in ((gamma_good, True), (gamma_bad, False)):
            J, K = cp.sphere_matrices(X, Y, np.clip(gamma, -1, 1), 0.0)
            U = np.eye(3) - np.outer(X, X)
            V = np.eye(3) - np.outer(Y, Y)
            drift = -n * eta + np.trace(U @ J.T @ V)
            if good:
                assert drift == pytest.approx(etap, abs=1e-10)
            else:
                mismatch.append(abs(drift - etap))
    assert max(mismatch) > 1e-3   # the variant fails the drift oracle


# ---------------------------------------------------------------------------
# hyperbolic


def test_hyperbolic_dim1_synchronous():
    # the cancellation identities force J = +1 in dimension 1 (Y = theta X)
    J, K = cp.hyperbolic_matrices(np.array([1.0]), np.array([2.0]), 0.25, 0.0)
    assert np.array_equal(J, [[1.0]]) and np.array_equal(K, [[0.0]])
    assert hyperbolic_drift(np.array([1.0]), np.array([2.0]), J) == pytest.approx(0.0, abs=1e-15)


def test_hyperbolic_boundary_aligned_lower_extreme():
    X = np.array([1.0, 0.0])
    Y = np.array([2.0, 0.0])
    eta = 0.25   # |Z|^2 / (2 X1 Y1) = 1/4
    J, K = cp.hyperbolic_matrices(X, Y, eta, eta)   # eta' = (n-1) eta: gamma = 1
    assert np.allclose(J, np.eye(2), atol=1e-15)
    assert not K.any()


def test_hyperbolic_two_plane_example():
    X = np.array([1.0, 1.0])
    Y = np.array([1.0, 0.0])
    eta = np.sum((X - Y) ** 2) / (2 * X[0] * Y[0])
    etap = eta + 1.3    # inside [eta, eta + 2] for n = 2
    m, l, p, q = cp._hyperbolic_plane(X, Y, eta, etap)[2][:4]
    assert (m, l, p, q) == (1.0, 2.0, -1.0, 2.0)
    assert m * m + l * l == p * p + q * q == 5.0
    J, K = cp.hyperbolic_matrices(X, Y, eta, etap)
    gamma = 1 + eta - etap
    # the two-plane determinant equals the transverse eigenvalue; the plane
    # is spanned by e1 and the unit boundary displacement, here e1 and e2
    B = J.T
    assert np.linalg.det(B) == pytest.approx(gamma, abs=1e-12)


def test_hyperbolic_cancellation_drift_random():
    rng = np.random.default_rng(15)
    for _ in range(300):
        n = int(rng.integers(2, 5))
        spec = ms.hyperbolic(n)
        X = random_points(spec, 1, rng)[0]
        Y = random_points(spec, 1, rng)[0]
        if rng.random() < 0.3:
            Y[1:] = X[1:]
            if abs(X[0] - Y[0]) < 1e-6:
                Y[0] *= 1.7
        eta = float(np.sum((X - Y) ** 2) / (2 * X[0] * Y[0]))
        k = n - 1
        etap = k * eta + rng.uniform(0, 2 * k)
        J, K = cp.hyperbolic_matrices(X, Y, eta, etap)
        m, l, p, q, u, zt = cp._hyperbolic_plane(X, Y, eta, etap)[2][:6]
        xi2 = np.zeros(n)
        if u > 0:
            xi2[1:] = zt / u
        e1 = np.zeros(n)
        e1[0] = 1.0
        v = m * e1 + l * xi2
        rhs = p * e1 + q * xi2
        scale = max(1.0, np.hypot(m, l))
        assert np.max(np.abs(J.T @ v - rhs)) <= 1e-10 * scale
        assert np.max(np.abs(K.T @ v)) <= 1e-10 * scale
        assert unitarity(J, K) <= 1e-12
        assert op_norm(J) <= 1 + 1e-12
        assert hyperbolic_drift(X, Y, J) == pytest.approx(etap, abs=1e-9)


def test_hyperbolic_gamma_saturation():
    X = np.array([1.0, 0.5, 0.0])
    Y = np.array([1.4, -0.2, 0.3])
    eta = float(np.sum((X - Y) ** 2) / (2 * X[0] * Y[0]))
    k = 2
    for etap, gamma in ((k * eta, 1.0), (k * eta + 2 * k, -1.0)):
        J, K = cp.hyperbolic_matrices(X, Y, eta, etap)
        # K vanishes transversally at the band endpoints: f is orthogonal to
        # e1 and to the boundary displacement (0, 0.7, -0.3)
        f = np.array([0.0, 0.3, 0.7]) / np.hypot(0.3, 0.7)
        assert np.max(np.abs(K @ f)) <= 1e-12
        assert f @ J @ f == pytest.approx(gamma, abs=1e-12)


# ---------------------------------------------------------------------------
# the two-plane map A_phi inside the hyperbolic kernel


def plane_block(X, Y, J):
    """J' on span{e1, xi2} in the (e1, xi2) basis: columns are the images."""
    n = len(X)
    e1 = np.zeros(n)
    e1[0] = 1.0
    xi2 = np.zeros(n)
    zt = X[1:] - Y[1:]
    if np.linalg.norm(zt) > 0:
        xi2[1:] = zt / np.linalg.norm(zt)
    else:
        xi2[1] = 1.0   # vertical pair: every boundary direction is transverse
    F = np.stack([e1, xi2], axis=1)
    return F.T @ J.T @ F


def test_a_phi_fixes_xi1():
    # a vertical pair has (m, l) = (p, q) direction e1: A_phi = diag(1, d)
    d0 = 0.3
    X = np.array([1.0, 0.0])
    Y = np.array([2.0, 0.0])
    eta = 0.25
    J, K = cp.hyperbolic_matrices(X, Y, eta, 1.0 + eta - d0)   # gamma = d = d0
    assert np.allclose(plane_block(X, Y, J), np.diag([1.0, d0]), atol=1e-15)


def test_a_phi_band_center_is_singular():
    X = np.array([1.0, 1.0, 0.0])
    Y = np.array([1.5, 0.2, -0.4])
    eta = float(np.sum((X - Y) ** 2) / (2 * X[0] * Y[0]))
    k = 2
    J, K = cp.hyperbolic_matrices(X, Y, eta, k * (eta + 1.0))   # centre of the band: d = 0
    assert np.linalg.det(plane_block(X, Y, J)) == pytest.approx(0.0, abs=1e-14)


def test_a_phi_postconditions():
    rng = np.random.default_rng(14)
    for _ in range(100):
        n = int(rng.integers(2, 5))
        spec = ms.hyperbolic(n)
        X = random_points(spec, 1, rng)[0]
        Y = random_points(spec, 1, rng)[0]
        eta = float(np.sum((X - Y) ** 2) / (2 * X[0] * Y[0]))
        k = n - 1
        etap = k * eta + rng.uniform(0, 2 * k)
        J, _ = cp.hyperbolic_matrices(X, Y, eta, etap)
        B = plane_block(X, Y, J)
        m, l, p, q = cp._hyperbolic_plane(X, Y, eta, etap)[2][:4]
        norm = np.hypot(m, l)
        phi = -etap / k + (X[0] ** 2 + Y[0] ** 2) / (X[0] * Y[0])
        assert B @ [m, l] == pytest.approx([p, q], abs=1e-10 * max(1, norm))
        assert (1.0 + eta) * B[0, 0] + B[1, 1] == pytest.approx(phi, abs=1e-10)
        assert np.linalg.det(B) == pytest.approx(1.0 + eta - etap / k, abs=1e-10)   # d = gamma
        assert np.linalg.svd(B, compute_uv=False)[0] <= 1 + 1e-12
        with pytest.raises(AdmissibilityError):
            cp.hyperbolic_matrices(X, Y, eta, k * eta + 2 * k + 1.0)


def test_hyperbolic_errors():
    X = np.array([1.0, 0.0])
    Y = np.array([2.0, 0.0])
    with pytest.raises(AdmissibilityError):
        cp.hyperbolic_matrices(X, Y, 0.25, 0.0)    # below (n-1) eta
    with pytest.raises(AdmissibilityError):
        cp.hyperbolic_matrices(X, Y, 0.25, 3.0)    # above (n-1) eta + 2(n-1)
    with pytest.raises(DegenerateStateError):
        cp.hyperbolic_matrices(X, X, 0.0, 0.0)
    with pytest.raises(ValidationError):
        cp.hyperbolic_matrices(np.array([-1.0, 0.0]), Y, 0.25, 0.5)


def test_matrices_reject_batch_at_first_bad_state():
    X = np.array([[1.0, 0.0, 0.0]] * 3)
    Y = np.array([[0.0, 1.0, 0.0]] * 3)
    # band [-1, 1] at eta = 0: the second and third states are outside it
    with pytest.raises(AdmissibilityError, match=r"eta' = 1.5 outside the band \[-1, 1\]"):
        cp.sphere_matrices(X, Y, [0.0, 0.0, 0.0], [0.5, 1.5, -2.0])
    with pytest.raises(ValidationError, match="equal shapes"):
        cp.sphere_matrices(X, Y[:2], 0.0, 0.0)
    with pytest.raises(ValidationError, match="equal shapes"):
        cp.euclidean_matrices([1.0, 0.0], [0.0, 0.0, 0.0], 0.5, 0.5)
    with pytest.raises(ValidationError, match="finite"):
        cp.euclidean_matrices([[1.0, 0.0], [np.nan, 0.0]], np.zeros((2, 2)), 0.5, 0.5)
    Yd = Y.copy()
    Yd[2] = X[2]
    with pytest.raises(DegenerateStateError):
        cp.sphere_matrices(X, Yd, 0.0, 0.0)
    # an eta that does not belong to the points can put d outside [-1, 1]
    with pytest.raises(AdmissibilityError, match="two-plane determinant d = 1.94118"):
        cp.hyperbolic_matrices([1.0, 1.0], [1.0, 0.0], 0.1, 0.1)


def test_hyperbolic_d_checked_before_the_kernel(monkeypatch):
    calls = []
    real = cp.drive
    monkeypatch.setattr(cp, "drive", lambda *args: calls.append(args) or real(*args))
    with pytest.raises(AdmissibilityError, match="two-plane determinant d = 1.94118"):
        cp.hyperbolic_matrices([1.0, 1.0], [1.0, 0.0], 0.1, 0.1)
    assert not calls
    cp.hyperbolic_matrices([1.0, 1.0], [1.0, 0.0], 0.5, 0.5)   # the pair's own eta
    assert len(calls) == 2                                       # J, then K


@pytest.mark.parametrize("n", [1, 2, 3, 5])
@pytest.mark.parametrize("kind", list(ms.SpaceKind), ids=lambda kind: kind.value)
def test_eta_band_matches_admissible_bounds(kind, n):
    # the matrices' band on eta' is admissible_bounds' band on rho', mapped
    # through eta' = (d eta / d rho) rho'
    spec = ms.SpaceSpec(kind, n, {ms.SpaceKind.EUCLIDEAN: 0.0, ms.SpaceKind.SPHERE: 1.0,
                                  ms.SpaceKind.HYPERBOLIC: -1.0}[kind])
    rng = np.random.default_rng(n)
    X, Y = random_points(spec, 100, rng), random_points(spec, 100, rng)
    rho = ms.unit_distance(kind, X, Y)
    eta, deta = cp.eta_from_rho(kind, rho, 1.0)
    lo, hi = np.sort(np.stack(pf.admissible_bounds(spec, rho)) * deta, axis=0)
    slack = 1e-12 * np.maximum(np.abs(lo), np.abs(hi))
    # each end is accepted from inside and rejected from outside the tolerance
    cp._checked(kind, X, Y, eta, lo + slack)
    cp._checked(kind, X, Y, eta, hi - slack)
    for i in range(len(rho)):
        for outside in (lo[i] - slack[i] - 2 * cp.BAND_TOL, hi[i] + slack[i] + 2 * cp.BAND_TOL):
            with pytest.raises(AdmissibilityError):
                cp._checked(kind, X[i], Y[i], eta[i], outside)


@settings(max_examples=150, deadline=None)
@given(st.floats(0.1, 2.5), st.floats(0.0, 1.0), st.integers(2, 4))
def test_sphere_invariants_property(ang, frac, n):
    X = np.zeros(n + 1)
    X[0] = 1.0
    Y = np.zeros(n + 1)
    Y[0], Y[1] = np.cos(ang), np.sin(ang)
    eta = float(X @ Y)
    k = n - 1
    etap = -k * (eta + 1) + frac * 2 * k   # sweep the band
    J, K = cp.sphere_matrices(X, Y, eta, etap)
    assert unitarity(J, K) <= 1e-12
    v = X - eta * Y
    assert np.max(np.abs(J.T @ v - (eta * X - Y))) <= 1e-12


@settings(max_examples=150, deadline=None)
@given(st.floats(0.2, 3.0), st.floats(-1.5, 1.5), st.floats(0.0, 1.0), st.integers(2, 4))
def test_hyperbolic_invariants_property(y1, off, frac, n):
    X = np.zeros(n)
    X[0] = 1.0
    Y = np.zeros(n)
    Y[0], Y[1] = y1, off
    eta = float(np.sum((X - Y) ** 2) / (2 * X[0] * Y[0]))
    if eta < 1e-12:
        return
    k = n - 1
    etap = k * eta + frac * 2 * k
    J, K = cp.hyperbolic_matrices(X, Y, eta, etap)
    assert unitarity(J, K) <= 1e-12
    assert hyperbolic_drift(X, Y, J) == pytest.approx(etap, abs=1e-9)


# ---------------------------------------------------------------------------
# matrix bytes


MATRIX_DIGESTS = {
    "euclidean-n1": "e33c94d7b1e0df600330279a46531aa8f6379b36d5b3d97bca18da04300dee2b",
    "euclidean-n2": "750ff5cf874b36c55733e974beca24b487bc04dd26d66934fe2a7b621162386c",
    "euclidean-n3": "e9da808f7f2a33ab154029b4fb9f9f4ba08df9cd3420c0cff9d04617f936dbf1",
    "euclidean-n5": "ba28e003d274eb144f44c564ff3454914da739ee40e0925ff59cfa637afda7d7",
    "sphere-n1": "1a6a5c378c3e5e335481623f1ea1bbd700ea8fec34a8abf7bb4b1acd4d00efe9",
    "sphere-n2": "6136bd655cd3ee679151399c7ed739df156af6f0124b76da6f80b5f524f2a147",
    "sphere-n3": "aa8476e3bed0c640d2614e4986a43f7d9fea409b146407bed6bc5dc0b86ae32f",
    "sphere-n5": "9e2451b5a50bf1dfb78b5df6e549da5a990559c8cf163978b741b427ff6722b8",
    "hyperbolic-n1": "597f8aa665cbd5069986901de2b7024aaf60c09caf3ea88916a9b37a683380b3",
    "hyperbolic-n2": "a05c8d806159f22100f3b2f232f2ab5d72b96d148037cc99fe5e358666cc3c66",
    "hyperbolic-n3": "39b4979e2fa4f079ead02aaf1f70932c9a7d0b3d9783ce66d274cbc3489baae7",
    "hyperbolic-n5": "0bd4008be1bb102545a4a113b3a350dca149cb1ebe8741c2ec59cf9a07431832",
}


def _admissible_batch(kind, n, size=48):
    """Fixed admissible states (X, Y, eta, eta') of one unit model space.

    A quarter of the half-space pairs are vertical, so the kernel's
    degenerate-plane branch is pinned too.
    """
    spec = ms.SpaceSpec(kind, n, {ms.SpaceKind.EUCLIDEAN: 0.0, ms.SpaceKind.SPHERE: 1.0,
                                  ms.SpaceKind.HYPERBOLIC: -1.0}[kind])
    rng = np.random.default_rng(10 * n + list(ms.SpaceKind).index(kind))
    X = random_points(spec, size, rng)
    Y = random_points(spec, size, rng)
    k = n - 1
    if kind is ms.SpaceKind.EUCLIDEAN:
        eta = 0.5 * np.sum((X - Y) ** 2, axis=-1)
        return X, Y, eta, rng.uniform(0.0, 2.0 * k, size)
    if kind is ms.SpaceKind.SPHERE:
        eta = np.sum(X * Y, axis=-1)
        return X, Y, eta, rng.uniform(-k * (eta + 1.0), k * (1.0 - eta))
    Y[: size // 4, 1:] = X[: size // 4, 1:]
    eta = np.sum((X - Y) ** 2, axis=-1) / (2.0 * X[:, 0] * Y[:, 0])
    return X, Y, eta, k * eta + rng.uniform(0.0, 2.0 * k, size)


def test_matrices_digests():
    # SHA-256 of the bytes of J and K (then the unclipped gamma and d on the
    # half-space); the kernel uses only elementwise operations and sums, so
    # refactors must keep them
    build = {ms.SpaceKind.EUCLIDEAN: cp.euclidean_matrices,
             ms.SpaceKind.SPHERE: cp.sphere_matrices,
             ms.SpaceKind.HYPERBOLIC: cp.hyperbolic_matrices}
    got = {}
    for kind, matrices in build.items():
        for n in (1, 2, 3, 5):
            batch = _admissible_batch(kind, n)
            arrays = list(matrices(*batch))
            if kind is ms.SpaceKind.HYPERBOLIC:
                arrays += cp._hyperbolic_plane(*batch)[:2]
            digest = hashlib.sha256()
            for a in arrays:
                digest.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
            got[f"{kind.value}-n{n}"] = digest.hexdigest()
    assert got == MATRIX_DIGESTS
