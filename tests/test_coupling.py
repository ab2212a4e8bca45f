import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detcouple import coupling as cp
from detcouple import model_space as ms
from detcouple.errors import AdmissibilityError, DegenerateStateError, ValidationError

S2 = ms.sphere(2)


def unitarity(M: cp.CouplingMatrices) -> float:
    return M.identity_residual()


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


# ---------------------------------------------------------------------------
# Euclidean


def test_euclidean_translation():
    M = cp.build_euclidean(2, [2.0, 0.0], 2.0, 0.0)
    assert np.array_equal(M.J, np.eye(2)) and not M.Kmat.any()


def test_euclidean_mirror_at_saturation():
    # rho rho' = 2(n-1) forces lambda = -1: reflection across Z
    M = cp.build_euclidean(2, [2.0, 0.0], 2.0, 1.0)
    assert np.allclose(M.J, np.diag([1.0, -1.0]), atol=1e-15)
    assert not M.Kmat.any()
    assert M.J.T @ np.array([2.0, 0.0]) == pytest.approx([2.0, 0.0])


def test_euclidean_lambda_zero():
    M = cp.build_euclidean(3, [1.7, 0.0, 0.0], 2.0, 1.0)   # rho rho' = 2 -> lambda = 0
    assert np.allclose(M.J, np.diag([1.0, 0.0, 0.0]), atol=1e-15)
    assert np.allclose(M.Kmat, np.diag([0.0, 1.0, 1.0]), atol=1e-15)


def test_euclidean_postconditions_random():
    rng = np.random.default_rng(10)
    for _ in range(200):
        n = rng.integers(2, 6)
        Z = rng.standard_normal(n)
        rho = float(np.linalg.norm(Z))
        drho = rng.uniform(0.0, 2 * (n - 1) / rho)
        M = cp.build_euclidean(n, Z, rho, drho)
        assert np.max(np.abs(M.J.T @ Z - Z)) <= 1e-12 * rho
        assert np.max(np.abs(M.Kmat.T @ Z)) <= 1e-12 * rho
        assert n - np.trace(M.J) == pytest.approx(rho * drho, abs=1e-12)
        assert unitarity(M) <= 1e-12
        assert M.op_norm() <= 1 + 1e-12


def test_euclidean_errors():
    with pytest.raises(AdmissibilityError):
        cp.build_euclidean(2, [1.0, 0.0], 1.0, 3.0)       # rho rho' > 2(n-1)
    with pytest.raises(AdmissibilityError):
        cp.build_euclidean(2, [1.0, 0.0], 1.0, -0.2)      # decreasing distance
    with pytest.raises(DegenerateStateError):
        cp.build_euclidean(2, [0.0, 0.0], 1.0, 0.0)
    with pytest.raises(AdmissibilityError):
        cp.build_euclidean(1, [1.0], 1.0, 0.5)            # only constant in dim 1
    assert np.array_equal(cp.build_euclidean(1, [1.0], 1.0, 0.0).J, [[1.0]])


# ---------------------------------------------------------------------------
# sphere


def test_sphere_fixed_distance_example():
    X = np.array([1.0, 0.0, 0.0])
    Y = np.array([0.0, 1.0, 0.0])
    M = cp.build_sphere(2, X, Y, 0.0, 0.0)
    expect_J = np.array([[0.0, -1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    expect_K = np.diag([0.0, 0.0, 1.0])
    assert np.allclose(M.J, expect_J, atol=1e-15)
    assert np.allclose(M.Kmat, expect_K, atol=1e-15)
    assert unitarity(M) <= 1e-15


@pytest.mark.parametrize("etap,gamma", [(-1.0, -1.0), (1.0, 1.0)])
def test_sphere_band_endpoints_kill_transverse_noise(etap, gamma):
    # at either band endpoint gamma = -+1 and K vanishes transversally
    X = np.array([1.0, 0.0, 0.0])
    Y = np.array([0.0, 1.0, 0.0])
    M = cp.build_sphere(2, X, Y, 0.0, etap)
    assert np.max(np.abs(M.Kmat)) <= 1e-15
    e3 = np.array([0.0, 0.0, 1.0])
    assert M.J @ e3 == pytest.approx(gamma * e3)


def test_sphere_cancellation_and_drift_random():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(2, 5))
        spec = ms.sphere(n)
        X = ms.random_points(spec, 1, rng)[0]
        t = rng.standard_normal(n + 1)
        t -= (t @ X) * X
        t /= np.linalg.norm(t)
        ang = rng.uniform(0.05, np.pi - 0.05)
        Y = np.cos(ang) * X + np.sin(ang) * t
        eta = float(X @ Y)
        k = n - 1
        etap = rng.uniform(-k * (eta + 1), k * (1 - eta))
        M = cp.build_sphere(n, X, Y, eta, etap)
        v = X - eta * Y
        assert np.max(np.abs(M.J.T @ v - (eta * X - Y))) <= 1e-12
        assert np.max(np.abs(M.Kmat.T @ v)) <= 1e-12
        assert unitarity(M) <= 1e-12
        assert M.op_norm() <= 1 + 1e-12
        N = n + 1
        U = np.eye(N) - np.outer(X, X)
        V = np.eye(N) - np.outer(Y, Y)
        drift = -(n - 1) * eta + np.trace(U @ M.J.T @ V) - eta
        # tr(U J' V) contributes eta from the span{X, Y} block
        assert drift == pytest.approx(etap, abs=1e-10)


def test_sphere_reflection_on_span():
    rng = np.random.default_rng(12)
    X = ms.random_points(S2, 1, rng)[0]
    Y = ms.random_points(S2, 1, rng)[0]
    M = cp.build_sphere(2, X, Y, float(X @ Y), 0.3)
    w = Y - (X @ Y) * X
    F = np.stack([X, w / np.linalg.norm(w)], axis=1)   # orthonormal basis of span{X, Y}
    B = F.T @ M.J.T @ F
    assert np.allclose(B @ B.T, np.eye(2), atol=1e-12)     # orthogonal
    assert np.allclose(B, B.T, atol=1e-12)                 # symmetric
    assert np.linalg.det(B) == pytest.approx(-1.0, abs=1e-12)   # a reflection


def test_sphere_n1_rotation_coupling():
    X = np.array([1.0, 0.0])
    Y = np.array([np.cos(1.0), np.sin(1.0)])
    M = cp.build_sphere(1, X, Y, float(X @ Y), 0.0)
    assert M.J @ X == pytest.approx(-Y, abs=1e-15)
    assert M.J @ Y == pytest.approx(-X, abs=1e-15)
    assert np.max(np.abs(M.Kmat)) <= 1e-15
    with pytest.raises(AdmissibilityError):
        cp.build_sphere(1, X, Y, float(X @ Y), 0.1)   # nonzero eta' impossible


def test_sphere_errors():
    X = np.array([1.0, 0.0, 0.0])
    Y = np.array([0.0, 1.0, 0.0])
    with pytest.raises(AdmissibilityError):
        cp.build_sphere(2, X, Y, 0.0, 1.5)    # above -(n-1)(eta-1) = 1
    with pytest.raises(DegenerateStateError):
        cp.build_sphere(2, X, X, 1.0, 0.0)
    with pytest.raises(DegenerateStateError):
        cp.build_sphere(2, X, -X, -1.0, 0.0)
    with pytest.raises(ValidationError):
        cp.build_sphere(2, 2 * X, Y, 0.0, 0.0)


def test_sphere_drift_consistent_gamma_vs_one_minus_variant():
    # gamma = eta + eta'/(n-1) realizes the requested drift; the variant with
    # a leading 1 - (eta' + (n-1) eta)/(n-1) does not (and can leave [-1, 1])
    rng = np.random.default_rng(13)
    mismatch = []
    for _ in range(100):
        n = 2
        X = ms.random_points(S2, 1, rng)[0]
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
            J, K = cp.sphere_matrices_from_gamma(X, Y, np.clip(gamma, -1, 1))
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
    M = cp.build_hyperbolic(1, np.array([1.0]), np.array([2.0]), 0.25, 0.0)
    assert np.array_equal(M.J, [[1.0]]) and np.array_equal(M.Kmat, [[0.0]])
    assert hyperbolic_drift(np.array([1.0]), np.array([2.0]), M.J) == pytest.approx(0.0, abs=1e-15)


def test_hyperbolic_boundary_aligned_lower_extreme():
    X = np.array([1.0, 0.0])
    Y = np.array([2.0, 0.0])
    eta = 0.25   # |Z|^2 / (2 X1 Y1) = 1/4
    M = cp.build_hyperbolic(2, X, Y, eta, eta)   # eta' = (n-1) eta: gamma = 1
    assert np.allclose(M.J, np.eye(2), atol=1e-15)
    assert not M.Kmat.any()


def test_hyperbolic_two_plane_example():
    X = np.array([1.0, 1.0])
    Y = np.array([1.0, 0.0])
    m, l, p, q, u, _ = cp.hyperbolic_two_plane_scalars(X, Y)
    assert (m, l, p, q) == (1.0, 2.0, -1.0, 2.0)
    assert m * m + l * l == p * p + q * q == 5.0
    eta = np.sum((X - Y) ** 2) / (2 * X[0] * Y[0])
    etap = eta + 1.3    # inside [eta, eta + 2] for n = 2
    M = cp.build_hyperbolic(2, X, Y, eta, etap)
    gamma = 1 + eta - etap
    # the two-plane determinant equals the transverse eigenvalue; the plane
    # is spanned by e1 and the unit boundary displacement, here e1 and e2
    B = M.J.T
    assert np.linalg.det(B) == pytest.approx(gamma, abs=1e-12)


def test_hyperbolic_cancellation_drift_random():
    rng = np.random.default_rng(15)
    for _ in range(300):
        n = int(rng.integers(2, 5))
        spec = ms.hyperbolic(n)
        X = ms.random_points(spec, 1, rng)[0]
        Y = ms.random_points(spec, 1, rng)[0]
        if rng.random() < 0.3:
            Y[1:] = X[1:]
            if abs(X[0] - Y[0]) < 1e-6:
                Y[0] *= 1.7
        eta = float(np.sum((X - Y) ** 2) / (2 * X[0] * Y[0]))
        k = n - 1
        etap = k * eta + rng.uniform(0, 2 * k)
        M = cp.build_hyperbolic(n, X, Y, eta, etap)
        m, l, p, q, u, zt = cp.hyperbolic_two_plane_scalars(X, Y)
        xi2 = np.zeros(n)
        if u > 0:
            xi2[1:] = zt / u
        e1 = np.zeros(n)
        e1[0] = 1.0
        v = m * e1 + l * xi2
        rhs = p * e1 + q * xi2
        scale = max(1.0, np.hypot(m, l))
        assert np.max(np.abs(M.J.T @ v - rhs)) <= 1e-10 * scale
        assert np.max(np.abs(M.Kmat.T @ v)) <= 1e-10 * scale
        assert unitarity(M) <= 1e-12
        assert M.op_norm() <= 1 + 1e-12
        assert hyperbolic_drift(X, Y, M.J) == pytest.approx(etap, abs=1e-9)


def test_hyperbolic_gamma_saturation():
    X = np.array([1.0, 0.5, 0.0])
    Y = np.array([1.4, -0.2, 0.3])
    eta = float(np.sum((X - Y) ** 2) / (2 * X[0] * Y[0]))
    k = 2
    for etap, gamma in ((k * eta, 1.0), (k * eta + 2 * k, -1.0)):
        M = cp.build_hyperbolic(3, X, Y, eta, etap)
        # K vanishes transversally at the band endpoints: f is orthogonal to
        # e1 and to the boundary displacement (0, 0.7, -0.3)
        f = np.array([0.0, 0.3, 0.7]) / np.hypot(0.3, 0.7)
        assert np.max(np.abs(M.Kmat @ f)) <= 1e-12
        assert f @ M.J @ f == pytest.approx(gamma, abs=1e-12)


# ---------------------------------------------------------------------------
# the two-plane map A_phi inside the hyperbolic kernel


def plane_block(X, Y, M):
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
    return F.T @ M.J.T @ F


def test_a_phi_fixes_xi1():
    # a vertical pair has (m, l) = (p, q) direction e1: A_phi = diag(1, d)
    d0 = 0.3
    X = np.array([1.0, 0.0])
    Y = np.array([2.0, 0.0])
    eta = 0.25
    M = cp.build_hyperbolic(2, X, Y, eta, 1.0 + eta - d0)   # gamma = d = d0
    assert np.allclose(plane_block(X, Y, M), np.diag([1.0, d0]), atol=1e-15)


def test_a_phi_band_center_is_singular():
    X = np.array([1.0, 1.0, 0.0])
    Y = np.array([1.5, 0.2, -0.4])
    eta = float(np.sum((X - Y) ** 2) / (2 * X[0] * Y[0]))
    k = 2
    M = cp.build_hyperbolic(3, X, Y, eta, k * (eta + 1.0))   # centre of the band: d = 0
    assert np.linalg.det(plane_block(X, Y, M)) == pytest.approx(0.0, abs=1e-14)


def test_a_phi_postconditions():
    rng = np.random.default_rng(14)
    for _ in range(100):
        n = int(rng.integers(2, 5))
        spec = ms.hyperbolic(n)
        X = ms.random_points(spec, 1, rng)[0]
        Y = ms.random_points(spec, 1, rng)[0]
        eta = float(np.sum((X - Y) ** 2) / (2 * X[0] * Y[0]))
        k = n - 1
        etap = k * eta + rng.uniform(0, 2 * k)
        B = plane_block(X, Y, cp.build_hyperbolic(n, X, Y, eta, etap))
        m, l, p, q, _, _ = cp.hyperbolic_two_plane_scalars(X, Y)
        norm = np.hypot(m, l)
        phi = -etap / k + (X[0] ** 2 + Y[0] ** 2) / (X[0] * Y[0])
        assert B @ [m, l] == pytest.approx([p, q], abs=1e-10 * max(1, norm))
        assert (1.0 + eta) * B[0, 0] + B[1, 1] == pytest.approx(phi, abs=1e-10)
        assert np.linalg.det(B) == pytest.approx(1.0 + eta - etap / k, abs=1e-10)   # d = gamma
        assert np.linalg.svd(B, compute_uv=False)[0] <= 1 + 1e-12
        with pytest.raises(AdmissibilityError):
            cp.build_hyperbolic(n, X, Y, eta, k * eta + 2 * k + 1.0)


def test_hyperbolic_errors():
    X = np.array([1.0, 0.0])
    Y = np.array([2.0, 0.0])
    with pytest.raises(AdmissibilityError):
        cp.build_hyperbolic(2, X, Y, 0.25, 0.0)    # below (n-1) eta
    with pytest.raises(AdmissibilityError):
        cp.build_hyperbolic(2, X, Y, 0.25, 3.0)    # above (n-1) eta + 2(n-1)
    with pytest.raises(DegenerateStateError):
        cp.build_hyperbolic(2, X, X, 0.0, 0.0)
    with pytest.raises(ValidationError):
        cp.build_hyperbolic(2, np.array([-1.0, 0.0]), Y, 0.25, 0.5)


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
    M = cp.build_sphere(n, X, Y, eta, etap)
    assert unitarity(M) <= 1e-12
    v = X - eta * Y
    assert np.max(np.abs(M.J.T @ v - (eta * X - Y))) <= 1e-12


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
    M = cp.build_hyperbolic(n, X, Y, eta, etap)
    assert unitarity(M) <= 1e-12
    assert hyperbolic_drift(X, Y, M.J) == pytest.approx(etap, abs=1e-9)
