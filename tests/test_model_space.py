import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detcouple import coupling
from detcouple import model_space as ms
from detcouple.errors import DegenerateStateError, ValidationError
from sampling import random_points

E2 = ms.euclidean(2)
S2 = ms.sphere(2)
H2 = ms.hyperbolic(2)
ALL_UNIT = [E2, S2, H2, ms.euclidean(3), ms.sphere(3), ms.hyperbolic(3)]


def test_euclidean_distance_pythagorean():
    assert ms.geodesic_distance(E2, [0.0, 0.0], [3.0, 4.0]) == pytest.approx(5.0, abs=0)


def test_sphere_distance_orthogonal_units():
    d = ms.geodesic_distance(S2, [1.0, 0, 0], [0, 1.0, 0])
    assert d == pytest.approx(np.pi / 2, abs=1e-15)


def test_hyperbolic_distance_log2():
    # arccosh(5/4) = ln 2, since cosh(ln 2) = (2 + 1/2)/2 = 5/4
    d = ms.geodesic_distance(H2, [1.0, 0.0], [2.0, 0.0])
    assert d == pytest.approx(np.log(2.0), abs=1e-15)
    assert np.cosh(d) == pytest.approx(1.25, abs=1e-15)


def test_distance_symmetry_and_zero():
    rng = np.random.default_rng(1)
    for spec in ALL_UNIT:
        X = random_points(spec, 50, rng)
        Y = random_points(spec, 50, rng)
        dxy = ms.geodesic_distance(spec, X, Y)
        dyx = ms.geodesic_distance(spec, Y, X)
        assert np.max(np.abs(dxy - dyx)) <= 1e-12
        assert np.all(ms.geodesic_distance(spec, X, X) <= 1e-12)
        assert np.all(dxy >= 0)
        if spec.kind is ms.SpaceKind.SPHERE:
            assert np.all(dxy <= np.pi * spec.r + 1e-12)


def test_sphere_arccos_cross_check():
    rng = np.random.default_rng(2)
    for n in (1, 2, 3):
        spec = ms.sphere(n)
        X = random_points(spec, 300, rng)
        Y = random_points(spec, 300, rng)
        chord_form = ms.geodesic_distance(spec, X, Y)
        arccos_form = np.arccos(np.clip((X * Y).sum(axis=-1), -1.0, 1.0))
        assert np.max(np.abs(chord_form - arccos_form)) <= 1e-12 * np.pi + 1e-7
        # the chord form is the reference; agreement tight away from antipodes
        away = chord_form < 3.0
        assert np.max(np.abs((chord_form - arccos_form)[away])) <= 1e-12


def test_triangle_inequality_random_triples():
    rng = np.random.default_rng(3)
    for spec in ALL_UNIT:
        X = random_points(spec, 1000, rng)
        Y = random_points(spec, 1000, rng)
        Z = random_points(spec, 1000, rng)
        dxz = ms.geodesic_distance(spec, X, Z)
        dxy = ms.geodesic_distance(spec, X, Y)
        dyz = ms.geodesic_distance(spec, Y, Z)
        assert np.min(dxy + dyz - dxz) >= -1e-10


def test_require_valid_point_examples():
    assert np.array_equal(ms.require_valid_point(S2, [1.0, 0.0, 0.0]), [1.0, 0.0, 0.0])
    with pytest.raises(ValidationError, match="first coordinate .* got -1"):
        ms.require_valid_point(H2, np.array([-1.0, 0.0]))
    with pytest.raises(ValidationError, match="norm 0.5 differs from radius 1"):
        ms.require_valid_point(S2, np.array([0.5, 0.0, 0.0]))
    with pytest.raises(ValidationError, match="ambient dimension 3"):
        ms.require_valid_point(S2, np.array([1.0, 0.0]))
    with pytest.raises(ValidationError):
        ms.geodesic_distance(H2, [-1.0, 0.0], [1.0, 0.0])


def unit_spec(spec):
    """The unit-curvature space of the same kind and dimension as ``spec``."""
    return ms.SpaceSpec(spec.kind, spec.n, float(np.sign(spec.K)))


def test_to_unit_model_examples():
    spec = ms.sphere(2, K=0.25)   # r = 2
    assert np.allclose(ms.to_unit_model(spec, np.array([2.0, 0.0, 0.0])), [1.0, 0.0, 0.0])
    assert np.allclose(ms.to_unit_model(S2, np.array([0.0, 1.0, 0.0])), [0.0, 1.0, 0.0])
    spec = ms.hyperbolic(2, K=-1.0 / 9.0)   # r = 3, coordinates unchanged
    assert np.allclose(ms.to_unit_model(spec, np.array([1.0, 1.0])), [1.0, 1.0])


def test_unit_model_round_trip():
    rng = np.random.default_rng(4)
    for spec in (ms.sphere(2, K=0.25), ms.hyperbolic(3, K=-4.0), ms.euclidean(2)):
        unit = unit_spec(spec)
        for _ in range(20):
            xu = random_points(unit, 1, rng)[0]
            xb = ms.to_unit_model(spec, ms.from_unit_model(spec, xu))
            assert np.max(np.abs(xb - xu)) <= 1e-14 * max(1.0, np.abs(xu).max())


def test_distance_scaling_invariant():
    rng = np.random.default_rng(5)
    for spec in (ms.sphere(2, K=4.0), ms.sphere(3, K=0.25), ms.hyperbolic(2, K=-0.0625),
                 ms.hyperbolic(3, K=-9.0)):
        unit = unit_spec(spec)
        Xu = random_points(unit, 200, rng)
        Yu = random_points(unit, 200, rng)
        X = np.array([ms.from_unit_model(spec, x) for x in Xu])
        Y = np.array([ms.from_unit_model(spec, y) for y in Yu])
        dK = ms.geodesic_distance(spec, X, Y)
        du = ms.geodesic_distance(unit, Xu, Yu)
        assert np.max(np.abs(dK - spec.r * du)) <= 1e-12 * max(1.0, spec.r)


def test_point_at_distance_postconditions():
    rng = np.random.default_rng(6)
    for spec in ALL_UNIT + [ms.hyperbolic(1)]:
        X = random_points(spec, 40, rng)
        Y = random_points(spec, 40, rng)
        d = ms.geodesic_distance(spec, X, Y)
        keep = d > 1e-6
        X, Y, d = X[keep], Y[keep], d[keep]
        s = 0.3 * d
        P = ms.unit_point_at_distance(spec.kind, X, Y, s)
        assert np.max(np.abs(ms.geodesic_distance(spec, X, P) - s)) <= 1e-12
        Q = ms.unit_point_at_distance(spec.kind, X, Y, d)
        assert np.max(np.abs(Q - Y)) <= 1e-10
    # wide half-space pairs, log x1 and log y1 ~ N(0, sigma^2), a quarter of them
    # vertical and a quarter 1e-9 x1 from vertical; s up to half a unit past y
    for n in (1, 2, 3, 5):
        for sigma in (0.4, 2.0, 6.0):
            X = np.exp(sigma * rng.standard_normal((100, 1))) * rng.standard_normal((100, n))
            Y = np.exp(sigma * rng.standard_normal((100, 1))) * rng.standard_normal((100, n))
            X[:, 0], Y[:, 0] = np.exp(sigma * rng.standard_normal((2, 100)))
            Y[:25, 1:] = X[:25, 1:]
            Y[25:50, 1:] = X[25:50, 1:] + 1e-9 * X[25:50, :1]
            d = ms.unit_distance(ms.SpaceKind.HYPERBOLIC, X, Y)
            for s in (0.3 * d, d, d + 0.5):
                P = ms.unit_point_at_distance(ms.SpaceKind.HYPERBOLIC, X, Y, s)
                err = np.abs(ms.unit_distance(ms.SpaceKind.HYPERBOLIC, X, P) - s)
                assert np.all(err <= 1e-11 * np.maximum(1.0, s)), (n, sigma, np.max(err))
            Q = ms.unit_point_at_distance(ms.SpaceKind.HYPERBOLIC, X, Y, d)
            assert np.all(np.abs(Q - Y) <= 1e-10 * np.linalg.norm(Y - X, axis=-1)[:, None])
    # near-vertical at x = e1: the boundary coordinate of y is reached, not rounded away
    x, y = np.array([1.0, 0.0]), np.array([np.e, 1e-8])
    P = ms.unit_point_at_distance(H2.kind, x, y, ms.unit_distance(H2.kind, x, y))
    assert P[1] == pytest.approx(1e-8, rel=1e-10)


def test_point_at_distance_degenerate():
    with pytest.raises(DegenerateStateError):
        ms.unit_point_at_distance(E2.kind, np.zeros(2), np.zeros(2), 1.0)
    with pytest.raises(DegenerateStateError):
        ms.unit_point_at_distance(S2.kind, np.array([1.0, 0, 0]), np.array([1.0, 0, 0]), 0.5)
    with pytest.raises(DegenerateStateError):
        ms.unit_point_at_distance(H2.kind, np.array([2.0, -1.0]), np.array([2.0, -1.0]), 0.5)


def test_canonical_start():
    for spec, rho0 in [(E2, 1.3), (S2, np.pi / 2), (H2, 1.0), (ms.sphere(2, K=4.0), 0.5)]:
        x0, y0 = ms.canonical_start(spec, rho0)
        assert ms.geodesic_distance(spec, x0, y0) == pytest.approx(rho0, abs=1e-12)
    with pytest.raises(ValidationError):
        ms.canonical_start(S2, 4.0)   # beyond the pole


@pytest.mark.parametrize("spec,coincident,apart", [(E2, 1e-12, 2e-12),
                                                    (ms.hyperbolic(3), 1e-12, 4e-12)])
def test_canonical_start_rejects_a_pair_the_coupling_calls_coincident(spec, coincident, apart):
    # one tolerance for both: the pair at rho0 = apart is the coupling's, the pair that
    # rho0 = coincident would give is not
    x0, y0 = ms.canonical_start(spec, apart)
    eta = coupling.eta_from_rho(spec.kind, apart, 0.0)[0]
    eta_prime = (spec.n - 1) * (eta + 1.0)          # inside both spaces' bands
    coupling._checked(spec.kind, x0, y0, eta, eta_prime)
    y = y0.copy()
    y[0] = coincident if spec.kind is ms.SpaceKind.EUCLIDEAN else np.exp(coincident)
    with pytest.raises(DegenerateStateError, match="coincident"):
        coupling._checked(spec.kind, x0, y, eta, eta_prime)
    with pytest.raises(ValidationError, match=r"^rho0 = 1e-12 is too small"):
        ms.canonical_start(spec, coincident)


def test_spec_invariants():
    assert S2.ambient_dim == 3 and E2.ambient_dim == 2 and H2.ambient_dim == 2
    assert ms.sphere(2, K=4.0).r == pytest.approx(0.5)
    with pytest.raises(ValidationError):
        ms.SpaceSpec(ms.SpaceKind.SPHERE, 2, -1.0)
    with pytest.raises(ValidationError):
        ms.SpaceSpec(ms.SpaceKind.EUCLIDEAN, 0, 0.0)
    # the dimension is an integer >= 1, never a float, a string or a bool
    for n in (np.nan, "2", True, 2.5):
        with pytest.raises(ValidationError, match="manifold dimension"):
            ms.sphere(n)
    assert ms.sphere(np.int64(3)).ambient_dim == 4
    with pytest.raises(ValidationError, match="SpaceKind"):
        ms.SpaceSpec("sphere", 2, 1.0)
    # an infinite curvature would make r = 0
    for kind, K in ((ms.SpaceKind.SPHERE, np.inf), (ms.SpaceKind.HYPERBOLIC, -np.inf)):
        with pytest.raises(ValidationError, match="curvature"):
            ms.SpaceSpec(kind, 2, K)


@settings(max_examples=200, deadline=None)
@given(st.floats(0.01, 3.13), st.floats(0.01, 3.13), st.floats(0.0, 2 * np.pi))
def test_sphere_distance_agrees_with_angle(a, b, az):
    # points at polar angles a, b on a common meridian vs rotated one
    x = np.array([np.cos(a), np.sin(a), 0.0])
    y = np.array([np.cos(b), np.sin(b) * np.cos(az), np.sin(b) * np.sin(az)])
    d = ms.geodesic_distance(S2, x, y)
    expected = np.arccos(np.clip(np.cos(a) * np.cos(b) + np.sin(a) * np.sin(b) * np.cos(az), -1, 1))
    # compare cosines: arccos itself loses ~sqrt(eps) accuracy near antipodes
    assert np.cos(d) == pytest.approx(np.cos(expected), abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.floats(-3, 3), st.floats(-3, 3), st.floats(0.01, 20.0), st.floats(0.01, 20.0))
def test_hyperbolic_distance_boundary_shift_invariance(sa, sb, x1, y1):
    # the metric is invariant under shifts parallel to the boundary
    x = np.array([x1, sa])
    y = np.array([y1, sb])
    d1 = ms.geodesic_distance(H2, x, y)
    d2 = ms.geodesic_distance(H2, x + np.array([0.0, 5.0]), y + np.array([0.0, 5.0]))
    assert d1 == pytest.approx(d2, rel=1e-12, abs=1e-12)
