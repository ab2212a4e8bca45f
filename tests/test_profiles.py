import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detcouple import model_space as ms
from detcouple import profiles as pf
from detcouple.errors import ValidationError
from detcouple.sde import simulate_ensemble

E2, E3 = ms.euclidean(2), ms.euclidean(3)
S2, S3 = ms.sphere(2), ms.sphere(3)
H2, H3 = ms.hyperbolic(2), ms.hyperbolic(3)

# high-precision reference values (independent evaluation of the closed forms)
CONTRACTING_RHO_2LN2 = 0.72273424781341561118      # 2 arcsin(sqrt(2)/4)
CONTRACTING_DRHO_2LN2 = -0.37796447300922722721
H3_ENV_LO_OVER_T_AT_30 = 2.0027549903075278739
H3_ENV_HI_OVER_T_AT_30 = 2.0542174458345481889


def builtin_profiles():
    return [
        (S2, pf.sphere_contracting(S2, np.pi / 2), "lo"),
        (S2, pf.sphere_repulsive(S2, np.pi / 2), "hi"),
        (S3, pf.sphere_contracting(S3, 1.0), "lo"),
        (H2, pf.hyperbolic_lower(H2, 1.0), "lo"),
        (H3, pf.hyperbolic_upper(H3, 0.7), "hi"),
        (E3, pf.euclidean_max_growth(E3, 1.0), "hi"),
    ]


def test_eval_contracting_at_zero():
    prof = pf.sphere_contracting(S2, np.pi / 2)
    rho, drho = prof.eval(0.0)
    assert rho == pytest.approx(np.pi / 2, abs=1e-15)
    assert drho == pytest.approx(-1.0, abs=1e-14)    # -(n-1) tan(rho0/2)


def test_eval_contracting_at_2ln2():
    prof = pf.sphere_contracting(S2, np.pi / 2)
    rho, drho = prof.eval(2 * np.log(2.0))
    assert rho == pytest.approx(CONTRACTING_RHO_2LN2, abs=1e-14)
    assert drho == pytest.approx(CONTRACTING_DRHO_2LN2, abs=1e-14)


def test_eval_constant():
    rho, drho = pf.constant(1.0).eval(7.0)
    assert rho == 1.0 and drho == 0.0
    for rho0 in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValidationError, match="rho0"):
            pf.constant(rho0)


def test_closed_form_derivatives_match_finite_differences():
    # central differences are the independent oracle for every closed form
    h = 1e-6
    for spec, prof, _ in builtin_profiles():
        for t in (0.0, 0.15, 0.5, 1.0):
            _, drho = prof.eval(t)
            lo = prof.eval(max(t - h, 0.0))[0]
            hi = prof.eval(t + h)[0]
            fd = (hi - lo) / (h + min(t, h))
            assert drho == pytest.approx(fd, rel=2e-5, abs=2e-5)


def test_admissible_bounds_examples():
    lo, hi = pf.admissible_bounds(S2, np.pi / 2)
    assert lo == pytest.approx(-1.0, abs=1e-14) and hi == pytest.approx(1.0, abs=1e-14)
    lo, hi = pf.admissible_bounds(E3, 2.0)
    assert lo == 0.0 and hi == pytest.approx(2.0, abs=1e-15)
    for spec in (ms.euclidean(1), ms.sphere(1), ms.hyperbolic(1)):
        lo, hi = pf.admissible_bounds(spec, 1.3 if spec.kind is not ms.SpaceKind.SPHERE else 2.0)
        assert lo == 0.0 and hi == 0.0


def test_admissible_bounds_scaling():
    # general curvature equals the time/length-rescaled unit band
    for spec, unit in ((ms.sphere(2, K=4.0), S2), (ms.hyperbolic(3, K=-0.25), H3)):
        for rho in (0.3, 0.8):
            lo, hi = pf.admissible_bounds(spec, rho)
            lo_u, hi_u = pf.admissible_bounds(unit, rho / spec.r)
            assert lo == pytest.approx(lo_u / spec.r, rel=1e-12)
            assert hi == pytest.approx(hi_u / spec.r, rel=1e-12)


def test_admissible_bounds_pole_error():
    with pytest.raises(ValidationError):
        pf.admissible_bounds(S2, np.pi)
    with pytest.raises(ValidationError):
        pf.admissible_bounds(S2, -0.1)


def test_constant_admissible_on_sphere_not_on_hyperbolic():
    assert pf.check_admissibility(S2, pf.constant(np.pi / 2), T=1.0).admissible
    rep = pf.check_admissibility(H2, pf.constant(1.0), T=1.0)
    assert not rep.admissible
    # the lower bound tanh(1/2) > 0 excludes any constant profile
    assert rep.first_violation_time == 0.0


def test_decreasing_profile_rejected_on_euclidean():
    ts = np.linspace(0.0, 0.5, 101)
    prof = pf.tabulated(ts, 1.0 - ts)
    rep = pf.check_admissibility(E2, prof, grid=ts)
    assert not rep.admissible and rep.first_violation_time == 0.0


def test_builtins_admissible_and_saturating():
    grid = np.linspace(0.0, 1.0, 2001)
    for spec, prof, side in builtin_profiles():
        rep = pf.check_admissibility(spec, prof, grid=grid)
        assert rep.admissible, (prof.kind, rep.reasons)
        rho, drho = prof.eval(grid)
        lo, hi = pf.admissible_bounds(spec, rho)
        if side == "lo":
            assert np.max(np.abs(drho - lo)) <= 1e-10
            assert rep.lo_active and not rep.hi_active
        else:
            assert np.max(np.abs(drho - hi)) <= 1e-10
            assert rep.hi_active and not rep.lo_active


def test_n1_rigidity():
    ts = np.linspace(0.0, 1.0, 51)
    ramp = pf.tabulated(ts, 1.0 + 0.1 * ts)
    for spec in (ms.euclidean(1), ms.sphere(1), ms.hyperbolic(1)):
        assert not pf.check_admissibility(spec, ramp, grid=ts).admissible
        assert pf.check_admissibility(spec, pf.constant(1.0), grid=ts).admissible
    # closed forms degenerate to constants in dimension 1
    prof = pf.sphere_contracting(ms.sphere(1), 1.0)
    rho, drho = prof.eval(np.array([0.0, 0.5, 2.0]))
    assert np.allclose(rho, 1.0) and np.allclose(drho, 0.0)


def test_admissible_implies_nondecreasing_flat_spaces():
    # lower bound is >= 0 for K <= 0, so admissible profiles never decrease
    for spec in (E3, H3):
        rho = np.linspace(0.2, 3.0, 50)
        lo, _ = pf.admissible_bounds(spec, rho)
        assert np.all(lo >= 0.0)


def test_envelope_examples():
    t = np.array([0.0, 0.4, 1.0])
    lo, hi = pf.envelope(S2, np.pi / 2, t)
    assert np.allclose(lo, 2 * np.arcsin(np.exp(-t / 2) * np.sin(np.pi / 4)), atol=1e-14)
    assert np.allclose(hi, 2 * np.arccos(np.exp(-t / 2) * np.cos(np.pi / 4)), atol=1e-14)
    assert lo[0] == pytest.approx(np.pi / 2, abs=1e-14)
    assert hi[0] == pytest.approx(np.pi / 2, abs=1e-14)


def test_envelope_hyperbolic_linear_growth():
    lo, hi = pf.envelope(H3, 1.0, 30.0)
    assert lo / 30.0 == pytest.approx(H3_ENV_LO_OVER_T_AT_30, abs=1e-12)
    assert hi / 30.0 == pytest.approx(H3_ENV_HI_OVER_T_AT_30, abs=1e-12)
    assert 1.9 <= lo / 30.0 <= hi / 30.0 <= 2.1
    with pytest.raises(ValidationError, match="non-negative"):
        pf.envelope(ms.hyperbolic(2), 1.0, -1.0)


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf, [0.0, 0.5, np.nan], [0.0, np.inf]],
                         ids=["nan", "inf", "-inf", "grid-nan", "grid-inf"])
def test_non_finite_times_rejected(t):
    ts = np.linspace(0.0, 1.0, 11)
    profiles = [pf.constant(1.0), pf.tabulated(ts, 1.0 + 0.1 * ts)] \
        + [prof for _, prof, _ in builtin_profiles()]
    assert {prof.kind for prof in profiles} == set(pf.ProfileKind)
    for prof in profiles:
        with pytest.raises(ValidationError, match="finite and non-negative"):
            prof.eval(t)
    for spec in (S2, H3, E3):
        with pytest.raises(ValidationError, match="finite and non-negative"):
            pf.envelope(spec, 1.0, t)


def test_envelope_attained_by_extremes():
    t = np.linspace(0.0, 1.0, 11)
    for spec, prof, side in builtin_profiles():
        lo, hi = pf.envelope(spec, prof.rho0, t)
        rho = prof.eval(t)[0]
        ref = lo if side == "lo" else hi
        assert np.max(np.abs(rho - ref)) <= 1e-12


def test_tabulated_csv_round_trip(tmp_path):
    ts = np.linspace(0.0, 1.0, 21)
    rho = np.sqrt(1.0 + 4.0 * ts)   # max growth on E2... n-1=1 -> lies inside band of E3
    path = tmp_path / "table.csv"
    path.write_text("t,rho\n" + "\n".join(f"{a:.17g},{b:.17g}" for a, b in zip(ts, rho)))
    prof = pf.tabulated_from_csv(path)
    assert np.allclose(prof.values, rho, atol=0)
    got, dgot = prof.eval(0.5)
    assert got == pytest.approx(np.sqrt(3.0), abs=1e-12)
    assert dgot == (rho[11] - rho[10]) / (ts[11] - ts[10])   # the slope of [0.5, 0.55)
    with pytest.raises(ValidationError):
        prof.eval(1.5)


def test_tabulated_is_piecewise_linear():
    ts = np.array([0.0, 0.5, 1.0, 2.0])
    prof = pf.tabulated(ts, [1.0, 1.5, 1.5, 2.5])
    t = np.array([0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0])
    rho, drho = prof.eval(t)
    assert np.array_equal(rho, [1.0, 1.25, 1.5, 1.5, 1.5, 2.0, 2.5])
    # segments are right-continuous, and the last node takes the last slope
    assert np.array_equal(drho, [1.0, 1.0, 0.0, 0.0, 1.0, 1.0, 1.0])


# 11 nodes of an extreme profile: each chord leaves the band at the end of its
# segment, on the side the profile saturates
SAMPLED_EXTREMES = [
    (S2, pf.sphere_contracting(S2, np.pi / 2), "lo", "slope -0.953068 of segment [0, 0.1]",
     -0.0441),
    (H3, pf.hyperbolic_lower(H3, 1.0), "lo", "slope 0.960985 of segment [0, 0.1]", -0.0384),
    (H3, pf.hyperbolic_upper(H3, 1.0), "hi", "slope 3.7617 of segment [0, 0.1]", -0.4102),
]


@pytest.mark.parametrize("spec,extreme,side,reason,worst", SAMPLED_EXTREMES,
                         ids=["s2-contracting", "h3-lower", "h3-upper"])
def test_sampled_extremes_rejected(spec, extreme, side, reason, worst):
    ts = np.linspace(0.0, 1.0, 11)
    rep = pf.check_admissibility(spec, pf.tabulated(ts, extreme.eval(ts)[0]))
    assert not rep.admissible and rep.first_violation_time == 0.0
    assert rep.reasons[0].startswith(reason)
    assert np.array_equal(rep.grid, ts)
    margins = rep.lo_margin if side == "lo" else rep.hi_margin
    assert margins.shape == (10,) and np.all(margins < 0)
    assert np.min(margins) == pytest.approx(worst, abs=1e-4)
    with pytest.raises(ValidationError, match=re.escape(reason)):
        simulate_ensemble(spec, pf.tabulated(ts, extreme.eval(ts)[0]), 1e-2, 1.0, 0, 2)


def test_table_checked_exactly_on_its_range():
    # slope 1 in the plane: inside [0, 2/rho] while rho <= 2, that is t <= 1
    prof = pf.tabulated([0.0, 0.5, 1.5], [1.0, 1.5, 2.5])
    rep = pf.check_admissibility(E2, prof)
    assert not rep.admissible and rep.first_violation_time == 0.5
    assert rep.reasons[0] == ("slope 1 of segment [0.5, 1.5] leaves the band, "
                              "[0, 1.33333] at its start and [0, 0.8] at its end")
    # a range that ends inside a segment checks the segment up to that end
    rep = pf.check_admissibility(E2, prof, T=0.8)
    assert rep.admissible and np.array_equal(rep.grid, [0.0, 0.5, 0.8])
    rep = pf.check_admissibility(E2, prof, T=1.0)
    assert rep.admissible and rep.hi_active
    rep = pf.check_admissibility(E2, prof, grid=[0.0, 0.3, 1.2])
    assert np.array_equal(rep.grid, [0.0, 0.5, 1.2]) and not rep.admissible
    assert "segment [0.5, 1.2]" in rep.reasons[0]


def test_tabulated_csv_header_strict(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,rho\n0,1\n1,2\n")
    with pytest.raises(ValidationError):
        pf.tabulated_from_csv(path)


def test_tabulated_validation():
    with pytest.raises(ValidationError):
        pf.tabulated([0.0, 0.0, 1.0], [1.0, 1.0, 1.0])   # not strictly increasing
    with pytest.raises(ValidationError):
        pf.tabulated([0.1, 0.2], [1.0, 1.0])             # must start at 0
    with pytest.raises(ValidationError):
        pf.tabulated([0.0, 1.0], [1.0, -1.0])            # positive values
    with pytest.raises(ValidationError, match="finite"):
        pf.tabulated([0.0, 0.5, np.inf], [1.0, 1.1, 1.2])   # finite times
    with pytest.raises(ValidationError, match="finite"):
        pf.tabulated([0.0, 0.5, 1.0], [1.0, np.inf, 1.2])   # finite values


def test_profile_scaling_general_curvature():
    spec, unit = ms.sphere(2, K=4.0), S2    # r = 1/2
    prof_K = pf.sphere_contracting(spec, 0.6)
    prof_u = pf.sphere_contracting(unit, 0.6 / spec.r)
    for t in (0.0, 0.1, 0.3):
        rho_K, drho_K = prof_K.eval(t)
        rho_u, drho_u = prof_u.eval(t / spec.r**2)
        assert rho_K == pytest.approx(spec.r * rho_u, rel=1e-13)
        assert drho_K == pytest.approx(drho_u / spec.r, rel=1e-13)


def test_check_admissibility_grid_validation():
    with pytest.raises(ValidationError):
        pf.check_admissibility(E2, pf.constant(1.0), grid=np.array([0.5, 1.0]))
    with pytest.raises(ValidationError):
        pf.check_admissibility(E2, pf.constant(1.0), grid=np.array([0.0, 0.0]))
    for bad in ([0.0, np.nan], [0.0, 1.0, np.inf], [[0.0, 1.0]]):
        with pytest.raises(ValidationError, match="finite"):
            pf.check_admissibility(E2, pf.constant(1.0), grid=np.array(bad))


def test_exponential_rate_profiles_on_sphere():
    # rho(t) = exp(-k t / 2) rho0 as tabulated input: admissible for all time
    # when 0 <= k <= n-1, and only on a finite window when k < 0
    ts = np.linspace(0.0, 1.0, 2001)
    for k in (0.0, 0.5, 1.0):
        prof = pf.tabulated(ts, np.exp(-k * ts / 2.0))
        assert pf.check_admissibility(S2, prof, grid=ts).admissible
    # k = -1, rho0 = 1: the upper bound cot(rho/2) is crossed where
    # x tan x = 1 with x = rho/2 (independent bisection oracle)
    lo_x, hi_x = 0.5, 1.5
    for _ in range(60):
        mid = 0.5 * (lo_x + hi_x)
        lo_x, hi_x = (mid, hi_x) if mid * np.tan(mid) < 1.0 else (lo_x, mid)
    t0_expected = 2.0 * np.log(2.0 * lo_x)   # rho* = 2 x*, t0 = 2 ln(rho*/rho0)
    ts2 = np.linspace(0.0, 2.0, 4001)
    prof = pf.tabulated(ts2, np.exp(ts2 / 2.0))
    rep = pf.check_admissibility(S2, prof, grid=ts2)
    assert not rep.admissible
    assert rep.first_violation_time == pytest.approx(t0_expected, abs=5e-4)   # one node spacing
    # the same profile restricted to most of the window is admissible
    ts3 = np.linspace(0.0, 0.95 * t0_expected, 2001)
    assert pf.check_admissibility(S2, pf.tabulated(ts3, np.exp(ts3 / 2.0)), grid=ts3).admissible


def test_sphere_pole_range_violation_reported():
    prof = pf.constant(np.pi - 1e-9)
    rep = pf.check_admissibility(S2, prof, T=1.0)
    assert not rep.admissible and "valid range" in rep.reasons[0]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["euclidean", "sphere", "hyperbolic"]), st.integers(1, 6),
       st.floats(0.1, 4.0), st.floats(0.05, 1.5), st.floats(1.01, 2.0))
def test_bounds_ordered(kind, n, absK, u, ratio):
    # the exact segment check of a table rests on hi decreasing and lo monotone in rho
    spec = {"euclidean": ms.euclidean, "sphere": lambda n: ms.sphere(n, K=absK),
            "hyperbolic": lambda n: ms.hyperbolic(n, K=-absK)}[kind](n)
    rho1, rho2 = spec.r * u, spec.r * u * ratio      # both below the sphere's r pi
    (lo1, hi1), (lo2, hi2) = pf.admissible_bounds(spec, rho1), pf.admissible_bounds(spec, rho2)
    assert lo1 <= hi1 and lo2 <= hi2
    if n >= 2:
        assert hi2 < hi1
    if spec.kind is ms.SpaceKind.SPHERE:
        assert lo2 <= lo1
    elif spec.kind is ms.SpaceKind.HYPERBOLIC:
        assert lo2 >= lo1
    else:
        assert lo1 == lo2 == 0.0


def test_admissible_bounds_finite_far_out():
    # sinh(s rho) overflows past rho = 710, so hi is written with coth
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lo, hi = pf.admissible_bounds(H3, [400.0, 800.0])
    assert np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))
    assert np.array_equal(lo, [2.0, 2.0]) and np.array_equal(hi, [2.0, 2.0])


@settings(max_examples=200, deadline=None)
@given(st.floats(0.05, 3.0), st.floats(0.0, 5.0))
def test_envelope_ordered_hyperbolic(rho0, t):
    lo, hi = pf.envelope(H3, rho0, t)
    assert lo <= hi + 1e-12
    if t == 0.0:
        assert lo == pytest.approx(rho0, abs=1e-12) and hi == pytest.approx(rho0, abs=1e-12)
