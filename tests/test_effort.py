"""Effort curves, derivative root solving, and shared scheme parameters."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supervise import (
    EffortDomainError,
    EffortFunction,
    Family,
    InvalidTargetError,
    SchemeParams,
    SuperviseError,
    effort_deriv,
    effort_eval,
    solve_deriv_equals,
)
from supervise.effort import _lambertw_nonneg

from _oracles import bisect_deriv

FAMILIES = [Family.SIMPLE_LOG, Family.BOUNDARY_LOG, Family.INVERSE_POWER]

families = st.sampled_from(FAMILIES)
alphas = st.floats(min_value=0.05, max_value=20.0, allow_nan=False)


def interior(f: EffortFunction, u: float) -> float:
    # map u in (0,1) to a comfortably interior point of the domain
    hi = f.domain_hi if math.isfinite(f.domain_hi) else 50.0
    return 0.01 * hi + u * 0.98 * hi


class TestWorkedValues:
    def test_simple_log(self):
        f = EffortFunction.simple_log(1.0)
        assert effort_eval(f, 0.5) == pytest.approx(math.log(2.0), rel=1e-15)
        assert effort_eval(f, 1.0) == 0.0
        assert effort_deriv(f, 0.25) == pytest.approx(-4.0, rel=1e-15)

    def test_boundary_log(self):
        f = EffortFunction.boundary_log(1.0)
        assert effort_eval(f, 0.5) == 0.0
        assert effort_eval(f, 0.25) == pytest.approx(math.log(2.0) ** 2, rel=1e-15)
        assert effort_deriv(f, 0.25) == pytest.approx(-8.0 * math.log(2.0), rel=1e-14)
        assert effort_deriv(f, 0.5) == 0.0

    def test_inverse_power(self):
        f = EffortFunction.inverse_power(1.0)
        assert effort_eval(f, 2.0) == 0.5
        assert effort_deriv(f, 2.0) == -0.25
        assert effort_eval(f, 10.0) == pytest.approx(0.1)

    def test_inverse_power_deriv_is_minus_inf_where_e_squared_underflows(self):
        f = EffortFunction.inverse_power(1.0)
        assert effort_deriv(f, 1e-200) == -math.inf
        assert effort_deriv(f, 1e-150) == -1.0 / (1e-150 * 1e-150)  # finite: e * e is still a normal float

    def test_alpha_scales_both(self):
        f1 = EffortFunction.simple_log(1.0)
        f3 = EffortFunction.simple_log(3.0)
        assert effort_eval(f3, 0.3) == pytest.approx(3 * effort_eval(f1, 0.3), rel=1e-15)
        assert effort_deriv(f3, 0.3) == pytest.approx(3 * effort_deriv(f1, 0.3), rel=1e-15)


class TestSolveWorkedValues:
    def test_simple_log_exact(self):
        f = EffortFunction.simple_log(1.0)
        r = solve_deriv_equals(f, -4.0)
        assert r.value == 0.25 and not r.clamped

    def test_boundary_log_exact(self):
        f = EffortFunction.boundary_log(1.0)
        r = solve_deriv_equals(f, -8.0 * math.log(2.0))
        assert r.value == pytest.approx(0.25, rel=1e-12) and not r.clamped

    def test_inverse_power_exact(self):
        f = EffortFunction.inverse_power(1.0)
        r = solve_deriv_equals(f, -0.25)
        assert r.value == 2.0 and not r.clamped

    def test_clamp_above_supremum(self):
        # weaker marginal incentive than even zero effort costs: stay at the corner
        f = EffortFunction.simple_log(1.0)
        r = solve_deriv_equals(f, -0.5)
        assert r.value == 1.0 and r.clamped

    def test_exact_supremum_is_a_true_root(self):
        f = EffortFunction.simple_log(2.0)
        r = solve_deriv_equals(f, -2.0)
        assert r.value == 1.0 and not r.clamped

    def test_boundary_log_supremum(self):
        f = EffortFunction.boundary_log(1.0)
        assert solve_deriv_equals(f, 0.0).value == 0.5
        assert not solve_deriv_equals(f, 0.0).clamped
        r = solve_deriv_equals(f, 0.25)
        assert r.value == 0.5 and r.clamped

    @pytest.mark.parametrize("alpha,target", [(1e308, -20.0), (1.0, -5e-324)])
    def test_boundary_log_at_float_limits(self, alpha, target):
        # 4 alpha overflows, or -target/(4 alpha) underflows to 0: the root rounds to the corner, unclamped
        r = solve_deriv_equals(EffortFunction.boundary_log(alpha), target)
        assert r.value == 0.5 and not r.clamped

    def test_inverse_power_nonnegative_target_clamps_to_inf(self):
        f = EffortFunction.inverse_power(1.0)
        r = solve_deriv_equals(f, 0.0)
        assert math.isinf(r.value) and r.clamped

    def test_invalid_targets(self):
        f = EffortFunction.simple_log(1.0)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(InvalidTargetError):
                solve_deriv_equals(f, bad)

    def test_float_conversion(self):
        r = solve_deriv_equals(EffortFunction.simple_log(1.0), -4.0)
        assert float(r) == 0.25


class TestDomains:
    @pytest.mark.parametrize("family,hi", [(Family.SIMPLE_LOG, 1.0), (Family.BOUNDARY_LOG, 0.5)])
    def test_bounded_domains(self, family, hi):
        f = EffortFunction(family=family, alpha=1.0)
        assert f.domain_hi == hi
        with pytest.raises(EffortDomainError):
            effort_eval(f, 0.0)
        with pytest.raises(EffortDomainError):
            effort_eval(f, hi * 1.0000001)
        with pytest.raises(EffortDomainError):
            effort_deriv(f, -0.1)

    def test_unbounded_domain(self):
        f = EffortFunction.inverse_power(1.0)
        assert math.isinf(f.domain_hi)
        assert effort_eval(f, 1e9) == pytest.approx(1e-9)
        with pytest.raises(EffortDomainError):
            effort_eval(f, 0.0)

    def test_bad_alpha(self):
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(SuperviseError):
                EffortFunction.simple_log(bad)


class TestCurveProperties:
    @given(families, alphas, st.floats(min_value=0.01, max_value=0.99), st.floats(min_value=0.001, max_value=0.5))
    def test_decreasing_and_deriv_increasing(self, fam, alpha, u, gap):
        f = EffortFunction(family=fam, alpha=alpha)
        a = interior(f, u * 0.6)
        b = a * (1.0 + gap)
        hi = f.domain_hi
        if math.isfinite(hi):
            b = min(b, hi)
        if b <= a:
            return
        assert effort_eval(f, a) > effort_eval(f, b) or (effort_eval(f, a) == effort_eval(f, b) == 0.0)
        assert effort_deriv(f, a) < effort_deriv(f, b) or b == hi
        assert effort_deriv(f, a) < 0.0

    @given(families, alphas, st.floats(min_value=0.02, max_value=0.98), st.floats(min_value=0.02, max_value=0.98))
    def test_midpoint_convexity(self, fam, alpha, u1, u2):
        f = EffortFunction(family=fam, alpha=alpha)
        a, b = interior(f, u1), interior(f, u2)
        mid = 0.5 * (a + b)
        lhs = effort_eval(f, mid)
        rhs = 0.5 * (effort_eval(f, a) + effort_eval(f, b))
        assert lhs <= rhs + 1e-12 * (1.0 + abs(rhs))

    @given(families, alphas, st.floats(min_value=0.02, max_value=0.98))
    def test_finite_difference_matches_deriv(self, fam, alpha, u):
        f = EffortFunction(family=fam, alpha=alpha)
        e = interior(f, u)
        h = 1e-6 * e
        hi = f.domain_hi
        if math.isfinite(hi) and e + h >= hi:
            return
        approx = (effort_eval(f, e + h) - effort_eval(f, e - h)) / (2.0 * h)
        assert approx == pytest.approx(effort_deriv(f, e), rel=1e-5, abs=1e-10)

    @given(families, alphas, st.floats(min_value=0.02, max_value=0.98))
    def test_solve_round_trip(self, fam, alpha, u):
        f = EffortFunction(family=fam, alpha=alpha)
        e = interior(f, u)
        r = solve_deriv_equals(f, effort_deriv(f, e))
        assert not r.clamped
        assert r.value == pytest.approx(e, rel=1e-9)

    @settings(max_examples=60)
    @given(families, alphas, st.floats(min_value=0.02, max_value=0.9))
    def test_solve_matches_bisection_oracle(self, fam, alpha, u):
        f = EffortFunction(family=fam, alpha=alpha)
        target = effort_deriv(f, interior(f, u))
        r = solve_deriv_equals(f, target)
        assert r.value == pytest.approx(bisect_deriv(f, target), rel=1e-9)


class TestLambertHelper:
    def test_against_scipy(self):
        scipy_special = pytest.importorskip("scipy.special")
        for y in [0.0, 1e-12, 0.01, 0.3, 1.0, math.e, 10.0, 1e3, 1e8, 1e15]:
            want = float(scipy_special.lambertw(y).real)
            assert _lambertw_nonneg(y) == pytest.approx(want, rel=1e-12, abs=1e-300)

    @given(st.floats(min_value=0.0, max_value=1e12, allow_nan=False))
    def test_defining_identity(self, y):
        w = _lambertw_nonneg(y)
        assert w >= 0.0
        assert w * math.exp(min(w, 700.0)) == pytest.approx(y, rel=1e-10, abs=1e-12)


class TestSchemeParams:
    def test_accepts_valid(self):
        p = SchemeParams(k=2, epsilon=0.25, C=16.0)
        assert p.require_C() == 16.0
        assert p.effective_D() == 0.0

    def test_effective_d_default_tracks_alternatives(self):
        p = SchemeParams(k=2, epsilon=0.25, C=12.0, m=4)
        assert p.effective_D() == pytest.approx(12.0 * 2.0 / 3.0)
        q = SchemeParams(k=2, epsilon=0.25, C=12.0, m=4, D=5.0)
        assert q.effective_D() == 5.0

    def test_rejections(self):
        with pytest.raises(SuperviseError):
            SchemeParams(k=0, epsilon=0.25)
        with pytest.raises(SuperviseError):
            SchemeParams(k=2, epsilon=-0.1)
        with pytest.raises(SuperviseError):
            SchemeParams(k=2, epsilon=math.nan)
        with pytest.raises(SuperviseError):
            SchemeParams(k=2, epsilon=0.25, C=-1.0)
        with pytest.raises(SuperviseError):
            SchemeParams(k=2, epsilon=0.25, m=1)
        with pytest.raises(SuperviseError):
            SchemeParams(k=2, epsilon=0.25, D=1.0)  # D needs C
        with pytest.raises(SuperviseError):
            SchemeParams(k=2, epsilon=0.25, C=10.0, D=11.0)  # D > C
        with pytest.raises(SuperviseError):
            SchemeParams(k=2, epsilon=0.25).require_C()
        with pytest.raises(SuperviseError):
            SchemeParams(k=2, epsilon=0.25).require_c()
