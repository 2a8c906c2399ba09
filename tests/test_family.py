import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meanbounds import (
    FamilyParams,
    PositivePair,
    critical_point,
    derivative_kernel,
    derivative_kernel_near_one,
    exp_bound_margin,
    gap,
    identric_mean,
    log_identric_over_arithmetic,
    log_ratio_limit_at_one,
    log_ratio_q_over_i,
    q_mean,
    trinomial_eval,
    trinomial_roots,
)

from oracles import family_log_ratio_u, kernel_near_one_u, kernel_u

LN_E_OVER_2 = 0.3068528194400546905828  # 1 - ln 2

# Frozen with mpmath at 40 digits: (u, s, x) -> log ratio.
FROZEN_LOG_RATIO = [
    (0.3, 2.0, 0.25, -0.008309996848714644837041),
    (0.9, 2.0, 0.5, -0.2096635020710092845989),
    (1.0, 1.5, 0.7, -0.407336892164588819708),
    (0.0, 3.0, 0.9, 0.1945661705405807540085),
    (0.5, 4.0, 0.999, -1.078751412494210185517),
]

KERNEL_AT_HALF_U0 = 0.04930614433405484569762  # -1/2 + ln(3)/2

EPS = np.finfo(float).eps


class TestFamilyParams:
    def test_from_t_round_trip(self):
        p = FamilyParams.from_t(0.2, 2.0)
        assert p.u == pytest.approx((1 - 0.4) ** 2, rel=1e-15)
        assert p.u + p.one_minus_u == pytest.approx(1.0, abs=1e-15)

    def test_u_endpoints(self):
        assert FamilyParams.from_t(0.5, 1.0).u == 0.0
        assert FamilyParams.from_t(0.0, 1.0).u == 1.0
        assert FamilyParams.from_u(0.0, 1.0).t == 0.5
        assert FamilyParams.from_u(1.0, 1.0).t == 0.0

    @pytest.mark.parametrize("t,s", [(-0.01, 2.0), (0.51, 2.0), (0.2, 0.99)])
    def test_rejects_bad_parameters(self, t, s):
        with pytest.raises(ValueError):
            FamilyParams.from_t(t, s)

    def test_rejects_bad_u(self):
        with pytest.raises(ValueError):
            FamilyParams.from_u(1.5, 2.0)


class TestLogRatio:
    @pytest.mark.parametrize("u,s,x,expected", FROZEN_LOG_RATIO)
    def test_frozen_values(self, u, s, x, expected):
        got = log_ratio_q_over_i(FamilyParams.from_u(u, s), x)
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-15)

    def test_series_value_near_threshold(self):
        # u = 1/3, s = 1 sits exactly on 3su = 1: the quadratic term
        # vanishes and the quartic one (1/20 - su^2/4) leads.
        params = FamilyParams.from_u(1 / 3, 1.0)
        got = log_ratio_q_over_i(params, 1e-3)
        assert got == pytest.approx(2.222223985891887126088e-14, rel=1e-10,
                                   abs=0.0)

    def test_vanishes_toward_zero(self):
        params = FamilyParams.from_u(0.7, 2.0)
        xs = np.geomspace(1e-8, 1e-2, 30)
        vals = log_ratio_q_over_i(params, xs)
        assert np.all(np.abs(vals) < xs ** 2)

    def test_u_zero_positive_and_s_independent(self):
        xs = np.linspace(0.01, 0.99, 50)
        a = log_ratio_q_over_i(FamilyParams.from_u(0.0, 1.0), xs)
        b = log_ratio_q_over_i(FamilyParams.from_u(0.0, 7.0), xs)
        assert np.all(a > 0)
        np.testing.assert_array_equal(a, b)

    def test_approaches_limit_at_one(self):
        for u, s in [(0.3, 2.0), (0.6, 1.0), (0.05, 10.0)]:
            params = FamilyParams.from_u(u, s)
            limit = log_ratio_limit_at_one(params)
            assert log_ratio_q_over_i(params, 1 - 1e-9) == pytest.approx(
                limit, abs=1e-6)

    @pytest.mark.parametrize("u", [0.0, 0.3])
    def test_accurate_near_one(self, u):
        # Both pieces stay bounded as x -> 1, so the absolute error stays
        # within a few ulps of the O(1) value.
        xs = 1.0 - np.geomspace(1e-12, 0.5, 400)
        got = log_ratio_q_over_i(FamilyParams.from_u(u, 2.0), xs)
        want = np.array([float(family_log_ratio_u(u, 2.0, x)) for x in xs])
        assert np.max(np.abs(got - want)) <= 8e-16

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, 1 - 1e-13, math.nan])
    def test_domain_rejection(self, bad):
        with pytest.raises(ValueError):
            log_ratio_q_over_i(FamilyParams.from_u(0.5, 2.0), bad)

    @given(st.floats(min_value=0.0, max_value=1.0),
           st.floats(min_value=1.0, max_value=20.0),
           st.floats(min_value=1e-6, max_value=1 - 1e-6))
    @settings(max_examples=150)
    def test_against_oracle(self, u, s, x):
        got = log_ratio_q_over_i(FamilyParams.from_u(u, s), x)
        want = float(family_log_ratio_u(u, s, x))
        assert got == pytest.approx(want, rel=1e-10, abs=5e-14)


class TestBridgeIdentity:
    @given(st.floats(min_value=1e-6, max_value=1 - 1e-6),
           st.floats(min_value=0.0, max_value=0.5),
           st.floats(min_value=1.0, max_value=20.0),
           st.integers(min_value=-10, max_value=10).map(lambda e: 2.0 ** e))
    @settings(max_examples=300)
    def test_log_ratio_equals_mean_quotient(self, v, t, s, scale):
        # Near v = 1 one ulp of v moves the log-ratio by about s eps/(1 - v),
        # so the pair must have the double v as its exact gap: 1 + v and
        # 1 - v are exact once v is a multiple of 2^-52, and a power-of-two
        # scale keeps them exact.
        v = (1.0 + v) - 1.0
        pair = PositivePair(scale * (1 + v), scale * (1 - v))
        assert gap(pair) == v
        params = FamilyParams.from_t(t, s)
        through_means = math.log(q_mean(pair, t, s) / identric_mean(pair))
        direct = log_ratio_q_over_i(params, gap(pair))
        assert direct == pytest.approx(through_means, abs=1e-12)


class TestDerivativeKernel:
    def test_frozen_value_u0(self):
        got = derivative_kernel(FamilyParams.from_u(0.0, 1.0), 0.5)
        assert got == pytest.approx(KERNEL_AT_HALF_U0, rel=1e-13)

    def test_vanishes_toward_zero(self):
        params = FamilyParams.from_u(0.4, 3.0)
        xs = np.geomspace(1e-8, 1e-3, 20)
        vals = derivative_kernel(params, xs)
        assert np.all(np.abs(vals) < xs ** 2)

    def test_diverges_toward_one_when_u_below_one(self):
        params = FamilyParams.from_u(0.9, 2.0)
        vals = [derivative_kernel_near_one(params, e)
                for e in (1e-20, 1e-60, 1e-120, 1e-240)]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert vals[-1] > 100.0

    @given(st.floats(min_value=0.0, max_value=1.0),
           st.floats(min_value=1.0, max_value=20.0),
           st.floats(min_value=1e-9, max_value=1 - 1e-12))
    @settings(max_examples=150)
    def test_against_oracle(self, u, s, x):
        got = derivative_kernel(FamilyParams.from_u(u, s), x)
        assert got == pytest.approx(float(kernel_u(u, s, x)), rel=1e-9, abs=1e-13)

    @pytest.mark.parametrize("u, s", [(0.0, 1.0), (0.3, 2.0), (0.9, 2.0),
                                      (1.0, 1.0), (1.0, 3.0), (0.99, 10.0)])
    def test_near_one_against_oracle(self, u, s):
        # Rounding model: a few ulps on each term, x (about 1),
        # atanh(1 - e) = ln((2 - e)/e)/2 and s u x^3 / (1 - u x^2).
        params = FamilyParams.from_u(u, s)
        for e in np.geomspace(1e-300, 0.5, 60):
            atanh = 0.5 * math.log((2.0 - e) / e)
            rational = s * u * (1.0 - e) ** 3 / (params.one_minus_u + u * e * (2.0 - e))
            gate = 4.0 * EPS * (1.0 + atanh + rational)
            got = derivative_kernel_near_one(params, e)
            assert abs(got - kernel_near_one_u(u, s, e)) <= gate, e

    @given(st.floats(min_value=0.0, max_value=1.0),
           st.floats(min_value=1.0, max_value=10.0),
           st.floats(min_value=0.05, max_value=0.95))
    @settings(max_examples=200)
    def test_matches_finite_difference_of_log_ratio(self, u, s, x):
        params = FamilyParams.from_u(u, s)
        h = 1e-6
        fd = (log_ratio_q_over_i(params, x + h)
              - log_ratio_q_over_i(params, x - h)) / (2 * h)
        kernel_over_sq = derivative_kernel(params, x) / (x * x)
        assert fd == pytest.approx(kernel_over_sq, rel=1e-5, abs=2e-8)


class TestTrinomial:
    def test_value_at_zero_and_one(self):
        params = FamilyParams.from_u(0.3, 2.0)
        assert trinomial_eval(params, 0.0) == pytest.approx(1 - 6 * 0.3, rel=1e-14)
        assert trinomial_eval(params, 1.0) == pytest.approx(0.49, rel=1e-12)

    def test_u1_s1_linear_with_root_at_one(self):
        params = FamilyParams.from_u(1.0, 1.0)
        assert trinomial_eval(params, 0.0) == -2.0
        assert trinomial_eval(params, 1.0) == 0.0
        tr = trinomial_roots(params)
        assert tr.kind == "linear"
        assert tr.z0 == pytest.approx(1.0, abs=1e-15)

    def test_linear_root_example(self):
        tr = trinomial_roots(FamilyParams.from_u(0.5, 1.0))
        assert tr.kind == "linear"
        assert tr.roots_in_unit == pytest.approx((2 / 3,), rel=1e-14)

    def test_threshold_case_no_interior_root(self):
        # 3su = 1 at u = 1/6, s = 2: the root sits at the X = 0 boundary.
        tr = trinomial_roots(FamilyParams.from_u(1 / 6, 2.0))
        assert tr.roots_in_unit == ()
        assert tr.z1 is not None and tr.z1 > 1.0

    def test_u_one_always_has_root_at_one(self):
        for s in (1.0, 2.0, 5.0):
            tr = trinomial_roots(FamilyParams.from_u(1.0, s))
            assert any(abs(r - 1.0) < 1e-12 for r in tr.roots_in_unit)

    def test_u_zero_constant(self):
        tr = trinomial_roots(FamilyParams.from_u(0.0, 2.0))
        assert tr.kind == "constant"
        assert tr.roots_in_unit == ()

    def test_subcritical_quadratic_brackets_unit_interval(self):
        # 3su <= 1 with s > 1: roots satisfy z0 <= 0 < 1 <= z1.
        params = FamilyParams.from_u(1 / 7, 2.0)
        tr = trinomial_roots(params)
        assert tr.kind == "quadratic"
        assert tr.roots_in_unit == ()
        assert tr.z1 is not None and tr.z1 >= 1.0

    def test_root_residuals(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            u = float(rng.uniform(1e-3, 1.0))
            s = float(rng.uniform(1.0, 10.0))
            params = FamilyParams.from_u(u, s)
            tr = trinomial_roots(params)
            bound = 1e-12 * (1.0 + sum(abs(c) for c in tr.coefficients))
            for root in tr.roots_in_unit:
                assert abs(trinomial_eval(params, root)) <= bound

    def test_sign_cases_on_unit_interval(self):
        rng = np.random.default_rng(11)
        # X = 1 included: the trinomial is (1-u)^2 > 0 there, so the single
        # crossing is detectable even when the root sits close to 1.
        xs = np.linspace(1e-6, 1.0, 1500)
        supercritical = 0
        for _ in range(200):
            u = float(rng.uniform(1e-3, 1.0))
            s = float(rng.uniform(1.0, 10.0))
            params = FamilyParams.from_u(u, s)
            values = np.array([trinomial_eval(params, x) for x in xs])
            if 3 * s * u <= 1.0:
                assert np.all(values >= 0.0)
            else:
                supercritical += 1
                flips = np.sum(values[:-1] * values[1:] < 0.0)
                assert flips == 1
        assert supercritical > 50


class TestCriticalPoint:
    def test_near_one_zero(self):
        params = FamilyParams.from_u(0.9, 2.0)
        cp = critical_point(params)
        assert 0.0 < cp.one_minus_y0 < 1e-15
        assert abs(cp.kernel_value) <= 1e-12
        below = derivative_kernel_near_one(params, 2 * cp.one_minus_y0)
        above = derivative_kernel_near_one(params, 0.5 * cp.one_minus_y0)
        assert below < 0.0 < above

    def test_interior_zero_and_monotonicity_structure(self):
        params = FamilyParams.from_u(0.2, 2.0)
        cp = critical_point(params)
        assert 0.0 < cp.y0 < 1.0
        assert abs(cp.kernel_value) <= 1e-12
        # decreasing before the critical point, increasing after
        left = np.linspace(0.02, cp.y0 * 0.98, 40)
        right = np.linspace(min(cp.y0 * 1.02, 0.999), 0.999, 40)
        f_left = log_ratio_q_over_i(params, left)
        f_right = log_ratio_q_over_i(params, right)
        assert np.all(np.diff(f_left) < 0)
        assert np.all(np.diff(f_right) > 0)

    def test_kernel_residual_across_parameters(self):
        for u, s in [(0.5, 1.5), (0.4, 2.0), (0.8, 3.0), (0.95, 2.0)]:
            params = FamilyParams.from_u(u, s)
            cp = critical_point(params)
            assert abs(cp.kernel_value) <= 1e-12
            below = derivative_kernel_near_one(params, 2 * cp.one_minus_y0)
            above = derivative_kernel_near_one(params, 0.5 * cp.one_minus_y0)
            assert below < 0.0 < above

    @pytest.mark.parametrize("u, s", [(0.9, 2.0), (0.2, 2.0), (0.5, 1.5),
                                      (0.4, 2.0), (0.8, 3.0), (0.95, 2.0)])
    def test_true_kernel_at_zero(self, u, s):
        cp = critical_point(FamilyParams.from_u(u, s))
        assert abs(kernel_near_one_u(u, s, cp.one_minus_y0)) <= 1e-14

    def test_precondition_subcritical(self):
        with pytest.raises(ValueError):
            critical_point(FamilyParams.from_u(1 / 7, 2.0))

    def test_precondition_u_equal_one(self):
        with pytest.raises(ValueError):
            critical_point(FamilyParams.from_u(1.0, 1.0))

    def test_precision_ceiling_reported(self):
        # At u = 0.99, s = 10 the zero sits near 1 - 1e-860, far below the
        # smallest positive double: a reported failure, not a wrong answer.
        with pytest.raises(RuntimeError):
            critical_point(FamilyParams.from_u(0.99, 10.0))


class TestLimitAtOne:
    def test_u_zero(self):
        got = log_ratio_limit_at_one(FamilyParams.from_u(0.0, 2.0))
        assert got == pytest.approx(LN_E_OVER_2, rel=1e-15)

    def test_boundary_u_gives_zero(self):
        for s in (1.0, 2.0, 5.0):
            u = 1.0 - math.exp((2.0 / s) * (math.log(2.0) - 1.0))
            got = log_ratio_limit_at_one(FamilyParams.from_u(u, s))
            assert abs(got) < 1e-13

    def test_u_one_is_minus_infinity(self):
        assert log_ratio_limit_at_one(FamilyParams.from_u(1.0, 3.0)) == -math.inf


class TestExpBoundMargin:
    def test_leading_quartic_behavior_at_sharp_lower(self):
        # At coef = 1/6 the quadratic term cancels and x^4/20 leads.
        x = 1e-3
        got = exp_bound_margin(1 / 6, x)
        assert got == pytest.approx(x ** 4 / 20, rel=1e-5, abs=0.0)

    def test_positive_inside_at_sharp_lower(self):
        xs = np.linspace(0.01, 0.99, 200)
        assert np.all(exp_bound_margin(1 / 6, xs) > 0)

    def test_vanishes_at_one_for_sharp_upper(self):
        got = exp_bound_margin(LN_E_OVER_2, 1 - 1e-9)
        assert -1e-6 < got < 0.0

    def test_negative_at_large_coefficient(self):
        assert exp_bound_margin(1.0, 0.5) < 0.0

    def test_identity_with_log_ratio(self):
        xs = np.geomspace(1e-6, 0.999, 100)
        for coef in (1 / 6, 0.25, LN_E_OVER_2):
            lhs = exp_bound_margin(coef, xs)
            rhs = -log_identric_over_arithmetic(xs) - coef * xs * xs
            assert np.max(np.abs(lhs - rhs)) <= 1e-13

    def test_rejects_nonpositive_coefficient(self):
        with pytest.raises(ValueError):
            exp_bound_margin(0.0, 0.5)
