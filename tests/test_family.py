import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meanbounds import (
    FamilyParams,
    PositivePair,
    derivative_kernel,
    exp_bound_margin,
    gap,
    identric_mean,
    log_identric_over_arithmetic,
    log_ratio_limit_at_one,
    log_ratio_q_over_i,
    q_mean,
)

from meanbounds.family import _Pieces, _log_ratio_with_scale, _series_coefficients
from oracles import family_log_ratio_and_quotient_t, family_log_ratio_u, kernel_near_one_u, kernel_u

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

GRID = np.linspace(0.01, 0.9999, 4000)


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

    @pytest.mark.parametrize("u", [0.0, 0.3])
    def test_any_order_gives_the_same_bits(self, u):
        # Increasing gaps split into two slices, any other order into two
        # masks; each point's value and error scale must not depend on that.
        params = FamilyParams.from_u(u, 2.0)
        xs = np.concatenate([np.geomspace(1e-9, 0.5, 40),
                             1.0 - np.geomspace(1e-9, 0.5, 40)[::-1]])
        shuffled = np.random.default_rng(3).permutation(xs)
        by_order = [_log_ratio_with_scale(params, _Pieces(arr))
                    for arr in (xs, shuffled)]
        order = np.argsort(shuffled)
        for sorted_part, shuffled_part in zip(*by_order):
            np.testing.assert_array_equal(shuffled_part[order], sorted_part)
        scalars = [log_ratio_q_over_i(params, float(x)) for x in xs]
        np.testing.assert_array_equal(by_order[0][0], scalars)

    @pytest.mark.parametrize("s", [6e307, 1e308, 1.7976931348623157e308])
    def test_u_zero_is_finite_at_extreme_s(self, s):
        # At t = 1/2 the series coefficients and their error scale are
        # s-free; formed from 3 s u they would be inf * 0 = nan.
        params = FamilyParams.from_t(0.5, s)
        xs = np.array([1e-6, 1e-3, 5e-3, 0.02, 0.5, 0.9])
        got = log_ratio_q_over_i(params, xs)
        want = [float(family_log_ratio_u(0.0, s, x)) for x in xs]
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=4 * EPS)
        np.testing.assert_array_equal(
            got, log_ratio_q_over_i(FamilyParams.from_t(0.5, 1.0), xs))
        assert np.all(np.isfinite(_log_ratio_with_scale(params, _Pieces(xs))[1]))
        kernel = derivative_kernel(params, xs)
        np.testing.assert_allclose(
            kernel, [float(kernel_u(0.0, s, x)) for x in xs], rtol=1e-12)

    @pytest.mark.parametrize("s", [1e308, 1.7976931348623157e308])
    def test_series_is_finite_at_extreme_s(self, s):
        # 3 s overflows for s > 6e307, so c_1 = (1 - 3 s u) / 6 would be
        # -inf; the log-ratio is about -s u x^2 / 2 (-4.80e301 at s = 1e308,
        # x = 1e-3).
        params = FamilyParams.from_t(0.01, s)
        xs = np.array([1e-6, 1e-3, 5e-3])
        vals, scale = _log_ratio_with_scale(params, _Pieces(xs))
        want = np.array([float(family_log_ratio_and_quotient_t(0.01, s, x)[0]) for x in xs])
        np.testing.assert_allclose(vals, want, rtol=1e-14, atol=0.0)
        np.testing.assert_array_equal(log_ratio_q_over_i(params, xs), vals)
        assert np.all(np.isfinite(scale))
        assert np.all(np.abs(vals - want) <= scale * EPS)

    def test_series_coefficients_unchanged_where_finite(self):
        # Wherever the old c_1 = (1 - 3 s u) / 6 is finite, that is wherever
        # 3 s u is, all four coefficients keep their bits.
        def old(u, s):
            return ((1.0 - 3.0 * s * u) / 6.0, 1.0 / 20.0 - s * u * u / 4.0,
                    1.0 / 42.0 - s * u ** 3 / 6.0, 1.0 / 72.0 - s * u ** 4 / 8.0)

        rng = random.Random(21)
        top = 5.992310449541052e307  # the largest s with 3 s finite
        cases = [(1.0, top), (1e-300, top), (1.0, math.nextafter(top, 0.0))]
        cases += [(rng.choice([1.0, rng.random(), 10.0 ** rng.uniform(-300.0, 0.0)]),
                   10.0 ** rng.uniform(0.0, 308.2)) for _ in range(20_000)]
        assert math.isinf(3.0 * math.nextafter(top, math.inf))
        checked = 0
        for u, s in cases:
            if math.isinf(3.0 * s * u):
                continue
            got = _series_coefficients(FamilyParams.from_u(u, s))
            assert [c.hex() for c in got] == [c.hex() for c in old(u, s)], (u, s)
            checked += 1
        assert checked > 19_000

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
        # The direct form up to EVAL_LIMIT, against the oracle at the exact
        # distance e = 1 - x (exact for x >= 1/2).  Rounding model: a few
        # ulps on each term, x (about 1), atanh(x) = ln((2 - e)/e)/2 and
        # s u x^3 / (1 - u x^2).
        params = FamilyParams.from_u(u, s)
        for x in 1.0 - np.geomspace(1e-12, 0.5, 60):
            e = 1.0 - x
            atanh = 0.5 * math.log((2.0 - e) / e)
            rational = s * u * x ** 3 / (params.one_minus_u + u * e * (2.0 - e))
            gate = 4.0 * EPS * (1.0 + atanh + rational)
            got = derivative_kernel(params, x)
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


def exact_trinomial(t, s):
    """Kernel trinomial ``(a2, a1, a0)`` in ``X = x^2`` for the exact doubles.

    The kernel's slope has the sign of ``a2 X^2 + a1 X + a0``; the
    coefficients are rationals in ``u = (1-2t)^2`` and ``s``.
    """
    return trinomial_in_u((1 - 2 * Fraction(t)) ** 2, s)


def trinomial_in_u(u, s):
    """``(a2, a1, a0)`` for rational ``u`` and ``s``, also ones no ``t`` reaches."""
    u, s = Fraction(u), Fraction(s)
    return (1 - s) * u * u, (3 * s + s * u - 2) * u, 1 - 3 * s * u


class TestTrinomial:
    """The facts about the kernel trinomial ``T`` that ``membership`` uses."""

    def test_value_at_zero_and_one(self):
        for t, s in [(0.2, 2.0), (0.1, 1.0), (0.3, 7.5), (0.45, 1.25)]:
            a2, a1, a0 = exact_trinomial(t, s)
            u = (1 - 2 * Fraction(t)) ** 2
            assert a0 == 1 - 3 * Fraction(s) * u
            assert a2 + a1 + a0 == (1 - u) ** 2

    def test_u_one_always_has_root_at_one(self):
        # t = 0: T(1) = 0, so membership decides t = 0 on its own.
        for s in (1.0, 2.0, 5.0):
            a2, a1, a0 = exact_trinomial(0.0, s)
            assert a2 + a1 + a0 == 0 and a0 < 0
        assert exact_trinomial(0.0, 1.0) == (0, 2, -2)

    def test_u1_s1_linear_with_root_at_one(self):
        # a2 = 0 at s = 1: T(X) = 2X - 2, whose only root is X = 1.
        a2, a1, a0 = exact_trinomial(0.0, 1.0)
        assert (a2, a1, a0) == (0, 2, -2)
        assert -a0 / a1 == 1

    def test_u_zero_constant(self):
        assert exact_trinomial(0.5, 3.0) == (0, 0, 1)

    def test_threshold_case_no_interior_root(self):
        # 3su = 1 at u = 1/6, s = 2: T(X) = X (a2 X + a1) has roots 0 and
        # -a1/a2 = 26, so none in (0, 1].
        a2, a1, a0 = trinomial_in_u(Fraction(1, 6), 2)
        assert a0 == 0
        assert a2 < 0 < a1
        assert -a1 / a2 == 26

    def test_subcritical_quadratic_brackets_unit_interval(self):
        # 3su < 1 with s > 1: a2 < 0 < a0 puts one root below 0, and
        # T(1) > 0 puts the other above 1, so z0 < 0 < 1 < z1.
        a2, a1, a0 = trinomial_in_u(Fraction(1, 7), 2)
        assert a2 < 0 < a0
        assert a2 + a1 + a0 == Fraction(6, 7) ** 2
        # z0 z1 = a0/a2 < 0, and a2 T(X) < 0 exactly between the roots.
        assert a0 / a2 < 0
        assert a2 * (a2 + a1 + a0) < 0

    def test_sign_cases_on_unit_interval(self):
        # a2 <= 0 makes T concave on [0, 1].  With T(1) > 0, T has exactly
        # one root in (0, 1) when T(0) < 0 (3su > 1) and is > 0 on [0, 1]
        # when T(0) > 0.  T(0) = 0 never happens: 3su = 1 would need a
        # dyadic 1/3.
        rng = np.random.default_rng(11)
        seen = {"supercritical": 0, "subcritical": 0}
        while min(seen.values()) < 1000:
            t = float(rng.uniform(0.0, 0.5))
            s = float(rng.choice([1.0, rng.uniform(1.0, 20.0)]))
            if t == 0.0:
                continue
            a2, a1, a0 = exact_trinomial(t, s)
            u = (1 - 2 * Fraction(t)) ** 2
            assert a2 <= 0
            assert a2 + a1 + a0 == (1 - u) ** 2 > 0
            assert a0 != 0
            seen["supercritical" if a0 < 0 else "subcritical"] += 1


class TestCriticalPoint:
    """The log-ratio's shape, which reduces the lower side to its limit at 1."""

    @pytest.mark.parametrize("u, s", [(0.2, 2.0), (0.3, 2.0), (0.6, 1.0),
                                      (0.5, 1.5), (0.35, 5.0)])
    def test_falls_then_rises(self, u, s):
        # 3su > 1 and u < 1, with the minimum inside the grid (at 0.60 to
        # 0.9987 for these pairs); for u = 0.99, s = 10 it lies beyond
        # 1 - 1e-300.
        params = FamilyParams.from_u(u, s)
        assert 3 * s * u > 1
        steps = np.sign(np.diff(log_ratio_q_over_i(params, GRID)))
        assert np.all(steps != 0)
        assert steps[0] < 0 < steps[-1]
        assert np.count_nonzero(steps[1:] != steps[:-1]) == 1

    @pytest.mark.parametrize("u, s", [(1 / 7, 2.0), (0.3, 1.0), (0.33, 1.0),
                                      (0.06, 5.0), (0.0, 5.0)])
    def test_rises_throughout_when_subcritical(self, u, s):
        params = FamilyParams.from_u(u, s)
        assert 3 * s * u <= 1
        assert np.all(np.diff(log_ratio_q_over_i(params, GRID)) > 0)

    def test_zero_beyond_smallest_distance(self):
        # At u = 0.99, s = 10 the kernel's zero sits near 1 - 1e-860: the
        # log-ratio falls on every double gap, and only its limit at 1
        # decides the lower side.
        params = FamilyParams.from_u(0.99, 10.0)
        assert kernel_near_one_u(0.99, 10.0, 1e-300) < 0
        assert np.all(np.diff(log_ratio_q_over_i(params, GRID)) < 0)


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
