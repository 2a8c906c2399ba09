import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meanbounds import (
    PositivePair,
    arithmetic_mean,
    gap,
    geometric_mean,
    harmonic_mean,
    identric_mean,
    log_identric_over_arithmetic,
    pair_from_gap,
    q_mean,
)

from meanbounds.family import _IDENTRIC, _h, _log_ratio_series

import oracles
from oracles import identric_raw, lr_gap

EPS = np.finfo(float).eps

# Frozen with mpmath at 40 digits.
FOUR_OVER_E = 1.471517764685769286382
EIGHT_OVER_E = 2.943035529371538572764
LN_8_OVER_3E = -0.01917074698827376314355
LN_2_OVER_E = -0.3068528194400546905828
IDENTRIC_3_7 = 4.861677506708433644954
IDENTRIC_002_5 = 1.880640582680203241138

positive_entries = st.floats(min_value=-6.0, max_value=6.0).map(lambda e: 10.0 ** e)


def pairs(min_gap=0.0):
    def build(scale, v):
        return PositivePair(scale * (1.0 + v), scale * (1.0 - v))
    return st.builds(
        build,
        st.floats(min_value=-6.0, max_value=6.0).map(lambda e: 10.0 ** e),
        st.floats(min_value=min_gap, max_value=1.0 - 1e-9),
    )


class TestConstruction:
    @pytest.mark.parametrize("a,b", [(0.0, 1.0), (-1.0, 2.0), (1.0, 0.0),
                                     (math.inf, 1.0), (math.nan, 1.0)])
    def test_rejects_nonpositive(self, a, b):
        with pytest.raises(ValueError):
            PositivePair(a, b)

    def test_equal_entries_allowed(self):
        assert PositivePair(3.0, 3.0).a == 3.0


class TestClassicalMeans:
    def test_arithmetic_exact_cases(self):
        assert arithmetic_mean(PositivePair(1, 3)) == 2.0
        assert arithmetic_mean(PositivePair(2, 4)) == 3.0
        assert arithmetic_mean(PositivePair(7.5, 7.5)) == 7.5

    def test_geometric_exact_cases(self):
        assert geometric_mean(PositivePair(4, 9)) == 6.0
        assert geometric_mean(PositivePair(1, 2)) == math.sqrt(2)
        assert geometric_mean(PositivePair(5, 5)) == 5.0

    def test_harmonic_exact_cases(self):
        assert harmonic_mean(PositivePair(1, 1)) == 1.0
        assert harmonic_mean(PositivePair(1, 3)) == 1.5
        assert harmonic_mean(PositivePair(2, 6)) == 3.0


class TestScaleSafeMeans:
    """Finite pairs whose plain forms overflow or underflow in a + b or ab."""

    PAIRS = [(1.7e308, 1.7e308), (1e308, 1.5e308), (1e300, 1e300),
             (1e300, 3e300), (1e-300, 1e-300), (1e-300, 3e-300),
             (1e-170, 2e-170)]

    @pytest.mark.parametrize("a, b", PAIRS)
    def test_against_oracles(self, a, b):
        pair = PositivePair(a, b)
        # I(a, b) = a I(1, b/a): the raw power form at unit scale.
        identric = a * identric_raw(1, oracles.mp.mpf(b) / a)
        cases = [(gap(pair), oracles.gap(a, b)),
                 (arithmetic_mean(pair), oracles.arithmetic_mean(a, b)),
                 (geometric_mean(pair), oracles.geometric_mean(a, b)),
                 (harmonic_mean(pair), oracles.harmonic_mean(a, b)),
                 (identric_mean(pair), identric),
                 (q_mean(pair, 0.3, 2.0), oracles.q_mean(a, b, 0.3, 2.0))]
        for got, expected in cases:
            assert math.isfinite(got)
            assert got == pytest.approx(float(expected), rel=8 * EPS, abs=0.0)

    def test_subnormal_harmonic(self):
        # 2ab is subnormal here; H = 2 * 5e-324 to within a subnormal ulp.
        assert harmonic_mean(PositivePair(5e-324, 1e10)) == 1e-323

    @given(pairs())
    @settings(max_examples=100)
    def test_plain_forms_where_they_stay_normal(self, pair):
        a, b = pair.a, pair.b
        assert arithmetic_mean(pair) == 0.5 * (a + b)
        assert geometric_mean(pair) == math.sqrt(a * b)
        assert harmonic_mean(pair) == 2.0 * a * b / (a + b)
        assert gap(pair) == abs(a - b) / (a + b)


class TestExtremeRatios:
    """Pairs whose gap rounds to 1, so only 1 - v = 2 min/(a + b) is left."""

    # Ratios 1e-17, 1e-100, 5e-324; 1 - v is subnormal in the last three
    # and underflows to 0 in the last.
    PAIRS = [(1e-17, 1.0), (1e-100, 1.0), (5e-324, 1.0), (5e-324, 3.0),
             (5e-324, 1e300)]
    # Gaps 1/2 and 1 - 2e-6: 1 - v is taken from the pair here too.
    NEAR_ONE_PAIRS = [(1.0, 3.0), (1.0, 1e6)]

    @pytest.mark.parametrize("a, b", PAIRS)
    def test_gap_rounds_to_one(self, a, b):
        assert gap(PositivePair(a, b)) == 1.0

    @pytest.mark.parametrize("a, b", PAIRS + NEAR_ONE_PAIRS)
    def test_identric_against_oracle(self, a, b):
        pair = PositivePair(a, b)
        assert gap(pair) >= 0.5
        # I(a, b) = b I(a/b, 1): the raw power form at unit scale.
        expected = float(b * identric_raw(oracles.mp.mpf(a) / b, 1))
        assert identric_mean(pair) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("a, b", PAIRS)
    @pytest.mark.parametrize("s", [1.0, 3.0])
    def test_q_mean_against_oracle(self, a, b, s):
        # At t = 0, 1 - u v^2 = 1 - v^2 is all that is left of the pair.
        expected = float(oracles.q_mean(a, b, 0.0, s))
        got = q_mean(PositivePair(a, b), 0.0, s)
        assert got == pytest.approx(expected, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("a, b, s", [
        (1.0, 1e34, 20.0), (1.0, 1e34, 19.0),
        (1.6863878851660068e34, 10.851897131473606, 19.7696)])
    def test_q_mean_normal_below_exp_range(self, a, b, s):
        # (1 - v^2)^(s/2) falls below the normal range (to 0 at s = 20),
        # but A (1 - v^2)^(s/2) is a normal double.
        expected = float(oracles.q_mean(a, b, 0.0, s))
        got = q_mean(PositivePair(a, b), 0.0, s)
        assert got == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_q_mean_huge_exponent_underflows_to_zero(self):
        # (1 - v^2)^(s/2) with 1 - v^2 ~ 2e-323 and s = 1e6 is far below
        # the smallest double.
        pair = PositivePair(5e-324, 1.0)
        assert q_mean(pair, 0.0, 1e6) == float(oracles.q_mean(5e-324, 1.0, 0.0, 1e6))


class TestIdentric:
    def test_closed_form_1_2(self):
        got = identric_mean(PositivePair(1, 2))
        assert got == pytest.approx(FOUR_OVER_E, rel=1e-13)

    def test_1_2_is_correctly_rounded(self):
        # The double nearest 4/e, as the README's quick tour prints it.
        assert identric_mean(PositivePair(1, 2)) == 1.4715177646857693

    def test_closed_form_2_4(self):
        assert identric_mean(PositivePair(2, 4)) == pytest.approx(
            EIGHT_OVER_E, rel=1e-13)

    def test_equal_arguments_continuous_extension(self):
        assert identric_mean(PositivePair(0.37, 0.37)) == 0.37

    @pytest.mark.parametrize("a,b,expected", [
        (3.0, 7.0, IDENTRIC_3_7),
        (0.02, 5.0, IDENTRIC_002_5),
    ])
    def test_against_frozen_high_precision(self, a, b, expected):
        assert identric_mean(PositivePair(a, b)) == pytest.approx(expected, rel=1e-13)

    @given(pairs(min_gap=1e-6))
    @settings(max_examples=150)
    def test_against_raw_power_formula(self, pair):
        # The raw definition evaluated in mpmath is the independent route.
        expected = float(identric_raw(pair.a, pair.b))
        assert identric_mean(pair) == pytest.approx(expected, rel=1e-12)


class TestQMean:
    def test_t_half_is_arithmetic(self):
        pair = PositivePair(1, 2)
        assert q_mean(pair, 0.5, 3.0) == pytest.approx(1.5, rel=1e-15)

    def test_t_zero_s_one_is_geometric(self):
        assert q_mean(PositivePair(4, 9), 0.0, 1.0) == pytest.approx(6.0, rel=1e-14)

    @pytest.mark.parametrize("a", [1e-16, 2.5e-16, 1e-15, 1e-12])
    @pytest.mark.parametrize("t, s", [(0.0, 1.0), (0.0, 3.0), (1e-3, 1.0)])
    def test_gap_near_one_against_oracle(self, a, t, s):
        # The gap is just below 1, so 1 - v formed from the rounded v has
        # lost most of its digits; 1 - v must come from the pair instead.
        pair = PositivePair(a, 1.0)
        assert 0.5 <= gap(pair) < 1.0
        expected = float(oracles.q_mean(a, 1.0, t, s))
        assert q_mean(pair, t, s) == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_s_two_is_harmonic_of_mixed_pair(self):
        got = q_mean(PositivePair(1, 3), 0.2, 2.0)
        c, d = 0.2 * 1 + 0.8 * 3, 0.2 * 3 + 0.8 * 1
        assert got == pytest.approx(2 * c * d / (c + d), rel=1e-13)
        assert got == pytest.approx(1.82, rel=1e-13)

    @pytest.mark.parametrize("t,s", [(-0.1, 2.0), (0.6, 2.0), (0.2, 0.5)])
    def test_domain_rejection(self, t, s):
        with pytest.raises(ValueError):
            q_mean(PositivePair(1, 2), t, s)

    @given(pairs(min_gap=1e-3), st.floats(min_value=1.0, max_value=50.0))
    @settings(max_examples=100)
    def test_strictly_increasing_in_t(self, pair, s):
        ts = np.linspace(0.0, 0.5, 21)
        values = [q_mean(pair, t, s) for t in ts]
        assert all(b > a for a, b in zip(values, values[1:]))

    @given(pairs(), st.floats(min_value=0.0, max_value=0.5),
           st.floats(min_value=1.0, max_value=50.0))
    @settings(max_examples=150)
    def test_bounded_by_g_like_and_arithmetic(self, pair, t, s):
        q = q_mean(pair, t, s)
        a = arithmetic_mean(pair)
        q0 = q_mean(pair, 0.0, s)
        assert q0 <= q * (1 + 4 * EPS)
        assert q <= a * (1 + 4 * EPS)


class TestGap:
    def test_direct_values(self):
        assert gap(PositivePair(1, 3)) == 0.5
        assert gap(PositivePair(5, 5)) == 0.0
        assert gap(PositivePair(1, 2)) == pytest.approx(1 / 3, abs=1e-16)

    # A double gap near 1 carries 1 - v only to about eps/(1 - v) relative,
    # so a round trip through v cannot give the pair back to a fixed
    # relative tolerance.  Each step is checked exactly against what its own
    # double inputs imply instead.

    @given(pairs())
    @settings(max_examples=150)
    def test_gap_within_ulps_of_exact_gap(self, pair):
        a, b = Fraction(pair.a), Fraction(pair.b)
        exact = abs(a - b) / (a + b)
        # a - b, a + b and the quotient round once each: 3 * 2^-53 relative.
        assert abs(Fraction(gap(pair)) - exact) <= 3 * Fraction(math.ulp(float(exact)))

    @given(pairs())
    @settings(max_examples=150)
    def test_pair_from_gap_rounds_the_exact_pair(self, pair):
        v, scale = gap(pair), arithmetic_mean(pair)
        rebuilt = pair_from_gap(v, scale)
        # Two roundings, 1 +- v and then the product, each at most 2^-53.
        bound = (1 + Fraction(1, 2**53)) ** 2 - 1
        for got, sign in ((rebuilt.a, 1), (rebuilt.b, -1)):
            exact = Fraction(scale) * (1 + sign * Fraction(v))
            assert abs(Fraction(got) - exact) <= bound * exact

    def test_pair_from_gap_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            pair_from_gap(1.0)


class TestLogIdentricOverArithmetic:
    def test_zero_gap(self):
        assert log_identric_over_arithmetic(0.0) == 0.0

    def test_matches_identric_at_one_third(self):
        # gap(1, 2) = 1/3 and ln(I/A) = ln(8/(3e)) there
        got = log_identric_over_arithmetic(1 / 3)
        assert got == pytest.approx(LN_8_OVER_3E, rel=1e-13)

    def test_limit_toward_one(self):
        got = log_identric_over_arithmetic(1 - 1e-9)
        assert got == pytest.approx(LN_2_OVER_E, abs=1e-6)

    def test_strictly_negative_inside(self):
        vs = np.geomspace(1e-8, 1 - 1e-9, 200)
        vals = log_identric_over_arithmetic(vs)
        assert np.all(vals < 0)

    @pytest.mark.parametrize("bad", [-0.1, 1.0, 1.5, math.nan])
    def test_rejects_out_of_domain(self, bad):
        with pytest.raises(ValueError):
            log_identric_over_arithmetic(bad)

    def test_series_and_direct_agree_in_overlap(self):
        # Around the crossover both float paths are valid; they agree to
        # absolute machine precision (the direct path's relative accuracy
        # degrades as v -> 0, which is why the series takes over).
        vs = np.geomspace(1e-4, 1e-2, 50)
        series = _log_ratio_series(_IDENTRIC, vs * vs)
        direct = _h(vs, 1.0 - vs, np.log1p(-vs))
        assert np.max(np.abs(series - direct)) < 2e-15

    @pytest.mark.parametrize("v", [1e-8, 1e-6, 1e-4, 1e-3, 0.25, 0.5, 0.9,
                                   0.99, 1 - 1e-6])
    def test_against_oracle(self, v):
        assert log_identric_over_arithmetic(v) == pytest.approx(
            float(lr_gap(v)), abs=4e-15)


class TestStructuralInvariants:
    @given(pairs())
    @settings(max_examples=200)
    def test_symmetry_exact(self, pair):
        swapped = PositivePair(pair.b, pair.a)
        assert arithmetic_mean(pair) == arithmetic_mean(swapped)
        assert geometric_mean(pair) == geometric_mean(swapped)
        assert harmonic_mean(pair) == harmonic_mean(swapped)
        assert identric_mean(pair) == identric_mean(swapped)
        assert q_mean(pair, 0.3, 2.0) == q_mean(swapped, 0.3, 2.0)

    @given(pairs(), st.floats(min_value=-6.0, max_value=6.0).map(lambda e: 10.0 ** e))
    @settings(max_examples=200)
    def test_homogeneity(self, pair, lam):
        scaled = PositivePair(lam * pair.a, lam * pair.b)
        for mean in (arithmetic_mean, geometric_mean, harmonic_mean):
            assert mean(scaled) == pytest.approx(lam * mean(pair), rel=4 * EPS)
        # The identric mean goes through the gap coordinate, whose
        # conditioning near v = 1 amplifies the scaling roundoff by a
        # factor ~ln(1/(1-v)); 1e-13 covers the full tested range.
        assert identric_mean(scaled) == pytest.approx(
            lam * identric_mean(pair), rel=1e-13)

    @given(pairs(min_gap=1e-6))
    @settings(max_examples=200)
    def test_ordering_chain_strict(self, pair):
        h, g = harmonic_mean(pair), geometric_mean(pair)
        i, a = identric_mean(pair), arithmetic_mean(pair)
        assert h < g < i < a

    @given(pairs())
    @settings(max_examples=200)
    def test_ordering_chain_weak(self, pair):
        h, g = harmonic_mean(pair), geometric_mean(pair)
        i, a = identric_mean(pair), arithmetic_mean(pair)
        assert h <= g * (1 + 4 * EPS)
        assert g <= i * (1 + 4 * EPS)
        assert i <= a * (1 + 4 * EPS)

    @given(st.floats(min_value=1e-8, max_value=1 - 1e-8))
    @settings(max_examples=200)
    def test_identric_consistent_with_log_ratio(self, v):
        pair = pair_from_gap(v, scale=3.0)
        reconstructed = math.exp(log_identric_over_arithmetic(gap(pair))) \
            * arithmetic_mean(pair)
        assert reconstructed == pytest.approx(identric_mean(pair), rel=1e-12)
