import math

import numpy as np
import pytest
from mpmath import iv

from meanbounds import (
    exponential_bound_constants,
    membership,
    sharp_thresholds,
    threshold_consistency,
)
from meanbounds import thresholds

from oracles import membership_class

# Frozen with mpmath at 40 digits.
FROZEN = {
    1.0: (0.1613782098514814890029, 0.2113248654051871177454),
    1.5: (0.2102687305485049657966, 0.2642977396044841585331),
    2.0: (0.2429780565510430212554, 0.2958758547680684918169),
    3.0: (0.2849412143452509818429, 1 / 3),
    5.0: (0.330068104445984533974, 0.3709005551264194371607),
    10.0: (0.3780109320944714905653, 0.4087129070824723144238),
}


def ulps_around(x, n):
    """The 2n + 1 doubles from n ulps below ``x`` to n ulps above, in order."""
    for _ in range(n):
        x = math.nextafter(x, -math.inf)
    out = [x]
    for _ in range(2 * n):
        out.append(math.nextafter(out[-1], math.inf))
    return out


class TestClosedForms:
    @pytest.mark.parametrize("s", sorted(FROZEN))
    def test_frozen_values(self, s):
        ts = sharp_thresholds(s)
        p_ref, q_ref = FROZEN[s]
        assert ts.p == pytest.approx(p_ref, rel=1e-14)
        assert ts.q == pytest.approx(q_ref, rel=1e-14)

    def test_s2_corollary_surds(self):
        ts = sharp_thresholds(2.0)
        assert ts.p == pytest.approx((1 - math.sqrt(1 - 2 / math.e)) / 2, rel=1e-15)
        assert ts.q == pytest.approx((6 - math.sqrt(6)) / 12, rel=1e-15)

    def test_s1_corollary_surds(self):
        ts = sharp_thresholds(1.0)
        assert ts.p == pytest.approx((1 - math.sqrt(1 - 4 / math.e ** 2)) / 2,
                                     rel=1e-15)
        assert ts.q == pytest.approx((3 - math.sqrt(3)) / 6, rel=1e-15)

    def test_pinned_numeric_values_s2(self):
        ts = sharp_thresholds(2.0)
        assert ts.p == pytest.approx(0.2429781, abs=1e-6)
        assert ts.q == pytest.approx(0.2958759, abs=1e-6)

    def test_rejects_s_below_one(self):
        with pytest.raises(ValueError):
            sharp_thresholds(0.5)


class TestMembership:
    def test_zero_always_lower(self):
        for s in (1.0, 2.0, 17.0):
            assert membership(0.0, s) == "lower_bound_holds"

    def test_half_always_upper(self):
        for s in (1.0, 2.0, 17.0):
            assert membership(0.5, s) == "upper_bound_holds"

    def test_gap_between_thresholds(self):
        assert membership(0.27, 2.0) == "neither"

    def test_boundaries_inclusive(self):
        # The closed-form doubles can sit an ulp on either side of the real
        # cutoffs (at s = 3, L = +3.4e-17 at the double p), so the statement
        # is about the doubles around them: the verdict flips exactly once.
        ts = sharp_thresholds(3.0)
        for cutoff, before, after in ((ts.p, "lower_bound_holds", "neither"),
                                      (ts.q, "neither", "upper_bound_holds")):
            got = [membership(t, 3.0) for t in ulps_around(cutoff, 2)]
            flips = sum(a != b for a, b in zip(got, got[1:]))
            assert flips == 1 and got[0] == before and got[-1] == after, got

    @pytest.mark.parametrize("t, s", [
        (0.7, 2.0), (-0.1, 2.0), (0.2, 0.5),
        (math.nan, 2.0), (math.inf, 2.0), (-math.inf, 2.0),
        (0.2, math.nan), (0.2, math.inf), (0.2, -math.inf),
    ])
    def test_rejects_bad_t(self, t, s):
        with pytest.raises(ValueError):
            membership(t, s)


class TestMembershipExact:
    """``membership`` decides the theorem for the exact doubles passed in."""

    @pytest.mark.parametrize("s", [1.0, 1.5, 2.0, 3.7, 5.0, 10.0, 20.0, 50.0])
    def test_matches_oracle_near_cutoffs(self, s):
        ts = sharp_thresholds(s)
        for cutoff in (ts.p, ts.q):
            for t in ulps_around(cutoff, 64):
                assert membership(t, s) == membership_class(t, s), (s, t.hex())

    @pytest.mark.parametrize("s", [1.0, 2.0])
    def test_q_and_next_double_are_neither(self, s):
        # 3su - 1 is +2.7e-16 and +7.6e-17 at s = 1: f < 0 near x = 0.
        q = sharp_thresholds(s).q
        assert membership(q, s) == "neither"
        assert membership(math.nextafter(q, 1.0), s) == "neither"

    def test_p_is_neither_at_s1(self):
        # L = +5.3e-18 at the double p.
        assert membership(sharp_thresholds(1.0).p, 1.0) == "neither"

    def test_precision_doubles_until_the_sign_is_resolved(self, monkeypatch):
        # 8 bits cannot resolve |L| ~ 1e-16; the doublings must.
        monkeypatch.setattr(thresholds, "_LIMIT_PREC", 8)
        p = sharp_thresholds(1.0).p
        for t in ulps_around(p, 2):
            assert membership(t, 1.0) == membership_class(t, 1.0)

    def test_unresolved_sign_raises_and_restores_precision(self, monkeypatch):
        monkeypatch.setattr(thresholds, "_LIMIT_PREC", 16)
        monkeypatch.setattr(thresholds, "_LIMIT_PREC_CAP", 32)
        saved = iv.prec
        iv.prec = 123
        try:
            with pytest.raises(RuntimeError):
                membership(sharp_thresholds(1.0).p, 1.0)
            assert iv.prec == 123
            assert membership(0.1, 1.0) == "lower_bound_holds"
            assert iv.prec == 123
        finally:
            iv.prec = saved


class TestExponentialConstants:
    def test_values(self):
        const = exponential_bound_constants()
        assert const.lower == 1 / 6
        assert const.upper == pytest.approx(0.3068528194400546905828, rel=1e-15)
        assert const.lower < const.upper


class TestStructure:
    def test_consistency_round_trip(self):
        for s in (1.0, 1.5, 2.0, 10.0, 100.0, 1e6):
            assert threshold_consistency(s)

    def test_monotone_toward_half(self):
        ss = np.linspace(1.0, 100.0, 400)
        ps = np.array([sharp_thresholds(s).p for s in ss])
        qs = np.array([sharp_thresholds(s).q for s in ss])
        assert np.all(np.diff(ps) > 0)
        assert np.all(np.diff(qs) > 0)
        assert ps[-1] < 0.5 and qs[-1] < 0.5

    def test_p_below_q_everywhere(self):
        for s in np.geomspace(1.0, 1e6, 60):
            ts = sharp_thresholds(float(s))
            assert ts.p < ts.q

    def test_large_s_limit_forms(self):
        # The bounds at (p_s, q_s) converge to exp-type bounds as s grows:
        # (1 - v^2/(3s))^(-s/2) -> exp(v^2/6) and the p-side counterpart
        # tends to exp((1 - ln 2) v^2).
        s = 1e6
        one_minus_pow = -math.expm1((2.0 / s) * (math.log(2.0) - 1.0))
        for v in (0.1, 0.5, 0.9):
            q_form = math.exp(-0.5 * s * math.log1p(-v * v / (3.0 * s)))
            assert q_form == pytest.approx(math.exp(v * v / 6.0), rel=1e-5)
            p_form = math.exp(-0.5 * s * math.log1p(-one_minus_pow * v * v))
            assert p_form == pytest.approx(
                math.exp((1.0 - math.log(2.0)) * v * v), rel=1e-5)
