import hashlib
import math
import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from meanbounds import (FamilyParams, certificate_succeeded, certify_sign, intervals,
                        sharp_thresholds)
from meanbounds.intervals import (_LIBM_ULPS, TAYLOR_K, TAYLOR_X0, _add, _div, _endpoint_enclosure,
                                  _monotone_bounds, _mul, _mul_nonneg, _one_minus_u, _sub,
                                  _taylor_enclosure, _u_enclosure)
from meanbounds.thresholds import EVAL_LIMIT

import interval_reference as reference
from oracles import family_log_ratio_and_quotient_t, family_log_ratio_u

finite = st.floats(min_value=-1e12, max_value=1e12, allow_nan=False)


def as_pair(x, width):
    return x, x + abs(width)


class TestArithmeticContainment:
    """Each float-pair primitive holds the exact result at every corner."""

    @given(finite, finite, st.floats(min_value=0, max_value=10.0),
           st.floats(min_value=0, max_value=10.0))
    @settings(max_examples=200)
    def test_add_sub_mul(self, a, b, wa, wb):
        ia, ib = as_pair(a, wa), as_pair(b, wb)
        corners = [(Fraction(x), Fraction(y)) for x in ia for y in ib]
        for (lo, hi), exact_op in ((_add(*ia, *ib), lambda x, y: x + y),
                                   (_sub(*ia, *ib), lambda x, y: x - y),
                                   (_mul(*ia, *ib), lambda x, y: x * y)):
            for x, y in corners:
                exact = exact_op(x, y)
                assert Fraction(lo) <= exact <= Fraction(hi)

    @given(finite, st.floats(min_value=1e-6, max_value=1e6),
           st.floats(min_value=0, max_value=10.0),
           st.floats(min_value=0, max_value=1.0))
    @settings(max_examples=200)
    def test_division(self, a, b, wa, wb):
        ia, ib = as_pair(a, wa), as_pair(b, wb)
        q_lo, q_hi = _div(*ia, *ib)
        for x in ia:
            for y in ib:
                exact = Fraction(x) / Fraction(y)
                assert Fraction(q_lo) <= exact <= Fraction(q_hi)

    def test_division_by_zero_straddling_interval_rejected(self):
        for denominator in ((-1.0, 1.0), (0.0, 1.0), (-1.0, 0.0)):
            with pytest.raises(ZeroDivisionError):
                _div(1.0, 2.0, *denominator)

    def test_empty_interval_rejected(self):
        # The reference that the composition tests compare against.
        with pytest.raises(ValueError):
            reference.Interval(2.0, 1.0)


# Any finite double; the signed zeros, the smallest subnormal and the largest
# magnitudes are drawn by name as well as by chance.
_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
          -1.7976931348623157e308]
any_double = st.sampled_from(_EDGES) | st.floats(allow_nan=False, allow_infinity=False)
nonneg_double = (st.sampled_from([v for v in _EDGES if v >= 0.0])
                 | st.floats(min_value=0.0, allow_infinity=False))


def _bits(pair):
    return tuple(v.hex() for v in pair)


class TestTwoCornerProduct:
    """``_mul_nonneg`` gives ``_mul``'s doubles, bit for bit, whenever the
    second factor's ``lo >= 0``, whatever the sign of the first."""

    @given(any_double, any_double, nonneg_double, nonneg_double)
    @settings(max_examples=500)
    def test_equals_four_corner_product(self, a1, a2, b1, b2):
        alo, ahi = sorted((a1, a2))
        blo, bhi = sorted((b1, b2))
        assert _bits(_mul_nonneg(alo, ahi, blo, bhi)) == _bits(_mul(alo, ahi, blo, bhi))


_SMALLEST_NORMAL = 2.2250738585072014e-308
_MAX = 1.7976931348623157e308


def _binade_edges():
    """``+-2^e`` for every 7th ``e`` from -1074 and for 1023, each with the
    three doubles on either side of it."""
    xs = []
    for e in [*range(-1074, 1024, 7), 1023]:
        for edge in (2.0 ** e, -2.0 ** e):
            xs.append(edge)
            for k in (1, 2, 3):
                xs += reference.widen_loop(edge, k)
    return xs


class TestWiden:
    """``_widen`` gives the doubles of the one-step-at-a-time loop in
    ``tests/interval_reference.py``, bit for bit: compared by ``float.hex``,
    so the sign of a zero counts."""

    SPECIAL = [0.0, -0.0, 5e-324, -5e-324,
               *reference.widen_loop(_SMALLEST_NORMAL, 1), _SMALLEST_NORMAL,
               *reference.widen_loop(-_SMALLEST_NORMAL, 1), -_SMALLEST_NORMAL,
               _MAX, -_MAX, math.inf, -math.inf, math.nan]

    @pytest.mark.parametrize("n", [1, 3, 4])
    def test_zeros_subnormals_extremes_and_nan(self, n):
        for x in self.SPECIAL:
            assert _bits(intervals._widen(x, n)) == _bits(reference.widen_loop(x, n)), x

    @pytest.mark.parametrize("n", [1, 3, 4])
    def test_around_binade_edges(self, n):
        xs = _binade_edges()
        assert len(xs) > 2000
        for x in xs:
            assert _bits(intervals._widen(x, n)) == _bits(reference.widen_loop(x, n)), x

    @given(any_double, st.sampled_from([1, 3, 4]))
    @settings(max_examples=500)
    def test_any_double(self, x, n):
        assert _bits(intervals._widen(x, n)) == _bits(reference.widen_loop(x, n))


class TestEndpointStepCount:
    """An endpoint enclosure's widenings take their ulps in one step each.

    Counted, not timed: at x = 0.7 the products, sums and quotients round
    outward by 22 ``nextafter`` calls (12 for h, 10 for m2), and x < 1/2
    adds two for ``1 - x``; the four ``_LIBM_ULPS`` widenings of libm
    results take none.  Taken one step at a time they would add 32.
    """

    @pytest.mark.parametrize("x, calls", [(0.7, 22), (0.3, 24)])
    def test_nextafter_calls_per_enclosure(self, monkeypatch, x, calls):
        enclose = _endpoint_enclosure(FamilyParams.from_t(0.2, 2.0))
        counted = []

        def counting(a, b):
            counted.append(a)
            return math.nextafter(a, b)
        monkeypatch.setattr(intervals, "nextafter", counting)
        enclose(x)
        assert len(counted) == calls


class TestOneMinusU:
    """The enclosure of 1 - u holds the exact value for the double t or u."""

    def test_from_t_against_exact_fraction(self):
        rng = random.Random(0)
        # 0.4989659448751263 rounds 4t(1-t) 1.497 ulps away from the exact value.
        ts = [0.0, 0.5, 0.4989659448751263, 1e-300]
        ts += [rng.uniform(0.0, 0.5) for _ in range(20_000)]
        for t in ts:
            lo, hi = _one_minus_u(FamilyParams.from_t(t, 2.0))
            exact = 4 * Fraction(t) * (1 - Fraction(t))
            assert Fraction(lo) <= exact <= Fraction(hi), t

    def test_from_u_against_exact_fraction(self):
        rng = random.Random(1)
        for u in [0.0, 1.0, 1e-300] + [rng.random() for _ in range(2_000)]:
            lo, hi = _one_minus_u(FamilyParams.from_u(u, 2.0))
            assert Fraction(lo) <= 1 - Fraction(u) <= Fraction(hi), u


class TestUEnclosure:
    """The enclosure of u holds the exact (1 - 2t)^2 of the double t."""

    def test_from_t_against_exact_fraction(self):
        rng = random.Random(10)
        ts = [0.0, 0.5, 0.25, math.nextafter(0.25, 0.0), 1e-300, 0.5 - 2.0 ** -53]
        ts += [rng.uniform(0.0, 0.5) for _ in range(20_000)]
        for t in ts:
            lo, hi = _u_enclosure(FamilyParams.from_t(t, 2.0))
            exact = (1 - 2 * Fraction(t)) ** 2
            assert Fraction(lo) <= exact <= Fraction(hi), t


def _taylor_nodes(rng):
    """[0, b], random [a, b], the point nodes [x, x] and [0, 0], and
    [0, TAYLOR_X0], all inside [0, TAYLOR_X0]."""
    nodes = [(0.0, 0.0), (0.0, TAYLOR_X0), (TAYLOR_X0, TAYLOR_X0)]
    for _ in range(4):
        a, b = sorted(rng.uniform(0.0, TAYLOR_X0) for _ in range(2))
        x = rng.uniform(0.0, TAYLOR_X0)
        nodes += [(0.0, b), (a, b), (x, x)]
    return nodes


class TestTaylorEnclosure:
    """The series enclosure of ``g = f / x^2`` and of ``f = x^2 g`` holds the
    60-digit values at both ends and the midpoint of nodes in [0, TAYLOR_X0].
    The tail bound holds for every K, so fewer terms, whose tail then
    matters, check the tail as well as the default."""

    @pytest.mark.parametrize("terms", [TAYLOR_K, 20, 3, 1])
    @pytest.mark.parametrize("u", [0.0, 1e-12, "random", 0.99, 1.0])
    def test_contains_high_precision_values(self, monkeypatch, terms, u):
        monkeypatch.setattr(intervals, "TAYLOR_K", terms)
        rng = random.Random(f"{terms}-{u}")
        for s in (1.0, 1.5, 2.0, 5.0, 20.0, 50.0):
            u_value = rng.random() if u == "random" else u
            params = FamilyParams.from_t(0.5 * (1.0 - math.sqrt(u_value)), s)
            enclose = _taylor_enclosure(params)
            for a, b in _taylor_nodes(rng):
                g_lo, g_hi, f_lo, f_hi = enclose(a, b)
                for x in (a, 0.5 * (a + b), b):
                    f, g = family_log_ratio_and_quotient_t(params.t, s, x)
                    assert g_lo <= g <= g_hi, (s, u_value, a, b, x)
                    assert f_lo <= f <= f_hi, (s, u_value, a, b, x)

    def test_bounds_equal_interval_composition(self):
        rng = random.Random(11)
        params = _endpoint_params(rng)
        for _ in range(30):
            p = next(params)
            enclose = _taylor_enclosure(p)
            for a, b in _taylor_nodes(rng):
                g, f = reference.taylor_enclosure(p, a, b)
                assert enclose(a, b) == (g.lo, g.hi, f.lo, f.hi), (a, b, p)

    def test_constants_meet_the_tail_rule(self):
        # The rule derived beside the constants: the tail factor X^K / (1 - X)
        # at X = TAYLOR_X0^2 stays below 1.4e-21, so K cannot shrink alone.
        x0_sq = Fraction(TAYLOR_X0) ** 2
        assert x0_sq ** TAYLOR_K / (1 - x0_sq) < Fraction("1.4e-21")

    @pytest.mark.parametrize("s", [1.0, 2.0, 10.0, 50.0])
    def test_one_node_proves_up_to_x0(self, s):
        ts = sharp_thresholds(s)
        for t, sign in ((ts.q + 1e-15, "positive"), (ts.p - 1e-15, "negative")):
            nodes = certify_sign(t, s, 0.0, TAYLOR_X0, sign)
            assert len(nodes) == 1 and certificate_succeeded(nodes, sign), (t, sign)

    def test_zero_endpoint_is_exact(self):
        e = _endpoint_enclosure(FamilyParams.from_t(0.2, 2.0))(0.0)
        assert (e.x, e.h_lo, e.h_hi, e.m2_lo, e.m2_hi) == (0.0, 0.0, 0.0, 0.0, 0.0)


@st.composite
def subintervals(draw):
    """[lo, hi] inside [1e-4, 0.999], next to 0 inside [1e-8, 1.3e-4], or
    next to 1 inside [0.98, 1 - 1e-12]."""
    width = draw(st.floats(min_value=1e-6, max_value=0.3))
    region = draw(st.sampled_from(["compact", "near_zero", "near_one"]))
    if region == "compact":
        lo = draw(st.floats(min_value=1e-4, max_value=0.98))
        return lo, min(lo * (1.0 + width) + 1e-9, 0.999)
    if region == "near_zero":
        lo = 10.0 ** draw(st.floats(min_value=-8.0, max_value=-4.0))
        return lo, lo * (1.0 + width)
    # Distances to 1 from 1e-12 to 0.02, log-uniform.
    d_lo = 10.0 ** draw(st.floats(min_value=-12.0, max_value=math.log10(0.02)))
    return 1.0 - d_lo, min(1.0 - d_lo * (1.0 - width), 1.0 - 1e-12)


def node_bounds(params, lo, hi):
    """The bounds of a monotone certificate node [lo, hi]."""
    enclose = _endpoint_enclosure(params)
    return _monotone_bounds(enclose(lo), enclose(hi))


class TestLogRatioEnclosure:
    @given(st.floats(min_value=0.0, max_value=1.0),
           st.floats(min_value=1.0, max_value=10.0),
           subintervals())
    @settings(max_examples=400, deadline=None)
    def test_contains_high_precision_value(self, u, s, interval):
        lo, hi = interval
        assume(lo < hi)
        params = FamilyParams.from_u(u, s)
        enc = node_bounds(params, lo, hi)
        with mp.workdps(40):
            for x in (lo, hi, 0.5 * (lo + hi)):
                truth = family_log_ratio_u(params.u, s, x)
                # The point node [x, x] leaves no slack but the rounding.
                for e_lo, e_hi in (enc, node_bounds(params, x, x)):
                    assert mp.mpf(e_lo) <= truth <= mp.mpf(e_hi)

    def test_width_shrinks_with_interval(self):
        params = FamilyParams.from_u(0.3, 2.0)
        wide, narrow, point = (hi - lo for lo, hi in (
            node_bounds(params, 0.2, 0.4),
            node_bounds(params, 0.29, 0.31),
            node_bounds(params, 0.3, 0.3)))
        assert point < narrow < wide
        assert point < 1e-13


def _endpoint_params(rng):
    """u = 0, u = 1 (t = 0), or a random (t, s) with s <= 50, in turn."""
    while True:
        yield FamilyParams.from_u(0.0, rng.uniform(1.0, 50.0))
        yield FamilyParams.from_t(0.0, rng.uniform(1.0, 50.0))
        yield FamilyParams.from_t(rng.uniform(0.0, 0.5), rng.uniform(1.0, 50.0))


def _endpoint_xs(rng, count):
    """Log-uniform x in [5e-324, 0.5], x = 1/2 and its neighbours (the exact
    1 - x branch starts there), and distances to 1 down to 1 - EVAL_LIMIT."""
    xs = [5e-324, EVAL_LIMIT]
    x = y = 0.5
    for _ in range(8):
        xs += [x, y]
        x, y = math.nextafter(x, 0.0), math.nextafter(y, 1.0)
    while len(xs) < count:
        xs.append(min(0.5, 10.0 ** rng.uniform(-323.3, math.log10(0.5))))
        xs.append(1.0 - 10.0 ** rng.uniform(-12.0, math.log10(0.5)))
    return xs


class TestEndpointEnclosure:
    """The float-pair kernel gives the same bounds as the same steps composed
    from ``Interval`` operators in ``tests/interval_reference.py``."""

    def test_bounds_equal_interval_composition(self):
        rng = random.Random(7)
        params = _endpoint_params(rng)
        xs = _endpoint_xs(rng, 20_000)
        for x in xs:
            p = next(params)
            e = _endpoint_enclosure(p)(x)
            h, m2 = reference.h_point(x), reference.m2_point(p, x)
            assert (e.x, e.h_lo, e.h_hi, e.m2_lo, e.m2_hi) == (x, h.lo, h.hi, m2.lo, m2.hi), (x, p)
        assert len(xs) >= 20_000

    def test_enclosure_of_doubles_equals_interval_composition(self):
        rng = random.Random(8)
        params = _endpoint_params(rng)
        xs = _endpoint_xs(rng, 600)
        rng.shuffle(xs)
        for lo, hi in zip(xs[::2], xs[1::2]):
            lo, hi = min(lo, hi), max(lo, hi)
            p = next(params)
            ref = reference.enclose_log_ratio(p, lo, hi)
            assert node_bounds(p, lo, hi) == (ref.lo, ref.hi)


def _shifted(f, ulps):
    """``f`` with its result moved ``ulps`` ulps up (ulps > 0) or down."""
    toward = math.copysign(math.inf, ulps)

    def g(v):
        y = f(v)
        for _ in range(abs(ulps)):
            y = math.nextafter(y, toward)
        return y
    return g


def _mp_pieces(params, x):
    """h(x) and (s/2) ln(1 - u x^2) at 60 digits, u exact for the double t."""
    with mp.workdps(60):
        x = mp.mpf(x)
        h = 1 - ((1 + x) * mp.log1p(x) - (1 - x) * mp.log1p(-x)) / (2 * x)
        u = (1 - 2 * mp.mpf(params.t)) ** 2
        return h, mp.mpf(params.s) / 2 * mp.log1p(-u * x * x)


class TestLibmAllowance:
    """Each libm log and log1p result may be off by ``_LIBM_ULPS`` ulps: with
    both shifted that far, up or down, the pieces still hold the truth."""

    @pytest.mark.parametrize("direction", [1, -1])
    def test_pieces_contain_truth_with_shifted_libm(self, monkeypatch, direction):
        monkeypatch.setattr(intervals, "_log", _shifted(math.log, direction * _LIBM_ULPS))
        monkeypatch.setattr(intervals, "_log1p", _shifted(math.log1p, direction * _LIBM_ULPS))
        rng = random.Random(9)
        params = _endpoint_params(rng)
        xs = _endpoint_xs(rng, 3000)
        failures = []
        for x in xs:
            p = next(params)
            e = _endpoint_enclosure(p)(x)
            h, m2 = _mp_pieces(p, x)
            if not (e.h_lo <= h <= e.h_hi and e.m2_lo <= m2 <= e.m2_hi):
                failures.append((x, p))
        assert not failures, (len(failures), failures[:3])


def _digest_cases():
    """Certificates of ``p - delta`` (negative) and ``q + delta`` (positive)
    from the open left end, on a compact range and next to 1, and one run
    stopped by its budget."""
    cases = []
    for s in (1.0, 2.0, 5.0, 10.0, 50.0):
        ts = sharp_thresholds(s)
        for delta in (1e-2, 1e-3, 1e-6, 1e-12):
            for t, sign in ((ts.p - delta, "negative"), (ts.q + delta, "positive")):
                for x_lo, x_hi in ((0.0, 0.99), (0.01, 0.99), (0.99, EVAL_LIMIT)):
                    cases.append((t, s, x_lo, x_hi, sign, 100_000))
    cases.append((sharp_thresholds(2.0).p - 1e-2, 2.0, 0.01, 0.99, "negative", 7))
    return cases


# sha256 of every node of the _digest_cases certificates, one line per node:
# the float.hex of x_lo, x_hi, bound_lo and bound_hi, then the status.
# Recorded from the loop that carried endpoint enclosures from parent to
# child; any change to a bound, a status or the node order changes it.
_CERTIFICATE_DIGEST = "bfd65c9a3b0d02097ffd092cb1af5126b3f7fee1b6ad9fe60eb3f63197037bef"


class TestCertificateDigest:
    def test_node_lists_match_the_recorded_digest(self):
        digest = hashlib.sha256()
        for case in _digest_cases():
            for n in certify_sign(*case):
                digest.update(f"{n.x_lo.hex()} {n.x_hi.hex()} {n.bound_lo.hex()} "
                              f"{n.bound_hi.hex()} {n.status}\n".encode())
        assert digest.hexdigest() == _CERTIFICATE_DIGEST

    def test_each_endpoint_is_enclosed_once(self, monkeypatch):
        # The endpoints of the nodes above TAYLOR_X0, each enclosed once; the
        # endpoint enclosure is set up only for a certificate that has such a
        # node, as the last, all-Taylor case has not.
        setups, enclosed = [], []
        endpoint_enclosure = intervals._endpoint_enclosure

        def counting(params):
            setups.append(params)
            enclose = endpoint_enclosure(params)

            def wrapped(x):
                enclosed.append(x)
                return enclose(x)
            return wrapped

        monkeypatch.setattr(intervals, "_endpoint_enclosure", counting)
        all_taylor = (sharp_thresholds(2.0).p - 1e-3, 2.0, 0.0, TAYLOR_X0, "negative")
        for case in _digest_cases() + [all_taylor]:
            setups.clear()
            enclosed.clear()
            nodes = certify_sign(*case)
            ends = {x for n in nodes if n.x_hi > TAYLOR_X0 for x in (n.x_lo, n.x_hi)}
            assert sorted(enclosed) == sorted(ends), case
            assert len(setups) == (1 if ends else 0), case


def _reference_point_sign(params, x):
    """The sign rule at ``[x, x]`` composed from ``tests/interval_reference.py``."""
    if x <= TAYLOR_X0:
        enclosure = reference.taylor_enclosure(params, x, x)[0]
    else:
        enclosure = reference.enclose_log_ratio(params, x, x)
    return -1 if enclosure.hi < 0.0 else 1 if enclosure.lo > 0.0 else 0


class TestPointSign:
    """``_point_sign`` gives the reference rule's sign at every point, on
    both sides of TAYLOR_X0 and where the bounds straddle 0."""

    def test_agrees_with_reference_rule(self):
        rng = random.Random(12)
        params = _endpoint_params(rng)
        cutoffs = [FamilyParams.from_t(t, ts.s) for ts in map(sharp_thresholds, (1.0, 2.0, 10.0, 50.0))
                   for t in (ts.p, ts.q)]
        seen = set()
        for p in cutoffs + [next(params) for _ in range(40)]:
            sign = intervals._point_sign(p)
            xs = [5e-324, 1e-8, TAYLOR_X0, math.nextafter(TAYLOR_X0, 1.0), EVAL_LIMIT]
            xs += [rng.uniform(0.0, TAYLOR_X0) for _ in range(20)]
            xs += [rng.uniform(TAYLOR_X0, EVAL_LIMIT) for _ in range(20)]
            for x in xs:
                got = sign(x)
                assert got == _reference_point_sign(p, x), (p, x)
                seen.add(got)
        assert seen == {-1, 0, 1}
