import hashlib
import math
import pickle
import random
import sys
from functools import partial

import mpmath as mp
import numpy as np
import pytest

import meanbounds
from meanbounds import (
    FamilyParams,
    GridSpec,
    certificate_leaves,
    certificate_succeeded,
    certify_sign,
    empirical_threshold,
    derivative_kernel,
    exp_bound_margin,
    exponential_bound_constants,
    falsify,
    grid_points,
    log_identric_over_arithmetic,
    log_ratio_q_over_i,
    membership,
    sharp_thresholds,
    verify_convex_power_bound,
    verify_exponential_bounds,
    verify_family_inequality,
    verify_two_thirds_power,
)

from meanbounds import family, means, verify, witness
from meanbounds.family import _Pieces, _log_ratio_with_scale, _lr_with_error_scale
from meanbounds.intervals import TAYLOR_X0
from meanbounds.thresholds import EVAL_LIMIT
from meanbounds.verify import _EPS, _NOISE_C, CertificateNode, FalsificationResult
from interval_reference import enclose_log_ratio as reference_enclosure
from interval_reference import taylor_enclosure as reference_taylor
from oracles import (exp_margin, family_log_ratio_and_quotient_t, family_log_ratio_iv,
                     family_log_ratio_t, family_log_ratio_u, lr_gap, power_margin)
from test_startup import python
from test_thresholds import ulps_around

SMALL_GRID = GridSpec(count=2000)


class TestGridSpec:
    def test_refined_grid_structure(self):
        spec = GridSpec(count=1000)
        xs = grid_points(spec)
        assert xs.size == 1000
        assert xs[0] == spec.x_min and xs[-1] == spec.x_max
        assert np.all(np.diff(xs) > 0)
        # geometric accumulation at both ends
        assert np.sum(xs < 1e-6) > 100
        assert np.sum(xs > 1 - 1e-6) > 100

    def test_uniform_grid(self):
        xs = grid_points(GridSpec(count=11, spacing="uniform",
                                  x_min=0.1, x_max=0.9))
        np.testing.assert_allclose(xs, np.linspace(0.1, 0.9, 11), rtol=0)

    @pytest.mark.parametrize("kwargs", [
        dict(count=1),
        dict(count=math.inf),
        dict(count=math.nan),
        dict(count=2.5),
        dict(spacing="random"),
        dict(x_min=0.0),
        dict(x_min=0.9, x_max=0.1),
        dict(x_max=1.0),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            GridSpec(**kwargs)

    @pytest.mark.parametrize("spacing", ["uniform", "endpoint_refined"])
    def test_integral_float_count(self, spacing):
        spec = GridSpec(count=10.0, spacing=spacing)
        assert type(spec.count) is int
        assert grid_points(spec).size == 10


class TestFamilyVerification:
    def test_holds_at_sharp_lower(self):
        ts = sharp_thresholds(2.0)
        report = verify_family_inequality(ts.p, 2.0, "lower")
        assert report.verdict == "holds_on_grid"
        assert report.worst_margin >= 0.0
        assert report.witness is None
        assert report.samples == 10_000

    def test_violated_above_sharp_lower(self):
        ts = sharp_thresholds(2.0)
        report = verify_family_inequality(ts.p + 1e-3, 2.0, "lower")
        assert report.verdict == "violated"
        assert report.worst_margin < 0.0
        assert report.witness is not None
        assert report.witness.x > 0.99
        assert report.witness.margin_recheck < 0.0

    def test_violated_below_sharp_upper(self):
        ts = sharp_thresholds(2.0)
        report = verify_family_inequality(ts.q - 1e-3, 2.0, "upper")
        assert report.verdict == "violated"
        assert report.witness.x < 0.2

    def test_witness_pair_realizes_gap(self):
        ts = sharp_thresholds(1.0)
        report = verify_family_inequality(ts.p + 1e-2, 1.0, "lower")
        a, b = report.witness.pair
        assert (a - b) / (a + b) == pytest.approx(report.witness.x, rel=1e-12)

    def test_soundness_witness_reverses_at_high_precision(self):
        for s, t, side in [(2.0, sharp_thresholds(2.0).p + 1e-3, "lower"),
                           (3.0, sharp_thresholds(3.0).q - 1e-3, "upper")]:
            report = verify_family_inequality(t, s, side)
            w = report.witness
            sign = -1.0 if side == "lower" else 1.0
            assert sign * float(family_log_ratio_t(t, s, w.x)) < 0.0

    @pytest.mark.parametrize("s", [1e308, 1.1e308])
    def test_witness_is_least_margin_at_extreme_s(self, s):
        # Next to x = 1 the margin is least and its direct scale 4 (2 + |m2|)
        # would overflow; the floor stays finite, so that point is a candidate
        # and the witness, with no overflow anywhere in the check.
        with np.errstate(over="raise"):
            report = verify_family_inequality(0.01, s, "upper")
        w = report.witness
        assert w.margin == report.worst_margin < -1e308
        assert w.x == grid_points(GridSpec())[-1]
        assert w.margin_recheck == verify._mp_family_margin(0.01, s, "upper", w.x) < 0.0

    def test_determinism(self):
        ts = sharp_thresholds(1.5)
        a = verify_family_inequality(ts.p + 1e-3, 1.5, "lower")
        b = verify_family_inequality(ts.p + 1e-3, 1.5, "lower")
        assert a == b

    def test_side_validation(self):
        with pytest.raises(ValueError):
            verify_family_inequality(0.2, 2.0, "sideways")


class TestFloorCalibration:
    """The observed float-core error stays below a quarter of the noise floor.

    Checked against the mpmath oracles on a refined grid reaching
    ``1 - 1e-12``, so a margin clamped inside its floor is rounding noise
    with room to spare, whatever the point's distance from 0 or 1.
    """

    XS = grid_points(GridSpec(count=400, x_max=1.0 - 1e-12))

    def _assert_within_gate(self, vals, scale, oracle):
        want = np.array([float(oracle(x)) for x in self.XS])
        scale = scale(0, self.XS.size)
        assert np.all(np.abs(vals - want) <= _NOISE_C * _EPS * scale / 4)

    @pytest.mark.parametrize("u, s", [(0.0, 1.0), (0.3, 2.0), (0.9, 5.0),
                                      (1.0, 1.0), (0.05, 10.0), (1 / 3, 1.0),
                                      (0.3, 20.0), (0.3, 50.0), (1 / 150, 50.0),
                                      (0.9, 50.0)])
    def test_family_log_ratio(self, u, s):
        vals, scale = _log_ratio_with_scale(FamilyParams.from_u(u, s),
                                            _Pieces(self.XS))
        self._assert_within_gate(vals, scale,
                                 lambda x: family_log_ratio_u(u, s, x))

    def test_log_identric_over_arithmetic(self):
        self._assert_within_gate(*_lr_with_error_scale(_Pieces(self.XS)), lr_gap)


class TestFalsify:
    def test_lower_witness_near_one(self):
        t = sharp_thresholds(1.0).p + 1e-2
        result = falsify(t, 1.0, "lower")
        assert result.found
        assert result.witness.x > 0.99
        assert result.witness.margin_recheck < 0.0

    def test_upper_witness_near_zero(self):
        t = sharp_thresholds(1.0).q - 1e-2
        result = falsify(t, 1.0, "upper")
        assert result.found
        assert result.witness.x < 0.1

    def test_precondition_inside_interval(self):
        ts = sharp_thresholds(2.0)
        assert membership(ts.p, 2.0) == "lower_bound_holds"
        with pytest.raises(ValueError, match="nothing to falsify"):
            falsify(ts.p, 2.0, "lower")
        assert membership(0.4, 2.0) == "upper_bound_holds"
        with pytest.raises(ValueError, match="nothing to falsify"):
            falsify(0.4, 2.0, "upper")

    def test_not_found_just_past_threshold(self):
        # One ulp past the closed-form double p the lower side still holds
        # at s = 2 (the exact cutoff lies above it): nothing to falsify.
        # At s = 1 the double p lies past the exact cutoff (L = +5.3e-18):
        # the side fails, but below the noise floor at every ladder point.
        p2 = math.nextafter(sharp_thresholds(2.0).p, 1.0)
        assert membership(p2, 2.0) == "lower_bound_holds"
        with pytest.raises(ValueError, match="nothing to falsify"):
            falsify(p2, 2.0, "lower")
        p1 = sharp_thresholds(1.0).p
        assert membership(p1, 1.0) == "neither"
        result = falsify(p1, 1.0, "lower")
        assert not result.found
        assert result.witness is None
        assert "precision" in result.note or "resolution" in result.note

    def test_builds_no_pieces_or_grid(self, monkeypatch):
        # The ladder's margins are evaluated point by point in math.
        def refused(*args):
            raise AssertionError("falsify built array pieces or a grid")

        for module, name in ((family, "_Pieces"), (verify, "_Pieces"),
                             (verify, "grid_points"), (verify, "_grid")):
            monkeypatch.setattr(module, name, refused)
        assert falsify(0.3, 2.0, "lower").found and falsify(0.2, 2.0, "upper").found
        assert not falsify(sharp_thresholds(1.0).p, 1.0, "lower").found

    def test_attempts_count_rechecks_when_found(self):
        ts = sharp_thresholds(1.0)
        assert falsify(ts.p + 1e-2, 1.0, "lower").attempts == 1
        assert falsify(ts.q - 1e-2, 1.0, "upper").attempts == 1

    def test_attempts_is_ladder_length_when_not_found(self):
        assert falsify(sharp_thresholds(1.0).p, 1.0, "lower").attempts == 10

    @pytest.mark.parametrize("s", [1.0, 1.5, 2.0, 3.0, 5.0, 20.0])
    def test_refuses_exactly_where_membership_holds(self, s):
        # The closed-form doubles sit on either side of the exact cutoffs;
        # only membership decides whether there is anything to falsify.
        ts = sharp_thresholds(s)
        for cutoff, side in ((ts.p, "lower"), (ts.q, "upper")):
            for t in ulps_around(cutoff, 8):
                if membership(t, s) == f"{side}_bound_holds":
                    with pytest.raises(ValueError, match="nothing to falsify"):
                        falsify(t, s, side)
                else:
                    assert isinstance(falsify(t, s, side), FalsificationResult)


class TestEmpiricalThreshold:
    def test_recovers_lower_s2(self):
        ts = sharp_thresholds(2.0)
        got = empirical_threshold(2.0, "lower", SMALL_GRID, tol=1e-6)
        assert got == pytest.approx(ts.p, abs=1e-5)

    def test_recovers_upper_s1(self):
        ts = sharp_thresholds(1.0)
        got = empirical_threshold(1.0, "upper", SMALL_GRID, tol=1e-6)
        assert got == pytest.approx(ts.q, abs=1e-5)

    @pytest.mark.parametrize("s", [1.0, 1.5, 2.0, 3.0, 10.0])
    def test_sharpness_sandwich(self, s):
        ts = sharp_thresholds(s)
        assert empirical_threshold(s, "lower", SMALL_GRID, tol=1e-6) \
            == pytest.approx(ts.p, abs=1e-5)
        assert empirical_threshold(s, "upper", SMALL_GRID, tol=1e-6) \
            == pytest.approx(ts.q, abs=1e-5)

    def test_tolerance_floor(self):
        with pytest.raises(ValueError):
            empirical_threshold(2.0, "lower", tol=1e-9)

    @pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf, -1.0, 0.3, 0.5])
    @pytest.mark.parametrize("side", ["lower", "upper"])
    def test_bad_s_is_refused_as_sharp_thresholds_refuses_it(self, s, side):
        # These once came back as numbers: 4.77e-07 at s = nan (lower).
        with pytest.raises(ValueError) as expected:
            sharp_thresholds(s)
        with pytest.raises(ValueError) as got:
            empirical_threshold(s, side, SMALL_GRID)
        assert str(got.value) == str(expected.value)


def _reference_threshold(s, side, grid, tol):
    """Bisection in t with the public grid check as the predicate."""
    lo, hi = 0.0, 0.5
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        holds = verify_family_inequality(mid, s, side, grid).verdict == "holds_on_grid"
        if holds == (side == "lower"):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestEmpiricalThresholdIdentity:
    """Grid work shared across steps changes no step of the bisection."""

    @pytest.mark.parametrize("s", [1.0, 2.0, 5.0, 50.0])
    @pytest.mark.parametrize("side", ["lower", "upper"])
    @pytest.mark.parametrize("grid", [None, GridSpec(count=512),
                                      GridSpec(count=2000, spacing="uniform")])
    def test_equals_reference_bisection(self, s, side, grid):
        assert empirical_threshold(s, side, grid, tol=1e-6) \
            == _reference_threshold(s, side, grid, 1e-6)


def _report_digest_reprs():
    """The reprs of seeded 512-point reports of every check, each on both
    sides of its sharp constants: the family check on both sides of ``p``
    and ``q``, ``falsify`` on the side that fails, the exponential bounds,
    the convex power bound at ``p = 1`` and ``p`` in [2, 4], and the
    two-thirds power in its three bands."""
    rng = random.Random(2022)
    grid = GridSpec(count=512)
    deltas = (1e-2, 1e-4, 1e-7)
    for s in [1.0, 2.0, 50.0] + [rng.uniform(1.0, 50.0) for _ in range(13)]:
        ts = sharp_thresholds(s)
        for delta in deltas:
            for t in (ts.p - delta, ts.p + delta, ts.q - delta, ts.q + delta):
                for side in ("lower", "upper"):
                    yield repr(verify_family_inequality(t, s, side, grid).to_dict())
            yield repr(falsify(ts.p + delta, s, "lower"))
            yield repr(falsify(ts.q - delta, s, "upper"))
    sharp = exponential_bound_constants()
    for _ in range(40):
        p_coef = sharp.lower + rng.choice((-1.0, 1.0)) * rng.choice(deltas)
        q_coef = sharp.upper + rng.choice((-1.0, 1.0)) * rng.choice(deltas)
        yield repr(verify_exponential_bounds(p_coef, q_coef, grid).to_dict())
    for _ in range(50):
        p_exp = 1.0 if rng.random() < 0.4 else rng.uniform(2.0, 4.0)
        sharp = ((2.0 / 3.0, 2.0 / math.e) if p_exp == 1.0
                 else ((2.0 / math.e) ** p_exp, 2.0 / 3.0))
        for alpha in sharp:
            for delta in deltas:
                for sign in (-1.0, 1.0):
                    for side in ("lower", "upper"):
                        yield repr(verify_convex_power_bound(
                            p_exp, alpha + sign * delta, side, grid).to_dict())
    forward = verify.TWO_THIRDS_FORWARD_THRESHOLD
    reverse = verify.TWO_THIRDS_REVERSE_THRESHOLD
    for band in ((0.5, reverse), (reverse, forward), (forward, 3.0)):
        for p_exp in [band[0] + 1e-9, band[1] - 1e-9] + [rng.uniform(*band) for _ in range(8)]:
            yield repr(verify_two_thirds_power(p_exp, grid).to_dict())


# sha256 of the _report_digest_reprs reports, one repr a line; any change to
# a verdict, a margin, a witness or a recheck value changes it.
_REPORT_DIGEST = "461e7d8412e9e019962209134a561238e677104124940fb1410d9b0789a404b5"


class TestReportDigest:
    def test_reports_match_the_recorded_digest(self):
        digest = hashlib.sha256()
        count = 0
        for line in _report_digest_reprs():
            digest.update(line.encode() + b"\n")
            count += 1
        assert count == 1750
        assert digest.hexdigest() == _REPORT_DIGEST


class TestRecheckOrder:
    """Candidates are rechecked by margin, ties by index, over all sides."""

    def _run(self, rejected):
        # Two sides of 40 points with margins tied in five values; every
        # negative one is a candidate, and the first ``rejected`` rechecks
        # fail to confirm.
        rng = random.Random(7)
        xs = np.linspace(0.01, 0.99, 40)
        values = [[rng.choice((-3.0, -2.0, -1.0, -0.5, 0.25)) for _ in xs]
                  for _ in "ab"]
        asked = []

        def recheck(label, x):
            asked.append((label, x))
            return 1.0 if len(asked) <= rejected else -1.0

        sides = [(label, np.array(vals), lambda lo, hi: np.ones(hi - lo), partial(recheck, label))
                 for label, vals in zip("ab", values)]
        report, rechecks = verify._run_grid_check(xs, sides, {})
        flat = values[0] + values[1]
        order = sorted((m, k) for k, m in enumerate(flat) if m < 0.0)
        assert len(order) > verify._MAX_RECHECKS
        expected = [("ab"[k // xs.size], float(xs[k % xs.size])) for _, k in order]
        return report, rechecks, asked, expected, order, flat

    @pytest.mark.parametrize("rejected", [0, 1, 5, 31])
    def test_witness_is_first_confirmed_in_margin_index_order(self, rejected):
        report, rechecks, asked, expected, order, flat = self._run(rejected)
        assert asked == expected[:rejected + 1]
        assert rechecks == rejected + 1 <= verify._MAX_RECHECKS
        w = report.witness
        assert report.verdict == "violated"
        assert (w.label, w.x) == expected[rejected]
        assert w.margin == order[rejected][0]
        assert report.worst_margin == min(flat)

    @pytest.mark.parametrize("rejected", [32, 1000])
    def test_all_rejected_holds_with_margin_clamped(self, rejected):
        report, rechecks, asked, expected, _, _ = self._run(rejected)
        assert rechecks == len(asked) == verify._MAX_RECHECKS
        assert asked == expected[:verify._MAX_RECHECKS]
        assert report.verdict == "holds_on_grid"
        assert report.witness is None
        assert report.worst_margin == 0.0


class TestFloorSkip:
    """Noise floors are formed only where some margin is negative: no
    margin >= 0 lies below its floor, as every scale is >= 0."""

    def _sides(self, margins):
        asked, reads = [], []

        def recheck(x):
            asked.append(x)
            return -1.0

        scale = np.ones(len(margins))
        scale.flags.writeable = False

        def read(lo, hi):
            reads.append((lo, hi))
            return scale[lo:hi]

        return [("", np.array(margins), read, recheck)], asked, reads

    @pytest.mark.parametrize("margins", [[0.5, 0.0, 2.0, 1e-300], [-0.0, 3.0], [0.0, 0.0]])
    def test_nonnegative_margins_leave_a_read_only_scale_unread(self, margins):
        xs = np.linspace(0.1, 0.9, len(margins))
        sides, asked, reads = self._sides(margins)
        report, rechecks = verify._run_grid_check(xs, sides, {})
        assert report.verdict == "holds_on_grid" and report.witness is None
        assert report.worst_margin == min(margins)
        assert rechecks == 0 and asked == []
        assert reads == []

    def test_a_margin_below_its_floor_is_still_flagged_and_rechecked(self):
        # The margin at index 3 lies below its floor 64 eps; the one at
        # index 1 is negative but inside its floor, and is not rechecked.
        xs = np.linspace(0.1, 0.9, 5)
        sides, asked, reads = self._sides([1.0, -_NOISE_C * _EPS / 2.0, 2.0, -1e-3, 0.5])
        report, rechecks = verify._run_grid_check(xs, sides, {})
        assert reads == [(3, 4)]  # the least margin's floor alone, as its recheck confirms
        assert rechecks == 1 and asked == [float(xs[3])]
        assert report.verdict == "violated"
        assert (report.witness.x, report.witness.margin) == (float(xs[3]), -1e-3)
        assert report.worst_margin == -1e-3

    @pytest.mark.parametrize("s", [1.0, 2.0, 5.0, 50.0])
    def test_report_at_p_forms_no_floor(self, s, monkeypatch):
        # No margin at the closed-form p is negative on the default grid,
        # so the report check there reads no scale entry; the one at q reads
        # its scale at its negative margins only: they are one run from the
        # first point.
        family_side = verify._family_side
        reads = []

        def counting(*args):
            label, margins, scale, recheck = family_side(*args)

            def at(lo, hi):
                reads.append((margins, lo, hi))
                return scale(lo, hi)

            return label, margins, at, recheck

        monkeypatch.setattr(verify, "_family_side", counting)
        ts = sharp_thresholds(s)
        report = verify_family_inequality(ts.p, s, "lower")
        assert report.verdict == "holds_on_grid" and report.worst_margin >= 0.0
        assert reads == []
        report = verify_family_inequality(ts.q, s, "upper")
        assert report.verdict == "holds_on_grid"
        negative_at_q = {1.0: 926, 2.0: 1003, 5.0: 0, 50.0: 0}[s]
        if negative_at_q:
            # The least margin's entry, inside its floor, then the run.
            (margins, i, j), (_, lo, hi) = reads
            assert j == i + 1 and margins[i] == margins.min() < 0.0
            assert (lo, hi) == (0, negative_at_q)
            assert np.count_nonzero(margins < 0.0) == negative_at_q
        else:
            assert reads == []


class TestEnclosureRecheck:
    """A bisection step decides a candidate by enclosure as mpmath would."""

    @pytest.mark.parametrize("s", [1.0, 1.5, 2.0, 5.0, 10.0, 50.0])
    @pytest.mark.parametrize("side", ["lower", "upper"])
    @pytest.mark.parametrize("grid", [None, GridSpec(count=512),
                                      GridSpec(count=2000, spacing="uniform")])
    def test_decisions_agree_with_mpmath(self, s, side, grid, monkeypatch):
        # The grid check of a step at seeded t from 1e-9 to 1e-3 relative
        # on either side of the cutoff, where candidates exist: most
        # bisection steps are decided without it (TestGridCutoffs).
        decided = []
        node_bounds = verify._node_bounds

        def recording(params):
            bounds_of = node_bounds(params)

            def bounds(a, b):
                result = bounds_of(a, b)
                if result[0]:
                    decided.append((params.t, a, result[0]))
                return result
            return bounds

        monkeypatch.setattr(verify, "_node_bounds", recording)
        g = verify._grid(grid or GridSpec())
        ts = sharp_thresholds(s)
        cutoff = ts.p if side == "lower" else ts.q
        rng = random.Random(f"{s} {side} {grid}")
        for _ in range(4):
            for sign in (-1.0, 1.0):
                t = cutoff * (1.0 + sign * 10.0 ** rng.uniform(-9.0, -3.0))
                verify._grid_verdict(FamilyParams.from_t(t, s), side, g.xs, g.pieces)
        assert decided
        for t, x, sign in decided:
            confirmed = (sign > 0) if side == "lower" else (sign < 0)
            assert (verify._mp_family_margin(t, s, side, x) < 0.0) == confirmed, (t, x)

    def test_reports_keep_the_mpmath_recheck(self):
        # A reported witness prints the extended-precision margin itself.
        report = verify_family_inequality(0.25, 2.0, "lower", SMALL_GRID)
        w = report.witness
        assert w.margin_recheck == verify._mp_family_margin(0.25, 2.0, "lower", w.x)


_FORCED_GRIDS = (None, GridSpec(count=512), GridSpec(count=2000, spacing="uniform"),
                 GridSpec(count=64, x_min=1e-6, x_max=0.3),
                 GridSpec(count=64, x_min=0.6, x_max=EVAL_LIMIT))


def _forced_cases(rng, count):
    """``count`` seeded ``(t, s, side)``: ``s`` log-uniform on [1, 1e4], one
    in ten on [1e4, DBL_MAX]; ``t`` 1e-9 to 0.3 (log-uniform) from ``p`` or
    ``q``, on whichever side stays inside (0, 1/2)."""
    cases = []
    while len(cases) < count:
        top = sys.float_info.max if rng.random() < 0.1 else 1e4
        s = math.exp(rng.uniform(0.0 if top == 1e4 else math.log(1e4), math.log(top)))
        ts = sharp_thresholds(s)
        step = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-9.0, math.log10(0.3))
        cutoff = rng.choice((ts.p, ts.q))
        for t in (cutoff + step, cutoff - step):
            if 0.0 < t < 0.5:
                cases.append((t, s, rng.choice(("lower", "upper"))))
                break
    return cases


def _comparison(t, s, side, spec):
    """The verdict a bisection step at ``t`` takes from the grid cutoffs of
    ``spec``, as :func:`verify.empirical_threshold` forms it, or None inside
    the band."""
    hold, fail = verify._grid_cutoffs(s, spec)[side]
    one_minus_2t = 1.0 - 2.0 * t
    v = one_minus_2t * one_minus_2t * ((1.0 if side == "lower" else -1.0) * (0.5 * s))
    if v >= hold:
        return "holds_on_grid"
    return "violated" if v < fail else None


def _grid_check(t, s, side, spec):
    g = verify._grid(spec)
    return verify._grid_verdict(FamilyParams.from_t(t, s), side, g.xs, g.pieces)


def _bisection_mids(threshold, tol):
    """The midpoints of the bisection over [0, 1/2] that ended on ``threshold``."""
    lo, hi = 0.0, 0.5
    mids = []
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        mids.append(mid)
        lo, hi = (mid, hi) if mid < threshold else (lo, mid)
    assert 0.5 * (lo + hi) == threshold
    return mids


class TestGridCutoffs:
    """A bisection step decided by the grid cutoffs takes the grid's verdict."""

    def test_comparison_equals_the_grid_check_wherever_it_decides(self):
        rng = random.Random(2024)
        decided = {"holds_on_grid": 0, "violated": 0}
        for grid in _FORCED_GRIDS:
            spec = grid or GridSpec()
            for t, s, side in _forced_cases(rng, 1000):
                verdict = _comparison(t, s, side, spec)
                if verdict is None:
                    continue
                decided[verdict] += 1
                assert _grid_check(t, s, side, spec) == verdict, (grid, t, s, side)
        # About 1,700 held and 3,100 violated of the 5,000.
        assert min(decided.values()) > 1000, decided

    def test_bisection_steps_equal_the_grid_check(self):
        rng = random.Random(2025)
        decided = {"holds_on_grid": 0, "violated": 0, None: 0}
        for grid in _FORCED_GRIDS:
            spec = grid or GridSpec()
            for k in range(12):
                # s log-uniform on [1, 1e4], one in four on [1e4, DBL_MAX].
                lo, hi = (1e4, sys.float_info.max) if k % 4 == 3 else (1.0, 1e4)
                s = math.exp(rng.uniform(math.log(lo), math.log(hi)))
                for side in ("lower", "upper"):
                    for t in _bisection_mids(empirical_threshold(s, side, grid), 1e-6):
                        verdict = _comparison(t, s, side, spec)
                        decided[verdict] += 1
                        if verdict is not None:
                            assert _grid_check(t, s, side, spec) == verdict, (grid, t, s, side)
        # About 1,100 held and 1,160 violated; 6 ran the grid check.
        assert min(decided["holds_on_grid"], decided["violated"]) > 1000, decided
        assert decided[None] < 100, decided

    @pytest.mark.parametrize("s", [1.0, 2.0, 50.0])
    @pytest.mark.parametrize("side", ["lower", "upper"])
    @pytest.mark.parametrize("grid", [None, GridSpec(count=512)])
    def test_decisions_at_their_edges_equal_the_grid_check(self, s, side, grid):
        # Random t almost never lands where a decision starts: find each
        # edge by bisection in t and check the grid verdicts just on its
        # deciding side, where the failing side's margins come nearest the
        # noise floor.
        spec = grid or GridSpec()
        ts = sharp_thresholds(s)
        # t_hold holds, t_fail is violated; the band lies between them.
        t_hold, t_fail = ((0.5 * ts.p, ts.p + 0.05) if side == "lower"
                          else (0.5 * (ts.q + 0.5), ts.q - 0.2 * (ts.q - ts.p)))
        for verdict, inside, outside in (("holds_on_grid", t_hold, t_fail),
                                         ("violated", t_fail, t_hold)):
            assert _comparison(inside, s, side, spec) == verdict
            for _ in range(60):
                mid = 0.5 * (inside + outside)
                if _comparison(mid, s, side, spec) == verdict:
                    inside = mid
                else:
                    outside = mid
            for k in range(4):
                t = inside + k * 1e-6 * (inside - outside)
                assert _comparison(t, s, side, spec) == verdict, (t, k)
                assert _grid_check(t, s, side, spec) == verdict, (t, k)

    @pytest.mark.parametrize("s", [1.0, 2.0, 50.0])
    def test_sweep_row_runs_few_grid_checks(self, s, monkeypatch):
        # A sweep row ran 40 grid checks when every bisection step ran one.
        calls = []
        run = verify._run_grid_check

        def counting(*args):
            calls.append(args)
            return run(*args)

        monkeypatch.setattr(verify, "_run_grid_check", counting)
        ts = sharp_thresholds(s)
        empirical_threshold(s, "lower")
        empirical_threshold(s, "upper")
        verify_family_inequality(ts.p, s, "lower")
        verify_family_inequality(ts.q, s, "upper")
        assert len(calls) <= 4

    @pytest.mark.parametrize("s", [1.0, 2.0, 50.0])
    def test_sweep_row_computes_the_cutoffs_once(self, s):
        # Both sides of a row share one computation of F_s on the grid.
        verify._grid_cutoffs.cache_clear()
        ts = sharp_thresholds(s)
        empirical_threshold(s, "lower")
        empirical_threshold(s, "upper")
        verify_family_inequality(ts.p, s, "lower")
        verify_family_inequality(ts.q, s, "upper")
        assert verify._grid_cutoffs.cache_info().misses == 1

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("grid", [None, GridSpec(count=64, x_min=1e-300, x_max=0.3)])
    def test_cutoffs_stay_finite_at_the_largest_s(self, grid):
        # (s/2) F_s stays in [1/8, 1/3] where F_s itself is subnormal, and
        # 2h/s, which underflows, leaves no 0/0.
        s = sys.float_info.max
        spec = grid or GridSpec()
        cutoffs = verify._grid_cutoffs(s, spec)
        assert all(math.isfinite(c) for side in cutoffs.values() for c in side), cutoffs
        t = 0.9 * sharp_thresholds(s).q
        assert _comparison(t, s, "upper", spec) == "violated"
        assert _comparison(t, s, "lower", spec) == "holds_on_grid"

    @pytest.mark.parametrize("t", [0.0, 0.5])
    @pytest.mark.parametrize("s", [1.0, sys.float_info.max])
    def test_endpoint_decisions_agree_with_membership_and_the_grid(self, t, s):
        # Neither end is a bisection midpoint, and u = 1 or u = 0 there.
        spec = GridSpec()
        for side in ("lower", "upper"):
            verdict = _comparison(t, s, side, spec)
            if verdict is None:
                continue
            assert verdict == _grid_check(t, s, side, spec)
            assert (verdict == "holds_on_grid") == (membership(t, s) == f"{side}_bound_holds")

    def test_ends_and_subset_stay_inside_the_band(self, monkeypatch):
        # The holding cutoffs read K = (s/2) F_s at the grid's ends, as the
        # exact K increases, and the failing ones a subset of the points:
        # rounding keeps the ends within _BAND/100 of the extremes of K over
        # every point, and no subset cutoff decides a step that the full one
        # leaves to the grid check.
        rng = random.Random(2033)
        ss = [1.0, 2.0, 1e300, sys.float_info.max]
        ss += [math.exp(rng.uniform(0.0, math.log(1e12))) for _ in range(16)]
        ss += [math.exp(rng.uniform(math.log(1e12), math.log(sys.float_info.max)))
               for _ in range(4)]

        def k_of(band, s):
            h, ratio = band[:2]
            y = np.minimum(h * (-2.0 / s), -sys.float_info.min)
            return np.expm1(y) / y * ratio

        def cutoffs(grid, s, spec):
            with monkeypatch.context() as patch:
                patch.setattr(verify, "_grid", lambda _: grid)
                return verify._grid_cutoffs.__wrapped__(s, spec)

        for spec in _CUTOFF_GRIDS:
            xs = grid_points(spec)
            subset = verify._Grid(xs, {})
            full = verify._Grid(xs, {})
            with monkeypatch.context() as patch:
                patch.setattr(verify, "_BAND_POINTS", xs.size)  # every point
                assert full.band[0].size == xs.size
            assert subset.band[0].size <= min(xs.size, 2 * verify._BAND_POINTS)
            for s in ss:
                top, bottom = k_of(full.band, s).max(), k_of(full.band, s).min()
                k_sub = k_of(subset.band, s)
                assert abs(k_sub[-1] - top) <= verify._BAND / 100 * top, (spec, s)
                assert abs(k_sub[0] - bottom) <= verify._BAND / 100 * bottom, (spec, s)
                got, every = cutoffs(subset, s, spec), cutoffs(full, s, spec)
                for side in ("lower", "upper"):
                    assert got[side][0] == every[side][0], (spec, s, side)
                    assert got[side][1] <= every[side][1], (spec, s, side)


# The grids of the threshold identity measurements: the five above, the
# sparse and narrow ones of TestEmpiricalThresholdEdgeIdentity, and three
# that reach down to subnormal x.
_CUTOFF_GRIDS = (
    *(grid or GridSpec() for grid in _FORCED_GRIDS),
    GridSpec(count=2), GridSpec(count=3, spacing="uniform"),
    GridSpec(count=50, x_min=0.4, x_max=0.45), GridSpec(count=50, x_min=1e-9, x_max=1e-3),
    GridSpec(count=50, x_min=0.9, x_max=0.999), GridSpec(count=100, x_min=1e-200, x_max=0.5),
    GridSpec(count=64, x_min=3e-162, x_max=0.3), GridSpec(count=40, x_min=5e-324, x_max=0.9))


class TestEmpiricalThresholdEdgeIdentity:
    """Far steps decided without the grid leave the threshold at the
    reference bisection's double on sparse and narrow grids, at huge s."""

    @pytest.mark.parametrize("tol", [1e-6, 1e-8])
    @pytest.mark.parametrize("s", [1e6, 1e300, sys.float_info.max])
    @pytest.mark.parametrize("side", ["lower", "upper"])
    @pytest.mark.parametrize("grid", [None, GridSpec(count=2),
                                      GridSpec(count=3, spacing="uniform"),
                                      GridSpec(count=50, x_min=0.4, x_max=0.45),
                                      GridSpec(count=50, x_min=1e-9, x_max=1e-3),
                                      GridSpec(count=50, x_min=0.9, x_max=0.999)])
    def test_equals_reference_bisection(self, tol, s, side, grid):
        assert empirical_threshold(s, side, grid, tol=tol) \
            == _reference_threshold(s, side, grid, tol)


class TestIncreasingGaps:
    """Every array of gaps that the evaluation core splits is non-decreasing,
    so two slices split it."""

    def test_pieces_see_non_decreasing_gaps_only(self, monkeypatch):
        seen = []
        pieces, split = family._Pieces, family._split

        def recording(build):
            def record(x):
                seen.append(np.array(x))
                return build(x)
            return record

        # means looks _Pieces up in family on each call.
        for module in (family, verify):
            monkeypatch.setattr(module, "_Pieces", recording(pieces))
        monkeypatch.setattr(family, "_split", recording(split))
        verify._grid.cache_clear()
        s, grid = 2.0, GridSpec(count=512)
        ts = sharp_thresholds(s)
        # A sweep row.
        empirical_threshold(s, "lower", grid)
        empirical_threshold(s, "upper", grid)
        verify_family_inequality(ts.p, s, "lower", grid)
        verify_family_inequality(ts.q, s, "upper", grid)
        verify_exponential_bounds(0.17, 0.3, grid)
        verify_convex_power_bound(2.0, 0.5, "lower", grid)
        verify_two_thirds_power(1.25, grid)
        shuffled = np.random.default_rng(28).permutation(grid_points(grid))
        params = FamilyParams.from_t(0.2, s)
        log_ratio_q_over_i(params, shuffled)
        derivative_kernel(params, shuffled)
        exp_bound_margin(0.2, shuffled)
        log_identric_over_arithmetic(shuffled)
        assert len(seen) > 8
        for x in seen:
            assert np.all(x[1:] >= x[:-1])


_CACHE_SPECS = (GridSpec(), GridSpec(count=512),
                GridSpec(count=2000, spacing="uniform"))


def _cache_reports(index):
    """Reports on one of ``_CACHE_SPECS``, as a comparable string."""
    spec = _CACHE_SPECS[index]
    return repr([verify_family_inequality(0.24, 2.0, "lower", spec).to_dict(),
                 verify_family_inequality(0.25, 2.0, "lower", spec).to_dict(),
                 verify_convex_power_bound(1.0, 0.7, "lower", spec).to_dict(),
                 empirical_threshold(5.0, "upper", spec, tol=1e-4)])


class TestGridCache:
    """The grid cache holds one read-only grid and changes no report."""

    def test_cached_arrays_are_read_only(self):
        g = verify._grid(GridSpec())
        xs, pieces = g.xs, g.pieces
        for arr in (xs, pieces.h, pieces.one_minus_sq, pieces.w_small,
                    pieces.x_direct):
            with pytest.raises(ValueError):
                arr[0] = 0.5

    def test_grid_points_returns_a_new_writable_array(self):
        spec = GridSpec(count=512)
        before = verify_family_inequality(0.25, 2.0, "lower", spec)
        first, second = grid_points(spec), grid_points(spec)
        assert first is not second and first.flags.writeable
        first[:] = 0.5
        assert verify_family_inequality(0.25, 2.0, "lower", spec) == before
        np.testing.assert_array_equal(second, grid_points(spec))

    def test_alternating_specs_match_a_fresh_process(self):
        fresh = []
        for index in range(len(_CACHE_SPECS)):
            proc = python("-c", "import sys; sys.path.insert(0, 'tests'); "
                          "from test_verify import _cache_reports; "
                          f"print(_cache_reports({index}))")
            assert proc.returncode == 0, proc.stderr
            fresh.append(proc.stdout.strip())
        for index in (0, 1, 1, 2, 0, 2, 2, 1, 0):
            assert _cache_reports(index) == fresh[index]

    def test_holds_one_grid(self):
        for spec in _CACHE_SPECS:
            verify_family_inequality(0.24, 2.0, "lower", spec)
        info = verify._grid.cache_info()
        assert info.maxsize == 1 and info.currsize == 1

    def test_cached_logs_are_read_only(self):
        for arr in verify._grid(GridSpec(count=512)).logs:
            with pytest.raises(ValueError):
                arr[0] = 0.5

    def test_family_checks_build_no_logs(self, monkeypatch):
        verify._grid.cache_clear()
        monkeypatch.setattr(verify, "_lr_with_error_scale", None)
        monkeypatch.setattr(verify, "_ln_one_minus_sq", None)
        ts = sharp_thresholds(2.0)
        verify_family_inequality(ts.p, 2.0, "lower")
        falsify(ts.q - 1e-2, 2.0, "upper")
        empirical_threshold(2.0, "upper")
        assert "logs" not in vars(verify._grid(GridSpec()))


def _log_grid_reports(spec):
    """Exponential, power and two-thirds reports on ``spec``, as one string."""
    return repr([verify_exponential_bounds(0.17, 0.3, spec).to_dict(),
                 verify_exponential_bounds(0.16, 0.31, spec).to_dict(),
                 verify_convex_power_bound(1.0, 0.7, "lower", spec).to_dict(),
                 verify_convex_power_bound(2.5, 0.6, "upper", spec).to_dict(),
                 verify_two_thirds_power(1.25, spec).to_dict()])


class TestGridLogsCache:
    """``ln(I/A)``, its scale and ``ln(1 - x^2)`` are built once per grid."""

    @pytest.mark.parametrize("spec", [GridSpec(count=512),
                                      GridSpec(count=300, spacing="uniform")])
    def test_reports_equal_first_repeated_and_after_eviction(self, spec):
        verify._grid.cache_clear()
        first = _log_grid_reports(spec)
        assert _log_grid_reports(spec) == first
        _log_grid_reports(GridSpec(count=64))
        assert verify._grid.cache_info().currsize == 1
        assert _log_grid_reports(spec) == first

    def test_twenty_checks_evaluate_ln_i_over_a_once(self, monkeypatch):
        calls = []
        lr = verify._lr_with_error_scale

        def counting(*args):
            calls.append(args)
            return lr(*args)

        monkeypatch.setattr(verify, "_lr_with_error_scale", counting)
        verify._grid.cache_clear()
        rng = random.Random(27)
        grid = GridSpec(count=512)
        for _ in range(7):
            verify_exponential_bounds(rng.uniform(0.1, 0.2), rng.uniform(0.25, 0.4), grid)
            verify_convex_power_bound(rng.choice((1.0, rng.uniform(2.0, 4.0))),
                                      rng.uniform(0.5, 0.8), rng.choice(("lower", "upper")),
                                      grid)
            verify_two_thirds_power(rng.uniform(1.0, 1.5), grid)
        assert len(calls) == 1


def _uncached_log_ratio(t, s, x):
    """The log-ratio as the rechecks formed it before the gap cache."""
    x = mp.mpf(x)
    val = 1 - mp.atanh(x) / x - mp.log(1 - x * x) / 2
    if t != 0.5:
        u = (1 - 2 * mp.mpf(t)) ** 2
        val += mp.mpf(s) / 2 * mp.log(1 - u * x * x)
    return val


def _uncached_family_margin(t, s, side, x):
    with mp.workdps(40):
        val = _uncached_log_ratio(t, s, x)
        return float(-val if side == "lower" else val)


def _uncached_exp_margin(coef, side, x):
    with mp.workdps(40):
        g = _uncached_log_ratio(0.5, 1.0, x) - mp.mpf(coef) * mp.mpf(x) ** 2
        return float(g if side == "lower" else -g)


def _uncached_power_margin(p, alpha, side, x):
    with mp.workdps(40):
        p, alpha, x = mp.mpf(p), mp.mpf(alpha), mp.mpf(x)
        i_pow = mp.e ** (-p * _uncached_log_ratio(0.5, 1.0, x))
        g_pow = (1 - x * x) ** (p / 2)
        lower = i_pow - alpha - (1 - alpha) * g_pow
        return float(lower if side == "lower" else -lower)


_RECHECK_POINTS = (grid_points(GridSpec(count=512)).tolist()
                   + list(witness._FALSIFY_LOWER_LADDER) + list(witness._FALSIFY_UPPER_LADDER))


def _recheck_cases():
    """Seeded ``(recheck, uncached twin, args)`` at every point of the
    512-point grid and of both ``falsify`` ladders, three per point."""
    rng = random.Random(2027)
    for x in _RECHECK_POINTS:
        side = rng.choice(("lower", "upper"))
        t, s = rng.choice((rng.uniform(0.0, 0.5), 0.5)), math.exp(rng.uniform(0.0, 4.0))
        yield verify._mp_family_margin, _uncached_family_margin, (t, s, side, x)
        yield verify._mp_exp_margin, _uncached_exp_margin, (rng.uniform(0.1, 0.4), side, x)
        p = rng.choice((1.0, rng.uniform(0.5, 4.0)))
        yield (verify._mp_power_margin, _uncached_power_margin,
               (p, rng.uniform(0.0, 1.0), side, x))


class TestRecheckCache:
    """The per-gap recheck pieces change no recheck value."""

    @pytest.mark.parametrize("caller_dps", [None, 15, 100])
    def test_equals_the_uncached_formulas_on_miss_and_hit(self, caller_dps):
        saved = mp.mp.dps
        witness._mp_gap_pieces.cache_clear()
        try:
            if caller_dps is not None:
                mp.mp.dps = caller_dps
            for recheck, uncached, args in _recheck_cases():
                expected = uncached(*args)
                assert recheck(*args) == expected, (recheck.__name__, args)  # miss
                assert recheck(*args) == expected, (recheck.__name__, args)  # hit
                assert mp.mp.dps == (saved if caller_dps is None else caller_dps)
        finally:
            mp.mp.dps = saved

    def test_gap_pieces_equal_the_uncached_formula(self):
        # To the last of the 40 digits, which a float rounds away.
        for x in _RECHECK_POINTS:
            big_x, one_minus_sq, h, _ = witness._mp_gap_pieces(x, 40)
            with mp.workdps(40):
                assert (big_x, one_minus_sq, h) == (mp.mpf(x), 1 - mp.mpf(x) ** 2,
                                                    _uncached_log_ratio(0.5, 1.0, x))

    def test_misses_equal_the_distinct_gaps(self, monkeypatch):
        gaps = []
        for name in ("_mp_exp_margin", "_mp_power_margin"):
            def recording(*args, recheck=getattr(verify, name)):
                gaps.append(args[-1])
                return recheck(*args)
            monkeypatch.setattr(verify, name, recording)
        witness._mp_gap_pieces.cache_clear()
        rng = random.Random(11)
        grid = GridSpec(count=512)
        for _ in range(7):
            verify_exponential_bounds(rng.uniform(0.17, 0.2), rng.uniform(0.25, 0.3), grid)
            alpha = rng.uniform(0.7, 0.8)
            verify_convex_power_bound(1.0, alpha, rng.choice(("lower", "upper")), grid)
            verify_two_thirds_power(rng.uniform(1.0, 1.5), grid)
        assert len(gaps) > len(set(gaps)) > 1
        assert witness._mp_gap_pieces.cache_info().misses == len(set(gaps))

    def test_holding_checks_load_no_mpmath(self):
        proc = python("-c", """
import sys
from meanbounds import GridSpec, verify_convex_power_bound, verify_exponential_bounds
grid = GridSpec(count=512)
assert verify_exponential_bounds(0.16, 0.31, grid).verdict == "holds_on_grid"
assert verify_convex_power_bound(2.0, 0.5, "lower", grid).verdict == "holds_on_grid"
assert verify_convex_power_bound(2.0, 0.7, "upper", grid).verdict == "holds_on_grid"
assert "mpmath" not in sys.modules
""")
        assert proc.returncode == 0, proc.stderr


def _digits(*smalls):
    """Digits that resolve a margin of about the product of ``smalls``
    against O(1) terms, with 40 to spare."""
    return 40 + sum(int(-math.log10(v)) for v in smalls)


_TINY_GRID = GridSpec(count=64, spacing="uniform", x_min=1e-24, x_max=1e-22)


class TestRecheckResolution:
    """A recheck carries the digits its margin needs; 40 resolve it only to
    about 1e-40 of its largest term."""

    @pytest.mark.parametrize("x_max", [1e-22, 1e-20])
    def test_family_margin_of_order_x_squared(self, x_max):
        s = 2.0
        t = sharp_thresholds(s).q / 2
        assert membership(t, s) != "upper_bound_holds"
        grid = GridSpec(count=64, spacing="uniform", x_min=1e-24, x_max=x_max)
        report = verify_family_inequality(t, s, "upper", grid)
        assert report.verdict == "violated"
        w = report.witness
        exact = family_log_ratio_and_quotient_t(t, s, w.x)[0]
        assert w.margin_recheck == pytest.approx(float(exact), rel=1e-10, abs=0.0)

    def test_exponential_margin_of_order_x_squared(self):
        report = verify_exponential_bounds(0.2, 0.4, _TINY_GRID)
        w = report.witness
        assert (report.verdict, w.label) == ("violated", "lower")
        exact = exp_margin(0.2, "lower", w.x, dps=_digits(w.x, w.x))
        assert w.margin_recheck == pytest.approx(float(exact), rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("p", [1e-45, 1e-100, 1e-300])
    def test_two_thirds_margin_of_order_p(self, p):
        # The forward side fails for every p below its cutoff, by O(p).
        report = verify_two_thirds_power(p, GridSpec(count=512))
        assert report.classification == "reverse_holds"
        w = report.forward.witness
        exact = power_margin(p, 2.0 / 3.0, "upper", w.x, dps=_digits(p, w.x, w.x))
        assert w.margin_recheck == pytest.approx(float(exact), rel=1e-10, abs=0.0)

    def test_escalation_stops_at_the_cap(self):
        asked = []

        def unresolved(x, dps):
            asked.append(dps)
            return 0.0, 0.0

        assert witness._resolved_margin(unresolved, 0.5) == 0.0
        assert asked == [40, 80, 160, 320, 640, 1280]
        assert asked[-1] == witness._RECHECK_MAX_DPS

    def test_cap_resolves_a_double_margin_against_the_largest_terms(self):
        # The smallest double against the largest terms: the family's
        # s / (1 - u x^2) at s = DBL_MAX and x = EVAL_LIMIT.
        smallest = math.log10(5e-324)
        largest = (math.log10(sys.float_info.max)
                   - math.log10((1.0 - EVAL_LIMIT) * (1.0 + EVAL_LIMIT)))
        assert smallest > largest + witness._RESOLVED_DIGITS - witness._RECHECK_MAX_DPS


class TestGridPointsValidity:
    """``grid_points`` returns strictly increasing points inside (0, 1), or
    raises."""

    @pytest.mark.parametrize("spec", [
        GridSpec(count=64, x_min=1e-25, x_max=1e-22),
        GridSpec(count=512, x_min=1e-20, x_max=1e-14),
        GridSpec(count=64, spacing="uniform", x_min=0.5, x_max=0.5 + 1e-15),
    ])
    def test_unresolvable_specs_raise(self, spec):
        with pytest.raises(ValueError, match="strictly increasing"):
            grid_points(spec)
        with pytest.raises(ValueError, match="strictly increasing"):
            verify_family_inequality(0.24, 2.0, "lower", spec)

    def test_seeded_log_uniform_specs_raise_or_increase(self):
        rng = random.Random(31)
        raised = 0
        for _ in range(400):
            lo = rng.uniform(-300.0, -0.5)
            x_min = 10.0 ** lo
            x_max = min(10.0 ** rng.uniform(lo, 0.0), EVAL_LIMIT)
            if not x_min < x_max:
                continue
            spec = GridSpec(count=rng.randint(2, 2000), x_min=x_min, x_max=x_max,
                            spacing=rng.choice(("uniform", "endpoint_refined")))
            try:
                xs = grid_points(spec)
            except ValueError:
                raised += 1
                continue
            assert xs.size == spec.count
            assert 0.0 < xs[0] and xs[-1] < 1.0 and np.all(np.diff(xs) > 0.0), spec
            assert xs[0] == x_min and xs[-1] == x_max, spec
        assert 0 < raised < 400

    @pytest.mark.parametrize("x_max", [0.3, 1e-3, 0.45])
    def test_refined_grid_ends_at_x_max(self, x_max):
        # 1 - (1 - x_max) rounds to 0.30000000000000004, 0.0010000000000000009
        # and 0.44999999999999996: the last point would leave the range that
        # the report's grid entry names.
        spec = GridSpec(count=64, x_min=1e-6, x_max=x_max)
        assert grid_points(spec)[-1] == x_max
        report = verify_family_inequality(0.24, 2.0, "lower", spec)
        assert report.parameters["grid"]["x_max"] == x_max


class TestExponentialBounds:
    def test_sharp_constants_hold(self):
        const = exponential_bound_constants()
        report = verify_exponential_bounds(const.lower, const.upper)
        assert report.verdict == "holds_on_grid"

    def test_lower_perturbation_fails_near_zero(self):
        const = exponential_bound_constants()
        report = verify_exponential_bounds(const.lower + 1e-3, const.upper)
        assert report.verdict == "violated"
        assert report.witness.label == "lower"
        assert report.witness.x < 0.2
        assert float(exp_margin(const.lower + 1e-3, "lower",
                                report.witness.x)) < 0.0

    def test_upper_perturbation_fails_near_one(self):
        const = exponential_bound_constants()
        report = verify_exponential_bounds(const.lower, const.upper - 1e-3)
        assert report.verdict == "violated"
        assert report.witness.label == "upper"
        assert report.witness.x > 0.9
        assert float(exp_margin(const.upper - 1e-3, "upper",
                                report.witness.x)) < 0.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            verify_exponential_bounds(0.0, 0.3)

    def test_both_sides_violated_reports_worst_candidate(self):
        const = exponential_bound_constants()
        report = verify_exponential_bounds(const.lower + 1e-3,
                                           const.upper - 1e-3)
        assert report.verdict == "violated"
        assert report.witness.label == "upper"
        assert report.witness.x == 0.999999999
        assert report.worst_margin == pytest.approx(-9.9999e-4, rel=1e-4)
        assert report.samples == 20_000

    @pytest.mark.parametrize("p_coef", [9e307, sys.float_info.max])
    def test_huge_lower_coefficient_is_violated(self, p_coef):
        # 2 p_coef overflows here: an infinite scale and noise floor once hid
        # every point, and the report read holds_on_grid.  A RuntimeWarning
        # fails the test (pyproject's filterwarnings).
        report = verify_exponential_bounds(p_coef, 0.31)
        assert report.verdict == "violated"
        assert report.witness.label == "lower"
        assert report.worst_margin < -0.5 * p_coef
        assert math.isfinite(report.witness.margin_recheck)


class TestConvexPowerBounds:
    @pytest.mark.parametrize("p,alpha,side", [
        (1.0, 2 / 3, "lower"),
        (1.0, 2 / math.e, "upper"),
        (2.0, (2 / math.e) ** 2, "lower"),
        (2.0, 2 / 3, "upper"),
    ])
    def test_sharp_constants_hold(self, p, alpha, side):
        report = verify_convex_power_bound(p, alpha, side, SMALL_GRID)
        assert report.verdict == "holds_on_grid"

    @pytest.mark.parametrize("p,alpha,side", [
        (1.0, 2 / 3 + 1e-3, "lower"),
        (1.0, 2 / math.e - 1e-3, "upper"),
        (2.0, (2 / math.e) ** 2 + 1e-3, "lower"),
        (2.0, 2 / 3 - 1e-3, "upper"),
    ])
    def test_shifted_constants_fail(self, p, alpha, side):
        report = verify_convex_power_bound(p, alpha, side, SMALL_GRID)
        assert report.verdict == "violated"
        assert float(power_margin(p, alpha, side, report.witness.x)) < 0.0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("p", [1e15, 1e300, 1e307])
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    def test_large_exponent(self, p, alpha):
        # I^p/A^p and G^p/A^p vanish on most of the grid, so the margin is
        # -alpha there; the noise floor must not hide it.
        report = verify_convex_power_bound(p, alpha, "lower", SMALL_GRID)
        if alpha == 0.0:
            assert report.verdict == "holds_on_grid"
        else:
            assert report.verdict == "violated"
            assert report.witness.margin_recheck < 0.0
            assert float(power_margin(p, alpha, "lower", report.witness.x)) < 0.0

    @pytest.mark.parametrize("p", [1e20, 1e300])
    def test_worst_margin_matches_oracle_at_tiny_gaps(self, p):
        # Below x ~ 1e-8, 1 - x^2 rounds to 1, yet p x^2 is large, so G^p/A^p
        # vanishes there and the margin is about -alpha, not -1.
        grid = GridSpec(count=200)
        report = verify_convex_power_bound(p, 0.5, "lower", grid)
        truth = min(float(power_margin(p, 0.5, "lower", x)) for x in grid_points(grid))
        assert report.worst_margin == pytest.approx(truth, rel=1e-12, abs=1e-15)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("p", [2e307, sys.float_info.max])
    def test_huge_exponent_raises_no_overflow(self, p):
        # (p/2) ln(1 - x^2) overflows to -inf next to x = 1 from about
        # p = 1.3e307; its expm1, -1, is the rounded value, so the verdicts
        # are those at p = 1e307.
        for side in ("lower", "upper"):
            assert (verify_convex_power_bound(p, 0.5, side).verdict
                    == verify_convex_power_bound(1e307, 0.5, side).verdict)
        got, want = verify_two_thirds_power(p), verify_two_thirds_power(1e307)
        assert (got.classification, got.forward.verdict, got.reverse.verdict) \
            == (want.classification, want.forward.verdict, want.reverse.verdict)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            verify_convex_power_bound(0.5, 0.5, "lower")
        with pytest.raises(ValueError):
            verify_convex_power_bound(2.0, 1.5, "lower")


class TestTwoThirdsPower:
    def test_classification_bands(self):
        assert verify_two_thirds_power(1.1, SMALL_GRID).classification == "reverse_holds"
        assert verify_two_thirds_power(1.25, SMALL_GRID).classification == "neither"
        assert verify_two_thirds_power(1.4, SMALL_GRID).classification == "forward_holds"

    def test_neither_band_has_both_witnesses(self):
        report = verify_two_thirds_power(1.25, SMALL_GRID)
        assert report.forward.verdict == "violated"
        assert report.reverse.verdict == "violated"
        # The forward deficit is deepest in the x -> 1 limit; the reverse
        # violation region starts at x = 0 but bottoms out at interior x.
        assert report.forward.witness.x > 0.9
        assert report.reverse.witness.margin_recheck < 0.0
        assert float(power_margin(1.25, 2 / 3, "lower",
                                  report.reverse.witness.x)) < 0.0

    @pytest.mark.parametrize("p", [1.0, 1.1, 1.2, 1.25, 1.4, 2.0])
    def test_directions_equal_the_single_checks(self, p, monkeypatch):
        # The two directions share one margin evaluation, and each check
        # writes its floors over its own scale: same reports, same rechecks.
        rechecks = []
        recheck = verify._mp_power_margin

        def counting(*args):
            rechecks.append(args)
            return recheck(*args)

        monkeypatch.setattr(verify, "_mp_power_margin", counting)
        report = verify_two_thirds_power(p, SMALL_GRID)
        both = len(rechecks)
        for direction, side in (("forward", "upper"), ("reverse", "lower")):
            single = verify_convex_power_bound(p, 2 / 3, side, SMALL_GRID)
            got = getattr(report, direction)
            assert (got.verdict, got.worst_margin, got.witness) \
                == (single.verdict, single.worst_margin, single.witness)
        assert 2 * both == len(rechecks)

    def test_threshold_constants(self):
        report = verify_two_thirds_power(1.4, SMALL_GRID)
        assert report.forward_threshold == pytest.approx(
            1.321366734866759533729, rel=1e-14)
        assert report.reverse_threshold == 1.2

    def test_rejects_nonpositive_exponent(self):
        with pytest.raises(ValueError):
            verify_two_thirds_power(0.0)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
@pytest.mark.parametrize("check", [
    lambda v: verify_exponential_bounds(v, 0.4, SMALL_GRID),
    lambda v: verify_exponential_bounds(0.1, v, SMALL_GRID),
    lambda v: verify_convex_power_bound(v, 0.5, "lower", SMALL_GRID),
    lambda v: verify_convex_power_bound(2.0, v, "upper", SMALL_GRID),
    lambda v: verify_two_thirds_power(v, SMALL_GRID),
    lambda v: empirical_threshold(2.0, "lower", SMALL_GRID, tol=v),
    lambda v: exp_bound_margin(v, 0.5),
], ids=["exp_p_coef", "exp_q_coef", "power_p_exp", "power_alpha",
        "two_thirds_p_exp", "threshold_tol", "exp_margin_coef"])
def test_non_finite_parameter_is_rejected(check, bad):
    with pytest.raises(ValueError):
        check(bad)


class TestRatioBracket:
    def test_log_gap_ratio_stays_inside_sharp_constants(self):
        xs = grid_points(GridSpec())
        ratio = -log_identric_over_arithmetic(xs) / (xs * xs)
        upper = 1.0 - math.log(2.0)
        # Below x ~ 1e-8 the ratio is 1/6 to the last ulp, so strictness
        # and strict monotonicity are asserted away from that floor.
        assert np.all(ratio > 1 / 6 - 1e-15)
        assert np.all(ratio < upper)
        inner = xs >= 1e-5
        assert np.all(ratio[inner] > 1 / 6)
        assert np.all(np.diff(ratio[inner]) > 0)
        assert np.all(np.diff(ratio) >= -4e-16 * ratio[:-1])


class TestCertification:
    def test_proves_negative_inside_lower_interval(self):
        ts = sharp_thresholds(2.0)
        nodes = certify_sign(ts.p - 0.01, 2.0, 0.01, 0.99, "negative")
        assert certificate_succeeded(nodes, "negative")
        assert all(n.bound_hi < 0 for n in certificate_leaves(nodes))

    def test_proves_positive_inside_upper_interval(self):
        ts = sharp_thresholds(2.0)
        nodes = certify_sign(ts.q + 0.01, 2.0, 0.01, 0.99, "positive")
        assert certificate_succeeded(nodes, "positive")

    def test_boundary_parameter_still_proves_on_compact(self):
        # Exactly at the threshold the sign is still strict on any compact
        # subinterval; only the margin near x_hi shrinks.
        ts = sharp_thresholds(2.0)
        nodes = certify_sign(ts.p, 2.0, 0.01, 0.99, "negative")
        assert certificate_succeeded(nodes, "negative")

    def test_budget_exhaustion_is_inconclusive_not_disproof(self):
        ts = sharp_thresholds(2.0)
        nodes = certify_sign(ts.p - 0.01, 2.0, 0.01, 0.99, "negative", budget=3)
        assert not certificate_succeeded(nodes, "negative")
        statuses = {n.status for n in nodes}
        assert "inconclusive" in statuses
        assert "proved_positive" not in statuses

    @pytest.mark.parametrize("budget, count", [(1, 1), (2, 3), (10, 13), (30, 31)])
    def test_budget_caps_splits_not_nodes(self, budget, count):
        # Each split adds two children, so up to 2 budget - 1 nodes.  The
        # whole tree has 33 nodes, so even budget 30 stops some splits.
        ts = sharp_thresholds(2.0)
        nodes = certify_sign(ts.q + 1e-3, 2.0, 0.01, 0.99, "positive", budget)
        splits = sum(n.status == "split" for n in nodes)
        assert splits <= budget - 1
        assert len(nodes) == count <= 2 * budget - 1
        assert len(nodes) == 2 * splits + 1

    def test_wrong_sign_shows_as_opposite_proof(self):
        ts = sharp_thresholds(2.0)
        nodes = certify_sign(ts.q + 0.01, 2.0, 0.3, 0.7, "negative")
        assert not certificate_succeeded(nodes, "negative")
        assert any(n.status == "proved_positive" for n in nodes)

    def test_leaves_partition_the_interval(self):
        ts = sharp_thresholds(2.0)
        nodes = certify_sign(ts.p - 0.01, 2.0, 0.01, 0.99, "negative")
        leaves = sorted(certificate_leaves(nodes), key=lambda n: n.x_lo)
        assert leaves[0].x_lo == 0.01
        assert leaves[-1].x_hi == 0.99
        for left, right in zip(leaves, leaves[1:]):
            assert left.x_hi == right.x_lo

    def test_no_leaf_contradicted_by_grid_samples(self):
        ts = sharp_thresholds(2.0)
        params = FamilyParams.from_t(ts.p - 0.01, 2.0)
        nodes = certify_sign(ts.p - 0.01, 2.0, 0.01, 0.99, "negative")
        xs = grid_points(GridSpec())
        inside = xs[(xs >= 0.01) & (xs <= 0.99)]
        values = log_ratio_q_over_i(params, inside)
        for leaf in certificate_leaves(nodes):
            covered = values[(inside >= leaf.x_lo) & (inside <= leaf.x_hi)]
            assert np.all(covered < 0.0)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            certify_sign(0.2, 2.0, 0.5, 0.4, "negative")
        with pytest.raises(ValueError):
            certify_sign(0.2, 2.0, 0.1, 0.9, "nonzero")
        for budget in (0, math.nan, math.inf, 2.5):
            with pytest.raises(ValueError):
                certify_sign(0.2, 2.0, 0.1, 0.9, "negative", budget=budget)

    @pytest.mark.parametrize("s", [1.0, 2.0, 5.0, 10.0])
    @pytest.mark.parametrize("delta, x_lo, x_hi, budget", [
        # Next to 1 the log-ratio sits near its limit 1 - ln 2 + (s/2) ln(1-u),
        # and both enclosed pieces stay bounded there.
        (1e-3, 0.99, 1 - 1e-12, 64),
        # Next to 0 it is about c1 x^2, ~1e-14 at x = 1e-6, while the h piece
        # is enclosed to a few ulps.
        (1e-2, 1e-6, 0.5, 1000),
    ])
    def test_proves_negative_toward_the_ends(self, s, delta, x_lo, x_hi, budget):
        ts = sharp_thresholds(s)
        nodes = certify_sign(ts.p - delta, s, x_lo, x_hi, "negative", budget)
        assert certificate_succeeded(nodes, "negative")

    @pytest.mark.parametrize("s", [1.0, 2.0, 5.0, 10.0])
    @pytest.mark.parametrize("delta", [1e-3, 1e-6, 1e-12])
    @pytest.mark.parametrize("sign", ["negative", "positive"])
    def test_proves_the_open_left_end(self, s, delta, sign):
        # From x = 0 the Taylor nodes carry g = f / x^2, about c_1 ~ delta.
        ts = sharp_thresholds(s)
        t = ts.p - delta if sign == "negative" else ts.q + delta
        nodes = certify_sign(t, s, 0.0, 0.99, sign)
        assert certificate_succeeded(nodes, sign)
        assert min(n.x_lo for n in nodes) == 0.0
        for leaf in certificate_leaves(nodes):
            if leaf.x_hi <= TAYLOR_X0:
                for x in (leaf.x_lo, 0.5 * (leaf.x_lo + leaf.x_hi), leaf.x_hi):
                    g = family_log_ratio_and_quotient_t(t, s, x)[1]
                    assert (g < 0) == (sign == "negative"), (leaf, x)

    @pytest.mark.parametrize("s", [1.0, 2.0, 5.0, 20.0])
    @pytest.mark.parametrize("delta", [1e-2, 1e-3, 1e-6])
    @pytest.mark.parametrize("sign", ["negative", "positive"])
    def test_monotone_leaves_contain_interval_oracle(self, s, delta, sign):
        # A leaf beyond TAYLOR_X0 takes its bounds from the two pieces'
        # endpoint enclosures; an 80-bit mpmath.iv enclosure of the log-ratio
        # at either end and the midpoint must lie inside them.
        ts = sharp_thresholds(s)
        t = ts.p - delta if sign == "negative" else ts.q + delta
        leaves = [n for n in certificate_leaves(certify_sign(t, s, 0.01, 0.99, sign))
                  if n.x_hi > TAYLOR_X0]
        assert leaves
        for leaf in leaves:
            bounds = mp.iv.mpf([leaf.bound_lo, leaf.bound_hi])
            for x in (leaf.x_lo, 0.5 * (leaf.x_lo + leaf.x_hi), leaf.x_hi):
                assert family_log_ratio_iv(t, s, x) in bounds, (leaf, x)

    def test_open_left_end_rejects_negative_and_nan(self):
        for x_lo in (-1e-300, -0.1, math.nan):
            with pytest.raises(ValueError):
                certify_sign(0.2, 2.0, x_lo, 0.9, "negative")


def _reference_certificate(t, s, x_lo, x_hi, budget):
    """Depth-first bisection enclosing every node from its two doubles with
    the ``Interval``-composed reference, not the kernel under test.  A node
    inside [0, TAYLOR_X0] takes its status from ``g = f / x^2`` and
    records ``x^2 g``."""
    params = FamilyParams.from_t(t, s)
    nodes = []
    stack = [(x_lo, x_hi)]
    while stack:
        a, b = stack.pop()
        if b <= TAYLOR_X0:
            sign, enc = reference_taylor(params, a, b)
        else:
            sign = enc = reference_enclosure(params, a, b)
        if sign.hi < 0.0:
            status = "proved_negative"
        elif sign.lo > 0.0:
            status = "proved_positive"
        else:
            mid = 0.5 * (a + b)
            if len(nodes) + 1 < budget and a < mid < b:
                status = "split"
                stack.append((mid, b))
                stack.append((a, mid))
            else:
                status = "inconclusive"
        nodes.append(CertificateNode(a, b, enc.lo, enc.hi, status))
    return nodes


class TestCertificationIdentity:
    """Endpoint enclosures carried from parent to child give the same tree."""

    @pytest.mark.parametrize("s, side, delta, x_lo, x_hi, budget", [
        (2.0, "negative", 0.01, 0.01, 0.99, 100_000),
        (5.0, "negative", 0.001, 0.01, 0.99, 100_000),
        (1.0, "positive", 0.01, 0.01, 0.99, 100_000),
        (20.0, "positive", 0.001, 0.01, 0.99, 100_000),
        (2.0, "negative", 0.01, 0.01, 0.99, 3),
        (2.0, "negative", 0.01, 1e-6, 0.5, 3000),
    ])
    def test_node_list_equals_reference(self, s, side, delta, x_lo, x_hi, budget):
        ts = sharp_thresholds(s)
        t = ts.p - delta if side == "negative" else ts.q + delta
        nodes = certify_sign(t, s, x_lo, x_hi, side, budget)
        assert nodes == _reference_certificate(t, s, x_lo, x_hi, budget)

    def test_identric_parameter_equals_reference(self):
        # u = 0: the m2 piece is the point 0 at every endpoint.
        nodes = certify_sign(0.5, 1.0, 0.01, 0.99, "positive", 1000)
        assert nodes == _reference_certificate(0.5, 1.0, 0.01, 0.99, 1000)

    @pytest.mark.parametrize("t", [0.01, 0.0])
    def test_open_left_end_at_huge_s_equals_reference(self, t):
        # At x_lo = 0, a * a rounds to 0 and X = x^2 reaches one subnormal
        # below 0, so g X needs all four corners: at s = 1e300, g is near
        # -5e299 and its product with -5e-324 sets bound_hi (about 2.7e-24).
        nodes = certify_sign(t, 1e300, 0.0, TAYLOR_X0, "negative", 100)
        assert nodes == _reference_certificate(t, 1e300, 0.0, TAYLOR_X0, 100)
        assert nodes[0].bound_hi > 1e-24


class TestCertificateNodeType:
    """``CertificateNode`` is a named tuple: the old fields by name and in
    order, immutable, hashable, and equal to the plain tuple of its fields."""

    def test_fields_in_order(self):
        assert CertificateNode._fields == ("x_lo", "x_hi", "bound_lo", "bound_hi", "status")
        node = CertificateNode(0.25, 0.5, -1e-3, -1e-4, "proved_negative")
        assert (node.x_lo, node.x_hi, node.bound_lo, node.bound_hi, node.status) == tuple(node)
        assert node == (0.25, 0.5, -1e-3, -1e-4, "proved_negative")

    def test_refuses_assignment(self):
        node = CertificateNode(0.25, 0.5, -1e-3, -1e-4, "proved_negative")
        with pytest.raises(AttributeError):
            node.status = "split"

    def test_hashable(self):
        nodes = certify_sign(sharp_thresholds(2.0).p - 0.01, 2.0, 0.01, 0.99, "negative")
        assert len(set(nodes)) == len(nodes)
        assert all(hash(n) == hash(tuple(n)) for n in nodes)

    def test_equals_reference_nodes(self):
        t = sharp_thresholds(5.0).q + 1e-3
        nodes = certify_sign(t, 5.0, 0.01, 0.99, "positive")
        reference = _reference_certificate(t, 5.0, 0.01, 0.99, 100_000)
        assert all(type(n) is CertificateNode for n in nodes)
        assert nodes == reference
        assert [tuple(n) for n in nodes] == [tuple(n) for n in reference]


_GRID_64_ENTRY = {"count": 64, "spacing": "endpoint_refined", "x_min": 1e-09,
                  "x_max": 0.999999999}
_FAR_WITNESS = {"x": 0.999999999, "pair": (1.999999999, 9.999999717180685e-10)}

# to_dict() of verify_family_inequality(0.25, 2.0, "lower", GridSpec(count=64))
# and of verify_two_thirds_power(1.3, GridSpec(count=64)), as dataclasses.asdict
# gave them when the records were frozen dataclasses.
_VIOLATED_DICT = {
    "verdict": "violated",
    "worst_margin": -0.019170737446734254,
    "witness": {**_FAR_WITNESS, "margin": -0.019170737446734254,
                "margin_recheck": -0.019170737446734167, "label": ""},
    "samples": 64,
    "parameters": {"check": "family", "t": 0.25, "s": 2.0, "side": "lower",
                   "grid": _GRID_64_ENTRY},
}
_TWO_THIRDS_DICT = {
    "p": 1.3,
    "forward": {
        "verdict": "violated",
        "worst_margin": -0.004384592307720536,
        "witness": {**_FAR_WITNESS, "margin": -0.004384592307720536,
                    "margin_recheck": -0.004384592307720526, "label": ""},
        "samples": 64,
        "parameters": {"check": "two_thirds_power", "p_exp": 1.3,
                       "direction": "forward", "grid": _GRID_64_ENTRY},
    },
    "reverse": {
        "verdict": "violated",
        "worst_margin": -0.004059316624141662,
        "witness": {"x": 0.9591117284466527,
                    "pair": (1.9591117284466528, 0.04088827155334729),
                    "margin": -0.004059316624141662,
                    "margin_recheck": -0.004059316624141746, "label": ""},
        "samples": 64,
        "parameters": {"check": "two_thirds_power", "p_exp": 1.3,
                       "direction": "reverse", "grid": _GRID_64_ENTRY},
    },
    "classification": "neither",
    "forward_threshold": 1.3213667348667595,
    "reverse_threshold": 1.2,
}


def _scribble(d: dict) -> None:
    """Replace every value of ``d`` and of the dicts nested in it."""
    for key, value in d.items():
        if isinstance(value, dict):
            _scribble(value)
        else:
            d[key] = None


def _check_to_dict(report, recorded):
    # Fresh nested dicts with the recorded values and types: a change to
    # them does not reach the report.
    d = report.to_dict()
    assert repr(d) == repr(recorded)
    _scribble(d)
    assert repr(report.to_dict()) == repr(recorded)


def _check_grid_spec(spec):
    assert type(GridSpec(count=10.0).count) is int
    assert GridSpec(count=64.0) == spec and hash(GridSpec(count=64.0)) == hash(spec)
    verify._grid.cache_clear()
    first = verify._grid(GridSpec(count=64))
    assert verify._grid(GridSpec(count=64.0)) is first
    assert verify._grid.cache_info().hits == 1


def _check_pair(pair):
    assert (type(pair.a), type(pair.b)) == (float, float)
    assert pair == (1.0, 2.0)


# Each record: its fields in order, its defaults, an instance, the calls it
# refuses with their ValueError messages, and checks of its own.
_RECORDS = {
    "FamilyParams": (
        ("t", "s", "u", "one_minus_u"), {},
        lambda: FamilyParams.from_t(0.2, 2.0),
        [(lambda: FamilyParams(0.6, 2.0, 0.04, 0.96), "t must lie in [0, 1/2], got 0.6"),
         (lambda: FamilyParams(math.nan, 2.0, 0.04, 0.96), "t must lie in [0, 1/2], got nan"),
         (lambda: FamilyParams(0.2, 0.5, 0.36, 0.64), "s must be >= 1, got 0.5"),
         (lambda: FamilyParams(0.2, math.inf, 0.36, 0.64), "s must be finite, got inf"),
         (lambda: FamilyParams(0.2, 2.0, 1.5, 0.64), "u must lie in [0, 1], got 1.5"),
         (lambda: FamilyParams(0.2, 2.0, 0.36, 0.6), "inconsistent u and one_minus_u"),
         (lambda: FamilyParams.from_t(-0.1, 2.0), "t must lie in [0, 1/2], got -0.1"),
         (lambda: FamilyParams.from_u(2, 2.0), "u must lie in [0, 1], got 2.0"),
         (lambda: FamilyParams.from_t(0.2, 2.0)._replace(t=0.6),
          "t must lie in [0, 1/2], got 0.6")],
        None),
    "ThresholdSet": (("s", "p", "q"), {}, lambda: sharp_thresholds(2.0), [], None),
    "ExponentialBoundConstants": (("lower", "upper"), {}, exponential_bound_constants, [], None),
    "PositivePair": (
        ("a", "b"), {},
        lambda: means.PositivePair(1, 2),
        [(lambda: means.PositivePair(0, 1), "pair entries must be > 0, got (0, 1)"),
         (lambda: means.PositivePair(-1, 2), "pair entries must be > 0, got (-1, 2)"),
         (lambda: means.PositivePair(1, math.inf), "pair entries must be finite, got (1, inf)"),
         (lambda: means.PositivePair(1, 2)._replace(b=0), "pair entries must be > 0, got (1.0, 0)")],
        _check_pair),
    "GridSpec": (
        ("count", "spacing", "x_min", "x_max"),
        {"count": 10_000, "spacing": "endpoint_refined", "x_min": 1e-9, "x_max": 1.0 - 1e-9},
        lambda: GridSpec(count=64),
        [(lambda: GridSpec(count=1), "count must be an integer >= 2, got 1"),
         (lambda: GridSpec(count=2.5), "count must be an integer >= 2, got 2.5"),
         (lambda: GridSpec(count=math.inf), "count must be an integer >= 2, got inf"),
         (lambda: GridSpec(spacing="random"), "unknown spacing 'random'"),
         (lambda: GridSpec(x_min=0.0), "need 0 < x_min < x_max < 1, got [0.0, 0.999999999]"),
         (lambda: GridSpec(x_min=0.9, x_max=0.1), "need 0 < x_min < x_max < 1, got [0.9, 0.1]"),
         (lambda: GridSpec(x_max=1.0 - 1e-13), "x_max must not exceed 0.999999999999"),
         (lambda: GridSpec()._replace(count=1), "count must be an integer >= 2, got 1")],
        _check_grid_spec),
    "Witness": (
        ("x", "pair", "margin", "margin_recheck", "label"), {"label": ""},
        lambda: falsify(0.25, 2.0, "lower").witness, [], None),
    "VerificationReport": (
        ("verdict", "worst_margin", "witness", "samples", "parameters"), {},
        lambda: verify_family_inequality(0.25, 2.0, "lower", GridSpec(count=64)), [],
        lambda report: _check_to_dict(report, _VIOLATED_DICT)),
    "FalsificationResult": (
        ("found", "witness", "attempts", "note"), {},
        lambda: falsify(0.25, 2.0, "lower"), [], None),
    "TwoThirdsPowerReport": (
        ("p", "forward", "reverse", "classification", "forward_threshold",
         "reverse_threshold"),
        {"forward_threshold": verify.TWO_THIRDS_FORWARD_THRESHOLD,
         "reverse_threshold": verify.TWO_THIRDS_REVERSE_THRESHOLD},
        lambda: verify_two_thirds_power(1.3, GridSpec(count=64)), [],
        lambda report: _check_to_dict(report, _TWO_THIRDS_DICT)),
}


class TestRecordContract:
    """The package's records are named tuples that keep the contract they
    had as frozen dataclasses: fields, order and defaults, immutability,
    validation and coercion on construction, ``GridSpec`` as a cache key,
    and ``to_dict()`` as fresh nested dicts."""

    @pytest.mark.parametrize("name", list(_RECORDS))
    def test_record_keeps_its_contract(self, name):
        fields, defaults, make, refused, check = _RECORDS[name]
        cls = getattr(meanbounds, name)
        assert cls._fields == fields
        assert cls._field_defaults == defaults
        record = make()
        assert type(record) is cls
        assert tuple(record) == tuple(getattr(record, field) for field in fields)
        with pytest.raises(AttributeError):
            setattr(record, fields[0], getattr(record, fields[0]))
        with pytest.raises(AttributeError):
            record.extra = None
        copy = pickle.loads(pickle.dumps(record))
        assert type(copy) is cls and repr(copy) == repr(record)
        for call, message in refused:
            with pytest.raises(ValueError) as caught:
                call()
            assert str(caught.value) == message
        if check is not None:
            check(record)
