import math

import mpmath as mp
import numpy as np
import pytest

from meanbounds import (
    FamilyParams,
    GridSpec,
    certificate_leaves,
    certificate_succeeded,
    certify_sign,
    empirical_threshold,
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

from meanbounds import verify
from meanbounds.family import _Pieces, _log_ratio_with_scale, _lr_with_error_scale
from meanbounds.intervals import TAYLOR_X0
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


class TestEnclosureRecheck:
    """A bisection step decides a candidate by enclosure as mpmath would."""

    @pytest.mark.parametrize("s", [1.0, 1.5, 2.0, 5.0, 10.0, 50.0])
    @pytest.mark.parametrize("side", ["lower", "upper"])
    @pytest.mark.parametrize("grid", [None, GridSpec(count=512),
                                      GridSpec(count=2000, spacing="uniform")])
    def test_decisions_agree_with_mpmath(self, s, side, grid, monkeypatch):
        decided = []
        point_sign = verify._point_sign

        def recording(params):
            sign_at = point_sign(params)

            def sign(x):
                result = sign_at(x)
                if result:
                    decided.append((params.t, x, result))
                return result
            return sign

        monkeypatch.setattr(verify, "_point_sign", recording)
        empirical_threshold(s, side, grid, tol=1e-6)
        assert decided
        for t, x, sign in decided:
            confirmed = (sign > 0) if side == "lower" else (sign < 0)
            assert (verify._mp_family_margin(t, s, side, x) < 0.0) == confirmed, (t, x)

    def test_reports_keep_the_mpmath_recheck(self):
        # A reported witness prints the extended-precision margin itself.
        report = verify_family_inequality(0.25, 2.0, "lower", SMALL_GRID)
        w = report.witness
        assert w.margin_recheck == verify._mp_family_margin(0.25, 2.0, "lower", w.x)


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
        xs, pieces, _ = verify._grid(None)
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
        info = verify._grid_points_and_pieces.cache_info()
        assert info.maxsize == 1 and info.currsize == 1


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
