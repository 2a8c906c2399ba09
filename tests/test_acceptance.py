"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single ``acceptance N ...: PASS`` line on success (run
with ``pytest -v tests/test_acceptance.py`` to see one line per criterion
either way) and asserts its runtime budget.
"""

import math
import time

import numpy as np
import pytest

from meanbounds import (
    FamilyParams,
    GridSpec,
    PositivePair,
    arithmetic_mean,
    certificate_leaves,
    certificate_succeeded,
    certify_sign,
    derivative_kernel,
    empirical_threshold,
    exponential_bound_constants,
    gap,
    geometric_mean,
    grid_points,
    harmonic_mean,
    identric_mean,
    log_identric_over_arithmetic,
    log_ratio_q_over_i,
    q_mean,
    sharp_thresholds,
    verify_convex_power_bound,
    verify_exponential_bounds,
    verify_family_inequality,
    verify_two_thirds_power,
)

from meanbounds.means import SERIES_CROSSOVER
from oracles import lr_gap

EPS = float(np.finfo(float).eps)
SHARPNESS_S = (1.0, 1.5, 2.0, 3.0, 10.0)


class _Budget:
    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        if exc == (None, None, None):
            assert self.elapsed < self.seconds, (
                f"runtime {self.elapsed:.2f}s exceeded budget {self.seconds}s")
        return False


def _done(n, label):
    print(f"acceptance {n} ({label}): PASS")


def test_criterion_01_closed_form_identities():
    with _Budget(1.0):
        assert identric_mean(PositivePair(1, 2)) == pytest.approx(
            4 / math.e, rel=1e-13)
        assert identric_mean(PositivePair(2, 4)) == pytest.approx(
            8 / math.e, rel=1e-13)
        rng = np.random.default_rng(20260808)
        for _ in range(1000):
            a, b = 10.0 ** rng.uniform(-6, 6, size=2)
            t = rng.uniform(0.0, 0.5)
            pair = PositivePair(a, b)
            c = t * a + (1 - t) * b
            d = t * b + (1 - t) * a
            mixed_harmonic = 2 * c * d / (c + d)
            assert q_mean(pair, t, 2.0) == pytest.approx(
                mixed_harmonic, rel=1e-12)
    _done(1, "closed-form identities")


def test_criterion_02_series_direct_consistency():
    with _Budget(1.0):
        vs = np.geomspace(1e-8, 1e-3, 100)
        # Every point lies on the series path of the public function.
        assert np.all(vs < SERIES_CROSSOVER)
        series = log_identric_over_arithmetic(vs)
        # Independent direct-formula route at high precision; binary64
        # cannot evaluate the direct expression to 1e-12 relative here.
        direct = np.array([float(lr_gap(v)) for v in vs])
        ratio_series = series / (vs * vs)
        ratio_direct = direct / (vs * vs)
        rel = np.abs(ratio_series - ratio_direct) / np.abs(ratio_direct)
        assert np.max(rel) < 1e-12
    _done(2, "series/direct consistency")


def test_criterion_03_sharpness_holds_side():
    with _Budget(5.0):
        for s in SHARPNESS_S:
            ts = sharp_thresholds(s)
            low = verify_family_inequality(ts.p, s, "lower")
            upp = verify_family_inequality(ts.q, s, "upper")
            assert low.verdict == "holds_on_grid", f"s={s} lower"
            assert upp.verdict == "holds_on_grid", f"s={s} upper"
            assert low.samples == 10_000
    _done(3, "sharpness, holds side")


def test_criterion_04_sharpness_fails_side():
    with _Budget(5.0):
        for s in SHARPNESS_S:
            ts = sharp_thresholds(s)
            low = verify_family_inequality(ts.p + 1e-3, s, "lower")
            assert low.verdict == "violated", f"s={s} lower"
            assert low.witness.x > 0.99
            assert low.witness.margin_recheck < 0.0
            upp = verify_family_inequality(ts.q - 1e-3, s, "upper")
            assert upp.verdict == "violated", f"s={s} upper"
            assert upp.witness.x < 0.2
            assert upp.witness.margin_recheck < 0.0
    _done(4, "sharpness, fails side")


def test_criterion_05_empirical_threshold_recovery():
    with _Budget(30.0):
        for s in (1.0, 2.0, 5.0):
            ts = sharp_thresholds(s)
            p_emp = empirical_threshold(s, "lower", tol=1e-6)
            q_emp = empirical_threshold(s, "upper", tol=1e-6)
            assert p_emp == pytest.approx(ts.p, abs=1e-5), f"s={s} lower"
            assert q_emp == pytest.approx(ts.q, abs=1e-5), f"s={s} upper"
    _done(5, "empirical threshold recovery")


def test_criterion_06_exponential_bounds():
    with _Budget(2.0):
        const = exponential_bound_constants()
        sharp = verify_exponential_bounds(const.lower, const.upper)
        assert sharp.verdict == "holds_on_grid"

        low_pert = verify_exponential_bounds(const.lower + 1e-3, const.upper)
        assert low_pert.verdict == "violated"
        assert low_pert.witness.label == "lower"
        assert low_pert.witness.x < 0.2  # failure regime x -> 0

        upp_pert = verify_exponential_bounds(const.lower, const.upper - 1e-3)
        assert upp_pert.verdict == "violated"
        assert upp_pert.witness.label == "upper"
        assert upp_pert.witness.x > 0.9  # failure regime x -> 1

        ratio_small = -log_identric_over_arithmetic(1e-4) / 1e-8
        assert ratio_small == pytest.approx(1 / 6, abs=1e-6)
        v = 1 - 1e-9
        ratio_large = -log_identric_over_arithmetic(v) / (v * v)
        assert ratio_large == pytest.approx(1 - math.log(2), abs=1e-6)
    _done(6, "exponential bounds")


def test_criterion_07_prior_power_bounds():
    with _Budget(5.0):
        sharp_cases = [
            (1.0, 2 / 3, "lower"),
            (1.0, 2 / math.e, "upper"),
            (2.0, (2 / math.e) ** 2, "lower"),
            (2.0, 2 / 3, "upper"),
        ]
        for p, alpha, side in sharp_cases:
            report = verify_convex_power_bound(p, alpha, side)
            assert report.verdict == "holds_on_grid", (p, alpha, side)
        shifted_cases = [
            (1.0, 2 / 3 + 1e-3, "lower"),
            (1.0, 2 / math.e - 1e-3, "upper"),
            (2.0, (2 / math.e) ** 2 + 1e-3, "lower"),
            (2.0, 2 / 3 - 1e-3, "upper"),
        ]
        for p, alpha, side in shifted_cases:
            report = verify_convex_power_bound(p, alpha, side)
            assert report.verdict == "violated", (p, alpha, side)
            assert report.witness is not None

        assert verify_two_thirds_power(1.1).classification == "reverse_holds"
        assert verify_two_thirds_power(1.25).classification == "neither"
        assert verify_two_thirds_power(1.4).classification == "forward_holds"
    _done(7, "prior power bounds")


def test_criterion_08_certification():
    with _Budget(10.0):
        ts = sharp_thresholds(2.0)
        t = ts.p - 0.01
        nodes = certify_sign(t, 2.0, 0.01, 0.99, "negative", budget=100_000)
        assert len(nodes) <= 100_000
        assert certificate_succeeded(nodes, "negative")
        params = FamilyParams.from_t(t, 2.0)
        xs = grid_points(GridSpec())
        inside = xs[(xs >= 0.01) & (xs <= 0.99)]
        values = log_ratio_q_over_i(params, inside)
        for leaf in certificate_leaves(nodes):
            covered = values[(inside >= leaf.x_lo) & (inside <= leaf.x_hi)]
            assert np.all(covered < 0.0), "leaf contradicted by grid sample"
    _done(8, "interval certification")


def test_criterion_09_structural_property_suite():
    rng = np.random.default_rng(99)
    n = 1000

    # symmetry: exact under argument swap
    for _ in range(n):
        a, b = 10.0 ** rng.uniform(-6, 6, size=2)
        p, q = PositivePair(a, b), PositivePair(b, a)
        assert arithmetic_mean(p) == arithmetic_mean(q)
        assert geometric_mean(p) == geometric_mean(q)
        assert harmonic_mean(p) == harmonic_mean(q)
        assert identric_mean(p) == identric_mean(q)

    # homogeneity: 4 ulp for the algebraic means; the identric mean pays
    # the gap coordinate's conditioning near v = 1 (see decisions ledger)
    for _ in range(n):
        a, b = 10.0 ** rng.uniform(-6, 6, size=2)
        lam = 10.0 ** rng.uniform(-6, 6)
        p, ps = PositivePair(a, b), PositivePair(lam * a, lam * b)
        for mean in (arithmetic_mean, geometric_mean, harmonic_mean):
            assert abs(mean(ps) - lam * mean(p)) <= 4 * EPS * abs(lam * mean(p))
        assert abs(identric_mean(ps) - lam * identric_mean(p)) \
            <= 1e-13 * lam * identric_mean(p)

    # ordering chain, strict away from equal arguments
    for _ in range(n):
        scale = 10.0 ** rng.uniform(-6, 6)
        v = rng.uniform(1e-6, 1 - 1e-9)
        p = PositivePair(scale * (1 + v), scale * (1 - v))
        h, g = harmonic_mean(p), geometric_mean(p)
        i, a = identric_mean(p), arithmetic_mean(p)
        assert h < g < i < a

    # monotonicity in t on a grid
    ts_grid = np.linspace(0.0, 0.5, 21)
    for _ in range(n):
        scale = 10.0 ** rng.uniform(-3, 3)
        v = rng.uniform(1e-3, 1 - 1e-6)
        s = rng.uniform(1.0, 20.0)
        p = PositivePair(scale * (1 + v), scale * (1 - v))
        vals = [q_mean(p, t, s) for t in ts_grid]
        assert all(y > x for x, y in zip(vals, vals[1:]))

    # bridge identity between the family function and the mean quotient
    for _ in range(n):
        v = rng.uniform(1e-6, 1 - 1e-6)
        t = rng.uniform(0.0, 0.5)
        s = rng.uniform(1.0, 20.0)
        p = PositivePair(1 + v, 1 - v)
        params = FamilyParams.from_t(t, s)
        lhs = log_ratio_q_over_i(params, gap(p))
        rhs = math.log(q_mean(p, t, s) / identric_mean(p))
        assert abs(lhs - rhs) <= 1e-12

    # derivative check: central difference of the log-ratio vs kernel/x^2
    step = 1e-6
    for _ in range(n):
        u = rng.uniform(0.0, 1.0)
        s = rng.uniform(1.0, 10.0)
        x = rng.uniform(0.05, 0.95)
        params = FamilyParams.from_u(u, s)
        fd = (log_ratio_q_over_i(params, x + step)
              - log_ratio_q_over_i(params, x - step)) / (2 * step)
        kernel = derivative_kernel(params, x) / (x * x)
        assert abs(fd - kernel) <= 1e-5 * abs(kernel) + 2e-8

    _done(9, "structural property suite")
