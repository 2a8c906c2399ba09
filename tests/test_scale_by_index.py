"""Error scales read by index range, and the grid check that reads them.

A grid check reads its error scale only at its negative margins: the
least margin's entry, then from a side's first negative margin to its
last.  Each entry read must be the whole-array scale's entry bit for bit,
and the check must give the report, the recheck count and the recheck
order of the full-floor check.  Both references are in
``scale_reference.py``.
"""

import random
import sys
from functools import partial

import numpy as np
import pytest

from meanbounds import FamilyParams, GridSpec, grid_points
from meanbounds import verify
from meanbounds.family import (_exp_bound_margin_with_scale, _log_ratio_with_scale,
                               _lr_with_error_scale, _Pieces)
from scale_reference import exp_scale, family_scale, power_scale, run_grid_check

DBL_MAX = sys.float_info.max

# Both regions, and one grid whose x^2 runs from 0 (x = 1e-162) through the
# subnormals to normal doubles.
_GRIDS = {
    "refined": grid_points(GridSpec(count=512)),
    "subnormal_squares": np.concatenate([np.geomspace(1e-162, 1e-150, 60),
                                         np.geomspace(1e-4, 0.999, 60)]),
    "direct_only": np.linspace(0.02, 0.98, 50),
    "series_only": np.geomspace(1e-9, 5e-3, 50),
}


def _ranges(n: int, seed: int):
    """Seeded index ranges ``(lo, hi)`` on ``n`` points, empty ones first."""
    rng = random.Random(seed)
    yield 0, 0
    yield n // 2, n // 2
    yield n, n
    yield 0, 1
    yield n - 1, n
    yield 0, n
    for _ in range(12):
        yield tuple(sorted((rng.randint(0, n), rng.randint(0, n))))


def _assert_reads_equal(reader, full: np.ndarray, seed: int):
    for lo, hi in _ranges(full.size, seed):
        got = reader(lo, hi)
        assert got.dtype == np.float64 and got.shape == (hi - lo,)
        assert got.tobytes() == full[lo:hi].tobytes(), (lo, hi)


class TestScaleEntries:
    """Every entry read by index range is the whole-array entry, bit for bit."""

    @pytest.mark.parametrize("grid", sorted(_GRIDS))
    @pytest.mark.parametrize("t, s", [(0.5, 2.0), (0.5, DBL_MAX), (0.2, 2.0), (0.0, 1.0),
                                      (0.01, 1e307), (0.01, 1.1e308), (0.01, DBL_MAX),
                                      (0.3, 50.0)])
    def test_family(self, grid, t, s):
        pieces = _Pieces(_GRIDS[grid])
        params = FamilyParams.from_t(t, s)
        _assert_reads_equal(_log_ratio_with_scale(params, pieces)[1],
                            family_scale(params, pieces), seed=len(grid) + int(100 * t))

    def test_family_covers_its_edge_cases(self):
        # The cases above reach x^2 = 0 and subnormal x^2, 3 s u overflowing
        # and the DBL_MAX cap of the direct scale.
        xs = _GRIDS["subnormal_squares"]
        assert xs[0] * xs[0] == 0.0
        assert np.any((xs * xs > 0.0) & (xs * xs < sys.float_info.min))
        params = FamilyParams.from_t(0.01, 1.1e308)
        assert 3.0 * params.s * params.u == np.inf
        full = family_scale(params, _Pieces(_GRIDS["refined"]))
        assert full.max() == DBL_MAX

    @pytest.mark.parametrize("grid", sorted(_GRIDS))
    def test_identric(self, grid):
        pieces = _Pieces(_GRIDS[grid])
        _assert_reads_equal(_lr_with_error_scale(pieces)[1],
                            family_scale(FamilyParams.from_u(0.0, 1.0), pieces), seed=5)

    @pytest.mark.parametrize("grid", sorted(_GRIDS))
    @pytest.mark.parametrize("coef", [1.0 / 6.0, 0.31, 9e307, np.nextafter(DBL_MAX / 2.0, 0.0),
                                      DBL_MAX / 2.0, np.nextafter(DBL_MAX / 2.0, np.inf),
                                      DBL_MAX])
    def test_exponential(self, grid, coef):
        xs = _GRIDS[grid]
        pieces = _Pieces(xs)
        lr, scale_lr = _lr_with_error_scale(pieces)
        whole_lr = family_scale(FamilyParams.from_u(0.0, 1.0), pieces)
        _assert_reads_equal(_exp_bound_margin_with_scale(float(coef), lr, scale_lr, xs)[1],
                            exp_scale(float(coef), whole_lr, xs), seed=7)

    @pytest.mark.parametrize("grid", sorted(_GRIDS))
    @pytest.mark.parametrize("p", [1.0, 2.5, 1e307, 2e307, DBL_MAX])
    def test_power(self, grid, p):
        g = verify._Grid(_GRIDS[grid].copy(), {})
        lr, _, ln_sq = g.logs
        whole_lr = family_scale(FamilyParams.from_u(0.0, 1.0), g.pieces)
        for alpha in (0.0, 1.0, 2.0 / 3.0, 0.3):
            full = power_scale(p, alpha, lr, whole_lr, ln_sq)
            for side in verify._power_sides(p, alpha, g.logs, ("lower", "upper")):
                _assert_reads_equal(side[2], full, seed=11)


def _recheck(flip: frozenset, asked: list, label: str, x: float) -> float:
    asked.append((label, x))
    return 1.0 if (label, x) in flip else -1.0


def _grid_check_inputs(seed: int):
    """Seeded sides with NaN, -0.0, ties and margins inside their floors."""
    rng = random.Random(seed)
    n = rng.choice((1, 2, 5, 40, 300))
    xs = np.linspace(0.01, 0.99, n)
    pool = (-3.0, -1.0, -1.0, -1e-20, -1e-14, -0.0, 0.0, 0.25, 1.0, float("nan"))
    scale_pool = (1.0, 0.0, 1e10, 1e-300, float("inf"), float("nan"))
    labels = ("",) if rng.random() < 0.5 else ("lower", "upper")
    margins = [np.array([rng.choice(pool) for _ in range(n)]) for _ in labels]
    if rng.random() < 0.3:  # some with no negative margin
        margins = [np.abs(m) for m in margins]
    scales = [np.array([rng.choice(scale_pool) for _ in range(n)]) for _ in labels]
    flip = frozenset((label, float(x)) for label in labels for x in xs if rng.random() < 0.7)
    return xs, labels, margins, scales, flip


def _read_only(scale: np.ndarray):
    """A reader of ``scale`` by index range, which fails on a write."""
    scale.flags.writeable = False
    return lambda lo, hi: scale[lo:hi]


def _run(check, xs, labels, margins, scales, flip):
    asked = []
    sides = [(label, m.copy(), s, partial(_recheck, flip, asked, label))
             for label, m, s in zip(labels, margins, scales)]
    report, rechecks = check(xs, sides, {})
    return repr(report), rechecks, asked


class TestGridCheckReference:
    """The range-reading check gives the full-floor check's report."""

    @pytest.mark.parametrize("seed", range(200))
    def test_equals_the_full_floor_check(self, seed):
        xs, labels, margins, scales, flip = _grid_check_inputs(seed)
        want = _run(run_grid_check, xs, labels, margins, [s.copy() for s in scales], flip)
        assert _run(verify._run_grid_check, xs, labels, margins,
                    [_read_only(s) for s in scales], flip) == want

    def test_inputs_cover_nan_signed_zero_and_ties(self):
        seen = {"nan": 0, "negative_zero": 0, "two_sided": 0, "witness": 0, "rechecks>1": 0}
        for seed in range(200):
            xs, labels, margins, scales, flip = _grid_check_inputs(seed)
            flat = np.concatenate(margins)
            seen["nan"] += bool(np.isnan(flat).any())
            seen["negative_zero"] += bool(np.any((flat == 0.0) & np.signbit(flat)))
            seen["two_sided"] += len(labels) == 2
            report, rechecks, _ = _run(run_grid_check, xs, labels, margins,
                                       [s.copy() for s in scales], flip)
            seen["witness"] += "violated" in report
            seen["rechecks>1"] += rechecks > 1
        assert min(seen.values()) >= 20, seen
