"""``falsify`` evaluates its ladder in ``math`` and proves each witness by
its enclosure; it finds what the grid check found on the same ladder."""

import importlib.util
import math
import random
import shlex
import sys
from functools import partial

import numpy as np
import pytest

from meanbounds import FamilyParams, membership, sharp_thresholds, verify, witness
from meanbounds.family import _Pieces, _log_ratio_with_scale
from meanbounds.intervals import _node_bounds
from oracles import ulps_around
from test_startup import ROOT

_DBL_MAX = sys.float_info.max


def _ladder(side):
    return witness._FALSIFY_LOWER_LADDER if side == "lower" else witness._FALSIFY_UPPER_LADDER


def _grid_search(t, s, side):
    """The witness and recheck count of the grid check on ``side``'s ladder:
    numpy margins and scales on ``_Pieces``, each candidate rechecked by
    mpmath alone."""
    xs = np.array(_ladder(side))
    margin_side = verify._family_side(FamilyParams.from_t(t, s), side, _Pieces(xs),
                                      partial(verify._mp_family_margin, t, s, side))
    report, rechecks = verify._run_grid_check(xs, [margin_side], {})
    return report.witness, rechecks


def _assert_search_unchanged(t, s, side):
    """``falsify`` at ``(t, s, side)`` finds what the grid check finds, and
    every ladder margin lies within ``eps * scale`` of the numpy value.
    Returns the result, or None where the side holds."""
    params = FamilyParams.from_t(t, s)
    ladder = _ladder(side)
    vals, scale = _log_ratio_with_scale(params, _Pieces(np.array(ladder)))
    scales = scale(0, len(ladder))
    at = witness._log_ratio_and_scale(params)
    for x, want, bound in zip(ladder, vals, scales):
        got, got_scale = at(x)
        assert abs(got - want) <= witness._EPS * bound, (t, s, side, x)
        assert got_scale == pytest.approx(bound, rel=1e-12), (t, s, side, x)
    expected, rechecks = _grid_search(t, s, side)
    try:
        result = witness.falsify(t, s, side)
    except ValueError as exc:
        assert "nothing to falsify" in str(exc)
        assert expected is None and membership(t, s) == f"{side}_bound_holds"
        return None
    if expected is None:
        assert (result.found, result.witness, result.attempts) == (False, None, len(ladder))
    else:
        assert result.found and result.attempts == rechecks, (t, s, side)
        got = result.witness
        assert (got.x, got.pair, got.margin_recheck) == (
            expected.x, expected.pair, expected.margin_recheck), (t, s, side)
    return result


def _equivalence_draws():
    """Seeded ``(t, s)``: s log-uniform on [1, 1e300] and at the top of the
    double range; t 1e-2, 1e-4 and 1e-7 and up to 3 ulps either side of each
    cutoff, and uniform on [0, 1/2]."""
    rng = random.Random(2036)
    s_values = [math.exp(rng.uniform(0.0, math.log(1e300))) for _ in range(40)]
    for s in s_values + [1e306, _DBL_MAX]:
        ts = sharp_thresholds(s)
        t_values = [rng.uniform(0.0, 0.5) for _ in range(3)]
        for cutoff in (ts.p, ts.q):
            t_values += [cutoff + sign * delta for delta in (1e-2, 1e-4, 1e-7)
                         for sign in (-1.0, 1.0)]
            t_values += ulps_around(cutoff, 3)
        yield from ((t, s) for t in t_values if 0.0 <= t <= 0.5)


def _corpus_cases():
    """``(t, s, side)`` of every ``falsify`` that the CLI corpus runs, as a
    command or as a row of ``certify --s S``."""
    spec = importlib.util.spec_from_file_location("cli_corpus", ROOT / "scripts" / "cli_corpus.py")
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    for _, command, _ in corpus.CORPUS:
        argv = shlex.split(command)
        if argv[0] not in ("falsify", "certify"):
            continue
        opts = dict(zip(argv[1::2], argv[2::2]))
        s = float(opts["--s"])
        if argv[0] == "falsify":
            yield float(opts["--t"]), s, opts["--side"]
        elif s >= 1.0 and sharp_thresholds(s).p + 1e-3 <= 0.5:
            ts = sharp_thresholds(s)
            yield ts.p + 1e-3, s, "lower"
            yield ts.q - 1e-3, s, "upper"


_BENCH_ROUNDS = 500  # per seed


def _bounds_small_cases(seed):
    """``(t, s, side)`` of the two ``falsify`` ops in each of the first
    ``_BENCH_ROUNDS`` rounds that perfbench's ``bounds_small`` draws for
    ``seed``: the same calls on a ``random.Random(seed)``, in its order."""
    rng = random.Random(seed)
    rng.random()  # the rounds' phase

    def s_value():
        return math.exp(rng.uniform(0.0, math.log(50.0)))

    for _ in range(_BENCH_ROUNDS):
        for _ in range(4):  # the family checks: s, then the distance d
            s_value()
            rng.uniform(0.002, 0.02)
        rng.uniform(0.02, 0.1), rng.uniform(0.02, 0.1)  # the exponential bounds
        rng.random()
        rng.uniform(0.02, 0.1), rng.uniform(0.02, 0.1)
        for _ in range(4):  # the convex power bounds
            if rng.random() >= 0.5:
                rng.uniform(2.0, 4.0)
            rng.uniform(0.02, 0.1)
        rng.uniform(1.0, 1.15), rng.uniform(1.22, 1.29), rng.uniform(1.35, 3.0)
        s = s_value()
        yield sharp_thresholds(s).p + rng.uniform(0.01, 0.03), s, "lower"
        s = s_value()
        yield sharp_thresholds(s).q - rng.uniform(0.01, 0.03), s, "upper"
        rng.shuffle([None] * 15)  # the round's 15 ops


class TestEquivalence:
    def test_finds_what_the_grid_check_finds(self):
        found = searched = 0
        for t, s in _equivalence_draws():
            for side in ("lower", "upper"):
                result = _assert_search_unchanged(t, s, side)
                searched += result is not None
                found += bool(result and result.found)
        # Both outcomes, and the refusal where the side holds, are covered.
        assert 0 < found < searched < 1400

    def test_scalar_margins_follow_the_array_path_at_the_top_of_the_range(self):
        # Where 3 s u overflows and where m2 does, next to x = 1.
        for t, s in ((0.0, _DBL_MAX), (0.1, 1e307), (0.4, _DBL_MAX)):
            params = FamilyParams.from_t(t, s)
            ladder = _ladder("lower") + _ladder("upper")
            xs = np.array(sorted(ladder))
            vals, scale = _log_ratio_with_scale(params, _Pieces(xs))
            for x, want, bound in zip(xs.tolist(), vals, scale(0, xs.size)):
                got, got_scale = witness._log_ratio_and_scale(params)(x)
                assert math.isfinite(got_scale) and got_scale == pytest.approx(bound)
                assert got == want or abs(got - want) <= witness._EPS * bound


class TestWitnessesProved:
    """Every witness is proved by the sign rule of the certificates at
    ``[x, x]``; mpmath decides a candidate only where that enclosure
    straddles 0."""

    @staticmethod
    def _run(cases, monkeypatch):
        signs = []

        def recording(params):
            bounds = _node_bounds(params)

            def record(a, b):
                out = bounds(a, b)
                signs.append(out[0])
                return out
            return record

        monkeypatch.setattr(witness, "_node_bounds", recording)
        found = 0
        for t, s, side in cases:
            result = _assert_search_unchanged(t, s, side)
            if result is not None and result.found:
                found += 1
                x = result.witness.x
                failing = 1 if side == "lower" else -1
                assert _node_bounds(FamilyParams.from_t(t, s))(x, x)[0] == failing
                assert result.witness.margin_recheck < 0.0
        return found, signs

    def test_corpus(self, monkeypatch):
        cases = list(_corpus_cases())
        assert len(cases) == 11
        found, signs = self._run(cases, monkeypatch)
        assert found == 7
        assert len(signs) == found and 0 not in signs  # no straddle fallback

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_bounds_small_seeds(self, seed, monkeypatch):
        cases = list(_bounds_small_cases(seed))
        found, signs = self._run(cases, monkeypatch)
        assert found == len(cases) == 2 * _BENCH_ROUNDS
        assert len(signs) == found and 0 not in signs  # no straddle fallback

    def test_a_straddle_falls_back_to_mpmath(self, monkeypatch):
        # With every enclosure straddling 0, mpmath decides each candidate,
        # as the grid check's recheck does: the same witness and count.
        monkeypatch.setattr(witness, "_node_bounds", lambda params: lambda a, b: (0, -1.0, 1.0))
        for t, s, side in list(_corpus_cases()) + list(_bounds_small_cases(1))[:40]:
            _assert_search_unchanged(t, s, side)

    def test_a_proved_holding_sign_drops_the_candidate(self, monkeypatch):
        asked = []
        monkeypatch.setattr(witness, "_mp_family_margin", lambda *args: asked.append(args))
        for side, t in (("lower", 0.26), ("upper", 0.2)):
            holding = -1 if side == "lower" else 1
            monkeypatch.setattr(witness, "_node_bounds",
                                lambda params, sign=holding: lambda a, b: (sign, 0.0, 0.0))
            result = witness.falsify(t, 2.0, side)
            assert (result.found, result.attempts) == (False, len(_ladder(side)))
        assert asked == []
