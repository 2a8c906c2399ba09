"""Counterexample search on a fixed ladder of gaps, and the mpmath rechecks.

:func:`falsify` hunts a reversed family inequality near ``x = 1`` (lower
side) or near ``x = 0`` (upper side), where it must appear.  It needs no
numpy: it evaluates the margin at the 10 or 7 ladder points one at a time
in :mod:`math` (:func:`_log_ratio_and_scale`, the scalar twin of
:func:`meanbounds.family._log_ratio_with_scale`, to within ``eps`` times
the error scale), and proves a witness by the sign rule of the
certificates, :func:`meanbounds.intervals._node_bounds` at ``[x, x]``.
mpmath runs for the value it prints, and in place of the sign where that
enclosure straddles 0.

The extended-precision rechecks of every report live here too, so that
the search loads neither numpy nor the grid machinery; :mod:`meanbounds.verify`
imports them, with ``Witness``, ``FalsificationResult`` and ``falsify``.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable
from functools import lru_cache, partial
from typing import NamedTuple

from .intervals import _node_bounds
from .means import SERIES_CROSSOVER, _h, _series_coefficients
from .thresholds import FamilyParams, membership

__all__ = ["Witness", "FalsificationResult", "falsify"]

_EPS = sys.float_info.epsilon
_NOISE_C = 64.0  # multiplier on the rounding-error scale for noise floors
_RECHECK_DPS = 40  # roughly twice the 16 significant digits of binary64
_MAX_RECHECKS = 32
_DBL_MAX = sys.float_info.max

_SIDES = ("lower", "upper")


class Witness(NamedTuple):
    """A grid point with a confirmed reversed inequality.

    ``pair`` is the normalized argument pair ``(1 + x, 1 - x)`` realizing
    the gap; ``margin_recheck`` is the extended-precision margin value.
    """

    x: float
    pair: tuple[float, float]
    margin: float
    margin_recheck: float
    label: str = ""


class FalsificationResult(NamedTuple):
    found: bool
    witness: Witness | None
    attempts: int
    note: str


def _check_side(side: str) -> None:
    if side not in _SIDES:
        raise ValueError(f"side must be one of {_SIDES}, got {side!r}")


# ----------------------------------------------------------------------
# Extended-precision margin rechecks (mpmath, ~2x working precision).
# mpmath is imported here, on the first recheck, so that a check which
# finds no candidate violation never loads it.  What depends on the gap
# alone, X = x, 1 - X^2 and h = ln(A/I), is computed once per process and
# number of digits (_mp_gap_pieces, at most 1,024 entries: witnesses
# gather at a few gaps near x = 0 and x = 1), by the same operations, so a
# recheck's value does not depend on what was rechecked before it.
#
# A margin's terms are O(1), or O(s) and O(p), while the margin can be
# O(x^2) or O(p): 40 digits resolve it only down to about 1e-40 times its
# largest term.  A value below 10**(_RESOLVED_DIGITS - dps) times that
# term is computed again with twice the digits, up to _RECHECK_MAX_DPS,
# which resolves any double margin against terms up to the largest double.
# A value that 40 digits resolve is kept as it is.
# ----------------------------------------------------------------------

_RESOLVED_DIGITS = 10
_RECHECK_MAX_DPS = 1280


@lru_cache(maxsize=1024)
def _mp_gap_pieces(x: float, dps: int):
    """``(X, 1 - X^2, h, log_scale)`` at the gap ``x`` with ``dps`` digits:
    ``h = 1 - atanh(X)/X - ln(1 - X^2)/2 = ln(A/I)`` and ``log_scale`` the
    base-10 log of its largest term (``X^2`` and ``1 - X^2`` are exact)."""
    import mpmath as mp

    with mp.workdps(dps):
        big_x = mp.mpf(x)
        one_minus_sq = 1 - big_x * big_x
        atanh_over_x = mp.atanh(big_x) / big_x
        log_sq = mp.log(one_minus_sq)
        h = 1 - atanh_over_x - log_sq / 2
    log_scale = math.log10(max(float(atanh_over_x), -float(log_sq)))
    return big_x, one_minus_sq, h, log_scale


def _resolved_margin(margin, x: float) -> float:
    """The float of ``margin(x, dps)``, a ``(value, log_scale)`` pair, at
    ``_RECHECK_DPS`` digits, or at twice the digits while the value is not
    resolved, up to ``_RECHECK_MAX_DPS``."""
    dps = _RECHECK_DPS
    while True:
        value, log_scale = margin(x, dps)
        if (dps >= _RECHECK_MAX_DPS or value != 0.0
                and math.log10(abs(value)) > log_scale + _RESOLVED_DIGITS - dps):
            return value
        dps *= 2


def _log10(value: float) -> float:
    """``log10(value)`` for ``value >= 0``, -inf at 0."""
    return math.log10(value) if value > 0.0 else -math.inf


def _family_margin_at(t: float, s: float, side: str, x: float, dps: int):
    import mpmath as mp

    big_x, _, h, log_scale = _mp_gap_pieces(x, dps)
    with mp.workdps(dps):
        val = h
        if t != 0.5:  # u = (1 - 2t)^2 vanishes only at t = 1/2
            u = (1 - 2 * mp.mpf(t)) ** 2
            arg = 1 - u * big_x * big_x
            val += mp.mpf(s) / 2 * mp.log(arg)
            # m2's log carries the rounding of arg = 1 - u X^2 over arg:
            # (s/2)(|ln arg| + 1/arg) <= s / arg.
            log_scale = max(log_scale, math.log10(s) - math.log10(float(arg)))
        return float(-val if side == "lower" else val), log_scale


def _mp_family_margin(t: float, s: float, side: str, x: float) -> float:
    return _resolved_margin(partial(_family_margin_at, t, s, side), x)


# ln(A/I) is the family log-ratio at t = 1/2 (u = 0), where Q(t, s) = A.
def _exp_margin_at(coef: float, side: str, x: float, dps: int):
    import mpmath as mp

    big_x, _, h, log_scale = _mp_gap_pieces(x, dps)
    with mp.workdps(dps):
        g = h - mp.mpf(coef) * big_x ** 2
        return (float(g if side == "lower" else -g),
                max(log_scale, math.log10(coef) + 2.0 * math.log10(x)))


def _mp_exp_margin(coef: float, side: str, x: float) -> float:
    return _resolved_margin(partial(_exp_margin_at, coef, side), x)


def _power_margin_at(p: float, alpha: float, side: str, x: float, dps: int):
    import mpmath as mp

    _, one_minus_sq, h, log_scale = _mp_gap_pieces(x, dps)
    with mp.workdps(dps):
        big_p, big_alpha = mp.mpf(p), mp.mpf(alpha)
        i_pow = mp.e ** (-big_p * h)
        g_pow = one_minus_sq ** (big_p / 2)
        lower = i_pow - big_alpha - (1 - big_alpha) * g_pow
        # Both powers are exp(p * a log): the error of h, and of the log in
        # the power, comes back times p, so they count (1 + p) 10**log_scale.
        growth = math.log10(1.0 + p) + log_scale
        i_f, g_f = float(i_pow), (1.0 - alpha) * float(g_pow)
        return (float(lower if side == "lower" else -lower),
                max(_log10(i_f) + growth, _log10(alpha), _log10(g_f) + growth))


def _mp_power_margin(p: float, alpha: float, side: str, x: float) -> float:
    return _resolved_margin(partial(_power_margin_at, p, alpha, side), x)


# ----------------------------------------------------------------------
# The search.
# ----------------------------------------------------------------------

_FALSIFY_LOWER_LADDER = tuple(1.0 - 10.0 ** (-k) for k in range(3, 13))
_FALSIFY_UPPER_LADDER = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 2e-2, 5e-2)


def _log_ratio_and_scale(params: FamilyParams) -> Callable[[float], tuple[float, float]]:
    """The function giving the log-ratio at a gap ``x`` and its error scale,
    by the IEEE operations of :func:`meanbounds.family._log_ratio_with_scale`
    on one point, in :mod:`math`: the series below ``SERIES_CROSSOVER``,
    ``h`` of :func:`meanbounds.means._h` and ``m2 = (s/2) ln((1 - u) x^2 +
    (1 - x)(1 + x))`` above it.  Only libm's ``log1p`` and ``log`` may
    differ from numpy's, by an ulp or so, which the scale covers.  What
    depends on ``params`` alone is taken once here."""
    c1, c2, c3, c4 = _series_coefficients(params)
    s, u, one_minus_u = params.s, params.u, params.one_minus_u
    three_su = 3.0 * s * u if u else 0.0
    overflows = math.isinf(three_su)
    series_coef = s * u + 1.0 / 3.0 if overflows else 1.0 + three_su
    half_s = 0.5 * s

    def at(x: float) -> tuple[float, float]:
        if x < SERIES_CROSSOVER:
            w = x * x
            value = (((w * c4 + c3) * w + c2) * w + c1) * w
            return value, w * series_coef if overflows else w * series_coef / 3.0
        one_minus_x = 1.0 - x
        h = _h(x, one_minus_x, math.log1p(-x), math.log1p)
        if u == 0.0:
            return h, 8.0
        # A float product rounds an overflow to inf, as the array's does:
        # only s > 1e306 can reach it, to -inf next to x = 1.
        m2 = math.log(x * one_minus_u * x + one_minus_x * (1.0 + x)) * half_s
        # 4 (2 + |m2|), capped at DBL_MAX for s > 1e306, as family's.
        direct = abs(m2) + 2.0
        if s > 1e306:
            direct = min(direct, _DBL_MAX / 4.0)
        return h + m2, 4.0 * direct

    return at


def falsify(t: float, s: float, side: str) -> FalsificationResult:
    """Search for a concrete gap where the inequality at ``(t, s)`` reverses.

    Lower-side failures are hunted near ``x = 1`` and upper-side failures
    near ``x = 0``, where they must appear.  The ladder points whose margin
    lies below its noise floor are the candidates, taken in order of margin,
    ties by ladder index, at most ``_MAX_RECHECKS``; the first one confirmed
    is the witness.  A candidate is confirmed by its enclosure's sign, the
    sign rule of the certificates at ``[x, x]``, which proves every returned
    witness; mpmath decides it only where that enclosure straddles 0, and
    gives each witness's printed ``margin_recheck``.  When none is found,
    ``membership`` decides the side exactly for these doubles: ValueError if
    it holds (nothing to falsify), else a not-found result, as the side
    fails by less than the noise floor at every ladder point.
    """
    _check_side(side)
    t, s = float(t), float(s)
    params = FamilyParams.from_t(t, s)
    lower = side == "lower"
    ladder = _FALSIFY_LOWER_LADDER if lower else _FALSIFY_UPPER_LADDER
    log_ratio = _log_ratio_and_scale(params)
    candidates = []
    for index, x in enumerate(ladder):
        value, scale = log_ratio(x)
        margin = -value if lower else value
        if margin < scale * (-_NOISE_C * _EPS):
            candidates.append((margin, index, x))
    candidates.sort()
    bounds = _node_bounds(params)
    failing = 1 if lower else -1  # the log-ratio's sign where the side fails
    for attempts, (margin, _, x) in enumerate(candidates[:_MAX_RECHECKS], 1):
        sign = bounds(x, x)[0]
        if sign and sign != failing:
            continue
        recheck = _mp_family_margin(t, s, side, x)
        if sign or recheck < 0.0:
            witness = Witness(x=x, pair=(1.0 + x, 1.0 - x), margin=margin,
                              margin_recheck=recheck)
            return FalsificationResult(found=True, witness=witness,
                                       attempts=attempts, note="")
    if membership(t, s) == f"{side}_bound_holds":
        raise ValueError(f"the {side} side holds at t = {t}, s = {s}; "
                         "nothing to falsify")
    return FalsificationResult(
        found=False, witness=None, attempts=len(ladder),
        note="no grid point on the search ladder crossed its noise floor "
             "and survived the extended-precision recheck; the margin is "
             "below the double-precision resolution at these parameters",
    )
