"""Closed-form sharp thresholds for the mean-comparison family.

For each ``s >= 1`` there are two cutoffs in ``t``: below ``p`` the
two-parameter mean stays under the identric mean for every distinct pair,
and above ``q`` it stays over.  Both have closed forms, and both are
re-derivable from the one-variable analysis conditions ``3 s u <= 1`` and
``u + (2/e)^(2/s) >= 1`` with ``u = (1-2t)^2``; ``threshold_consistency``
checks that round trip.  ``membership`` does not compare ``t`` with the
rounded cutoffs: it decides those two conditions exactly for the caller's
doubles, the first in rationals and the second by an interval enclosure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "ThresholdSet",
    "ExponentialBoundConstants",
    "sharp_thresholds",
    "membership",
    "exponential_bound_constants",
    "threshold_consistency",
]

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class ThresholdSet:
    """Sharp cutoffs for one value of ``s``.

    ``p`` ends the interval of t-values whose mean stays below the
    identric mean; ``q`` starts the interval staying above.  Always
    ``0 < p < q < 1/2``.
    """

    s: float
    p: float
    q: float


@dataclass(frozen=True)
class ExponentialBoundConstants:
    """Sharp coefficients of ``exp(c * v^2)`` bounds on A/I: 1/6 and 1 - ln 2."""

    lower: float
    upper: float


def _two_over_e_pow(s: float) -> float:
    # (2/e)**(2/s) as exp((2/s)(ln 2 - 1)): one rounding in the exponent
    # instead of powering a transcendental base.
    return math.exp((2.0 / s) * (_LN2 - 1.0))


def _one_minus_two_over_e_pow(s: float) -> float:
    # 1 - (2/e)**(2/s) via expm1; the direct subtraction cancels for large s.
    return -math.expm1((2.0 / s) * (_LN2 - 1.0))


def _checked_s(s: float) -> float:
    s = float(s)
    if not (math.isfinite(s) and s >= 1.0):
        raise ValueError(f"s must be >= 1, got {s}")
    return s


def sharp_thresholds(s: float) -> ThresholdSet:
    """Closed forms ``p = (1 - sqrt(1-(2/e)^(2/s)))/2``, ``q = (1 - 1/sqrt(3s))/2``."""
    s = _checked_s(s)
    p = 0.5 * (1.0 - math.sqrt(_one_minus_two_over_e_pow(s)))
    q = 0.5 - 0.5 / math.sqrt(3.0 * s)
    return ThresholdSet(s=s, p=p, q=q)


# Precisions tried for the enclosure of L: doubling from the first, up to
# and including the cap (80 * 2^6).
_LIMIT_PREC, _LIMIT_PREC_CAP = 80, 5120


def membership(t: float, s: float) -> str:
    """Classify the double ``t`` against the sharp cutoffs for the double ``s``.

    Returns "lower_bound_holds" (``Q(t, s) < I`` for every pair ``a != b``,
    the side ``t <= p``), "upper_bound_holds" (``I < Q(t, s)``, ``t >= q``),
    or "neither".  The verdict is exact for the doubles passed in, which
    the closed-form doubles ``p`` and ``q`` can sit an ulp beyond.

    With ``u = (1-2t)^2``, the upper side holds iff ``3 s u <= 1``: then
    every series coefficient of the log-ratio is >= 0, and otherwise the
    first is < 0.  That is decided in rationals.  For the lower side,
    ``t = 0`` holds, since ``Q(0, s) = G (G/A)^(s-1) <= G < I``.  Otherwise
    ``3 s u > 1`` is needed, and then the log-ratio falls and then rises
    (its kernel trinomial is < 0 at 0, > 0 at 1 and concave), so the side
    holds iff its limit at 1, ``L = 1 - ln 2 + (s/2) ln(4t(1-t))``, is
    <= 0.  ``L`` is enclosed with ``mpmath.iv`` from 80 bits, doubling the
    precision while the enclosure contains 0.  ``L = 0`` would make ``e``
    algebraic, so this ends for every pair of doubles; RuntimeError is
    raised, never a guess, should 5120 bits not suffice.
    """
    t = float(t)
    if not 0.0 <= t <= 0.5:  # NaN fails too
        raise ValueError(f"t must lie in [0, 1/2], got {t}")
    s = _checked_s(s)
    from fractions import Fraction

    if 3 * Fraction(s) * (1 - 2 * Fraction(t)) ** 2 <= 1:
        return "upper_bound_holds"
    if t == 0.0:
        return "lower_bound_holds"
    from mpmath import iv

    saved = iv.prec
    try:
        prec = _LIMIT_PREC
        while prec <= _LIMIT_PREC_CAP:
            iv.prec = prec
            t_iv = iv.mpf(t)
            limit = 1 - iv.log(2) + iv.mpf(s) / 2 * iv.log(4 * t_iv * (1 - t_iv))
            if limit.b <= 0:
                return "lower_bound_holds"
            if limit.a > 0:
                return "neither"
            prec *= 2
    finally:
        iv.prec = saved
    raise RuntimeError(f"the sign of L at t = {t!r}, s = {s!r} is not "
                       f"resolved at {_LIMIT_PREC_CAP} bits")


def exponential_bound_constants() -> ExponentialBoundConstants:
    return ExponentialBoundConstants(lower=1.0 / 6.0, upper=1.0 - _LN2)


def threshold_consistency(s: float, tol: float = 1e-12) -> bool:
    """Re-derive both cutoffs from the analysis conditions and compare.

    At ``t = p`` the derived ``u = (1-2t)^2`` must satisfy
    ``u + (2/e)^(2/s) = 1``; at ``t = q`` it must satisfy ``3 s u = 1``.
    True when both hold within ``tol``.
    """
    ts = sharp_thresholds(s)
    one_minus_2p = 1.0 - 2.0 * ts.p
    u_p = one_minus_2p * one_minus_2p
    one_minus_2q = 1.0 - 2.0 * ts.q
    u_q = one_minus_2q * one_minus_2q
    lower_ok = abs(u_p + _two_over_e_pow(float(s)) - 1.0) <= tol
    upper_ok = abs(3.0 * float(s) * u_q - 1.0) <= tol
    return lower_ok and upper_ok
