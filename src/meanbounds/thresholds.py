"""The parameter domain and the closed-form sharp thresholds of the family.

:class:`FamilyParams` owns the domain of ``(t, s)``: the evaluators, the
certificates and ``membership`` all validate through it, with one set of
messages.  For each ``s >= 1`` there are two cutoffs in ``t``: below ``p``
the two-parameter mean stays under the identric mean for every distinct
pair, and above ``q`` it stays over.  ``sharp_thresholds`` returns their
closed forms, rounded to doubles.  ``membership`` is the one place that
decides which side of a cutoff a double ``t`` lies on.  It never compares
``t`` with the rounded cutoffs: with ``u = (1-2t)^2`` it decides the upper
side's condition ``3 s u <= 1`` in rationals, and the lower side's
condition on the log-ratio's limit at 1, ``1 - ln 2 + (s/2) ln(4t(1-t))
<= 0``, by an interval enclosure, both exactly for the caller's doubles.
Its float-pair twin, ``intervals._membership_enclosure``, decides the same
verdict without ``fractions`` or mpmath where it can, under the interval
kernel's libm assumption; no verdict reads it yet.
"""

from __future__ import annotations

import math
from typing import NamedTuple

__all__ = [
    "EVAL_LIMIT",
    "FamilyParams",
    "ThresholdSet",
    "ExponentialBoundConstants",
    "sharp_thresholds",
    "membership",
    "exponential_bound_constants",
]

_LN2 = math.log(2.0)

# Direct evaluation is supported up to this point; beyond it a double x
# resolves 1 - x to fewer than four digits, and the x -> 1 behavior is
# exposed through family.log_ratio_limit_at_one instead.
EVAL_LIMIT = 1.0 - 1e-12


def _checked_s(s: float) -> float:
    s = float(s)
    if not math.isfinite(s):
        raise ValueError(f"s must be finite, got {s}")
    if s < 1.0:
        raise ValueError(f"s must be >= 1, got {s}")
    return s


class _FamilyFields(NamedTuple):
    t: float
    s: float
    u: float
    one_minus_u: float


class FamilyParams(_FamilyFields):
    """Parameters ``(t, s)`` with the derived ``u = (1-2t)^2``.

    ``one_minus_u`` is carried separately so that ``1 - u*x**2`` can be
    formed without cancellation as ``(1-x)(1+x) + one_minus_u * x**2``.
    Construct via :meth:`from_t` or :meth:`from_u`.  A named tuple of its
    fields, validated on construction, :meth:`_replace` included.
    """

    __slots__ = ()

    def __new__(cls, t: float, s: float, u: float, one_minus_u: float):
        if not 0.0 <= t <= 0.5:  # NaN fails too
            raise ValueError(f"t must lie in [0, 1/2], got {t}")
        _checked_s(s)
        if not 0.0 <= u <= 1.0 or not 0.0 <= one_minus_u <= 1.0:
            raise ValueError(f"u must lie in [0, 1], got {u}")
        if abs(u + one_minus_u - 1.0) > 1e-12:
            raise ValueError("inconsistent u and one_minus_u")
        return super().__new__(cls, t, s, u, one_minus_u)

    @classmethod
    def _make(cls, iterable) -> "FamilyParams":
        return cls(*iterable)

    @classmethod
    def from_t(cls, t: float, s: float) -> "FamilyParams":
        t = float(t)
        s = float(s)
        # An out-of-range t fails the range check of __new__.
        one_minus_2t = 1.0 - 2.0 * t
        return cls(t=t, s=s, u=one_minus_2t * one_minus_2t,
                   one_minus_u=4.0 * t * (1.0 - t))

    @classmethod
    def from_u(cls, u: float, s: float) -> "FamilyParams":
        u = float(u)
        s = float(s)
        if not 0.0 <= u <= 1.0:
            raise ValueError(f"u must lie in [0, 1], got {u}")
        return cls(t=0.5 * (1.0 - math.sqrt(u)), s=s, u=u, one_minus_u=1.0 - u)


class ThresholdSet(NamedTuple):
    """Sharp cutoffs for one value of ``s``.

    ``p`` ends the interval of t-values whose mean stays below the
    identric mean; ``q`` starts the interval staying above.  The exact
    cutoffs satisfy ``0 < p < q < 1/2``, their doubles ``0 < p <= q <=
    1/2``: they round to one double from ``s ~ 4.1e30``, and to 1/2 from
    ``s ~ 1.1e32`` (``q``) and ``s ~ 2e32`` (``p``).
    """

    s: float
    p: float
    q: float


class ExponentialBoundConstants(NamedTuple):
    """Sharp coefficients of ``exp(c * v^2)`` bounds on A/I: 1/6 and 1 - ln 2."""

    lower: float
    upper: float


def sharp_thresholds(s: float) -> ThresholdSet:
    """Closed forms ``p = (1 - sqrt(1-(2/e)^(2/s)))/2``, ``q = (1 - 1/sqrt(3s))/2``."""
    s = _checked_s(s)
    # 1 - (2/e)**(2/s) via expm1; the direct subtraction cancels for large s.
    p = 0.5 * (1.0 - math.sqrt(-math.expm1((2.0 / s) * (_LN2 - 1.0))))
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
    params = FamilyParams.from_t(t, s)
    t, s = params.t, params.s
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

