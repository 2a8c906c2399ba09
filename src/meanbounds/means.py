"""Bivariate means and the normalized-gap reduction.

All means here are symmetric, homogeneous of degree one, and extend
continuously to equal arguments.  Every comparison between them reduces to
a one-variable function of the normalized gap ``v = |a - b| / (a + b)``,
so the numerically delicate work is concentrated in ``ln(I/A) = -h(v)``,
with a series path near the removable singularity at ``v = 0`` and the
bounded form ``-h(v)`` elsewhere.  This module defines both, :func:`_h` and
the series coefficients ``_H_SERIES`` below ``SERIES_CROSSOVER``, once for
the package, with the family's coefficients (:func:`_series_coefficients`):
:func:`identric_mean` evaluates them on one pair in :mod:`math`, so it
loads neither numpy nor mpmath, as :mod:`meanbounds.witness` does on one
gap, and :func:`log_identric_over_arithmetic` evaluates them on arrays as
the ``u = 0`` case of the family log-ratio in :mod:`meanbounds.family`,
which it imports on first call.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

from .thresholds import FamilyParams

__all__ = [
    "PositivePair",
    "arithmetic_mean",
    "geometric_mean",
    "harmonic_mean",
    "identric_mean",
    "q_mean",
    "gap",
    "pair_from_gap",
    "log_identric_over_arithmetic",
    "SERIES_CROSSOVER",
]

# Below this gap the direct form keeps only absolute (not relative)
# accuracy: its few-ulp error on the O(1) quotient in h divided by x^2 swamps
# quantities like ln(A/I)/x^2 - 1/6 once x^2 is small.  The degree-8 series
# still truncates below 6e-18 relative at 1e-2, so it owns everything
# beneath that point.
SERIES_CROSSOVER = 1e-2

# h(v) = sum 1/(2k(2k+1)) v^(2k), k = 1..4, below SERIES_CROSSOVER: the
# s-free parts of the family's series coefficients.
_H_SERIES = (1.0 / 6.0, 1.0 / 20.0, 1.0 / 42.0, 1.0 / 72.0)


def _h(v, d, ln_d, log1p):
    """``h = 1 - [(1+v) ln(1+v) - d ln d] / (2v)`` given ``d = 1 - v`` and ``ln d``.

    Both products are >= 0 and their quotient by ``2v`` lies in [ln 2, 1], so
    nothing cancels.  ``log1p`` is ``math.log1p`` on a float and
    ``np.log1p`` on an array.  The family grid passes ``(x, 1 - x,
    log1p(-x))``, the identric mean ``d`` and ``ln d`` from the pair for
    ``v >= 1/2``.  Interval twin: the ``h`` enclosure of
    ``intervals._x_pieces``.
    """
    return 1.0 - ((1.0 + v) * log1p(v) - d * ln_d) / (2.0 * v)


def _series_coefficients(params: FamilyParams) -> tuple[float, float, float, float]:
    """``c_k = 1/(2k(2k+1)) - s u^k / (2k)``, k = 1..4: the log-ratio is
    ``sum c_k x^(2k)``, so the kernel ``x^2 f'`` is ``sum 2k c_k x^(2k+1)``.
    Interval twin, to at most ``TAYLOR_K`` terms: ``intervals._taylor_terms``."""
    u, s = params.u, params.s
    if u == 0.0:  # the s-free values, where 3 s u would be inf * 0 for s near the top
        return _H_SERIES
    h1, h2, h3, h4 = _H_SERIES
    three_su = 3.0 * s * u
    # 3 s overflows for s > 6e307, while s u <= s stays finite.
    c1 = h1 - s * u / 2.0 if math.isinf(three_su) else (1.0 - three_su) / 6.0
    return (c1,
            h2 - s * u * u / 4.0,
            h3 - s * u ** 3 / 6.0,
            h4 - s * u ** 4 / 8.0)


class _PairFields(NamedTuple):
    a: float
    b: float


class PositivePair(_PairFields):
    """Unordered pair of strictly positive reals, the arguments of a mean.

    Equal entries are allowed; comparison routines that need distinct
    arguments enforce that themselves.  A named tuple of two floats,
    validated on construction, :meth:`_replace` included.
    """

    __slots__ = ()

    def __new__(cls, a: float, b: float):
        fa, fb = float(a), float(b)
        if not (math.isfinite(fa) and math.isfinite(fb)):
            raise ValueError(f"pair entries must be finite, got ({a}, {b})")
        if fa <= 0.0 or fb <= 0.0:
            raise ValueError(f"pair entries must be > 0, got ({a}, {b})")
        return super().__new__(cls, fa, fb)

    @classmethod
    def _make(cls, iterable) -> "PositivePair":
        return cls(*iterable)


def arithmetic_mean(pair: PositivePair) -> float:
    """(a + b) / 2."""
    mean = 0.5 * (pair.a + pair.b)
    if mean == math.inf:  # a + b overflowed; halving such a and b is exact
        return 0.5 * pair.a + 0.5 * pair.b
    return mean


def geometric_mean(pair: PositivePair) -> float:
    """sqrt(a * b)."""
    product = pair.a * pair.b
    if sys.float_info.min <= product < math.inf:
        return math.sqrt(product)
    return math.sqrt(pair.a) * math.sqrt(pair.b)


def harmonic_mean(pair: PositivePair) -> float:
    """2ab / (a + b)."""
    numerator, denominator = 2.0 * pair.a * pair.b, pair.a + pair.b
    if sys.float_info.min <= numerator < math.inf and denominator < math.inf:
        return numerator / denominator
    # min * (max / A) with max / A in [1, 2): no intermediate leaves the range.
    return min(pair.a, pair.b) * (max(pair.a, pair.b) / arithmetic_mean(pair))


def gap(pair: PositivePair) -> float:
    """Normalized gap ``|a - b| / (a + b)``, in [0, 1).

    Scale- and order-invariant; zero exactly when the entries coincide.
    """
    a, b = pair.a, pair.b
    if a + b == math.inf:  # halving such a and b is exact
        a, b = 0.5 * a, 0.5 * b
    return abs(a - b) / (a + b)


def _one_minus_gap(pair: PositivePair) -> tuple[float, float]:
    """``d = 1 - v = 2 min(a, b) / (a + b)`` and ``ln d``: unlike ``1 - v``,
    exact to a few ulps as v -> 1, and ``ln d`` finite where v rounds to 1."""
    low, mean = min(pair.a, pair.b), arithmetic_mean(pair)
    d = low / mean
    if d >= sys.float_info.min:
        return d, math.log(d)
    return d, math.log(low) - math.log(mean)  # d is subnormal or zero


def pair_from_gap(v: float, scale: float = 1.0) -> PositivePair:
    """The canonical pair ``(scale*(1+v), scale*(1-v))`` realizing gap ``v``."""
    v = float(v)
    if not 0.0 <= v < 1.0:
        raise ValueError(f"gap must lie in [0, 1), got {v}")
    return PositivePair(scale * (1.0 + v), scale * (1.0 - v))


def identric_mean(pair: PositivePair) -> float:
    """Identric mean ``(1/e) * (a^a / b^b)^(1/(a-b))``, extended by I(a, a) = a.

    Evaluated as ``A * exp(-h(v))`` through the gap reduction; the raw
    power form overflows once ``a**a`` leaves the double range.  Below
    ``SERIES_CROSSOVER`` ``h`` is its series, by Horner's rule in the order
    of ``family._log_ratio_series``.  For ``v >= 1/2``, ``h`` takes
    ``1 - v`` from the pair, as :func:`q_mean` does.
    """
    if pair.a == pair.b:
        return pair.a
    v = gap(pair)
    if v < SERIES_CROSSOVER:
        c1, c2, c3, c4 = _H_SERIES
        w = v * v
        h = (((w * c4 + c3) * w + c2) * w + c1) * w
    elif v < 0.5:
        h = _h(v, 1.0 - v, math.log1p(-v), math.log1p)
    else:
        h = _h(v, *_one_minus_gap(pair), math.log1p)
    return arithmetic_mean(pair) * math.exp(-h)


def q_mean(pair: PositivePair, t: float, s: float) -> float:
    """Two-parameter mean ``G(ta+(1-t)b, tb+(1-t)a)**s * A(a,b)**(1-s)``.

    Interpolates from a geometric-type mean at ``t = 0`` up to the
    arithmetic mean at ``t = 1/2``.  Evaluated in the log domain as
    ``ln A + (s/2) ln(1 - u v^2)`` with ``u = (1-2t)^2``, writing
    ``1 - u v^2 = (1-v)(1+v) + 4t(1-t) v^2`` so every summand is positive.

    Raises ValueError for ``t`` outside [0, 1/2] or ``s`` not in [1, inf).
    """
    params = FamilyParams.from_t(t, s)
    if params.u == 0.0:  # t = 1/2: Q = A exactly, for every s
        return arithmetic_mean(pair)
    v = gap(pair)
    if v >= 0.5:
        # In d = 1 - v: 1 - u v^2 = d(2 - d) + (1 - u)(1 - d)^2, one formula
        # for every t (so monotone in t) unless d(2 - d) underflows at u = 1.
        d, ln_d = _one_minus_gap(pair)
        if d < sys.float_info.min and params.one_minus_u == 0.0:
            ln_inner = ln_d + math.log(2.0 - d)
        else:
            ln_inner = math.log(d * (2.0 - d) + params.one_minus_u * (1.0 - d) ** 2)
    else:
        # (1 - v)(1 + v) + 4t(1-t) v^2 == 1 - (1-2t)^2 v^2, all terms positive.
        ln_inner = math.log((1.0 - v) * (1.0 + v) + params.one_minus_u * v * v)
    # 1 - u v^2 <= 1, which the rounded sum can pass by an ulp; (s/2) times
    # that would lift Q above A.
    e = 0.5 * params.s * min(ln_inner, 0.0)
    if math.exp(e) < sys.float_info.min:  # A exp(e) may still be normal
        return arithmetic_mean(pair) * math.exp(0.5 * e) * math.exp(0.5 * e)
    return arithmetic_mean(pair) * math.exp(e)


def log_identric_over_arithmetic(v):
    """``ln(I/A)`` as a function of the gap ``v`` alone.

    Equals ``-h(v) = -1 + [(1+v) ln(1+v) - (1-v) ln(1-v)] / (2v)``; zero at
    ``v = 0``, strictly negative on (0, 1), tending to ``ln(2/e)`` as
    ``v -> 1``.  The series ``-(v^2/6 + v^4/20 + v^6/42 + v^8/72)`` keeps
    relative accuracy below ``SERIES_CROSSOVER``; above it ``-h`` keeps
    absolute accuracy near machine epsilon up to ``v -> 1``.

    Accepts a scalar or array; rejects any value outside [0, 1).  A scalar
    takes the array path too, so its value is the array's bit for bit.
    """
    from .family import _Pieces, _evaluate, _lr_with_error_scale, _validate_gap

    return _evaluate(v, lambda arr: _lr_with_error_scale(_Pieces(arr))[0],
                     _validate_gap)
