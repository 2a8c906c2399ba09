"""Bivariate means and the normalized-gap reduction.

All means here are symmetric, homogeneous of degree one, and extend
continuously to equal arguments.  Every comparison between them reduces to
a one-variable function of the normalized gap ``v = |a - b| / (a + b)``,
so the numerically delicate work is concentrated in
:func:`log_identric_over_arithmetic`, which evaluates ``ln(I/A)`` as a
function of ``v`` with a series path near the removable singularity at
``v = 0`` and the bounded form ``-h(v)`` elsewhere.  Both paths are the
``u = 0`` case of the family log-ratio in :mod:`meanbounds.family`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .family import (
    SERIES_CROSSOVER,
    FamilyParams,
    _evaluate,
    _h,
    _lr_with_error_scale,
)

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


@dataclass(frozen=True)
class PositivePair:
    """Unordered pair of strictly positive reals, the arguments of a mean.

    Equal entries are allowed; comparison routines that need distinct
    arguments enforce that themselves.
    """

    a: float
    b: float

    def __post_init__(self):
        a, b = float(self.a), float(self.b)
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ValueError(f"pair entries must be finite, got ({self.a}, {self.b})")
        if a <= 0.0 or b <= 0.0:
            raise ValueError(f"pair entries must be > 0, got ({self.a}, {self.b})")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)


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

    Evaluated as ``A * exp(ln(I/A))`` through the gap reduction; the raw
    power form overflows once ``a**a`` leaves the double range.  For
    ``v >= 1/2``, ``-h`` takes ``1 - v`` from the pair, as :func:`q_mean` does.
    """
    if pair.a == pair.b:
        return pair.a
    v = gap(pair)
    if v >= 0.5:
        lr = -float(_h(v, *_one_minus_gap(pair)))
    else:
        lr = float(log_identric_over_arithmetic(v))
    return arithmetic_mean(pair) * math.exp(lr)


def q_mean(pair: PositivePair, t: float, s: float) -> float:
    """Two-parameter mean ``G(ta+(1-t)b, tb+(1-t)a)**s * A(a,b)**(1-s)``.

    Interpolates from a geometric-type mean at ``t = 0`` up to the
    arithmetic mean at ``t = 1/2``.  Evaluated in the log domain as
    ``ln A + (s/2) ln(1 - u v^2)`` with ``u = (1-2t)^2``, writing
    ``1 - u v^2 = (1-v)(1+v) + 4t(1-t) v^2`` so every summand is positive.

    Raises ValueError for ``t`` outside [0, 1/2] or ``s`` not in [1, inf).
    """
    params = FamilyParams.from_t(t, s)
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
    e = 0.5 * params.s * ln_inner
    if math.exp(e) < sys.float_info.min:  # A exp(e) may still be normal
        return arithmetic_mean(pair) * math.exp(0.5 * e) * math.exp(0.5 * e)
    return arithmetic_mean(pair) * math.exp(e)


def _validate_gap(arr: np.ndarray) -> None:
    if not np.all((arr >= 0.0) & (arr < 1.0)):  # NaN fails both tests
        raise ValueError("gap values must lie in [0, 1)")


def log_identric_over_arithmetic(v):
    """``ln(I/A)`` as a function of the gap ``v`` alone.

    Equals ``-h(v) = -1 + [(1+v) ln(1+v) - (1-v) ln(1-v)] / (2v)``; zero at
    ``v = 0``, strictly negative on (0, 1), tending to ``ln(2/e)`` as
    ``v -> 1``.  The series ``-(v^2/6 + v^4/20 + v^6/42 + v^8/72)`` keeps
    relative accuracy below ``SERIES_CROSSOVER``; above it ``-h`` keeps
    absolute accuracy near machine epsilon up to ``v -> 1``.

    Accepts a scalar or array; rejects any value outside [0, 1).
    """
    return _evaluate(v, lambda arr: _lr_with_error_scale(arr)[0], _validate_gap)
