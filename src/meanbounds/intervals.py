"""Minimal outward-rounded interval kernel for sign certification.

This is deliberately not a general interval library: it provides exactly
the operations needed to enclose the family log-ratio over a compact
subinterval of (0, 1).  Arithmetic results are widened one step with
``math.nextafter`` in each direction; point evaluations of library
logarithms are widened by ``_LIBM_ULPS`` ulps to cover a faithfully (not
correctly) rounded libm.  Division by an interval containing zero is
rejected rather than returning an unbounded interval.

The log-ratio is the sum of two globally monotone pieces,

    h(x)  = 1 - [(1+x) ln(1+x) - (1-x) ln(1-x)] / (2x)
          = sum_k x^(2k) / (2k(2k+1))      increasing (positive coefficients),
    m2(x) = (s/2) ln(1 - u x^2)            nonincreasing (u >= 0),

each bounded by its values at the interval endpoints, then combined with
interval addition.  Both stay bounded as x -> 1 (h -> 1 - ln 2), so no
node carries two divergent logarithms that cancel only in their sum, and
monotone enclosure avoids the dependency blowup of a term-by-term product
enclosure near x = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .family import FamilyParams

__all__ = ["Interval", "enclose_log_ratio"]

# Error allowance, in ulps, for one libm log/log1p call.  Assumed of both
# math.log1p here and np.log1p in the float core: 80k sampled points in
# (0, 2) were within 0.58 ulp of mpmath, which is evidence, not proof.
_LIBM_ULPS = 4


def _down(x: float) -> float:
    return math.nextafter(x, -math.inf)


def _up(x: float) -> float:
    return math.nextafter(x, math.inf)


def _widen(x: float, n: int) -> "Interval":
    """The point ``x`` widened outward by ``n`` ulps on each side."""
    lo = hi = x
    for _ in range(n):
        lo = _down(lo)
        hi = _up(hi)
    return Interval(lo, hi)


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi] with outward-rounded arithmetic."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo <= self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    @classmethod
    def point(cls, x: float) -> "Interval":
        x = float(x)
        return cls(x, x)

    def __add__(self, other: "Interval") -> "Interval":
        return Interval(_down(self.lo + other.lo), _up(self.hi + other.hi))

    def __sub__(self, other: "Interval") -> "Interval":
        return Interval(_down(self.lo - other.hi), _up(self.hi - other.lo))

    def __mul__(self, other: "Interval") -> "Interval":
        products = (self.lo * other.lo, self.lo * other.hi,
                    self.hi * other.lo, self.hi * other.hi)
        return Interval(_down(min(products)), _up(max(products)))

    def __truediv__(self, other: "Interval") -> "Interval":
        if other.lo <= 0.0 <= other.hi:
            raise ZeroDivisionError(f"denominator interval {other} contains 0")
        quotients = (self.lo / other.lo, self.lo / other.hi,
                     self.hi / other.lo, self.hi / other.hi)
        return Interval(_down(min(quotients)), _up(max(quotients)))

    @property
    def width(self) -> float:
        return self.hi - self.lo


def _one_minus(x: float) -> Interval:
    """Enclosure of 1 - x: exact for x >= 1/2 (Sterbenz), else one ulp wide."""
    if x >= 0.5:
        return Interval.point(1.0 - x)
    return _widen(1.0 - x, 1)


def _log_hull(iv: Interval) -> Interval:
    """Enclosure of ln over a positive interval from its two endpoint logs.

    The min/max over both widened endpoint values keeps the hull rigorous
    without relying on libm log being monotone.
    """
    if iv.lo <= 0.0:
        raise ValueError(f"log argument must be > 0, got {iv.lo}")
    ln_lo = _widen(math.log(iv.lo), _LIBM_ULPS)
    ln_hi = _widen(math.log(iv.hi), _LIBM_ULPS)
    return Interval(min(ln_lo.lo, ln_hi.lo), max(ln_lo.hi, ln_hi.hi))


def _h_point(x: float) -> Interval:
    """Enclosure of h at a double x in (0, 1).

    Both products in the numerator are >= 0, so nothing cancels; the
    arguments of ``log1p(x)``, ``log1p(-x)`` and the divisor ``2x`` are
    exact, so the enclosure stays O(eps) wide as x -> 0.  The float twin
    is :func:`meanbounds.family._h`.
    """
    plus = _widen(1.0 + x, 1) * _widen(math.log1p(x), _LIBM_ULPS)
    minus = _one_minus(x) * _widen(math.log1p(-x), _LIBM_ULPS)
    return Interval.point(1.0) - (plus - minus) / Interval.point(2.0 * x)


def _one_minus_u(params: FamilyParams) -> Interval:
    """Enclosure of the exact ``1 - u`` of the double ``t`` or ``u``.

    ``from_u`` rounds once; ``from_t`` rounds ``1 - t`` and ``4t(1-t)``, each
    to a relative 2^-53 (``4t`` is exact), so it is off by at most 2^-52 +
    2^-106 relative: just over 2 ulps, which three nextafter steps cover.
    """
    return _widen(params.one_minus_u, 3)


def _m2_point(s: float, one_minus_u: Interval, x: float) -> Interval:
    """Enclosure of (s/2) ln(1 - u x^2) at a double x in (0, 1)."""
    xi = Interval.point(x)
    inner = _one_minus(x) * _widen(1.0 + x, 1) + one_minus_u * xi * xi
    if inner.lo <= 0.0:
        raise ValueError("1 - u x^2 enclosure touches 0; x too close to 1")
    return _log_hull(inner) * Interval.point(0.5 * s)


class _Endpoint(NamedTuple):
    """Enclosures of the two monotone pieces at one double ``x``."""

    x: float
    h: Interval
    m2: Interval


def _enclose_endpoint(params: FamilyParams, x: float) -> _Endpoint:
    """The pieces h and m2 enclosed at a double x in (0, 1)."""
    if params.u == 0.0:
        m2 = Interval.point(0.0)
    else:
        m2 = _m2_point(params.s, _one_minus_u(params), x)
    return _Endpoint(x, _h_point(x), m2)


def enclose_log_ratio(params: FamilyParams, lo, hi) -> Interval:
    """Rigorous enclosure of the family log-ratio over [lo, hi] in (0, 1).

    Uses endpoint evaluations of the two monotone pieces; the enclosure
    width shrinks linearly with the interval width, so adaptive bisection
    converges wherever the log-ratio is bounded away from zero.  A
    bisection passes both bounds as ``_enclose_endpoint`` results instead
    of doubles, so that each point is enclosed once; the bounds are the
    same.
    """
    if not isinstance(lo, _Endpoint):
        if not 0.0 < lo <= hi < 1.0:
            raise ValueError(f"need 0 < lo <= hi < 1, got [{lo}, {hi}]")
        lo, hi = _enclose_endpoint(params, lo), _enclose_endpoint(params, hi)
    # h increasing, m2 nonincreasing over [lo, hi].
    return Interval(lo.h.lo, hi.h.hi) + Interval(hi.m2.lo, lo.m2.hi)
