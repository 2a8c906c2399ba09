"""Reference enclosures composed from ``Interval`` operators.

The library's kernel evaluates its enclosures on bare float pairs.  This
module defines :class:`Interval`, a validated closed interval whose
operators call the same float-pair primitives, and spells each enclosure
out one ``Interval`` operation at a time, as the library did before it
moved to float pairs, so that the kernel's bounds can be compared with
``==`` against an independent composition of the same outward-rounded
steps, each widening taken one ``nextafter`` at a time.
:func:`taylor_enclosure` does the same for the series enclosure of nodes
inside ``[0, TAYLOR_X0]``.
"""

import math
from dataclasses import dataclass

from meanbounds.intervals import (_LIBM_ULPS, TAYLOR_K, _add, _div, _mul, _one_minus_u, _sub,
                                  _u_enclosure)


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
        return Interval(*_add(self.lo, self.hi, other.lo, other.hi))

    def __sub__(self, other: "Interval") -> "Interval":
        return Interval(*_sub(self.lo, self.hi, other.lo, other.hi))

    def __mul__(self, other: "Interval") -> "Interval":
        return Interval(*_mul(self.lo, self.hi, other.lo, other.hi))

    def __truediv__(self, other: "Interval") -> "Interval":
        return Interval(*_div(self.lo, self.hi, other.lo, other.hi))


def widen_loop(x, n):
    """The doubles ``n`` ``nextafter`` steps out from ``x``, one step at a
    time: the reference for the kernel's one-step ``_widen``."""
    lo = hi = x
    for _ in range(n):
        lo = math.nextafter(lo, -math.inf)
        hi = math.nextafter(hi, math.inf)
    return lo, hi


def _widen(x, n):
    return Interval(*widen_loop(x, n))


def _one_minus(x):
    """Enclosure of 1 - x: exact for x >= 1/2 (Sterbenz), else one ulp wide."""
    if x >= 0.5:
        return Interval.point(1.0 - x)
    return _widen(1.0 - x, 1)


def _log_hull(iv):
    """Enclosure of ln over a positive interval from its two endpoint logs."""
    if iv.lo <= 0.0:
        raise ValueError(f"log argument must be > 0, got {iv.lo}")
    ln_lo = _widen(math.log(iv.lo), _LIBM_ULPS)
    ln_hi = _widen(math.log(iv.hi), _LIBM_ULPS)
    return Interval(min(ln_lo.lo, ln_hi.lo), max(ln_lo.hi, ln_hi.hi))


def h_point(x):
    """Enclosure of h at a double x in (0, 1)."""
    plus = _widen(1.0 + x, 1) * _widen(math.log1p(x), _LIBM_ULPS)
    minus = _one_minus(x) * _widen(math.log1p(-x), _LIBM_ULPS)
    return Interval.point(1.0) - (plus - minus) / Interval.point(2.0 * x)


def m2_point(params, x):
    """Enclosure of (s/2) ln(1 - u x^2) at a double x in (0, 1)."""
    if params.u == 0.0:
        return Interval.point(0.0)
    xi = Interval.point(x)
    inner = _one_minus(x) * _widen(1.0 + x, 1) + Interval(*_one_minus_u(params)) * xi * xi
    if inner.lo <= 0.0:
        raise ValueError("1 - u x^2 enclosure touches 0; x too close to 1")
    return _log_hull(inner) * Interval.point(0.5 * params.s)


def enclose_log_ratio(params, lo, hi):
    """Enclosure of the log-ratio over [lo, hi] from the pieces' endpoint values."""
    # h increasing, m2 nonincreasing over [lo, hi].
    return (Interval(h_point(lo).lo, h_point(hi).hi)
            + Interval(m2_point(params, hi).lo, m2_point(params, lo).hi))


def taylor_enclosure(params, a, b):
    """``(g, x^2 g)`` over [a, b] in [0, TAYLOR_X0], where ``g = f / x^2``.

    ``g = sum_{k<=K} c_k X^(k-1) + R`` with ``X = x^2``,
    ``c_k = 1/(2k(2k+1)) - s u^k / (2k)`` and the tail
    ``R in [-s u^(K+1) / (2K+2), 1/((2K+2)(2K+3))] X^K / (1 - X)``, by
    Horner from ``c_K`` down, with the tail innermost.
    """
    u = Interval(*_u_enclosure(params))
    half_s_power = Interval.point(0.5 * params.s)
    coefficients = []
    for k in range(1, TAYLOR_K + 2):
        half_s_power = half_s_power * u
        negative = half_s_power / Interval.point(k)
        positive = Interval.point(1.0) / Interval.point(2.0 * k * (2 * k + 1))
        coefficients.append(positive - negative)
    tail = Interval(-negative.hi, positive.hi)
    x2 = Interval(math.nextafter(a * a, -math.inf), math.nextafter(b * b, math.inf))
    g = tail / (Interval.point(1.0) - x2)
    for c in reversed(coefficients[:-1]):
        g = g * x2 + c
    return g, x2 * g
