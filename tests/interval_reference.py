"""Reference enclosures composed from ``Interval`` operators.

The library's kernel evaluates its enclosures on bare float pairs.  This
module defines :class:`Interval`, a validated closed interval whose
operators call the same float-pair primitives, and spells each enclosure
out one ``Interval`` operation at a time, as the library did before it
moved to float pairs, so that the kernel's bounds can be compared with
``==`` against an independent composition of the same outward-rounded
steps, each widening taken one ``nextafter`` at a time.
:func:`taylor_enclosure` does the same for the series enclosure of nodes
inside ``[0, TAYLOR_X0]``, with the number of terms that
:func:`series_terms` computes in ``Fraction``s.  :func:`taylor_steps` runs
the kernel's coefficient loop with every step taken, and
:func:`taylor_coefficients_loop` cuts it to any number of terms: the
reference for the kernel's early stop.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from meanbounds import intervals
from meanbounds.intervals import (_H_COEFFICIENTS, _LIBM_ULPS, _add, _div, _mul, _one_minus_u,
                                  _sub, _u_enclosure)

# The bound on the tail factor X^K / (1 - X) that sets a node's K.
TAIL_FACTOR_LIMIT = Fraction("1.4e-21")


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


def series_terms(x2):
    """The least ``K`` with ``X^K / (1 - X) < 1.4e-21`` at the double
    ``X = x2`` in [0, 1), exact in ``Fraction``s, capped at the
    ``TAYLOR_K`` that ``meanbounds.intervals`` holds at the call."""
    cap = intervals.TAYLOR_K
    x = Fraction(x2)
    power = x
    for k in range(1, cap):
        if power / (1 - x) < TAIL_FACTOR_LIMIT:
            return k
        power *= x
    return cap


def taylor_enclosure(params, a, b):
    """``(g, x^2 g)`` over [a, b] in [0, TAYLOR_X0], where ``g = f / x^2``.

    ``g = sum_{k<=K} c_k X^(k-1) + R`` with ``X = x^2``,
    ``c_k = 1/(2k(2k+1)) - s u^k / (2k)`` and the tail
    ``R in [-s u^(K+1) / (2K+2), 1/((2K+2)(2K+3))] X^K / (1 - X)``, by
    Horner from ``c_K`` down, with the tail innermost.  ``K`` is
    :func:`series_terms` of ``b^2`` rounded up.
    """
    x2 = Interval(math.nextafter(a * a, -math.inf), math.nextafter(b * b, math.inf))
    u = Interval(*_u_enclosure(params))
    half_s_power = Interval.point(0.5 * params.s)
    coefficients = []
    for k in range(1, series_terms(x2.hi) + 2):
        half_s_power = half_s_power * u
        negative = half_s_power / Interval.point(k)
        positive = Interval.point(1.0) / Interval.point(2.0 * k * (2 * k + 1))
        coefficients.append(positive - negative)
    tail = Interval(-negative.hi, positive.hi)
    g = tail / (Interval.point(1.0) - x2)
    for c in reversed(coefficients[:-1]):
        g = g * x2 + c
    return g, x2 * g


def taylor_steps(params):
    """The pair ``c_k`` and the upper end of ``s u^k / (2k)`` of each step
    ``k = 1 .. TAYLOR_K + 1`` of the kernel's coefficient loop, every step
    taken."""
    nextafter, inf = math.nextafter, math.inf
    u_lo, u_hi = _u_enclosure(params)
    w_lo = w_hi = 0.5 * params.s
    steps = []
    for k, (h_lo, h_hi) in enumerate(_H_COEFFICIENTS[:intervals.TAYLOR_K + 1], 1):
        w_lo = nextafter(w_lo * (u_lo if w_lo >= 0.0 else u_hi), -inf)
        w_hi = nextafter(w_hi * (u_hi if w_hi >= 0.0 else u_lo), inf)
        m_lo, m_hi = nextafter(w_lo / k, -inf), nextafter(w_hi / k, inf)
        steps.append(((nextafter(h_lo - m_hi, -inf), nextafter(h_hi - m_lo, inf)), m_hi))
    return steps


def taylor_coefficients_loop(steps, terms):
    """The Horner coefficients ``c_K .. c_1`` and the tail ends of the
    series with ``K = terms`` from :func:`taylor_steps`: the reference for
    the early stop of ``intervals._taylor_terms``."""
    coefficients = [c for c, _ in steps[terms - 1::-1]]
    return coefficients, (-steps[terms][1], _H_COEFFICIENTS[terms][1])
