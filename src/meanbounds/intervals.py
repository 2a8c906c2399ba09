"""Outward-rounded interval kernel and sign certificates for the log-ratio.

This is deliberately not a general interval library: it provides exactly
the operations needed to enclose the family log-ratio over a compact
subinterval of [0, 1), and :func:`certify_sign`, which proves its sign by
subdivision, and :func:`certify_phi`, which proves by the same subdivision
(:func:`_certify`) the lemma that makes both closed-form cutoffs sharp for
every ``s >= 5/9``.  The primitives work on ``(lo, hi)`` float pairs: ``_add``,
``_sub``, ``_mul`` (four products, min/max), ``_mul_nonneg`` (two products,
for a second factor ``>= 0``) and ``_div`` each round once in IEEE
arithmetic and step the result out by one ``math.nextafter`` in each
direction; ``_widen`` steps a point out by ``n`` ulps, ``_LIBM_ULPS`` for a
library logarithm, to cover a faithfully (not correctly) rounded libm.  It
takes the ``n`` steps at once, as ``x -+ n ulp(x)``, whenever that ulp is
normal and both ends keep it, that is whenever all ``n`` steps stay in the
binade of ``x``; near a binade edge, among subnormals, at 0, inf and NaN
it takes them one ``nextafter`` at a time.
Division by an interval containing zero is rejected rather than returning
an unbounded interval.  Nearly every factor in the kernel is known to be
``>= 0`` (``s/2``, ``u^k``, ``X = x^2``, ``1 +- x``) and every divisor but
one is an exact positive point (``k``, ``2x``), so it takes two products or
quotients where ``_mul`` and ``_div`` take four: the corners that their
min/max would pick.  Rounding is monotone, so the bounds are the same
doubles.  The module needs neither numpy nor mpmath.

The log-ratio is the sum of two globally monotone pieces,

    h(x)  = 1 - [(1+x) ln(1+x) - (1-x) ln(1-x)] / (2x)
          = sum_k x^(2k) / (2k(2k+1))      increasing (positive coefficients),
    m2(x) = (s/2) ln(1 - u x^2)            nonincreasing (u >= 0),

each bounded by its values at the interval endpoints, then combined with
interval addition.  Both stay bounded as x -> 1 (h -> 1 - ln 2), so no
node carries two divergent logarithms that cancel only in their sum, and
monotone enclosure avoids the dependency blowup of a term-by-term product
enclosure.

Near 0 both pieces are O(x^2) while their sum is ``c_1 x^2`` with ``c_1``
as small as the distance of ``t`` from a cutoff, so a node inside
``[0, TAYLOR_X0]`` is enclosed from the series instead:
:func:`_taylor_enclosure` encloses ``g = f / x^2``, a polynomial in
``X = x^2`` plus a bounded tail.  Such a Taylor node takes its sign from
``g`` (``X > 0`` on ``(0, b]``) and reports ``X g`` as its bounds.  A
node ``[a, b]`` cuts the series after the fewest terms ``K`` whose tail
factor ``X^K / (1 - X)`` at ``X = b^2`` stays below 1.4e-21, with a bounded
tail: at most ``TAYLOR_K = 35``, the count that ``TAYLOR_X0 = 0.5`` needs,
and 3 to 5 at the points a bisection rechecks (the rule is derived beside
the constants).  ``h``'s coefficients, which depend on neither ``t`` nor
``s``, are enclosed once at import.  :func:`_node_bounds` is the one place
that applies this rule and decides whether a node's sign enclosure clears
0 (sign -1 or 1, else 0), for the nodes of a certificate and, at
``[x, x]``, a bisection's rechecks.

What depends on neither ``t`` nor ``s`` is enclosed once per process, and
no bound moves by a bit for it.  :func:`_x_pieces` encloses ``h(x)`` and
``(1 - x)(1 + x)`` at an endpoint under an ``lru_cache`` of at most 1024
entries (a certificate meets a few distinct endpoints, the bisections of a
thousand sweep rows one), so an endpoint enclosure pays only for ``m2``;
the cache returns the doubles that the same operations gave the first
time.  The series of each ``K`` is set up once per ``(t, s)``, when a node
first needs it, and its coefficient loop stops once ``s u^k / 2`` falls
below an eighth of the least ulp of ``h``'s coefficients: the full loop
would round every later ``c_k`` to its ``h`` pair widened one ulp, which is
taken from a tuple built at import.

:func:`_membership_enclosure` decides ``membership`` from the same
enclosures of ``u`` and ``1 - u`` wherever float pairs suffice, under the
same libm assumption.  Nothing in the package reads it yet: it is the
float-pair first path of a ``membership`` without mpmath.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from collections.abc import Callable
from functools import lru_cache
from math import inf, nextafter, ulp
from typing import NamedTuple

from .thresholds import EVAL_LIMIT, FamilyParams

__all__ = [
    "TAYLOR_X0",
    "TAYLOR_K",
    "CertificateNode",
    "certify_sign",
    "certify_phi",
    "certificate_leaves",
    "certificate_succeeded",
]

# Error allowance, in ulps, for one libm log/log1p call, assumed of math.log1p
# here and np.log1p in the float core, which calls no atanh: 80k sampled
# points in (0, 2) were within 0.58 ulp of mpmath, evidence but not proof.
_LIBM_ULPS = 4

# The Taylor node (see _taylor_enclosure).  A node [a, b] takes the least K
# with X^K / (1 - X) < 1.4e-21 at X = b^2 rounded up (_series_terms), at most
# TAYLOR_K.  The tail of g is that factor times s u^(K+1) / (2K + 2) below and
# 1 / ((2K + 2)(2K + 3)) above, so it stays below 1.4e-21 max(s, 1) / (2K + 2):
# 1.6e-23 s at K = 35 on [0, TAYLOR_X0], where X <= 1/4 and the factor is
# below 0.25^35 / 0.75.  Near the cutoffs u is about 1 / (3s) and the upper
# end leads: below 1.4e-21 / 20 = 7e-23 at any K.  The enclosed c_1 alone is
# 3e-16 to 8e-16 wide there, mostly from the widening of u, so the tail sits
# six orders of magnitude below what rounding already costs.  K grows as about
# 24 / ln(1 / b): 3 to 5 at the points from 2e-4 to 6e-3 that a bisection
# rechecks, 20 at 0.3, and 35 = TAYLOR_K above b = 0.4915 up to TAYLOR_X0,
# which caps it.  A larger X0 leaves fewer nodes to the monotone enclosure,
# which needs many where f is O(x^2) and nearly cancels, and at TAYLOR_X0 =
# 0.5 the interval Horner over X in [0, 1/4] still proves (0, 0.5] in one
# node at q + 1e-15 and p - 1e-15 for s in {1, 2, 10, 50}.
TAYLOR_X0 = 0.5
TAYLOR_K = 35

# The kernel's two libm functions, looked up here at each call so that a test
# can substitute perturbed versions.
_log = math.log
_log1p = math.log1p


_MIN_NORMAL = sys.float_info.min


def _widen(x: float, n: int) -> tuple[float, float]:
    """The point ``x`` widened outward by ``n`` ulps on each side.

    The doubles ``n`` ``nextafter`` steps out from ``x``.  Within one
    binade the steps are all ``u = ulp(x)``, so when ``u`` is normal and
    ``x -+ n u`` still have ulp ``u``, both are exact multiples of ``u`` in
    that binade and are those doubles.  Otherwise (a step would cross a
    binade edge, ``x`` is 0 or subnormal, inf or NaN, or ``x + n u``
    overflows) the steps are taken one at a time.
    """
    u = ulp(x)
    if u >= _MIN_NORMAL:
        lo, hi = x - n * u, x + n * u
        if ulp(lo) == u == ulp(hi):
            return lo, hi
    lo = hi = x
    for _ in range(n):
        lo = nextafter(lo, -inf)
        hi = nextafter(hi, inf)
    return lo, hi


def _add(alo: float, ahi: float, blo: float, bhi: float) -> tuple[float, float]:
    return nextafter(alo + blo, -inf), nextafter(ahi + bhi, inf)


def _sub(alo: float, ahi: float, blo: float, bhi: float) -> tuple[float, float]:
    return nextafter(alo - bhi, -inf), nextafter(ahi - blo, inf)


def _mul(alo: float, ahi: float, blo: float, bhi: float) -> tuple[float, float]:
    products = (alo * blo, alo * bhi, ahi * blo, ahi * bhi)
    return nextafter(min(products), -inf), nextafter(max(products), inf)


def _mul_nonneg(alo: float, ahi: float, blo: float, bhi: float) -> tuple[float, float]:
    """``_mul`` for a second factor with ``blo >= 0``, from two products.

    With ``b >= 0`` the product rises with ``a``: its least corner has
    ``alo`` and its greatest ``ahi``, each with the end of ``b`` that its own
    sign picks.  Rounding is monotone, so for finite inputs these are the
    doubles that ``_mul``'s min/max would pick, up to the sign of a zero,
    which ``nextafter`` removes.  The kernel's loops and :func:`_x_pieces`
    inline the same two products.
    """
    return (nextafter(alo * (blo if alo >= 0.0 else bhi), -inf),
            nextafter(ahi * (bhi if ahi >= 0.0 else blo), inf))


def _div(alo: float, ahi: float, blo: float, bhi: float) -> tuple[float, float]:
    if blo <= 0.0 <= bhi:
        raise ZeroDivisionError(f"denominator interval [{blo}, {bhi}] contains 0")
    quotients = (alo / blo, alo / bhi, ahi / blo, ahi / bhi)
    return nextafter(min(quotients), -inf), nextafter(max(quotients), inf)


def _one_minus_u(params: FamilyParams) -> tuple[float, float]:
    """Enclosure of the exact ``1 - u`` of the double ``t`` or ``u``.

    ``from_u`` rounds once; ``from_t`` rounds ``1 - t`` and ``4t(1-t)``, each
    to a relative 2^-53 (``4t`` is exact), so it is off by at most 2^-52 +
    2^-106 relative: just over 2 ulps, which three nextafter steps cover.
    """
    return _widen(params.one_minus_u, 3)


def _u_enclosure(params: FamilyParams) -> tuple[float, float]:
    """Enclosure of the exact ``u = (1 - 2t)^2`` of the double ``t``.

    ``from_t`` rounds ``1 - 2t`` (``2t`` is exact) and its square, each to a
    relative 2^-53, so ``u`` is off by less than 3.001 * 2^-53 relative.  Each
    nextafter step from ``u`` moves by at least ``u`` 2^-53, so four steps
    cover it, even below a power of 2.  The exact ``u`` lies in [0, 1].
    ``from_u`` keeps the double ``u`` itself, which the widening contains.
    """
    lo, hi = _widen(params.u, 4)
    return max(lo, 0.0), min(hi, 1.0)


def _membership_enclosure(params: FamilyParams) -> str | None:
    """:func:`meanbounds.thresholds.membership` of ``params`` from float
    pairs, or None where they cannot decide it.

    "upper_bound_holds" when ``3 s u``, rounded up from
    :func:`_u_enclosure`, is < 1.  When it is > 1 rounded down, the
    enclosure of ``L = 1 - ln 2 + (s/2) ln(1 - u)`` from
    :func:`_one_minus_u` gives "lower_bound_holds" below 0 and "neither"
    above.  The logs are libm's widened by ``_LIBM_ULPS``, the kernel's
    assumption, where ``membership`` needs none.  None within a few ulps
    of a cutoff, where an enclosure meets its bound, and at ``t = 0``
    (``1 - u = 0`` has no log) and ``t = 1/2`` (``u = 0``).  ``3 s``
    overflows for s > 6e307: rounded up it stays inf, which no test
    passes, and rounded down it is the largest double, still below it.
    """
    if params.u == 0.0 or params.one_minus_u == 0.0:
        return None
    u_lo, u_hi = _u_enclosure(params)
    three_s = 3.0 * params.s
    if nextafter(nextafter(three_s, inf) * u_hi, inf) < 1.0:
        return "upper_bound_holds"
    c_lo, c_hi = _one_minus_u(params)
    if not (nextafter(nextafter(three_s, -inf) * u_lo, -inf) > 1.0 and c_lo > 0.0):
        return None
    # L's ends, its product by the point s/2 >= 0 and its sums rounded outward.
    half_s = 0.5 * params.s
    ln2_lo, ln2_hi = _widen(_log(2.0), _LIBM_ULPS)
    l_hi = nextafter(nextafter(1.0 - ln2_lo, inf)
                     + nextafter(half_s * _widen(_log(c_hi), _LIBM_ULPS)[1], inf), inf)
    if l_hi < 0.0:
        return "lower_bound_holds"
    l_lo = nextafter(nextafter(1.0 - ln2_hi, -inf)
                     + nextafter(half_s * _widen(_log(c_lo), _LIBM_ULPS)[0], -inf), -inf)
    return "neither" if l_lo > 0.0 else None


# Enclosures of h's series coefficients 1/(2k(2k+1)), k = 1 .. K + 1, which
# depend on neither t nor s.
_H_COEFFICIENTS = tuple(_div(1.0, 1.0, n, n) for n in
                        (2.0 * k * (2 * k + 1) for k in range(1, TAYLOR_K + 2)))
# The same pairs widened one ulp each way: the c_k of every k from which
# s u^k / 2 stays below _W_NEGLIGIBLE, an eighth of their least ulp.
_H_WIDENED = tuple((nextafter(lo, -inf), nextafter(hi, inf)) for lo, hi in _H_COEFFICIENTS)
_W_NEGLIGIBLE = min(ulp(lo) for lo, _ in _H_COEFFICIENTS) / 8.0


def _tail_edge(terms: int) -> float:
    """The largest double ``X`` in (0, 1) with ``X^K / (1 - X) < 1.4e-21``,
    ``K = terms``: the least ``X`` that needs more than ``K`` terms lies one
    ulp above it.

    A fixed-point iteration in floats lands within a few ulps; the exact
    test, in integers on ``X = n / d``, then steps it onto the edge.
    """
    def meets(x: float) -> bool:
        n, d = x.as_integer_ratio()
        return n ** terms * 10 ** 22 < 14 * d ** (terms - 1) * (d - n)

    x = 0.0
    for _ in range(12):
        x = (1.4e-21 * (1.0 - x)) ** (1.0 / terms)
    while not meets(x):
        x = nextafter(x, 0.0)
    while meets(nextafter(x, 1.0)):
        x = nextafter(x, 1.0)
    return x


# _TAIL_EDGES[K - 1] is the largest X that K terms serve, K = 1 .. TAYLOR_K;
# the edges rise with K.
_TAIL_EDGES = tuple(_tail_edge(k) for k in range(1, TAYLOR_K + 1))


def _series_terms(x2: float) -> int:
    """The number of series terms of a node whose ``X = x^2`` reaches
    ``x2``: the least ``K`` with ``x2^K / (1 - x2) < 1.4e-21``, capped at
    ``TAYLOR_K``, which is read at each call."""
    return min(bisect_left(_TAIL_EDGES, x2) + 1, TAYLOR_K)


def _taylor_terms(params: FamilyParams,
                  terms: int) -> tuple[list[tuple[float, float]], float, float]:
    """The Horner coefficients ``c_K .. c_1`` and the tail ends of the
    series with ``K = terms``, from :func:`_u_enclosure` and the first
    ``K + 1`` entries of ``_H_COEFFICIENTS``.

    Once ``s u^k / 2`` falls below ``_W_NEGLIGIBLE`` the rest of the ``c_k``
    are those entries widened one ulp, the doubles the full loop would
    give, so the loop stops there.  Each step depends only on the ones
    before it, so the ``c_k`` of a shorter series are those of a longer one.
    """
    u_lo, u_hi = _u_enclosure(params)
    w_lo = w_hi = 0.5 * params.s
    n, negligible = terms + 1, _W_NEGLIGIBLE
    coefficients = []
    for k, (h_lo, h_hi) in enumerate(_H_COEFFICIENTS[:n], 1):
        # w = s u^k / 2 by _mul_nonneg (u >= 0; w_lo is -5e-324 once u_lo = 0
        # rounds it down, while w_hi stays > 0), then m = w / k with two
        # quotients: k is exact, > 0.
        w_lo = nextafter(w_lo * (u_lo if w_lo >= 0.0 else u_hi), -inf)
        w_hi = nextafter(w_hi * u_hi, inf)
        if w_hi < negligible:
            # Early stop, bit for bit.  With U the least ulp of h's lower
            # ends, w_hi < U/8 now.  u_hi <= 1, so each later step grows w_hi
            # by at most one ulp of its own, and w_lo, below 0 only by
            # subnormals, by at most a subnormal: every later |m| = |w / k|
            # stays under U/4.  The doubles next to h_lo and h_hi are at
            # least U/2 away, so h_lo - m_hi and h_hi - m_lo round to h_lo
            # and h_hi, and c_k is h's pair widened one ulp each way.  Only
            # w_hi runs on, to k = K + 1, for the tail's m_hi.
            coefficients += _H_WIDENED[k - 1:n]
            for _ in range(k, n):
                w_hi = nextafter(w_hi * u_hi, inf)
            m_hi, h_hi = nextafter(w_hi / n, inf), _H_COEFFICIENTS[n - 1][1]
            break
        m_lo, m_hi = nextafter(w_lo / k, -inf), nextafter(w_hi / k, inf)
        coefficients.append((nextafter(h_lo - m_hi, -inf), nextafter(h_hi - m_lo, inf)))
    # Horner runs from c_K down to c_1; the k = K + 1 terms bound the tail.
    coefficients.pop()
    coefficients.reverse()
    return coefficients, -m_hi, h_hi


def _taylor_enclosure(params: FamilyParams) -> Callable[[float, float], tuple[float, ...]]:
    """The function enclosing the log-ratio over ``[a, b]`` in [0, TAYLOR_X0].

    With ``X = x^2`` the log-ratio is ``f = X g``, where

        g = sum_{k<=K} c_k X^(k-1) + R,  c_k = 1/(2k(2k+1)) - s u^k / (2k),
        R in [-s u^(K+1) / (2K+2), 1/((2K+2)(2K+3))] X^K / (1 - X),

    for every ``K``, since ``h``'s coefficients fall and ``u X <= X``.  A
    node takes ``K = _series_terms(b^2 rounded up)`` terms, the fewest that
    keep its tail factor below 1.4e-21, at most ``TAYLOR_K``: 35 above
    ``b = 0.4915``, 3 to 5 at the points a bisection rechecks.  The series
    of each ``K`` is set up by :func:`_taylor_terms` once per ``params``,
    the first time a node asks for it.  The returned function evaluates
    ``g`` by interval Horner over ``[a^2, b^2]`` with the tail as the
    innermost term, and returns ``(g_lo, g_hi, f_lo, f_hi)`` with
    ``f = X g``.  Every product, quotient and sum is rounded outward
    as by the float-pair primitives, which the function inlines but for the
    four-corner products next to ``a = 0``.
    """
    series: dict[int, tuple[list[tuple[float, float]], float, float]] = {}

    def enclose(a: float, b: float) -> tuple[float, ...]:
        x2_lo, x2_hi = nextafter(a * a, -inf), nextafter(b * b, inf)
        terms = _series_terms(x2_hi)
        coefficients, tail_lo, tail_hi = (series.get(terms)
                                          or series.setdefault(terms, _taylor_terms(params, terms)))
        # The tail over 1 - X by _sub and _div: tail_lo < 0 < tail_hi (m_hi > 0,
        # as u_hi > 0) and 1 - X > 0, so both ends divide by the least 1 - X.
        d_lo = nextafter(1.0 - x2_hi, -inf)
        g_lo, g_hi = nextafter(tail_lo / d_lo, -inf), nextafter(tail_hi / d_lo, inf)
        if x2_lo < 0.0:
            # a * a rounded to 0 (a = 0 or below about 1.5e-162), so X reaches
            # one subnormal below 0 and each product needs all four corners.
            for c_lo, c_hi in coefficients:
                g_lo, g_hi = _add(*_mul(g_lo, g_hi, x2_lo, x2_hi), c_lo, c_hi)
            return (g_lo, g_hi) + _mul(x2_lo, x2_hi, g_lo, g_hi)
        # g X + c with X >= 0, by _mul_nonneg and _add.
        for c_lo, c_hi in coefficients:
            g_lo = nextafter(nextafter(g_lo * (x2_lo if g_lo >= 0.0 else x2_hi), -inf) + c_lo, -inf)
            g_hi = nextafter(nextafter(g_hi * (x2_hi if g_hi >= 0.0 else x2_lo), inf) + c_hi, inf)
        return (g_lo, g_hi, nextafter(g_lo * (x2_lo if g_lo >= 0.0 else x2_hi), -inf),
                nextafter(g_hi * (x2_hi if g_hi >= 0.0 else x2_lo), inf))

    return enclose


class _Endpoint(NamedTuple):
    """Enclosures of the two monotone pieces at one double ``x``."""

    x: float
    h_lo: float
    h_hi: float
    m2_lo: float
    m2_hi: float


@lru_cache(maxsize=1024)
def _x_pieces(x: float) -> tuple[float, float, float, float]:
    """Enclosures of ``h(x)`` and of ``(1 - x)(1 + x)`` at a double x in (0, 1).

    Neither depends on ``(t, s)``, so each is taken once per process for
    the last 1024 distinct ``x`` asked: a certificate's endpoints, and the
    points a bisection rechecks, recur across certificates and steps.  In
    ``h`` both products are >= 0, so nothing cancels; the arguments of
    ``log1p(x)``, ``log1p(-x)`` and the divisor ``2x`` are exact, so its
    enclosure stays O(eps) wide as x -> 0.  The products take two corners,
    by ``_mul_nonneg`` with the factor ``1 +- x`` second: for subnormal x
    the widened ``log1p(x)`` can cross 0, so the first factor may take
    either sign.  The float twin of ``h`` is :func:`meanbounds.means._h`.
    """
    # 1 - x is exact for x >= 1/2 (Sterbenz), else one ulp wide.
    d_lo = d_hi = 1.0 - x
    if x < 0.5:
        d_lo, d_hi = nextafter(d_lo, -inf), nextafter(d_hi, inf)
    p = 1.0 + x
    p_lo, p_hi = nextafter(p, -inf), nextafter(p, inf)
    # h = 1 - [(1 + x) log1p(x) - (1 - x) log1p(-x)] / (2x), its products
    # by _mul_nonneg and its differences by _sub, inlined.
    a_lo, a_hi = _widen(_log1p(x), _LIBM_ULPS)
    b_lo, b_hi = _widen(_log1p(-x), _LIBM_ULPS)
    plus_lo = nextafter(a_lo * (p_lo if a_lo >= 0.0 else p_hi), -inf)
    plus_hi = nextafter(a_hi * (p_hi if a_hi >= 0.0 else p_lo), inf)
    minus_lo = nextafter(b_lo * (d_lo if b_lo >= 0.0 else d_hi), -inf)
    minus_hi = nextafter(b_hi * (d_hi if b_hi >= 0.0 else d_lo), inf)
    two_x = 2.0 * x  # exact and > 0: two quotients
    q_lo = nextafter(nextafter(plus_lo - minus_hi, -inf) / two_x, -inf)
    q_hi = nextafter(nextafter(plus_hi - minus_lo, inf) / two_x, inf)
    # 1 -+ x are both > 0, so their product takes the ends in order.
    return (nextafter(1.0 - q_hi, -inf), nextafter(1.0 - q_lo, inf),
            nextafter(d_lo * p_lo, -inf), nextafter(d_hi * p_hi, inf))


def _endpoint_enclosure(params: FamilyParams) -> Callable[[float], _Endpoint]:
    """The function enclosing h and m2 at a double x in [0, 1) for ``params``.

    ``0.5 s``, the enclosure of ``1 - u`` and the ``u == 0`` test are taken
    once here, and ``h`` and ``(1 - x)(1 + x)`` come from :func:`_x_pieces`,
    so an endpoint pays only for the t-dependent ``m2``.  The log in ``m2``
    is hulled from both endpoint values of its argument, so that libm log
    need not be monotone.  At ``x = 0`` both pieces are exactly 0, their
    common limit.
    """
    half_s = 0.5 * params.s
    u_is_zero = params.u == 0.0
    c_lo, c_hi = _one_minus_u(params)

    def enclose(x: float) -> _Endpoint:
        if x == 0.0:
            return _Endpoint(0.0, 0.0, 0.0, 0.0, 0.0)
        h_lo, h_hi, i_lo, i_hi = _x_pieces(x)
        if u_is_zero:
            return _Endpoint(x, h_lo, h_hi, 0.0, 0.0)
        # m2 = (s/2) ln[(1 - x)(1 + x) + (1 - u) x^2].  A product by a point
        # x or s/2, both > 0, takes the ends in order.
        w_lo = nextafter(nextafter(c_lo * x, -inf) * x, -inf)
        w_hi = nextafter(nextafter(c_hi * x, inf) * x, inf)
        i_lo, i_hi = nextafter(i_lo + w_lo, -inf), nextafter(i_hi + w_hi, inf)
        if i_lo <= 0.0:
            raise ValueError("1 - u x^2 enclosure touches 0; x too close to 1")
        a_lo, a_hi = _widen(_log(i_lo), _LIBM_ULPS)
        b_lo, b_hi = _widen(_log(i_hi), _LIBM_ULPS)
        m2_lo = nextafter(min(a_lo, b_lo) * half_s, -inf)
        m2_hi = nextafter(max(a_hi, b_hi) * half_s, inf)
        return _Endpoint(x, h_lo, h_hi, m2_lo, m2_hi)

    return enclose


def _monotone_bounds(lo: _Endpoint, hi: _Endpoint) -> tuple[float, float]:
    """Bounds of the log-ratio over ``[lo.x, hi.x]`` from the pieces' values
    at its ends: ``h`` is increasing and ``m2`` nonincreasing there."""
    return _add(lo.h_lo, hi.h_hi, hi.m2_lo, lo.m2_hi)


def _node_bounds(params: FamilyParams) -> Callable[[float, float], tuple[int, float, float]]:
    """The function bounding the log-ratio over a node ``[a, b]`` for ``params``.

    It returns ``(sign, bound_lo, bound_hi)``, the package's one sign rule:
    the log-ratio lies in ``[bound_lo, bound_hi]`` on ``[a, b]``, and
    ``sign`` is -1 or 1 when the node's sign enclosure clears 0, the
    log-ratio's sign there (``x = 0`` aside), and 0 when it straddles 0.  A
    Taylor node, inside ``[0, TAYLOR_X0]``, takes its sign enclosure from
    :func:`_taylor_enclosure`'s ``g`` and bounds from ``x^2 g``; above it
    both are :func:`_monotone_bounds` of the pieces at the two ends.  Each
    enclosure is set up when the first node needs it, and each endpoint is
    enclosed once, however many nodes share it.
    """
    taylor = enclose = None
    ends: dict[float, _Endpoint] = {}

    def bounds(a: float, b: float) -> tuple[int, float, float]:
        nonlocal taylor, enclose
        if b <= TAYLOR_X0:
            if taylor is None:
                taylor = _taylor_enclosure(params)
            sign_lo, sign_hi, lo, hi = taylor(a, b)
        else:
            if enclose is None:
                enclose = _endpoint_enclosure(params)
            sign_lo, sign_hi = lo, hi = _monotone_bounds(
                ends.get(a) or ends.setdefault(a, enclose(a)),
                ends.get(b) or ends.setdefault(b, enclose(b)))
        return -1 if sign_hi < 0.0 else 1 if sign_lo > 0.0 else 0, lo, hi

    return bounds


class CertificateNode(NamedTuple):
    """One node of a certificate: the bounds of the log-ratio over
    ``[x_lo, x_hi]`` and what the bisection did with the node."""

    x_lo: float
    x_hi: float
    bound_lo: float
    bound_hi: float
    status: str  # proved_negative | proved_positive | split | inconclusive


def _certify(bounds: Callable[[float, float], tuple[int, float, float]],
             x_lo: float, x_hi: float, budget: int) -> list[CertificateNode]:
    """The certificate of the sign that ``bounds`` gives its nodes on
    ``[x_lo, x_hi]``, by adaptive depth-first bisection.

    ``bounds(a, b)`` returns ``(sign, bound_lo, bound_hi)``, as
    :func:`_node_bounds` does: -1 / 1 make a ``proved_negative`` /
    ``proved_positive`` leaf, 0 a split.  A node splits only while fewer
    than ``budget - 1`` nodes came before it, so at most ``budget - 1``
    nodes split and the tree holds at most ``2 budget - 1``; an undecided
    node that may not split is ``inconclusive``.  Returns the full tree in
    processing order.
    """
    nodes: list[CertificateNode] = []
    stack = [(x_lo, x_hi)]
    while stack:
        a, b = stack.pop()
        node_sign, bound_lo, bound_hi = bounds(a, b)
        if node_sign:
            status = "proved_negative" if node_sign < 0 else "proved_positive"
        else:
            mid = 0.5 * (a + b)
            if len(nodes) + 1 < budget and a < mid < b:
                status = "split"
                stack.append((mid, b))
                stack.append((a, mid))
            else:
                status = "inconclusive"
        nodes.append(CertificateNode(a, b, bound_lo, bound_hi, status))
    return nodes


def certify_sign(
    t: float,
    s: float,
    x_lo: float,
    x_hi: float,
    sign: str,
    budget: int = 100_000,
) -> list[CertificateNode]:
    """Certify the family log-ratio's sign on ``[x_lo, x_hi]`` by subdivision.

    Adaptive depth-first bisection (:func:`_certify`); ``x_lo`` may be 0,
    the open left end, where the log-ratio vanishes: the sign is then
    proved on ``(0, x_hi]``.  Each node ``[a, b]`` is bounded by one
    :func:`_node_bounds` for the call, so a split encloses only its
    midpoint, and its sign decides the node.  ``sign`` is validated but
    does not shape the tree: a disproof shows up as a proved leaf of the
    opposite sign.  ``budget`` caps the splits, not the nodes: at most
    ``budget - 1`` nodes split and the tree holds at most
    ``2 budget - 1``.  Returns the full tree in processing order.
    """
    if sign not in ("negative", "positive"):
        raise ValueError(f"sign must be 'negative' or 'positive', got {sign!r}")
    if not 0.0 <= x_lo < x_hi < 1.0 or x_hi > EVAL_LIMIT:
        raise ValueError(f"need 0 <= x_lo < x_hi <= {EVAL_LIMIT!r}")
    if not (math.isfinite(budget) and budget == int(budget) >= 1):
        raise ValueError(f"budget must be an integer >= 1, got {budget}")
    return _certify(_node_bounds(FamilyParams.from_t(float(t), float(s))),
                    float(x_lo), float(x_hi), budget)


# ----------------------------------------------------------------------
# The lemma behind the closed forms.  With h = ln(A/I) and u = (1 - 2t)^2
# the log-ratio at the gap x is (s/2) ln((1 - u x^2) / (1 - F_s(x) x^2)),
# F_s(x) = -expm1(-2h/s) / x^2, so the lower side holds iff u >= sup F_s and
# the upper side iff u <= inf F_s.  F_s(0+) = 1/(3s) gives q and
# F_s(1-) = 1 - (2/e)^(2/s) gives p, so both closed forms are sharp where F_s
# increases.  With lambda = 1/s, F_s' >= 0 iff
# G(x, lambda) = lambda a(x) - expm1(2 lambda h(x)) >= 0, where
# a(x) = x h'(x) = atanh(x)/x - 1.  G(x, .) is concave with G(x, 0) = 0, so
# G(x, 9/5) >= 0 gives G >= 0 for every lambda in [0, 9/5]: the one lemma
#
#     phi(x) = (9/5) a(x) - expm1((18/5) h(x)) >= 0 on (0, 1)
#
# makes F_s increasing for every s >= 5/9.  5/9 is sharp:
# F_s = 1/(3s) + (1/(10s) - 1/(18s^2)) x^2 + O(x^4).  certify_phi proves it.
# ----------------------------------------------------------------------

# The Taylor node of phi takes PHI_TAYLOR_N series terms and nodes up to
# PHI_TAYLOR_X0; the dyadic node [0.875, 0.9375] needs N >= 52.
PHI_TAYLOR_X0 = 0.9375
PHI_TAYLOR_N = 60


@lru_cache(maxsize=None)
def _phi_coefficients(terms: int) -> tuple:
    """The exact ``Fraction`` coefficients ``d_1 .. d_N`` of
    ``phi = sum_k d_k w^k``, ``w = x^2``, ``N = terms``:
    ``d_k = (9/5) / (2k + 1) - e_k``, with ``e_k`` those of
    ``expm1((18/5) h)`` from ``h``'s ``1/(2k(2k+1))`` by the exp-of-series
    recurrence ``k E_k = c sum_{j<=k} j h_j E_(k-j)``, ``E_0 = 1``."""
    from fractions import Fraction

    c = Fraction(18, 5)
    h = [Fraction(1, 2 * j * (2 * j + 1)) for j in range(1, terms + 1)]
    e = [Fraction(1)]
    for k in range(1, terms + 1):
        e.append(c * sum(j * h[j - 1] * e[k - j] for j in range(1, k + 1)) / k)
    return tuple(Fraction(9, 5) / (2 * k + 1) - e[k] for k in range(1, terms + 1))


def _phi_bounds() -> Callable[[float, float], tuple[int, float, float]]:
    """The function bounding ``phi`` over a node ``[a, b]`` of [0, 1], as
    :func:`_node_bounds` bounds the log-ratio: ``(sign, bound_lo, bound_hi)``.

    * Taylor node, ``b <= PHI_TAYLOR_X0``: ``phi / w^3 = sum_{k>=3} d_k
      w^(k-3)`` with every ``d_k >= 0`` up to ``PHI_TAYLOR_N``, exactly
      (:func:`_phi_coefficients`).  The ``e_k`` are >= 0 and sum to
      ``E = expm1((18/5)(1 - ln 2))``, ``h``'s limit at 1 being
      ``1 - ln 2``, so each is at most ``E`` and ``phi / w^3 >= d_3 -
      E w^(N-2) / (1 - w)``, taken at ``w = b^2``.  Where that is > 0 the
      node is proved, and ``bound_lo`` is the larger of it times ``a^6``
      and the monotone bound below.
    * Monotone node: ``a`` and ``h`` increase, so ``phi`` lies in
      ``[(9/5) a(a) - expm1((18/5) h(b)), (9/5) a(b) - expm1((18/5) h(a))]``
      from endpoint enclosures: ``h`` and ``(1 - x)(1 + x)`` from
      :func:`_x_pieces`, and ``a = -h - ln((1 - x)(1 + x)) / 2``.
    * Right-open node, ``b = 1``: ``h < 1 - ln 2`` and ``a`` grows without
      bound, so ``phi > (9/5) a(a) - E``, and ``bound_hi`` is inf.

    Library ``log`` and ``expm1`` values are widened by ``_LIBM_ULPS``, the
    kernel's assumption; each widened value bounds the exact one, so
    neither need be monotone.
    """
    nine_fifths, eighteen_fifths = _div(9.0, 9.0, 5.0, 5.0), _div(18.0, 18.0, 5.0, 5.0)
    # d_3 = 24/875, below it the double under it; no Taylor node proves
    # anything should some d_k < 0.
    d = _phi_coefficients(PHI_TAYLOR_N)
    d3_lo = nextafter(float(d[2]), -inf) if min(d) >= 0 else -inf
    ln2_lo, ln2_hi = _widen(_log(2.0), _LIBM_ULPS)
    # h's limit at 1, 1 - ln 2, enclosed; a's is inf.
    at_one = (inf, inf, nextafter(1.0 - ln2_hi, -inf), nextafter(1.0 - ln2_lo, inf))

    def ends(x: float) -> tuple[float, float, float, float]:
        """``(a_lo, a_hi, h_lo, h_hi)`` at ``x`` in [0, 1]."""
        if x == 0.0:
            return 0.0, 0.0, 0.0, 0.0
        if x == 1.0:
            return at_one
        h_lo, h_hi, i_lo, i_hi = _x_pieces(x)
        half_ln_lo = 0.5 * _widen(_log(i_lo), _LIBM_ULPS)[0]
        half_ln_hi = 0.5 * _widen(_log(i_hi), _LIBM_ULPS)[1]
        return (nextafter(-h_hi - half_ln_hi, -inf), nextafter(-h_lo - half_ln_lo, inf),
                h_lo, h_hi)

    def expm1_of(h_lo: float, h_hi: float) -> tuple[float, float]:
        """``expm1((18/5) h)`` over ``[h_lo, h_hi]``, ``h_lo >= 0``."""
        v_lo, v_hi = _mul_nonneg(h_lo, h_hi, *eighteen_fifths)
        return _widen(math.expm1(v_lo), _LIBM_ULPS)[0], _widen(math.expm1(v_hi), _LIBM_ULPS)[1]

    big_e = expm1_of(0.0, at_one[3])[1]

    def bounds(a: float, b: float) -> tuple[int, float, float]:
        a_lo, _, h_lo, _ = ends(a)
        _, a_hi, _, h_hi = ends(b)
        e_lo, e_hi = expm1_of(max(h_lo, 0.0), h_hi)
        lo = nextafter(_mul_nonneg(a_lo, a_lo, *nine_fifths)[0] - e_hi, -inf)
        hi = nextafter(_mul_nonneg(a_hi, a_hi, *nine_fifths)[1] - e_lo, inf)
        if b <= PHI_TAYLOR_X0:
            w_hi = nextafter(b * b, inf)
            power = w_hi  # w^(N - 2), rounded up
            for _ in range(PHI_TAYLOR_N - 3):
                power = nextafter(power * w_hi, inf)
            tail = nextafter(nextafter(big_e * power, inf) / nextafter(1.0 - w_hi, -inf), inf)
            g_lo = nextafter(d3_lo - tail, -inf)  # phi / w^3 >= g_lo
            if g_lo > 0.0:
                w_lo = max(nextafter(a * a, -inf), 0.0)
                w3_lo = nextafter(nextafter(w_lo * w_lo, -inf) * w_lo, -inf)
                return 1, max(lo, nextafter(w3_lo * g_lo, -inf)), hi
        return (1 if lo > 0.0 else -1 if hi < 0.0 else 0), lo, hi

    return bounds


# Split cap of certify_phi; its tree takes 13 nodes, 6 of them splits.
_PHI_BUDGET = 64


def certify_phi() -> list[CertificateNode]:
    """Certify ``phi(x) = (9/5)(atanh(x)/x - 1) - expm1((18/5) h(x)) > 0``
    on (0, 1), open at both ends, and with it that ``F_s`` increases, so
    that both closed-form cutoffs are sharp, for every ``s >= 5/9`` (the
    reduction is derived above :data:`PHI_TAYLOR_X0`).

    The nodes bisect ``[0, 1)`` (:func:`_certify`), bounded by
    :func:`_phi_bounds`: Taylor nodes up to ``PHI_TAYLOR_X0``, monotone ones
    above, and one right-open node ``[x, 1)``, whose ``x_hi`` is 1.0.
    At most ``_PHI_BUDGET - 1`` nodes split, as in :func:`certify_sign`.
    """
    return _certify(_phi_bounds(), 0.0, 1.0, _PHI_BUDGET)


def certificate_leaves(nodes: list[CertificateNode]) -> list[CertificateNode]:
    return [n for n in nodes if n.status != "split"]


def certificate_succeeded(nodes: list[CertificateNode], sign: str) -> bool:
    """True when every leaf proves the expected sign."""
    want = "proved_negative" if sign == "negative" else "proved_positive"
    leaves = certificate_leaves(nodes)
    return bool(leaves) and all(n.status == want for n in leaves)
