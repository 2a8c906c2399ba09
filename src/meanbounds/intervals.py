"""Outward-rounded interval kernel and sign certificates for the log-ratio.

This is deliberately not a general interval library: it provides exactly
the operations needed to enclose the family log-ratio over a compact
subinterval of [0, 1), and :func:`certify_sign`, which proves its sign by
subdivision.  The primitives work on ``(lo, hi)`` float pairs: ``_add``,
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
``g`` (``X > 0`` on ``(0, b]``) and reports ``X g`` as its bounds.  The
series is cut after ``TAYLOR_K = 35`` terms with a bounded tail, enough for
``TAYLOR_X0 = 0.5`` (the rule is derived beside the constants); ``h``'s
coefficients, which depend on neither ``t`` nor ``s``, are enclosed once at
import.  :func:`_node_bounds` is the one place that applies this rule, for
the nodes of a certificate and the points of a bisection's recheck alike.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable
from math import inf, nextafter, ulp
from typing import NamedTuple

from .thresholds import EVAL_LIMIT, FamilyParams

__all__ = [
    "TAYLOR_X0",
    "TAYLOR_K",
    "CertificateNode",
    "certify_sign",
    "certificate_leaves",
    "certificate_succeeded",
]

# Error allowance, in ulps, for one libm log/log1p call, assumed of math.log1p
# here and np.log1p in the float core, which calls no atanh: 80k sampled
# points in (0, 2) were within 0.58 ulp of mpmath, evidence but not proof.
_LIBM_ULPS = 4

# The Taylor node (see _taylor_enclosure).  On [0, TAYLOR_X0], X <= 1/4, so the
# tail factor X^K / (1 - X) is below 0.25^35 / 0.75 < 1.4e-21 and the tail of
# g below 1.6e-23 s (its s u^(K+1) / (2K+2) end dominates 1/(72 * 73)).  The
# enclosed c_1 alone is 4e-16 to 9e-16 wide near the cutoffs, mostly from the
# widening of u, so the tail sits five orders of magnitude below what
# rounding already costs, even at s = 50.  The rule is X0^(2K) / (1 - X0^2)
# < 1.4e-21, so K grows as about 24 / ln(1 / X0) with X0: 20 at 0.3, 35 at
# 0.5.  A larger X0 leaves fewer nodes to the monotone enclosure, which needs
# many where f is O(x^2) and nearly cancels, and at TAYLOR_X0 = 0.5 the
# interval Horner over X in [0, 1/4] still proves (0, 0.5] in one node at
# q + 1e-15 and p - 1e-15 for s in {1, 2, 10, 50}.
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
    which ``nextafter`` removes.  The kernel's loops inline the same two
    products.
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


# Enclosures of h's series coefficients 1/(2k(2k+1)), k = 1 .. K + 1, which
# depend on neither t nor s.
_H_COEFFICIENTS = tuple(_div(1.0, 1.0, n, n) for n in
                        (2.0 * k * (2 * k + 1) for k in range(1, TAYLOR_K + 2)))


def _taylor_enclosure(params: FamilyParams) -> Callable[[float, float], tuple[float, ...]]:
    """The function enclosing the log-ratio over ``[a, b]`` in [0, TAYLOR_X0].

    With ``X = x^2`` the log-ratio is ``f = X g``, where

        g = sum_{k<=K} c_k X^(k-1) + R,  c_k = 1/(2k(2k+1)) - s u^k / (2k),
        R in [-s u^(K+1) / (2K+2), 1/((2K+2)(2K+3))] X^K / (1 - X),

    since ``h``'s coefficients fall and ``u X <= X``.  The ``c_k`` and the
    two ends of the tail factor are enclosed here, once, from
    :func:`_u_enclosure` and the first ``TAYLOR_K + 1`` entries of
    ``_H_COEFFICIENTS``; the returned function evaluates ``g`` by interval
    Horner over ``[a^2, b^2]`` with the tail as the innermost term, and
    returns ``(g_lo, g_hi, f_lo, f_hi)`` with ``f = X g``.  Every product and
    sum is rounded outward as by the float-pair primitives; the two loops
    inline them.
    """
    u_lo, u_hi = _u_enclosure(params)
    w_lo = w_hi = 0.5 * params.s
    coefficients = []
    for k, (h_lo, h_hi) in enumerate(_H_COEFFICIENTS[:TAYLOR_K + 1], 1):
        # w = s u^k / 2 by _mul_nonneg (u >= 0; w_lo is -5e-324 once u_lo = 0
        # rounds it down), then m = w / k with two quotients: k is exact, > 0.
        w_lo = nextafter(w_lo * (u_lo if w_lo >= 0.0 else u_hi), -inf)
        w_hi = nextafter(w_hi * (u_hi if w_hi >= 0.0 else u_lo), inf)
        m_lo, m_hi = nextafter(w_lo / k, -inf), nextafter(w_hi / k, inf)
        coefficients.append((nextafter(h_lo - m_hi, -inf), nextafter(h_hi - m_lo, inf)))
    # Horner runs from c_K down to c_1; the k = K + 1 terms bound the tail.
    coefficients.pop()
    coefficients.reverse()
    tail_lo, tail_hi = -m_hi, h_hi

    def enclose(a: float, b: float) -> tuple[float, ...]:
        x2_lo, x2_hi = nextafter(a * a, -inf), nextafter(b * b, inf)
        d_lo, d_hi = _sub(1.0, 1.0, x2_lo, x2_hi)
        g_lo, g_hi = _div(tail_lo, tail_hi, d_lo, d_hi)
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
        return (g_lo, g_hi) + _mul_nonneg(g_lo, g_hi, x2_lo, x2_hi)

    return enclose


class _Endpoint(NamedTuple):
    """Enclosures of the two monotone pieces at one double ``x``."""

    x: float
    h_lo: float
    h_hi: float
    m2_lo: float
    m2_hi: float


def _endpoint_enclosure(params: FamilyParams) -> Callable[[float], _Endpoint]:
    """The function enclosing h and m2 at a double x in [0, 1) for ``params``.

    ``0.5 s``, the enclosure of ``1 - u`` and the ``u == 0`` test are taken
    once here.  In ``h`` both products are >= 0, so nothing cancels; the
    arguments of ``log1p(x)``, ``log1p(-x)`` and the divisor ``2x`` are
    exact, so its enclosure stays O(eps) wide as x -> 0.  The products take
    two corners, by ``_mul_nonneg`` with the factor ``1 +- x`` second: for
    subnormal x the widened ``log1p(x)`` can cross 0, so the first factor
    may take either sign.  The log in ``m2`` is hulled from both endpoint
    values of its argument, so that libm log need not be monotone.  At
    ``x = 0`` both pieces are exactly 0, their common limit.  The float twin
    of ``h`` is :func:`meanbounds.family._h`.
    """
    half_s = 0.5 * params.s
    u_is_zero = params.u == 0.0
    c_lo, c_hi = _one_minus_u(params)

    def enclose(x: float) -> _Endpoint:
        if x == 0.0:
            return _Endpoint(0.0, 0.0, 0.0, 0.0, 0.0)
        # 1 - x is exact for x >= 1/2 (Sterbenz), else one ulp wide.
        d_lo = d_hi = 1.0 - x
        if x < 0.5:
            d_lo, d_hi = nextafter(d_lo, -inf), nextafter(d_hi, inf)
        p = 1.0 + x
        p_lo, p_hi = nextafter(p, -inf), nextafter(p, inf)
        # h = 1 - [(1 + x) log1p(x) - (1 - x) log1p(-x)] / (2x)
        ln_lo, ln_hi = _widen(_log1p(x), _LIBM_ULPS)
        plus_lo, plus_hi = _mul_nonneg(ln_lo, ln_hi, p_lo, p_hi)
        ln_lo, ln_hi = _widen(_log1p(-x), _LIBM_ULPS)
        minus_lo, minus_hi = _mul_nonneg(ln_lo, ln_hi, d_lo, d_hi)
        q_lo, q_hi = _sub(plus_lo, plus_hi, minus_lo, minus_hi)
        two_x = 2.0 * x  # exact and > 0: two quotients
        q_lo, q_hi = nextafter(q_lo / two_x, -inf), nextafter(q_hi / two_x, inf)
        h_lo, h_hi = _sub(1.0, 1.0, q_lo, q_hi)
        if u_is_zero:
            return _Endpoint(x, h_lo, h_hi, 0.0, 0.0)
        # m2 = (s/2) ln[(1 - x)(1 + x) + (1 - u) x^2].  A product by a point
        # x or s/2, both > 0, takes the ends in order; 1 -+ x are both > 0.
        w_lo = nextafter(nextafter(c_lo * x, -inf) * x, -inf)
        w_hi = nextafter(nextafter(c_hi * x, inf) * x, inf)
        i_lo, i_hi = nextafter(d_lo * p_lo, -inf), nextafter(d_hi * p_hi, inf)
        i_lo, i_hi = _add(i_lo, i_hi, w_lo, w_hi)
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


def _node_bounds(params: FamilyParams) -> Callable[[float, float], tuple[float, ...]]:
    """The function bounding the log-ratio over a node ``[a, b]`` for ``params``.

    It returns ``(sign_lo, sign_hi, bound_lo, bound_hi)``: the log-ratio
    lies in ``[bound_lo, bound_hi]`` on ``[a, b]``, and where ``[sign_lo,
    sign_hi]`` clears 0 it has that sign there, ``x = 0`` aside.  A node
    inside ``[0, TAYLOR_X0]`` is a Taylor node, whose sign comes from
    :func:`_taylor_enclosure`'s ``g`` and bounds from ``x^2 g``; above it
    both are :func:`_monotone_bounds` of the pieces at the two ends.  Each
    enclosure is set up when the first node needs it, and each endpoint is
    enclosed once, however many nodes share it.
    """
    taylor = enclose = None
    ends: dict[float, _Endpoint] = {}

    def bounds(a: float, b: float) -> tuple[float, ...]:
        nonlocal taylor, enclose
        if b <= TAYLOR_X0:
            if taylor is None:
                taylor = _taylor_enclosure(params)
            return taylor(a, b)
        if enclose is None:
            enclose = _endpoint_enclosure(params)
        bound = _monotone_bounds(ends.get(a) or ends.setdefault(a, enclose(a)),
                                 ends.get(b) or ends.setdefault(b, enclose(b)))
        return bound + bound

    return bounds


def _point_sign(params: FamilyParams) -> Callable[[float], int]:
    """The function giving the log-ratio's sign at a double x in (0, EVAL_LIMIT].

    It bounds the degenerate node ``[x, x]`` by :func:`_node_bounds`, the
    rule of :func:`certify_sign`, and returns -1 or 1 when the bounds clear
    0, and 0 when they straddle it.
    """
    bounds = _node_bounds(params)

    def sign(x: float) -> int:
        lo, hi = bounds(x, x)[:2]
        return -1 if hi < 0.0 else 1 if lo > 0.0 else 0

    return sign


class CertificateNode(NamedTuple):
    """One node of a certificate: the bounds of the log-ratio over
    ``[x_lo, x_hi]`` and what the bisection did with the node."""

    x_lo: float
    x_hi: float
    bound_lo: float
    bound_hi: float
    status: str  # proved_negative | proved_positive | split | inconclusive


def certify_sign(
    t: float,
    s: float,
    x_lo: float,
    x_hi: float,
    sign: str,
    budget: int = 100_000,
) -> list[CertificateNode]:
    """Certify the family log-ratio's sign on ``[x_lo, x_hi]`` by subdivision.

    Adaptive depth-first bisection; ``x_lo`` may be 0, the open left end,
    where the log-ratio vanishes: the sign is then proved on ``(0, x_hi]``.
    Each node ``[a, b]`` is bounded by one :func:`_node_bounds` for the
    call, so a split encloses only its midpoint.  Leaves are
    ``proved_negative`` / ``proved_positive`` when the node's sign bounds
    clear zero.  ``budget`` caps the splits, not the nodes: a node splits
    only while fewer than ``budget - 1`` nodes came before it, so at most
    ``budget - 1`` nodes split and the tree holds at most ``2 budget - 1``.
    An undecided node that may not split is ``inconclusive`` (distinct from
    a disproof, which shows up as a proved leaf of the opposite sign).
    Returns the full tree in processing order for audit.
    """
    if sign not in ("negative", "positive"):
        raise ValueError(f"sign must be 'negative' or 'positive', got {sign!r}")
    if not 0.0 <= x_lo < x_hi < 1.0 or x_hi > EVAL_LIMIT:
        raise ValueError(f"need 0 <= x_lo < x_hi <= {EVAL_LIMIT!r}")
    if not (math.isfinite(budget) and budget == int(budget) >= 1):
        raise ValueError(f"budget must be an integer >= 1, got {budget}")
    bounds = _node_bounds(FamilyParams.from_t(float(t), float(s)))
    nodes: list[CertificateNode] = []
    stack = [(float(x_lo), float(x_hi))]
    while stack:
        a, b = stack.pop()
        sign_lo, sign_hi, bound_lo, bound_hi = bounds(a, b)
        if sign_hi < 0.0:
            status = "proved_negative"
        elif sign_lo > 0.0:
            status = "proved_positive"
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


def certificate_leaves(nodes: list[CertificateNode]) -> list[CertificateNode]:
    return [n for n in nodes if n.status != "split"]


def certificate_succeeded(nodes: list[CertificateNode], sign: str) -> bool:
    """True when every leaf proves the expected sign."""
    want = "proved_negative" if sign == "negative" else "proved_positive"
    leaves = certificate_leaves(nodes)
    return bool(leaves) and all(n.status == want for n in leaves)
