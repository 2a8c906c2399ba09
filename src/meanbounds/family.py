"""One-variable analysis machinery behind the mean comparisons.

For parameters ``(t, s)`` with ``u = (1-2t)^2``, the signed log-difference
between the two-parameter mean and the identric mean reduces to

    log_ratio_q_over_i(params, x) = h(x) + m2(x),
    h(x)  = 1 - [(1+x) ln(1+x) - (1-x) ln(1-x)] / (2x)     increasing,
    m2(x) = (s/2) ln(1 - u x^2)                            nonincreasing,

as a function of the normalized gap ``x``; both pieces stay bounded as
``x -> 1``.  Its derivative is ``derivative_kernel(params, x) / x**2``.
This module evaluates both stably, gives the log-ratio's limit at 1, and
provides the exponential-bound margin family ``exp_bound_margin`` used for
the ``exp(c * x^2)`` comparisons.  The sign analysis of the kernel that
decides the sharp cutoffs is carried out exactly in
:func:`meanbounds.thresholds.membership`.

The log-ratio is the one evaluation core of the package: ``ln(I/A)`` is its
``u = 0`` case, ``-h``, so :mod:`meanbounds.means` evaluates arrays of it
here, and :mod:`meanbounds.intervals` encloses the same two pieces.  ``h``
(``means._h``), the series coefficients (``means._series_coefficients``)
and ``SERIES_CROSSOVER`` are defined in :mod:`meanbounds.means`, which
needs no numpy for a single pair or point.  The kernel is built from the
same ``d = 1 - x``, ``log1p`` terms and series coefficients, on the same
domain, up to ``EVAL_LIMIT``.
``FamilyParams`` and ``EVAL_LIMIT`` come from :mod:`meanbounds.thresholds`,
which owns the domain of ``(t, s)``, and stay importable from here.

Every array of gaps inside the package is non-decreasing, so its series
points are a prefix, split off by one slice.  The public evaluators sort
their input first and return the values in the input's order and shape.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

from .means import SERIES_CROSSOVER, _h, _series_coefficients
from .thresholds import EVAL_LIMIT, FamilyParams

__all__ = [
    "log_ratio_q_over_i",
    "derivative_kernel",
    "log_ratio_limit_at_one",
    "exp_bound_margin",
]

_LN2 = math.log(2.0)
_DBL_MAX = float(np.finfo(float).max)


def _validate_x(arr: np.ndarray) -> None:
    if not np.all((arr > 0.0) & (arr < 1.0)):  # NaN fails both tests
        raise ValueError("x must lie strictly inside (0, 1)")
    if np.any(arr > EVAL_LIMIT):
        raise ValueError(f"x is only evaluated up to {EVAL_LIMIT!r}; "
                         "use log_ratio_limit_at_one for the x -> 1 behavior")


def _validate_gap(arr: np.ndarray) -> None:
    if not np.all((arr >= 0.0) & (arr < 1.0)):  # NaN fails both tests
        raise ValueError("gap values must lie in [0, 1)")


def _evaluate(x, fn, validate=_validate_x):
    """``fn`` on the validated ``x``, flattened and sorted: a float for a
    scalar, else ``x``'s shape and order.

    ``fn`` takes non-decreasing gaps (:func:`_split`).  Each of its values
    depends on its own gap alone, so the order changes no bit.
    """
    arr = np.asarray(x, dtype=float)
    validate(arr)
    flat = arr.ravel()
    order = np.argsort(flat, kind="stable")
    out = np.empty_like(flat)
    out[order] = fn(flat[order])
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


def _split(x: np.ndarray) -> tuple[slice, slice]:
    """Slices of the series points (``x < SERIES_CROSSOVER``) and of the
    direct points of the non-decreasing gaps ``x``."""
    k = int(x.searchsorted(SERIES_CROSSOVER))
    return slice(0, k), slice(k, None)


def _log_ratio_series(params: FamilyParams, w: np.ndarray,
                      out: np.ndarray | None = None) -> np.ndarray:
    """The log-ratio's series in ``w = x^2`` by Horner's rule, in ``out`` if given."""
    c1, c2, c3, c4 = _series_coefficients(params)
    out = np.multiply(w, c4, out=out)
    for c in (c3, c2, c1):
        out += c
        out *= w
    return out


def _overflow_rounds(possible: bool):
    """A context in which an overflow, which only ``possible`` allows,
    rounds to inf without a warning; a no-op otherwise."""
    return np.errstate(over="ignore") if possible else contextlib.nullcontext()


def _m2(params: FamilyParams, x: np.ndarray, one_minus_sq: np.ndarray,
        out: np.ndarray) -> None:
    """The t-dependent piece (s/2) ln(1 - u x^2), as (1 - x^2) + (1 - u) x^2,
    written into ``out``."""
    np.multiply(x, params.one_minus_u, out=out)
    out *= x
    out += one_minus_sq
    np.log(out, out=out)
    # |m2| <= 13.5 s up to EVAL_LIMIT, so only s > 1e306 can overflow here,
    # to -inf next to x = 1: that is the rounded value.
    with _overflow_rounds(params.s > 1e306):
        out *= 0.5 * params.s


class _Pieces:
    """The t-independent pieces of the log-ratio on ``x``.

    Built once per array of non-decreasing gaps;
    :func:`_log_ratio_with_scale` adds the t-dependent ``m2`` piece and the
    series for each parameter pair.  The gaps are split once, by
    :func:`_split`, into the slices ``small`` of the series points and
    ``direct`` of the direct points.  ``w_small`` is ``x^2`` on
    the series points; ``x_direct``, ``h`` and ``one_minus_sq``
    (``1 - x^2``) are taken on the direct points only.  The arrays are
    read-only, so one instance can serve any number of checks.
    """

    def __init__(self, x: np.ndarray):
        self.size = x.size
        self.small, self.direct = _split(x)
        x_small = x[self.small]
        self.w_small = x_small * x_small
        self.x_direct = x[self.direct]
        one_minus_x = 1.0 - self.x_direct
        # (1-x)(1+x): the subtraction is exact for x >= 1/2 and one rounding
        # below, so 1 - x^2 keeps a few-ulp relative error up to x = 1 - 1e-9.
        self.one_minus_sq = one_minus_x * (1.0 + self.x_direct)
        self.h = _h(self.x_direct, one_minus_x, np.log1p(-self.x_direct), np.log1p)
        for arr in (self.w_small, self.x_direct, self.one_minus_sq, self.h):
            arr.flags.writeable = False

    def __len__(self) -> int:
        return self.size


def _log_ratio_with_scale(params: FamilyParams, pieces: _Pieces):
    """Values on ``pieces`` plus their absolute-error scale (error <= scale
    * eps), formed only where it is read: ``scale(lo, hi)`` is a new array
    of its entries at the indices ``lo`` to ``hi - 1``, each formed by the
    same IEEE operations as on the whole array, so bit for bit that array's
    entry.

    Direct path, ``4 (2 + |m2|)`` (Higham, *Accuracy and Stability of
    Numerical Algorithms*, ch. 3): h's quotient in [ln 2, 1] comes from two
    log1p values within 4 ulps each and six roundings of nonnegative terms,
    so it is off by under 6 eps, and ``1 - quotient`` is exact (Sterbenz).
    ``4 |m2|`` covers m2's log; the (s/2)-fold few-ulp error of the positive
    sum ``1 - u x^2`` sits in the headroom of ``verify._NOISE_C``.  Series
    region, ``w (1 + 3su) / 3`` with ``w = x^2``, the size of its terms
    (``w / 3`` at ``u = 0``, where ``3su`` would be ``inf * 0`` for s near
    the top of the double range, and ``w (su + 1/3)`` where ``3su``
    overflows).  The values take one buffer; ``m2`` keeps its own on the
    direct points, which the scale reads.  Scalar twin, in :mod:`math`:
    :func:`meanbounds.witness._log_ratio_and_scale`.
    """
    vals = np.empty(len(pieces))
    # Views of the two slices: each part is written in place.
    direct_vals = vals[pieces.direct]
    m2 = None  # the direct scale is 8 where m2 is 0, or where no point is direct
    if params.u == 0.0:
        direct_vals[...] = pieces.h
    elif direct_vals.size:  # a scalar call has one of the two parts only
        m2 = np.empty_like(direct_vals)
        _m2(params, pieces.x_direct, pieces.one_minus_sq, out=m2)
        np.add(pieces.h, m2, out=direct_vals)
    w = pieces.w_small
    if w.size:
        _log_ratio_series(params, w, out=vals[pieces.small])
    three_su = 3.0 * params.s * params.u if params.u else 0.0
    overflows = math.isinf(three_su)
    series_coef = params.s * params.u + 1.0 / 3.0 if overflows else 1.0 + three_su
    k = w.size

    def scale(lo: int, hi: int) -> np.ndarray:
        mid = min(max(k, lo), hi)  # the series points come first
        if mid > lo:
            series = np.multiply(w[lo:mid], series_coef)
            if not overflows:
                series /= 3.0
            if mid == hi:
                return series
        if m2 is None:
            direct = np.full(hi - mid, 8.0)
        else:
            direct = np.abs(m2[mid - k:hi - k])
            direct += 2.0
            # |m2| <= 13.5 s up to EVAL_LIMIT, so only s > 1e306 can overflow
            # 4 (2 + |m2|); there it is capped at DBL_MAX, still >= 2 + |m2|,
            # so the noise floor stays at least 16 times the error bound.
            if params.s > 1e306:
                np.minimum(direct, _DBL_MAX / 4.0, out=direct)
            direct *= 4.0
        return direct if mid == lo else np.concatenate((series, direct))

    return vals, scale


def log_ratio_q_over_i(params: FamilyParams, x):
    """Signed log-gap between the two-parameter mean and the identric mean.

    Negative values mean the parameterized mean sits below the identric
    mean at that gap, positive above.  Evaluated as ``h(x) + m2(x)``, two
    bounded monotone pieces, with the even-power series below
    ``SERIES_CROSSOVER``.  Tends to 0 as ``x -> 0`` and to
    ``log_ratio_limit_at_one(params)`` as ``x -> 1``.  Scalar or array.
    """
    return _evaluate(x, lambda arr: _log_ratio_with_scale(params, _Pieces(arr))[0])


# At u = 0 (t = 1/2) the family mean is A, so the log-ratio is ln(A/I).
_IDENTRIC = FamilyParams.from_u(0.0, 1.0)


def _lr_with_error_scale(pieces: _Pieces):
    """ln(I/A) on the gaps of ``pieces`` plus a per-point scale for its error.

    The returned ``scale``, read by index range as that of
    :func:`_log_ratio_with_scale`, is such that the evaluation error is
    below ``scale * eps``; used by the verification layer to build noise
    floors.  Inputs are assumed validated, in [0, 1).  It is the
    family's value and scale at ``u = 0``, the value negated.
    """
    vals, scale = _log_ratio_with_scale(_IDENTRIC, pieces)
    return -vals, scale


def _kernel(params: FamilyParams, x: np.ndarray) -> np.ndarray:
    """The kernel on ``x``: below the crossover its series; above, the twin
    of :func:`meanbounds.means._h`, with ``atanh(x) = (log1p(x) -
    log1p(-x)) / 2`` and ``1 - u x^2 = d (1 + x) + (1 - u) x^2``,
    ``d = 1 - x``, a sum of nonnegative terms.

    ``s u x^3 / (1 - u x^2) <= 1e12 s`` up to ``EVAL_LIMIT``, so only
    ``s > 1e296`` can overflow it, to -inf next to ``x = 1``: the rounded
    value.  The series' terms ``2k c_k`` and their Horner sums come near
    ``-s u``, which overflows for ``s u`` near the top of the double range;
    there the sum is formed over ``s u`` and scaled back at the end."""
    small, direct = _split(x)
    out = np.empty_like(x)
    xd = x[direct]
    d = 1.0 - xd
    with _overflow_rounds(params.s > 1e296):
        out[direct] = (-xd + 0.5 * (np.log1p(xd) - np.log1p(-xd))
                       - params.s * params.u * xd ** 3
                       / (d * (1.0 + xd) + params.one_minus_u * xd * xd))
    x_small = x[small]
    w = x_small * x_small
    big = params.s * params.u if params.s * params.u > 1e306 else 1.0
    b1, b2, b3, b4 = (2.0 * k * (c / big)
                      for k, c in enumerate(_series_coefficients(params), 1))
    out[small] = x_small * w * (b1 + w * (b2 + w * (b3 + w * b4))) * big
    return out


def derivative_kernel(params: FamilyParams, x):
    """Kernel ``-x + atanh(x) - s u x^3 / (1 - u x^2)``.

    The log-ratio's derivative equals this kernel divided by ``x**2``;
    the kernel vanishes at 0 and diverges to +inf as ``x -> 1`` whenever
    ``u < 1``.  Scalar or array, same domain as :func:`log_ratio_q_over_i`.
    """
    return _evaluate(x, lambda arr: _kernel(params, arr))


def log_ratio_limit_at_one(params: FamilyParams) -> float:
    """Limit of the log-ratio as ``x -> 1``: ``1 - ln 2 + (s/2) ln(1-u)``.

    Returns -inf for ``u = 1``.
    """
    if params.one_minus_u == 0.0:
        return -math.inf
    return (1.0 - _LN2) + 0.5 * params.s * math.log(params.one_minus_u)


def exp_bound_margin(coef: float, x):
    """Margin ``ln(A/I)(x) - coef * x^2`` of the exponential-gap bound.

    Positive everywhere on (0, 1) iff ``coef <= 1/6``; negative everywhere
    iff ``coef >= 1 - ln 2``.  Scalar or array.
    """
    coef = float(coef)
    if not 0.0 < coef < math.inf:
        raise ValueError(f"coefficient must be finite and > 0, got {coef}")
    return _evaluate(x, lambda arr: _exp_bound_margin_with_scale(
        coef, *_lr_with_error_scale(_Pieces(arr)), arr)[0])


def _exp_bound_margin_with_scale(coef: float, lr: np.ndarray,
                                 scale_lr, x: np.ndarray):
    """The margin and its error scale from ``ln(I/A)`` and its scale on
    ``x``, both scales read by index range as that of
    :func:`_log_ratio_with_scale`.

    ``2 coef`` overflows for ``coef > DBL_MAX / 2``; ``DBL_MAX`` in its place
    keeps the scale finite (``w < 1``) and still above ``coef w``, so the
    noise floor stays over 32 times the error bound.
    """
    w = x * x
    two_coef = min(2.0 * coef, _DBL_MAX)
    return -lr - coef * w, lambda lo, hi: scale_lr(lo, hi) + two_coef * w[lo:hi]
