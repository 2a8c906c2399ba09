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
``u = 0`` case, ``-h``, so :mod:`meanbounds.means` evaluates it here, and
:mod:`meanbounds.intervals` encloses the same two pieces.  The kernel is
built from the same ``d = 1 - x``, ``log1p`` terms and series coefficients,
on the same domain, up to ``EVAL_LIMIT``.  ``FamilyParams`` and
``EVAL_LIMIT`` come from :mod:`meanbounds.thresholds`, which owns the domain
of ``(t, s)``, and stay importable from here.
"""

from __future__ import annotations

import math

import numpy as np

from .thresholds import EVAL_LIMIT, FamilyParams

__all__ = [
    "log_ratio_q_over_i",
    "derivative_kernel",
    "log_ratio_limit_at_one",
    "exp_bound_margin",
]

# Below this gap the direct form keeps only absolute (not relative)
# accuracy: its few-ulp error on the O(1) quotient in h divided by x^2 swamps
# quantities like ln(A/I)/x^2 - 1/6 once x^2 is small.  The degree-8 series
# still truncates below 6e-18 relative at 1e-2, so it owns everything
# beneath that point.
SERIES_CROSSOVER = 1e-2

_LN2 = math.log(2.0)


def _validate_x(arr: np.ndarray) -> None:
    if not np.all((arr > 0.0) & (arr < 1.0)):  # NaN fails both tests
        raise ValueError("x must lie strictly inside (0, 1)")
    if np.any(arr > EVAL_LIMIT):
        raise ValueError(f"x is only evaluated up to {EVAL_LIMIT!r}; "
                         "use log_ratio_limit_at_one for the x -> 1 behavior")


def _evaluate(x, fn, validate=_validate_x):
    """``fn`` applied to the validated ``x``: a float for a scalar, else an array."""
    arr = np.asarray(x, dtype=float)
    validate(arr)
    out = fn(np.atleast_1d(arr))
    return float(out[0]) if arr.ndim == 0 else out


def _split(x: np.ndarray):
    """Indexers of the series points (``x < SERIES_CROSSOVER``) and of the
    direct points of ``x``: slices when the series points are a prefix, as
    on every increasing grid, else boolean masks."""
    small = x < SERIES_CROSSOVER
    k = int(np.count_nonzero(small))
    if k in (0, small.size) or small[:k].all():
        return slice(0, k), slice(k, None)
    return small, ~small


def _series_coefficients(params: FamilyParams) -> tuple[float, float, float, float]:
    """``c_k = 1/(2k(2k+1)) - s u^k / (2k)``, k = 1..4: the log-ratio is
    ``sum c_k x^(2k)``, so the kernel ``x^2 f'`` is ``sum 2k c_k x^(2k+1)``.
    Interval twin, to ``TAYLOR_K`` terms: ``intervals._taylor_enclosure``."""
    u, s = params.u, params.s
    if u == 0.0:  # the s-free values, where 3 s u would be inf * 0 for s near the top
        return 1.0 / 6.0, 1.0 / 20.0, 1.0 / 42.0, 1.0 / 72.0
    three_su = 3.0 * s * u
    # 3 s overflows for s > 6e307, while s u <= s stays finite.
    c1 = 1.0 / 6.0 - s * u / 2.0 if math.isinf(three_su) else (1.0 - three_su) / 6.0
    return (c1,
            1.0 / 20.0 - s * u * u / 4.0,
            1.0 / 42.0 - s * u ** 3 / 6.0,
            1.0 / 72.0 - s * u ** 4 / 8.0)


def _log_ratio_series(params: FamilyParams, w: np.ndarray,
                      out: np.ndarray | None = None) -> np.ndarray:
    """The log-ratio's series in ``w = x^2`` by Horner's rule, in ``out`` if given."""
    c1, c2, c3, c4 = _series_coefficients(params)
    out = np.multiply(w, c4, out=out)
    for c in (c3, c2, c1):
        out += c
        out *= w
    return out


def _h(v, d, ln_d):
    """``h = 1 - [(1+v) ln(1+v) - d ln d] / (2v)`` given ``d = 1 - v`` and ``ln d``.

    Both products are >= 0 and their quotient by ``2v`` lies in [ln 2, 1], so
    nothing cancels.  The grid passes ``(x, 1 - x, log1p(-x))``, the identric
    mean ``d`` and ``ln d`` from the pair.  Interval twin: the ``h`` enclosure
    of ``intervals._endpoint_enclosure``.
    """
    return 1.0 - ((1.0 + v) * np.log1p(v) - d * ln_d) / (2.0 * v)


def _m2(params: FamilyParams, x: np.ndarray, one_minus_sq: np.ndarray,
        out: np.ndarray) -> None:
    """The t-dependent piece (s/2) ln(1 - u x^2), as (1 - x^2) + (1 - u) x^2,
    written into ``out``."""
    np.multiply(x, params.one_minus_u, out=out)
    out *= x
    out += one_minus_sq
    np.log(out, out=out)
    out *= 0.5 * params.s


class _Pieces:
    """The t-independent pieces of the log-ratio on ``x``.

    Built once per array of gaps; :func:`_log_ratio_with_scale` adds the
    t-dependent ``m2`` piece and the series for each parameter pair.  The
    gaps are split once, by :func:`_split`, into the series points
    ``small`` and the direct points ``direct``.  ``w_small`` is ``x^2`` on
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
        self.h = _h(self.x_direct, one_minus_x, np.log1p(-self.x_direct))
        for arr in (self.w_small, self.x_direct, self.one_minus_sq, self.h):
            arr.flags.writeable = False

    def __len__(self) -> int:
        return self.size


def _log_ratio_with_scale(params: FamilyParams, pieces: _Pieces):
    """Values plus absolute-error scale (error <= scale * eps) on ``pieces``.

    Direct path, ``4 (2 + |m2|)`` (Higham, *Accuracy and Stability of
    Numerical Algorithms*, ch. 3): h's quotient in [ln 2, 1] comes from two
    log1p values within 4 ulps each and six roundings of nonnegative terms,
    so it is off by under 6 eps, and ``1 - quotient`` is exact (Sterbenz).
    ``4 |m2|`` covers m2's log; the (s/2)-fold few-ulp error of the positive
    sum ``1 - u x^2`` sits in the headroom of ``verify._NOISE_C``.  Series
    region, ``w (1 + 3su) / 3`` with ``w = x^2``, the size of its terms
    (``w / 3`` at ``u = 0``, where ``3su`` would be ``inf * 0`` for s near
    the top of the double range, and ``w (su + 1/3)`` where ``3su``
    overflows).
    """
    vals, scale = np.empty(len(pieces)), np.empty(len(pieces))
    # A slice indexes a view, so each part is written in place; a mask
    # indexes a copy, which is written back at the end.
    direct, small = pieces.direct, pieces.small
    direct_vals, direct_scale = vals[direct], scale[direct]
    series_vals, series_scale = vals[small], scale[small]
    if params.u == 0.0:
        direct_vals[...] = pieces.h
        direct_scale.fill(8.0)
    elif direct_vals.size:  # a scalar call has one of the two parts only
        _m2(params, pieces.x_direct, pieces.one_minus_sq, out=direct_scale)
        np.add(pieces.h, direct_scale, out=direct_vals)
        np.abs(direct_scale, out=direct_scale)
        direct_scale += 2.0
        direct_scale *= 4.0
    w = pieces.w_small
    if w.size:
        _log_ratio_series(params, w, out=series_vals)
        three_su = 3.0 * params.s * params.u if params.u else 0.0
        if math.isinf(three_su):
            np.multiply(w, params.s * params.u + 1.0 / 3.0, out=series_scale)
        else:
            np.multiply(w, 1.0 + three_su, out=series_scale)
            series_scale /= 3.0
    if not isinstance(small, slice):
        vals[direct], scale[direct] = direct_vals, direct_scale
        vals[small], scale[small] = series_vals, series_scale
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


def _lr_with_error_scale(pieces: _Pieces) -> tuple[np.ndarray, np.ndarray]:
    """ln(I/A) on the gaps of ``pieces`` plus a per-point scale for its error.

    The returned ``scale`` is such that the evaluation error is below
    ``scale * eps``; used by the verification layer to build noise floors.
    Inputs are assumed validated, in [0, 1).  It is the family's value and
    scale at ``u = 0``, negated.
    """
    vals, scale = _log_ratio_with_scale(_IDENTRIC, pieces)
    return -vals, scale


def _kernel(params: FamilyParams, x: np.ndarray) -> np.ndarray:
    """The kernel on ``x``: below the crossover its series; above, the twin
    of :func:`_h`, with ``atanh(x) = (log1p(x) - log1p(-x)) / 2`` and
    ``1 - u x^2 = d (1 + x) + (1 - u) x^2``, ``d = 1 - x``, a sum of
    nonnegative terms."""
    small, direct = _split(x)
    out = np.empty_like(x)
    xd = x[direct]
    d = 1.0 - xd
    out[direct] = (-xd + 0.5 * (np.log1p(xd) - np.log1p(-xd))
                   - params.s * params.u * xd ** 3
                   / (d * (1.0 + xd) + params.one_minus_u * xd * xd))
    x_small = x[small]
    w = x_small * x_small
    c1, c2, c3, c4 = _series_coefficients(params)
    out[small] = x_small * w * (2.0 * c1 + w * (4.0 * c2 + w * (6.0 * c3 + w * 8.0 * c4)))
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
                                 scale_lr: np.ndarray, x: np.ndarray):
    """The margin and its error scale from ``ln(I/A)`` and its scale on ``x``."""
    w = x * x
    return -lr - coef * w, scale_lr + 2.0 * coef * w
