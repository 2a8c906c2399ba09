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
built from the same ``(v, d = 1 - v, ln d)`` and the same series coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "EVAL_LIMIT",
    "FamilyParams",
    "log_ratio_q_over_i",
    "derivative_kernel",
    "derivative_kernel_near_one",
    "log_ratio_limit_at_one",
    "exp_bound_margin",
]

# Direct evaluation is supported up to this point; beyond it a double x
# resolves 1 - x to fewer than four digits, and the x -> 1 behavior is
# exposed through log_ratio_limit_at_one instead.
EVAL_LIMIT = 1.0 - 1e-12

# Below this gap the direct form keeps only absolute (not relative)
# accuracy: its few-ulp error on the O(1) quotient in h divided by x^2 swamps
# quantities like ln(A/I)/x^2 - 1/6 once x^2 is small.  The degree-8 series
# still truncates below 6e-18 relative at 1e-2, so it owns everything
# beneath that point.
SERIES_CROSSOVER = 1e-2

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class FamilyParams:
    """Parameters ``(t, s)`` with the derived ``u = (1-2t)^2``.

    ``one_minus_u`` is carried separately so that ``1 - u*x**2`` can be
    formed without cancellation as ``(1-x)(1+x) + one_minus_u * x**2``.
    Construct via :meth:`from_t` or :meth:`from_u`.
    """

    t: float
    s: float
    u: float
    one_minus_u: float

    def __post_init__(self):
        if not (math.isfinite(self.t) and 0.0 <= self.t <= 0.5):
            raise ValueError(f"t must lie in [0, 1/2], got {self.t}")
        if not (math.isfinite(self.s) and self.s >= 1.0):
            raise ValueError(f"s must be >= 1, got {self.s}")
        if not 0.0 <= self.u <= 1.0 or not 0.0 <= self.one_minus_u <= 1.0:
            raise ValueError(f"u must lie in [0, 1], got {self.u}")
        if abs(self.u + self.one_minus_u - 1.0) > 1e-12:
            raise ValueError("inconsistent u and one_minus_u")

    @classmethod
    def from_t(cls, t: float, s: float) -> "FamilyParams":
        t = float(t)
        s = float(s)
        # An out-of-range t fails the range check of __post_init__.
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
    """Series mask and direct-path argument (0.5 under the mask)."""
    # The dummy keeps the direct forms off the removable singularity at 0.
    small = x < SERIES_CROSSOVER
    return small, np.where(small, 0.5, x)


def _series_coefficients(params: FamilyParams) -> tuple[float, float, float, float]:
    """``c_k = 1/(2k(2k+1)) - s u^k / (2k)``, k = 1..4: the log-ratio is
    ``sum c_k x^(2k)``, so the kernel ``x^2 f'`` is ``sum 2k c_k x^(2k+1)``.
    Interval twin, to ``TAYLOR_K`` terms: ``intervals._taylor_enclosure``."""
    u, s = params.u, params.s
    return ((1.0 - 3.0 * s * u) / 6.0,
            1.0 / 20.0 - s * u * u / 4.0,
            1.0 / 42.0 - s * u ** 3 / 6.0,
            1.0 / 72.0 - s * u ** 4 / 8.0)


def _log_ratio_series(params: FamilyParams, w: np.ndarray) -> np.ndarray:
    """The log-ratio's series in ``w = x^2``."""
    c1, c2, c3, c4 = _series_coefficients(params)
    return w * (c1 + w * (c2 + w * (c3 + w * c4)))


def _h(v, d, ln_d):
    """``h = 1 - [(1+v) ln(1+v) - d ln d] / (2v)`` given ``d = 1 - v`` and ``ln d``.

    Both products are >= 0 and their quotient by ``2v`` lies in [ln 2, 1], so
    nothing cancels.  The grid passes ``(x, 1 - x, log1p(-x))``, the identric
    mean ``d`` and ``ln d`` from the pair.  Interval twin: the ``h`` enclosure
    of ``intervals._endpoint_enclosure``.
    """
    return 1.0 - ((1.0 + v) * np.log1p(v) - d * ln_d) / (2.0 * v)


def _m2(params: FamilyParams, x: np.ndarray, one_minus_sq: np.ndarray) -> np.ndarray:
    """The t-dependent piece (s/2) ln(1 - u x^2), as (1 - x^2) + (1 - u) x^2."""
    out = np.multiply(x, params.one_minus_u)
    out *= x
    out += one_minus_sq
    np.log(out, out=out)
    out *= 0.5 * params.s
    return out


class _Pieces:
    """The t-independent pieces of the log-ratio on ``x``.

    Built once per array of gaps; :func:`_log_ratio_with_scale` adds the
    t-dependent ``m2`` piece and the series for each parameter pair.  ``h``
    and ``one_minus_sq`` (``1 - x^2``) are taken on the direct-path argument
    ``safe``; ``w_small`` is ``x^2`` on the series points.
    """

    def __init__(self, x: np.ndarray):
        self.small, self.safe = _split(x)
        x_small = x[self.small]
        self.w_small = x_small * x_small
        one_minus_x = 1.0 - self.safe
        # (1-x)(1+x): the subtraction is exact for x >= 1/2 and one rounding
        # below, so 1 - x^2 keeps a few-ulp relative error up to x = 1 - 1e-9.
        self.one_minus_sq = one_minus_x * (1.0 + self.safe)
        self.h = _h(self.safe, one_minus_x, np.log1p(-self.safe))

    def __len__(self) -> int:
        return self.safe.size


def _log_ratio_with_scale(params: FamilyParams, pieces: _Pieces):
    """Values plus absolute-error scale (error <= scale * eps) on ``pieces``.

    Direct path, ``4 (2 + |m2|)`` (Higham, *Accuracy and Stability of
    Numerical Algorithms*, ch. 3): h's quotient in [ln 2, 1] comes from two
    log1p values within 4 ulps each and six roundings of nonnegative terms,
    so it is off by under 6 eps, and ``1 - quotient`` is exact (Sterbenz).
    ``4 |m2|`` covers m2's log; the (s/2)-fold few-ulp error of the positive
    sum ``1 - u x^2`` sits in the headroom of ``verify._NOISE_C``.  Series
    region, ``w (1 + 3su) / 3`` with ``w = x^2``, the size of its terms.
    """
    # In-place steps keep the temporaries of a bisection step to a few.
    if params.u != 0.0:
        m2 = _m2(params, pieces.safe, pieces.one_minus_sq)
        vals = pieces.h + m2
        scale = np.abs(m2, out=m2)
        scale += 2.0
        scale *= 4.0
    else:
        vals, scale = pieces.h.copy(), np.full(len(pieces), 8.0)
    w = pieces.w_small
    vals[pieces.small] = _log_ratio_series(params, w)
    scale[pieces.small] = w * (1.0 + 3.0 * params.s * params.u) / 3.0
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


def _lr_with_error_scale(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """ln(I/A) on an array plus a per-point bound scale for its absolute error.

    The returned ``scale`` is such that the evaluation error is below
    ``scale * eps``; used by the verification layer to build noise floors.
    Inputs are assumed validated, in [0, 1).  It is the family's value and
    scale at ``u = 0``, negated.
    """
    vals, scale = _log_ratio_with_scale(_IDENTRIC, _Pieces(x))
    return -vals, scale


def _kernel_direct(params: FamilyParams, v, d, ln_d):
    """Kernel ``-v + atanh(v) - s u v^3 / (1 - u v^2)`` given ``d = 1 - v`` and ``ln d``.

    The twin of :func:`_h`: ``atanh(v) = (log1p(v) - ln d) / 2``, and
    ``1 - u v^2 = d (1 + v) + (1 - u) v^2`` is a sum of nonnegative terms.
    """
    return (-v + 0.5 * (np.log1p(v) - ln_d)
            - params.s * params.u * v ** 3 / (d * (1.0 + v) + params.one_minus_u * v * v))


def _kernel(params: FamilyParams, x: np.ndarray) -> np.ndarray:
    small, safe = _split(x)
    out = _kernel_direct(params, safe, 1.0 - safe, np.log1p(-safe))
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


def derivative_kernel_near_one(params: FamilyParams, eps_from_one: float) -> float:
    """Kernel at ``x = 1 - eps``, parameterized by the distance from 1.

    Usable for ``eps`` far below the spacing of doubles near 1 (down to
    ~1e-300), which is where the kernel's zero lives when ``u`` is large.
    """
    eps = float(eps_from_one)
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps_from_one must lie in (0, 1), got {eps}")
    # 1 - eps may round to 1; d = eps and ln d keep the distance exactly.
    return float(_kernel_direct(params, 1.0 - eps, eps, math.log(eps)))


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
        coef, *_lr_with_error_scale(arr), arr)[0])


def _exp_bound_margin_with_scale(coef: float, lr: np.ndarray,
                                 scale_lr: np.ndarray, x: np.ndarray):
    """The margin and its error scale from ``ln(I/A)`` and its scale on ``x``."""
    w = x * x
    return -lr - coef * w, scale_lr + 2.0 * coef * w
