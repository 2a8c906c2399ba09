"""Whole-array error scales and the full-floor grid check, as they were
before the grid checks read their scales by index range.

They are the reference of ``test_scale_by_index.py``: each scale here is
formed on every point, and :func:`run_grid_check` forms the noise floor on
every point of every side wherever some margin is negative, writing it
over the scales it is given.
"""

import math

import numpy as np

from meanbounds.family import _DBL_MAX, _m2
from meanbounds.verify import _EPS, _MAX_RECHECKS, _NOISE_C, VerificationReport, Witness


def family_scale(params, pieces) -> np.ndarray:
    """The error scale of the log-ratio on every point of ``pieces``."""
    scale = np.empty(len(pieces))
    direct_scale, series_scale = scale[pieces.direct], scale[pieces.small]
    if params.u == 0.0:
        direct_scale.fill(8.0)
    elif direct_scale.size:
        _m2(params, pieces.x_direct, pieces.one_minus_sq, out=direct_scale)
        np.abs(direct_scale, out=direct_scale)
        direct_scale += 2.0
        if params.s > 1e306:
            np.minimum(direct_scale, np.finfo(float).max / 4.0, out=direct_scale)
        direct_scale *= 4.0
    w = pieces.w_small
    if w.size:
        three_su = 3.0 * params.s * params.u if params.u else 0.0
        if math.isinf(three_su):
            np.multiply(w, params.s * params.u + 1.0 / 3.0, out=series_scale)
        else:
            np.multiply(w, 1.0 + three_su, out=series_scale)
            series_scale /= 3.0
    return scale


def exp_scale(coef: float, scale_lr: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The exponential-bound margin's scale from the whole ``ln(I/A)`` scale."""
    return scale_lr + min(2.0 * coef, _DBL_MAX) * (x * x)


def power_scale(p: float, alpha: float, lr: np.ndarray, scale_lr: np.ndarray,
                ln_sq: np.ndarray) -> np.ndarray:
    """The convex power margin's scale from the whole ``ln(I/A)`` scale."""
    t_i = np.expm1(p * lr)
    with np.errstate(over="ignore"):
        t_g = np.expm1((0.5 * p) * ln_sq)
    weighted_g = (1.0 - alpha) * t_g
    return (np.abs(t_i) + np.abs(weighted_g)
            + p * ((1.0 + t_i) * scale_lr)
            + p * ((1.0 - alpha) * (1.0 + t_g) * (1.5 * np.abs(ln_sq) + 1.0)))


def run_grid_check(xs, sides, parameters):
    """The grid check with whole-array floors; the scales are overwritten."""
    one = len(sides) == 1
    margins = sides[0][1] if one else np.concatenate([side[1] for side in sides])
    worst = float(margins.min())
    candidates = []
    if not worst >= 0.0:
        scale = sides[0][2] if one else np.concatenate([side[2] for side in sides])
        neg_floors = np.multiply(scale, -_NOISE_C * _EPS, out=scale)
        candidates = np.flatnonzero(margins < neg_floors)
        if candidates.size:
            candidates = candidates[np.argsort(margins[candidates], kind="stable")]
        candidates = candidates[:_MAX_RECHECKS].tolist()
    witness = None
    rechecks = 0
    for idx in candidates:
        label, _, _, recheck = sides[idx // xs.size]
        x = float(xs[idx % xs.size])
        confirmed = recheck(x)
        rechecks += 1
        if confirmed < 0.0:
            witness = Witness(x=x, pair=(1.0 + x, 1.0 - x), margin=float(margins[idx]),
                              margin_recheck=confirmed, label=label)
            break
    if witness is None:
        worst = max(worst, 0.0)
    verdict = "holds_on_grid" if witness is None else "violated"
    return (VerificationReport(verdict, worst, witness, int(margins.size),
                               parameters), rechecks)
