"""Grid verification and empirical thresholds.

Every check here evaluates a margin function on a grid of gap values and
reports the signed worst slack.  Three conventions keep the verdicts
honest at machine precision:

* Grids are endpoint-refined by default: the failure regimes of every
  inequality in scope live in the limits ``x -> 0`` or ``x -> 1``, which a
  uniform grid never reaches.
* Each margin comes with a per-point noise floor derived from the
  evaluation's rounding-error model.  A negative margin smaller than its
  floor is indistinguishable from zero; it is clamped rather than being
  promoted to a counterexample, so parameters sitting exactly on a sharp
  threshold report ``holds_on_grid`` with a zero margin column.  Every
  error scale is a sum of terms >= 0, so only a negative margin can lie
  below its floor: a check with none reads no scale.  Otherwise it tests
  its least margin against its floor first, and forms the other floors,
  from a side's first negative margin to its last, only when a recheck
  asks past it.
* Any candidate violation is rechecked before it counts, in order of
  margin.  A reported witness is re-evaluated with mpmath at roughly twice
  the working precision, with more digits where those leave the margin
  unresolved, and that value is printed.  A bisection step of
  :func:`empirical_threshold` reads only the verdict (:func:`_grid_verdict`),
  so it first bounds the margin at the candidate by the interval enclosure
  of the certificates, and calls mpmath only when that enclosure straddles
  0.  :func:`falsify` confirms a witness the same way, by its enclosure's
  sign, so every witness it returns is proved; mpmath decides on a straddle
  and gives the printed value.  A candidate that fails its recheck is a
  rounding artifact and is dropped.
* A bisection step evaluates no margin outside a rounding band around the
  grid's cutoffs: the sign of ``u - F_s(x)``, ``u = (1 - 2t)^2`` and
  ``F_s(x) = -expm1(-2h/s) / x^2``, is that of the exact margin at ``x``,
  and ``F_s`` increases, so comparing ``u`` with ``F_s`` at the grid's ends
  gives the grid check's own verdict, when correct
  (:func:`empirical_threshold`).

Sign certificates are proved by :func:`meanbounds.intervals.certify_sign`,
beside the interval kernel; its names, and ``FamilyParams``, ``EVAL_LIMIT``
and ``sharp_thresholds`` from :mod:`meanbounds.thresholds`, stay importable.
So do ``falsify``, its records and the mpmath rechecks, which live in the
numpy-free :mod:`meanbounds.witness`; the checks here look the rechecks up
in this module.
"""

from __future__ import annotations

import math
import sys
from functools import cached_property, lru_cache, partial
from typing import NamedTuple

import numpy as np

from .family import (
    SERIES_CROSSOVER,
    _Pieces,
    _exp_bound_margin_with_scale,
    _log_ratio_with_scale,
    _lr_with_error_scale,
    _overflow_rounds,
)
from .intervals import (
    CertificateNode,
    _node_bounds,
    certificate_leaves,
    certificate_succeeded,
    certify_sign,
)
from .means import _H_SERIES
from .thresholds import EVAL_LIMIT, FamilyParams, _checked_s, sharp_thresholds
from .witness import (
    _EPS,
    _MAX_RECHECKS,
    _NOISE_C,
    FalsificationResult,
    Witness,
    _check_side,
    _mp_exp_margin,
    _mp_family_margin,
    _mp_power_margin,
    falsify,
)

__all__ = [
    "GridSpec",
    "Witness",
    "VerificationReport",
    "FalsificationResult",
    "TwoThirdsPowerReport",
    "grid_points",
    "verify_family_inequality",
    "falsify",
    "empirical_threshold",
    "verify_exponential_bounds",
    "verify_convex_power_bound",
    "verify_two_thirds_power",
    "TWO_THIRDS_FORWARD_THRESHOLD",
    "TWO_THIRDS_REVERSE_THRESHOLD",
]

# Twice the relative error of the bisection's (s/2) F_s and (s/2) u: h's
# 8 eps is at most 48 eps / SERIES_CROSSOVER^2 relative (h >= x^2 / 6), and
# (s/2) F_s moves by at most as much relative as h; other roundings,
# expm1's _LIBM_ULPS ulps included, add under 16 eps.
_BAND = 2.0 * (48.0 / SERIES_CROSSOVER ** 2 + 16.0) * _EPS
_BAND_POINTS = 250  # a bisection's failing cutoffs read about this many points

TWO_THIRDS_FORWARD_THRESHOLD = math.log(1.5) / (1.0 - math.log(2.0))
TWO_THIRDS_REVERSE_THRESHOLD = 1.2


class _GridFields(NamedTuple):
    count: int = 10_000
    spacing: str = "endpoint_refined"
    x_min: float = 1e-9
    x_max: float = 1.0 - 1e-9


class GridSpec(_GridFields):
    """Sample layout on the open gap interval.

    ``endpoint_refined`` accumulates points geometrically toward both
    ``x_min`` and ``x_max``; ``uniform`` is a plain linspace.  A named
    tuple of its fields, validated on construction, :meth:`_replace`
    included; an integral float ``count`` is stored as an int.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        count, spacing, x_min, x_max = super().__new__(cls, *args, **kwargs)
        if spacing not in ("uniform", "endpoint_refined"):
            raise ValueError(f"unknown spacing {spacing!r}")
        if not (math.isfinite(count) and count == int(count) >= 2):
            raise ValueError(f"count must be an integer >= 2, got {count}")
        if not 0.0 < x_min < x_max < 1.0:
            raise ValueError(f"need 0 < x_min < x_max < 1, got "
                             f"[{x_min}, {x_max}]")
        if x_max > EVAL_LIMIT:
            raise ValueError(f"x_max must not exceed {EVAL_LIMIT!r}")
        return super().__new__(cls, int(count), spacing, x_min, x_max)

    @classmethod
    def _make(cls, iterable) -> "GridSpec":
        return cls(*iterable)


def grid_points(spec: GridSpec) -> np.ndarray:
    """Strictly increasing sample array for ``spec``, inside (0, 1).

    The first point is ``x_min`` and the last ``x_max``.  Raises ValueError
    where the doubles cannot give that: the refined upper half spaces
    ``1 - x``, which rounds when ``x_max`` is small, and a narrow
    ``[x_min, x_max]`` holds fewer than ``count`` doubles.
    """
    if spec.spacing == "uniform":
        xs = np.linspace(spec.x_min, spec.x_max, spec.count)
    else:
        if spec.x_min < 0.5 < spec.x_max:
            mid = 0.5
        else:
            mid = 0.5 * (spec.x_min + spec.x_max)
        n_low = spec.count // 2
        n_high = spec.count - n_low
        low = np.geomspace(spec.x_min, mid, n_low)
        high = 1.0 - np.geomspace(1.0 - spec.x_max, 1.0 - mid, n_high, endpoint=False)
        xs = np.concatenate([low, high[::-1]])
        xs[-1] = spec.x_max  # 1 - (1 - x_max) rounds where x_max < 1/2
    if not (0.0 < xs[0] and xs[-1] < 1.0 and (xs[1:] > xs[:-1]).all()):
        raise ValueError(f"{spec} does not give {spec.count} strictly increasing "
                         "points inside (0, 1) in double precision")
    return xs


def _plain(value):
    """``value`` with every record and dict in it copied into a fresh dict,
    so that a caller may change the result and leave the report as it is."""
    if hasattr(value, "_asdict"):
        value = value._asdict()
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    return value


class VerificationReport(NamedTuple):
    verdict: str  # "holds_on_grid" | "violated"
    worst_margin: float
    witness: Witness | None
    samples: int
    parameters: dict

    def to_dict(self) -> dict:
        return _plain(self)


class TwoThirdsPowerReport(NamedTuple):
    """Both directions of the fixed-(2/3, 1/3) power comparison.

    ``classification`` is "forward_holds", "reverse_holds", or "neither",
    decided by the grid verdicts; the sharp exponent cutoffs are echoed in
    ``forward_threshold`` / ``reverse_threshold``.
    """

    p: float
    forward: VerificationReport
    reverse: VerificationReport
    classification: str
    forward_threshold: float = TWO_THIRDS_FORWARD_THRESHOLD
    reverse_threshold: float = TWO_THIRDS_REVERSE_THRESHOLD

    def to_dict(self) -> dict:
        return _plain(self)


# ----------------------------------------------------------------------
# Core grid driver.
# ----------------------------------------------------------------------

def _run_grid_check(xs: np.ndarray, sides, parameters: dict):
    """Check one or more margin sides on the grid ``xs``.

    Each side is ``(label, margins, scale, recheck)``: the margins on
    ``xs``, their rounding-error scale, read by index range (``scale(lo,
    hi)`` is an array of its entries at ``lo`` to ``hi - 1``, which is not
    written here, as :func:`meanbounds.family._log_ratio_with_scale` gives),
    and a one-argument recheck of the margin at a grid point, whose sign
    decides the candidate (the extended-precision margin, for a report).
    Negative margins beyond the noise floor ``_NOISE_C * eps * scale``
    become candidates, rechecked in order of margin over all sides
    together, ties by index (at most ``_MAX_RECHECKS``); the first
    confirmed one is the witness.  Every scale is a sum of terms >= 0, so
    no margin >= 0 lies below its floor: where none is negative no scale is
    read, and :func:`_candidates` reads the others.  Returns the report and
    the number of rechecks run.
    """
    one = len(sides) == 1  # skips the array copies on the common path
    margins = sides[0][1] if one else np.concatenate([side[1] for side in sides])
    worst = float(margins.min())
    candidates = () if worst >= 0.0 else _candidates(xs.size, sides, margins, worst)
    witness = None
    rechecks = 0
    for idx in candidates:
        label, _, _, recheck = sides[idx // xs.size]
        x = float(xs[idx % xs.size])
        confirmed = recheck(x)
        rechecks += 1
        if confirmed < 0.0:
            witness = Witness(
                x=x,
                pair=(1.0 + x, 1.0 - x),
                margin=float(margins[idx]),
                margin_recheck=confirmed,
                label=label,
            )
            break
    if witness is None:
        # Any remaining negatives sit below their noise floors (or failed the
        # recheck): indistinguishable from zero.
        worst = max(worst, 0.0)
    verdict = "holds_on_grid" if witness is None else "violated"
    return (VerificationReport(verdict, worst, witness, int(margins.size),
                               parameters), rechecks)


def _candidates(n: int, sides, margins: np.ndarray, worst: float):
    """The grid indices of the ``n``-point ``sides`` whose margin lies below
    its noise floor, in order of margin over all sides, ties by index, at
    most ``_MAX_RECHECKS``: a generator, for a check whose least margin
    ``worst`` is negative or NaN.

    Every scale is a sum of terms >= 0, so no margin >= 0 (nor a NaN one)
    lies below its floor: a side's scale is read from its first negative
    margin to its last.  The least margin comes first when it lies below its
    floor, and that floor is formed before any other, as a violated check
    usually confirms it; the other floors are formed only when a recheck
    asks past it.  64 eps is a power of two, so each floor is
    ``-(64 eps * scale)`` bit for bit.
    """
    runs = []  # (k, lo, hi): side k's first negative margin and one past its last
    for k, side in enumerate(sides):
        # The mask's bytes give both ends without a pass over a reversed view.
        neg = (side[1] < 0.0).tobytes()
        lo = neg.find(1)
        if lo >= 0:
            runs.append((k, lo, neg.rfind(1) + 1))
    if not runs:  # every margin is NaN or >= 0
        return
    # argmin and min take the lowest index among ties, as the stable sort
    # does; a NaN worst leaves the least margin to that sort.
    first = min((k * n + lo + int(sides[k][1][lo:hi].argmin()) for k, lo, hi in runs),
                key=margins.__getitem__)
    k, i = divmod(first, n)
    first_below = int(margins[first] == worst
                      and margins[first] < sides[k][2](i, i + 1)[0] * (-_NOISE_C * _EPS))
    if first_below:
        yield first
    found = []
    for k, lo, hi in runs:
        floors = np.multiply(sides[k][2](lo, hi), -_NOISE_C * _EPS)
        below = np.flatnonzero(sides[k][1][lo:hi] < floors)
        if k or lo:
            below += k * n + lo
        found.append(below)
    candidates = found[0] if len(found) == 1 else np.concatenate(found)
    if candidates.size:  # a holding report has none: skip the sort's set-up
        order = candidates[np.argsort(margins[candidates], kind="stable")]
        yield from order[first_below:_MAX_RECHECKS].tolist()


class _Grid:
    """The read-only, increasing points ``xs`` of a grid, their
    t-independent ``pieces`` and its report ``entry``, which a report
    copies.

    :attr:`logs` holds the ``ln(I/A)`` arrays of the exponential and power
    checks, built on the first such check; a family check never builds
    them.  :attr:`band` holds those of a bisection's cutoffs.
    """

    def __init__(self, xs: np.ndarray, entry: dict):
        xs.flags.writeable = False
        self.xs, self.pieces, self.entry = xs, _Pieces(xs), entry

    @cached_property
    def logs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only ``ln(I/A)``, its error scale and ``ln(1 - x^2)`` on
        the points, which depend on them alone: formed once per grid, and
        the checks' scales read them by index range."""
        lr, scale = _lr_with_error_scale(self.pieces)
        logs = (lr, scale(0, lr.size), _ln_one_minus_sq(self.xs))
        for arr in logs:
            arr.flags.writeable = False
        return logs

    @cached_property
    def band(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Read-only ``h``, ``h/x^2``, ``A/x^2`` and ``B/x^2`` on every
        ``k``-th point and the last, ``k = ceil(n / _BAND_POINTS)`` for
        ``n`` points, which :func:`_grid_cutoffs`
        reads, with ``A`` and ``B`` of :func:`_failing_bound`.  ``h/x^2``
        is the series' own quotient on the series points, which no subnormal
        ``x^2`` spoils; where ``A/x^2`` overflows, or ``x^2`` is 0, it is
        inf, and the point fails no step."""
        pieces, n = self.pieces, self.xs.size
        w = self.xs * self.xs
        ratio = np.concatenate([np.polyval(_H_SERIES[::-1], pieces.w_small),
                                pieces.h / w[pieces.direct]])
        with np.errstate(divide="ignore", over="ignore"):
            full = (ratio * w, ratio, *(bound / w for bound in _failing_bound(pieces)))
        keep = np.append(np.arange(0, n - 1, -(-n // _BAND_POINTS)), n - 1)
        band = tuple(arr[keep] for arr in full)
        for arr in band:
            arr.flags.writeable = False
        return band


@lru_cache(maxsize=1)
def _grid(spec: GridSpec) -> _Grid:
    """The :class:`_Grid` of ``spec``, kept for the last spec asked only:
    the steps of a bisection and the checks of a sweep row share one grid,
    and memory holds at most one, even at the CLI's largest."""
    return _Grid(grid_points(spec), spec._asdict())


def _family_side(params: FamilyParams, side: str, pieces: _Pieces, recheck):
    """The margin side of the family check at ``params`` on ``pieces``,
    rechecked by ``recheck``."""
    vals, scale = _log_ratio_with_scale(params, pieces)
    margins = np.negative(vals, out=vals) if side == "lower" else vals
    return ("", margins, scale, recheck)


def verify_family_inequality(
    t: float,
    s: float,
    side: str,
    grid: GridSpec | None = None,
) -> VerificationReport:
    """Check the strict mean comparison at parameters ``(t, s)`` on a grid.

    ``side="lower"`` asserts the two-parameter mean stays below the
    identric mean (log-ratio negative everywhere); ``side="upper"`` the
    reverse.  The worst margin is the signed minimum slack over the grid.
    """
    _check_side(side)
    t, s = float(t), float(s)
    g = _grid(grid or GridSpec())
    parameters = {"check": "family", "t": t, "s": s,
                  "side": side, "grid": dict(g.entry)}
    margin_side = _family_side(FamilyParams.from_t(t, s), side, g.pieces,
                               partial(_mp_family_margin, t, s, side))
    return _run_grid_check(g.xs, [margin_side], parameters)[0]


def _failing_bound(pieces: _Pieces) -> tuple[np.ndarray, np.ndarray]:
    """``(A, B)`` on the points of ``pieces``: ``T(x, s) = A + s B`` bounds
    how far below 0 the exact margin at ``x`` must lie for the grid check
    at any ``t`` to be violated.

    The check flags a point ``y`` whose computed margin lies below its floor
    ``64 eps S(y)``, ``S`` the error scale of
    :func:`meanbounds.family._log_ratio_with_scale`, and that margin lies
    within ``E(y) = eps (S(y) + 1.5 s)`` of the exact one (``1.5 s eps`` is
    the ``(s/2)``-fold rounding of ``1 - u x^2``, which ``S`` omits).  For
    every ``t``, ``S <= a + s b``, growing with ``y``: ``a = x^2 / 3`` and
    ``b = x^2`` on the series points, ``a = 8`` and ``b = -2 ln(1 - x^2)``
    on the direct ones, as ``|m2| <= (s/2) |ln(1 - x^2)|``.  With ``S`` and
    ``E`` at their bounds, ``T = 8 (64 eps S(x) + E(x) + E(xs[-1]))``, the
    factor 8 a margin of safety that also covers the rounding of the bounds.
    An exact margin at ``x`` below ``-T`` leaves the computed one below
    ``-T + E(x)``, under the floor, so ``x`` is a candidate; the least
    computed margin is no larger, so the exact one at its point lies below
    ``-T + E(x) + E(xs[-1]) < 0``, and its recheck, the first, confirms it.
    """
    w = pieces.w_small
    a = np.concatenate([w / 3.0, np.full(pieces.x_direct.size, 8.0)])
    b = np.concatenate([w, -2.0 * np.log(pieces.one_minus_sq)])
    k, floor_and_error = 8.0 * _EPS, _NOISE_C + 1.0  # 8: the margin of safety
    # 3 s: the 1.5 s of E(x) and of E(xs[-1]).
    return (k * (floor_and_error * a + a[-1]),
            k * (floor_and_error * b + (b[-1] + 3.0)))


@lru_cache(maxsize=1)
def _grid_cutoffs(s: float, spec: GridSpec) -> dict[str, tuple[float, float]]:
    """``(hold, fail)`` of each side at ``s`` on the grid of ``spec``: a
    bisection step holds where ``out (s/2) u >= hold`` and is violated where
    it is ``< fail`` (``out`` 1 for "lower", -1 for "upper").  Kept for the
    last ``(s, spec)``, which both sides of a sweep row ask.

    ``K = (s/2) F_s = (h/x^2) g(2h/s)`` with ``g(y) = -expm1(-y)/y`` lies
    in [1/8, 1/3] for every ``s >= 1``, so nothing underflows at the largest
    ``s``.  ``F_s`` increases for every ``s >= 5/9``
    (:func:`meanbounds.intervals.certify_phi`), so the exact ``K`` on the
    grid is largest at its last point and least at its first: the lower
    side holds where ``(s/2) u >= K(xs[-1]) (1 + _BAND)``, the upper side
    where ``(s/2) u <= K(xs[0]) (1 - _BAND)``.  The lower side fails where
    ``(s/2) u < K(x) (1 - _BAND) - T/x^2`` at some ``x``, ``T`` of
    :func:`_failing_bound`, which puts the exact margin at ``x`` below
    ``-T (1 - T/s)``, ``T/s < 1e-11`` within ``T``'s margin of safety; the
    upper side mirrors it.  Any grid point gives a sound failing cutoff, so
    ``K`` is formed on :attr:`_Grid.band`'s few hundred points only: a point
    left out can send a step to the grid check, never change its verdict.
    A ``T/x^2`` that overflows rounds to inf, and its point decides nothing.
    """
    h, ratio, a_w, b_w = _grid(spec).band
    y = np.multiply(h, -2.0 / s)  # -2h/s
    # g is 1 to within |y| below the least normal double: no 0/0 at underflow.
    np.minimum(y, -sys.float_info.min, out=y)
    cut = np.expm1(y)
    cut /= y
    cut *= ratio  # K
    with np.errstate(over="ignore"):
        beta = np.multiply(b_w, s, out=y)
        beta += a_w  # T/x^2
    fail_lower = float((cut * (1.0 - _BAND) - beta).max())
    fail_upper = float((cut * (1.0 + _BAND) + beta).min())
    return {"lower": (float(cut[-1]) * (1.0 + _BAND), fail_lower),
            "upper": (-(float(cut[0]) * (1.0 - _BAND)), -fail_upper)}


def _grid_verdict(params: FamilyParams, side: str, xs: np.ndarray, pieces: _Pieces) -> str:
    """The verdict of the family check at ``params`` on ``xs``, whose
    ``pieces`` it reads.

    A candidate's recheck is the margin's sign, -1.0 or 1.0, where the sign
    rule of the certificates, :func:`meanbounds.intervals._node_bounds` at
    ``[x, x]``, proves the log-ratio's sign, and the mpmath margin where it
    leaves the sign 0.
    """
    bounds = _node_bounds(params)
    flip = -1.0 if side == "lower" else 1.0

    def recheck(x: float) -> float:
        sign = bounds(x, x)[0]
        return flip * sign if sign else _mp_family_margin(params.t, params.s, side, x)

    return _run_grid_check(xs, [_family_side(params, side, pieces, recheck)], {})[0].verdict


def empirical_threshold(
    s: float,
    side: str,
    grid: GridSpec | None = None,
    tol: float = 1e-6,
) -> float:
    """Recover the sharp cutoff in ``t`` by bisection on the grid verdict.

    Bisects ``t`` over [0, 1/2] with the verdict of
    ``verify_family_inequality`` as the predicate, for ``s >= 1`` (the
    messages of ``sharp_thresholds`` otherwise).  With ``u = (1 - 2t)^2``
    and ``F_s(x) = -expm1(-2h/s) / x^2``, ``h = ln(A/I)``, the log-ratio is
    ``(s/2) ln((1 - u x^2) / (1 - F_s(x) x^2))``: the exact lower margin at
    ``x`` is > 0 iff ``u > F_s(x)``, the upper one iff ``u < F_s(x)``, and
    ``F_s`` increases (:func:`meanbounds.intervals.certify_phi`).  So a
    step whose ``u`` clears ``F_s`` at the grid's far end, and with it every
    ``F_s`` on the grid, by the rounding band
    ``_BAND`` holds, as a correct recheck drops every candidate, and a step
    whose ``u`` lies ``2T(x, s) / (s x^2)`` beyond one ``F_s(x)`` on the
    failing side is violated, as its exact margin at ``x`` lies below
    ``-T`` (:func:`_failing_bound`); :func:`_grid_cutoffs` compares both on
    ``(s/2) u``.  Each decided step thus gets the grid check's own verdict,
    whenever that verdict is correct, provided libm's ``log1p`` and
    ``expm1`` are within ``_LIBM_ULPS`` ulps, the kernel's allowance for its
    logarithms, so the threshold is the same double.  A step inside the
    band runs the grid check, :func:`_grid_verdict`, on the shared grid and
    its t-independent pieces, which rechecks candidates by interval
    enclosure, with mpmath only where the enclosure cannot decide.  The
    result carries a one-sided bias of the order of the grid's endpoint
    resolution (far below ``tol`` for the default grid).
    """
    _check_side(side)
    s = _checked_s(s)
    tol = float(tol)
    if not 1e-8 <= tol < math.inf:
        raise ValueError(f"tol must be finite and >= 1e-8, got {tol}")

    spec = grid or GridSpec()
    g = _grid(spec)
    hold, fail = _grid_cutoffs(s, spec)[side]
    # out (s/2) u grows where the side holds: on [0, p] for "lower", on
    # [q, 1/2] for "upper".
    scale = (0.5 if side == "lower" else -0.5) * s
    lo, hi = 0.0, 0.5
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        one_minus_2t = 1.0 - 2.0 * mid
        v = one_minus_2t * one_minus_2t * scale  # FamilyParams.from_t's u
        holds = v >= hold or v >= fail and _grid_verdict(
            FamilyParams.from_t(mid, s), side, g.xs, g.pieces) == "holds_on_grid"
        # A verdict that agrees with the side puts mid left of the cutoff.
        lo, hi = (mid, hi) if holds == (side == "lower") else (lo, mid)
    return 0.5 * (lo + hi)


def verify_exponential_bounds(
    p_coef: float,
    q_coef: float,
    grid: GridSpec | None = None,
) -> VerificationReport:
    """Check ``exp(p v^2) < A/I < exp(q v^2)`` on a grid.

    Sharp exactly when ``p_coef <= 1/6`` and ``q_coef >= 1 - ln 2``.  The
    report covers both sides at once; a witness's ``label`` says which
    side failed.
    """
    p_coef, q_coef = float(p_coef), float(q_coef)
    if not (0.0 < p_coef < math.inf and 0.0 < q_coef < math.inf):
        raise ValueError(f"both coefficients must be finite and > 0, got "
                         f"({p_coef}, {q_coef})")
    g = _grid(grid or GridSpec())
    lr, scale_lr, _ = g.logs

    def read_lr(lo: int, hi: int) -> np.ndarray:
        return scale_lr[lo:hi]

    g_p, scale_p = _exp_bound_margin_with_scale(p_coef, lr, read_lr, g.xs)
    g_q, scale_q = _exp_bound_margin_with_scale(q_coef, lr, read_lr, g.xs)
    parameters = {"check": "exponential_bounds", "p_coef": p_coef,
                  "q_coef": q_coef, "grid": dict(g.entry)}
    sides = [("lower", g_p, scale_p, lambda x: _mp_exp_margin(p_coef, "lower", x)),
             ("upper", -g_q, scale_q, lambda x: _mp_exp_margin(q_coef, "upper", x))]
    return _run_grid_check(g.xs, sides, parameters)[0]


def _ln_one_minus_sq(xs: np.ndarray) -> np.ndarray:
    """``ln(1 - x^2) = 2 ln(G/A)`` on the increasing grid ``xs``.

    Below 1/2 as ``log1p(-x^2)``, which keeps a few-ulp relative error down
    to the smallest ``x`` (``1 - x^2`` rounds to 1 below ``x ~ 1e-8``); from
    1/2 on as the log of ``(1 - x)(1 + x)``, whose ``1 - x`` is exact there
    (Sterbenz) while ``x^2`` would lose the digits of ``1 - x^2`` near 1.
    """
    k = int(xs.searchsorted(0.5))
    small, large = xs[:k], xs[k:]
    return np.concatenate([np.log1p(-(small * small)),
                           np.log((1.0 - large) * (1.0 + large))])


def _power_sides(p: float, alpha: float, logs: tuple, sides) -> list:
    """The ``sides`` of the power comparison from one margin evaluation on
    a grid's :attr:`_Grid.logs`."""
    lr, scale_lr, ln_sq = logs      # ln_sq = 2 ln(G/A)
    t_i = np.expm1(p * lr)          # I^p/A^p - 1, fully cancellation-free
    # |ln_sq| <= 27 up to EVAL_LIMIT, so only p > 1e306 can overflow the
    # product, to -inf, where expm1 gives -1: the rounded value.
    with _overflow_rounds(p > 1e306):
        t_g = np.expm1((0.5 * p) * ln_sq)  # G^p/A^p - 1
    weighted_g = (1.0 - alpha) * t_g
    lower = t_i - weighted_g

    whole = None

    def scale(lo: int, hi: int) -> np.ndarray:
        # Formed whole on the first read, as on a small grid a read of part
        # of it costs about as much, and shared by the two sides that
        # verify_two_thirds_power checks.  An error e in a log argument moves its expm1 term by
        # exp(arg) e = (1 + t) e, a slope <= 1, taken before the factor p;
        # the expm1 terms add their own ulps.  At p near the top of the
        # double range, 1 + t is 0 wherever p |arg| is large, so the scale
        # stays finite.
        nonlocal whole
        if whole is None:
            whole = (np.abs(t_i) + np.abs(weighted_g)
                     + p * ((1.0 + t_i) * scale_lr)
                     + p * ((1.0 - alpha) * (1.0 + t_g) * (1.5 * np.abs(ln_sq) + 1.0)))
        return whole[lo:hi]

    return [("", lower if side == "lower" else -lower, scale,
             partial(_mp_power_margin, p, alpha, side)) for side in sides]


def verify_convex_power_bound(
    p_exp: float,
    alpha: float,
    side: str,
    grid: GridSpec | None = None,
) -> VerificationReport:
    """Check ``alpha*A^p + (1-alpha)*G^p`` against ``I^p`` on a grid.

    ``side="lower"`` asserts the convex combination stays strictly below
    ``I^p``; ``side="upper"`` strictly above.  The sharp constants are
    ``alpha <= 2/3`` and ``beta >= 2/e`` at ``p = 1``, and
    ``alpha <= (2/e)^p`` and ``beta >= 2/3`` for ``p >= 2``.
    """
    _check_side(side)
    p_exp, alpha = float(p_exp), float(alpha)
    if not 1.0 <= p_exp < math.inf:
        raise ValueError(f"p_exp must be finite and >= 1, got {p_exp}")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    g = _grid(grid or GridSpec())
    parameters = {"check": "convex_power", "p_exp": p_exp, "alpha": alpha,
                  "side": side, "grid": dict(g.entry)}
    return _run_grid_check(g.xs, _power_sides(p_exp, alpha, g.logs, (side,)), parameters)[0]


def verify_two_thirds_power(p_exp: float, grid: GridSpec | None = None) -> TwoThirdsPowerReport:
    """Grid check of ``I^p`` against ``(2/3)A^p + (1/3)G^p``, both directions.

    The forward inequality (``I^p`` below) holds for all pairs iff
    ``p >= ln(3/2)/ln(e/2)``; the reverse holds iff ``p <= 6/5``; strictly
    between the two cutoffs both directions fail somewhere.
    """
    p_exp = float(p_exp)
    if not 0.0 < p_exp < math.inf:
        raise ValueError(f"p_exp must be finite and > 0, got {p_exp}")
    g = _grid(grid or GridSpec())
    sides = _power_sides(p_exp, 2.0 / 3.0, g.logs, ("upper", "lower"))
    reports = {}
    for direction, side in zip(("forward", "reverse"), sides):
        parameters = {"check": "two_thirds_power", "p_exp": p_exp,
                      "direction": direction, "grid": dict(g.entry)}
        reports[direction] = _run_grid_check(g.xs, [side], parameters)[0]
    fwd_ok = reports["forward"].verdict == "holds_on_grid"
    rev_ok = reports["reverse"].verdict == "holds_on_grid"
    if fwd_ok and not rev_ok:
        classification = "forward_holds"
    elif rev_ok and not fwd_ok:
        classification = "reverse_holds"
    else:
        classification = "neither"
    return TwoThirdsPowerReport(p=p_exp, forward=reports["forward"],
                     reverse=reports["reverse"], classification=classification)
