"""Command-line front end.

Subcommands: ``eval`` (means for a pair), ``thresholds`` (closed-form
cutoffs), ``verify`` / ``falsify`` (grid checks of the mean comparison),
and ``sweep`` (CSV survey over a range of s).

Exit codes are a stable contract: 0 means the checked inequality holds
(or the command is informational), 1 means violated / witness search
exhausted, 2 means usage or domain error.  Output files are written once,
after all computation, so invalid input never leaves a partial file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from . import __version__
from .means import (
    PositivePair,
    arithmetic_mean,
    gap,
    geometric_mean,
    harmonic_mean,
    identric_mean,
    q_mean,
)
from .thresholds import exponential_bound_constants, sharp_thresholds
from .verify import (
    GridSpec,
    empirical_threshold,
    falsify,
    verify_family_inequality,
)

GRID_ENV_VAR = "MEANBOUNDS_GRID"

# Work is bounded before it starts: a sweep runs about 25 rows/s, so the row
# limit is about 7 minutes, and 1M grid points take about 0.12 s per check.
_MAX_SWEEP_ROWS = 10_000
_MAX_GRID = 10_000_000

_CLOSED_FORMS = {
    1.0: ("(1 - sqrt(1 - 4/e^2))/2", "(3 - sqrt(3))/6"),
    2.0: ("(1 - sqrt(1 - 2/e))/2", "(6 - sqrt(6))/12"),
}


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _add_output_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("human", "csv", "structured"),
                        default="human", help="output format")
    parser.add_argument("--out", metavar="PATH",
                        help="write the output to PATH instead of stdout")


def _add_grid_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--grid", type=int, metavar="N",
                        help=f"grid point count (default: ${GRID_ENV_VAR} "
                             "or 10000)")
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--refined", dest="refined", action="store_true",
                       default=True,
                       help="endpoint-refined grid (default)")
    group.add_argument("--uniform", dest="refined", action="store_false",
                       help="uniform grid")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="meanbounds",
        description="Bivariate means, sharp comparison thresholds, and "
                    "grid verification of the related inequalities.")
    parser.add_argument("--version", action="version",
                        version=f"meanbounds {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate all means for a pair")
    p_eval.add_argument("a", type=float)
    p_eval.add_argument("b", type=float)
    p_eval.add_argument("--t", type=float,
                        help="weight in [0, 1/2] for the two-parameter mean")
    p_eval.add_argument("--s", type=float,
                        help="exponent >= 1 for the two-parameter mean")
    _add_output_args(p_eval)

    p_thr = sub.add_parser("thresholds",
                           help="closed-form sharp cutoffs for a given s")
    p_thr.add_argument("s", type=float)
    _add_output_args(p_thr)

    p_ver = sub.add_parser("verify",
                           help="grid-check the mean comparison at (t, s)")
    p_ver.add_argument("--s", type=float, required=True)
    p_ver.add_argument("--t", type=float, required=True)
    p_ver.add_argument("--side", choices=("lower", "upper"), required=True)
    _add_grid_args(p_ver)
    _add_output_args(p_ver)

    p_fal = sub.add_parser("falsify",
                           help="search for a counterexample gap at (t, s)")
    p_fal.add_argument("--s", type=float, required=True)
    p_fal.add_argument("--t", type=float, required=True)
    p_fal.add_argument("--side", choices=("lower", "upper"), required=True)
    _add_output_args(p_fal)

    p_sw = sub.add_parser("sweep",
                          help="CSV survey of thresholds over a range of s")
    p_sw.add_argument("--s", required=True, metavar="START:STOP:STEP",
                      help="inclusive range of s values, e.g. 1:10:0.5")
    p_sw.add_argument("--tol", type=float, default=1e-6,
                      help="bisection tolerance for empirical thresholds")
    _add_grid_args(p_sw)
    _add_output_args(p_sw)
    return parser


def _grid_from_args(args: argparse.Namespace) -> GridSpec:
    if args.grid is not None:
        count = args.grid
    else:
        count = int(os.environ.get(GRID_ENV_VAR, "10000"))
    if count > _MAX_GRID:
        raise ValueError(f"grid of {count} points is above the limit of "
                         f"{_MAX_GRID}")
    spacing = "endpoint_refined" if args.refined else "uniform"
    return GridSpec(count=count, spacing=spacing)


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def _cmd_eval(args) -> int:
    if (args.t is None) != (args.s is None):
        raise ValueError("--t and --s must be given together")
    pair = PositivePair(args.a, args.b)
    values = {
        "a": pair.a,
        "b": pair.b,
        "gap": gap(pair),
        "arithmetic": arithmetic_mean(pair),
        "geometric": geometric_mean(pair),
        "harmonic": harmonic_mean(pair),
        "identric": identric_mean(pair),
    }
    if args.t is not None:
        values["t"] = args.t
        values["s"] = args.s
        values["q_mean"] = q_mean(pair, args.t, args.s)
    if args.format == "structured":
        text = json.dumps({**values, "tool_version": __version__},
                          indent=2, sort_keys=True)
    elif args.format == "csv":
        keys = list(values)
        text = ",".join(keys) + "\n" + ",".join(_fmt(values[k]) for k in keys)
    else:
        lines = [f"pair: a = {_fmt(pair.a)}  b = {_fmt(pair.b)}",
                 f"gap v = {_fmt(values['gap'])}",
                 f"arithmetic A = {_fmt(values['arithmetic'])}",
                 f"geometric  G = {_fmt(values['geometric'])}",
                 f"harmonic   H = {_fmt(values['harmonic'])}",
                 f"identric   I = {_fmt(values['identric'])}"]
        if "q_mean" in values:
            lines.append(f"q_mean     Q(t={_fmt(args.t)}, s={_fmt(args.s)}) "
                         f"= {_fmt(values['q_mean'])}")
        text = "\n".join(lines)
    _emit(text, args.out)
    return 0


def _cmd_thresholds(args) -> int:
    ts = sharp_thresholds(args.s)
    const = exponential_bound_constants()
    closed = _CLOSED_FORMS.get(float(args.s))
    if args.format == "structured":
        payload = {"s": ts.s, "p": ts.p, "q": ts.q,
                   "exp_bound_lower": const.lower,
                   "exp_bound_upper": const.upper,
                   "tool_version": __version__}
        if closed:
            payload["p_closed_form"], payload["q_closed_form"] = closed
        text = json.dumps(payload, indent=2, sort_keys=True)
    elif args.format == "csv":
        text = ("s,p,q\n"
                f"{_fmt(ts.s)},{_fmt(ts.p)},{_fmt(ts.q)}")
    else:
        lines = [f"s = {_fmt(ts.s)}",
                 f"p = {_fmt(ts.p)}   (largest t with the mean below identric)",
                 f"q = {_fmt(ts.q)}   (smallest t with the mean above identric)"]
        if closed:
            lines.append(f"closed forms: p = {closed[0]},  q = {closed[1]}")
        lines.append(f"exponential-bound constants: lower = 1/6, "
                     f"upper = 1 - ln 2 = {_fmt(const.upper)}")
        text = "\n".join(lines)
    _emit(text, args.out)
    return 0


def _report_text(report, fmt: str) -> str:
    if fmt == "structured":
        return json.dumps({**report.to_dict(), "tool_version": __version__},
                          indent=2, sort_keys=True)
    if fmt == "csv":
        w = report.witness
        head = "check,side,t,s,verdict,worst_margin,witness_x,samples"
        params = report.parameters
        row = ",".join([
            params.get("check", ""),
            str(params.get("side", "")),
            _fmt(params["t"]) if "t" in params else "",
            _fmt(params["s"]) if "s" in params else "",
            report.verdict,
            _fmt(report.worst_margin),
            _fmt(w.x) if w else "",
            str(report.samples),
        ])
        return head + "\n" + row
    lines = [f"verdict: {report.verdict}",
             f"worst margin: {_fmt(report.worst_margin)}",
             f"samples: {report.samples}"]
    if report.witness:
        w = report.witness
        lines.append(f"witness: x = {_fmt(w.x)}  pair = ({_fmt(w.pair[0])}, "
                     f"{_fmt(w.pair[1])})")
        lines.append(f"witness margin: {_fmt(w.margin)}  "
                     f"recheck: {_fmt(w.margin_recheck)}")
    return "\n".join(lines)


def _cmd_verify(args) -> int:
    report = verify_family_inequality(args.t, args.s, args.side,
                                      _grid_from_args(args))
    _emit(_report_text(report, args.format), args.out)
    return 0 if report.verdict == "holds_on_grid" else 1


def _cmd_falsify(args) -> int:
    result = falsify(args.t, args.s, args.side)
    if args.format == "structured":
        payload = {"found": result.found, "attempts": result.attempts,
                   "note": result.note, "tool_version": __version__}
        if result.witness:
            w = result.witness
            payload["witness"] = {"x": w.x, "pair": list(w.pair),
                                  "margin": w.margin,
                                  "margin_recheck": w.margin_recheck}
        text = json.dumps(payload, indent=2, sort_keys=True)
    else:
        if result.found:
            w = result.witness
            text = (f"witness: x = {_fmt(w.x)}  pair = ({_fmt(w.pair[0])}, "
                    f"{_fmt(w.pair[1])})\n"
                    f"margin: {_fmt(w.margin)}  recheck: "
                    f"{_fmt(w.margin_recheck)}")
        else:
            text = f"not found after {result.attempts} attempts: {result.note}"
    _emit(text, args.out)
    return 0 if result.found else 1


def _parse_range(spec: str) -> list[float]:
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"range must look like START:STOP:STEP, got {spec!r}")
    start, stop, step = (float(p) for p in parts)
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise ValueError(f"bad range {spec!r}: START, STOP and STEP must be "
                         "finite")
    if step <= 0.0 or stop < start:
        raise ValueError(f"bad range {spec!r}: need step > 0 and stop >= start")
    rows = (stop - start) / step + 1e-9
    if not rows < _MAX_SWEEP_ROWS:
        raise ValueError(f"range {spec!r} has more than {_MAX_SWEEP_ROWS} rows")
    return [start + i * step for i in range(int(math.floor(rows)) + 1)]


def _cmd_sweep(args) -> int:
    grid = _grid_from_args(args)
    header = ("s,p_closed,q_closed,p_empirical,q_empirical,"
              "lower_margin_at_p,upper_margin_at_q")
    rows = []
    for s in _parse_range(args.s):
        ts = sharp_thresholds(s)
        p_emp = empirical_threshold(s, "lower", grid, args.tol)
        q_emp = empirical_threshold(s, "upper", grid, args.tol)
        low = verify_family_inequality(ts.p, s, "lower", grid)
        upp = verify_family_inequality(ts.q, s, "upper", grid)
        rows.append({
            "s": s, "p_closed": ts.p, "q_closed": ts.q,
            "p_empirical": p_emp, "q_empirical": q_emp,
            "lower_margin_at_p": low.worst_margin,
            "upper_margin_at_q": upp.worst_margin,
        })
    if args.format == "structured":
        text = json.dumps({"rows": rows, "tool_version": __version__},
                          indent=2, sort_keys=True)
    else:
        keys = header.split(",")
        lines = [header]
        lines += [",".join(_fmt(row[k]) for k in keys) for row in rows]
        text = "\n".join(lines)
    _emit(text, args.out)
    return 0


_DISPATCH = {
    "eval": _cmd_eval,
    "thresholds": _cmd_thresholds,
    "verify": _cmd_verify,
    "falsify": _cmd_falsify,
    "sweep": _cmd_sweep,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except ValueError as exc:
        print(f"meanbounds {args.command}: error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    raise SystemExit(main())
