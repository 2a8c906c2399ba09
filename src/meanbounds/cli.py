"""Command-line front end.

Subcommands: ``eval`` (means for a pair), ``thresholds`` (closed-form
cutoffs), ``verify`` / ``falsify`` (grid checks of the mean comparison),
``sweep`` (CSV survey over a range of s) and ``certify`` (the sharpness
checks around the cutoffs of one s).

Exit codes are a stable contract: 0 means the checked inequality holds
(or the command is informational), 1 means violated / witness search
exhausted, 2 means usage or domain error or an unwritable ``--out``, and
141 (``EXIT_BROKEN_PIPE``) means stdout was closed before all of the
output was written, as by ``| head``.  Each
command computes its result and :func:`_render` alone turns it into text
for ``--format``.  Output files are written once, after all computation,
so invalid input never leaves a partial file.
"""

from __future__ import annotations

import argparse
import importlib
import math
import os
import re
import sys
from pathlib import Path

from . import __version__
from .thresholds import exponential_bound_constants, sharp_thresholds

# Names bound as module globals on first use, by module __getattr__ or by
# _load in the commands that call them: ``thresholds`` then loads neither
# numpy nor mpmath, and ``falsify`` no numpy.  Being globals, they stay
# patchable from outside.
_LAZY = {
    "means": ("PositivePair", "arithmetic_mean", "gap", "geometric_mean",
              "harmonic_mean", "identric_mean", "q_mean"),
    "verify": ("GridSpec", "certificate_succeeded", "certify_sign",
               "empirical_threshold", "verify_family_inequality"),
    "witness": ("falsify",),
}


def _load(module: str) -> None:
    """Bind the names of ``module`` in _LAZY that are not bound yet."""
    source = importlib.import_module(f".{module}", __package__)
    for name in _LAZY[module]:
        globals().setdefault(name, getattr(source, name))


def __getattr__(name: str):
    for module, names in _LAZY.items():
        if name in names:
            _load(module)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


GRID_ENV_VAR = "MEANBOUNDS_GRID"

# 128 + SIGPIPE: what a shell reports for a process that signal ended.
EXIT_BROKEN_PIPE = 141

# Work is bounded before it starts: a sweep runs about 6,600 to 7,100 rows/s
# on the default grid for s in [1, 50] (2 cores, 4,901 rows in process), so
# the row limit is under 2 s, and 1M grid points take about 0.05 s for the
# first check and 0.01 s for each later check on the same grid.
_MAX_SWEEP_ROWS = 10_000
_MAX_GRID = 10_000_000

_VERIFY_COLUMNS = ("check", "side", "t", "s", "verdict", "worst_margin",
                   "witness_x", "samples")
_SWEEP_COLUMNS = ("s", "p_closed", "q_closed", "p_empirical", "q_empirical",
                  "lower_margin_at_p", "upper_margin_at_q")
_CERTIFY_COLUMNS = ("check", "t", "result", "margin", "x", "nodes")
_CERTIFY_PASSES = ("holds_on_grid", "found", "proved_negative")

_CLOSED_FORMS = {
    1.0: ("(1 - sqrt(1 - 4/e^2))/2", "(3 - sqrt(3))/6"),
    2.0: ("(1 - sqrt(1 - 2/e))/2", "(6 - sqrt(6))/12"),
}


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


class _Parser(argparse.ArgumentParser):
    """An argument parser that reads every negative float, ``-1e5``,
    ``-inf`` and ``-nan`` included, and every ``sweep`` range that starts
    with one, ``-5:10:1``, as a value, not as an option.

    argparse takes a token that starts with ``-`` for a value only where
    its pattern of negative numbers matches, which in Python 3.11 covers
    integers and plain decimals alone; this one matches what :func:`float`
    reads.  No option of the CLI looks like a number.  The subcommands'
    parsers are of this class too.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER


# A negative float, or a START:STOP:STEP range whose START is one.
_NEGATIVE_NUMBER = re.compile(
    r"^-(?:(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?|inf(?:inity)?|nan)(?::.*)?$", re.IGNORECASE)


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
    parser = _Parser(
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

    p_thr = sub.add_parser("thresholds",
                           help="closed-form sharp cutoffs for a given s")
    p_thr.add_argument("s", type=float)

    p_ver = sub.add_parser("verify",
                           help="grid-check the mean comparison at (t, s)")
    p_ver.add_argument("--s", type=float, required=True)
    p_ver.add_argument("--t", type=float, required=True)
    p_ver.add_argument("--side", choices=("lower", "upper"), required=True)
    _add_grid_args(p_ver)

    p_fal = sub.add_parser("falsify",
                           help="search for a counterexample gap at (t, s)")
    p_fal.add_argument("--s", type=float, required=True)
    p_fal.add_argument("--t", type=float, required=True)
    p_fal.add_argument("--side", choices=("lower", "upper"), required=True)

    p_sw = sub.add_parser("sweep",
                          help="CSV survey of thresholds over a range of s")
    p_sw.add_argument("--s", required=True, metavar="START:STOP:STEP",
                      help="inclusive range of s values, e.g. 1:10:0.5")
    p_sw.add_argument("--tol", type=float, default=1e-6,
                      help="bisection tolerance for empirical thresholds")
    _add_grid_args(p_sw)

    p_cert = sub.add_parser("certify",
                            help="sharpness checks around the cutoffs of s")
    p_cert.add_argument("--s", type=float, required=True)
    for command in sub.choices.values():
        command.add_argument("--format", choices=("human", "csv", "structured"),
                             default="human", help="output format")
        command.add_argument("--out", metavar="PATH",
                             help="write the output to PATH instead of stdout")
    return parser


def _grid_from_args(args: argparse.Namespace) -> GridSpec:
    count = args.grid
    if count is None:
        env = os.environ.get(GRID_ENV_VAR) or "10000"  # an empty value means unset
        try:
            count = int(env)
        except ValueError:
            raise ValueError(f"{GRID_ENV_VAR} must be an integer, got {env!r}") from None
    if count > _MAX_GRID:
        raise ValueError(f"grid of {count} points is above the limit of "
                         f"{_MAX_GRID}")
    spacing = "endpoint_refined" if args.refined else "uniform"
    return GridSpec(count=count, spacing=spacing)


def _cell(value) -> str:
    if isinstance(value, float):
        return _fmt(value)
    return "" if value is None else str(value)


def _render(fmt: str, payload: dict, human, table=None) -> str:
    """One command result as text in the output format ``fmt``.

    ``structured`` is ``payload`` plus the tool version as JSON and refuses
    non-finite values (ValueError); ``csv`` is ``table``, a header and its
    rows, or the human text when there is no table; ``human`` is the lines
    of ``human``, or the csv when ``human`` is None.
    """
    if fmt == "structured":
        import json  # only here: the other formats do without it

        return json.dumps({**payload, "tool_version": __version__},
                          indent=2, sort_keys=True, allow_nan=False)
    if table is not None and (fmt == "csv" or human is None):
        header, rows = table
        return "\n".join([",".join(header)]
                         + [",".join(_cell(v) for v in row) for row in rows])
    return "\n".join(human)


def _cmd_eval(args):
    _load("means")
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
    human = [f"pair: a = {_fmt(pair.a)}  b = {_fmt(pair.b)}",
             f"gap v = {_fmt(values['gap'])}",
             f"arithmetic A = {_fmt(values['arithmetic'])}",
             f"geometric  G = {_fmt(values['geometric'])}",
             f"harmonic   H = {_fmt(values['harmonic'])}",
             f"identric   I = {_fmt(values['identric'])}"]
    if args.t is not None:
        values["t"] = args.t
        values["s"] = args.s
        values["q_mean"] = q_mean(pair, args.t, args.s)
        human.append(f"q_mean     Q(t={_fmt(args.t)}, s={_fmt(args.s)}) "
                     f"= {_fmt(values['q_mean'])}")
    return 0, values, human, (list(values), [list(values.values())])


def _cmd_thresholds(args):
    ts = sharp_thresholds(args.s)
    const = exponential_bound_constants()
    payload = {"s": ts.s, "p": ts.p, "q": ts.q,
               "exp_bound_lower": const.lower, "exp_bound_upper": const.upper}
    human = [f"s = {_fmt(ts.s)}",
             f"p = {_fmt(ts.p)}   (lower-side cutoff: closed form, rounded to a double)",
             f"q = {_fmt(ts.q)}   (upper-side cutoff: closed form, rounded to a double)"]
    closed = _CLOSED_FORMS.get(float(args.s))
    if closed:
        payload["p_closed_form"], payload["q_closed_form"] = closed
        human.append(f"closed forms: p = {closed[0]},  q = {closed[1]}")
    human.append(f"exponential-bound constants: lower = 1/6, "
                 f"upper = 1 - ln 2 = {_fmt(const.upper)}")
    return 0, payload, human, (["s", "p", "q"], [[ts.s, ts.p, ts.q]])


def _witness_line(w) -> str:
    return (f"witness: x = {_fmt(w.x)}  "
            f"pair = ({_fmt(w.pair[0])}, {_fmt(w.pair[1])})")


def _cmd_verify(args):
    _load("verify")
    report = verify_family_inequality(args.t, args.s, args.side,
                                      _grid_from_args(args))
    w, params = report.witness, report.parameters
    human = [f"verdict: {report.verdict}",
             f"worst margin: {_fmt(report.worst_margin)}",
             f"samples: {report.samples}"]
    if w:
        human += [_witness_line(w),
                  f"witness margin: {_fmt(w.margin)}  "
                  f"recheck: {_fmt(w.margin_recheck)}"]
    row = [params["check"], params["side"], params["t"], params["s"],
           report.verdict, report.worst_margin, w and w.x, report.samples]
    code = 0 if report.verdict == "holds_on_grid" else 1
    return code, report.to_dict(), human, (_VERIFY_COLUMNS, [row])


def _cmd_falsify(args):
    _load("witness")
    result = falsify(args.t, args.s, args.side)
    payload = {"found": result.found, "attempts": result.attempts,
               "note": result.note}
    w = result.witness
    if w:
        payload["witness"] = {"x": w.x, "pair": list(w.pair),
                              "margin": w.margin,
                              "margin_recheck": w.margin_recheck}
        human = [_witness_line(w), f"margin: {_fmt(w.margin)}  "
                                   f"recheck: {_fmt(w.margin_recheck)}"]
    else:
        human = [f"not found after {result.attempts} attempts: {result.note}"]
    return (0 if result.found else 1), payload, human


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


def _cmd_sweep(args):
    _load("verify")
    grid = _grid_from_args(args)
    rows = []
    for s in _parse_range(args.s):
        ts = sharp_thresholds(s)
        p_emp = empirical_threshold(s, "lower", grid, args.tol)
        q_emp = empirical_threshold(s, "upper", grid, args.tol)
        low = verify_family_inequality(ts.p, s, "lower", grid)
        upp = verify_family_inequality(ts.q, s, "upper", grid)
        rows.append([s, ts.p, ts.q, p_emp, q_emp,
                     low.worst_margin, upp.worst_margin])
    payload = {"rows": [dict(zip(_SWEEP_COLUMNS, row)) for row in rows]}
    return 0, payload, None, (_SWEEP_COLUMNS, rows)


def _cmd_certify(args):
    ts = sharp_thresholds(args.s)
    s, p, q = ts.s, ts.p, ts.q
    if p + 1e-3 > 0.5:
        raise ValueError(f"s = {_fmt(s)} is too large: p + 1e-3 lies above 1/2")
    _load("verify")
    _load("witness")
    # The grid holds at the cutoffs, a witness exists 1e-3 outside them and
    # the sign is proved 0.01 inside p: one row per check.
    rows = []
    for name, t, side in (("verify_at_p", p, "lower"),
                          ("verify_at_q", q, "upper")):
        report = verify_family_inequality(t, s, side)
        w = report.witness
        rows.append([name, t, report.verdict, report.worst_margin, w and w.x,
                     None])
    for name, t, side in (("falsify_above_p", p + 1e-3, "lower"),
                          ("falsify_below_q", q - 1e-3, "upper")):
        w = falsify(t, s, side).witness
        rows.append([name, t, "found" if w else "not_found",
                     w and w.margin_recheck, w and w.x, None])
    nodes = certify_sign(p - 0.01, s, 0.01, 0.99, "negative")
    rows.append(["certify_below_p", p - 0.01,
                 "proved_negative" if certificate_succeeded(nodes, "negative")
                 else "not_proved", None, None, len(nodes)])
    passed = all(row[2] in _CERTIFY_PASSES for row in rows)
    payload = {"s": s, "p": p, "q": q, "passed": passed,
               "rows": [dict(zip(_CERTIFY_COLUMNS, row)) for row in rows]}
    return (0 if passed else 1), payload, None, (_CERTIFY_COLUMNS, rows)


# Each command returns its exit code followed by the arguments of _render
# after the format: the payload, the human lines and, if any, the csv table.
_DISPATCH = {
    "eval": _cmd_eval,
    "thresholds": _cmd_thresholds,
    "verify": _cmd_verify,
    "falsify": _cmd_falsify,
    "sweep": _cmd_sweep,
    "certify": _cmd_certify,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, *result = _DISPATCH[args.command](args)
        text = _render(args.format, *result)
        if args.out:
            try:
                Path(args.out).write_text(text + "\n", encoding="utf-8")
            except OSError as exc:
                raise ValueError(f"cannot write {args.out}: {exc.strerror}") from exc
        else:
            print(text)
        return code
    except ValueError as exc:
        print(f"meanbounds {args.command}: error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    try:
        code = main()
        sys.stdout.flush()  # a closed pipe raises here rather than at exit
    except BrokenPipeError:
        # Python flushes stdout again at exit; pointed at devnull, that
        # flush is silent.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    raise SystemExit(code)
