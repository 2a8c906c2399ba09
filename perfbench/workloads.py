"""Seeded inputs, timed operations and output checks for each workload.

A workload turns a seed into an unending, deterministic sequence of
*rounds*.  A round is a short fixed mix of operation kinds whose parameters
are drawn from the seed, shuffled.  A run always executes whole rounds, so
every run sees the same mix of kinds whatever its length, and two seeds
differ only in where inside each kind's range the parameters fall.

Every op's output is checked against what it must be.  A check returns
``OK``, ``FAILED`` (the op did not deliver what it was asked for but made no
false claim, e.g. a certificate left inconclusive), ``KNOWN`` (the x -> 0
certificate left inconclusive: a known limit of the certifier, reported on
its own and not as a failure) or ``WRONG`` (the output contradicts the
mathematics or the library, or the op raised).

Library functions are always looked up as module attributes at call time
(``V.verify_family_inequality``), so the tracer's wrappers see the calls.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import subprocess
import time
from array import array
from dataclasses import dataclass, field

import meanbounds.means as M
import meanbounds.thresholds as T
import meanbounds.verify as V

import pace

OK, FAILED, KNOWN, WRONG = "ok", "failed", "known_limit", "wrong"

SMALL_GRID = V.GridSpec(count=512)
SWEEP_TOL = 1e-6
# Endpoint-resolution bias of the default 10k refined grid on a recovered
# cutoff.  Bisection itself lands within tol/2 of the grid's own cutoff.
GRID_BIAS = 5e-7
X0_BUDGET = 20_000
CLI_TIMEOUT_S = 60.0

# Input generation binds the closed-form cutoffs here, at import, so that a
# traced run counts only the calls that ops make.
_cutoffs = T.sharp_thresholds

_LN2 = math.log(2.0)
_EXP_LOWER = 1.0 / 6.0          # exp(c v^2) <= A/I  iff  c <= 1/6
_EXP_UPPER = 1.0 - _LN2         # A/I <= exp(c v^2)  iff  c >= 1 - ln 2


@dataclass(frozen=True)
class Op:
    """One unit of work: ``kind`` selects the call, ``args`` its inputs and
    ``expect`` what the check requires of the output."""

    kind: str
    args: tuple
    expect: object = None


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _strata(rng: random.Random, lo: float, hi: float, k: int) -> list[float]:
    """One log-uniform draw inside each of ``k`` equal log-width bins."""
    a, b = math.log(lo), math.log(hi)
    return [math.exp(a + (b - a) * (i + rng.random()) / k) for i in range(k)]


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _lattice(phase: float, index: int, lo: float, hi: float, k: int) -> list[float]:
    """Two log-scale points in each of ``k`` equal bins, for round ``index``.

    The position inside the bins follows the golden-ratio sequence from the
    seed's ``phase``, so the rounds of any run cover each bin evenly, and
    the second point mirrors the first about the bin's centre.  An op whose
    cost falls steadily with the draw then costs about the same per round,
    and its percentiles over a run hardly depend on the seed.
    """
    a, b = math.log(lo), math.log(hi)
    u = (phase + index * _GOLDEN) % 1.0
    return [math.exp(a + (b - a) * (i + v) / k) for i in range(k) for v in (u, 1.0 - u)]


# ----------------------------------------------------------------------
# cli_corpus: one ``python -m meanbounds ...`` child per op.
# ----------------------------------------------------------------------

def _fmt(x: float) -> str:
    return repr(float(x))


def _parse_human_witness(line: str) -> float:
    # "witness: x = X  pair = (A, B)"
    return float(line.split()[3])


class CliCorpus:
    """Closed loop, one client: each op runs the CLI in a fresh interpreter
    and its exit code and parsed output must equal the library's result."""

    def __init__(self, command: list[str]):
        self.command = list(command)

    def make_round(self, rng: random.Random, index: int, phase: float) -> list[Op]:
        def s_value() -> float:
            return round(rng.uniform(1.0, 50.0), 3)

        def gap() -> float:
            return rng.uniform(0.002, 0.03)

        s = [s_value() for _ in range(8)]
        ts = [_cutoffs(v) for v in s]
        a, b = round(_log_uniform(rng, 0.1, 100.0), 6), round(_log_uniform(rng, 0.1, 100.0), 6)
        c, d = round(_log_uniform(rng, 0.1, 100.0), 6), round(_log_uniform(rng, 0.1, 100.0), 6)
        t_eval = round(rng.uniform(0.0, 0.5), 4)
        side_hold = rng.choice(("lower", "upper"))
        t_hold = ts[2].p - gap() if side_hold == "lower" else ts[2].q + gap()
        side_viol = rng.choice(("lower", "upper"))
        t_viol = ts[3].p + gap() if side_viol == "lower" else ts[3].q - gap()
        t_fal_low = ts[4].p + rng.uniform(0.01, 0.03)
        t_fal_up = ts[5].q - rng.uniform(0.01, 0.03)
        step = round(rng.uniform(0.5, 5.0), 2)
        sweep_start = round(rng.uniform(1.0, 40.0), 2)
        # Both sweeps have two rows, so the slowest fifth of a round is one
        # cluster of op times and op_ms.p90 falls inside it, not in a gap.
        return [
            Op("thresholds", ("human", s[0])),
            Op("thresholds", ("structured", s[1])),
            Op("eval", ("human", a, b, t_eval, s[6])),
            Op("eval", ("structured", c, d, None, None)),
            Op("verify", ("human", s[2], t_hold, side_hold)),
            Op("verify", ("structured", s[3], t_viol, side_viol)),
            Op("falsify", ("human", s[4], t_fal_low, "lower")),
            Op("falsify", ("structured", s[5], t_fal_up, "upper")),
            Op("sweep", ("csv", sweep_start, step, 2)),
            Op("sweep", ("structured", s[7], 1.0, 2)),
        ]

    @staticmethod
    def argv(op: Op) -> list[str]:
        fmt, *rest = op.args
        if op.kind == "thresholds":
            argv = ["thresholds", _fmt(rest[0])]
        elif op.kind == "eval":
            a, b, t, s = rest
            argv = ["eval", _fmt(a), _fmt(b)]
            if t is not None:
                argv += ["--t", _fmt(t), "--s", _fmt(s)]
        elif op.kind in ("verify", "falsify"):
            s, t, side = rest
            argv = [op.kind, "--s", _fmt(s), "--t", _fmt(t), "--side", side]
        else:
            start, step, rows = rest
            stop = start + (rows - 0.5) * step
            argv = ["sweep", "--s", f"{_fmt(start)}:{_fmt(stop)}:{_fmt(step)}"]
        return argv + ["--format", fmt]

    def run(self, op: Op):
        proc = subprocess.run(self.command + self.argv(op), capture_output=True,
                              text=True, timeout=CLI_TIMEOUT_S)
        return proc.returncode, proc.stdout

    # -- expected values, from the library in this process ---------------

    @staticmethod
    def expected(op: Op) -> tuple[int, object]:
        fmt, *rest = op.args
        if op.kind == "thresholds":
            ts = T.sharp_thresholds(rest[0])
            return 0, {"s": ts.s, "p": ts.p, "q": ts.q}
        if op.kind == "eval":
            a, b, t, s = rest
            pair = M.PositivePair(a, b)
            values = {"gap": M.gap(pair), "arithmetic": M.arithmetic_mean(pair),
                      "geometric": M.geometric_mean(pair),
                      "harmonic": M.harmonic_mean(pair),
                      "identric": M.identric_mean(pair)}
            if t is not None:
                values["q_mean"] = M.q_mean(pair, t, s)
            return 0, values
        if op.kind == "verify":
            s, t, side = rest
            rep = V.verify_family_inequality(t, s, side, V.GridSpec())
            w = rep.witness
            return (0 if rep.verdict == "holds_on_grid" else 1,
                    {"verdict": rep.verdict, "worst_margin": rep.worst_margin,
                     "samples": rep.samples, "witness_x": w.x if w else None})
        if op.kind == "falsify":
            s, t, side = rest
            res = V.falsify(t, s, side)
            w = res.witness
            return (0 if res.found else 1,
                    {"found": res.found,
                     "x": w.x if w else None,
                     "margin": w.margin if w else None,
                     "recheck": w.margin_recheck if w else None})
        start, step, rows = rest
        table = [_sweep_row(start + i * step, V.GridSpec(), SWEEP_TOL)
                 for i in range(rows)]
        for row in table:
            del row["verdicts"]
        return 0, table

    @staticmethod
    def parse(op: Op, stdout: str) -> object:
        fmt = op.args[0]
        if fmt == "structured":
            doc = json.loads(stdout)
            if op.kind == "thresholds":
                return {k: doc[k] for k in ("s", "p", "q")}
            if op.kind == "eval":
                keys = ["gap", "arithmetic", "geometric", "harmonic", "identric"]
                if "q_mean" in doc:
                    keys.append("q_mean")
                return {k: doc[k] for k in keys}
            if op.kind == "verify":
                w = doc["witness"]
                return {"verdict": doc["verdict"], "worst_margin": doc["worst_margin"],
                        "samples": doc["samples"], "witness_x": w["x"] if w else None}
            if op.kind == "falsify":
                w = doc.get("witness")
                return {"found": doc["found"], "x": w["x"] if w else None,
                        "margin": w["margin"] if w else None,
                        "recheck": w["margin_recheck"] if w else None}
            return doc["rows"]
        lines = stdout.splitlines()
        if op.kind == "thresholds":
            fields = {ln.split()[0]: float(ln.split()[2]) for ln in lines[:3]}
            return {k: fields[k] for k in ("s", "p", "q")}
        if op.kind == "eval":
            return {ln.split()[0]: float(ln.split()[-1]) for ln in lines[1:]}
        if op.kind == "verify":
            witness = [ln for ln in lines if ln.startswith("witness: ")]
            return {"verdict": lines[0].split(": ")[1],
                    "worst_margin": float(lines[1].split(": ")[1]),
                    "samples": int(lines[2].split(": ")[1]),
                    "witness_x": _parse_human_witness(witness[0]) if witness else None}
        if op.kind == "falsify":
            if not lines[0].startswith("witness: "):
                return {"found": False, "x": None, "margin": None, "recheck": None}
            margin_line = lines[1].split()
            return {"found": True, "x": _parse_human_witness(lines[0]),
                    "margin": float(margin_line[1]), "recheck": float(margin_line[3])}
        header = lines[0].split(",")
        return [dict(zip(header, map(float, ln.split(",")))) for ln in lines[1:]]

    def check(self, op: Op, out) -> str:
        code, stdout = out
        want_code, want = self.expected(op)
        if code != want_code:
            return WRONG
        try:
            got = self.parse(op, stdout)
        except (ValueError, KeyError, IndexError):
            return WRONG
        return OK if got == want else WRONG


def _sweep_row(s: float, grid, tol: float) -> dict:
    """One ``meanbounds sweep`` row, computed the way the CLI computes it."""
    ts = T.sharp_thresholds(s)
    low = V.verify_family_inequality(ts.p, s, "lower", grid)
    upp = V.verify_family_inequality(ts.q, s, "upper", grid)
    return {"s": s, "p_closed": ts.p, "q_closed": ts.q,
            "p_empirical": V.empirical_threshold(s, "lower", grid, tol),
            "q_empirical": V.empirical_threshold(s, "upper", grid, tol),
            "lower_margin_at_p": low.worst_margin,
            "upper_margin_at_q": upp.worst_margin,
            "verdicts": (low.verdict, upp.verdict)}


# ----------------------------------------------------------------------
# sweep_bisect: one sweep row per op, in process.
# ----------------------------------------------------------------------

class SweepBisect:
    """Each op is one sweep row: both empirical thresholds by bisection on
    the default grid plus the grid verdicts at the closed-form cutoffs."""

    def make_round(self, rng: random.Random, index: int, phase: float) -> list[Op]:
        return [Op("row", (s,)) for s in _strata(rng, 1.0, 50.0, 5)]

    def run(self, op: Op):
        s, = op.args
        return _sweep_row(s, V.GridSpec(), SWEEP_TOL)

    def check(self, op: Op, row: dict) -> str:
        slack = SWEEP_TOL + GRID_BIAS
        ok = (row["verdicts"] == ("holds_on_grid", "holds_on_grid")
              and abs(row["p_empirical"] - row["p_closed"]) <= slack
              and abs(row["q_empirical"] - row["q_closed"]) <= slack)
        return OK if ok else WRONG


# ----------------------------------------------------------------------
# certify_tree: one interval sign certificate per op, in process.
# ----------------------------------------------------------------------

class CertifyTree:
    """Each op certifies the log-ratio's sign on [0.01, 0.99] just inside a
    sharp cutoff.  The first round also holds the x -> 0 case on
    [1e-6, 0.5].  It exhausts its budget today; that outcome is tallied as
    ``KNOWN``, so it costs its full time in every run without counting as a
    failed op, and a wrong sign claimed there still counts as wrong."""

    STRATA = 4

    def make_round(self, rng: random.Random, index: int, phase: float) -> list[Op]:
        ops = []
        for s in _lattice(phase, index, 1.0, 50.0, self.STRATA):
            ts = _cutoffs(s)
            for delta in (1e-2, 1e-3):
                ops.append(Op("certify", (ts.p - delta, s, 0.01, 0.99, "negative", 100_000),
                              "negative"))
                ops.append(Op("certify", (ts.q + delta, s, 0.01, 0.99, "positive", 100_000),
                              "positive"))
        if index == 0:
            s = _log_uniform(rng, 1.0, 50.0)
            t = _cutoffs(s).p - 1e-2
            ops.append(Op("certify_x0", (t, s, 1e-6, 0.5, "negative", X0_BUDGET), "negative"))
        return ops

    def run(self, op: Op):
        return V.certify_sign(*op.args)

    def check(self, op: Op, nodes) -> str:
        if V.certificate_succeeded(nodes, op.expect):
            return OK
        opposite = "proved_positive" if op.expect == "negative" else "proved_negative"
        if any(n.status == opposite for n in nodes):
            return WRONG
        return KNOWN if op.kind == "certify_x0" else FAILED


# ----------------------------------------------------------------------
# bounds_small: small-grid checks on both sides of each sharp constant.
# ----------------------------------------------------------------------

def _power_bounds(p_exp: float) -> tuple[float, float]:
    """Sharp alpha for the convex power bound: lower holds iff alpha <= the
    first, upper holds iff alpha >= the second (p = 1 or p >= 2)."""
    if p_exp == 1.0:
        return 2.0 / 3.0, 2.0 / math.e
    return (2.0 / math.e) ** p_exp, 2.0 / 3.0


class BoundsSmall:
    """Each op is one 512-point grid check or counterexample search with
    parameters a seeded distance inside or outside a sharp constant."""

    def make_round(self, rng: random.Random, index: int, phase: float) -> list[Op]:
        def rel() -> float:
            return rng.uniform(0.02, 0.1)

        def s_value() -> float:
            return _log_uniform(rng, 1.0, 50.0)

        ops = []
        for side in ("lower", "upper"):
            for holds in (True, False):
                s = s_value()
                ts = _cutoffs(s)
                d = rng.uniform(0.002, 0.02)
                inward = -d if side == "lower" else d
                cut = ts.p if side == "lower" else ts.q
                t = cut + (inward if holds else -inward)
                ops.append(Op("family", (t, s, side),
                              "holds_on_grid" if holds else "violated"))
        ops.append(Op("exp", (_EXP_LOWER * (1 - rel()), _EXP_UPPER * (1 + rel())),
                      "holds_on_grid"))
        if rng.random() < 0.5:
            ops.append(Op("exp", (_EXP_LOWER * (1 + rel()), _EXP_UPPER * (1 + rel())),
                          "violated"))
        else:
            ops.append(Op("exp", (_EXP_LOWER * (1 - rel()), _EXP_UPPER * (1 - rel())),
                          "violated"))
        for side in ("lower", "upper"):
            for holds in (True, False):
                p_exp = 1.0 if rng.random() < 0.5 else rng.uniform(2.0, 4.0)
                lower_cut, upper_cut = _power_bounds(p_exp)
                cut = lower_cut if side == "lower" else upper_cut
                inward = -1.0 if side == "lower" else 1.0
                alpha = cut * (1 + (inward if holds else -inward) * rel())
                ops.append(Op("power", (p_exp, alpha, side),
                              "holds_on_grid" if holds else "violated"))
        ops.append(Op("two_thirds", (rng.uniform(1.0, 1.15),), "reverse_holds"))
        ops.append(Op("two_thirds", (rng.uniform(1.22, 1.29),), "neither"))
        ops.append(Op("two_thirds", (rng.uniform(1.35, 3.0),), "forward_holds"))
        s = s_value()
        ops.append(Op("falsify", (_cutoffs(s).p + rng.uniform(0.01, 0.03),
                                  s, "lower"), True))
        s = s_value()
        ops.append(Op("falsify", (_cutoffs(s).q - rng.uniform(0.01, 0.03),
                                  s, "upper"), True))
        return ops

    def run(self, op: Op):
        if op.kind == "family":
            return V.verify_family_inequality(*op.args, SMALL_GRID).verdict
        if op.kind == "exp":
            return V.verify_exponential_bounds(*op.args, SMALL_GRID).verdict
        if op.kind == "power":
            return V.verify_convex_power_bound(*op.args, SMALL_GRID).verdict
        if op.kind == "two_thirds":
            return V.verify_two_thirds_power(*op.args, SMALL_GRID).classification
        return V.falsify(*op.args).found

    def check(self, op: Op, out) -> str:
        return OK if out == op.expect else WRONG


def make(name: str, cli_command: list[str] | None = None):
    if name == "cli_corpus":
        return CliCorpus(cli_command)
    return {"sweep_bisect": SweepBisect, "certify_tree": CertifyTree,
            "bounds_small": BoundsSmall}[name]()


def warmup_op(workload, seed: int) -> Op:
    """The op run once before timing: the first kind of a round drawn from
    a stream of its own, so the timed rounds are the same with or without it."""
    rng = random.Random(f"warmup-{seed}")
    return workload.make_round(rng, 0, rng.random())[0]


def rounds(workload, seed: int):
    """The seed's fixed, unending sequence of shuffled rounds."""
    rng = random.Random(seed)
    phase = rng.random()
    for index in itertools.count():
        ops = workload.make_round(rng, index, phase)
        rng.shuffle(ops)
        yield ops


def run_checked(workload, op: Op):
    """Run ``op`` untimed and return its check outcome (used for warm-up)."""
    try:
        return workload.check(op, workload.run(op))
    except Exception:  # noqa: BLE001 - any raise is a wrong result
        return WRONG


@dataclass
class Tally:
    op_s: array = field(default_factory=lambda: array("d"))   # compact: RSS stays flat
    round_sizes: list = field(default_factory=list)
    # (ops done, reference seconds): the machine-speed samples, see pace.py
    ref_samples: list = field(default_factory=list)
    outcomes: dict = field(default_factory=lambda: {OK: 0, FAILED: 0, KNOWN: 0, WRONG: 0})
    examples: list = field(default_factory=list)
    timed_s: float = 0.0

    @property
    def rounds(self) -> int:
        return len(self.round_sizes)

    @property
    def failed(self) -> int:
        return self.outcomes[FAILED] + self.outcomes[WRONG]


def run_rounds(workload, rounds, *, seconds: float = 0.0, max_rounds: int = 0,
               tracer=None, reference=None,
               sample_every: float = pace.SAMPLE_EVERY_S) -> Tally:
    """Run whole rounds until the op time reaches ``seconds``, or for
    exactly ``max_rounds`` rounds when that is given.

    Each op is timed alone (inside an ``op`` span when ``tracer`` is given);
    its check runs outside the clock.  An op that raises, or whose check
    raises, counts as wrong.  ``reference``, when given, is called before
    the first op, after the last, and between ops whenever another
    ``sample_every`` seconds of op time have passed; it returns seconds.
    """
    tally = Tally()
    last_sample = 0.0
    if reference:
        tally.ref_samples.append((0, reference()))
    for ops in rounds:
        for op in ops:
            if reference and tally.op_s and tally.timed_s - last_sample >= sample_every:
                tally.ref_samples.append((len(tally.op_s), reference()))
                last_sample = tally.timed_s
            start = time.perf_counter()
            try:
                out = tracer.call("op", workload.run, op) if tracer else workload.run(op)
            except Exception as exc:  # noqa: BLE001 - a raising op is counted
                out, outcome = exc, WRONG
            else:
                outcome = None
            tally.op_s.append(time.perf_counter() - start)
            tally.timed_s += tally.op_s[-1]
            if outcome is None:
                try:
                    outcome = workload.check(op, out)
                except Exception as exc:  # noqa: BLE001 - as above
                    out, outcome = exc, WRONG
            tally.outcomes[outcome] += 1
            if outcome != OK and len(tally.examples) < 5:
                tally.examples.append(f"{outcome}: {op!r} -> {str(out)[:300]}")
            # Dropped before the next op, so peak RSS is that of one op at a time.
            out = None
        tally.round_sizes.append(len(ops))
        if max_rounds and tally.rounds >= max_rounds:
            break
        if not max_rounds and tally.timed_s >= seconds:
            break
    if reference:
        tally.ref_samples.append((len(tally.op_s), reference()))
    return tally
