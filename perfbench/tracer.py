"""Spans around calls into the package's modules, recorded from outside.

The package is not changed.  A hook replaces a name that a caller looks up
at call time, in the caller's module namespace (for example
``meanbounds.verify.enclose_log_ratio``, which ``certify_sign`` resolves
on every node), with a wrapper that records a span: id, parent id, layer
name, start, end, and up to two counts.  Spans stay in memory and are
written out when the run ends.  A hook whose name no longer exists is
listed as unmeasured; the layer metrics that depend on it then read 0.
"""

from __future__ import annotations

import importlib
import statistics
import time
from collections import defaultdict
from typing import Callable, NamedTuple


class Span(NamedTuple):
    id: int
    parent: int
    name: str
    start: float
    end: float
    n: int = 0      # work done (points, nodes) or 1 for a confirmed recheck
    m: int = 0      # secondary count (inconclusive leaves)


def _len_last_arg(args, result):
    return len(args[-1]), 0


def _len_result(args, result):
    return len(result), 0


def _confirmed(args, result):
    return int(result < 0.0), 0


def _certificate(args, result):
    inconclusive = sum(1 for node in result if node.status == "inconclusive")
    return len(result), inconclusive


# (module, name looked up there, layer, counter).  Several names may feed
# one layer; each entry wraps the binding of one caller's namespace.
HOOKS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("meanbounds.cli", "main", "cli.main", None),
    ("meanbounds.cli", "verify_family_inequality", "verify.check", None),
    ("meanbounds.cli", "falsify", "verify.check", None),
    ("meanbounds.cli", "empirical_threshold", "verify.empirical_threshold", None),
    ("meanbounds.cli", "sharp_thresholds", "thresholds.sharp_thresholds", None),
    ("meanbounds.thresholds", "sharp_thresholds", "thresholds.sharp_thresholds", None),
    ("meanbounds.verify", "sharp_thresholds", "thresholds.sharp_thresholds", None),
    ("meanbounds.verify", "verify_family_inequality", "verify.check", None),
    ("meanbounds.verify", "verify_exponential_bounds", "verify.check", None),
    ("meanbounds.verify", "verify_convex_power_bound", "verify.check", None),
    ("meanbounds.verify", "verify_two_thirds_power", "verify.check", None),
    ("meanbounds.verify", "falsify", "verify.check", None),
    ("meanbounds.verify", "empirical_threshold", "verify.empirical_threshold", None),
    ("meanbounds.verify", "grid_points", "verify.grid_points", _len_result),
    ("meanbounds.verify", "_log_ratio_with_scale", "family.margins", _len_last_arg),
    ("meanbounds.verify", "_exp_bound_margin_with_scale", "family.margins", _len_last_arg),
    ("meanbounds.verify", "_lr_with_error_scale", "means.lr", _len_last_arg),
    ("meanbounds.family", "_lr_with_error_scale", "means.lr", _len_last_arg),
    ("meanbounds.verify", "_mp_family_margin", "verify.recheck", _confirmed),
    ("meanbounds.verify", "_mp_exp_margin", "verify.recheck", _confirmed),
    ("meanbounds.verify", "_mp_power_margin", "verify.recheck", _confirmed),
    ("meanbounds.verify", "certify_sign", "verify.certify_sign", _certificate),
    ("meanbounds.verify", "enclose_log_ratio", "intervals.enclose", None),
)


class Tracer:
    """In-memory span recorder; one per process."""

    def __init__(self):
        self.spans: list[Span] = []
        self.unmeasured: list[str] = []
        self._stack = [0]
        self._next_id = 1
        self._installed: list[tuple[object, str, object]] = []

    def call(self, name: str, fn: Callable, *args, counter: Callable | None = None):
        """Run ``fn(*args)`` inside a span named ``name``."""
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(sid)
        start = time.perf_counter()
        result = None
        try:
            result = fn(*args)
            return result
        finally:
            end = time.perf_counter()
            self._stack.pop()
            n, m = counter(args, result) if counter and result is not None else (0, 0)
            self.spans.append(Span(sid, parent, name, start, end, n, m))

    def wrap(self, name: str, fn: Callable, counter: Callable | None) -> Callable:
        def wrapper(*args, **kwargs):
            if kwargs:
                return self.call(name, lambda *a: fn(*a, **kwargs), *args, counter=counter)
            return self.call(name, fn, *args, counter=counter)
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, hooks=HOOKS) -> None:
        for module_name, attr, layer, counter in hooks:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.unmeasured.append(f"{module_name}.{attr}")
                continue
            original = getattr(module, attr, None)
            if not callable(original):
                self.unmeasured.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self.wrap(layer, original, counter))
            self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover.

    Children are clipped to the parent's interval and overlapping children
    are merged, so the result never goes below zero.
    """
    children = defaultdict(list)
    for sp in spans:
        children[sp.parent].append((sp.start, sp.end))
    out = {}
    for sp in spans:
        covered = 0.0
        run_lo = run_hi = None
        for lo, hi in sorted(children.get(sp.id, ())):
            lo, hi = max(lo, sp.start), min(hi, sp.end)
            if hi <= lo:
                continue
            if run_hi is None or lo > run_hi:
                if run_hi is not None:
                    covered += run_hi - run_lo
                run_lo, run_hi = lo, hi
            else:
                run_hi = max(run_hi, hi)
        if run_hi is not None:
            covered += run_hi - run_lo
        out[sp.id] = (sp.end - sp.start) - covered
    return out


# name -> unit, in the order they are reported
LAYER_METRICS = {
    "import.numpy_s": "s",
    "import.mpmath_s": "s",
    "import.self_s": "s",
    "cli.main.calls": "count",
    "cli.main.self_ms": "ms",
    "verify.grid_points.calls": "count",
    "verify.grid_points.points": "count",
    "verify.grid_points.self_s": "s",
    "family.margins.calls": "count",
    "family.margins.points": "count",
    "family.margins.ns_per_point": "ns",
    "verify.empirical_threshold.calls": "count",
    "verify.empirical_threshold.predicate_calls": "count",
    "verify.empirical_threshold.self_s": "s",
    "verify.check.calls": "count",
    "verify.check.self_s": "s",
    "verify.recheck.calls": "count",
    "verify.recheck.self_s": "s",
    "verify.recheck.confirmed_ratio": "ratio",
    "means.lr.calls": "count",
    "means.lr.points": "count",
    "means.lr.self_s": "s",
    "verify.certify_sign.calls": "count",
    "verify.certify_sign.nodes": "count",
    "verify.certify_sign.nodes_per_s": "1/s",
    "verify.certify_sign.inconclusive_leaves": "count",
    "intervals.enclose.calls": "count",
    "intervals.enclose.us_per_call": "us",
    "intervals.enclose.calls_per_node": "ratio",
    "thresholds.sharp_thresholds.calls": "count",
    "trace.ops": "count",
    "trace.overhead_ratio": "ratio",
    "trace.unmeasured_hooks": "count",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], imports: dict[str, float],
                  overhead_ratio: float, unmeasured: int) -> dict[str, float]:
    """Aggregate spans into the per-layer metrics of ``LAYER_METRICS``.

    A metric whose base is zero (no such calls in this workload) reads 0.
    ``imports`` holds the import times in seconds (median over the traced
    processes); ``overhead_ratio`` is traced over untraced op time.
    """
    selfs = self_times(spans)
    calls = defaultdict(int)
    total = defaultdict(float)
    self_total = defaultdict(float)
    n_sum = defaultdict(int)
    m_sum = defaultdict(int)
    parent_name = {sp.id: sp.name for sp in spans}
    predicate_calls = 0
    cli_self = []
    for sp in spans:
        calls[sp.name] += 1
        total[sp.name] += sp.end - sp.start
        self_total[sp.name] += selfs[sp.id]
        n_sum[sp.name] += sp.n
        m_sum[sp.name] += sp.m
        if sp.name == "verify.check" and parent_name.get(sp.parent) == "verify.empirical_threshold":
            predicate_calls += 1
        if sp.name == "cli.main":
            cli_self.append(selfs[sp.id])
    nodes = n_sum["verify.certify_sign"]
    return {
        "import.numpy_s": imports.get("numpy", 0.0),
        "import.mpmath_s": imports.get("mpmath", 0.0),
        "import.self_s": imports.get("self", 0.0),
        "cli.main.calls": calls["cli.main"],
        "cli.main.self_ms": statistics.median(cli_self) * 1e3 if cli_self else 0.0,
        "verify.grid_points.calls": calls["verify.grid_points"],
        "verify.grid_points.points": n_sum["verify.grid_points"],
        "verify.grid_points.self_s": self_total["verify.grid_points"],
        "family.margins.calls": calls["family.margins"],
        "family.margins.points": n_sum["family.margins"],
        "family.margins.ns_per_point": _ratio(total["family.margins"] * 1e9,
                                              n_sum["family.margins"]),
        "verify.empirical_threshold.calls": calls["verify.empirical_threshold"],
        "verify.empirical_threshold.predicate_calls": predicate_calls,
        "verify.empirical_threshold.self_s": self_total["verify.empirical_threshold"],
        "verify.check.calls": calls["verify.check"],
        "verify.check.self_s": self_total["verify.check"],
        "verify.recheck.calls": calls["verify.recheck"],
        "verify.recheck.self_s": self_total["verify.recheck"],
        "verify.recheck.confirmed_ratio": _ratio(n_sum["verify.recheck"],
                                                 calls["verify.recheck"]),
        "means.lr.calls": calls["means.lr"],
        "means.lr.points": n_sum["means.lr"],
        "means.lr.self_s": self_total["means.lr"],
        "verify.certify_sign.calls": calls["verify.certify_sign"],
        "verify.certify_sign.nodes": nodes,
        "verify.certify_sign.nodes_per_s": _ratio(nodes, total["verify.certify_sign"]),
        "verify.certify_sign.inconclusive_leaves": m_sum["verify.certify_sign"],
        "intervals.enclose.calls": calls["intervals.enclose"],
        "intervals.enclose.us_per_call": _ratio(total["intervals.enclose"] * 1e6,
                                                calls["intervals.enclose"]),
        "intervals.enclose.calls_per_node": _ratio(calls["intervals.enclose"], nodes),
        "thresholds.sharp_thresholds.calls": calls["thresholds.sharp_thresholds"],
        "trace.ops": calls["op"],
        "trace.overhead_ratio": overhead_ratio,
        "trace.unmeasured_hooks": unmeasured,
    }


def timed_imports() -> dict[str, float]:
    """Import numpy, mpmath, then the package, timing each step.

    ``self`` is the package's own import once its two dependencies are
    loaded, so the three parts add up to the cold ``import meanbounds``.
    """
    times = {}
    for key, modules in (("numpy", ("numpy",)), ("mpmath", ("mpmath",)),
                         ("self", ("meanbounds", "meanbounds.cli"))):
        start = time.perf_counter()
        for name in modules:
            importlib.import_module(name)
        times[key] = time.perf_counter() - start
    return times
