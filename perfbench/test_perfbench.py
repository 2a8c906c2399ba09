"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pace
import run as bench
import tracer as tr
import workloads as W

HERE = Path(__file__).resolve().parent
TOY_SECONDS = "0.05"
HOLDOUT_SEED = "8675309"


def _bench(*args, cwd=None):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=300)
    return proc


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", bench.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_toy_run_reports_every_metric_with_its_unit(workload, trace):
    res = _result(_bench("--workload", workload, "--seed", HOLDOUT_SEED,
                         "--seconds", TOY_SECONDS, "--trace", trace))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True
    assert res["attempted"] >= 1
    expected = bench.END_TO_END if trace == "0" else tr.LAYER_METRICS
    assert {k: m["unit"] for k, m in res["metrics"].items()} == expected
    for m in res["metrics"].values():
        assert isinstance(m["value"], (int, float))
    if trace == "0":
        assert all(res["metrics"][k]["value"] > 0 for k in expected)
    else:
        assert res["metrics"]["trace.unmeasured_hooks"]["value"] == 0
        assert res["metrics"]["trace.ops"]["value"] >= 1
    assert res["failed"] == 0


def test_same_seed_same_inputs_other_seed_other_inputs():
    for name in ("sweep_bisect", "certify_tree", "bounds_small"):
        wl = W.make(name)
        first = list(itertools.islice(W.rounds(wl, 5), 3))
        again = list(itertools.islice(W.rounds(wl, 5), 3))
        other = list(itertools.islice(W.rounds(wl, 6), 3))
        assert first == again
        assert first != other
        kinds = [sorted(op.kind for op in r) for r in first[1:]]
        assert kinds == [sorted(op.kind for op in r) for r in other[1:]]


def test_injected_wrong_expectation_is_counted_as_failed():
    wl = W.make("bounds_small")
    ops = next(W.rounds(wl, 11))
    victim = next(i for i, op in enumerate(ops) if op.kind == "family")
    flipped = "violated" if ops[victim].expect == "holds_on_grid" else "holds_on_grid"
    ops[victim] = dataclasses.replace(ops[victim], expect=flipped)
    tally = W.run_rounds(wl, [ops], max_rounds=1)
    assert tally.outcomes[W.WRONG] == 1
    assert tally.failed == 1
    assert tally.failed / len(tally.op_s) == pytest.approx(1 / len(ops))


def test_inconclusive_certificate_fails_without_being_wrong():
    wl = W.make("certify_tree")
    op = W.Op("certify", (0.2, 2.0, 1e-6, 0.5, "negative", 50), "negative")
    tally = W.run_rounds(wl, [[op]], max_rounds=1)
    assert tally.outcomes == {W.OK: 0, W.FAILED: 1, W.KNOWN: 0, W.WRONG: 0}


def test_x0_certificate_is_a_known_limit_not_a_failure():
    wl = W.make("certify_tree")
    x0 = next(op for op in next(W.rounds(wl, 3)) if op.kind == "certify_x0")
    op = dataclasses.replace(x0, args=x0.args[:-1] + (50,))
    tally = W.run_rounds(wl, [[op]], max_rounds=1)
    assert tally.outcomes == {W.OK: 0, W.FAILED: 0, W.KNOWN: 1, W.WRONG: 0}
    assert tally.failed == 0


def test_cli_output_mismatch_is_wrong():
    wl = W.make("cli_corpus", [sys.executable, "-m", "meanbounds"])
    op = W.Op("thresholds", ("structured", 2.0))
    doc = {"s": 2.0, "p": 0.25, "q": 0.3}
    assert wl.check(op, (0, json.dumps(doc))) == W.WRONG
    ts = W.T.sharp_thresholds(2.0)
    doc.update(p=ts.p, q=ts.q)
    assert wl.check(op, (0, json.dumps(doc))) == W.OK
    assert wl.check(op, (1, json.dumps(doc))) == W.WRONG


def _span(sid, parent, start, end, name="x"):
    return tr.Span(sid, parent, name, start, end)


def test_self_time_subtracts_merged_clipped_children():
    spans = [
        _span(1, 0, 0.0, 10.0),
        _span(2, 1, 1.0, 4.0),
        _span(3, 1, 3.0, 6.0),    # overlaps span 2: children cover [1, 6]
        _span(4, 2, 2.0, 3.0),
        _span(5, 1, 9.0, 12.0),   # clipped to [9, 10]
        _span(6, 1, 11.0, 13.0),  # outside the parent: ignored
    ]
    selfs = tr.self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 5.0 - 1.0)
    assert selfs[2] == pytest.approx(3.0 - 1.0)
    assert selfs[3] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(1.0)


def test_layer_metrics_from_a_synthetic_tree():
    spans = [
        tr.Span(1, 0, "op", 0.0, 1.0),
        tr.Span(2, 1, "verify.empirical_threshold", 0.0, 0.9),
        tr.Span(3, 2, "verify.check", 0.1, 0.4),
        tr.Span(4, 2, "verify.check", 0.5, 0.8),
        tr.Span(5, 3, "verify.grid_points", 0.1, 0.2, 100),
        tr.Span(6, 0, "op", 2.0, 3.0),
        tr.Span(7, 6, "verify.certify_sign", 2.0, 3.0, 40, 3),
        tr.Span(8, 7, "intervals.enclose", 2.0, 2.5),
        tr.Span(9, 6, "verify.recheck", 2.0, 2.0, 1),
        tr.Span(10, 6, "verify.recheck", 2.0, 2.0, 0),
    ]
    m = tr.layer_metrics(spans, {"numpy": 1.0}, 1.5, 2)
    assert set(m) == set(tr.LAYER_METRICS)
    assert m["verify.empirical_threshold.predicate_calls"] == 2
    assert m["verify.empirical_threshold.self_s"] == pytest.approx(0.3)
    assert m["verify.check.self_s"] == pytest.approx(0.5)
    assert m["verify.grid_points.points"] == 100
    assert m["verify.certify_sign.nodes_per_s"] == pytest.approx(40.0)
    assert m["verify.certify_sign.inconclusive_leaves"] == 3
    assert m["intervals.enclose.calls_per_node"] == pytest.approx(1 / 40)
    assert m["verify.recheck.confirmed_ratio"] == pytest.approx(0.5)
    assert m["trace.ops"] == 2
    assert m["trace.overhead_ratio"] == 1.5
    assert m["trace.unmeasured_hooks"] == 2
    assert m["cli.main.self_ms"] == 0.0   # no such calls: reads 0


def test_missing_hook_is_unmeasured_not_fatal():
    import meanbounds.verify as V
    original = V.grid_points
    tracer = tr.Tracer()
    tracer.install((("meanbounds.verify", "no_such_function", "verify.check", None),
                    ("meanbounds.no_such_module", "f", "verify.check", None),
                    ("meanbounds.verify", "grid_points", "verify.grid_points", None)))
    try:
        assert tracer.unmeasured == ["meanbounds.verify.no_such_function",
                                     "meanbounds.no_such_module.f"]
        V.verify_family_inequality(0.2, 2.0, "lower", V.GridSpec(count=64))
    finally:
        tracer.uninstall()
    assert V.grid_points is original
    assert [sp.name for sp in tracer.spans] == ["verify.grid_points"]


def test_every_hook_exists_in_the_package():
    tracer = tr.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.unmeasured == []


def test_refuses_to_run_without_the_package():
    bare = HERE / "out" / "bare"   # a checkout holding only the benchmark
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(HERE.parent / "BENCHMARK.json", bare / "BENCHMARK.json")
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweep_bisect",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              capture_output=True, text=True, cwd=bare, env=env, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_lattice_mirrors_inside_each_bin_and_covers_bins_over_rounds():
    edges = [50.0 ** (i / 4) for i in range(5)]
    positions = []
    for index in range(8):
        draws = W._lattice(0.3, index, 1.0, 50.0, 4)
        assert len(draws) == 8
        for i in range(4):
            lo, hi = draws[2 * i], draws[2 * i + 1]
            assert edges[i] <= min(lo, hi) and max(lo, hi) <= edges[i + 1]
            assert lo * hi == pytest.approx(edges[i] * edges[i + 1])   # mirrored
        positions.append(math.log(draws[0]) / math.log(edges[1]))
    gaps = sorted(positions)
    assert max(b - a for a, b in zip(gaps, gaps[1:])) < 0.3


def test_rescale_uses_the_reference_around_each_op():
    op_s = [1.0, 1.0, 1.0]
    samples = [(0, 1.0), (2, 2.0), (3, 2.0)]
    assert pace.rescale(op_s, samples, nominal=1.0, half_window=0) == pytest.approx(
        [2 / 3, 2 / 3, 0.5])
    # smoothed over five samples, every window holds two of the 2.0 samples
    assert pace.rescale(op_s, samples, nominal=1.0, half_window=2) == pytest.approx(
        [0.5, 0.5, 0.5])


def test_smooth_drops_a_lone_outlier():
    ref = np.array([1.0, 1.0, 9.0, 1.0, 1.0, 2.0, 2.0, 2.0])
    assert pace.smooth(ref, 1).tolist() == [1.0, 1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0]


def test_reference_is_sampled_before_between_and_after_ops():
    wl = W.make("bounds_small")
    calls = []

    def reference():
        calls.append(len(calls))
        return 1e-3

    tally = W.run_rounds(wl, [next(W.rounds(wl, 2))], max_rounds=1,
                         reference=reference, sample_every=0.0)
    n = len(tally.op_s)
    assert [k for k, _ in tally.ref_samples] == list(range(n)) + [n]
    assert len(pace.rescale(tally.op_s, tally.ref_samples)) == n


def test_strata_cover_each_bin_once():
    draws = W._strata(random.Random(0), 1.0, 50.0, 5)
    edges = [50.0 ** (i / 5) for i in range(6)]
    assert all(edges[i] <= d < edges[i + 1] for i, d in enumerate(draws))
