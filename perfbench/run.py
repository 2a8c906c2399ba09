#!/usr/bin/env python3
"""meanbounds benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; it drives the package in ``src/`` without
installing it.  NAME is one of ``cli_corpus``, ``sweep_bisect``,
``certify_tree``, ``bounds_small``, or ``all`` to run the four in turn.

With ``--trace 0`` the run reports the end-to-end metrics.  Set-up time is
sampled from several fresh interpreters (``SETUP_PROBES`` set-up-only
workers plus the measuring one), each rescaled to nominal machine speed by
the reference task (``pace.py``) timed just before and just after it, and
reported as their median; the measuring worker then runs whole rounds of
the seed's ops for S seconds of op time.
With ``--trace 1`` an untraced worker runs for S/2 seconds and a traced
worker repeats exactly the same rounds, so the per-layer metrics come with
the tracing overhead ``trace.overhead_ratio`` (traced over untraced op time).

The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
``failed`` counts ops that raised or failed their check; ``correct`` is
false only when an output was wrong (an inconclusive certificate fails its
op but is not wrong).  The x -> 0 certificate of ``certify_tree``, left
inconclusive today, is counted apart as a known limit, not as failed.  The
lines before it give each metric in words and the provenance of the run.  Every worker runs with the numpy and BLAS thread
counts pinned to 1.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pace
from tracer import LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
WORKLOADS = ("cli_corpus", "sweep_bisect", "certify_tree", "bounds_small")
SETUP_PROBES = 8
# Reference runs per sample around a set-up probe: the probes are too short
# for the running median that smooths the samples between ops.
SETUP_REF_REPEATS = 5
WORKER_GRACE_S = 120.0

# name -> unit.  ok_ratio is 1 - fail_ratio: it is never 0, so its spread
# can be taken relative to its median.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms.p50": "ms",
    "op_ms.p90": "ms",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("MEANBOUNDS_GRID", None)   # the CLI's default grid must be 10k
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in PINNED_THREADS:
        env[var] = "1"
    return env


def commit() -> str:
    """HEAD of the checkout, read without git; 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_worker(env: dict, timeout: float, **opts) -> tuple[dict, float]:
    """Start one worker in its own process group; return its result and the
    monotonic time just before it was spawned.  The whole group is killed
    if the worker overruns, so no CLI child outlives the run."""
    cmd = [sys.executable, str(HERE / "worker.py")]
    for key, value in opts.items():
        flag = "--" + key.replace("_", "-")
        if value is True:
            cmd.append(flag)
        elif value is not None:
            cmd += [flag, str(value)]
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise BenchError(f"worker {opts} exited with {proc.returncode}:\n{err[-2000:]}")
    return json.loads(out.strip().splitlines()[-1]), spawned


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    env = child_env()
    budget = seconds + WORKER_GRACE_S
    common = {"workload": workload, "seed": seed}
    warmups = []
    if trace:
        plain, _ = run_worker(env, budget, seconds=seconds / 2, **common)
        traced, _ = run_worker(env, budget, rounds=plain["rounds"], trace=1, **common)
        metrics = dict(traced["layers"])
        metrics["trace.overhead_ratio"] = (traced["scaled"]["timed_s"]
                                           / plain["scaled"]["timed_s"])
        values = {name: (metrics[name], unit) for name, unit in LAYER_METRICS.items()}
        runs = [plain, traced]
        notes = [f"traced {traced['ops']} ops in {traced['rounds']} rounds",
                 f"unmeasured hooks: {', '.join(traced['unmeasured']) or 'none'}"]
    else:
        # (as measured, reference before, reference after) per interpreter;
        # the measuring worker's first reference sample follows its set-up.
        setups = []
        before = pace.sample(SETUP_REF_REPEATS)
        for _ in range(SETUP_PROBES):
            probe, spawned = run_worker(env, budget, setup_only=True, **common)
            after = pace.sample(SETUP_REF_REPEATS)
            setups.append((probe["t_first"] - spawned, before, after))
            warmups.append(probe["warmup"])
            before = after
        main_run, spawned = run_worker(env, budget, seconds=seconds, **common)
        setups.append((main_run["t_first"] - spawned, before,
                       main_run["reference_ms"][0] / 1e3))
        setup_raw = statistics.median(s for s, _, _ in setups)
        setup_s = statistics.median(s * pace.NOMINAL_S / (0.5 * (b + a))
                                    for s, b, a in setups)
        runs = [main_run]
        n = main_run["ops"]
        o = main_run["outcomes"]
        bad = o["failed"] + o["wrong"]
        scaled, raw = main_run["scaled"], main_run["raw"]
        values = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (scaled["ops_per_s"], "1/s"),
            "op_ms.p50": (scaled["op_ms_p50"], "ms"),
            "op_ms.p90": (scaled["op_ms_p90"], "ms"),
            "ok_ratio": ((n - bad) / n, "ratio"),
            "peak_rss_mb": (main_run["peak_rss_mb"], "MB"),
        }
        rss_of = "the CLI children" if workload == "cli_corpus" else "the worker"
        notes = [f"setup_s is the median of {len(setups)} fresh interpreters at nominal "
                 f"machine speed; as measured: {setup_raw:.6g} s",
                 f"ops_per_s is the median of {main_run['rounds']} per-round rates; "
                 f"op_ms percentiles are over {n} ops"
                 + ("" if n >= 100 else " (fewer than 100: p90 is indicative)"),
                 "op times are rescaled to the reference machine's nominal speed; "
                 f"as measured: ops_per_s {raw['ops_per_s']:.6g}, op_ms.p50 "
                 f"{raw['op_ms_p50']:.6g}, op_ms.p90 {raw['op_ms_p90']:.6g}, "
                 f"{n} ops in {raw['timed_s']:.4g} s",
                 "reference task median {:.4g} ms (nominal {:.4g} ms) over {} samples".format(
                     statistics.median(main_run["reference_ms"]), main_run["nominal_ms"],
                     len(main_run["reference_ms"])),
                 f"fail_ratio = {bad}/{n} = {bad / n:.6g}",
                 f"known limit (x -> 0 certificate inconclusive): {o['known_limit']} op(s)",
                 f"peak_rss_mb is of {rss_of}"]
    attempted = sum(r["ops"] for r in runs)
    failed = sum(r["outcomes"]["failed"] + r["outcomes"]["wrong"] for r in runs)
    # A wrong warm-up op is not attempted, but it still makes the run incorrect.
    warmups += [r["warmup"] for r in runs]
    wrong = sum(r["outcomes"]["wrong"] for r in runs) + warmups.count("wrong")
    provenance = dict(runs[-1]["provenance"], commit=commit(), seed=seed,
                      workload=workload, seconds=seconds, trace=int(trace))
    return {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
        "notes": notes,
        "examples": [e for r in runs for e in r["examples"]],
        "as_measured": {k: dict(r["raw"], reference_ms=r["reference_ms"])
                        for k, r in zip(("untraced", "traced"), runs)},
        "provenance": provenance,
    }


def report(workload: str, res: dict) -> None:
    print(f"== {workload}: attempted {res['attempted']}, failed {res['failed']}, "
          f"correct {res['correct']}")
    for name, m in res["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for line in res["notes"] + res["examples"]:
        print(f"  {line}")
    print("provenance: " + json.dumps(res["provenance"], sort_keys=True))
    OUT_DIR.mkdir(exist_ok=True)
    p = res["provenance"]
    path = OUT_DIR / f"result-{workload}-seed{p['seed']}-trace{p['trace']}.json"
    path.write_text(json.dumps(res, indent=1, sort_keys=True))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "meanbounds" / "__init__.py").is_file():
        print(f"run.py: no meanbounds package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("run.py: --seconds must be > 0", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = measure(name, args.seed, args.seconds, bool(args.trace))
            report(name, results[name])
    except (BenchError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    keys = ("correct", "attempted", "failed", "metrics")
    if args.workload == "all":
        print(json.dumps({name: {k: r[k] for k in keys} for name, r in results.items()}))
    else:
        print(json.dumps({k: results[args.workload][k] for k in keys}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
