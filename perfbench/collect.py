#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/collect.py --seeds 1-10 [--seconds 25] [--workloads a,b]
                                 [--trace-seed N] [--out FILE]

For every workload and end-to-end metric this prints the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median, next to the
metric's bound from ``BENCHMARK.json``.  ``--trace-seed`` adds one traced
run per workload and keeps its per-layer metrics.  ``--out`` writes the
summary with every run's values and provenance as JSON, e.g. as a
baseline.  Runs are made one at a time, each in its own ``run.py`` process.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(spec: str) -> list[int]:
    seeds = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def bench(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """One ``run.py`` run: its result line and its provenance."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    prov = json.loads(next(ln for ln in lines if ln.startswith("provenance: "))[12:])
    return json.loads(lines[-1]), prov


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--trace-seed", type=int)
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"seconds": args.seconds, "seeds": parse_seeds(args.seeds), "workloads": {}}
    worst = 0.0
    for workload in args.workloads.split(","):
        runs = []
        for seed in summary["seeds"]:
            result, prov = bench(workload, seed, args.seconds, 0)
            runs.append({"seed": seed, "result": result, "provenance": prov})
        metrics = {}
        for name in runs[0]["result"]["metrics"]:
            stats = summarise([r["result"]["metrics"][name]["value"] for r in runs])
            stats["bound"] = bounds.get(name)
            metrics[name] = stats
            mark = ""
            if stats["bound"] and name != "setup_s":
                share = stats["spread"] / stats["bound"]
                worst = max(worst, share)
                mark = "  <-- over a third of the bound" if share > 1 / 3 else ""
            print(f"{workload:13s} {name:12s} median {stats['median']:<12.6g} "
                  f"spread {stats['spread']:.4f} bound {stats['bound']}{mark}")
        summary["workloads"][workload] = {
            "correct": all(r["result"]["correct"] for r in runs),
            "attempted": [r["result"]["attempted"] for r in runs],
            "failed": [r["result"]["failed"] for r in runs],
            "metrics": metrics,
            "provenance": runs[0]["provenance"],
        }
        if args.trace_seed is not None:
            result, prov = bench(workload, args.trace_seed, args.seconds, 1)
            summary["workloads"][workload]["per_layer"] = {
                "seed": args.trace_seed, "correct": result["correct"],
                "attempted": result["attempted"], "failed": result["failed"],
                "metrics": {k: m["value"] for k, m in result["metrics"].items()}}
        sys.stdout.flush()
    print(f"largest spread as a share of its bound (setup_s excepted): {worst:.3f}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
