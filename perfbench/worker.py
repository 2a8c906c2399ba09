"""One workload run in a fresh interpreter; started by ``run.py``.

The worker imports the package (timing each import), generates the seed's
first round, runs one warm-up op, and then runs whole rounds until the op
time adds up to ``--seconds`` (or for exactly ``--rounds`` rounds).  Each
op is timed alone; its check runs outside the clock, and a machine-speed
reference (``pace.py``) is timed between ops.  The last stdout line is one
JSON object with the counts, the op-time summaries (as measured and
rescaled to the reference machine's nominal speed) and, with
``--trace 1``, the per-layer metrics.  ``--setup-only`` stops at the first
timed op, so the parent can sample set-up time.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import tracer as tr

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS")


def summarise(op_s, round_sizes: list[int]) -> dict:
    """Op-time summary: median per-round rate, percentiles, total."""
    import numpy as np
    op_s = np.asarray(op_s, dtype=float)
    sizes = np.asarray(round_sizes)
    cum = np.concatenate([[0.0], np.cumsum(op_s)])
    ends = np.cumsum(sizes)
    rates = sizes / (cum[ends] - cum[ends - sizes])
    p50, p90 = np.percentile(op_s * 1e3, [50, 90])
    return {"ops_per_s": float(np.median(rates)), "op_ms_p50": float(p50),
            "op_ms_p90": float(p90), "timed_s": float(cum[-1])}


def provenance() -> dict:
    import mpmath
    import numpy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def run(args) -> dict:
    imports = tr.timed_imports()
    import pace
    import workloads as W

    tracing = bool(args.trace) and not args.setup_only
    cli_spans_dir = OUT_DIR / f"cli-spans-{os.getpid()}"
    in_process = args.workload != "cli_corpus"
    if in_process:
        wl = W.make(args.workload)
    else:
        wl = W.make(args.workload, [sys.executable, "-m", "meanbounds"])

    rounds = W.rounds(wl, args.seed)
    pending = next(rounds)
    warmup = W.run_checked(wl, W.warmup_op(wl, args.seed))
    tracer = tr.Tracer()
    if tracing and in_process:
        tracer.install()
    elif tracing:
        # Each traced CLI child records its own spans; the checks made here
        # call the library too, so nothing is hooked in this process.
        cli_spans_dir.mkdir(parents=True, exist_ok=True)
        wl.command = [sys.executable, str(HERE / "cli_child.py"), str(cli_spans_dir)]
    t_first = time.monotonic()
    result = {"t_first": t_first, "warmup": warmup}
    if args.setup_only:
        return result

    tally = W.run_rounds(wl, itertools.chain([pending], rounds), seconds=args.seconds,
                         max_rounds=args.rounds, tracer=tracer if tracing else None,
                         reference=pace.sample)
    tracer.uninstall()
    # Read before the summaries below, whose lists grow with the op count.
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    result.update({
        "rounds": tally.rounds,
        "ops": len(tally.op_s),
        "raw": summarise(tally.op_s, tally.round_sizes),
        "scaled": summarise(pace.rescale(tally.op_s, tally.ref_samples), tally.round_sizes),
        "reference_ms": [t * 1e3 for _, t in tally.ref_samples],
        "nominal_ms": pace.NOMINAL_S * 1e3,
        "outcomes": tally.outcomes,
        "examples": tally.examples,
        "peak_rss_mb": peak_rss_mb,
        "provenance": provenance(),
    })
    if tracing:
        spans = tracer.spans
        import_samples = [imports]
        unmeasured = set(tracer.unmeasured)
        if not in_process:
            spans, import_samples, unmeasured = _merge_child_spans(spans, cli_spans_dir)
        imports = {k: statistics.median(s[k] for s in import_samples) for k in imports}
        result["layers"] = tr.layer_metrics(spans, imports, 0.0, len(unmeasured))
        result["unmeasured"] = sorted(unmeasured)
        _write_spans(args, spans, sorted(unmeasured))
    return result


def _merge_child_spans(spans, spans_dir: Path):
    """Fold the span files of traced CLI children into one id space."""
    merged = list(spans)
    next_id = max((sp.id for sp in merged), default=0)
    imports, unmeasured = [], set()
    for path in sorted(spans_dir.glob("*.json")):
        doc = json.loads(path.read_text())
        path.unlink()
        imports.append(doc["imports"])
        unmeasured.update(doc["unmeasured"])
        for raw in doc["spans"]:
            sp = tr.Span(*raw)
            merged.append(sp._replace(id=sp.id + next_id,
                                      parent=sp.parent + next_id if sp.parent else 0))
        next_id = max(sp.id for sp in merged)
    spans_dir.rmdir()
    return merged, imports, unmeasured


def _write_spans(args, spans, unmeasured) -> None:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps({"fields": list(tr.Span._fields),
                                "unmeasured": unmeasured,
                                "spans": [list(sp) for sp in spans]}))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--rounds", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
