"""Machine-speed reference timed between ops, and the rescaling it allows.

The reference machine (2 shared vCPUs) runs 10-35 % faster or slower for
seconds to minutes at a time, whatever the program does, because other
tenants share its cores.  Across ten runs that drift spreads the op times
of one workload by 0.2-0.3 of their median, beyond the widest bound worth
setting.  So a fixed reference task that runs no meanbounds code (a scalar
Python loop, small and large numpy element-wise calls) is timed between
ops, about every ``SAMPLE_EVERY_S`` of op time, and each op's wall time is
multiplied by ``NOMINAL_S`` over the reference time around it.  The result
is the op's time on the reference machine at its nominal speed.  The
program cannot move the factor: the task shares no code with it and never
overlaps an op."""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# The speed can swing by up to 2x within a second, so the reference is
# sampled often (after every op of 25 ms or more) and smoothed little: a
# running median over three samples drops a lone outlier.  Rescaling the
# same six runs (seeds 1-6, 2 vCPUs) both ways, the spread of sweep_bisect's
# op_ms.p90 fell from 0.089 to 0.062 and that of certify_tree's ops_per_s
# from 0.096 to 0.045 against one sample per 0.1 s smoothed over nine.
SAMPLE_EVERY_S = 0.025
HALF_WINDOW = 1
# Typical reference time on the reference machine (Intel Xeon at 2.1 GHz,
# 2 vCPUs, Python 3.11, numpy 2.4) between ops.  It only fixes the unit;
# any constant would do for comparing two commits.
NOMINAL_S = 0.9e-3

_SMALL = np.linspace(1e-3, 0.99, 512)
_LARGE = np.linspace(1e-3, 0.99, 8192)


def reference_task() -> float:
    """Interpreter-bound scalar work, per-call-bound small numpy calls and
    throughput-bound large ones, in roughly equal parts of ~1 ms."""
    acc = 0.0
    for i in range(1000):
        x = (i + 0.5) / 1000.0
        acc += math.log1p(x) * math.nextafter(x, 2.0) - (x, acc)[0] * 0.25
    for _ in range(25):
        acc += float(np.where(_SMALL < 0.5, np.log1p(_SMALL), np.arctanh(_SMALL)).min())
    for _ in range(5):
        acc += float(np.log1p(_LARGE).sum() + np.arctanh(_LARGE).sum())
    return acc


def sample(repeats: int = 3) -> float:
    """Median wall time of ``repeats`` runs of the reference task."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        reference_task()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def smooth(ref: np.ndarray, half_window: int) -> np.ndarray:
    """Running median over ``2 * half_window + 1`` samples, cut at the ends."""
    return np.array([np.median(ref[max(0, k - half_window):k + half_window + 1])
                     for k in range(ref.size)])


def rescale(op_s, samples: list[tuple[int, float]], nominal: float = NOMINAL_S,
            half_window: int = HALF_WINDOW) -> np.ndarray:
    """Each op time times ``nominal`` over the reference time around it.

    ``samples`` holds ``(ops done when taken, reference seconds)`` in order,
    starting at 0 ops and ending at ``len(op_s)``.  The reference time of an
    op is the mean of the smoothed samples just before and just after it;
    the running median keeps one noisy sample from moving single ops, which
    would otherwise widen the tails that op_ms.p90 reads.
    """
    op_s = np.asarray(op_s, dtype=float)
    taken_at = np.array([k for k, _ in samples])
    ref = smooth(np.array([t for _, t in samples]), half_window)
    before = np.searchsorted(taken_at, np.arange(op_s.size), side="right") - 1
    return op_s * nominal / (0.5 * (ref[before] + ref[before + 1]))
