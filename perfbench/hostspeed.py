"""A fixed reference task that measures how fast the host runs right now.

The baseline host is two cores of a shared machine whose speed drifts by half
or more over minutes: the same anneal workload took 25 s in one run and 38 s
in a run four minutes later. ``sample`` times a fixed task that uses no hpfold
code. run.py takes a sample before and after every timed call and rescales the
call's time to the host speed at which one sample takes ``NOMINAL_S`` seconds,
so that a run on a busy host and one on an idle host report alike. Samples
run in the benchmark's own process between calls, when no hpfold code runs
(workers=1), so a change to hpfold cannot slow the reference.

The task mixes the two kinds of work the pipeline does: an interpreter-bound
walk over lattice points kept in a set (like decoding and validating a fold)
and arithmetic on a small array (like the annealer and statevector sweeps).
Both kinds slow down alike when the host is busy.
"""

from __future__ import annotations

import gc
import time

import numpy as np

WALK_STEPS = 100_000
WALK_WINDOW = 500
ARRAY_PASSES = 1_200
# Median time of one sample on the baseline host (2-core Xeon, Python 3.11,
# numpy 2.4), taken between the solve calls of ten benchmark runs.
NOMINAL_S = 0.08

_DX = (1, 0, -1, 0)
_DY = (0, 1, 0, -1)


def _task() -> float:
    # Points are packed into ints, which the garbage collector does not track,
    # and the set is kept small, so that the task's time depends neither on
    # the objects nor on the cache lines the solve calls left behind.
    seen = set()
    x = y = revisits = 0
    for i in range(WALK_STEPS):
        if i % WALK_WINDOW == 0:
            seen.clear()
        step = (i * 7 + i // 3) % 4
        x += _DX[step]
        y += _DY[step]
        point = x * 1_000_003 + y
        revisits += point in seen
        seen.add(point)
    v = np.linspace(0.0, 1.0, 4096)
    for _ in range(ARRAY_PASSES):
        v = np.cos(v) * 0.5 + v * 0.5
    return revisits + float(v.sum())


def sample() -> float:
    """Seconds one run of the reference task takes now."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _task()
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


def scale(seconds: float, before: float, after: float) -> float:
    """``seconds`` rescaled to nominal host speed, given the samples around it."""
    return seconds * 2 * NOMINAL_S / (before + after)
