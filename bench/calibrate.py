"""Machine-speed calibration for the benchmark's time metrics.

Shared machines change speed by up to 2x within seconds as neighbours come
and go, which no length of run averages out.  The benchmark therefore runs
a fixed pure-Python task between timed steps and scales each step's time
by NOMINAL_S[task] / (time the task took around that step), raised to the
workload's calibration exponent.  Time metrics are thus stated at the
speed of a machine on which the tasks take NOMINAL_S, their quiet-period
times on the 2-core x86-64 box (Python 3.11) the benchmark was tuned on.  At a fixed machine speed the factor is
constant, so a faster or slower program moves the scaled time exactly as
it moves the raw one.  Raw times are kept in the result record.

Neighbours slow some work more than other work, so each workload names the
task that slowed most like its ops over 90 s runs on that box: `memory`
(random reads from a 4 MiB table) for the chain search over many small
objects, `bigint` (big-integer products and an interpreter loop) for the
others.  Op times correlated 0.85-0.95 with the matching task.  The chain
search slows by the memory task's factor to the power 0.8 (the log-log
slope over twenty 25 s runs), so `chains` raises the factor to that power;
the others use it as it is.  Process start-up (setup_s, CLI ops) follows
the task only loosely; scaling it by the median of several tasks around it
still narrowed the spread a little.  What the tasks do not track remains:
expect run-to-run spreads of 5-15% on a busy shared machine.
"""

from __future__ import annotations

import functools
import random
import statistics
from time import perf_counter

NOMINAL_S = {"bigint": 0.0015, "memory": 0.003}


def _bigint() -> None:
    total = 0
    table = {}
    for k in range(6000):
        total += k * k
        table[k & 127] = total & 0xFFFF
    x = 3**1500
    for _ in range(40):
        x = (x * x) % (7**1000 + 3)


@functools.cache
def _memory_table() -> tuple[list[int], list[int]]:
    rng = random.Random(7)
    size = 1 << 19  # pointers to cached small ints: 4 MiB, past L2
    return [i & 255 for i in range(size)], [rng.randrange(size) for _ in range(40000)]


def _memory() -> None:
    table, reads = _memory_table()
    total = 0
    for i in reads:
        total += table[i]


_TASKS = {"bigint": _bigint, "memory": _memory}


def calibrate(task: str) -> float:
    """Seconds the fixed task takes now."""
    run = _TASKS[task]
    start = perf_counter()
    run()
    return perf_counter() - start


def scale(task: str, samples: list[float]) -> float:
    """Factor that turns a time taken among these calibration samples into nominal time."""
    return NOMINAL_S[task] / statistics.median(samples)
