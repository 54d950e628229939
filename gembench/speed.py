"""Rescale wall times of in-process work to a fixed reference machine speed.

The shared machines this benchmark runs on change speed by up to 2x within
seconds, and `time.process_time` moves with wall time (the slowdown is not
steal time). A fixed pure-Python task, timed between the ops on the same CPU
(`pin_to_one_cpu`), slows down by the same factor, so

    rescaled = wall * REF_NOMINAL_S / (reference time measured around it)

is the op's wall time on a machine that runs the reference in exactly
REF_NOMINAL_S. On a 2-vCPU x86-64 VM, 5 s slices of one membership test
ranged 80..165 ms while their ratio to the reference stayed within 10%, and
over five `screen` runs the spreads (interquartile range over median) of
throughput and p90 latency fell from 0.09 and 0.13 to 0.02.

Work in child interpreters does not slow down with this task: over five runs
of `gemfree` CLI calls in child interpreters, their median wall time doubled
from one run to the next while this task's stayed at 1.4..1.6 ms, and a bare
`python -c pass` tracked them in some runs but not in others. So every op
runs in this process, and the child `import gemfree` in setup_s is rescaled
by a child `import networkx` instead (run.setup_import_s).
"""

from __future__ import annotations

import bisect
import os
import statistics
import time
from typing import Any, Callable

REF_NOMINAL_S = 0.002  # about python_work's wall time on a 2-vCPU x86-64 VM
REF_EVERY_S = 0.02  # time ops at least this long between two reference samples
REF_WINDOW = 4  # an op is rescaled by the mean of the 2 * REF_WINDOW + 1 nearest samples


def python_work() -> int:
    """Fixed bitset, loop and dict work, the kind of code gemfree is made of."""
    adj = [((i * 2654435761) >> 3) & 0xFFFFFF for i in range(24)]
    acc = 0
    for _ in range(12):
        for a in adj:
            for j in range(24):
                if a >> j & 1:
                    acc += bin(a & adj[j]).count("1")
    counts: dict[int, int] = {}
    for k in range(600):
        counts[k % 97] = counts.get(k % 97, 0) + k
    return acc + len(counts)


def reference_time() -> float:
    t0 = time.perf_counter()
    python_work()
    return time.perf_counter() - t0


def pin_to_one_cpu() -> None:
    """Run this process, and the children it starts, on one CPU."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class SpeedLog:
    """Reference samples taken between the ops of a closed loop.

    Call `after(i, elapsed)` after op i; a sample is taken whenever the ops
    since the last sample took REF_EVERY_S, so short and long ops alike are
    rescaled by samples from within a few seconds of them.
    """

    def __init__(self) -> None:
        self.after_op: list[int] = []  # sample k was taken after op after_op[k]
        self.ref_s: list[float] = []
        self._owed = 0.0

    def sample(self, op_index: int) -> None:
        self.ref_s.append(reference_time())
        self.after_op.append(op_index)

    def after(self, op_index: int, elapsed: float) -> None:
        self._owed += elapsed
        if self._owed >= REF_EVERY_S:
            self._owed = 0.0
            self.sample(op_index)

    def rescale(self, walls: list[float]) -> list[float]:
        """Each op's wall time at the reference speed."""
        if not self.ref_s:
            raise ValueError("no reference samples taken")
        k = len(self.ref_s)
        local = [statistics.fmean(self.ref_s[max(0, j - REF_WINDOW):j + REF_WINDOW + 1])
                 for j in range(k)]
        out = []
        for i, wall in enumerate(walls):
            j = min(bisect.bisect_left(self.after_op, i), k - 1)  # first sample after op i
            out.append(wall * REF_NOMINAL_S / local[j])
        return out


def timed(fn: Callable[[], Any], repeats: int) -> list[float]:
    """Wall times of `repeats` calls of fn, each rescaled by the median of
    three reference samples taken just before and three just after it."""
    out = []
    for _ in range(repeats):
        before = [reference_time() for _ in range(3)]
        t0 = time.perf_counter()
        fn()
        wall = time.perf_counter() - t0
        ref = statistics.median(before + [reference_time() for _ in range(3)])
        out.append(wall * REF_NOMINAL_S / ref)
    return out
