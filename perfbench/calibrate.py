"""A fixed reference kernel that measures how fast the machine runs right now.

The benchmark's host shares its cores with other tenants, and its speed
for this kind of work (interpreter-bound Python over small numpy arrays)
swings by up to 1.9x within seconds. The swings hit the program and this
kernel alike and do not show in process CPU time, so each run times the
kernel all through every timed phase (every few tens of milliseconds of
set-up, training and evaluate() passes, after every request) and reports
every end-to-end time at the reference speed: scaled by REFERENCE_S over
the median of the kernel samples around it. Samples of a phase in
CPU_PHASES are timed by thread CPU time, as the timings they scale are.
The kernel is the benchmark's own code, so a change to the program under
test cannot move it.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

# About the median kernel time on the reference machine (see README.md).
REFERENCE_S = 0.002
# Samples on either side of a timing that give its local speed.
LOCAL_REACH = 3
# Phases timed by the thread's CPU time rather than by wall time.
CPU_PHASES = frozenset({"request"})

_rng = np.random.default_rng(0)
_X = _rng.random((64, 16))
_W1 = _rng.random((16, 16)) - 0.5
_W2 = _rng.random((16, 1)) - 0.5


class _Node:
    __slots__ = ("data", "parents")

    def __init__(self, data, parents=()):
        self.data = data
        self.parents = parents


def kernel() -> float:
    """Small-array numpy ops, object and dict churn: the program's mix."""
    acc = 0.0
    for _ in range(100):
        h = _Node(np.maximum(_X @ _W1, 0.0))
        o = _Node(1.0 / (1.0 + np.exp(-(h.data @ _W2))), (h,))
        acc += float((o.data * (1.0 - o.data)).sum())
        rows = [{"k": j, "v": j * 0.5} for j in range(12)]
        acc += sum(r["v"] for r in rows)
    return acc


class Calibration:
    """Kernel samples taken over one run, by the phase they fall in."""

    def __init__(self):
        self.samples: dict[str, list[float]] = {}

    def sample(self, phase: str, calls: int = 1) -> None:
        clock = time.thread_time if phase in CPU_PHASES else time.perf_counter
        for _ in range(calls):
            start = clock()
            kernel()
            self.samples.setdefault(phase, []).append(clock() - start)

    def mark(self, phase: str) -> int:
        """Position of the next sample, to find the ones around a timing."""
        return len(self.samples.get(phase, ()))

    def factor(self, phase: str, at: int | None = None) -> float:
        """Multiply a time measured in `phase` by this to get it at the
        reference speed: over the whole phase, or, for a timing made at
        mark `at`, over the LOCAL_REACH samples on either side of it."""
        samples = self.samples[phase]
        if at is not None:
            samples = samples[max(0, at - LOCAL_REACH):at + LOCAL_REACH]
        return REFERENCE_S / statistics.median(samples)

    @contextmanager
    def every(self, seconds: float, phase: str, stretches: list):
        """Take one sample every `seconds` of wall time inside the block,
        from a timer signal, so the block's code needs no hooks.

        Appends to `stretches` a (seconds, mark) pair for each stretch of
        time between samples, from entering the block to leaving it, so
        that every stretch can be scaled by the speed around it. Kernel
        time falls between stretches, never inside one.
        """
        since = time.perf_counter()
        busy = False

        def on_timer(signum, frame):
            nonlocal since, busy
            if busy:  # a tick that arrives while sampling is dropped
                return
            busy = True
            stretches.append((time.perf_counter() - since, self.mark(phase)))
            self.sample(phase)
            since = time.perf_counter()
            busy = False

        previous = signal.signal(signal.SIGALRM, on_timer)
        signal.setitimer(signal.ITIMER_REAL, seconds, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            stretches.append((time.perf_counter() - since, self.mark(phase)))
