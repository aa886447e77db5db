"""Machine-speed calibration, so that timings repeat on a host whose speed drifts.

On a shared host the interpreter's speed wanders by a third over a few
minutes, with the load the other tenants put on it; that drift is wider
than any regression bound worth having.  Worse, the virtual CPUs drift
apart: on a two-CPU host one ran a fixed loop in 1.45 ms while the other
took 2.1 ms, and a process moves between them.  So the benchmark pins itself
and its children to one CPU, and a fixed pure-Python loop, timed on that
CPU between instances (never inside one), tracks its speed: over 25 s
windows of the same braids run again and again, their wall time spread 0.15
(quartile distance over median) and their wall time over the loop's 0.056.
Loops that allocate, multiply dictionary polynomials or chase pointers
through a large list tracked it no better.

Timings are therefore reported at the reference speed: a wall time ``t``
measured while the loop's median time was ``m`` is reported as
``t * NOMINAL_S / m``.  On a host whose speed holds still this is the wall
time times a constant; the loop does not touch strongpoly, so a change to
the program moves the scaled timings exactly as it moves the wall times.
"""

from __future__ import annotations

import os
import statistics
import time

#: Iterations of the calibration loop: about 2 ms of interpreter work.
LOOP_ITERATIONS = 20_000
#: The loop's time at the reference speed, the one reported timings assume.
NOMINAL_S = 0.002
#: Between instances, the loop runs again once this much time has passed,
#: so its samples are spread evenly over the run's wall time.
SAMPLE_EVERY_S = 0.05


def pin_to_one_cpu():
    """Keep this process, and the processes it starts, on the lowest-numbered
    CPU it may use, so the calibration loop times the CPU the work runs on."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def loop_seconds() -> float:
    """Wall time of one run of the calibration loop."""
    start = time.perf_counter()
    total = 0
    for i in range(LOOP_ITERATIONS):
        total += i * i % 7
    return time.perf_counter() - start


class Speed:
    """Samples of the calibration loop taken through a run."""

    def __init__(self):
        self.samples: list[float] = []
        self.last = float("-inf")

    def sample(self, times: int = 1):
        for _ in range(times):
            self.samples.append(loop_seconds())
        self.last = time.perf_counter()

    def maybe_sample(self):
        """Sample once if SAMPLE_EVERY_S has passed since the last sample."""
        if time.perf_counter() - self.last >= SAMPLE_EVERY_S:
            self.sample()

    def scale(self) -> float:
        """Factor that turns a wall time of this run into one at the reference
        speed: NOMINAL_S over the loop's median time."""
        if not self.samples:
            raise ValueError("no calibration samples")
        return NOMINAL_S / statistics.median(self.samples)
