"""Order statistics and span arithmetic shared by the runner and the tracer.

Pure functions over plain lists, so they can be tested without running
any workload.
"""

from __future__ import annotations

import statistics


def percentile(values, q: float) -> float:
    """The q-th percentile (0 < q < 100) by linear interpolation between
    closest ranks, the convention of ``statistics.quantiles(method="inclusive")``.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile {q} outside [0, 100]")
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def samples_beyond(n: int, q: float) -> int:
    """How many of n samples lie strictly above the q-th percentile rank."""
    return n - 1 - int((n - 1) * q / 100.0)


def quartiles(values) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), as
    ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the time its direct child
    spans and the kernel calls folded into it cover.

    ``spans`` is a list of ``(name, start, end, parent, folded_s)`` where
    parent is the index of the enclosing span or None, and folded_s is the
    total time of the top-level kernel calls made directly inside the span.
    Spans come from one single-threaded call stack, so direct children never
    overlap and their durations add.
    """
    out = [end - start - folded for _name, start, end, _parent, folded in spans]
    for _name, start, end, parent, _folded in spans:
        if parent is not None:
            out[parent] -= end - start
    return out
