"""The harness's own arithmetic: percentiles, open-loop timing, span self
time and failure accounting.

Pure functions over plain numbers, so ``test_stats.py`` can pin every rule
the metrics in ``README.md`` are defined by.
"""

from __future__ import annotations

import math
import statistics

#: Tail percentiles, highest first; the tail is the first one that leaves
#: at least :data:`TAIL_MIN_BEYOND` samples above it.
TAIL_PERCENTILES = (99, 95, 90)
TAIL_MIN_BEYOND = 10


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``pct``
    per cent of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(count: int, pct: float) -> int:
    """How many of ``count`` samples rank above the nearest-rank ``pct``."""
    return count - max(1, math.ceil(pct / 100 * count))


def tail(values: list[float]) -> tuple[float, str, int]:
    """``(value, label, beyond)`` for the highest of p99/p95/p90 that has at
    least ten samples beyond it.  With fewer than 100 samples none does,
    and the tail falls back to the maximum, labelled ``p100``."""
    for pct in TAIL_PERCENTILES:
        beyond = samples_beyond(len(values), pct)
        if beyond >= TAIL_MIN_BEYOND:
            return percentile(values, pct), f"p{pct}", beyond
    return max(values), "p100", 0


def median(values: list[float]) -> float:
    return statistics.median(values)


# ----------------------------------------------------------- open loop
def open_loop_latency(due: float, done: float) -> float:
    """Latency of an open-loop operation: from when it was due to be sent,
    not from when it was sent, so a stall also charges the requests queued
    behind it."""
    return done - due


def lateness(due: float, sent: float) -> float:
    """How late the generator sent an operation (never negative)."""
    return max(0.0, sent - due)


def schedule(rate: float, seconds: float, start: float = 0.0) -> list[float]:
    """Due times of a fixed-rate open loop: ``floor(rate * seconds)``
    operations evenly spaced from ``start``."""
    count = int(rate * seconds)
    return [start + i / rate for i in range(count)]


# ------------------------------------------------------------- spans
def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``;
    overlapping intervals count once."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)
    )
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in clipped:
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_time(start: float, end: float,
              children: list[tuple[float, float]]) -> float:
    """A span's duration minus the part of it its child spans cover."""
    return (end - start) - covered(children, start, end)


# ---------------------------------------------------------- failures
def is_failure(status) -> bool:
    """An operation failed or was refused: an exception (``None``), an
    HTTP status of 400 or more (429 included), or a job status other
    than ``done``."""
    if status is None:
        return True
    if isinstance(status, int):
        return status >= 400
    return status != "done"


def failed_frac(statuses: list) -> float:
    """Failed or refused operations over operations attempted."""
    if not statuses:
        return 0.0
    return sum(1 for s in statuses if is_failure(s)) / len(statuses)


def slo_frac(latencies: list[float | None], limit: float) -> float:
    """Share of operations answered within ``limit``; a failed or refused
    operation (latency ``None``) counts as a miss."""
    if not latencies:
        return 0.0
    return sum(1 for v in latencies if v is not None and v <= limit) / len(
        latencies
    )
