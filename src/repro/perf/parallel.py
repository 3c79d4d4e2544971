"""Executor knobs and the deterministic thread map.

Parallelism happens across apps only: the batch engines
(:mod:`repro.service.jobs`, :mod:`repro.service.shard`), ``repro eval``
and the fleet-index build size themselves with :func:`resolve_workers`
and pick an engine with :func:`resolve_executor`:

* ``"serial"`` — a plain loop;
* ``"thread"`` — a thread pool;
* ``"process"`` — worker processes (the sharded batch engine);
* ``"auto"`` — :func:`default_executor`: process where fork is available,
  thread otherwise.

:func:`run_map` applies ``fn`` to each item and returns results **in input
order**.  It accepts an optional ``span`` (see :mod:`repro.obs.tracer`):
when given, each work item gets a ``<label>-<i>`` child span carrying its
wall time, created after the pool drains, in input order, so traced runs
stay deterministic regardless of scheduling.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from typing import Callable, Iterable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

#: Executor names accepted by configs and CLIs ("auto" resolves at run time).
EXECUTORS = ("auto", "serial", "thread", "process")


def usable_cpus() -> int:
    """The number of cores *this process may run on* — the scheduler
    affinity mask where the platform exposes one (containers and
    cgroup-limited hosts often pin far fewer cores than the machine
    has), falling back to ``os.cpu_count``."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def resolve_workers(workers: int | None) -> int:
    """Normalize a worker-count knob: ``None``/``0`` means one worker per
    *usable* CPU, negative values are clamped to 1."""
    if not workers:
        return usable_cpus()
    return max(1, workers)


def fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


def default_executor() -> str:
    """The executor ``"auto"`` resolves to: ``process`` where fork is
    available (workers inherit program state for free), ``thread``
    elsewhere (spawn shipment costs are only worth paying when explicitly
    requested)."""
    return "process" if fork_available() else "thread"


def resolve_executor(executor: str | None) -> str:
    """Map an executor knob to a concrete engine name."""
    if not executor or executor == "auto":
        return default_executor()
    if executor not in ("serial", "thread", "process"):
        raise ValueError(
            f"unknown executor {executor!r}; choose one of {EXECUTORS}"
        )
    return executor


_fallback_warned = False


def note_executor_fallback(reason: str) -> None:
    """Record a process→thread executor degradation: bump the
    ``executor_fallbacks`` counter on the global metrics registry and warn
    once per process, so a batch that lost its process engine says so."""
    global _fallback_warned
    from ..obs.metrics import global_registry

    global_registry().counter("executor_fallbacks").inc()
    if not _fallback_warned:
        _fallback_warned = True
        warnings.warn(
            f"process executor unavailable ({reason}); falling back to "
            f"threads — expect GIL-bound scaling",
            RuntimeWarning,
            stacklevel=3,
        )


def _timed_call(fn: Callable[[T], R], item: T) -> tuple[R, float]:
    t0 = time.perf_counter()
    result = fn(item)
    return result, time.perf_counter() - t0


def _record_worker_spans(span, timed: list[tuple[R, float]], label: str) -> list[R]:
    """Unwrap (result, seconds) pairs, emitting one child span per item in
    input order (deterministic paths: ``<label>-1``, ``<label>-2``, ...)."""
    results: list[R] = []
    for i, (result, secs) in enumerate(timed, 1):
        child = span.child(f"{label}-{i}")
        child.seconds = secs
        results.append(result)
    return results


def thread_map(
    fn: Callable[[T], R],
    items: Sequence[T],
    *,
    workers: int,
    span=None,
    label: str = "worker",
) -> list[R]:
    with ThreadPoolExecutor(max_workers=min(workers, len(items))) as pool:
        if span is None or not span:
            return list(pool.map(fn, items))
        timed = list(pool.map(partial(_timed_call, fn), items))
    return _record_worker_spans(span, timed, label)


def run_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    *,
    workers: int = 1,
    span=None,
    label: str = "worker",
) -> list[R]:
    """Apply ``fn`` over ``items``, preserving input order: a plain loop
    for one worker, else a thread pool clamped to the usable core count
    (more GIL-bound threads than cores only add convoy overhead)."""
    seq = list(items)
    width = min(resolve_workers(workers), usable_cpus(), len(seq))
    if width > 1:
        return thread_map(fn, seq, workers=width, span=span, label=label)
    if span is None or not span:
        return [fn(item) for item in seq]
    return _record_worker_spans(span, [_timed_call(fn, item) for item in seq], label)


__all__ = [
    "EXECUTORS",
    "default_executor",
    "fork_available",
    "note_executor_fallback",
    "resolve_executor",
    "resolve_workers",
    "run_map",
    "thread_map",
    "usable_cpus",
]
