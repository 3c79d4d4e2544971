"""Layer spans recorded from outside the program.

:func:`install` wraps each public call named in ``README.md`` ("Layers")
and rebinds every module attribute that still points at the original, so
callers that imported the name into their own module see the wrapper too.
The batch engine forks its workers after :func:`install`, so they inherit
the wrappers; each worker spools its spans to a file when it exits and
:meth:`Tracer.collect` merges them.

Spans stay in memory until collected.  A span is
``[pid, id, parent id, layer, start, end]``; its parent is the innermost
open span of the same thread.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

from stats import self_time

#: Spans that open a job: time inside them not covered by a layer span is
#: the job's unattributed remainder.
JOB_ROOT = "job"

#: Search query classes, by clause prefix (anything else is free text).
SEARCH_CLASSES = ("host", "path", "field", "like")


def search_class(query: str) -> str:
    prefix = query.split(":", 1)[0] if ":" in query else ""
    return prefix if prefix in SEARCH_CLASSES else "text"


class Tracer:
    """Span and count sink shared by every wrapper in one process."""

    def __init__(self, spool_dir: Path) -> None:
        self.spool_dir = Path(spool_dir)
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._count_lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ spans
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer, fn, on_result=None):
        """``fn`` timed as a span of ``layer`` (a name, or a callable of the
        call's arguments returning one); ``on_result(result, args, kwargs)``
        may add counts."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = layer(*args, **kwargs) if callable(layer) else layer
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append([os.getpid(), sid, parent, name, start, end])
            if on_result is not None:
                on_result(result, args, kwargs)
            return result

        wrapper.__perfbench_original__ = fn
        return wrapper

    def count(self, name: str, amount: float = 1) -> None:
        with self._count_lock:  # daemon request and worker threads share counts
            self.counts[name] += amount

    # ---------------------------------------------------------- patching
    def patch_attr(self, owner, attr: str, layer, on_result=None) -> None:
        """Wrap ``owner.attr`` and rebind every ``repro`` module attribute
        that is the same object."""
        original = getattr(owner, attr)
        wrapper = self.wrap(layer, original, on_result)
        self._set(owner, attr, wrapper)
        if isinstance(owner, type):
            return
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "") or ""
            if module is owner or not (name == "repro" or name.startswith("repro.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._set(module, key, wrapper)

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # ------------------------------------------------------- processes
    def reset(self) -> None:
        self.spans = []
        self.counts = defaultdict(float)
        self._local = threading.local()
        self._count_lock = threading.Lock()

    def spool(self) -> None:
        """Write this process's spans and counts (a batch worker at exit)."""
        self.spool_dir.mkdir(parents=True, exist_ok=True)
        path = self.spool_dir / f"spans-{os.getpid()}-{time.monotonic_ns()}.json"
        path.write_text(json.dumps({"spans": self.spans, "counts": self.counts}))

    def collect(self) -> None:
        """Merge and delete the spool files of exited workers."""
        if not self.spool_dir.is_dir():
            return
        for path in sorted(self.spool_dir.glob("spans-*.json")):
            data = json.loads(path.read_text())
            self.spans.extend(data["spans"])
            for name, amount in data["counts"].items():
                self.counts[name] += amount
            path.unlink()


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary (see ``README.md``, "Layers")."""
    import repro.apk.loader as loader
    import repro.cfg.callgraph as callgraph
    import repro.core.extractocol as extractocol
    import repro.core.report as report
    import repro.deps.interdep as interdep
    import repro.deps.transactions as transactions
    import repro.fleetindex.docs as docs
    import repro.fleetindex.index as fleetindex
    import repro.fleetindex.query as query
    import repro.incr.manifest as manifest
    import repro.ir.fingerprint as fingerprint
    import repro.perf.index as perf_index
    import repro.semantics.async_model as async_model
    import repro.service.api as api
    import repro.service.jobs as jobs
    import repro.service.shard as shard
    import repro.service.store as store
    import repro.signature.builder as builder
    import repro.slicing.slicer as slicer
    import repro.taint.engine as engine
    from repro.core.config import AnalysisConfig

    patch = tracer.patch_attr
    count = tracer.count

    # job roots: one batch entry in a shard worker, one daemon job attempt
    patch(shard, "_process_item", JOB_ROOT)
    patch(jobs.JobScheduler, "_run_job", JOB_ROOT)

    patch(jobs, "resolve_target", "apk.build")
    patch(api.AnalysisService, "_load_bundle", "apk.build")
    patch(loader, "apk_digest", "apk.digest")
    patch(AnalysisConfig, "cache_key", "apk.digest")

    patch(callgraph, "build_callgraph", "cfg.callgraph")
    patch(async_model, "discover_callbacks", "semantics.callbacks")
    patch(async_model, "compute_event_roots", "semantics.event_roots")
    patch(perf_index.ProgramIndex, "__init__", "perf.index",
          lambda r, a, k: count("perf.index_builds"))
    patch(slicer.NetworkSlicer, "scan", "slicing.scan",
          lambda r, a, k: count("slicing.dps", len(r)))
    patch(slicer.NetworkSlicer, "slice_dp", "slicing.augment")
    patch(engine.TaintEngine, "backward_slice", "taint.backward")
    patch(engine.TaintEngine, "forward_slice", "taint.forward")
    patch(builder.SignatureInterpreter, "run", "signature.interp",
          lambda r, a, k: count("signature.methods_evaluated",
                                len(r.evaluated_methods)))
    patch(transactions, "from_record", "deps.pairing")
    patch(interdep, "infer_dependencies", "deps.interdep")
    patch(extractocol.Extractocol, "analyze", "core.analyze")

    patch(manifest, "build_manifest", "incr.manifest")
    patch(store.ResultStore, "put_manifest", "incr.manifest")
    patch(fingerprint, "fingerprint_program", "ir.fingerprint")

    patch(report, "report_to_dict", "core.serialize")
    patch(docs, "report_summary", "fleetindex.summary")
    patch(store.ResultStore, "put", "service.store_put")

    def landed(key, args, kwargs):
        root = Path(args[0].root)
        for path in (args[0].path_for(key),
                     fleetindex.pending_dir(root) / f"{key}.json"):
            try:
                count("service.store_bytes", path.stat().st_size)
            except OSError:
                pass

    patch(store.ResultStore, "put_envelope", "service.store_put", landed)
    patch(store.ResultStore, "get", "service.store_get")
    patch(fleetindex, "write_pending_delta", "fleetindex.pending_delta")

    def refreshed(index, args, kwargs):
        count("fleetindex.refresh_calls")
        count("fleetindex.pending_docs", index.pending_count)

    patch(fleetindex.FleetIndex, "refresh", "fleetindex.refresh", refreshed)
    patch(query, "run_search",
          lambda index, q, **kw: f"fleetindex.search_{search_class(q)}")
    patch(api.AnalysisService, "handle_search", "service.api_search")
    patch(api.AnalysisService, "handle_analyze", "service.api_analyze")

    fsync = os.fsync

    def counted_fsync(fd):
        if tracer._stack():  # inside a job or request, not the set-up's index fold
            count("service.fsyncs")
        return fsync(fd)

    tracer._set(os, "fsync", counted_fsync)

    worker = shard._shard_worker

    def spooling_worker(*args, **kwargs):
        tracer.reset()
        try:
            return worker(*args, **kwargs)
        finally:
            tracer.spool()

    tracer._set(shard, "_shard_worker", spooling_worker)


# ---------------------------------------------------------- attribution
def layer_self_times(spans: list[list], roots=None) -> tuple[dict, dict, dict]:
    """Aggregate spans into ``(self seconds by layer, span count by layer,
    wall seconds by layer)``; with ``roots``, only spans under a top-level
    span of one of those layers count."""
    children: dict[tuple[int, int], list[tuple[float, float]]] = defaultdict(list)
    by_id = {(pid, sid): (parent, name) for pid, sid, parent, name, _s, _e in spans}
    for pid, _sid, parent, _name, start, end in spans:
        if parent:
            children[(pid, parent)].append((start, end))

    def top(pid: int, sid: int) -> str:
        parent, name = by_id[(pid, sid)]
        while parent and (pid, parent) in by_id:
            parent, name = by_id[(pid, parent)]
        return name

    selfs: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    walls: dict[str, float] = defaultdict(float)
    for pid, sid, _parent, name, start, end in spans:
        if roots is not None and top(pid, sid) not in roots:
            continue
        selfs[name] += self_time(start, end, children.get((pid, sid), []))
        calls[name] += 1
        walls[name] += end - start
    return dict(selfs), dict(calls), dict(walls)
