"""The repository benchmark: one command, two workloads.

    python3 perfbench/run.py --workload corpus-cold --seed 7 --seconds 50 --trace 0

Run from the root of a checkout.  ``--trace 0`` measures the end-to-end
metrics; ``--trace 1`` measures half the time untraced and, after a
fresh set-up, half traced, and reports the per-layer metrics.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
See ``perfbench/README.md`` for every metric's definition.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("corpus-cold", "daemon-mixed")
#: set-ups per run; ``setup_s`` is their median
SETUP_REPEATS = 3


def host_fingerprint(src: Path) -> dict:
    """Usable CPUs, python, platform and the commit (or, outside a git
    checkout, a digest of the sources)."""
    commit = "unknown"
    head = Path(".git/HEAD")
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = Path(".git") / ref[5:]
            ref = ref_path.read_text().strip() if ref_path.is_file() else ref
        commit = ref[:12]
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return {
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit,
        "source_sha256": digest.hexdigest()[:12],
    }


def cpu_ticks() -> tuple[int, int]:
    """``(steal, total)`` CPU ticks of the whole host so far, from
    ``/proc/stat``: steal is time this guest's CPUs waited on other guests."""
    fields = [int(v) for v in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


#: A timed phase that lost more than this share of CPU time to other
#: guests is flagged: its timings are not comparable with calm runs.
STEAL_WARN = 0.05


def end_to_end(tally, setup_times: list[float], slo_s: float) -> tuple[dict, dict]:
    """``(metrics, details)``: the end-to-end metrics of one measuring
    phase and the facts printed beside them."""
    import stats

    jobs_ms = [v * 1000 for v in tally.job_latency]
    job_tail, job_pct, job_beyond = stats.tail(jobs_ms)
    answered = [v * 1000 for v in tally.search_latency if v is not None]
    # corpus-cold takes its search tail over each probe query's fastest time
    tail_of = ([v * 1000 for v in tally.search_best if v is not None]
               if tally.search_best else answered)
    search_tail, search_pct, search_beyond = stats.tail(tail_of)
    metrics = {
        "setup_s": (stats.median(setup_times), "s"),
        "apps_per_s": (tally.apps_per_s(), "1/s"),
        "job_p50_ms": (stats.median(jobs_ms), "ms"),
        "job_tail_ms": (job_tail, "ms"),
        "search_p50_ms": (stats.median(answered), "ms"),
        "search_tail_ms": (search_tail, "ms"),
        "search_slo_frac": (stats.slo_frac(tally.search_latency, slo_s), "frac"),
        "correct_frac": (tally.correct / tally.checked, "frac"),
        "peak_rss_mb": (tally.peak_rss_mb, "MB"),
    }
    details = {
        "failed_frac": stats.failed_frac(tally.statuses),
        "job_tail": f"{job_pct} of {len(jobs_ms)} jobs ({job_beyond} beyond)",
        "search_tail": (f"{search_pct} of {len(tail_of)} searches "
                        f"({search_beyond} beyond)"),
        "pass_s": [round(s, 3) for s in tally.pass_walls],
        "setup_runs_s": [round(s, 4) for s in setup_times],
    }
    return metrics, details


#: Per-job layers, in pipeline order.
JOB_LAYERS = (
    "apk.build", "apk.digest", "service.store_get", "cfg.callgraph",
    "semantics.callbacks", "semantics.event_roots", "perf.index",
    "slicing.scan", "taint.backward", "taint.forward", "slicing.augment",
    "signature.interp", "deps.pairing", "deps.interdep", "core.analyze",
    "incr.manifest", "ir.fingerprint", "core.serialize", "fleetindex.summary",
    "service.store_put", "fleetindex.pending_delta",
)
PER_JOB_COUNTS = ("perf.index_builds", "slicing.dps", "signature.methods_evaluated",
                  "service.fsyncs", "service.store_bytes")


def per_layer(tracer, tally, untraced_rate: float) -> tuple[dict, list]:
    """``(metrics, table rows)`` of one traced phase."""
    from spans import JOB_ROOT, layer_self_times
    from workloads import QUERY_CLASSES

    # job layers count inside jobs only (on the daemon the HTTP side of an
    # analysis runs before its job); search layers count everywhere
    selfs, calls, walls = layer_self_times(
        tracer.spans, roots={JOB_ROOT, "service.api_analyze"})
    every_self, every_call, every_wall = layer_self_times(tracer.spans)
    jobs = max(calls.get(JOB_ROOT, 0), 1)
    metrics: dict[str, tuple[float, str]] = {}
    for layer in JOB_LAYERS:
        name = "core.analyze_self_s" if layer == "core.analyze" else f"{layer}_s"
        metrics[name] = (selfs.get(layer, 0.0) / jobs, "s/job")
    for name in PER_JOB_COUNTS:
        metrics[name] = (tracer.counts.get(name, 0.0) / jobs, "count/job")
    for cls in QUERY_CLASSES:
        layer = f"fleetindex.search_{cls}"
        metrics[f"{layer}_s"] = (
            every_wall.get(layer, 0.0) / max(every_call.get(layer, 0), 1), "s/search")
    searches = max(len(tally.search_latency), 1)
    refreshes = every_call.get("fleetindex.refresh", 0)
    metrics["fleetindex.refresh_s"] = (
        every_wall.get("fleetindex.refresh", 0.0) / searches, "s/search")
    metrics["fleetindex.refresh_calls"] = (refreshes / searches, "count/search")
    metrics["fleetindex.pending_docs"] = (
        tracer.counts.get("fleetindex.pending_docs", 0.0) / max(refreshes, 1), "count")
    api = ("service.api_search", "service.api_analyze")
    metrics["service.api_s"] = (
        sum(every_self.get(n, 0.0) for n in api)
        / max(sum(every_call.get(n, 0) for n in api), 1), "s/request")
    metrics["service.worker_busy_frac"] = (walls.get(JOB_ROOT, 0.0) / tally.busy_wall, "frac")
    metrics["service.work_steals"] = (tally.steals / len(tally.pass_walls), "count/pass")
    metrics["service.queue_wait_ms"] = (
        1000 * sum(tally.queue_wait) / len(tally.queue_wait) if tally.queue_wait else 0.0,
        "ms")
    metrics["bench.generator_late_ms"] = (
        1000 * sum(tally.late) / len(tally.late) if tally.late else 0.0, "ms")

    # job wall: the job roots plus, on the daemon, the HTTP side of each
    # analysis (its apk.build, digest and cache check run before the job)
    job_wall = walls.get(JOB_ROOT, 0.0) + walls.get("service.api_analyze", 0.0)
    unattributed = selfs.get(JOB_ROOT, 0.0)
    metrics["job.unattributed_frac"] = (unattributed / job_wall if job_wall else 0.0,
                                        "frac")
    traced_rate = tally.apps_per_s()
    metrics["bench.tracing_overhead_apps_per_s"] = (traced_rate - untraced_rate, "1/s")

    rows = [(layer, selfs.get(layer, 0.0)) for layer in JOB_LAYERS]
    rows.append(("service.api_analyze", selfs.get("service.api_analyze", 0.0)))
    rows.append(("(unattributed)", unattributed))
    rows.append(("= job wall", job_wall))
    return metrics, rows


def print_table(rows: list, workload: str) -> None:
    total = rows[-1][1] or 1.0
    print(f"layer self time vs job wall, {workload} (traced run)")
    for name, seconds in rows:
        print(f"  {name:28s} {seconds:10.4f} s  {100 * seconds / total:6.2f} %")
    attributed = sum(s for _n, s in rows[:-2])
    print(f"  {'sum of layers':28s} {attributed:10.4f} s  {100 * attributed / total:6.2f} %")


def emit(metrics: dict, tally_list: list) -> None:
    import stats

    attempted = sum(len(t.statuses) for t in tally_list)
    failed = sum(1 for t in tally_list for s in t.statuses if stats.is_failure(s))
    correct = all(
        t.checked and t.correct + sum(t.known.values()) == t.checked for t in tally_list
    )
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = Path("src")
    if not (src / "repro" / "__init__.py").is_file():
        print("perfbench: run from the root of a checkout (no src/repro here)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src.resolve()))
    sys.path.insert(0, str(HERE))
    import spans
    import workloads
    from keepawake import KeepAwake

    settings = json.loads((HERE / "settings.json").read_text())
    print("parameters: " + json.dumps(
        {"setup_repeats": SETUP_REPEATS, **workloads.PARAMETERS,
         **{k: v for k, v in settings.items() if k != "host"}}, sort_keys=True))
    pinned = json.loads((HERE / "pinned.json").read_text())
    host = host_fingerprint(src)
    print("host: " + json.dumps(host, sort_keys=True))
    recorded = settings["host"]
    drift = {k: (v, host[k]) for k, v in recorded.items() if host.get(k) != v}
    if drift:
        print("=" * 72 + "\nWARNING: this host differs from the one the baseline was "
              f"recorded on: {drift}\nCompare results only against runs on this "
              "host.\n" + "=" * 72, file=sys.stderr)

    workdir = Path(".perfbench_work") / f"{args.workload}-{os.getpid()}"
    (workdir / "tmp").mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str((workdir / "tmp").resolve())  # uploads spool here
    # from the first set-up to the end of timing
    with KeepAwake() as awake:
        if args.workload == "daemon-mixed":
            workload = workloads.DaemonWorkload(workdir, args.seed, pinned,
                                                settings["daemon_mixed"], awake.pids)
        else:
            workload = workloads.BatchWorkload(workdir, args.seed, pinned, awake.pids)
        try:
            setup_times = []
            for _ in range(SETUP_REPEATS):
                t0 = time.perf_counter()
                workload.setup()
                setup_times.append(time.perf_counter() - t0)
            workload.prepare()
            slo_s = settings["search_slo_ms"] / 1000
            steal0, total0 = cpu_ticks()
            if not args.trace:
                tally = workloads.Tally()
                workload.measure(args.seconds, tally)
                metrics, details = end_to_end(tally, setup_times, slo_s)
                tallies = [tally]
            else:
                plain = workloads.Tally()
                workload.measure(args.seconds / 2, plain)
                untraced, details = end_to_end(plain, setup_times, slo_s)
                # the traced half starts from a fresh set-up too, so both halves
                # see the same store and pending-delta history
                workload.setup()
                workload.prepare()
                tracer = spans.Tracer(workdir / "spool")
                spans.install(tracer)
                traced = workloads.Tally()
                try:
                    workload.measure(args.seconds / 2, traced)
                finally:
                    tracer.uninstall()
                tracer.collect()
                metrics, rows = per_layer(tracer, traced, untraced["apps_per_s"][0])
                print_table(rows, args.workload)
                print(f"tracing overhead: apps_per_s untraced "
                      f"{untraced['apps_per_s'][0]:.3f}, traced "
                      f"{traced.apps_per_s():.3f}")
                tallies = [plain, traced]
            steal1, total1 = cpu_ticks()
            steal = (steal1 - steal0) / max(total1 - total0, 1)
        finally:
            workload.close()
            shutil.rmtree(workdir, ignore_errors=True)
            try:
                workdir.parent.rmdir()
            except OSError:
                pass

    import oracle

    print(f"host steal during timing: {steal:.4f} of CPU time")
    if steal > STEAL_WARN:
        print("=" * 72 + f"\nWARNING: other guests took {steal:.1%} of this host's CPU time "
              "while timing;\ncompare these timings only with runs that saw as much.\n"
              + "=" * 72, file=sys.stderr)
    for tally in tallies:
        for what in tally.mismatches:
            print(f"MISMATCH: {what}", file=sys.stderr)
        for name, hits in sorted(tally.known.items()):
            print(f"KNOWN DEFECT {name}: {hits} outputs wrong "
                  f"({oracle.KNOWN_DEFECTS[name]})", file=sys.stderr)
    if not args.trace:
        print(f"{args.workload} seed {args.seed}: " + json.dumps(details))
        for name, (value, unit) in metrics.items():
            print(f"  {name:18s} {value:12.4f} {unit}")
        print(f"  {'failed_frac':18s} {details['failed_frac']:12.4f} frac")
    else:
        for name, (value, unit) in metrics.items():
            print(f"  {name:38s} {value:12.6f} {unit}")
    emit(metrics, tallies)
    return 0


if __name__ == "__main__":
    sys.exit(main())
