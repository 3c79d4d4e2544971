"""Tests of the harness's own arithmetic and oracles.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import os
import sys
import threading
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracle  # noqa: E402
import stats  # noqa: E402
from spans import Tracer, layer_self_times  # noqa: E402


# ------------------------------------------------------------------ tails
def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 90) == 90
    assert stats.percentile(values, 99) == 99
    assert stats.percentile([5.0], 99) == 5.0


def test_tail_takes_highest_percentile_with_ten_beyond():
    assert stats.tail([float(v) for v in range(1000)])[1:] == ("p99", 10)
    assert stats.tail([float(v) for v in range(999)])[1:] == ("p95", 49)
    assert stats.tail([float(v) for v in range(200)])[1:] == ("p95", 10)
    assert stats.tail([float(v) for v in range(199)])[1:] == ("p90", 19)
    assert stats.tail([float(v) for v in range(100)]) == (89.0, "p90", 10)


def test_tail_falls_back_to_max_below_one_hundred_samples():
    assert stats.tail([3.0, 1.0, 2.0] * 33) == (3.0, "p100", 0)


def test_samples_beyond_counts_strictly_above_rank():
    assert stats.samples_beyond(120, 90) == 12
    assert stats.samples_beyond(10, 99) == 0


# -------------------------------------------------------------- open loop
def test_open_loop_latency_runs_from_due_time():
    # due at 1.0, sent late at 1.5 behind a stall, answered at 1.7
    assert stats.open_loop_latency(1.0, 1.7) == pytest.approx(0.7)
    assert stats.lateness(1.0, 1.5) == pytest.approx(0.5)
    assert stats.lateness(1.0, 0.9) == 0.0


def test_schedule_is_fixed_rate():
    assert stats.schedule(4, 1.0, start=10.0) == [10.0, 10.25, 10.5, 10.75]
    assert len(stats.schedule(6, 20)) == 120


# ------------------------------------------------------------------ spans
def test_self_time_without_children():
    assert stats.self_time(0.0, 2.0, []) == 2.0


def test_self_time_counts_overlapping_children_once():
    # children [1, 3] and [2, 4] overlap on [2, 3]: together they cover 3 s
    assert stats.self_time(0.0, 10.0, [(1.0, 3.0), (2.0, 4.0)]) == pytest.approx(7.0)
    # a child nested inside another adds nothing
    assert stats.self_time(0.0, 10.0, [(1.0, 5.0), (2.0, 3.0)]) == pytest.approx(6.0)


def test_self_time_clips_children_to_the_parent():
    assert stats.self_time(2.0, 4.0, [(1.0, 3.0), (3.5, 9.0)]) == pytest.approx(0.5)


def test_layer_self_times_aggregate_by_layer():
    spans = [
        [1, 1, 0, "job", 0.0, 10.0],
        [1, 2, 1, "core.analyze", 1.0, 9.0],
        [1, 3, 2, "taint.backward", 2.0, 5.0],
        [1, 4, 2, "taint.backward", 4.0, 6.0],  # overlaps its sibling
        [2, 1, 0, "job", 0.0, 1.0],  # same ids in another process
    ]
    selfs, calls, walls = layer_self_times(spans)
    assert selfs["job"] == pytest.approx(2.0 + 1.0)
    assert selfs["core.analyze"] == pytest.approx(8.0 - 4.0)
    assert selfs["taint.backward"] == pytest.approx(5.0)
    assert calls == {"job": 2, "core.analyze": 1, "taint.backward": 2}
    assert walls["job"] == pytest.approx(11.0)
    spans.append([1, 5, 0, "fold", 20.0, 21.0])
    spans.append([1, 6, 5, "taint.backward", 20.0, 20.5])
    selfs, calls, _ = layer_self_times(spans, roots={"job"})
    assert "fold" not in calls and calls["taint.backward"] == 2


def test_tracer_wrap_nests_spans_and_counts(tmp_path):
    tracer = Tracer(tmp_path)
    inner = tracer.wrap("inner", lambda x: x * 2,
                        lambda r, a, k: tracer.count("doubled", r))
    outer = tracer.wrap("outer", lambda x: inner(x) + 1)
    assert outer(3) == 7
    (_, sid_in, parent_in, name_in, *_), (_, sid_out, parent_out, name_out, *_) = tracer.spans
    assert (name_in, name_out) == ("inner", "outer")
    assert parent_in == sid_out and parent_out == 0
    assert tracer.counts["doubled"] == 6
    tracer.spool()
    tracer.reset()
    tracer.collect()
    assert len(tracer.spans) == 2 and tracer.counts["doubled"] == 6


def test_tracer_counts_survive_concurrent_threads(tmp_path):
    tracer = Tracer(tmp_path)
    work = tracer.wrap("layer", lambda: tracer.count("n"))
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=lambda: [work() for _ in range(5000)])
                   for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(old)
    assert tracer.counts["n"] == 20000
    assert len(tracer.spans) == 20000
    assert all(parent == 0 for _pid, _sid, parent, *_ in tracer.spans)


# --------------------------------------------------------------- failures
def test_failed_and_refused_operations_count_against_attempts():
    statuses = ["done", "failed", 200, 429, 500, None, "done", "cancelled"]
    assert [stats.is_failure(s) for s in statuses] == [
        False, True, False, True, True, True, False, True]
    assert stats.failed_frac(statuses) == pytest.approx(5 / 8)
    assert stats.failed_frac([]) == 0.0


def test_slo_counts_failures_as_misses():
    assert stats.slo_frac([0.1, 0.3, None, 0.2], 0.25) == pytest.approx(0.5)


def test_corpus_search_tail_comes_from_each_query_best_time():
    import run
    import workloads

    tally = workloads.Tally(job_latency=[1.0], pass_rates=[1.0], checked=1, correct=1)
    # 100 queries timed twice: the samples' tail is 0.2 s, the best times' 0.1 s
    tally.search_latency = [0.001] * 180 + [0.2] * 20
    tally.search_best = [0.001] * 89 + [0.1] * 11
    metrics, details = run.end_to_end(tally, [1.0], 0.25)
    assert metrics["search_p50_ms"][0] == pytest.approx(1.0)
    assert metrics["search_tail_ms"][0] == pytest.approx(100.0)
    assert details["search_tail"] == "p90 of 100 searches (10 beyond)"
    tally.search_best = []
    assert run.end_to_end(tally, [1.0], 0.25)[0]["search_tail_ms"][0] == pytest.approx(200.0)


# ----------------------------------------------------------------- oracle
def test_literal_uri_collapses_dynamic_atoms():
    assert oracle.literal_uri(r"^https://api\.x\.com/v1/(.*)/a\.json\?k=.*$") == \
        "https://api.x.com/v1/*/a.json?k=*"
    assert oracle.literal_uri("^.*$") == "*"
    assert oracle.literal_uri(r"^http://h/[0-9]+x?$") == "http://h/*"


def test_txn_terms_cover_every_query_class():
    txn = {
        "id": 0, "method": "POST",
        "uri_regex": r"^https://API\.example\.com/v2/login\?user=.*$",
        "headers": {"X-Token": "<?str>"},
        "body": "{(name): <?str>, ...}", "body_kind": "json",
        "response_body": "{(modhash): <?str>}", "response_kind": "json",
        "consumers": ["session_view"],
        "depends_on": ["txn3[$.data.modhash] -> txn0.header:X-Modhash"],
    }
    terms = oracle.txn_terms(txn)
    assert {"host:api.example.com", "path:v2", "path:login", "path:/v2/login",
            "field:header:x-modhash", "field:x-modhash", "field:modhash",
            "text:post", "text:user", "text:token", "text:name",
            "text:session_view", "text:example"} <= terms


def test_search_oracle_like_scores_and_excludes_reference():
    search = oracle.SearchOracle()
    search.add("k1", {"transactions": [
        {"id": 0, "method": "GET", "uri_regex": r"^https://a\.com/v1/users$"},
        {"id": 1, "method": "GET", "uri_regex": r"^https://a\.com/v1/users/.*$"},
        {"id": 2, "method": "DELETE", "uri_regex": r"^zz$"},
    ]})
    assert search.matches("like:k1/0") == {("k1", 1)}
    assert search.matches("host:a.com") == {("k1", 0), ("k1", 1)}
    assert search.matches("host:a.com", keys=set()) == set()


def test_score_truth_separates_known_defect_from_wrong():
    truth = [("PUT", True, "POST"), ("GET", True, None), ("GET", False, None)]
    report = {"transactions": [{"method": "GET"}, {"method": "PUT"}],
              "unidentified": [{}]}
    assert oracle.score_truth(report, truth) == ("ok", "")
    report["transactions"][1]["method"] = "POST"
    assert oracle.score_truth(report, truth) == ("known", "urlconn-setdooutput")
    report["transactions"][1]["method"] = "DELETE"
    assert oracle.score_truth(report, truth)[0] == "wrong"
    report["unidentified"] = []
    assert oracle.score_truth(report, truth)[0] == "wrong"


def test_population_digest_ignores_order():
    a = oracle.population_digest({"x": "1", "y": "2"})
    assert a == oracle.population_digest({"y": "2", "x": "1"})
    assert a != oracle.population_digest({"x": "2", "y": "1"})


def test_draw_queries_follow_the_class_cycle_and_the_seed():
    import random

    import workloads

    pools = {"host": ["host:a"], "path": ["path:/b"], "field": ["field:c"],
             "text": ["d"], "like": ["like:k/0", "like:k/1"]}
    queries = workloads.draw_queries(pools, random.Random(3), 18)
    cycle = workloads.QUERY_CYCLE
    for i, q in enumerate(queries):
        assert q in pools[cycle[i % len(cycle)]]
    assert sum(q.startswith("like:") for q in queries) == 18 // len(cycle)
    assert queries == workloads.draw_queries(pools, random.Random(3), 18)
    del pools["like"]  # a class with nothing stored is skipped
    assert not any(q.startswith("like:") for q in
                   workloads.draw_queries(pools, random.Random(3), 18))


def test_draw_queries_take_the_same_terms_on_every_seed():
    import random

    import workloads

    pools = {"host": [f"host:h{i}" for i in range(10)], "path": ["path:/p"],
             "field": ["field:f"], "text": ["t"],
             "like": [f"like:k/{i}" for i in range(7)]}
    a = workloads.draw_queries(pools, random.Random(1), 40)
    b = workloads.draw_queries(pools, random.Random(2), 40)
    assert a != b and sorted(a) == sorted(b)
    assert workloads.spaced(list(range(10)), 4) == [0, 2, 5, 7]
    assert workloads.spaced([1, 2], 5) == [1, 2, 1, 2, 1]


def test_rss_window_counts_a_child_started_inside_it():
    import subprocess

    from rss import RssWindow

    window = RssWindow().start()
    child = subprocess.Popen(
        [sys.executable, "-c", "import time; b = b'x' * (64 << 20); time.sleep(0.5)"])
    child.wait()
    peak = window.stop()
    assert peak >= 64  # the child's 64 MB, sampled before it exited


def test_rss_window_ignores_a_listed_child():
    import subprocess

    from rss import RssWindow

    child = subprocess.Popen(
        [sys.executable, "-c", "import time; b = b'x' * (64 << 20); time.sleep(0.5)"])
    window = RssWindow(ignore={child.pid}).start()
    child.wait()
    assert window.stop() < 64


def test_loadgen_sends_each_operation_at_its_due_time():
    import http.server
    import threading

    import loadgen

    class Handler(http.server.BaseHTTPRequestHandler):
        def log_message(self, *args):
            pass

        def do_GET(self):
            self._reply({"total": 1})

        def do_POST(self):
            self.rfile.read(int(self.headers["Content-Length"]))
            self._reply({"job": {"id": "j"}})

        def _reply(self, payload):
            body = json.dumps(payload).encode()
            self.send_response(200)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    try:
        logs = loadgen.run({"address": list(server.server_address), "lead_s": 0.05,
                            "searches": [[0.0, "host:a"], [0.1, "b"]],
                            "analyses": [[0.05, "target", "syn-x"]]})
    finally:
        server.shutdown()
        server.server_close()
    (d0, s0, r0, *_), (d1, s1, r1, status, body, query) = logs["search"]
    assert d1 - d0 == pytest.approx(0.1)
    assert d0 <= s0 <= r0 and d1 <= s1 <= r1
    assert (status, body, query) == (200, {"total": 1}, "b")
    [(due, sent, done, status, body, item)] = logs["analyze"]
    assert due - d0 == pytest.approx(0.05)
    assert (status, body, item) == (200, {"job": {"id": "j"}}, ["target", "syn-x"])


def _state(pid: int) -> str:
    """A process's state letter; ``"gone"`` once it has been reaped."""
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return "gone"


@pytest.mark.skipif(not hasattr(os, "SCHED_IDLE"), reason="needs SCHED_IDLE")
def test_keepawake_spins_one_idle_process_per_cpu_and_stops_them():
    import time

    from keepawake import KeepAwake

    with KeepAwake() as awake:
        pids = awake.pids
        assert len(pids) == len(os.sched_getaffinity(0))
        deadline = time.monotonic() + 10
        for pid in pids:
            while (os.sched_getscheduler(pid) != os.SCHED_IDLE
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            assert os.sched_getscheduler(pid) == os.SCHED_IDLE
            assert len(os.sched_getaffinity(pid)) == 1
    assert all(_state(pid) == "gone" for pid in pids)


@pytest.mark.skipif(not hasattr(os, "SCHED_IDLE"), reason="needs SCHED_IDLE")
def test_keepawake_spinner_exits_when_its_parent_dies():
    import subprocess
    import time

    import keepawake

    # a parent that starts one spinner and exits without stopping it
    out = subprocess.run(
        [sys.executable, "-c",
         "import os, subprocess, sys\n"
         f"p = subprocess.Popen([sys.executable, {keepawake.__file__!r}, '0', str(os.getpid())])\n"
         "print(p.pid)"],
        capture_output=True, text=True, check=True).stdout
    pid = int(out)
    deadline = time.monotonic() + 10
    while _state(pid) not in ("gone", "Z") and time.monotonic() < deadline:
        time.sleep(0.05)
    assert _state(pid) in ("gone", "Z")
