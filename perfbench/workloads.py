"""The two workloads: corpus-cold and daemon-mixed.

Each workload has a ``setup`` of the program (timed, for ``setup_s``), a
``prepare`` that checks the set-up's outputs and draws the inputs
(untimed), a ``measure`` that runs for a given number of seconds and
fills a :class:`Tally`, and a ``close``.  The program is driven only through ``JobScheduler.run_batch``,
``AnalysisService`` over HTTP, ``ResultStore``, ``FleetIndex`` and
``run_search``; every output is checked against :mod:`oracle`.
"""

from __future__ import annotations

import json
import math
import random
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import loadgen
import oracle
import stats
from rss import RssWindow

QUERY_CLASSES = ("host", "path", "field", "text", "like")
#: daemon-mixed: the class of each successive search.  ``like:`` scores
#: every stored transaction, so it is the rarer, dearer lookup: one
#: search in nine
QUERY_CYCLE = ("host", "path", "field", "text") * 2 + ("like",)

#: corpus-cold: targets of the warm-up batch in each set-up
WARMUP_APPS = 12
#: corpus-cold: the probe's queries, of which ``like:`` references (far
#: dearer than the other classes); all of them follow every pass
PROBE_QUERIES = 1000
PROBE_LIKE_QUERIES = 25
#: daemon-mixed: the stored fleet, the same for every seed, so the index
#: a refresh reloads is the same size; the seed orders the traffic
FLEET_SEED = 0
STORE_APPS = 100
FLEET_SPEC = f"synth:all*{STORE_APPS}@{FLEET_SEED}"
#: daemon-mixed: lineages whose v1 is uploaded in set-up and whose v2
#: re-release is every RERELEASE_EVERY-th analysis of the timed phase
EVOLUTION_APPS = 32
RERELEASE_EVERY = 4
#: daemon-mixed: the pool of fresh apps, ``synth:all`` of the fleet seed
#: past the stored ones; a phase takes as many as it needs evenly spaced
#: through it, and every RERELEASE_EVERY-th analysis is a re-release
#: while the EVOLUTION_APPS last
FRESH_APPS = 400

#: every constant above, printed beside each result
PARAMETERS = {
    "warmup_apps": WARMUP_APPS, "probe_queries": PROBE_QUERIES,
    "probe_like_queries": PROBE_LIKE_QUERIES,
    "fleet": FLEET_SPEC, "evolution_apps": EVOLUTION_APPS, "rerelease_every": RERELEASE_EVERY,
    "fresh_apps": FRESH_APPS,
}


def evolution_keys() -> list[str]:
    from repro.synth import expand_targets

    return expand_targets([f"synth:evolution*{EVOLUTION_APPS}@{FLEET_SEED}"])


@dataclass
class Tally:
    """What one measuring phase saw."""

    job_latency: list[float] = field(default_factory=list)
    #: jobs completed per second of wall, one entry per pass
    pass_rates: list[float] = field(default_factory=list)
    busy_wall: float = 0.0  # workers x wall, for the busy fraction
    #: wall seconds of each batch pass or daemon phase
    pass_walls: list[float] = field(default_factory=list)
    steals: int = 0
    queue_wait: list[float] = field(default_factory=list)
    late: list[float] = field(default_factory=list)
    #: per search: latency in seconds, None when it failed
    search_latency: list[float | None] = field(default_factory=list)
    #: corpus-cold: per probe query, its fastest time over the run (None
    #: when it failed); the search tail is taken over these
    search_best: list[float | None] = field(default_factory=list)
    statuses: list = field(default_factory=list)
    checked: int = 0
    correct: int = 0
    #: outputs wrong only by a listed known defect, by defect name
    known: dict[str, int] = field(default_factory=dict)
    mismatches: list[str] = field(default_factory=list)
    #: peak resident memory over the timed passes or phase
    peak_rss_mb: float = 0.0

    def check(self, ok: bool, what: str) -> None:
        self.checked += 1
        if ok:
            self.correct += 1
        elif len(self.mismatches) < 20:
            self.mismatches.append(what)

    def apps_per_s(self) -> float:
        return stats.median(self.pass_rates)

    def absorb_checks(self, other: "Tally") -> None:
        """Keep another phase's correctness record, not its timings."""
        self.statuses += other.statuses
        self.checked += other.checked
        self.correct += other.correct
        for name, hits in other.known.items():
            self.known[name] = self.known.get(name, 0) + hits
        self.mismatches += other.mismatches

    def check_truth(self, report: dict | None, truth: list, what: str) -> None:
        if report is None:
            self.check(False, f"{what}: no stored report")
            return
        verdict, why = oracle.score_truth(report, truth)
        if verdict == "known":
            self.checked += 1
            self.known[why] = self.known.get(why, 0) + 1
        else:
            self.check(verdict == "ok", f"{what}: {why}")


def truth_of(key: str) -> list[tuple[str, bool, str | None]]:
    """The generator's ground truth for one synth app, with the method
    each endpoint is reported under when a known defect applies."""
    from repro.synth import synth_genapp, synth_spec

    app = synth_genapp(key)
    defect = {
        ep.name for ep in app.endpoints
        if app.transport == "urlconn" and ep.body and ep.body_format == "json"
        and ep.method != "POST"
    }
    return [(e.method, e.static_visible, "POST" if e.name in defect else None)
            for e in synth_spec(key).truth.endpoints]


def envelope(store_root: Path, key: str) -> dict | None:
    try:
        return json.loads((store_root / "objects" / key[:2] / f"{key}.json").read_text())
    except (OSError, ValueError):
        return None


def query_pools(search: oracle.SearchOracle) -> dict[str, list[str]]:
    """Every query the stored reports answer to, by class: each distinct
    term, and a ``like:`` reference per transaction."""
    pools: dict[str, list[str]] = {c: [] for c in QUERY_CLASSES}
    for term in search.terms():
        kind, _, value = term.partition(":")
        if kind in pools and value and not (kind == "text" and ":" in value):
            pools[kind].append(term if kind != "text" else value)
    pools["like"] = [f"like:{k}/{t}" for k, t in sorted(search.txns)]
    return pools


def spaced(pool: list, count: int) -> list:
    """``count`` items evenly spaced through ``pool`` (cycling when it
    holds fewer): the same items for every seed."""
    if count <= len(pool):
        return [pool[i * len(pool) // count] for i in range(count)]
    return [pool[i % len(pool)] for i in range(count)]


def draw_queries(pools: dict[str, list[str]], rng: random.Random,
                 count: int) -> list[str]:
    """``count`` queries whose classes follow :data:`QUERY_CYCLE`.  Each
    class's terms are evenly spaced through its sorted pool of
    :func:`query_pools`, so the seed changes only their order."""
    cycle = [c for c in QUERY_CYCLE if pools.get(c)]
    slots = [cycle[i % len(cycle)] for i in range(count)]
    terms = {}
    for cls in set(slots):
        terms[cls] = spaced(sorted(pools[cls]), slots.count(cls))
        rng.shuffle(terms[cls])
    return [terms[cls].pop() for cls in slots]


class BatchWorkload:
    """corpus-cold: a cold batch of the 34 corpus apps through
    ``JobScheduler.run_batch`` on its default engine, repeated pass after
    pass, each on a fresh store.  After each pass a closed-loop search
    probe reads the store that pass wrote: every probe query once, so
    each is timed at as many moments as there are passes."""

    name = "corpus-cold"

    def __init__(self, workdir: Path, seed: int, pinned: dict,
                 helpers: set[int] = frozenset()) -> None:
        self.workdir = workdir
        #: processes of the harness that memory figures leave out
        self.helpers = helpers
        self.rng = random.Random(seed)
        self.pinned = pinned
        self.counter = 0
        self.warmup = Tally()

    def setup(self) -> None:
        import repro.core.extractocol  # noqa: F401 -- workers fork warm
        import repro.fleetindex.query  # noqa: F401
        from repro.corpus import app_keys

        self.targets = app_keys()
        self._fresh_store()
        # one untimed batch of a few targets: lazy imports and caches fill
        # before any pass is timed; its outputs are checked too
        self.warmup = Tally()
        self._one_pass(self.warmup, self.targets[:WARMUP_APPS])
        self._drop_stores()

    def prepare(self) -> None:
        """Untimed: one full pass whose store gives the probe's queries
        and, by direct scan, the total each must return.  Every pass
        stores the same reports (each is checked against its pinned
        digest), so the totals hold for every pass's store."""
        self._fresh_store()
        self._one_pass(self.warmup)
        search = oracle.SearchOracle()
        for key, env in oracle.read_envelopes(self.root).items():
            search.add(key, env["report"])
        self._drop_stores()
        # the same queries on every seed (the seed only orders them): a
        # fixed number (so the tail is always the same percentile) of
        # terms and like: references, far dearer, each evenly spaced
        # through all of its kind
        pools = query_pools(search)
        like = sorted(pools.pop("like"))
        terms = sorted(q for pool in pools.values() for q in pool)
        self.queries = (spaced(terms, PROBE_QUERIES - PROBE_LIKE_QUERIES)
                        + spaced(like, PROBE_LIKE_QUERIES))
        # only the totals are kept, so the scan's memory is not the peak
        self.totals = {q: len(search.matches(q)) for q in self.queries}

    def _fresh_store(self) -> None:
        from repro.service import JobScheduler, ResultStore

        self.counter += 1
        self.root = self.workdir / f"store-{self.counter}"
        self.store = ResultStore(self.root)
        self.scheduler = JobScheduler(self.store, workers=0, executor="auto")

    def _drop_stores(self) -> None:
        """Remove every store so far; only between timed phases, so no
        pass shares the disk with a deletion."""
        for path in self.workdir.glob("store-*"):
            shutil.rmtree(path, ignore_errors=True)

    def measure(self, seconds: float, tally: Tally) -> None:
        tally.absorb_checks(self.warmup)
        self.warmup = Tally()
        #: per probe query: its fastest time so far, None once it failed
        best: dict[str, float | None] = {q: math.inf for q in self.queries}
        window = RssWindow(ignore=self.helpers).start()
        start = time.monotonic()
        while True:
            self._fresh_store()
            self._one_pass(tally)
            self._probe(tally, best)
            if time.monotonic() - start >= seconds:
                break
        tally.peak_rss_mb = window.stop()
        tally.search_best = list(best.values())
        self._drop_stores()

    def _one_pass(self, tally: Tally, targets: list[str] | None = None) -> None:
        targets = targets or self.targets
        t0 = time.monotonic()

        def progress(record, _done, _total) -> None:
            # every entry of a batch is submitted when the pass starts; its
            # record arrives once its report is durably stored
            tally.job_latency.append(time.monotonic() - t0)
            tally.steals += bool(getattr(record, "stolen", False))

        records = self.scheduler.run_batch(list(targets), progress=progress)
        wall = time.monotonic() - t0
        self.scheduler.shutdown()
        tally.pass_walls.append(wall)
        tally.pass_rates.append(len(records) / wall)
        tally.busy_wall += self.scheduler.workers * wall
        for record in records:
            tally.statuses.append(record["status"])
            env = envelope(self.root, record["result_key"] or "")
            if record["status"] != "done" or env is None:
                tally.check(False, f"{record['target']}: {record['error']}")
                continue
            tally.check(oracle.report_digest(env["report"])
                        == self.pinned["corpus"].get(record["target"]),
                        f"{record['target']}: report digest changed")

    def _probe(self, tally: Tally, best: dict[str, float | None]) -> None:
        """Every probe query, in a seeded order, each timed as the fastest
        of three back-to-back calls (its own cost, not the cache state
        around one call).  Each such time is a search sample; a query's
        fastest over the run is kept for the tail, because the host's
        speed swings by more than half within seconds (see README.md)
        and a query timed after every pass meets both."""
        from repro.fleetindex import FleetIndex, run_search

        index = FleetIndex(self.store).load()
        queries = list(best)
        self.rng.shuffle(queries)
        for q in queries:
            times = []
            try:
                for _ in range(3):
                    t0 = time.perf_counter()
                    result = run_search(index, q, limit=1)
                    times.append(time.perf_counter() - t0)
            except ValueError as exc:
                best[q] = None
                tally.search_latency.append(None)
                tally.statuses.append(None)
                tally.check(False, f"search {q!r}: {exc}")
                continue
            tally.search_latency.append(min(times))
            if best[q] is not None:
                best[q] = min(best[q], *times)
            tally.statuses.append("done")
            tally.check(result["total"] == self.totals[q],
                        f"search {q!r}: total {result['total']} != scan {self.totals[q]}")

    def close(self) -> None:
        self.scheduler.shutdown()
        self._drop_stores()


class DaemonWorkload:
    """daemon-mixed: an in-process ``AnalysisService`` on the thread
    scheduler, loaded by one open-loop phase of searches and, at a lower
    rate, analyses, as ``repro serve`` runs: no index fold during the
    phase, so pending deltas pile up from its start to its end.  The load
    comes from one process of its own (:mod:`loadgen`) with two client
    threads."""

    name = "daemon-mixed"

    def __init__(self, workdir: Path, seed: int, pinned: dict, rates: dict,
                 helpers: set[int] = frozenset()) -> None:
        self.workdir = workdir
        #: processes of the harness that memory figures leave out
        self.helpers = helpers
        self.seed = seed
        self.pinned = pinned
        self.search_rate = rates["search_rate_per_s"]
        self.analyze_rate = rates["analyze_rate_per_s"]
        self.counter = 0
        self.service = None

    # ------------------------------------------------------------ setup
    def setup(self) -> None:
        """The program's set-up only: the stored fleet, the folded index,
        the v1 uploads and a running service."""
        from repro.apk.loader import save_apk
        from repro.fleetindex import build_index
        from repro.service import JobScheduler, ResultStore
        from repro.service.api import AnalysisService
        from repro.synth import synth_build_version

        self.close()
        self.counter += 1
        self.root = self.workdir / f"daemon-{self.counter}"
        shutil.rmtree(self.root, ignore_errors=True)
        batch = JobScheduler(ResultStore(self.root), workers=0, executor="auto")
        self.fleet_records = batch.run_batch([FLEET_SPEC])
        batch.shutdown()

        self.service = AnalysisService(self.root, port=0, workers=0).start()
        self.v1_jobs = {}
        #: (lineage key, zipped .sapk of its v2), read by the load generator
        self.rereleases = []
        bundles = self.workdir / "bundles"
        bundles.mkdir(exist_ok=True)
        for key in evolution_keys():
            for version in (1, 2):
                path = bundles / f"{key}-v{version}.zip"
                save_apk(synth_build_version(f"{key}@v{version}").apk, path)
                if version == 2:
                    self.rereleases.append((key, path))
                    continue
                status, body = loadgen.analyze(self.service.address, "sapk",
                                               path.read_bytes())
                if status not in (200, 202):
                    raise RuntimeError(f"v1 upload of {key} failed: {status}")
                self.v1_jobs[key] = self.service.scheduler.job(body["job"]["id"])
        self.service.scheduler.wait(list(self.v1_jobs.values()), timeout=120)
        build_index(self.service.store)
        loadgen.search(self.service.address, "get")  # load the service's index view

    def prepare(self) -> None:
        """Untimed: check the set-up's outputs against their pins and take
        the timed phase's input pools."""
        from repro.synth import expand_targets

        self.warmup = Tally()
        digests = {}
        for record in self.fleet_records:
            self.warmup.statuses.append(record["status"])
            env = envelope(self.root, record["result_key"] or "")
            if env is not None:
                digests[record["target"]] = oracle.report_digest(env["report"])
        for key, job in self.v1_jobs.items():
            self.warmup.statuses.append(job.status.value)
            env = envelope(self.root, job.result_key or "")
            if env is not None:
                digests[f"{key}@v1"] = oracle.report_digest(env["report"])
        got = oracle.population_digest(digests)
        self.warmup.check(got == self.pinned["daemon_fleet"],
                          f"stored fleet: population digest {got[:12]} changed")

        search = oracle.SearchOracle()
        for key, env in oracle.read_envelopes(self.root).items():
            search.add(key, env["report"])
        #: result keys durably stored before the timed phase
        self.visible = {key for key, _txn in search.txns}
        # only the query strings are kept; the oracle is rebuilt from the
        # store after the phase, so its memory is not the program's peak
        self.pools = query_pools(search)
        del search

        stored = set(expand_targets([FLEET_SPEC]))
        self.fresh = [k for k in expand_targets(
            [f"synth:all*{STORE_APPS + FRESH_APPS}@{FLEET_SEED}"]) if k not in stored]

    def plan(self, seconds: float) -> tuple[list, list]:
        """The phase's searches and analyses as ``(offset, item)``.  The
        apps and terms are the same on every seed (evenly spaced through
        their pools); the seed orders them."""
        rng = random.Random(self.seed)
        offsets = stats.schedule(self.search_rate, seconds)
        searches = list(zip(offsets, draw_queries(self.pools, rng, len(offsets))))
        offsets = stats.schedule(self.analyze_rate, seconds)
        rereleases = self.rereleases[:len(offsets) // RERELEASE_EVERY]
        # every RERELEASE_EVERY-th analysis is a re-release while they last
        slots = [i % RERELEASE_EVERY == RERELEASE_EVERY - 1
                 and i // RERELEASE_EVERY < len(rereleases) for i in range(len(offsets))]
        fresh = spaced(self.fresh, slots.count(False))
        rng.shuffle(rereleases)
        rng.shuffle(fresh)
        analyses = [(offset, ("sapk",) + rereleases.pop() if slot
                     else ("target", fresh.pop()))
                    for offset, slot in zip(offsets, slots)]
        return searches, analyses

    # ---------------------------------------------------------- measure
    def measure(self, seconds: float, tally: Tally) -> None:
        """One open-loop phase of ``seconds``; every output is checked
        after it."""
        tally.absorb_checks(self.warmup)
        self.warmup = Tally()
        searches, analyses = self.plan(seconds)
        plan = {
            "address": list(self.service.address),
            "lead_s": 0.1,
            "searches": searches,
            "analyses": [[offset, item[0], str(item[-1])] for offset, item in analyses],
        }
        generator = subprocess.Popen(
            [sys.executable, str(Path(loadgen.__file__).resolve())],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        try:
            window = RssWindow(ignore=self.helpers | {generator.pid}).start()
            out, _ = generator.communicate(json.dumps(plan).encode(), timeout=seconds + 120)
        finally:
            if generator.poll() is None:
                generator.kill()
                generator.wait()
        if generator.returncode:
            raise RuntimeError(f"load generator exited {generator.returncode}")
        logs = json.loads(out)
        search_log, analyze_log = logs["search"], logs["analyze"]
        jobs = []
        # one client sends the analyses in plan order
        for (due, sent, _done, status, body, _sent), (_offset, item) in zip(
                analyze_log, analyses):
            tally.late.append(stats.lateness(due, sent))
            job = None
            if status in (200, 202):
                job = self.service.scheduler.job(body["job"]["id"])
            jobs.append((due, job, item))
        self.service.scheduler.wait([j for _, j, _ in jobs if j], timeout=120)
        tally.peak_rss_mb = window.stop()

        landed = []
        for due, job, item in jobs:
            status = job.status.value if job is not None else None
            tally.statuses.append(status)
            if status != "done":
                tally.check(False, f"analyze {item[1]}: {status}")
                continue
            tally.job_latency.append(stats.open_loop_latency(due, job.finished_at))
            tally.queue_wait.append(job.started_at - job.submitted_at)
            landed.append((job.started_at, job.finished_at, job.result_key))
            env = envelope(self.root, job.result_key)
            if item[0] == "target":
                tally.check_truth(env and env["report"], truth_of(item[1]), item[1])
            else:
                want = self.pinned["rerelease"][item[1]]
                tally.check(env is not None and oracle.report_digest(env["report"]) == want,
                            f"re-release {item[1]}@v2: report digest changed")
        if jobs:
            first = jobs[0][0]
            last = max((f for _, f, _ in landed), default=first)
            tally.pass_rates.append(len(landed) / max(last - first, 1e-9))
        tally.busy_wall += self.service.scheduler.workers * seconds
        tally.pass_walls.append(seconds)

        search = oracle.SearchOracle()
        for key, env in oracle.read_envelopes(self.root).items():
            search.add(key, env["report"])
        for due, sent, done, status, body, query in search_log:
            tally.late.append(stats.lateness(due, sent))
            tally.statuses.append(status)
            if status != 200:
                tally.search_latency.append(None)
                tally.check(False, f"search {query!r}: HTTP {status}")
                continue
            tally.search_latency.append(stats.open_loop_latency(due, done))
            must = self.visible | {k for s, f, k in landed if f <= sent}
            may = self.visible | {k for s, f, k in landed if s <= done}
            low = len(search.matches(query, must))
            high = len(search.matches(query, may))
            tally.check(low <= body["total"] <= high,
                        f"search {query!r}: total {body['total']} outside scan [{low}, {high}]")

    def close(self) -> None:
        if self.service is not None:
            self.service.stop(drain=True)
            self.service = None
            shutil.rmtree(self.root, ignore_errors=True)
