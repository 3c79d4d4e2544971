"""The daemon-mixed load generator, run as its own process.

    python3 perfbench/loadgen.py < plan.json > log.json

It runs apart from the service so that its threads never wait on the
service's interpreter lock: a late send or a slow read here would be
charged to the service's latency.  Standard input is one JSON plan::

    {"address": [host, port], "lead_s": 0.1,
     "searches": [[offset_s, query], ...],
     "analyses": [[offset_s, "target", key] | [offset_s, "sapk", path], ...]}

Each list is one open-loop client thread: an operation is due at
``start + offset_s``, where ``start`` is ``lead_s`` after the plan is
read, and is sent then, or at once when the previous reply came back
late.  Standard output is one JSON object with a log per client, each
entry ``[due, sent, done, status, body, item]`` on the system-wide
monotonic clock, so the service's job times compare with it.  Only the
standard library is used.
"""

from __future__ import annotations

import http.client
import json
import sys
import threading
import time
from pathlib import Path
from urllib.parse import quote


def request(address, method: str, path: str, body: bytes | None = None,
            headers: dict | None = None) -> tuple[int, dict]:
    """One request on its own connection.  Not keep-alive: on a kept-alive
    connection the service's replies stall about 40 ms each (the body
    waits on Nagle's algorithm for the client's delayed ACK)."""
    conn = http.client.HTTPConnection(*address, timeout=60)
    try:
        conn.request(method, path, body=body, headers=headers or {})
        response = conn.getresponse()
        return response.status, json.loads(response.read() or b"{}")
    finally:
        conn.close()


def search(address, query: str) -> tuple[int, dict]:
    return request(address, "GET", f"/search?q={quote(query)}&limit=1")


def analyze(address, kind: str, payload) -> tuple[int, dict]:
    if kind == "sapk":
        return request(address, "POST", "/analyze", payload,
                       {"Content-Type": "application/zip"})
    return request(address, "POST", "/analyze", json.dumps({"target": payload}).encode(),
                   {"Content-Type": "application/json"})


def client(plan: list[tuple], send, log: list[list]) -> None:
    """One open-loop client: each operation is sent at its due time, or
    at once when the previous reply came back late."""
    for due, item in plan:
        delay = due - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        sent = time.monotonic()
        try:
            status, body = send(item)
        except (OSError, ValueError, http.client.HTTPException):
            status, body = None, None
        log.append([due, sent, time.monotonic(), status, body, item])


def run(plan: dict) -> dict:
    address = tuple(plan["address"])
    # bundles are read before the clock starts
    bundles = {payload: Path(payload).read_bytes()
               for _offset, kind, payload in plan["analyses"] if kind == "sapk"}
    start = time.monotonic() + plan["lead_s"]
    searches = [(start + offset, query) for offset, query in plan["searches"]]
    analyses = [(start + offset, [kind, payload])
                for offset, kind, payload in plan["analyses"]]

    def send_analysis(item):
        kind, payload = item
        return analyze(address, kind, bundles[payload] if kind == "sapk" else payload)

    logs: dict[str, list] = {"search": [], "analyze": []}
    clients = [
        threading.Thread(target=client, args=(
            searches, lambda q: search(address, q), logs["search"])),
        threading.Thread(target=client, args=(analyses, send_analysis, logs["analyze"])),
    ]
    for t in clients:
        t.start()
    for t in clients:
        t.join()
    return logs


if __name__ == "__main__":
    json.dump(run(json.load(sys.stdin)), sys.stdout)
