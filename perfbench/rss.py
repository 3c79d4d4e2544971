"""Peak resident memory over one measuring window.

``ru_maxrss`` is a high-water mark over a whole process lifetime, so it
would count set-up and the harness's own data.  A :class:`RssWindow`
instead resets this process's high-water mark when the window opens
(writing ``5`` to ``/proc/self/clear_refs``) and, while it is open,
samples the high-water mark of every descendant process, such as the
batch engine's forked shard workers.  Its peak is the largest of these.
"""

from __future__ import annotations

import threading
from pathlib import Path

#: Seconds between samples of the descendants' high-water marks.
SAMPLE_S = 0.1


def status_kb(pid: int | str, field: str) -> int:
    """One ``kB`` field of ``/proc/<pid>/status``; 0 once the process is gone."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith(field + ":"):
                return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return 0


def descendants(pid: int | str = "self") -> set[int]:
    """Every live descendant of ``pid``."""
    found: set[int] = set()
    todo = [pid]
    while todo:
        parent = todo.pop()
        for children in Path(f"/proc/{parent}/task").glob("*/children"):
            try:
                pids = [int(p) for p in children.read_text().split()]
            except (OSError, ValueError):
                continue
            for child in pids:
                if child not in found:
                    found.add(child)
                    todo.append(child)
    return found


class RssWindow:
    """``start()`` opens the window, ``stop()`` closes it and returns the
    peak resident memory in MB seen inside it."""

    def __init__(self, ignore: set[int] = frozenset()) -> None:
        #: descendants that are not the program's, such as a load generator
        self.ignore = ignore
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._children_kb = 0

    def start(self) -> "RssWindow":
        Path("/proc/self/clear_refs").write_text("5")
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()
        return self

    def _sample(self) -> None:
        while True:
            for pid in descendants() - self.ignore:
                self._children_kb = max(self._children_kb, status_kb(pid, "VmHWM"))
            if self._stop.wait(SAMPLE_S):
                return

    def stop(self) -> float:
        self._stop.set()
        self._thread.join()
        return max(status_kb("self", "VmHWM"), self._children_kb) / 1024
