"""Keep every usable CPU from idling while the benchmark runs.

On a virtual machine an idle vCPU halts, and waking it again waits on
the host's scheduler, so a thread handing work to a thread on the other
vCPU waits longer when that vCPU was idle.  Every handoff between the
service's threads, the load generator and the batch workers pays it.
(On the recorded host, over four interleaved pairs of daemon-mixed
phases, the search p50 read 2.33-2.45 ms with the vCPUs kept awake and
2.61-2.83 ms without; a pipe round trip between processes on the two
vCPUs took 56-62 us at the median against 70-73 us.)

:class:`KeepAwake` starts one spinner process per usable CPU, pinned to
it and at the ``SCHED_IDLE`` policy, so it runs only when nothing else
wants that CPU and gives it up at once when something does.  The
spinners are not the program: memory figures leave them out.  Each one
exits by itself if the benchmark dies without stopping it.

    python3 perfbench/keepawake.py CPU PARENT_PID   # one spinner (KeepAwake starts them)
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path


class KeepAwake:
    """``with KeepAwake() as awake:`` -- ``awake.pids`` are the spinners."""

    def __init__(self) -> None:
        self.procs: list[subprocess.Popen] = []

    @property
    def pids(self) -> set[int]:
        return {p.pid for p in self.procs}

    def __enter__(self) -> "KeepAwake":
        if hasattr(os, "SCHED_IDLE"):
            try:
                for cpu in sorted(os.sched_getaffinity(0)):
                    self.procs.append(subprocess.Popen(
                        [sys.executable, str(Path(__file__).resolve()), str(cpu),
                         str(os.getpid())]))
            except BaseException:
                self.__exit__()
                raise
        return self

    def __exit__(self, *exc) -> None:
        for proc in self.procs:
            proc.kill()
        for proc in self.procs:
            proc.wait()
        self.procs = []


def spin(cpu: int, parent: int) -> None:
    """Busy-loop on ``cpu`` at the idle policy while ``parent`` is this
    process's parent."""
    os.sched_setaffinity(0, {cpu})
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    while os.getppid() == parent:
        for _ in range(100_000):
            pass


if __name__ == "__main__":
    spin(int(sys.argv[1]), int(sys.argv[2]))
