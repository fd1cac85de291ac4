"""Timing, percentile, span and memory helpers for the benchmark."""

from __future__ import annotations

import math
import multiprocessing
import resource
import statistics
from collections import defaultdict


def median_ms(seconds: list[float]) -> float:
    return statistics.median(seconds) * 1e3 if seconds else 0.0


def percentile_ms(seconds: list[float], percent: float) -> float:
    """Nearest-rank percentile, in milliseconds."""
    if not seconds:
        return 0.0
    ordered = sorted(seconds)
    rank = max(1, math.ceil(percent / 100.0 * len(ordered)))
    return ordered[rank - 1] * 1e3


def mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def stop_child_processes(timeout: float = 5.0) -> None:
    """Stop and reap every process the program started in this one.

    Pool workers are stopped by ``session.close``; any still alive are
    terminated here.  The shared-memory resource tracker lives until its
    parent exits and is then reparented, so it is stopped and waited for
    explicitly (closing its pipe ends it).
    """
    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout)
        if child.is_alive():
            child.kill()
            child.join()
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its live worker processes.

    Workers are read from ``/proc/<pid>/status`` (``VmHWM``); pages a
    worker shares with the parent through shared memory count in both.
    """
    total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/status") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            pass
    return total_kb / 1024.0


class SpanParts:
    """Self times of one traced ``session.run`` + ``to_xml``, by layer.

    ``compile``/``prepare``/``execute`` are the phase spans' durations
    (the ``pass.*`` children under ``compile`` are grafted records of
    the first compile and are not part of this run).  Inside ``execute``
    each ``engine.kernel.*`` span's self time is charged to its kernel,
    each ``sql.statement`` span to the SQL statements, and the rest of
    ``execute`` to the evaluator or, on SQLite, to translation.
    """

    def __init__(self, root) -> None:
        self.phases = {"compile": 0.0, "prepare": 0.0, "execute": 0.0,
                       "serialize": 0.0}
        self.kernel_seconds: dict[str, float] = defaultdict(float)
        self.kernel_tuples: dict[str, int] = defaultdict(int)
        self.statement_seconds = 0.0
        self.statements = 0
        for child in root.children:
            if child.name in self.phases:
                self.phases[child.name] += child.seconds
            if child.name == "execute":
                self._walk_execute(child)
        self.root_seconds = root.seconds

    def _walk_execute(self, span) -> None:
        kernels_here: set[str] = set()
        for child in span.children:
            if child.name.startswith("engine.kernel."):
                name = child.name[len("engine.kernel."):]
                covered = sum(grand.seconds for grand in child.children)
                self.kernel_seconds[name] += child.seconds - covered
                kernels_here.add(name)
            elif child.name == "sql.statement":
                self.statement_seconds += child.seconds
                self.statements += 1
            self._walk_execute(child)
        tuples = span.attributes.get("tuples")
        if isinstance(tuples, int):
            for name in kernels_here:
                self.kernel_tuples[name] += tuples

    @property
    def kernel_total(self) -> float:
        return sum(self.kernel_seconds.values())
