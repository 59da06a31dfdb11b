"""In-memory spans and a CPU-time stack sampler for the benchmark.

Both measure the program from outside. Spans wrap the bench's own calls
into ``repro`` packages; the sampler charges process CPU time to the
innermost ``src/repro/<package>`` frame on the stack. Neither installs a
``repro.trace`` session, which would switch the engine onto its trace
path and change what is measured.
"""

from __future__ import annotations

import json
import signal
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

#: Packages the sampler attributes time to. Samples with no frame in any
#: of them (the bench itself, the interpreter, the standard library) go
#: to ``bench``.
PACKAGES = (
    "workloads",
    "kernel",
    "mem",
    "paging",
    "tlb",
    "cache",
    "mitosis",
    "sim",
    "analysis",
    "machine",
    "fleet",
    "inject",
    "trace",
)
OTHER = "bench"
#: Seconds of process CPU time between samples.
INTERVAL = 0.001


class SpanRecorder:
    """Spans kept in memory: ``[name, start, end, parent, unit]`` rows.

    ``parent`` is the index of the enclosing span or -1. Spans of one
    unit (one regeneration of a figure or table) share its ``unit`` id.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, unit: int) -> Iterator[list]:
        """Time the block; yields the span's row, whose end is set on exit."""
        parent = self._open[-1] if self._open else -1
        index = len(self.spans)
        row = [name, time.perf_counter(), 0.0, parent, unit]
        self.spans.append(row)
        self._open.append(index)
        try:
            yield row
        finally:
            row[2] = time.perf_counter()
            self._open.pop()

    def _self_seconds(self) -> list[float]:
        """Each span's duration minus that of its direct children."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def self_times(self, units: set[int]) -> Counter:
        """Self seconds per span name over ``units``."""
        totals: Counter = Counter()
        for (name, _, _, _, unit), seconds in zip(self.spans, self._self_seconds()):
            if unit in units:
                totals[name] += seconds
        return totals

    def part_times(self, units: set[int]) -> dict[tuple[str, int], list[float]]:
        """Self seconds of each *part* of ``units``, one value per unit.

        The ``n``-th span named ``name`` in a unit is part ``(name, n)``;
        a unit's parts add up to its spans' total time.
        """
        parts: dict[tuple[str, int], list[float]] = {}
        seen: Counter = Counter()
        for (name, _, _, _, unit), seconds in zip(self.spans, self._self_seconds()):
            if unit in units:
                key = (name, seen[unit, name])
                seen[unit, name] += 1
                parts.setdefault(key, []).append(seconds)
        return parts

    def durations(self, unit: int) -> Counter:
        """Total seconds per span name within one unit."""
        totals: Counter = Counter()
        for name, start, end, _, span_unit in self.spans:
            if span_unit == unit:
                totals[name] += end - start
        return totals

    def write_chrome_trace(self, path: Path, metadata: dict) -> None:
        """Chrome-trace JSON (``chrome://tracing``, Perfetto) of every span."""
        origin = self.spans[0][1] if self.spans else 0.0
        events = [
            {
                "name": name,
                "ph": "X",
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"unit": unit, "parent": parent},
            }
            for name, start, end, parent, unit in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps({"traceEvents": events, "otherData": metadata}) + "\n",
            encoding="utf-8",
        )


class StackSampler:
    """``ITIMER_PROF`` sampler: every ``INTERVAL`` seconds of process CPU
    time, charge one sample to the innermost frame of a listed package.

    Time in C code and numpy reaches Python at the next bytecode of its
    caller, so it is charged to the ``repro`` function that called it.
    """

    def __init__(self, src_root: Path):
        self.prefix = str(src_root.resolve() / "repro") + "/"
        self.counts: Counter = Counter()
        self._package_of: dict = {}

    def _classify(self, code) -> str:
        filename = code.co_filename
        package = ""
        if filename.startswith(self.prefix):
            head = filename[len(self.prefix):].split("/", 1)[0]
            if head in PACKAGES:
                package = head
        self._package_of[code] = package
        return package

    def _on_signal(self, signum, frame) -> None:
        package_of = self._package_of
        while frame is not None:
            code = frame.f_code
            package = package_of.get(code)
            if package is None:
                package = self._classify(code)
            if package:
                self.counts[package] += 1
                return
            frame = frame.f_back
        self.counts[OTHER] += 1

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._on_signal)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        # SIG_IGN, not SIG_DFL: a SIGPROF still pending would otherwise
        # terminate the process.
        signal.signal(signal.SIGPROF, signal.SIG_IGN)

    def shares(self) -> dict[str, float]:
        """Fraction of samples per package (and ``bench``); sums to 1."""
        total = sum(self.counts.values())
        names = (*PACKAGES, OTHER)
        if total == 0:
            return {name: 0.0 for name in names}
        return {name: self.counts[name] / total for name in names}
