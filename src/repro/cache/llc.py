"""Per-socket last-level cache model for page-table cache-lines.

The LLC decides whether a walk's leaf-PTE fetch reaches DRAM at all. §8.2
explains the GUPS-with-2-MiB-pages result through exactly this effect: with
2 MiB pages the whole leaf level fits in the socket's L3, so remote
page-table placement costs nothing — until fragmentation forces 4 KiB pages
and the leaf level stops fitting (Fig. 11).

Only page-table lines are tracked exactly (they are few); data-line
behaviour is summarised by each workload's locality profile in the engine.
Data traffic evicting page-table lines is modelled by the walk loops, not
here: each walk's leaf-PTE line misses with the workload's
``WorkloadProfile.pt_llc_pressure`` probability even when it is resident.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.units import CACHE_LINE_SIZE


@dataclass
class LlcStats:
    hits: int = 0
    misses: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


class SocketLlc:
    """LRU cache of page-table cache-lines for one socket."""

    def __init__(self, capacity_bytes: int, name: str = "llc"):
        self.name = name
        self.capacity_lines = max(1, capacity_bytes // CACHE_LINE_SIZE)
        self._lines: OrderedDict[int, None] = OrderedDict()
        self.stats = LlcStats()

    def access(self, line_addr: int) -> bool:
        """Reference a line; returns True on hit. Misses allocate the line."""
        if line_addr in self._lines:
            self._lines.move_to_end(line_addr)
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        if len(self._lines) >= self.capacity_lines:
            self._lines.popitem(last=False)
        self._lines[line_addr] = None
        return False

    def invalidate_all(self) -> None:
        self._lines.clear()

    def occupancy(self) -> int:
        return len(self._lines)
