"""NUMA placement policies for data pages and page-table pages.

Linux exposes first-touch (default) and interleaved allocation for data
(§2.3); the paper's analysis kernel additionally forces page-table pages
onto a fixed socket (§3.2). All three are policies over "which node gets
this new page", so one small hierarchy serves data and page-tables alike —
applied independently, which is exactly the knob the paper's experiments
turn.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field


class PlacementPolicy(abc.ABC):
    """Chooses the NUMA node for a new page, or for a run of new pages."""

    @abc.abstractmethod
    def choose_node(self, hint: int) -> int:
        """Pick a node. ``hint`` is the socket of the faulting/allocating
        thread (the "first toucher")."""

    @abc.abstractmethod
    def choose_run(self, hint: int, count: int) -> tuple[int, ...]:
        """Place the next ``count`` pages in one call; returns their
        rotation: page ``i`` of the run goes to
        ``rotation[i % len(rotation)]``. The nodes, and the state the
        policy is left in, are those of ``count`` :meth:`choose_node`
        calls."""

    def rewind(self, count: int) -> None:
        """Take back the last ``count`` placements (the pages of a run
        after the one an allocation failure stopped it at)."""

    def reset(self) -> None:
        """Forget internal state (e.g. the interleave cursor)."""


class FirstTouchPolicy(PlacementPolicy):
    """Allocate on the socket of the first-touching thread (Linux default)."""

    def choose_node(self, hint: int) -> int:
        return hint

    def choose_run(self, hint: int, count: int) -> tuple[int, ...]:
        return (hint,)

    def reset(self) -> None:  # stateless
        pass

    def __repr__(self) -> str:
        return "FirstTouchPolicy()"


@dataclass
class InterleavePolicy(PlacementPolicy):
    """Round-robin pages across a node set (``numactl --interleave``)."""

    nodes: tuple[int, ...]
    #: Index into ``nodes`` of the next page's node.
    _cursor: int = field(default=0, init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.nodes:
            raise ValueError("interleave needs at least one node")

    def choose_node(self, hint: int) -> int:
        cursor = self._cursor
        self._cursor = (cursor + 1) % len(self.nodes)
        return self.nodes[cursor]

    def choose_run(self, hint: int, count: int) -> tuple[int, ...]:
        nodes, cursor = self.nodes, self._cursor
        self._cursor = (cursor + count) % len(nodes)
        return nodes[cursor:] + nodes[:cursor]

    def rewind(self, count: int) -> None:
        self._cursor = (self._cursor - count) % len(self.nodes)

    def reset(self) -> None:
        self._cursor = 0


@dataclass(frozen=True)
class FixedNodePolicy(PlacementPolicy):
    """Always allocate on one node (``numactl --membind``, and the paper's
    forced page-table placement for the workload-migration analysis)."""

    node: int

    def choose_node(self, hint: int) -> int:
        return self.node

    def choose_run(self, hint: int, count: int) -> tuple[int, ...]:
        return (self.node,)

    def reset(self) -> None:  # stateless
        pass
