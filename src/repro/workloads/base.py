"""Workload model: synthetic address-stream generators.

The paper evaluates big-memory workloads (Table 1) whose relevant behaviour
— for page-table placement — is captured by four properties:

* **footprint** relative to TLB reach (drives the TLB miss rate),
* **access pattern** (uniform random, skewed, pointer-chase, streaming —
  drives locality in TLBs, MMU caches and the LLC),
* **memory-level parallelism** (random-update kernels overlap many misses;
  pointer chases cannot),
* **initialisation style** (who first-touches memory decides where data
  *and page-table* pages land, §3.1).

Each workload produces per-thread streams of page-granular virtual
addresses; the engine charges cycles for each access through the full
TLB -> MMU-cache -> walker -> LLC -> DRAM stack.

Footprints are scaled from the paper's 17-480 GB to tens/hundreds of MiB
(DESIGN.md "Scaling rule"): what matters is footprint >> TLB reach, which
still holds by 1-2 orders of magnitude.
"""

from __future__ import annotations

import abc
import zlib
from dataclasses import dataclass

import numpy as np

from repro.units import MIB, PAGE_SIZE

#: Doubles drawn per block by :func:`bernoulli` (a reused 512 KiB buffer).
BERNOULLI_BLOCK = 1 << 16


def bernoulli(rng: np.random.Generator, count: int, p: float) -> np.ndarray:
    """``rng.random(count) < p``, without its ``count``-sized float64
    temporary.

    The doubles are drawn ``BERNOULLI_BLOCK`` at a time into one reused
    buffer (``Generator.random(out=)``) and compared straight into the
    mask (``np.less(out=)``). The generator yields the same doubles
    whether they are drawn in one call or in blocks, so the mask and the
    generator's state after it are exactly the one-call form's: the draw
    is made whatever ``p`` is.
    """
    mask = np.empty(count, dtype=bool)
    block = np.empty(min(count, BERNOULLI_BLOCK), dtype=np.float64)
    for lo in range(0, count, BERNOULLI_BLOCK):
        hi = min(lo + BERNOULLI_BLOCK, count)
        draws = block[:hi - lo]
        rng.random(out=draws)
        np.less(draws, p, out=mask[lo:hi])
    return mask


@dataclass(frozen=True)
class WorkloadProfile:
    """Static behavioural parameters of a workload.

    Attributes:
        name: Registry name (lower-case).
        description: Table 1 style one-liner.
        mlp: Memory-level parallelism — how many misses overlap. Pointer
            chases (BTree, Canneal) sit near 1-2, independent random updates
            (GUPS) near 8, streaming near 10.
        data_llc_hit_rate: Probability a data access is served from cache
            (captures each pattern's inherent locality).
        pt_llc_pressure: Probability that the workload's data traffic has
            evicted a leaf PTE cache-line from the shared LLC between two
            walks that use it (0 = PT lines live undisturbed, ~0.6 =
            reuse-heavy data crowds them out). This is what separates the
            GUPS-style "page-tables stay cached even when remote" 2 MiB
            behaviour from the Redis/Canneal slowdowns in Fig. 10b (§8.2).
        write_fraction: Fraction of accesses that are stores.
        serial_init: True when one thread initialises all memory (the
            first-touch skew of §3.1, e.g. Graph500's generator phase).
        paper_footprint_ms: Footprint in the multi-socket scenario (bytes;
            0 when the paper does not run it there) — documentation only.
        paper_footprint_wm: Footprint in the workload-migration scenario.
    """

    name: str
    description: str
    mlp: float
    data_llc_hit_rate: float
    pt_llc_pressure: float
    write_fraction: float
    serial_init: bool = False
    paper_footprint_ms: int = 0
    paper_footprint_wm: int = 0


class Workload(abc.ABC):
    """A synthetic workload over ``footprint`` bytes of anonymous memory."""

    profile: WorkloadProfile

    def __init__(self, footprint: int = 128 * MIB, seed: int = 1234):
        if footprint < PAGE_SIZE:
            raise ValueError(f"footprint {footprint} smaller than one page")
        self.footprint = footprint
        self.seed = seed

    @property
    def name(self) -> str:
        return self.profile.name

    @property
    def n_pages(self) -> int:
        return self.footprint // PAGE_SIZE

    def rng(self, thread: int) -> np.random.Generator:
        """Deterministic per-thread generator.

        The per-workload component must be a *stable* digest of the name:
        builtin ``hash()`` is salted per-process (PYTHONHASHSEED), which
        would give every run a different address stream (lint DET003).
        """
        name_digest = zlib.crc32(self.profile.name.encode()) & 0xFFFF
        return np.random.default_rng((self.seed, name_digest, thread))

    @abc.abstractmethod
    def offsets(self, thread: int, n_threads: int, count: int) -> np.ndarray:
        """``count`` byte offsets into the footprint for one thread.

        Offsets are page-granular positions the engine turns into virtual
        addresses by adding the mapping base. Every call returns a fresh,
        writeable array that the caller owns: the engine adds the base in
        place rather than making a second stream-sized array, so the
        result must share no memory with the workload or with another
        call's result.
        """

    def writes(self, thread: int, count: int) -> np.ndarray:
        """Boolean store-mask matching :meth:`offsets` (default: iid)."""
        if self.profile.write_fraction <= 0.0:
            return np.zeros(count, dtype=bool)
        if self.profile.write_fraction >= 1.0:
            return np.ones(count, dtype=bool)
        rng = np.random.default_rng((self.seed, 0xBEEF, thread))
        return bernoulli(rng, count, self.profile.write_fraction)

    def init_partition(self, thread: int, n_threads: int) -> tuple[int, int]:
        """Byte range ``[start, end)`` of the footprint thread ``thread``
        initialises. Serial-init workloads give everything to thread 0."""
        if self.profile.serial_init:
            return (0, self.footprint) if thread == 0 else (0, 0)
        pages = self.n_pages
        lo = pages * thread // n_threads
        hi = pages * (thread + 1) // n_threads
        return lo * PAGE_SIZE, hi * PAGE_SIZE

    def _uniform_pages(self, rng: np.random.Generator, count: int) -> np.ndarray:
        pages = rng.integers(0, self.n_pages, size=count, dtype=np.int64)
        pages *= PAGE_SIZE
        return pages

    def _zipf_pages(self, rng: np.random.Generator, count: int, s: float) -> np.ndarray:
        """Zipf-skewed page offsets (key-value stores: hot keys exist, but
        the tail is what blows the TLB)."""
        ranks = np.arange(1, self.n_pages + 1, dtype=np.float64)
        weights = 1.0 / np.power(ranks, s)
        weights /= weights.sum()
        pages = rng.choice(self.n_pages, size=count, p=weights)
        # Scatter ranks over the address space so hot pages are not adjacent.
        scattered = (pages * np.int64(2654435761)) % self.n_pages
        return scattered.astype(np.int64) * PAGE_SIZE

    def __repr__(self) -> str:
        return f"<{type(self).__name__} footprint={self.footprint >> 20} MiB>"
