"""Per-NUMA-node physical frame allocator.

Each memory node has its own allocator; requesting a frame from a specific
node is *strict* in the paper's sense (§5.1): it either succeeds on that
node or raises :class:`~repro.errors.OutOfMemoryError` — it never silently
falls back to another node. Fallback policies live above this layer.

The allocator serves two sizes: order-0 (4 KiB) frames and order-9 (2 MiB,
naturally aligned) blocks for transparent huge pages. Never-touched memory
is handed out from a bump pointer; freed memory is recycled from free lists.
Small free space is kept as ``(start_pfn, count)`` ranges so fragmenting a
large node does not materialise millions of list entries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import OutOfMemoryError
from repro.inject.plan import SITE_ALLOCATOR_OOM
from repro.units import PAGE_SIZE, PAGES_PER_HUGE_PAGE

#: log2(frames per huge page)
HUGE_ORDER = 9


@dataclass
class NodeAllocator:
    """Frame allocator for one NUMA node.

    Attributes:
        node: Node id (== socket id).
        pfn_base: First PFN belonging to this node.
        capacity_frames: Total 4 KiB frames on the node.
    """

    node: int
    pfn_base: int
    capacity_frames: int
    #: Optional :class:`repro.inject.plan.FaultPlan` consulted before every
    #: strict allocation (installed via ``PhysicalMemory.install_fault_plan``).
    fault_plan: object | None = field(default=None, repr=False, compare=False)
    _bump: int = field(init=False)
    _free_ranges: list[list[int]] = field(init=False, default_factory=list)
    _free_huge: list[int] = field(init=False, default_factory=list)
    _used_frames: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        if self.capacity_frames <= 0:
            raise ValueError(f"node {self.node}: capacity must be positive")
        self._bump = self.pfn_base

    @property
    def pfn_end(self) -> int:
        """One past the last PFN of this node."""
        return self.pfn_base + self.capacity_frames

    @property
    def used_frames(self) -> int:
        return self._used_frames

    @property
    def free_frames(self) -> int:
        return self.capacity_frames - self._used_frames

    @property
    def used_bytes(self) -> int:
        return self._used_frames * PAGE_SIZE

    def owns(self, pfn: int) -> bool:
        """True when ``pfn`` belongs to this node's range."""
        return self.pfn_base <= pfn < self.pfn_end

    # -- order-0 ------------------------------------------------------------

    def alloc_frame(self) -> int:
        """Allocate one 4 KiB frame; returns its PFN.

        Raises:
            OutOfMemoryError: the node has no free frame (or an installed
                fault plan injected one — indistinguishable to callers, by
                design).
        """
        if self.fault_plan is not None:
            self._maybe_inject(PAGE_SIZE)
        if self._free_ranges:
            last = self._free_ranges[-1]
            pfn = last[0]
            last[0] += 1
            last[1] -= 1
            if last[1] == 0:
                self._free_ranges.pop()
            self._used_frames += 1
            return pfn
        if self._free_huge:
            head = self._free_huge.pop()
            self._free_ranges.append([head + 1, PAGES_PER_HUGE_PAGE - 1])
            self._used_frames += 1
            return head
        pfn = self._bump
        if pfn < self.pfn_base + self.capacity_frames:
            self._bump = pfn + 1
            self._used_frames += 1
            return pfn
        raise OutOfMemoryError(self.node, PAGE_SIZE)

    def alloc_frames(self, count: int) -> list[int]:
        """Allocate up to ``count`` 4 KiB frames in one call (Linux's
        ``alloc_pages_bulk``); returns their PFNs.

        The PFNs are those ``count`` calls of :meth:`alloc_frame` would
        return, in the same order and from the same sources: the last
        free range first, then a split free huge block, then the bump
        pointer. An installed fault plan is consulted once per frame, as
        those calls would consult it. Where one of them would raise, the
        take stops instead: the result holds the frames allocated before
        it, and the refused frame's plan call is made.
        """
        if self.fault_plan is not None:
            count = self._plan_allows(count)
        pfns: list[int] = []
        ranges = self._free_ranges
        left = count
        while left:
            if ranges:
                last = ranges[-1]
                start, size = last
                if size <= left:
                    ranges.pop()
                    take = size
                else:
                    take = left
                    last[0] = start + take
                    last[1] = size - take
            elif self._free_huge:
                # alloc_frame's split: the head, then the tail as a range.
                ranges.append([self._free_huge.pop(), PAGES_PER_HUGE_PAGE])
                continue
            else:
                start = self._bump
                self._bump = min(start + left, self.pfn_end)
                pfns.extend(range(start, self._bump))
                break  # the bump pointer is the last source
            pfns.extend(range(start, start + take))
            left -= take
        self._used_frames += len(pfns)
        return pfns

    def _plan_allows(self, count: int) -> int:
        """How many of ``count`` :meth:`alloc_frame` calls the fault plan
        lets through: each is one plan call, up to the first refusal or
        the first call that finds the node empty."""
        plan = self.fault_plan
        free = self.free_frames
        allowed = 0
        while allowed < count:
            if plan.fire(SITE_ALLOCATOR_OOM, node=self.node) is not None or allowed == free:
                break
            allowed += 1
        return allowed

    def free_frame(self, pfn: int) -> None:
        """Return one 4 KiB frame to the node."""
        self._check_owned(pfn)
        # Try to extend an adjacent range before growing the list.
        for entry in reversed(self._free_ranges[-8:]):
            if entry[0] == pfn + 1:
                entry[0] = pfn
                entry[1] += 1
                self._used_frames -= 1
                return
            if entry[0] + entry[1] == pfn:
                entry[1] += 1
                self._used_frames -= 1
                return
        self._free_ranges.append([pfn, 1])
        self._used_frames -= 1

    # -- order-9 (2 MiB) ----------------------------------------------------

    def alloc_huge(self) -> int:
        """Allocate a naturally aligned 2 MiB block; returns the head PFN.

        Raises:
            OutOfMemoryError: no contiguous aligned block is available, even
                if enough scattered 4 KiB frames remain — this is exactly the
                fragmentation failure mode of Fig. 11.
        """
        self._maybe_inject(PAGES_PER_HUGE_PAGE * PAGE_SIZE)
        if self._free_huge:
            head = self._free_huge.pop()
            self._used_frames += PAGES_PER_HUGE_PAGE
            return head
        aligned = -(-self._bump // PAGES_PER_HUGE_PAGE) * PAGES_PER_HUGE_PAGE
        if aligned + PAGES_PER_HUGE_PAGE <= self.pfn_end:
            if aligned > self._bump:
                self._free_ranges.append([self._bump, aligned - self._bump])
            self._bump = aligned + PAGES_PER_HUGE_PAGE
            self._used_frames += PAGES_PER_HUGE_PAGE
            return aligned
        raise OutOfMemoryError(self.node, PAGES_PER_HUGE_PAGE * PAGE_SIZE)

    def free_huge(self, head_pfn: int) -> None:
        """Return a 2 MiB block allocated with :meth:`alloc_huge`."""
        self._check_owned(head_pfn)
        if head_pfn % PAGES_PER_HUGE_PAGE != 0:
            raise ValueError(f"pfn {head_pfn} is not 2 MiB aligned")
        self._free_huge.append(head_pfn)
        self._used_frames -= PAGES_PER_HUGE_PAGE

    def break_huge_block(self) -> int:
        """Destroy one 2 MiB block's contiguity: its head frame is allocated
        (returned) and the 511 tail frames become order-0 free memory. Used
        by the fragmentation injector (Fig. 11).

        Raises:
            OutOfMemoryError: no 2 MiB block left to break.
        """
        head = self.alloc_huge()
        self._free_ranges.append([head + 1, PAGES_PER_HUGE_PAGE - 1])
        self._used_frames -= PAGES_PER_HUGE_PAGE - 1
        return head

    def huge_blocks_available(self) -> int:
        """How many 2 MiB allocations could currently succeed."""
        aligned = -(-self._bump // PAGES_PER_HUGE_PAGE) * PAGES_PER_HUGE_PAGE
        from_bump = max(0, (self.pfn_end - aligned) // PAGES_PER_HUGE_PAGE)
        return from_bump + len(self._free_huge)

    def _maybe_inject(self, nbytes: int) -> None:
        plan = self.fault_plan
        if plan is not None and plan.fire(SITE_ALLOCATOR_OOM, node=self.node) is not None:
            raise OutOfMemoryError(
                self.node, nbytes, f"injected fault: node {self.node} out of memory"
            )

    def _check_owned(self, pfn: int) -> None:
        if not self.owns(pfn):
            raise ValueError(f"pfn {pfn} does not belong to node {self.node}")
