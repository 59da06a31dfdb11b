"""Runtime PTE write sanitizer — the dynamic twin of rule ``PVOPS001``.

The static rule sees *syntax*; this guard sees *behaviour*. When
installed, every :class:`~repro.paging.pagetable.PageTablePage` created
afterwards gets its ``entries`` list wrapped in :class:`GuardedEntries`,
whose ``__setitem__`` walks the caller stack and

* **allows** stores originating inside ``PagingOps.apply_entry_write``
  or its run form ``apply_entry_run`` (the PV-Ops choke point) or inside
  a hardware walker's ``walk`` or ``walk_into`` (real MMUs set A/D bits
  without telling the OS — §5.4);
* **records** writer provenance (function, file, line) for every store in
  a bounded ring, so a chaos failure can answer "who wrote this PTE?";
* **raises** :class:`~repro.errors.PTEWriteBypassError` on anything else.

It is debug-mode machinery: stack inspection per PTE store is far too
slow for benchmarking, so it is opt-in via the ``REPRO_PTE_SANITIZER=1``
environment variable (honoured by the chaos CLI and the test suite's
conftest) or an explicit ``PTESanitizer().install()``.
"""

from __future__ import annotations

import os
import sys
from collections import deque
from dataclasses import dataclass
from typing import Iterable

from repro.errors import PTEWriteBypassError
from repro.paging.pagetable import PageTablePage

ENV_FLAG = "REPRO_PTE_SANITIZER"

#: Stack frames whose mere presence legitimises a store: the PV-Ops choke
#: point and its run form, anywhere they are defined.
ALLOWED_WRITER_FUNCTIONS = frozenset({"apply_entry_write", "apply_entry_run"})

#: ``(function name, filename suffix)`` pairs for hardware-side writers:
#: the 1D walker (per walk, and batched into caller-owned arrays) and the
#: nested (2D) walker set A/D bits directly, exactly as the MMU does —
#: outside PV-Ops *by design*.
HARDWARE_WRITERS: tuple[tuple[str, str], ...] = (
    ("walk", "paging/walker.py"),
    ("walk_into", "paging/walker.py"),
    ("walk", "virt/nested.py"),
)

#: How many frames above ``__setitem__`` to search for a legitimate writer.
_MAX_STACK_DEPTH = 12

#: Nesting depth of :func:`simulated_hardware` blocks (single-threaded sim).
_hardware_depth = 0


class simulated_hardware:
    """Context manager marking raw stores as simulated-hardware writes.

    Tests that *deliberately* bypass PV-Ops — to model the MMU diverging a
    replica's A/D bits, or to inject corruption for the verifier to catch
    — wrap the store so the sanitizer treats it like a walker's hardware
    write instead of a contract violation::

        with simulated_hardware():
            replica.entries[index] = corrupted
    """

    def __enter__(self) -> "simulated_hardware":
        global _hardware_depth
        _hardware_depth += 1
        return self

    def __exit__(self, *exc_info) -> None:
        global _hardware_depth
        _hardware_depth -= 1


def env_enabled(environ: dict[str, str] | None = None) -> bool:
    """Is the ``REPRO_PTE_SANITIZER`` flag set to a truthy value?"""
    value = (environ if environ is not None else os.environ).get(ENV_FLAG, "")
    return value.strip().lower() in {"1", "true", "yes", "on"}


@dataclass(frozen=True)
class WriteRecord:
    """Provenance of one guarded PTE store."""

    page_pfn: int
    index: int
    value: int
    writer: str  # function name of the nearest caller
    filename: str
    lineno: int
    allowed: bool

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        verdict = "ok" if self.allowed else "BYPASS"
        return (
            f"[{verdict}] pfn={self.page_pfn} entries[{self.index}]="
            f"0x{self.value:x} by {self.writer} ({self.filename}:{self.lineno})"
        )


class GuardedEntries(list):
    """A 512-entry PTE array that checks writer provenance on every store."""

    __slots__ = ("sanitizer", "page_pfn")

    def __init__(self, values: Iterable[int], sanitizer: "PTESanitizer", page_pfn: int):
        super().__init__(values)
        self.sanitizer = sanitizer
        self.page_pfn = page_pfn

    def __setitem__(self, index, value) -> None:
        self.sanitizer.check_write(self, index, value)
        super().__setitem__(index, value)

    def _refuse(self, what: str):
        raise PTEWriteBypassError(
            index=-1,
            value=0,
            writer=what,
            message=f"entries.{what} resizes a page-table page; tables are "
            "fixed 512-entry arrays",
        )

    def append(self, value):  # pragma: no cover - defensive
        self._refuse("append()")

    def extend(self, values):  # pragma: no cover - defensive
        self._refuse("extend()")

    def insert(self, index, value):  # pragma: no cover - defensive
        self._refuse("insert()")

    def pop(self, index=-1):  # pragma: no cover - defensive
        self._refuse("pop()")

    def remove(self, value):  # pragma: no cover - defensive
        self._refuse("remove()")

    def clear(self):  # pragma: no cover - defensive
        self._refuse("clear()")

    def __delitem__(self, index):  # pragma: no cover - defensive
        self._refuse("__delitem__()")


class PTESanitizer:
    """Installable guard wrapping every new ``PageTablePage.entries``.

    Usable as a context manager::

        with PTESanitizer() as san:
            run_chaos("replication-oom", seed=7)
            assert san.violations == 0
    """

    def __init__(self, record_limit: int = 256, strict: bool = True):
        #: Raise on a bypassing store (``False`` -> record only).
        self.strict = strict
        self.records: deque[WriteRecord] = deque(maxlen=record_limit)
        self.writes_checked = 0
        self.violations = 0
        self._orig_init = None

    # -- install / uninstall --------------------------------------------------

    def install(self) -> "PTESanitizer":
        """Patch ``PageTablePage.__init__`` so new pages are guarded."""
        if self._orig_init is not None:
            return self
        orig_init = PageTablePage.__init__
        sanitizer = self

        def guarded_init(page, frame, level, primary=None):
            orig_init(page, frame, level, primary)
            # lint: allow[PVOPS001] -- the sanitizer itself: swaps the fresh array for the guard that enforces the contract
            page.entries = GuardedEntries(page.entries, sanitizer, frame.pfn)

        self._orig_init = orig_init
        PageTablePage.__init__ = guarded_init
        return self

    def uninstall(self) -> None:
        if self._orig_init is not None:
            PageTablePage.__init__ = self._orig_init
            self._orig_init = None

    def __enter__(self) -> "PTESanitizer":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    @property
    def installed(self) -> bool:
        return self._orig_init is not None

    # -- the check ------------------------------------------------------------

    def check_write(self, entries: GuardedEntries, index, value) -> None:
        self.writes_checked += 1
        allowed = _hardware_depth > 0
        # Frame 0 is check_write, 1 is GuardedEntries.__setitem__'s caller.
        frame = sys._getframe(2)
        nearest = frame
        depth = 0
        while not allowed and frame is not None and depth < _MAX_STACK_DEPTH:
            code = frame.f_code
            if code.co_name in ALLOWED_WRITER_FUNCTIONS:
                allowed = True
                break
            for func_name, suffix in HARDWARE_WRITERS:
                if code.co_name == func_name and code.co_filename.endswith(suffix):
                    allowed = True
                    break
            if allowed:
                break
            frame = frame.f_back
            depth += 1
        record = WriteRecord(
            page_pfn=entries.page_pfn,
            index=index if isinstance(index, int) else getattr(index, "start", -1),
            value=value if isinstance(value, int) else 0,
            writer=nearest.f_code.co_name,
            filename=nearest.f_code.co_filename,
            lineno=nearest.f_lineno,
            allowed=allowed,
        )
        self.records.append(record)
        if not allowed:
            self.violations += 1
            if self.strict:
                raise PTEWriteBypassError(
                    index=record.index,
                    value=record.value,
                    writer=(
                        f"{record.writer} "
                        f"({record.filename}:{record.lineno})"
                    ),
                )

    # -- reporting ------------------------------------------------------------

    def summary(self) -> str:
        return (
            f"PTE sanitizer: {self.writes_checked} store(s) checked, "
            f"{self.violations} bypass(es)"
        )


def install_from_env(environ: dict[str, str] | None = None) -> PTESanitizer | None:
    """Install a sanitizer iff ``REPRO_PTE_SANITIZER`` is truthy."""
    if not env_enabled(environ):
        return None
    return PTESanitizer().install()
