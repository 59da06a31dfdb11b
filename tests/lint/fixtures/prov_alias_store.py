"""Seeded PVOPS001 violation: a raw PTE store through an `.entries` alias.

Binding the array to a local first hides the store from any check that
only matches targets spelled ``<x>.entries[...]``; PVOPS001 collects the
function's aliases of ``.entries`` up front and still flags the store.
``apply_entry_write`` is the blessed writer — stores inside it are the
PV-Ops choke point itself and must not be reported.
"""


def poke_entry(page, index: int, value: int) -> None:
    entries = page.entries
    entries[index] = value  # BUG: raw store, bypasses apply_entry_write


def apply_entry_write(page, index: int, value: int) -> None:
    page.entries[index] = value  # the choke point itself: exempt
