"""Fork-based shard pool for the parallel lint driver.

The lint pipeline has two embarrassingly parallel phases — per-file
rule visits and the whole-program rule sweep — whose inputs (parsed
ASTs, the :class:`~repro.lint.callgraph.ProjectIndex`) are large and
whose outputs (:class:`~repro.lint.core.Finding` lists) are small.
(Dataflow IR extraction stays serial: sharding it measured slower than
running it in one process.) That shape wants **fork** semantics: a
forked child inherits every parsed module and the whole index through
copy-on-write memory for free, and only the small results cross the pipe
back. Nothing here pickles an AST.

:func:`fork_map` is the one primitive: split the work items into ``jobs``
contiguous shards, fork one child per shard, and collect
``(index, result)`` pairs over one-way pipes. It is deliberately *not*
:class:`repro.fleet.pool.WorkerPool` — the fleet pool spawns warm
workers eagerly and speaks a job-spec/result protocol sized for
long-lived campaigns, while a lint run wants lazy one-shot shards that
inherit in-memory analysis state — but it follows the same pipe
discipline the concurrency lint layer enforces on the fleet: the child
owns its ``Connection`` end and closes it on every path, the parent
closes its end after the final ``recv``, and a shard that dies (pipe
EOF, nonzero exit, unpicklable result) degrades to re-running that shard
serially in the parent, so ``--jobs N`` can never lose findings.

Determinism: shard boundaries never reach the output — callers get
results keyed by input position and merge in input order, so ``--jobs 4``
and ``--jobs 1`` produce byte-identical reports.

On platforms without the ``fork`` start method (Windows, some macOS
configurations) :data:`AVAILABLE` is ``False`` and :func:`fork_map` runs
serially in-process; ``--jobs`` then degrades gracefully.
"""

from __future__ import annotations

import multiprocessing
import os
import traceback
from multiprocessing.connection import Connection
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

#: Whether real fork-based sharding is available on this platform.
AVAILABLE = "fork" in multiprocessing.get_all_start_methods()


def default_jobs() -> int:
    """A conservative default shard count: the CLI's ``--jobs 0``."""
    return max(1, min(8, (os.cpu_count() or 2) // 2))


# protocol: sends[lint-shard] -- one ("ok"/"error", payload) message per shard
def _shard_main(conn: Connection, fn: Callable, shard: list) -> None:
    """Child-process main: run ``fn`` over one shard, send results back.

    Runs in a **forked** child: ``fn`` and the items (with everything
    they close over — parsed modules, the project index) were inherited
    through copy-on-write memory, never pickled. Only the result list
    crosses the pipe. Any failure is reported as an ``("error", ...)``
    message rather than a traceback on stderr; the parent re-runs the
    shard serially.
    """
    try:
        results = [(index, fn(item)) for index, item in shard]
        conn.send(("ok", results))
    except BaseException:  # noqa: BLE001 - child must never propagate
        try:
            conn.send(("error", traceback.format_exc()))
        except (OSError, ValueError):  # pragma: no cover - parent gone
            pass
    finally:
        conn.close()


def _shards(items: Sequence, jobs: int) -> list[list]:
    """Split ``enumerate(items)`` into ``jobs`` contiguous non-empty
    shards. Contiguity keeps each child's working set (modules of one
    directory subtree, SCCs discovered together) warm in its COW pages.
    """
    indexed = list(enumerate(items))
    count = min(jobs, len(indexed))
    base, extra = divmod(len(indexed), count)
    shards: list[list] = []
    start = 0
    for shard_index in range(count):
        size = base + (1 if shard_index < extra else 0)
        shards.append(indexed[start : start + size])
        start += size
    return shards


# protocol: receives[lint-shard] -- drains each shard child's single message
def fork_map(
    fn: Callable[[T], R],
    items: Sequence[T],
    jobs: int,
) -> list[R]:
    """Map ``fn`` over ``items`` across ``jobs`` forked shard workers.

    Returns results in input order, exactly like ``[fn(x) for x in
    items]``. Falls back to the serial map when ``jobs <= 1``, when there
    are fewer than two items, or when fork is unavailable; individual
    shard failures (a crashed child, an unpicklable result) are retried
    serially in the parent, so the parallel path can only ever *match*
    the serial path's output.
    """
    if jobs <= 1 or len(items) < 2 or not AVAILABLE:
        return [fn(item) for item in items]
    ctx = multiprocessing.get_context("fork")
    pipes: list[tuple[Connection, Connection, list]] = []
    for shard in _shards(items, jobs):
        recv_end, send_end = ctx.Pipe(duplex=False)
        pending = (recv_end, send_end, shard)  # ownership: the spawn loop
        pipes.append(pending)
    workers: list[tuple[Connection, multiprocessing.Process, list]] = []
    for recv_end, send_end, shard in pipes:
        process = ctx.Process(
            target=_shard_main, args=(send_end, fn, shard), daemon=True
        )
        process.start()
        worker = (recv_end, process, shard)  # ownership: the drain loop
        workers.append(worker)
        send_end.close()  # the child owns that end now
    results: dict[int, R] = {}
    retry: list[list] = []
    for recv_end, process, shard in workers:
        try:
            status, payload = recv_end.recv()
        except (EOFError, OSError):  # child died before sending
            status, payload = "error", "shard worker died before replying"
        finally:
            recv_end.close()
        process.join()
        if status == "ok":
            results.update(payload)
        else:
            retry.append(shard)
    for shard in retry:  # degraded mode: redo failed shards in-process
        for index, item in shard:
            results[index] = fn(item)
    return [results[index] for index in range(len(items))]
