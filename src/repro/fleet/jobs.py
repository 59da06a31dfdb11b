"""Job descriptors and content-addressed job keys.

A fleet *job* is one deterministic cell of a sweep: a scenario
measurement, a chaos cell, or a probe (the fleet's own self-test job).
The spec dataclasses live next to the harnesses they describe —
:class:`~repro.sim.scenario.ScenarioSpec`,
:class:`~repro.sim.chaos.ChaosSpec` — and this module adds the
fleet-only :class:`ProbeSpec` and derives the **content-addressed job
key**: a SHA-256 over the canonical JSON of ``(spec, engine tier, code
version)``. Same spec + same engine + same code ⇒ same key ⇒ a cached
result is valid; any of the three changing re-keys the cell, which is
what makes incremental re-runs after code changes safe.

A spec's frozen dataclass fields are its only encoding: the key hashes
them together with ``kind``, and a pool worker receives the spec object
itself, pickled over its pipe. Every spec class implements the same
small protocol::

    kind                      # class attribute, hashed into the key
    label() -> str            # short human-readable cell name
    reproducer() -> str       # one-line command rerunning the cell
    run(attempt: int) -> dict # JSON-safe payload; "ok" key is the verdict
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import asdict, dataclass
from typing import Iterable, Protocol

from repro._version import __version__
from repro.sim.chaos import SCENARIOS as CHAOS_SCENARIOS
from repro.sim.chaos import ChaosSpec
from repro.sim.scenario import ScenarioSpec

#: Version of the key derivation itself; bump to invalidate every cache.
KEY_SCHEMA = "repro-fleet-job/1"


class JobSpecLike(Protocol):
    """The structural type every spec (a frozen dataclass) satisfies."""

    kind: str

    def label(self) -> str: ...

    def reproducer(self) -> str: ...

    def run(self, attempt: int = 1) -> dict: ...


@dataclass(frozen=True)
class ProbeSpec:
    """The fleet's self-test job: deterministic success, failure, crash or
    hang on demand.

    ``behavior``:

    * ``ok`` — return a payload carrying ``value``;
    * ``fail`` — raise (a job-level error the dispatcher retries);
    * ``flaky`` — fail while ``attempt < succeed_after``, then succeed
      (the transient-fault shape bounded retries exist for);
    * ``crash`` — ``os._exit`` without a result (a worker crash);
    * ``hang`` — sleep past any reasonable timeout (a hung worker the
      pool slot must kill at its deadline);
    * ``stubborn`` — install a SIGTERM-ignoring handler, then hang: the
      worst-case worker that survives the polite kill, proving the pool
      slot's SIGTERM→SIGKILL escalation. Worker mode only — inline
      it would rebind the dispatcher process's own SIGTERM handler.
    """

    behavior: str = "ok"
    succeed_after: int = 1
    hang_seconds: float = 3600.0
    value: int = 0
    kind = "probe"

    BEHAVIORS = ("ok", "fail", "flaky", "crash", "hang", "stubborn")

    def __post_init__(self) -> None:
        if self.behavior not in self.BEHAVIORS:
            raise ValueError(
                f"unknown probe behavior {self.behavior!r}; "
                f"choose from {self.BEHAVIORS}"
            )

    def label(self) -> str:
        return f"probe:{self.behavior}/{self.value}"

    def reproducer(self) -> str:
        """One-line command that reruns exactly this probe (the dataclass
        ``repr`` is the Python expression that rebuilds it)."""
        return (
            "python -c \"from repro.fleet.jobs import ProbeSpec; "
            f"print({self!r}.run(attempt=1))\""
        )

    def run(self, attempt: int = 1) -> dict:
        if self.behavior == "crash":
            os._exit(23)  # simulate a worker dying without a result
        if self.behavior == "stubborn":
            import signal

            signal.signal(signal.SIGTERM, signal.SIG_IGN)
            time.sleep(self.hang_seconds)
        if self.behavior == "hang":
            time.sleep(self.hang_seconds)
        if self.behavior == "fail" or (
            self.behavior == "flaky" and attempt < self.succeed_after
        ):
            raise RuntimeError(
                f"probe {self.behavior!r} failing on attempt {attempt}"
            )
        return {"ok": True, "value": self.value, "attempt": attempt}


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, no whitespace — the hashing and
    checksum base for job keys and cache entries."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# dataflow: sink[determinism] -- the cache key must replay bit-identically across runs and hosts
def job_key(
    spec: JobSpecLike, engine: str = "vector", code_version: str = __version__
) -> str:
    """Stable content hash of ``(spec, engine tier, code version)``.

    This is the cache key: two invocations — even days apart, even on
    different machines — that would compute the same deterministic result
    derive the same key, and any code change (version bump) or engine
    switch re-keys every cell.
    """
    material = canonical_json(
        {
            "schema": KEY_SCHEMA,
            "spec": {"kind": spec.kind, **asdict(spec)},
            "engine": engine,
            "code": code_version,
        }
    )
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


def chaos_grid(
    scenarios: Iterable[str] | None = None,
    seeds: Iterable[int] = (7,),
    intensities: Iterable[float] = (1.0,),
) -> list[ChaosSpec]:
    """The chaos-campaign grid: every (scenario, seed, intensity) cell."""
    names = list(scenarios) if scenarios is not None else list(CHAOS_SCENARIOS)
    return [
        ChaosSpec(scenario=name, seed=seed, intensity=intensity)
        for name in names
        for seed in seeds
        for intensity in intensities
    ]


def scenario_grid(
    harness: str,
    workloads: Iterable[str],
    configs: Iterable[str],
    seeds: Iterable[int] = (1234,),
    **common,
) -> list[ScenarioSpec]:
    """A scenario-sweep grid: every (workload, config, seed) cell."""
    return [
        ScenarioSpec(
            harness=harness, workload=workload, config=config, seed=seed, **common
        )
        for workload in workloads
        for config in configs
        for seed in seeds
    ]
