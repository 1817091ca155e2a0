"""Appliers that make a :class:`~repro.faults.plan.FaultPlan` happen.

* :class:`FaultyIndex` — probe-level injection for the query path: wraps a
  built :class:`~repro.indexes.base.PathIndex` so its lookups raise
  :class:`~repro.storage.errors.TransientStorageError`, which is what
  drives the PEE's BFS fallback and ``degraded`` completeness flagging
  in tests (built indexes answer probes from memory, so this is how a
  fault reaches a live query).
* :class:`InjectedCrash` — what the WAL append path raises when a plan's
  ``crash_after_writes`` fires (:mod:`repro.wal.log`).

Every injection site owns a PRNG seeded from ``(plan.seed, site)`` and a
monotonically increasing operation counter, so fault sequences are
deterministic per site and independent of sibling sites.
"""

from __future__ import annotations

import random
import time
from typing import Callable

from repro.faults.plan import FaultPlan
from repro.storage.errors import (
    PermanentStorageError,
    TransientStorageError,
)


class InjectedCrash(BaseException):
    """A simulated process death at a write boundary.

    Raised by the WAL append path when a plan's ``crash_after_writes``
    fires: the record's frame has been *partially* written (a torn
    write), exactly as if the process had been killed mid-``write``.
    Derives from ``BaseException`` so no ``except Exception`` cleanup
    handler can "survive" the crash and roll back state the real dead
    process could never have rolled back — crash-point tests catch it
    explicitly, then exercise recovery (:mod:`repro.wal.recovery`).
    """


class FaultSite:
    """Deterministic fault state for one injection site."""

    __slots__ = ("plan", "name", "_rng", "reads", "injected")

    def __init__(self, plan: FaultPlan, name: str) -> None:
        self.plan = plan
        self.name = name
        self._rng = random.Random(f"{plan.seed}:{name}")
        self.reads = 0
        #: faults injected so far (tests assert the plan actually fired)
        self.injected = 0

    def before_read(self, sleep: Callable[[float], None] = time.sleep) -> None:
        plan = self.plan
        if not plan.applies_to(self.name):
            return
        ops = self.reads
        self.reads += 1
        if plan.break_after is not None and ops >= plan.break_after:
            self.injected += 1
            raise PermanentStorageError(
                f"injected hard failure at {self.name!r} (op {ops})"
            )
        if ops < plan.fail_first:
            self.injected += 1
            raise TransientStorageError(
                f"injected fail-first at {self.name!r} (op {ops})"
            )
        if plan.read_latency_rate and self._rng.random() < plan.read_latency_rate:
            self.injected += 1
            sleep(plan.latency_seconds)
        if plan.read_error_rate and self._rng.random() < plan.read_error_rate:
            self.injected += 1
            raise TransientStorageError(
                f"injected read error at {self.name!r} (op {ops})"
            )


class FaultyIndex:
    """Probe-level fault proxy around a built :class:`PathIndex`.

    Delegates the full query interface, gating every lookup through one
    :class:`FaultSite` (named ``index`` by default).  Wrap a meta
    document's index with this to rehearse query-time degradation::

        meta.index = FaultyIndex(meta.index, FaultPlan.hard_failure())
    """

    def __init__(
        self, inner, plan: FaultPlan, site_name: str = "index"
    ) -> None:
        self._inner = inner
        self.site = FaultSite(plan, site_name)

    # -- gated read probes ---------------------------------------------
    def reachable(self, source, target):
        self.site.before_read()
        return self._inner.reachable(source, target)

    def distance(self, source, target):
        self.site.before_read()
        return self._inner.distance(source, target)

    def find_descendants_by_tag(self, source, tag):
        self.site.before_read()
        return self._inner.find_descendants_by_tag(source, tag)

    def find_ancestors_by_tag(self, source, tag):
        self.site.before_read()
        return self._inner.find_ancestors_by_tag(source, tag)

    def reachable_subset(self, source, candidates):
        self.site.before_read()
        return self._inner.reachable_subset(source, candidates)

    def reaching_subset(self, target, candidates):
        self.site.before_read()
        return self._inner.reaching_subset(target, candidates)

    def coverage(self, previous, forward):
        self.site.before_read()
        return self._inner.coverage(previous, forward)

    # -- pass-throughs ----------------------------------------------------
    def prepare_link_candidates(self, candidates) -> None:
        self._inner.prepare_link_candidates(candidates)

    def contains(self, node) -> bool:
        return self._inner.contains(node)

    def _node_set(self):
        return self._inner._node_set()

    def size_bytes(self) -> int:
        return self._inner.size_bytes()

    def fingerprint(self) -> str:
        return self._inner.fingerprint()

    @property
    def node_count(self) -> int:
        return self._inner.node_count

    @property
    def strategy_name(self) -> str:
        return self._inner.strategy_name
