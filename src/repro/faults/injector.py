"""Appliers that make a :class:`~repro.faults.plan.FaultPlan` happen.

Three wrappers, one per layer the PEE and builder depend on:

* :class:`FaultyTable` / :class:`FaultyBackend` — storage-level injection;
  a drop-in :class:`~repro.storage.table.StorageBackend` whose reads and
  writes fail/stall/corrupt per the plan.  Stack a
  :class:`repro.storage.resilient.ResilientBackend` on top and the whole
  retry/breaker machinery is exercised without a single real failure.
* :class:`FaultyIndex` — probe-level injection for the query path: wraps a
  built :class:`~repro.indexes.base.PathIndex` so its lookups raise
  :class:`~repro.storage.errors.TransientStorageError`, which is what
  drives the PEE's BFS fallback and ``degraded`` completeness flagging
  in tests (built indexes answer probes from memory, so storage faults
  alone cannot reach a live query).
* :class:`FaultyFactory` — a picklable backend-factory decorator, so
  fault-injected builds work unchanged on the process-pool executor.

Every injection site (one per table name / index) owns a PRNG seeded from
``(plan.seed, site)`` and a monotonically increasing operation counter, so
fault sequences are deterministic per site and independent of sibling
sites.
"""

from __future__ import annotations

import random
import time
from typing import Any, Callable, Iterator, List, Optional

from repro.faults.plan import FaultPlan
from repro.storage.errors import (
    PermanentStorageError,
    TransientStorageError,
)
from repro.storage.table import Row, StorageBackend, Table, TableSchema


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

    __slots__ = ("plan", "name", "_rng", "reads", "writes", "injected")

    def __init__(self, plan: FaultPlan, name: str) -> None:
        self.plan = plan
        self.name = name
        self._rng = random.Random(f"{plan.seed}:{name}")
        self.reads = 0
        self.writes = 0
        #: faults injected so far (tests assert the plan actually fired)
        self.injected = 0

    def _ops(self) -> int:
        return self.reads + self.writes

    def before_read(self, sleep: Callable[[float], None] = time.sleep) -> None:
        plan = self.plan
        if not plan.applies_to(self.name):
            return
        ops = self._ops()
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

    def before_write(self) -> None:
        plan = self.plan
        if not plan.applies_to(self.name):
            return
        ops = self._ops()
        self.writes += 1
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
        if plan.write_error_rate and self._rng.random() < plan.write_error_rate:
            self.injected += 1
            raise TransientStorageError(
                f"injected write error at {self.name!r} (op {ops})"
            )

    def maybe_corrupt(self, rows: List[Row]) -> List[Row]:
        plan = self.plan
        if (
            not plan.corrupt_rate
            or not plan.applies_to(self.name)
            or not rows
            or self._rng.random() >= plan.corrupt_rate
        ):
            return rows
        self.injected += 1
        victim = self._rng.randrange(len(rows))
        row = list(rows[victim])
        for i, value in enumerate(row):
            if isinstance(value, bool):
                continue
            if isinstance(value, int):
                row[i] = value ^ 1
                break
            if isinstance(value, float):
                row[i] = -value if value else 1.0
                break
            if isinstance(value, str):
                row[i] = value[::-1] if value else "\x00"
                break
        rows = list(rows)
        rows[victim] = tuple(row)
        return rows


class FaultyTable(Table):
    """A table whose operations obey a fault plan before delegating."""

    def __init__(self, inner: Table, site: FaultSite) -> None:
        super().__init__(inner.schema)
        self._inner = inner
        self.site = site

    def attach_observer(self, observer) -> None:
        self._inner.attach_observer(observer)

    def insert(self, row: Row) -> None:
        self.site.before_write()
        self._inner.insert(row)

    def insert_many(self, rows) -> None:
        # materialize first: the injected failure must strike *before* any
        # delegated write so a retry replays the whole batch exactly once
        materialized = list(rows)
        self.site.before_write()
        self._inner.insert_many(materialized)

    def scan(self) -> Iterator[Row]:
        self.site.before_read()
        rows = list(self._inner.scan())
        return iter(self.site.maybe_corrupt(rows))

    def scan_eq(self, column: str, value: Any) -> Iterator[Row]:
        self.site.before_read()
        rows = list(self._inner.scan_eq(column, value))
        return iter(self.site.maybe_corrupt(rows))

    def row_count(self) -> int:
        self.site.before_read()
        return self._inner.row_count()

    def size_bytes(self) -> int:
        # size accounting is bookkeeping, not data access: exempt
        return self._inner.size_bytes()


class FaultyBackend(StorageBackend):
    """Backend decorator injecting the plan into every table.

    Each table name gets its own :class:`FaultSite`; sites persist across
    ``table()`` calls so fail-first / break-after counters keep state.
    """

    def __init__(self, inner: StorageBackend, plan: FaultPlan) -> None:
        self._inner = inner
        self.plan = plan
        self._sites: dict = {}
        self._tables: dict = {}

    def site(self, name: str) -> FaultSite:
        existing = self._sites.get(name)
        if existing is None:
            existing = self._sites[name] = FaultSite(self.plan, name)
        return existing

    def injected_total(self) -> int:
        """Faults injected across all sites (tests assert this is > 0)."""
        return sum(site.injected for site in self._sites.values())

    def attach_observer(self, observer) -> None:
        self._observer = observer
        self._inner.attach_observer(observer)

    def _wrap(self, table: Table) -> FaultyTable:
        name = table.schema.name
        wrapped = self._tables.get(name)
        if wrapped is None or wrapped._inner is not table:
            wrapped = FaultyTable(table, self.site(name))
            self._tables[name] = wrapped
        return wrapped

    def create_table(self, schema: TableSchema) -> Table:
        return self._wrap(self._inner.create_table(schema))

    def table(self, name: str) -> Table:
        return self._wrap(self._inner.table(name))

    def drop_table(self, name: str) -> None:
        self._tables.pop(name, None)
        self._inner.drop_table(name)

    def table_names(self) -> List[str]:
        return self._inner.table_names()


class FaultyFactory:
    """Picklable ``backend_factory`` decorator: every product is faulty.

    Class (not closure) so process-pool builds can ship it to workers;
    each produced backend carries independent per-site PRNGs, keeping
    worker builds deterministic regardless of executor kind.
    """

    def __init__(
        self, inner_factory: Callable[[], StorageBackend], plan: FaultPlan
    ) -> None:
        self.inner_factory = inner_factory
        self.plan = plan

    def __call__(self) -> FaultyBackend:
        return FaultyBackend(self.inner_factory(), self.plan)


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

    @property
    def backend(self):
        return self._inner.backend

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
