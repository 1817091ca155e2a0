"""``repro.faults`` — deterministic, seedable fault injection.

FliX targets web-scale linked XML collections whose storage and link
structure are unreliable by nature; the resilience layer (the PEE's
graceful degradation, the builder's failure ladder, ``repro repair``, WAL
recovery) exists to survive that.  This package makes those behaviors
*testable* without real failures:

* :class:`FaultPlan` — a declarative failure scenario (error rates,
  latency spikes, fail-N-then-succeed, break-after-N, crash points),
  fully reproducible from its seed;
* :class:`FaultyIndex` — probe-level injection wrapping a built
  :class:`~repro.indexes.base.PathIndex` (query-time probes are served
  from memory, so this is how a fault reaches a live query);
* :class:`InjectedCrash` — crash-fault mode: a plan's
  ``crash_after_writes`` makes the WAL tear a record mid-write and die,
  the scenario the crash-point matrix in ``tests/wal`` recovers from;
* :func:`plan_from_env` — the ``FAULT_PLAN`` environment hook the WAL
  crash tests call, so CI's crash-chaos job can sweep crash points.
  Nothing in ``repro`` outside this package reads it.

See ``docs/RESILIENCE.md`` for the fault taxonomy and worked examples,
``docs/DURABILITY.md`` for crash faults and recovery.
"""

from repro.faults.injector import FaultSite, FaultyIndex, InjectedCrash
from repro.faults.plan import FAULT_PLAN_ENV_VARS, FaultPlan, plan_from_env

__all__ = [
    "FaultPlan",
    "FaultSite",
    "FaultyIndex",
    "FAULT_PLAN_ENV_VARS",
    "InjectedCrash",
    "plan_from_env",
]
