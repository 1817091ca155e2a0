"""``repro.faults`` — deterministic crash injection for the write-ahead log.

* :class:`FaultPlan` — where the WAL tears a record and dies
  (``crash_after_writes``, ``torn_write_bytes``);
* :class:`InjectedCrash` — what the torn append raises, the scenario the
  crash-point matrix in ``tests/wal`` recovers from;
* :func:`plan_from_env` — the ``FAULT_PLAN`` environment hook the WAL
  crash tests call, so CI's crash-chaos job can sweep crash points.
  Nothing in ``repro`` outside this package reads it.

See ``docs/DURABILITY.md`` for crash faults and recovery.
"""

from repro.faults.injector import InjectedCrash
from repro.faults.plan import FAULT_PLAN_ENV_VARS, FaultPlan, plan_from_env

__all__ = [
    "FaultPlan",
    "FAULT_PLAN_ENV_VARS",
    "InjectedCrash",
    "plan_from_env",
]
