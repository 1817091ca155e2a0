"""Fault plans: declarative, seedable descriptions of injected failures.

A :class:`FaultPlan` says *what* goes wrong and *how often*; the injector
(:mod:`repro.faults.injector`) applies it to index probes, the WAL
(:mod:`repro.wal.log`) to its appends.  Everything is driven by a seeded
PRNG keyed on the plan's seed plus the injection site's name, so two runs
with the same plan see the same faults at the same operations — which is
what makes robustness behavior assertable in tests instead of merely
hoped for.

Plans can be written in a compact ``key=value`` spec string (the
``FAULT_PLAN`` environment variable CI's crash-chaos job sets, read by
the WAL tests through :func:`plan_from_env` — production code reads no
environment variable)::

    FAULT_PLAN="crash_after_writes=3,torn_write_bytes=11"
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Optional, Tuple

#: environment variables consulted by :func:`plan_from_env`, in order
FAULT_PLAN_ENV_VARS = ("FLIX_FAULT_PLAN", "FAULT_PLAN")


@dataclass(frozen=True)
class FaultPlan:
    """One reproducible failure scenario.

    Rates are per-operation probabilities in ``[0, 1]``.  ``fail_first``
    makes the first N operations of every injection site fail with a
    transient error and then succeed — the canonical
    fail-N-times-then-succeed shape retry logic is tested against.
    ``break_after`` is the inverse: the site works for its first N
    operations, then fails *every* later one (a hard failure appearing
    mid-run, e.g. a disk dying after the build) — the shape graceful
    degradation is tested against.
    """

    seed: int = 0
    #: probability that a read (an index probe) fails
    read_error_rate: float = 0.0
    #: probability that a read is delayed by ``latency_seconds``
    read_latency_rate: float = 0.0
    #: injected delay for latency spikes (seconds)
    latency_seconds: float = 0.001
    #: the first N operations per site fail transiently, then succeed
    fail_first: int = 0
    #: operations after the first N fail permanently (None = never)
    break_after: Optional[int] = None
    #: crash-fault mode (docs/DURABILITY.md): the WAL append after the
    #: first N tears its write and raises ``InjectedCrash`` (None = never)
    crash_after_writes: Optional[int] = None
    #: bytes of the torn record actually written before the injected
    #: crash (None = half the record) — the crash-point matrix tests
    #: sweep this through every offset of a record
    torn_write_bytes: Optional[int] = None
    #: restrict injection to these site names (None = everywhere)
    tables: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        for name in ("read_error_rate", "read_latency_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if self.latency_seconds < 0:
            raise ValueError("latency_seconds must be non-negative")
        if self.fail_first < 0:
            raise ValueError("fail_first must be non-negative")
        if self.break_after is not None and self.break_after < 0:
            raise ValueError("break_after must be non-negative")
        if self.crash_after_writes is not None and self.crash_after_writes < 0:
            raise ValueError("crash_after_writes must be non-negative")
        if self.torn_write_bytes is not None and self.torn_write_bytes < 0:
            raise ValueError("torn_write_bytes must be non-negative")

    @property
    def is_noop(self) -> bool:
        """True when the plan injects nothing at all."""
        return (
            self.read_error_rate == 0.0
            and self.read_latency_rate == 0.0
            and self.fail_first == 0
            and self.break_after is None
            and self.crash_after_writes is None
        )

    def applies_to(self, site: str) -> bool:
        return self.tables is None or site in self.tables

    def restricted_to(self, *tables: str) -> "FaultPlan":
        """The same plan, limited to the named sites."""
        return replace(self, tables=tuple(tables))

    # ------------------------------------------------------------------
    # canned scenarios
    # ------------------------------------------------------------------
    @classmethod
    def moderate(cls, seed: int = 0) -> "FaultPlan":
        """20% transient read failures + latency spikes."""
        return cls(
            seed=seed,
            read_error_rate=0.2,
            read_latency_rate=0.05,
            latency_seconds=0.0005,
        )

    @classmethod
    def hard_failure(cls, seed: int = 0) -> "FaultPlan":
        """Every probe fails — a dead index."""
        return cls(seed=seed, read_error_rate=1.0)

    # ------------------------------------------------------------------
    # spec strings
    # ------------------------------------------------------------------
    @classmethod
    def from_spec(cls, spec: str) -> "FaultPlan":
        """Parse ``"read_error_rate=0.2,seed=7,tables=a|b"``.

        Field types follow the dataclass: ints, floats, and the ``tables``
        list (``|``-separated).  Unknown keys raise ``ValueError`` so a
        typo in a CI environment variable fails loudly, not silently.
        """
        known = {f.name: f for f in fields(cls)}
        kwargs: dict = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise ValueError(f"malformed fault-plan entry {part!r}")
            key, _, value = part.partition("=")
            key = key.strip()
            value = value.strip()
            if key not in known:
                raise ValueError(
                    f"unknown fault-plan key {key!r}; "
                    f"expected one of {sorted(known)}"
                )
            if key == "tables":
                kwargs[key] = tuple(
                    name for name in value.split("|") if name
                ) or None
            elif key in ("seed", "fail_first"):
                kwargs[key] = int(value)
            elif key in ("break_after", "crash_after_writes", "torn_write_bytes"):
                kwargs[key] = None if value.lower() == "none" else int(value)
            else:
                kwargs[key] = float(value)
        return cls(**kwargs)

    def to_spec(self) -> str:
        """The inverse of :meth:`from_spec` (defaults omitted)."""
        default = FaultPlan()
        parts = []
        for f in fields(self):
            value = getattr(self, f.name)
            if value == getattr(default, f.name):
                continue
            if f.name == "tables":
                parts.append(f"tables={'|'.join(value)}")
            else:
                parts.append(f"{f.name}={value}")
        return ",".join(parts)


def plan_from_env(environ=None) -> Optional[FaultPlan]:
    """The plan named by ``FLIX_FAULT_PLAN`` / ``FAULT_PLAN``, or ``None``.

    The value is either a spec string (see :meth:`FaultPlan.from_spec`) or
    the name of a canned scenario (``moderate``).  An empty value or the
    literal ``off`` disables injection.
    """
    import os

    env = environ if environ is not None else os.environ
    for name in FAULT_PLAN_ENV_VARS:
        value = env.get(name)
        if value is None:
            continue
        value = value.strip()
        if not value or value.lower() == "off":
            return None
        if value.lower() == "moderate":
            return FaultPlan.moderate()
        return FaultPlan.from_spec(value)
    return None
