"""Fault plans: declarative descriptions of an injected WAL crash.

A :class:`FaultPlan` says at which append the write-ahead log
(:mod:`repro.wal.log`) tears its record and dies, and how many bytes of
that record reach the disk first — the same plan crashes at the same
write on every run, which is what makes recovery assertable in tests.

Plans can be written in a compact ``key=value`` spec string (the
``FAULT_PLAN`` environment variable CI's crash-chaos job sets, read by
the WAL tests through :func:`plan_from_env` — production code reads no
environment variable)::

    FAULT_PLAN="crash_after_writes=3,torn_write_bytes=11"
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional

#: environment variables consulted by :func:`plan_from_env`, in order
FAULT_PLAN_ENV_VARS = ("FLIX_FAULT_PLAN", "FAULT_PLAN")


@dataclass(frozen=True)
class FaultPlan:
    """One reproducible crash scenario (docs/DURABILITY.md)."""

    #: the WAL append after the first N tears its write and raises
    #: ``InjectedCrash`` (None = never)
    crash_after_writes: Optional[int] = None
    #: bytes of the torn record actually written before the injected
    #: crash (None = half the record) — the crash-point matrix tests
    #: sweep this through every offset of a record
    torn_write_bytes: Optional[int] = None

    def __post_init__(self) -> None:
        if self.crash_after_writes is not None and self.crash_after_writes < 0:
            raise ValueError("crash_after_writes must be non-negative")
        if self.torn_write_bytes is not None and self.torn_write_bytes < 0:
            raise ValueError("torn_write_bytes must be non-negative")

    # ------------------------------------------------------------------
    # spec strings
    # ------------------------------------------------------------------
    @classmethod
    def from_spec(cls, spec: str) -> "FaultPlan":
        """Parse ``"crash_after_writes=3,torn_write_bytes=11"``.

        Both fields are ints (``none`` clears one).  Unknown keys raise
        ``ValueError`` so a typo in a CI environment variable fails
        loudly, not silently.
        """
        known = {f.name for f in fields(cls)}
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
            kwargs[key] = None if value.lower() == "none" else int(value)
        return cls(**kwargs)

    def to_spec(self) -> str:
        """The inverse of :meth:`from_spec` (defaults omitted)."""
        return ",".join(
            f"{f.name}={getattr(self, f.name)}"
            for f in fields(self)
            if getattr(self, f.name) is not None
        )


def plan_from_env(environ=None) -> Optional[FaultPlan]:
    """The plan named by ``FLIX_FAULT_PLAN`` / ``FAULT_PLAN``, or ``None``.

    The value is a spec string (see :meth:`FaultPlan.from_spec`); an
    empty value or the literal ``off`` disables injection.
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
        return FaultPlan.from_spec(value)
    return None
