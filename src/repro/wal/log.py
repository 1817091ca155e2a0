"""The write-ahead log itself: append, fsync policy, truncation.

One :class:`WriteAheadLog` owns one log file.  ``Flix`` appends a
record for every maintenance verb *before* publishing the layout swap
(write-ahead: the durable intent precedes the visible effect), and
truncates the log back to a ``begin`` marker whenever a snapshot is
saved — recovery is then ``load_flix`` + replay-to-tail
(:mod:`repro.wal.recovery`).

Fsync policy (the group-commit knob, ``docs/DURABILITY.md``):

``"commit"`` (default)
    ``fsync`` after every append.  An acked verb survives a power cut;
    this is the durability the recovery invariant is stated against.
``"batch"``
    ``flush`` every append, ``fsync`` once per ``batch_size`` appends
    (and on :meth:`sync`/:meth:`close`/truncation).  Amortizes the
    fsync cost across a batch — the classic group commit; a crash can
    lose at most the last unsynced batch, never tear what was synced.
``"none"``
    Leave syncing to the OS entirely (benchmarks, throwaway indexes).

Crash-fault injection: a :class:`~repro.faults.plan.FaultPlan` with
``crash_after_writes`` set makes append N+1 write only the first
``torn_write_bytes`` bytes of its record and then raise
:class:`~repro.faults.injector.InjectedCrash` — a deterministic torn
write, the shape every recovery test in ``tests/wal`` replays.
"""

from __future__ import annotations

import os
import threading
from pathlib import Path
from typing import Any, Dict, List, Tuple

from repro.storage.atomic import fsync_directory
from repro.wal.record import (
    WAL_MAGIC,
    WalCorruptionError,
    WalRecord,
    decode_records,
)

FSYNC_POLICIES = ("commit", "batch", "none")

#: the synthetic record opening every (fresh or truncated) log; carries
#: the snapshot generation the following records build on
BEGIN_VERB = "begin"


class WriteAheadLog:
    """A checksummed, length-framed, fsync-on-commit verb log."""

    def __init__(
        self,
        path,
        base_generation: int = 0,
        fsync: str = "commit",
        batch_size: int = 8,
        observability=None,
        fault_plan=None,
    ) -> None:
        if fsync not in FSYNC_POLICIES:
            raise ValueError(
                f"fsync policy must be one of {FSYNC_POLICIES}, got {fsync!r}"
            )
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        self.path = Path(path)
        self.fsync_policy = fsync
        self.batch_size = batch_size
        self._lock = threading.RLock()
        self._handle = None
        self._pending = 0  # appends since the last fsync
        self._appends = 0  # lifetime appends (crash-fault counter)
        self._crashed = False
        self._closed = False
        self._plan = fault_plan
        if observability is not None:
            registry = observability.registry
            self._m_records = registry.counter(
                "flix_wal_records_total",
                "Records appended to the write-ahead log, by verb.",
            )
            self._m_bytes = registry.counter(
                "flix_wal_bytes_total",
                "Bytes appended to the write-ahead log.",
            )
            self._m_fsyncs = registry.counter(
                "flix_wal_fsyncs_total",
                "fsync calls issued by the write-ahead log.",
            )
            self._m_truncations = registry.counter(
                "flix_wal_truncations_total",
                "Write-ahead log truncations (snapshot checkpoints).",
            )
        else:
            self._m_records = self._m_bytes = None
            self._m_fsyncs = self._m_truncations = None
        self._open(base_generation)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _open(self, base_generation: int) -> None:
        """Create a fresh log, or attach to an existing one.

        Attaching trims any torn tail in place (the bytes a previous
        crash left behind must not sit under future appends) and leaves
        the write position at the end of the last valid record.

        Two crash leftovers are indistinguishable from a fresh log and
        are treated as one: a file that is empty or holds only (part of)
        the magic — a crash during creation or inside
        :meth:`truncate` — and a magic plus a torn ``begin`` record.
        Neither can hold an acknowledged verb (the write-ahead ordering
        fsyncs the begin before acking anything after it), so the log
        restarts at the caller's ``base_generation`` instead of refusing
        to attach — refusing would fail recovery at exactly the crash
        point the snapshot just made consistent.
        """
        data = self.path.read_bytes() if self.path.is_file() else b""
        if WAL_MAGIC.startswith(data):
            # missing, empty, or bare/torn magic: no record ever existed
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self.path, "wb")
            begin = WalRecord(
                BEGIN_VERB, base_generation,
                {"base_generation": base_generation},
            )
            self._handle.write(WAL_MAGIC + begin.to_bytes())
            self._handle.flush()
            os.fsync(self._handle.fileno())
            fsync_directory(self.path.parent)
            self._tail_generation = base_generation
            self._base_generation = base_generation
            return
        records, discarded = decode_records(data)  # raises on bad magic
        if not records:
            # valid magic, zero decodable records: a truncate() that
            # crashed between its truncate and begin append (or a torn
            # first-ever begin) — state is consistent, restart fresh
            self._handle = open(self.path, "r+b")
            self._write_begin_locked(base_generation)
            return
        if records[0].verb != BEGIN_VERB:
            raise WalCorruptionError(
                f"{self.path} has no begin record; refusing to append"
            )
        self._base_generation = records[0].generation
        self._tail_generation = records[-1].generation
        self._handle = open(self.path, "r+b")
        if discarded:
            self._handle.truncate(len(data) - discarded)
            self._handle.flush()
            os.fsync(self._handle.fileno())
        self._handle.seek(0, os.SEEK_END)

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if self._handle is not None:
                try:
                    if self._pending and not self._crashed:
                        self._handle.flush()
                        os.fsync(self._handle.fileno())
                except (OSError, ValueError):
                    pass
                try:
                    self._handle.close()
                except OSError:
                    pass

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # the write path
    # ------------------------------------------------------------------
    @property
    def base_generation(self) -> int:
        """The snapshot generation the log's records build on."""
        return self._base_generation

    @property
    def tail_generation(self) -> int:
        """The generation of the last appended record (the replication
        cursor a fully caught-up follower sits at)."""
        return self._tail_generation

    def append(
        self, verb: str, generation: int, payload: Dict[str, Any]
    ) -> WalRecord:
        """Frame, checksum, and append one verb record; returns it.

        Durability follows the fsync policy; with ``"commit"`` the
        record is on disk when this returns.
        """
        record = WalRecord(verb, generation, dict(payload))
        frame = record.to_bytes()
        with self._lock:
            if self._closed:
                raise WalCorruptionError(f"{self.path} is closed")
            if self._crashed:
                from repro.faults.injector import InjectedCrash

                raise InjectedCrash(
                    f"write-ahead log {self.path} already crashed"
                )
            self._maybe_crash(frame)
            self._handle.write(frame)
            self._pending += 1
            self._appends += 1
            self._tail_generation = generation
            if self.fsync_policy == "commit":
                self._sync_locked()
            elif self.fsync_policy == "batch":
                self._handle.flush()
                if self._pending >= self.batch_size:
                    self._sync_locked()
        if self._m_records is not None:
            self._m_records.inc(verb=verb)
            self._m_bytes.inc(len(frame))
        return record

    def _maybe_crash(self, frame: bytes) -> None:
        """Apply the plan's crash fault: tear this write, then die."""
        plan = self._plan
        if plan is None or getattr(plan, "crash_after_writes", None) is None:
            return
        if self._appends < plan.crash_after_writes:
            return
        from repro.faults.injector import InjectedCrash

        torn = getattr(plan, "torn_write_bytes", None)
        keep = len(frame) // 2 if torn is None else min(torn, len(frame))
        self._handle.write(frame[:keep])
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._crashed = True
        raise InjectedCrash(
            f"injected crash at WAL append {self._appends} "
            f"({keep}/{len(frame)} bytes of the record written)"
        )

    def _sync_locked(self) -> None:
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._pending = 0
        if self._m_fsyncs is not None:
            self._m_fsyncs.inc()

    def sync(self) -> None:
        """Force the tail to disk (the SIGTERM drain calls this)."""
        with self._lock:
            if not self._closed and not self._crashed and self._pending:
                self._sync_locked()

    # ------------------------------------------------------------------
    # truncation (snapshot checkpoint) and reading
    # ------------------------------------------------------------------
    def truncate(self, base_generation: int) -> None:
        """Reset the log to a fresh ``begin`` at ``base_generation``.

        Called after a successful snapshot save: everything the log
        held is now captured by the snapshot, so replay starts over
        from the new base.  The rewrite is in-place truncate + append
        (the file keeps its identity for tailing readers, who observe
        the generation moving backwards and re-read from the start).
        A crash between the truncate and the begin append leaves a
        magic-only (or torn-begin) file, which :meth:`_open` treats as
        this same fresh state rather than corruption.
        """
        with self._lock:
            if self._closed:
                raise WalCorruptionError(f"{self.path} is closed")
            self._write_begin_locked(base_generation)
        if self._m_truncations is not None:
            self._m_truncations.inc()

    def _write_begin_locked(self, base_generation: int) -> None:
        """Rewrite the log as magic + one durable ``begin`` record."""
        begin = WalRecord(
            BEGIN_VERB, base_generation,
            {"base_generation": base_generation},
        )
        self._handle.seek(len(WAL_MAGIC))
        self._handle.truncate()
        self._handle.write(begin.to_bytes())
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._pending = 0
        self._base_generation = base_generation
        self._tail_generation = base_generation

    def records(self) -> Tuple[List[WalRecord], int]:
        """Re-read the log from disk: ``(valid records, discarded bytes)``.

        Reads an independent snapshot of the file, so a concurrent
        appender is safe — a half-written tail shows up as discarded
        bytes, exactly like a torn write after a crash.
        """
        return read_wal(self.path)


def read_wal(path) -> Tuple[List[WalRecord], int]:
    """Decode a log file: ``(valid records, discarded tail bytes)``.

    Raises :class:`WalCorruptionError` when the file is not a WAL at
    all (bad magic); a missing file is reported as ``([], 0)`` — no log
    means nothing to replay, which is a valid (pre-WAL) deployment.
    """
    path = Path(path)
    if not path.is_file():
        return [], 0
    return decode_records(path.read_bytes())


__all__ = [
    "BEGIN_VERB",
    "FSYNC_POLICIES",
    "WriteAheadLog",
    "read_wal",
]
