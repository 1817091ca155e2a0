"""Follower replicas: tail the primary's WAL, apply verbs, swap layouts.

A :class:`FollowerFlix` wraps a read-only ``Flix`` loaded from the same
snapshot the primary saved, plus a *WAL source* it polls for new
records:

* :class:`FileWalSource` — the primary's log file itself (same host or
  shared filesystem);
* :class:`RemoteWalSource` — the ``wal_pull`` verb of the framed-TCP
  shard protocol (:mod:`repro.shard.protocol`), served by any
  :class:`~repro.shard.worker.ShardWorker` sitting next to the log.

Each :meth:`FollowerFlix.poll` applies the new records through the same
maintenance verbs the primary ran, so every applied record ends in one
atomic layout swap and the follower's ``index_fingerprint`` equals the
primary's at every generation it passes through — the layout generation
*is* the replication cursor (it is already in the cache key and on
every ``QueryResponse``).  Queries between polls are simply served at
the follower's current generation; ``replication_lag`` (generations
behind the log tail) is the staleness bound the front door exposes.

A follower is read-only by contract: call the query surface, never the
maintenance verbs (those belong to the primary; the follower applies
them only via :meth:`poll`).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple

from repro.wal.log import read_wal
from repro.wal.record import WalRecord
from repro.wal.recovery import replay_records, wal_path_for


class ReplicationError(RuntimeError):
    """The follower cannot continue from this source (history gap: the
    primary snapshotted and truncated past the follower's generation —
    re-attach from the fresh snapshot)."""


@dataclass(frozen=True)
class WalSegment:
    """One poll's worth of log: records plus the cursor bounds."""

    records: Tuple[WalRecord, ...]
    base_generation: int
    tail_generation: int


class FileWalSource:
    """Tail the primary's log file directly (shared filesystem)."""

    def __init__(self, path) -> None:
        self.path = Path(path)

    def fetch(self, after_generation: int) -> WalSegment:
        records, _discarded = read_wal(self.path)
        base = records[0].generation if records else after_generation
        tail = records[-1].generation if records else after_generation
        fresh = tuple(
            r for r in records if r.generation > after_generation
        )
        return WalSegment(fresh, base, tail)

    def close(self) -> None:  # symmetry with RemoteWalSource
        pass


class RemoteWalSource:
    """Pull records over the shard protocol's ``wal_pull`` verb.

    Replies are paged (``page_size`` records per frame, the server caps
    it further): one :meth:`fetch` keeps pulling with an advancing
    cursor until the server reports no remainder, so no single reply
    frame ever carries the whole backlog.  Records travel as their WAL
    JSON (:meth:`WalRecord.to_json`).
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 10.0,
        page_size: int = 256,
    ) -> None:
        if page_size < 1:
            raise ValueError("page_size must be positive")
        self.host = host
        self.port = port
        self.page_size = page_size
        self._timeout = timeout

    def _pull_page(self, after_generation: int) -> dict:
        import socket

        from repro.shard.protocol import read_frame, write_frame

        with socket.create_connection(
            (self.host, self.port), timeout=self._timeout
        ) as sock:
            write_frame(
                sock,
                (
                    "wal_pull",
                    {
                        "after_generation": after_generation,
                        "max_records": self.page_size,
                    },
                ),
            )
            verb, payload = read_frame(sock)
        if verb == "error":
            raise ReplicationError(
                f"wal_pull failed: {payload.get('type')}: "
                f"{payload.get('message')}"
            )
        if verb != "wal_records":
            raise ReplicationError(f"unexpected wal_pull reply {verb!r}")
        return payload

    def fetch(self, after_generation: int) -> WalSegment:
        records: List[WalRecord] = []
        cursor = after_generation
        base: Optional[int] = None
        tail = after_generation
        while True:
            payload = self._pull_page(cursor)
            page = [WalRecord.from_json(entry) for entry in payload["records"]]
            if base is None:
                base = payload["base_generation"]
            tail = payload["tail_generation"]
            records.extend(page)
            if page:
                cursor = page[-1].generation
            if not page or not payload["truncated"]:
                break
        return WalSegment(
            tuple(records),
            base if base is not None else after_generation,
            tail,
        )

    def close(self) -> None:
        pass


class FollowerFlix:
    """A scale-out read replica driven by the primary's WAL."""

    role = "follower"

    def __init__(
        self, flix, source, observability=None
    ) -> None:
        self._flix = flix
        self._source = source
        self._poll_lock = threading.Lock()
        obs = observability if observability is not None else flix.obs
        if obs is not None and obs.enabled:
            registry = obs.registry
            self._m_polls = registry.counter(
                "flix_replication_polls_total",
                "Follower WAL polls, by outcome.",
            )
            self._m_applied = registry.counter(
                "flix_replication_applied_total",
                "WAL records a follower applied, by verb.",
            )
            self._g_lag = registry.gauge(
                "flix_replication_lag",
                "Generations between the WAL tail and this follower.",
            )
            self._g_generation = registry.gauge(
                "flix_replication_generation",
                "The follower's current layout generation.",
            )
        else:
            self._m_polls = self._m_applied = None
            self._g_lag = self._g_generation = None
        self._last_tail = flix.layout_generation

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def attach(
        cls,
        collection_dir,
        index_dir,
        source=None,
        verify: bool = True,
    ) -> "FollowerFlix":
        """Load the saved snapshot and follow its WAL.

        ``source`` defaults to tailing the ``wal.log`` beside the index
        (pass a :class:`RemoteWalSource` to replicate across hosts).
        The snapshot-time collection is loaded from ``collection_dir``;
        post-snapshot document changes arrive through the log.
        """
        from repro.collection.io import load_collection
        from repro.core.persistence import load_flix

        collection = load_collection(collection_dir)
        flix = load_flix(collection, index_dir, verify=verify)
        if source is None:
            source = FileWalSource(wal_path_for(index_dir))
        return cls(flix, source)

    # ------------------------------------------------------------------
    # replication
    # ------------------------------------------------------------------
    @property
    def flix(self):
        return self._flix

    @property
    def generation(self) -> int:
        """The follower's applied layout generation (the cursor)."""
        return self._flix.layout_generation

    def poll(self) -> int:
        """Fetch and apply new records; returns how many applied.

        Applying goes through the primary's own maintenance verbs, so
        each record is one atomic generation swap and queries racing
        the poll keep the snapshot they pinned.
        """
        with self._poll_lock:
            cursor = self.generation
            segment = self._source.fetch(cursor)
            if segment.base_generation > cursor:
                if self._m_polls is not None:
                    self._m_polls.inc(outcome="gap")
                raise ReplicationError(
                    f"log starts at generation {segment.base_generation}, "
                    f"follower is at {cursor}: the primary truncated past "
                    "us; re-attach from the latest snapshot"
                )
            applied = replay_records(self._flix, list(segment.records))
            self._last_tail = max(segment.tail_generation, self.generation)
            if self._m_polls is not None:
                self._m_polls.inc(outcome="ok")
                for record in segment.records:
                    if record.generation > cursor:
                        self._m_applied.inc(verb=record.verb)
                self._g_lag.set(self.replication_lag)
                self._g_generation.set(self.generation)
            return applied

    @property
    def replication_lag(self) -> int:
        """Generations between the last seen log tail and this replica
        (0 = fully caught up as of the last poll)."""
        return max(0, self._last_tail - self.generation)

    # ------------------------------------------------------------------
    # the read surface
    # ------------------------------------------------------------------
    def query(self, request, budget=None):
        """Serve one read at the follower's current generation."""
        return self._flix.query(request, budget=budget)

    def query_stream(self, request):
        return self._flix.query_stream(request)

    def index_fingerprint(self) -> str:
        return self._flix.index_fingerprint()

    def close(self) -> None:
        self._source.close()


__all__ = [
    "FileWalSource",
    "FollowerFlix",
    "RemoteWalSource",
    "ReplicationError",
    "WalSegment",
]
