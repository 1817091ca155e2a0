"""Sharded, thread-safe LRU caching of query results.

The result cache's premise (HOPI's observation that connection
workloads are dominated by repeated probes of the same hot pairs) is that
one process answers many concurrent queries and most of them repeat.  A
single ``OrderedDict`` behind one lock would serialize every thread on
every lookup; :class:`ShardedLRUCache` splits the key space over N
independent LRU shards so concurrent readers of *different* keys contend
only on their own shard's lock.  The policy deciding what is looked up
and stored lives in :class:`repro.core.api.CacheSlot`.

Staleness is handled by **generations**, not by eager invalidation:
every entry is stamped with the generation the *caller observed before
computing the value* (captured at lookup/miss time and threaded through
to :meth:`ShardedLRUCache.put`), and
:meth:`ShardedLRUCache.invalidate_all` simply bumps the counter.  A
lookup that finds an entry from an older generation treats it as a miss
and drops it lazily.  Stamping with the *captured* generation — not the
generation current at store time — is what closes the window where a
thread evaluates against the pre-mutation index, races with
``add_document`` + ``invalidate_all``, and would otherwise store its
stale answer under the new generation.  ``Flix`` bumps the generation on
every mutation of the index layout (``add_document``; ``rebuild`` and
``repair`` produce fresh instances with fresh caches), so a stale result
can never be served, and invalidation is O(1) regardless of cache size.

The cache is value-agnostic: the framework stores full query result
lists, connection-test distances, and connection costs alike.  Keys must
be hashable; the framework derives them from
:meth:`repro.core.api.QueryRequest.cache_key`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Hashable, Optional, Tuple


@dataclass
class CacheStats:
    """Point-in-time counters for one cache (or one shard)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0
    entries: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    def merge(self, other: "CacheStats") -> None:
        self.hits += other.hits
        self.misses += other.misses
        self.evictions += other.evictions
        self.invalidations += other.invalidations
        self.entries += other.entries


class _Shard:
    """One LRU shard: an ``OrderedDict`` plus its own lock and counters."""

    __slots__ = ("maxsize", "_entries", "_lock", "hits", "misses",
                 "evictions", "invalidations")

    def __init__(self, maxsize: int) -> None:
        self.maxsize = maxsize
        self._entries: "OrderedDict[Hashable, Tuple[int, Any]]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def get(self, key: Hashable, generation: int) -> Optional[Tuple[Any]]:
        """``(value,)`` on a current-generation hit, ``None`` on a miss.

        The 1-tuple wrapper distinguishes a cached ``None`` value (a
        negative connection test is worth caching!) from a miss.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            stored_generation, value = entry
            if stored_generation != generation:
                # stale: drop lazily, count as both invalidation and miss
                del self._entries[key]
                self.invalidations += 1
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return (value,)

    def put(self, key: Hashable, value: Any, generation: int) -> None:
        with self._lock:
            self._entries[key] = (generation, value)
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        with self._lock:
            self.invalidations += len(self._entries)
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self.hits,
                misses=self.misses,
                evictions=self.evictions,
                invalidations=self.invalidations,
                entries=len(self._entries),
            )


class ShardedLRUCache:
    """A process-wide result cache: N LRU shards + one generation counter.

    * ``maxsize`` bounds the **total** entry count across all shards;
      each shard holds at most ``maxsize // shards`` entries (shards are
      clamped so every shard may hold at least one entry), so the bound
      holds under any key distribution — memory stays bounded under
      churn at the price of slightly under-filling when keys skew.
    * ``shards=1`` degenerates to a classic single-lock LRU with exact
      global eviction order.
    * ``generation`` makes invalidation O(1): see the module docstring.
    """

    def __init__(self, maxsize: int = 1024, shards: int = 8) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be positive")
        if shards < 1:
            raise ValueError("shards must be positive")
        shards = min(shards, maxsize)
        per_shard = max(1, maxsize // shards)
        self.maxsize = shards * per_shard
        self.shards = shards
        self._shards = [_Shard(per_shard) for _ in range(shards)]
        self._generation = 0
        self._generation_lock = threading.Lock()

    # ------------------------------------------------------------------
    # lookups / stores
    # ------------------------------------------------------------------
    @property
    def generation(self) -> int:
        return self._generation

    def _shard_for(self, key: Hashable) -> _Shard:
        return self._shards[hash(key) % self.shards]

    def get(self, key: Hashable) -> Optional[Tuple[Any]]:
        """``(value,)`` on a hit, ``None`` on a miss (see :meth:`_Shard.get`)."""
        return self._shard_for(key).get(key, self._generation)

    def put(
        self, key: Hashable, value: Any, generation: Optional[int] = None
    ) -> None:
        """Store ``value``, stamped with the generation it was computed under.

        ``generation`` is the counter the caller captured (via
        :attr:`generation`) *before* it began computing ``value``; it
        defaults to the current generation for callers that did no index
        work (tests, precomputed stores).  If the cache has since been
        invalidated, the captured value no longer matches the live counter
        and the store is dropped — and even if an invalidation slips in
        between that check and the shard write, the entry is stamped with
        the *captured* (now old) generation, so the next lookup still
        treats it as stale.  Either way a result computed against a
        mutated index state can never be served.
        """
        if generation is None:
            generation = self._generation
        elif generation != self._generation:
            # Known stale before we even store: computed against an index
            # state that has been invalidated.  Storing it would only
            # evict fresh entries, so drop it outright.
            return
        self._shard_for(key).put(key, value, generation)

    # ------------------------------------------------------------------
    # invalidation
    # ------------------------------------------------------------------
    def invalidate_all(self) -> int:
        """Bump the generation: every current entry becomes unservable.

        Returns the new generation.  Entries are dropped lazily on their
        next lookup (or by LRU pressure), so this is O(1).
        """
        with self._generation_lock:
            self._generation += 1
            return self._generation

    def clear(self) -> None:
        """Eagerly drop every entry (tests, benchmarks); counters survive."""
        for shard in self._shards:
            shard.clear()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return sum(len(shard) for shard in self._shards)

    def stats(self) -> CacheStats:
        total = CacheStats()
        for shard in self._shards:
            total.merge(shard.stats())
        return total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardedLRUCache(maxsize={self.maxsize}, shards={self.shards}, "
            f"entries={len(self)}, generation={self._generation})"
        )
