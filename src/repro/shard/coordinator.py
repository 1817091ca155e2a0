"""The coordinator front door: route, delegate, merge, cache, degrade.

A :class:`ShardCoordinator` owns the :class:`~repro.shard.plan.ShardMap`
and one :class:`ShardClient` (a small connection pool) per shard worker.
Every :class:`~repro.core.api.QueryRequest` takes one of two paths:

**Delegation** (the default for single-shard work): the whole request is
shipped to the shard owning its source element and answered there with
``Flix.query`` — byte-identical to local evaluation because each worker
mmap-attaches the complete packed index (ownership steers routing and
page-cache locality; see ``docs/SHARDING.md``).  Collection-graph kinds
(``children``, ``connections``, ``cost``) and any request whose
cross-shard closure is a single shard always delegate.

**Distributed evaluation** (``cross_shard="distributed"``): requests
whose residual-link closure spans several shards run the PEE's one
priority-queue loop (:func:`repro.core.pee.figure4_search`) *here*,
with a remote expander shipping each per-entry expansion to the owning
shard (:class:`~repro.shard.distributed.DistributedEvaluator`).  This
is the faithful cluster-scale protocol — no worker needs more than its
own shard's pages — and still byte-identical to serial evaluation,
because the merge *is* the serial algorithm.

Degradation ladder (completeness flags of PR 3 reused verbatim):

1. a delegated request whose owner is down fails over to the next
   healthy shard — the answer stays ``complete`` (workers are replicas
   of the full index), only ``flix_shard_failovers_total`` moves;
2. a distributed expansion whose owning shard is down (all replicas
   exhausted) loses that subtree — the stream continues on surviving
   shards and the response is flagged ``truncated``;
3. no healthy shard at all → an empty ``degraded`` response instead of
   an exception.

Results are cached in a coordinator-level
:class:`~repro.core.cache.ShardedLRUCache` under the policy
``Flix.query`` uses — not a copy of it, the same
:class:`repro.core.api.CacheSlot`.
"""

from __future__ import annotations

import functools
import itertools
import socket
import threading
import time
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.api import (
    CacheSlot,
    QueryRequest,
    QueryResponse,
    evaluate_request,
)
from repro.core.cache import ShardedLRUCache
from repro.core.config import CacheConfig
from repro.core.pee import QueryBudget, QueryStats
from repro.core.planner import QueryPlan
from repro.indexes.base import NodeId
from repro.obs import Observability
from repro.obs.export import render
from repro.shard.distributed import DistributedEvaluator, ExpansionLost
from repro.shard.plan import ShardMap, load_shard_map
from repro.shard.protocol import (
    ProtocolError,
    RemoteShardError,
    ShardUnavailable,
    expansion_reply_from_json,
    int_list,
    read_frame,
    request_to_json,
    response_from_json,
    write_frame,
)

#: exception types a worker may legitimately raise at the caller; they are
#: re-raised client-side as the same type (the rest become RemoteShardError)
_PASSTHROUGH_ERRORS = {"KeyError": KeyError, "ValueError": ValueError}


class ShardClient:
    """Framed-protocol client for one shard worker, with a socket pool.

    Thread-safe: concurrent calls check sockets out of the pool (opening
    new ones on demand) and return them afterwards, so N coordinator
    threads drive N concurrent conversations with the worker.
    """

    def __init__(
        self,
        shard_id: int,
        host: str,
        port: int,
        connect_timeout: float = 5.0,
    ) -> None:
        self.shard_id = shard_id
        self.host = host
        self.port = port
        self._connect_timeout = connect_timeout
        self._pool: List[socket.socket] = []
        self._lock = threading.Lock()
        self._closed = False

    def call(self, verb: str, payload: dict) -> Tuple[str, dict]:
        """One request/reply round trip of JSON payloads; raises
        :class:`ShardUnavailable` on transport failure,
        :class:`ProtocolError` on a malformed frame, and re-raises remote
        ``KeyError`` / ``ValueError`` as such."""
        sock = self._checkout()
        try:
            write_frame(sock, (verb, payload))
            reply_verb, reply_payload = read_frame(sock)
        except (ConnectionError, OSError, ProtocolError) as exc:
            # the conversation is out of step: this socket is done
            try:
                sock.close()
            except OSError:
                pass
            if isinstance(exc, ProtocolError):
                raise
            raise ShardUnavailable(self.shard_id, str(exc)) from exc
        self._checkin(sock)
        if reply_verb == "error":
            exc_type = str(reply_payload.get("type", "RuntimeError"))
            message = str(reply_payload.get("message", ""))
            if exc_type in _PASSTHROUGH_ERRORS:
                # KeyError repr-quotes its message; strip the quoting the
                # worker's str() added so the text matches local raises
                raise _PASSTHROUGH_ERRORS[exc_type](message.strip("'\""))
            raise RemoteShardError(exc_type, message)
        return reply_verb, reply_payload

    def _checkout(self) -> socket.socket:
        with self._lock:
            if self._closed:
                raise ShardUnavailable(self.shard_id, "client closed")
            if self._pool:
                return self._pool.pop()
        try:
            sock = socket.create_connection(
                (self.host, self.port), timeout=self._connect_timeout
            )
            sock.settimeout(None)
            return sock
        except OSError as exc:
            raise ShardUnavailable(self.shard_id, str(exc)) from exc

    def _checkin(self, sock: socket.socket) -> None:
        with self._lock:
            if self._closed:
                sock.close()
            else:
                self._pool.append(sock)

    def close(self) -> None:
        with self._lock:
            self._closed = True
            pool, self._pool = self._pool, []
        for sock in pool:
            try:
                sock.close()
            except OSError:
                pass


class ShardCoordinator:
    """Fan requests across shard workers; merge; cache; degrade."""

    def __init__(
        self,
        shard_map: ShardMap,
        clients: Sequence[ShardClient],
        cache: Optional[CacheConfig] = None,
        cross_shard: str = "delegate",
        observability: Optional[Observability] = None,
        role: str = "primary",
        replication=None,
    ) -> None:
        if len(clients) != shard_map.shards:
            raise ValueError(
                f"shard map expects {shard_map.shards} workers, "
                f"got {len(clients)} clients"
            )
        if cross_shard not in ("delegate", "distributed"):
            raise ValueError(
                "cross_shard must be 'delegate' or 'distributed'"
            )
        if role not in ("primary", "follower"):
            raise ValueError(f"role must be primary or follower, got {role!r}")
        #: what this deployment is: a primary takes maintenance verbs, a
        #: follower serves reads while tailing a primary's WAL
        self.role = role
        #: optional replication state provider (anything exposing
        #: ``replication_lag`` and ``generation``, e.g. a
        #: :class:`~repro.wal.follower.FollowerFlix`) surfaced in health()
        self._replication = replication
        self._map = shard_map
        self._clients = list(clients)
        self._cache: Optional[ShardedLRUCache] = (
            cache.build() if cache is not None else None
        )
        self._cross_shard = cross_shard
        self._obs = observability if observability is not None else Observability()
        self._healthy = [True] * shard_map.shards
        self._health_lock = threading.Lock()
        self._round_robin = itertools.count()
        self._distributed = DistributedEvaluator(
            shard_map,
            functools.partial(self._expansion_rpc, "expand"),
            functools.partial(self._expansion_rpc, "connection_probe"),
        )
        registry = self._obs.registry
        self._m_requests = registry.counter(
            "flix_shard_requests_total",
            "Requests the coordinator completed, by shard, mode "
            "(delegate/distributed), and completeness.",
        )
        self._m_expand_rpcs = registry.counter(
            "flix_shard_expand_rpcs_total",
            "Per-entry expansion RPCs issued by distributed evaluation.",
        )
        self._m_failovers = registry.counter(
            "flix_shard_failovers_total",
            "Requests re-routed off an unreachable owner shard.",
        )
        self._m_degraded = registry.counter(
            "flix_shard_degraded_total",
            "Responses that came back empty-degraded (no healthy shard).",
        )
        self._m_cache_hits = registry.counter(
            "flix_shard_cache_hits_total",
            "Coordinator result-cache hits, by query kind.",
        )
        self._m_cache_misses = registry.counter(
            "flix_shard_cache_misses_total",
            "Coordinator result-cache misses, by query kind.",
        )
        self._g_healthy = registry.gauge(
            "flix_shard_workers_healthy",
            "Shard workers currently believed reachable.",
        )
        self._g_healthy.set(shard_map.shards)

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def connect(
        cls,
        index_dir,
        endpoints: Sequence[Tuple[str, int]],
        **kwargs,
    ) -> "ShardCoordinator":
        """Coordinator over already-running workers at ``endpoints``
        (ordered by shard id), using the shard map saved in ``index_dir``."""
        shard_map = load_shard_map(index_dir)
        clients = [
            ShardClient(shard_id, host, port)
            for shard_id, (host, port) in enumerate(endpoints)
        ]
        return cls(shard_map, clients, **kwargs)

    # ------------------------------------------------------------------
    # the query surface (mirrors Flix.query semantics)
    # ------------------------------------------------------------------
    def query(
        self,
        request: QueryRequest,
        budget: Optional[QueryBudget] = None,
    ) -> QueryResponse:
        """Evaluate one request across the shard fleet.

        Same contract as ``Flix.query``: the response carries the query's
        private stats and completeness; ``budget`` (or ``request.budget``)
        bounds the work; the cache policy is
        :class:`repro.core.api.CacheSlot`'s.
        """
        started = time.perf_counter()
        slot = CacheSlot(self._cache, request, self._map.generation)
        response = slot.lookup(started, self._count_cache_lookup)
        if response is not None:
            return response
        if budget is None:
            budget = request.budget
        response, mode, shard = self._evaluate(request, budget, started)
        if request.explain and response.plan is None:
            # delegated answers carry the worker's plan already; the
            # distributed path evaluates here and has no local layout, so
            # ask a worker for the (identical) static plan
            response.plan = self.explain(request)
        self._m_requests.inc(
            shard=str(shard), mode=mode, status=response.stats.completeness
        )
        slot.store(response.results, response.value, response.stats, budget)
        return response

    def _count_cache_lookup(self, kind: str, hit: bool) -> None:
        (self._m_cache_hits if hit else self._m_cache_misses).inc(kind=kind)

    def explain(self, request: QueryRequest):
        """The static :class:`~repro.core.planner.QueryPlan` for
        ``request`` — ``Flix.explain`` with the same failover discipline
        as delegation (every worker holds the whole index, so any healthy
        shard's plan is authoritative).  ``None`` when no shard answers.
        """
        try:
            _, plan = self._call(
                self._route(request), "explain",
                {"request": request_to_json(request)},
                lambda reply: QueryPlan.from_dict(reply["plan"]),
            )
        except ShardUnavailable:
            return None
        return plan

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def _evaluate(
        self,
        request: QueryRequest,
        budget: Optional[QueryBudget],
        started: float,
    ):
        """Returns ``(response, mode, shard_label)``."""
        if self._cross_shard == "distributed":
            shards_needed = self._participating_shards(request)
            if shards_needed is not None and len(shards_needed) > 1:
                # the Figure-4 loop runs here, over the remote expander
                response = evaluate_request(
                    request, budget, self._distributed, started,
                    self._map.generation, seeds_of=self._type_seeds,
                )
                return response, "distributed", "*"
        shard = self._route(request)
        return self._delegate(shard, request, budget, started), "delegate", shard

    def _participating_shards(
        self, request: QueryRequest
    ) -> Optional[set]:
        """The cross-shard closure a request can touch; ``None`` means the
        kind always delegates (collection-graph kinds)."""
        kind = request.kind
        if kind in ("children", "connections", "cost"):
            return None
        if kind == "descendants" and request.source_tag is not None:
            # type queries seed every tagged element; with >1 shard the
            # seeds (and their closures) can span the whole fleet
            return set(range(self._map.shards))
        return self._map.reachable_shards(
            self._map.shard_of_node(request.source),
            forward=kind != "ancestors",
        )

    def _route(self, request: QueryRequest) -> int:
        """The owner shard a delegated request is sent to first."""
        if request.source is not None:
            try:
                return self._map.shard_of_node(request.source)
            except KeyError:
                # let the worker raise the canonical per-kind error for an
                # unknown source; route round-robin meanwhile
                pass
        return next(self._round_robin) % self._map.shards

    def _failover_order(self, owner: int) -> Iterator[int]:
        """Owner first, then the other shards, healthy ones before
        previously-failed ones (which get a reconnection attempt last)."""
        ring = [
            (owner + offset) % self._map.shards
            for offset in range(self._map.shards)
        ]
        with self._health_lock:
            healthy = list(self._healthy)
        yield from (sid for sid in ring if healthy[sid])
        yield from (sid for sid in ring if not healthy[sid])

    def _call(
        self,
        owner: int,
        verb: str,
        payload: dict,
        decode: Callable[[dict], Any],
    ) -> Tuple[int, Any]:
        """One RPC with replica failover — the coordinator's only failover
        loop.  Tries :meth:`_failover_order`; a shard that cannot be
        reached is marked unhealthy and skipped, the one that answers is
        marked healthy.  Returns ``(shard_id, decode(reply))``; raises
        :class:`ShardUnavailable` when no replica answers (what that
        means — no plan, a degraded answer, no seeds, a lost expansion —
        is the caller's to say) and :class:`ProtocolError` when
        ``decode`` refuses the reply."""
        for shard_id in self._failover_order(owner):
            try:
                _, reply = self._clients[shard_id].call(verb, payload)
            except ShardUnavailable:
                self._mark_health(shard_id, False)
                continue
            self._mark_health(shard_id, True)
            try:
                return shard_id, decode(reply)
            except (KeyError, TypeError, ValueError) as exc:
                raise ProtocolError(
                    f"shard {shard_id} sent a malformed {verb!r} reply: "
                    f"{exc!r}"
                ) from exc
        raise ShardUnavailable(owner, "no replica answered")

    def _delegate(
        self,
        owner: int,
        request: QueryRequest,
        budget: Optional[QueryBudget],
        started: float,
    ) -> QueryResponse:
        # the worker reads the budget off the request it is sent
        sent = request
        if budget is not request.budget:
            sent = request.with_budget(budget)
        try:
            shard_id, response = self._call(
                owner, "query", {"request": request_to_json(sent)},
                lambda reply: response_from_json(reply["response"], request),
            )
        except ShardUnavailable:
            return self._degraded_response(request, started)
        if shard_id != owner:
            self._m_failovers.inc(shard=str(owner))
        return response

    def _degraded_response(
        self, request: QueryRequest, started: float
    ) -> QueryResponse:
        """No healthy shard: an empty answer flagged ``degraded`` (the
        serving layer's give-something-back contract, never an exception)."""
        self._m_degraded.inc()
        stats = QueryStats()
        stats.mark_degraded()
        return QueryResponse(
            request, [], None, stats, False,
            time.perf_counter() - started,
            layout_generation=self._map.generation,
        )

    # ------------------------------------------------------------------
    # distributed evaluation (multi-shard closures): the two RPC kinds
    # ------------------------------------------------------------------
    def _type_seeds(self, source_tag: str) -> List[NodeId]:
        try:
            _, seeds = self._call(
                0, "type_seeds", {"source_tag": source_tag},
                lambda reply: int_list(reply["seeds"], "seeds"),
            )
        except ShardUnavailable:
            return []
        return seeds

    def _expansion_rpc(self, verb: str, meta_id: int, payload: dict):
        """One remote expansion (``expand`` or ``connection_probe``) on
        the owning shard, failing over across its replicas."""
        owner = self._map.shard_of_meta[meta_id]
        try:
            shard_id, expansion = self._call(
                owner, verb, payload,
                lambda reply: expansion_reply_from_json(verb, reply),
            )
        except ShardUnavailable:
            raise ExpansionLost(owner) from None
        self._m_expand_rpcs.inc(shard=str(shard_id))
        return expansion

    # ------------------------------------------------------------------
    # health / metrics / lifecycle
    # ------------------------------------------------------------------
    def _mark_health(self, shard_id: int, healthy: bool) -> None:
        with self._health_lock:
            if self._healthy[shard_id] == healthy:
                return
            self._healthy[shard_id] = healthy
            count = sum(self._healthy)
        self._g_healthy.set(count)

    def health(self) -> Dict:
        """Ping every shard; returns per-shard status and refreshes the
        health map (a recovered worker goes back into rotation)."""
        shards = []
        for shard_id, client in enumerate(self._clients):
            try:
                _, pong = client.call("ping", {})
                self._mark_health(shard_id, True)
                shards.append(
                    {
                        "shard": shard_id,
                        "healthy": True,
                        "generation": pong["generation"],
                        "owned_metas": pong["owned_metas"],
                        "pid": pong["pid"],
                        "role": pong.get("role", "primary"),
                    }
                )
            except (ShardUnavailable, RemoteShardError) as exc:
                self._mark_health(shard_id, False)
                shards.append(
                    {"shard": shard_id, "healthy": False, "error": str(exc)}
                )
        healthy = sum(1 for s in shards if s["healthy"])
        report = {
            "shards": shards,
            "healthy": healthy,
            "total": len(shards),
            "generation": self._map.generation,
            "cross_shard": self._cross_shard,
            "role": self.role,
        }
        if self._replication is not None:
            report["replication_lag"] = self._replication.replication_lag
            report["replication_generation"] = self._replication.generation
        return report

    def cache_stats(self):
        """Coordinator cache counters (None when caching is off)."""
        return self._cache.stats() if self._cache is not None else None

    def invalidate_cache(self) -> None:
        if self._cache is not None:
            self._cache.invalidate_all()

    def metrics_text(self, format: str = "json") -> str:
        """Export the coordinator's ``flix_shard_*`` metrics."""
        return render(self._obs.registry, format)

    def shutdown_workers(self) -> None:
        """Ask every reachable worker to exit (best effort)."""
        for client in self._clients:
            try:
                client.call("shutdown", {})
            except (ShardUnavailable, RemoteShardError):
                pass

    def close(self) -> None:
        for client in self._clients:
            client.close()

    def __enter__(self) -> "ShardCoordinator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


__all__ = ["ShardClient", "ShardCoordinator"]
