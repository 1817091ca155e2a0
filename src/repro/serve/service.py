"""``FlixService``: a thread-safe query-serving layer over one ``Flix``.

The framework's build phase is a batch job, but its query phase is a
server workload: many small queries, heavy repetition (HOPI's hot-pair
observation), strict tail-latency expectations.  :class:`FlixService`
packages that workload shape:

* a **worker pool** of daemon threads drains a bounded
  :class:`~repro.serve.admission.AdmissionQueue` — backpressure by
  rejection at the door, not by unbounded buffering;
* every evaluation goes through ``Flix.query``, so all workers share the
  process-wide :class:`~repro.serve.cache.ShardedLRUCache` and the
  per-query reentrant evaluator state (see ``core/pee.py``);
* per-request **deadlines** account for queue wait: a request whose
  :class:`~repro.core.pee.QueryBudget` deadline elapsed while queued is
  answered ``truncated``/empty without touching the index, and one that
  waited part of its deadline runs with only the remainder;
* **observability**: ``flix_service_queue_depth`` and
  ``flix_service_in_flight`` gauges, a ``flix_service_requests_total``
  counter labeled by terminal status (``ok`` / ``expired`` / ``error``),
  and one ``svc.query`` trace per evaluated request, all on the wrapped
  instance's registry/tracer.

Lifecycle: construct (workers start immediately), ``submit``/
``submit_many``, then ``close()`` — or use it as a context manager.
``docs/SERVING.md`` walks through all of it.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from typing import Iterator, List, Optional, Sequence, TYPE_CHECKING

from repro.core.api import QueryRequest, QueryResponse
from repro.core.pee import QueryBudget, QueryStats
from repro.serve.admission import (
    AdmissionQueue,
    ServiceClosedError,
    ServiceOverloadedError,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.framework import Flix

#: worker-stop sentinel (compared by identity)
_STOP = object()


class PendingQuery:
    """A submitted request's future: wait on it, then read the response.

    ``result(timeout)`` blocks until a worker finished the request and
    returns its :class:`~repro.core.api.QueryResponse` (re-raising the
    worker-side exception if evaluation failed).  ``done`` is a
    non-blocking probe.
    """

    __slots__ = ("request", "enqueued_at", "_event", "_response", "_error")

    def __init__(self, request: QueryRequest) -> None:
        self.request = request
        self.enqueued_at = time.perf_counter()
        self._event = threading.Event()
        self._response: Optional[QueryResponse] = None
        self._error: Optional[BaseException] = None

    @property
    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: Optional[float] = None) -> QueryResponse:
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"query ({self.request.kind}) not finished within {timeout}s"
            )
        if self._error is not None:
            raise self._error
        assert self._response is not None
        return self._response

    # -- worker side ---------------------------------------------------
    def _complete(self, response: QueryResponse) -> None:
        self._response = response
        self._event.set()

    def _fail(self, error: BaseException) -> None:
        self._error = error
        self._event.set()


class FlixService:
    """A pool of worker threads evaluating queries against one ``Flix``.

    Parameters
    ----------
    flix:
        The built framework instance to serve.  Its configured cache,
        metrics registry, and tracer are shared by every worker.
    workers:
        Worker-thread count.  With latency-bearing storage backends the
        workers overlap stalls; sizing beyond the storage parallelism
        buys nothing.
    max_pending:
        Bound on queued (not-yet-running) requests; submissions beyond it
        raise :class:`~repro.serve.admission.ServiceOverloadedError`.
    default_budget:
        Budget applied to requests that carry none of their own.  Per
        request, ``request.budget`` wins over this default.
    submit_timeout:
        How long ``submit`` may wait for queue space before rejecting
        (``None``: reject immediately when full).
    """

    def __init__(
        self,
        flix: "Flix",
        workers: int = 4,
        max_pending: int = 64,
        default_budget: Optional[QueryBudget] = None,
        submit_timeout: Optional[float] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be positive")
        self.flix = flix
        self.workers = workers
        self.default_budget = default_budget
        self.submit_timeout = submit_timeout
        self._queue = AdmissionQueue(max_pending)
        self._closed = False
        self._close_lock = threading.Lock()
        self._in_flight = 0
        self._served = 0
        self._state_lock = threading.Lock()
        self._threads = [
            threading.Thread(
                target=self._worker_loop,
                name=f"flix-serve-{index}",
                daemon=True,
            )
            for index in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit(self, request: QueryRequest) -> PendingQuery:
        """Queue one request; returns its :class:`PendingQuery` future.

        Raises :class:`ServiceClosedError` after :meth:`close`, and
        :class:`ServiceOverloadedError` when ``max_pending`` requests are
        already waiting (backpressure — shed or retry upstream).
        """
        pending = PendingQuery(request)
        with self._close_lock:
            # The closed-check and the enqueue are atomic with respect to
            # close(), which flips _closed and enqueues the worker-stop
            # sentinels under this same lock — so a request can never land
            # *behind* the sentinels, where no worker would ever take it
            # and result() would block forever.
            if self._closed:
                raise ServiceClosedError("service is closed")
            self._queue.offer(pending, timeout=self.submit_timeout)
        obs = self.flix.obs
        if obs.enabled:
            obs.registry.gauge(
                "flix_service_queue_depth",
                "Requests waiting for a serving worker.",
            ).set(len(self._queue))
        return pending

    def submit_many(
        self, requests: Sequence[QueryRequest]
    ) -> List[QueryResponse]:
        """Queue a batch and wait for all of it; responses in input order."""
        futures = [self.submit(request) for request in requests]
        return [future.result() for future in futures]

    def query(self, request: QueryRequest) -> QueryResponse:
        """Submit one request and wait for its response (convenience)."""
        return self.submit(request).result()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self, timeout: Optional[float] = None) -> bool:
        """Stop accepting work, finish what is queued, join the workers.

        Queued requests are still evaluated (their deadlines permitting);
        only *new* submissions are refused.  ``timeout`` bounds the
        **total** wait across all workers (one shared deadline, not one
        per thread).  Returns ``True`` when every worker has exited,
        ``False`` when some were still running at the deadline — call
        again to keep waiting.  Idempotent: repeated calls enqueue no new
        sentinels, they only re-join stragglers.
        """
        with self._close_lock:
            if not self._closed:
                self._closed = True
                for _ in self._threads:
                    self._queue.force(_STOP)
        deadline = (
            None if timeout is None else time.monotonic() + timeout
        )
        all_joined = True
        for thread in self._threads:
            remaining = (
                None
                if deadline is None
                else max(0.0, deadline - time.monotonic())
            )
            thread.join(remaining)
            if thread.is_alive():
                all_joined = False
        return all_joined

    def __enter__(self) -> "FlixService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def served(self) -> int:
        """Requests completed (any status) since construction."""
        with self._state_lock:
            return self._served

    def cache_stats(self):
        """The shared cache's aggregate stats (``None`` without a cache)."""
        return self.flix.cache_stats()

    # ------------------------------------------------------------------
    # worker internals
    # ------------------------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            item = self._queue.take()
            if item is _STOP:
                return
            self._serve_one(item)

    def _serve_one(self, pending: PendingQuery) -> None:
        obs = self.flix.obs
        queue_wait = time.perf_counter() - pending.enqueued_at
        if obs.enabled:
            obs.registry.gauge(
                "flix_service_queue_depth",
                "Requests waiting for a serving worker.",
            ).set(len(self._queue))
        budget = (
            pending.request.budget
            if pending.request.budget is not None
            else self.default_budget
        )
        remaining = self._remaining_budget(budget, queue_wait)
        if budget is not None and remaining is None:
            # the deadline elapsed while the request sat in the queue
            pending._complete(self._expired_response(pending.request))
            self._finish(obs, "expired")
            return
        with self._state_lock:
            # gauge published under the lock so concurrent workers cannot
            # interleave stale values out of order
            self._in_flight += 1
            if obs.enabled:
                obs.registry.gauge(
                    "flix_service_in_flight",
                    "Requests currently being evaluated by a worker.",
                ).set(self._in_flight)
        trace = obs.tracer.trace(
            "svc.query",
            kind=pending.request.kind,
            queue_wait_seconds=round(queue_wait, 6),
        )
        status = "ok"
        try:
            response = self.flix.query(pending.request, budget=remaining)
            trace.root.meta["from_cache"] = response.from_cache
            trace.root.meta["completeness"] = response.completeness
            trace.root.meta["layout_generation"] = response.layout_generation
            pending._complete(response)
        except BaseException as error:  # noqa: BLE001 - relayed to caller
            status = "error"
            trace.root.meta["error"] = type(error).__name__
            pending._fail(error)
        finally:
            trace.finish()
            with self._state_lock:
                self._in_flight -= 1
                if obs.enabled:
                    obs.registry.gauge(
                        "flix_service_in_flight",
                        "Requests currently being evaluated by a worker.",
                    ).set(self._in_flight)
            self._finish(obs, status)

    def _finish(self, obs, status: str) -> None:
        with self._state_lock:
            self._served += 1
        if obs.enabled:
            obs.registry.counter(
                "flix_service_requests_total",
                "Requests completed by the serving layer, by status.",
            ).inc(status=status)

    @staticmethod
    def _remaining_budget(
        budget: Optional[QueryBudget], queue_wait: float
    ) -> Optional[QueryBudget]:
        """Charge queue wait against the deadline.

        Returns the budget to evaluate under, or ``None`` **meaning
        expired** when a deadline exists and the wait consumed it.  A
        budget without a deadline passes through unchanged.
        """
        if budget is None or budget.deadline_seconds is None:
            return budget
        remaining = budget.deadline_seconds - queue_wait
        if remaining <= 0:
            return None
        return dataclasses.replace(budget, deadline_seconds=remaining)

    @staticmethod
    def _expired_response(request: QueryRequest) -> QueryResponse:
        # An all-zero truncated row: the query never touched the index.
        # QueryLoadMonitor.record skips rows of exactly this shape so
        # queue-expired admissions cannot dilute the workload statistics
        # the workload profile and tuning advice are driven by.
        stats = QueryStats()
        stats._mark("truncated")
        return QueryResponse(
            request=request,
            results=[],
            value=None,
            stats=stats,
            from_cache=False,
            elapsed_seconds=0.0,
        )


__all__ = ["FlixService", "PendingQuery"]
