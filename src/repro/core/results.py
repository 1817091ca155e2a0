"""Streamed result delivery (section 3.1).

"The decoupling between the client and the framework is implemented using a
multithreaded architecture where the client thread reads from a list in
which FliX inserts the results."  :class:`StreamedList` is that list: a
producer thread appends results as the PEE finds them; the client iterates,
blocking until the next result (or the end of the stream) arrives, and may
cancel the query at any point — "when the user decides to stop the query".
:meth:`StreamedList.feed` is the producer: it drains any iterable — in
practice ``flix.query_stream(request)`` — on a daemon thread.
"""

from __future__ import annotations

import threading
from typing import Generic, Iterable, Iterator, List, Optional, TypeVar

T = TypeVar("T")


class StreamedList(Generic[T]):
    """Thread-safe, append-only result list with blocking iteration."""

    def __init__(self) -> None:
        self._items: List[T] = []
        self._closed = False
        self._cancelled = False
        self._condition = threading.Condition()

    @classmethod
    def feed(cls, source: Iterable[T]) -> "StreamedList[T]":
        """Drain ``source`` into a new list on a daemon thread; results
        appear on the returned list as soon as ``source`` yields them.

        ``StreamedList.feed(flix.query_stream(request))`` is the paper's
        multithreaded delivery for every streaming query kind.  After
        :meth:`cancel` the producer stops at its next result and closes
        ``source`` (finalizing an abandoned query's stats) *before* it
        closes the list, so a client that saw the list close knows the
        query behind it is finished.
        """
        results: "StreamedList[T]" = cls()

        def produce() -> None:
            try:
                for item in source:
                    if results.cancelled:
                        break
                    results.append(item)
            finally:
                try:
                    close = getattr(source, "close", None)
                    if close is not None:
                        close()
                finally:
                    results.close()

        threading.Thread(target=produce, name="flix-pee", daemon=True).start()
        return results

    # ------------------------------------------------------------------
    # producer side
    # ------------------------------------------------------------------
    def append(self, item: T) -> None:
        with self._condition:
            if self._closed:
                raise RuntimeError("cannot append to a closed StreamedList")
            self._items.append(item)
            self._condition.notify_all()

    def close(self) -> None:
        """Mark the stream complete; idempotent."""
        with self._condition:
            self._closed = True
            self._condition.notify_all()

    @property
    def cancelled(self) -> bool:
        """Producers should poll this and stop early when set."""
        with self._condition:
            return self._cancelled

    # ------------------------------------------------------------------
    # client side
    # ------------------------------------------------------------------
    def cancel(self) -> None:
        """Ask the producer to stop; already-delivered results remain."""
        with self._condition:
            self._cancelled = True
            self._condition.notify_all()

    def __iter__(self) -> Iterator[T]:
        position = 0
        while True:
            with self._condition:
                while position >= len(self._items) and not self._closed:
                    self._condition.wait()
                if position < len(self._items):
                    item = self._items[position]
                    position += 1
                else:
                    return
            yield item

    def get(self, index: int, timeout: Optional[float] = None) -> T:
        """Blocking positional access (raises ``TimeoutError`` on timeout)."""
        with self._condition:
            while index >= len(self._items):
                if self._closed:
                    raise IndexError(index)
                if not self._condition.wait(timeout):
                    raise TimeoutError(
                        f"result {index} not available within {timeout}s"
                    )
            return self._items[index]

    def snapshot(self) -> List[T]:
        """A copy of everything delivered so far (non-blocking)."""
        with self._condition:
            return list(self._items)

    def __len__(self) -> int:
        with self._condition:
            return len(self._items)

    @property
    def closed(self) -> bool:
        with self._condition:
            return self._closed
