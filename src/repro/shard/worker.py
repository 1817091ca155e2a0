"""The per-shard worker: one process, one mmap-attached ``Flix``.

A worker cold-attaches the saved index (``Flix.load`` — with the packed
layout this is the O(1) mmap attach of ``docs/DATA_LAYOUT.md``; the
``.pack`` segments are mapped read-only, so N workers on one host share
a single page-cache copy), reads the :class:`~repro.shard.plan.ShardMap`
beside it, and serves framed requests (:mod:`repro.shard.protocol`) on a
loopback TCP socket.

Verbs served:

``query``
    Full delegation: evaluate one :class:`~repro.core.api.QueryRequest`
    with ``Flix.query`` and return the :class:`QueryResponse` as the
    front door renders it (:func:`~repro.shard.protocol.response_to_json`).
    Every worker holds the whole (lazily-faulted) index, so a delegated
    answer is byte-identical to single-process evaluation by definition;
    *ownership* steers routing and page-cache locality, not correctness.
``expand`` / ``connection_probe``
    The distributed-evaluation seam: run exactly one
    :meth:`~repro.core.pee.PathExpressionEvaluator.expand_entry` (or
    ``connection_probe``) against this worker's index and return the
    outcome plus the counter deltas, leaving the priority queue at the
    coordinator.
``explain``
    The EXPLAIN surface: return ``Flix.explain``'s static
    :class:`~repro.core.planner.QueryPlan` for one request without
    evaluating it (any worker's plan is authoritative — each holds the
    whole index).
``type_seeds``
    Seed list for an ``A//B`` type query
    (:func:`repro.core.api.type_seeds` over this worker's layout).
``wal_pull``
    Follower replication (``docs/DURABILITY.md``): serve the records of
    the ``wal.log`` beside the index newer than the caller's cursor
    generation, so a :class:`~repro.wal.follower.RemoteWalSource` can
    tail this deployment across hosts.  Replies are paged (at most
    ``max_records`` ≤ :data:`WAL_PULL_MAX_RECORDS` records per frame,
    ``truncated`` flagging a remainder), so one poll against a long
    backlog never serializes the whole log into a single frame.
``ping`` / ``metrics`` / ``shutdown``
    Liveness + role + layout generation, Prometheus/JSON metric export,
    and graceful stop.

Run one from the command line (the coordinator's spawner does exactly
this)::

    python -m repro.shard.worker --collection DIR --index DIR --shard K

The process binds ``--port`` (0 = ephemeral), prints a single
``FLIX-SHARD-READY shard=<k> port=<p> generation=<g>`` line to stdout,
and serves until a ``shutdown`` frame or SIGTERM.  SIGTERM drains
gracefully: stop accepting connections, let in-flight requests finish
and their replies flush, fsync the WAL tail if one is attached, exit 0.
"""

from __future__ import annotations

import argparse
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Tuple

from repro.collection.io import load_collection
from repro.core.api import type_seeds
from repro.core.framework import Flix
from repro.core.pee import QueryStats
from repro.obs import Observability
from repro.shard.plan import ShardMap, load_shard_map
from repro.shard.protocol import (
    ProtocolError,
    encode_frame,
    expansion_args,
    expansion_reply_to_json,
    expect,
    read_frame,
    request_from_json,
    response_to_json,
    write_frame,
)

READY_PREFIX = "FLIX-SHARD-READY"

#: hard cap on records per ``wal_pull`` reply frame — followers page
#: through longer backlogs via the reply's ``truncated`` flag
WAL_PULL_MAX_RECORDS = 256


def _error_reply(exc_type: str, message: str):
    """The ``error`` frame a caller re-raises (``ShardClient.call``)."""
    return "error", {"type": exc_type, "message": message}


class ShardWorker:
    """Serve one shard's slice of the query load over framed TCP."""

    def __init__(
        self,
        flix: Flix,
        shard_map: ShardMap,
        shard_id: int,
        observability: Optional[Observability] = None,
        wal_path=None,
        role: str = "primary",
    ) -> None:
        if not 0 <= shard_id < shard_map.shards:
            raise ValueError(
                f"shard id {shard_id} outside 0..{shard_map.shards - 1}"
            )
        if role not in ("primary", "follower"):
            raise ValueError(f"role must be primary or follower, got {role!r}")
        self.flix = flix
        self.shard_map = shard_map
        self.shard_id = shard_id
        #: where ``wal_pull`` reads from (``attach`` points this at the
        #: ``wal.log`` beside the index; a missing file serves as empty)
        self.wal_path = wal_path
        self.role = role
        self._obs = observability if observability is not None else Observability()
        self._requests = self._obs.registry.counter(
            "flix_shard_worker_requests_total",
            "Frames handled by this shard worker, by verb and status.",
        )
        self._listener: Optional[socket.socket] = None
        self._stop = threading.Event()
        self._threads: list = []
        # in-flight dispatch accounting for the SIGTERM drain
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        self._idle = threading.Condition(self._inflight_lock)
        self._draining = False

    # ------------------------------------------------------------------
    # construction from a saved deployment
    # ------------------------------------------------------------------
    @classmethod
    def attach(
        cls,
        collection_dir,
        index_dir,
        shard_id: int,
        verify: bool = True,
        role: str = "primary",
    ) -> "ShardWorker":
        """Cold-attach a saved collection + index + shard map.

        The ``wal.log`` beside the index (if any) is served through
        ``wal_pull`` so followers can tail this worker.
        """
        from repro.wal.recovery import wal_path_for

        collection = load_collection(collection_dir)
        flix = Flix.load(collection, index_dir, verify=verify)
        shard_map = load_shard_map(index_dir)
        if (
            shard_map.index_fingerprint
            and shard_map.index_fingerprint != flix.index_fingerprint()
        ):
            raise ValueError(
                "shard map was planned against a different index, or "
                "before index fingerprints became blob hashes "
                "(fingerprint mismatch); re-run `repro shard-plan`"
            )
        return cls(
            flix, shard_map, shard_id,
            wal_path=wal_path_for(index_dir), role=role,
        )

    # ------------------------------------------------------------------
    # serving
    # ------------------------------------------------------------------
    def start(self, host: str = "127.0.0.1", port: int = 0) -> Tuple[str, int]:
        """Bind and serve in background threads; returns ``(host, port)``."""
        self._listener = socket.create_server((host, port))
        self._listener.settimeout(0.2)
        bound_host, bound_port = self._listener.getsockname()[:2]
        accept_thread = threading.Thread(
            target=self._accept_loop, name=f"shard-{self.shard_id}-accept",
            daemon=True,
        )
        accept_thread.start()
        self._threads.append(accept_thread)
        return bound_host, bound_port

    def wait(self) -> None:
        """Block until a ``shutdown`` frame (or :meth:`close`) stops us."""
        self._stop.wait()

    def close(self) -> None:
        self._stop.set()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass

    def drain(self, timeout: float = 30.0) -> None:
        """Graceful stop (the SIGTERM path): stop accepting connections,
        wait for in-flight dispatches to finish (their replies still go
        out), fsync the WAL tail, then release :meth:`wait`.

        Idle connections parked in ``read_frame`` are simply dropped at
        process exit — only requests already being evaluated are owed a
        reply.
        """
        with self._inflight_lock:
            self._draining = True
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        deadline = time.monotonic() + timeout
        with self._idle:
            while self._inflight > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._idle.wait(remaining)
        wal = getattr(self.flix, "wal", None)
        if wal is not None:
            wal.sync()
        self.close()

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break  # listener closed
            thread = threading.Thread(
                target=self._serve_connection, args=(conn,), daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def _serve_connection(self, conn: socket.socket) -> None:
        with conn:
            conn.settimeout(None)
            while not self._stop.is_set():
                try:
                    verb, payload = read_frame(conn)
                except ProtocolError as exc:
                    # the stream is out of step past a bad frame: say
                    # why, then hang up
                    self._refuse(conn, "ProtocolError", str(exc))
                    return
                except (ConnectionError, OSError):
                    return  # peer hung up
                with self._inflight_lock:
                    if self._draining:
                        # a request racing the drain gets an explicit
                        # refusal, not a dropped connection
                        self._refuse(
                            conn, "ShardUnavailable", "worker is draining"
                        )
                        return
                    self._inflight += 1
                # a peer names the verb: one that ``_dispatch`` does not
                # know is counted under one label, not one series each
                label = verb if verb in _VERBS else "unknown"
                try:
                    try:
                        # encoded here, so a reply that cannot be framed
                        # is answered as an error like any other failure
                        frame = encode_frame(self._dispatch(verb, payload))
                        self._requests.inc(verb=label, status="ok")
                    except Exception as exc:  # keep the worker alive
                        self._requests.inc(verb=label, status="error")
                        frame = encode_frame(
                            _error_reply(type(exc).__name__, str(exc))
                        )
                    try:
                        conn.sendall(frame)
                    except (ConnectionError, OSError):
                        return
                finally:
                    # the reply (if any) is on the wire before the drain
                    # is allowed to observe this request as finished
                    with self._idle:
                        self._inflight -= 1
                        self._idle.notify_all()
                if verb == "shutdown":
                    self.close()
                    return

    @staticmethod
    def _refuse(conn: socket.socket, exc_type: str, message: str) -> None:
        """Best-effort ``error`` frame before the connection is dropped."""
        try:
            write_frame(conn, _error_reply(exc_type, message))
        except (ConnectionError, OSError):
            pass

    # ------------------------------------------------------------------
    # verb handlers (payloads are decoded and checked by the protocol's
    # codec; a bad one raises and is answered with an ``error`` frame)
    # ------------------------------------------------------------------
    def _dispatch(self, verb: str, payload: dict):
        # the request counter labels only these verbs, so a verb missing
        # from ``_VERBS`` is refused here rather than miscounted
        if verb not in _VERBS:
            raise ValueError(f"unknown verb {verb!r}")
        if verb == "query":
            response = self.flix.query(request_from_json(payload["request"]))
            return "response", {"response": response_to_json(response)}
        if verb in ("expand", "connection_probe"):
            stats = QueryStats()
            expand = (
                self.flix.pee.expand_entry if verb == "expand"
                else self.flix.pee.connection_probe
            )
            outcome = expand(*expansion_args(verb, payload), stats)
            return (
                "expanded" if verb == "expand" else "probed",
                expansion_reply_to_json(outcome, stats),
            )
        if verb == "explain":
            # the EXPLAIN surface: every worker holds the whole index, so
            # any shard's static plan is authoritative for the deployment
            plan = self.flix.explain(request_from_json(payload["request"]))
            return "plan", {"plan": plan.to_dict()}
        if verb == "type_seeds":
            seeds = type_seeds(
                self.flix.collection, self.flix.meta_of,
                expect(payload["source_tag"], (str,), "'source_tag'"),
            )
            return "seeds", {"seeds": seeds}
        if verb == "wal_pull":
            from repro.wal.follower import FileWalSource

            if self.wal_path is None:
                raise ValueError("this worker serves no write-ahead log")
            after = expect(
                payload.get("after_generation", -1), (int,),
                "'after_generation'",
            )
            # page size bounds the reply frame: a single add_batch
            # record can be huge, so never serialize the whole backlog
            # into one frame — the follower iterates on ``truncated``
            limit = expect(
                payload.get("max_records", WAL_PULL_MAX_RECORDS), (int,),
                "'max_records'",
            )
            limit = max(1, min(limit, WAL_PULL_MAX_RECORDS))
            segment = FileWalSource(self.wal_path).fetch(after)
            page = segment.records[:limit]
            return "wal_records", {
                "records": [record.to_json() for record in page],
                "base_generation": segment.base_generation,
                "tail_generation": segment.tail_generation,
                "truncated": len(segment.records) > limit,
            }
        if verb == "ping":
            return "pong", {
                "shard": self.shard_id,
                "generation": self.flix.layout_generation,
                "owned_metas": len(self.shard_map.owned_metas(self.shard_id)),
                "pid": os.getpid(),
                "role": self.role,
            }
        if verb == "metrics":
            from repro.obs.export import render

            fmt = payload.get("format", "json")
            return "metrics_text", {"text": render(self._obs.registry, fmt)}
        if verb == "shutdown":
            return "bye", {}
        raise AssertionError(f"verb {verb!r} is in _VERBS but has no handler")


#: the verbs ``ShardWorker._dispatch`` answers (and the only values of
#: the request counter's ``verb`` label besides ``"unknown"``)
_VERBS = frozenset((
    "query", "expand", "connection_probe", "explain", "type_seeds",
    "wal_pull", "ping", "metrics", "shutdown",
))


# ----------------------------------------------------------------------
# subprocess management (used by the coordinator CLI, bench, and tests)
# ----------------------------------------------------------------------
@dataclass
class WorkerProcess:
    """A spawned worker subprocess and where to reach it."""

    process: subprocess.Popen
    shard_id: int
    host: str
    port: int

    def close(self, timeout: float = 5.0) -> None:
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=timeout)
        if self.process.stdout is not None:
            self.process.stdout.close()


def spawn_worker(
    collection_dir,
    index_dir,
    shard_id: int,
    host: str = "127.0.0.1",
    startup_timeout: float = 60.0,
) -> WorkerProcess:
    """Start ``python -m repro.shard.worker`` and wait for its READY line."""
    env = dict(os.environ)
    package_root = str(Path(__file__).resolve().parent.parent.parent)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        package_root if not existing
        else package_root + os.pathsep + existing
    )
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro.shard.worker",
            "--collection", str(collection_dir),
            "--index", str(index_dir),
            "--shard", str(shard_id),
            "--host", host,
            "--port", "0",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        env=env,
        text=True,
    )
    deadline = time.monotonic() + startup_timeout
    lines = []
    while True:
        if time.monotonic() > deadline:
            process.kill()
            raise TimeoutError(
                f"shard {shard_id} worker did not become ready; output so "
                f"far: {''.join(lines)[-2000:]}"
            )
        line = process.stdout.readline()
        if not line:
            raise RuntimeError(
                f"shard {shard_id} worker exited during startup "
                f"(rc={process.poll()}): {''.join(lines)[-2000:]}"
            )
        lines.append(line)
        if line.startswith(READY_PREFIX):
            fields = dict(
                part.split("=", 1) for part in line.split()[1:]
            )
            return WorkerProcess(
                process=process,
                shard_id=int(fields["shard"]),
                host=host,
                port=int(fields["port"]),
            )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.shard.worker",
        description="serve one shard of a saved FliX deployment",
    )
    parser.add_argument("--collection", required=True)
    parser.add_argument("--index", required=True)
    parser.add_argument("--shard", type=int, required=True)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument(
        "--role", choices=("primary", "follower"), default="primary",
        help="what this worker reports itself as on ping/health",
    )
    args = parser.parse_args(argv)
    worker = ShardWorker.attach(
        args.collection, args.index, args.shard, role=args.role,
    )

    def _drain(signum, frame):  # pragma: no cover - signal delivery timing
        # run the drain off the signal frame so a handler firing inside
        # wait() cannot deadlock on the in-flight condition
        threading.Thread(
            target=worker.drain, name="sigterm-drain", daemon=True
        ).start()

    signal.signal(signal.SIGTERM, _drain)
    host, port = worker.start(args.host, args.port)
    print(
        f"{READY_PREFIX} shard={args.shard} port={port} "
        f"generation={worker.flix.layout_generation}",
        flush=True,
    )
    worker.wait()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())


__all__ = [
    "READY_PREFIX",
    "ShardWorker",
    "WorkerProcess",
    "main",
    "spawn_worker",
]
