"""Deployments the workloads run against, built only from public
``repro`` functions, and torn down completely whatever happens.

Three shapes: an in-process ``Flix``; the assembly ``repro serve``
performs (saved index, ``ShardPlanner``, ``spawn_worker`` subprocesses,
``ShardCoordinator`` behind ``FrontDoor``); and the operator's lifecycle
(XML files on disk → ``load_collection`` → build → save → load → WAL).
Each records how long its set-up steps took.
"""

from __future__ import annotations

import contextlib
import os
import resource
import shutil
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from repro import (
    Flix,
    FlixConfig,
    FrontDoor,
    ShardCoordinator,
    ShardPlanner,
    build_collection,
    load_shard_map,
    spawn_worker,
    write_shard_map,
)
from repro.collection.io import load_collection, save_collection
from repro.wal import wal_path_for

from trace import Recorder, TracedCoordinator, TracedShardClient

SPINE_DIR = Path(__file__).resolve().parent
WORK_ROOT = SPINE_DIR / ".work"


def make_work_dir() -> Path:
    """A fresh scratch directory inside the benchmark's own directory
    (the run may write nowhere outside its checkout)."""
    WORK_ROOT.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))


class Deployment:
    """Base: owns an ``ExitStack`` every resource registers on as it is
    created, so ``close()`` — or a failure half-way through set-up —
    releases exactly what exists."""

    def __init__(self) -> None:
        self._stack = contextlib.ExitStack()
        #: seconds spent per set-up step
        self.phases: Dict[str, float] = {}
        self.worker_pids: List[int] = []

    @contextlib.contextmanager
    def _phase(self, name: str):
        started = time.perf_counter()
        yield
        self.phases[name] = (
            self.phases.get(name, 0.0) + time.perf_counter() - started
        )

    def _setup(self, build: Callable[[], None]) -> None:
        try:
            build()
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        self._stack.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class InprocDeployment(Deployment):
    """``build_collection`` + ``Flix.build``, queried through ``Flix.query``."""

    def __init__(self, documents: Callable[[], list], config: FlixConfig) -> None:
        super().__init__()

        def build() -> None:
            with self._phase("generate_s"):
                docs = documents()
            with self._phase("collection.build_s"):
                self.collection = build_collection(docs)
            with self._phase("build_s"):
                self.flix = Flix.build(self.collection, config)

        self._setup(build)


class HttpDeployment(Deployment):
    """A saved index served by shard worker subprocesses behind the HTTP
    front door.  With a ``recorder`` the coordinator and its shard clients
    are the tracing proxies; otherwise the stock objects."""

    def __init__(
        self,
        documents: Callable[[], list],
        config: FlixConfig,
        shards: int,
        cache,
        cross_shard: str,
        recorder: Optional[Recorder] = None,
    ) -> None:
        super().__init__()
        self.clients: List[TracedShardClient] = []

        def build() -> None:
            self.work = make_work_dir()
            self._stack.callback(shutil.rmtree, self.work, ignore_errors=True)
            collection_dir = self.work / "collection"
            index_dir = self.work / "index"
            with self._phase("generate_s"):
                docs = documents()
            with self._phase("collection.build_s"):
                self.collection = build_collection(docs)
            with self._phase("build_s"):
                flix = Flix.build(self.collection, config)
            self.index_bytes = flix.size_bytes()
            self.report = flix.report
            with self._phase("collection.save_s"):
                save_collection(self.collection, collection_dir)
            with self._phase("core.persistence.save_s"):
                flix.save(index_dir)
            self.disk_bytes = directory_bytes(index_dir)
            with self._phase("plan_s"):
                write_shard_map(ShardPlanner(shards).plan(flix), index_dir)
            del flix
            with self._phase("spawn_s"):
                workers = []
                for shard in range(shards):
                    worker = spawn_worker(collection_dir, index_dir, shard)
                    self._stack.callback(worker.close)
                    workers.append(worker)
            self.worker_pids = [w.process.pid for w in workers]
            endpoints = [(w.host, w.port) for w in workers]
            with self._phase("attach_s"):
                if recorder is None:
                    coordinator = ShardCoordinator.connect(
                        index_dir, endpoints, cache=cache,
                        cross_shard=cross_shard,
                    )
                    served = coordinator
                else:
                    # connect() without its client construction: the saved
                    # configuration has no planner, so none is passed
                    self.clients = [
                        TracedShardClient(
                            shard, host, port, recorder=recorder
                        )
                        for shard, (host, port) in enumerate(endpoints)
                    ]
                    coordinator = ShardCoordinator(
                        load_shard_map(index_dir), self.clients,
                        cache=cache, cross_shard=cross_shard,
                    )
                    served = self.served = TracedCoordinator(coordinator, recorder)
                self._stack.callback(coordinator.close)
                self._stack.callback(coordinator.shutdown_workers)
                self.coordinator = coordinator
                door = FrontDoor(served)
                self._stack.callback(door.close)
                self.address = door.start()

        self._setup(build)


class LifecycleDeployment(Deployment):
    """The operator's path: XML files → ``load_collection`` → build → save
    → verified load → write-ahead log with fsync on commit."""

    def __init__(self, base_documents: Callable[[], list], config: FlixConfig) -> None:
        super().__init__()

        def build() -> None:
            self.work = make_work_dir()
            self._stack.callback(shutil.rmtree, self.work, ignore_errors=True)
            self.collection_dir = self.work / "collection"
            self.index_dir = self.work / "index"
            with self._phase("generate_s"):
                docs = base_documents()
            with self._phase("collection.save_s"):
                save_collection(build_collection(docs), self.collection_dir)
            with self._phase("collection.load_s"):
                self.collection = load_collection(self.collection_dir)
            with self._phase("build_s"):
                flix = Flix.build(self.collection, config)
            self.index_bytes = flix.size_bytes()
            self.report = flix.report
            with self._phase("core.persistence.save_s"):
                flix.save(self.index_dir)
            self.disk_bytes = directory_bytes(self.index_dir)
            with self._phase("core.persistence.load_s"):
                self.flix = Flix.load(self.collection, self.index_dir, verify=True)
            with self._phase("wal_s"):
                wal = self.flix.enable_wal(
                    wal_path_for(self.index_dir), fsync="commit"
                )
            self._stack.callback(wal.close)

        self._setup(build)


# ----------------------------------------------------------------------
# resource accounting (harness plus workers)
# ----------------------------------------------------------------------
_TICKS = os.sysconf("SC_CLK_TCK")


def directory_bytes(path) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def cpu_seconds(worker_pids: Sequence[int]) -> float:
    """Process CPU time of this process plus the given live workers."""
    total = time.process_time()
    for pid in worker_pids:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        total += (int(fields[11]) + int(fields[12])) / _TICKS
    return total


def peak_rss_mb(worker_pids: Sequence[int]) -> float:
    """Peak resident set of this process plus the given live workers."""
    total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in worker_pids:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
                    break
    return total_kb / 1024.0
