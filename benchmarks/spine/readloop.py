"""The closed read loop: clients, passes, and the per-pass oracle check.

FliX callers — a search engine, an operator script — wait for each reply,
so every loop is closed: a client sends its next request only when the
previous answer has arrived.  One client in-process, two over HTTP.  A
pass runs the whole request list once; the oracle check of its answers
happens after the pass, outside the timed window.
"""

from __future__ import annotations

import contextlib
import gc
import http.client
import json
import threading
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, List, Optional, Sequence

import stats
from deploy import cpu_seconds
from oracle import Expectation, check, rows_of_json, rows_of_response
from speed import NOMINAL_PROBE_SECONDS, SpeedMonitor, nominal_factor
from trace import Recorder

HEADERS = {"Content-Type": "application/json"}


@dataclass
class Pass:
    """One pass over the request list (``dblp_lifecycle``: one block of
    the mutation script, whose operations are its mutations and reads
    and whose latencies are its reads')."""

    latencies: List[float]
    wall: float
    cpu: float
    #: one entry per request: a QueryResponse, a decoded JSON answer, or
    #: the exception / HTTP status that stood in for one
    answers: list
    #: mean machine probe while the pass ran (``SpeedMonitor.probe``)
    probe: float = NOMINAL_PROBE_SECONDS
    #: closed-loop clients that shared the pass's wall time
    clients: int = 1
    #: timed operations in the pass, when not one per latency sample
    operations: int = 0
    failed: int = 0
    rows: int = 0
    exact: int = 0
    pairs: int = 0
    inversions: int = 0
    response_bytes: int = 0

    def __post_init__(self) -> None:
        if self.latencies:
            self.operations = self.operations or len(self.latencies)

    @property
    def factor(self) -> float:
        """Scales this pass's timings to the nominal machine speed; the
        busy share is CPU time over the clients' combined waiting time."""
        return nominal_factor(self.wall * self.clients, self.cpu, self.probe)

    @property
    def seconds_per_operation(self) -> float:
        return self.wall * self.factor / self.operations


@dataclass
class Passes:
    """Every pass of a timed phase.  All times it hands out are at the
    nominal machine speed (see ``speed.py``)."""

    runs: List[Pass] = field(default_factory=list)
    #: one client replays one request list, so slot ``i`` of every pass is
    #: the same request (see :meth:`latencies_ms`)
    per_slot: bool = False

    @property
    def attempted(self) -> int:
        return sum(len(p.latencies) for p in self.runs)

    @property
    def failed(self) -> int:
        return sum(p.failed for p in self.runs)

    def latencies_ms(self) -> List[float]:
        """The run's request samples.  Where one client replays one list
        (``per_slot``) each request counts once, at the median of its
        repetitions: a pass the machine disturbed, or one whose probe
        misjudged the machine, moves no sample.  Elsewhere (two clients
        interleave; the lifecycle script never repeats) the passes are
        pooled."""
        scaled = [
            [s * p.factor * 1000.0 for s in p.latencies] for p in self.runs
        ]
        if self.per_slot:
            return [stats.median(samples) for samples in zip(*scaled)]
        return [s for run in scaled for s in run]

    def throughput_per_pass(self) -> List[float]:
        return [1.0 / p.seconds_per_operation for p in self.runs]

    def end_to_end(self) -> dict:
        samples = self.latencies_ms()
        return {
            "query_p50_ms": stats.median(samples),
            "query_p95_ms": stats.percentile(samples, 95.0),
            "throughput_qps": stats.median(self.throughput_per_pass()),
        }

    def cpu_ms_per_operation(self) -> float:
        """Process CPU time (harness plus workers) per operation as
        measured, median over the passes."""
        return stats.median([p.cpu * 1000.0 / p.operations for p in self.runs])

    def describe(self) -> dict:
        """Per-pass values for the result file (as measured, with the
        probe that corrects them) and the spread between passes."""
        samples = len(self.latencies_ms())
        return {
            "passes": len(self.runs),
            "samples": samples,
            "highest_supported_percentile":
                stats.highest_supported_percentile(samples),
            "throughput_qps": stats.summarize(self.throughput_per_pass()),
            "pass_ms_per_operation": [
                p.wall * 1000.0 / p.operations for p in self.runs
            ],
            "pass_probe_ms": [p.probe * 1000.0 for p in self.runs],
            "pass_speed_factor": [p.factor for p in self.runs],
        }


# ----------------------------------------------------------------------
# clients
# ----------------------------------------------------------------------
def inproc_pass(
    query: Callable, requests: Sequence, monitor: SpeedMonitor,
    recorder: Optional[Recorder] = None,
    span_name: str = "core.framework.query", first_id: int = 0,
) -> Pass:
    """One client calling ``query(request)`` for each request in turn."""
    latencies = [0.0] * len(requests)
    answers: list = [None] * len(requests)
    cpu_before = cpu_seconds(())
    started = perf_counter()
    for index, request in enumerate(requests):
        if recorder is not None:
            recorder.request_id = first_id + index
        begin = perf_counter()
        try:
            answers[index] = query(request)
        except Exception as exc:  # counted as a failed request
            answers[index] = exc
        end = perf_counter()
        latencies[index] = end - begin
        if recorder is not None:
            recorder.add(span_name, begin, end)
    ended = perf_counter()
    cpu = cpu_seconds(()) - cpu_before
    return Pass(latencies, ended - started, cpu, answers,
                monitor.probe(started, ended))


def _http_client(address, bodies, latencies, answers, barrier, recorder, first_id):
    connection = http.client.HTTPConnection(*address, timeout=120)
    try:
        connection.connect()
        barrier.wait()
        for index, body in enumerate(bodies):
            if recorder is not None:
                recorder.request_id = first_id + index
            begin = perf_counter()
            try:
                connection.request("POST", "/query", body, HEADERS)
                reply = connection.getresponse()
                answer = (reply.status, reply.read())
            except (OSError, http.client.HTTPException) as exc:
                answer = (-1, repr(exc).encode())
                connection.close()
                connection = http.client.HTTPConnection(*address, timeout=120)
            end = perf_counter()
            latencies[index] = end - begin
            answers[index] = answer
            if recorder is not None:
                recorder.add("shard.http", begin, end)
    finally:
        connection.close()


def http_pass(
    address, bodies: Sequence[bytes], clients: int, worker_pids: Sequence[int],
    monitor: SpeedMonitor, recorder: Optional[Recorder] = None,
    first_id: int = 0,
) -> Pass:
    """``clients`` threads, each on its own persistent connection, posting
    its share (every ``clients``-th body) of the list to ``/query``."""
    shares = [list(range(c, len(bodies), clients)) for c in range(clients)]
    latencies = [[0.0] * len(share) for share in shares]
    answers = [[None] * len(share) for share in shares]
    barrier = threading.Barrier(clients + 1)
    threads = [
        threading.Thread(
            target=_http_client,
            args=(
                address, [bodies[i] for i in shares[c]], latencies[c],
                answers[c], barrier, recorder, first_id,
            ),
            name=f"spine-client-{c}",
        )
        for c in range(clients)
    ]
    for thread in threads:
        thread.start()
    try:
        barrier.wait(timeout=60)
    except threading.BrokenBarrierError:
        pass  # a client failed to connect; its answers stay None (failed)
    cpu_before = cpu_seconds(worker_pids)
    started = perf_counter()
    for thread in threads:
        thread.join()
    ended = perf_counter()
    wall = ended - started
    cpu = cpu_seconds(worker_pids) - cpu_before
    probe = monitor.probe(started, ended)
    # back into request-list order
    flat_latencies = [0.0] * len(bodies)
    flat_answers: list = [None] * len(bodies)
    for c, share in enumerate(shares):
        for position, index in enumerate(share):
            flat_latencies[index] = latencies[c][position]
            flat_answers[index] = answers[c][position]
    return Pass(flat_latencies, wall, cpu, flat_answers, probe, clients)


# ----------------------------------------------------------------------
# verification (after the pass, outside the timed window)
# ----------------------------------------------------------------------
def verify_pass(run: Pass, expectations: Sequence[Expectation]) -> None:
    """Check every answer of ``run`` against the oracle; HTTP answers are
    decoded from their JSON bodies in place."""
    for index, (answer, expectation) in enumerate(zip(run.answers, expectations)):
        if isinstance(answer, tuple):  # (HTTP status, body)
            status, body = answer
            run.response_bytes += len(body)
            if status != 200:
                run.failed += 1
                continue
            try:
                decoded = json.loads(body)
                reduced = rows_of_json(decoded)
            except (ValueError, KeyError, TypeError):
                run.failed += 1
                continue
            run.answers[index] = decoded
        elif answer is None or isinstance(answer, Exception):
            run.failed += 1
            continue
        else:
            reduced = rows_of_response(answer)
        verdict = check(expectation, *reduced)
        if not verdict.ok:
            run.failed += 1
        run.rows += verdict.rows
        run.exact += verdict.exact
        run.pairs += verdict.pairs
        run.inversions += verdict.inversions


@contextlib.contextmanager
def harness_garbage_held():
    """No cyclic garbage collection inside the block, one full collection
    after it.  The harness keeps a pass's answers alive until the oracle
    has seen them; with the collector on, that backlog of the harness's
    own objects triggered full collections inside every other pass and
    made passes alternate between 1.04 and 1.5 ms per request."""
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
        gc.collect()


def run_passes(
    one_pass: Callable[[int], Pass],
    expectations: Sequence[Expectation],
    seconds: float,
    per_slot: bool = False,
) -> Passes:
    """Repeat ``one_pass(n)`` + its oracle check until ``seconds`` of wall
    time are used (always at least one pass; stops when the next cycle
    would overshoot by more than it undershoots)."""
    passes = Passes(per_slot=per_slot)
    started = perf_counter()
    while True:
        cycle = perf_counter()
        with harness_garbage_held():
            run = one_pass(len(passes.runs))
            verify_pass(run, expectations)
        run.answers = run.answers[:0] if passes.runs else run.answers
        passes.runs.append(run)
        now = perf_counter()
        if (now - started) + 0.5 * (now - cycle) >= seconds:
            return passes
