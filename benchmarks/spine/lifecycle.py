"""The ``dblp_lifecycle`` script: writes beside reads, then a crash.

One thread runs mutation verbs against a WAL-backed ``Flix``; each is
followed by reads near the documents it touched, checked against BFS on
the collection *as mutated so far*.  Afterwards the index is compacted,
crashed (by the harness, on a copy) and recovered, and every acknowledged
write is looked for in the recovered instance.
"""

from __future__ import annotations

import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, Iterator, List, Optional, Sequence, Set

from repro import QueryRequest
from repro.collection.io import load_collection
from repro.core.persistence import load_flix
from repro.wal import (
    WAL_NAME,
    WalRecord,
    document_to_payload,
    read_wal,
    recover_flix,
    replay_records,
)

from inputs import MAX_MATCHES, Mutation
from oracle import Oracle, check, rows_of_response
from readloop import Pass, Passes, harness_garbage_held
from speed import SpeedMonitor
from trace import Recorder

#: mutations per "pass" — the unit throughput is reported over
BLOCK_MUTATIONS = 20

#: blocks after which the script stops even if ``--seconds`` are not used
#: up (300 mutations): every mutation grows the collection and copy-on-
#: write verbs cost O(collection), so a faster machine running more blocks
#: would otherwise measure a different, bigger index
MAX_BLOCKS = 15

#: acknowledged adds whose readability is checked by an actual query after
#: recovery (all of them are checked for presence)
READBACK_SAMPLE = 100


@dataclass
class ScriptResult:
    #: one ``Pass`` per block of :data:`BLOCK_MUTATIONS` mutations: its
    #: latencies are the block's reads, its operations reads and mutations
    blocks: Passes = field(default_factory=Passes)
    mutation_seconds: Dict[str, List[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    rows: int = 0
    exact: int = 0
    #: ``QueryResponse.stats`` of every checked read
    read_stats: list = field(default_factory=list)
    #: documents whose add was acknowledged and not since removed / whose
    #: remove was acknowledged and not since re-added
    acked_present: Set[str] = field(default_factory=set)
    acked_absent: Set[str] = field(default_factory=set)
    user_bytes: int = 0
    #: every mutation applied, as ``[verb, document names...]`` — what the
    #: result file's input digest is taken over
    applied: List[List[str]] = field(default_factory=list)


def _reads_near(
    mutation: Mutation, oracle: Oracle, anchors: Sequence[str], rng: random.Random,
) -> List[QueryRequest]:
    """Five reads around the documents ``mutation`` touched: from the
    first touched document, and from a document it cites (or, failing
    that, a random base document) whose ancestors stay under the
    sampler's answer-size cap — a record half the corpus cites would
    otherwise turn one read in a thousand into most of a block."""
    collection = oracle.collection
    documents = collection.documents
    names = [d.name for d in mutation.documents if d.name in documents]
    names += [n for n in mutation.near if n in documents and n not in names]
    while len(names) < 4:
        name = rng.choice(anchors)
        if name in documents and name not in names:
            names.append(name)
    first = collection.document_root(names[0])
    second = first
    for name in names[1:]:
        candidate = collection.document_root(name)
        if len(oracle.reach(candidate, forward=False)) <= MAX_MATCHES:
            second = candidate
            break
    # no `test`: three near-free reads beside two real ones would put the
    # median in the gap between the two groups, where it jumps
    return [
        QueryRequest.descendants(first, tag="author"),
        QueryRequest.descendants(first, tag="title"),
        QueryRequest.descendants(first),
        QueryRequest.descendants(second, tag="author"),
        QueryRequest.ancestors(second),
    ]


def _apply(flix, mutation: Mutation) -> None:
    if mutation.verb == "add":
        flix.add_document(mutation.documents[0])
    elif mutation.verb == "add_batch":
        flix.add_documents(mutation.documents)
    elif mutation.verb == "update":
        flix.update_document(mutation.documents[0])
    else:
        flix.remove_document(mutation.name)


def run_script(
    flix,
    script: Iterator[Mutation],
    anchors: Sequence[str],
    rng: random.Random,
    seconds: float,
    monitor: SpeedMonitor,
    recorder: Optional[Recorder] = None,
    count_user_bytes: bool = False,
    max_blocks: int = MAX_BLOCKS,
) -> ScriptResult:
    """Run mutations, each followed by its reads, for ``seconds`` of wall
    time (oracle checks included) or ``max_blocks`` blocks, finishing the
    block in progress."""
    result = ScriptResult()
    oracle = Oracle(flix.collection)
    started = perf_counter()
    sequence = 0

    def timed(span_name: str, call, *args):
        """``(seconds, answer or exception)`` of one timed operation."""
        nonlocal sequence
        if recorder is not None:
            recorder.request_id = sequence
        sequence += 1
        cpu_before = time.process_time()
        begin = perf_counter()
        try:
            answer = call(*args)
        except Exception as exc:  # counted as a failed operation
            answer = exc
        end = perf_counter()
        block.cpu += time.process_time() - cpu_before
        block.wall += end - begin
        block.operations += 1
        if recorder is not None:
            recorder.add(span_name, begin, end)
        return end - begin, answer

    def step(mutation: Mutation) -> None:
        """One mutation, its five reads, and their oracle check."""
        elapsed, answer = timed(
            "core.framework." + mutation.verb, _apply, flix, mutation
        )
        result.attempted += 1
        result.mutation_seconds.setdefault(mutation.verb, []).append(elapsed)
        result.applied.append(
            [mutation.verb, mutation.name or ""]
            + [document.name for document in mutation.documents]
        )
        if isinstance(answer, Exception):
            result.failed += 1
            return
        for document in mutation.documents:
            result.acked_present.add(document.name)
            result.acked_absent.discard(document.name)
            if count_user_bytes:
                result.user_bytes += len(document_to_payload(document)["xml"])
        if mutation.name is not None:
            result.acked_absent.add(mutation.name)
            result.acked_present.discard(mutation.name)
        oracle.forget()
        reads = _reads_near(mutation, oracle, anchors, rng)
        answers = []
        for request in reads:
            elapsed, answer = timed("core.framework.query", flix.query, request)
            block.latencies.append(elapsed)
            answers.append(answer)
        # the oracle check, outside every timed operation
        for request, answer in zip(reads, answers):
            result.attempted += 1
            if isinstance(answer, Exception):
                result.failed += 1
                continue
            verdict = check(oracle.expect(request), *rows_of_response(answer))
            result.failed += 0 if verdict.ok else 1
            result.rows += verdict.rows
            result.exact += verdict.exact
            result.read_stats.append(answer.stats)

    while perf_counter() - started < seconds and len(result.blocks.runs) < max_blocks:
        block = Pass([], 0.0, 0.0, [], operations=0)
        block_started = perf_counter()
        with harness_garbage_held():
            for _ in range(BLOCK_MUTATIONS):
                step(next(script))
        block.probe = monitor.probe(block_started, perf_counter())
        result.blocks.runs.append(block)
    return result


# ----------------------------------------------------------------------
# crash and recovery
# ----------------------------------------------------------------------
def build_crash_copy(
    index_dir, destination, acked_bytes: int, unacked_record: bytes,
) -> Path:
    """What a crash would leave on disk: a copy of the index directory
    whose WAL holds exactly the acknowledged bytes plus the first half of
    one record that never was.  (Killing the process would keep the
    operating system's cache, so the harness discards the tail itself.)"""
    destination = Path(destination)
    shutil.copytree(index_dir, destination)
    with open(destination / WAL_NAME, "r+b") as wal:
        wal.truncate(acked_bytes)
        wal.seek(0, 2)
        wal.write(unacked_record[: len(unacked_record) // 2])
    return destination


def unacknowledged_add(document, generation: int) -> bytes:
    """The framed WAL record of an ``add_document`` that was never acked."""
    return WalRecord(
        "add", generation, {"documents": [document_to_payload(document)]}
    ).to_bytes()


@dataclass
class Recovery:
    seconds: float
    lost_acked_writes: int
    records_applied: int
    discarded_bytes: int
    #: seconds per recovery step (traced run: the steps are called one by one)
    steps: Dict[str, float] = field(default_factory=dict)


def recover_and_audit(
    live, script_result: ScriptResult, collection_dir, crashed_index_dir,
    rng: random.Random, stepwise: bool = False,
) -> Recovery:
    """Recover from the crashed copy only, then look for every
    acknowledged write: adds must be present (a sample is read back
    through a query), removes must be gone, and the recovered index must
    fingerprint-match the live one."""
    steps: Dict[str, float] = {}
    started = perf_counter()
    if stepwise:
        def step(name, call, *args, **kwargs):
            begin = perf_counter()
            value = call(*args, **kwargs)
            steps[name] = perf_counter() - begin
            return value

        collection = step("collection.load_s", load_collection, collection_dir)
        recovered = step(
            "core.persistence.load_s", load_flix, collection,
            crashed_index_dir, verify=True,
        )
        records, discarded = step(
            "wal.read_s", read_wal, Path(crashed_index_dir) / WAL_NAME
        )
        applied = step("wal.replay_s", replay_records, recovered, records)
    else:
        collection = load_collection(collection_dir)
        recovered, report = recover_flix(collection, crashed_index_dir)
        applied, discarded = report.records_applied, report.discarded_bytes
    seconds = perf_counter() - started
    try:
        documents = recovered.collection.documents
        lost = 0
        if recovered.index_fingerprint() != live.index_fingerprint():
            lost += 1
        lost += sum(1 for n in script_result.acked_present if n not in documents)
        lost += sum(1 for n in script_result.acked_absent if n in documents)
        survivors = sorted(n for n in script_result.acked_present if n in documents)
        for name in rng.sample(survivors, min(READBACK_SAMPLE, len(survivors))):
            root = recovered.collection.document_root(name)
            answer = recovered.query(QueryRequest.descendants(root, tag="title"))
            if not answer.results or not answer.is_complete:
                lost += 1
    finally:
        if recovered.wal is not None:
            recovered.wal.close()
    return Recovery(seconds, lost, applied, discarded, steps)
