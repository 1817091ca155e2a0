"""Per-layer measurements taken from outside: direct timed calls into a
layer's public functions, on inputs captured from the real run.

Each function returns ``{metric name: value}`` for the layer it measures;
the workloads call the ones whose layer does work for them (see
``README.md`` for which end-to-end metric each should move).
"""

from __future__ import annotations

import json
import random
import socket
from time import perf_counter
from typing import Dict, List, Sequence

import stats
from inputs import request_to_json
from repro.indexes.packed import pack_index
from repro.shard.http import request_from_json, response_to_json
from repro.shard.protocol import encode_frame, read_frame
from repro.wal import WriteAheadLog, document_to_payload
from repro.xmlmodel import parse_document, serialize

#: meta indexes / node pairs probed per strategy by :func:`packed_indexes`
INDEX_SAMPLE = 48
PROBES_PER_INDEX = 8


def build_phases(report, documents: int, build_seconds: float) -> Dict[str, float]:
    """``core.ib`` / ``core.iss`` phase seconds and strategy counts from
    the ``BuildReport`` the public API already returns, and the rate of
    the ``Flix.build`` call (default ``jobs=1``) that produced it."""
    totals = report.phase_totals()
    histogram = report.strategy_histogram()
    return {
        "core.ib.build_docs_per_s": documents / build_seconds,
        "core.ib.graph_s": totals["graph"],
        "core.iss.selection_s": totals["selection"],
        "core.ib.index_s": totals["index"],
        "core.ib.metas_ppo": float(histogram.get("ppo", 0)),
        "core.ib.metas_hopi": float(histogram.get("hopi", 0)),
    }


def xml_parse(documents: Sequence, sample: int = 200) -> Dict[str, float]:
    """``parse_document`` over serialized documents, per element."""
    texts = [
        (serialize(d.root, declaration=True), d.element_count)
        for d in documents[:sample]
    ]
    started = perf_counter()
    for text, _ in texts:
        parse_document(text)
    elapsed = perf_counter() - started
    elements = sum(count for _, count in texts)
    return {"xmlmodel.parse_us_per_element": elapsed * 1e6 / max(1, elements)}


def packed_indexes(flix, rng: random.Random) -> Dict[str, float]:
    """Direct ``find_descendants_by_tag`` / ``reachable`` probes on a
    seeded sample of meta indexes, and the packed bytes they occupy."""
    by_strategy: Dict[str, list] = {"ppo": [], "hopi": []}
    for meta in flix.meta_documents:
        if meta.strategy in by_strategy and meta.index is not None:
            by_strategy[meta.strategy].append(meta)
    metrics = {
        "indexes.packed.ppo.descendants_us": 0.0,
        "indexes.packed.hopi.descendants_us": 0.0,
        "indexes.packed.hopi.reachable_us": 0.0,
        "indexes.packed.bytes_per_element": 0.0,
    }
    packed_bytes = packed_nodes = 0
    for strategy, metas in by_strategy.items():
        sample = rng.sample(metas, min(INDEX_SAMPLE, len(metas)))
        descend: List[float] = []
        reach: List[float] = []
        for meta in sample:
            nodes = sorted(meta.nodes)
            blob = pack_index(meta.index)
            if blob is not None:
                packed_bytes += len(blob)
                packed_nodes += len(nodes)
            index = meta.index
            for _ in range(PROBES_PER_INDEX):
                source, target = rng.choice(nodes), rng.choice(nodes)
                begin = perf_counter()
                index.find_descendants_by_tag(source, None)
                middle = perf_counter()
                index.reachable(source, target)
                end = perf_counter()
                descend.append(middle - begin)
                reach.append(end - middle)
        metrics[f"indexes.packed.{strategy}.descendants_us"] = (
            stats.median(descend) * 1e6
        )
        if strategy == "hopi":
            metrics["indexes.packed.hopi.reachable_us"] = (
                stats.median(reach) * 1e6
            )
    if packed_nodes:
        metrics["indexes.packed.bytes_per_element"] = packed_bytes / packed_nodes
    return metrics


def shard_protocol(replies: Sequence[tuple], queries: int) -> Dict[str, float]:
    """``encode_frame`` / ``read_frame`` on the replies the workers
    actually sent, per KiB of frame, and the reply bytes per query."""
    if not replies:
        return {}
    frames = []
    encode_seconds = 0.0
    for reply in replies:
        begin = perf_counter()
        frame = encode_frame(reply)
        encode_seconds += perf_counter() - begin
        frames.append(frame)
    total_bytes = sum(len(f) for f in frames)
    # decode through the public reader, over a local socket pair; frames
    # larger than the pair's buffer would need a second thread, skip them
    small = [f for f in frames if len(f) <= 64 * 1024]
    decode_seconds = 0.0
    left, right = socket.socketpair()
    try:
        for frame in small:
            left.sendall(frame)
            begin = perf_counter()
            read_frame(right)
            decode_seconds += perf_counter() - begin
    finally:
        left.close()
        right.close()
    small_bytes = sum(len(f) for f in small)
    return {
        "shard.protocol.encode_us_per_kb":
            encode_seconds * 1e6 / (total_bytes / 1024.0),
        "shard.protocol.decode_us_per_kb":
            decode_seconds * 1e6 / max(1.0, small_bytes / 1024.0),
        "shard.protocol.reply_bytes_per_query": total_bytes / max(1, queries),
    }


def ping_rtt(client, rounds: int = 200) -> Dict[str, float]:
    """Round trip of the smallest RPC (``ping``) to one worker."""
    samples = []
    for _ in range(rounds):
        begin = perf_counter()
        client.call("ping", {})
        samples.append(perf_counter() - begin)
    return {"shard.worker.ping_rtt_us_p50": stats.median(samples) * 1e6}


def http_codec(responses: Sequence) -> Dict[str, float]:
    """The front door's own work per request: decode the JSON request,
    render the response, serialize it — on responses it really served."""
    samples = []
    for response in responses:
        body = json.dumps(request_to_json(response.request))
        begin = perf_counter()
        request_from_json(json.loads(body))
        json.dumps(response_to_json(response))
        samples.append(perf_counter() - begin)
    return {"shard.http.codec_us_p50": stats.median(samples) * 1e6}


def wal_append(path, documents: Sequence) -> Dict[str, float]:
    """Direct ``WriteAheadLog.append`` with fsync on commit and the
    payload a real ``add_document`` logs."""
    samples = []
    with WriteAheadLog(path, base_generation=0, fsync="commit") as wal:
        for generation, document in enumerate(documents, start=1):
            payload = {"documents": [document_to_payload(document)]}
            begin = perf_counter()
            wal.append("add", generation, payload)
            samples.append(perf_counter() - begin)
    return {"wal.append_ms_p50": stats.median(samples) * 1e3}
