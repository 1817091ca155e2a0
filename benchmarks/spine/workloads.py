"""The five workloads: what each sets up, runs, checks and reports.

Collection sizes are fixed here and never follow the seed.  They are
scaled so that three set-ups, ``--seconds`` of measuring and the oracle
checks of one run fit the per-run budget the benchmark contract leaves
(about 30 s including set-up) on a two-core machine; ``README.md`` lists
them beside the sizes the issue first proposed.
"""

from __future__ import annotations

import gc
import json
import os
import random
import time
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Sequence

import layers
import lifecycle
import stats
import trace
from deploy import (
    Deployment,
    HttpDeployment,
    InprocDeployment,
    LifecycleDeployment,
    SPINE_DIR,
    cpu_seconds,
    peak_rss_mb,
)
from inputs import (
    MAX_MATCHES,
    MAX_MATCHES_HTTP,
    Sampled,
    dblp_documents,
    hetero_documents,
    mutation_script,
    request_to_json,
    requests_sha256,
    sample_requests,
    zipf_indices,
)
from oracle import Oracle
from readloop import Passes, http_pass, inproc_pass, run_passes
from repro import CacheConfig, Flix, FlixConfig, build_collection
from speed import SpeedMonitor, nominal_factor

#: full set-ups per untraced run; ``setup_s`` is their median
SETUP_REPEATS = 3

#: share of a traced run's ``--seconds`` spent on the untraced reference
#: passes that ``spine.trace_overhead_ratio`` compares against
REFERENCE_SHARE = 0.25

PPO = FlixConfig.maximal_ppo().with_packed()
HYBRID = FlixConfig.hybrid().with_packed()

#: name -> fixed sizes (``smoke``: toy sizes for the self-check)
SIZES = {
    "dblp_ppo_inproc": {
        "full": dict(dblp=3105, requests=1800, warmup=120),
        "smoke": dict(dblp=150, requests=60, warmup=12),
    },
    "hetero_hybrid_inproc": {
        "full": dict(dblp=780, articles=40, requests=960, warmup=30),
        "smoke": dict(dblp=80, articles=4, requests=30, warmup=6),
    },
    "dblp_http_delegate": {
        "full": dict(dblp=500, shards=2, cache=32, population=128,
                     draws=64, warmup=16),
        "smoke": dict(dblp=100, shards=2, cache=8, population=32,
                      draws=24, warmup=4),
    },
    "dblp_http_distributed": {
        "full": dict(dblp=500, shards=2, requests=384, warmup=12),
        "smoke": dict(dblp=100, shards=2, requests=16, warmup=4),
    },
    "dblp_lifecycle": {
        "full": dict(base=1000, held_out=600),
        "smoke": dict(base=60, held_out=500),
    },
}

CLIENTS = {
    "dblp_ppo_inproc": 1,
    "hetero_hybrid_inproc": 1,
    "dblp_http_delegate": 2,
    "dblp_http_distributed": 2,
    "dblp_lifecycle": 1,
}


@dataclass
class Plan:
    """What one run of one workload was asked to do."""

    name: str
    sizes: Dict[str, int]
    rng: random.Random
    seconds: float
    traced: bool
    #: full set-ups to make (1 in a traced or smoke run)
    repeats: int
    monitor: SpeedMonitor


@dataclass
class Result:
    workload: str
    attempted: int
    failed: int
    correct: bool
    metrics: Dict[str, float]
    #: everything else the result file records (sizes, digests, per-pass
    #: values, the per-layer self-time table of a traced run)
    detail: Dict = field(default_factory=dict)


# ----------------------------------------------------------------------
# shared pieces
# ----------------------------------------------------------------------
def _sample(collection, count: int, warmup: int, rng: random.Random,
            max_matches: int = MAX_MATCHES):
    """``(timed, warm-up)`` request lists, disjoint, with expectations."""
    sampled = sample_requests(
        Oracle(collection), count + warmup, rng, max_matches
    )
    return sampled[:count], sampled[count:]


def _bodies(sampled: Sequence[Sampled]) -> List[bytes]:
    return [json.dumps(request_to_json(s.request)).encode() for s in sampled]


def _repeat_setup(
    make: Callable[[], Deployment], warm_up: Callable, repeats: int,
    monitor: SpeedMonitor,
):
    """Set up ``repeats`` times (tearing all but the last down again) and
    return the last deployment with the seconds each took, at the nominal
    machine speed — set-up is everything before the first timed
    operation, warm-up included."""
    seconds: List[float] = []
    deployment = None
    for _ in range(repeats):
        if deployment is not None:
            deployment.close()
            deployment = None
            gc.collect()
        cpu_before = time.process_time()
        started = perf_counter()
        deployment = make()
        try:
            warm_up(deployment)
        except BaseException:
            deployment.close()
            raise
        ended = perf_counter()
        wall = ended - started
        cpu = cpu_seconds(deployment.worker_pids) - cpu_before
        seconds.append(
            wall * nominal_factor(wall, cpu, monitor.probe(started, ended))
        )
    return deployment, seconds


def _end_to_end(
    passes: Passes, setup_seconds, index_bytes: int, elements: int,
    worker_pids=(),
) -> Dict[str, float]:
    return {
        **passes.end_to_end(),
        "setup_s": stats.median(setup_seconds),
        "index_bytes_per_element": index_bytes / elements,
        "peak_rss_mb": peak_rss_mb(worker_pids),
    }


def _spine_metrics(passes: Passes, reference: Passes) -> Dict[str, float]:
    """What tracing cost: the traced passes against the same run's
    untraced reference passes."""
    return {
        "spine.cpu_ms_per_request": passes.cpu_ms_per_operation(),
        "spine.trace_overhead_ratio": (
            stats.median(passes.latencies_ms())
            / stats.median(reference.latencies_ms())
        ),
    }


def _pee_counters(all_stats: Sequence) -> Dict[str, float]:
    """Mean Figure-4 loop counters per query from ``QueryResponse.stats``
    (objects in-process, dicts over HTTP)."""
    def get(stat, key):
        return stat[key] if isinstance(stat, dict) else getattr(stat, key)

    count = max(1, len(all_stats))
    mean = {
        key: sum(get(s, key) for s in all_stats) / count
        for key in (
            "queue_pops", "link_traversals", "meta_document_visits",
            "covered_probes", "entries_dropped", "planner_pruned_pops",
        )
    }
    return {
        "core.pee.queue_pops_per_query": mean["queue_pops"],
        "core.pee.link_traversals_per_query": mean["link_traversals"],
        "core.pee.meta_visits_per_query": mean["meta_document_visits"],
        "core.pee.covered_probes_per_query": mean["covered_probes"],
        "core.pee.entries_dropped_per_query": mean["entries_dropped"],
        "core.pee.useful_pop_ratio": (
            mean["meta_document_visits"] / mean["queue_pops"]
            if mean["queue_pops"] else 0.0
        ),
        "core.planner.pruned_pops_per_query": mean["planner_pruned_pops"],
    }


def _order_quality(passes: Passes) -> Dict[str, float]:
    rows = sum(p.rows for p in passes.runs)
    pairs = sum(p.pairs for p in passes.runs)
    return {
        "core.pee.order_inversion_ratio": (
            sum(p.inversions for p in passes.runs) / pairs if pairs else 0.0
        ),
        "core.pee.distance_exact_ratio": (
            sum(p.exact for p in passes.runs) / rows if rows else 0.0
        ),
    }


def _layer_table(folded) -> Dict[str, Dict[str, float]]:
    """Per span name: how many, median self time, share of all client time."""
    by_name: Dict[str, List[float]] = {}
    for span in folded:
        by_name.setdefault(span.name, []).append(span.self_seconds)
    total = sum(sum(v) for v in by_name.values()) or 1.0
    return {
        name: {
            "spans": len(values),
            "self_ms_p50": stats.median(values) * 1e3,
            "self_share": sum(values) / total,
        }
        for name, values in sorted(by_name.items())
    }


def _spans_path(workload: str) -> str:
    return str(SPINE_DIR / ".work" / f"spans-{workload}.jsonl")


def _finish_trace(recorder, workload: str, detail: Dict):
    folded = trace.fold(recorder.spans)
    trace.write_spans(folded, _spans_path(workload))
    table = trace.self_times_by_request(folded)
    roots = trace.root_durations(folded)
    # by construction; a mismatch means a span escaped its client span
    detail["self_times_sum_to_client_span"] = all(
        abs(sum(row.values()) - roots.get(request_id, 0.0)) < 1e-6
        for request_id, row in table.items()
    )
    detail["layers"] = _layer_table(folded)
    detail["spans_file"] = os.path.relpath(_spans_path(workload), SPINE_DIR)
    return folded, table


# ----------------------------------------------------------------------
# in-process read workloads
# ----------------------------------------------------------------------
def _run_inproc(plan: Plan, config, documents) -> Result:
    name, sizes, rng, seconds = plan.name, plan.sizes, plan.rng, plan.seconds
    traced, monitor = plan.traced, plan.monitor
    oracle_collection = build_collection(documents())
    timed, warm = _sample(oracle_collection, sizes["requests"], sizes["warmup"], rng)
    requests = [s.request for s in timed]
    expectations = [s.expectation for s in timed]
    detail = {"requests_sha256": requests_sha256(requests),
              "distinct_requests": len(requests)}

    def warm_up(deployment) -> None:
        for sample in warm:
            deployment.flix.query(sample.request)

    make = lambda: InprocDeployment(documents, config)
    deployment, setups = _repeat_setup(make, warm_up, plan.repeats, monitor)
    with deployment:
        flix = deployment.flix
        one_pass = lambda n: inproc_pass(flix.query, requests, monitor)
        if not traced:
            passes = run_passes(one_pass, expectations, seconds,
                                per_slot=True)
            metrics = _end_to_end(
                passes, setups, flix.size_bytes(), oracle_collection.node_count
            )
            detail.update(passes.describe())
            return Result(name, passes.attempted, passes.failed,
                          passes.failed == 0, metrics, detail)

        metrics = layers.build_phases(
            flix.report, len(oracle_collection.documents),
            deployment.phases["build_s"],
        )
        metrics["collection.build_s"] = deployment.phases["collection.build_s"]
        metrics.update(layers.xml_parse(list(oracle_collection.documents.values())))
        metrics.update(layers.packed_indexes(flix, rng))
        reference = run_passes(one_pass, expectations,
                               seconds * REFERENCE_SHARE, per_slot=True)
        recorder = trace.Recorder()
        recorder.enabled = True
        evaluator = flix.pee
        flix.pee = trace.TracedEvaluator(evaluator, recorder)
        try:
            passes = run_passes(
                lambda n: inproc_pass(flix.query, requests, monitor, recorder,
                                      first_id=n * len(requests)),
                expectations, seconds * (1 - REFERENCE_SHARE),
                per_slot=True,
            )
        finally:
            flix.pee = evaluator
        folded, table = _finish_trace(recorder, name, detail)
        metrics["core.pee.search_ms_p50"] = stats.median(
            [row.get("core.pee", 0.0) * 1e3 for row in table.values()]
        )
        metrics["core.framework.query_self_ms_p50"] = stats.median(
            [row["core.framework.query"] * 1e3 for row in table.values()]
        )
        metrics.update(_pee_counters([
            a.stats for a in passes.runs[0].answers if not isinstance(a, Exception)
        ]))
        metrics.update(_order_quality(passes))
        first = []
        for request in requests:
            if request.kind == "descendants":
                begin = perf_counter()
                stream = flix.query_stream(request)
                next(stream, None)
                first.append(perf_counter() - begin)
                stream.close()
        metrics["core.pee.first_result_ms_p50"] = stats.median(first) * 1e3
        metrics.update(_spine_metrics(passes, reference))
        attempted = passes.attempted + reference.attempted
        failed = passes.failed + reference.failed
        return Result(name, attempted, failed, failed == 0, metrics, detail)


# ----------------------------------------------------------------------
# HTTP read workloads
# ----------------------------------------------------------------------
def _run_http(plan: Plan, cross_shard: str) -> Result:
    name, sizes, rng, seconds = plan.name, plan.sizes, plan.rng, plan.seconds
    traced, monitor = plan.traced, plan.monitor
    documents = lambda: dblp_documents(sizes["dblp"])
    oracle_collection = build_collection(documents())
    cached = "cache" in sizes
    if cached:
        # Zipf draws over a population four times the cache: hits, misses
        # and evictions all occur
        population, warm = _sample(
            oracle_collection, sizes["population"], sizes["warmup"], rng,
            MAX_MATCHES_HTTP,
        )
        timed = [population[i] for i in
                 zipf_indices(rng, len(population), sizes["draws"])]
        cache = CacheConfig(sizes["cache"], 8)
    else:
        timed, warm = _sample(
            oracle_collection, sizes["requests"], sizes["warmup"], rng,
            MAX_MATCHES_HTTP,
        )
        cache = None
    bodies = _bodies(timed)
    warm_bodies = _bodies(warm)
    expectations = [s.expectation for s in timed]
    detail = {
        "requests_sha256": requests_sha256([s.request for s in timed]),
        "distinct_requests": len(set(bodies)),
        "requests_per_pass": len(bodies),
    }
    recorder = trace.Recorder() if traced else None
    clients = 1 if traced else CLIENTS[name]
    detail["clients"] = clients

    def warm_up(deployment) -> None:
        http_pass(deployment.address, warm_bodies, clients,
                  deployment.worker_pids, monitor)

    make = lambda: HttpDeployment(
        documents, PPO, sizes["shards"], cache, cross_shard, recorder
    )
    deployment, setups = _repeat_setup(make, warm_up, plan.repeats, monitor)
    with deployment:
        def one_pass(n: int):
            if cached:
                deployment.coordinator.invalidate_cache()
            return http_pass(
                deployment.address, bodies, clients, deployment.worker_pids,
                monitor,
                recorder if recorder is not None and recorder.enabled else None,
                first_id=n * len(bodies),
            )

        elements = oracle_collection.node_count
        if not traced:
            passes = run_passes(one_pass, expectations, seconds)
            metrics = _end_to_end(
                passes, setups, deployment.index_bytes, elements,
                deployment.worker_pids,
            )
            detail.update(passes.describe())
            return Result(name, passes.attempted, passes.failed,
                          passes.failed == 0, metrics, detail)

        metrics = layers.build_phases(
            deployment.report, len(oracle_collection.documents),
            deployment.phases["build_s"],
        )
        metrics["collection.build_s"] = deployment.phases["collection.build_s"]
        metrics["core.persistence.save_s"] = deployment.phases["core.persistence.save_s"]
        metrics["core.persistence.disk_bytes_per_element"] = (
            deployment.disk_bytes / elements
        )
        metrics.update(layers.ping_rtt(deployment.clients[0]))
        reference = run_passes(one_pass, expectations,
                               seconds * REFERENCE_SHARE)
        before = deployment.coordinator.cache_stats()
        recorder.enabled = True
        passes = run_passes(one_pass, expectations,
                            seconds * (1 - REFERENCE_SHARE))
        recorder.enabled = False
        after = deployment.coordinator.cache_stats()
        folded, table = _finish_trace(recorder, name, detail)
        queries = len(table)
        delegated, looped, rpc_query = [], [], []
        expands = probes = 0
        for row in table.values():
            hops = "rpc.expand" in row or "rpc.connection_probe" in row
            (looped if hops else delegated).append(
                row.get("shard.coordinator", 0.0) * 1e3
            )
        for span in folded:
            if span.name == "rpc.query":
                rpc_query.append((span.end - span.start) * 1e3)
            elif span.name == "rpc.expand":
                expands += 1
            elif span.name == "rpc.connection_probe":
                probes += 1
        metrics["shard.http.overhead_ms_p50"] = stats.median(
            [row["shard.http"] * 1e3 for row in table.values()]
        )
        metrics["shard.coordinator.query_self_ms_p50"] = stats.median(delegated)
        metrics["shard.distributed.loop_self_ms_p50"] = stats.median(looped)
        metrics["shard.worker.rpc_ms_p50"] = stats.median(rpc_query)
        metrics["shard.distributed.expand_rpcs_per_query"] = expands / queries
        metrics["shard.distributed.probe_rpcs_per_query"] = probes / queries
        replies = [r for client in deployment.clients for r in client.replies]
        metrics.update(layers.shard_protocol(replies, queries))
        metrics.update(layers.http_codec(deployment.served.responses))
        if after is not None:
            lookups = after.lookups - before.lookups
            metrics["serve.cache.hit_ratio"] = (
                (after.hits - before.hits) / lookups if lookups else 0.0
            )
            # per pass over the request list, so the count does not follow
            # how many passes fitted into the run
            metrics["serve.cache.evictions"] = (
                (after.evictions - before.evictions) / len(passes.runs)
            )
        metrics["shard.http.response_bytes_per_query"] = (
            sum(p.response_bytes for p in passes.runs) / passes.attempted
        )
        metrics.update(_pee_counters([
            a["stats"] for a in passes.runs[0].answers if isinstance(a, dict)
        ]))
        metrics.update(_order_quality(passes))
        metrics.update(_spine_metrics(passes, reference))
        attempted = passes.attempted + reference.attempted
        failed = passes.failed + reference.failed
        return Result(name, attempted, failed, failed == 0, metrics, detail)


# ----------------------------------------------------------------------
# the lifecycle workload
# ----------------------------------------------------------------------
def _run_lifecycle(plan: Plan) -> Result:
    name, sizes, rng, seconds = plan.name, plan.sizes, plan.rng, plan.seconds
    traced, monitor = plan.traced, plan.monitor
    everything = dblp_documents(sizes["base"] + sizes["held_out"])
    base, held_out = everything[: sizes["base"]], everything[sizes["base"]:]
    anchors = [d.name for d in base]
    # the last held-out documents stay out of the script: one is the
    # never-acknowledged add of the crash, the rest feed the direct WAL probe
    spare, held_out = held_out[-50:], held_out[:-50]
    script = mutation_script(held_out, rng)
    detail: Dict = {}

    make = lambda: LifecycleDeployment(lambda: list(base), PPO)
    deployment, setups = _repeat_setup(
        make, lambda d: None, plan.repeats, monitor
    )
    with deployment:
        flix = deployment.flix
        elements = deployment.collection.node_count
        wal_file = flix.wal.path
        metrics: Dict[str, float] = {}
        recorder = None
        reference = None
        fsyncs = None
        if traced:
            metrics.update(layers.build_phases(
                deployment.report, len(base), deployment.phases["build_s"]
            ))
            for key in ("collection.load_s", "core.persistence.save_s",
                        "core.persistence.load_s"):
                metrics[key] = deployment.phases[key]
            metrics["core.persistence.disk_bytes_per_element"] = (
                deployment.disk_bytes / elements
            )
            metrics.update(layers.xml_parse(base))
            begin = perf_counter()
            Flix.build(deployment.collection, PPO, jobs=os.cpu_count() or 1)
            metrics["core.ib.parallel_speedup"] = (
                deployment.phases["build_s"] / (perf_counter() - begin)
            )
            metrics.update(layers.wal_append(deployment.work / "probe.wal", spare[1:]))
            wal_before = wal_file.stat().st_size
            # the script's blocks are split as the seconds are, so that the
            # traced share runs the same mutations whatever the machine's speed
            reference_blocks = round(lifecycle.MAX_BLOCKS * REFERENCE_SHARE)
            reference = lifecycle.run_script(
                flix, script, anchors, rng, seconds * REFERENCE_SHARE,
                monitor, count_user_bytes=True, max_blocks=reference_blocks,
            )
            recorder = trace.Recorder()
            recorder.enabled = True
            plain_wal = flix.wal
            flix.attach_wal(trace.TracedWal(plain_wal, recorder))
            with trace.FsyncCounter() as fsyncs:
                ran = lifecycle.run_script(
                    flix, script, anchors, rng,
                    seconds * (1 - REFERENCE_SHARE), monitor, recorder,
                    count_user_bytes=True,
                    max_blocks=lifecycle.MAX_BLOCKS - reference_blocks,
                )
            flix.attach_wal(plain_wal)
        else:
            ran = lifecycle.run_script(flix, script, anchors, rng, seconds, monitor)

        begin = perf_counter()
        flix.compact()
        compact_seconds = perf_counter() - begin
        acked_bytes = wal_file.stat().st_size
        crashed = lifecycle.build_crash_copy(
            deployment.index_dir, deployment.work / "crashed", acked_bytes,
            lifecycle.unacknowledged_add(spare[0], flix.layout_generation + 1),
        )
        detail["requests_sha256"] = requests_sha256(
            [], extra=(reference.applied if reference else []) + ran.applied
        )
        audit = ran
        if reference is not None:  # acknowledged history spans both scripts
            audit = lifecycle.ScriptResult(
                acked_present=(reference.acked_present - ran.acked_absent)
                | ran.acked_present,
                acked_absent=(reference.acked_absent - ran.acked_present)
                | ran.acked_absent,
            )
        recovery = lifecycle.recover_and_audit(
            flix, audit, deployment.collection_dir, crashed, rng,
            stepwise=traced,
        )
        detail.update(
            lost_acked_writes=recovery.lost_acked_writes,
            wal_records_replayed=recovery.records_applied,
            torn_bytes_discarded=recovery.discarded_bytes,
            recover_s=recovery.seconds,
            mutations=sum(len(v) for v in ran.mutation_seconds.values()),
        )
        attempted = ran.attempted + (reference.attempted if reference else 0)
        failed = ran.failed + (reference.failed if reference else 0)
        correct = (
            failed == 0 and recovery.lost_acked_writes == 0
            and recovery.discarded_bytes > 0
        )
        if not traced:
            metrics.update(_end_to_end(
                ran.blocks, setups, deployment.index_bytes, elements
            ))
            detail.update(ran.blocks.describe())
            return Result(name, attempted, failed, correct, metrics, detail)

        folded, table = _finish_trace(recorder, name, detail)
        mutation_ms = {
            verb: [s * 1e3 for s in values]
            for verb, values in ran.mutation_seconds.items()
        }
        pooled = [s for values in mutation_ms.values() for s in values]
        metrics.update({
            "core.framework.add_ms_p50": stats.median(mutation_ms.get("add", [])),
            "core.framework.update_ms_p50": stats.median(mutation_ms.get("update", [])),
            "core.framework.remove_ms_p50": stats.median(mutation_ms.get("remove", [])),
            "core.framework.mutation_ms_p50": stats.median(pooled),
            "core.framework.mutation_ms_p95": stats.percentile(pooled, 95.0),
            "core.framework.compact_s": compact_seconds,
            "wal.fsyncs_per_mutation": fsyncs.count / max(1, len(pooled)),
            "wal.bytes_per_user_byte": (
                (acked_bytes - wal_before)
                / max(1, ran.user_bytes + reference.user_bytes)
            ),
            "wal.recover_s": recovery.seconds,
            "wal.replay_records_per_s": (
                recovery.records_applied / recovery.steps["wal.replay_s"]
            ),
            "core.pee.distance_exact_ratio": (
                ran.exact / ran.rows if ran.rows else 0.0
            ),
            **_pee_counters(ran.read_stats),
            **_spine_metrics(ran.blocks, reference.blocks),
        })
        return Result(name, attempted, failed, correct, metrics, detail)


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
def run(
    name: str, seed: int, seconds: float, traced: bool, smoke: bool = False,
) -> Result:
    """Run one workload once; inputs follow ``seed`` only."""
    if name not in SIZES:
        raise KeyError(f"unknown workload {name!r}; expected one of {sorted(SIZES)}")
    sizes = SIZES[name]["smoke" if smoke else "full"]
    with SpeedMonitor() as monitor:
        plan = Plan(
            name, sizes, random.Random(f"{name}:{seed}"), seconds, traced,
            1 if smoke or traced else SETUP_REPEATS, monitor,
        )
        if name == "dblp_ppo_inproc":
            result = _run_inproc(
                plan, PPO, lambda: dblp_documents(sizes["dblp"])
            )
        elif name == "hetero_hybrid_inproc":
            result = _run_inproc(
                plan, HYBRID,
                lambda: hetero_documents(sizes["dblp"], sizes["articles"]),
            )
        elif name == "dblp_http_delegate":
            result = _run_http(plan, "delegate")
        elif name == "dblp_http_distributed":
            result = _run_http(plan, "distributed")
        else:
            result = _run_lifecycle(plan)
    result.detail.setdefault("clients", CLIENTS[name])
    result.detail["sizes"] = sizes
    return result
