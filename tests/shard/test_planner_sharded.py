"""Pruning and EXPLAIN across the sharded deployment (``docs/PLANNING.md``).

Byte-identity of sharded answers to serial ones is
``test_coordinator.py``'s subject; this file checks that the loop's
frontier does prune when its expansions are remote, and the EXPLAIN
surface over the coordinator and the HTTP front door.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.core.api import QueryRequest
from repro.core.planner import QueryPlan
from repro.shard.http import FrontDoor

from tests.shard.conftest import in_process_cluster


def _all_kind_requests(collection):
    roots = [
        collection.document_root(name) for name in sorted(collection.documents)
    ]
    a, b = roots[0], roots[1]
    return [
        ("descendants", QueryRequest.descendants(a)),
        ("type_query", QueryRequest.type_query("article", tag="author")),
        ("ancestors", QueryRequest.ancestors(a + 1)),
        ("children", QueryRequest.children(a)),
        ("path", QueryRequest.find_path(a, ["author"])),
        ("connections", QueryRequest.connections(a)),
        ("cost", QueryRequest.cost(a, b)),
        ("test", QueryRequest.test(a, b)),
    ]


class TestShardedPruning:
    def test_distributed_loop_prunes(self, deployment):
        # the coordinator runs the same loop, so the same frontier; on a
        # linked layout it must report pruned work in the stats
        requests = _all_kind_requests(deployment.collection)
        with in_process_cluster(
            deployment, 3, cross_shard="distributed"
        ) as (coordinator, _workers):
            pruned = 0
            for _name, request in requests:
                stats = coordinator.query(request).stats
                pruned += (
                    stats.planner_pruned_pops + stats.planner_pruned_pushes
                )
        assert pruned > 0


class TestShardedExplain:
    def test_coordinator_explain(self, deployment):
        start = deployment.collection.document_root(
            sorted(deployment.collection.documents)[0]
        )
        request = QueryRequest.descendants(start, tag="author")
        with in_process_cluster(deployment, 2) as (coordinator, _):
            plan = coordinator.explain(request)
        assert plan is not None
        assert plan.mode == "planned"
        assert plan.probes
        ids = [probe.meta_id for probe in plan.probes]
        assert ids == sorted(ids)
        # every worker holds the whole index: its plan is the serial one
        assert plan == deployment.flix.explain(request)

    def test_query_with_explain_stamps_plan(self, deployment):
        start = deployment.collection.document_root(
            sorted(deployment.collection.documents)[0]
        )
        with in_process_cluster(deployment, 2) as (coordinator, _):
            response = coordinator.query(
                QueryRequest.descendants(start).with_explain()
            )
            assert response.plan is not None
            assert response.plan.kind == "descendants"

    def test_http_explain_route(self, deployment):
        start = deployment.collection.document_root(
            sorted(deployment.collection.documents)[0]
        )
        with in_process_cluster(deployment, 2) as (coordinator, _):
            with FrontDoor(coordinator) as door:
                host, port = door.start()

                def post(route, source):
                    body = json.dumps(
                        {"kind": "descendants", "source": source,
                         "tag": "author"}
                    ).encode()
                    request = urllib.request.Request(
                        f"http://{host}:{port}{route}",
                        data=body,
                        headers={"Content-Type": "application/json"},
                    )
                    with urllib.request.urlopen(request) as raw:
                        return json.loads(raw.read())

                plan = QueryPlan.from_dict(post("/explain", start))
                assert plan.mode == "planned"
                # an unknown node is a 404 on both routes, not an empty plan
                for route in ("/query", "/explain"):
                    with pytest.raises(urllib.error.HTTPError) as caught:
                        post(route, 10**9)
                    assert caught.value.code == 404, route
                    caught.value.close()

    def test_http_query_with_explain_flag(self, deployment):
        start = deployment.collection.document_root(
            sorted(deployment.collection.documents)[0]
        )
        with in_process_cluster(deployment, 2) as (coordinator, _):
            with FrontDoor(coordinator) as door:
                host, port = door.start()
                body = json.dumps(
                    {"kind": "descendants", "source": start, "explain": True}
                ).encode()
                request = urllib.request.Request(
                    f"http://{host}:{port}/query",
                    data=body,
                    headers={"Content-Type": "application/json"},
                )
                with urllib.request.urlopen(request) as raw:
                    payload = json.loads(raw.read())
                assert payload["plan"] is not None
                assert payload["plan"]["kind"] == "descendants"
                assert payload["completeness"] == "complete"
