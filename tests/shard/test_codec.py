"""The shard protocol's payload codec: every value that crosses the
wire comes back equal — and of the same type — after its JSON round
trip, and the coordinator refuses replies that do not decode."""

from __future__ import annotations

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.api import KIND_FIELDS, QueryRequest
from repro.core.config import CacheConfig
from repro.core.connections import ConnectionModel
from repro.core.framework import Flix
from repro.core.pee import QueryBudget, QueryResult, QueryStats
from repro.shard.protocol import (
    _REQUEST_FIELDS,
    ProtocolError,
    expansion_reply_from_json,
    expansion_reply_to_json,
    request_from_json,
    request_to_json,
    response_from_json,
    response_to_json,
)

from tests.conftest import parity_requests
from tests.shard.conftest import in_process_cluster


def _wire(value):
    """``value`` as the peer sees it: through JSON text and back."""
    return json.loads(json.dumps(value))


# ----------------------------------------------------------------------
# requests
# ----------------------------------------------------------------------
tags = st.text(min_size=1, max_size=8)
positive = st.floats(min_value=0.01, max_value=1e6, allow_nan=False)
models = st.builds(
    ConnectionModel,
    tree_cost=positive,
    link_cost=positive | st.integers(1, 5),
    reverse_tree_cost=st.none() | positive,
    reverse_link_cost=st.none() | positive,
)
budgets = st.builds(
    QueryBudget,
    deadline_seconds=st.none() | positive,
    max_link_hops=st.none() | st.integers(1, 10**6),
    max_queue_pops=st.none() | st.integers(1, 10**6),
)
KINDS = (
    "descendants", "type_query", "ancestors", "children", "path",
    "connections", "cost", "test",
)


#: every optional field a kind may read, with its strategy
OPTIONAL = {
    "tag": st.none() | tags,
    "max_distance": st.none() | st.integers(0, 50),
    "max_cost": st.none() | st.integers(0, 9) | positive,
    "model": st.none() | models,
    "limit": st.none() | st.integers(1, 100),
    "include_self": st.booleans(),
}


@st.composite
def requests(draw):
    kind = draw(st.sampled_from(KINDS))
    fields = {}
    if kind == "type_query":
        kind, fields["source_tag"] = "descendants", draw(tags)
    else:
        fields["source"] = draw(st.integers(0, 10**9))
    if kind in ("cost", "test"):
        fields["target"] = draw(st.integers(0, 10**9))
    if kind == "path":
        fields["path"] = tuple(draw(st.lists(tags, min_size=1, max_size=4)))
    for name in KIND_FIELDS[kind]:
        if name in OPTIONAL and not (
            name == "include_self" and "source_tag" in fields
        ):
            fields[name] = draw(OPTIONAL[name])
    return QueryRequest(
        kind=kind,
        budget=draw(st.none() | budgets),
        explain=draw(st.booleans()),
        **fields,
    )


def test_codec_keys_are_the_request_fields():
    """``request_to_json`` reads every codec key off the request: a
    field removed from one side only would break the wire."""
    assert list(_REQUEST_FIELDS) == [
        field.name for field in dataclasses.fields(QueryRequest)
    ]


@settings(max_examples=300, deadline=None)
@given(requests())
def test_request_round_trip(request):
    decoded = request_from_json(_wire(request_to_json(request)))
    assert decoded == request
    assert type(decoded.max_cost) is type(request.max_cost)


# ----------------------------------------------------------------------
# responses: real answers of all eight kinds
# ----------------------------------------------------------------------
def _types(response):
    """Everything ``==`` would let slip: int vs float vs None, result
    objects vs pairs (and a pair's element types)."""
    return (
        [
            type(row) if isinstance(row, QueryResult)
            else tuple(type(item) for item in row)
            for row in response.results
        ],
        type(response.value),
        type(response.elapsed_seconds),
    )


def _real_responses(deployment):
    flix = deployment.flix
    collection = deployment.collection
    names = sorted(collection.documents)
    first = collection.document_root(names[0])
    last = collection.document_root(names[-1])
    requests = [request for _, request in parity_requests(collection)]
    requests += [
        QueryRequest.test(first, last),
        QueryRequest.test(last, first),  # one of the two is unreachable
        QueryRequest.cost(last, first),
        QueryRequest.connections(
            first, model=ConnectionModel.link_penalized(2.5), limit=4
        ),
        QueryRequest.descendants(first, include_self=True).with_explain(),
        QueryRequest.find_path(first, ["author"]).with_explain(),
        QueryRequest.descendants(last, budget=QueryBudget(max_queue_pops=1)),
    ]
    responses = [flix.query(request) for request in requests]
    # a cache hit, and a layout generation other than the build's
    cached = Flix.load(collection, deployment.index_dir)
    cached.configure_cache(CacheConfig(maxsize=8, shards=1))
    cached.query(requests[0])
    responses.append(cached.query(requests[0]))
    responses.append(dataclasses.replace(responses[0], layout_generation=7))
    return responses


def test_response_round_trip_of_all_kinds(deployment):
    responses = _real_responses(deployment)
    kinds = {
        "type_query" if r.request.source_tag else r.request.kind
        for r in responses
    }
    assert kinds == set(KINDS)
    seen = set()
    for response in responses:
        decoded = response_from_json(
            _wire(response_to_json(response)), response.request
        )
        assert decoded == response, response.request
        assert _types(decoded) == _types(response), response.request
        seen.add(type(response.value))
        seen.add(response.completeness)
        seen.add(("plan", response.plan is not None))
        seen.add(("from_cache", response.from_cache))
    # the cases the round trip must cover did occur
    assert {int, float, type(None), "complete", "truncated"} <= seen
    assert {("plan", True), ("from_cache", True)} <= seen


def test_response_for_another_kind_is_refused(deployment):
    response = deployment.flix.query(parity_requests(deployment.collection)[0][1])
    data = _wire(response_to_json(response))
    with pytest.raises(ValueError):
        response_from_json(data, QueryRequest.ancestors(1))


@pytest.mark.parametrize(
    "damage",
    [
        lambda d: d["stats"].update(queue_pops="7"),
        lambda d: d["stats"].pop("queue_pops"),
        lambda d: d.update(completeness="fine"),
        lambda d: d.update(value="3"),
        lambda d: d.update(layout_generation=True),
        lambda d: d["results"].append({"node": 1, "distance": 1.5, "meta_id": 0}),
        lambda d: d["results"].append([1, 2, 3]),
        lambda d: d.pop("plan"),
    ],
)
def test_malformed_response_is_refused(deployment, damage):
    response = deployment.flix.query(parity_requests(deployment.collection)[0][1])
    data = _wire(response_to_json(response))
    damage(data)
    with pytest.raises((KeyError, TypeError, ValueError)):
        response_from_json(data, response.request)


# ----------------------------------------------------------------------
# one remote expansion
# ----------------------------------------------------------------------
def test_expansion_replies_round_trip(deployment):
    flix = deployment.flix
    pee = flix.pee
    outcomes = 0
    for name in sorted(deployment.collection.documents):
        root = deployment.collection.document_root(name)
        meta_id = flix.meta_of[root]
        for verb, args in (
            ("expand", (None, True, (), None, [])),
            ("expand", ("author", False, (root,), 3, [])),
            ("expand", (None, True, (), None, [root])),  # covered: None
            ("connection_probe", (root + 1, flix.meta_of[root + 1], None, [])),
            ("connection_probe", (root, meta_id, 0, [root])),
        ):
            stats = QueryStats()
            method = pee.expand_entry if verb == "expand" else pee.connection_probe
            outcome = method(meta_id, root, 2, *args, stats)
            decoded, delta = expansion_reply_from_json(
                verb, _wire(expansion_reply_to_json(outcome, stats))
            )
            if outcome is None:
                assert decoded is None
            else:
                found, pushes = outcome
                assert decoded == (found, [tuple(p) for p in pushes])
                outcomes += 1
            assert delta == stats
    assert outcomes


@pytest.mark.parametrize(
    "verb, reply",
    [
        ("expand", {"outcome": [[[1, 2]], []], "stats": [0, 0]}),
        ("expand", {"outcome": [[[1, 2, True]], []], "stats": [0, 0]}),
        ("expand", {"outcome": [[], [[1, "2"]]], "stats": [0, 0]}),
        ("expand", {"outcome": [[], []], "stats": [0]}),
        ("expand", {"outcome": [[], []], "stats": {"covered_probes": 0}}),
        ("expand", {"outcome": 5, "stats": [0, 0]}),
        ("connection_probe", {"outcome": [1.5, []], "stats": [0, 0]}),
        ("connection_probe", {"outcome": [[[1, 2, 3]], []], "stats": [0, 0]}),
        ("connection_probe", {"stats": [0, 0]}),
    ],
)
def test_malformed_expansion_reply_is_refused(verb, reply):
    with pytest.raises((KeyError, TypeError, ValueError)):
        expansion_reply_from_json(verb, reply)


# ----------------------------------------------------------------------
# the coordinator checks every reply it gets back
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", ["delegate", "distributed"])
def test_coordinator_refuses_a_malformed_reply(deployment, mode):
    requests = dict(parity_requests(deployment.collection))
    with in_process_cluster(deployment, 2, cross_shard=mode) as (
        coordinator, _workers,
    ):
        for client in coordinator._clients:
            def call(verb, payload, _call=client.call):
                reply_verb, reply = _call(verb, payload)
                if verb == "query":
                    reply["response"]["results"].append("not a row")
                elif verb == "expand":
                    reply["stats"] = [0, 0, 0]
                return reply_verb, reply

            client.call = call
        with pytest.raises(ProtocolError, match="malformed"):
            coordinator.query(requests["descendants"])
