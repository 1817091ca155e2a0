"""Framed request/reply protocol between coordinator and shard workers.

Every message — in either direction — is one *frame*, framed exactly
like a write-ahead-log record (:mod:`repro.wal.record` owns the header,
the size bound and the body encoding)::

    +----------------+----------------+---------------------------+
    | 4 bytes        | 4 bytes        | ``length`` bytes          |
    | big-endian u32 | big-endian u32 | compact UTF-8 JSON        |
    | body length    | CRC-32 of body | ``["verb", {payload}]``   |
    +----------------+----------------+---------------------------+

``verb`` is a short string naming the operation ("query", "expand",
"connection_probe", "explain", "type_seeds", "wal_pull", "ping",
"metrics", "shutdown") or the reply ("response", "expanded", "probed",
"plan", "seeds", "wal_records", "pong", "metrics_text", "bye",
"error"); ``payload`` is a JSON object.  Every value that travels has a
JSON rendering, written once in this module:
:class:`~repro.core.api.QueryRequest` (:func:`request_to_json` /
:func:`request_from_json`), :class:`~repro.core.api.QueryResponse`
(:func:`response_to_json` / :func:`response_from_json`),
:class:`~repro.core.planner.QueryPlan` (its ``to_dict`` /
``from_dict``), and the outcome of one remote expansion with its
counter delta as positional rows (:func:`expansion_reply_to_json` /
:func:`expansion_reply_from_json`).

Bytes from the socket are parsed defensively, in two layers.  A frame
whose header announces more than
:data:`~repro.wal.record.MAX_RECORD_BYTES`, whose body fails its CRC-32,
is not UTF-8 JSON, or is not a ``[verb, payload]`` pair raises
:class:`ProtocolError` — the stream cannot be trusted past it, and a
worker answers with an ``error`` frame and hangs up.  A well-framed
payload the verb cannot use (an unknown verb, a missing key, a value of
the wrong type) is refused by the decoders below with ``ValueError`` /
``KeyError`` / ``TypeError``: a worker answers it with an ``error``
frame and keeps the connection; a coordinator raises
:class:`ProtocolError` for a reply it cannot decode.  No decoder
constructs anything but plain data and the dataclasses named above.
The first two body bytes are checked together with the header, so a
peer speaking another framing — such as the frames of earlier
releases, whose header is four bytes shorter — is refused at once
instead of waited on.  Coordinator and workers must run the same
release.

Nothing is authenticated: workers bind loopback by default, and a
deployment spanning hosts belongs on a private network.
"""

from __future__ import annotations

import socket
from dataclasses import asdict
from typing import Any, Dict, List, Optional, Tuple

from repro.core.api import QueryRequest, QueryResponse, is_set
from repro.core.connections import ConnectionModel
from repro.core.pee import (
    COMPLETENESS_LEVELS,
    QueryBudget,
    QueryResult,
    QueryStats,
)
from repro.core.planner import QueryPlan
from repro.wal.record import (
    HEADER_SIZE,
    decode_body,
    decode_header,
    encode_record,
)

#: every frame body is the compact JSON array ``["verb",{...}]``
_BODY_START = b'["'
_PREFIX_SIZE = HEADER_SIZE + len(_BODY_START)


class ProtocolError(RuntimeError):
    """A malformed frame (bad length, CRC, JSON or shape), or a reply
    whose payload does not decode."""


class ShardUnavailable(RuntimeError):
    """The shard endpoint cannot be reached or died mid-conversation."""

    def __init__(self, shard_id: int, reason: str) -> None:
        super().__init__(f"shard {shard_id} unavailable: {reason}")
        self.shard_id = shard_id
        self.reason = reason


class RemoteShardError(RuntimeError):
    """The worker reached the handler but it raised; carries the remote
    exception type name and message (the worker stays up)."""

    def __init__(self, exc_type: str, message: str) -> None:
        super().__init__(f"{exc_type}: {message}")
        self.exc_type = exc_type


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------
def encode_frame(message: Tuple[str, Any]) -> bytes:
    """One wire-ready frame for ``(verb, payload)``."""
    verb, payload = message
    try:
        return encode_record([verb, payload])
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"cannot frame a {verb!r} message: {exc}") from exc


def write_frame(sock: socket.socket, message: Tuple[str, Any]) -> None:
    sock.sendall(encode_frame(message))


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    """Read exactly ``count`` bytes or raise on EOF mid-frame."""
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise ConnectionError(
                f"connection closed {count - remaining}/{count} bytes into "
                "a frame"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame(sock: socket.socket) -> Tuple[str, Any]:
    """The next ``(verb, payload)`` frame from ``sock``.

    Raises :class:`ConnectionError` on EOF (before a frame starts: the
    peer hung up) and :class:`ProtocolError` on malformed data.
    """
    prefix = sock.recv(_PREFIX_SIZE)
    if not prefix:
        raise ConnectionError("connection closed between frames")
    try:
        if len(prefix) < HEADER_SIZE:
            prefix += _recv_exact(sock, HEADER_SIZE - len(prefix))
        # the length is judged before any body byte is awaited
        length, crc = decode_header(prefix)
        if length < len(_BODY_START):
            raise ValueError(f"a {length}-byte body cannot be a frame")
        prefix += _recv_exact(sock, _PREFIX_SIZE - len(prefix))
        if prefix[HEADER_SIZE:] != _BODY_START:
            raise ValueError("body is not a JSON [verb, payload] array")
        message = decode_body(
            _BODY_START + _recv_exact(sock, length - len(_BODY_START)), crc
        )
    except ValueError as exc:
        raise ProtocolError(f"malformed frame: {exc}") from exc
    if (
        type(message) is not list
        or len(message) != 2
        or type(message[0]) is not str
        or type(message[1]) is not dict
    ):
        raise ProtocolError("frame body is not a [verb, payload] pair")
    return message[0], message[1]


# ----------------------------------------------------------------------
# payload codec: checks shared by every decoder
# ----------------------------------------------------------------------
_NULL = type(None)
_TYPE_NAMES = {
    int: "an integer", float: "a number", str: "a string",
    bool: "a boolean", list: "a list", dict: "an object", _NULL: "null",
}


def expect(value: Any, types: tuple, what: str) -> Any:
    """``value`` when its exact type is one of ``types`` (so ``true`` is
    no integer), else ``ValueError`` naming ``what``."""
    if type(value) not in types:
        raise ValueError(
            f"{what} must be {' or '.join(_TYPE_NAMES[t] for t in types)}, "
            f"not {_TYPE_NAMES.get(type(value), type(value).__name__)}"
        )
    return value


def int_list(value: Any, what: str) -> List[int]:
    """``value`` when it is a list of integers (node ids, generations)."""
    if type(value) is not list or any(type(item) is not int for item in value):
        raise ValueError(f"{what} must be a list of integers")
    return value


def _inflate(value: Any, cls, what: str):
    """``cls(**value)`` for a JSON object of ``cls``'s fields; ``None``
    stays ``None``."""
    if value is None:
        return None
    expect(value, (dict,), what)
    try:
        return cls(**value)
    except TypeError as exc:
        raise ValueError(f"bad {what}: {exc}") from exc


# ----------------------------------------------------------------------
# QueryRequest
# ----------------------------------------------------------------------
#: JSON request field -> the exact types it may hold
_REQUEST_FIELDS = {
    "kind": (str,),
    "source": (int, _NULL),
    "target": (int, _NULL),
    "tag": (str, _NULL),
    "source_tag": (str, _NULL),
    "path": (list, _NULL),
    "max_distance": (int, _NULL),
    "max_cost": (int, float, _NULL),
    "model": (dict, _NULL),
    "limit": (int, _NULL),
    "include_self": (bool,),
    "budget": (dict, _NULL),
    "explain": (bool,),
}


def request_from_json(payload: Dict) -> QueryRequest:
    """Build a :class:`QueryRequest` from its JSON rendering.

    Accepted keys mirror the dataclass fields: ``kind`` (required),
    ``source``, ``target``, ``tag``, ``source_tag``, ``path`` (list of
    step tags), ``max_distance``, ``max_cost``, ``limit``,
    ``include_self``, ``explain``, ``model`` (a dict of
    :class:`~repro.core.connections.ConnectionModel` fields) and
    ``budget`` (a dict of :class:`~repro.core.pee.QueryBudget` fields);
    which of them a kind may set is :data:`repro.core.api.KIND_FIELDS`.
    Validation errors raise ``ValueError`` (rendered as HTTP 400 by the
    front door, as an ``error`` frame by a worker).
    """
    if not isinstance(payload, dict):
        raise ValueError("request body must be a JSON object")
    if "kind" not in payload:
        raise ValueError("request needs a 'kind' field")
    unknown = set(payload) - set(_REQUEST_FIELDS)
    if unknown:
        raise ValueError(f"unknown request fields: {sorted(unknown)}")
    for key, value in payload.items():
        expect(value, _REQUEST_FIELDS[key], repr(key))
    fields = dict(payload)
    path = fields.get("path") or []
    if any(type(step) is not str for step in path):
        raise ValueError("'path' must be a list of step tags")
    fields["path"] = tuple(path)
    fields["model"] = _inflate(
        fields.get("model"), ConnectionModel, "connection model"
    )
    fields["budget"] = _inflate(fields.get("budget"), QueryBudget, "budget")
    try:
        return QueryRequest(**fields)
    except TypeError as exc:
        raise ValueError(str(exc)) from exc


def request_to_json(request: QueryRequest) -> Dict:
    """The JSON rendering :func:`request_from_json` reads back: every
    field that differs from its default."""
    data: Dict[str, Any] = {}
    for key in _REQUEST_FIELDS:
        value = getattr(request, key)
        if not is_set(value):
            continue
        if key in ("model", "budget"):
            value = asdict(value)
        data[key] = list(value) if key == "path" else value
    return data


# ----------------------------------------------------------------------
# QueryResponse
# ----------------------------------------------------------------------
#: the integer ``QueryStats`` counters a rendered response carries
_STATS_COUNTERS = (
    "meta_document_visits", "link_traversals", "entries_dropped",
    "results_returned", "results_suppressed", "covered_probes",
    "queue_pops", "planner_pruned_pops", "planner_pruned_pushes",
)


def response_to_json(response: QueryResponse) -> Dict:
    """Render a :class:`QueryResponse` as a JSON-ready dict."""
    results = []
    for row in response.results:
        if isinstance(row, QueryResult):
            results.append(
                {"node": row.node, "distance": row.distance,
                 "meta_id": row.meta_id}
            )
        else:  # (node, distance) path pairs / (node, cost) connections
            results.append(list(row))
    stats = response.stats
    plan = getattr(response, "plan", None)
    return {
        "kind": response.request.kind,
        "results": results,
        "value": response.value,
        "completeness": stats.completeness,
        "from_cache": response.from_cache,
        "elapsed_seconds": response.elapsed_seconds,
        "layout_generation": response.layout_generation,
        "stats": {name: getattr(stats, name) for name in _STATS_COUNTERS},
        "plan": plan.to_dict() if plan is not None else None,
    }


def _completeness(value: Any) -> str:
    if value not in COMPLETENESS_LEVELS:
        raise ValueError(f"unknown completeness {value!r}")
    return value


def _result_row(row: Any):
    """One rendered result: a :class:`QueryResult` object, or a
    ``[node, distance]`` / ``[node, cost]`` pair."""
    if type(row) is dict:
        return QueryResult(
            expect(row["node"], (int,), "result node"),
            expect(row["distance"], (int,), "result distance"),
            expect(row["meta_id"], (int,), "result meta_id"),
        )
    if type(row) is not list or len(row) != 2:
        raise ValueError("a result row must be an object or a pair")
    return (
        expect(row[0], (int,), "result node"),
        expect(row[1], (int, float), "result distance or cost"),
    )


def response_from_json(data: Dict, request: QueryRequest) -> QueryResponse:
    """Inverse of :func:`response_to_json` for the ``request`` the
    response answers; ``ValueError`` / ``KeyError`` / ``TypeError`` when
    ``data`` is not such a rendering."""
    if data["kind"] != request.kind:
        raise ValueError(
            f"a {data['kind']!r} response cannot answer a "
            f"{request.kind!r} request"
        )
    counters = expect(data["stats"], (dict,), "stats")
    if set(counters) != set(_STATS_COUNTERS):
        raise ValueError(f"stats must hold exactly {_STATS_COUNTERS}")
    for name, value in counters.items():
        expect(value, (int,), f"stats {name!r}")
    rows = expect(data["results"], (list,), "results")
    plan = data["plan"]
    return QueryResponse(
        request,
        [_result_row(row) for row in rows],
        expect(data["value"], (int, float, _NULL), "value"),
        QueryStats(
            completeness=_completeness(data["completeness"]), **counters
        ),
        expect(data["from_cache"], (bool,), "from_cache"),
        expect(data["elapsed_seconds"], (int, float), "elapsed_seconds"),
        layout_generation=expect(
            data["layout_generation"], (int,), "layout_generation"
        ),
        plan=None if plan is None else QueryPlan.from_dict(plan),
    )


# ----------------------------------------------------------------------
# one remote expansion (``expand`` / ``connection_probe``)
# ----------------------------------------------------------------------
#: each verb's arguments in call order (``stats`` is the worker's own)
#: with the exact types they may hold
_EXPANSION_ARGS = {
    "expand": (
        ("meta_id", (int,)), ("entry", (int,)), ("priority", (int,)),
        ("tag", (str, _NULL)), ("forward", (bool,)), ("skip", (list,)),
        ("max_distance", (int, _NULL)), ("previous", (list,)),
    ),
    "connection_probe": (
        ("meta_id", (int,)), ("entry", (int,)), ("priority", (int,)),
        ("target", (int,)), ("target_meta", (int,)),
        ("max_distance", (int, _NULL)), ("previous", (list,)),
    ),
}


def expansion_args(verb: str, payload: Dict) -> List[Any]:
    """The checked positional arguments of
    :meth:`~repro.core.pee.PathExpressionEvaluator.expand_entry` (verb
    ``expand``) or ``connection_probe``, ``stats`` excluded."""
    args = []
    for name, types in _EXPANSION_ARGS[verb]:
        value = expect(payload[name], types, f"{verb} {name!r}")
        if type(value) is list:  # skip / previous: node ids
            int_list(value, f"{verb} {name!r}")
        args.append(value)
    return args


def expansion_reply_to_json(outcome, stats: QueryStats) -> Dict:
    """One expansion's outcome and counter delta as positional rows.

    ``outcome`` is ``null`` (the entry was covered) or ``[found,
    pushes]``: ``found`` holds ``[node, distance, meta_id]`` rows for
    ``expand`` and the distance (or ``null``) for ``connection_probe``;
    ``pushes`` holds ``[local_distance, neighbour]`` rows.  ``stats`` is
    ``[covered_probes, results_suppressed]`` — what
    :meth:`QueryStats.absorb_expansion` reads (an expansion cannot change
    a query's completeness).
    """
    if outcome is not None:
        found, pushes = outcome
        if type(found) is list:
            found = [[r.node, r.distance, r.meta_id] for r in found]
        outcome = [found, pushes]
    return {
        "outcome": outcome,
        "stats": [stats.covered_probes, stats.results_suppressed],
    }


def expansion_reply_from_json(
    verb: str, reply: Dict
) -> Tuple[Optional[tuple], QueryStats]:
    """Inverse of :func:`expansion_reply_to_json` for a ``verb`` reply:
    ``(outcome, stats_delta)`` as the Figure-4 loop's expander returns
    them."""
    outcome = reply["outcome"]
    if outcome is not None:
        found, pushes = expect(outcome, (list,), "outcome")
        # rows that are not all-integer are filtered out, then counted
        # missing: one pass per list on the hot path of every expansion
        if verb == "expand":
            rows = expect(found, (list,), "emitted results")
            found = [
                QueryResult(node, distance, meta_id)
                for node, distance, meta_id in rows
                if type(node) is type(distance) is type(meta_id) is int
            ]
            if len(found) != len(rows):
                raise ValueError("emitted results must be integer triples")
        else:
            expect(found, (int, _NULL), "the probe's distance")
        links = [
            (local_distance, neighbour)
            for local_distance, neighbour in expect(
                pushes, (list,), "link pushes"
            )
            if type(local_distance) is type(neighbour) is int
        ]
        if len(links) != len(pushes):
            raise ValueError("link pushes must be integer pairs")
        outcome = (found, links)
    covered, suppressed = expect(reply["stats"], (list,), "stats delta")
    if not type(covered) is type(suppressed) is int:
        raise ValueError("the stats delta's counters must be integers")
    return outcome, QueryStats(
        covered_probes=covered, results_suppressed=suppressed
    )


__all__ = [
    "ProtocolError",
    "RemoteShardError",
    "ShardUnavailable",
    "encode_frame",
    "expansion_args",
    "expansion_reply_from_json",
    "expansion_reply_to_json",
    "expect",
    "int_list",
    "read_frame",
    "request_from_json",
    "request_to_json",
    "response_from_json",
    "response_to_json",
    "write_frame",
]
