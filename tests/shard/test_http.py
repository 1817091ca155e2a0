"""The HTTP front door: /query, /health, /metrics."""

from __future__ import annotations

import http.client
import json
import socket
import threading
import urllib.error
import urllib.request

import pytest

from repro.core.api import QueryRequest
from repro.shard.http import (
    MAX_BODY_BYTES,
    FrontDoor,
    request_from_json,
    response_to_json,
)

from tests.shard.conftest import in_process_cluster


@pytest.fixture()
def door(deployment):
    with in_process_cluster(deployment, 2) as (coordinator, _workers):
        front = FrontDoor(coordinator)
        front.start()
        try:
            yield front, deployment
        finally:
            front.close()


def _get(door, path):
    host, port = door.address
    try:
        with urllib.request.urlopen(f"http://{host}:{port}{path}") as reply:
            return reply.status, reply.headers, reply.read()
    except urllib.error.HTTPError as error:
        return error.code, error.headers, error.read()


def _post(door, path, payload):
    host, port = door.address
    request = urllib.request.Request(
        f"http://{host}:{port}{path}",
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request) as reply:
            return reply.status, json.loads(reply.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestRequestJson:
    def test_round_trip_descendants(self):
        request = request_from_json(
            {"kind": "descendants", "source": 5, "tag": "author", "limit": 3}
        )
        assert request == QueryRequest.descendants(5, tag="author", limit=3)

    def test_budget_and_model_dicts_are_inflated(self):
        request = request_from_json(
            {
                "kind": "test",
                "source": 1,
                "target": 2,
                "budget": {"max_queue_pops": 7},
            }
        )
        assert request.budget.max_queue_pops == 7

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError):
            request_from_json({"kind": "descendants", "source": 1, "bogus": 2})

    def test_missing_kind_rejected(self):
        with pytest.raises(ValueError):
            request_from_json({"source": 1})


class TestRoutes:
    def test_query_round_trip(self, door):
        front, deployment = door
        start = deployment.collection.document_root(
            sorted(deployment.collection.documents)[0]
        )
        status, body = _post(
            front, "/query", {"kind": "descendants", "source": start}
        )
        assert status == 200
        serial = deployment.flix.query(QueryRequest.descendants(start))
        assert body == response_to_json(serial) | {
            "elapsed_seconds": body["elapsed_seconds"],
        }
        assert body["completeness"] == "complete"

    def test_query_unknown_node_is_404(self, door):
        front, _ = door
        status, body = _post(
            front, "/query", {"kind": "descendants", "source": 10_000_000}
        )
        assert status == 404
        assert "not part of the collection" in body["error"]

    def test_query_bad_body_is_400(self, door):
        front, _ = door
        status, body = _post(front, "/query", {"source": 1})
        assert status == 400
        assert "kind" in body["error"]

    def test_non_integer_source_is_400(self, door):
        # a document name is not a node id: must come back 400, not a
        # dropped connection from the routing layer comparing str to int
        front, _ = door
        for route in ("/query", "/explain"):
            status, body = _post(
                front, route,
                {"kind": "descendants", "source": "matrix3.xml"},
            )
            assert status == 400
            assert "'source' must be an integer" in body["error"]

    def test_health_route(self, door):
        front, _ = door
        status, _, raw = _get(front, "/health")
        assert status == 200
        health = json.loads(raw)
        assert health["healthy"] == 2
        assert health["total"] == 2

    def test_metrics_prometheus_and_json(self, door):
        front, _ = door
        status, headers, raw = _get(front, "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert b"flix_shard_workers_healthy" in raw
        status, headers, raw = _get(front, "/metrics?format=json")
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        json.loads(raw)

    def test_unknown_route_is_404(self, door):
        front, _ = door
        status, _, _ = _get(front, "/nope")
        assert status == 404


class TestConcurrentClients:
    """``ThreadingHTTPServer`` answers each connection on its own handler
    thread; concurrent clients must each get the serial answers."""

    CLIENTS = 4

    def test_keep_alive_clients_match_serial(self, door):
        front, deployment = door
        roots = [
            deployment.collection.document_root(name)
            for name in sorted(deployment.collection.documents)
        ]
        bodies = [{"kind": "descendants", "source": root} for root in roots]
        bodies += [{"kind": "ancestors", "source": root + 1} for root in roots]
        bodies += [
            {"kind": "test", "source": roots[0], "target": root}
            for root in roots
        ]
        serial = [
            response_to_json(front.coordinator.query(request_from_json(body)))
            for body in bodies
        ]
        for answer in serial:
            del answer["elapsed_seconds"]
        answers, statuses, errors = {}, [], []
        barrier = threading.Barrier(self.CLIENTS)

        def client(index: int) -> None:
            connection = http.client.HTTPConnection(*front.address, timeout=30)
            try:
                barrier.wait()
                got = []
                for body in bodies:  # one keep-alive connection throughout
                    connection.request(
                        "POST", "/query", json.dumps(body),
                        {"Content-Type": "application/json"},
                    )
                    reply = connection.getresponse()
                    statuses.append(reply.status)
                    answer = json.loads(reply.read())
                    answer.pop("elapsed_seconds", None)
                    got.append(answer)
                answers[index] = got
            except BaseException as error:  # pragma: no cover
                errors.append(error)
            finally:
                connection.close()

        threads = [
            threading.Thread(target=client, args=(n,))
            for n in range(self.CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        assert statuses == [200] * (self.CLIENTS * len(bodies))
        assert answers == {n: serial for n in range(self.CLIENTS)}


def _raw_post(door, body: bytes) -> bytes:
    """``POST /query`` over a bare socket: the whole reply (read to the
    door's hang-up), or ``socket.timeout`` when the handler thread died
    without one."""
    with socket.create_connection(door.address, timeout=2.0) as sock:
        sock.sendall(
            b"POST /query HTTP/1.1\r\nHost: flix\r\nConnection: close\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: " + str(len(body)).encode() + b"\r\n\r\n"
            + body
        )
        chunks = []
        while True:
            chunk = sock.recv(4096)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


class TestHostileBodies:
    """Request fields of the wrong type are a 400 with the reason — not
    a silently reinterpreted request, and not a handler thread that dies
    without answering."""

    @pytest.mark.parametrize(
        "body, reason",
        [
            (b'{"kind":"path","source":1,"path":5}', "'path'"),
            (b'{"kind":"path","source":1,"path":"ab"}', "'path'"),
            (b'{"kind":"path","source":1,"path":["a",2]}', "'path'"),
            (b'{"kind":"descendants","source":1,"tag":7}', "'tag'"),
            (b'{"kind":"descendants","source_tag":7}', "'source_tag'"),
            (b'{"kind":"descendants","source":1,"limit":true}', "'limit'"),
            (b'{"kind":"descendants","source":true}', "'source'"),
            (b'{"kind":"test","source":1,"target":false}', "'target'"),
            (b'{"kind":"descendants","source":1,"max_distance":true}',
             "'max_distance'"),
            (b'{"kind":"descendants","source":1,"budget":[1]}', "budget"),
            # a field the kind never reads, and the keys of deleted modes
            (b'{"kind":"ancestors","source":1,"source_tag":"a"}',
             "do not read source_tag"),
            (b'{"kind":"test","source":1,"target":2,"limit":1}',
             "do not read limit"),
            (b'{"kind":"children","source":1,"max_distance":2}',
             "do not read max_distance"),
            (b'{"kind":"test","source":1,"target":2,"bidirectional":true}',
             "unknown request fields"),
            (b'{"kind":"descendants","source":1,"exact_order":true}',
             "unknown request fields"),
            pytest.param(b"[" * 100_000, "recursion", id="deep-nesting"),
        ],
    )
    def test_wrong_types_are_400(self, door, body, reason):
        front, _ = door
        reply = _raw_post(front, body)
        assert reply.startswith(b"HTTP/1.1 400 "), reply[:200]
        assert reason.encode() in reply

    def test_the_decoder_refuses_them_directly(self):
        for body in (
            {"kind": "path", "source": 1, "path": "ab"},
            {"kind": "descendants", "source": 1, "tag": 7},
            {"kind": "descendants", "source": 1, "limit": True},
            {"kind": "descendants", "source": 1, "explain": "yes"},
            {"kind": "cost", "source": 1, "target": 2, "max_cost": "3"},
            {"kind": "cost", "source": 1, "target": 2, "model": {"x": 1}},
            {"kind": "ancestors", "source": 1, "source_tag": "a"},
            {"kind": "cost", "source": 1, "target": 2, "tag": "a"},
            {"kind": "test", "source": 1, "target": 2, "tag": "a"},
            {"kind": "test", "source": 1, "target": 2, "limit": 1},
            {"kind": "children", "source": 1, "max_distance": 0},
            {"kind": "descendants", "source_tag": "a", "include_self": True},
            {"kind": "test", "source": 1, "target": 2, "bidirectional": True},
            {"kind": "descendants", "source": 1, "exact_order": True},
        ):
            with pytest.raises(ValueError):
                request_from_json(body)


class TestHostileContentLength:
    """A Content-Length the door cannot honour is refused before the
    body is read — never a handler thread parked in ``rfile.read``."""

    @pytest.mark.parametrize(
        "length, status",
        [("-1", 400), ("abc", 400), (str(2 * MAX_BODY_BYTES), 413)],
    )
    def test_refused_within_a_second(self, door, length, status):
        front, deployment = door
        with socket.create_connection(front.address, timeout=1.0) as sock:
            sock.sendall(
                b"POST /query HTTP/1.1\r\nHost: flix\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: " + length.encode() + b"\r\n\r\n"
            )
            reply = sock.recv(4096)  # socket.timeout = the door hung
        assert reply.startswith(f"HTTP/1.1 {status} ".encode())
        # the door keeps serving
        start = deployment.collection.document_root(
            sorted(deployment.collection.documents)[0]
        )
        ok, body = _post(
            front, "/query", {"kind": "descendants", "source": start}
        )
        assert ok == 200 and body["results"]
