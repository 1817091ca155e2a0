"""Wire framing: length + CRC-32 + compact-JSON ``[verb, payload]``
frames, and how both ends treat bytes that are not such a frame."""

from __future__ import annotations

import json
import pickle
import socket
import struct
import threading
import zlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.shard.plan import ShardPlanner, write_shard_map
from repro.shard.protocol import (
    ProtocolError,
    encode_frame,
    expansion_reply_from_json,
    read_frame,
    write_frame,
)
from repro.shard.worker import ShardWorker
from repro.wal.record import MAX_RECORD_BYTES


def _pair():
    left, right = socket.socketpair()
    left.settimeout(5.0)
    right.settimeout(5.0)
    return left, right


def _raw_frame(body: bytes) -> bytes:
    """A frame around ``body`` with a correct length and CRC."""
    return struct.pack(">II", len(body), zlib.crc32(body)) + body


def _read_all(data: bytes):
    """Send ``data``, half-close, and read frames until one raises;
    returns the exception (a hang surfaces as ``socket.timeout``)."""
    left, right = _pair()
    try:
        left.sendall(data)
        left.shutdown(socket.SHUT_WR)
        while True:
            try:
                read_frame(right)
            except Exception as exc:  # the caller asserts on the type
                return exc
    finally:
        left.close()
        right.close()


class TestFraming:
    def test_round_trip(self):
        left, right = _pair()
        try:
            message = ("query", {"request": [1, 2, 3], "budget": None})
            write_frame(left, message)
            assert read_frame(right) == message
        finally:
            left.close()
            right.close()

    def test_multiple_frames_in_sequence(self):
        left, right = _pair()
        try:
            for index in range(5):
                write_frame(left, ("ping", {"n": index}))
            for index in range(5):
                assert read_frame(right) == ("ping", {"n": index})
        finally:
            left.close()
            right.close()

    def test_encode_frame_is_length_prefixed(self):
        frame = encode_frame(("pong", {"b": 1, "a": [2]}))
        length, crc = struct.unpack(">II", frame[:8])
        body = frame[8:]
        assert length == len(body)
        assert crc == zlib.crc32(body)
        # the WAL's body encoding: compact, keys sorted
        assert body == b'["pong",{"a":[2],"b":1}]'

    def test_eof_mid_frame_raises_connection_error(self):
        left, right = _pair()
        frame = encode_frame(("query", {"big": "x" * 1000}))
        left.sendall(frame[: len(frame) // 2])
        left.close()
        try:
            with pytest.raises(ConnectionError):
                read_frame(right)
        finally:
            right.close()

    def test_clean_eof_raises_connection_error(self):
        left, right = _pair()
        left.close()
        try:
            with pytest.raises(ConnectionError):
                read_frame(right)
        finally:
            right.close()

    def test_oversized_length_rejected_before_reading_body(self):
        # the writer stays open and sends no body: reading one would hang
        left, right = _pair()
        try:
            left.sendall(struct.pack(">II", MAX_RECORD_BYTES + 1, 0))
            with pytest.raises(ProtocolError):
                read_frame(right)
        finally:
            left.close()
            right.close()

    def test_garbage_body_raises_protocol_error(self):
        good = encode_frame(("ping", {}))
        bad_crc = good[:4] + struct.pack(">I", zlib.crc32(good[8:]) ^ 1) + good[8:]
        for frame in (
            _raw_frame(b"not json at all"),
            _raw_frame(b'["not json'),
            _raw_frame(b'["\xff\xfe"]'),  # not UTF-8
            bad_crc,
        ):
            left, right = _pair()
            try:
                left.sendall(frame)
                with pytest.raises(ProtocolError):
                    read_frame(right)
            finally:
                left.close()
                right.close()

    def test_non_pair_payload_rejected(self):
        for body in (
            b'["just","a","list"]',
            b'["ping"]',
            b'["ping",5]',
            b'["ping",[1]]',
            b"[5,{}]",
        ):
            left, right = _pair()
            try:
                left.sendall(_raw_frame(body))
                with pytest.raises(ProtocolError):
                    read_frame(right)
            finally:
                left.close()
                right.close()

    def test_unframeable_payload_raises_protocol_error(self):
        with pytest.raises(ProtocolError):
            encode_frame(("query", {"request": object()}))

    def test_concurrent_writers_do_not_interleave(self):
        # write_frame sends one atomic sendall per frame; many threads
        # writing to the same socket must still produce parseable frames
        left, right = _pair()
        errors = []

        def write_many(tag):
            try:
                for index in range(20):
                    write_frame(left, (tag, {"n": index}))
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=write_many, args=(f"t{i}",))
            for i in range(4)
        ]
        try:
            for thread in threads:
                thread.start()
            seen = 0
            while seen < 80:
                verb, payload = read_frame(right)
                assert verb.startswith("t")
                assert 0 <= payload["n"] < 20
                seen += 1
        finally:
            for thread in threads:
                thread.join(timeout=10.0)
            left.close()
            right.close()
        assert not any(thread.is_alive() for thread in threads)
        assert not errors

    def test_each_frame_is_one_sendall(self):
        class Recorder:
            def __init__(self):
                self.calls = []

            def sendall(self, data):
                self.calls.append(data)

        sock = Recorder()
        write_frame(sock, ("expand", {"entry": 1, "previous": [2, 3]}))
        assert sock.calls == [encode_frame(("expand", {"entry": 1, "previous": [2, 3]}))]


# ----------------------------------------------------------------------
# decoder fuzzing: a bad frame raises ProtocolError (or ConnectionError
# at EOF) — never another exception, never a hang
# ----------------------------------------------------------------------
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8)
    | st.floats(allow_nan=False),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
messages = st.tuples(
    st.text(min_size=1, max_size=12),
    st.dictionaries(st.text(max_size=8), json_values, max_size=5),
)
FUZZ = settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestDecoderFuzz:
    @FUZZ
    @given(st.binary(max_size=300))
    def test_random_bytes(self, data):
        exc = _read_all(data)
        assert type(exc) in (ConnectionError, ProtocolError), repr(exc)

    @FUZZ
    @given(messages)
    def test_valid_frames_round_trip(self, message):
        left, right = _pair()
        try:
            write_frame(left, message)
            assert read_frame(right) == message
        finally:
            left.close()
            right.close()

    @FUZZ
    @given(messages)
    def test_every_truncation_is_a_connection_error(self, message):
        frame = encode_frame(message)
        for cut in range(len(frame)):
            exc = _read_all(frame[:cut])
            assert type(exc) is ConnectionError, (cut, repr(exc))

    @FUZZ
    @given(messages, st.data())
    def test_single_bit_flips_never_decode(self, message, data):
        frame = bytearray(encode_frame(message))
        bit = data.draw(st.integers(0, len(frame) * 8 - 1))
        frame[bit // 8] ^= 1 << (bit % 8)
        exc = _read_all(bytes(frame))
        assert type(exc) in (ConnectionError, ProtocolError), repr(exc)

    @FUZZ
    @given(st.integers(MAX_RECORD_BYTES + 1, 2**32 - 1), st.binary(max_size=6))
    def test_header_lengths_above_the_bound(self, length, tail):
        left, right = _pair()
        try:
            left.sendall(struct.pack(">I", length) + b"\0\0\0\0" + tail)
            with pytest.raises(ProtocolError):
                read_frame(right)
        finally:
            left.close()
            right.close()

    def test_deeply_nested_body_is_refused(self):
        exc = _read_all(_raw_frame(b'["x",' + b"[" * 100_000))
        assert type(exc) is ProtocolError

    @pytest.mark.parametrize("protocol", range(2, pickle.HIGHEST_PROTOCOL + 1))
    @pytest.mark.parametrize(
        "message",
        [("ping", {}), ("query", {"request": {"kind": "descendants"}})],
    )
    def test_pickled_frame_of_earlier_releases_is_refused(self, protocol, message):
        # 4-byte length + pickle: refused from its first bytes, with the
        # writer still open (waiting for the rest would hang)
        body = pickle.dumps(message, protocol=protocol)
        left, right = _pair()
        try:
            left.sendall(struct.pack(">I", len(body)) + body)
            with pytest.raises(ProtocolError):
                read_frame(right)
        finally:
            left.close()
            right.close()


# ----------------------------------------------------------------------
# an expansion reply's stats delta is exactly two integer counters
# ----------------------------------------------------------------------
not_integers = json_values.filter(lambda value: type(value) is not int)


class TestExpansionDeltaFuzz:
    @pytest.mark.parametrize("verb", ["expand", "connection_probe"])
    def test_old_four_element_delta_is_refused(self, verb):
        outcome = [[], []] if verb == "expand" else [None, []]
        with pytest.raises(ValueError):
            expansion_reply_from_json(
                verb, {"outcome": outcome, "stats": [0, 0, 0, "complete"]}
            )

    @FUZZ
    @given(not_integers, st.sampled_from([0, 1]))
    def test_non_integer_counter_is_refused(self, value, position):
        delta = [0, 0]
        delta[position] = value
        with pytest.raises(ValueError):
            expansion_reply_from_json(
                "expand", {"outcome": None, "stats": delta}
            )


# ----------------------------------------------------------------------
# a live worker: bad payloads get an ``error`` reply, the worker lives on
# ----------------------------------------------------------------------
@pytest.fixture()
def worker(deployment):
    write_shard_map(ShardPlanner(1).plan(deployment.flix), deployment.index_dir)
    live = ShardWorker.attach(
        deployment.collection_dir, deployment.index_dir, 0
    )
    host, port = live.start()
    try:
        yield live, (host, port)
    finally:
        live.close()


def _root(deployment):
    return deployment.collection.document_root(
        sorted(deployment.collection.documents)[0]
    )


def _expand_payload(deployment, **changes):
    root = _root(deployment)
    payload = {
        "meta_id": deployment.flix.meta_of[root], "entry": root,
        "priority": 0, "tag": None, "forward": True, "skip": [],
        "max_distance": None, "previous": [],
    }
    payload.update(changes)
    return payload


class TestWorkerRefusesBadPayloads:
    @pytest.mark.parametrize(
        "verb, payload",
        [
            ("frobnicate", {}),
            ("expand", {}),
            ("expand", {"meta_id": 0}),
            ("query", {}),
            ("query", {"request": {"kind": "path", "source": 1, "path": 5}}),
            ("query", {"request": {"kind": "descendants", "source": "1"}}),
            ("query", {"request": 5}),
            ("query", {"request": {"kind": "descendants", "source": 1,
                                   "budget": {"max_queue_pops": "x"}}}),
            ("explain", {"request": {"kind": "path", "source": 1, "path": "ab"}}),
            ("type_seeds", {"source_tag": 5}),
            ("wal_pull", {"after_generation": "3"}),
            ("connection_probe", {"meta_id": 0}),
        ],
    )
    def test_error_reply_then_still_serving(self, worker, verb, payload):
        _, address = worker
        with socket.create_connection(address, timeout=10.0) as sock:
            write_frame(sock, (verb, payload))
            reply_verb, reply = read_frame(sock)
            assert reply_verb == "error"
            assert reply["type"] in ("KeyError", "ValueError")
            # same connection, next request
            write_frame(sock, ("ping", {}))
            assert read_frame(sock)[0] == "pong"

    @pytest.mark.parametrize(
        "field, value",
        [
            ("meta_id", "0"), ("entry", True), ("priority", 0.5),
            ("tag", 7), ("forward", 1), ("skip", [True]),
            ("max_distance", "2"), ("previous", [1.0]), ("previous", 3),
        ],
    )
    def test_expand_arguments_of_the_wrong_type(
        self, worker, deployment, field, value
    ):
        _, address = worker
        payload = _expand_payload(deployment, **{field: value})
        with socket.create_connection(address, timeout=10.0) as sock:
            write_frame(sock, ("expand", payload))
            reply_verb, reply = read_frame(sock)
            assert reply_verb == "error"
            assert reply["type"] == "ValueError"
            assert field in reply["message"]
            write_frame(sock, ("expand", _expand_payload(deployment)))
            assert read_frame(sock)[0] == "expanded"

    # bodies the reader consumes whole before refusing: a socket closed
    # with unread bytes resets, and the reset may discard the reply
    @pytest.mark.parametrize(
        "body",
        [b'["ping",5]', b"5", b'["ping"]', b"{}", b"[1", b'["ping",{}'],
    )
    def test_malformed_frame_gets_an_error_and_a_hang_up(self, worker, body):
        _, address = worker
        with socket.create_connection(address, timeout=10.0) as sock:
            sock.sendall(_raw_frame(body))
            reply_verb, reply = read_frame(sock)
            assert reply_verb == "error"
            assert reply["type"] == "ProtocolError"
            with pytest.raises(ConnectionError):
                read_frame(sock)
        with socket.create_connection(address, timeout=10.0) as sock:
            write_frame(sock, ("ping", {}))
            assert read_frame(sock)[0] == "pong"

    def test_query_verb_decodes_with_the_front_door_codec(
        self, worker, deployment
    ):
        live, _ = worker
        with pytest.raises(ValueError, match="'path'"):
            live._dispatch(
                "query", {"request": {"kind": "path", "source": 1, "path": "ab"}}
            )
        with pytest.raises(ValueError, match="'limit'"):
            live._dispatch(
                "query",
                {"request": {"kind": "descendants", "source": 1, "limit": True}},
            )
        verb, payload = live._dispatch(
            "query",
            {"request": {"kind": "descendants", "source": _root(deployment)}},
        )
        assert verb == "response"
        json.dumps(payload)  # JSON-native all the way down
        assert payload["response"]["results"]
