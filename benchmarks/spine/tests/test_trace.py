import json

import pytest

import trace
from trace import Span


def hand_built():
    # request 7: client 0..10 > coordinator 1..9 > rpc 2..4, rpc 5..8
    # request 8: client 20..23 with no children
    return [
        Span("rpc.expand", 5.0, 8.0, 7),
        Span("shard.http", 0.0, 10.0, 7),
        Span("shard.coordinator", 1.0, 9.0, 7),
        Span("rpc.expand", 2.0, 4.0, 7),
        Span("shard.http", 20.0, 23.0, 8),
    ]


def test_parents_follow_time_containment():
    folded = trace.fold(hand_built())
    by_key = {(s.name, s.start): s for s in folded}
    client = folded.index(by_key[("shard.http", 0.0)])
    coordinator = folded.index(by_key[("shard.coordinator", 1.0)])
    assert by_key[("shard.http", 0.0)].parent == -1
    assert by_key[("shard.coordinator", 1.0)].parent == client
    assert by_key[("rpc.expand", 2.0)].parent == coordinator
    assert by_key[("rpc.expand", 5.0)].parent == coordinator
    assert by_key[("shard.http", 20.0)].parent == -1


def test_self_time_is_span_minus_children_and_sums_to_the_client_span():
    folded = trace.fold(hand_built())
    table = trace.self_times_by_request(folded)
    assert table[7] == {
        "shard.http": pytest.approx(2.0),          # 10 - 8
        "shard.coordinator": pytest.approx(3.0),   # 8 - (2 + 3)
        "rpc.expand": pytest.approx(5.0),          # 2 + 3, leaves
    }
    roots = trace.root_durations(folded)
    for request_id, row in table.items():
        assert sum(row.values()) == pytest.approx(roots[request_id])
    assert roots == {7: pytest.approx(10.0), 8: pytest.approx(3.0)}


def test_spans_of_different_requests_never_nest():
    spans = [Span("client", 0.0, 10.0, 1), Span("client", 2.0, 3.0, 2)]
    assert [s.parent for s in trace.fold(spans)] == [-1, -1]


def test_recorder_only_records_while_enabled_and_stamps_the_request():
    recorder = trace.Recorder()
    recorder.add("dropped", 0.0, 1.0)
    recorder.enabled = True
    recorder.request_id = 42
    with recorder.span("kept"):
        pass
    assert [(s.name, s.request_id) for s in recorder.spans] == [("kept", 42)]


def test_spans_file_has_one_json_object_per_span(tmp_path):
    path = tmp_path / "out" / "spans.jsonl"
    trace.write_spans(trace.fold(hand_built()), path)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(rows) == 5
    assert set(rows[0]) == {"id", "name", "start", "end", "parent", "request_id", "self"}


def test_traced_stream_span_covers_consumption():
    class Inner:
        stats = object()

        def __iter__(self):
            return iter([1, 2, 3])

        def close(self):
            pass

    recorder = trace.Recorder()
    recorder.enabled = True
    stream = trace._TracedStream(Inner(), recorder, start=0.0)
    assert recorder.spans == []
    assert list(stream) == [1, 2, 3]
    stream.close()  # idempotent: the span is recorded once
    assert [s.name for s in recorder.spans] == ["core.pee"]
