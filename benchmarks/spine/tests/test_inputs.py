import random
from collections import Counter

import pytest

import inputs
import workloads
from oracle import Oracle, check, rows_of_response
from repro import Flix, build_collection


@pytest.fixture(scope="module")
def collection():
    return build_collection(inputs.dblp_documents(150))


def sample(collection, seed, count=40):
    rng = random.Random(f"test:{seed}")
    return inputs.sample_requests(Oracle(collection), count, rng)


def test_zipf_sampler_is_skewed_and_seeded():
    draws = inputs.zipf_indices(random.Random(3), population=64, draws=20000)
    counts = Counter(draws)
    assert set(draws) <= set(range(64))
    assert counts[0] > counts[1] > counts[3] > counts[15] > counts[63]
    # Zipf(s=1): rank 1 is drawn about twice as often as rank 2
    assert counts[0] / counts[1] == pytest.approx(2.0, rel=0.15)
    assert draws == inputs.zipf_indices(random.Random(3), population=64, draws=20000)
    assert draws != inputs.zipf_indices(random.Random(4), population=64, draws=20000)


def test_same_seed_same_requests_other_seed_other_requests(collection):
    first = [s.request for s in sample(collection, 1)]
    again = [s.request for s in sample(collection, 1)]
    other = [s.request for s in sample(collection, 2)]
    assert first == again
    assert inputs.requests_sha256(first) == inputs.requests_sha256(again)
    assert inputs.requests_sha256(first) != inputs.requests_sha256(other)


def test_requests_are_distinct_and_follow_the_mix(collection):
    sampled = sample(collection, 5, count=100)
    keys = {(s.request.cache_key(), s.request.limit) for s in sampled}
    assert len(keys) == 100
    kinds = Counter(s.request.kind for s in sampled)
    assert kinds["ancestors"] == 10
    assert kinds["test"] == 15
    assert kinds["cost"] == 5
    assert kinds["descendants"] == 70
    for s in sampled:
        if s.expectation.members is not None:
            assert len(s.expectation.members) >= inputs.MIN_MATCHES


def test_oracle_accepts_the_program_and_rejects_a_wrong_answer(collection):
    flix = Flix.build(collection, workloads.PPO)
    for s in sample(collection, 9, count=30):
        response = flix.query(s.request)
        assert check(s.expectation, *rows_of_response(response)).ok
        rows, value, completeness = rows_of_response(response)
        assert not check(s.expectation, rows, value, "truncated").ok
        if rows:
            assert not check(s.expectation, rows[:-1], value, completeness).ok
            node = rows[0][0]
            too_short = s.expectation.members[node] - 1
            assert not check(
                s.expectation, [(node, too_short)] + rows[1:], value, completeness
            ).ok


def test_mutation_script_is_seeded_and_keeps_the_mix():
    held_out = inputs.dblp_documents(400)[100:]
    def verbs(seed):
        script = inputs.mutation_script(held_out, random.Random(seed))
        return [next(script).verb for _ in range(40)]
    assert verbs(1) == verbs(1)
    assert verbs(1) != verbs(2)
    # per block of 20: 12 adds, 3 updates, 3 removes, 2 batch adds
    assert Counter(verbs(1)[20:]) == {
        "add": 12, "update": 3, "remove": 3, "add_batch": 2,
    }
