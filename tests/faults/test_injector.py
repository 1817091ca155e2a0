"""Tests for probe-level fault injection (``FaultSite`` / ``FaultyIndex``)."""

import pytest

from repro.faults import FaultPlan, FaultSite, FaultyIndex
from repro.graph.digraph import Digraph
from repro.indexes.registry import build_index
from repro.storage.errors import (
    PermanentStorageError,
    TransientStorageError,
)


def make_index(plan: FaultPlan, site_name: str = "index") -> FaultyIndex:
    """The 0 -> 1 -> 2 chain behind a fault proxy."""
    index = build_index(
        "transitive_closure", Digraph([(0, 1), (1, 2)]), {0: "a", 1: "b", 2: "c"}
    )
    return FaultyIndex(index, plan, site_name)


def outcomes(faulty: FaultyIndex, probes: int = 200):
    out = []
    for _ in range(probes):
        try:
            out.append(faulty.reachable(0, 2))
        except TransientStorageError:
            out.append(None)
    return out


class TestDeterminism:
    def test_same_seed_same_faults(self):
        plan = FaultPlan(seed=3, read_error_rate=0.3)
        signature = outcomes(make_index(plan))
        assert signature == outcomes(make_index(plan))
        assert None in signature and True in signature

    def test_different_seed_different_faults(self):
        a = FaultPlan(seed=1, read_error_rate=0.3)
        b = FaultPlan(seed=2, read_error_rate=0.3)
        assert outcomes(make_index(a)) != outcomes(make_index(b))

    def test_sites_are_independent(self):
        plan = FaultPlan(seed=0, read_error_rate=0.5)
        first, second = make_index(plan, "t"), make_index(plan, "u")
        # drawing faults on one site must not consume the other's
        # sequence, and each site's sequence is its own
        drawn = outcomes(first, 20)
        assert outcomes(second, 20) == outcomes(make_index(plan, "u"), 20)
        assert drawn != outcomes(make_index(plan, "u"), 20)


class TestFaultShapes:
    def test_fail_first_then_succeed(self):
        faulty = make_index(FaultPlan(fail_first=3))
        for _ in range(3):
            with pytest.raises(TransientStorageError):
                faulty.distance(0, 2)
        assert faulty.distance(0, 2) == 2  # fourth operation succeeds

    def test_break_after_fails_permanently(self):
        faulty = make_index(FaultPlan(break_after=2))
        assert faulty.reachable(0, 1)
        assert faulty.reachable(1, 2)
        for _ in range(3):
            with pytest.raises(PermanentStorageError):
                faulty.reachable(0, 2)

    def test_hard_failure_plan(self):
        faulty = make_index(FaultPlan.hard_failure())
        for _ in range(3):
            with pytest.raises(TransientStorageError):
                faulty.find_descendants_by_tag(0, None)

    def test_latency_spikes_call_sleep(self):
        plan = FaultPlan(read_latency_rate=1.0, latency_seconds=0.25)
        slept = []
        FaultSite(plan, "t").before_read(sleep=slept.append)
        assert slept == [0.25]

    def test_injection_counter(self):
        faulty = make_index(FaultPlan(fail_first=2))
        for _ in range(2):
            with pytest.raises(TransientStorageError):
                faulty.reachable(0, 2)
        faulty.reachable(0, 2)
        assert faulty.site.injected == 2
        assert faulty.site.reads == 3

    def test_table_restriction_spares_other_tables(self):
        plan = FaultPlan.hard_failure().restricted_to("other")
        assert make_index(plan).reachable(0, 2)  # "index" is not listed
        with pytest.raises(TransientStorageError):
            make_index(plan, "other").reachable(0, 2)


class TestFaultyIndex:
    def test_probes_fail_per_plan(self):
        faulty = make_index(FaultPlan(fail_first=1))
        with pytest.raises(TransientStorageError):
            faulty.reachable(0, 2)
        assert faulty.reachable(0, 2) is True
        assert faulty.strategy_name == "transitive_closure"
        assert faulty.contains(1)

    #: every method that reads the index, with arguments for the 0 -> 1 -> 2
    #: chain; anything else ``PathIndex`` offers is bookkeeping
    PROBES = {
        "reachable": (0, 2),
        "distance": (0, 2),
        "find_descendants_by_tag": (0, None),
        "find_ancestors_by_tag": (2, None),
        "reachable_subset": (0, frozenset({1, 2, 7})),
        "reaching_subset": (2, frozenset({0, 1, 7})),
        "coverage": ([0], True),
    }
    BOOKKEEPING = {
        "strategy_name", "prepare_link_candidates", "contains", "node_count",
    }

    @pytest.mark.parametrize("method", sorted(PROBES))
    def test_every_probe_is_gated_then_answers_like_the_index(self, method):
        graph = Digraph([(0, 1), (1, 2)])
        index = build_index("hopi", graph, {0: "a", 1: "b", 2: "c"})
        faulty = FaultyIndex(index, FaultPlan(fail_first=1))
        args = self.PROBES[method]
        with pytest.raises(TransientStorageError):
            getattr(faulty, method)(*args)
        answer = getattr(faulty, method)(*args)
        expected = getattr(index, method)(*args)
        if method == "coverage":
            answer, expected = (
                [covers(node) for node in (0, 1, 2, 7)]
                for covers in (answer, expected)
            )
            assert any(answer)
        assert answer == expected

    def test_no_path_index_method_bypasses_the_proxy(self):
        """A query method added to ``PathIndex`` must be classified here
        (probe or bookkeeping) and delegated by ``FaultyIndex`` — the PEE
        talks to the proxy, so a missing method is a crash and an ungated
        one hides the index from every fault-injection test."""
        from repro.indexes.base import PathIndex

        public = {name for name in vars(PathIndex) if not name.startswith("_")}
        assert public == set(self.PROBES) | self.BOOKKEEPING
        assert public <= set(vars(FaultyIndex))
