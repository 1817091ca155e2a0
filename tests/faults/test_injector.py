"""Tests for fault injection at the storage and index layers."""

import pytest

from repro.faults import FaultPlan, FaultyBackend, FaultyFactory, FaultyIndex
from repro.storage.errors import (
    PermanentStorageError,
    TransientStorageError,
)
from repro.storage.memory import MemoryBackend
from repro.storage.table import Column, TableSchema

SCHEMA = TableSchema(name="t", columns=(Column("a", "int"), Column("b", "str")))


def make_table(plan: FaultPlan):
    backend = FaultyBackend(MemoryBackend(), plan)
    return backend, backend.create_table(SCHEMA)


class TestDeterminism:
    def fault_signature(self, plan, operations=200):
        backend, table = make_table(plan)
        table_ok = []
        for i in range(operations):
            try:
                table.insert((i, "x"))
                table_ok.append(("w", i, True))
            except TransientStorageError:
                table_ok.append(("w", i, False))
            try:
                list(table.scan())
                table_ok.append(("r", i, True))
            except TransientStorageError:
                table_ok.append(("r", i, False))
        return table_ok

    def test_same_seed_same_faults(self):
        plan = FaultPlan(seed=3, read_error_rate=0.3, write_error_rate=0.3)
        assert self.fault_signature(plan) == self.fault_signature(plan)

    def test_different_seed_different_faults(self):
        a = FaultPlan(seed=1, read_error_rate=0.3, write_error_rate=0.3)
        b = FaultPlan(seed=2, read_error_rate=0.3, write_error_rate=0.3)
        assert self.fault_signature(a) != self.fault_signature(b)

    def test_sites_are_independent(self):
        plan = FaultPlan(seed=0, read_error_rate=0.5)
        backend = FaultyBackend(MemoryBackend(), plan)
        t1 = backend.create_table(SCHEMA)
        other = TableSchema(name="u", columns=(Column("a", "int"),))
        t2 = backend.create_table(other)
        # drawing faults on one site must not consume the other's sequence
        for _ in range(20):
            try:
                list(t1.scan())
            except TransientStorageError:
                pass
        solo_backend = FaultyBackend(MemoryBackend(), plan)
        solo = solo_backend.create_table(other)

        def outcomes(table):
            out = []
            for _ in range(20):
                try:
                    list(table.scan())
                    out.append(True)
                except TransientStorageError:
                    out.append(False)
            return out

        assert outcomes(t2) == outcomes(solo)


class TestFaultShapes:
    def test_fail_first_then_succeed(self):
        _, table = make_table(FaultPlan(fail_first=3))
        for _ in range(3):
            with pytest.raises(TransientStorageError):
                table.insert((1, "x"))
        table.insert((1, "x"))  # fourth operation succeeds
        assert table.row_count() == 1

    def test_break_after_fails_permanently(self):
        _, table = make_table(FaultPlan(break_after=2))
        table.insert((1, "x"))
        table.insert((2, "y"))
        for _ in range(3):
            with pytest.raises(PermanentStorageError):
                list(table.scan())

    def test_hard_failure_plan(self):
        _, table = make_table(FaultPlan.hard_failure())
        with pytest.raises(TransientStorageError):
            table.insert((1, "x"))
        with pytest.raises(TransientStorageError):
            list(table.scan())

    def test_corruption_flips_rows(self):
        _, table = make_table(FaultPlan(seed=1, corrupt_rate=1.0))
        table.insert((5, "hello"))
        rows = list(table.scan())
        assert rows != [(5, "hello")]  # deterministically corrupted

    def test_latency_spikes_call_sleep(self):
        plan = FaultPlan(read_latency_rate=1.0, latency_seconds=0.25)
        backend = FaultyBackend(MemoryBackend(), plan)
        slept = []
        site = backend.site("t")
        site.before_read(sleep=slept.append)
        assert slept == [0.25]

    def test_injection_counter(self):
        backend, table = make_table(FaultPlan(fail_first=2))
        for _ in range(2):
            with pytest.raises(TransientStorageError):
                table.insert((1, "x"))
        table.insert((1, "x"))
        assert backend.injected_total() == 2

    def test_table_restriction_spares_other_tables(self):
        plan = FaultPlan.hard_failure().restricted_to("other")
        _, table = make_table(plan)
        table.insert((1, "x"))  # "t" is not in the plan's table list
        assert table.row_count() == 1

    def test_batch_insert_fails_before_any_write(self):
        _, table = make_table(FaultPlan(fail_first=1))
        with pytest.raises(TransientStorageError):
            table.insert_many([(1, "a"), (2, "b")])
        assert table.row_count() == 0  # nothing half-applied
        table.insert_many([(1, "a"), (2, "b")])
        assert table.row_count() == 2


class TestFaultyFactory:
    def test_products_are_faulty_and_independent(self):
        factory = FaultyFactory(MemoryBackend, FaultPlan(fail_first=1))
        b1, b2 = factory(), factory()
        t1 = b1.create_table(SCHEMA)
        t2 = b2.create_table(SCHEMA)
        with pytest.raises(TransientStorageError):
            t1.insert((1, "x"))
        with pytest.raises(TransientStorageError):  # own counter, fails too
            t2.insert((1, "x"))
        t1.insert((1, "x"))
        t2.insert((1, "x"))

    def test_factory_is_picklable(self):
        import pickle

        factory = FaultyFactory(MemoryBackend, FaultPlan(seed=5, fail_first=1))
        clone = pickle.loads(pickle.dumps(factory))
        assert clone.plan == factory.plan


class TestFaultyIndex:
    def test_probes_fail_per_plan(self):
        from repro.graph.digraph import Digraph
        from repro.indexes.transitive import TransitiveClosureIndex

        graph = Digraph([(0, 1), (1, 2)])
        index = TransitiveClosureIndex.build(
            graph, {0: "a", 1: "b", 2: "c"}, MemoryBackend()
        )
        faulty = FaultyIndex(index, FaultPlan(fail_first=1))
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
        "strategy_name", "prepare_link_candidates", "contains", "backend",
        "size_bytes", "fingerprint", "node_count",
    }

    @pytest.mark.parametrize("method", sorted(PROBES))
    def test_every_probe_is_gated_then_answers_like_the_index(self, method):
        from repro.graph.digraph import Digraph
        from repro.indexes.hopi import HopiIndex
        from repro.indexes.packed import packed_clone

        graph = Digraph([(0, 1), (1, 2)])
        index = packed_clone(
            HopiIndex.build(graph, {0: "a", 1: "b", 2: "c"}, MemoryBackend())
        )
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
        one hides the index from the chaos job."""
        from repro.indexes.base import PathIndex

        public = {
            name for name in vars(PathIndex)
            if not name.startswith("_") and name != "build"
        }
        assert public == set(self.PROBES) | self.BOOKKEEPING
        assert public <= set(vars(FaultyIndex))
