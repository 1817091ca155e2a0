"""Unit tests for the strategy registry."""

import pytest

from repro.graph.digraph import Digraph
from repro.indexes.base import PathIndex
from repro.indexes.registry import (
    available_strategies,
    build_index,
    register_strategy,
    strategy_class,
)


class TestRegistry:
    def test_builtin_strategies_present(self):
        names = available_strategies()
        for expected in ("ppo", "hopi", "apex", "kindex", "dataguide",
                         "transitive_closure"):
            assert expected in names

    def test_strategy_class_lookup(self):
        assert strategy_class("hopi").strategy_name == "hopi"

    def test_unknown_strategy(self):
        with pytest.raises(KeyError):
            strategy_class("nope")
        with pytest.raises(KeyError):
            build_index("nope", Digraph(), {})

    def test_build_index_dispatches(self):
        g = Digraph([(0, 1)])
        index = build_index("hopi", g, {0: "a", 1: "b"})
        assert index.strategy_name == "hopi"
        assert index.reachable(0, 1)

    def test_register_custom_strategy(self):
        class Custom(PathIndex):
            strategy_name = "custom_test_strategy"

            @classmethod
            def build(cls, graph, tags):
                return cls()

            def reachable(self, s, t):
                return False

            def distance(self, s, t):
                return None

            def find_descendants_by_tag(self, s, tag):
                return []

            def find_ancestors_by_tag(self, s, tag):
                return []

            def _node_set(self):
                return frozenset()

        register_strategy(Custom)
        assert "custom_test_strategy" in available_strategies()
        assert strategy_class("custom_test_strategy") is Custom

    def test_abstract_name_rejected(self):
        class Bad(PathIndex):
            strategy_name = "abstract"

            @classmethod
            def build(cls, graph, tags):  # pragma: no cover
                return cls()

            def reachable(self, s, t):  # pragma: no cover
                return False

            def distance(self, s, t):  # pragma: no cover
                return None

            def find_descendants_by_tag(self, s, tag):  # pragma: no cover
                return []

            def find_ancestors_by_tag(self, s, tag):  # pragma: no cover
                return []

            def _node_set(self):  # pragma: no cover
                return frozenset()

        with pytest.raises(ValueError):
            register_strategy(Bad)
