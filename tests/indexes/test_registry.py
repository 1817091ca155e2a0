"""Unit tests for the strategy registry."""

import pytest

from repro.graph.digraph import Digraph
from repro.indexes.packed import PackedIndex
from repro.indexes.registry import (
    available_strategies,
    build_index,
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
        assert isinstance(index, PackedIndex)
        assert index.strategy_name == "hopi"
        assert index.reachable(0, 1)
