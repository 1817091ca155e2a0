"""Every index is built by one pipeline: whichever MDB strategy chose the
specs, ``Flix.build`` applies the same backend factory, fault/resilience
wrapping, observability bundle and builder wiring — so ``rebuild()``,
maintenance and persistence behave alike for all six presets."""

from __future__ import annotations

import itertools
import json

import pytest

from repro.core.config import FlixConfig
from repro.core.framework import Flix
from repro.core.persistence import MANIFEST_NAME
from repro.storage.sqlite_backend import SqliteBackend

PRESETS = {
    "naive": FlixConfig.naive,
    "maximal_ppo": FlixConfig.maximal_ppo,
    "unconnected_hopi": lambda: FlixConfig.unconnected_hopi(60),
    "hybrid": lambda: FlixConfig.hybrid(60),
    "monolithic": lambda: FlixConfig.monolithic("hopi"),
    "auto_subcollections": FlixConfig.auto_subcollections,
}

#: the two layouts that had build pipelines of their own
FORMERLY_FORKED = ("monolithic", "auto_subcollections")


@pytest.fixture()
def sqlite_factory(tmp_path):
    counter = itertools.count()
    return lambda: SqliteBackend(str(tmp_path / f"t{next(counter)}.sqlite"))


def _backend_chain(backend):
    """Class names from a served backend down to the raw store: the
    packed backend's build-time source, then each wrapper's inner."""
    chain = []
    backend = getattr(backend, "_source", backend)
    while backend is not None:
        chain.append(type(backend).__name__)
        backend = getattr(backend, "_inner", None)
    return chain


def _all_chains(flix):
    chains = [_backend_chain(m.index.backend) for m in flix.meta_documents]
    chains.append(_backend_chain(flix._builder.framework_backend))
    return chains


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_rebuild_is_identical_and_stays_on_its_backend(
    preset, figure1_collection, sqlite_factory, monkeypatch
):
    # wrapping is checked below; pin the chaos job's injection off here
    monkeypatch.setenv("FLIX_FAULT_PLAN", "off")
    flix = Flix.build(figure1_collection, PRESETS[preset](), sqlite_factory)
    rebuilt = flix.rebuild()
    assert [m.strategy for m in rebuilt.meta_documents] == [
        m.strategy for m in flix.meta_documents
    ]
    assert rebuilt.index_fingerprint() == flix.index_fingerprint()
    assert rebuilt.config == flix.config
    for built in (flix, rebuilt):
        assert all(c == ["SqliteBackend"] for c in _all_chains(built))


@pytest.mark.parametrize("preset", FORMERLY_FORKED)
def test_resilience_and_fault_plan_wrap_every_table(
    preset, figure1_collection, monkeypatch
):
    monkeypatch.setenv("FLIX_FAULT_PLAN", "off")
    resilient = Flix.build(
        figure1_collection, PRESETS[preset]().with_resilience()
    )
    assert all(
        c == ["ResilientBackend", "MemoryBackend"]
        for c in _all_chains(resilient)
    )
    # the chaos job's plan injects under the resilient wrapper, and
    # force-enables resilience so the faults are absorbed
    monkeypatch.setenv("FLIX_FAULT_PLAN", "moderate")
    chaotic = Flix.build(figure1_collection, PRESETS[preset]())
    assert chaotic.config.resilience is not None
    assert all(
        c == ["ResilientBackend", "FaultyBackend", "MemoryBackend"]
        for c in _all_chains(chaotic)
    )


@pytest.mark.parametrize("preset", FORMERLY_FORKED)
def test_builder_shares_the_observability_bundle(preset, figure1_collection):
    flix = Flix.build(figure1_collection, PRESETS[preset]())
    assert flix.obs is flix._builder._obs
    builds = [t for t in flix.obs.tracer.traces() if t.name == "ib.build"]
    assert len(builds) == 1
    assert flix.metrics().get("flix_build_phase_seconds") is not None


@pytest.mark.parametrize(
    "config",
    [
        FlixConfig.monolithic("hopi"),
        FlixConfig.auto_subcollections(similarity_threshold=0.6),
    ],
    ids=FORMERLY_FORKED,
)
def test_save_load_round_trips_the_config(config, figure1_collection, tmp_path):
    flix = Flix.build(figure1_collection, config)
    flix.save(tmp_path)
    loaded = Flix.load(figure1_collection, tmp_path)
    assert loaded.config == flix.config
    assert loaded.config.mdb_strategy == config.mdb_strategy
    assert loaded.config.similarity_threshold == config.similarity_threshold
    assert loaded.index_fingerprint() == flix.index_fingerprint()
    assert loaded.rebuild().index_fingerprint() == flix.index_fingerprint()


@pytest.mark.parametrize("preset", FORMERLY_FORKED)
def test_damaged_save_is_repairable(preset, figure1_collection, tmp_path):
    """``repair`` re-derives the specs from ``config.mdb_strategy``; the
    forked pipelines saved a nominal ``"naive"`` there, so their saves
    could never be repaired."""
    flix = Flix.build(figure1_collection, PRESETS[preset]())
    flix.save(tmp_path)
    victim = sorted(tmp_path.glob("meta_*.pack"))[-1]
    victim.write_bytes(b"garbage")
    assert Flix.repair(figure1_collection, tmp_path) == [victim.name]
    repaired = Flix.load(figure1_collection, tmp_path)
    assert repaired.index_fingerprint() == flix.index_fingerprint()


def test_manifest_without_similarity_threshold_loads(
    figure1_collection, tmp_path
):
    """Saves written before the field existed carry no such key."""
    Flix.build(figure1_collection, FlixConfig.naive()).save(tmp_path)
    manifest_path = tmp_path / MANIFEST_NAME
    manifest = json.loads(manifest_path.read_text())
    del manifest["config"]["similarity_threshold"]
    manifest_path.write_text(json.dumps(manifest))
    loaded = Flix.load(figure1_collection, tmp_path)
    assert loaded.config.similarity_threshold == 0.75
