"""Every index is built by one pipeline: whichever MDB strategy chose the
specs, ``Flix.build`` applies the same backend factory, fault/resilience
wrapping, observability bundle and builder wiring — so ``rebuild()``,
maintenance and persistence behave alike for all six presets."""

from __future__ import annotations

import hashlib
import itertools
import json

import pytest

from repro.core.config import FlixConfig
from repro.core.framework import Flix
from repro.core.persistence import MANIFEST_NAME
from repro.indexes.packed import is_packed
from repro.storage.sqlite_backend import SqliteBackend

PRESETS = {
    "naive": FlixConfig.naive,
    "maximal_ppo": FlixConfig.maximal_ppo,
    "unconnected_hopi": lambda: FlixConfig.unconnected_hopi(60),
    "hybrid": lambda: FlixConfig.hybrid(60),
    "monolithic": lambda: FlixConfig.monolithic("hopi"),
    "auto_subcollections": FlixConfig.auto_subcollections,
    # not a preset: the one layout whose index keeps its tables after the
    # build (no packed form), so the factory's product stays inspectable
    "unpackable": lambda: FlixConfig.monolithic("transitive_closure"),
}

#: the two layouts that had build pipelines of their own
FORMERLY_FORKED = ("monolithic", "auto_subcollections")


@pytest.fixture()
def sqlite_factory(tmp_path):
    counter = itertools.count()
    return lambda: SqliteBackend(str(tmp_path / f"t{next(counter)}.sqlite"))


def _backend_chain(backend):
    """Class names from a backend down to the raw store, through each
    wrapper's inner."""
    chain = []
    while backend is not None:
        chain.append(type(backend).__name__)
        backend = getattr(backend, "_inner", None)
    return chain


def _all_chains(flix):
    """The chain of every backend that outlives the build: the framework
    tables, and the index tables of a strategy with no packed form (a
    packed index keeps none).  Each is a product of the one factory the
    per-meta builds drew from."""
    chains = [
        _backend_chain(m.index.backend)
        for m in flix.meta_documents
        if m.index.backend is not None
    ]
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
        # the framework tables, plus the index tables where they outlive
        # the build
        assert len(_all_chains(built)) == 1 + (preset == "unpackable")


@pytest.mark.parametrize("preset", FORMERLY_FORKED + ("unpackable",))
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


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_damaged_save_is_repairable(preset, figure1_collection, tmp_path):
    """``repair`` re-derives the specs from ``config.mdb_strategy``; the
    forked pipelines saved a nominal ``"naive"`` there, so their saves
    could never be repaired.  And one fingerprint however the index came
    to be: a second build, a ``jobs=2`` build, save → load and the
    repair of a zapped file (the blob, or the tables of the unpackable
    layout) all answer the fresh build's."""
    config = PRESETS[preset]()
    flix = Flix.build(figure1_collection, config)
    fingerprint = flix.index_fingerprint()
    assert Flix.build(figure1_collection, config).index_fingerprint() == (
        fingerprint
    )
    assert Flix.build(
        figure1_collection, config, jobs=2
    ).index_fingerprint() == fingerprint
    flix.save(tmp_path)
    assert Flix.load(figure1_collection, tmp_path).index_fingerprint() == (
        fingerprint
    )
    victim = sorted(tmp_path.glob("meta_*"))[-1]
    assert victim.suffix == (".sqlite" if preset == "unpackable" else ".pack")
    victim.write_bytes(b"garbage")
    assert Flix.repair(figure1_collection, tmp_path) == [victim.name]
    repaired = Flix.load(figure1_collection, tmp_path)
    assert repaired.index_fingerprint() == fingerprint


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_save_holds_one_file_per_meta_document(
    preset, figure1_collection, tmp_path
):
    """The blob is the index: a save is each meta document's ``.pack``
    (written as memory holds it) — its ``.sqlite`` tables only where the
    strategy has no packed form — plus the framework tables and the
    manifest; the sidecar appears only under ``order="cost"``."""
    flix = Flix.build(figure1_collection, PRESETS[preset]())
    packed = preset != "unpackable"
    assert all(is_packed(m.index) == packed for m in flix.meta_documents)
    flix.save(tmp_path)
    suffix = ".pack" if packed else ".sqlite"
    files = {"framework.sqlite"} | {
        f"meta_{meta.meta_id:04d}{suffix}" for meta in flix.meta_documents
    }
    assert {p.name for p in tmp_path.iterdir()} == files | {MANIFEST_NAME}
    integrity = json.loads((tmp_path / MANIFEST_NAME).read_text())["integrity"]
    assert set(integrity["files"]) == files
    # the two hashes are labelled per file kind
    assert integrity["algorithm"] == {
        "pack": "sha256-raw-bytes",
        "sqlite": "sha256-table-content",
    }
    for meta in flix.meta_documents if packed else ():
        name = f"meta_{meta.meta_id:04d}.pack"
        data = (tmp_path / name).read_bytes()
        assert data == meta.index.blob.data
        assert integrity["files"][name] == meta.index.fingerprint() == (
            hashlib.sha256(data).hexdigest()
        )
    costed = Flix.build(
        figure1_collection, PRESETS[preset]().with_planner(order="cost")
    )
    costed.save(tmp_path)
    assert {p.name for p in tmp_path.iterdir()} == files | {
        MANIFEST_NAME, "planner_stats.json",
    }


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
