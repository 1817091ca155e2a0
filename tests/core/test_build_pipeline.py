"""Every index is built by one pipeline: whichever MDB strategy chose the
specs, ``Flix.build`` applies the same object build, pack step,
observability bundle and builder wiring — so a rebuild, maintenance and
persistence behave alike for all six presets."""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core.api import QueryRequest
from repro.core.config import FlixConfig
from repro.core.framework import Flix
from repro.core.persistence import MANIFEST_NAME
from repro.indexes.packed import PackedIndex

PRESETS = {
    "naive": FlixConfig.naive,
    "maximal_ppo": FlixConfig.maximal_ppo,
    "unconnected_hopi": lambda: FlixConfig.unconnected_hopi(60),
    "hybrid": lambda: FlixConfig.hybrid(60),
    "monolithic": lambda: FlixConfig.monolithic("hopi"),
    "auto_subcollections": FlixConfig.auto_subcollections,
    # not a preset: the closure layout (its key predates the closure's
    # packed form and is kept so the test ids stay stable)
    "unpackable": lambda: FlixConfig.monolithic("transitive_closure"),
}

#: the two layouts that had build pipelines of their own
FORMERLY_FORKED = ("monolithic", "auto_subcollections")


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_rebuild_is_identical_and_stays_on_its_backend(
    preset, figure1_collection, tmp_path
):
    """Built, rebuilt, loaded and loaded-then-rebuilt instances are the
    same index, and what any of them keeps of an index is its blob."""
    flix = Flix.build(figure1_collection, PRESETS[preset]())
    flix.save(tmp_path)
    loaded = Flix.load(figure1_collection, tmp_path)

    def rebuild(instance):
        return Flix.build(instance.collection, instance.config)

    for other in (rebuild(flix), loaded, rebuild(loaded)):
        assert [m.strategy for m in other.meta_documents] == [
            m.strategy for m in flix.meta_documents
        ]
        assert other.index_fingerprint() == flix.index_fingerprint()
        assert other.config == flix.config
    for built in (flix, rebuild(flix), loaded, rebuild(loaded)):
        assert all(isinstance(m.index, PackedIndex) for m in built.meta_documents)


@pytest.mark.parametrize("preset", FORMERLY_FORKED + ("unpackable",))
def test_environment_does_not_edit_the_build(
    preset, figure1_collection, monkeypatch
):
    """A fault plan in the environment is the WAL crash tests' business
    (``repro.faults.plan_from_env``); ``Flix.build`` reads none."""
    config = PRESETS[preset]()
    unset = Flix.build(figure1_collection, config)
    monkeypatch.setenv("FLIX_FAULT_PLAN", "crash_after_writes=0")
    monkeypatch.setenv("FAULT_PLAN", "crash_after_writes=0,torn_write_bytes=1")
    built = Flix.build(figure1_collection, config)
    assert built.config == config
    assert built.index_fingerprint() == unset.index_fingerprint()


@pytest.mark.parametrize("jobs", [1, 2], ids=["1", "2"])
def test_strategy_build_that_raises_propagates(
    jobs, figure1_collection, break_build, monkeypatch
):
    """A build that raises is a bug: no retry, no substitute strategy, no
    meta document left unindexed — the exception leaves ``Flix.build``,
    and a process pool that ran it is retired."""
    from repro.core import ib
    from repro.indexes.ppo import PpoIndex

    # two granted CPUs, so jobs=2 runs on the pool even on a 1-CPU runner
    monkeypatch.setattr(ib, "_available_cpus", lambda: 2)
    break_build(PpoIndex)
    with pytest.raises(RuntimeError, match="injected ppo build failure"):
        Flix.build(figure1_collection, FlixConfig.naive(), jobs=jobs)
    assert ib._POOL_CACHE is None


@pytest.mark.parametrize("preset", FORMERLY_FORKED)
def test_builder_shares_the_observability_bundle(preset, figure1_collection):
    flix = Flix.build(figure1_collection, PRESETS[preset]())
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
    rebuilt = Flix.build(loaded.collection, loaded.config)
    assert rebuilt.index_fingerprint() == flix.index_fingerprint()


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_damaged_save_is_repairable(preset, figure1_collection, tmp_path):
    """``repair`` re-derives the specs from ``config.mdb_strategy``; the
    forked pipelines saved a nominal ``"naive"`` there, so their saves
    could never be repaired.  And one fingerprint however the index came
    to be: a second build, a ``jobs=2`` build, save → load and the
    repair of a zapped blob all answer the fresh build's."""
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
    assert victim.suffix == ".pack"
    victim.write_bytes(b"garbage")
    assert Flix.repair(figure1_collection, tmp_path) == [victim.name]
    repaired = Flix.load(figure1_collection, tmp_path)
    assert repaired.index_fingerprint() == fingerprint


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_save_holds_one_file_per_meta_document(
    preset, figure1_collection, tmp_path
):
    """The blob is the index: a save is each meta document's ``.pack``
    (written as memory holds it), the residual links' ``links.pack`` and
    the manifest, and nothing else."""
    flix = Flix.build(figure1_collection, PRESETS[preset]())
    assert all(isinstance(m.index, PackedIndex) for m in flix.meta_documents)
    flix.save(tmp_path)
    files = {"links.pack"} | {
        f"meta_{meta.meta_id:04d}.pack" for meta in flix.meta_documents
    }
    assert {p.name for p in tmp_path.iterdir()} == files | {MANIFEST_NAME}
    integrity = json.loads((tmp_path / MANIFEST_NAME).read_text())["integrity"]
    assert set(integrity["files"]) == files
    assert integrity["algorithm"] == {"pack": "sha256-raw-bytes"}
    for meta in flix.meta_documents:
        name = f"meta_{meta.meta_id:04d}.pack"
        data = (tmp_path / name).read_bytes()
        assert data == meta.index.blob.data
        assert integrity["files"][name] == meta.index.fingerprint() == (
            hashlib.sha256(data).hexdigest()
        )
    # a planner-statistics sidecar an older save left is cleaned away
    (tmp_path / "planner_stats.json").write_text("{}")
    flix.save(tmp_path)
    assert {p.name for p in tmp_path.iterdir()} == files | {MANIFEST_NAME}


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


def test_manifest_resilience_block_is_ignored(
    figure1_collection, tmp_path
):
    """Saves written while ``FlixConfig`` carried a ``resilience`` block
    (query budgets, BFS fallback, build ladder) or the build parallelism
    (``jobs``, ``build_executor``) load with those keys ignored: the
    loaded instance limits no query, and a re-save writes none of
    them."""
    config = FlixConfig.naive()
    built = Flix.build(figure1_collection, config)
    built.save(tmp_path)
    manifest_path = tmp_path / MANIFEST_NAME
    manifest = json.loads(manifest_path.read_text())
    manifest["config"]["resilience"] = {
        "query_deadline_seconds": 1e-9,
        "max_link_hops": 1,
        "max_queue_pops": 1,
        "allow_query_fallback": True,
        "build_retry_attempts": 2,
    }
    manifest["config"]["jobs"] = 4
    manifest["config"]["build_executor"] = "thread"
    manifest_path.write_text(json.dumps(manifest))
    loaded = Flix.load(figure1_collection, tmp_path)
    assert loaded.config == config
    assert loaded.index_fingerprint() == built.index_fingerprint()
    start = figure1_collection.document_root(
        sorted(figure1_collection.documents)[0]
    )
    request = QueryRequest.descendants(start)
    response = loaded.query(request)
    assert response.completeness == "complete"
    assert response.results == built.query(request).results
    loaded.save(tmp_path)
    resaved = json.loads(manifest_path.read_text())
    assert not {"resilience", "jobs", "build_executor"} & set(resaved["config"])
