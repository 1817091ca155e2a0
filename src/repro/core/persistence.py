"""Saving and loading a built FliX index (restart without rebuild).

Layout on disk — one file per meta document, plus two::

    <directory>/
      manifest.json        configuration + meta-document registry
      framework.sqlite     the residual-link table
      meta_0000.pack       FLXPACK blob of meta document 0
      meta_0001.pack       ...
      meta_0002.sqlite     index tables of an unpackable meta document

The blob is the index (``docs/DATA_LAYOUT.md``): a save writes each
served index exactly once — its ``meta_NNNN.pack`` blob, byte for byte
what memory holds — and loading ``mmap``-attaches the blobs: a cold
attach parses one 64-byte header and checksums the payload, and opens no
SQLite file but ``framework.sqlite``.  Only a strategy with no packed
form (``transitive_closure``, the build fallback) is saved as its storage
tables in ``meta_NNNN.sqlite`` and reconstructed through its ``load``
classmethod.  The XML collection itself is *not* part of the index (use
:func:`repro.collection.io.save_collection` for the documents); load
verifies the collection matches via a fingerprint.

Older saves upgrade on load.  One that wrote a ``meta_NNNN.sqlite`` twin
beside every blob loads from the blobs alone — the twins are neither
opened nor verified nor required, and the next save deletes them.  One
from before packing was universal (no ``.pack`` file, ``"packed":
false`` in the manifest entry) has its tables deserialized and packed in
memory, and the next save writes the blob.

Supported strategies: every ISS-selectable one (ppo, hopi, apex, kindex,
fbindex, transitive_closure).  DataGuide and Fabric are not
ISS-selectable and have no loader here; they are rejected explicitly.

Crash safety
------------

Saving over an existing save never mutates the files the current
manifest references.  :func:`save_flix` stages every new file under a
``.tmp`` sibling name (durable via fsync), atomically replaces the
manifest — the commit point — and only then renames the staged files
over the final names and deletes stale ones.  A crash before the
manifest replace leaves the old save intact; a crash after it is rolled
forward at the next load/verify/repair, which completes any pending
renames whose staged content matches the new manifest's fingerprints
(see ``docs/DURABILITY.md``).

Integrity and repair
--------------------

The manifest records one fingerprint per file it references, of one of
two kinds (``integrity.algorithm`` names them per file suffix): a
``.pack`` blob hashes its raw bytes — SHA-256 over the whole file, which
is also that index's share of ``Flix.index_fingerprint()`` — and a
``.sqlite`` file hashes its *table content* — SHA-256 over schemas and
rows, because SQLite's bytes vary with page layout.  :func:`load_flix`
re-computes them by default and refuses to load a damaged save with an
:class:`IntegrityError` that names the broken files.  :func:`repair_flix`
(CLI: ``repro repair``) then re-derives the meta-document specs from the
collection — the MDB is deterministic — and rebuilds *only* the damaged
files, leaving intact ones untouched, so a repaired save is
fingerprint-identical to the original.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.collection.collection import XmlCollection
from repro.core.config import CacheConfig, FlixConfig, ResilienceConfig
from repro.core.framework import Flix, _packed
from repro.core.ib import (
    _LINKS_SCHEMA,
    BuildReport,
    IndexBuilder,
    MetaDocumentReport,
)
from repro.core.meta_document import MetaDocument, MetaDocumentSpec
from repro.indexes.apex import ApexIndex
from repro.indexes.hopi import HopiIndex
from repro.indexes.kindex import ForwardBackwardIndex, KBisimulationIndex
from repro.indexes.packed import (
    PackedBlob,
    attach_packed_file,
    is_packed,
    pack_index,
)
from repro.indexes.ppo import PpoIndex
from repro.indexes.registry import IndexBuildRequest, execute_build_request
from repro.indexes.transitive import TransitiveClosureIndex
from repro.storage.atomic import (
    atomic_write_bytes,
    atomic_write_text,
    fsync_directory,
)
from repro.storage.memory import MemoryBackend
from repro.storage.sqlite_backend import SqliteBackend
from repro.storage.table import StorageBackend

MANIFEST_NAME = "manifest.json"
FORMAT_VERSION = 1

#: sibling suffix under which a save stages its files before the
#: manifest commit point (see :func:`save_flix`'s write protocol)
TMP_SUFFIX = ".tmp"

#: what ``integrity.files`` holds per file suffix (module docstring).
#: Nothing dispatches on the label — :func:`_file_fingerprint` goes by
#: suffix — so saves labelled with the single string
#: ``"sha256-table-content"`` for both kinds read unchanged.
INTEGRITY_ALGORITHMS = {
    "pack": "sha256-raw-bytes",
    "sqlite": "sha256-table-content",
}


class PersistenceError(RuntimeError):
    """Raised on unsupported strategies or manifest/collection mismatches."""


class IntegrityError(PersistenceError):
    """A saved index failed checksum verification.

    ``damaged`` lists the offending file names (missing, unreadable, or
    fingerprint-mismatched); :func:`repair_flix` rebuilds exactly those.
    """

    def __init__(self, directory: Path, damaged: List[str]) -> None:
        self.damaged = list(damaged)
        super().__init__(
            f"saved index under {directory} failed integrity verification: "
            + ", ".join(self.damaged)
            + " — run `repro repair` (or repair_flix) to rebuild the "
            "damaged files"
        )


def _copy_tables(source: StorageBackend, target: StorageBackend) -> None:
    for name in source.table_names():
        table = source.table(name)
        clone = target.create_table(table.schema)
        clone.insert_many(table.scan())


def _fingerprint(collection: XmlCollection) -> Dict[str, int]:
    return {
        "documents": collection.document_count,
        "elements": collection.node_count,
        "links": collection.link_edge_count,
    }


def save_flix(flix: Flix, directory) -> Path:
    """Persist ``flix`` under ``directory``; returns the manifest path."""
    loaders = _loaders()
    for meta in flix.meta_documents:
        if meta.index is None:
            raise PersistenceError(
                f"meta document {meta.meta_id} has no index (every build "
                "attempt failed and it is answered by the query-time BFS "
                "fallback); rebuild it before saving"
            )
        if meta.strategy not in loaders:
            raise PersistenceError(
                f"meta document {meta.meta_id} uses strategy "
                f"{meta.strategy!r}, which has no loader; rebuild it instead"
            )
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)

    # Phase 1 — stage: build every file the new manifest will reference
    # under a ``.tmp`` sibling name.  The files the *current* manifest
    # references are never touched here, so a crash anywhere in this
    # phase leaves the previous save fully loadable (the strays are
    # cleaned by the next save or load).
    integrity: Dict[str, str] = {}  # final name -> fingerprint
    for meta in flix.meta_documents:
        if is_packed(meta.index):
            # the blob is the index: written once, as memory holds it
            filename = f"meta_{meta.meta_id:04d}.pack"
            _write_staged_bytes(
                root / (filename + TMP_SUFFIX), meta.index.blob.data
            )
            integrity[filename] = meta.index.fingerprint()
        else:
            filename = f"meta_{meta.meta_id:04d}.sqlite"
            integrity[filename] = _stage_tables(
                root / (filename + TMP_SUFFIX), meta.index.backend
            )
    if flix._builder is not None:
        framework = flix._builder.framework_backend
    else:
        # a Flix assembled directly from meta documents (no build
        # pipeline) carries no framework tables; write an empty one
        framework = MemoryBackend()
        framework.create_table(_LINKS_SCHEMA)
    integrity["framework.sqlite"] = _stage_tables(
        root / ("framework.sqlite" + TMP_SUFFIX), framework
    )
    fsync_directory(root)

    resilience = flix.config.resilience
    manifest = {
        "format_version": FORMAT_VERSION,
        "collection": _fingerprint(flix.collection),
        "config": {
            "name": flix.config.name,
            "mdb_strategy": flix.config.mdb_strategy,
            "allowed_strategies": list(flix.config.allowed_strategies),
            "partition_size": flix.config.partition_size,
            "single_tree": flix.config.single_tree,
            "similarity_threshold": flix.config.similarity_threshold,
            "hopi_pairs_per_node_budget": flix.config.hopi_pairs_per_node_budget,
            "expect_long_paths": flix.config.expect_long_paths,
            "jobs": flix.config.jobs,
            "build_executor": flix.config.build_executor,
            "observability": flix.config.observability,
            "resilience": resilience.to_dict() if resilience else None,
            "cache": (
                flix.config.cache.to_dict() if flix.config.cache else None
            ),
        },
        "integrity": {
            "algorithm": INTEGRITY_ALGORITHMS,
            "files": integrity,
        },
        "meta_documents": [
            {
                "meta_id": meta.meta_id,
                "strategy": meta.strategy,
                "packed": is_packed(meta.index),
                "incremental": meta.meta_id
                in flix.layout.incremental_meta_ids,
            }
            for meta in flix.meta_documents
        ],
        # the maintenance state (docs/MAINTENANCE.md): sparse/tombstoned
        # ids and the generation counter round-trip, so a reloaded index
        # fingerprints identically and keeps compacting/growing correctly
        "layout": {
            "generation": flix.layout.generation,
            "tombstones": sorted(flix.layout.tombstones),
            "next_meta_id": flix.layout.next_meta_id,
        },
    }
    # Phase 2 — commit: the manifest replace (temp file + os.replace +
    # directory fsync) is the save's commit point.  Before it, the old
    # manifest and every file it references are untouched; after it, the
    # new manifest's content is fully staged on disk (as ``.tmp``
    # siblings, durable since phase 1).  A crash on either side of this
    # line therefore leaves a loadable save (docs/DURABILITY.md).
    manifest_path = root / MANIFEST_NAME
    atomic_write_text(manifest_path, json.dumps(manifest, indent=2))
    # Phase 3 — publish: roll the staged files over the final names.  A
    # crash mid-way is rolled forward at the next load: every reader
    # settles committed ``.tmp`` siblings first (_settle_interrupted_save
    # matches them against the manifest fingerprints).
    for filename in integrity:
        os.replace(root / (filename + TMP_SUFFIX), root / filename)
    fsync_directory(root)
    # Phase 4 — clean: drop files the new manifest does not reference —
    # meta documents removed/compacted since the previous save, the
    # ``.sqlite`` twins and ``planner_stats.json`` sidecar older saves
    # wrote, and any orphaned stage files a crashed save left behind.
    for pattern in (
        "meta_*.sqlite", "meta_*.pack", "planner_stats.json",
        "*" + TMP_SUFFIX,
    ):
        for stale in root.glob(pattern):
            if stale.name not in integrity:
                stale.unlink()
    return manifest_path


def _stage_tables(tmp: Path, source: StorageBackend) -> str:
    """Copy ``source``'s tables into a fresh stage SQLite file, forced to
    disk before the manifest commit makes the save depend on it; returns
    its content fingerprint."""
    tmp.unlink(missing_ok=True)
    target = SqliteBackend(str(tmp))
    _copy_tables(source, target)
    fingerprint = target.fingerprint()
    target.close()
    fd = os.open(str(tmp), os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
    return fingerprint


def _write_staged_bytes(path: Path, data) -> None:
    """Write a stage (``.tmp``) file in place, durable but *not* renamed
    — the rename happens after the manifest commit (phase 3)."""
    with open(path, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())


def _settle_interrupted_save(root: Path, manifest: dict) -> None:
    """Roll forward a save that crashed between its manifest commit and
    the per-file renames.

    For every file the manifest fingerprints, a ``.tmp`` sibling whose
    content matches the recorded fingerprint is the committed version
    that never got renamed — complete the rename.  A ``.tmp`` whose
    final name already matches is a leftover from an older, completed
    save — drop it.  Anything else is left alone for integrity
    verification to report.  Idempotent, and best-effort on read-only
    directories (the mismatch then surfaces as damage instead).
    """
    recorded = manifest.get("integrity", {}).get("files", {})
    settled = False
    for filename, fingerprint in recorded.items():
        tmp = root / (filename + TMP_SUFFIX)
        if not tmp.is_file():
            continue
        try:
            if _file_fingerprint(root / filename) == fingerprint:
                tmp.unlink()
            elif _file_fingerprint(tmp) == fingerprint:
                os.replace(tmp, root / filename)
                settled = True
        except OSError:
            continue
    if settled:
        fsync_directory(root)


# ----------------------------------------------------------------------
# integrity verification and repair
# ----------------------------------------------------------------------
def _file_fingerprint(path: Path) -> Optional[str]:
    """Fingerprint of one saved file, of the kind its suffix calls for
    (module docstring); ``None`` when the file is missing or too broken
    to read (both count as damaged).  A ``.pack`` must also pass its own
    header checksum, so one that matches the manifest always attaches.
    """
    if not path.is_file():
        return None
    # a staged ``meta_NNNN.pack.tmp`` is still a blob: classify by the
    # final name, or a crashed save's packs could never roll forward
    if path.name.removesuffix(TMP_SUFFIX).endswith(".pack"):
        try:
            blob = PackedBlob.attach(path)
        except Exception:
            return None
        try:
            return blob.raw_fingerprint()
        finally:
            blob.close()
    backend = None
    try:
        backend = SqliteBackend.attach(str(path))
        return backend.fingerprint()
    except Exception:
        return None
    finally:
        if backend is not None:
            try:
                backend.close()
            except Exception:
                pass


def _damaged_files(root: Path, manifest: dict) -> List[str]:
    """File names whose current content does not match the manifest.

    Saves from before the integrity section existed verify vacuously.
    """
    recorded = manifest.get("integrity", {}).get("files", {})
    return [
        filename
        for filename in sorted(recorded)
        if _file_fingerprint(root / filename) != recorded[filename]
    ]


def _read_manifest(root: Path, collection: XmlCollection) -> dict:
    manifest_path = root / MANIFEST_NAME
    if not manifest_path.is_file():
        raise PersistenceError(f"no {MANIFEST_NAME} under {root}")
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    if manifest.get("format_version") != FORMAT_VERSION:
        raise PersistenceError(
            f"unsupported format version {manifest.get('format_version')!r}"
        )
    if manifest["collection"] != _fingerprint(collection):
        raise PersistenceError(
            "collection fingerprint mismatch: the index was saved for "
            f"{manifest['collection']}, got {_fingerprint(collection)}"
        )
    # Upgrade of a save that wrote a ``meta_NNNN.sqlite`` twin beside
    # every blob: the twin of a packed entry is forgotten here, so no
    # reader path opens, fingerprints or requires it (the files
    # themselves go at the next save's phase-4 clean).
    recorded = manifest.get("integrity", {}).get("files", {})
    for entry in manifest["meta_documents"]:
        if entry.get("packed", False):
            recorded.pop(f"meta_{entry['meta_id']:04d}.sqlite", None)
    # every reader path (load/verify/repair) settles an interrupted
    # save's committed-but-unrenamed stage files before looking at them
    _settle_interrupted_save(root, manifest)
    return manifest


def verify_flix(collection: XmlCollection, directory) -> List[str]:
    """Check a saved index; returns the damaged file names (empty = intact)."""
    root = Path(directory)
    return _damaged_files(root, _read_manifest(root, collection))


def repair_flix(collection: XmlCollection, directory) -> List[str]:
    """Rebuild the damaged files of a saved index in place.

    Re-derives the meta-document specs from the (unchanged) collection —
    the Meta Document Builder is deterministic, so spec ``i`` is the meta
    document ``meta_iiii.pack`` was built from — and re-runs the
    manifest-recorded strategy for each damaged file only.  The residual
    link table (``framework.sqlite``) is likewise reconstructible as the
    collection edges internal to no meta document.  Intact files are not
    touched, so the repaired save is fingerprint-identical to the
    original.  Requires a readable manifest (a destroyed manifest means a
    full rebuild).  Returns the repaired file names.

    Saves of an index mutated after the build (``add_document`` /
    ``remove_document`` / ``compact`` — see ``docs/MAINTENANCE.md``)
    can only be repaired for the meta documents the deterministic MDB
    re-derivation still produces; a damaged incrementally-added or
    compacted meta file raises instead (reload the intact save, or
    rebuild).
    """
    root = Path(directory)
    manifest = _read_manifest(root, collection)
    damaged = _damaged_files(root, manifest)
    if not damaged:
        return []

    config = _config_from_manifest(manifest["config"])
    from repro.core.mdb import MetaDocumentBuilder

    specs = MetaDocumentBuilder(collection, config).build_specs()
    spec_of: Dict[int, MetaDocumentSpec] = {spec.meta_id: spec for spec in specs}
    strategy_of = {
        entry["meta_id"]: entry["strategy"]
        for entry in manifest["meta_documents"]
    }

    recorded = manifest["integrity"]["files"]
    for filename in damaged:
        path = root / filename
        if path.exists():
            path.unlink()
        if filename == "framework.sqlite":
            _rebuild_framework_file(path, collection, specs)
        else:
            stem, _, kind = filename.rpartition(".")
            meta_id = int(stem[len("meta_") :])
            spec = spec_of.get(meta_id)
            strategy = strategy_of.get(meta_id)
            if spec is None or strategy is None:
                raise PersistenceError(
                    f"cannot repair {filename}: the manifest or the "
                    "re-derived specs know no meta document "
                    f"{meta_id}; rebuild the index instead"
                )
            if kind == "pack":
                _rebuild_pack_file(path, spec, strategy, collection)
            else:
                _rebuild_meta_file(path, spec, strategy, collection)
        rebuilt = _file_fingerprint(path)
        if rebuilt is None:
            raise PersistenceError(f"repair of {filename} produced no data")
        if rebuilt != recorded[filename]:
            # A strategy whose output depends on anything beyond the spec
            # would land here; today's loaders are all deterministic.
            raise PersistenceError(
                f"repaired {filename} does not match its recorded "
                "fingerprint; the collection or configuration has drifted "
                "since the save"
            )

    manifest_path = root / MANIFEST_NAME
    atomic_write_text(manifest_path, json.dumps(manifest, indent=2))
    return damaged


def _build_meta_index(
    spec: MetaDocumentSpec, strategy: str, collection: XmlCollection
):
    """Deterministically re-run one meta document's index build."""
    graph = spec.build_graph()
    tags = {node: collection.tag(node) for node in spec.nodes}
    return execute_build_request(
        IndexBuildRequest(strategy=strategy, tags=tags), graph=graph
    )


def _rebuild_meta_file(
    path: Path, spec: MetaDocumentSpec, strategy: str, collection: XmlCollection
) -> None:
    """Re-run one meta document's index build and persist its tables at
    ``path`` — the save form of a strategy with no packed form (and of
    every entry of a save from before packing was universal)."""
    index = _build_meta_index(spec, strategy, collection)
    target = SqliteBackend(str(path))
    _copy_tables(index.backend, target)
    target.close()


def _rebuild_pack_file(
    path: Path, spec: MetaDocumentSpec, strategy: str, collection: XmlCollection
) -> None:
    """Re-compile one meta document's FLXPACK blob from a fresh build.

    Packing is deterministic (sorted columns, sorted JSON directory), so
    the rebuilt blob is byte-identical to the original save's."""
    index = _build_meta_index(spec, strategy, collection)
    data = pack_index(index)
    if data is None:
        raise PersistenceError(
            f"cannot repair {path.name}: strategy {strategy!r} has no "
            "packed form"
        )
    atomic_write_bytes(path, data)


def _rebuild_framework_file(
    path: Path, collection: XmlCollection, specs: List[MetaDocumentSpec]
) -> None:
    """Reconstruct the residual-link table exactly as the IB wrote it:
    every collection edge internal to no meta document, sorted."""
    meta_of: Dict[int, int] = {}
    internal = set()
    for spec in specs:
        internal.update(spec.internal_edges)
        for node in spec.nodes:
            meta_of[node] = spec.meta_id
    residual = sorted(
        edge for edge in collection.graph.edges() if edge not in internal
    )
    target = SqliteBackend(str(path))
    table = target.create_table(_LINKS_SCHEMA)
    for u, v in residual:
        table.insert((u, v, meta_of[u], meta_of[v]))
    target.close()


def load_flix(collection: XmlCollection, directory, verify: bool = True) -> Flix:
    """Reconstruct a saved index against the (unchanged) collection.

    ``verify`` (default) re-fingerprints every referenced file
    against the manifest's integrity section and raises
    :class:`IntegrityError` naming the damaged ones — pass ``False`` to
    skip the check (e.g. right after a successful :func:`repair_flix`,
    or for saves predating the integrity section, which verify vacuously
    anyway).
    """
    root = Path(directory)
    manifest = _read_manifest(root, collection)
    if verify:
        damaged = _damaged_files(root, manifest)
        if damaged:
            raise IntegrityError(root, damaged)

    config = _config_from_manifest(manifest["config"])

    # the all-nodes tag map only a table-format entry reads; made on the
    # first one, so an all-packed load never walks the collection's tags
    tags: Optional[Dict[int, str]] = None
    loaders = _loaders()
    meta_of: Dict[int, int] = {}
    report = BuildReport(config_name=config.name)
    entries = sorted(manifest["meta_documents"], key=lambda e: e["meta_id"])
    live_ids = [e["meta_id"] for e in entries]
    if len(set(live_ids)) != len(live_ids) or any(i < 0 for i in live_ids):
        raise PersistenceError(
            "manifest meta ids must be distinct and non-negative"
        )
    # Maintenance state; absent in saves predating docs/MAINTENANCE.md,
    # which are always dense with no tombstones.
    layout_data = manifest.get("layout", {})
    tombstones = frozenset(layout_data.get("tombstones", ()))
    generation = layout_data.get("generation", 0)
    slot_count = layout_data.get(
        "next_meta_id", (max(live_ids) + 1) if live_ids else 0
    )
    if tombstones & set(live_ids):
        raise PersistenceError(
            "manifest lists meta ids both live and tombstoned"
        )
    if any(i >= slot_count for i in live_ids) or any(
        i >= slot_count or i < 0 for i in tombstones
    ):
        raise PersistenceError("manifest meta ids exceed the layout size")
    incremental = frozenset(
        entry["meta_id"]
        for entry in entries
        if entry.get("incremental", False)
    )
    slots: List[Optional[MetaDocument]] = [None] * slot_count
    for entry in entries:
        meta_id = entry["meta_id"]
        strategy = entry["strategy"]
        if strategy not in loaders:
            raise PersistenceError(f"no loader for strategy {strategy!r}")
        if entry.get("packed", False):
            # mmap the FLXPACK blob: cold attach parses a 64-byte header
            # and checksums the payload — no table deserialization, no
            # SQLite file
            index = attach_packed_file(root / f"meta_{meta_id:04d}.pack")
        else:
            # no blob on disk (``transitive_closure``, or a save older
            # than universal packing): deserialize, then pack in memory
            if tags is None:
                tags = {
                    node: collection.tag(node)
                    for node in collection.node_ids()
                }
            backend = SqliteBackend.attach(
                str(root / f"meta_{meta_id:04d}.sqlite")
            )
            index = _packed(loaders[strategy](backend, tags))
            if is_packed(index):
                backend.close()  # the blob is the only copy now
        meta = MetaDocument(
            meta_id=meta_id,
            nodes=index._node_set(),
            index=index,
            strategy=strategy,
        )
        slots[meta_id] = meta
        for node in meta.nodes:
            meta_of[node] = meta_id
        report.meta_documents.append(
            MetaDocumentReport(
                meta_id=meta_id,
                node_count=len(meta.nodes),
                internal_edge_count=-1,  # not recorded in the manifest
                strategy=strategy,
                rationale="loaded from disk",
                index_bytes=index.size_bytes(),
                build_seconds=0.0,
            )
        )

    # residual links.  The snapshot's framework.sqlite is read once and
    # copied into memory: a loaded instance must never hold a *write*
    # handle on a snapshot file, or incremental verbs (and WAL recovery
    # replay, docs/DURABILITY.md) would dirty it in place and break the
    # manifest checksums the next load verifies.  save_flix rewrites
    # framework.sqlite from this live copy at the next checkpoint.
    builder = IndexBuilder(collection, config)
    snapshot_links = SqliteBackend.attach(str(root / "framework.sqlite"))
    _copy_tables(snapshot_links, builder.framework_backend)
    snapshot_links.close()
    residual = 0
    for u, v, _mu, _mv in builder.framework_backend.table(
        "flix_residual_links"
    ).scan():
        slots[meta_of[u]].outgoing_links.setdefault(u, []).append(v)
        slots[meta_of[v]].incoming_links.setdefault(v, []).append(u)
        residual += 1
    for meta in slots:
        if meta is not None:
            meta.finalize_links()
    report.residual_link_count = residual
    report.residual_link_bytes = builder.framework_backend.table(
        "flix_residual_links"
    ).size_bytes()

    flix = Flix(collection, config, slots, meta_of, report)
    flix._builder = builder
    if tombstones or generation or incremental:
        from repro.core.layout import IndexLayout

        restored = IndexLayout(
            slots=tuple(slots),
            meta_of=dict(meta_of),
            pee=None,
            generation=generation,
            tombstones=tombstones,
            incremental_meta_ids=incremental,
        )
        flix._layout = restored.with_pee(
            flix._build_evaluator(restored.slots, restored.meta_of, generation)
        )
    return flix


def _config_from_manifest(config_data: dict) -> FlixConfig:
    # keys of retired options (``"planner"``) are ignored
    resilience_data = config_data.get("resilience")
    return FlixConfig(
        name=config_data["name"],
        mdb_strategy=config_data["mdb_strategy"],
        allowed_strategies=tuple(config_data["allowed_strategies"]),
        partition_size=config_data["partition_size"],
        single_tree=config_data["single_tree"],
        similarity_threshold=config_data.get("similarity_threshold", 0.75),
        hopi_pairs_per_node_budget=config_data["hopi_pairs_per_node_budget"],
        expect_long_paths=config_data["expect_long_paths"],
        jobs=config_data.get("jobs", 1),
        build_executor=config_data.get("build_executor", "auto"),
        observability=config_data.get("observability", True),
        resilience=(
            ResilienceConfig.from_dict(resilience_data)
            if resilience_data
            else None
        ),
        cache=(
            CacheConfig.from_dict(config_data["cache"])
            if config_data.get("cache")
            else None
        ),
    )


def _loaders() -> Dict[str, Callable]:
    return {
        "ppo": PpoIndex.load,
        "hopi": HopiIndex.load,
        "transitive_closure": TransitiveClosureIndex.load,
        "apex": lambda backend, tags: ApexIndex.load(backend, "apex"),
        "kindex": lambda backend, tags: KBisimulationIndex.load(backend, "kindex"),
        "fbindex": lambda backend, tags: ForwardBackwardIndex.load(
            backend, "fbindex"
        ),
    }
