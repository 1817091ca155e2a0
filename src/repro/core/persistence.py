"""Saving and loading a built FliX index (restart without rebuild).

Layout on disk — one FLXPACK blob per meta document, one for the
residual links, and the manifest::

    <directory>/
      manifest.json        configuration + meta-document registry
      meta_0000.pack       FLXPACK blob of meta document 0
      meta_0001.pack       ...
      links.pack           the residual links: sorted src, dst columns

The blob is the index (``docs/DATA_LAYOUT.md``): a save writes each
served index exactly once — its ``meta_NNNN.pack`` blob, byte for byte
what memory holds — and loading ``mmap``-attaches the blobs: a cold
attach parses one 64-byte header and checksums the payload.  The
residual links are read from ``links.pack`` into the meta documents,
their only in-memory copy.  Every strategy has a packed form, so no save
holds anything else.  The XML collection itself is *not* part of the
index (use :func:`repro.collection.io.save_collection` for the
documents); load verifies the collection matches via a fingerprint.

Format-1 saves (``"format_version": 1``) still load, read-only through
:mod:`repro.core.format1`, the one module that opens SQLite: their links
come from ``framework.sqlite``, and a meta document saved as tables
(``meta_NNNN.sqlite``: ``transitive_closure``, or any entry marked
``"packed": false``) is re-derived from the collection the way
:func:`repair_flix` re-derives a damaged blob and checked against its
recorded table-content fingerprint.  A ``.sqlite`` twin beside a blob is
neither opened nor required.  The next save writes only blobs and
deletes the SQLite files; so does :func:`repair_flix` when it repairs a
damaged SQLite file.

Crash safety
------------

Saving over an existing save never mutates the files the current
manifest references.  :func:`save_flix` stages every new file under a
``.tmp`` sibling name (durable via fsync), atomically replaces the
manifest — the commit point — and only then renames the staged files
over the final names and deletes stale ones.  A crash before the
manifest replace leaves the old save intact (a format-1 save included);
a crash after it is rolled forward at the next load/verify/repair, which
completes any pending renames whose staged content matches the new
manifest's fingerprints (see ``docs/DURABILITY.md``).

Integrity and repair
--------------------

The manifest records one fingerprint per file it references: SHA-256
over the whole blob, which is also that index's share of
``Flix.index_fingerprint()`` (a format-1 ``.sqlite`` file hashes its
table content instead).  :func:`load_flix` re-computes them by default
and refuses to load a damaged save with an :class:`IntegrityError` that
names the broken files.  :func:`repair_flix` (CLI: ``repro repair``)
then re-derives the meta-document specs from the collection — the MDB is
deterministic — and rebuilds *only* the damaged blobs, leaving intact
ones untouched, so a repaired save is fingerprint-identical to the
original.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Dict, List, Optional

from repro.collection.collection import XmlCollection
from repro.core import format1
from repro.core.config import CacheConfig, FlixConfig
from repro.core.framework import Flix
from repro.core.ib import BuildReport, MetaDocumentReport
from repro.core.links import (
    LINKS_FILENAME,
    links_pack_bytes,
    pack_links,
    read_links,
    residual_links,
    wire_links,
)
from repro.core.meta_document import MetaDocument, MetaDocumentSpec
from repro.indexes.packed import PackedBlob, attach_packed_file, pack_index
from repro.indexes.registry import build_index
from repro.storage.atomic import (
    atomic_write_bytes,
    atomic_write_text,
    fsync_directory,
)

MANIFEST_NAME = "manifest.json"
#: written by every save; format 1 (SQLite links and table-format metas)
#: is read too
FORMAT_VERSION = 2
_READABLE_VERSIONS = (1, FORMAT_VERSION)

#: sibling suffix under which a save stages its files before the
#: manifest commit point (see :func:`save_flix`'s write protocol)
TMP_SUFFIX = ".tmp"

#: what ``integrity.files`` holds per file suffix (module docstring).
#: Nothing dispatches on the label — :func:`_file_fingerprint` goes by
#: suffix — so format-1 labels read unchanged.
INTEGRITY_ALGORITHMS = {"pack": "sha256-raw-bytes"}


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


def _fingerprint(collection: XmlCollection) -> Dict[str, int]:
    return {
        "documents": collection.document_count,
        "elements": collection.node_count,
        "links": collection.link_edge_count,
    }


def save_flix(flix: Flix, directory) -> Path:
    """Persist ``flix`` under ``directory``; returns the manifest path."""
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)

    # Phase 1 — stage: build every file the new manifest will reference
    # under a ``.tmp`` sibling name.  The files the *current* manifest
    # references are never touched here, so a crash anywhere in this
    # phase leaves the previous save fully loadable (the strays are
    # cleaned by the next save or load).
    integrity: Dict[str, str] = {}  # final name -> fingerprint
    metas = flix.meta_documents
    blobs = [
        (f"meta_{meta.meta_id:04d}.pack", pack_index(meta.index))
        for meta in metas
    ]
    blobs.append((LINKS_FILENAME, pack_links(residual_links(metas))))
    for filename, data in blobs:
        # the blob is the index: written once, as memory holds it
        _write_staged_bytes(root / (filename + TMP_SUFFIX), data)
        integrity[filename] = hashlib.sha256(data).hexdigest()
    fsync_directory(root)

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
            "observability": flix.config.observability,
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
                "incremental": meta.meta_id
                in flix.layout.incremental_meta_ids,
            }
            for meta in metas
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
    # SQLite files and ``planner_stats.json`` sidecar older saves wrote,
    # and any orphaned stage files a crashed save left behind.
    for pattern in (
        "meta_*.sqlite", "meta_*.pack", format1.FRAMEWORK_FILENAME,
        "planner_stats.json", "*" + TMP_SUFFIX,
    ):
        for stale in root.glob(pattern):
            if stale.name not in integrity:
                stale.unlink()
    return manifest_path


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
    # final name, or a crashed save's files could never roll forward
    final_name = path.name.removesuffix(TMP_SUFFIX)
    if final_name.endswith(".pack"):
        try:
            blob = PackedBlob.attach(path)
        except Exception:
            return None
        try:
            return blob.raw_fingerprint()
        finally:
            blob.close()
    if final_name.endswith(".sqlite"):
        return format1.table_fingerprint(path)
    return None


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
    if manifest.get("format_version") not in _READABLE_VERSIONS:
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
    links (``links.pack``) are likewise reconstructible as the collection
    edges internal to no meta document.  Intact files are not touched, so
    the repaired save is fingerprint-identical to the original.  Requires
    a readable manifest (a destroyed manifest means a full rebuild).
    Returns the repaired file names.

    Saves of an index mutated after the build (``add_document`` /
    ``remove_document`` / ``compact`` — see ``docs/MAINTENANCE.md``)
    can only be repaired for the meta documents the deterministic MDB
    re-derivation still produces; a damaged incrementally-added or
    compacted meta file raises instead (reload the intact save, or
    rebuild).

    A damaged SQLite file of a format-1 save is never rewritten: what it
    held (the residual links, or a meta document's tables) is re-derived
    the same way, checked against its recorded table-content fingerprint
    (:func:`repro.core.format1.rows_fingerprint`), and the whole save is
    upgraded to blobs by :func:`save_flix` — crash-safe like any save.
    """
    root = Path(directory)
    manifest = _read_manifest(root, collection)
    damaged = _damaged_files(root, manifest)
    if not damaged:
        return []

    specs = _rederived_specs(collection, manifest)
    spec_of: Dict[int, MetaDocumentSpec] = {spec.meta_id: spec for spec in specs}
    strategy_of = {
        entry["meta_id"]: entry["strategy"]
        for entry in manifest["meta_documents"]
    }

    recorded = manifest["integrity"]["files"]
    for filename in damaged:
        path = root / filename
        if filename.endswith(".sqlite"):
            continue  # read only: the save is upgraded below
        if path.exists():
            path.unlink()
        if filename == LINKS_FILENAME:
            atomic_write_bytes(
                path, pack_links(_rederived_links(collection, specs))
            )
        else:
            meta_id = int(filename[len("meta_") : -len(".pack")])
            spec = spec_of.get(meta_id)
            strategy = strategy_of.get(meta_id)
            if spec is None or strategy is None:
                raise PersistenceError(
                    f"cannot repair {filename}: the manifest or the "
                    "re-derived specs know no meta document "
                    f"{meta_id}; rebuild the index instead"
                )
            # packing is deterministic (sorted columns, sorted JSON
            # directory): the rebuilt blob is byte-identical
            atomic_write_bytes(
                path, pack_index(_build_meta_index(spec, strategy, collection))
            )
        if _file_fingerprint(path) != recorded[filename]:
            raise _drifted(filename)

    if any(filename.endswith(".sqlite") for filename in damaged):
        links = None
        if format1.FRAMEWORK_FILENAME in damaged:
            links = _rederived_links(collection, specs)
            meta_of = {
                node: spec.meta_id for spec in specs for node in spec.nodes
            }
            if format1.rows_fingerprint(
                format1.link_rows(links, meta_of)
            ) != recorded[format1.FRAMEWORK_FILENAME]:
                raise _drifted(format1.FRAMEWORK_FILENAME)
        # table entries are re-derived and checked while assembling
        save_flix(_assemble(collection, root, manifest, links), root)
        return damaged

    manifest_path = root / MANIFEST_NAME
    atomic_write_text(manifest_path, json.dumps(manifest, indent=2))
    return damaged


def _drifted(filename: str) -> PersistenceError:
    return PersistenceError(
        f"repaired {filename} does not match its recorded fingerprint; "
        "the collection or configuration has drifted since the save"
    )


def _rederived_specs(
    collection: XmlCollection, manifest: dict
) -> List[MetaDocumentSpec]:
    """The meta-document specs the (deterministic) MDB derives for the
    saved configuration."""
    from repro.core.mdb import MetaDocumentBuilder

    config = _config_from_manifest(manifest["config"])
    return MetaDocumentBuilder(collection, config).build_specs()


def _rederived_links(
    collection: XmlCollection, specs: List[MetaDocumentSpec]
) -> List[tuple]:
    """The residual links exactly as the IB wires them: every collection
    edge internal to no meta document, sorted."""
    internal = set()
    for spec in specs:
        internal.update(spec.internal_edges)
    return sorted(
        edge for edge in collection.graph.edges() if edge not in internal
    )


def _build_meta_index(
    spec: MetaDocumentSpec, strategy: str, collection: XmlCollection
):
    """Deterministically re-run one meta document's index build: the
    packed index, byte-identical to the one built before."""
    tags = {node: collection.tag(node) for node in spec.nodes}
    return build_index(strategy, spec.build_graph(), tags)


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
    return _assemble(collection, root, manifest)


def _assemble(
    collection: XmlCollection,
    root: Path,
    manifest: dict,
    links: Optional[List[tuple]] = None,
) -> Flix:
    """The :class:`Flix` a read manifest describes; ``links`` stands in
    for the saved residual links (a repaired ``framework.sqlite``)."""
    config = _config_from_manifest(manifest["config"])
    legacy = manifest["format_version"] == 1
    # the specs only a format-1 table entry needs; derived on the first
    specs: Optional[Dict[int, MetaDocumentSpec]] = None
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
        if legacy and not entry.get("packed", False):
            if specs is None:
                specs = {
                    spec.meta_id: spec
                    for spec in _rederived_specs(collection, manifest)
                }
            index = _rederive_table_entry(
                root, manifest, entry, specs.get(meta_id), collection
            )
        else:
            # mmap the FLXPACK blob: cold attach parses a 64-byte header
            # and checksums the payload — no deserialization
            index = attach_packed_file(root / f"meta_{meta_id:04d}.pack")
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

    # residual links: read once into the meta documents, their only
    # in-memory copy (the snapshot file is never held open or written)
    links_name = format1.FRAMEWORK_FILENAME if legacy else LINKS_FILENAME
    if links is None:
        read = format1.read_links if legacy else read_links
        links = read(root / links_name)
    for u, v in links:
        if u not in meta_of or v not in meta_of:
            raise PersistenceError(
                f"{links_name} links nodes outside every meta document"
            )
    wire_links(slots, meta_of, links)
    report.residual_link_count = len(links)
    report.residual_link_bytes = links_pack_bytes(len(links))
    for meta in slots:
        if meta is not None:
            meta.finalize_links()

    flix = Flix(collection, config, slots, meta_of, report)
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


def _rederive_table_entry(
    root: Path,
    manifest: dict,
    entry: dict,
    spec: Optional[MetaDocumentSpec],
    collection: XmlCollection,
):
    """The packed index of a format-1 meta document saved as tables,
    re-derived from the collection as :func:`repair_flix` re-derives a
    damaged blob, and checked the same way: the tables the format-1
    writer would have stored for it must hash to the file's recorded
    fingerprint (the file's own, for a save without one)."""
    filename = f"meta_{entry['meta_id']:04d}.sqlite"
    if entry.get("incremental", False):
        raise PersistenceError(
            f"cannot load {filename}: a meta document added incrementally "
            "is not re-derivable from the collection; rebuild the index"
        )
    index = None
    if spec is not None:
        index = _build_meta_index(spec, entry["strategy"], collection)
    recorded = manifest.get("integrity", {}).get("files", {}).get(filename)
    if recorded is None:
        recorded = format1.table_fingerprint(root / filename)
    if index is None or format1.rows_fingerprint(
        format1.index_rows(index)
    ) != recorded:
        raise PersistenceError(
            f"cannot load {filename}: the re-derived meta document differs "
            "from the saved one; rebuild the index"
        )
    return index


def _config_from_manifest(config_data: dict) -> FlixConfig:
    # keys of retired options (the query planner, the resilience block,
    # the build parallelism) are ignored
    return FlixConfig(
        name=config_data["name"],
        mdb_strategy=config_data["mdb_strategy"],
        allowed_strategies=tuple(config_data["allowed_strategies"]),
        partition_size=config_data["partition_size"],
        single_tree=config_data["single_tree"],
        similarity_threshold=config_data.get("similarity_threshold", 0.75),
        hopi_pairs_per_node_budget=config_data["hopi_pairs_per_node_budget"],
        expect_long_paths=config_data["expect_long_paths"],
        observability=config_data.get("observability", True),
        cache=(
            CacheConfig.from_dict(config_data["cache"])
            if config_data.get("cache")
            else None
        ),
    )
