"""Read-only access to format-1 saves: their SQLite files.

A format-1 save (``manifest.json`` ``"format_version": 1``) kept its
residual links in ``framework.sqlite`` and the index of any meta document
without a blob — ``transitive_closure``, or every entry of a save from
before packing was universal (``"packed": false``) — as that index's
tables in ``meta_NNNN.sqlite``.  This module is the only place a SQLite
file is opened: always read-only (``mode=ro``), never written.  What it
reads is

* the table-content fingerprint the manifest recorded for each
  ``.sqlite`` file (SHA-256 over table names, schemas and rows in rowid
  order — SQLite's bytes vary with page layout, its content does not);
* the residual links of ``framework.sqlite``.

The same fingerprint is computed without any file from the rows the
format-1 writer stored (:func:`rows_fingerprint`, :func:`index_rows`,
:func:`link_rows`): a meta document saved as tables, or a damaged
``framework.sqlite``, is re-derived from the collection and must hash
to what the manifest recorded (:func:`repro.core.persistence.load_flix`,
:func:`repro.core.persistence.repair_flix`).

The next save of a loaded format-1 index writes only blobs.
"""

from __future__ import annotations

import hashlib
import sqlite3
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.storage.errors import CorruptionError

FRAMEWORK_FILENAME = "framework.sqlite"

#: the schema of every table the format-1 writer created, as
#: ``(columns, indexed)``; a summary's tables are prefixed by its strategy
_EXTENTS = ((("node", "int"), ("cls", "int"), ("tag", "str")), ("node", "cls"))
_STRUCTURE = ((("src_cls", "int"), ("dst_cls", "int")), ("src_cls",))
_EDGES = ((("src", "int"), ("dst", "int")), ("src",))
_LABELS = ((("node", "int"), ("hub", "int"), ("dist", "int")), ("node", "hub"))
_SCHEMAS = {
    "flix_residual_links": (
        (("src", "int"), ("dst", "int"), ("src_meta", "int"),
         ("dst_meta", "int")),
        ("src",),
    ),
    "ppo_nodes": (
        (("node", "int"), ("pre", "int"), ("size", "int"), ("depth", "int"),
         ("parent", "int")),
        ("node",),
    ),
    "hopi_in_labels": _LABELS,
    "hopi_out_labels": _LABELS,
    "closure_pairs": (
        (("src", "int"), ("dst", "int"), ("dist", "int")), ("src", "dst"),
    ),
    **{
        f"{prefix}_{suffix}": schema
        for prefix in ("apex", "kindex", "fbindex")
        for suffix, schema in (
            ("extents", _EXTENTS), ("structure", _STRUCTURE), ("edges", _EDGES),
        )
    },
}

_KINDS = {"INTEGER": "int", "REAL": "float", "TEXT": "str"}


def _connect(path: Path) -> sqlite3.Connection:
    if not path.is_file():
        raise FileNotFoundError(path)
    return sqlite3.connect(f"{path.resolve().as_uri()}?mode=ro", uri=True)


def _schema_repr(
    table: str, columns: Sequence[Tuple[str, str]], indexed: Tuple[str, ...]
) -> str:
    """The ``repr`` of the ``TableSchema`` the format-1 writer hashed."""
    listed = ", ".join(
        f"Column(name={name!r}, kind={kind!r})" for name, kind in columns
    )
    trailing = "," if len(columns) == 1 else ""
    return (
        f"TableSchema(name={table!r}, columns=({listed}{trailing}), "
        f"indexed={indexed!r})"
    )


def _file_schema_repr(conn: sqlite3.Connection, table: str) -> str:
    columns = [
        (row[1], _KINDS[row[2].upper()])
        for row in conn.execute(f"PRAGMA table_info({table})")
    ]
    prefix = f"idx_{table}_"
    indexed = tuple(
        row[0][len(prefix):]
        for row in conn.execute(
            "SELECT name FROM sqlite_master WHERE type = 'index' "
            "AND tbl_name = ? AND name LIKE ? ORDER BY rowid",
            (table, prefix + "%"),
        )
    )
    return _schema_repr(table, columns, indexed)


def _digest(tables: Iterable[Tuple[str, str, Iterable[tuple]]]) -> str:
    """The table-content hash of ``(name, schema repr, rows)`` triples
    given in table-name order, rows in rowid order."""
    digest = hashlib.sha256()
    for table, schema, rows in tables:
        content = hashlib.sha256(schema.encode("utf-8"))
        for row in rows:
            content.update(repr(row).encode("utf-8"))
        digest.update(table.encode("utf-8"))
        digest.update(content.hexdigest().encode("utf-8"))
    return digest.hexdigest()


def table_fingerprint(path: Path) -> Optional[str]:
    """The table-content fingerprint of a format-1 ``.sqlite`` file, or
    ``None`` when it is missing or unreadable."""
    try:
        conn = _connect(path)
    except (OSError, sqlite3.Error):
        return None
    try:
        tables = sorted(
            row[0]
            for row in conn.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table' "
                "AND name NOT LIKE 'sqlite_%'"
            )
        )
        return _digest(
            (
                table,
                _file_schema_repr(conn, table),
                conn.execute(f"SELECT * FROM {table} ORDER BY rowid"),
            )
            for table in tables
        )
    except (sqlite3.Error, KeyError):
        return None
    finally:
        conn.close()


def read_links(path: Path) -> List[Tuple[int, int]]:
    """The residual links of a ``framework.sqlite``, sorted."""
    return sorted(_select(path, "SELECT src, dst FROM flix_residual_links"))


def rows_fingerprint(tables: Dict[str, List[tuple]]) -> str:
    """The :func:`table_fingerprint` of a file holding ``tables`` (name ->
    rows in rowid order) with the format-1 writer's schemas."""
    return _digest(
        (table, _schema_repr(table, *_SCHEMAS[table]), tables[table])
        for table in sorted(tables)
    )


def index_rows(index) -> Dict[str, List[tuple]]:
    """The tables the format-1 writer stored for a meta document, rows in
    the order it inserted them (sorted), read off the columns of its
    freshly built packed ``index``: the blob holds every value the
    writer stored."""
    column = index.blob.column_list
    strategy = index.strategy_name
    if strategy == "ppo":
        node_at_pre = column("node_at_pre")
        size_at_pre = column("size_at_pre")
        depth_at_pre = column("depth_at_pre")
        parent_at_pre = column("parent_pos_at_pre")
        return {"ppo_nodes": sorted(
            (
                node, pre, size_at_pre[pre], depth_at_pre[pre],
                -1 if parent_at_pre[pre] == -1
                else node_at_pre[parent_at_pre[pre]],
            )
            for pre, node in enumerate(node_at_pre)
        )}
    nodes = column("nodes")
    if strategy == "hopi":
        return {
            f"hopi_{side}_labels": _csr_rows(
                nodes, column(f"{side}_offsets"), column(f"{side}_hubs"),
                column(f"{side}_dists"),
            )
            for side in ("in", "out")
        }
    if strategy == "transitive_closure":
        return {"closure_pairs": _csr_rows(
            nodes, column("offsets"), column("dst"), column("dist")
        )}
    if f"{strategy}_extents" in _SCHEMAS:
        classes = column("classes")
        tags = index.blob.meta["tags"]
        offsets = column("succ_offsets")
        targets = column("succ_pos")
        return {
            f"{strategy}_extents": sorted(
                (node, classes[cls], tags[tag])
                for node, cls, tag in zip(
                    nodes, column("class_pos"), column("tag_ids")
                )
            ),
            f"{strategy}_structure": sorted(
                (classes[src], classes[dst])
                for src, dst in zip(column("struct_src"), column("struct_dst"))
            ),
            f"{strategy}_edges": sorted(
                (node, nodes[targets[k]])
                for i, node in enumerate(nodes)
                for k in range(offsets[i], offsets[i + 1])
            ),
        }
    raise CorruptionError(f"no format-1 tables for strategy {strategy!r}")


def _csr_rows(
    nodes: List[int], offsets: List[int], values: List[int], dists: List[int]
) -> List[tuple]:
    """``(node, value, dist)`` for every entry of a per-node CSR run."""
    return sorted(
        (node, values[k], dists[k])
        for i, node in enumerate(nodes)
        for k in range(offsets[i], offsets[i + 1])
    )


def link_rows(
    links: Iterable[Tuple[int, int]], meta_of: Dict[int, int]
) -> Dict[str, List[tuple]]:
    """The ``framework.sqlite`` table of the residual ``links``."""
    return {"flix_residual_links": sorted(
        (u, v, meta_of[u], meta_of[v]) for u, v in links
    )}


def _select(path: Path, query: str) -> List[tuple]:
    try:
        conn = _connect(path)
        try:
            return conn.execute(query).fetchall()
        finally:
            conn.close()
    except (OSError, sqlite3.Error) as exc:
        raise CorruptionError(f"{path}: unreadable: {exc}") from None
