"""SQLite storage backend.

Demonstrates that every index structure in the project serializes through a
real SQL database, like the paper's Oracle-backed prototype.  Size is
measured from SQLite's own page accounting (``page_count * page_size``),
so it includes B-tree overhead — which is also how the paper's Table 1
numbers include database overhead.
"""

from __future__ import annotations

import contextlib
import sqlite3
from typing import Any, Dict, Iterator, List

from repro.storage.errors import classify_sqlite_error
from repro.storage.table import Row, StorageBackend, Table, TableSchema

_SQL_TYPES = {"int": "INTEGER", "float": "REAL", "str": "TEXT"}


@contextlib.contextmanager
def _mapped():
    """Convert raw sqlite3 exceptions into the typed StorageError hierarchy.

    Every public entry point runs under this guard so callers see a stable
    contract (:class:`repro.storage.errors.TransientStorageError` for
    lock/busy/I-O conditions, :class:`~repro.storage.errors.CorruptionError`
    for malformed images, permanent otherwise) instead of backend-specific
    exception types.
    """
    try:
        yield
    except sqlite3.Error as exc:
        raise classify_sqlite_error(exc) from exc


class SqliteTable(Table):
    def __init__(
        self,
        schema: TableSchema,
        connection: sqlite3.Connection,
        create: bool = True,
    ) -> None:
        super().__init__(schema)
        self._conn = connection
        if create:
            columns = ", ".join(
                f"{column.name} {_SQL_TYPES[column.kind]}"
                for column in schema.columns
            )
            # table + access-path creation is one multi-statement write:
            # either the table exists with all its indexes or not at all
            with _mapped():
                self._conn.execute("BEGIN")
                try:
                    self._conn.execute(
                        f"CREATE TABLE {schema.name} ({columns})"
                    )
                    for indexed in schema.indexed:
                        self._conn.execute(
                            f"CREATE INDEX idx_{schema.name}_{indexed} "
                            f"ON {schema.name} ({indexed})"
                        )
                    self._conn.execute("COMMIT")
                except BaseException:
                    self._conn.execute("ROLLBACK")
                    raise
        placeholders = ", ".join("?" for _ in schema.columns)
        self._insert_sql = f"INSERT INTO {schema.name} VALUES ({placeholders})"

    def insert(self, row: Row) -> None:
        row = tuple(row)
        self.schema.check_row(row)
        with _mapped():
            self._conn.execute(self._insert_sql, row)
        if self._observer is not None:
            self._observer.write(self.schema.name)

    def insert_many(self, rows) -> None:
        validated = []
        for row in rows:
            row = tuple(row)
            self.schema.check_row(row)
            validated.append(row)
        # one explicit transaction keeps bulk loads fast under autocommit
        # and makes the multi-row write atomic: a failure rolls everything
        # back, so a retry never double-inserts a prefix
        with _mapped():
            self._conn.execute("BEGIN")
            try:
                self._conn.executemany(self._insert_sql, validated)
                self._conn.execute("COMMIT")
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise
        if self._observer is not None and validated:
            self._observer.write(self.schema.name, len(validated))

    def scan(self) -> Iterator[Row]:
        if self._observer is not None:
            self._observer.read(self.schema.name)
        with _mapped():
            cursor = self._conn.execute(
                f"SELECT * FROM {self.schema.name} ORDER BY rowid"
            )
            return iter(cursor.fetchall())

    def scan_eq(self, column: str, value: Any) -> Iterator[Row]:
        self.schema.column_index(column)  # validate the name
        if self._observer is not None:
            self._observer.read(self.schema.name)
            if column in self.schema.indexed:
                self._observer.hit(self.schema.name)
        with _mapped():
            cursor = self._conn.execute(
                f"SELECT * FROM {self.schema.name} "
                f"WHERE {column} = ? ORDER BY rowid",
                (value,),
            )
            return iter(cursor.fetchall())

    def row_count(self) -> int:
        with _mapped():
            cursor = self._conn.execute(
                f"SELECT COUNT(*) FROM {self.schema.name}"
            )
            return int(cursor.fetchone()[0])

    def size_bytes(self) -> int:
        # dbstat is not always compiled in; apportion whole-file pages by the
        # table's share of rows instead, which is accurate enough for the
        # relative comparisons Table 1 makes.
        with _mapped():
            cursor = self._conn.execute("PRAGMA page_count")
            pages = int(cursor.fetchone()[0])
            cursor = self._conn.execute("PRAGMA page_size")
            page_size = int(cursor.fetchone()[0])
            total = pages * page_size
            total_rows = 0
            my_rows = self.row_count()
            for (name,) in self._conn.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'"
            ):
                count = self._conn.execute(
                    f"SELECT COUNT(*) FROM {name}"
                ).fetchone()[0]
                total_rows += int(count)
        if total_rows == 0:
            return 0
        return int(total * (my_rows / total_rows))


class SqliteBackend(StorageBackend):
    """One SQLite database holding all tables of an index build.

    ``path=':memory:'`` (the default) keeps everything in RAM; pass a file
    path for a persistent database.
    """

    def __init__(self, path: str = ":memory:") -> None:
        # autocommit: every statement is durable immediately, so a process
        # restart (or a second connection) sees a complete index
        with _mapped():
            self._conn = sqlite3.connect(path, isolation_level=None)
        self._tables: Dict[str, SqliteTable] = {}

    @classmethod
    def attach(cls, path: str) -> "SqliteBackend":
        """Reopen an existing database and reconstruct its table handles.

        Schemas are recovered from SQLite's catalog, which is what lets a
        persisted index be :meth:`~repro.indexes.base.PathIndex`-``load``-ed
        after a restart instead of rebuilt.
        """
        from repro.storage.table import Column

        backend = cls.__new__(cls)
        with _mapped():
            backend._conn = sqlite3.connect(path, isolation_level=None)
            backend._tables = {}
            kind_of = {"INTEGER": "int", "REAL": "float", "TEXT": "str"}
            names = [
                row[0]
                for row in backend._conn.execute(
                    "SELECT name FROM sqlite_master WHERE type = 'table' "
                    "AND name NOT LIKE 'sqlite_%' ORDER BY name"
                )
            ]
            for name in names:
                columns = tuple(
                    Column(row[1], kind_of[row[2].upper()])
                    for row in backend._conn.execute(
                        f"PRAGMA table_info({name})"
                    )
                )
                # recover the indexed columns from the access paths
                # create_table made, so the reconstructed schema (and any
                # fingerprint over its repr) matches the original exactly
                prefix = f"idx_{name}_"
                indexed = tuple(
                    row[0][len(prefix) :]
                    for row in backend._conn.execute(
                        "SELECT name FROM sqlite_master WHERE type = 'index' "
                        "AND tbl_name = ? AND name LIKE ? ORDER BY rowid",
                        (name, prefix + "%"),
                    )
                )
                schema = TableSchema(name=name, columns=columns, indexed=indexed)
                backend._tables[name] = SqliteTable(
                    schema, backend._conn, create=False
                )
        return backend

    def create_table(self, schema: TableSchema) -> Table:
        if schema.name in self._tables:
            raise ValueError(f"table {schema.name!r} already exists")
        table = SqliteTable(schema, self._conn)
        if self._observer is not None:
            table.attach_observer(self._observer)
        self._tables[schema.name] = table
        return table

    def table(self, name: str) -> Table:
        return self._tables[name]

    def drop_table(self, name: str) -> None:
        table = self._tables.pop(name)
        with _mapped():
            self._conn.execute(f"DROP TABLE {table.schema.name}")

    def table_names(self) -> List[str]:
        return sorted(self._tables)

    def close(self) -> None:
        self._conn.close()
