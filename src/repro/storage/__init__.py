"""Database-style storage layer for index structures.

The paper's prototype stores every index in database tables (Oracle 9.2) and
Table 1 reports the database storage the indexes need.  We reproduce that
with a small table abstraction and two backends:

* :class:`repro.storage.memory.MemoryBackend` — rows in RAM with
  byte-accurate size accounting (ints 8 bytes, floats 8 bytes, strings UTF-8
  length + 4-byte length prefix): the scratch every ``Flix`` build and
  maintenance verb writes its object-build tables to, and every benchmark;
* :class:`repro.storage.sqlite_backend.SqliteBackend` — a real on-disk (or
  in-memory) SQLite database, demonstrating that all indexes serialize
  cleanly through SQL tables; inside ``repro`` only
  :mod:`repro.core.persistence` opens one.

All index structures persist themselves through this layer, so Table 1's
relative sizes are apples-to-apples across strategies.
"""

from repro.storage.table import Column, Table, TableSchema, StorageBackend
from repro.storage.errors import (
    CorruptionError,
    PermanentStorageError,
    StorageError,
    TransientStorageError,
)
from repro.storage.memory import MemoryBackend
from repro.storage.sqlite_backend import SqliteBackend
from repro.storage.sizing import format_bytes, row_bytes

__all__ = [
    "Column",
    "Table",
    "TableSchema",
    "StorageBackend",
    "MemoryBackend",
    "SqliteBackend",
    "StorageError",
    "TransientStorageError",
    "PermanentStorageError",
    "CorruptionError",
    "row_bytes",
    "format_bytes",
]
