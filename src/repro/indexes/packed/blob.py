"""The FLXPACK blob: a fixed-format, checksummed, mmap-able column store.

One blob holds the *complete* hot-path state of one packed index as flat
``array('q')`` columns (little-endian int64), so a restarted worker can
``mmap`` the file and serve probes without deserializing anything::

    offset  size  field
    0       8     magic  b"FLXPACK1"
    8       4     format version (u32 LE, currently 1)
    12      4     reserved (zero)
    16      32    SHA-256 over the payload (everything from offset 64)
    48      8     payload length in bytes (u64 LE)
    56      8     directory length in bytes (u64 LE)
    64      ...   payload: directory, zero padding to an 8-byte
                  boundary, then the raw column bytes (each 8-byte
                  aligned, offsets relative to the padded directory end)

The directory itself is fixed-format binary, so cold attach parses no
JSON at all::

    u32   column count
    u32   metadata (JSON) length in bytes
    16s   source strategy name (NUL-padded ASCII)
    then per column, sorted by name (48 bytes each):
          24s name, u64 relative offset, u64 byte length, u64 count
    then the metadata JSON (tag tables, class tables — free-form)

Attaching verifies the magic, version, declared lengths, and payload
checksum — a truncated or bit-flipped blob raises
:class:`repro.storage.errors.CorruptionError` before any query can read
garbage.  Everything else is lazy: the metadata JSON is parsed on first
``.meta`` access (index promotion time, not attach time), and each
column becomes a zero-copy ``memoryview(...).cast('q')`` on first use.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
import struct
import sys
from array import array
from pathlib import Path
from typing import Dict, Iterable, Optional, Sequence, Tuple

from repro.storage.errors import CorruptionError

MAGIC = b"FLXPACK1"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<8sII32sQQ")  # magic, version, reserved, sha, payload, dirlen
HEADER_BYTES = _HEADER.size  # 64
_DIR_HEADER = struct.Struct("<II16s")  # column count, meta length, strategy
_COL_RECORD = struct.Struct("<24sQQQ")  # name, offset, length, count
_ALIGN = 8

#: the only column typecode currently written (int64)
COLUMN_TYPECODE = "q"


def _pad(n: int) -> int:
    return (-n) % _ALIGN


#: decoded column/strategy names, keyed by their raw padded bytes — the
#: vocabulary is tiny and shared by every blob in a save, so attach skips
#: the rstrip+decode after the first file (bounded against garbage names)
_NAME_CACHE: Dict[bytes, str] = {}
_NAME_CACHE_CAP = 4096


def _decode_name(raw: bytes, source: str, what: str) -> str:
    name = _NAME_CACHE.get(raw)
    if name is None:
        try:
            name = raw.rstrip(b"\x00").decode("ascii")
        except UnicodeDecodeError:
            raise CorruptionError(
                f"packed blob {source}: undecodable {what}"
            ) from None
        if len(_NAME_CACHE) < _NAME_CACHE_CAP:
            _NAME_CACHE[raw] = name
    return name


class BlobWriter:
    """Accumulates columns and serializes one FLXPACK blob."""

    def __init__(self, strategy: str, meta: Optional[dict] = None) -> None:
        if len(strategy.encode("ascii")) > 16:
            raise ValueError(f"strategy name {strategy!r} exceeds 16 bytes")
        self.strategy = strategy
        self.meta = dict(meta or {})
        self._columns: Dict[str, bytes] = {}
        self._counts: Dict[str, int] = {}

    def add_column(self, name: str, values: Iterable[int]) -> None:
        if name in self._columns:
            raise ValueError(f"duplicate column {name!r}")
        if len(name.encode("ascii")) > 24:
            raise ValueError(f"column name {name!r} exceeds 24 bytes")
        data = array(COLUMN_TYPECODE, values)
        if sys.byteorder == "big":  # pragma: no cover - LE spec on disk
            data = array(COLUMN_TYPECODE, data)
            data.byteswap()
        self._columns[name] = data.tobytes()
        self._counts[name] = len(data)

    def to_bytes(self) -> bytes:
        # Column offsets are stored *relative to the column region* (the
        # padded directory end), so they do not depend on the directory
        # length.  Records are sorted by name and the metadata JSON is
        # dumped with sorted keys: equal content packs to equal bytes.
        meta_bytes = json.dumps(self.meta, sort_keys=True).encode("utf-8")
        records = []
        cursor = 0
        for name in sorted(self._columns):
            blob = self._columns[name]
            records.append(
                _COL_RECORD.pack(
                    name.encode("ascii"), cursor, len(blob), self._counts[name]
                )
            )
            cursor += len(blob) + _pad(len(blob))
        dir_bytes = (
            _DIR_HEADER.pack(
                len(records),
                len(meta_bytes),
                self.strategy.encode("ascii"),
            )
            + b"".join(records)
            + meta_bytes
        )
        dir_padding = _pad(len(dir_bytes))

        parts = [dir_bytes, b"\x00" * dir_padding]
        for name in sorted(self._columns):
            blob = self._columns[name]
            parts.append(blob)
            parts.append(b"\x00" * _pad(len(blob)))
        payload = b"".join(parts)
        header = _HEADER.pack(
            MAGIC,
            FORMAT_VERSION,
            0,
            hashlib.sha256(payload).digest(),
            len(payload),
            len(dir_bytes),
        )
        return header + payload

    def write(self, path) -> Path:
        path = Path(path)
        path.write_bytes(self.to_bytes())
        return path


class PackedBlob:
    """An attached FLXPACK blob: verified header + lazy zero-copy columns."""

    def __init__(
        self,
        buffer,
        *,
        source: str = "<bytes>",
        keep_open=None,
    ) -> None:
        self._buffer = buffer
        self._source = source
        self._keep_open = keep_open  # the mmap object for file attaches
        self._views: Dict[str, memoryview] = {}
        self._lists: Dict[str, list] = {}
        size = len(buffer)
        if size < HEADER_BYTES:
            raise CorruptionError(
                f"packed blob {source}: {size} bytes is shorter than the "
                f"{HEADER_BYTES}-byte header (truncated?)"
            )
        magic, version, _reserved, digest, payload_len, dir_len = _HEADER.unpack_from(
            buffer, 0
        )
        if magic != MAGIC:
            raise CorruptionError(
                f"packed blob {source}: bad magic {magic!r} (not a FLXPACK file)"
            )
        if version != FORMAT_VERSION:
            raise CorruptionError(
                f"packed blob {source}: unsupported format version {version}"
            )
        if size != HEADER_BYTES + payload_len:
            raise CorruptionError(
                f"packed blob {source}: header declares {payload_len} payload "
                f"bytes but the file holds {size - HEADER_BYTES} (truncated?)"
            )
        payload = memoryview(buffer)[HEADER_BYTES:]
        try:
            checksum_ok = hashlib.sha256(payload).digest() == digest
        finally:
            # released eagerly: a view left in a raising frame would keep
            # the caller from closing the mmap it exports
            payload.release()
        if not checksum_ok:
            raise CorruptionError(
                f"packed blob {source}: payload SHA-256 mismatch (bit flip "
                "or partial write) — repair the save (repro repair)"
            )
        if dir_len > payload_len or dir_len < _DIR_HEADER.size:
            raise CorruptionError(
                f"packed blob {source}: directory length {dir_len} does not "
                f"fit the payload ({payload_len} bytes)"
            )
        col_count, meta_len, strategy_raw = _DIR_HEADER.unpack_from(
            buffer, HEADER_BYTES
        )
        records_len = col_count * _COL_RECORD.size
        if _DIR_HEADER.size + records_len + meta_len != dir_len:
            raise CorruptionError(
                f"packed blob {source}: directory declares {col_count} "
                f"columns and {meta_len} metadata bytes but is {dir_len} "
                "bytes long"
            )
        self.strategy: str = _decode_name(strategy_raw, source, "strategy name")
        self._column_base = HEADER_BYTES + dir_len + _pad(dir_len)
        # column records: (relative offset, byte length, element count)
        self._directory: Dict[str, Tuple[int, int, int]] = {}
        records_start = HEADER_BYTES + _DIR_HEADER.size
        for name_raw, offset, length, count in _COL_RECORD.iter_unpack(
            bytes(buffer[records_start : records_start + records_len])
        ):
            name = _decode_name(name_raw, source, "column name")
            if self._column_base + offset + length > size:
                raise CorruptionError(
                    f"packed blob {source}: column {name!r} extends past "
                    "the end of the file"
                )
            self._directory[name] = (offset, length, count)
        # metadata JSON (tag tables etc.) is parsed on first .meta access
        self._meta_start = records_start + records_len
        self._meta_len = meta_len
        self._meta: Optional[dict] = None

    # ------------------------------------------------------------------
    # attachment
    # ------------------------------------------------------------------
    @classmethod
    def attach(cls, path) -> "PackedBlob":
        """``mmap`` a blob file read-only and verify it.

        The map is established lazily by the OS page cache: attach cost is
        one header parse plus one sequential checksum pass, independent of
        how many columns the queries will ever touch.
        """
        path_str = os.fspath(path)
        try:
            fd = os.open(path_str, os.O_RDONLY)
        except OSError as exc:
            raise CorruptionError(
                f"packed blob {path_str}: unreadable: {exc}"
            ) from None
        try:
            mapped = mmap.mmap(fd, 0, access=mmap.ACCESS_READ)
        except (ValueError, OSError) as exc:  # zero-length or unmappable
            raise CorruptionError(
                f"packed blob {path_str}: cannot mmap: {exc} (truncated?)"
            ) from None
        finally:
            # the mapping holds its own reference to the file
            os.close(fd)
        try:
            return cls(mapped, source=path_str, keep_open=mapped)
        except Exception:
            mapped.close()
            raise

    @classmethod
    def from_bytes(cls, data: bytes, source: str = "<bytes>") -> "PackedBlob":
        return cls(data, source=source)

    def close(self) -> None:
        self._views.clear()
        self._lists.clear()
        if self._keep_open is not None:
            mapped = self._keep_open
            self._keep_open = None
            self._buffer = b""
            mapped.close()

    # ------------------------------------------------------------------
    # lazy access (metadata and columns)
    # ------------------------------------------------------------------
    @property
    def meta(self) -> dict:
        """The free-form metadata dict, JSON-parsed on first access."""
        meta = self._meta
        if meta is None:
            raw = self._buffer[
                self._meta_start : self._meta_start + self._meta_len
            ]
            try:
                meta = json.loads(raw) if self._meta_len else {}
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise CorruptionError(
                    f"packed blob {self._source}: undecodable metadata: {exc}"
                ) from None
            if not isinstance(meta, dict):
                raise CorruptionError(
                    f"packed blob {self._source}: metadata is not an object"
                )
            self._meta = meta
        return meta

    def column(self, name: str):
        """The named column as an int64 ``memoryview`` (zero-copy)."""
        view = self._views.get(name)
        if view is not None:
            return view
        entry = self._directory.get(name)
        if entry is None:
            raise CorruptionError(
                f"packed blob {self._source}: missing column {name!r}"
            )
        offset, length, _count = entry
        start = self._column_base + offset
        raw = memoryview(self._buffer)[start : start + length]
        if sys.byteorder == "big":  # pragma: no cover - LE spec on disk
            data = array(COLUMN_TYPECODE, raw.tobytes())
            data.byteswap()
            view = memoryview(data)
        else:
            view = raw.cast(COLUMN_TYPECODE)
        self._views[name] = view
        return view

    def column_list(self, name: str) -> list:
        """The named column *promoted* to a Python list (cached).

        Point probes in CPython are dominated by per-element boxing, and
        ``memoryview.__getitem__`` boxes on every access while a list
        holds already-boxed ints.  Hot columns therefore get promoted
        once, on first probe — the blob stays the source of truth (the
        list is a pure cache) and cold attach still touches nothing.
        """
        promoted = self._lists.get(name)
        if promoted is None:
            promoted = self.column(name).tolist()
            self._lists[name] = promoted
        return promoted

    @property
    def data(self) -> memoryview:
        """The whole blob, header included, as a read-only bytes-like view
        of the attached buffer (no copy, even of an mmap)."""
        return memoryview(self._buffer)

    def raw_fingerprint(self) -> str:
        """SHA-256 hex digest of the entire blob, header included.

        This is the fingerprint of a packed index and what the save
        manifest records for its ``.pack`` file (the blob *is* its
        serialized form), computed straight off the attached buffer — no
        second file read.
        """
        return hashlib.sha256(self._buffer).hexdigest()

    def has_column(self, name: str) -> bool:
        return name in self._directory

    def column_names(self) -> Sequence[str]:
        return sorted(self._directory)

    def size_bytes(self) -> int:
        return len(self._buffer)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<PackedBlob strategy={self.strategy!r} columns="
            f"{len(self._directory)} bytes={self.size_bytes()} "
            f"from {self._source}>"
        )
