"""The record framing: length-framed, CRC-checksummed compact JSON.

This module owns the one framing FliX writes: WAL files on disk and
shard RPC frames on the wire (:mod:`repro.shard.protocol`) are both
sequences of records built by :func:`encode_record` and checked by
:func:`decode_header` / :func:`decode_body`.

A log file is the 8-byte magic ``FLXWAL01`` followed by zero or more
records::

    +----------------+----------------+------------------------+
    | 4 bytes        | 4 bytes        | ``length`` bytes       |
    | big-endian u32 | big-endian u32 | UTF-8 JSON body        |
    | body length    | CRC-32 of body |                        |
    +----------------+----------------+------------------------+

Every body is compact JSON with sorted keys, so equal values frame to
equal bytes.  In a log the body is one :class:`WalRecord`:
``{"verb": ..., "generation": ..., "payload": {...}}``.  ``generation``
is the layout generation the verb *produces* — replay applies records
whose generation exceeds the loaded snapshot's and verifies the layout
lands exactly there (the generation is the replication cursor, see
``docs/DURABILITY.md``).

Torn-tail semantics: :func:`decode_records` walks the file front to
back and stops at the first record it cannot fully validate — a header
that announces more bytes than remain (a write cut short by a crash), a
CRC mismatch (a bit flip), unparsable JSON, or an implausible length.
Everything before that point is returned; everything from it on is
reported as ``discarded_bytes`` and never applied.  A corrupt *middle*
record is indistinguishable from a torn tail by design — the log is
only ever appended to, so the first bad byte ends the trustworthy
prefix either way.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

#: file magic: format name + version, 8 bytes so records stay aligned
WAL_MAGIC = b"FLXWAL01"

#: a single record body above this is corruption, not data (the largest
#: legitimate record is an ``add_batch`` of serialized documents; no
#: legitimate shard reply comes near it either)
MAX_RECORD_BYTES = 256 * 1024 * 1024

_HEADER = struct.Struct(">II")

#: bytes in front of every body: its length and its CRC-32
HEADER_SIZE = _HEADER.size

# one encoder for every body (``json.dumps`` with these arguments would
# build a new one per call, a cost every shard RPC pays twice)
_BODY_ENCODER = json.JSONEncoder(separators=(",", ":"), sort_keys=True)


def encode_record(data: Any) -> bytes:
    """``data`` framed: header + compact, key-sorted UTF-8 JSON body.

    Raises ``ValueError`` when the body exceeds :data:`MAX_RECORD_BYTES`
    (no reader would accept it) and ``TypeError`` when ``data`` is not
    JSON-native.
    """
    body = _BODY_ENCODER.encode(data).encode("utf-8")
    if len(body) > MAX_RECORD_BYTES:
        raise ValueError(
            f"record body of {len(body)} bytes exceeds MAX_RECORD_BYTES"
        )
    return _HEADER.pack(len(body), zlib.crc32(body)) + body


def decode_header(data: bytes, offset: int = 0) -> Tuple[int, int]:
    """``(length, crc)`` of the header at ``offset``; ``ValueError`` when
    the length is implausible (above :data:`MAX_RECORD_BYTES`)."""
    length, crc = _HEADER.unpack_from(data, offset)
    if length > MAX_RECORD_BYTES:
        raise ValueError(
            f"header announces {length} bytes (> MAX_RECORD_BYTES)"
        )
    return length, crc


def decode_body(body: bytes, crc: int) -> Any:
    """The JSON value of one body; ``ValueError`` when it fails its
    CRC-32 or is not UTF-8 JSON (nesting too deep to decode included)."""
    if zlib.crc32(body) != crc:
        raise ValueError("body fails its CRC-32 check")
    try:
        return json.loads(body.decode("utf-8"))
    except RecursionError as exc:
        raise ValueError("body nests too deeply to decode") from exc


class WalError(RuntimeError):
    """Base class for WAL format violations."""


class WalCorruptionError(WalError):
    """The log's magic is wrong or a record fails validation where the
    caller demanded strictness (replay mismatches, bad file preamble)."""


@dataclass(frozen=True)
class WalRecord:
    """One logged maintenance verb (or the ``begin`` base marker)."""

    verb: str
    #: the layout generation after applying this verb
    generation: int
    payload: Dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> Dict[str, Any]:
        """The record's JSON body (also what ``wal_pull`` ships)."""
        return {
            "verb": self.verb,
            "generation": self.generation,
            "payload": self.payload,
        }

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "WalRecord":
        return cls(
            verb=data["verb"],
            generation=int(data["generation"]),
            payload=data.get("payload", {}),
        )

    def to_bytes(self) -> bytes:
        """The full framed record (header + body), ready to append."""
        return encode_record(self.to_json())

    @classmethod
    def from_body(cls, body: bytes) -> "WalRecord":
        return cls.from_json(json.loads(body.decode("utf-8")))


def decode_records(data: bytes) -> Tuple[List[WalRecord], int]:
    """Parse a whole log image into ``(records, discarded_bytes)``.

    ``data`` must start with :data:`WAL_MAGIC` (raises
    :class:`WalCorruptionError` otherwise — a wrong magic means this is
    not a WAL at all, silently returning nothing would mask it).
    ``discarded_bytes`` counts the unusable tail: 0 for a clean log.
    """
    if data[: len(WAL_MAGIC)] != WAL_MAGIC:
        raise WalCorruptionError(
            "not a FliX WAL: bad magic "
            f"{data[: len(WAL_MAGIC)]!r} (expected {WAL_MAGIC!r})"
        )
    records: List[WalRecord] = []
    offset = len(WAL_MAGIC)
    total = len(data)
    while offset < total:
        if total - offset < HEADER_SIZE:
            break  # torn header
        body_start = offset + HEADER_SIZE
        try:
            length, crc = decode_header(data, offset)
            if total - body_start < length:
                break  # torn body
            record = WalRecord.from_json(
                decode_body(data[body_start : body_start + length], crc)
            )
        except (ValueError, KeyError, TypeError):
            # an implausible length (a bit flip in the header), a
            # bit-flipped body, or a CRC that collided with garbage: do
            # not apply it
            break
        records.append(record)
        offset = body_start + length
    return records, total - offset


__all__ = [
    "HEADER_SIZE",
    "MAX_RECORD_BYTES",
    "WAL_MAGIC",
    "WalCorruptionError",
    "WalError",
    "WalRecord",
    "decode_body",
    "decode_header",
    "decode_records",
    "encode_record",
]
