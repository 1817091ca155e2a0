"""FLXPACK blob integrity: damage is detected at attach, never served.

The blob's trust model is "verify once, then zero-copy": the payload
digest in the 64-byte header is checked when the blob is attached, so
every later column access can hand out raw memory without re-checking.
These tests damage blobs in every region — header fields, directory,
column bytes, metadata JSON — and assert the damage surfaces as
:class:`CorruptionError` (or :class:`IntegrityError` at the save level),
and that :func:`repair_flix` brings a damaged save back byte-identical.
"""

import hashlib
import struct

import pytest

from repro.core.config import FlixConfig
from repro.core.framework import Flix
from repro.core.persistence import (
    IntegrityError,
    load_flix,
    repair_flix,
    verify_flix,
)
from repro.indexes.packed import (
    FORMAT_VERSION,
    HEADER_BYTES,
    MAGIC,
    BlobWriter,
    PackedBlob,
)
from repro.storage.errors import CorruptionError


def sample_blob_bytes(meta=None):
    writer = BlobWriter("ppo", meta=meta or {"tags": ["a", "b"]})
    writer.add_column("nodes", [3, 1, 4, 1, 5])
    writer.add_column("sizes", [9, 2, 6, 5, 3])
    writer.add_column("empty", [])
    return writer.to_bytes()


def rehash(data: bytes) -> bytes:
    """Recompute the header digest after a deliberate payload edit.

    Needed to reach the *post-attach* validation layers (name decoding,
    lazy metadata JSON parse): without a consistent digest the attach
    itself rejects the blob before they run.
    """
    digest = hashlib.sha256(data[HEADER_BYTES:]).digest()
    return data[:16] + digest + data[48:]


class TestWriterValidation:
    def test_roundtrip(self):
        blob = PackedBlob.from_bytes(sample_blob_bytes())
        assert blob.strategy == "ppo"
        assert blob.meta == {"tags": ["a", "b"]}
        assert sorted(blob.column_names()) == ["empty", "nodes", "sizes"]
        assert blob.column_list("nodes") == [3, 1, 4, 1, 5]
        assert blob.column_list("empty") == []

    def test_equal_content_packs_to_equal_bytes(self):
        assert sample_blob_bytes() == sample_blob_bytes()

    def test_strategy_name_too_long(self):
        with pytest.raises(ValueError, match="16 bytes"):
            BlobWriter("a-strategy-name-way-too-long")

    def test_column_name_too_long(self):
        writer = BlobWriter("ppo")
        with pytest.raises(ValueError, match="24 bytes"):
            writer.add_column("a-column-name-that-is-too-long", [1])

    def test_duplicate_column(self):
        writer = BlobWriter("ppo")
        writer.add_column("nodes", [1])
        with pytest.raises(ValueError, match="duplicate"):
            writer.add_column("nodes", [2])


class TestAttachValidation:
    def test_truncation_anywhere_is_detected(self, tmp_path):
        data = sample_blob_bytes()
        # below the header; mid-directory; mid-column region; one byte short
        for cut in (0, 17, HEADER_BYTES + 8, len(data) // 2, len(data) - 1):
            path = tmp_path / f"cut{cut}.pack"
            path.write_bytes(data[:cut])
            with pytest.raises(CorruptionError):
                PackedBlob.attach(path)

    def test_bit_flip_anywhere_is_detected(self):
        data = sample_blob_bytes()
        # every region: magic, version, digest, lengths, directory
        # header, column records, meta JSON, column payload bytes
        for offset in (0, 9, 20, 50, 60, 66, 100, len(data) - 60, len(data) - 2):
            flipped = bytearray(data)
            flipped[offset] ^= 0x40
            with pytest.raises(CorruptionError):
                PackedBlob.from_bytes(bytes(flipped))

    def test_appended_garbage_is_detected(self):
        with pytest.raises(CorruptionError):
            PackedBlob.from_bytes(sample_blob_bytes() + b"\x00" * 8)

    def test_wrong_version_is_detected(self):
        data = bytearray(sample_blob_bytes())
        struct.pack_into("<I", data, len(MAGIC), FORMAT_VERSION + 1)
        with pytest.raises(CorruptionError, match="version"):
            PackedBlob.from_bytes(rehash(bytes(data)))

    def test_missing_column_is_corruption(self):
        blob = PackedBlob.from_bytes(sample_blob_bytes())
        with pytest.raises(CorruptionError, match="missing column"):
            blob.column("absent")

    def test_undecodable_strategy_name(self):
        data = bytearray(sample_blob_bytes())
        # the strategy field sits after the two u32s of the directory header
        data[HEADER_BYTES + 8] = 0xFF
        with pytest.raises(CorruptionError, match="strategy"):
            PackedBlob.from_bytes(rehash(bytes(data)))

    def test_invalid_meta_json_surfaces_on_first_meta_access(self):
        data = sample_blob_bytes()
        json_bytes = b'{"tags": ["a", "b"]}'
        start = data.index(json_bytes)
        broken = bytearray(data)
        broken[start] = ord("[")  # same length, no longer a JSON object
        blob = PackedBlob.from_bytes(rehash(bytes(broken)))
        assert blob.strategy == "ppo"  # attach itself is fine: meta is lazy
        with pytest.raises(CorruptionError):
            blob.meta

    def test_raw_fingerprint_is_whole_file_digest(self):
        data = sample_blob_bytes()
        blob = PackedBlob.from_bytes(data)
        assert blob.raw_fingerprint() == hashlib.sha256(data).hexdigest()


class TestSavedBlobIntegrity:
    """Save-level detection and repair of a damaged ``.pack`` file."""

    @pytest.fixture()
    def saved(self, figure1_collection, tmp_path):
        flix = Flix.build(figure1_collection, FlixConfig.maximal_ppo())
        directory = tmp_path / "save"
        flix.save(directory)
        packs = sorted(directory.glob("*.pack"))
        assert packs, "a packed build must persist blobs"
        return flix, directory, packs

    def test_intact_save_verifies_clean(self, saved):
        flix, directory, _packs = saved
        assert verify_flix(flix.collection, directory) == []

    def test_truncated_blob_is_reported_and_refused(self, saved):
        flix, directory, packs = saved
        victim = packs[0]
        victim.write_bytes(victim.read_bytes()[:-16])
        assert victim.name in verify_flix(flix.collection, directory)
        with pytest.raises(IntegrityError):
            load_flix(flix.collection, directory)

    def test_bit_flipped_blob_is_reported_and_refused(self, saved):
        flix, directory, packs = saved
        victim = packs[-1]
        data = bytearray(victim.read_bytes())
        data[len(data) // 2] ^= 0x01
        victim.write_bytes(bytes(data))
        assert victim.name in verify_flix(flix.collection, directory)
        with pytest.raises(IntegrityError):
            load_flix(flix.collection, directory)

    def test_repair_restores_damaged_blob(self, saved):
        flix, directory, packs = saved
        victim = packs[0]
        original = victim.read_bytes()
        data = bytearray(original)
        data[HEADER_BYTES + 4] ^= 0x20
        victim.write_bytes(bytes(data))
        repaired = repair_flix(flix.collection, directory)
        assert victim.name in repaired
        # the format is deterministic: repair is byte-identical
        assert victim.read_bytes() == original
        assert verify_flix(flix.collection, directory) == []
        loaded = load_flix(flix.collection, directory)
        assert loaded.index_fingerprint() == flix.index_fingerprint()
