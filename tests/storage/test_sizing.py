"""Unit tests for byte-size helpers."""

from repro.storage.sizing import format_bytes


class TestFormatBytes:
    def test_bytes(self):
        assert format_bytes(512) == "512 B"

    def test_kilobytes(self):
        assert format_bytes(2048) == "2.0 KB"

    def test_megabytes(self):
        assert format_bytes(27 * 1024 * 1024) == "27.0 MB"

    def test_boundary(self):
        assert format_bytes(1023) == "1023 B"
        assert format_bytes(1024) == "1.0 KB"
