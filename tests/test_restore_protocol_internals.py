"""Unit tests for restore-protocol internals: the oldref index coding."""

import pytest

from repro.core.restore_protocol import _decode_index, _encode_index


class TestIndexCoding:
    @pytest.mark.parametrize("index", [0, 1, 127, 128, 2**20])
    def test_roundtrip(self, index):
        assert _decode_index(_encode_index(index)) == index

    def test_trailing_bytes_rejected(self):
        from repro.errors import WireFormatError

        with pytest.raises(WireFormatError):
            _decode_index(_encode_index(1) + b"\x00")
