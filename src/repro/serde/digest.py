"""Per-slot digests for the dirty-slot delta reply protocol.

After the server deserializes a call's arguments, every retained
linear-map slot gets a *digest*: a canonical shallow encoding of the
slot's state (primitives by value, references by pinned identity). When
the reply is built, the digests are recomputed and compared — slots whose
digests still match are **clean** and are elided from the reply; the rest
are **dirty** and ship in full. The guarantee is conservative: equal
digests imply the slot is unchanged, while a false "dirty" merely costs
bytes, never correctness.

Why not reuse the request-stream bytes directly? A slot's stream encoding
embeds handle numbers assigned in stream order, so re-encoding the same
unchanged slot inside a *reply* stream yields different bytes. The
canonical shallow token below is order-independent: value-encode
primitives, recurse through immutable containers, and reduce every other
reference to its ``id()``. Identity tokens are sound because every
id-tokenized object is *pinned* (a strong reference is kept for the life
of the digest table), so CPython cannot recycle its id for a new object
allocated during the call.
"""

from __future__ import annotations

from typing import Any, List

from repro.errors import RestoreError
from repro.serde.accessors import FieldAccessor
from repro.serde.kinds import Kind, classify
from repro.util.buffers import BufferWriter

# Token tags for the canonical shallow encoding. These never travel on the
# wire — both digest passes run on the same server — but keeping them
# disjoint makes the encoding prefix-free and unambiguous.
_T_NONE = 0
_T_TRUE = 1
_T_FALSE = 2
_T_INT = 3
_T_FLOAT = 4
_T_COMPLEX = 5
_T_STR = 6
_T_BYTES = 7
_T_TUPLE = 8
_T_FROZENSET = 9
_T_REF = 10
_T_BIGINT = 11

_MAX_IMMUTABLE_DEPTH = 16

#: Number of full linear-map walks :func:`digest_slots` has performed in
#: this process. Test observability for the fused decode+digest pass: a
#: delta call whose "before" table was captured during decoding
#: performs exactly one walk (reply time) instead of two.
walk_count = 0


class SlotDigestTable:
    """Digests for one retained list, plus the pins keeping ids stable."""

    __slots__ = ("tokens", "sizes", "_pins")

    def __init__(self, tokens: List[bytes], sizes: List[int], pins: List[Any]) -> None:
        self.tokens = tokens
        self.sizes = sizes
        self._pins = pins

    def __len__(self) -> int:
        return len(self.tokens)

    def dirty_indices(self, current: "SlotDigestTable") -> List[int]:
        """Positions whose digest changed between this table and *current*."""
        if len(current.tokens) != len(self.tokens):
            raise RestoreError(
                "digest tables cover different retained lists: "
                f"{len(self.tokens)} vs {len(current.tokens)} slots"
            )
        return [
            index
            for index, (before, after) in enumerate(
                zip(self.tokens, current.tokens)
            )
            if before != after
        ]


def _encode_value(writer: BufferWriter, value: Any, pins: List[Any], depth: int) -> None:
    """Append the shallow token of one referenced *value*."""
    value_type = type(value)
    if value is None:
        writer.write_u8(_T_NONE)
    elif value_type is bool:
        writer.write_u8(_T_TRUE if value else _T_FALSE)
    elif value_type is int:
        if -(1 << 63) <= value < (1 << 63):
            writer.write_u8(_T_INT)
            writer.write_varint(value)
        else:
            writer.write_u8(_T_BIGINT)
            writer.write_len_bytes(repr(value).encode("ascii"))
    elif value_type is float:
        writer.write_u8(_T_FLOAT)
        writer.write_f64(value)
    elif value_type is complex:
        writer.write_u8(_T_COMPLEX)
        writer.write_f64(value.real)
        writer.write_f64(value.imag)
    elif value_type is str:
        writer.write_u8(_T_STR)
        writer.write_str(value)
    elif value_type is bytes:
        writer.write_u8(_T_BYTES)
        writer.write_len_bytes(value)
    elif value_type is tuple and depth < _MAX_IMMUTABLE_DEPTH:
        writer.write_u8(_T_TUPLE)
        writer.write_uvarint(len(value))
        for item in value:
            _encode_value(writer, item, pins, depth + 1)
    elif value_type is frozenset and depth < _MAX_IMMUTABLE_DEPTH:
        # Order-insensitive: XOR the per-element token hashes so two equal
        # frozensets digest identically whatever their iteration order.
        writer.write_u8(_T_FROZENSET)
        writer.write_uvarint(len(value))
        mixed = 0
        for item in value:
            item_writer = BufferWriter()
            _encode_value(item_writer, item, pins, depth + 1)
            mixed ^= hash(item_writer.getvalue())
        writer.write_i64(mixed & ((1 << 63) - 1))
    else:
        # Everything else (mutable objects, subclasses of primitives,
        # remote stubs, deep immutables) compares by identity. Pin the
        # object so its id stays unique for the table's lifetime.
        writer.write_u8(_T_REF)
        writer.write_uvarint(id(value))
        pins.append(value)


def _encode_slot(writer: BufferWriter, obj: Any, accessor: FieldAccessor, pins: List[Any]) -> None:
    """Append the canonical shallow encoding of one linear-map slot."""
    kind = classify(obj)
    if kind is Kind.OBJECT:
        state = accessor.get_state(obj)
        writer.write_uvarint(len(state))
        for name, value in state:
            writer.write_str(name)
            _encode_value(writer, value, pins, 0)
    elif kind is Kind.LIST:
        writer.write_uvarint(len(obj))
        for item in obj:
            _encode_value(writer, item, pins, 0)
    elif kind is Kind.DICT:
        writer.write_uvarint(len(obj))
        for key, value in obj.items():
            _encode_value(writer, key, pins, 0)
            _encode_value(writer, value, pins, 0)
    elif kind is Kind.SET:
        # Order-insensitive mix, same trick as frozensets above.
        writer.write_uvarint(len(obj))
        mixed = 0
        for item in obj:
            item_writer = BufferWriter()
            _encode_value(item_writer, item, pins, 0)
            mixed ^= hash(item_writer.getvalue())
        writer.write_i64(mixed & ((1 << 63) - 1))
    elif kind is Kind.BYTEARRAY:
        writer.write_len_bytes(obj)
    else:
        raise RestoreError(f"cannot digest linear-map slot of kind {kind}")


def digest_slots(slots: List[Any], accessor: FieldAccessor) -> SlotDigestTable:
    """Digest every slot of a retained list.

    Historically ran twice per delta call: once right after
    deserialization (the "before" picture) and once at reply-encode time.
    With the fused decode+digest pass the "before" table is captured
    during deserialization itself, leaving only the reply-time walk here.
    """
    global walk_count
    walk_count += 1
    tokens: List[bytes] = []
    sizes: List[int] = []
    pins: List[Any] = []
    writer = BufferWriter()
    for obj in slots:
        writer.reset()
        _encode_slot(writer, obj, accessor, pins)
        token = writer.getvalue()
        tokens.append(token)
        sizes.append(len(token))
    return SlotDigestTable(tokens, sizes, pins)
