"""Deterministic binary packing of codec primitive trees.

Stage codecs (:mod:`repro.storage.codecs`) lower every pipeline artifact
into a *primitive tree* — a nesting of ``None``, booleans, integers,
floats, strings, bytes, tuples, lists and :class:`array.array` columns —
and this module turns such a tree into bytes and back.

The encoding is deterministic **by construction**: containers are written
in the order the codec built them, integers and lengths use a canonical
varint form, and no hash-ordered container (``dict``, ``set``) is
representable at all — codecs must lower those to explicitly ordered
pairs/tuples first.  That is what makes the golden byte-identity guarantee
(two fresh interpreters under different ``PYTHONHASHSEED`` values produce
identical artifact files) checkable rather than accidental.

The format is a compact tag-length-value stream:

====  =========  ============================================
tag   type       payload
====  =========  ============================================
0x00  ``None``   —
0x01  ``True``   —
0x02  ``False``  —
0x03  ``int``    zigzag varint
0x04  ``float``  8 bytes, IEEE-754 big-endian
0x05  ``str``    varint byte length + UTF-8 bytes
0x06  ``bytes``  varint length + raw bytes
0x07  ``tuple``  varint item count + packed items
0x08  ``list``   varint item count + packed items
0x09  ``array``  typecode byte + varint byte length + machine
                 bytes (:meth:`array.array.tobytes`)
====  =========  ============================================

Array columns use the machine byte order for speed (they are the bulk of
an artifact); :class:`repro.storage.store.DiskStore` records the byte
order in the file header and refuses cross-endian reads.
"""

from __future__ import annotations

import struct
from array import array

from repro.exceptions import StorageError

_FLOAT = struct.Struct(">d")

_TAG_NONE = 0x00
_TAG_TRUE = 0x01
_TAG_FALSE = 0x02
_TAG_INT = 0x03
_TAG_FLOAT = 0x04
_TAG_STR = 0x05
_TAG_BYTES = 0x06
_TAG_TUPLE = 0x07
_TAG_LIST = 0x08
_TAG_ARRAY = 0x09


def _write_uvarint(out: bytearray, value: int) -> None:
    """Append an unsigned LEB128 varint to ``out``."""
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _write_varint(out: bytearray, value: int) -> None:
    """Append a signed (zigzag) varint to ``out``.

    Non-negative values map to even numbers, negatives to odd ones, so
    small magnitudes stay small regardless of sign.
    """
    _write_uvarint(out, (value << 1) ^ (-1 if value < 0 else 0))


def _pack_into(out: bytearray, obj: object) -> None:
    """Append the packed form of one primitive-tree node to ``out``."""
    if obj is None:
        out.append(_TAG_NONE)
    elif obj is True:
        out.append(_TAG_TRUE)
    elif obj is False:
        out.append(_TAG_FALSE)
    elif type(obj) is int:
        out.append(_TAG_INT)
        _write_varint(out, obj)
    elif isinstance(obj, float):
        out.append(_TAG_FLOAT)
        out.extend(_FLOAT.pack(obj))
    elif isinstance(obj, str):
        encoded = obj.encode("utf-8")
        out.append(_TAG_STR)
        _write_uvarint(out, len(encoded))
        out.extend(encoded)
    elif isinstance(obj, (bytes, bytearray)):
        out.append(_TAG_BYTES)
        _write_uvarint(out, len(obj))
        out.extend(obj)
    elif isinstance(obj, tuple):
        out.append(_TAG_TUPLE)
        _write_uvarint(out, len(obj))
        for item in obj:
            _pack_into(out, item)
    elif isinstance(obj, list):
        out.append(_TAG_LIST)
        _write_uvarint(out, len(obj))
        for item in obj:
            _pack_into(out, item)
    elif isinstance(obj, array):
        raw = obj.tobytes()
        out.append(_TAG_ARRAY)
        out.append(ord(obj.typecode))
        _write_uvarint(out, len(raw))
        out.extend(raw)
    elif isinstance(obj, int):  # int subclasses (ASN, IntEnum): store the value
        out.append(_TAG_INT)
        _write_varint(out, int(obj))
    else:
        raise StorageError(
            f"cannot pack {type(obj).__name__!r}: codecs must lower artifacts "
            "to None/bool/int/float/str/bytes/tuple/list/array trees"
        )


def pack(obj: object) -> bytes:
    """Serialize a primitive tree into deterministic bytes.

    Args:
        obj: a nesting of ``None``, ``bool``, ``int`` (any subclass),
            ``float``, ``str``, ``bytes``, ``tuple``, ``list`` and
            :class:`array.array` values.

    Returns:
        The packed byte string.  Equal trees always pack to equal bytes,
        in any interpreter, regardless of ``PYTHONHASHSEED``.

    Raises:
        StorageError: if the tree contains an unsupported type (notably
            ``dict``/``set``, which have no canonical order).
    """
    out = bytearray()
    _pack_into(out, obj)
    return bytes(out)


class _Reader:
    """Cursor over a packed byte string."""

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes) -> None:
        """Start a cursor at the beginning of ``data``."""
        self.data = data
        self.pos = 0

    def take(self, count: int) -> bytes:
        """Consume and return the next ``count`` bytes."""
        end = self.pos + count
        if end > len(self.data):
            raise StorageError("truncated packed data")
        chunk = self.data[self.pos : end]
        self.pos = end
        return chunk

    def uvarint(self) -> int:
        """Consume one unsigned varint."""
        shift = 0
        value = 0
        while True:
            if self.pos >= len(self.data):
                raise StorageError("truncated varint in packed data")
            byte = self.data[self.pos]
            self.pos += 1
            value |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return value
            shift += 7

    def varint(self) -> int:
        """Consume one signed (zigzag) varint."""
        raw = self.uvarint()
        return (raw >> 1) if not raw & 1 else -((raw + 1) >> 1)


def _unpack_from(reader: _Reader) -> object:
    """Read one primitive-tree node from ``reader``."""
    tag = reader.take(1)[0]
    if tag == _TAG_NONE:
        return None
    if tag == _TAG_TRUE:
        return True
    if tag == _TAG_FALSE:
        return False
    if tag == _TAG_INT:
        return reader.varint()
    if tag == _TAG_FLOAT:
        return _FLOAT.unpack(reader.take(8))[0]
    if tag == _TAG_STR:
        return reader.take(reader.uvarint()).decode("utf-8")
    if tag == _TAG_BYTES:
        return reader.take(reader.uvarint())
    if tag == _TAG_TUPLE:
        return tuple(_unpack_from(reader) for _ in range(reader.uvarint()))
    if tag == _TAG_LIST:
        return [_unpack_from(reader) for _ in range(reader.uvarint())]
    if tag == _TAG_ARRAY:
        typecode = chr(reader.take(1)[0])
        column = array(typecode)
        column.frombytes(reader.take(reader.uvarint()))
        return column
    raise StorageError(f"unknown packing tag 0x{tag:02x}")


def unpack(data: bytes) -> object:
    """Deserialize bytes produced by :func:`pack` back into a primitive tree.

    Args:
        data: the packed byte string.

    Returns:
        The primitive tree (tuples stay tuples, lists stay lists, arrays
        keep their typecode).

    Raises:
        StorageError: on truncated input, unknown tags or trailing bytes.
    """
    reader = _Reader(data)
    tree = _unpack_from(reader)
    if reader.pos != len(data):
        raise StorageError(
            f"{len(data) - reader.pos} trailing byte(s) after packed tree"
        )
    return tree
