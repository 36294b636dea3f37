"""The one binary framing behind every wire and file format in the package.

`Writer` appends little-endian integers and doubles, u32-length-prefixed
blobs and raw fields.  `Reader` takes them back in the same order and is
exact: a read past the end, or bytes left over at `done()`, raises
DecodeError.  `tlv_pack`/`tlv_unpack` frame protocol payloads on top as
numbered, length-prefixed fields.
"""

from __future__ import annotations

import struct

from dwpt_auth.errors import DecodeError

_U16, _U32, _U64, _F64 = (struct.Struct(f) for f in ("<H", "<I", "<Q", "<d"))
_TLV_HEAD = struct.Struct("<BI")  # field tag, value length


def _truncated(n: int, off: int, size: int) -> DecodeError:
    return DecodeError(f"truncated: {n} bytes wanted at offset {off}, {size - off} left")


def _put(s: struct.Struct):
    def put(self, x):
        self.buf += s.pack(x)
    return put


def _get(s: struct.Struct):
    def get(self):
        return s.unpack_from(self.data, self._claim(s.size))[0]
    return get


class Writer:
    """Append-only encoder; `getvalue()` returns what was written."""

    __slots__ = ("buf",)
    u16, u32, u64, f64 = map(_put, (_U16, _U32, _U64, _F64))

    def __init__(self):
        self.buf = bytearray()

    def getvalue(self) -> bytes:
        return bytes(self.buf)

    def u8(self, x: int):
        self.buf.append(x)

    def raw(self, b: bytes):
        """Bytes as they are; the reader must know their length."""
        self.buf += b

    def fixed(self, b: bytes, n: int):
        """Exactly n bytes, no prefix."""
        if len(b) != n:
            raise ValueError(f"expected {n}-byte field, got {len(b)}")
        self.buf += b

    def blob(self, b: bytes):
        """u32 length, then the bytes."""
        self.buf += _U32.pack(len(b))
        self.buf += b


class Reader:
    """Exact-length decoder over one bytes object."""

    __slots__ = ("data", "off")
    u16, u32, u64, f64 = map(_get, (_U16, _U32, _U64, _F64))

    def __init__(self, data: bytes):
        self.data = data
        self.off = 0

    def _claim(self, n: int) -> int:
        """Offset of the next n bytes, which the reader then moves past."""
        off = self.off
        if off + n > len(self.data):
            raise _truncated(n, off, len(self.data))
        self.off = off + n
        return off

    def u8(self) -> int:
        return self.data[self._claim(1)]

    def fixed(self, n: int) -> bytes:
        off = self._claim(n)
        return self.data[off : off + n]

    def blob(self) -> bytes:
        return self.fixed(self.u32())

    def done(self):
        """Require that every byte was read."""
        if self.off != len(self.data):
            raise DecodeError(f"{len(self.data) - self.off} trailing bytes")


def tlv_pack(*fields: bytes) -> bytes:
    """Deterministic tag-length-value: u8 tags 1..k in order, u32 lengths."""
    return b"".join([_TLV_HEAD.pack(tag, len(v)) + v for tag, v in enumerate(fields, 1)])


def tlv_unpack(data: bytes, count: int) -> list[bytes]:
    """Inverse of tlv_pack for exactly `count` fields.

    Fails as a `Reader` reading the u8 tag, the u32 length and the value in
    turn would, with the same DecodeError: a wrong tag is reported before a
    truncation, and trailing bytes last.
    """
    size = len(data)
    off = 0
    fields = []
    for tag in range(1, count + 1):
        if off + _TLV_HEAD.size <= size:
            got, n = _TLV_HEAD.unpack_from(data, off)
        elif off < size:  # a tag byte, then less than a length
            got, n = data[off], None
        else:
            raise _truncated(1, off, size)
        if got != tag:
            raise DecodeError(f"field tag {got} where {tag} expected")
        if n is None:
            raise _truncated(4, off + 1, size)
        off += _TLV_HEAD.size
        if off + n > size:
            raise _truncated(n, off, size)
        fields.append(data[off : off + n])
        off += n
    if off != size:
        raise DecodeError(f"{size - off} trailing bytes")
    return fields
