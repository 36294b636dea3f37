"""The one binary framing behind every wire and file format in the package.

`Writer` appends little-endian integers, u32-length-prefixed blobs and raw
fields.  `Reader` takes them back in the same order and is exact: a read
past the end, or bytes left over at `done()`, raises DecodeError.  Protocol
payloads are the exception: each is a plain concatenation of fixed-width
fields, which `protocol._parse` slices.
"""

from __future__ import annotations

import struct

from dwpt_auth.errors import DecodeError

_U16, _U32, _U64 = (struct.Struct(f) for f in ("<H", "<I", "<Q"))


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
    u16, u32, u64 = map(_put, (_U16, _U32, _U64))

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
    u16, u32, u64 = map(_get, (_U16, _U32, _U64))

    def __init__(self, data: bytes):
        self.data = data
        self.off = 0

    def _claim(self, n: int) -> int:
        """Offset of the next n bytes, which the reader then moves past."""
        off = self.off
        if off + n > len(self.data):
            raise DecodeError(
                f"truncated: {n} bytes wanted at offset {off}, {len(self.data) - off} left"
            )
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

