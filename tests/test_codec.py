"""The shared framing: exact reads, one error type, a leaf module."""

import ast
from pathlib import Path

import pytest

from dwpt_auth import codec
from dwpt_auth.codec import Reader, Writer
from dwpt_auth.errors import DecodeError


def sample() -> bytes:
    w = Writer()
    w.u8(7)
    w.u16(513)
    w.u32(70000)
    w.u64(1 << 40)
    w.blob(b"abc")
    w.fixed(b"xy", 2)
    w.raw(b"z")
    return w.getvalue()


def test_round_trip():
    r = Reader(sample())
    assert (r.u8(), r.u16(), r.u32(), r.u64()) == (7, 513, 70000, 1 << 40)
    assert (r.blob(), r.fixed(2), r.fixed(1)) == (b"abc", b"xy", b"z")
    r.done()


def test_little_endian_layout():
    assert sample()[:15] == bytes.fromhex("07" "0102" "70110100" "0000000000010000")


def test_every_truncation_raises_decode_error():
    blob = sample()
    for cut in range(len(blob)):
        r = Reader(blob[:cut])
        with pytest.raises(DecodeError, match="truncated"):
            r.u8(), r.u16(), r.u32(), r.u64(), r.blob(), r.fixed(2), r.fixed(1)


def test_leftover_bytes_raise_decode_error():
    r = Reader(b"\x01\x02")
    r.u8()
    with pytest.raises(DecodeError, match="1 trailing bytes"):
        r.done()


def test_blob_length_past_the_end():
    w = Writer()
    w.u32(5)
    w.raw(b"abcd")
    with pytest.raises(DecodeError):
        Reader(w.getvalue()).blob()


def test_writer_checks_fixed_width():
    with pytest.raises(ValueError, match="expected 32-byte field"):
        Writer().fixed(b"short", 32)


def test_decode_error_is_a_value_error():
    assert issubclass(DecodeError, ValueError)


def test_codec_is_a_leaf_module():
    """codec may import the standard library and dwpt_auth.errors, no more of
    the package, so every other module can use it without a cycle."""
    tree = ast.parse(Path(codec.__file__).read_text())
    internal = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            internal.update(a.name for a in node.names if a.name.startswith("dwpt_auth"))
        elif isinstance(node, ast.ImportFrom):
            if node.level or (node.module or "").startswith("dwpt_auth"):
                internal.add("." * node.level + (node.module or ""))
    assert internal == {"dwpt_auth.errors"}
