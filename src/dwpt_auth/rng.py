"""Deterministic seeded randomness.

Every randomized operation in the package takes an explicit RandomSource so
that key files, protocol transcripts, and simulation traces are byte-identical
across runs for a fixed seed.  The generator is SHAKE-256 (FIPS 202), the XOF
that ML-KEM and ML-DSA expand seeds with, squeezed in chunks under a 32-byte
key; it is not intended to resist side channels (simulation artifact).  It is
the package's one extendable-output function: `ring.hash_to_ring`, the map H
into the ring, squeezes the stream of its tag and the data.
AES-256-CTR is faster per byte, but its first `cryptography` cipher costs
enrollment about 1 MB of resident memory (a fresh default `ra_setup` peaks at
42.8 MB with one, 41.8 MB without), and an encryptor takes longer to set up
(about 12 us) than a small source takes to squeeze its first chunk.
"""

from __future__ import annotations

import hashlib


def _as_seed_bytes(seed) -> bytes:
    if isinstance(seed, bytes):
        return hashlib.sha256(b"seed-bytes\x00" + seed).digest()
    if isinstance(seed, str):
        return hashlib.sha256(b"seed-str\x00" + seed.encode()).digest()
    if isinstance(seed, int):
        if seed < 0:
            raise ValueError("seed must be non-negative")
        return hashlib.sha256(b"seed-int\x00" + seed.to_bytes(16, "little")).digest()
    raise TypeError(f"unsupported seed type: {type(seed)!r}")


#: Bytes squeezed from each SHAKE-256 call of the stream.
CHUNK = 1024


class RandomSource:
    """SHAKE-256 chunk stream with convenience samplers.

    The stream is shake_256(key || chunk index as u64 LE).digest(CHUNK) for
    chunk index 0, 1, ..., the chunks concatenated; squeezed chunks are
    buffered and read from a position index.
    """

    def __init__(self, seed):
        self._key = _as_seed_bytes(seed)
        self._chunks = 0
        self._buf = b""
        self._pos = 0

    @property
    def key(self) -> bytes:
        """Derived 32-byte seed key; storing it reproduces every substream."""
        return self._key

    @property
    def position(self) -> int:
        """Bytes consumed so far: the stream offset of the next byte read."""
        return CHUNK * self._chunks - len(self._buf) + self._pos

    def child(self, tag: bytes | str) -> "RandomSource":
        """Independent substream; same (seed, tag) always yields the same child."""
        if isinstance(tag, str):
            tag = tag.encode()
        return RandomSource(b"child\x00" + self._key + b"\x00" + tag)

    def _fill(self, n: int) -> None:
        """Squeeze whole chunks until at least n unread bytes are buffered."""
        missing = n - len(self._buf) + self._pos
        if missing > 0:
            key, first = self._key, self._chunks
            count = -(-missing // CHUNK)
            self._buf = self._buf[self._pos :] + b"".join(
                hashlib.shake_256(key + c.to_bytes(8, "little")).digest(CHUNK)
                for c in range(first, first + count)
            )
            self._pos = 0
            self._chunks = first + count

    def peek(self, n: int) -> bytes:
        """The next n bytes of the stream, without consuming them."""
        self._fill(n)
        return self._buf[self._pos : self._pos + n]

    def skip(self, n: int) -> None:
        """Consume n bytes unread, as if by bytes(n)."""
        self._fill(n)
        self._pos += n

    def bytes(self, n: int) -> bytes:
        pos, end = self._pos, self._pos + n
        if end > len(self._buf):
            self._fill(n)
            pos, end = 0, n
        self._pos = end
        return self._buf[pos:end]

    def u64(self) -> int:
        return int.from_bytes(self.bytes(8), "little")

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound) via rejection sampling."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        if bound > (1 << 64):
            nbits = (bound - 1).bit_length()
            nbytes = (nbits + 7) // 8
            while True:
                x = int.from_bytes(self.bytes(nbytes), "little") >> (8 * nbytes - nbits)
                if x < bound:
                    return x
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            x = self.u64()
            if x < limit:
                return x % bound
