"""Deterministic seeded randomness.

Every randomized operation in the package takes an explicit RandomSource so
that key files, protocol transcripts, and simulation traces are byte-identical
across runs for a fixed seed.  The generator is SHA-256 in counter mode over a
32-byte seed: portable, auditable, and independent of any library's RNG
stream.  It is not intended to resist side channels (simulation artifact).
"""

from __future__ import annotations

import hashlib

import numpy as np


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


#: Counter blocks hashed per refill at least; the stream is the same
#: whatever the batch, only the hashing ahead changes.
_REFILL_BLOCKS = 8


class RandomSource:
    """SHA-256 counter-mode byte stream with convenience samplers.

    The stream is sha256(key || counter as u64 LE) for counter = 0, 1, ...;
    hashed blocks are buffered and read from a position index.
    """

    def __init__(self, seed):
        self._key = _as_seed_bytes(seed)
        self._counter = 0
        self._buf = b""
        self._pos = 0

    @property
    def key(self) -> bytes:
        """Derived 32-byte seed key; storing it reproduces every substream."""
        return self._key

    @property
    def position(self) -> int:
        """Bytes consumed so far: the stream offset of the next byte read."""
        return 32 * self._counter - len(self._buf) + self._pos

    def child(self, tag: bytes | str) -> "RandomSource":
        """Independent substream; same (seed, tag) always yields the same child."""
        if isinstance(tag, str):
            tag = tag.encode()
        return RandomSource(b"child\x00" + self._key + b"\x00" + tag)

    def _fill(self, n: int) -> None:
        """Hash ahead until at least n unread bytes are buffered."""
        missing = n - len(self._buf) + self._pos
        if missing > 0:
            key, first = self._key, self._counter
            n_blocks = max(_REFILL_BLOCKS, -(-missing // 32))
            self._buf = self._buf[self._pos :] + b"".join(
                hashlib.sha256(key + c.to_bytes(8, "little")).digest()
                for c in range(first, first + n_blocks)
            )
            self._pos = 0
            self._counter = first + n_blocks

    def peek(self, n: int) -> bytes:
        """The next n bytes of the stream, without consuming them."""
        self._fill(n)
        return self._buf[self._pos : self._pos + n]

    def skip(self, n: int) -> None:
        """Consume n bytes unread, as if by bytes(n)."""
        self._fill(n)
        self._pos += n

    def bytes(self, n: int) -> bytes:
        out = self.peek(n)
        self._pos += n
        return out

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

    def uniform(self) -> float:
        """Uniform float in [0, 1) with 53 bits of precision."""
        return (self.u64() >> 11) * (1.0 / (1 << 53))

    def uniforms(self, n: int) -> np.ndarray:
        raw = np.frombuffer(self.bytes(8 * n), dtype="<u8")
        return (raw >> np.uint64(11)) * (1.0 / (1 << 53))
