"""The seeded byte stream: every draw accounted for, whatever the buffering."""

import bisect
import hashlib
import math

import numpy as np
import pytest

from dwpt_auth import ring, rng as rng_module
from dwpt_auth.ring import sample_gaussian_int
from dwpt_auth.rng import RandomSource


class ReferenceStream:
    """sha256(key || counter as u64 LE) blocks read front to back, with the
    samplers written out one word at a time."""

    def __init__(self, key: bytes):
        self.data = b"".join(
            hashlib.sha256(key + c.to_bytes(8, "little")).digest() for c in range(2000)
        )
        self.pos = 0

    def bytes(self, n):
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def u64(self):
        return int.from_bytes(self.bytes(8), "little")

    def uniform(self):
        return (self.u64() >> 11) * (1.0 / (1 << 53))

    def below(self, bound):
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            x = self.u64()
            if x < limit:
                return x % bound

    def gaussian_int(self, center, sigma):
        """The base sampler's definition, one 16-byte trial at a time."""
        base = math.floor(center)
        r = center - base
        inv_2s2 = 0.5 / (sigma * sigma)
        cdf = ring._BASE_CDF.tolist()
        while True:
            u = self.u64()
            z0 = bisect.bisect_right(cdf, (u >> 11) * (1.0 / (1 << 53)))
            z = 1 + z0 if u & 1 else -z0
            x = (z - r) * (z - r) * inv_2s2 - z0 * z0 * ring._BASE_INV_2S2
            if self.uniform() < math.exp(-x):
                return base + z


@pytest.mark.parametrize("refill_blocks", [1, 3, 8, 50])
def test_every_byte_is_accounted_for(refill_blocks, monkeypatch):
    monkeypatch.setattr(rng_module, "_REFILL_BLOCKS", refill_blocks)
    rng = RandomSource(f"accounting-{refill_blocks}")
    ref = ReferenceStream(rng.key)

    def gaussian_run(n, offset):
        for i in range(n):
            center, sigma = offset + 0.37 * i, 1.2 + (i % 7) * 0.1
            assert sample_gaussian_int(center, sigma, rng) == ref.gaussian_int(center, sigma)

    assert rng.bytes(3) == ref.bytes(3)
    gaussian_run(5, 0.5)
    assert rng.u64() == ref.u64()
    gaussian_run(400, -2.25)  # crosses a chunk of decoded trials
    for n in (1, 7, 13, 33, 65):
        assert rng.bytes(n) == ref.bytes(n)
        gaussian_run(3, float(n))  # resumes at an odd offset
    assert rng.uniform() == ref.uniform()
    assert np.array_equal(rng.uniforms(9), [ref.uniform() for _ in range(9)])
    assert [rng.below(b) for b in (2, 97, 12289, (1 << 63) + 1)] == [
        ref.below(b) for b in (2, 97, 12289, (1 << 63) + 1)
    ]
    gaussian_run(50, 1e6 + 0.3)
    assert rng.position == ref.pos
    assert rng.peek(40) == ref.data[ref.pos : ref.pos + 40]
    assert rng.position == ref.pos  # peeking consumes nothing
    rng.skip(11)
    ref.pos += 11
    assert rng.bytes(100) == ref.bytes(100)
    assert rng.position == ref.pos


def test_interleaved_sources_draw_as_if_alone():
    """Decoded trials belong to one source: alternating between two sources
    gives each the draws and the next bytes it gives when used alone."""
    alone = RandomSource("alone")
    expected = [sample_gaussian_int(0.1 * i, 1.9, alone) for i in range(300)]
    a, b = RandomSource("alone"), RandomSource("alone")
    b.bytes(5)
    other = ReferenceStream(b.key)
    other.bytes(5)
    for i in range(300):
        assert sample_gaussian_int(0.1 * i, 1.9, a) == expected[i]
        assert sample_gaussian_int(-0.1 * i, 1.3, b) == other.gaussian_int(-0.1 * i, 1.3)
    assert a.bytes(16) == alone.bytes(16)
    assert b.bytes(16) == other.bytes(16)
