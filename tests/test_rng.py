"""The seeded byte stream: every draw accounted for, across chunk boundaries."""

import bisect
import hashlib
import math

import numpy as np
import pytest

from dwpt_auth import ibe, ring
from dwpt_auth.ring import GaussianTrials, sample_gaussian_int
from dwpt_auth.rng import RandomSource

#: Bytes per SHAKE-256 call of the stream's definition.
REF_CHUNK = 1024


class ReferenceStream:
    """shake_256(key || chunk index as u64 LE).digest(1024) chunks read front
    to back, with the samplers written out one word at a time."""

    def __init__(self, key: bytes):
        self.key = key
        self.data = b""
        self.pos = 0
        self.trials = 0

    def peek(self, n):
        while len(self.data) < self.pos + n:
            index = len(self.data) // REF_CHUNK
            chunk = hashlib.shake_256(self.key + index.to_bytes(8, "little"))
            self.data += chunk.digest(REF_CHUNK)
        return self.data[self.pos : self.pos + n]

    def bytes(self, n):
        out = self.peek(n)
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
            self.trials += 1
            u = self.u64()
            z0 = bisect.bisect_right(cdf, (u >> 11) * (1.0 / (1 << 53)))
            z = 1 + z0 if u & 1 else -z0
            x = (z - r) * (z - r) * inv_2s2 - z0 * z0 * ring._BASE_INV_2S2
            if self.uniform() < math.exp(-x):
                return base + z


def test_known_answer():
    assert RandomSource(0).bytes(32).hex() == (
        "8efdfd26df0abe57790633ba2b4fe1a420117a87830ece8f9d654dce35653e41"
    )


@pytest.mark.parametrize("lead", [REF_CHUNK - 24, REF_CHUNK - 2, REF_CHUNK, REF_CHUNK + 6])
def test_every_byte_is_accounted_for(lead):
    """The same draws starting just before, on and just after the first
    chunk boundary."""
    rng = RandomSource(f"accounting-{lead}")
    ref = ReferenceStream(rng.key)

    def gaussian_run(n, offset):
        with GaussianTrials(rng) as trials:
            for i in range(n):
                center, sigma = offset + 0.37 * i, 1.2 + (i % 7) * 0.1
                assert sample_gaussian_int(center, sigma, trials) == ref.gaussian_int(center, sigma)

    assert rng.bytes(lead) == ref.bytes(lead)
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
    assert rng.peek(40) == ref.peek(40)
    assert rng.position == ref.pos  # peeking consumes nothing
    rng.skip(11)
    ref.pos += 11
    assert rng.bytes(100) == ref.bytes(100)
    assert rng.position == ref.pos


def test_interleaved_sources_draw_as_if_alone():
    """Decoded trials belong to one cursor: alternating between cursors over
    two sources gives each the draws and the next bytes it gives alone."""
    alone = RandomSource("alone")
    with GaussianTrials(alone) as trials:
        expected = [sample_gaussian_int(0.1 * i, 1.9, trials) for i in range(300)]
    a, b = RandomSource("alone"), RandomSource("alone")
    b.bytes(5)
    other = ReferenceStream(b.key)
    other.bytes(5)
    with GaussianTrials(a) as ta, GaussianTrials(b) as tb:
        for i in range(300):
            assert sample_gaussian_int(0.1 * i, 1.9, ta) == expected[i]
            assert sample_gaussian_int(-0.1 * i, 1.3, tb) == other.gaussian_int(-0.1 * i, 1.3)
    assert a.bytes(16) == alone.bytes(16)
    assert b.bytes(16) == other.bytes(16)


def test_walk_consumes_sixteen_bytes_per_trial(test_authority, monkeypatch):
    """sample_near reads its leaves through one cursor: it returns the point
    that the reference's trial-by-trial leaves give, and leaves its source
    16 bytes further on for each trial they read."""
    msk = test_authority.msk
    N, q = msk.params.N, msk.params.q
    target = (np.arange(2 * N, dtype=np.int64) * 7919) % q
    sigma = msk.params.sigma_extract
    rng = RandomSource("walk")
    v = msk.sampler().sample_near(target, sigma, rng)

    ref = ReferenceStream(rng.key)
    monkeypatch.setattr(
        ibe, "sample_gaussian_int", lambda center, width, _: ref.gaussian_int(center, width)
    )
    assert np.array_equal(msk.sampler().sample_near(target, sigma, RandomSource("walk")), v)
    assert ref.trials >= 2 * N  # one leaf draw per coordinate
    assert rng.position == ref.pos == 16 * ref.trials
