"""The seeded byte stream: every draw accounted for, across chunk boundaries."""

import bisect
import hashlib
import math

import numpy as np
import pytest

from dwpt_auth import ibe, ring
from dwpt_auth.ring import GaussianTrials, gaussian_int_scale, sample_gaussian_int
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

    def gaussian_int(self, center, inv_2s2):
        """The base sampler's definition, one 16-byte trial at a time, at
        the width sigma of inv_2s2 = 1/(2 sigma^2)."""
        base = math.floor(center)
        r = center - base
        cdf = ring._BASE_CDF.tolist()
        while True:
            self.trials += 1
            u = self.u64()
            z0 = bisect.bisect_right(cdf, (u >> 11) * (1.0 / (1 << 53)))
            z = 1 + z0 if u & 1 else -z0
            x = (z - r) * (z - r) * inv_2s2 - z0 * z0 * ring._BASE_INV_2S2
            if self.uniform() < math.exp(-x):
                return base + z

    def gaussian_pair(self, center, inv_2s2):
        """A Gaussian integer around a complex center: the imaginary
        coordinate, then the real one."""
        odd = self.gaussian_int(center.imag, inv_2s2)
        return complex(self.gaussian_int(center.real, inv_2s2), odd)


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
                center = complex(offset + 0.37 * i, offset - 0.23 * i)
                inv_2s2 = gaussian_int_scale(1.2 + (i % 7) * 0.1)
                want = ref.gaussian_pair(center, inv_2s2)
                assert sample_gaussian_int(center, inv_2s2, trials) == want

    assert rng.bytes(lead) == ref.bytes(lead)
    assert rng.bytes(3) == ref.bytes(3)
    gaussian_run(5, 0.5)
    assert rng.u64() == ref.u64()
    gaussian_run(400, -2.25)  # crosses a chunk of decoded trials
    for n in (1, 7, 13, 33, 65):
        assert rng.bytes(n) == ref.bytes(n)
        gaussian_run(3, float(n))  # resumes at an odd offset
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


def test_buffered_and_straddling_reads_match_the_reference():
    """bytes, peek and skip in any order read what the reference reads, with
    the bytes already buffered, straddling a chunk boundary, or spanning
    several chunks."""
    rng = RandomSource("interleaved")
    ref = ReferenceStream(rng.key)
    steps = [
        ("bytes", 1000), ("bytes", 20), ("bytes", 8), ("peek", 5), ("skip", 3),
        ("bytes", 0), ("peek", 1030), ("bytes", 1), ("skip", 2000), ("bytes", 7),
        ("peek", 40), ("bytes", 2048), ("skip", 1), ("bytes", 32),
    ]
    for op, n in steps:
        if op == "bytes":
            assert rng.bytes(n) == ref.bytes(n), (op, n)
        elif op == "peek":
            assert rng.peek(n) == ref.peek(n), (op, n)
        else:
            rng.skip(n)
            ref.pos += n
        assert rng.position == ref.pos, (op, n)


def test_interleaved_sources_draw_as_if_alone():
    """Decoded trials belong to one cursor: alternating between cursors over
    two sources gives each the draws and the next bytes it gives alone."""
    wide, narrow = gaussian_int_scale(1.9), gaussian_int_scale(1.3)
    alone = RandomSource("alone")
    with GaussianTrials(alone) as trials:
        expected = [
            sample_gaussian_int(complex(0.1 * i, 0.2 * i), wide, trials) for i in range(150)
        ]
    a, b = RandomSource("alone"), RandomSource("alone")
    b.bytes(5)
    other = ReferenceStream(b.key)
    other.bytes(5)
    with GaussianTrials(a) as ta, GaussianTrials(b) as tb:
        for i in range(150):
            center = complex(-0.1 * i, 0.3 * i)
            assert sample_gaussian_int(complex(0.1 * i, 0.2 * i), wide, ta) == expected[i]
            assert sample_gaussian_int(center, narrow, tb) == other.gaussian_pair(center, narrow)
    assert a.bytes(16) == alone.bytes(16)
    assert b.bytes(16) == other.bytes(16)


def test_walk_consumes_sixteen_bytes_per_trial(test_authority, monkeypatch):
    """sample_near reads its leaves through one cursor: it returns the point
    that the reference's trial-by-trial leaves give, and leaves its source
    16 bytes further on for each trial they read."""
    msk = test_authority.msk
    N, q = msk.params.N, msk.params.q
    t = (np.arange(N, dtype=np.int64) * 7919) % q
    rng = RandomSource("walk")
    v = msk.sampler.sample_near(t[None], [rng])

    ref = ReferenceStream(rng.key)
    monkeypatch.setattr(
        ibe, "sample_gaussian_int", lambda center, inv_2s2, _: ref.gaussian_pair(center, inv_2s2)
    )
    assert np.array_equal(msk.sampler.sample_near(t[None], [RandomSource("walk")]), v)
    assert ref.trials >= 2 * N  # one leaf draw per coordinate
    assert rng.position == ref.pos == 16 * ref.trials


@pytest.mark.parametrize("first", [1, 37, 256])
def test_reads_past_the_first_decode_continue_in_chunks(first):
    """A cursor decodes `first` trials, then 256 at a time: draws that read
    past its first decode continue into the next chunk as the reference
    does, draw for draw, and closing leaves the source 16 bytes on per
    trial read."""
    rng = RandomSource(f"first-decode-{first}")
    ref = ReferenceStream(rng.key)
    inv_2s2 = gaussian_int_scale(1.7)
    trials = GaussianTrials(rng, first)
    assert len(trials.z) == first
    for i in range(200):
        center = complex(0.31 * i, -0.17 * i)
        assert sample_gaussian_int(center, inv_2s2, trials) == ref.gaussian_pair(center, inv_2s2)
    assert ref.trials > first + 256 and len(trials.z) == 256
    trials.close()
    assert rng.position == ref.pos == 16 * ref.trials
