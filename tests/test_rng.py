"""The seeded byte stream: every draw accounted for, across chunk boundaries."""

import bisect
import hashlib
import math

import numpy as np
import pytest

from dwpt_auth import ibe, ring
from dwpt_auth.ring import sample_gaussian_int
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

    def trial(self, center, sigma):
        """One 16-byte trial of the base sampler's definition around a real
        center at width sigma: the integer it keeps, or None."""
        base = math.floor(center)
        r = center - base
        cdf = ring._BASE_CDF.tolist()
        self.trials += 1
        u = self.u64()
        z0 = bisect.bisect_right(cdf, (u >> 11) * (1.0 / (1 << 53)))
        z = 1 + z0 if u & 1 else -z0
        x = (z - r) * (z - r) * (0.5 / (sigma * sigma)) - z0 * z0 * ring._BASE_INV_2S2
        return base + z if self.uniform() < math.exp(-x) else None

    def gaussian_ints(self, centers, sigma):
        """The integer step's definition, one trial at a time: rounds of one
        trial per center still without its integer, in index order."""
        out = [None] * len(centers)
        pending = list(range(len(centers)))
        while pending:
            for i in pending:
                out[i] = self.trial(centers[i], sigma)
            pending = [i for i in pending if out[i] is None]
        return out


def test_known_answer():
    assert RandomSource(0).bytes(32).hex() == (
        "8efdfd26df0abe57790633ba2b4fe1a420117a87830ece8f9d654dce35653e41"
    )


def test_seed_of_no_stream_refused():
    """A negative integer has no seed encoding and a float is no seed type."""
    with pytest.raises(ValueError, match="non-negative"):
        RandomSource(-1)
    with pytest.raises(TypeError, match="unsupported seed type"):
        RandomSource(1.5)


def test_below_an_empty_range_refused():
    with pytest.raises(ValueError, match="bound must be positive"):
        RandomSource("below").below(0)


@pytest.mark.parametrize("lead", [REF_CHUNK - 24, REF_CHUNK - 2, REF_CHUNK, REF_CHUNK + 6])
def test_every_byte_is_accounted_for(lead):
    """The same draws starting just before, on and just after the first
    chunk boundary."""
    rng = RandomSource(f"accounting-{lead}")
    ref = ReferenceStream(rng.key)

    def gaussian_run(n, offset):
        for k, sigma in enumerate((1.28, 1.9, 0.7)):
            centers = offset + 0.37 * np.arange(n) - 0.23 * (np.arange(n) % 7) + k
            want = ref.gaussian_ints(centers.tolist(), sigma)
            assert sample_gaussian_int(centers, sigma, rng).tolist() == want

    assert rng.bytes(lead) == ref.bytes(lead)
    assert rng.bytes(3) == ref.bytes(3)
    gaussian_run(5, 0.5)
    assert rng.u64() == ref.u64()
    gaussian_run(400, -2.25)  # crosses several chunks of the stream
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
    """Trials decoded ahead and not read stay in their source: alternating
    draws between two sources gives each the draws and the next bytes it
    gives alone."""
    centers = 0.1 * np.arange(150)
    alone = RandomSource("alone")
    expected = [sample_gaussian_int(centers + k, 1.9, alone).tolist() for k in range(3)]
    a, b = RandomSource("alone"), RandomSource("alone")
    b.bytes(5)
    other = ReferenceStream(b.key)
    other.bytes(5)
    for k in range(3):
        assert sample_gaussian_int(centers + k, 1.9, a).tolist() == expected[k]
        want = other.gaussian_ints((-centers + k).tolist(), 1.3)
        assert sample_gaussian_int(-centers + k, 1.3, b).tolist() == want
    assert a.bytes(16) == alone.bytes(16)
    assert b.bytes(16) == other.bytes(16)


def test_walk_consumes_sixteen_bytes_per_trial(test_authority, monkeypatch):
    """sample_near reads, per step, 8 bytes for each of the N uniforms of
    its perturbation and then its integers, each step's through one
    `sample_gaussian_int` call that reads 16 bytes per trial, as the
    reference's rounds do: the point is the one the reference's integers
    give, and the source ends 16 N bytes and 16 per trial further on."""
    msk = test_authority.msk
    N, q = msk.params.N, msk.params.q
    t = (np.arange(N, dtype=np.int64) * 7919) % q
    rng = RandomSource("walk")
    v = msk.sampler.sample_near(t[None], [rng])

    ref = ReferenceStream(rng.key)

    def reference_step(centers, sigma, source):
        ref.pos = source.position
        draws = ref.gaussian_ints(centers.tolist(), sigma)
        source.skip(ref.pos - source.position)
        return np.array(draws)

    monkeypatch.setattr(ibe, "sample_gaussian_int", reference_step)
    again = RandomSource("walk")
    assert np.array_equal(msk.sampler.sample_near(t[None], [again]), v)
    assert ref.trials >= 2 * N  # one trial at least per coordinate of each step
    assert rng.position == again.position == ref.pos == 16 * N + 16 * ref.trials


@pytest.mark.parametrize("first", [1, 37, 256])
def test_reads_past_the_first_decode_continue_in_chunks(first):
    """A draw decodes two trials per pending center whenever its decoded
    trials run out: `first` centers at a width that keeps about one trial
    in eight read past the first decode and several later ones, draw for
    draw as the reference, and leave the source 16 bytes on per trial
    read."""
    rng = RandomSource(f"first-decode-{first}")
    ref = ReferenceStream(rng.key)
    centers = 0.31 * np.arange(first) - 0.17
    for _ in range(3):
        assert sample_gaussian_int(centers, 0.3, rng).tolist() == ref.gaussian_ints(
            centers.tolist(), 0.3
        )
    assert ref.trials > 3 * 2 * first
    assert rng.position == ref.pos == 16 * ref.trials
