"""Identity-based layer: trapdoor generation, extraction, encryption, signing."""

import cmath
import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dwpt_auth import ibe
from dwpt_auth.errors import (
    AuthenticationFailure,
    DecodeError,
    ParameterMismatch,
    ResampleExhausted,
    SamplerFailure,
)
from dwpt_auth.ibe import (
    ANNULUS,
    INTEGER_WIDTH,
    S2_LIMIT,
    Ciphertext,
    KleinSampler,
    Signature,
    UserSecretKey,
    _blocks_to_key,
    _key_to_blocks,
    basis_quality,
    decrypt,
    encrypt,
    extract,
    ibe_open,
    ibe_seal,
    identity_point,
    master_key_gen,
    max_basis_quality,
    noise_model,
    norm_bound,
    sign,
    verify,
)
from dwpt_auth.ntrusolve import fft_neg, ifft_neg
from dwpt_auth.registration import ra_setup
from dwpt_auth.ring import RingElement, RingParams, TIERS, hash_to_ring, karamul
from dwpt_auth.rng import RandomSource
from dwpt_auth.symcrypto import SymmetricKey, aead_seal
from test_rng import ReferenceStream

#: SHA-256 of usk.s1.to_bytes() + usk.s2.to_bytes() for
#: usk = extract(default_authority.msk, b"golden-identity"), as
#: `ReferenceSampler` draws it: pins the seed-to-key map at the default tier.
GOLDEN_DEFAULT_EXTRACT = "efb42b2d09f1f7df3bdb0e5dc896074d6dcedc10b2ac659976bc72b7c6890fe7"

#: SHA-256 of salt + s1.to_bytes() + s2.to_bytes() for
#: sign(ra_setup(TIERS["default"], "golden-default-authority").msk,
#: b"pinned message", rng) with rng = RandomSource("golden-sign"), followed by
#: the caller's next rng.bytes(40), as `ReferenceSampler` draws it: pins the
#: signature and how far the signer advanced the caller's stream.
GOLDEN_DEFAULT_SIGN = "cb02f523de492bfb5876657e12ccc6c4381fea38a521b8f6eb7f64c7f3275fff"


#: SHA-256 over the SHA-256 of s1.to_bytes() + s2.to_bytes() of
#: extract(default_authority.msk, b"sweep-%d" % i) for i < 400, in order, as
#: `ReferenceSampler` draws them: pins 400 default-tier keys.
GOLDEN_DEFAULT_SWEEP = "5f58f0fbca1b4cde42787a52c9b87ace487e1a6b284effed0f740eba8475c1a4"


def random_bits(n, rng):
    return [rng.below(2) for _ in range(n)]


def reference_annular_pair(params, rng):
    """`ibe._annular_pair` one Fourier point at a time, in Python scalars:
    the squared radius, cos^2 theta and two phases from four uniforms."""
    q, stream = params.q, ReferenceStream(rng.key)
    stream.pos = rng.position
    low, high = q / ANNULUS**2, q * ANNULUS**2
    f_hat, g_hat = [], []
    for _ in range(params.N // 2):
        radius_sq, cos_sq, phase_f, phase_g = (stream.uniform() for _ in range(4))
        radius = math.sqrt(low + (high - low) * radius_sq)
        f_hat.append(cmath.rect(radius * math.sqrt(cos_sq), 2.0 * math.pi * phase_f))
        g_hat.append(cmath.rect(radius * math.sqrt(1.0 - cos_sq), 2.0 * math.pi * phase_g))
    rng.skip(stream.pos - rng.position)
    return tuple(
        [round(c) for c in ifft_neg(np.array(v + [x.conjugate() for x in reversed(v)])).tolist()]
        for v in (f_hat, g_hat)
    )


class TestMasterKeyGen:
    def test_public_key_relation(self, toy_authority):
        mpk, msk = toy_authority.mpk, toy_authority.msk
        p = mpk.params
        # h * f = g mod q
        assert mpk.h * msk.f.to_ring(p) == msk.g.to_ring(p)

    def test_lattice_determinant(self, toy_authority):
        msk = toy_authority.msk
        check = msk.f * msk.G - msk.g * msk.F
        assert check.coeffs == [msk.params.q] + [0] * (msk.params.N - 1)

    def test_basis_rows_annihilate_h(self, toy_authority):
        """Every basis row x^i * (u, -v), for (u, v) = (g, f) and (G, F),
        satisfies u - v*h = 0 mod q; the relation is closed under
        multiplication by x, so the two generators suffice."""
        mpk, msk = toy_authority.mpk, toy_authority.msk
        p = mpk.params
        for u, v in ((msk.g, msk.f), (msk.G, msk.F)):
            assert not (u.to_ring(p) - v.to_ring(p) * mpk.h).coeffs.any()

    def test_basis_quality_within_slack(self, request):
        """Keygen keeps only bases the hybrid sampler serves, alpha_H at most
        1.5 / r, at every tier; the annulus puts them just below it, at
        about ANNULUS at the default tier."""
        for tier in ("toy", "test", "default"):
            msk = request.getfixturevalue(f"{tier}_authority").msk
            quality = basis_quality(msk.f, msk.g, msk.params.q)
            assert max_basis_quality(msk.params) == 1.5 / INTEGER_WIDTH
            assert 1.0 < quality <= 1.5 / INTEGER_WIDTH, tier
        assert abs(quality - ANNULUS) < 0.01

    def test_deterministic_per_seed(self):
        p = TIERS["toy"]
        mpk1, _ = master_key_gen(p, RandomSource("kg"))
        mpk2, _ = master_key_gen(p, RandomSource("kg"))
        mpk3, _ = master_key_gen(p, RandomSource("other"))
        assert mpk1.h == mpk2.h
        assert mpk1.h != mpk3.h

    @pytest.mark.parametrize("tier", ["test", "default"])
    def test_even_pairs_never_reach_the_solver(self, tier, monkeypatch):
        """A draw with f(1) and g(1) both even, which `ntru_solve` can only
        fail on, is dropped before it: the draws include such pairs, and
        none of them is handed to the solver."""
        draws, solved = [], []
        real_draw, real_solve = ibe._annular_pair, ibe.ntru_solve

        def draw(*args):
            f, g = real_draw(*args)
            draws.append((sum(f) % 2, sum(g) % 2))
            return f, g

        def solve(f, g, q):
            solved.append((sum(f) % 2, sum(g) % 2))
            return real_solve(f, g, q)

        monkeypatch.setattr(ibe, "_annular_pair", draw)
        monkeypatch.setattr(ibe, "ntru_solve", solve)
        for i in range(6):
            master_key_gen(TIERS[tier], RandomSource(f"parity-{tier}-{i}"))
        assert (0, 0) in draws
        assert solved and (0, 0) not in solved

    def test_refusing_every_pair_exhausts_the_attempts(self, monkeypatch):
        """When the quality limit refuses every pair, keygen draws its
        attempt count of pairs and raises ResampleExhausted."""
        draws, real_draw = [], ibe._annular_pair

        def draw(*args):
            draws.append(1)
            return real_draw(*args)

        monkeypatch.setattr(ibe, "_annular_pair", draw)
        monkeypatch.setattr(ibe, "max_basis_quality", lambda params: 0.0)
        monkeypatch.setattr(ibe, "_MAX_KEYGEN_ATTEMPTS", 5)
        with pytest.raises(ResampleExhausted, match="in 5 attempts"):
            master_key_gen(TIERS["toy"], RandomSource("refused"))
        assert len(draws) == 5

    @pytest.mark.parametrize("tier", ["toy", "test"])
    def test_annular_draw_matches_the_reference(self, tier):
        """Each draw is the point-by-point reference's, to the coefficient
        and to the byte, and lies on the annulus before rounding: the
        transform of the rounded pair stays near it."""
        p = TIERS[tier]
        ours, theirs = RandomSource(f"annulus-{tier}"), RandomSource(f"annulus-{tier}")
        for _ in range(5):
            assert ibe._annular_pair(p, ours) == reference_annular_pair(p, theirs)
            assert ours.position == theirs.position
        assert ours.position == 5 * 16 * p.N


def extraction_stream(msk, identity: bytes) -> RandomSource:
    """The stream `extract` samples the key of identity from."""
    return RandomSource(b"extract" + msk.extract_seed + hashlib.sha256(identity).digest())


def preimage(msk, t: RingElement, rng: RandomSource) -> tuple[RingElement, RingElement]:
    """(s1, s2) of the one-row preimage of t drawn from rng."""
    (s,) = ibe._sample_preimage(msk, t.coeffs[None], [rng])
    return RingElement(msk.params, s[: t.params.N]), RingElement(msk.params, s[t.params.N :])


class ReferenceSampler:
    """Mitaka's hybrid sampler as it reads on paper, one key at a time, on
    Python lists: the constants and centers in Python's complex arithmetic,
    the perturbation's normals and the integers from `ReferenceStream`, one
    word and one trial at a time, and the lattice point in exact integer
    products.  Only the transforms are the package's."""

    def __init__(self, msk):
        p = msk.params
        self.params, self.N, self.q = p, p.N, p.q
        self.polys = [poly.coeffs for poly in (msk.f, msk.g, msk.F, msk.G)]
        f, g, F, G = (fft_neg(np.array(c, dtype=float)).tolist()[: p.N // 2] for c in self.polys)
        d = [(a.real * a.real + a.imag * a.imag) + (b.real * b.real + b.imag * b.imag)
             for a, b in zip(f, g)]
        q, r_sq, sigma_sq = self.q, INTEGER_WIDTH**2, p.sigma_extract**2
        self.to_b2 = [complex(a.real / q, a.imag / q) for a in f]
        self.to_b1 = [complex(b.real / x, -b.imag / x) for b, x in zip(g, d)]
        self.mu = []
        for a, b, c, e, x in zip(f, g, F, G, d):
            m = e * b.conjugate() + c * a.conjugate()
            self.mu.append(complex(m.real / x, m.imag / x))
        self.scales = (
            [math.sqrt(p.N / 2 * (sigma_sq / (q * q / x) - r_sq)) for x in d],
            [math.sqrt(p.N / 2 * (sigma_sq / x - r_sq)) for x in d],
        )

    def step(self, stream, center, scale):
        """One step's integers around center plus the perturbation."""
        perturbed = []
        for c, s in zip(center, scale):
            u, u2 = stream.uniform(), stream.uniform()
            radius, angle = math.sqrt(-2.0 * math.log(1.0 - u)), math.tau * u2
            a, b = radius * math.cos(angle), radius * math.sin(angle)
            perturbed.append(complex(c.real + s * a, c.imag + s * b))
        spectrum = perturbed + [x.conjugate() for x in reversed(perturbed)]
        return stream.gaussian_ints(ifft_neg(np.array(spectrum)).tolist(), INTEGER_WIDTH)

    def preimage(self, t: list[int], stream) -> tuple[list[int], list[int]]:
        """(s1, s2) for the target t: drawn again, on down the stream, until
        it lies within norm_bound with s2 in [-S2_LIMIT, S2_LIMIT)."""
        half = self.N // 2
        f, g, F, G = self.polys
        bound_sq = norm_bound(self.params) ** 2
        while True:
            t_hat = fft_neg(np.array(t, dtype=float)).tolist()[:half]
            z2 = self.step(stream, [a * b for a, b in zip(t_hat, self.to_b2)], self.scales[0])
            z2_hat = fft_neg(np.array(z2, dtype=float)).tolist()[:half]
            center = [a * b - c * m for a, b, c, m in zip(t_hat, self.to_b1, z2_hat, self.mu)]
            z1 = self.step(stream, center, self.scales[1])
            s1 = [x - a - b for x, a, b in zip(t, karamul(z1, g), karamul(z2, G))]
            s2 = [a + b for a, b in zip(karamul(z1, f), karamul(z2, F))]
            fits = all(-S2_LIMIT <= c < S2_LIMIT for c in s2)
            if fits and sum(c * c for c in s1 + s2) <= bound_sq:
                return s1, s2

    def key(self, msk, identity: bytes) -> tuple[list[int], list[int]]:
        stream = ReferenceStream(extraction_stream(msk, identity).key)
        return self.preimage(identity_point(self.params, identity).coeffs.tolist(), stream)


def key_digest(params, s1, s2) -> bytes:
    return hashlib.sha256(
        RingElement(params, s1).to_bytes() + RingElement(params, s2).to_bytes()
    ).digest()


@pytest.fixture(scope="module")
def default_sweep(default_authority):
    """The 400 keys b"sweep-0", ..., drawn in one call."""
    return extract(default_authority.msk, *(b"sweep-%d" % i for i in range(400)))


class TestExtract:
    def test_preimage_equation(self, test_authority):
        """The sampled pair solves s1 + s2*h = H(id); the key keeps its s2
        and derives the same s1 (the derived s1 solves it for any s2)."""
        mpk, msk = test_authority.mpk, test_authority.msk
        t = identity_point(mpk.params, b"vehicle-77")
        s1, s2 = preimage(msk, t, extraction_stream(msk, b"vehicle-77"))
        assert s1 + s2 * mpk.h == t
        (usk,) = extract(msk, b"vehicle-77")
        assert usk.s2 == s2 and usk.s1 == s1

    def test_norm_within_bound(self, test_authority):
        (usk,) = extract(test_authority.msk, b"vehicle-77")
        norm_sq = usk.s1.norm_squared() + usk.s2.norm_squared()
        assert norm_sq <= norm_bound(usk.params) ** 2

    def test_extraction_is_deterministic(self, test_authority):
        msk = test_authority.msk
        (first,) = extract(msk, b"repeat-me")
        (again,) = extract(msk, b"repeat-me")
        assert again is not first
        assert again == first

    def test_distinct_identities_get_distinct_keys(self, test_authority):
        a, b = extract(test_authority.msk, b"id-a", b"id-b")
        assert a.s1 != b.s1

    def test_one_call_equals_keys_drawn_alone(self, default_authority):
        """Keys extracted in one call of 10 or of 32 equal the keys
        extracted one by one, in order, for identities the two calls share
        and for an identity named twice."""
        msk = default_authority.msk
        ids = [b"batch-%d" % i for i in range(32)]
        alone = {identity: extract(msk, identity)[0] for identity in ids}
        tens = extract(msk, *ids[5:14], b"batch-7")
        assert tens == [alone[identity] for identity in ids[5:14] + [b"batch-7"]]
        assert tens[2] == tens[-1] and tens[2] is not tens[-1]
        assert extract(msk, *ids) == [alone[identity] for identity in ids]

    def test_keys_solve_fit_the_bound_and_sixteen_bits(self, default_authority, default_sweep):
        """Over 400 default-tier keys, each one's s1 + s2*h is its identity
        point, its (s1, s2) lies within norm_bound, and its s2, kept as
        int16, is the centered s2 of that preimage."""
        p, h = default_authority.params, default_authority.mpk.h
        bound_sq = norm_bound(p) ** 2
        for usk in default_sweep:
            assert usk.s1 + usk.s2 * h == identity_point(p, usk.identity)
            assert usk.s1.norm_squared() + usk.s2.norm_squared() <= bound_sq
            assert usk.s2_coeffs.dtype == np.int16
            assert np.array_equal(usk.s2.centered(), usk.s2_coeffs)

    def test_rows_above_the_bound_walk_again(self, test_authority, monkeypatch):
        """Under a tighter norm bound, only the rows above it walk again,
        each on from where its own stream stopped, so every key still
        equals the key drawn alone under that bound."""
        msk, p = test_authority.msk, test_authority.params
        tight_sq = 0.9 * p.sigma_extract**2 * 2 * p.N
        monkeypatch.setattr(ibe, "norm_bound", lambda params: math.sqrt(tight_sq))
        walks, near = [], KleinSampler.sample_near

        def counted(self, t, rngs):
            walks.append(len(t))
            return near(self, t, rngs)

        monkeypatch.setattr(KleinSampler, "sample_near", counted)
        ids = [b"retry-%d" % i for i in range(12)]
        keys = extract(msk, *ids)
        assert walks[0] == 12 and len(walks) > 1 and all(0 < k < 12 for k in walks[1:])
        assert all(k.s1.norm_squared() + k.s2.norm_squared() <= tight_sq for k in keys)
        assert keys == [extract(msk, identity)[0] for identity in ids]

    def test_s2_outside_sixteen_bits_draws_again(self, test_authority, monkeypatch):
        """A row whose s2 leaves [-S2_LIMIT, S2_LIMIT) draws again, as one
        above the norm bound does: under a limit of 2.5 sigma_extract about
        half the rows draw again, and every key still fits and equals the
        key drawn alone."""
        msk, p = test_authority.msk, test_authority.params
        limit = round(2.5 * p.sigma_extract)
        monkeypatch.setattr(ibe, "S2_LIMIT", limit)
        walks, near = [], KleinSampler.sample_near

        def counted(self, t, rngs):
            walks.append(len(t))
            return near(self, t, rngs)

        monkeypatch.setattr(KleinSampler, "sample_near", counted)
        ids = [b"narrow-%d" % i for i in range(12)]
        keys = extract(msk, *ids)
        assert len(walks) > 1 and sum(walks) > 12
        assert all(-limit <= c < limit for k in keys for c in k.s2_coeffs.tolist())
        assert keys == [extract(msk, identity)[0] for identity in ids]

    def test_no_preimage_within_the_bound_fails(self, toy_authority, monkeypatch):
        """Under a norm bound of 0 no row is ever accepted: the walk runs
        its attempt count of times and extraction raises SamplerFailure."""
        walks, near = [], KleinSampler.sample_near

        def counted(self, t, rngs):
            walks.append(len(t))
            return near(self, t, rngs)

        monkeypatch.setattr(KleinSampler, "sample_near", counted)
        monkeypatch.setattr(ibe, "norm_bound", lambda params: 0.0)
        with pytest.raises(SamplerFailure, match="no preimage within the norm bound"):
            extract(toy_authority.msk, b"out-of-reach-1", b"out-of-reach-2")
        assert walks == [2] * ibe._MAX_SAMPLE_ATTEMPTS

    def test_batch_keeps_its_s2_in_one_block(self, test_authority):
        """The keys of one call share one read-only (K, N) int16 block of
        centered coefficients, of which each key's s2 holds a row."""
        keys = extract(test_authority.msk, b"block-a", b"block-b", b"block-c")
        block = keys[0].s2_coeffs.base
        assert block.shape == (3, test_authority.params.N) and block.dtype == np.int16
        assert not block.flags.writeable
        assert all(k.s2_coeffs.base is block for k in keys)

    def test_replaced_basis_builds_its_own_sampler(self, toy_authority):
        """A copy of a master key given another basis extracts against that
        basis, not with the sampler the original built for its own."""
        a, b = toy_authority, ra_setup(TIERS["toy"], "other-toy-authority")
        # ra_setup extracted the operator key, so a's sampler is built.
        msk = dataclasses.replace(a.msk, f=b.msk.f, g=b.msk.g, F=b.msk.F, G=b.msk.G, h=b.msk.h)
        t = identity_point(b.params, b"id")
        s1, s2 = preimage(msk, t, RandomSource("replaced-basis"))
        assert s1 + s2 * b.mpk.h == t
        (usk,) = extract(msk, b"id")
        assert usk.s1.norm_squared() + usk.s2.norm_squared() <= norm_bound(b.params) ** 2

    def test_key_keeps_s2_and_refers_to_h(self, test_authority):
        """A key holds its identity, s2 and its authority's h, shared, not
        copied; s1 and s2 are built on each read and never kept.  Only
        `keep_transform` keeps s2, with its transform, once, and u * s2 is
        the same with it as without it."""
        assert [f.name for f in dataclasses.fields(UserSecretKey)] == ["identity", "s2_coeffs", "h"]
        (usk,) = extract(test_authority.msk, b"vehicle-77")
        assert usk.h is test_authority.mpk.h
        assert usk.s1 == usk.s1 and usk.s1 is not usk.s1
        assert usk.s2 == usk.s2 and usk.s2 is not usk.s2
        assert "s1" not in vars(usk) and "s2" not in vars(usk)
        u = identity_point(usk.params, b"any u")
        product = u * usk.s2
        kept = usk.keep_transform()._kept_s2
        assert kept._ntt is not None and usk.keep_transform()._kept_s2 is kept
        assert usk.s2 is kept and u * usk.s2 == product


class TestKleinSampler:
    def test_returns_lattice_points_near_target(self, toy_authority):
        msk = toy_authority.msk
        p = msk.params
        sampler = msk.sampler
        rng = RandomSource("klein")
        h = toy_authority.mpk.h
        t = np.zeros(p.N, dtype=np.int64)
        t[0] = p.q // 3
        dists = []
        rows = sampler.sample_near(np.tile(t, (40, 1)), [rng.child(str(i)) for i in range(40)])
        for v in rows:
            # lattice membership: (v1, v2) with v1 + v2*h = 0 mod q
            v1 = RingElement(p, v[: p.N])
            v2 = RingElement(p, v[p.N :])
            assert not (v1 + v2 * h).coeffs.any()
            d = np.concatenate((t, np.zeros(p.N, dtype=np.int64))) - v  # (t, 0) - v
            dists.append(math.sqrt(float(d @ d)))
        # Gaussian of width sigma in 2N dims concentrates near sigma*sqrt(2N)
        expected = p.sigma_extract * math.sqrt(2 * p.N)
        assert np.mean(dists) < 1.5 * expected


def fourier_rows(msk):
    """The kept Fourier values of the basis rows b1 = (g, -f) and
    b2 = (G, -F), each a (N/2, 2) complex array."""
    h = msk.params.N // 2
    f, g, F, G = (fft_neg(np.array(p.coeffs, dtype=float))[:h] for p in (msk.f, msk.g, msk.F, msk.G))
    return np.stack((g, -f), axis=1), np.stack((G, -F), axis=1)


def gram_schmidt_norms(msk) -> tuple[np.ndarray, np.ndarray]:
    """beta_1 = |b1|^2 and beta_2 = |b2|^2 - |<b2, b1>|^2 / |b1|^2 at each
    Fourier point, in numpy's complex arithmetic."""
    b1, b2 = fourier_rows(msk)
    beta1 = np.sum(np.abs(b1) ** 2, axis=1)
    cross = np.sum(b2 * b1.conj(), axis=1)
    return beta1, np.sum(np.abs(b2) ** 2, axis=1) - np.abs(cross) ** 2 / beta1


def spherical_statistics(msk, walks: int, seed: str) -> np.ndarray:
    """z-scores, over `walks` draws around one target, of the per-Fourier-
    point covariance of (s1, s2) = (t, 0) - v in the Gram-Schmidt frame:
    at each point, s projected on the unit directions of b1 and of b2's
    Gram-Schmidt row, w1 and w2, is a circular complex Gaussian with
    E|w_i|^2 = N sigma^2 (the transform of a spherical vector of width
    sigma), E[w1 w2*] = 0 and E[w_i] = 0.  The statistics are the two
    variances, the real and imaginary cross term and the four mean parts:
    8 per point."""
    p = msk.params
    N, h, sigma = p.N, p.N // 2, p.sigma_extract
    t = identity_point(p, b"spherical").coeffs.astype(np.int64)
    batch = 500
    v = np.concatenate([
        msk.sampler.sample_near(
            np.tile(t, (batch, 1)), [RandomSource(f"{seed}-{k}") for k in range(i, i + batch)]
        )
        for i in range(0, walks, batch)
    ])
    s = np.concatenate((t, np.zeros(N, dtype=np.int64))) - v
    s_hat = np.stack((fft_neg(s[:, :N].astype(float))[:, :h], fft_neg(s[:, N:].astype(float))[:, :h]), axis=2)
    b1, b2 = fourier_rows(msk)
    u1 = b1 / np.linalg.norm(b1, axis=1, keepdims=True)
    tilde = b2 - (np.sum(b2 * b1.conj(), axis=1) / np.sum(np.abs(b1) ** 2, axis=1))[:, None] * b1
    u2 = tilde / np.linalg.norm(tilde, axis=1, keepdims=True)
    scale = math.sqrt(N) * sigma
    w1, w2 = (np.sum(s_hat * u.conj(), axis=2) / scale for u in (u1, u2))  # (walks, h)
    root = math.sqrt(walks)
    return np.concatenate([
        ((np.abs(w1) ** 2).mean(axis=0) - 1) * root,
        ((np.abs(w2) ** 2).mean(axis=0) - 1) * root,
        (w1 * w2.conj()).mean(axis=0).real * root * math.sqrt(2),
        (w1 * w2.conj()).mean(axis=0).imag * root * math.sqrt(2),
        *(part(w.mean(axis=0)) * root * math.sqrt(2) for w in (w1, w2) for part in (np.real, np.imag)),
    ])


class TestKleinSamplerFrame:
    """The hybrid sampler's per-point constants are those of the basis's
    Gram-Schmidt frame, and its output is spherical on that frame."""

    @pytest.mark.parametrize("tier", ["toy", "test"])
    def test_gram_schmidt_frame(self, tier, request):
        """The perturbation scales and mu come from the squared
        Gram-Schmidt norms of the basis rows at each Fourier point, d and
        q^2/d, and from <b2, b1>/d, as numpy's complex arithmetic gives
        them from the rows."""
        msk = request.getfixturevalue(f"{tier}_authority").msk
        p, sampler = msk.params, msk.sampler
        beta1, beta2 = gram_schmidt_norms(msk)
        np.testing.assert_allclose(beta2, p.q**2 / beta1, rtol=1e-9)
        for beta, scale in zip((beta2, beta1), sampler.scale):
            expected = np.sqrt(p.N / 2 * (p.sigma_extract**2 / beta - INTEGER_WIDTH**2))
            np.testing.assert_allclose(scale, expected, rtol=1e-9)
        b1, b2 = fourier_rows(msk)
        mu = np.sum(b2 * b1.conj(), axis=1) / beta1
        np.testing.assert_allclose(sampler.mu[0] + 1j * sampler.mu[1], mu, rtol=1e-9)

    @pytest.mark.parametrize("tier", ["toy", "test", "default"])
    def test_max_gs_norm_is_the_keygen_quality(self, tier, request):
        """alpha_H is the largest Gram-Schmidt norm of either row over the
        Fourier points, over sqrt(q)."""
        msk = request.getfixturevalue(f"{tier}_authority").msk
        beta1, beta2 = gram_schmidt_norms(msk)
        expected = math.sqrt(max(beta1.max(), beta2.max()) / msk.params.q)
        assert basis_quality(msk.f, msk.g, msk.params.q) == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("tier", ["toy", "test", "default"])
    def test_leaf_widths_fit_the_base_sampler(self, tier, request):
        """The integer steps draw at r, within the base sampler's width 2,
        and every perturbation variance sigma^2/beta - r^2 is nonnegative:
        keygen's quality bound keeps sigma_extract >= r alpha_H sqrt(q)."""
        msk = request.getfixturevalue(f"{tier}_authority").msk
        assert 0 < INTEGER_WIDTH <= 2.0
        assert all(len(s) == msk.params.N // 2 and np.all(s >= 0) for s in msk.sampler.scale)

    def test_leaf_width_outside_the_base_table_rejected_at_build(self, toy_authority, monkeypatch):
        """A basis that sigma_extract does not reach at width r, here for a
        width of sqrt(q), is refused when the sampler is built, once, and
        not on every draw."""
        monkeypatch.setattr(RingParams, "sigma_extract", property(lambda p: math.sqrt(p.q)))
        with pytest.raises(ValueError, match="sigma_extract falls below"):
            KleinSampler(toy_authority.msk)

    @pytest.mark.parametrize("tier", ["toy", "test", "default"])
    def test_gram_and_target_round_as_python(self, tier, request):
        """The constants the centers are products with equal Python's
        complex arithmetic on the rows' transforms value for value, so
        numpy's fused multiply-adds, where a CPU has them, cannot move a
        center and with it a key."""
        msk = request.getfixturevalue(f"{tier}_authority").msk
        ours, theirs = msk.sampler, ReferenceSampler(msk)
        to_b2, to_b1 = ours.center_of_target
        assert (to_b2[0] + 1j * to_b2[1]).tolist() == theirs.to_b2
        assert (to_b1[0] + 1j * to_b1[1]).tolist() == theirs.to_b1
        assert (ours.mu[0] + 1j * ours.mu[1]).tolist() == theirs.mu

    @pytest.mark.parametrize("tier", ["toy", "test", "default"])
    def test_tree_matches_the_one_value_recursion(self, tier, request):
        """The perturbation scales equal, value for value, those computed
        one Fourier point at a time in Python scalars."""
        msk = request.getfixturevalue(f"{tier}_authority").msk
        assert [s.tolist() for s in msk.sampler.scale] == list(ReferenceSampler(msk).scales)

    def test_walk_is_spherical_on_the_gram_schmidt_frame(self, test_authority):
        """The output is the spherical Gaussian of width sigma_extract that
        an extracted key must follow (Gentry, Peikert and Vaikuntanathan,
        STOC 2008): over 6,000 draws around one target, the 256 statistics
        of `spherical_statistics` stay within |z| <= 4.5.

        Under the null they exceed 4.5 together with probability about
        2e-3.  Scaling the perturbation by 0.9 or 1.1 at the one point and
        step where it carries the largest share of the variance moves that
        point's variance by about 8.5% or 9.5%, 6.6 or 7.3 standard errors.
        Draws, not keys: `extract` drops the draws above `norm_bound`,
        which narrows what it keeps."""
        z = spherical_statistics(test_authority.msk, 6000, "spherical")
        assert np.abs(z).max() <= 4.5

    def test_walk_is_spherical_at_n32(self):
        """As above on a 32-coefficient ring, whose 16 points give 128
        statistics."""
        msk = ra_setup(RingParams(32, 12289), "spherical-n32").msk
        z = spherical_statistics(msk, 6000, "spherical-n32")
        assert np.abs(z).max() <= 4.5

    def test_default_tier_extract_matches_golden(self, default_authority):
        (usk,) = extract(default_authority.msk, b"golden-identity")
        digest = hashlib.sha256(usk.s1.to_bytes() + usk.s2.to_bytes()).hexdigest()
        assert digest == GOLDEN_DEFAULT_EXTRACT

    def test_default_tier_sign_matches_golden(self):
        msk = ra_setup(TIERS["default"], "golden-default-authority").msk
        rng = RandomSource("golden-sign")
        sig = sign(msk, b"pinned message", rng)
        blob = sig.salt + sig.s1.to_bytes() + sig.s2.to_bytes() + rng.bytes(40)
        assert hashlib.sha256(blob).hexdigest() == GOLDEN_DEFAULT_SIGN


class TestArrayLevels:
    """The sampler holds its Fourier values as stacked numpy arrays of real
    and imaginary parts, which it multiplies as Python multiplies complex
    scalars: numpy's own complex product may fuse a multiply into an add
    (it does with AVX-512), which moves a center by a bit and can move a
    key.  Each row of the arrays matches `ReferenceSampler`'s lists value
    for value, which the first test checks for the helpers directly, and
    the keys follow."""

    @pytest.mark.parametrize("n", [16, 32, 64, 512])
    def test_split_move_and_merge_match_the_lists(self, n):
        """Products and the coefficients of a kept half, row for row and
        value for value, at magnitudes from 1e-3 to 1e5."""
        rng = np.random.default_rng(n)
        m = n // 2
        for scale in (1e-3, 1.0, 1e5):
            a, b = scale * (rng.normal(size=(2, 3, m)) + 1j * rng.normal(size=(2, 3, m)))
            product = ibe._times((a.real, a.imag), (b.real, b.imag))
            coefficients = ibe._coefficients(a.real, a.imag)
            for k in range(3):
                x, y = a[k].tolist(), b[k].tolist()
                assert (product[0][k] + 1j * product[1][k]).tolist() == [u * w for u, w in zip(x, y)]
                spectrum = np.array(x + [u.conjugate() for u in reversed(x)])
                assert coefficients[k].tolist() == ifft_neg(spectrum).tolist()

    @pytest.mark.parametrize("authority", ["test", "n32"])
    def test_keys_match_the_list_walk(self, authority, request):
        """At N = 32 and at the test tier, 40 keys drawn in one call equal
        the reference's, to the coefficient."""
        if authority == "n32":
            msk = ra_setup(RingParams(32, 8380417), "array-levels-n32").msk
        else:
            msk = request.getfixturevalue(f"{authority}_authority").msk
        ids = [b"sweep-%d" % i for i in range(40)]
        reference = ReferenceSampler(msk)
        for usk in extract(msk, *ids):
            s1, s2 = reference.key(msk, usk.identity)
            assert usk.s1.centered().tolist() == s1 and usk.s2_coeffs.tolist() == s2

    def test_default_tier_keys_match_the_list_walk(self, default_authority, default_sweep):
        """Against the pinned digest of the reference's 400 keys, of which
        the first three are drawn again here."""
        p, msk = default_authority.params, default_authority.msk
        digests = [key_digest(p, k.s1.coeffs, k.s2.coeffs) for k in default_sweep]
        assert hashlib.sha256(b"".join(digests)).hexdigest() == GOLDEN_DEFAULT_SWEEP
        reference = ReferenceSampler(msk)
        for usk in default_sweep[:3]:
            assert key_digest(p, *reference.key(msk, usk.identity)) == key_digest(
                p, usk.s1.coeffs, usk.s2.coeffs
            )


class TestEncryptDecrypt:
    def test_round_trip_default_tier(self, default_authority):
        mpk, msk = default_authority.mpk, default_authority.msk
        (usk,) = extract(msk, b"round-trip")
        rng = RandomSource("enc")
        for _ in range(5):
            bits = random_bits(mpk.params.N, rng)
            ct = encrypt(mpk, identity_point(mpk.params, b"round-trip"), bits, rng)
            assert np.array_equal(decrypt(usk, ct), bits)

    def test_wrong_identity_garbles(self, default_authority):
        mpk, msk = default_authority.mpk, default_authority.msk
        rng = RandomSource("cross")
        bits = random_bits(mpk.params.N, rng)
        ct = encrypt(mpk, identity_point(mpk.params, b"alice"), bits, rng)
        (other,) = extract(msk, b"mallory")
        assert not np.array_equal(decrypt(other, ct), bits)

    def test_small_tier_noise_margin_is_reported(self, test_authority):
        """Narrow-modulus tiers decode noisily by design: 6400 bits at the
        `test` tier flip at the rate `noise_model` predicts, within five
        binomial standard deviations."""
        mpk, msk = test_authority.mpk, test_authority.msk
        (usk,) = extract(msk, b"noisy")
        model = noise_model(usk)
        rng = RandomSource("noise")
        trials, bad_bits, total_bits = 100, 0, 0
        for _ in range(trials):
            bits = random_bits(mpk.params.N, rng)
            got = decrypt(usk, encrypt(mpk, usk.point, bits, rng))
            bad_bits += sum(a != b for a, b in zip(bits, got))
            total_bits += len(bits)
        rate = bad_bits / total_bits
        band = 5 * math.sqrt(model.bit_flip * (1 - model.bit_flip) / total_bits)
        print(f"\n[test tier] bit error rate {rate:.3f} ({bad_bits}/{total_bits}), "
              f"predicted {model.bit_flip:.3f} +- {band:.3f}")
        assert total_bits >= 6400
        assert abs(rate - model.bit_flip) <= band
        assert 0.5 < model.sd < 2 and model.z == pytest.approx(1 / model.sd)
        assert model.key_opens < 1e-20  # no session completes at this tier

    def test_wrapped_noise_flips_at_most_half_the_bits(self, toy_authority):
        """At the `toy` tier the noise spans the ring several times over, so
        a bit lands on either side of q/4 about equally often: the flip
        probability approaches 1/2 from below and does not pass it."""
        model = noise_model(toy_authority.cspa_usk)
        assert model.sd > 2
        assert 0.49 < model.bit_flip <= 0.5

    def test_default_tier_noise_prediction(self, default_authority):
        model = noise_model(default_authority.cspa_usk)
        assert model.sd < 0.2 and model.z > 5
        assert model.bit_flip < 1e-20
        assert model.key_opens == pytest.approx(1.0)

    @pytest.mark.parametrize("tier", list(TIERS))
    def test_decrypt_thresholds_match_the_centered_rule(self, tier):
        """Bit i is 1 exactly when the centered w_i exceeds q//4 in size,
        at and next to both thresholds q//4 and q - q//4."""
        p = TIERS[tier]
        q = p.q
        zero = RingElement(p, [0] * p.N)  # u = 0, so w = v for any key
        edges = [q // 4, q // 4 + 1, q - q // 4 - 1, q - q // 4, 0, q // 2, q // 2 + 1, q - 1]
        w = RingElement(p, (edges * p.N)[: p.N])
        got = decrypt(UserSecretKey(b"x", np.zeros(p.N, np.int16), zero), Ciphertext(zero, w))
        assert got.dtype == np.uint8 and got.shape == (p.N,)
        assert np.array_equal(got[:8], [0, 1, 1, 0, 0, 1, 1, 0])
        assert np.array_equal(got, np.abs(w.centered()) > q // 4)

    def test_message_length_enforced(self, default_authority):
        mpk = default_authority.mpk
        t = identity_point(mpk.params, b"x")
        with pytest.raises(ValueError):
            encrypt(mpk, t, [0] * (mpk.params.N - 1), RandomSource(1))
        with pytest.raises(ValueError):
            encrypt(mpk, t, [2] * mpk.params.N, RandomSource(1))
        with pytest.raises(ValueError):
            encrypt(mpk, t, [0] * (mpk.params.N - 1) + [-1], RandomSource(1))
        with pytest.raises(ValueError):
            encrypt(mpk, t, [[0, 1]] * (mpk.params.N // 2), RandomSource(1))

    def test_params_mismatch_rejected(self, default_authority, toy_authority):
        rng = RandomSource("mix")
        toy_mpk = toy_authority.mpk
        t = identity_point(toy_mpk.params, b"x")
        ct = encrypt(toy_mpk, t, random_bits(toy_mpk.params.N, rng), rng)
        (usk,) = extract(default_authority.msk, b"x")
        with pytest.raises(ParameterMismatch):
            decrypt(usk, ct)
        # A ciphertext whose halves are of different parameters.
        (toy_usk,) = extract(toy_authority.msk, b"x")
        with pytest.raises(ParameterMismatch):
            decrypt(toy_usk, Ciphertext(ct.u, usk.s1))
        with pytest.raises(ParameterMismatch):
            decrypt(usk, Ciphertext(usk.s1, ct.v))


class TestSignatures:
    def test_sign_verify(self, test_authority):
        mpk, msk = test_authority.mpk, test_authority.msk
        sig = sign(msk, b"charging receipt", RandomSource("sig"))
        assert verify(mpk, b"charging receipt", sig)

    def test_tampered_message_rejected(self, test_authority):
        mpk, msk = test_authority.mpk, test_authority.msk
        sig = sign(msk, b"amount=10", RandomSource("sig2"))
        assert not verify(mpk, b"amount=99", sig)

    def test_tampered_salt_rejected(self, test_authority):
        mpk, msk = test_authority.mpk, test_authority.msk
        sig = sign(msk, b"msg", RandomSource("sig3"))
        forged = Signature(salt=bytes(32), s1=sig.s1, s2=sig.s2)
        assert not verify(mpk, b"msg", forged)

    def test_oversized_preimage_rejected(self, test_authority):
        """A correct equation with a long vector must still fail the check."""
        mpk, msk = test_authority.mpk, test_authority.msk
        p = mpk.params
        rng = RandomSource("sig4")
        salt = rng.bytes(32)
        t = hash_to_ring(b"SIG\x00" + salt + b"msg", p)
        # trivial preimage: s1 = t, s2 = 0 -- valid equation, huge norm
        forged = Signature(salt=salt, s1=t, s2=RingElement(p, [0] * p.N))
        assert forged.s1 + forged.s2 * mpk.h == t
        assert not verify(mpk, b"msg", forged)

    def test_wrong_authority_rejected(self, test_authority):
        p = TIERS["test"]
        other_mpk, _ = master_key_gen(p, RandomSource("other-authority"))
        sig = sign(test_authority.msk, b"msg", RandomSource("sig5"))
        assert not verify(other_mpk, b"msg", sig)

    def test_signature_of_other_parameters_rejected(self, test_authority, toy_authority):
        """A signature over another ring is refused, not multiplied by h."""
        sig = sign(toy_authority.msk, b"msg", RandomSource("sig6"))
        assert not verify(test_authority.mpk, b"msg", sig)


class TestHybrid:
    def test_seal_open_round_trip(self, default_authority):
        mpk, msk = default_authority.mpk, default_authority.msk
        (usk,) = extract(msk, b"recipient")
        rng = RandomSource("seal")
        msg = b"arbitrary length payload " * 9
        ct = ibe_seal(mpk, identity_point(mpk.params, b"recipient"), msg, rng, b"frame")
        assert ibe_open(usk, ct, b"frame") == msg

    def test_key_block_count(self, default_authority):
        """ceil(256/N) blocks of 2 * element_bytes, then the sealed payload's
        u32 length, which counts every byte after it."""
        mpk = default_authority.mpk
        blob = ibe_seal(mpk, identity_point(mpk.params, b"r"), b"x", RandomSource("blocks"))
        head = -(-256 // mpk.params.N) * 2 * mpk.params.element_bytes
        assert int.from_bytes(blob[head : head + 4], "little") == len(blob) - head - 4

    def test_wrong_recipient_rejected(self, default_authority):
        mpk, msk = default_authority.mpk, default_authority.msk
        ct = ibe_seal(mpk, identity_point(mpk.params, b"alice"), b"secret", RandomSource("s2"))
        (eve,) = extract(msk, b"eve")
        with pytest.raises(AuthenticationFailure):
            ibe_open(eve, ct)

    def test_wrong_aad_rejected(self, default_authority):
        mpk, msk = default_authority.mpk, default_authority.msk
        (usk,) = extract(msk, b"bob")
        ct = ibe_seal(mpk, usk.point, b"secret", RandomSource("s3"), b"aad-1")
        with pytest.raises(AuthenticationFailure):
            ibe_open(usk, ct, b"aad-2")

    def test_tampered_payload_rejected(self, default_authority):
        mpk, msk = default_authority.mpk, default_authority.msk
        (usk,) = extract(msk, b"bob")
        ct = ibe_seal(mpk, identity_point(mpk.params, b"bob"), b"secret", RandomSource("s4"))
        tampered = ct[:-1] + bytes([ct[-1] ^ 1])  # the sealed payload's last byte
        with pytest.raises(AuthenticationFailure):
            ibe_open(usk, tampered)

    def test_keyless_ciphertext_rejected(self, toy_authority):
        """No key blocks would mean the all-zero content key: anyone could
        seal a payload to any identity.  The key's parameters fix the block
        count, so a body of the sealed payload alone does not decode."""
        (usk,) = extract(toy_authority.msk, b"victim")
        sealed = aead_seal(SymmetricKey(bytes(32), "content"), b"chosen by anyone", RandomSource("forge"))
        with pytest.raises(DecodeError):
            ibe_open(usk, len(sealed).to_bytes(4, "little") + sealed)

    def test_wrong_key_block_count_rejected(self, default_authority):
        mpk, msk = default_authority.mpk, default_authority.msk
        (usk,) = extract(msk, b"bob")
        ct = ibe_seal(mpk, identity_point(mpk.params, b"bob"), b"secret", RandomSource("count"))
        assert ibe_open(usk, ct) == b"secret"
        blocks = -(-256 // mpk.params.N) * 2 * mpk.params.element_bytes
        with pytest.raises(DecodeError):
            ibe_open(usk, ct[:blocks] + ct)  # the key blocks twice, then the payload

    @pytest.mark.parametrize("n", [16, 64, 512])
    def test_key_block_packing_round_trip(self, n):
        key = RandomSource(f"pack-{n}").bytes(32)
        assert _blocks_to_key(_key_to_blocks(key, n)) == key

    @pytest.mark.parametrize("n, n_blocks", [(16, 16), (64, 4), (512, 1)])
    def test_key_block_bit_order(self, n, n_blocks):
        """Bit i of the key is bit i % 8 of byte i // 8, zero-padded to
        whole blocks: the order every sealed key block was written in."""

        def reference_blocks(key):
            bits = [(key[i // 8] >> (i % 8)) & 1 for i in range(256)]
            padded = bits + [0] * (n_blocks * n - 256)
            return [padded[i * n : (i + 1) * n] for i in range(n_blocks)]

        rng = RandomSource(f"bit-order-{n}")
        for _ in range(20):
            key = rng.bytes(32)
            blocks = reference_blocks(key)
            assert _key_to_blocks(key, n).tolist() == blocks
            assert _blocks_to_key(blocks) == key


class TestSerialization:
    def test_ciphertext_round_trip(self, test_authority):
        mpk = test_authority.mpk
        rng = RandomSource("ctser")
        t = identity_point(mpk.params, b"x")
        ct = encrypt(mpk, t, random_bits(mpk.params.N, rng), rng)
        back = Ciphertext.from_bytes(ct.to_bytes(), mpk.params)
        assert back == ct

    def test_hybrid_round_trip(self, test_authority, monkeypatch):
        """At N = 64 the content key takes four blocks: `ibe_open` reads back
        each block `ibe_seal` wrote, in order, then the payload.  Decryption
        flips bits at this tier, so `decrypt` hands back each block's bits."""
        usk = test_authority.cspa_usk
        written = []

        def recording_encrypt(mpk, recipient, bits, rng):
            written.append((ct := encrypt(mpk, recipient, bits, rng), bits))
            return ct

        def replaying_decrypt(key, ct):
            expected, bits = written.pop(0)
            assert key is usk and ct == expected
            return bits

        monkeypatch.setattr(ibe, "encrypt", recording_encrypt)
        monkeypatch.setattr(ibe, "decrypt", replaying_decrypt)
        blob = ibe_seal(test_authority.mpk, usk.point, b"payload bytes", RandomSource("hser"))
        assert len(written) == 4
        assert ibe_open(usk, blob) == b"payload bytes"
        assert written == []

    def test_sizes_are_fixed_by_the_parameters(self, test_authority):
        """u and v at their fixed size, no prefix or header; a sealed payload
        is its blocks, then the u32-prefixed AEAD payload."""
        mpk = test_authority.mpk
        t, n = identity_point(mpk.params, b"dest"), mpk.params.element_bytes
        blob = ibe_seal(mpk, t, b"payload bytes", RandomSource("hsize"))
        rng = RandomSource("hsize")  # the draws ibe_seal makes, in its order
        key = SymmetricKey(rng.bytes(32), "content")
        blocks = [encrypt(mpk, t, bits, rng) for bits in _key_to_blocks(key.key, mpk.params.N)]
        sealed = aead_seal(key, b"payload bytes", rng)
        assert [len(b.to_bytes()) for b in blocks] == [2 * n] * (256 // mpk.params.N)
        assert blob == b"".join(
            b.u.to_bytes() + b.v.to_bytes() for b in blocks
        ) + len(sealed).to_bytes(4, "little") + sealed

    @pytest.mark.parametrize("decoder", ["Ciphertext", "ibe_open"])
    def test_one_byte_short_or_long_rejected(self, test_authority, default_authority, decoder):
        """A block at the test tier; a sealed payload at the default tier,
        the cheapest whose content key opens."""
        ra = test_authority if decoder == "Ciphertext" else default_authority
        usk = ra.cspa_usk
        sealed = ibe_seal(ra.mpk, usk.point, b"payload bytes", RandomSource("hlen"))
        decode, blob, value = {
            "Ciphertext": (
                lambda d: Ciphertext.from_bytes(d, usk.params).to_bytes(),
                sealed[: 2 * usk.params.element_bytes],
                sealed[: 2 * usk.params.element_bytes],
            ),
            "ibe_open": (lambda d: ibe_open(usk, d), sealed, b"payload bytes"),
        }[decoder]
        assert decode(blob) == value
        for bad in (blob[:-1], blob + b"\x00"):
            with pytest.raises(DecodeError):
                decode(bad)

    def test_hybrid_truncation_and_trailing_bytes_rejected(self, test_authority):
        """Every cut, inside each of the four blocks or the payload, and one
        byte more; the blocks before a cut are decrypted as they are read."""
        usk = test_authority.cspa_usk
        blob = ibe_seal(test_authority.mpk, usk.point, b"payload bytes", RandomSource("hcut"))
        for cut in range(len(blob)):
            with pytest.raises(DecodeError):
                ibe_open(usk, blob[:cut])
        with pytest.raises(DecodeError):
            ibe_open(usk, blob + b"\x00")

    def test_short_inputs_raise_value_error(self, toy_authority):
        params, usk = toy_authority.mpk.params, toy_authority.cspa_usk
        for decode in (Ciphertext.from_bytes, lambda d, _: ibe_open(usk, d), RingElement.from_bytes):
            for data in (b"", b"\x01", b"\x05\x00\x00"):
                with pytest.raises(DecodeError):
                    decode(data, params)


#: numpy's dispatch targets with fused multiply-add (X86_V3 brings FMA3 and
#: AVX2) or with AVX-512; with all of them disabled numpy runs its baseline
#: loops, its own complex product and log among them.
NO_FMA_TARGETS = ("X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR")

#: The key pins, the container pins and the transcript pins derived from
#: them, and the solver's seeded outputs (two reduction routes make them),
#: re-run below without those targets.
PIN_TESTS = (
    "tests/test_ibe.py::TestKleinSamplerFrame::test_default_tier_extract_matches_golden",
    "tests/test_ibe.py::TestKleinSamplerFrame::test_default_tier_sign_matches_golden",
    "tests/test_ibe.py::TestArrayLevels::test_default_tier_keys_match_the_list_walk",
    "tests/test_keyfiles.py::TestGoldenFiles",
    "tests/test_netsim.py::TestTranscriptPins",
    "tests/test_ntrusolve.py::test_seeded_solutions_match_golden",
)

_CHILD = """
import json, sys
import numpy as np
import pytest
try:
    from numpy._core import _multiarray_umath as umath
except ImportError:  # numpy 1.x
    from numpy.core import _multiarray_umath as umath
a, b = np.random.default_rng(0).normal(size=(2, 2000)).view(complex)
fused = sum(p != x * y for p, x, y in zip((a * b).tolist(), a.tolist(), b.tolist()))
features = {t: umath.__cpu_features__[t] for t in sys.argv[1].split()}
print(json.dumps({"features": features, "fused": fused}), flush=True)
sys.exit(pytest.main(["-q", "-p", "no:cacheprovider", *sys.argv[2:]]))
"""


def test_pins_hold_without_fma():
    """The pinned keys, containers and transcripts were drawn where numpy
    fuses multiply-adds and uses its AVX-512 log; they hold unchanged on
    numpy's baseline loops, which neither fuse nor share that log."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    targets = [t for t in NO_FMA_TARGETS if t in umath.__cpu_dispatch__]
    if not targets:
        pytest.skip("this numpy dispatches to none of " + ", ".join(NO_FMA_TARGETS))
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(targets))
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(ibe.__file__).resolve().parents[1]), env.get("PYTHONPATH", "")]
    )
    result = subprocess.run(
        [sys.executable, "-c", _CHILD, " ".join(targets), *PIN_TESTS],
        cwd=root, env=env, capture_output=True, text=True,
    )
    took_effect, _, report = result.stdout.partition("\n")
    # The targets are off, and numpy's complex product rounds as Python's.
    assert json.loads(took_effect) == {
        "features": dict.fromkeys(targets, False), "fused": 0
    }, result.stderr
    assert result.returncode == 0, report + result.stderr
    assert "13 passed in" in report, report
