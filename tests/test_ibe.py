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
from dwpt_auth.errors import AuthenticationFailure, DecodeError, ParameterMismatch
from dwpt_auth.ibe import (
    GS_SLACK,
    Ciphertext,
    HybridCiphertext,
    KleinSampler,
    Signature,
    UserSecretKey,
    _blocks_to_key,
    _ff_sample_degree4,
    _ff_sample_degree8,
    _ff_sample_degree16,
    _gram,
    _gs_quality,
    _key_to_blocks,
    _merge_array,
    _parts,
    _split_array,
    decrypt,
    encrypt,
    extract,
    ibe_open,
    ibe_seal,
    identity_point,
    master_key_gen,
    noise_model,
    norm_bound,
    sign,
    verify,
)
from dwpt_auth.ntrusolve import fft_neg
from dwpt_auth.registration import ra_setup
from dwpt_auth.ring import GaussianTrials, RingElement, RingParams, TIERS, sample_gaussian_int
from dwpt_auth.rng import RandomSource
from dwpt_auth.symcrypto import aead_seal

#: SHA-256 of usk.s1.to_bytes() + usk.s2.to_bytes() for
#: usk = extract(default_authority.msk, b"golden-identity"); pins the
#: seed-to-key map at the default tier.
GOLDEN_DEFAULT_EXTRACT = "81645619cf7c60936a3e40264990472eebb3d657caf5fb858a6cc53266b91562"

#: SHA-256 of salt + s1.to_bytes() + s2.to_bytes() for
#: sign(ra_setup(TIERS["default"], "golden-default-authority").msk,
#: b"pinned message", rng) with rng = RandomSource("golden-sign"), followed by
#: the caller's next rng.bytes(40): pins the signature and how far the
#: signer advanced the caller's stream.
GOLDEN_DEFAULT_SIGN = "317b107d14979c8179227f65533e2aeb794b5caf6119ff43835fbd11699de6e1"

#: extract(ra_setup(RingParams(N, 17), "x").msk, b"id") at the two smallest
#: degrees: s1, and the SHA-256 of s1.to_bytes() + s2.to_bytes().  N = 4 walks
#: only the degree-4 step, N = 8 only the degree-8 one.
GOLDEN_SMALL_N = {
    4: ([1, 14, 1, 2], "5c218e6a715aa247fc4972e14a94512399ec603264593ae2549ba65c40c261da"),
    8: ([11, 1, 1, 4, 1, 16, 7, 14],
        "b70e0390fc0ba37bb1c4c8d6727fcc831043e6a5814e7d37975535d103efe4ef"),
}


#: SHA-256 over the SHA-256 of s1.to_bytes() + s2.to_bytes() of
#: extract(default_authority.msk, b"sweep-%d" % i) for i < 400, in order, as
#: the walk on lists draws them (`TestArrayLevels.reference_walk`) and as the
#: walk drew them before it had array levels: pins 400 default-tier keys,
#: with the caveat of the FMA note in README.md.
GOLDEN_DEFAULT_SWEEP = "f8138c279fd455d26b6db006910293509f91d9c2e1ef76d2facf354876b9c983"


def random_bits(n, rng):
    return [rng.below(2) for _ in range(n)]


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

    def test_basis_quality_within_slack(self, toy_authority):
        msk = toy_authority.msk
        sampler = KleinSampler(msk)
        assert math.sqrt(sampler.leaves.max()) <= GS_SLACK * math.sqrt(msk.params.q)

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
        real_draw, real_solve = ibe.sample_gaussian_poly, ibe.ntru_solve

        def draw(*args):
            coeffs = real_draw(*args)
            draws.append(int(coeffs.sum()) % 2)
            return coeffs

        def solve(f, g, q):
            solved.append((sum(f) % 2, sum(g) % 2))
            return real_solve(f, g, q)

        monkeypatch.setattr(ibe, "sample_gaussian_poly", draw)
        monkeypatch.setattr(ibe, "ntru_solve", solve)
        for i in range(6):
            master_key_gen(TIERS[tier], RandomSource(f"parity-{tier}-{i}"))
        assert (0, 0) in zip(draws[0::2], draws[1::2])
        assert solved and (0, 0) not in solved


def extraction_stream(msk, identity: bytes) -> RandomSource:
    """The stream `extract` samples the key of identity from."""
    return RandomSource(b"extract" + msk.extract_seed + hashlib.sha256(identity).digest())


def preimage(msk, t: RingElement, rng: RandomSource) -> tuple[RingElement, RingElement]:
    """(s1, s2) of the one-row preimage of t drawn from rng."""
    (s,) = ibe._sample_preimage(msk, t.coeffs[None], [rng])
    return RingElement(msk.params, s[: t.params.N]), RingElement(msk.params, s[t.params.N :])


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

    def test_one_call_equals_keys_drawn_alone(self, toy_authority):
        """Keys extracted in one call equal the keys extracted one by one,
        in order: over more identities than one walk takes, and for an
        identity named twice."""
        msk = toy_authority.msk
        ids = [b"batch-%d" % i for i in range(ibe._WALK_ROWS + 5)] + [b"batch-3"]
        keys = extract(msk, *ids)
        assert [k.identity for k in keys] == ids
        assert keys == [extract(msk, identity)[0] for identity in ids]
        assert keys[3] == keys[-1] and keys[3] is not keys[-1]

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

    def test_batch_keeps_its_s2_in_one_block(self, test_authority):
        """The keys of one call share one read-only (K, N) int32 block, of
        which each key's s2 holds a row."""
        keys = extract(test_authority.msk, b"block-a", b"block-b", b"block-c")
        block = keys[0].s2.coeffs.base
        assert block.shape == (3, test_authority.params.N) and block.dtype == np.int32
        assert not block.flags.writeable
        assert all(k.s2.coeffs.base is block for k in keys)

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
        copied; s1 is derived on each read and never kept."""
        assert [f.name for f in dataclasses.fields(UserSecretKey)] == ["identity", "s2", "h"]
        (usk,) = extract(test_authority.msk, b"vehicle-77")
        assert usk.h is test_authority.mpk.h
        assert usk.s1 == usk.s1 and usk.s1 is not usk.s1
        assert "s1" not in vars(usk)


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


def bit_reversed_basis(msk) -> np.ndarray:
    """Rows x^r(j) * (g, -f) for j < N, then x^r(j) * (G, -F), with r the
    bit reversal of log2(N) bits: the order the ffLDL tree walks."""
    N = msk.params.N
    bits = N.bit_length() - 1
    order = [int(format(j, f"0{bits}b")[::-1], 2) for j in range(N)]

    def shifted(a, k):  # x^k * a mod x^N + 1
        a = np.array(a.coeffs, dtype=np.float64)
        return np.concatenate((-a[N - k :], a[: N - k]))

    return np.array([
        np.concatenate((shifted(u, k), -shifted(v, k)))
        for u, v in ((msk.g, msk.f), (msk.G, msk.F))
        for k in order
    ])


class TestKleinSamplerFrame:
    """The ffLDL tree is the Gram-Schmidt frame of the basis, bit-reversed."""

    @pytest.mark.parametrize("tier", ["toy", "test"])
    def test_gram_schmidt_frame(self, tier, request):
        """Each leaf is the squared Gram-Schmidt norm of two consecutive
        rows of the bit-reversed basis (the two are orthogonal, of equal
        length)."""
        msk = request.getfixturevalue(f"{tier}_authority").msk
        sampler = KleinSampler(msk)
        r = np.linalg.qr(bit_reversed_basis(msk).T, mode="r")
        np.testing.assert_allclose(np.repeat(sampler.leaves, 2), np.diag(r) ** 2, rtol=1e-9)

    @pytest.mark.parametrize("tier", ["toy", "test", "default"])
    def test_max_gs_norm_is_the_keygen_quality(self, tier, request):
        msk = request.getfixturevalue(f"{tier}_authority").msk
        expected = _gs_quality(msk.f, msk.g, msk.params.q)
        assert math.sqrt(msk.sampler.leaves.max()) == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("tier", ["toy", "test", "default"])
    def test_leaf_widths_fit_the_base_sampler(self, tier, request):
        """sigma_extract / sqrt(leaf) must stay below the base sampler's
        width 2; keygen's GS_SLACK bounds it by 1.5 * 1.3 = 1.95."""
        msk = request.getfixturevalue(f"{tier}_authority").msk
        leaves = msk.sampler.leaves
        assert len(leaves) == msk.params.N
        assert np.all(msk.params.sigma_extract / np.sqrt(leaves) < 2.0)

    @pytest.mark.parametrize("tier", ["toy", "test", "default"])
    def test_gram_and_target_round_as_python(self, tier, request):
        """The Gram entries and the target (t, 0) B^-1 equal Python's complex
        arithmetic value for value, so numpy's fused multiply-adds, where a
        CPU has them, cannot move a center and with it a key."""
        msk = request.getfixturevalue(f"{tier}_authority").msk
        h, q = msk.params.N // 2, msk.params.q
        f, g, F, G = (a[:h].tolist() for a in msk.sampler._fft)
        assert _gram(*msk.sampler._fft) == (
            [a * a.conjugate() + b * b.conjugate() for a, b in zip(g, f)],
            [a * c.conjugate() + b * d.conjugate() for a, b, c, d in zip(g, f, G, F)],
            [c * c.conjugate() + d * d.conjugate() for c, d in zip(G, F)],
        )
        for identity in (b"target-0", b"target-1", b"target-2"):
            t = identity_point(msk.params, identity).coeffs
            ta = fft_neg(t.astype(np.float64))[:h].tolist()
            t0, t1 = msk.sampler._target(t)
            assert t0.tolist() == [x * c * (-1 / q) for x, c in zip(ta, F)]
            assert t1.tolist() == [x * c * (1 / q) for x, c in zip(ta, f)]

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


def l10_values(l10) -> list:
    """A node's l10 as Python complex scalars.  The walk keeps the root's
    l10, and any of 8 or more values, as the pair (re + 0i, 0 + i*im) of
    numpy arrays."""
    return l10 if isinstance(l10, list) else (l10[0] + l10[1]).tolist()


def tree_nodes(tree, size: int) -> list:
    """The internal nodes of an ffLDL tree whose l10 holds `size` values."""
    if isinstance(tree, float):
        return []
    l10, tree0, tree1 = tree
    here = [tree] if len(l10_values(l10)) == size else []
    return here + tree_nodes(tree0, size) + tree_nodes(tree1, size)


# The walk as it reads in Ducas and Prest, on Python lists of complex
# scalars all the way down: the reference for the package's scalar steps and
# for its array levels.

def twiddles(n):
    """(zeta_k, conj(zeta_k)/2) for k < n/4 at degree n."""
    zetas = [cmath.exp(1j * math.pi * (2 * k + 1) / n) for k in range(n // 4)]
    return zetas, [z.conjugate() / 2 for z in zetas]


def split(a):
    """a(x) = a0(x^2) + x*a1(x^2), on the kept half of the Fourier values."""
    m = len(a) // 2
    hi = [x.conjugate() for x in a[: m - 1 : -1]]
    a0 = [(u + w) * 0.5 for u, w in zip(a, hi)]
    a1 = [(u - w) * t for u, w, t in zip(a, hi, twiddles(2 * len(a))[1])]
    return a0, a1


def merge(a0, a1):
    """Inverse of split."""
    d = [z * y for z, y in zip(twiddles(4 * len(a0))[0], a1)]
    lo = [x + y for x, y in zip(a0, d)]
    hi = [(x - y).conjugate() for x, y in zip(a0, d)]
    return lo + hi[::-1]


def ff_sample(t0, t1, node, trials, bottom=None):
    """Integer (z0, z1) near (t0, t1) for one node: z1 first, then z0 around
    t0 moved by (t1 - z1) * l10.  A degree-2 leaf, which holds its width,
    draws the odd coordinate of its value first.  Given `bottom`, a half of
    8 values goes to it instead of on down the lists."""
    l10, tree0, tree1 = node

    def diag(t, tree):
        if isinstance(tree, float):
            (c,) = t
            odd = sample_gaussian_int(c.imag, tree, trials)
            return [complex(sample_gaussian_int(c.real, tree, trials), odd)]
        if bottom and len(t) == 8:
            return bottom(t, tree, trials)
        return merge(*ff_sample(*split(t), tree, trials, bottom))

    z1 = diag(t1, tree1)
    t0 = [a + (b - c) * l for a, b, c, l in zip(t0, t1, z1, l10_values(l10))]
    return diag(t0, tree0), z1


class TestUnrolledSteps:
    """The scalar steps at the bottom of the walk draw what the list
    reference's split, sample and merge draw, value for value and byte for
    byte."""

    @staticmethod
    def _check(step, t, node, seed):
        ours = GaussianTrials(RandomSource(seed))
        theirs = GaussianTrials(RandomSource(seed))
        assert step(t, node, ours) == merge(*ff_sample(*split(t), node, theirs))
        ours.close()
        theirs.close()
        assert ours.rng.position == theirs.rng.position > 0

    def _check_every_node(self, step, size, tier, request):
        """Every node whose l10 holds `size` values, at a random target of
        2 * size values."""
        msk = request.getfixturevalue(f"{tier}_authority").msk
        nodes = tree_nodes(msk.sampler.tree, size)
        assert len(nodes) == msk.params.N // (2 * size)  # 2N coordinates, 4 * size per node
        points = np.random.default_rng(size).uniform(-40, 40, (len(nodes), 2 * size, 2))
        for i, (node, point) in enumerate(zip(nodes, points)):
            t = [complex(x, y) for x, y in point]
            self._check(step, t, node, f"{tier}-{4 * size}-{i}")

    @pytest.mark.parametrize("tier", ["toy", "test", "default"])
    def test_degree16_step_matches_split_sample_merge(self, tier, request):
        self._check_every_node(_ff_sample_degree16, 4, tier, request)

    @pytest.mark.parametrize("tier", ["toy", "test", "default"])
    def test_degree8_step_matches_split_sample_merge(self, tier, request):
        self._check_every_node(_ff_sample_degree8, 2, tier, request)

    @pytest.mark.parametrize("tier", ["toy", "test", "default"])
    def test_degree4_step_matches_split_sample_merge(self, tier, request):
        self._check_every_node(
            lambda t, node, trials: _ff_sample_degree4(*t, node, trials), 1, tier, request
        )

    @pytest.mark.parametrize("N", sorted(GOLDEN_SMALL_N))
    def test_smallest_degrees_extract_pinned_keys(self, N):
        (usk,) = extract(ra_setup(RingParams(N, 17), "x").msk, b"id")
        s1, digest = GOLDEN_SMALL_N[N]
        assert usk.s1.coeffs.tolist() == s1
        assert hashlib.sha256(usk.s1.to_bytes() + usk.s2.to_bytes()).hexdigest() == digest


class TestArrayLevels:
    """Where the walk's halves hold 8 or more values it splits, moves its
    targets and merges all rows at once, as (K, n) numpy arrays.  numpy's
    own complex product may fuse a multiply into an add (it does with
    AVX-512), which moves a center by a bit and can move a key: in a variant
    of this walk built on it, one of 2,000 test-tier keys changed
    (b"sweep-1168", beyond the 400 drawn below).  The walk's products
    through `_parts` round as Python's do, so each row of the arrays matches
    the lists value for value, which the first test checks directly, and
    the keys follow."""

    @pytest.mark.parametrize("n", [16, 32, 64, 512])
    def test_split_move_and_merge_match_the_lists(self, n):
        """Row for row and value for value, at magnitudes from 1e-3 to 1e5."""
        rng = np.random.default_rng(n)
        m = n // 2
        for scale in (1e-3, 1.0, 1e5):
            a, b, c, z = scale * (rng.normal(size=(4, 3, n)) + 1j * rng.normal(size=(4, 3, n)))
            z, l10 = np.rint(z[:, :m]), a[0, :m].tolist()
            x0, x1 = _split_array(a)
            d = x1 - z
            moved = x0 + (d * _parts(l10)[0] + d * _parts(l10)[1])
            merged = _merge_array(b[:, :m], c[:, :m])
            for k in range(3):
                assert (x0[k].tolist(), x1[k].tolist()) == split(a[k].tolist())
                assert merged[k].tolist() == merge(b[k, :m].tolist(), c[k, :m].tolist())
                assert moved[k].tolist() == [
                    u + (v - w) * l
                    for u, v, w, l in zip(x0[k].tolist(), x1[k].tolist(), z[k].tolist(), l10)
                ]

    @staticmethod
    def reference_walk(t0, t1, node, cursors):
        """The list reference above the package's degree-16 step (which
        `TestUnrolledSteps` checks against the lists value for value), one
        row at a time."""
        rows = [
            ff_sample(a, b, node, trials, bottom=_ff_sample_degree16)
            for a, b, trials in zip(t0.tolist(), t1.tolist(), cursors)
        ]
        return tuple(np.array(z) for z in zip(*rows))

    @staticmethod
    def sweep(msk) -> list[bytes]:
        """Per-key digests of the 400 identities b"sweep-0", ..., drawn in
        one call."""
        keys = extract(msk, *(b"sweep-%d" % i for i in range(400)))
        return [hashlib.sha256(k.s1.to_bytes() + k.s2.to_bytes()).digest() for k in keys]

    @pytest.mark.parametrize("authority", ["test", "n32"])
    def test_keys_match_the_list_walk(self, authority, request, monkeypatch):
        """At N = 32 the top node's halves hold 16 values, so the array
        levels meet the degree-16 step one level below the root."""
        if authority == "n32":
            msk = ra_setup(RingParams(32, 8380417), "array-levels-n32").msk
        else:
            msk = request.getfixturevalue(f"{authority}_authority").msk
        ours = self.sweep(msk)
        monkeypatch.setattr(ibe, "_ff_sample", self.reference_walk)
        assert self.sweep(msk) == ours

    def test_default_tier_keys_match_the_list_walk(self, default_authority):
        """Against the pinned digest of the list walk's keys, which halves
        the time of drawing them twice."""
        digest = hashlib.sha256(b"".join(self.sweep(default_authority.msk))).hexdigest()
        assert digest == GOLDEN_DEFAULT_SWEEP


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
        model = noise_model(mpk.params, usk)
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
        model = noise_model(toy_authority.params, toy_authority.cspa_usk)
        assert model.sd > 2
        assert 0.49 < model.bit_flip <= 0.5

    def test_default_tier_noise_prediction(self, default_authority):
        model = noise_model(default_authority.params, default_authority.cspa_usk)
        assert model.sd < 0.2 and model.z > 5
        assert model.bit_flip < 1e-20
        assert model.key_opens == pytest.approx(1.0)
        with pytest.raises(ParameterMismatch):
            noise_model(TIERS["test"], default_authority.cspa_usk)

    @pytest.mark.parametrize("tier", list(TIERS))
    def test_decrypt_thresholds_match_the_centered_rule(self, tier):
        """Bit i is 1 exactly when the centered w_i exceeds q//4 in size,
        at and next to both thresholds q//4 and q - q//4."""
        p = TIERS[tier]
        q = p.q
        zero = RingElement(p, [0] * p.N)  # u = 0, so w = v for any key
        edges = [q // 4, q // 4 + 1, q - q // 4 - 1, q - q // 4, 0, q // 2, q // 2 + 1, q - 1]
        w = RingElement(p, (edges * p.N)[: p.N])
        got = decrypt(UserSecretKey(b"x", zero, zero), Ciphertext(zero, w))
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
        from dwpt_auth.ring import hash_to_ring

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


class TestHybrid:
    def test_seal_open_round_trip(self, default_authority):
        mpk, msk = default_authority.mpk, default_authority.msk
        (usk,) = extract(msk, b"recipient")
        rng = RandomSource("seal")
        msg = b"arbitrary length payload " * 9
        ct = ibe_seal(mpk, identity_point(mpk.params, b"recipient"), msg, rng, b"frame")
        assert ibe_open(usk, ct, b"frame") == msg

    def test_key_block_count(self, default_authority):
        mpk = default_authority.mpk
        ct = ibe_seal(mpk, identity_point(mpk.params, b"r"), b"x", RandomSource("blocks"))
        assert len(ct.key_blocks) == -(-256 // mpk.params.N)

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
        sealed = bytearray(ct.sealed)
        sealed[-1] ^= 1
        tampered = HybridCiphertext(key_blocks=ct.key_blocks, sealed=bytes(sealed))
        with pytest.raises(AuthenticationFailure):
            ibe_open(usk, tampered)

    def test_keyless_ciphertext_rejected(self, toy_authority):
        """No key blocks would mean the all-zero content key: anyone could
        seal a payload to any identity."""
        params = toy_authority.mpk.params
        (usk,) = extract(toy_authority.msk, b"victim")
        forged = HybridCiphertext((), aead_seal(bytes(32), b"chosen by anyone", RandomSource("forge")))
        with pytest.raises(AuthenticationFailure):
            ibe_open(usk, forged)
        with pytest.raises(DecodeError):
            HybridCiphertext.from_bytes(forged.to_bytes(), params)

    def test_wrong_key_block_count_rejected(self, default_authority):
        mpk, msk = default_authority.mpk, default_authority.msk
        (usk,) = extract(msk, b"bob")
        ct = ibe_seal(mpk, identity_point(mpk.params, b"bob"), b"secret", RandomSource("count"))
        assert ibe_open(usk, ct) == b"secret"
        doubled = HybridCiphertext(key_blocks=ct.key_blocks * 2, sealed=ct.sealed)
        with pytest.raises(AuthenticationFailure):
            ibe_open(usk, doubled)
        with pytest.raises(DecodeError):
            HybridCiphertext.from_bytes(doubled.to_bytes(), mpk.params)

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

    def test_hybrid_round_trip(self, test_authority):
        mpk = test_authority.mpk
        t = identity_point(mpk.params, b"dest")
        ct = ibe_seal(mpk, t, b"payload bytes", RandomSource("hser"))
        back = HybridCiphertext.from_bytes(ct.to_bytes(), mpk.params)
        assert back == ct

    def test_sizes_are_fixed_by_the_parameters(self, test_authority):
        """u and v at their fixed size, no prefix or header; a hybrid is its
        blocks, then the u32-prefixed sealed payload."""
        mpk = test_authority.mpk
        t, n = identity_point(mpk.params, b"dest"), mpk.params.element_bytes
        ct = ibe_seal(mpk, t, b"payload bytes", RandomSource("hsize"))
        assert [len(b.to_bytes()) for b in ct.key_blocks] == [2 * n] * (256 // mpk.params.N)
        assert ct.to_bytes() == b"".join(
            b.u.to_bytes() + b.v.to_bytes() for b in ct.key_blocks
        ) + len(ct.sealed).to_bytes(4, "little") + ct.sealed

    @pytest.mark.parametrize("cls", [Ciphertext, HybridCiphertext])
    def test_one_byte_short_or_long_rejected(self, test_authority, cls):
        mpk = test_authority.mpk
        t = identity_point(mpk.params, b"dest")
        ct = ibe_seal(mpk, t, b"payload bytes", RandomSource("hlen"))
        blob = (ct.key_blocks[0] if cls is Ciphertext else ct).to_bytes()
        assert cls.from_bytes(blob, mpk.params).to_bytes() == blob
        for bad in (blob[:-1], blob + b"\x00"):
            with pytest.raises(DecodeError):
                cls.from_bytes(bad, mpk.params)

    def test_hybrid_truncation_and_trailing_bytes_rejected(self, toy_authority):
        mpk = toy_authority.mpk
        t = identity_point(mpk.params, b"dest")
        blob = ibe_seal(mpk, t, b"payload bytes", RandomSource("hcut")).to_bytes()
        for cut in range(len(blob)):
            with pytest.raises(DecodeError):
                HybridCiphertext.from_bytes(blob[:cut], mpk.params)
        with pytest.raises(DecodeError):
            HybridCiphertext.from_bytes(blob + b"\x00", mpk.params)

    def test_short_inputs_raise_value_error(self, toy_authority):
        params = toy_authority.mpk.params
        for decode in (Ciphertext.from_bytes, HybridCiphertext.from_bytes, RingElement.from_bytes):
            for data in (b"", b"\x01", b"\x05\x00\x00"):
                with pytest.raises(DecodeError):
                    decode(data, params)


#: numpy's dispatch targets with fused multiply-add (X86_V3 brings FMA3 and
#: AVX2) or with AVX-512; with all of them disabled numpy runs its baseline
#: loops, its own complex product and log among them.
NO_FMA_TARGETS = ("X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR")

#: The key pins, the container pins and the transcript pins derived from
#: them, re-run below without those targets.
PIN_TESTS = (
    "tests/test_ibe.py::TestKleinSamplerFrame::test_default_tier_extract_matches_golden",
    "tests/test_ibe.py::TestKleinSamplerFrame::test_default_tier_sign_matches_golden",
    "tests/test_ibe.py::TestUnrolledSteps::test_smallest_degrees_extract_pinned_keys",
    "tests/test_keyfiles.py::TestGoldenFiles",
    "tests/test_netsim.py::TestTranscriptPins",
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
