"""Identity-based layer: trapdoor generation, extraction, encryption, signing."""

import hashlib
import math

import numpy as np
import pytest

from dwpt_auth.errors import AuthenticationFailure, DecodeError, ParameterMismatch
from dwpt_auth.ibe import (
    GS_SLACK,
    Ciphertext,
    HybridCiphertext,
    KleinSampler,
    Signature,
    _blocks_to_key,
    _gs_quality,
    _key_to_blocks,
    decrypt,
    encrypt,
    extract,
    ibe_open,
    ibe_seal,
    identity_point,
    master_key_gen,
    norm_bound,
    sign,
    verify,
)
from dwpt_auth.registration import ra_setup
from dwpt_auth.ring import RingElement, TIERS
from dwpt_auth.rng import RandomSource
from dwpt_auth.symcrypto import aead_seal

#: SHA-256 of usk.s1.to_bytes() + usk.s2.to_bytes() for
#: usk = extract(default_authority.msk, b"golden-identity"); pins the
#: seed-to-key map at the default tier.
GOLDEN_DEFAULT_EXTRACT = "9c41043eed0287b03a86e31d3a720c06a02efbcd98bc08cca350ad7cb4098724"

#: SHA-256 of salt + s1.to_bytes() + s2.to_bytes() for
#: sign(ra_setup(TIERS["default"], "golden-default-authority").msk,
#: b"pinned message", rng) with rng = RandomSource("golden-sign"), followed by
#: the caller's next rng.bytes(40): pins the signature and how far the
#: signer advanced the caller's stream.
GOLDEN_DEFAULT_SIGN = "6c83d02043b99268960a5e190d3715825a0d2a0cbd7276374d96422a4e1cbed1"


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
            assert (u.to_ring(p) - v.to_ring(p) * mpk.h).is_zero()

    def test_basis_quality_within_slack(self, toy_authority):
        msk = toy_authority.msk
        sampler = KleinSampler(msk)
        assert sampler.max_gs_norm <= GS_SLACK * math.sqrt(msk.params.q)

    def test_deterministic_per_seed(self):
        p = TIERS["toy"]
        mpk1, _ = master_key_gen(p, RandomSource("kg"))
        mpk2, _ = master_key_gen(p, RandomSource("kg"))
        mpk3, _ = master_key_gen(p, RandomSource("other"))
        assert mpk1.h == mpk2.h
        assert mpk1.h != mpk3.h


class TestExtract:
    def test_preimage_equation(self, test_authority):
        mpk, msk = test_authority.mpk, test_authority.msk
        usk = extract(msk, b"vehicle-77")
        t = identity_point(mpk.params, b"vehicle-77")
        assert usk.s1 + usk.s2 * mpk.h == t

    def test_norm_within_bound(self, test_authority):
        usk = extract(test_authority.msk, b"vehicle-77")
        norm_sq = usk.s1.norm_squared() + usk.s2.norm_squared()
        assert norm_sq <= norm_bound(usk.params) ** 2

    def test_extraction_is_deterministic(self, test_authority):
        msk = test_authority.msk
        first = extract(msk, b"repeat-me")
        again = extract(msk, b"repeat-me")
        assert again is not first
        assert again == first

    def test_distinct_identities_get_distinct_keys(self, test_authority):
        a = extract(test_authority.msk, b"id-a")
        b = extract(test_authority.msk, b"id-b")
        assert a.s1 != b.s1


class TestKleinSampler:
    def test_returns_lattice_points_near_target(self, toy_authority):
        msk = toy_authority.msk
        p = msk.params
        sampler = msk.sampler()
        rng = RandomSource("klein")
        h = toy_authority.mpk.h
        target = np.zeros(2 * p.N, dtype=np.int64)
        target[0] = p.q // 3
        dists = []
        for _ in range(40):
            v = sampler.sample_near(target, p.sigma_extract, rng)
            # lattice membership: (v1, v2) with v1 + v2*h = 0 mod q
            v1 = RingElement(p, v[: p.N])
            v2 = RingElement(p, v[p.N :])
            assert (v1 + v2 * h).is_zero()
            d = target - v
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
        assert msk.sampler().max_gs_norm == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("tier", ["toy", "test", "default"])
    def test_leaf_widths_fit_the_base_sampler(self, tier, request):
        """sigma_extract / sqrt(leaf) must stay below the base sampler's
        width 2; keygen's GS_SLACK bounds it by 1.5 * 1.3 = 1.95."""
        msk = request.getfixturevalue(f"{tier}_authority").msk
        leaves = msk.sampler().leaves
        assert len(leaves) == msk.params.N
        assert np.all(msk.params.sigma_extract / np.sqrt(leaves) < 2.0)

    def test_default_tier_extract_matches_golden(self, default_authority):
        usk = extract(default_authority.msk, b"golden-identity")
        digest = hashlib.sha256(usk.s1.to_bytes() + usk.s2.to_bytes()).hexdigest()
        assert digest == GOLDEN_DEFAULT_EXTRACT

    def test_default_tier_sign_matches_golden(self):
        msk = ra_setup(TIERS["default"], "golden-default-authority").msk
        rng = RandomSource("golden-sign")
        sig = sign(msk, b"pinned message", rng)
        blob = sig.salt + sig.s1.to_bytes() + sig.s2.to_bytes() + rng.bytes(40)
        assert hashlib.sha256(blob).hexdigest() == GOLDEN_DEFAULT_SIGN


class TestEncryptDecrypt:
    def test_round_trip_default_tier(self, default_authority):
        mpk, msk = default_authority.mpk, default_authority.msk
        usk = extract(msk, b"round-trip")
        rng = RandomSource("enc")
        for _ in range(5):
            bits = random_bits(mpk.params.N, rng)
            ct = encrypt(mpk, b"round-trip", bits, rng)
            assert decrypt(usk, ct) == bits

    def test_wrong_identity_garbles(self, default_authority):
        mpk, msk = default_authority.mpk, default_authority.msk
        rng = RandomSource("cross")
        bits = random_bits(mpk.params.N, rng)
        ct = encrypt(mpk, b"alice", bits, rng)
        other = extract(msk, b"mallory")
        assert decrypt(other, ct) != bits

    def test_small_tier_noise_margin_is_reported(self, test_authority):
        """Narrow-modulus tiers decode noisily by design; measure the rate."""
        mpk, msk = test_authority.mpk, test_authority.msk
        usk = extract(msk, b"noisy")
        rng = RandomSource("noise")
        trials, bad_bits, total_bits = 10, 0, 0
        for _ in range(trials):
            bits = random_bits(mpk.params.N, rng)
            got = decrypt(usk, encrypt(mpk, b"noisy", bits, rng))
            bad_bits += sum(a != b for a, b in zip(bits, got))
            total_bits += len(bits)
        rate = bad_bits / total_bits
        print(f"\n[test tier] bit error rate {rate:.3f} ({bad_bits}/{total_bits})")
        assert 0.0 <= rate < 0.5  # decodes better than coin flips even here

    def test_message_length_enforced(self, default_authority):
        mpk = default_authority.mpk
        with pytest.raises(ValueError):
            encrypt(mpk, b"x", [0] * (mpk.params.N - 1), RandomSource(1))
        with pytest.raises(ValueError):
            encrypt(mpk, b"x", [2] * mpk.params.N, RandomSource(1))
        with pytest.raises(ValueError):
            encrypt(mpk, b"x", [0] * (mpk.params.N - 1) + [-1], RandomSource(1))
        with pytest.raises(ValueError):
            encrypt(mpk, b"x", [[0, 1]] * (mpk.params.N // 2), RandomSource(1))

    def test_params_mismatch_rejected(self, default_authority, toy_authority):
        rng = RandomSource("mix")
        toy_mpk = toy_authority.mpk
        ct = encrypt(toy_mpk, b"x", random_bits(toy_mpk.params.N, rng), rng)
        usk = extract(default_authority.msk, b"x")
        with pytest.raises(ParameterMismatch):
            decrypt(usk, ct)


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
        forged = Signature(salt=salt, s1=t, s2=RingElement.zero(p))
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
        usk = extract(msk, b"recipient")
        rng = RandomSource("seal")
        msg = b"arbitrary length payload " * 9
        ct = ibe_seal(mpk, b"recipient", msg, rng, b"frame")
        assert ibe_open(usk, ct, b"frame") == msg

    def test_key_block_count(self, default_authority):
        mpk = default_authority.mpk
        ct = ibe_seal(mpk, b"r", b"x", RandomSource("blocks"))
        assert len(ct.key_blocks) == -(-256 // mpk.params.N)

    def test_wrong_recipient_rejected(self, default_authority):
        mpk, msk = default_authority.mpk, default_authority.msk
        ct = ibe_seal(mpk, b"alice", b"secret", RandomSource("s2"))
        eve = extract(msk, b"eve")
        with pytest.raises(AuthenticationFailure):
            ibe_open(eve, ct)

    def test_wrong_aad_rejected(self, default_authority):
        mpk, msk = default_authority.mpk, default_authority.msk
        usk = extract(msk, b"bob")
        ct = ibe_seal(mpk, b"bob", b"secret", RandomSource("s3"), b"aad-1")
        with pytest.raises(AuthenticationFailure):
            ibe_open(usk, ct, b"aad-2")

    def test_tampered_payload_rejected(self, default_authority):
        mpk, msk = default_authority.mpk, default_authority.msk
        usk = extract(msk, b"bob")
        ct = ibe_seal(mpk, b"bob", b"secret", RandomSource("s4"))
        sealed = bytearray(ct.sealed)
        sealed[-1] ^= 1
        tampered = HybridCiphertext(key_blocks=ct.key_blocks, sealed=bytes(sealed))
        with pytest.raises(AuthenticationFailure):
            ibe_open(usk, tampered)

    def test_keyless_ciphertext_rejected(self, toy_authority):
        """No key blocks would mean the all-zero content key: anyone could
        seal a payload to any identity."""
        params = toy_authority.mpk.params
        usk = extract(toy_authority.msk, b"victim")
        forged = HybridCiphertext((), aead_seal(bytes(32), b"chosen by anyone", RandomSource("forge")))
        with pytest.raises(AuthenticationFailure):
            ibe_open(usk, forged)
        with pytest.raises(DecodeError):
            HybridCiphertext.from_bytes(forged.to_bytes(), params)

    def test_wrong_key_block_count_rejected(self, default_authority):
        mpk, msk = default_authority.mpk, default_authority.msk
        usk = extract(msk, b"bob")
        ct = ibe_seal(mpk, b"bob", b"secret", RandomSource("count"))
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
        ct = encrypt(mpk, b"x", random_bits(mpk.params.N, rng), rng)
        back = Ciphertext.from_bytes(ct.to_bytes(), mpk.params)
        assert back == ct

    def test_hybrid_round_trip(self, test_authority):
        mpk = test_authority.mpk
        ct = ibe_seal(mpk, b"dest", b"payload bytes", RandomSource("hser"))
        back = HybridCiphertext.from_bytes(ct.to_bytes(), mpk.params)
        assert back == ct

    def test_hybrid_truncation_and_trailing_bytes_rejected(self, toy_authority):
        mpk = toy_authority.mpk
        blob = ibe_seal(mpk, b"dest", b"payload bytes", RandomSource("hcut")).to_bytes()
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
