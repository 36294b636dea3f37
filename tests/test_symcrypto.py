"""Symmetric layer: key derivation, AEAD framing, hash chains.

Fixed test vectors here were computed independently with command-line
openssl/sha256sum so a broken helper cannot vouch for itself.
"""

import pytest

from dwpt_auth.errors import AuthenticationFailure, DecodeError
from dwpt_auth.rng import RandomSource
from dwpt_auth.symcrypto import (
    HashChain,
    SymmetricKey,
    add_mod_2_256,
    aead_open,
    aead_seal,
    chain_verify,
    decode_timestamp,
    derive_pseudonym,
    derive_session_key,
    encode_timestamp,
    sha256,
)


class TestDerivations:
    def test_session_key_vector(self):
        # sha256(00*32 || 01*32)
        k = derive_session_key(b"\x00" * 32, b"\x01" * 32)
        assert k.key.hex() == (
            "5c85955f709283ecce2b74f1b1552918819f390911816e7bb466805a38ab87f3"
        )

    def test_pseudonym_vector(self):
        # sha256(b"EV42" || 15 as 64-byte big-endian)
        ps = derive_pseudonym(b"EV42", 15)
        assert ps.hex() == (
            "f36edf48024bb712c930bb925fc69c4db565c9182ad13f2f7e3355116be7c78a"
        )

    def test_pseudonym_depends_on_both_inputs(self):
        assert derive_pseudonym(b"A", 1) != derive_pseudonym(b"B", 1)
        assert derive_pseudonym(b"A", 1) != derive_pseudonym(b"A", 2)

    def test_pseudonym_of_negative_point_refused(self):
        with pytest.raises(ValueError, match="non-negative"):
            derive_pseudonym(b"A", -1)

    def test_session_key_rejects_short_nonce(self):
        with pytest.raises(ValueError):
            derive_session_key(b"\x00" * 16, b"\x01" * 32)


class TestAddMod:
    def test_plain_addition(self):
        a = (7).to_bytes(32, "big")
        b = (5).to_bytes(32, "big")
        assert int.from_bytes(add_mod_2_256(a, b), "big") == 12

    def test_wraparound(self):
        a = b"\xff" * 32
        b = (1).to_bytes(32, "big")
        assert add_mod_2_256(a, b) == b"\x00" * 32

    def test_length_enforced(self):
        with pytest.raises(ValueError):
            add_mod_2_256(b"\x00" * 31, b"\x00" * 32)


class TestTimestamps:
    def test_round_trip(self):
        blob = encode_timestamp(1_722_000_123_456)
        assert len(blob) == 32
        assert decode_timestamp(blob) == 1_722_000_123_456

    def test_padding_is_strict(self):
        blob = bytearray(encode_timestamp(42))
        blob[20] = 1
        with pytest.raises(DecodeError):
            decode_timestamp(bytes(blob))

    def test_wrong_length(self):
        with pytest.raises(DecodeError):
            decode_timestamp(b"\x00" * 31)

    @pytest.mark.parametrize("ms", [-1, 1 << 64])
    def test_encode_out_of_range(self, ms):
        with pytest.raises(ValueError, match="timestamp out of range"):
            encode_timestamp(ms)


class TestSymmetricKey:
    def test_role_check(self):
        k = SymmetricKey(b"\x11" * 32, "group-cspa-rsu")
        assert k.require("group-cspa-rsu") is k
        with pytest.raises(AuthenticationFailure):
            k.require("group-rsu-cp")

    def test_key_length_enforced(self):
        with pytest.raises(ValueError):
            SymmetricKey(b"\x11" * 16, "session")

    def test_cipher_left_out_of_equality_hash_and_repr(self):
        a = SymmetricKey(b"\x11" * 32, "session")
        b = SymmetricKey(b"\x11" * 32, "session")
        assert a.cipher is a.cipher and a.cipher is not b.cipher  # one per key
        assert a == b and hash(a) == hash(b)
        assert a != SymmetricKey(b"\x11" * 32, "group-rsu-cp")
        assert repr(a) == f"SymmetricKey(key={a.key!r}, role='session')"


class TestAead:
    # NIST-style AES-256-GCM vectors: zero key, zero 12-byte nonce
    ZERO_KEY = SymmetricKey(b"\x00" * 32, "session")

    def test_gcm_empty_plaintext_vector(self):
        from cryptography.hazmat.primitives.ciphers.aead import AESGCM

        tag = AESGCM(b"\x00" * 32).encrypt(b"\x00" * 12, b"", None)
        assert tag.hex() == "530f8afbc74536b9a963b4f1c4cb738b"

    def test_gcm_block_vector(self):
        from cryptography.hazmat.primitives.ciphers.aead import AESGCM

        out = AESGCM(b"\x00" * 32).encrypt(b"\x00" * 12, b"\x00" * 16, None)
        assert out.hex() == (
            "cea7403d4d606b6e074ec5d3baf39d18d0d1c8a799996bf0265b98b5d48ab919"
        )

    def test_round_trip_with_aad(self):
        rng = RandomSource("aead")
        sealed = aead_seal(self.ZERO_KEY, b"payload", rng, b"frame-tag")
        assert aead_open(self.ZERO_KEY, sealed, b"frame-tag") == b"payload"

    def test_nonce_is_in_band_and_fresh(self):
        rng = RandomSource("aead2")
        s1 = aead_seal(self.ZERO_KEY, b"x", rng)
        s2 = aead_seal(self.ZERO_KEY, b"x", rng)
        assert s1[:12] != s2[:12]
        assert len(s1) == 12 + 1 + 16  # nonce + ct + tag

    def test_tamper_detected(self):
        rng = RandomSource("aead3")
        sealed = bytearray(aead_seal(self.ZERO_KEY, b"payload", rng, b"t"))
        sealed[-1] ^= 1
        with pytest.raises(AuthenticationFailure):
            aead_open(self.ZERO_KEY, bytes(sealed), b"t")

    def test_wrong_aad_detected(self):
        rng = RandomSource("aead4")
        sealed = aead_seal(self.ZERO_KEY, b"payload", rng, b"t")
        with pytest.raises(AuthenticationFailure):
            aead_open(self.ZERO_KEY, sealed, b"u")

    def test_wrong_key_detected(self):
        rng = RandomSource("aead5")
        other = SymmetricKey(b"\x01" * 32, "session")
        sealed = aead_seal(self.ZERO_KEY, b"payload", rng, b"t")
        with pytest.raises(AuthenticationFailure):
            aead_open(other, sealed, b"t")

    def test_truncated_rejected(self):
        with pytest.raises(AuthenticationFailure):
            aead_open(self.ZERO_KEY, b"\x00" * 11, b"")


class TestHashChain:
    T = b"\x11" * 32
    M = b"\x22" * 32

    def test_first_link_vectors(self):
        # computed with sha256sum: base link and one chaining step
        chain = HashChain.build(self.T, self.M, 1)
        assert chain.links[0].hex() == (
            "4aa9c7fb082fdd4e0228c3f7447d26c928b596ce0acb554900ac7f3fdbfe9dd8"
        )
        assert chain.head.hex() == (
            "85f4ed661ae57b80ece596af52794b17cae9d850aae80de062013a6910d48639"
        )

    def test_links_chain_by_hashing(self):
        chain = HashChain.build(self.T, self.M, 8)
        assert len(chain.links) == 9  # base hash plus one per settlement
        for prev, cur in zip(chain.links, chain.links[1:]):
            assert cur == sha256(prev)

    def test_head_and_pad_indexing(self):
        n = 8
        chain = HashChain.build(self.T, self.M, n)
        assert chain.head == chain.links[-1]
        assert len(chain.links) - 1 == n
        # pad j reveals the preimage at depth j below the head
        for j in range(1, n + 1):
            v = chain.value_for_pad(j)
            for _ in range(j):
                v = sha256(v)
            assert v == chain.head

    def test_pad_index_bounds(self):
        chain = HashChain.build(self.T, self.M, 4)
        with pytest.raises(ValueError):
            chain.value_for_pad(0)
        with pytest.raises(ValueError):
            chain.value_for_pad(5)

    def test_verify_single_step(self):
        chain = HashChain.build(self.T, self.M, 3)
        v1 = chain.value_for_pad(1)
        assert chain_verify(v1, chain.head)
        assert not chain_verify(v1, sha256(b"nope"))
        assert chain_verify(chain.value_for_pad(2), v1)

    def test_from_digests_matches_build(self):
        direct = HashChain.build(self.T, self.M, 5)
        rebuilt = HashChain.from_digests(sha256(self.T), sha256(self.M), 5)
        assert rebuilt.links == direct.links

    def test_malformed_chains_refused(self):
        """A chain holds a pad link and the head at least, at least one pad,
        and 32-byte digests."""
        with pytest.raises(ValueError, match="at least one pad link plus the head"):
            HashChain((sha256(self.T),))
        with pytest.raises(ValueError, match="need at least one pad"):
            HashChain.from_digests(sha256(self.T), sha256(self.M), 0)
        with pytest.raises(ValueError, match="digests are 32 bytes"):
            HashChain.from_digests(sha256(self.T)[:31], sha256(self.M), 3)
