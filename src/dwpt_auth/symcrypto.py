"""Symmetric building blocks: hashing, key derivation, AEAD, hash chains.

Everything here is deterministic byte-level plumbing shared by the
registration and protocol layers.  Keys are role-tagged so a session key
cannot silently stand in for a group key.
"""

from __future__ import annotations

import hashlib
import importlib
from dataclasses import dataclass
from functools import cache, cached_property

from dwpt_auth.errors import AuthenticationFailure, DecodeError
from dwpt_auth.rng import RandomSource

_NONCE_LEN = 12
_ADD_MODULUS = 1 << 256


def sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


@dataclass(frozen=True)
class SymmetricKey:
    """32-byte key tagged with the role it was derived for."""

    key: bytes
    role: str

    def __post_init__(self):
        if len(self.key) != 32:
            raise ValueError("symmetric keys are 32 bytes")

    @cached_property
    def cipher(self):
        """AES-GCM under this key, built on first use and kept; not part of
        equality, hash or repr."""
        return _aesgcm()(self.key)

    def __reduce__(self):
        # The cipher cannot be pickled; a copy builds its own on first use.
        return SymmetricKey, (self.key, self.role)

    def require(self, role: str) -> "SymmetricKey":
        if self.role != role:
            raise AuthenticationFailure(
                f"key role mismatch: have {self.role!r}, need {role!r}"
            )
        return self


def derive_session_key(n_ev: bytes, n_cspa: bytes) -> SymmetricKey:
    """Session key from the two handshake nonces: SHA-256(N_EV || N_CSPA)."""
    if len(n_ev) != 32 or len(n_cspa) != 32:
        raise ValueError("nonces are 32 bytes")
    return SymmetricKey(key=sha256(n_ev + n_cspa), role="session")


def derive_pseudonym(vehicle_id: bytes, shared_point: int) -> bytes:
    """Pseudonym = SHA-256(ID_EV || shared_point as 64-byte big-endian)."""
    if shared_point < 0:
        raise ValueError("shared point must be non-negative")
    return sha256(vehicle_id + shared_point.to_bytes(64, "big"))


def add_mod_2_256(a: bytes, b: bytes) -> bytes:
    """(a + b) mod 2^256 on 32-byte big-endian operands."""
    if len(a) != 32 or len(b) != 32:
        raise ValueError("operands are 32 bytes")
    total = (int.from_bytes(a, "big") + int.from_bytes(b, "big")) % _ADD_MODULUS
    return total.to_bytes(32, "big")


# ---------------------------------------------------------------------------
# Timestamps

def encode_timestamp(ms: int) -> bytes:
    """Millisecond counter as u64 LE, zero-padded to a 32-byte field."""
    if not 0 <= ms < 1 << 64:
        raise ValueError("timestamp out of range")
    return ms.to_bytes(8, "little") + bytes(24)


def decode_timestamp(field: bytes) -> int:
    """Inverse of encode_timestamp; DecodeError on any other field."""
    if len(field) != 32 or field[8:] != bytes(24):
        raise DecodeError("malformed timestamp field")
    return int.from_bytes(field[:8], "little")


# ---------------------------------------------------------------------------
# AEAD (AES-256-GCM, nonce carried in-band)

@cache
def _aesgcm() -> type:
    """AESGCM, imported on the first seal or open: its binding costs about
    6 MB of memory.  `aead_open` names InvalidTag only in its except
    clause, which Python evaluates only once something is raised."""
    from cryptography.hazmat.primitives.ciphers.aead import AESGCM
    return AESGCM


def aead_seal(
    key: SymmetricKey, plaintext: bytes, rng: RandomSource, associated_data: bytes = b""
) -> bytes:
    """nonce(12) || ciphertext+tag under AES-256-GCM."""
    nonce = rng.bytes(_NONCE_LEN)
    return nonce + key.cipher.encrypt(nonce, plaintext, associated_data)


def aead_open(key: SymmetricKey, blob: bytes, associated_data: bytes = b"") -> bytes:
    if len(blob) < _NONCE_LEN + 16:
        raise AuthenticationFailure("ciphertext too short")
    try:
        return key.cipher.decrypt(blob[:_NONCE_LEN], blob[_NONCE_LEN:], associated_data)
    except importlib.import_module("cryptography.exceptions").InvalidTag as exc:
        raise AuthenticationFailure("AEAD tag check failed") from exc


# ---------------------------------------------------------------------------
# Hash chains

class HashChain:
    """One-time-value chain anchoring a charging pass.

    base = H(T) || H(M_EV); link[0] = H(base); link[k] = H(link[k-1]).
    The head is link[n].  Pad j (1-based, in driving order) consumes
    link[n - j], so the final pad consumes link[0].
    """

    __slots__ = ("links",)

    def __init__(self, links: tuple):
        if len(links) < 2:
            raise ValueError("a chain needs at least one pad link plus the head")
        self.links = links

    @classmethod
    def build(cls, token: bytes, m_ev: bytes, n_pads: int) -> "HashChain":
        return cls.from_digests(sha256(token), sha256(m_ev), n_pads)

    @classmethod
    def from_digests(cls, h_token: bytes, h_m_ev: bytes, n_pads: int) -> "HashChain":
        """Same chain as `build`, for parties holding only the digests."""
        if n_pads < 1:
            raise ValueError("need at least one pad")
        if len(h_token) != 32 or len(h_m_ev) != 32:
            raise ValueError("digests are 32 bytes")
        step, links = sha256, [sha256(h_token + h_m_ev)]  # one lookup, not one per pad
        append = links.append
        for _ in range(n_pads):
            append(step(links[-1]))
        return cls(tuple(links))

    @property
    def head(self) -> bytes:
        return self.links[-1]


def chain_verify(candidate: bytes, expected_head: bytes) -> bool:
    """Accept iff one hash step maps the candidate onto the expected head."""
    return sha256(candidate) == expected_head
