"""Authentication and charging-session state machines.

Message flow for one session, in driving order:

  m1  EV   -> CSPA  sealed to the operator identity: pseudonym, nonce, time,
                    share z
  m2  CSPA -> EV    sealed to the pseudonym: token T, nonce, time, z + w
  m3  CSPA -> RSU   under the CSPA-RSU group key: H(T), pseudonym, session
                    key, time
  m4  EV   -> RSU   under the session key: pseudonym, nonce, time
  m5  RSU  -> EV    under the session key: nonce + 1, charging nonce M_EV,
                    time, pad count
  m6  RSU  -> CP1   under the RSU-CP group key: chain head
  m7+ EV   -> CPj   bare chain values, one per pad; each accepted value is
                    forwarded to the next pad (m8) as its expected head

Every handler validates freshness, nonces, and secrets, and raises
ProtocolRejection with a stable machine-readable reason on any mismatch.
"""

from __future__ import annotations

from typing import NamedTuple

from dwpt_auth.errors import AuthenticationFailure, DecodeError, ProtocolRejection
from dwpt_auth.ibe import MasterPublicKey, ibe_open, ibe_seal, identity_point
from dwpt_auth.registration import CredentialEntry, CspaDataset, ROLE_CSPA_RSU, ROLE_RSU_CP
from dwpt_auth.ring import RingElement
from dwpt_auth.rng import RandomSource
from dwpt_auth.symcrypto import (
    HashChain,
    SymmetricKey,
    add_mod_2_256,
    aead_open,
    aead_seal,
    chain_verify,
    decode_timestamp,
    derive_session_key,
    encode_timestamp,
    sha256,
)

#: Modeled on-air sizes in bytes: each payload's fixed-width fields, 32 bytes
#: each; m5 also carries a 4-byte pad count, which the model leaves out.
NOMINAL_SIZES = {
    "m1": 128,
    "m2": 128,
    "m3": 128,
    "m4": 96,
    "m5": 96,
    "m6": 32,
    "m7": 32,
    "m8": 32,
    "m9": 32,
    "chain": 32,
}


def chain_kind(j: int) -> str:
    """Message kind of the chain value the EV sends to pad j (1-based)."""
    return "m7" if j == 1 else ("m9" if j == 2 else "chain")


#: Default freshness window for timestamp checks, simulated milliseconds.
FRESHNESS_WINDOW_MS = 2000

# Stable rejection reasons (transcripts and the adversary harness match on
# these strings).
UNKNOWN_PSEUDONYM = "UnknownPseudonym"
PSEUDONYM_REUSE = "PseudonymReuse"
STALE_TIMESTAMP = "StaleTimestamp"
SECRET_MISMATCH = "SecretMismatch"
DECRYPT_FAILURE = "DecryptFailure"
NONCE_MISMATCH = "NonceMismatch"
DUPLICATE_PENDING = "DuplicatePending"
NO_UNUSED_PSEUDONYM = "NoUnusedPseudonym"
CHAIN_MISMATCH = "ChainMismatch"
CHAIN_REUSED = "ChainValueReused"
BAD_STATE = "BadState"
MALFORMED = "MalformedPayload"

_ONE = (1).to_bytes(32, "big")

#: What a handler turns into DECRYPT_FAILURE: bytes that do not decode or do
#: not authenticate.  Any other exception is a bug and propagates.
_UNREADABLE = (DecodeError, AuthenticationFailure)


class ProtocolMessage(NamedTuple):
    """One message on the air; immutable, and as cheap to build as a tuple."""

    kind: str
    sender: str
    receiver: str
    body: bytes


def _check_fresh(now_ms: int, ts_field: bytes, window_ms: int, context: str):
    try:
        ts = decode_timestamp(ts_field)
    except DecodeError as exc:
        raise ProtocolRejection(MALFORMED, f"{context}: {exc}") from exc
    if abs(now_ms - ts) > window_ms:
        raise ProtocolRejection(
            STALE_TIMESTAMP, f"{context}: |{now_ms} - {ts}| > {window_ms}"
        )


def _open(opener, key, body: bytes, associated_data: bytes, context: str) -> bytes:
    """The payload opener(key, body, associated_data) returns, or
    DECRYPT_FAILURE when the body does not decode or authenticate."""
    try:
        return opener(key, body, associated_data)
    except _UNREADABLE as exc:
        raise ProtocolRejection(DECRYPT_FAILURE, f"{context}: {exc}") from exc


def _parse(body: bytes, context: str, *widths: int) -> list[bytes]:
    """The payload's fields, each exactly its width and nothing after, or MALFORMED."""
    if len(body) != sum(widths):
        raise ProtocolRejection(
            MALFORMED, f"{context}: {len(body)} bytes, expected {sum(widths)}"
        )
    fields, off = [], 0
    for w in widths:
        fields.append(body[off : off + w])
        off += w
    return fields


# ---------------------------------------------------------------------------
# EV on-board unit

class EvSession:
    """One charging pass from the vehicle's point of view, on the one
    wallet slot the pass spends; with no slot (`entry` None) the pass ends
    at m1 as NoUnusedPseudonym."""

    def __init__(
        self,
        entry: CredentialEntry | None,
        mpk: MasterPublicKey,
        cspa_point: RingElement,
        rng: RandomSource,
        freshness_ms: int = FRESHNESS_WINDOW_MS,
    ):
        self.entry = entry
        self.mpk = mpk
        self.cspa_point = cspa_point  # the operator's identity point
        self.rng = rng
        self.freshness_ms = freshness_ms
        self.state = "idle"
        self.n_ev: bytes | None = None
        self.n_rsu: bytes | None = None
        self.token: bytes | None = None
        self.session_key: SymmetricKey | None = None
        self.chain: HashChain | None = None
        self.next_pad = 1

    def compose_m1(self, now_ms: int) -> ProtocolMessage:
        if self.state != "idle":
            raise ProtocolRejection(BAD_STATE, f"compose_m1 in state {self.state}")
        if self.entry is None:
            raise ProtocolRejection(NO_UNUSED_PSEUDONYM, "all pseudonym slots spent")
        self.n_ev = self.rng.bytes(32)
        payload = self.entry.pseudonym + self.n_ev + encode_timestamp(now_ms) + self.entry.z
        body = ibe_seal(self.mpk, self.cspa_point, payload, self.rng, b"dwpt/m1")
        self.state = "await-m2"
        return ProtocolMessage("m1", "EV", "CSPA", body)

    def handle_m2(self, msg: ProtocolMessage, now_ms: int) -> None:
        if self.state != "await-m2":
            raise ProtocolRejection(BAD_STATE, f"m2 in state {self.state}")
        payload = _open(ibe_open, self.entry.usk, msg.body, b"dwpt/m2", "m2")
        token, n_cspa, ts, z_plus_w = _parse(payload, "m2", 32, 32, 32, 32)
        _check_fresh(now_ms, ts, self.freshness_ms, "m2")
        expected = add_mod_2_256(self.entry.z, self.entry.w)
        if z_plus_w != expected:
            raise ProtocolRejection(SECRET_MISMATCH, "m2: z + w does not match")
        self.token = token
        self.session_key = derive_session_key(self.n_ev, n_cspa)
        self.state = "await-m5"

    def compose_m4(self, now_ms: int) -> ProtocolMessage:
        if self.state != "await-m5":
            raise ProtocolRejection(BAD_STATE, f"compose_m4 in state {self.state}")
        self.n_rsu = self.rng.bytes(32)
        payload = self.entry.pseudonym + self.n_rsu + encode_timestamp(now_ms)
        body = aead_seal(self.session_key, payload, self.rng, b"dwpt/m4")
        return ProtocolMessage("m4", "EV", "RSU", body)

    def handle_m5(self, msg: ProtocolMessage, now_ms: int) -> None:
        if self.state != "await-m5":
            raise ProtocolRejection(BAD_STATE, f"m5 in state {self.state}")
        payload = _open(aead_open, self.session_key, msg.body, b"dwpt/m5", "m5")
        n_rsu_inc, m_ev, ts, n_pads_raw = _parse(payload, "m5", 32, 32, 32, 4)
        _check_fresh(now_ms, ts, self.freshness_ms, "m5")
        if n_rsu_inc != add_mod_2_256(self.n_rsu, _ONE):
            raise ProtocolRejection(NONCE_MISMATCH, "m5: nonce increment wrong")
        n_pads = int.from_bytes(n_pads_raw, "little")
        if n_pads < 1:
            raise ProtocolRejection(MALFORMED, "m5: zero pads")
        self.chain = HashChain.build(self.token, m_ev, n_pads)
        self.state = "charging"

    def next_chain_message(self) -> ProtocolMessage:
        """Chain value for the next pad in driving order."""
        if self.state != "charging":
            raise ProtocolRejection(BAD_STATE, f"chain send in state {self.state}")
        j, links = self.next_pad, self.chain.links
        msg = ProtocolMessage(chain_kind(j), "EV", f"CP{j}", links[-1 - j])  # link n - j
        self.next_pad = j + 1
        if j == len(links) - 1:  # n pad links, then the head
            self.state = "done"
        return msg


# ---------------------------------------------------------------------------
# Charging service provider authority (operator side)

class CspaState:
    """Operator front end: authenticates pseudonyms against the dataset."""

    def __init__(
        self,
        dataset: CspaDataset,
        mpk: MasterPublicKey,
        rng: RandomSource,
        freshness_ms: int = FRESHNESS_WINDOW_MS,
    ):
        self.dataset = dataset
        self.mpk = mpk
        self.rng = rng
        self.freshness_ms = freshness_ms
        self.consumed = set(dataset.consumed)
        self.gk_cspa_rsu = dataset.gk_cspa_rsu.require(ROLE_CSPA_RSU)

    def handle_m1(
        self, msg: ProtocolMessage, now_ms: int
    ) -> tuple[ProtocolMessage, ProtocolMessage]:
        payload = _open(ibe_open, self.dataset.usk, msg.body, b"dwpt/m1", "m1")
        pseudonym, n_ev, ts, z = _parse(payload, "m1", 32, 32, 32, 32)
        _check_fresh(now_ms, ts, self.freshness_ms, "m1")
        entry = self.dataset.entries.get(pseudonym)
        if entry is None:
            raise ProtocolRejection(UNKNOWN_PSEUDONYM, "m1: pseudonym not in dataset")
        if pseudonym in self.consumed:
            raise ProtocolRejection(PSEUDONYM_REUSE, "m1: pseudonym already seen")
        if z != entry.z:
            raise ProtocolRejection(SECRET_MISMATCH, "m1: share z does not match")
        self.consumed.add(pseudonym)

        token = self.rng.bytes(32)
        n_cspa = self.rng.bytes(32)
        session_key = derive_session_key(n_ev, n_cspa)

        m2_payload = token + n_cspa + encode_timestamp(now_ms) + add_mod_2_256(entry.z, entry.w)
        point = identity_point(self.mpk.params, pseudonym)
        m2_body = ibe_seal(self.mpk, point, m2_payload, self.rng, b"dwpt/m2")

        m3_payload = sha256(token) + pseudonym + session_key.key + encode_timestamp(now_ms)
        m3_body = aead_seal(self.gk_cspa_rsu, m3_payload, self.rng, b"dwpt/m3")
        return (
            ProtocolMessage("m2", "CSPA", "EV", m2_body),
            ProtocolMessage("m3", "CSPA", "RSU", m3_body),
        )


# ---------------------------------------------------------------------------
# Road-side unit

class RsuState:
    """Lane controller: pairs CSPA session grants with arriving vehicles."""

    def __init__(
        self,
        gk_cspa_rsu: SymmetricKey,
        gk_rsu_cp: SymmetricKey,
        n_pads: int,
        rng: RandomSource,
        freshness_ms: int = FRESHNESS_WINDOW_MS,
    ):
        if not 1 <= n_pads < 1 << 32:  # m5 carries the count in 4 bytes
            raise ValueError(f"a lane has 1 to 2^32 - 1 pads, got {n_pads}")
        self.gk_cspa_rsu = gk_cspa_rsu.require(ROLE_CSPA_RSU)
        self.gk_rsu_cp = gk_rsu_cp.require(ROLE_RSU_CP)
        self.n_pads = n_pads
        self.rng = rng
        self.freshness_ms = freshness_ms
        # pseudonym -> (H(token), session key)
        self.pending: dict[bytes, tuple[bytes, SymmetricKey]] = {}

    def handle_m3(self, msg: ProtocolMessage, now_ms: int) -> None:
        payload = _open(aead_open, self.gk_cspa_rsu, msg.body, b"dwpt/m3", "m3")
        h_token, pseudonym, key, ts = _parse(payload, "m3", 32, 32, 32, 32)
        _check_fresh(now_ms, ts, self.freshness_ms, "m3")
        if pseudonym in self.pending:
            raise ProtocolRejection(
                DUPLICATE_PENDING, "m3: session already pending for pseudonym"
            )
        self.pending[pseudonym] = (h_token, SymmetricKey(key, "session"))

    def handle_m4(
        self, msg: ProtocolMessage, now_ms: int
    ) -> tuple[ProtocolMessage, ProtocolMessage]:
        if not self.pending:
            raise ProtocolRejection(UNKNOWN_PSEUDONYM, "m4: no pending sessions")
        for pseudonym, (h_token, key) in self.pending.items():
            try:
                payload = aead_open(key, msg.body, b"dwpt/m4")
            except _UNREADABLE:
                continue
            ps_field, n_rsu, ts = _parse(payload, "m4", 32, 32, 32)
            if ps_field == pseudonym:
                break
        else:
            raise ProtocolRejection(DECRYPT_FAILURE, "m4: no pending key opens it")
        _check_fresh(now_ms, ts, self.freshness_ms, "m4")
        del self.pending[pseudonym]

        m_ev = self.rng.bytes(32)
        chain = HashChain.from_digests(h_token, sha256(m_ev), self.n_pads)
        m5_payload = (
            add_mod_2_256(n_rsu, _ONE)
            + m_ev
            + encode_timestamp(now_ms)
            + self.n_pads.to_bytes(4, "little")
        )
        m5_body = aead_seal(key, m5_payload, self.rng, b"dwpt/m5")
        m6_body = aead_seal(self.gk_rsu_cp, chain.head, self.rng, b"dwpt/provision")
        return (
            ProtocolMessage("m5", "RSU", "EV", m5_body),
            ProtocolMessage("m6", "RSU", "CP1", m6_body),
        )


# ---------------------------------------------------------------------------
# Charging pads

class CpState:
    """One charging pad: holds an expected head, accepts one value against
    each head it is provisioned with, and remembers every head it accepted
    a value against, so no later provision re-arms it for that head."""

    __slots__ = ("name", "successor", "gk", "rng", "expected_head", "accepted_heads")

    def __init__(self, index: int, gk_rsu_cp: SymmetricKey, rng: RandomSource):
        self.name = f"CP{index}"
        self.successor = f"CP{index + 1}"  # receiver of this pad's m8
        self.gk = gk_rsu_cp.require(ROLE_RSU_CP)
        self.rng = rng  # seals the m8 forwards
        self.expected_head: bytes | None = None
        self.accepted_heads: set[bytes] = set()

    @property
    def consumed(self) -> bool:
        """Whether a value was accepted against the current head."""
        return self.expected_head in self.accepted_heads

    def handle_provision(self, msg: ProtocolMessage) -> None:
        """m6 (from the RSU) or m8 (from the previous pad)."""
        try:
            head = aead_open(self.gk, msg.body, b"dwpt/provision")
        except _UNREADABLE as exc:
            raise ProtocolRejection(DECRYPT_FAILURE, f"provision: {exc}") from exc
        if len(head) != 32:
            raise ProtocolRejection(MALFORMED, f"provision: {len(head)} bytes, expected 32")
        self.expected_head = head

    def handle_chain(self, msg: ProtocolMessage) -> ProtocolMessage:
        """Check one hash step; on accept, return the m8 forward for the next pad."""
        candidate, head = msg.body, self.expected_head
        if head is None:
            raise ProtocolRejection(BAD_STATE, f"{self.name}: not provisioned")
        if head in self.accepted_heads:
            raise ProtocolRejection(CHAIN_REUSED, f"{self.name}: value already accepted")
        if len(candidate) != 32 or not chain_verify(candidate, head):
            raise ProtocolRejection(CHAIN_MISMATCH, f"{self.name}: hash step does not match")
        self.accepted_heads.add(head)
        forward_body = aead_seal(self.gk, candidate, self.rng, b"dwpt/provision")
        return ProtocolMessage("m8", self.name, self.successor, forward_body)
