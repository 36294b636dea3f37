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

from dataclasses import dataclass, field

from dwpt_auth.codec import Reader
from dwpt_auth.errors import AuthenticationFailure, DecodeError, EmptyRegistry, ProtocolRejection
from dwpt_auth.ibe import HybridCiphertext, MasterPublicKey, ibe_open, ibe_seal
from dwpt_auth.registration import (
    CredentialEntry,
    CspaDataset,
    ROLE_CSPA_RSU,
    ROLE_RSU_CP,
    VehicleCredentials,
)
from dwpt_auth.ring import RingParams
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


@dataclass(frozen=True)
class ProtocolMessage:
    kind: str
    sender: str
    receiver: str
    body: bytes

    @property
    def nominal_size(self) -> int:
        return NOMINAL_SIZES[self.kind]


def _check_fresh(now_ms: int, ts_field: bytes, window_ms: int, context: str):
    try:
        ts = decode_timestamp(ts_field)
    except DecodeError as exc:
        raise ProtocolRejection(MALFORMED, f"{context}: {exc}") from exc
    if abs(now_ms - ts) > window_ms:
        raise ProtocolRejection(
            STALE_TIMESTAMP, f"{context}: |{now_ms} - {ts}| > {window_ms}"
        )


def _parse(body: bytes, context: str, *widths: int) -> list[bytes]:
    """The payload's fields, each exactly its width and nothing after, or MALFORMED."""
    r = Reader(body)
    try:
        fields = [r.fixed(w) for w in widths]
        r.done()
    except DecodeError as exc:
        raise ProtocolRejection(MALFORMED, f"{context}: {exc}") from exc
    return fields


# ---------------------------------------------------------------------------
# EV on-board unit

class EvSession:
    """One charging pass from the vehicle's point of view."""

    def __init__(
        self,
        credentials: VehicleCredentials,
        mpk: MasterPublicKey,
        cspa_identity: bytes,
        rng: RandomSource,
        entry_index: int | None = None,
        freshness_ms: int = FRESHNESS_WINDOW_MS,
    ):
        self.credentials = credentials
        self.mpk = mpk
        self.cspa_identity = cspa_identity
        self.rng = rng
        self.freshness_ms = freshness_ms
        self.entry: CredentialEntry | None = None
        self._entry_index = entry_index
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
        try:
            self.entry = self.credentials.pick_entry(self._entry_index)
        except EmptyRegistry as exc:
            raise ProtocolRejection(NO_UNUSED_PSEUDONYM, str(exc)) from exc
        self.credentials.spent.add(self.entry.index)
        self.n_ev = self.rng.bytes(32)
        payload = self.entry.pseudonym + self.n_ev + encode_timestamp(now_ms) + self.entry.z
        body = ibe_seal(
            self.mpk, self.cspa_identity, payload, self.rng, b"dwpt/m1"
        ).to_bytes()
        self.state = "await-m2"
        return ProtocolMessage("m1", "EV", "CSPA", body)

    def handle_m2(self, msg: ProtocolMessage, now_ms: int) -> None:
        if self.state != "await-m2":
            raise ProtocolRejection(BAD_STATE, f"m2 in state {self.state}")
        try:
            ct = HybridCiphertext.from_bytes(msg.body, self.mpk.params)
            payload = ibe_open(self.entry.usk, ct, b"dwpt/m2")
        except _UNREADABLE as exc:
            raise ProtocolRejection(DECRYPT_FAILURE, f"m2: {exc}") from exc
        token, n_cspa, ts, z_plus_w = _parse(payload, "m2", 32, 32, 32, 32)
        _check_fresh(now_ms, ts, self.freshness_ms, "m2")
        expected = add_mod_2_256(self.entry.z, self.entry.w)
        if z_plus_w != expected:
            raise ProtocolRejection(SECRET_MISMATCH, "m2: z + w does not match")
        self.token = token
        self.session_key = derive_session_key(self.n_ev, n_cspa)
        self.state = "await-m5"

    def compose_m4(self, now_ms: int) -> ProtocolMessage:
        if self.state != "await-m5" or self.session_key is None:
            raise ProtocolRejection(BAD_STATE, f"compose_m4 in state {self.state}")
        self.n_rsu = self.rng.bytes(32)
        payload = self.entry.pseudonym + self.n_rsu + encode_timestamp(now_ms)
        body = aead_seal(self.session_key, payload, self.rng, b"dwpt/m4")
        return ProtocolMessage("m4", "EV", "RSU", body)

    def handle_m5(self, msg: ProtocolMessage, now_ms: int) -> None:
        if self.state != "await-m5":
            raise ProtocolRejection(BAD_STATE, f"m5 in state {self.state}")
        try:
            payload = aead_open(self.session_key, msg.body, b"dwpt/m5")
        except _UNREADABLE as exc:
            raise ProtocolRejection(DECRYPT_FAILURE, f"m5: {exc}") from exc
        n_rsu_inc, m_ev, ts, n_pads_raw = _parse(payload, "m5", 32, 32, 32, 4)
        _check_fresh(now_ms, ts, self.freshness_ms, "m5")
        if n_rsu_inc != add_mod_2_256(self.n_rsu, _ONE):
            raise ProtocolRejection(NONCE_MISMATCH, "m5: nonce increment wrong")
        n_pads = int.from_bytes(n_pads_raw, "little")
        if n_pads < 1:
            raise ProtocolRejection(MALFORMED, "m5: zero pads")
        self.chain = HashChain.build(self.token, m_ev, n_pads)
        self.state = "charging"
        self.next_pad = 1

    def next_chain_message(self) -> ProtocolMessage:
        """Chain value for the next pad in driving order."""
        if self.state != "charging" or self.chain is None:
            raise ProtocolRejection(BAD_STATE, f"chain send in state {self.state}")
        j = self.next_pad
        msg = ProtocolMessage(chain_kind(j), "EV", f"CP{j}", self.chain.value_for_pad(j))
        self.next_pad += 1
        if self.next_pad > self.chain.n_pads:
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

    def handle_m1(
        self, msg: ProtocolMessage, now_ms: int
    ) -> tuple[ProtocolMessage, ProtocolMessage]:
        try:
            ct = HybridCiphertext.from_bytes(msg.body, self.mpk.params)
            payload = ibe_open(self.dataset.usk, ct, b"dwpt/m1")
        except _UNREADABLE as exc:
            raise ProtocolRejection(DECRYPT_FAILURE, f"m1: {exc}") from exc
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
        m2_body = ibe_seal(
            self.mpk, pseudonym, m2_payload, self.rng, b"dwpt/m2"
        ).to_bytes()

        m3_payload = sha256(token) + pseudonym + session_key.key + encode_timestamp(now_ms)
        m3_body = aead_seal(
            self.dataset.gk_cspa_rsu.require(ROLE_CSPA_RSU),
            m3_payload,
            self.rng,
            b"dwpt/m3",
        )
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
        if n_pads < 1:
            raise ValueError("a lane has at least one pad")
        self.gk_cspa_rsu = gk_cspa_rsu.require(ROLE_CSPA_RSU)
        self.gk_rsu_cp = gk_rsu_cp.require(ROLE_RSU_CP)
        self.n_pads = n_pads
        self.rng = rng
        self.freshness_ms = freshness_ms
        # pseudonym -> (H(token), session key)
        self.pending: dict[bytes, tuple[bytes, SymmetricKey]] = {}

    def handle_m3(self, msg: ProtocolMessage, now_ms: int) -> None:
        try:
            payload = aead_open(self.gk_cspa_rsu, msg.body, b"dwpt/m3")
        except _UNREADABLE as exc:
            raise ProtocolRejection(DECRYPT_FAILURE, f"m3: {exc}") from exc
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
        match = None
        for pseudonym, (h_token, key) in self.pending.items():
            try:
                payload = aead_open(key, msg.body, b"dwpt/m4")
            except _UNREADABLE:
                continue
            ps_field, n_rsu, ts = _parse(payload, "m4", 32, 32, 32)
            if ps_field == pseudonym:
                match = (pseudonym, h_token, key, n_rsu, ts)
                break
        if match is None:
            raise ProtocolRejection(DECRYPT_FAILURE, "m4: no pending key opens it")
        pseudonym, h_token, key, n_rsu, ts = match
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

@dataclass
class ChainVerdict:
    accepted: bool
    reason: str
    forward: ProtocolMessage | None = None


class CpState:
    """One charging pad: holds an expected head, accepts exactly one value."""

    def __init__(self, index: int, gk_rsu_cp: SymmetricKey):
        self.index = index
        self.gk = gk_rsu_cp.require(ROLE_RSU_CP)
        self.expected_head: bytes | None = None
        self.consumed = False

    @property
    def name(self) -> str:
        return f"CP{self.index}"

    def handle_provision(self, msg: ProtocolMessage) -> None:
        """m6 (from the RSU) or m8 (from the previous pad)."""
        try:
            payload = aead_open(self.gk, msg.body, b"dwpt/provision")
        except _UNREADABLE as exc:
            raise ProtocolRejection(DECRYPT_FAILURE, f"provision: {exc}") from exc
        (head,) = _parse(payload, "provision", 32)
        self.expected_head = head
        self.consumed = False

    def handle_chain(self, msg: ProtocolMessage, rng: RandomSource) -> ChainVerdict:
        """Check one hash step; on accept, emit the forward for the next pad."""
        candidate = msg.body
        if self.expected_head is None:
            return ChainVerdict(False, BAD_STATE)
        if self.consumed:
            return ChainVerdict(False, CHAIN_REUSED)
        if len(candidate) != 32 or not chain_verify(candidate, self.expected_head):
            return ChainVerdict(False, CHAIN_MISMATCH)
        self.consumed = True
        forward_body = aead_seal(self.gk, candidate, rng, b"dwpt/provision")
        forward = ProtocolMessage(
            "m8", self.name, f"CP{self.index + 1}", forward_body
        )
        return ChainVerdict(True, "ok", forward)
