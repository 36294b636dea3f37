"""Session state machines: the happy path and every rejection branch."""

import dataclasses
import struct

import pytest

from dwpt_auth import protocol
from dwpt_auth.errors import ProtocolRejection
from dwpt_auth.ibe import HybridCiphertext, ibe_seal
from dwpt_auth.protocol import (
    BAD_STATE,
    CHAIN_MISMATCH,
    CHAIN_REUSED,
    CpState,
    CspaState,
    DECRYPT_FAILURE,
    DUPLICATE_PENDING,
    EvSession,
    FRESHNESS_WINDOW_MS,
    MALFORMED,
    NO_UNUSED_PSEUDONYM,
    NOMINAL_SIZES,
    NONCE_MISMATCH,
    PSEUDONYM_REUSE,
    ProtocolMessage,
    RsuState,
    SECRET_MISMATCH,
    STALE_TIMESTAMP,
    UNKNOWN_PSEUDONYM,
)
from dwpt_auth.registration import CspaDataset, export_cspa_dataset
from dwpt_auth.rng import RandomSource
from dwpt_auth.symcrypto import SymmetricKey, add_mod_2_256, aead_seal, encode_timestamp

from conftest import copy_credentials

NOW = 1_700_000_000_000


@pytest.fixture(scope="module")
def dataset(default_authority, default_vehicle):
    return export_cspa_dataset(default_authority)


@dataclasses.dataclass
class Parties:
    ev: EvSession
    cspa: CspaState
    rsu: RsuState
    pads: list[CpState]
    rng: RandomSource


@pytest.fixture()
def parties(default_authority, dataset, fresh_vehicle):
    return make_parties(default_authority, dataset, fresh_vehicle)


def make_parties(ra, dataset, creds, n_pads=4, entry_index=None) -> Parties:
    rng = RandomSource("protocol-test")
    ev = EvSession(creds, ra.mpk, ra.cspa_identity, rng.child("ev"), entry_index)
    cspa = CspaState(dataset, ra.mpk, rng.child("cspa"))
    rsu = RsuState(ra.gk_cspa_rsu, ra.gk_rsu_cp, n_pads, rng.child("rsu"))
    pads = [CpState(i + 1, ra.gk_rsu_cp) for i in range(n_pads)]
    return Parties(ev, cspa, rsu, pads, rng.child("pads"))


def run_authentication(p: Parties, now=NOW):
    """Drive m1 through m6; returns after the EV is ready to charge."""
    m1 = p.ev.compose_m1(now)
    m2, m3 = p.cspa.handle_m1(m1, now)
    p.rsu.handle_m3(m3, now)
    p.ev.handle_m2(m2, now)
    m4 = p.ev.compose_m4(now)
    m5, m6 = p.rsu.handle_m4(m4, now)
    p.ev.handle_m5(m5, now)
    p.pads[0].handle_provision(m6)
    return m1, m2, m3, m4, m5, m6


class TestPayloadSizes:
    def test_plaintexts_are_the_nominal_sizes(self, parties, monkeypatch):
        """Every sealed payload of one session is its NOMINAL_SIZES entry;
        m5 adds the 4-byte pad count, which the nominal model leaves out."""
        sealed = []

        def recording(seal):
            def wrapper(*args):
                sealed.append((args[-1], len(args[-3])))  # (associated data, plaintext)
                return seal(*args)
            return wrapper

        monkeypatch.setattr(protocol, "ibe_seal", recording(protocol.ibe_seal))
        monkeypatch.setattr(protocol, "aead_seal", recording(protocol.aead_seal))
        run_authentication(parties)
        for pad, next_pad in zip(parties.pads, parties.pads[1:]):
            verdict = pad.handle_chain(parties.ev.next_chain_message(), parties.rng)
            next_pad.handle_provision(verdict.forward)
        n = parties.rsu.n_pads
        assert sealed == [
            *((f"dwpt/{k}".encode(), NOMINAL_SIZES[k]) for k in ("m1", "m2", "m3", "m4")),
            (b"dwpt/m5", NOMINAL_SIZES["m5"] + 4),
            (b"dwpt/provision", NOMINAL_SIZES["m6"]),
            *[(b"dwpt/provision", NOMINAL_SIZES["m8"])] * (n - 1),
        ]


class TestHappyPath:
    def test_full_session(self, parties):
        run_authentication(parties)
        assert parties.ev.state == "charging"
        n = parties.rsu.n_pads
        for j in range(n):
            msg = parties.ev.next_chain_message()
            verdict = parties.pads[j].handle_chain(msg, parties.rng)
            assert verdict.accepted, f"pad {j + 1}: {verdict.reason}"
            if j + 1 < n:
                parties.pads[j + 1].handle_provision(verdict.forward)
        assert parties.ev.state == "done"
        assert all(p.consumed for p in parties.pads)

    def test_message_kinds_and_routing(self, parties):
        m1, m2, m3, m4, m5, m6 = run_authentication(parties)
        assert (m1.kind, m1.sender, m1.receiver) == ("m1", "EV", "CSPA")
        assert (m2.kind, m2.sender, m2.receiver) == ("m2", "CSPA", "EV")
        assert (m3.kind, m3.sender, m3.receiver) == ("m3", "CSPA", "RSU")
        assert (m4.kind, m4.sender, m4.receiver) == ("m4", "EV", "RSU")
        assert (m5.kind, m5.sender, m5.receiver) == ("m5", "RSU", "EV")
        assert (m6.kind, m6.sender, m6.receiver) == ("m6", "RSU", "CP1")
        chain_kinds = [parties.ev.next_chain_message().kind for _ in range(4)]
        assert chain_kinds == ["m7", "m9", "chain", "chain"]

    def test_nominal_sizes(self, parties):
        m1, *_ = run_authentication(parties)
        assert m1.nominal_size == 128
        assert NOMINAL_SIZES == {
            "m1": 128, "m2": 128, "m3": 128, "m4": 96, "m5": 96,
            "m6": 32, "m7": 32, "m8": 32, "m9": 32, "chain": 32,
        }
        assert parties.ev.next_chain_message().nominal_size == 32

    def test_pad_count_flows_from_rsu(self, default_authority, dataset, fresh_vehicle):
        p = make_parties(default_authority, dataset, fresh_vehicle, n_pads=7)
        run_authentication(p)
        assert p.ev.chain.n_pads == 7

    def test_chain_values_are_bare_digests(self, parties):
        run_authentication(parties)
        msg = parties.ev.next_chain_message()
        assert len(msg.body) == 32

    def test_marks_slot_spent(self, parties):
        assert not parties.ev.credentials.spent
        run_authentication(parties)
        assert parties.ev.entry.index in parties.ev.credentials.spent


class TestCspaRejections:
    def test_stale_m1(self, parties):
        m1 = parties.ev.compose_m1(NOW)
        with pytest.raises(ProtocolRejection) as exc:
            parties.cspa.handle_m1(m1, NOW + FRESHNESS_WINDOW_MS + 1)
        assert exc.value.reason == STALE_TIMESTAMP

    def test_garbled_m1(self, parties):
        m1 = parties.ev.compose_m1(NOW)
        bad = ProtocolMessage("m1", "EV", "CSPA", m1.body[:-1] + b"\x00")
        with pytest.raises(ProtocolRejection) as exc:
            parties.cspa.handle_m1(bad, NOW)
        assert exc.value.reason == DECRYPT_FAILURE

    def test_padded_m1_rejected(self, parties):
        m1 = parties.ev.compose_m1(NOW)
        padded = ProtocolMessage("m1", "EV", "CSPA", m1.body + b"JUNK")
        with pytest.raises(ProtocolRejection) as exc:
            parties.cspa.handle_m1(padded, NOW)
        assert exc.value.reason == DECRYPT_FAILURE

    def test_keyless_m1_rejected(self, parties, fresh_vehicle):
        """An m1 with no key blocks, sealed under the all-zero content key
        by someone without any identity key, carrying a valid pseudonym."""
        entry = fresh_vehicle.entries[0]
        payload = entry.pseudonym + bytes(32) + encode_timestamp(NOW) + entry.z
        sealed = aead_seal(bytes(32), payload, RandomSource("forger"), b"dwpt/m1")
        forged = ProtocolMessage("m1", "EV", "CSPA", HybridCiphertext((), sealed).to_bytes())
        with pytest.raises(ProtocolRejection) as exc:
            parties.cspa.handle_m1(forged, NOW)
        assert exc.value.reason == DECRYPT_FAILURE

    def test_short_nonce_in_m1_leaves_pseudonym_fresh(self, default_authority, parties, fresh_vehicle):
        """A correct pseudonym and z with a 5-byte nonce: MALFORMED, and the
        pseudonym is not burned."""
        entry = fresh_vehicle.entries[0]
        payload = entry.pseudonym + bytes(5) + encode_timestamp(NOW) + entry.z
        body = ibe_seal(
            default_authority.mpk, default_authority.cspa_identity, payload,
            RandomSource("short-nonce"), b"dwpt/m1",
        ).to_bytes()
        with pytest.raises(ProtocolRejection) as exc:
            parties.cspa.handle_m1(ProtocolMessage("m1", "EV", "CSPA", body), NOW)
        assert exc.value.reason == MALFORMED
        assert entry.pseudonym not in parties.cspa.consumed

    def test_unknown_pseudonym(self, default_authority, dataset, fresh_vehicle):
        empty = CspaDataset(
            usk=dataset.usk,
            gk_cspa_rsu=dataset.gk_cspa_rsu,
            entries={},
        )
        p = make_parties(default_authority, empty, fresh_vehicle)
        with pytest.raises(ProtocolRejection) as exc:
            p.cspa.handle_m1(p.ev.compose_m1(NOW), NOW)
        assert exc.value.reason == UNKNOWN_PSEUDONYM

    def test_pseudonym_reuse_rejected(self, default_authority, dataset, default_vehicle):
        p1 = make_parties(
            default_authority, dataset, copy_credentials(default_vehicle), entry_index=0
        )
        p1.cspa.handle_m1(p1.ev.compose_m1(NOW), NOW)
        ev2 = EvSession(
            copy_credentials(default_vehicle),
            default_authority.mpk,
            default_authority.cspa_identity,
            RandomSource("second-ev"),
            0,
        )
        with pytest.raises(ProtocolRejection) as exc:
            p1.cspa.handle_m1(ev2.compose_m1(NOW), NOW)
        assert exc.value.reason == PSEUDONYM_REUSE

    def test_wrong_share_z(self, default_authority, dataset, fresh_vehicle):
        entry = fresh_vehicle.entries[0]
        fresh_vehicle.entries[0] = dataclasses.replace(entry, z=bytes(32))
        p = make_parties(default_authority, dataset, fresh_vehicle, entry_index=0)
        with pytest.raises(ProtocolRejection) as exc:
            p.cspa.handle_m1(p.ev.compose_m1(NOW), NOW)
        assert exc.value.reason == SECRET_MISMATCH


class TestEvRejections:
    def test_m2_tampered(self, parties):
        m1 = parties.ev.compose_m1(NOW)
        m2, _ = parties.cspa.handle_m1(m1, NOW)
        bad = ProtocolMessage("m2", "CSPA", "EV", m2.body[:-1] + b"\x00")
        with pytest.raises(ProtocolRejection) as exc:
            parties.ev.handle_m2(bad, NOW)
        assert exc.value.reason == DECRYPT_FAILURE

    def test_m2_wrong_proof_of_w(self, default_authority, dataset, fresh_vehicle):
        """Operator that does not know w cannot produce z + w."""
        ps = fresh_vehicle.entries[0].pseudonym
        entries = dict(dataset.entries)
        entries[ps] = dataclasses.replace(entries[ps], w=bytes(32))
        lying = CspaDataset(
            usk=dataset.usk,
            gk_cspa_rsu=dataset.gk_cspa_rsu,
            entries=entries,
        )
        p = make_parties(default_authority, lying, fresh_vehicle, entry_index=0)
        m2, _ = p.cspa.handle_m1(p.ev.compose_m1(NOW), NOW)
        with pytest.raises(ProtocolRejection) as exc:
            p.ev.handle_m2(m2, NOW)
        assert exc.value.reason == SECRET_MISMATCH

    def test_m5_nonce_increment_checked(self, parties):
        p = parties
        m1 = p.ev.compose_m1(NOW)
        m2, m3 = p.cspa.handle_m1(m1, NOW)
        p.rsu.handle_m3(m3, NOW)
        p.ev.handle_m2(m2, NOW)
        p.ev.compose_m4(NOW)
        # forge m5 with the right key but an unincremented nonce
        payload = p.ev.n_rsu + bytes(32) + encode_timestamp(NOW) + struct.pack("<I", 4)
        body = aead_seal(p.ev.session_key, payload, p.rng, b"dwpt/m5")
        with pytest.raises(ProtocolRejection) as exc:
            p.ev.handle_m5(ProtocolMessage("m5", "RSU", "EV", body), NOW)
        assert exc.value.reason == NONCE_MISMATCH

    def test_m5_zero_pads_rejected(self, parties):
        p = parties
        m1 = p.ev.compose_m1(NOW)
        m2, _ = p.cspa.handle_m1(m1, NOW)
        p.ev.handle_m2(m2, NOW)
        p.ev.compose_m4(NOW)
        payload = (
            add_mod_2_256(p.ev.n_rsu, (1).to_bytes(32, "big"))
            + bytes(32)
            + encode_timestamp(NOW)
            + struct.pack("<I", 0)
        )
        body = aead_seal(p.ev.session_key, payload, p.rng, b"dwpt/m5")
        with pytest.raises(ProtocolRejection) as exc:
            p.ev.handle_m5(ProtocolMessage("m5", "RSU", "EV", body), NOW)
        assert exc.value.reason == MALFORMED

    def test_out_of_slots(self, default_authority, dataset, fresh_vehicle):
        fresh_vehicle.spent.update(e.index for e in fresh_vehicle.entries)
        p = make_parties(default_authority, dataset, fresh_vehicle)
        with pytest.raises(ProtocolRejection) as exc:
            p.ev.compose_m1(NOW)
        assert exc.value.reason == NO_UNUSED_PSEUDONYM

    def test_state_machine_order_enforced(self, parties):
        with pytest.raises(ProtocolRejection) as exc:
            parties.ev.compose_m4(NOW)
        assert exc.value.reason == BAD_STATE
        with pytest.raises(ProtocolRejection) as exc:
            parties.ev.next_chain_message()
        assert exc.value.reason == BAD_STATE

    def test_chain_exhausted(self, parties):
        run_authentication(parties)
        for _ in range(4):
            parties.ev.next_chain_message()
        with pytest.raises(ProtocolRejection) as exc:
            parties.ev.next_chain_message()
        assert exc.value.reason == BAD_STATE


class TestRsuRejections:
    def test_duplicate_pending(self, parties):
        m1 = parties.ev.compose_m1(NOW)
        _, m3 = parties.cspa.handle_m1(m1, NOW)
        parties.rsu.handle_m3(m3, NOW)
        with pytest.raises(ProtocolRejection) as exc:
            parties.rsu.handle_m3(m3, NOW)
        assert exc.value.reason == DUPLICATE_PENDING

    def test_m4_with_no_pending(self, parties):
        m4 = ProtocolMessage("m4", "EV", "RSU", b"\x00" * 64)
        with pytest.raises(ProtocolRejection) as exc:
            parties.rsu.handle_m4(m4, NOW)
        assert exc.value.reason == UNKNOWN_PSEUDONYM

    def test_m4_under_unknown_key(self, parties):
        p = parties
        m1 = p.ev.compose_m1(NOW)
        _, m3 = p.cspa.handle_m1(m1, NOW)
        p.rsu.handle_m3(m3, NOW)
        rogue_key = SymmetricKey(b"\x13" * 32, "session")
        body = aead_seal(rogue_key, b"p" + b"n" + encode_timestamp(NOW), p.rng, b"dwpt/m4")
        with pytest.raises(ProtocolRejection) as exc:
            p.rsu.handle_m4(ProtocolMessage("m4", "EV", "RSU", body), NOW)
        assert exc.value.reason == DECRYPT_FAILURE

    def test_stale_m4(self, parties):
        p = parties
        m1 = p.ev.compose_m1(NOW)
        m2, m3 = p.cspa.handle_m1(m1, NOW)
        p.rsu.handle_m3(m3, NOW)
        p.ev.handle_m2(m2, NOW)
        m4 = p.ev.compose_m4(NOW - FRESHNESS_WINDOW_MS - 1)
        with pytest.raises(ProtocolRejection) as exc:
            p.rsu.handle_m4(m4, NOW)
        assert exc.value.reason == STALE_TIMESTAMP

    def test_short_nonce_in_m4_keeps_session_pending(self, parties):
        p = parties
        m1 = p.ev.compose_m1(NOW)
        m2, m3 = p.cspa.handle_m1(m1, NOW)
        p.rsu.handle_m3(m3, NOW)
        p.ev.handle_m2(m2, NOW)
        payload = p.ev.entry.pseudonym + b"\x07" + encode_timestamp(NOW)
        body = aead_seal(p.ev.session_key, payload, p.rng, b"dwpt/m4")
        with pytest.raises(ProtocolRejection) as exc:
            p.rsu.handle_m4(ProtocolMessage("m4", "EV", "RSU", body), NOW)
        assert exc.value.reason == MALFORMED
        assert p.ev.entry.pseudonym in p.rsu.pending

    def test_trailing_byte_in_m4_keeps_session_pending(self, parties):
        p = parties
        m1 = p.ev.compose_m1(NOW)
        m2, m3 = p.cspa.handle_m1(m1, NOW)
        p.rsu.handle_m3(m3, NOW)
        p.ev.handle_m2(m2, NOW)
        payload = p.ev.entry.pseudonym + bytes(32) + encode_timestamp(NOW) + b"\x00"
        body = aead_seal(p.ev.session_key, payload, p.rng, b"dwpt/m4")
        with pytest.raises(ProtocolRejection) as exc:
            p.rsu.handle_m4(ProtocolMessage("m4", "EV", "RSU", body), NOW)
        assert exc.value.reason == MALFORMED
        assert p.ev.entry.pseudonym in p.rsu.pending

    def test_value_error_is_not_a_verdict(self, parties, monkeypatch):
        m1 = parties.ev.compose_m1(NOW)
        _, m3 = parties.cspa.handle_m1(m1, NOW)

        def broken_open(*args):
            raise ValueError("bug in the AEAD layer")

        monkeypatch.setattr(protocol, "aead_open", broken_open)
        with pytest.raises(ValueError, match="bug in the AEAD layer"):
            parties.rsu.handle_m3(m3, NOW)

    def test_programming_error_is_not_a_verdict(self, parties, monkeypatch):
        m1 = parties.ev.compose_m1(NOW)
        _, m3 = parties.cspa.handle_m1(m1, NOW)

        def broken_open(*args):
            raise TypeError("bug in the AEAD layer")

        monkeypatch.setattr(protocol, "aead_open", broken_open)
        with pytest.raises(TypeError):
            parties.rsu.handle_m3(m3, NOW)

    def test_requires_group_key_roles(self, default_authority):
        with pytest.raises(Exception):
            RsuState(
                default_authority.gk_rsu_cp,  # swapped
                default_authority.gk_cspa_rsu,
                4,
                RandomSource("r"),
            )


class TestPadRejections:
    def test_replay_same_value(self, parties):
        run_authentication(parties)
        msg = parties.ev.next_chain_message()
        pad = parties.pads[0]
        assert pad.handle_chain(msg, parties.rng).accepted
        verdict = pad.handle_chain(msg, parties.rng)
        assert not verdict.accepted and verdict.reason == CHAIN_REUSED

    def test_wrong_value(self, parties):
        run_authentication(parties)
        parties.ev.next_chain_message()
        bogus = ProtocolMessage("m7", "EV", "CP1", b"\x55" * 32)
        verdict = parties.pads[0].handle_chain(bogus, parties.rng)
        assert not verdict.accepted and verdict.reason == CHAIN_MISMATCH

    def test_unprovisioned_pad(self, parties):
        run_authentication(parties)
        msg = parties.ev.next_chain_message()
        verdict = parties.pads[2].handle_chain(msg, parties.rng)
        assert not verdict.accepted and verdict.reason == BAD_STATE

    def test_skipping_a_pad_fails(self, parties):
        """Value j+1 is two hash steps from pad j's head, so it must fail."""
        run_authentication(parties)
        first = parties.ev.next_chain_message()
        second = parties.ev.next_chain_message()
        verdict = parties.pads[0].handle_chain(second, parties.rng)
        assert not verdict.accepted and verdict.reason == CHAIN_MISMATCH
        # the pad stays armed for the correct value
        assert parties.pads[0].handle_chain(first, parties.rng).accepted

    def test_forward_reprovisions_next_pad(self, parties):
        run_authentication(parties)
        msg = parties.ev.next_chain_message()
        verdict = parties.pads[0].handle_chain(msg, parties.rng)
        assert verdict.forward.kind == "m8"
        assert verdict.forward.receiver == "CP2"
        parties.pads[1].handle_provision(verdict.forward)
        assert parties.pads[1].expected_head == msg.body
