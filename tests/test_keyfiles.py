"""Binary container encode/decode for keys, credentials, and authority state."""

import dataclasses
import hashlib
import math
import os
import re
import stat
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dwpt_auth import ibe, keyfiles
from dwpt_auth.codec import Writer
from dwpt_auth.errors import DecodeError, NotInvertible
from dwpt_auth.ibe import (
    MasterPublicKey,
    MasterSecretKey,
    UserSecretKey,
    basis_quality,
    extract,
    max_basis_quality,
    norm_bound,
)
from dwpt_auth.ntrusolve import ntru_solve
from dwpt_auth.registration import export_cspa_dataset, ra_setup, register_vehicle
from dwpt_auth.ring import IntegerPolynomial, RingElement, TIERS, sample_gaussian_poly
from dwpt_auth.rng import RandomSource
from dwpt_auth.symcrypto import SymmetricKey
from test_ntrusolve import gaussian_width

#: SHA-256 of the files written for ra_setup(TIERS["test"], "golden-test-authority")
#: after register_vehicle(ra, b"EV-golden", 4); pins the seed-to-file map.
GOLDEN_TEST_TIER_FILES = {
    "authority.bin": "4d7856e5604d2572996c0307c107b0e460c3573c183401b45202d7dfd961376b",
    "vehicle.bin": "3bf7fdeeafab0c3863443e800497f3d7f407f7f6b5128c51e0570bdc18df5077",
    "dataset.bin": "609751c0dba4247a35403fa1843d3e2d3a211babfd59d44b390e0aa6bfc25b66",
}

#: SHA-256 of vehicle_to_bytes(register_vehicle(ra, b"EV-pin", 3)) for
#: ra = ra_setup(TIERS["default"], "golden-default-authority"): pins the
#: seed-to-key map at the tier the benchmark measures.
GOLDEN_DEFAULT_VEHICLE = "74056e74e8f5ac74444012e1d9bd3ba28f91f3042e29047e20e55a2eeb6eb2b5"


def gaussian_authority(ra):
    """`ra` with the trapdoor that keygen drew before its annular draw: a
    Gaussian (f, g) completed by `ntru_solve`, h = g/f, and an operator key
    of s2 = 0 under it, with no vehicles.  Every authority written before
    the annular keygen holds such a trapdoor."""
    p = ra.params
    rng = RandomSource("gaussian-trapdoor")
    while True:
        f, g = (sample_gaussian_poly(p, gaussian_width(p), rng).tolist() for _ in range(2))
        try:
            f_inv = RingElement(p, f).inverse()
            F, G = ntru_solve(f, g, p.q)
        except NotInvertible:
            continue
        h = RingElement(p, g) * f_inv
        msk = MasterSecretKey(*map(IntegerPolynomial, (f, g, F, G)), ra.msk.extract_seed, h)
        usk = UserSecretKey(ra.cspa_identity, np.zeros(p.N, dtype=np.int16), h)
        return dataclasses.replace(
            ra, mpk=MasterPublicKey(h), msk=msk, cspa_usk=usk,
            vehicles={}, dataset_entries={}, consumed=set(),
        )


@pytest.fixture(scope="module")
def registry():
    """An authority and the wallets it issued, by vehicle id."""
    authority = ra_setup(TIERS["test"], "keyfiles-suite")
    wallets = {
        vid: register_vehicle(authority, vid, n) for vid, n in ((b"EV-kf-1", 3), (b"EV-kf-2", 2))
    }
    authority.consumed.add(wallets[b"EV-kf-1"].entries[0].pseudonym)
    return authority, wallets


@pytest.fixture(scope="module")
def ra(registry):
    return registry[0]


@pytest.fixture(scope="module")
def wallets(registry):
    return registry[1]


class TestRecordRoundTrips:
    def test_msk_round_trip_preserves_extraction(self, ra):
        """A reloaded master key must extract the identical user keys."""
        back = keyfiles.authority_from_bytes(keyfiles.authority_to_bytes(ra)).msk
        (a,) = extract(ra.msk, b"proof-identity")
        (b,) = extract(back, b"proof-identity")
        assert a.s1 == b.s1 and a.s2 == b.s2

    def test_vehicle(self, wallets):
        creds = wallets[b"EV-kf-1"]
        creds.spent.add(1)
        back = keyfiles.vehicle_from_bytes(keyfiles.vehicle_to_bytes(creds))
        assert back.vehicle_id == creds.vehicle_id
        assert back.d_ev == creds.d_ev
        assert back.spent == creds.spent
        assert back.entries == creds.entries
        assert all(e.usk.h is back.entries[0].usk.h for e in back.entries)

    def test_dataset(self, ra):
        ds = export_cspa_dataset(ra)
        back = keyfiles.dataset_from_bytes(keyfiles.dataset_to_bytes(ds))
        assert back.usk == ds.usk
        assert back.gk_cspa_rsu == ds.gk_cspa_rsu
        assert back.entries == ds.entries

    def test_authority(self, ra, wallets):
        blob = keyfiles.authority_to_bytes(ra)
        back = keyfiles.authority_from_bytes(blob)
        assert back.seed == ra.seed
        assert back.mpk == ra.mpk
        assert back.cspa_identity == ra.cspa_identity
        assert back.cspa_usk == ra.cspa_usk
        assert back.gk_cspa_rsu == ra.gk_cspa_rsu
        assert back.gk_rsu_cp == ra.gk_rsu_cp
        assert back.consumed == ra.consumed
        assert back.vehicles == ra.vehicles == {
            vid: tuple(e.pseudonym for e in c.entries) for vid, c in wallets.items()
        }
        assert back.dataset_entries == ra.dataset_entries
        # serialization is a fixed point: encode(decode(x)) == x
        assert keyfiles.authority_to_bytes(back) == blob

    @pytest.mark.parametrize("tier", ["toy", "test", "default"])
    def test_decoded_s2_is_the_extracted_row(self, tier, request):
        """Each container decodes every key's s2 as the int16 row that
        extraction left, at every tier."""
        issuer = request.getfixturevalue(f"{tier}_authority")
        ra = dataclasses.replace(issuer, vehicles={}, dataset_entries={}, consumed=set())
        creds = register_vehicle(ra, b"EV-rows", 3)
        wallet = keyfiles.vehicle_from_bytes(keyfiles.vehicle_to_bytes(creds))
        pairs = [(e.usk, d.usk) for e, d in zip(creds.entries, wallet.entries)]
        pairs.append((ra.cspa_usk, keyfiles.authority_from_bytes(keyfiles.authority_to_bytes(ra)).cspa_usk))
        ds = export_cspa_dataset(ra)
        pairs.append((ds.usk, keyfiles.dataset_from_bytes(keyfiles.dataset_to_bytes(ds)).usk))
        for extracted, decoded in pairs:
            assert decoded.s2_coeffs.dtype == np.int16
            assert np.array_equal(decoded.s2_coeffs, extracted.s2_coeffs)

    def test_authority_holds_no_wallet_secret(self, ra, wallets):
        """Of each wallet the authority stores only pseudonyms and shares;
        the vehicle's scalar, blinds and slot keys stay in its own file."""
        blob = keyfiles.authority_to_bytes(ra)
        for creds in wallets.values():
            assert creds.d_ev.to_bytes(32, "big") not in blob
            for e in creds.entries:
                assert e.blind.to_bytes(32, "big") not in blob
                assert e.usk.s1.to_bytes() not in blob
                assert e.usk.s2.to_bytes() not in blob

    def test_default_ten_slot_vehicle_size(self, default_authority):
        """Header, id, d_EV, h, then per slot a blind, two shares and s2:
        h its 1,536 coefficient bytes, each s2 its 512 int16 and nothing
        more."""
        ra = dataclasses.replace(default_authority, vehicles={}, dataset_entries={}, consumed=set())
        creds = register_vehicle(ra, b"EV-1", 10)
        n, N = ra.params.element_bytes, ra.params.N
        size = 15 + (4 + 4) + 32 + n + 4 + 10 * (3 * 32 + 2 * N) + 4
        assert len(keyfiles.vehicle_to_bytes(creds)) == size == 12_799

    def test_authority_size_is_its_records(self, ra):
        """Past its own keys, the authority stores an id and a count per
        vehicle, a pseudonym and two shares per slot, and the consumed set."""
        keys_only = dataclasses.replace(ra, vehicles={}, dataset_entries={}, consumed=set())
        records = sum(4 + len(vid) + 4 for vid in ra.vehicles)
        records += 3 * 32 * len(ra.dataset_entries) + 32 * len(ra.consumed)
        size = len(keyfiles.authority_to_bytes(ra))
        assert size == len(keyfiles.authority_to_bytes(keys_only)) + records

    def test_vehicle_file_holds_no_derived_value(self, wallets):
        """A slot's index, pseudonym and d_EV * a_i are derived on load, and
        the header holds no width, so none of them is in the file; a slot's
        s2 follows its shares as the int16 row its key holds."""
        for creds in wallets.values():
            blob = keyfiles.vehicle_to_bytes(creds)
            p = creds.entries[0].usk.params
            assert blob[:15] == b"DQS5\x11" + struct.pack("<HQ", p.N, p.q)
            assert struct.pack("<d", p.sigma_extract) not in blob
            for e in creds.entries:
                assert e.z + e.w + int16_bytes(e.usk.s2_coeffs) in blob
                assert e.pseudonym not in blob
                assert (creds.d_ev * e.blind).to_bytes(64, "big") not in blob


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(slot_counts=st.lists(st.integers(1, 4), min_size=1, max_size=3), data=st.data())
def test_containers_round_trip(toy_authority, slot_counts, data):
    """Random vehicle and slot counts, consumed pseudonyms and spent slots at
    the toy tier: each container decodes to the state it was written from
    and re-encodes to its own bytes."""
    ra = dataclasses.replace(toy_authority, vehicles={}, dataset_entries={}, consumed=set())
    wallets = [register_vehicle(ra, b"EV-prop-%d" % i, n) for i, n in enumerate(slot_counts)]
    ra.consumed = set(data.draw(st.lists(st.sampled_from(sorted(ra.dataset_entries)), unique=True)))
    for creds in wallets:
        creds.spent = set(data.draw(st.lists(st.sampled_from(range(len(creds.entries))), unique=True)))

    def round_trip(encode, decode, state):
        blob = encode(state)
        back = decode(blob)
        assert encode(back) == blob
        return back

    back = round_trip(keyfiles.authority_to_bytes, keyfiles.authority_from_bytes, ra)
    for name in ("seed", "mpk", "msk", "cspa_usk", "gk_cspa_rsu", "gk_rsu_cp",
                 "vehicles", "dataset_entries", "consumed"):
        assert getattr(back, name) == getattr(ra, name), name
    ds = export_cspa_dataset(ra)
    back = round_trip(keyfiles.dataset_to_bytes, keyfiles.dataset_from_bytes, ds)
    assert (back.usk, back.gk_cspa_rsu, back.entries, back.consumed) == (
        ds.usk, ds.gk_cspa_rsu, ds.entries, ds.consumed
    )
    for creds in wallets:
        back = round_trip(keyfiles.vehicle_to_bytes, keyfiles.vehicle_from_bytes, creds)
        assert back == creds


def int16_bytes(s2: np.ndarray) -> bytes:
    """A key's s2 as a container stores it: N little-endian int16."""
    return np.asarray(s2, dtype="<i2").tobytes()


def vehicle_blob(wallets) -> bytes:
    return keyfiles.vehicle_to_bytes(wallets[b"EV-kf-2"])


class TestFraming:
    @pytest.mark.parametrize("layout", [b"DQS1", b"DQS2", b"DQS3", b"DQS4"])
    def test_other_layout_named(self, wallets, layout):
        blob = layout + vehicle_blob(wallets)[4:]
        with pytest.raises(DecodeError, match=f"^layout {layout.decode()}, this build reads DQS5$"):
            keyfiles.vehicle_from_bytes(blob)

    def test_bad_magic(self, wallets):
        blob = bytearray(vehicle_blob(wallets))
        blob[0] ^= 0xFF
        with pytest.raises(DecodeError, match="magic"):
            keyfiles.vehicle_from_bytes(bytes(blob))

    def test_wrong_record_type_named_in_error(self, wallets):
        with pytest.raises(DecodeError, match="holds vehicle credentials, expected CSPA dataset"):
            keyfiles.dataset_from_bytes(vehicle_blob(wallets))

    def test_truncation_detected(self, ra):
        blob = keyfiles.authority_to_bytes(ra)
        with pytest.raises(DecodeError):
            keyfiles.authority_from_bytes(blob[: len(blob) // 2])

    def test_trailing_garbage_detected(self, wallets):
        blob = vehicle_blob(wallets) + b"\x00"
        with pytest.raises(DecodeError):
            keyfiles.vehicle_from_bytes(blob)

    def test_empty_input(self):
        with pytest.raises(DecodeError):
            keyfiles.vehicle_from_bytes(b"")


class TestStrictFields:
    @pytest.mark.parametrize("slot", ["gk_cspa_rsu", "gk_rsu_cp"])
    def test_authority_group_key_role_checked(self, ra, slot):
        """A group key's slot fixes its role, so the writer refuses a key of
        another role rather than store one that loads back retagged."""
        key = getattr(ra, slot)
        wrong = dataclasses.replace(ra, **{slot: SymmetricKey(key.key, "session")})
        with pytest.raises(ValueError, match=f"group key role 'session' in the '{key.role}' slot"):
            keyfiles.authority_to_bytes(wrong)

    def test_authority_group_keys_in_swapped_slots_rejected(self, ra):
        swapped = dataclasses.replace(ra, gk_cspa_rsu=ra.gk_rsu_cp, gk_rsu_cp=ra.gk_cspa_rsu)
        with pytest.raises(ValueError, match="group key role"):
            keyfiles.authority_to_bytes(swapped)

    def test_dataset_group_key_role_checked(self, ra):
        ds = dataclasses.replace(export_cspa_dataset(ra), gk_cspa_rsu=ra.gk_rsu_cp)
        with pytest.raises(ValueError, match="group key role 'group-rsu-cp'"):
            keyfiles.dataset_to_bytes(ds)

    def test_authority_without_stored_operator_key_rejected(self, ra):
        """The layout before the operator key was stored does not decode."""
        w = Writer()  # the stored key as the container frames it
        w.blob(ra.cspa_identity)
        w.raw(int16_bytes(ra.cspa_usk.s2_coeffs))
        blob = keyfiles.authority_to_bytes(ra)
        assert blob.count(w.getvalue()) == 1
        with pytest.raises(DecodeError):
            keyfiles.authority_from_bytes(blob.replace(w.getvalue(), b""))

    @pytest.mark.parametrize("container", ["vehicle", "authority", "dataset"])
    def test_key_past_norm_bound_rejected(self, ra, wallets, container):
        """A stored s2 coefficient pushed past norm_bound fails at load, not
        as a DecryptFailure in the middle of a session."""
        creds = wallets[b"EV-kf-2"]
        usk, blob, decode = {
            "vehicle": (creds.entries[1].usk, keyfiles.vehicle_to_bytes(creds),
                        keyfiles.vehicle_from_bytes),
            "authority": (ra.cspa_usk, keyfiles.authority_to_bytes(ra),
                          keyfiles.authority_from_bytes),
            "dataset": (ra.cspa_usk, keyfiles.dataset_to_bytes(export_cspa_dataset(ra)),
                        keyfiles.dataset_from_bytes),
        }[container]
        coeffs = usk.s2_coeffs.copy()
        coeffs[0] = math.ceil(norm_bound(usk.params))  # ||s2|| alone exceeds the bound
        stored = int16_bytes(usk.s2_coeffs)
        assert blob.count(stored) == 1
        bad = blob.replace(stored, int16_bytes(coeffs))
        with pytest.raises(DecodeError, match=f"^key of {usk.identity.hex()} exceeds the norm"):
            decode(bad)

    @pytest.mark.parametrize("container", ["vehicle", "authority", "dataset"])
    def test_every_sixteen_bit_s2_decodes_as_itself(
        self, default_authority, default_vehicle, container, monkeypatch
    ):
        """A stored s2 coefficient of 2^15 - 1 or -2^15, the ends of the 16
        bits a key holds, decodes as itself and re-encodes to its bytes: no
        stored s2 is out of range.  The norm bound is lifted here, so that
        the range alone decides."""
        monkeypatch.setattr(ibe, "norm_bound", lambda params: math.inf)
        ra, creds = default_authority, default_vehicle
        usk, blob, decode, key_of = {
            "vehicle": (creds.entries[1].usk, keyfiles.vehicle_to_bytes(creds),
                        keyfiles.vehicle_from_bytes, lambda d: d.entries[1].usk),
            "authority": (ra.cspa_usk, keyfiles.authority_to_bytes(ra),
                          keyfiles.authority_from_bytes, lambda d: d.cspa_usk),
            "dataset": (ra.cspa_usk, keyfiles.dataset_to_bytes(export_cspa_dataset(ra)),
                        keyfiles.dataset_from_bytes, lambda d: d.usk),
        }[container]
        stored = int16_bytes(usk.s2_coeffs)
        assert blob.count(stored) == 1
        encode = {"vehicle": keyfiles.vehicle_to_bytes, "authority": keyfiles.authority_to_bytes,
                  "dataset": keyfiles.dataset_to_bytes}[container]
        for value in (2**15 - 1, -(2**15)):
            coeffs = usk.s2_coeffs.copy()
            coeffs[0] = value
            edge = blob.replace(stored, int16_bytes(coeffs))
            back = decode(edge)
            assert np.array_equal(key_of(back).s2_coeffs, coeffs)
            assert encode(back) == edge

    def test_trapdoor_of_a_gaussian_keygen_rejected(self, ra):
        """A trapdoor completed from a Gaussian (f, g), as every authority
        written before the annular keygen holds, has a quality above the
        1.5 / r = 1.172 that the hybrid sampler serves (2.06 here, 3.8 to
        7.0 at the default tier): refused at load, before any key is
        extracted with it."""
        old = gaussian_authority(ra)
        quality = basis_quality(old.msk.f, old.msk.g, ra.params.q)
        assert quality > max_basis_quality(ra.params)
        with pytest.raises(DecodeError, match=f"^trapdoor quality {quality:.3f} above the sampler's 1.172$"):
            keyfiles.authority_from_bytes(keyfiles.authority_to_bytes(old))

    @pytest.mark.parametrize("poly", ["f", "g", "F", "G"])
    def test_trapdoor_bit_flip_rejected(self, ra, poly):
        """One flipped bit in f, g, F or G breaks f*h = g or F*h = G mod q,
        so a corrupt trapdoor fails at load, not as keys that no wallet
        decoder accepts or that no longer follow the authority's seed."""
        blob = keyfiles.authority_to_bytes(ra)
        stored = np.array(getattr(ra.msk, poly).coeffs, dtype="<i4").tobytes()
        assert blob.count(stored) == 1
        at = blob.index(stored)
        bad = blob[:at] + bytes([blob[at] ^ 1]) + blob[at + 1 :]
        relation = "f\\*h = g" if poly in "fg" else "F\\*h = G"
        with pytest.raises(DecodeError, match=f"^trapdoor fails {relation} mod q$"):
            keyfiles.authority_from_bytes(bad)

    def test_ring_element_of_other_parameters_refused(self, toy_authority, test_authority):
        """No stored key states its own N and q, so the writer refuses an
        operator key of another h, which the header's parameters would read
        back as another key."""
        mixed = dataclasses.replace(toy_authority, cspa_usk=test_authority.cspa_usk)
        with pytest.raises(ValueError, match="^operator key of another authority than the container's h$"):
            keyfiles.authority_to_bytes(mixed)

    def test_msk_polynomial_of_wrong_length(self):
        toy = ra_setup(TIERS["toy"], "short-f")
        short = dataclasses.replace(toy.msk, f=IntegerPolynomial(toy.msk.f.coeffs[:15]))
        with pytest.raises(ValueError, match="15 coefficients, expected 16"):
            keyfiles.authority_to_bytes(dataclasses.replace(toy, msk=short))

    def test_msk_coefficient_past_32_bits_refused(self):
        """A trapdoor coefficient is stored in 32 signed bits: 2^31 is refused."""
        toy = ra_setup(TIERS["toy"], "wide-F")
        wide = dataclasses.replace(toy.msk, F=IntegerPolynomial([1 << 31, *toy.msk.F.coeffs[1:]]))
        with pytest.raises(ValueError, match="coefficient too large for the container"):
            keyfiles.authority_to_bytes(dataclasses.replace(toy, msk=wide))


def swap_tail_records(blob: bytes, size: int) -> bytes:
    """The container with its last two `size`-byte records swapped."""
    head, a, b = blob[: -2 * size], blob[-2 * size : -size], blob[-size:]
    return head + b + a


class TestCanonicalOrder:
    """Every container the writers would not emit is refused, since a
    reader that accepts either spends or burns the wrong slot."""

    def test_slot_derives_its_pseudonym(self):
        """A vehicle file stores no pseudonym, so the writer refuses a slot
        whose reload would derive another one: a blind changed by one."""
        creds = register_vehicle(ra_setup(TIERS["toy"], "derive"), b"EV-derive", 2)
        e = creds.entries[0]
        bumped = dataclasses.replace(e, blind=e.blind + 1)
        with pytest.raises(ValueError, match="slot 0: pseudonym is not H"):
            keyfiles.vehicle_to_bytes(dataclasses.replace(creds, entries=[bumped, *creds.entries[1:]]))

    def test_slot_key_of_another_h_refused(self, wallets):
        """A vehicle file stores h once, so the writer refuses a slot whose
        key holds another h, which a reload would pair with slot 0's."""
        creds = wallets[b"EV-kf-2"]
        first, e = creds.entries
        other = dataclasses.replace(e, usk=dataclasses.replace(e.usk, h=e.usk.h + e.usk.h))
        with pytest.raises(ValueError, match="slot 1: key of another authority than slot 0"):
            keyfiles.vehicle_to_bytes(dataclasses.replace(creds, entries=[first, other]))

    def test_vehicle_has_a_slot(self, ra, wallets):
        """No writer emits a vehicle without slots, and none re-encodes one."""
        w = keyfiles._frame(keyfiles.RECORD_VEHICLE, ra.params)
        w.blob(b"EV-kf-2")
        w.fixed(wallets[b"EV-kf-2"].d_ev.to_bytes(32, "big"), 32)
        w.raw(ra.mpk.h.to_bytes())
        w.u32(0)  # no slots
        w.u32(0)  # none spent
        with pytest.raises(DecodeError, match="vehicle b'EV-kf-2' has no pseudonym slots"):
            keyfiles.vehicle_from_bytes(w.getvalue())
        vehicles = {**ra.vehicles, b"EV-kf-2": ()}
        blob = keyfiles.authority_to_bytes(dataclasses.replace(ra, vehicles=vehicles))
        with pytest.raises(DecodeError, match="vehicle b'EV-kf-2' has no pseudonym slots"):
            keyfiles.authority_from_bytes(blob)
        empty = dataclasses.replace(wallets[b"EV-kf-2"], entries=[], spent=set())
        with pytest.raises(ValueError, match="^cannot serialize credentials with no entries$"):
            keyfiles.vehicle_to_bytes(empty)

    @pytest.mark.parametrize("spent", [(1, 0), (0, 0)], ids=["descending", "repeated"])
    def test_spent_slots_strictly_increasing(self, wallets, spent):
        creds = dataclasses.replace(wallets[b"EV-kf-2"], spent={0, 1})
        blob = keyfiles.vehicle_to_bytes(creds)
        assert blob.endswith(struct.pack("<3I", 2, 0, 1))
        with pytest.raises(DecodeError, match="spent slots not in strictly increasing order"):
            keyfiles.vehicle_from_bytes(blob[:-8] + struct.pack("<2I", *spent))

    def test_spent_slot_names_a_slot(self, wallets):
        creds = dataclasses.replace(wallets[b"EV-kf-2"], spent={0, 2})
        with pytest.raises(DecodeError, match="spent slot 2 of 2"):
            keyfiles.vehicle_from_bytes(keyfiles.vehicle_to_bytes(creds))

    def test_vehicle_stored_once(self, ra):
        """The first vehicle's id renamed to the second's, of the same length."""
        blob = keyfiles.authority_to_bytes(ra)
        assert blob.count(b"EV-kf-1") == 1
        with pytest.raises(DecodeError, match="vehicle b'EV-kf-2' stored twice"):
            keyfiles.authority_from_bytes(blob.replace(b"EV-kf-1", b"EV-kf-2"))

    def test_consumed_pseudonyms_strictly_increasing(self, ra, wallets):
        consumed = {e.pseudonym for e in wallets[b"EV-kf-2"].entries}
        blob = keyfiles.authority_to_bytes(dataclasses.replace(ra, consumed=consumed))
        keyfiles.authority_from_bytes(blob)
        for bad in (swap_tail_records(blob, 32), blob[:-32] + blob[-64:-32]):
            with pytest.raises(DecodeError, match="consumed pseudonyms not in strictly"):
                keyfiles.authority_from_bytes(bad)

    @pytest.mark.parametrize(
        "donor", [b"EV-kf-2", b"EV-kf-1"], ids=["same-vehicle", "other-vehicle"]
    )
    def test_pseudonym_issued_once(self, ra, donor):
        """A pseudonym in two slots would pair one slot's shares with the
        other's key, and burning one slot would burn both."""
        shared = ra.vehicles[donor][0]
        vehicles = {**ra.vehicles, b"EV-kf-2": (ra.vehicles[b"EV-kf-2"][0], shared)}
        blob = keyfiles.authority_to_bytes(dataclasses.replace(ra, vehicles=vehicles))
        with pytest.raises(DecodeError, match=f"pseudonym {shared.hex()} issued to two slots"):
            keyfiles.authority_from_bytes(blob)

    def test_consumed_pseudonym_was_issued(self, ra):
        unissued = hashlib.sha256(b"never issued").digest()
        consumed = {*ra.consumed, unissued}
        blob = keyfiles.authority_to_bytes(dataclasses.replace(ra, consumed=consumed))
        with pytest.raises(DecodeError, match=f"consumed pseudonym {unissued.hex()} was never"):
            keyfiles.authority_from_bytes(blob)

    def test_dataset_consumed_pseudonym_was_issued(self, ra):
        unissued = hashlib.sha256(b"never issued").digest()
        ds = dataclasses.replace(export_cspa_dataset(ra), consumed={*ra.consumed, unissued})
        with pytest.raises(DecodeError, match=f"consumed pseudonym {unissued.hex()} was never"):
            keyfiles.dataset_from_bytes(keyfiles.dataset_to_bytes(ds))

    def test_dataset_entries_strictly_increasing(self, ra):
        ds = dataclasses.replace(export_cspa_dataset(ra), consumed=set())
        blob = keyfiles.dataset_to_bytes(ds)
        body, tail = blob[:-4], blob[-4:]
        assert tail == struct.pack("<I", 0)  # the empty consumed set
        record = 3 * 32  # pseudonym, z, w
        for bad in (swap_tail_records(body, record), body[:-record] + body[-2 * record : -record]):
            with pytest.raises(DecodeError, match="dataset pseudonyms not in strictly"):
                keyfiles.dataset_from_bytes(bad + tail)


class TestFileHelpers:
    def test_decode_error_names_the_file(self, wallets, tmp_path):
        path = tmp_path / "vehicle.bin"
        keyfiles.save_vehicle(path, wallets[b"EV-kf-1"])
        with pytest.raises(DecodeError, match="^" + re.escape(f"{path}: container holds vehicle")):
            keyfiles.load_authority(path)

    def test_save_load_authority(self, ra, tmp_path):
        path = tmp_path / "authority.bin"
        keyfiles.save_authority(path, ra)
        back = keyfiles.load_authority(path)
        assert keyfiles.authority_to_bytes(back) == keyfiles.authority_to_bytes(ra)

    def test_save_load_vehicle(self, wallets, tmp_path):
        path = tmp_path / "vehicle.bin"
        creds = wallets[b"EV-kf-2"]
        keyfiles.save_vehicle(path, creds)
        assert keyfiles.load_vehicle(path).entries == creds.entries

    def test_save_load_dataset(self, ra, tmp_path):
        path = tmp_path / "dataset.bin"
        ds = export_cspa_dataset(ra)
        keyfiles.save_dataset(path, ds)
        assert keyfiles.load_dataset(path).entries == ds.entries


class TestAtomicSave:
    def test_failed_write_keeps_old_file(self, ra, tmp_path, monkeypatch):
        path = tmp_path / "authority.bin"
        keyfiles.save(path, b"old contents")
        real_fdopen = os.fdopen

        class TornFile:
            """Writes half of what it is given, then fails like a full disk."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.fh.write(data[: len(data) // 2])
                self.fh.flush()
                raise OSError(28, "No space left on device")

            def __getattr__(self, name):
                return getattr(self.fh, name)

        monkeypatch.setattr(os, "fdopen", lambda fd, mode: TornFile(real_fdopen(fd, mode)))
        with pytest.raises(OSError, match="No space"):
            keyfiles.save_authority(path, ra)
        monkeypatch.undo()
        assert path.read_bytes() == b"old contents"
        assert [p.name for p in tmp_path.iterdir()] == ["authority.bin"]

    def test_interrupted_save_leaves_the_old_file(self, tmp_path, monkeypatch):
        """An exception that is not an OSError, such as a KeyboardInterrupt
        during the fsync, removes the temporary file, leaves the old file
        and is raised as it was."""
        path = tmp_path / "authority.bin"
        keyfiles.save(path, b"old contents")
        interrupt = KeyboardInterrupt()

        def stop(fd):
            raise interrupt

        monkeypatch.setattr(os, "fsync", stop)
        with pytest.raises(KeyboardInterrupt) as exc:
            keyfiles.save(path, b"new contents")
        monkeypatch.undo()
        assert exc.value is interrupt
        assert path.read_bytes() == b"old contents"
        assert [p.name for p in tmp_path.iterdir()] == ["authority.bin"]

    def test_missing_directory_names_the_path(self, tmp_path):
        """When not even the temporary file can be made, the error names the
        file asked for, and nothing is left behind."""
        path = tmp_path / "missing" / "authority.bin"
        with pytest.raises(OSError) as exc:
            keyfiles.save(path, b"secret")
        assert exc.value.filename == str(path)
        assert list(tmp_path.iterdir()) == []

    def test_rename_made_durable(self, tmp_path, monkeypatch):
        """The file's data is synced before the rename and its directory
        after it, so the new name survives a crash too."""
        path = tmp_path / "authority.bin"
        path.write_bytes(b"old")
        real_fsync, synced = os.fsync, []

        def record(fd):
            synced.append((stat.S_ISDIR(os.fstat(fd).st_mode), path.read_bytes()))
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", record)
        keyfiles.save(path, b"new")
        assert synced == [(False, b"old"), (True, b"new")]

    def test_replaced_file_keeps_its_mode(self, tmp_path):
        path = tmp_path / "authority.bin"
        path.write_bytes(b"old")
        path.chmod(0o640)
        keyfiles.save(path, b"new")
        assert path.read_bytes() == b"new"
        assert stat.S_IMODE(path.stat().st_mode) == 0o640

    def test_new_file_is_owner_only(self, tmp_path):
        path = tmp_path / "vehicle.bin"
        keyfiles.save(path, b"secret")
        assert stat.S_IMODE(path.stat().st_mode) == 0o600
        assert [p.name for p in tmp_path.iterdir()] == ["vehicle.bin"]


class TestGoldenFiles:
    def test_seeded_test_tier_files(self, tmp_path):
        authority = ra_setup(TIERS["test"], "golden-test-authority")
        creds = register_vehicle(authority, b"EV-golden", 4)
        keyfiles.save_authority(tmp_path / "authority.bin", authority)
        keyfiles.save_vehicle(tmp_path / "vehicle.bin", creds)
        keyfiles.save_dataset(tmp_path / "dataset.bin", export_cspa_dataset(authority))
        digests = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in GOLDEN_TEST_TIER_FILES
        }
        assert digests == GOLDEN_TEST_TIER_FILES
        # The master public key is pinned inside authority.bin, as its
        # coefficients alone, right after the header and the seed.
        h = authority.mpk.h.to_bytes()
        assert (tmp_path / "authority.bin").read_bytes()[15 + 32 :].startswith(h)

    def test_seeded_default_tier_vehicle(self):
        authority = ra_setup(TIERS["default"], "golden-default-authority")
        creds = register_vehicle(authority, b"EV-pin", 3)
        digest = hashlib.sha256(keyfiles.vehicle_to_bytes(creds)).hexdigest()
        assert digest == GOLDEN_DEFAULT_VEHICLE
