"""Authority setup, vehicle registration, operator dataset export."""

import copy
import pickle

import pytest

from dwpt_auth import keyfiles, protocol, registration
from dwpt_auth.errors import (
    DuplicateRegistration,
    EmptyRegistry,
    SamplerFailure,
)
from dwpt_auth.ibe import extract, norm_bound
from dwpt_auth.netsim import record_pass, simulate_session
from dwpt_auth.registration import (
    ROLE_CSPA_RSU,
    ROLE_RSU_CP,
    export_cspa_dataset,
    ra_setup,
    register_vehicle,
    storage_estimate,
)
from dwpt_auth.ring import TIERS
from dwpt_auth.rng import RandomSource
from dwpt_auth.symcrypto import aead_open, aead_seal, derive_pseudonym


class TestCopies:
    """A group key keeps its AES-GCM cipher once used, and the cipher cannot
    be pickled; a copied or unpickled authority builds its own and still
    works with the original."""

    @pytest.mark.parametrize(
        "clone", [copy.deepcopy, lambda ra: pickle.loads(pickle.dumps(ra))],
        ids=["deepcopy", "pickle"],
    )
    def test_authority_round_trips(self, clone):
        ra = ra_setup(TIERS["toy"], "copies")
        register_vehicle(ra, b"EV-copy", 2)
        for key in (ra.gk_cspa_rsu, ra.gk_rsu_cp):
            aead_seal(key, b"first use builds the cipher", RandomSource(key.role))
        twin = clone(ra)
        assert keyfiles.authority_to_bytes(twin) == keyfiles.authority_to_bytes(ra)
        for name in ("gk_cspa_rsu", "gk_rsu_cp"):
            mine, theirs = getattr(ra, name), getattr(twin, name)
            assert theirs == mine and hash(theirs) == hash(mine)
            assert theirs.cipher is not mine.cipher
            blob = aead_seal(theirs, b"sealed under the copy", RandomSource(name), b"ad")
            assert aead_open(mine, blob, b"ad") == b"sealed under the copy"
            assert aead_open(theirs, aead_seal(mine, b"back", RandomSource(0))) == b"back"

    @pytest.mark.parametrize(
        "clone", [copy.deepcopy, lambda creds: pickle.loads(pickle.dumps(creds))],
        ids=["deepcopy", "pickle"],
    )
    def test_wallet_round_trips(self, clone):
        """Slotted entries copy and pickle, and so do keys whose s2 is a row
        of one block."""
        creds = register_vehicle(ra_setup(TIERS["toy"], "copies"), b"EV-copy", 2)
        twin = clone(creds)
        assert twin.entries == creds.entries
        assert keyfiles.vehicle_to_bytes(twin) == keyfiles.vehicle_to_bytes(creds)


class TestSetup:
    def test_deterministic_in_seed(self):
        p = TIERS["test"]
        a = ra_setup(p, "fixed-seed")
        b = ra_setup(p, "fixed-seed")
        assert keyfiles.authority_to_bytes(a) == keyfiles.authority_to_bytes(b)

    def test_cspa_key_extracted_at_setup(self):
        """The operator key is extracted once, at setup, and the dataset
        export hands out that stored key."""
        ra = ra_setup(TIERS["test"], "cspa-key")
        assert ra.cspa_usk.identity == ra.cspa_identity
        assert extract(ra.msk, ra.cspa_identity) == [ra.cspa_usk]
        register_vehicle(ra, b"EV-1", 1)
        assert export_cspa_dataset(ra).usk is ra.cspa_usk

    def test_different_seeds_differ(self):
        p = TIERS["test"]
        a = ra_setup(p, "seed-a")
        b = ra_setup(p, "seed-b")
        assert a.mpk.h != b.mpk.h
        assert a.gk_cspa_rsu.key != b.gk_cspa_rsu.key

    def test_group_key_roles(self):
        ra = ra_setup(TIERS["toy"], "roles")
        assert ra.gk_cspa_rsu.role == ROLE_CSPA_RSU
        assert ra.gk_rsu_cp.role == ROLE_RSU_CP
        assert ra.gk_cspa_rsu.key != ra.gk_rsu_cp.key


class TestRegisterVehicle:
    def test_issues_requested_slots(self, test_authority):
        ra = ra_setup(TIERS["test"], "reg-1")
        creds = register_vehicle(ra, b"EV-1", 5)
        assert len(creds.entries) == 5

    def test_pseudonym_construction(self):
        ra = ra_setup(TIERS["test"], "reg-2")
        creds = register_vehicle(ra, b"EV-2", 3)
        for e in creds.entries:
            assert e.pseudonym == derive_pseudonym(b"EV-2", creds.d_ev * e.blind)

    def test_extracted_keys_match_pseudonym_identity(self):
        ra = ra_setup(TIERS["test"], "reg-3")
        creds = register_vehicle(ra, b"EV-3", 2)
        bound_sq = norm_bound(ra.params) ** 2
        for e in creds.entries:
            assert [e.usk] == extract(ra.msk, e.pseudonym)
            assert e.usk.s1.norm_squared() + e.usk.s2.norm_squared() <= bound_sq

    def test_duplicate_rejected(self):
        ra = ra_setup(TIERS["test"], "reg-4")
        register_vehicle(ra, b"EV-4", 1)
        with pytest.raises(DuplicateRegistration):
            register_vehicle(ra, b"EV-4", 1)

    def test_failed_extraction_changes_nothing(self, monkeypatch):
        """The slots are drawn, their keys extracted, and only then kept:
        a registration whose extraction fails leaves the authority as it was."""
        ra = ra_setup(TIERS["test"], "reg-fail")
        before = keyfiles.authority_to_bytes(ra)

        def fail(msk, *identities):
            raise SamplerFailure("no preimage within the norm bound")

        monkeypatch.setattr(registration, "extract", fail)
        with pytest.raises(SamplerFailure):
            register_vehicle(ra, b"EV-fail", 3)
        assert keyfiles.authority_to_bytes(ra) == before

    def test_exhausted_pseudonym_resamples_change_nothing(self, monkeypatch):
        """When every blind gives one pseudonym, the second slot repeats the
        first's and registration raises DuplicateRegistration naming it,
        leaving the authority's vehicles and dataset entries as they were."""
        ra = ra_setup(TIERS["test"], "reg-exhausted")
        register_vehicle(ra, b"EV-first", 2)
        vehicles, entries = dict(ra.vehicles), dict(ra.dataset_entries)
        monkeypatch.setattr(registration, "derive_pseudonym", lambda vehicle_id, point: bytes(32))
        with pytest.raises(DuplicateRegistration, match=f"pseudonym {'00' * 32} already issued"):
            register_vehicle(ra, b"EV-stuck", 2)
        assert ra.vehicles == vehicles and ra.dataset_entries == entries

    def test_count_must_be_positive(self):
        ra = ra_setup(TIERS["test"], "reg-5")
        with pytest.raises(ValueError):
            register_vehicle(ra, b"EV-5", 0)

    def test_pseudonyms_unique_across_fleet(self):
        ra = ra_setup(TIERS["test"], "reg-6")
        seen = set()
        for i in range(4):
            creds = register_vehicle(ra, f"EV-{i}".encode(), 6)
            for e in creds.entries:
                assert e.pseudonym not in seen
                seen.add(e.pseudonym)
        assert len(ra.dataset_entries) == 24

    def test_vehicle_credentials_deterministic(self):
        """Same authority seed and id give identical credential bytes."""
        a = register_vehicle(ra_setup(TIERS["test"], "reg-7"), b"EV-7", 3)
        b = register_vehicle(ra_setup(TIERS["test"], "reg-7"), b"EV-7", 3)
        assert keyfiles.vehicle_to_bytes(a) == keyfiles.vehicle_to_bytes(b)

    def test_registration_order_does_not_change_credentials(self):
        """Each vehicle's stream depends only on (seed, id), not on order."""
        ra1 = ra_setup(TIERS["test"], "reg-8")
        register_vehicle(ra1, b"EV-a", 2)
        creds_b1 = register_vehicle(ra1, b"EV-b", 2)
        ra2 = ra_setup(TIERS["test"], "reg-8")
        creds_b2 = register_vehicle(ra2, b"EV-b", 2)
        register_vehicle(ra2, b"EV-a", 2)
        assert keyfiles.vehicle_to_bytes(creds_b1) == keyfiles.vehicle_to_bytes(creds_b2)

    def test_pick_slot(self):
        ra = ra_setup(TIERS["test"], "reg-9")
        creds = register_vehicle(ra, b"EV-9", 3)
        assert creds.pick_slot() == 0
        creds.spent.add(0)
        assert creds.pick_slot() == 1
        assert creds.pick_slot(2) == 2
        creds.spent.update({1, 2})
        with pytest.raises(EmptyRegistry):
            creds.pick_slot()
        for slot in (7, 3, -1):
            with pytest.raises(IndexError, match="no pseudonym slot"):
                creds.pick_slot(slot)

    def test_copy_spends_apart(self, test_authority):
        creds = register_vehicle(test_authority, b"EV-copy", 2)
        wallet = creds.copy()
        wallet.spent.add(0)
        assert creds.spent == set() and wallet.entries == creds.entries
        assert (wallet.vehicle_id, wallet.d_ev) == (creds.vehicle_id, creds.d_ev)


class TestDatasetExport:
    def test_empty_registry_rejected(self):
        ra = ra_setup(TIERS["test"], "exp-0")
        with pytest.raises(EmptyRegistry):
            export_cspa_dataset(ra)

    def test_covers_every_pseudonym(self):
        ra = ra_setup(TIERS["test"], "exp-1")
        wallets = [register_vehicle(ra, b"EV-1", 3), register_vehicle(ra, b"EV-2", 2)]
        ds = export_cspa_dataset(ra)
        slots = {e.pseudonym: e for creds in wallets for e in creds.entries}
        assert set(ds.entries) == set(slots)
        for ps, entry in ds.entries.items():
            assert entry.z == slots[ps].z and entry.w == slots[ps].w
        assert not ds.consumed

    def test_consumption_flags_round_trip(self):
        ra = ra_setup(TIERS["test"], "exp-2")
        creds = register_vehicle(ra, b"EV-1", 2)
        burned = creds.entries[1].pseudonym
        ra.consumed.add(burned)
        ds = export_cspa_dataset(ra)
        assert ds.consumed == {burned}
        back = keyfiles.dataset_from_bytes(keyfiles.dataset_to_bytes(ds))
        assert back.consumed == {burned}
        assert set(back.entries) == {e.pseudonym for e in creds.entries}

    def test_dataset_does_not_leak_vehicle_identity(self):
        """The exported container must not contain the id or long-term secret."""
        ra = ra_setup(TIERS["test"], "exp-3")
        creds = register_vehicle(ra, b"EV-SECRET-PLATE", 3)
        blob = keyfiles.dataset_to_bytes(export_cspa_dataset(ra))
        assert b"EV-SECRET-PLATE" not in blob
        assert creds.d_ev.to_bytes(32, "big") not in blob
        for e in creds.entries:
            assert e.blind.to_bytes(32, "big") not in blob

    def test_dataset_carries_cspa_key_material(self):
        ra = ra_setup(TIERS["test"], "exp-4")
        register_vehicle(ra, b"EV-1", 1)
        ds = export_cspa_dataset(ra)
        assert ds.usk.identity == ra.cspa_identity
        assert ds.gk_cspa_rsu.key == ra.gk_cspa_rsu.key
        assert [ds.usk] == extract(ra.msk, ra.cspa_identity)


class TestRecordPass:
    """Only `record_pass` spends a pseudonym; a simulated pass leaves the
    authority's consumed set as it is."""

    @pytest.fixture(scope="class")
    def ra(self):
        return ra_setup(TIERS["default"], "record-pass")

    def test_pass_that_reaches_m2_is_burned(self, ra):
        creds = register_vehicle(ra, b"EV-burn", 2)
        trace = simulate_session(ra, creds, n_pads=2, seed="burn")
        assert trace.completed and ra.consumed == set()
        assert record_pass(ra, creds, trace) is True
        assert ra.consumed == {creds.entries[0].pseudonym}
        rerun = simulate_session(ra, creds, n_pads=2, seed="burn", entry_index=0)
        assert rerun.rejection == "PseudonymReuse"
        assert record_pass(ra, creds, rerun) is False

    def test_pass_rejected_after_m2_is_burned(self, ra, monkeypatch):
        creds = register_vehicle(ra, b"EV-pad-reject", 2)
        monkeypatch.setattr(protocol, "chain_verify", lambda *args: False)
        trace = simulate_session(ra, creds, n_pads=2, seed="pad-reject")
        assert trace.rejection == "ChainMismatch"
        assert record_pass(ra, creds, trace) is True
        assert creds.entries[0].pseudonym in ra.consumed

    def test_m1_rejection_is_not_burned(self, ra):
        creds = register_vehicle(ra, b"EV-stale", 2)
        before = set(ra.consumed)
        trace = simulate_session(ra, creds, n_pads=2, seed="stale", freshness_ms=0)
        assert [kind for kind, _ in trace.wire_log] == ["m1"]
        assert trace.rejection == "StaleTimestamp"
        assert record_pass(ra, creds, trace) is False
        assert ra.consumed == before


class TestBulkIssuance:
    def test_ten_year_wallet(self):
        """One slot per day for ten years: issuance and serialization scale."""
        ra = ra_setup(TIERS["test"], "bulk-3650")
        register_vehicle(ra, b"EV-first", 1)
        before = len(keyfiles.dataset_to_bytes(export_cspa_dataset(ra)))
        creds = register_vehicle(ra, b"EV-bulk", 3650)
        assert len(creds.entries) == 3650
        blob = keyfiles.vehicle_to_bytes(creds)
        back = keyfiles.vehicle_from_bytes(blob)
        assert back.entries[-1].pseudonym == creds.entries[-1].pseudonym
        # dataset rows are the (pseudonym, z, w) record of 3 x 32 B that the
        # fleet budget prices, so the written dataset grows by exactly that
        assert len(keyfiles.dataset_to_bytes(export_cspa_dataset(ra))) - before == (
            storage_estimate(1, 3650, 96)[0]
        )


class TestStorageEstimate:
    def test_record_arithmetic(self):
        assert storage_estimate(1, 1, 96) == (96, 96)
        assert storage_estimate(2, 10, 32 + 64) == (960, 1920)

    def test_fleet_scale(self):
        per_vehicle, total = storage_estimate(10**7, 3650, 96)
        assert per_vehicle == 350_400
        assert total == 3_504_000_000_000

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            storage_estimate(0, 1, 96)
        with pytest.raises(ValueError):
            storage_estimate(1, 1, 0)
