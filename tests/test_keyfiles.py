"""Binary container encode/decode for keys, credentials, and authority state."""

import dataclasses
import hashlib
import math
import os
import re
import stat
import struct

import pytest

from dwpt_auth import keyfiles
from dwpt_auth.codec import Writer
from dwpt_auth.errors import DecodeError
from dwpt_auth.ibe import extract
from dwpt_auth.registration import export_cspa_dataset, ra_setup, register_vehicle
from dwpt_auth.ring import IntegerPolynomial, TIERS
from dwpt_auth.symcrypto import SymmetricKey

#: SHA-256 of the files written for ra_setup(TIERS["test"], "golden-test-authority")
#: after register_vehicle(ra, b"EV-golden", 4); pins the seed-to-file map.
GOLDEN_TEST_TIER_FILES = {
    "authority.bin": "22c6e0827110195c0dff08b4817e6fd288b8129def8cc23e689f33faee849e04",
    "vehicle.bin": "161be992c5d488a63d89468570e3c3322545d1a3efc7ecea0db926b15daaea5b",
    "dataset.bin": "eaf5c741ec7d931736d4091e7a2a84614876480baca921cfc55a7e18f6978515",
}

#: SHA-256 of vehicle_to_bytes(register_vehicle(ra, b"EV-pin", 3)) for
#: ra = ra_setup(TIERS["default"], "golden-default-authority"): pins the
#: seed-to-key map at the tier the benchmark measures.
GOLDEN_DEFAULT_VEHICLE = "ed4a21990fb5e9cc6ef1b1b5cb9b8846db21e71e82b94202b98fe2dacec16067"


def rename_operator_key(blob: bytes, to: bytes) -> bytes:
    """The container with the identity inside its operator key renamed; the
    identity stored before the key is left as it was."""
    w = Writer()
    w.blob(b"CSPA-1")
    stored = w.getvalue()
    assert blob.count(stored * 2) == 1 and len(to) == len(b"CSPA-1")
    w = Writer()
    w.blob(to)
    return blob.replace(stored * 2, stored + w.getvalue())


@pytest.fixture(scope="module")
def ra():
    authority = ra_setup(TIERS["test"], "keyfiles-suite")
    register_vehicle(authority, b"EV-kf-1", 3)
    register_vehicle(authority, b"EV-kf-2", 2)
    authority.consumed.add(authority.vehicles[b"EV-kf-1"].entries[0].pseudonym)
    return authority


class TestRecordRoundTrips:
    def test_msk_round_trip_preserves_extraction(self, ra):
        """A reloaded master key must extract the identical user keys."""
        back = keyfiles.authority_from_bytes(keyfiles.authority_to_bytes(ra)).msk
        a = extract(ra.msk, b"proof-identity")
        b = extract(back, b"proof-identity")
        assert a.s1 == b.s1 and a.s2 == b.s2

    def test_vehicle(self, ra):
        creds = ra.vehicles[b"EV-kf-1"]
        creds.spent.add(1)
        back = keyfiles.vehicle_from_bytes(keyfiles.vehicle_to_bytes(creds))
        assert back.vehicle_id == creds.vehicle_id
        assert back.d_ev == creds.d_ev
        assert back.spent == creds.spent
        assert back.entries == creds.entries

    def test_dataset(self, ra):
        ds = export_cspa_dataset(ra)
        back = keyfiles.dataset_from_bytes(keyfiles.dataset_to_bytes(ds))
        assert back.cspa_identity == ds.cspa_identity
        assert back.usk == ds.usk
        assert back.gk_cspa_rsu == ds.gk_cspa_rsu
        assert back.entries == ds.entries

    def test_authority(self, ra):
        blob = keyfiles.authority_to_bytes(ra)
        back = keyfiles.authority_from_bytes(blob)
        assert back.seed == ra.seed
        assert back.mpk == ra.mpk
        assert back.cspa_identity == ra.cspa_identity
        assert back.cspa_usk == ra.cspa_usk
        assert back.gk_cspa_rsu == ra.gk_cspa_rsu
        assert back.gk_rsu_cp == ra.gk_rsu_cp
        assert back.consumed == ra.consumed
        assert back.pseudonym_owner == ra.pseudonym_owner
        assert back.dataset_entries == ra.dataset_entries
        assert set(back.vehicles) == set(ra.vehicles)
        # serialization is a fixed point: encode(decode(x)) == x
        assert keyfiles.authority_to_bytes(back) == blob


def vehicle_blob(ra) -> bytes:
    return keyfiles.vehicle_to_bytes(ra.vehicles[b"EV-kf-2"])


class TestFraming:
    def test_bad_magic(self, ra):
        blob = bytearray(vehicle_blob(ra))
        blob[0] ^= 0xFF
        with pytest.raises(DecodeError, match="magic"):
            keyfiles.vehicle_from_bytes(bytes(blob))

    def test_wrong_record_type_named_in_error(self, ra):
        with pytest.raises(DecodeError, match="holds vehicle credentials, expected CSPA dataset"):
            keyfiles.dataset_from_bytes(vehicle_blob(ra))

    def test_truncation_detected(self, ra):
        blob = keyfiles.authority_to_bytes(ra)
        with pytest.raises(DecodeError):
            keyfiles.authority_from_bytes(blob[: len(blob) // 2])

    def test_trailing_garbage_detected(self, ra):
        blob = vehicle_blob(ra) + b"\x00"
        with pytest.raises(DecodeError):
            keyfiles.vehicle_from_bytes(blob)

    def test_empty_input(self):
        with pytest.raises(DecodeError):
            keyfiles.vehicle_from_bytes(b"")


class TestStrictFields:
    def test_consumed_flag_is_zero_or_one(self, ra):
        blob = keyfiles.dataset_to_bytes(export_cspa_dataset(ra))
        # The last byte is the consumed flag of the last dataset entry.
        for flag in (0, 1):
            back = keyfiles.dataset_from_bytes(blob[:-1] + bytes([flag]))
            assert keyfiles.dataset_to_bytes(back)[-1] == flag
        with pytest.raises(DecodeError, match="consumed flag 7"):
            keyfiles.dataset_from_bytes(blob[:-1] + b"\x07")

    def test_stored_operator_key_names_the_operator(self, ra):
        foreign = rename_operator_key(keyfiles.authority_to_bytes(ra), b"CSPA-2")
        with pytest.raises(DecodeError, match="stored operator key is for b'CSPA-2'"):
            keyfiles.authority_from_bytes(foreign)

    def test_dataset_operator_key_names_the_operator(self, ra):
        blob = keyfiles.dataset_to_bytes(export_cspa_dataset(ra))
        foreign = rename_operator_key(blob, b"CSPA-2")
        with pytest.raises(DecodeError, match="stored operator key is for b'CSPA-2'"):
            keyfiles.dataset_from_bytes(foreign)

    @pytest.mark.parametrize("slot", ["gk_cspa_rsu", "gk_rsu_cp"])
    def test_authority_group_key_role_checked(self, ra, slot):
        key = getattr(ra, slot)
        wrong = dataclasses.replace(ra, **{slot: SymmetricKey(key.key, "session")})
        with pytest.raises(DecodeError, match=f"group key role b'session', expected '{key.role}'"):
            keyfiles.authority_from_bytes(keyfiles.authority_to_bytes(wrong))

    def test_authority_group_keys_in_swapped_slots_rejected(self, ra):
        swapped = dataclasses.replace(ra, gk_cspa_rsu=ra.gk_rsu_cp, gk_rsu_cp=ra.gk_cspa_rsu)
        with pytest.raises(DecodeError, match="group key role"):
            keyfiles.authority_from_bytes(keyfiles.authority_to_bytes(swapped))

    def test_dataset_group_key_role_checked(self, ra):
        ds = dataclasses.replace(export_cspa_dataset(ra), gk_cspa_rsu=ra.gk_rsu_cp)
        with pytest.raises(DecodeError, match="group key role b'group-rsu-cp'"):
            keyfiles.dataset_from_bytes(keyfiles.dataset_to_bytes(ds))

    def test_authority_without_stored_operator_key_rejected(self, ra):
        """The layout before the operator key was stored does not decode."""
        w = Writer()  # the stored key as the container frames it
        for field in (ra.cspa_identity, ra.cspa_usk.s1.to_bytes(), ra.cspa_usk.s2.to_bytes()):
            w.blob(field)
        blob = keyfiles.authority_to_bytes(ra)
        assert blob.count(w.getvalue()) == 1
        with pytest.raises(DecodeError):
            keyfiles.authority_from_bytes(blob.replace(w.getvalue(), b""))

    def test_msk_polynomial_of_wrong_length(self):
        toy = ra_setup(TIERS["toy"], "short-f")
        short = dataclasses.replace(toy.msk, f=IntegerPolynomial(toy.msk.f.coeffs[:15]))
        blob = keyfiles.authority_to_bytes(dataclasses.replace(toy, msk=short))
        with pytest.raises(DecodeError, match="15 coefficients, expected 16"):
            keyfiles.authority_from_bytes(blob)

    @pytest.mark.parametrize(
        "start, name, width",
        [
            pytest.param(15, "sigma_f", float("nan"), id="nan"),
            pytest.param(15, "sigma_f", float("inf"), id="inf"),
            pytest.param(23, "sigma_extract", 3 * math.sqrt(TIERS["test"].q), id="wide"),
        ],
    )
    def test_non_finite_width_in_header(self, ra, start, name, width):
        """Stored widths must be the ones N and q derive."""
        blob = bytearray(vehicle_blob(ra))
        # magic(4) + record type(1) + N(2) + q(8), then sigma_f and sigma_extract as f64
        blob[start : start + 8] = struct.pack("<d", width)
        with pytest.raises(DecodeError, match=re.escape(f"stored {name} {width!r}, expected")):
            keyfiles.vehicle_from_bytes(bytes(blob))


class TestFileHelpers:
    def test_decode_error_names_the_file(self, ra, tmp_path):
        path = tmp_path / "vehicle.bin"
        keyfiles.save_vehicle(path, ra.vehicles[b"EV-kf-1"])
        with pytest.raises(DecodeError, match="^" + re.escape(f"{path}: container holds vehicle")):
            keyfiles.load_authority(path)

    def test_save_load_authority(self, ra, tmp_path):
        path = tmp_path / "authority.bin"
        keyfiles.save_authority(path, ra)
        back = keyfiles.load_authority(path)
        assert keyfiles.authority_to_bytes(back) == keyfiles.authority_to_bytes(ra)

    def test_save_load_vehicle(self, ra, tmp_path):
        path = tmp_path / "vehicle.bin"
        creds = ra.vehicles[b"EV-kf-2"]
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
        # The master public key is pinned inside authority.bin, as its u32-prefixed blob.
        h = authority.mpk.h.to_bytes()
        assert struct.pack("<I", len(h)) + h in (tmp_path / "authority.bin").read_bytes()

    def test_seeded_default_tier_vehicle(self):
        authority = ra_setup(TIERS["default"], "golden-default-authority")
        creds = register_vehicle(authority, b"EV-pin", 3)
        digest = hashlib.sha256(keyfiles.vehicle_to_bytes(creds)).hexdigest()
        assert digest == GOLDEN_DEFAULT_VEHICLE
