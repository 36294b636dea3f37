"""Binary containers for keys, credentials, and registry state.

Every file starts with the magic "DQS1" and one record-type byte.  All
integers are little-endian; variable fields are u32-length-prefixed.  The
encodings are fully deterministic so identical state produces identical
bytes (used by the reproducibility checks).
"""

from __future__ import annotations

import os
import stat
import struct
import tempfile

from dwpt_auth.ibe import (
    MasterPublicKey,
    MasterSecretKey,
    Signature,
    UserSecretKey,
)
from dwpt_auth.registration import (
    CredentialEntry,
    CspaDataset,
    DatasetEntry,
    RegistrationAuthority,
    VehicleCredentials,
)
from dwpt_auth.ring import IntegerPolynomial, RingElement, RingParams
from dwpt_auth.symcrypto import SymmetricKey

MAGIC = b"DQS1"

RECORD_MPK = 0x01
RECORD_MSK = 0x02
RECORD_USK = 0x03
RECORD_SIG = 0x04
RECORD_AUTHORITY = 0x10
RECORD_VEHICLE = 0x11
RECORD_DATASET = 0x12

_RECORD_NAMES = {
    RECORD_MPK: "master public key",
    RECORD_MSK: "master secret key",
    RECORD_USK: "user secret key",
    RECORD_SIG: "signature",
    RECORD_AUTHORITY: "authority state",
    RECORD_VEHICLE: "vehicle credentials",
    RECORD_DATASET: "CSPA dataset",
}

_COEFF_LIMIT = 1 << 31


class _Writer:
    def __init__(self):
        self.buf = bytearray()

    def u8(self, x: int):
        self.buf += struct.pack("<B", x)

    def u16(self, x: int):
        self.buf += struct.pack("<H", x)

    def u32(self, x: int):
        self.buf += struct.pack("<I", x)

    def u64(self, x: int):
        self.buf += struct.pack("<Q", x)

    def f64(self, x: float):
        self.buf += struct.pack("<d", x)

    def blob(self, b: bytes):
        self.u32(len(b))
        self.buf += b

    def fixed(self, b: bytes, n: int):
        if len(b) != n:
            raise ValueError(f"expected {n}-byte field, got {len(b)}")
        self.buf += b

    def params(self, p: RingParams):
        self.u16(p.N)
        self.u64(p.q)
        self.f64(p.sigma_f)
        self.f64(p.sigma_extract)

    def ring(self, elem: RingElement):
        self.blob(elem.to_bytes())

    def ipoly(self, poly: IntegerPolynomial):
        self.u16(len(poly.coeffs))
        for c in poly.coeffs:
            if not -_COEFF_LIMIT <= c < _COEFF_LIMIT:
                raise ValueError("coefficient too large for the container")
            self.buf += struct.pack("<i", c)

    def symkey(self, key: SymmetricKey):
        self.blob(key.role.encode())
        self.fixed(key.key, 32)


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.off = 0

    def _take(self, n: int) -> bytes:
        if self.off + n > len(self.data):
            raise ValueError("truncated container")
        out = self.data[self.off : self.off + n]
        self.off += n
        return out

    def u8(self) -> int:
        return self._take(1)[0]

    def u16(self) -> int:
        return struct.unpack("<H", self._take(2))[0]

    def u32(self) -> int:
        return struct.unpack("<I", self._take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self._take(8))[0]

    def f64(self) -> float:
        return struct.unpack("<d", self._take(8))[0]

    def blob(self) -> bytes:
        return self._take(self.u32())

    def fixed(self, n: int) -> bytes:
        return self._take(n)

    def params(self) -> RingParams:
        N = self.u16()
        q = self.u64()
        sigma_f = self.f64()
        sigma_extract = self.f64()
        return RingParams(N=N, q=q, sigma_f=sigma_f, sigma_extract=sigma_extract)

    def ring(self, p: RingParams) -> RingElement:
        return RingElement.from_bytes(self.blob(), p)

    def ipoly(self) -> IntegerPolynomial:
        n = self.u16()
        coeffs = struct.unpack(f"<{n}i", self._take(4 * n))
        return IntegerPolynomial(coeffs)

    def symkey(self) -> SymmetricKey:
        role = self.blob().decode()
        return SymmetricKey(self.fixed(32), role)

    def done(self):
        if self.off != len(self.data):
            raise ValueError("trailing bytes in container")


def _frame(record_type: int, body: bytes) -> bytes:
    return MAGIC + struct.pack("<B", record_type) + body


def _unframe(data: bytes, record_type: int) -> _Reader:
    if len(data) < 5 or data[:4] != MAGIC:
        raise ValueError("not a key container (bad magic)")
    if data[4] != record_type:
        have = _RECORD_NAMES.get(data[4], f"type {data[4]:#x}")
        want = _RECORD_NAMES[record_type]
        raise ValueError(f"container holds {have}, expected {want}")
    return _Reader(data[5:])


# ---------------------------------------------------------------------------
# Standalone key records

def mpk_to_bytes(mpk: MasterPublicKey) -> bytes:
    w = _Writer()
    w.params(mpk.params)
    w.ring(mpk.h)
    return _frame(RECORD_MPK, bytes(w.buf))


def mpk_from_bytes(data: bytes) -> MasterPublicKey:
    r = _unframe(data, RECORD_MPK)
    p = r.params()
    h = r.ring(p)
    r.done()
    return MasterPublicKey(params=p, h=h)


def _write_msk_body(w: _Writer, msk: MasterSecretKey):
    w.params(msk.params)
    w.ipoly(msk.f)
    w.ipoly(msk.g)
    w.ipoly(msk.F)
    w.ipoly(msk.G)
    w.fixed(msk.extract_seed, 32)


def _read_msk_body(r: _Reader) -> MasterSecretKey:
    p = r.params()
    f = r.ipoly()
    g = r.ipoly()
    F = r.ipoly()
    G = r.ipoly()
    seed = r.fixed(32)
    return MasterSecretKey(params=p, f=f, g=g, F=F, G=G, extract_seed=seed)


def msk_to_bytes(msk: MasterSecretKey) -> bytes:
    w = _Writer()
    _write_msk_body(w, msk)
    return _frame(RECORD_MSK, bytes(w.buf))


def msk_from_bytes(data: bytes) -> MasterSecretKey:
    r = _unframe(data, RECORD_MSK)
    msk = _read_msk_body(r)
    r.done()
    return msk


def _write_usk_body(w: _Writer, usk: UserSecretKey):
    w.blob(usk.identity)
    w.ring(usk.s1)
    w.ring(usk.s2)


def _read_usk_body(r: _Reader, p: RingParams) -> UserSecretKey:
    identity = r.blob()
    s1 = r.ring(p)
    s2 = r.ring(p)
    return UserSecretKey(identity=identity, s1=s1, s2=s2)


def usk_to_bytes(usk: UserSecretKey) -> bytes:
    w = _Writer()
    w.params(usk.params)
    _write_usk_body(w, usk)
    return _frame(RECORD_USK, bytes(w.buf))


def usk_from_bytes(data: bytes) -> UserSecretKey:
    r = _unframe(data, RECORD_USK)
    p = r.params()
    usk = _read_usk_body(r, p)
    r.done()
    return usk


def signature_to_bytes(sig: Signature) -> bytes:
    w = _Writer()
    w.params(sig.s1.params)
    w.fixed(sig.salt, 32)
    w.ring(sig.s1)
    w.ring(sig.s2)
    return _frame(RECORD_SIG, bytes(w.buf))


def signature_from_bytes(data: bytes) -> Signature:
    r = _unframe(data, RECORD_SIG)
    p = r.params()
    salt = r.fixed(32)
    s1 = r.ring(p)
    s2 = r.ring(p)
    r.done()
    return Signature(salt=salt, s1=s1, s2=s2)


# ---------------------------------------------------------------------------
# Vehicle credentials

def _write_vehicle_body(w: _Writer, p: RingParams, creds: VehicleCredentials):
    w.blob(creds.vehicle_id)
    w.fixed(creds.d_ev.to_bytes(32, "big"), 32)
    w.u32(len(creds.entries))
    for e in creds.entries:
        w.u32(e.index)
        w.fixed(e.blind.to_bytes(32, "big"), 32)
        w.fixed(e.shared_point.to_bytes(64, "big"), 64)
        w.fixed(e.pseudonym, 32)
        w.fixed(e.z, 32)
        w.fixed(e.w, 32)
        w.ring(e.usk.s1)
        w.ring(e.usk.s2)
    w.u32(len(creds.spent))
    for idx in sorted(creds.spent):
        w.u32(idx)


def _read_vehicle_body(r: _Reader, p: RingParams) -> VehicleCredentials:
    vehicle_id = r.blob()
    d_ev = int.from_bytes(r.fixed(32), "big")
    entries = []
    for _ in range(r.u32()):
        index = r.u32()
        blind = int.from_bytes(r.fixed(32), "big")
        point = int.from_bytes(r.fixed(64), "big")
        pseudonym = r.fixed(32)
        z = r.fixed(32)
        wshare = r.fixed(32)
        s1 = r.ring(p)
        s2 = r.ring(p)
        entries.append(
            CredentialEntry(
                index=index,
                blind=blind,
                shared_point=point,
                pseudonym=pseudonym,
                z=z,
                w=wshare,
                usk=UserSecretKey(identity=pseudonym, s1=s1, s2=s2),
            )
        )
    spent = {r.u32() for _ in range(r.u32())}
    return VehicleCredentials(
        vehicle_id=vehicle_id, d_ev=d_ev, entries=entries, spent=spent
    )


def vehicle_to_bytes(creds: VehicleCredentials) -> bytes:
    if not creds.entries:
        raise ValueError("cannot serialize credentials with no entries")
    p = creds.entries[0].usk.params
    w = _Writer()
    w.params(p)
    _write_vehicle_body(w, p, creds)
    return _frame(RECORD_VEHICLE, bytes(w.buf))


def vehicle_from_bytes(data: bytes) -> VehicleCredentials:
    r = _unframe(data, RECORD_VEHICLE)
    p = r.params()
    creds = _read_vehicle_body(r, p)
    r.done()
    return creds


# ---------------------------------------------------------------------------
# CSPA dataset

def dataset_to_bytes(ds: CspaDataset) -> bytes:
    p = ds.usk.params
    w = _Writer()
    w.params(p)
    w.blob(ds.cspa_identity)
    _write_usk_body(w, ds.usk)
    w.symkey(ds.gk_cspa_rsu)
    w.u32(len(ds.entries))
    for pseudonym in sorted(ds.entries):
        e = ds.entries[pseudonym]
        w.fixed(e.pseudonym, 32)
        w.fixed(e.z, 32)
        w.fixed(e.w, 32)
        w.u8(1 if e.consumed else 0)
    return _frame(RECORD_DATASET, bytes(w.buf))


def dataset_from_bytes(data: bytes) -> CspaDataset:
    r = _unframe(data, RECORD_DATASET)
    p = r.params()
    cspa_identity = r.blob()
    usk = _read_usk_body(r, p)
    gk = r.symkey()
    entries = {}
    for _ in range(r.u32()):
        pseudonym = r.fixed(32)
        z = r.fixed(32)
        wshare = r.fixed(32)
        consumed = r.u8() == 1
        entries[pseudonym] = DatasetEntry(
            pseudonym=pseudonym, z=z, w=wshare, consumed=consumed
        )
    r.done()
    return CspaDataset(
        cspa_identity=cspa_identity, usk=usk, gk_cspa_rsu=gk, entries=entries
    )


# ---------------------------------------------------------------------------
# Authority state

def authority_to_bytes(ra: RegistrationAuthority) -> bytes:
    w = _Writer()
    w.params(ra.params)
    w.fixed(ra.seed, 32)
    w.ring(ra.mpk.h)
    _write_msk_body(w, ra.msk)
    w.blob(ra.cspa_identity)
    w.symkey(ra.gk_cspa_rsu)
    w.symkey(ra.gk_rsu_cp)
    w.u32(len(ra.vehicles))
    for creds in ra.vehicles.values():
        _write_vehicle_body(w, ra.params, creds)
    w.u32(len(ra.consumed))
    for pseudonym in sorted(ra.consumed):
        w.fixed(pseudonym, 32)
    return _frame(RECORD_AUTHORITY, bytes(w.buf))


def authority_from_bytes(data: bytes) -> RegistrationAuthority:
    r = _unframe(data, RECORD_AUTHORITY)
    p = r.params()
    seed = r.fixed(32)
    h = r.ring(p)
    msk = _read_msk_body(r)
    if msk.params != p:
        raise ValueError("inconsistent parameters inside authority container")
    cspa_identity = r.blob()
    gk_cspa_rsu = r.symkey()
    gk_rsu_cp = r.symkey()
    vehicles = {}
    pseudonym_owner = {}
    for _ in range(r.u32()):
        creds = _read_vehicle_body(r, p)
        vehicles[creds.vehicle_id] = creds
        for e in creds.entries:
            pseudonym_owner[e.pseudonym] = (creds.vehicle_id, e.index)
    consumed = {r.fixed(32) for _ in range(r.u32())}
    r.done()
    return RegistrationAuthority(
        params=p,
        seed=seed,
        mpk=MasterPublicKey(params=p, h=h),
        msk=msk,
        cspa_identity=cspa_identity,
        gk_cspa_rsu=gk_cspa_rsu,
        gk_rsu_cp=gk_rsu_cp,
        vehicles=vehicles,
        pseudonym_owner=pseudonym_owner,
        consumed=consumed,
    )


# ---------------------------------------------------------------------------
# File helpers

def save(path, data: bytes):
    """Replace `path` with `data` atomically.

    The bytes go to a temporary file in the same directory, which is flushed,
    fsync'd and then renamed over `path`, so a crash leaves either the old
    file or the new one, never a torn mix.  A replaced file keeps its
    permission bits; a new one is owner-only, since every container here but
    the master public key holds secret key material.
    """
    path = os.fspath(path)
    fd, tmp = tempfile.mkstemp(
        dir=os.path.dirname(path) or ".", prefix=f".{os.path.basename(path)}."
    )
    try:
        with os.fdopen(fd, "wb") as fh:
            if os.path.exists(path):
                os.fchmod(fh.fileno(), stat.S_IMODE(os.stat(path).st_mode))
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def load(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def save_authority(path, ra: RegistrationAuthority):
    save(path, authority_to_bytes(ra))


def load_authority(path) -> RegistrationAuthority:
    return authority_from_bytes(load(path))


def save_vehicle(path, creds: VehicleCredentials):
    save(path, vehicle_to_bytes(creds))


def load_vehicle(path) -> VehicleCredentials:
    return vehicle_from_bytes(load(path))


def save_dataset(path, ds: CspaDataset):
    save(path, dataset_to_bytes(ds))


def load_dataset(path) -> CspaDataset:
    return dataset_from_bytes(load(path))
