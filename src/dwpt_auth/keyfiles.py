"""Binary containers for the three files the CLI writes.

`authority.bin` holds the registration authority's state, `vehicle-*.bin`
one vehicle's credentials and `dataset.bin` the operator's dataset.  Every
container is the magic "DQS1", one record-type byte, and a body framed
by `codec`: little-endian integers, u32-length-prefixed variable fields
(ring elements as their `to_bytes` blobs), and integer polynomials as a u16
count of i32 coefficients.  Decoders read with the exact-length
`codec.Reader` and raise DecodeError on any malformed container, and on
any container the writers would not emit: a vehicle with no slots (in
`authority.bin` or a vehicle file); in `authority.bin`, a vehicle stored
twice, a pseudonym issued to two slots, or consumed pseudonyms out of
order or never issued; in a vehicle file, a slot index that is not its
position, or spent slots out of order or past the last slot; in
`dataset.bin`, entries out of order.  The `load_*` helpers name the file.
Encodings are deterministic, so identical state produces identical bytes
(used by the reproducibility checks).
"""

from __future__ import annotations

import os
import stat
import tempfile

import numpy as np

from dwpt_auth.codec import Reader, Writer
from dwpt_auth.errors import DecodeError
from dwpt_auth.ibe import MasterPublicKey, MasterSecretKey, UserSecretKey
from dwpt_auth.registration import (
    ROLE_CSPA_RSU,
    ROLE_RSU_CP,
    CredentialEntry,
    CspaDataset,
    DatasetEntry,
    RegistrationAuthority,
    VehicleCredentials,
)
from dwpt_auth.ring import IntegerPolynomial, RingElement, RingParams
from dwpt_auth.symcrypto import SymmetricKey

MAGIC = b"DQS1"

RECORD_AUTHORITY = 0x10
RECORD_VEHICLE = 0x11
RECORD_DATASET = 0x12

_RECORD_NAMES = {
    RECORD_AUTHORITY: "authority state",
    RECORD_VEHICLE: "vehicle credentials",
    RECORD_DATASET: "CSPA dataset",
}

_COEFF_LIMIT = 1 << 31


def _frame(record_type: int) -> Writer:
    """A writer that already holds the container header."""
    w = Writer()
    w.raw(MAGIC)
    w.u8(record_type)
    return w


def _unframe(data: bytes, record_type: int) -> Reader:
    """A reader past the header, which must name `record_type`."""
    if data[:4] != MAGIC:
        raise DecodeError("not a key container (bad magic)")
    r = Reader(data)
    r.fixed(4)
    have = r.u8()
    if have != record_type:
        name = _RECORD_NAMES.get(have, f"type {have:#x}")
        raise DecodeError(f"container holds {name}, expected {_RECORD_NAMES[record_type]}")
    return r


def _write_params(w: Writer, p: RingParams):
    w.u16(p.N)
    w.u64(p.q)
    w.f64(p.sigma_f)
    w.f64(p.sigma_extract)


def _read_params(r: Reader) -> RingParams:
    """(N, q), then the two widths, which must be the ones (N, q) derive."""
    N, q = r.u16(), r.u64()
    try:
        p = RingParams(N, q)
    except ValueError as exc:
        raise DecodeError(f"bad ring parameters: {exc}") from exc
    for name in ("sigma_f", "sigma_extract"):
        stored, derived = r.f64(), getattr(p, name)
        if stored != derived:
            raise DecodeError(f"stored {name} {stored!r}, expected {derived!r} for N={N}, q={q}")
    return p


def _increasing(values: list, what: str) -> list:
    """`values`, which the writers emit sorted and without repeats."""
    if any(a >= b for a, b in zip(values, values[1:])):
        raise DecodeError(f"{what} not in strictly increasing order")
    return values


def _read_ring(r: Reader, p: RingParams) -> RingElement:
    return RingElement.from_bytes(r.blob(), p)


def _write_ipoly(w: Writer, poly: IntegerPolynomial):
    if any(not -_COEFF_LIMIT <= c < _COEFF_LIMIT for c in poly.coeffs):
        raise ValueError("coefficient too large for the container")
    w.u16(len(poly.coeffs))
    w.raw(np.array(poly.coeffs, dtype="<i4").tobytes())


def _read_ipoly(r: Reader, N: int) -> IntegerPolynomial:
    n = r.u16()
    if n != N:
        raise DecodeError(f"polynomial has {n} coefficients, expected {N}")
    return IntegerPolynomial(np.frombuffer(r.fixed(4 * n), dtype="<i4").tolist())


def _write_symkey(w: Writer, key: SymmetricKey):
    w.blob(key.role.encode())
    w.fixed(key.key, 32)


def _read_symkey(r: Reader, role: str) -> SymmetricKey:
    """A group key, whose stored role must be `role`, the one its slot holds."""
    stored = r.blob()
    if stored != role.encode():
        raise DecodeError(f"group key role {stored!r}, expected {role!r}")
    return SymmetricKey(r.fixed(32), role)


# ---------------------------------------------------------------------------
# Key bodies the containers share.  Readers build their result with the
# fields in wire order: Python evaluates call arguments left to right.

def _write_msk_body(w: Writer, msk: MasterSecretKey):
    _write_params(w, msk.params)
    for poly in (msk.f, msk.g, msk.F, msk.G):
        _write_ipoly(w, poly)
    w.fixed(msk.extract_seed, 32)


def _read_msk_body(r: Reader) -> MasterSecretKey:
    p = _read_params(r)
    f, g, F, G = (_read_ipoly(r, p.N) for _ in range(4))
    return MasterSecretKey(params=p, f=f, g=g, F=F, G=G, extract_seed=r.fixed(32))


def _write_usk_body(w: Writer, usk: UserSecretKey):
    w.blob(usk.identity)
    w.blob(usk.s1.to_bytes())
    w.blob(usk.s2.to_bytes())


def _read_usk_body(r: Reader, p: RingParams) -> UserSecretKey:
    return UserSecretKey(identity=r.blob(), s1=_read_ring(r, p), s2=_read_ring(r, p))


def _read_operator_key(r: Reader, p: RingParams) -> UserSecretKey:
    """The operator identity, then its key, which must repeat the identity."""
    identity = r.blob()
    usk = _read_usk_body(r, p)
    if usk.identity != identity:
        raise DecodeError(f"stored operator key is for {usk.identity!r}, not {identity!r}")
    return usk


# ---------------------------------------------------------------------------
# Vehicle credentials

def _read_entry(r: Reader, p: RingParams, slot: int) -> CredentialEntry:
    index = r.u32()
    if index != slot:
        raise DecodeError(f"slot {slot} stores index {index}")
    blind = int.from_bytes(r.fixed(32), "big")
    point = int.from_bytes(r.fixed(64), "big")
    pseudonym, z, wshare = r.fixed(32), r.fixed(32), r.fixed(32)
    usk = UserSecretKey(identity=pseudonym, s1=_read_ring(r, p), s2=_read_ring(r, p))
    return CredentialEntry(index, blind, point, pseudonym, z, wshare, usk)


def vehicle_to_bytes(creds: VehicleCredentials) -> bytes:
    if not creds.entries:
        raise ValueError("cannot serialize credentials with no entries")
    w = _frame(RECORD_VEHICLE)
    _write_params(w, creds.entries[0].usk.params)
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
        w.blob(e.usk.s1.to_bytes())
        w.blob(e.usk.s2.to_bytes())
    w.u32(len(creds.spent))
    for idx in sorted(creds.spent):
        w.u32(idx)
    return w.getvalue()


def vehicle_from_bytes(data: bytes) -> VehicleCredentials:
    r = _unframe(data, RECORD_VEHICLE)
    p = _read_params(r)
    vehicle_id = r.blob()
    d_ev = int.from_bytes(r.fixed(32), "big")
    entries = [_read_entry(r, p, i) for i in range(r.u32())]
    if not entries:
        raise DecodeError(f"vehicle {vehicle_id!r} has no pseudonym slots")
    spent = _increasing([r.u32() for _ in range(r.u32())], "spent slots")
    if spent and spent[-1] >= len(entries):
        raise DecodeError(f"spent slot {spent[-1]} of {len(entries)}")
    r.done()
    return VehicleCredentials(vehicle_id, d_ev, entries, set(spent))


# ---------------------------------------------------------------------------
# CSPA dataset

def dataset_to_bytes(ds: CspaDataset) -> bytes:
    w = _frame(RECORD_DATASET)
    _write_params(w, ds.usk.params)
    w.blob(ds.cspa_identity)
    _write_usk_body(w, ds.usk)
    _write_symkey(w, ds.gk_cspa_rsu)
    w.u32(len(ds.entries))
    for pseudonym in sorted(ds.entries):
        e = ds.entries[pseudonym]
        w.fixed(e.pseudonym, 32)
        w.fixed(e.z, 32)
        w.fixed(e.w, 32)
        w.u8(1 if pseudonym in ds.consumed else 0)
    return w.getvalue()


def dataset_from_bytes(data: bytes) -> CspaDataset:
    r = _unframe(data, RECORD_DATASET)
    p = _read_params(r)
    ds = CspaDataset(
        usk=_read_operator_key(r, p),
        gk_cspa_rsu=_read_symkey(r, ROLE_CSPA_RSU),
        entries={},
    )
    pseudonyms = []
    for _ in range(r.u32()):
        pseudonym, z, wshare, consumed = r.fixed(32), r.fixed(32), r.fixed(32), r.u8()
        if consumed > 1:
            raise DecodeError(f"consumed flag {consumed}, expected 0 or 1")
        pseudonyms.append(pseudonym)
        ds.entries[pseudonym] = DatasetEntry(pseudonym=pseudonym, z=z, w=wshare)
        if consumed:
            ds.consumed.add(pseudonym)
    r.done()
    _increasing(pseudonyms, "dataset pseudonyms")
    return ds


# ---------------------------------------------------------------------------
# Authority state

def authority_to_bytes(ra: RegistrationAuthority) -> bytes:
    w = _frame(RECORD_AUTHORITY)
    _write_params(w, ra.params)
    w.fixed(ra.seed, 32)
    w.blob(ra.mpk.h.to_bytes())
    _write_msk_body(w, ra.msk)
    w.blob(ra.cspa_identity)
    _write_usk_body(w, ra.cspa_usk)
    _write_symkey(w, ra.gk_cspa_rsu)
    _write_symkey(w, ra.gk_rsu_cp)
    w.u32(len(ra.vehicles))
    for vehicle_id, pseudonyms in ra.vehicles.items():
        w.blob(vehicle_id)
        w.u32(len(pseudonyms))
        for pseudonym in pseudonyms:
            e = ra.dataset_entries[pseudonym]
            w.fixed(e.pseudonym, 32)
            w.fixed(e.z, 32)
            w.fixed(e.w, 32)
    w.u32(len(ra.consumed))
    for pseudonym in sorted(ra.consumed):
        w.fixed(pseudonym, 32)
    return w.getvalue()


def authority_from_bytes(data: bytes) -> RegistrationAuthority:
    r = _unframe(data, RECORD_AUTHORITY)
    p = _read_params(r)
    seed = r.fixed(32)
    h = _read_ring(r, p)
    msk = _read_msk_body(r)
    if msk.params != p:
        raise DecodeError("inconsistent parameters inside authority container")
    ra = RegistrationAuthority(
        params=p,
        seed=seed,
        mpk=MasterPublicKey(params=p, h=h),
        msk=msk,
        cspa_usk=_read_operator_key(r, p),
        gk_cspa_rsu=_read_symkey(r, ROLE_CSPA_RSU),
        gk_rsu_cp=_read_symkey(r, ROLE_RSU_CP),
    )
    for _ in range(r.u32()):
        vehicle_id = r.blob()
        if vehicle_id in ra.vehicles:
            raise DecodeError(f"vehicle {vehicle_id!r} stored twice")
        slots = [DatasetEntry(r.fixed(32), r.fixed(32), r.fixed(32)) for _ in range(r.u32())]
        if not slots:
            raise DecodeError(f"vehicle {vehicle_id!r} has no pseudonym slots")
        for e in slots:
            if e.pseudonym in ra.dataset_entries:
                raise DecodeError(f"pseudonym {e.pseudonym.hex()} issued to two slots")
            ra.dataset_entries[e.pseudonym] = e
        ra.vehicles[vehicle_id] = tuple(e.pseudonym for e in slots)
    consumed = [r.fixed(32) for _ in range(r.u32())]
    ra.consumed = set(_increasing(consumed, "consumed pseudonyms"))
    unissued = ra.consumed - ra.dataset_entries.keys()
    if unissued:
        raise DecodeError(f"consumed pseudonym {min(unissued).hex()} was never issued")
    r.done()
    return ra


# ---------------------------------------------------------------------------
# File helpers

def save(path, data: bytes):
    """Replace `path` with `data` atomically.

    The bytes go to a temporary file in the same directory, which is flushed,
    fsync'd and then renamed over `path`, so a crash leaves either the old
    file or the new one, never a torn mix.  The directory is fsync'd after
    the rename, so once this returns the new file survives a crash.  A
    replaced file keeps its permission bits; a new one is owner-only, since
    every container here holds secret key material.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=f".{os.path.basename(path)}.")
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
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _load(path, decode):
    """decode(contents of `path`); a DecodeError names the file."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return decode(data)
    except DecodeError as exc:
        raise DecodeError(f"{os.fspath(path)}: {exc}") from exc


def save_authority(path, ra: RegistrationAuthority):
    save(path, authority_to_bytes(ra))


def load_authority(path) -> RegistrationAuthority:
    return _load(path, authority_from_bytes)


def save_vehicle(path, creds: VehicleCredentials):
    save(path, vehicle_to_bytes(creds))


def load_vehicle(path) -> VehicleCredentials:
    return _load(path, vehicle_from_bytes)


def save_dataset(path, ds: CspaDataset):
    save(path, dataset_to_bytes(ds))


def load_dataset(path) -> CspaDataset:
    return _load(path, dataset_from_bytes)
