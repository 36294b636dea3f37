"""Binary containers for the three files the CLI writes.

Each container stores every fact once, framed by `codec`: little-endian
integers, u32-length-prefixed blobs, the public key h as its fixed-size
`to_bytes` field (`RingParams.element_bytes`), polynomials as N i32
coefficients, and lists as a u32 count and the items.  The header is the
magic "DQS5", a record-type byte, N (u16) and q (u64), the one statement of
N and q in a container; `RingParams` derives the rest.  An identity key is
stored as its s2, the N int16 the key holds (`UserSecretKey.to_bytes`): its
s1 = H(identity) - s2*h is derived from the public key h that the container
holds once.  Then:

- `authority.bin`: seed, h, f, g, F, G, extraction seed, the operator key
  (identity, s2), the CSPA-RSU and RSU-CP group keys; per vehicle its id
  and each slot's (pseudonym, z, w); the consumed set.
- `vehicle-*.bin`: id, d_EV, h, each slot's (blind a_i, z, w, s2), the
  spent slots by position.  A slot's pseudonym is H(ID || d_EV * a_i).
- `dataset.bin`: h, the operator key (identity, s2), the CSPA-RSU group
  key, the entries (pseudonym, z, w) by pseudonym, the consumed set.

A group key's slot fixes its role; the consumed set is sorted pseudonyms.
Decoders read with the exact-length `codec.Reader` and raise DecodeError on
any malformed container, and on any the writers would not emit: a key or a
trapdoor that `ibe` does not admit (`ibe.stored_keys`, through which every
stored key decodes, and `ibe.check_trapdoor`); a vehicle with no slots; in
`authority.bin`, a vehicle stored twice or a pseudonym issued to two slots;
in a vehicle file, spent slots out of order or past the last slot; entries
or consumed pseudonyms out of order, or a consumed pseudonym never issued.
This module frames bytes; what a key or trapdoor may be is `ibe`'s.  Writers
refuse, with ValueError, a slot whose pseudonym (its key's identity) is not
the one the decoder would derive, a slot key of another h than the first
slot's, an operator key of another h than the container's, a group key
whose role is not its slot's, a polynomial whose length is not N and one
with a coefficient outside the i32 range.  Every
decoded container re-encodes to its own bytes, and identical state to
identical bytes.  The `load_*` helpers name the file.

A change to any layout, or to anything a decoder derives, bumps the digit of
the magic; a container of another layout is reported as such.
"""

from __future__ import annotations

import os
import stat
import tempfile

import numpy as np

from dwpt_auth.codec import Reader, Writer
from dwpt_auth.errors import DecodeError
from dwpt_auth.ibe import (
    MasterPublicKey,
    MasterSecretKey,
    UserSecretKey,
    check_trapdoor,
    stored_key_bytes,
    stored_keys,
)
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
from dwpt_auth.symcrypto import SymmetricKey, derive_pseudonym

MAGIC = b"DQS5"

RECORD_AUTHORITY = 0x10
RECORD_VEHICLE = 0x11
RECORD_DATASET = 0x12

_RECORD_NAMES = {
    RECORD_AUTHORITY: "authority state",
    RECORD_VEHICLE: "vehicle credentials",
    RECORD_DATASET: "CSPA dataset",
}

_COEFF_LIMIT = 1 << 31


def _frame(record_type: int, p: RingParams) -> Writer:
    """A writer that already holds the container header."""
    w = Writer()
    w.raw(MAGIC)
    w.u8(record_type)
    w.u16(p.N)
    w.u64(p.q)
    return w


def _unframe(data: bytes, record_type: int) -> tuple[Reader, RingParams]:
    """A reader past the header, which must name this layout and
    `record_type`, and the parameters the header names."""
    magic = data[:4]
    if magic != MAGIC:
        if len(magic) == 4 and magic[:3] == MAGIC[:3]:
            layout = magic.decode("ascii", "backslashreplace")
            raise DecodeError(f"layout {layout}, this build reads {MAGIC.decode()}")
        raise DecodeError("not a key container (bad magic)")
    r = Reader(data)
    r.fixed(4)
    have = r.u8()
    if have != record_type:
        name = _RECORD_NAMES.get(have, f"type {have:#x}")
        raise DecodeError(f"container holds {name}, expected {_RECORD_NAMES[record_type]}")
    N, q = r.u16(), r.u64()
    try:
        return r, RingParams(N, q)
    except ValueError as exc:
        raise DecodeError(f"bad ring parameters: {exc}") from exc


def _increasing(values: list, what: str) -> list:
    """`values`, which the writers emit sorted and without repeats."""
    if any(a >= b for a, b in zip(values, values[1:])):
        raise DecodeError(f"{what} not in strictly increasing order")
    return values


def _read_ring(r: Reader, p: RingParams) -> RingElement:
    return RingElement.from_bytes(r.fixed(p.element_bytes), p)


def _write_ipoly(w: Writer, poly: IntegerPolynomial, N: int):
    if len(poly.coeffs) != N:
        raise ValueError(f"polynomial has {len(poly.coeffs)} coefficients, expected {N}")
    if any(not -_COEFF_LIMIT <= c < _COEFF_LIMIT for c in poly.coeffs):
        raise ValueError("coefficient too large for the container")
    w.raw(np.array(poly.coeffs, dtype="<i4").tobytes())


def _read_ipoly(r: Reader, N: int) -> IntegerPolynomial:
    return IntegerPolynomial(np.frombuffer(r.fixed(4 * N), dtype="<i4").tolist())


def _write_group_key(w: Writer, key: SymmetricKey, role: str):
    """The key's 32 bytes; its slot in the container fixes its role."""
    if key.role != role:
        raise ValueError(f"group key role {key.role!r} in the {role!r} slot")
    w.fixed(key.key, 32)


# ---------------------------------------------------------------------------
# Records the containers share.  Readers build their result with the fields
# in wire order: Python evaluates call arguments left to right.

def _write_usk(w: Writer, usk: UserSecretKey, h: RingElement):
    if usk.h != h:
        raise ValueError("operator key of another authority than the container's h")
    w.blob(usk.identity)
    w.raw(usk.to_bytes())


def _read_usk(r: Reader, h: RingElement) -> UserSecretKey:
    """The operator key, admitted as a slot key is (`ibe.stored_keys`)."""
    return stored_keys(h, [r.blob()], r.fixed(stored_key_bytes(h.params)))[0]


def _write_shares(w: Writer, e: DatasetEntry):
    w.fixed(e.pseudonym, 32)
    w.fixed(e.z, 32)
    w.fixed(e.w, 32)


def _read_shares(r: Reader) -> DatasetEntry:
    return DatasetEntry(pseudonym=r.fixed(32), z=r.fixed(32), w=r.fixed(32))


def _write_consumed(w: Writer, consumed: set[bytes]):
    w.u32(len(consumed))
    for pseudonym in sorted(consumed):
        w.fixed(pseudonym, 32)


def _read_consumed(r: Reader, issued: dict[bytes, DatasetEntry]) -> set[bytes]:
    """The consumed pseudonyms, each of which must be among `issued`."""
    consumed = set(_increasing([r.fixed(32) for _ in range(r.u32())], "consumed pseudonyms"))
    unissued = consumed - issued.keys()
    if unissued:
        raise DecodeError(f"consumed pseudonym {min(unissued).hex()} was never issued")
    return consumed


# ---------------------------------------------------------------------------
# Vehicle credentials

def vehicle_to_bytes(creds: VehicleCredentials) -> bytes:
    if not creds.entries:
        raise ValueError("cannot serialize credentials with no entries")
    h = creds.entries[0].usk.h
    w = _frame(RECORD_VEHICLE, h.params)
    w.blob(creds.vehicle_id)
    w.fixed(creds.d_ev.to_bytes(32, "big"), 32)
    w.raw(h.to_bytes())
    w.u32(len(creds.entries))
    for slot, e in enumerate(creds.entries):
        if e.pseudonym != derive_pseudonym(creds.vehicle_id, creds.d_ev * e.blind):
            raise ValueError(f"slot {slot}: pseudonym is not H(ID || d_EV * a_i)")
        if e.usk.h != h:
            raise ValueError(f"slot {slot}: key of another authority than slot 0")
        w.fixed(e.blind.to_bytes(32, "big"), 32)
        w.fixed(e.z, 32)
        w.fixed(e.w, 32)
        w.raw(e.usk.to_bytes())
    w.u32(len(creds.spent))
    for idx in sorted(creds.spent):
        w.u32(idx)
    return w.getvalue()


def _read_slot(r: Reader, p: RingParams) -> tuple:
    """A slot's blind a_i, shares z and w, and stored key."""
    return int.from_bytes(r.fixed(32), "big"), r.fixed(32), r.fixed(32), r.fixed(stored_key_bytes(p))


def vehicle_from_bytes(data: bytes) -> VehicleCredentials:
    r, p = _unframe(data, RECORD_VEHICLE)
    vehicle_id = r.blob()
    d_ev = int.from_bytes(r.fixed(32), "big")
    h = _read_ring(r, p)
    slots = [_read_slot(r, p) for _ in range(r.u32())]
    if not slots:
        raise DecodeError(f"vehicle {vehicle_id!r} has no pseudonym slots")
    pseudonyms = [derive_pseudonym(vehicle_id, d_ev * blind) for blind, *_ in slots]
    keys = stored_keys(h, pseudonyms, b"".join(s2 for *_, s2 in slots))
    entries = [
        CredentialEntry(blind, z, wshare, usk)
        for (blind, z, wshare, _), usk in zip(slots, keys)
    ]
    spent = _increasing([r.u32() for _ in range(r.u32())], "spent slots")
    if spent and spent[-1] >= len(entries):
        raise DecodeError(f"spent slot {spent[-1]} of {len(entries)}")
    r.done()
    return VehicleCredentials(vehicle_id, d_ev, entries, set(spent))


# ---------------------------------------------------------------------------
# CSPA dataset

def dataset_to_bytes(ds: CspaDataset) -> bytes:
    h = ds.usk.h
    w = _frame(RECORD_DATASET, h.params)
    w.raw(h.to_bytes())
    _write_usk(w, ds.usk, h)
    _write_group_key(w, ds.gk_cspa_rsu, ROLE_CSPA_RSU)
    w.u32(len(ds.entries))
    for pseudonym in sorted(ds.entries):
        _write_shares(w, ds.entries[pseudonym])
    _write_consumed(w, ds.consumed)
    return w.getvalue()


def dataset_from_bytes(data: bytes) -> CspaDataset:
    r, p = _unframe(data, RECORD_DATASET)
    usk = _read_usk(r, _read_ring(r, p))
    gk_cspa_rsu = SymmetricKey(r.fixed(32), ROLE_CSPA_RSU)
    shares = [_read_shares(r) for _ in range(r.u32())]
    _increasing([e.pseudonym for e in shares], "dataset pseudonyms")
    entries = {e.pseudonym: e for e in shares}
    consumed = _read_consumed(r, entries)
    r.done()
    return CspaDataset(usk=usk, gk_cspa_rsu=gk_cspa_rsu, entries=entries, consumed=consumed)


# ---------------------------------------------------------------------------
# Authority state

def authority_to_bytes(ra: RegistrationAuthority) -> bytes:
    w = _frame(RECORD_AUTHORITY, ra.params)
    w.fixed(ra.seed, 32)
    w.raw(ra.mpk.h.to_bytes())
    for poly in (ra.msk.f, ra.msk.g, ra.msk.F, ra.msk.G):
        _write_ipoly(w, poly, ra.params.N)
    w.fixed(ra.msk.extract_seed, 32)
    _write_usk(w, ra.cspa_usk, ra.mpk.h)
    _write_group_key(w, ra.gk_cspa_rsu, ROLE_CSPA_RSU)
    _write_group_key(w, ra.gk_rsu_cp, ROLE_RSU_CP)
    w.u32(len(ra.vehicles))
    for vehicle_id, pseudonyms in ra.vehicles.items():
        w.blob(vehicle_id)
        w.u32(len(pseudonyms))
        for pseudonym in pseudonyms:
            _write_shares(w, ra.dataset_entries[pseudonym])
    _write_consumed(w, ra.consumed)
    return w.getvalue()


def authority_from_bytes(data: bytes) -> RegistrationAuthority:
    r, p = _unframe(data, RECORD_AUTHORITY)
    seed, h = r.fixed(32), _read_ring(r, p)
    f, g, F, G = (_read_ipoly(r, p.N) for _ in range(4))
    check_trapdoor(h, f, g, F, G)
    ra = RegistrationAuthority(
        seed=seed,
        mpk=MasterPublicKey(h),
        msk=MasterSecretKey(f=f, g=g, F=F, G=G, extract_seed=r.fixed(32), h=h),
        cspa_usk=_read_usk(r, h),
        gk_cspa_rsu=SymmetricKey(r.fixed(32), ROLE_CSPA_RSU),
        gk_rsu_cp=SymmetricKey(r.fixed(32), ROLE_RSU_CP),
    )
    for _ in range(r.u32()):
        vehicle_id = r.blob()
        if vehicle_id in ra.vehicles:
            raise DecodeError(f"vehicle {vehicle_id!r} stored twice")
        slots = [_read_shares(r) for _ in range(r.u32())]
        if not slots:
            raise DecodeError(f"vehicle {vehicle_id!r} has no pseudonym slots")
        for e in slots:
            if e.pseudonym in ra.dataset_entries:
                raise DecodeError(f"pseudonym {e.pseudonym.hex()} issued to two slots")
            ra.dataset_entries[e.pseudonym] = e
        ra.vehicles[vehicle_id] = tuple(e.pseudonym for e in slots)
    ra.consumed = _read_consumed(r, ra.dataset_entries)
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
    every container here holds secret key material.  A failed write raises
    its OSError against `path`, not the deleted temporary file.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=f".{os.path.basename(path)}.")
        with os.fdopen(fd, "wb") as fh:
            if os.path.exists(path):
                os.fchmod(fh.fileno(), stat.S_IMODE(os.stat(path).st_mode))
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None:
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, path) from exc
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
