"""Registration authority: master keys, vehicle credentials, CSPA datasets.

The authority owns the IBE trapdoor and the symmetric group keys.  Vehicles
register once and receive a batch of unlinkable pseudonyms with per-pseudonym
secret shares and extracted keys; charging-station operators receive the
pseudonym-indexed dataset with no way back to vehicle identities.  Of each
wallet the authority keeps only the slots' pseudonyms and shares.  The
operator's own identity key is extracted once, at setup, so running a session
never needs the trapdoor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from dwpt_auth.errors import DuplicateRegistration, EmptyRegistry
from dwpt_auth.ibe import (
    MasterPublicKey,
    MasterSecretKey,
    UserSecretKey,
    extract,
    master_key_gen,
)
from dwpt_auth.ring import RingParams
from dwpt_auth.rng import RandomSource
from dwpt_auth.symcrypto import SymmetricKey, derive_pseudonym

#: The charging-station operator's identity, whose key setup extracts.
CSPA_IDENTITY = b"CSPA-1"

#: Key roles for the two pre-shared group keys.
ROLE_CSPA_RSU = "group-cspa-rsu"
ROLE_RSU_CP = "group-rsu-cp"


@dataclass(frozen=True, slots=True)
class CredentialEntry:
    """One pseudonym slot issued to a vehicle; its slot number is its
    position in the wallet."""

    blind: int  # per-slot public scalar a_i
    z: bytes  # share known to EV and CSPA, sent in the first message
    w: bytes  # share never sent alone; CSPA proves knowledge via z + w
    usk: UserSecretKey  # decryption key for traffic addressed to the pseudonym

    @property
    def pseudonym(self) -> bytes:
        """H(ID || d_ev * a_i), the identity of the slot's key."""
        return self.usk.identity


@dataclass
class VehicleCredentials:
    vehicle_id: bytes
    d_ev: int
    entries: list[CredentialEntry]
    spent: set[int] = field(default_factory=set)

    def copy(self) -> "VehicleCredentials":
        """A wallet with the same (immutable) entries and its own spent set."""
        return VehicleCredentials(self.vehicle_id, self.d_ev, list(self.entries), set(self.spent))

    def pick_slot(self, slot: int | None = None) -> int:
        """Slot for the next session: `slot` (IndexError if none) or the first unspent.

        An explicit `slot` is kept even when it is spent, so an in-memory
        caller can replay a pseudonym; only the authority's `consumed` set,
        which the CLI persists, turns that replay into PseudonymReuse.
        """
        if slot is not None:
            if not 0 <= slot < len(self.entries):
                raise IndexError(f"no pseudonym slot {slot} among {len(self.entries)}")
            return slot
        for i in range(len(self.entries)):
            if i not in self.spent:
                return i
        raise EmptyRegistry("all pseudonym slots spent")


@dataclass(frozen=True, slots=True)
class DatasetEntry:
    pseudonym: bytes
    z: bytes
    w: bytes


@dataclass
class CspaDataset:
    """Everything the charging-station operator needs, and nothing more."""

    usk: UserSecretKey  # the operator's identity key
    gk_cspa_rsu: SymmetricKey
    entries: dict[bytes, DatasetEntry]
    consumed: set[bytes] = field(default_factory=set)  # pseudonyms already used

    def __post_init__(self):
        self.usk.keep_transform()  # every m1 the operator opens multiplies by s2


@dataclass
class RegistrationAuthority:
    seed: bytes
    mpk: MasterPublicKey
    msk: MasterSecretKey
    cspa_usk: UserSecretKey  # extracted once at setup; sessions use this
    gk_cspa_rsu: SymmetricKey
    gk_rsu_cp: SymmetricKey
    vehicles: dict[bytes, tuple[bytes, ...]] = field(default_factory=dict)  # slot pseudonyms
    dataset_entries: dict[bytes, DatasetEntry] = field(default_factory=dict)
    consumed: set[bytes] = field(default_factory=set)

    @property
    def params(self) -> RingParams:
        return self.mpk.params

    @property
    def cspa_identity(self) -> bytes:
        return self.cspa_usk.identity


def ra_setup(params: RingParams, seed) -> RegistrationAuthority:
    """Generate the authority state: trapdoor, the operator's identity key,
    group keys, empty registry.

    Deterministic in the seed; two authorities set up from the same seed and
    parameters are byte-identical once serialized.
    """
    root = RandomSource(seed)
    mpk, msk = master_key_gen(params, root.child("master-key"))
    groups = root.child("group-keys")
    (cspa_usk,) = extract(msk, CSPA_IDENTITY)
    return RegistrationAuthority(
        seed=root.key,
        mpk=mpk,
        msk=msk,
        cspa_usk=cspa_usk,
        gk_cspa_rsu=SymmetricKey(groups.bytes(32), ROLE_CSPA_RSU),
        gk_rsu_cp=SymmetricKey(groups.bytes(32), ROLE_RSU_CP),
    )


def register_vehicle(
    ra: RegistrationAuthority, vehicle_id: bytes, count: int
) -> VehicleCredentials:
    """Issue `count` pseudonym slots to a new vehicle.

    Each slot carries a fresh blind scalar a_i, the pseudonym
    H(ID || d_ev * a_i), two 32-byte secret shares, and the extracted key for
    the pseudonym identity.  Pseudonyms are unique across the whole registry:
    each blind is drawn once, and since the hash input is injective, a
    pseudonym that repeats one already issued (a SHA-256 collision) raises
    DuplicateRegistration, as re-registering an id does.
    The slots are drawn first, then their keys are extracted in one call,
    and only then does the authority keep the pseudonyms, in slot order, and
    their shares: a registration that fails leaves the authority as it was.
    """
    if vehicle_id in ra.vehicles:
        raise DuplicateRegistration(f"vehicle {vehicle_id!r} already registered")
    if count < 1:
        raise ValueError("count must be at least 1")
    rng = RandomSource(b"vehicle\x00" + ra.seed + vehicle_id)
    d_ev = int.from_bytes(rng.bytes(32), "big")
    slots = {}  # pseudonym -> (blind, z, w), in slot order
    for _ in range(count):
        blind = int.from_bytes(rng.bytes(32), "big")
        pseudonym = derive_pseudonym(vehicle_id, d_ev * blind)
        if pseudonym in ra.dataset_entries or pseudonym in slots:
            raise DuplicateRegistration(f"pseudonym {pseudonym.hex()} already issued")
        slots[pseudonym] = blind, rng.bytes(32), rng.bytes(32)
    keys = extract(ra.msk, *slots)
    entries = [
        CredentialEntry(blind, z, w, usk) for (blind, z, w), usk in zip(slots.values(), keys)
    ]
    for e in entries:
        ra.dataset_entries[e.pseudonym] = DatasetEntry(e.pseudonym, e.z, e.w)
    ra.vehicles[vehicle_id] = tuple(slots)
    return VehicleCredentials(vehicle_id=vehicle_id, d_ev=d_ev, entries=entries)


def export_cspa_dataset(ra: RegistrationAuthority) -> CspaDataset:
    """Pseudonym-indexed view for the CSPA.

    Contains pseudonyms, secret shares, the consumed pseudonyms, the CSPA
    identity key stored at setup, and the CSPA-RSU group key; vehicle
    identities stay with the authority.  Nothing is extracted or copied:
    the view shares the authority's entry table and consumed set, and
    `keyfiles.dataset_to_bytes` takes a snapshot.
    """
    if not ra.vehicles:
        raise EmptyRegistry("no vehicles registered")
    return CspaDataset(
        usk=ra.cspa_usk,
        gk_cspa_rsu=ra.gk_cspa_rsu,
        entries=ra.dataset_entries,
        consumed=ra.consumed,
    )


def storage_estimate(
    vehicle_count: int, pseudonyms_per_vehicle: int, bytes_per_pseudonym_record: int
) -> tuple[int, int]:
    """Fleet-scale storage budget: (bytes per vehicle, bytes fleet-wide).

    A pseudonym record is the digest plus the two shares (32 + 64 bytes in
    the nominal accounting); ten years of daily pseudonyms for a ten-million
    vehicle fleet lands at a few terabytes on the operator side.
    """
    if vehicle_count < 1 or pseudonyms_per_vehicle < 1 or bytes_per_pseudonym_record < 1:
        raise ValueError("all arguments must be positive")
    per_vehicle = pseudonyms_per_vehicle * bytes_per_pseudonym_record
    return per_vehicle, per_vehicle * vehicle_count
