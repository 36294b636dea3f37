"""
Offline registration and the operator dataset
=============================================

The registration authority is the only party that ever sees a vehicle's real
identity. It issues pseudonym credentials in bulk; the charging operator gets
a lookup table keyed by pseudonym, never by vehicle.
"""

from dataclasses import fields

from dwpt_auth import keyfiles
from dwpt_auth.registration import (
    export_cspa_dataset,
    ra_setup,
    register_vehicle,
    storage_estimate,
)
from dwpt_auth.ring import TIERS

ra = ra_setup(TIERS["test"], seed="registration-demo")
print("authority ready; operator:", ra.cspa_identity.decode())

# each registration burns one pseudonym slot per future session
creds = register_vehicle(ra, b"EV-demo-001", count=5)
print(f"\n{creds.vehicle_id.decode()} holds {len(creds.entries)} credentials")
for slot, e in enumerate(creds.entries[:3]):
    print(f"  slot {slot}: pseudonym {e.pseudonym.hex()[:24]}...")

register_vehicle(ra, b"EV-demo-002", count=5)

# the exported dataset is keyed by pseudonym and carries shared secrets only
dataset = export_cspa_dataset(ra)
print(f"\ndataset rows: {len(dataset.entries)}")
row = next(iter(dataset.entries.values()))
print("row fields:", sorted(f.name for f in fields(row)))
leak = any(b"EV-demo" in r.z + r.w for r in dataset.entries.values())
print("vehicle ids leak into the shared secrets:", leak)

# nominal storage budget: bytes per vehicle and for a whole fleet
per_vehicle, fleet = storage_estimate(10**7, 3650, 96)
print(f"\n10-year budget at one session/day, 96 B records:")
print(f"  per vehicle: {per_vehicle:,} B (~{per_vehicle / 1e3:.1f} KB)")
print(f"  10M vehicles: {fleet:,} B (~{fleet / 1e12:.3f} TB)")

# and what this registry's ten slots take: 96 B per dataset row nominally,
# then the containers as written (each also holds the public key h)
print(f"\nthis registry, {len(dataset.entries)} slots:")
print(f"  nominal dataset rows: {storage_estimate(1, len(dataset.entries), 96)[0]:,} B")
print(f"  dataset.bin: {len(keyfiles.dataset_to_bytes(dataset)):,} B")
print(f"  authority.bin: {len(keyfiles.authority_to_bytes(ra)):,} B")
print(f"  vehicle-{creds.vehicle_id.decode()}.bin: {len(keyfiles.vehicle_to_bytes(creds)):,} B")
