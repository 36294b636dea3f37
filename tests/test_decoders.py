"""Seeded byte mutations against every decoder: decode or raise DecodeError.

Each decoder gets a valid toy-tier blob and a hundred mutants of it
(single-byte flips, truncations, appended bytes).  A mutant may still decode,
since many bytes are free-form, or raise DecodeError; any other exception, a
plain ValueError included, is a decoder bug.
"""

import pytest

from dwpt_auth import keyfiles
from dwpt_auth.errors import DecodeError
from dwpt_auth.ibe import Ciphertext, HybridCiphertext, encrypt, extract, ibe_seal, sign
from dwpt_auth.registration import export_cspa_dataset, ra_setup, register_vehicle
from dwpt_auth.ring import RingElement, TIERS
from dwpt_auth.rng import RandomSource

MUTANTS_PER_DECODER = 100


@pytest.fixture(scope="module")
def samples():
    """(decoder, valid blob) per decoder, all at the toy tier."""
    p = TIERS["toy"]
    ra = ra_setup(p, "decoder-mutations")
    creds = register_vehicle(ra, b"EV-mut", 2)
    register_vehicle(ra, b"EV-mut-2", 1)
    ra.consumed.add(creds.entries[0].pseudonym)
    creds.spent.add(0)
    rng = RandomSource("decoder-samples")
    usk = extract(ra.msk, b"mutant")
    bits = [rng.below(2) for _ in range(p.N)]
    return {
        "RingElement": (lambda d: RingElement.from_bytes(d, p), usk.s1.to_bytes()),
        "RingElement(no params)": (RingElement.from_bytes, usk.s2.to_bytes()),
        "Ciphertext": (
            lambda d: Ciphertext.from_bytes(d, p),
            encrypt(ra.mpk, b"mutant", bits, rng).to_bytes(),
        ),
        "HybridCiphertext": (
            lambda d: HybridCiphertext.from_bytes(d, p),
            ibe_seal(ra.mpk, b"mutant", b"payload", rng, b"aad").to_bytes(),
        ),
        "mpk": (keyfiles.mpk_from_bytes, keyfiles.mpk_to_bytes(ra.mpk)),
        "msk": (keyfiles.msk_from_bytes, keyfiles.msk_to_bytes(ra.msk)),
        "usk": (keyfiles.usk_from_bytes, keyfiles.usk_to_bytes(usk)),
        "signature": (
            keyfiles.signature_from_bytes,
            keyfiles.signature_to_bytes(sign(ra.msk, b"receipt", rng)),
        ),
        "vehicle": (keyfiles.vehicle_from_bytes, keyfiles.vehicle_to_bytes(creds)),
        "dataset": (
            keyfiles.dataset_from_bytes,
            keyfiles.dataset_to_bytes(export_cspa_dataset(ra)),
        ),
        "authority": (keyfiles.authority_from_bytes, keyfiles.authority_to_bytes(ra)),
    }


def mutants(blob: bytes, rng: RandomSource):
    """Seeded flips, truncations and appends of `blob`, in a fixed mix."""
    for i in range(MUTANTS_PER_DECODER):
        kind = i % 4
        if kind < 2:
            out = bytearray(blob)
            out[rng.below(len(blob))] ^= 1 + rng.below(255)
            yield bytes(out)
        elif kind == 2:
            yield blob[: rng.below(len(blob))]
        else:
            yield blob + rng.bytes(1 + rng.below(8))


DECODERS = [
    "RingElement",
    "RingElement(no params)",
    "Ciphertext",
    "HybridCiphertext",
    "mpk",
    "msk",
    "usk",
    "signature",
    "vehicle",
    "dataset",
    "authority",
]


@pytest.mark.parametrize("name", DECODERS)
def test_mutants_decode_or_raise_value_error(samples, name):
    decode, blob = samples[name]
    decode(blob)  # the unmutated blob is valid
    rng = RandomSource(f"mutate-{name}")
    rejected = 0
    for mutant in mutants(blob, rng):
        try:
            decode(mutant)
        except DecodeError:
            rejected += 1
    # Every truncation and append is malformed, so at least half must fail.
    assert rejected >= MUTANTS_PER_DECODER // 2


def test_every_decoder_is_covered(samples):
    assert sorted(samples) == sorted(DECODERS)
