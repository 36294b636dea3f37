"""
Identity-based encryption walkthrough
=====================================

One trusted generator, public keys that are just byte strings. This script
generates a master key at the production tier, issues a user key for an
identity, round-trips a message, and signs with the same trapdoor.
"""

import time

import numpy as np

from dwpt_auth.ibe import (
    decrypt,
    encrypt,
    extract,
    ibe_open,
    ibe_seal,
    identity_point,
    master_key_gen,
    sign,
    verify,
)
from dwpt_auth.ring import TIERS
from dwpt_auth.rng import RandomSource

p = TIERS["default"]
rng = RandomSource("ibe-demo")

t0 = time.perf_counter()
mpk, msk = master_key_gen(p, rng.child("keygen"))
print(f"master key at N={p.N}: {time.perf_counter() - t0:.2f} s")

# the NTRU relation the trapdoor satisfies, checked over the integers
det = msk.f * msk.G - msk.g * msk.F
print("f*G - g*F == q:", det.coeffs == [p.q] + [0] * (p.N - 1))

# anyone can encrypt to an identity, under its hashed point H(id); only the
# issued key decrypts
identity = b"OBU-serial-0451"
point = identity_point(p, identity)
(usk,) = extract(msk, identity)

bits = [rng.below(2) for _ in range(p.N)]
ct = encrypt(mpk, point, bits, rng.child("enc"))
print("decrypt(encrypt(bits)) == bits:", np.array_equal(decrypt(usk, ct), bits))

# wrong identity, garbage out
(other,) = extract(msk, b"OBU-serial-9999")
print("other key decrypts correctly:", np.array_equal(decrypt(other, ct), bits))

# hybrid mode seals arbitrary byte strings under an ephemeral AEAD key
blob = ibe_seal(mpk, point, b"charging token 0xA7", rng.child("seal"),
                associated_data=b"demo")
print("sealed bytes:", len(blob))
print("opened:", ibe_open(usk, blob, associated_data=b"demo"))

# the same trapdoor signs: short preimages of a salted message point
sig = sign(msk, b"firmware v2.1 manifest", rng.child("sig"))
print("signature verifies:", verify(mpk, b"firmware v2.1 manifest", sig))
print("tampered message verifies:", verify(mpk, b"firmware v2.2 manifest", sig))
