"""
Identity-based encryption walkthrough
=====================================

One trusted generator, public keys that are just byte strings. This script
generates a master key at the production tier, issues a user key for an
identity, round-trips a message, and signs with the same trapdoor.

Keygen draws (f, g) on an annulus in the Fourier domain, so that every
Gram-Schmidt norm of the basis lies within a factor alpha_H of sqrt(q); the
hybrid sampler then reaches the extraction width sigma = 1.5 sqrt(q) with
integer steps of one width r, since sigma >= r * alpha_H * sqrt(q).
"""

import time

import numpy as np

from dwpt_auth.ibe import (
    INTEGER_WIDTH,
    basis_quality,
    decrypt,
    encrypt,
    extract,
    ibe_open,
    ibe_seal,
    identity_point,
    master_key_gen,
    max_basis_quality,
    norm_bound,
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
quality = basis_quality(msk.f, msk.g, p.q)
print(f"basis quality alpha_H = {quality:.3f}, at most 1.5 / r = {max_basis_quality(p):.3f} "
      f"for r = {INTEGER_WIDTH}")

# anyone can encrypt to an identity, under its hashed point H(id); only the
# issued key decrypts
identity = b"OBU-serial-0451"
point = identity_point(p, identity)
(usk,) = extract(msk, identity)
norm = (usk.s1.norm_squared() + usk.s2.norm_squared()) ** 0.5
print(f"key norm {norm:.0f} within the bound {norm_bound(p):.0f}; "
      f"s2 kept as {usk.s2_coeffs.dtype}, largest |coefficient| {abs(usk.s2_coeffs).max()}")

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
