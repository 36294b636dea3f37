"""
Polynomial ring layer
=====================

The whole stack computes in Z_q[x]/(x^N + 1). This script walks the three
parameter tiers, shows the two multiplication routes agreeing, hashes a
string into the ring, and samples a discrete-Gaussian polynomial.
"""

from dwpt_auth.ring import (
    TIERS,
    RingElement,
    hash_to_ring,
    karamul,
    sample_gaussian_poly,
)
from dwpt_auth.rng import RandomSource

# each tier is (N, q) with q = 1 mod 2N so the negacyclic transform exists
for name, p in TIERS.items():
    print(f"{name:8s} N={p.N:4d}  q={p.q:9d}  sigma_extract={p.sigma_extract:9.3f}")

p = TIERS["test"]
rng = RandomSource("ring-demo")

# two independent multiplication routes: the transform path used everywhere,
# and the exact Kronecker product over Z, reduced mod q, kept as the oracle
a = RingElement(p, [rng.below(p.q) for _ in range(p.N)])
b = RingElement(p, [rng.below(p.q) for _ in range(p.N)])
fast = a * b
exact = RingElement(p, karamul(a.coeffs.tolist(), b.coeffs.tolist()))
print("\nNTT == Kronecker:", fast == exact)

# x * x^(N-1) wraps to -1: that is the negacyclic reduction
x = RingElement(p, [0, 1] + [0] * (p.N - 2))
top = RingElement(p, [0] * (p.N - 1) + [1])
print("x * x^(N-1) == -1:", (x * top) == RingElement(p, [-1] + [0] * (p.N - 1)))

# inverses exist for almost every element mod a prime q
inv = a.inverse()
print("a * a^-1 == 1:", (a * inv) == RingElement(p, [1] + [0] * (p.N - 1)))

# deterministic hash into the ring; same input, same point
h1 = hash_to_ring(b"charging lane 7", p)
h2 = hash_to_ring(b"charging lane 7", p)
print("hash_to_ring deterministic:", h1 == h2)
print("first coefficients:", [int(c) for c in h1.coeffs[:6]])

# key material comes from a centered discrete Gaussian
coeffs = sample_gaussian_poly(p, 4.0, rng).tolist()
print(f"\nGaussian poly: min={min(coeffs)} max={max(coeffs)} "
      f"mean={sum(coeffs) / len(coeffs):+.3f}")
