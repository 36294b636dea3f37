"""Identity-based encryption and signatures over an NTRU trapdoor.

A master authority draws a short pair (f, g) on an annulus of the Fourier
domain, completes it to a basis of the lattice {(u, v) : u + v*h = 0 mod q}
for h = g/f, and extracts per identity a short preimage (s1, s2) of the
hashed identity point, of which the identity's key keeps s2, with Mitaka's
hybrid sampler: two ring-level steps, each a continuous Gaussian
perturbation in the Fourier domain and N integer draws of one width, which
the annulus keeps at today's extraction width.  Encryption is the
dual-Regev style scheme: noisy products against h and the identity point,
message bits scaled by floor(q/2).  Every product mod q here, of one
pair or of a stack (decryption's u*s2, a block of keys' s2*h, the
trapdoor check), goes through `RingElement.product_rows`.

This module alone says how a key is stored (`UserSecretKey.to_bytes`) and
which stored trapdoors and keys are admissible: `check_trapdoor` (the
trapdoor relations and the quality the sampler serves) and `stored_keys`
((s1, s2) within `norm_bound`), which `keyfiles` calls on what it decodes.

Key encapsulation for byte payloads wraps a fresh 256-bit content key in as
many ring ciphertexts as needed and seals the payload itself with an AEAD;
the sealed payload is its wire bytes, which `ibe_open` reads back.
"""

from __future__ import annotations

import cmath
import functools
import hashlib
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from dwpt_auth.codec import Reader, Writer
from dwpt_auth.errors import (
    DecodeError,
    NotInvertible,
    ParameterMismatch,
    ResampleExhausted,
    SamplerFailure,
)
from dwpt_auth.ntrusolve import fft_neg, ifft_neg, ntru_solve
from dwpt_auth.ring import (
    IntegerPolynomial,
    RingElement,
    RingParams,
    center,
    hash_to_ring,
    norms_squared,
    sample_gaussian_int,
    sample_gaussian_poly,
)
from dwpt_auth.rng import RandomSource
from dwpt_auth.symcrypto import SymmetricKey, aead_open, aead_seal

#: Width of the encryption noise polynomials r, e1, e2.
ENC_SIGMA = 1.5

#: Keygen draws |f_j|^2 + |g_j|^2 uniformly in [q / ANNULUS^2, q * ANNULUS^2]
#: at every Fourier point j, which bounds the basis quality by about ANNULUS.
ANNULUS = 1.15

#: Width r of the hybrid sampler's integer steps.  It is at least Falcon's
#: smoothing width sigma_min (about 1.2778 at n = 512), and sigma_extract =
#: 1.5 sqrt(q) serves every basis of quality up to 1.5 / r = 1.17, just
#: above the annulus.
INTEGER_WIDTH = 1.28

#: Every s2 coefficient of a key lies in [-S2_LIMIT, S2_LIMIT), so that keys
#: hold s2 in 16 bits: 7.5 sigma_extract at the default tier, which an
#: extracted s2 leaves with probability about 2e-11 per key.
S2_LIMIT = 1 << 15

#: A key's stored s2: its row as N little-endian int16 values.
_STORED_S2 = np.dtype("<i2")

_ID_PREFIX = b"ID\x00"
_SIG_PREFIX = b"SIG\x00"

_MAX_KEYGEN_ATTEMPTS = 400
_MAX_SAMPLE_ATTEMPTS = 64


def norm_bound(params: RingParams) -> float:
    """Acceptance bound on ||(s1, s2)|| for extracted keys and signatures."""
    return 1.1 * params.sigma_extract * math.sqrt(2 * params.N)


def identity_point(params: RingParams, identity: bytes) -> RingElement:
    """Hash an identity string onto the ring (domain-separated)."""
    return hash_to_ring(_ID_PREFIX + identity, params)


@dataclass(frozen=True)
class MasterPublicKey:
    h: RingElement

    def __post_init__(self):
        self.h.keep_transform()  # every encryption and verification multiplies by h

    @property
    def params(self) -> RingParams:
        return self.h.params


@dataclass
class MasterSecretKey:
    f: IntegerPolynomial
    g: IntegerPolynomial
    F: IntegerPolynomial
    G: IntegerPolynomial
    extract_seed: bytes
    h: RingElement  # the public key g/f: the one object every extracted key refers to

    @property
    def params(self) -> RingParams:
        return self.h.params

    @functools.cached_property
    def sampler(self) -> "KleinSampler":
        """The extraction sampler of this basis, built on first use and kept;
        not a field, so `dataclasses.replace` starts a copy without it."""
        return KleinSampler(self)


@dataclass(frozen=True, eq=False)
class UserSecretKey:
    """The key of one identity: s2 of a short preimage (s1, s2) of its
    point under its authority's public key h, which is shared, not copied.

    s2 is held as its centered coefficients, an int16 row (every one lies
    in [-S2_LIMIT, S2_LIMIT)), which the keys of one extraction or one
    decoded file share as one read-only block.  `s1` and `s2` are built as
    ring elements on every read and never kept, which would double a
    wallet's memory; only `keep_transform` keeps s2, with its transform."""

    identity: bytes
    s2_coeffs: np.ndarray
    h: RingElement

    _kept_s2 = None  # not a field: s2 with the transform `keep_transform` keeps

    @property
    def params(self) -> RingParams:
        return self.h.params

    @property
    def s2(self) -> RingElement:
        """The element `keep_transform` kept, or one built from the int16 row."""
        if self._kept_s2 is None:
            return RingElement(self.params, self.s2_coeffs)
        return self._kept_s2

    def to_bytes(self) -> bytes:
        """The stored key: its int16 row of s2, which `stored_keys` reads."""
        return self.s2_coeffs.astype(_STORED_S2).tobytes()

    def keep_transform(self) -> "UserSecretKey":
        """Keep s2 with its transform for every later product: for a key
        that decrypts on every pass, the operator's."""
        if self._kept_s2 is None:
            object.__setattr__(self, "_kept_s2", self.s2.keep_transform())
        return self

    @property
    def s1(self) -> RingElement:
        """H(identity) - s2*h, the half that s2 and h imply; derived on every
        read and never kept, nor is the point it hashes, since decryption
        reads only s2."""
        t = identity_point(self.params, self.identity)
        return RingElement(self.params, _derive_s1(self.h, self.s2_coeffs[None], [t])[0])

    @functools.cached_property
    def point(self) -> RingElement:
        """The identity point H(identity) that (s1, s2) is a preimage of,
        with its transform kept for every encryption to it; built on first
        use and not a field, so it is never persisted."""
        return identity_point(self.params, self.identity).keep_transform()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, UserSecretKey)
            and self.identity == other.identity
            and self.h == other.h
            and bool(np.array_equal(self.s2_coeffs, other.s2_coeffs))
        )


def _derive_s1(h: RingElement, s2: np.ndarray, points: list[RingElement]) -> np.ndarray:
    """s1 = t - s2*h, in [0, q), for each row of a (K, N) block of s2
    coefficients, t the matching identity point: one stacked product."""
    t = np.stack([point.coeffs for point in points])
    return (t - h.product_rows(*(RingElement(h.params, row) for row in s2))) % h.params.q


@dataclass(frozen=True)
class Signature:
    salt: bytes
    s1: RingElement
    s2: RingElement


@dataclass(frozen=True)
class Ciphertext:
    """One ring ciphertext carrying up to N bits; encoded as u then v, each
    a ring element's fixed-size encoding, so 2 * `element_bytes` long."""

    u: RingElement
    v: RingElement

    def to_bytes(self) -> bytes:
        return self.u.to_bytes() + self.v.to_bytes()

    @classmethod
    def from_bytes(cls, data: bytes, params: RingParams) -> "Ciphertext":
        """Inverse of to_bytes; DecodeError on any other length or a
        coefficient outside [0, q)."""
        n = params.element_bytes  # a wrong length leaves u or v the wrong size
        u, v = (RingElement.from_bytes(half, params) for half in (data[:n], data[n:]))
        return cls(u, v)


# ---------------------------------------------------------------------------
# Fourier-domain helpers
#
# Polynomials of degree N are held in the Fourier domain as their values at
# zeta_k = e^{i pi (2k+1)/N}, the order `fft_neg` uses.  For a real
# polynomial the value at zeta_{N-1-k} is the conjugate of the one at
# zeta_k, so only the first N/2 values are kept, as a pair (re, im) of real
# arrays: a product of two is formed as Python's complex product forms it,
# each real product and sum rounded on its own, where numpy's complex
# product may fuse a multiply into an add and move a bit, and with it a key.


def _kept(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The kept half of transformed values, along the last axis, as (re, im)."""
    half = values[..., : values.shape[-1] // 2]
    return half.real, half.imag


def _times(a: tuple, b: tuple) -> tuple:
    """a * b, rounded as Python's complex product."""
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _coefficients(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """The real coefficients, along the last axis, of the element whose kept
    values are re + i*im; the other half are their conjugates, reversed."""
    values = np.empty(re.shape[:-1] + (2 * re.shape[-1],), dtype=complex)
    values.real[..., : re.shape[-1]], values.imag[..., : re.shape[-1]] = re, im
    values[..., re.shape[-1] :] = values[..., re.shape[-1] - 1 :: -1].conj()
    return ifft_neg(values)


def _uniforms(rng: RandomSource, n: int) -> np.ndarray:
    """n uniforms in [0, 1): the top 53 bits of each of n u64 LE words."""
    return (np.frombuffer(rng.bytes(8 * n), dtype="<u8") >> np.uint64(11)) * (1.0 / (1 << 53))


def _normals(rngs: list[RandomSource], n: int) -> tuple[np.ndarray, np.ndarray]:
    """(K, n) arrays a, b of independent standard normals, row k from 2n
    uniforms of rngs[k], each pair by Box-Muller from two, u then u':
    radius sqrt(-2 ln(1 - u)), angle 2 pi u'.  The logarithms, cosines and
    sines come from Python's math, so no SIMD loop of numpy's moves them."""
    u = np.array([_uniforms(rng, 2 * n) for rng in rngs])
    radius = np.sqrt(-2.0 * np.array(list(map(math.log, (1.0 - u[:, 0::2]).ravel().tolist()))))
    angle = (math.tau * u[:, 1::2]).ravel().tolist()
    cos, sin = (np.array(list(map(fn, angle))) for fn in (math.cos, math.sin))
    return (radius * cos).reshape(-1, n), (radius * sin).reshape(-1, n)


# ---------------------------------------------------------------------------
# Master key generation


def _transform(poly: IntegerPolynomial) -> np.ndarray:
    return fft_neg(np.array(poly.coeffs, dtype=np.float64))


def _gram_diagonal(f: tuple, g: tuple) -> np.ndarray:
    """d_j = |f_j|^2 + |g_j|^2 from the kept values of f and g."""
    return f[0] * f[0] + f[1] * f[1] + (g[0] * g[0] + g[1] * g[1])


def basis_quality(f: IntegerPolynomial, g: IntegerPolynomial, q: int) -> float:
    """alpha_H of the basis that (f, g) completes to: the largest of
    sqrt(d_j / q) and sqrt(q / d_j) over the Fourier points j, with d_j =
    |f_j|^2 + |g_j|^2; the two Gram-Schmidt rows have squared norms d_j and
    q^2 / d_j there."""
    d = _gram_diagonal(_kept(_transform(f)), _kept(_transform(g)))
    low, high = float(d.min()), float(d.max())
    return math.sqrt(max(high / q, q / low)) if low > 0 else math.inf


def max_basis_quality(params: RingParams) -> float:
    """The largest alpha_H from which the hybrid sampler reaches
    sigma_extract: sigma_extract / (r sqrt(q)) = 1.5 / r."""
    return params.sigma_extract / (INTEGER_WIDTH * math.sqrt(params.q))


def _annular_pair(params: RingParams, rng: RandomSource) -> tuple[list[int], list[int]]:
    """(f, g) drawn on the annulus (Espitau, Nguyen, Sun, Tibouchi and
    Wallet, "Antrag: Annular NTRU Trapdoor Generation", ASIACRYPT 2023).

    Each kept Fourier point takes four uniforms from rng: d_j, uniform in
    [q / ANNULUS^2, q * ANNULUS^2]; cos^2 theta_j; and two phases.  Then
    f_j = sqrt(d_j) cos theta_j e^{2 pi i phi} and g_j = sqrt(d_j) sin
    theta_j e^{2 pi i psi}, through Python's math, and f and g are their
    rounded coefficients.
    """
    q = params.q
    low, high = q / ANNULUS**2, q * ANNULUS**2
    u = iter(_uniforms(rng, 2 * params.N).tolist())
    f_hat, g_hat = [], []
    for radius_sq, cos_sq, phase_f, phase_g in zip(u, u, u, u):
        radius = math.sqrt(low + (high - low) * radius_sq)
        f_hat.append(cmath.rect(radius * math.sqrt(cos_sq), 2.0 * math.pi * phase_f))
        g_hat.append(cmath.rect(radius * math.sqrt(1.0 - cos_sq), 2.0 * math.pi * phase_g))
    f, g = (np.array(values) for values in (f_hat, g_hat))
    return tuple(np.rint(_coefficients(x.real, x.imag)).astype(np.int64).tolist() for x in (f, g))


def master_key_gen(
    params: RingParams, rng: RandomSource
) -> tuple[MasterPublicKey, MasterSecretKey]:
    """Draw a trapdoor basis and publish h = g * f^-1 mod q.

    Rejects candidate (f, g) pairs with f(1) and g(1) both even (both
    resultants with x^n + 1 are then even, so `ntru_solve` must fail for
    the odd q), whose rounded pair has a basis quality above what the
    hybrid sampler serves (`max_basis_quality`), whose f is not invertible
    mod q, or that `ntru_solve` cannot complete; raises ResampleExhausted if
    no candidate passes.
    """
    q = params.q
    limit = max_basis_quality(params)
    for _ in range(_MAX_KEYGEN_ATTEMPTS):
        f_c, g_c = _annular_pair(params, rng)
        if sum(f_c) % 2 == sum(g_c) % 2 == 0:
            continue
        f, g = IntegerPolynomial(f_c), IntegerPolynomial(g_c)
        if basis_quality(f, g, q) > limit:
            continue
        try:
            f_inv = f.to_ring(params).inverse()
        except NotInvertible:
            continue
        try:
            F_c, G_c = ntru_solve(f_c, g_c, q)
        except NotInvertible:
            continue
        h = g.to_ring(params) * f_inv
        msk = MasterSecretKey(
            f=f, g=g, F=IntegerPolynomial(F_c), G=IntegerPolynomial(G_c),
            extract_seed=rng.bytes(32), h=h,
        )
        return MasterPublicKey(h), msk
    raise ResampleExhausted(
        f"no acceptable key pair in {_MAX_KEYGEN_ATTEMPTS} attempts"
    )


# ---------------------------------------------------------------------------
# Hybrid sampling


class KleinSampler:
    """Discrete Gaussian sampler over the NTRU lattice of a master secret
    key: Mitaka's hybrid sampler (Espitau, Fouque, Gerard, Rossi, Takahashi,
    Tibouchi, Wallet and Yu, "Mitaka: A Simpler, Parallelizable, Maskable
    Variant of Falcon", EUROCRYPT 2022).

    The basis rows are b1 = (g, -f) and b2 = (G, -F) with all their
    negacyclic shifts.  At each Fourier point the Gram-Schmidt rows are
    b1, of squared norm beta_1 = d = |f|^2 + |g|^2, and b2 - mu b1 with
    mu = (G g* + F f*)/d, of squared norm beta_2 = q^2/d.  From a target c,
    for i = 2 and then i = 1, the sampler takes the center
    <c, b~i>/beta_i, adds a continuous Gaussian perturbation of variance
    sigma^2/beta_i - r^2 per coefficient at each point, draws each
    coefficient of z_i at the width r = INTEGER_WIDTH around the perturbed
    center (`ring.sample_gaussian_int`), and moves c to c - z_i b_i.
    z1 b1 + z2 b2 is then a lattice point whose difference to the target
    is the spherical Gaussian of width sigma over the coset (Peikert,
    CRYPTO 2010), provided no variance is negative: sigma >= r alpha_H
    sqrt(q) (`basis_quality`).  `__init__` keeps the per-point constants, and
    raises ValueError for a basis that sigma_extract does not reach.
    """

    def __init__(self, msk: "MasterSecretKey"):
        params = msk.params
        N, q = params.N, params.q
        self._fft = tuple(_transform(poly) for poly in (msk.f, msk.g, msk.F, msk.G))
        f, g, F, G = (_kept(a) for a in self._fft)
        d = _gram_diagonal(f, g)
        #: Per step, b2's then b1's: the kept values that the center is the
        #: target's product with, and the perturbation's scale at each point.
        #: A real vector of per-coefficient variance v has transformed values
        #: of variance N v, N v / 2 in each part, so the scale is
        #: sqrt(N/2 * (sigma^2/beta - r^2)) on two standard normals.
        self.center_of_target = (
            (f[0] / q, f[1] / q),
            (g[0] / d, -g[1] / d),
        )
        Gg, Ff = _times(G, (g[0], -g[1])), _times(F, (f[0], -f[1]))
        self.mu = ((Gg[0] + Ff[0]) / d, (Gg[1] + Ff[1]) / d)
        sigma_sq, r_sq = params.sigma_extract**2, INTEGER_WIDTH**2
        variances = (sigma_sq / (q * q / d) - r_sq, sigma_sq / d - r_sq)
        if min(v.min() for v in variances) < 0:
            raise ValueError(
                f"sigma_extract falls below r * alpha_H * sqrt(q) on this basis "
                f"(alpha_H {basis_quality(msk.f, msk.g, q):.3f})"
            )
        self.scale = tuple(np.sqrt(N / 2 * v) for v in variances)

    def _integer_step(self, center: tuple, step: int, rngs: list[RandomSource]) -> np.ndarray:
        """One step's (K, N) integers: row k at width r around the
        coefficients of its center plus a perturbation, both drawn from
        rngs[k], the N/2 normal pairs first, then one key's integers at a
        time."""
        scale = self.scale[step]
        a, b = _normals(rngs, len(scale))
        centers = _coefficients(center[0] + scale * a, center[1] + scale * b)
        return np.stack(
            [sample_gaussian_int(row, INTEGER_WIDTH, rng) for row, rng in zip(centers, rngs)]
        )

    def sample_near(self, t: np.ndarray, rngs: list[RandomSource]) -> np.ndarray:
        """Integer lattice points (v1, v2), as a (K, 2N) array: row k is
        distributed around (t_k, 0), for row t_k of the (K, N) targets t,
        with width sigma_extract, and drawn from rngs[k].

        With c = (t, 0), b2's center is <c, b~2>/beta_2 = t f / q; after
        c -= z2 b2, b1's is ((t - z2 G) g* + z2 F f*)/d = t g*/d - z2 mu.
        The transforms, centers and perturbations are stacked over the
        rows; v = z1 b1 + z2 b2 comes from one stacked inverse transform per
        half, whose values land within 1e-7 of integers at the default tier,
        so rounding recovers v exactly."""
        f, g, F, G = self._fft
        N = len(f)
        t_hat = _kept(fft_neg(t.astype(np.float64)))
        to_b2, to_b1 = self.center_of_target
        z2 = self._integer_step(_times(t_hat, to_b2), 0, rngs)
        z2_hat = fft_neg(z2.astype(np.float64))
        c, m = _times(t_hat, to_b1), _times(_kept(z2_hat), self.mu)
        z1_hat = fft_neg(self._integer_step((c[0] - m[0], c[1] - m[1]), 1, rngs).astype(np.float64))
        v = np.empty((len(t), 2 * N), dtype=np.int64)
        v[:, :N] = np.rint(ifft_neg(z1_hat * g + z2_hat * G))
        v[:, N:] = np.rint(ifft_neg(-(z1_hat * f + z2_hat * F)))
        return v


def _sample_preimage(
    msk: MasterSecretKey, t: np.ndarray, rngs: list[RandomSource]
) -> np.ndarray:
    """Short (s1, s2), as a (K, 2N) int64 array, with s1 + s2*h = t_k mod q,
    norm below norm_bound and s2 in [-S2_LIMIT, S2_LIMIT) for each row t_k
    of the (K, N) targets t: (t_k, 0) less a lattice point near it, drawn
    from rngs[k].  Only the rows that miss either bound draw again, each on
    from where its own stream stopped, so a row is what it would be if it
    were drawn alone."""
    N = msk.params.N
    bound_sq = norm_bound(msk.params) ** 2
    s = np.empty((len(t), 2 * N), dtype=np.int64)
    rows = np.arange(len(t))
    for _ in range(_MAX_SAMPLE_ATTEMPTS):
        drawn = -msk.sampler.sample_near(t[rows], [rngs[k] for k in rows])
        drawn[:, :N] += t[rows]
        s[rows] = drawn
        s2 = drawn[:, N:]
        missed = ((drawn * drawn).sum(axis=1) > bound_sq) | (
            (s2 < -S2_LIMIT) | (s2 >= S2_LIMIT)
        ).any(axis=1)
        rows = rows[missed]
        if not rows.size:
            return s
    raise SamplerFailure("no preimage within the norm bound")


def extract(msk: MasterSecretKey, *identities: bytes) -> list[UserSecretKey]:
    """The secret key of each identity, in order (deterministic per authority).

    A key's randomness is re-derived from the master extraction seed and
    its identity's digest, so it is the same whether extracted alone or
    among others, in any order.  The keys' s2 are one read-only int16
    block, of which each key keeps a row.
    """
    params = msk.params
    # Allocated before the sampling, the block kept for the keys takes heap
    # that earlier temporaries freed, not heap above this call's.
    s2 = np.empty((len(identities), params.N), dtype=np.int16)
    t = np.stack([identity_point(params, identity).coeffs for identity in identities])
    rngs = [
        RandomSource(b"extract" + msk.extract_seed + hashlib.sha256(identity).digest())
        for identity in identities
    ]
    s2[...] = _sample_preimage(msk, t, rngs)[:, params.N :]
    s2.setflags(write=False)
    return [UserSecretKey(identity, row, msk.h) for identity, row in zip(identities, s2)]


# ---------------------------------------------------------------------------
# Admission of stored trapdoors and keys: what a key container may hold


def check_trapdoor(h: RingElement, f, g, F, G):
    """DecodeError unless f*h = g and F*h = G mod q, which make (f, g, F, G)
    a trapdoor of h: one stacked product, h's transform kept for every
    later product by h; and unless the hybrid sampler serves the basis
    (`max_basis_quality`)."""
    p = h.params
    fh, Fh = h.keep_transform().product_rows(f.to_ring(p), F.to_ring(p))
    for relation, product, expected in (("f*h = g", fh, g), ("F*h = G", Fh, G)):
        if not np.array_equal(product, expected.to_ring(p).coeffs):
            raise DecodeError(f"trapdoor fails {relation} mod q")
    quality, limit = basis_quality(f, g, p.q), max_basis_quality(p)
    if quality > limit:
        raise DecodeError(f"trapdoor quality {quality:.3f} above the sampler's {limit:.3f}")


def stored_key_bytes(params: RingParams) -> int:
    """Bytes of one stored key (`UserSecretKey.to_bytes`): N int16."""
    return _STORED_S2.itemsize * params.N


def stored_keys(h: RingElement, identities: list[bytes], s2_bytes: bytes) -> list[UserSecretKey]:
    """The keys under h of `identities`, whose s2 are stored one
    `UserSecretKey.to_bytes` each, in order, in `s2_bytes`; their s2 are
    one read-only int16 block, as `extract` leaves them.  Every int16 row
    is an s2 a key may hold, so the one refusal is DecodeError on a key
    whose (s1, s2) exceeds `norm_bound`: one stacked product and one sum
    over the rows.  No key keeps the identity point its check hashes."""
    p = h.params
    block = np.frombuffer(s2_bytes, _STORED_S2).reshape(-1, p.N)
    block.setflags(write=False)
    s1 = center(_derive_s1(h, block, [identity_point(p, identity) for identity in identities]), p.q)
    bound_sq = norm_bound(p) ** 2
    for identity, norm_sq in zip(identities, norms_squared(np.concatenate((s1, block), axis=1))):
        if norm_sq > bound_sq:
            raise DecodeError(f"key of {identity.hex()} exceeds the norm bound")
    return [UserSecretKey(identity, row, h) for identity, row in zip(identities, block)]


# ---------------------------------------------------------------------------
# Encryption

def encrypt(
    mpk: MasterPublicKey, recipient: RingElement, bits, rng: RandomSource
) -> Ciphertext:
    """Encrypt N bits (a sequence of 0s and 1s) to the identity whose point
    is `recipient` (see `identity_point`); r, e1 and e2 are one noise read."""
    params = mpk.params
    bits = np.asarray(bits)
    if bits.shape != (params.N,) or not ((bits == 0) | (bits == 1)).all():
        raise ValueError(f"message must be exactly {params.N} bits")
    r, e1, e2 = sample_gaussian_poly(params, ENC_SIGMA, rng, rows=3)
    rh, rt = RingElement(params, r).product_rows(mpk.h, recipient)
    rt += e2
    rt += bits.astype(np.int64) * (params.q // 2)
    return Ciphertext(u=RingElement(params, rh + e1), v=RingElement(params, rt))


def decrypt(usk: UserSecretKey, ct: Ciphertext) -> np.ndarray:
    """Recover the N bits as a 0/1 uint8 array; bit i is 1 when w_i =
    (v - u*s2)_i mod q lies nearer q/2 than 0: q//4 < w_i < q - q//4."""
    if not usk.params == ct.u.params == ct.v.params:
        raise ParameterMismatch("key and ciphertext parameters differ")
    q = usk.params.q
    w = (ct.v.coeffs - (ct.u * usk.s2).coeffs) % q  # both in [0, q)
    return ((w > q // 4) & (w < q - q // 4)).view(np.uint8)


class NoiseModel(NamedTuple):
    """Predicted decryption noise of one identity key (see `noise_model`)."""

    sd: float  # per-coefficient standard deviation, as a fraction of q/4
    z: float  # q/4 in standard deviations: 1 / sd
    bit_flip: float  # probability that one bit decodes wrong
    key_opens: float  # probability that all 256 content-key bits decode


def noise_model(usk: UserSecretKey) -> NoiseModel:
    """Closed-form decryption noise for ciphertexts to `usk`.

    With s1 + s2*h = t, w - m*floor(q/2) = r*s1 - e1*s2 + e2, each
    coefficient a sum of independent terms of width ENC_SIGMA: its standard
    deviation is ENC_SIGMA * sqrt(||s1||^2 + ||s2||^2 + 1).  A bit flips
    when its noise wraps into (q/4, 3q/4) mod q: in units of q/4, the normal
    mass of the bands (1+4k, 3+4k) for k >= 0 and of their mirror images.
    Each band is a difference of erfc tails, so a tiny flip probability
    does not round to 0; the wrapped sum never exceeds 1/2.
    """
    norm_sq = usk.s1.norm_squared() + usk.s2.norm_squared() + 1
    sd = ENC_SIGMA * math.sqrt(norm_sq) / (usk.params.q / 4)
    z = 1 / sd
    flip, k = 0.0, 0  # band by band, until the lower tail underflows to 0
    while (low := math.erfc((1 + 4 * k) * z / math.sqrt(2))) > 0:
        flip, k = flip + low - math.erfc((3 + 4 * k) * z / math.sqrt(2)), k + 1
    return NoiseModel(sd, z, flip, math.exp(_CONTENT_KEY_BITS * math.log1p(-flip)))


# ---------------------------------------------------------------------------
# Signatures

def sign(msk: MasterSecretKey, message: bytes, rng: RandomSource) -> Signature:
    """Salted hash-and-preimage signature under the master trapdoor."""
    salt = rng.bytes(32)
    t = hash_to_ring(_SIG_PREFIX + salt + message, msk.params)
    (s,) = _sample_preimage(msk, t.coeffs[None], [rng])
    params, N = msk.params, msk.params.N
    return Signature(salt=salt, s1=RingElement(params, s[:N]), s2=RingElement(params, s[N:]))


def verify(mpk: MasterPublicKey, message: bytes, sig: Signature) -> bool:
    """Check the norm bound and the preimage equation s1 + s2*h = t."""
    params = mpk.params
    if sig.s1.params != params or sig.s2.params != params:
        return False
    t = hash_to_ring(_SIG_PREFIX + sig.salt + message, params)
    norm_sq = sig.s1.norm_squared() + sig.s2.norm_squared()
    if norm_sq > norm_bound(params) ** 2:
        return False
    return sig.s1 + sig.s2 * mpk.h == t


# ---------------------------------------------------------------------------
# Hybrid encryption of byte payloads

_CONTENT_KEY_BITS = 256


def _key_block_count(N: int) -> int:
    """Ring blocks that carry one content key: ceil(256 / N)."""
    return -(-_CONTENT_KEY_BITS // N)


def _key_to_blocks(key: bytes, N: int) -> np.ndarray:
    """Key bits, least significant bit of each byte first, zero-padded into
    ceil(256/N) rows of N."""
    bits = np.unpackbits(np.frombuffer(key, dtype=np.uint8), bitorder="little")
    padded = np.zeros(_key_block_count(N) * N, dtype=np.uint8)
    padded[: bits.size] = bits
    return padded.reshape(-1, N)


def _blocks_to_key(blocks) -> bytes:
    """Inverse of _key_to_blocks: the first 256 bits, packed."""
    bits = np.concatenate(blocks)[:_CONTENT_KEY_BITS]
    return np.packbits(bits, bitorder="little").tobytes()


def ibe_seal(
    mpk: MasterPublicKey,
    recipient: RingElement,
    plaintext: bytes,
    rng: RandomSource,
    associated_data: bytes = b"",
) -> bytes:
    """Encrypt an arbitrary byte payload to the identity whose point is
    `recipient`, as the bytes that go on the wire.

    A fresh 256-bit content key is encapsulated in ceil(256/N) ring blocks
    (zero-padded when N > 256), written at their fixed size; then comes the
    u32-prefixed payload sealed under that key.  The receiver's parameters
    fix the count and the size of the blocks, so neither is sent.
    """
    content_key = SymmetricKey(rng.bytes(32), "content")
    w = Writer()
    for block_bits in _key_to_blocks(content_key.key, mpk.params.N):
        w.raw(encrypt(mpk, recipient, block_bits, rng).to_bytes())
    w.blob(aead_seal(content_key, plaintext, rng, associated_data))
    return w.getvalue()


def ibe_open(usk: UserSecretKey, data: bytes, associated_data: bytes = b"") -> bytes:
    """Inverse of ibe_seal, read at the key's parameters, each block
    decrypted as it is read: DecodeError on truncated or trailing bytes or
    a coefficient outside [0, q), AuthenticationFailure when the payload
    does not decrypt cleanly (wrong identity key or tampered bytes)."""
    params = usk.params
    r = Reader(data)
    size = 2 * params.element_bytes
    blocks = [
        decrypt(usk, Ciphertext.from_bytes(r.fixed(size), params))
        for _ in range(_key_block_count(params.N))
    ]
    sealed = r.blob()
    r.done()
    return aead_open(SymmetricKey(_blocks_to_key(blocks), "content"), sealed, associated_data)
