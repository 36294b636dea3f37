"""Identity-based encryption and signatures over an NTRU trapdoor.

A master authority samples a short pair (f, g), completes it to a basis of
the lattice {(u, v) : u + v*h = 0 mod q} for h = g/f, and extracts per
identity a short preimage (s1, s2) of the hashed identity point, of which
the identity's key keeps s2, by fast Fourier sampling: a randomized
nearest-plane walk down the ffLDL tree of the basis, which is its
Gram-Schmidt frame in bit-reversed order, built from the Fourier transforms
of f, g, F, G.  Encryption is the dual-Regev style scheme:
noisy products against h and the identity point, message bits scaled by
floor(q/2).

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
    NotInvertible,
    ParameterMismatch,
    ResampleExhausted,
    SamplerFailure,
)
from dwpt_auth.ntrusolve import fft_neg, ifft_neg, ntru_solve
from dwpt_auth.ring import (
    GaussianTrials,
    IntegerPolynomial,
    RingElement,
    RingParams,
    gaussian_int_scale,
    hash_to_ring,
    mean_trials,
    sample_gaussian_int,
    sample_gaussian_poly,
)
from dwpt_auth.rng import RandomSource
from dwpt_auth.symcrypto import aead_open, aead_seal

#: Width of the encryption noise polynomials r, e1, e2.
ENC_SIGMA = 1.5

#: A key pair is accepted only if the Gram-Schmidt norm of its basis stays
#: below this multiple of sqrt(q); keeps the extraction width sigma_extract
#: comfortably above the basis quality.
GS_SLACK = 1.3

_ID_PREFIX = b"ID\x00"
_SIG_PREFIX = b"SIG\x00"

_MAX_KEYGEN_ATTEMPTS = 400
_MAX_SAMPLE_ATTEMPTS = 64

#: Keys that one walk draws at once: each holds a `GaussianTrials` cursor
#: while it walks, of about 28 KB at the default tier (its first decode, the
#: row's mean of about 1,650 trials, at 17 bytes a trial).  At 32 rows a
#: 64-key default extract peaks below what it did in one walk of 64 rows
#: holding 256-trial chunks, and a 10-slot registration is one walk.
_WALK_ROWS = 32


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


@dataclass(frozen=True)
class UserSecretKey:
    """The key of one identity: s2 of a short preimage (s1, s2) of its
    point under its authority's public key h, which is shared, not copied."""

    identity: bytes
    s2: RingElement
    h: RingElement

    @property
    def params(self) -> RingParams:
        return self.s2.params

    @property
    def s1(self) -> RingElement:
        """H(identity) - s2*h, the half that s2 and h imply; derived on every
        read and never kept, nor is the point it hashes, since decryption
        reads only s2."""
        return derive_s1([self], [identity_point(self.params, self.identity)])[0]

    @functools.cached_property
    def point(self) -> RingElement:
        """The identity point H(identity) that (s1, s2) is a preimage of,
        with its transform kept for every encryption to it; built on first
        use and not a field, so it is never persisted."""
        return identity_point(self.params, self.identity).keep_transform()


def derive_s1(keys: list[UserSecretKey], points: list[RingElement]) -> list[RingElement]:
    """s1 = t - s2*h of each key, t its identity point, for keys of one h:
    the products s2*h are one stacked transform."""
    h = keys[0].h
    return [
        RingElement(h.params, t.coeffs - s2h)
        for t, s2h in zip(points, h.product_rows(*(usk.s2 for usk in keys)))
    ]


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
# Master key generation

def _gs_quality(f: IntegerPolynomial, g: IntegerPolynomial, q: int) -> float:
    """Gram-Schmidt norm of the would-be basis, via the two-norm identity.

    The first half of the orthogonalized rows peaks at ||(g, -f)||; the
    second half at sqrt(sum_k q^2 / (|f_k|^2 + |g_k|^2)) over the Fourier
    points, so both are available before solving for (F, G).
    """
    norm1_sq = f.norm_squared() + g.norm_squared()
    f_hat = fft_neg(np.array(f.coeffs, dtype=np.float64))
    g_hat = fft_neg(np.array(g.coeffs, dtype=np.float64))
    den = np.abs(f_hat) ** 2 + np.abs(g_hat) ** 2
    if np.any(den < 1e-12):
        return float("inf")
    # Parseval: coefficient-domain norm^2 is the Fourier-point mean, not sum.
    norm2_sq = float(np.sum(q * q / den)) / len(f.coeffs)
    return math.sqrt(max(float(norm1_sq), norm2_sq))


def master_key_gen(
    params: RingParams, rng: RandomSource
) -> tuple[MasterPublicKey, MasterSecretKey]:
    """Sample a trapdoor basis and publish h = g * f^-1 mod q.

    Rejects candidate (f, g) pairs with f(1) and g(1) both even (both
    resultants with x^n + 1 are then even, so `ntru_solve` must fail for
    the odd q), whose basis quality exceeds GS_SLACK * sqrt(q), whose f is
    not invertible mod q, or that `ntru_solve` cannot complete; raises
    ResampleExhausted if no candidate passes.
    """
    q = params.q
    bound = GS_SLACK * math.sqrt(q)
    for _ in range(_MAX_KEYGEN_ATTEMPTS):
        f = IntegerPolynomial(sample_gaussian_poly(params, params.sigma_f, rng))
        g = IntegerPolynomial(sample_gaussian_poly(params, params.sigma_f, rng))
        if sum(f.coeffs) % 2 == sum(g.coeffs) % 2 == 0:
            continue
        if _gs_quality(f, g, q) > bound:
            continue
        try:
            f_inv = f.to_ring(params).inverse()
        except NotInvertible:
            continue
        try:
            F_c, G_c = ntru_solve(f.coeffs, g.coeffs, q)
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
# Fast Fourier nearest-plane sampling
#
# Polynomials of degree n (in R[x]/(x^n + 1)) are held in the Fourier domain
# as their values at zeta_k = e^{i pi (2k+1)/n}, the order `fft_neg` uses.
# For a real polynomial the value at zeta_{n-1-k} is the conjugate of the one
# at zeta_k, so only the first n/2 values are kept.  The walk draws K keys at
# once: at its levels whose halves hold 8 or more values (the root among
# them, as N >= 16), it holds them as the rows of (K, n/2) numpy arrays;
# below those levels it goes row by row, as Python lists, through the
# degree-16, -8 and -4 steps, which each split and merge inline.

def _parts(values) -> tuple[np.ndarray, np.ndarray]:
    """Constants c as (re(c) + 0i, 0 + i*im(c)).  x*c[0] + x*c[1] rounds each
    real product and each sum as Python's x*c does; numpy's x*c may fuse a
    product into a sum, which moves centers by a bit and, rarely, a key."""
    c = np.array(values)
    return c.real + 0j, c.imag * 1j


def _times(x: np.ndarray, parts: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """x*c for the constants c held as `_parts`, rounded as Python's x*c."""
    return x * parts[0] + x * parts[1]


@functools.cache
def _twiddles(n: int) -> tuple:
    """(zeta_k, conj(zeta_k)/2) for k < n/4 at degree n, then each as `_parts`."""
    zetas = [cmath.exp(1j * math.pi * (2 * k + 1) / n) for k in range(n // 4)]
    halves = [z.conjugate() / 2 for z in zetas]
    return zetas, halves, _parts(zetas), _parts(halves)


def _split(a: list[complex]) -> tuple[list[complex], list[complex]]:
    """a(x) = a0(x^2) + x*a1(x^2): halves of degree n/2 from a of degree n >= 4.

    Since zeta_{k+n/2} = -zeta_k, a0 = (a(zeta_k) + a(-zeta_k))/2 and
    a1 = (a(zeta_k) - a(-zeta_k))/(2 zeta_k) at the root zeta_k^2 of degree
    n/2; for k < n/4, a(-zeta_k) is the conjugate of the kept a[n/2-1-k].
    """
    m = len(a) // 2
    hi = [x.conjugate() for x in a[: m - 1 : -1]]
    a0 = [(u + w) * 0.5 for u, w in zip(a, hi)]
    a1 = [(u - w) * t for u, w, t in zip(a, hi, _twiddles(2 * len(a))[1])]
    return a0, a1


def _split_array(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_split on the last axis of a numpy array."""
    n = a.shape[-1]
    m = n // 2
    hi = a[..., : m - 1 : -1].conj()
    return (a[..., :m] + hi) * 0.5, _times(a[..., :m] - hi, _twiddles(2 * n)[3])


def _merge_array(a0: np.ndarray, a1: np.ndarray) -> np.ndarray:
    """Inverse of `_split_array`, on the last axis: a0 + zeta*a1 at zeta_k,
    a0 - zeta*a1 at -zeta_k."""
    d = _times(a1, _twiddles(4 * a0.shape[-1])[2])
    return np.concatenate((a0 + d, (a0 - d)[..., ::-1].conj()), axis=-1)


def _gram(f: np.ndarray, g: np.ndarray, F: np.ndarray, G: np.ndarray) -> tuple:
    """The kept halves of g g* + f f*, g G* + f F* and G G* + F F*, as
    lists, from the transforms of f, g, F, G; each product is `_times`."""
    h = len(f) // 2
    f, g, F, G = (a[:h] for a in (f, g, F, G))
    fc, gc = _parts(f.conj()), _parts(g.conj())
    Fc, Gc = _parts(F.conj()), _parts(G.conj())
    return (
        (_times(g, gc) + _times(f, fc)).tolist(),
        (_times(g, Gc) + _times(f, Fc)).tolist(),
        (_times(G, Gc) + _times(F, Fc)).tolist(),
    )


def _fftldl(
    g00: list[complex], g01: list[complex], g11: list[complex], sigma: float, leaves: list[float]
) -> tuple:
    """ffLDL tree of the self-adjoint Gram matrix [[g00, g01], [g01*, g11]].

    A node is (l10, tree of D00, tree of D11) from G = L D L* with
    l10 = g01*/g00, D00 = g00 and D11 = g11 - |g01|^2/g00.  The tree of a
    diagonal entry D of degree n >= 4 is the tree of the Gram matrix
    [[d0, d1], [d1*, d0]] of its split (d0, d1); at degree 2 the split is
    diagonal with equal entries, so the tree is a leaf for the real value
    D(i), the squared Gram-Schmidt norm of two basis vectors, which goes on
    `leaves`; the leaf holds 1/(2 w^2) for the width w = sigma/sqrt(D(i))
    the walk draws with (`gaussian_int_scale`, which rejects a w outside
    the base sampler's (0, 2]).  An l10 of 8 or more values, the root's
    among them, is kept as `_parts`, for the walk's array levels.
    """
    l10 = [b.conjugate() / a for a, b in zip(g00, g01)]
    d11 = [c - (b * b.conjugate()) / a for a, b, c in zip(g00, g01, g11)]
    return (
        _parts(l10) if len(l10) >= 8 else l10,
        _fftldl_diag(g00, sigma, leaves),
        _fftldl_diag(d11, sigma, leaves),
    )


def _fftldl_diag(d: list[complex], sigma: float, leaves: list[float]):
    if len(d) > 2:
        d0, d1 = _split(d)
        return _fftldl(d0, d1, d0, sigma, leaves)
    # Degree 4: `_split` into one value each, then `_fftldl`'s node over
    # the two leaves, in the same float operations.
    u, w = d[0], d[1].conjugate()
    d0, d1 = (u + w) * 0.5, (u - w) * _HALF_CONJ_ZETA4
    d11 = d0 - (d1 * d1.conjugate()) / d0
    leaves += d0.real, d11.real
    return (
        [d1.conjugate() / d0],
        gaussian_int_scale(sigma / math.sqrt(d0.real)),
        gaussian_int_scale(sigma / math.sqrt(d11.real)),
    )


def _ff_sample(t0: np.ndarray, t1: np.ndarray, node, cursors: list[GaussianTrials]):
    """Integer (z0, z1), in the Fourier domain, near each row of the (K, n)
    targets (t0, t1) for one node; row k draws through cursors[k].

    Nearest plane in the order L D L* gives: z1 first, then z0 around the
    target moved by (t1 - z1) * l10.  Each coordinate recurses into the
    tree of its diagonal entry through the split.
    """
    l10, tree0, tree1 = node
    z1 = _ff_sample_diag(t1, tree1, cursors)
    z0 = _ff_sample_diag(t0 + _times(t1 - z1, l10), tree0, cursors)
    return z0, z1


def _ff_sample_diag(t: np.ndarray, tree, cursors: list[GaussianTrials]) -> np.ndarray:
    n = t.shape[-1]
    if n >= 16:  # halves of 8 or more values: one array for all rows
        return _merge_array(*_ff_sample(*_split_array(t), tree, cursors))
    rows = zip(t.tolist(), cursors)
    return np.array([_ff_sample_degree16(row, tree, trials) for row, trials in rows])


(_ZETA4,), (_HALF_CONJ_ZETA4,) = _twiddles(4)[:2]
(_ZETA8_0, _ZETA8_1), (_HALF_CONJ_ZETA8_0, _HALF_CONJ_ZETA8_1) = _twiddles(8)[:2]
_ZETA16, _HALF_CONJ_ZETA16 = _twiddles(16)[:2]


def _ff_sample_degree4(a: complex, b: complex, node, trials: GaussianTrials):
    """`_split_array`, `_ff_sample` and `_merge_array` at degree 4 on one
    row of scalars, in their floating-point operations and order, with
    both degree-2 leaves inline.

    A degree-2 leaf draws t(i) = t_0 + i*t_1 as one Gaussian integer of
    the leaf's width, the odd coordinate first.
    """
    (l10,), scale0, scale1 = node
    w = b.conjugate()
    t0 = (a + w) * 0.5
    t1 = (a - w) * _HALF_CONJ_ZETA4
    z1 = sample_gaussian_int(t1, scale1, trials)
    z0 = sample_gaussian_int(t0 + (t1 - z1) * l10, scale0, trials)
    d = _ZETA4 * z1
    return [z0 + d, (z0 - d).conjugate()]


def _ff_sample_degree8(t: list[complex], node, trials: GaussianTrials):
    """`_split_array`, `_ff_sample` and `_merge_array` at degree 8 on one
    row of scalars, in their floating-point operations and order, over two
    `_ff_sample_degree4` steps."""
    (l0, l1), tree0, tree1 = node
    a0, a1, a2, a3 = t
    w3, w2 = a3.conjugate(), a2.conjugate()
    y0, y1 = (a0 - w3) * _HALF_CONJ_ZETA8_0, (a1 - w2) * _HALF_CONJ_ZETA8_1
    v0, v1 = _ff_sample_degree4(y0, y1, tree1, trials)
    u0, u1 = _ff_sample_degree4(
        (a0 + w3) * 0.5 + (y0 - v0) * l0, (a1 + w2) * 0.5 + (y1 - v1) * l1, tree0, trials
    )
    d0, d1 = _ZETA8_0 * v0, _ZETA8_1 * v1
    return [u0 + d0, u1 + d1, (u1 - d1).conjugate(), (u0 - d0).conjugate()]


def _ff_sample_degree16(t: list[complex], node, trials: GaussianTrials):
    """`_split_array`, `_ff_sample` and `_merge_array` at degree 16 on one
    row of scalars, in their floating-point operations and order, over two
    `_ff_sample_degree8` steps."""
    (l0, l1, l2, l3), tree0, tree1 = node
    a0, a1, a2, a3, a4, a5, a6, a7 = t
    w7, w6, w5, w4 = a7.conjugate(), a6.conjugate(), a5.conjugate(), a4.conjugate()
    h0, h1, h2, h3 = _HALF_CONJ_ZETA16
    y0, y1, y2, y3 = (a0 - w7) * h0, (a1 - w6) * h1, (a2 - w5) * h2, (a3 - w4) * h3
    v0, v1, v2, v3 = _ff_sample_degree8([y0, y1, y2, y3], tree1, trials)
    u0, u1, u2, u3 = _ff_sample_degree8([
        (a0 + w7) * 0.5 + (y0 - v0) * l0, (a1 + w6) * 0.5 + (y1 - v1) * l1,
        (a2 + w5) * 0.5 + (y2 - v2) * l2, (a3 + w4) * 0.5 + (y3 - v3) * l3,
    ], tree0, trials)
    z0, z1, z2, z3 = _ZETA16
    d0, d1, d2, d3 = z0 * v0, z1 * v1, z2 * v2, z3 * v3
    return [u0 + d0, u1 + d1, u2 + d2, u3 + d3, (u3 - d3).conjugate(),
            (u2 - d2).conjugate(), (u1 - d1).conjugate(), (u0 - d0).conjugate()]


class KleinSampler:
    """Discrete Gaussian sampler over the NTRU lattice of a master secret key.

    The basis rows are b0 = (g, -f) and b1 = (G, -F) with all their
    negacyclic shifts.  `__init__` builds the ffLDL tree of the Gram matrix
    B B* = [[g g* + f f*, g G* + f F*], [., G G* + F F*]] from the Fourier
    transforms of f, g, F, G: the Gram-Schmidt frame of the basis in
    bit-reversed order (Ducas and Prest, "Fast Fourier Orthogonalization",
    ISSAC 2016).  `sample_near` is the randomized nearest-plane walk down
    that tree (ffSampling, as in Ducas, Lyubashevsky and Prest, "Efficient
    Identity-Based Encryption over NTRU Lattices", ASIACRYPT 2014) from
    targets (t, 0), the only kind extraction and signing ask for, with the
    width sigma_extract, the only one they ask for.  A walk row draws both
    coordinates of each leaf's value at the leaf's width w, each draw
    reading 2S/(w sqrt(2 pi)) base-sampler trials on average, S the
    half-Gaussian mass of the base table (`ring.mean_trials`); their sum
    over the 2N coordinates, `row_trials`, is the first decode of each
    row's cursor.
    """

    def __init__(self, msk: "MasterSecretKey"):
        self.q = msk.params.q
        h = msk.params.N // 2
        f, g, F, G = (
            fft_neg(np.array(poly.coeffs, dtype=np.float64))
            for poly in (msk.f, msk.g, msk.F, msk.G)
        )
        self._fft = f, g, F, G
        self._coordinates = _parts(F[:h]), _parts(f[:h])
        leaves = []
        self.tree = _fftldl(*_gram(f, g, F, G), msk.params.sigma_extract, leaves)
        #: Squared Gram-Schmidt norms, each shared by two basis vectors, in
        #: the tree's (bit-reversed) order.
        self.leaves = np.array(leaves)
        widths = msk.params.sigma_extract / np.sqrt(self.leaves)
        self.row_trials = round(2 * mean_trials(widths))  # two coordinates a leaf

    def sample_near(self, t: np.ndarray, rngs: list[RandomSource]) -> np.ndarray:
        """Integer lattice points (v1, v2), as a (K, 2N) array: row k is
        distributed around (t_k, 0), for row t_k of the (K, N) targets t,
        with width sigma_extract, and its leaves draw through one
        `GaussianTrials` cursor over rngs[k], whose first decode is
        `row_trials`.

        The targets in basis coordinates, (t, 0) B^-1 with B^-1 =
        [[-F, f], [-G, g]] / q, are the kept halves of -(t F)/q and t f/q,
        from one stacked transform of t; the division is the product by
        1/q that numpy's complex division by q + 0i computes.  The walk
        goes down the tree once for all rows, and each half of the points
        is one stacked inverse transform."""
        f, g, F, G = self._fft
        N = len(f)
        Fc, fc = self._coordinates
        ta = fft_neg(t.astype(np.float64))[:, : N // 2]
        t0, t1 = _times(ta, Fc) * (-1 / self.q), _times(ta, fc) * (1 / self.q)
        cursors = [GaussianTrials(rng, self.row_trials) for rng in rngs]
        z0, z1 = _ff_sample(t0, t1, self.tree, cursors)
        for trials in cursors:
            trials.close()
        # v = z B has integer coefficients of magnitude about q; the inverse
        # transforms land within 1e-7 of them at the default tier, so
        # rounding recovers v exactly.
        a, b = (np.concatenate((z, np.conj(z[:, ::-1])), axis=1) for z in (z0, z1))
        v = np.empty((len(t), 2 * N), dtype=np.int64)
        v[:, :N] = np.rint(ifft_neg(a * g + b * G))
        v[:, N:] = np.rint(ifft_neg(-(a * f + b * F)))
        return v


def _sample_preimage(
    msk: MasterSecretKey, t: np.ndarray, rngs: list[RandomSource]
) -> np.ndarray:
    """Short (s1, s2), as a (K, 2N) int64 array, with s1 + s2*h = t_k mod q
    and norm below norm_bound for each row t_k of the (K, N) targets t:
    (t_k, 0) less a lattice point near it, drawn from rngs[k].  Only the
    rows above the bound walk again, each on from where its own stream
    stopped, so a row is what it would be if it were drawn alone."""
    N = msk.params.N
    bound_sq = norm_bound(msk.params) ** 2
    s = np.empty((len(t), 2 * N), dtype=np.int64)
    rows = np.arange(len(t))
    for _ in range(_MAX_SAMPLE_ATTEMPTS):
        walked = -msk.sampler.sample_near(t[rows], [rngs[k] for k in rows])
        walked[:, :N] += t[rows]
        s[rows] = walked
        rows = rows[(walked * walked).sum(axis=1) > bound_sq]
        if not rows.size:
            return s
    raise SamplerFailure("no preimage within the norm bound")


def extract(msk: MasterSecretKey, *identities: bytes) -> list[UserSecretKey]:
    """The secret key of each identity, in order (deterministic per authority).

    A key's randomness is re-derived from the master extraction seed and
    its identity's digest, so it is the same whether extracted alone or
    among others, in any order.  The walk draws `_WALK_ROWS` keys at a
    time; the s2 of each such batch is one read-only block, of which each
    key keeps a row.
    """
    params = msk.params
    keys = []
    for start in range(0, len(identities), _WALK_ROWS):
        batch = identities[start : start + _WALK_ROWS]
        # Allocated before the walk, the block kept for the keys takes heap
        # that an earlier walk freed, not heap above this walk's arrays.
        s2 = np.empty((len(batch), params.N), dtype=np.int32)
        t = np.stack([identity_point(params, identity).coeffs for identity in batch])
        rngs = [
            RandomSource(b"extract" + msk.extract_seed + hashlib.sha256(identity).digest())
            for identity in batch
        ]
        s2[...] = _sample_preimage(msk, t, rngs)[:, params.N :] % params.q
        rows = RingElement.rows(params, s2)
        keys += [UserSecretKey(identity, row, msk.h) for identity, row in zip(batch, rows)]
    return keys


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
    w = (ct.v.coeffs - (ct.u * usk.s2).coeffs) % q  # int32: both in [0, q)
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
    content_key = rng.bytes(32)
    w = Writer()
    for block_bits in _key_to_blocks(content_key, mpk.params.N):
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
    return aead_open(_blocks_to_key(blocks), sealed, associated_data)
