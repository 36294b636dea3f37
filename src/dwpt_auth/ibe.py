"""Identity-based encryption and signatures over an NTRU trapdoor.

A master authority samples a short pair (f, g), completes it to a basis of
the lattice {(u, v) : u + v*h = 0 mod q} for h = g/f, and extracts per
identity a short preimage (s1, s2) of the hashed identity point by fast
Fourier sampling: a randomized nearest-plane walk down the ffLDL tree of the
basis, which is its Gram-Schmidt frame in bit-reversed order, built from the
Fourier transforms of f, g, F, G.  Encryption is the dual-Regev style scheme:
noisy products against h and the identity point, message bits scaled by
floor(q/2).

Key encapsulation for byte payloads wraps a fresh 256-bit content key in as
many ring ciphertexts as needed and seals the payload itself with an AEAD.
"""

from __future__ import annotations

import cmath
import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from dwpt_auth.codec import Reader, Writer
from dwpt_auth.errors import (
    AuthenticationFailure,
    DecodeError,
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
    hash_to_ring,
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


def norm_bound(params: RingParams) -> float:
    """Acceptance bound on ||(s1, s2)|| for extracted keys and signatures."""
    return 1.1 * params.sigma_extract * math.sqrt(2 * params.N)


def identity_point(params: RingParams, identity: bytes) -> RingElement:
    """Hash an identity string onto the ring (domain-separated)."""
    return hash_to_ring(_ID_PREFIX + identity, params)


@dataclass(frozen=True)
class MasterPublicKey:
    params: RingParams
    h: RingElement

    def __post_init__(self):
        self.h.keep_transform()  # every encryption and verification multiplies by h


@dataclass
class MasterSecretKey:
    params: RingParams
    f: IntegerPolynomial
    g: IntegerPolynomial
    F: IntegerPolynomial
    G: IntegerPolynomial
    extract_seed: bytes
    _sampler: "KleinSampler | None" = field(default=None, repr=False, compare=False)

    def sampler(self) -> "KleinSampler":
        if self._sampler is None:
            self._sampler = KleinSampler(self)
        return self._sampler


@dataclass(frozen=True)
class UserSecretKey:
    identity: bytes
    s1: RingElement
    s2: RingElement

    @property
    def params(self) -> RingParams:
        return self.s1.params


@dataclass(frozen=True)
class Signature:
    salt: bytes
    s1: RingElement
    s2: RingElement


@dataclass(frozen=True)
class Ciphertext:
    """One ring ciphertext carrying up to N bits."""

    u: RingElement
    v: RingElement

    def to_bytes(self) -> bytes:
        """u32-prefixed u, then v unprefixed."""
        w = Writer()
        w.blob(self.u.to_bytes())
        w.raw(self.v.to_bytes())
        return w.getvalue()

    @classmethod
    def from_bytes(cls, data: bytes, params: RingParams) -> "Ciphertext":
        """Inverse of to_bytes; DecodeError on any malformed input."""
        r = Reader(data)
        ub = r.blob()
        u = RingElement.from_bytes(ub, params)
        v = RingElement.from_bytes(r.fixed(len(ub)), params)  # same size as u
        r.done()
        return cls(u, v)


@dataclass(frozen=True)
class HybridCiphertext:
    """Content key encapsulated in ring blocks; payload sealed with an AEAD."""

    key_blocks: tuple
    sealed: bytes

    def to_bytes(self) -> bytes:
        """u8 block count, u32-prefixed blocks, u32-prefixed sealed payload."""
        w = Writer()
        w.u8(len(self.key_blocks))
        for block in self.key_blocks:
            w.blob(block.to_bytes())
        w.blob(self.sealed)
        return w.getvalue()

    @classmethod
    def from_bytes(cls, data: bytes, params: RingParams) -> "HybridCiphertext":
        """Inverse of to_bytes; DecodeError on truncated or trailing bytes,
        or on a block count other than ceil(256/N)."""
        r = Reader(data)
        count, expected = r.u8(), _key_block_count(params.N)
        if count != expected:
            raise DecodeError(f"{count} key blocks, expected {expected}")
        blocks = tuple(Ciphertext.from_bytes(r.blob(), params) for _ in range(count))
        sealed = r.blob()
        r.done()
        return cls(blocks, sealed)


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

    Rejects candidate (f, g) pairs whose basis quality exceeds
    GS_SLACK * sqrt(q) or whose f is not invertible mod q; raises
    ResampleExhausted if no candidate passes.
    """
    q = params.q
    bound = GS_SLACK * math.sqrt(q)
    for _ in range(_MAX_KEYGEN_ATTEMPTS):
        f = IntegerPolynomial(sample_gaussian_poly(params, params.sigma_f, rng))
        g = IntegerPolynomial(sample_gaussian_poly(params, params.sigma_f, rng))
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
        F, G = IntegerPolynomial(F_c), IntegerPolynomial(G_c)
        check = f * G - g * F
        if check.coeffs[0] != q or any(c != 0 for c in check.coeffs[1:]):
            continue
        h = g.to_ring(params) * f_inv
        msk = MasterSecretKey(
            params=params, f=f, g=g, F=F, G=G, extract_seed=rng.bytes(32)
        )
        return MasterPublicKey(params=params, h=h), msk
    raise ResampleExhausted(
        f"no acceptable key pair in {_MAX_KEYGEN_ATTEMPTS} attempts"
    )


# ---------------------------------------------------------------------------
# Fast Fourier nearest-plane sampling
#
# Polynomials of degree n (in R[x]/(x^n + 1)) are held in the Fourier domain
# as their values at zeta_k = e^{i pi (2k+1)/n}, the order `fft_neg` uses.
# For a real polynomial the value at zeta_{n-1-k} is the conjugate of the one
# at zeta_k, so only the first n/2 values are kept, as a Python list.

_TWIDDLES: dict[int, tuple[list[complex], list[complex]]] = {}


def _twiddles(n: int) -> tuple[list[complex], list[complex]]:
    """(zeta_k, conj(zeta_k)/2) for k < n/4 at degree n, cached per n."""
    tw = _TWIDDLES.get(n)
    if tw is None:
        zetas = [cmath.exp(1j * math.pi * (2 * k + 1) / n) for k in range(n // 4)]
        tw = (zetas, [z.conjugate() / 2 for z in zetas])
        _TWIDDLES[n] = tw
    return tw


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


def _merge(a0: list[complex], a1: list[complex]) -> list[complex]:
    """Inverse of _split."""
    d = [z * y for z, y in zip(_twiddles(4 * len(a0))[0], a1)]
    lo = [x + y for x, y in zip(a0, d)]
    hi = [(x - y).conjugate() for x, y in zip(a0, d)]
    return lo + hi[::-1]


def _fftldl(g00: list[complex], g01: list[complex], g11: list[complex]) -> tuple:
    """ffLDL tree of the self-adjoint Gram matrix [[g00, g01], [g01*, g11]].

    A node is (l10, tree of D00, tree of D11) from G = L D L* with
    l10 = g01*/g00, D00 = g00 and D11 = g11 - |g01|^2/g00.  The tree of a
    diagonal entry D of degree n >= 4 is the tree of the Gram matrix
    [[d0, d1], [d1*, d0]] of its split (d0, d1); at degree 2 the split is
    diagonal with equal entries, so the tree is a leaf: the real value D(i),
    the squared Gram-Schmidt norm of two basis vectors.
    """
    l10 = [b.conjugate() / a for a, b in zip(g00, g01)]
    d11 = [c - (b * b.conjugate()) / a for a, b, c in zip(g00, g01, g11)]
    return l10, _fftldl_diag(g00), _fftldl_diag(d11)


def _fftldl_diag(d: list[complex]):
    if len(d) == 1:
        return d[0].real
    d0, d1 = _split(d)
    return _fftldl(d0, d1, d0)


def _leaves(tree) -> list[float]:
    """Leaf values left to right: the bit-reversed basis order."""
    if isinstance(tree, float):
        return [tree]
    return _leaves(tree[1]) + _leaves(tree[2])


def _ff_sample(t0, t1, node, sigma: float, trials: GaussianTrials):
    """Integer (z0, z1), in the Fourier domain, near (t0, t1) for one node.

    Nearest plane in the order L D L* gives: z1 first, then z0 around the
    target moved by (t1 - z1) * l10.  Each coordinate recurses into the
    tree of its diagonal entry through the split.
    """
    l10, tree0, tree1 = node
    z1 = _ff_sample_diag(t1, tree1, sigma, trials)
    t0 = [a + (b - c) * l for a, b, c, l in zip(t0, t1, z1, l10)]
    z0 = _ff_sample_diag(t0, tree0, sigma, trials)
    return z0, z1


def _ff_sample_diag(t: list[complex], tree, sigma: float, trials: GaussianTrials):
    if len(t) == 2:
        return _ff_sample_degree4(t[0], t[1], tree, sigma, trials)
    z0, z1 = _ff_sample(*_split(t), tree, sigma, trials)
    return _merge(z0, z1)


(_ZETA4,), (_HALF_CONJ_ZETA4,) = _twiddles(4)


def _ff_sample_degree4(a: complex, b: complex, node, sigma: float, trials: GaussianTrials):
    """_split, _ff_sample and _merge at degree 4 on scalars, in their
    floating-point operations and order, with both degree-2 leaves inline.

    A degree-2 leaf draws t(i) = t_0 + i*t_1 coordinate by coordinate, the
    odd one first, each of width sigma/sqrt(leaf).
    """
    (l10,), leaf0, leaf1 = node
    w = b.conjugate()
    t0 = (a + w) * 0.5
    t1 = (a - w) * _HALF_CONJ_ZETA4
    width = sigma / math.sqrt(leaf1)
    odd = sample_gaussian_int(t1.imag, width, trials)
    z1 = complex(sample_gaussian_int(t1.real, width, trials), odd)
    t0 = t0 + (t1 - z1) * l10
    width = sigma / math.sqrt(leaf0)
    odd = sample_gaussian_int(t0.imag, width, trials)
    z0 = complex(sample_gaussian_int(t0.real, width, trials), odd)
    d = _ZETA4 * z1
    return [z0 + d, (z0 - d).conjugate()]


class KleinSampler:
    """Discrete Gaussian sampler over the NTRU lattice of a master secret key.

    The basis rows are b0 = (g, -f) and b1 = (G, -F) with all their
    negacyclic shifts.  `__init__` builds the ffLDL tree of the Gram matrix
    B B* = [[g g* + f f*, g G* + f F*], [., G G* + F F*]] from the Fourier
    transforms of f, g, F, G: the Gram-Schmidt frame of the basis in
    bit-reversed order (Ducas and Prest, "Fast Fourier Orthogonalization",
    ISSAC 2016).  `sample_near` is the randomized nearest-plane walk down
    that tree (ffSampling, as in Ducas, Lyubashevsky and Prest, "Efficient
    Identity-Based Encryption over NTRU Lattices", ASIACRYPT 2014).
    """

    def __init__(self, msk: "MasterSecretKey"):
        self.q = msk.params.q
        h = msk.params.N // 2
        f, g, F, G = (
            fft_neg(np.array(poly.coeffs, dtype=np.float64))
            for poly in (msk.f, msk.g, msk.F, msk.G)
        )
        self._fft = f, g, F, G
        g00 = (g * g.conj() + f * f.conj())[:h]
        g01 = (g * G.conj() + f * F.conj())[:h]
        g11 = (G * G.conj() + F * F.conj())[:h]
        self.tree = _fftldl(g00.tolist(), g01.tolist(), g11.tolist())
        #: Squared Gram-Schmidt norms, each shared by two basis vectors.
        self.leaves = np.array(_leaves(self.tree))

    @property
    def max_gs_norm(self) -> float:
        return math.sqrt(float(self.leaves.max()))

    def sample_near(
        self, target: np.ndarray, sigma: float, rng: RandomSource
    ) -> np.ndarray:
        """Integer lattice point distributed around `target` with width sigma;
        the leaves draw through one `GaussianTrials` cursor over rng."""
        f, g, F, G = self._fft
        N = len(f)
        h = N // 2
        # Target in basis coordinates: (ta, tb) B^-1, B^-1 = [[-F, f], [-G, g]] / q.
        ta = fft_neg(target[:N].astype(np.float64))
        tb = fft_neg(target[N:].astype(np.float64))
        t0 = -(ta * F + tb * G) / self.q
        t1 = (ta * f + tb * g) / self.q
        with GaussianTrials(rng) as trials:
            z0, z1 = _ff_sample(t0[:h].tolist(), t1[:h].tolist(), self.tree, sigma, trials)
        z0 = np.array(z0 + [z.conjugate() for z in reversed(z0)])
        z1 = np.array(z1 + [z.conjugate() for z in reversed(z1)])
        # v = z B has integer coefficients of magnitude about q; the inverse
        # transforms land within 1e-7 of them at the default tier, so
        # rounding recovers v exactly.
        v = np.empty(2 * N, dtype=np.int64)
        v[:N] = np.rint(ifft_neg(z0 * g + z1 * G))
        v[N:] = np.rint(ifft_neg(-(z0 * f + z1 * F)))
        return v


def _sample_preimage(
    msk: MasterSecretKey, t: RingElement, rng: RandomSource
) -> tuple[RingElement, RingElement]:
    """Short (s1, s2) with s1 + s2*h = t mod q, norm below norm_bound."""
    params = msk.params
    N = params.N
    sampler = msk.sampler()
    target = np.zeros(2 * N, dtype=np.int64)
    target[:N] = t.coeffs
    bound_sq = norm_bound(params) ** 2
    for _ in range(_MAX_SAMPLE_ATTEMPTS):
        v = sampler.sample_near(target, params.sigma_extract, rng)
        s = target - v
        if float(s @ s) > bound_sq:
            continue
        s1 = RingElement(params, s[:N])
        s2 = RingElement(params, s[N:])
        return s1, s2
    raise SamplerFailure("no preimage within the norm bound")


def extract(msk: MasterSecretKey, identity: bytes) -> UserSecretKey:
    """Derive the secret key for an identity (deterministic per authority).

    Randomness is re-derived from the master extraction seed and the identity
    digest, so repeated extractions return equal keys regardless of call
    order.
    """
    params = msk.params
    t = identity_point(params, identity)
    digest = hashlib.sha256(identity).digest()
    rng = RandomSource(b"extract" + msk.extract_seed + digest)
    s1, s2 = _sample_preimage(msk, t, rng)
    return UserSecretKey(identity=identity, s1=s1, s2=s2)


# ---------------------------------------------------------------------------
# Encryption

def encrypt(mpk: MasterPublicKey, identity: bytes, bits, rng: RandomSource) -> Ciphertext:
    """Encrypt N bits (a sequence of 0s and 1s) to an identity."""
    params = mpk.params
    bits = np.asarray(bits)
    if bits.shape != (params.N,) or not np.all((bits == 0) | (bits == 1)):
        raise ValueError(f"message must be exactly {params.N} bits")
    t = identity_point(params, identity)
    r = RingElement(params, sample_gaussian_poly(params, ENC_SIGMA, rng))
    e1 = RingElement(params, sample_gaussian_poly(params, ENC_SIGMA, rng))
    e2 = RingElement(params, sample_gaussian_poly(params, ENC_SIGMA, rng))
    m = RingElement(params, bits.astype(np.int64) * (params.q // 2))
    rh, rt = r.products(mpk.h, t)
    return Ciphertext(u=rh + e1, v=rt + e2 + m)


def decrypt(usk: UserSecretKey, ct: Ciphertext) -> list[int]:
    """Recover the bit vector; bit i is 1 when w_i lies nearer q/2 than 0."""
    if usk.params != ct.u.params:
        raise ParameterMismatch("key and ciphertext parameters differ")
    q = usk.params.q
    w = ct.v - ct.u * usk.s2
    return (np.abs(w.centered()) > q // 4).astype(np.int64).tolist()


# ---------------------------------------------------------------------------
# Signatures

def sign(msk: MasterSecretKey, message: bytes, rng: RandomSource) -> Signature:
    """Salted hash-and-preimage signature under the master trapdoor."""
    salt = rng.bytes(32)
    t = hash_to_ring(_SIG_PREFIX + salt + message, msk.params)
    s1, s2 = _sample_preimage(msk, t, rng)
    return Signature(salt=salt, s1=s1, s2=s2)


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
    bits = np.concatenate(blocks)[:_CONTENT_KEY_BITS].astype(np.uint8)
    return np.packbits(bits, bitorder="little").tobytes()


def ibe_seal(
    mpk: MasterPublicKey,
    identity: bytes,
    plaintext: bytes,
    rng: RandomSource,
    associated_data: bytes = b"",
) -> HybridCiphertext:
    """Encrypt an arbitrary byte payload to an identity.

    A fresh 256-bit content key is encapsulated in ceil(256/N) ring blocks
    (zero-padded when N > 256); the payload is sealed under that key.
    """
    content_key = rng.bytes(32)
    blocks = [
        encrypt(mpk, identity, block_bits, rng)
        for block_bits in _key_to_blocks(content_key, mpk.params.N)
    ]
    sealed = aead_seal(content_key, plaintext, rng, associated_data)
    return HybridCiphertext(key_blocks=tuple(blocks), sealed=sealed)


def ibe_open(
    usk: UserSecretKey, ct: HybridCiphertext, associated_data: bytes = b""
) -> bytes:
    """Inverse of ibe_seal; AuthenticationFailure when the payload does not
    decrypt cleanly (wrong identity key or tampered bytes), or when the
    ciphertext does not carry exactly one content key's worth of blocks."""
    expected = _key_block_count(usk.params.N)
    if len(ct.key_blocks) != expected:
        raise AuthenticationFailure(
            f"{len(ct.key_blocks)} key blocks, expected {expected}"
        )
    blocks = [decrypt(usk, block) for block in ct.key_blocks]
    content_key = _blocks_to_key(blocks)
    return aead_open(content_key, ct.sealed, associated_data)
