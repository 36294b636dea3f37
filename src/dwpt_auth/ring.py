"""Arithmetic in R_q = Z_q[x]/(x^N + 1) and exactly in Z[x]/(x^N + 1).

Carrier types for every key, ciphertext, and hash-to-ring value in the
package, plus discrete Gaussian sampling and deterministic hashing of byte
strings into the ring.  Multiplication has two routes: a negacyclic
number-theoretic transform mod q (requires q ≡ 1 mod 2N, always true for
valid parameters) and an exact product over the integers by Kronecker
substitution, `karamul`.  The exact route carries the trapdoor arithmetic
and is the reference oracle for the transform; the test suite holds the two
bit-equal mod q.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass

import numpy as np

from dwpt_auth.codec import Reader, Writer
from dwpt_auth.errors import DecodeError, NotInvertible, ParameterMismatch
from dwpt_auth.rng import RandomSource

# int64 NTT butterflies need q*q < 2**62; RingParams rejects larger q.
_NTT_Q_LIMIT = 1 << 31

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all n < 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class RingParams:
    """Ring dimension and modulus for one parameter tier; the Gaussian widths
    follow from them."""

    N: int
    q: int

    def __post_init__(self):
        if self.N < 4 or self.N & (self.N - 1) != 0:
            raise ValueError(f"N must be a power of two >= 4, got {self.N}")
        if not _is_prime(self.q):
            raise ValueError(f"q must be prime, got {self.q}")
        if self.q % (2 * self.N) != 1:
            raise ValueError(f"q must satisfy q = 1 mod 2N, got q={self.q}, N={self.N}")
        if self.q >= _NTT_Q_LIMIT:
            raise ValueError(f"q must be below 2^31 for int64 arithmetic, got {self.q}")

    @property
    def coeff_width(self) -> int:
        """Bytes per serialized coefficient."""
        return (self.q.bit_length() + 7) // 8

    # sigma_f targets key vectors of norm ~1.17*sqrt(q).  sigma_extract covers
    # the Gram-Schmidt norm of accepted trapdoor bases with slack; keygen's
    # ibe.GS_SLACK = 1.3 bounds every leaf width of the fast Fourier sampler
    # by 1.5 * 1.3 = 1.95, under the base sampler's 2.

    @property
    def sigma_f(self) -> float:
        return 1.17 * math.sqrt(self.q / (2 * self.N))

    @property
    def sigma_extract(self) -> float:
        return 1.5 * math.sqrt(self.q)


#: Named parameter tiers.  "toy" is small enough for brute-force lattice
#: checks, "test" exercises realistic structure quickly, "default" is the
#: tier whose q passed the encrypt/decrypt round-trip calibration.
TIERS = {
    "toy": RingParams(16, 97),
    "test": RingParams(64, 12289),
    "default": RingParams(512, 8380417),
}


# ---------------------------------------------------------------------------
# Negacyclic NTT machinery, cached per (N, q)

_NTT_CACHE: dict[tuple[int, int], tuple] = {}


def _bit_reverse(i: int, bits: int) -> int:
    out = 0
    for _ in range(bits):
        out = (out << 1) | (i & 1)
        i >>= 1
    return out


def _find_psi(N: int, q: int) -> int:
    """Primitive 2N-th root of unity mod q (exists since q = 1 mod 2N)."""
    exponent = (q - 1) // (2 * N)
    for candidate in range(2, q):
        psi = pow(candidate, exponent, q)
        if pow(psi, N, q) == q - 1:
            return psi
    raise ArithmeticError(f"no primitive 2N-th root of unity mod {q}")


def _ntt_context(N: int, q: int):
    key = (N, q)
    ctx = _NTT_CACHE.get(key)
    if ctx is None:
        psi = _find_psi(N, q)
        psi_inv = pow(psi, q - 2, q)
        bits = N.bit_length() - 1
        fwd = np.array(
            [pow(psi, _bit_reverse(i, bits), q) for i in range(N)], dtype=np.int64
        )
        inv = np.array(
            [pow(psi_inv, _bit_reverse(i, bits), q) for i in range(N)], dtype=np.int64
        )
        n_inv = pow(N, q - 2, q)
        ctx = (fwd, inv, n_inv, _lazy_stages(q))
        _NTT_CACHE[key] = ctx
    return ctx


def _lazy_stages(q: int) -> int:
    """Butterfly stages that may leave their sums unreduced: the largest k
    with 2^k * q * q < 2^63.

    A forward stage adds or subtracts a reduced product, so k unreduced
    stages leave |v| < (k + 1) * q <= 2^k * q; an inverse stage adds two
    non-negative values, so they leave 0 <= v < 2^k * q.  The next product
    by a twiddle, or by 1/N at the end, then stays below 2^k * q * q.
    """
    k = 0
    while (q * q) << (k + 1) < 1 << 63:
        k += 1
    return k


def _ntt_forward(values: np.ndarray, N: int, q: int) -> np.ndarray:
    """Cooley-Tukey NTT with the psi twist folded in, over the last axis of
    a (..., N) stack; output bit-reversed and reduced to [0, q)."""
    fwd, _, _, lazy = _ntt_context(N, q)
    v = np.array(values, dtype=np.int64)
    t, m, stage = N, 1, 0
    while m < N:
        t //= 2
        blocks = v.reshape(-1, m, 2 * t)
        lo = blocks[..., :t]
        hi = blocks[..., t:]
        prod = hi * fwd[m : 2 * m, None]
        prod %= q
        np.subtract(lo, prod, out=hi)
        lo += prod
        stage += 1
        if stage > lazy:
            v %= q
        m *= 2
    if stage <= lazy:
        v %= q
    return v


def _ntt_inverse(values: np.ndarray, N: int, q: int) -> np.ndarray:
    """Gentleman-Sande inverse of `_ntt_forward`, over the last axis of a
    (..., N) stack of values in [0, q)."""
    _, inv, n_inv, lazy = _ntt_context(N, q)
    v = np.array(values, dtype=np.int64)
    t, m, stage = 1, N, 0
    while m > 1:
        h = m // 2
        blocks = v.reshape(-1, h, 2 * t)
        lo = blocks[..., :t]
        hi = blocks[..., t:]
        diff = lo - hi
        lo += hi
        diff *= inv[h : 2 * h, None]
        np.remainder(diff, q, out=hi)
        stage += 1
        if stage > lazy:
            lo %= q
        t *= 2
        m = h
    v *= n_inv
    v %= q
    return v


# ---------------------------------------------------------------------------
# Exact negacyclic product over Z

def karamul(a: list[int], b: list[int]) -> list[int]:
    """Exact negacyclic product (mod x^n + 1) via Kronecker substitution.

    Coefficients go into byte-aligned slots: each is biased by half the slot
    range so it packs as unsigned bytes, and the bias is taken back out of the
    packed integer in one subtraction.  The product is unpacked the same way,
    from a single `to_bytes` of the biased result.
    """
    n = len(a)
    max_a = max(1, max(abs(c) for c in a))
    max_b = max(1, max(abs(c) for c in b))
    # Any folded coefficient is bounded by 2n * max|a| * max|b|.
    width = max_a.bit_length() + max_b.bit_length() + n.bit_length() + 2
    nbytes = (width + 7) // 8
    half = 1 << (8 * nbytes - 1)
    half_slot = bytes(nbytes - 1) + b"\x80"  # `half` as one slot's bytes
    bias = int.from_bytes(half_slot * n, "little")

    def pack(coeffs: list[int]) -> int:
        slots = b"".join((c + half).to_bytes(nbytes, "little") for c in coeffs)
        return int.from_bytes(slots, "little") - bias

    product = pack(a) * pack(b) + int.from_bytes(half_slot * (2 * n), "little")
    raw = product.to_bytes(2 * n * nbytes, "little")
    full = [
        int.from_bytes(raw[k : k + nbytes], "little") - half
        for k in range(0, 2 * n * nbytes, nbytes)
    ]
    return [full[k] - full[k + n] for k in range(n)]


# ---------------------------------------------------------------------------
# Ring elements

class RingElement:
    """Degree-N polynomial over Z_q, coefficients canonical in [0, q).

    Coefficients are stored as int32 (q < 2^31), half the memory of int64;
    arithmetic widens to int64 before it can leave that range, and
    `__init__` is the one place that reduces mod q.
    """

    __slots__ = ("params", "coeffs", "_ntt")

    def __init__(self, params: RingParams, coeffs):
        arr = np.asarray(coeffs, dtype=np.int64)
        if arr.shape != (params.N,):
            raise ValueError(f"expected {params.N} coefficients, got {arr.shape}")
        arr = (arr % params.q).astype(np.int32)
        arr.setflags(write=False)
        self.params = params
        self.coeffs = arr
        self._ntt = None

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, params: RingParams) -> "RingElement":
        return cls(params, np.zeros(params.N, dtype=np.int64))

    @classmethod
    def one(cls, params: RingParams) -> "RingElement":
        return cls.constant(params, 1)

    @classmethod
    def constant(cls, params: RingParams, c: int) -> "RingElement":
        coeffs = np.zeros(params.N, dtype=np.int64)
        coeffs[0] = c % params.q
        return cls(params, coeffs)

    @classmethod
    def monomial(cls, params: RingParams, degree: int, c: int = 1) -> "RingElement":
        if not 0 <= degree < params.N:
            raise ValueError("monomial degree out of range")
        coeffs = np.zeros(params.N, dtype=np.int64)
        coeffs[degree] = c % params.q
        return cls(params, coeffs)

    # -- views -----------------------------------------------------------

    def centered(self) -> np.ndarray:
        """Representative in (-q/2, q/2], used for norms and decryption."""
        q = self.params.q
        c = self.coeffs.astype(np.int64)
        c[c > q // 2] -= q
        return c

    def norm_squared(self) -> int:
        # Exact: a sum of N terms up to (q/2)^2 exceeds int64 for q near 2^31.
        c = self.centered()
        return int(np.sum(c.astype(object) ** 2))

    def is_zero(self) -> bool:
        return not self.coeffs.any()

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "RingElement"):
        if self.params != other.params:
            raise ParameterMismatch(
                f"ring parameter mismatch: {self.params} vs {other.params}"
            )

    def __add__(self, other: "RingElement") -> "RingElement":
        self._check(other)
        return RingElement(self.params, self.coeffs.astype(np.int64) + other.coeffs)

    def __sub__(self, other: "RingElement") -> "RingElement":
        self._check(other)
        return RingElement(self.params, self.coeffs.astype(np.int64) - other.coeffs)

    def scale(self, c: int) -> "RingElement":
        return RingElement(self.params, self.coeffs.astype(np.int64) * (c % self.params.q))

    def keep_transform(self) -> "RingElement":
        """Store the forward transform for every later product; only for
        elements multiplied more than once, since it doubles their memory."""
        if self._ntt is None:
            self._ntt = _ntt_forward(self.coeffs, self.params.N, self.params.q)
        return self

    def products(self, *others: "RingElement") -> tuple["RingElement", ...]:
        """self * other for each of others, from one stacked forward
        transform of the operands that keep none and one stacked inverse."""
        for other in others:
            self._check(other)
        N, q = self.params.N, self.params.q
        operands = (self, *others)
        fresh = [e.coeffs for e in operands if e._ntt is None]
        if fresh:
            computed = iter(_ntt_forward(np.stack(fresh), N, q))
        points = [next(computed) if e._ntt is None else e._ntt for e in operands]
        prods = _ntt_inverse(np.stack(points[1:]) * points[0] % q, N, q)
        return tuple(RingElement(self.params, row) for row in prods)

    def __mul__(self, other: "RingElement") -> "RingElement":
        return self.products(other)[0]

    def inverse(self) -> "RingElement":
        """Inverse in R_q via NTT point inversion; NotInvertible if any
        evaluation at a root of x^N+1 vanishes."""
        N, q = self.params.N, self.params.q
        points = _ntt_forward(self.coeffs, N, q)
        if np.any(points == 0):
            raise NotInvertible("element shares a factor with x^N+1 mod q")
        inv_points = np.array([pow(int(x), q - 2, q) for x in points], dtype=np.int64)
        return RingElement(self.params, _ntt_inverse(inv_points, N, q))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RingElement)
            and self.params == other.params
            and bool(np.array_equal(self.coeffs, other.coeffs))
        )

    def __hash__(self):
        return hash((self.params, self.coeffs.tobytes()))

    def __repr__(self):
        return f"RingElement(N={self.params.N}, q={self.params.q}, coeffs={list(self.coeffs[:4])}...)"

    # -- serialization -------------------------------------------------

    def to_bytes(self) -> bytes:
        """Header (N as u16 LE, q as u64 LE) then minimal-width LE coefficients."""
        N, width = self.params.N, self.params.coeff_width
        # q < 2^31, so each coefficient is its low `width` bytes as a LE u32.
        body = self.coeffs.astype("<u4").view(np.uint8).reshape(N, 4)[:, :width]
        w = Writer()
        w.u16(N)
        w.u64(self.params.q)
        w.raw(body.tobytes())
        return w.getvalue()

    @classmethod
    def from_bytes(cls, data: bytes, params: RingParams) -> "RingElement":
        """Inverse of to_bytes; DecodeError on a bad header, length or coefficient."""
        r = Reader(data)
        N, q = r.u16(), r.u64()
        if (params.N, params.q) != (N, q):
            raise DecodeError(f"serialized header (N={N}, q={q}) does not match params")
        width = params.coeff_width
        padded = np.zeros((N, 4), dtype=np.uint8)
        padded[:, :width] = np.frombuffer(r.fixed(N * width), dtype=np.uint8).reshape(N, width)
        r.done()
        coeffs = padded.view("<u4").reshape(N)
        if np.any(coeffs >= q):
            raise DecodeError("coefficient outside [0, q)")
        return cls(params, coeffs)


class IntegerPolynomial:
    """Degree-N polynomial over Z, no modular reduction (exact arithmetic)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = [int(c) for c in coeffs]

    def __eq__(self, other):
        return isinstance(other, IntegerPolynomial) and self.coeffs == other.coeffs

    def __sub__(self, other):
        return IntegerPolynomial([a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __mul__(self, other):
        return IntegerPolynomial(karamul(self.coeffs, other.coeffs))

    def norm_squared(self) -> int:
        return sum(c * c for c in self.coeffs)

    def to_ring(self, params: RingParams) -> RingElement:
        """The element mod q; coefficients must fit in int64."""
        if len(self.coeffs) != params.N:
            raise ParameterMismatch("degree does not match ring parameters")
        return RingElement(params, self.coeffs)

    def __repr__(self):
        return f"IntegerPolynomial({self.coeffs[:4]}...)"


# ---------------------------------------------------------------------------
# Sampling and hashing

_GAUSS_TABLE_CACHE: dict[float, tuple[np.ndarray, np.ndarray]] = {}


def _gauss_table(sigma: float):
    table = _GAUSS_TABLE_CACHE.get(sigma)
    if table is None:
        tail = max(1, math.ceil(12.0 * sigma))
        support = np.arange(-tail, tail + 1, dtype=np.int64)
        weights = np.exp(-(support.astype(np.float64) ** 2) / (2.0 * sigma * sigma))
        cdf = np.cumsum(weights)
        cdf /= cdf[-1]
        table = (support, cdf)
        _GAUSS_TABLE_CACHE[sigma] = table
    return table


def sample_gaussian_poly(
    params: RingParams, sigma: float, rng: RandomSource
) -> np.ndarray:
    """N iid samples from the centered discrete Gaussian of width sigma, as
    an int64 array of coefficients.

    Cumulative-table inversion with the tail cut at 12*sigma; deterministic
    for a fixed random source.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    support, cdf = _gauss_table(float(sigma))
    u = rng.uniforms(params.N)
    return support[np.searchsorted(cdf, u, side="right")]


def _half_gaussian_cdf(sigma0: float) -> np.ndarray:
    """Cumulative table of the half-Gaussian exp(-z^2/2 sigma0^2) on z >= 0,
    cut at 12*sigma0, past which the mass is below double precision."""
    support = range(math.ceil(12 * sigma0) + 1)
    weights = [math.exp(-z * z / (2.0 * sigma0 * sigma0)) for z in support]
    total = math.fsum(weights)
    cdf = list(itertools.accumulate(w / total for w in weights))
    cdf[-1] = 1.0  # every uniform in [0, 1) lands inside the table
    return np.array(cdf)


# Width of the base sampler; sample_gaussian_int serves any sigma up to it.
_BASE_SIGMA = 2.0
_BASE_CDF = _half_gaussian_cdf(_BASE_SIGMA)
_BASE_INV_2S2 = 1.0 / (2.0 * _BASE_SIGMA * _BASE_SIGMA)

# A trial of the base sampler reads two u64 words: the candidate, then the
# uniform of the acceptance test.  Only that test depends on the center and
# the width, so trials are decoded from the stream a chunk at a time.
_TRIAL_BYTES = 16
_TRIALS_PER_CHUNK = 256


class GaussianTrials:
    """Cursor over the base sampler's trials in one random source.

    Holds the decoded trials of a chunk of _TRIALS_PER_CHUNK starting at the
    source's position (the candidate z, its table term z0^2/2 sigma0^2, the
    uniform) and the index of the next unread one.  `close()`, or leaving a
    `with` block, consumes the trials read from the source, 16 bytes each.
    """

    __slots__ = ("rng", "z", "z0_term", "uniform", "next")

    def __init__(self, rng: RandomSource):
        self.rng = rng
        self.z = self.z0_term = self.uniform = []
        self.next = 0

    def _refill(self) -> None:
        """Skip the current chunk and decode the next one."""
        self.rng.skip(_TRIAL_BYTES * len(self.z))
        words = np.frombuffer(
            self.rng.peek(_TRIAL_BYTES * _TRIALS_PER_CHUNK), dtype="<u8"
        ).reshape(-1, 2)
        candidate, uniform = words[:, 0], words[:, 1]
        z0 = np.searchsorted(
            _BASE_CDF, (candidate >> np.uint64(11)) * (1.0 / (1 << 53)), side="right"
        )
        self.z = np.where(candidate & np.uint64(1), 1 + z0, -z0).tolist()
        self.z0_term = ((z0 * z0) * _BASE_INV_2S2).tolist()
        self.uniform = ((uniform >> np.uint64(11)) * (1.0 / (1 << 53))).tolist()
        self.next = 0

    def close(self) -> None:
        """Consume the trials read so far from the source."""
        self.rng.skip(_TRIAL_BYTES * self.next)
        self.z = self.z0_term = self.uniform = []
        self.next = 0

    def __enter__(self) -> "GaussianTrials":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def sample_gaussian_int(center: float, sigma: float, trials: GaussianTrials) -> int:
    """One discrete Gaussian sample around an arbitrary real center.

    Probabilities are proportional to exp(-(z-center)^2 / 2 sigma^2) over all
    integers, for 0 < sigma <= sigma0 = 2 (ValueError otherwise).  A fixed
    half-Gaussian table at sigma0 draws z0 >= 0 and a sign bit maps it to
    z = 1 + z0 or z = -z0, which covers every integer once; z is kept with
    probability exp(-(z-r)^2/2 sigma^2 + z0^2/2 sigma0^2) <= 1, r the
    fractional part of the center (Howe, Prest, Ricosset and Rossi,
    "Isochronous Gaussian Sampling", PQCrypto 2020).  Each trial is 16
    bytes of the cursor's source: a u64 whose top 53 bits index the table
    and whose low bit is the sign, then a u64 for the uniform.  The trials
    come from the cursor, decoded a chunk at a time, and the sample reads
    them from the cursor's next unread one on.
    """
    if not 0.0 < sigma <= _BASE_SIGMA:
        raise ValueError(f"sigma must lie in (0, {_BASE_SIGMA}], got {sigma}")
    base = math.floor(center)
    r = center - base
    inv_2s2 = 0.5 / (sigma * sigma)
    while True:
        zs, z0_terms, uniforms = trials.z, trials.z0_term, trials.uniform
        for j in range(trials.next, len(zs)):
            z = zs[j]
            x = (z - r) * (z - r) * inv_2s2 - z0_terms[j]
            if uniforms[j] < math.exp(-x):
                trials.next = j + 1
                return base + z
        trials._refill()


def hash_to_ring(data: bytes, params: RingParams) -> RingElement:
    """Deterministic map {0,1}* -> Z_q^N.

    Counter-mode expansion of SHA-256 (data || 32-bit LE counter); each
    32-bit LE word of the stream is rejection-sampled into [0, q), and the
    first N accepted words are the coefficients.  The N/8 blocks a full
    draw needs are hashed at once, then more while words were rejected.
    """
    N, q = params.N, params.q
    limit = ((1 << 32) // q) * q
    kept = np.empty(0, dtype=np.uint32)
    counter = 0
    while len(kept) < N:
        n_blocks = -(-(N - len(kept)) // 8)
        stream = b"".join(
            hashlib.sha256(data + c.to_bytes(4, "little")).digest()
            for c in range(counter, counter + n_blocks)
        )
        counter += n_blocks
        words = np.frombuffer(stream, dtype="<u4")
        kept = np.concatenate((kept, words[words < limit]))
    return RingElement(params, kept[:N])
