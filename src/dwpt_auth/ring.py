"""Arithmetic in R_q = Z_q[x]/(x^N + 1) and exactly in Z[x]/(x^N + 1).

Carrier types for every key, ciphertext, and hash-to-ring value in the
package, plus discrete Gaussian sampling and deterministic hashing of byte
strings into the ring.  Multiplication has two routes: a negacyclic
number-theoretic transform mod q (requires q ≡ 1 mod 2N, always true for
valid parameters) and an exact product over the integers, `karamul`, which
is the schoolbook sum below degree 32 and Kronecker substitution from
there up.  The exact route carries the trapdoor arithmetic and is the
reference oracle for the transform; the test suite holds the two bit-equal
mod q.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
from dataclasses import dataclass

import numpy as np

from dwpt_auth.errors import DecodeError, NotInvertible, ParameterMismatch
from dwpt_auth.rng import RandomSource

# int64 NTT passes need 2*q*q < 2**63; RingParams rejects larger q.
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

    @property
    def element_bytes(self) -> int:
        """Bytes of one serialized ring element: N coefficients, no header."""
        return self.N * self.coeff_width

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


#: Named parameter tiers: "toy" and "test" are the cheapest rings for keygen and
#: arithmetic checks (no session completes); "default" passed round-trip calibration.
TIERS = {
    "toy": RingParams(16, 97),
    "test": RingParams(64, 12289),
    "default": RingParams(512, 8380417),
}


# ---------------------------------------------------------------------------
# Negacyclic NTT machinery, cached per (N, q)


def _find_psi(N: int, q: int) -> int:
    """Primitive 2N-th root of unity mod q (exists since q = 1 mod 2N)."""
    exponent = (q - 1) // (2 * N)
    for candidate in range(2, q):
        psi = pow(candidate, exponent, q)
        if pow(psi, N, q) == q - 1:
            return psi
    raise ArithmeticError(f"no primitive 2N-th root of unity mod {q}")


@functools.cache
def _ntt_context(N: int, q: int):
    """The read-only pass matrices of the forward and the inverse transform,
    built from the twiddle tables psi^brv(i) and psi^-brv(i).

    A pass covers g = min(3, `_lazy_stages(q)`) bits of the index: the
    forward passes go from the top bit down, the inverse passes are the same
    in reverse order, and the last one has 1/N folded in.
    """
    psi, powers = _find_psi(N, q), [1]
    for _ in range(2 * N - 1):
        powers.append(powers[-1] * psi % q)
    powers = np.array(powers, dtype=np.int64)
    rev = np.zeros(1, dtype=np.int64)  # bit reversal on log2(N) bits
    while len(rev) < N:
        rev = np.concatenate((2 * rev, 2 * rev + 1))
    fwd, inv = powers[rev], powers[-rev]  # psi^-k = psi^(2N - k)
    bits = N.bit_length() - 1
    g = min(3, _lazy_stages(q))
    spans = [range(max(top - g, 0), top) for top in range(bits, 0, -g)]
    forward = [_pass_matrices(fwd, q, span[::-1], inverse=False) for span in spans]
    inverse = [_pass_matrices(inv, q, span, inverse=True) for span in spans[::-1]]
    inverse[-1] = inverse[-1] * pow(N, q - 2, q) % q
    for m in forward + inverse:
        m.setflags(write=False)
    return forward, inverse


def _pass_matrices(table: np.ndarray, q: int, order: range, inverse: bool) -> np.ndarray:
    """The (blocks, R, R) matrices, entries in [0, q), of the butterfly
    stages on the index bits `order`, one stage per bit in turn, where a
    transform's (..., N) stack viewed as (..., blocks, R, s) has those bits
    on the R axis: the stages run once on R unit rows."""
    N, low, R = len(table), min(order), 1 << len(order)
    v = (np.arange(N) >> low & (R - 1) == np.arange(R)[:, None]).astype(np.int64)
    for bit in order:
        h, t = N >> (bit + 1), 1 << bit
        pairs = v.reshape(R, h, 2 * t)
        lo, hi, w = pairs[..., :t], pairs[..., t:], table[h : 2 * h, None]
        new = (lo + hi, (lo - hi) * w) if inverse else (lo + hi * w, lo - hi * w)
        pairs[...] = np.concatenate(new, axis=-1) % q
    return np.ascontiguousarray(v.reshape(R, -1, R, 1 << low)[..., 0].transpose(1, 2, 0))


def _lazy_stages(q: int) -> int:
    """The largest k with 2^k * q * q < 2^63: a pass of radix 2^k or less
    sums at most 2^k products of values in [0, q) per output, so one int64
    matrix product and one reduction per pass never overflow."""
    k = 0
    while (q * q) << (k + 1) < 1 << 63:
        k += 1
    return k


def _run_passes(values, passes: list[np.ndarray], q: int) -> np.ndarray:
    """Apply each (blocks, R, R) pass matrix to the (..., blocks, R, s) view
    of a (..., N) stack of values in [0, q), reducing after each pass."""
    shape = np.shape(values)
    v = np.asarray(values, dtype=np.int64)
    for m in passes:
        v = np.matmul(m, v.reshape(*shape[:-1], *m.shape[:2], -1))
        v %= q
    return v.reshape(shape)


def _ntt_forward(values: np.ndarray, N: int, q: int) -> np.ndarray:
    """Cooley-Tukey NTT with the psi twist folded in, over the last axis of
    a (..., N) stack of values in [0, q); output bit-reversed and reduced."""
    return _run_passes(values, _ntt_context(N, q)[0], q)


def _ntt_inverse(values: np.ndarray, N: int, q: int) -> np.ndarray:
    """Gentleman-Sande inverse of `_ntt_forward`, over the last axis of a
    (..., N) stack of values in [0, q)."""
    return _run_passes(values, _ntt_context(N, q)[1], q)


# ---------------------------------------------------------------------------
# Exact negacyclic product over Z

_SCHOOLBOOK_BELOW = 32  # the crossover measured on a default-tier keygen


def karamul(a: list[int], b: list[int]) -> list[int]:
    """Exact negacyclic product (mod x^n + 1).

    Below degree `_SCHOOLBOOK_BELOW`, the schoolbook sum, each product at
    its operands' sizes: a Kronecker slot fits the product, so a wide f
    times a narrow quotient would be one wide-by-wide multiply.  From there
    up, Kronecker substitution: coefficients go into byte-aligned slots,
    each biased by half the slot range so it packs as unsigned bytes; the
    bias is taken back out of the packed integer in one subtraction, and
    the product is unpacked the same way, from one `to_bytes`.
    """
    n = len(a)
    if n < _SCHOOLBOOK_BELOW:
        out = [0] * n
        for i, x in enumerate(a):
            for j in range(n - i):
                out[i + j] += x * b[j]
            for j in range(n - i, n):
                out[i + j - n] -= x * b[j]
        return out
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
    arithmetic widens to int64 before it can leave that range.  `__init__`
    takes coefficients of any range and is the one place that reduces mod
    q; `from_bytes` checks its coefficients are in [0, q) and skips that.
    """

    __slots__ = ("params", "coeffs", "_ntt")

    def __init__(self, params: RingParams, coeffs):
        arr = np.asarray(coeffs, dtype=np.int64)
        if arr.shape != (params.N,):
            raise ValueError(f"expected {params.N} coefficients, got {arr.shape}")
        self._keep(params, arr % params.q)

    def _keep(self, params: RingParams, canonical: np.ndarray) -> "RingElement":
        """Store N coefficients already in [0, q) as read-only int32; an
        int32 row of a read-only block is kept as it is, not copied."""
        arr = canonical.astype(np.int32, copy=False)
        arr.setflags(write=False)
        self.params = params
        self.coeffs = arr
        self._ntt = None
        return self

    @classmethod
    def rows(cls, params: RingParams, block: np.ndarray) -> list["RingElement"]:
        """One element per row of a (K, N) int32 block of coefficients
        already in [0, q), which is made read-only: each element keeps its
        row of the block, not a copy, so K elements are one allocation."""
        block.setflags(write=False)
        return [cls.__new__(cls)._keep(params, row) for row in block]

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

    def keep_transform(self) -> "RingElement":
        """Store the forward transform for every later product; only for
        elements multiplied more than once, since it doubles their memory."""
        if self._ntt is None:
            self._ntt = _ntt_forward(self.coeffs, self.params.N, self.params.q)
        return self

    def product_rows(self, *others: "RingElement") -> np.ndarray:
        """Coefficients in [0, q) of self * other for each of others, one
        int64 row each, from one stacked forward transform of the operands
        that keep none and one stacked inverse."""
        for other in others:
            self._check(other)
        N, q = self.params.N, self.params.q
        operands = (self, *others)
        fresh = [e.coeffs for e in operands if e._ntt is None]
        if fresh:
            computed = iter(_ntt_forward(np.stack(fresh), N, q))
        points = [next(computed) if e._ntt is None else e._ntt for e in operands]
        return _ntt_inverse(np.stack(points[1:]) * points[0] % q, N, q)

    def __mul__(self, other: "RingElement") -> "RingElement":
        return RingElement(self.params, self.product_rows(other)[0])

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
        """The N coefficients, each `coeff_width` bytes little-endian; N and
        q are the carrier's to state (a container header, or the master
        public key of a session)."""
        # q < 2^31, so each coefficient is its low `width` bytes as a LE u32.
        width = self.params.coeff_width
        return self.coeffs.astype("<u4").view(np.uint8).reshape(-1, 4)[:, :width].tobytes()

    @classmethod
    def from_bytes(cls, data: bytes, params: RingParams) -> "RingElement":
        """Inverse of to_bytes; DecodeError on a length other than
        `params.element_bytes` or a coefficient outside [0, q)."""
        if len(data) != params.element_bytes:
            raise DecodeError(
                f"ring element of {len(data)} bytes, expected {params.element_bytes}"
            )
        N, width = params.N, params.coeff_width
        padded = np.zeros((N, 4), dtype=np.uint8)
        padded[:, :width] = np.frombuffer(data, dtype=np.uint8).reshape(N, width)
        coeffs = padded.view("<u4").reshape(N)
        if (coeffs >= params.q).any():
            raise DecodeError("coefficient outside [0, q)")
        return cls.__new__(cls)._keep(params, coeffs)


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

def _thresholds(cdf: np.ndarray) -> np.ndarray:
    """Per cumulative entry c < 1, the u64 threshold ceil(c * 2^53) << 11:
    c <= (w >> 11) / 2^53 exactly when the word w is >= it, so searching
    the thresholds with raw words searches the table with their top 53 bits
    as uniforms in [0, 1).  Entries equal to 1.0 never count and are left
    out."""
    thresholds = np.ceil(cdf[cdf < 1.0] * 2.0**53).astype(np.uint64) << np.uint64(11)
    thresholds.setflags(write=False)
    return thresholds


@functools.cache
def _gauss_table(sigma: float):
    """Support [-tail, tail] and the thresholds of its cumulative table."""
    tail = max(1, math.ceil(12.0 * sigma))
    support = np.arange(-tail, tail + 1, dtype=np.int64)
    weights = np.exp(-(support.astype(np.float64) ** 2) / (2.0 * sigma * sigma))
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    support.setflags(write=False)
    return support, _thresholds(cdf)


def sample_gaussian_poly(
    params: RingParams, sigma: float, rng: RandomSource, rows: int = 1
) -> np.ndarray:
    """N iid samples from the centered discrete Gaussian of width sigma, as
    an int64 array of coefficients; with rows > 1, a (rows, N) array whose
    rows are what `rows` one-row draws in a row would give, read at once.

    Cumulative-table inversion of one u64 LE word per sample, the tail cut
    at 12*sigma; deterministic for a fixed random source.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    support, thresholds = _gauss_table(float(sigma))
    raw = np.frombuffer(rng.bytes(8 * rows * params.N), dtype="<u8")
    out = support[np.searchsorted(thresholds, raw, side="right")]
    return out if rows == 1 else out.reshape(rows, params.N)


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
_BASE_THRESHOLDS = _thresholds(_BASE_CDF)
# A candidate word's table row z0 is the number of thresholds at or below
# it; its signed candidate, -z0 for sign bit 0 or 1 + z0 for sign bit 1, is
# entry z0 + _BASE_ROWS * sign of one lookup row.
_BASE_ROWS = len(_BASE_THRESHOLDS) + 1
_BASE_SIGNED = np.concatenate((-np.arange(_BASE_ROWS), 1 + np.arange(_BASE_ROWS)))

# A trial of the base sampler reads two u64 words: the candidate, then the
# uniform of the acceptance test.  Only that test depends on the center and
# the width, so trials are decoded from the stream a chunk at a time.
_TRIAL_BYTES = 16
_TRIALS_PER_CHUNK = 256

# Half-width of the band around a trial's acceptance bound inside which the
# leaf draw falls back to the exact test (see sample_gaussian_int).
_GUARD = 1e-9

# Bound once: the leaf draw runs 2N times per extracted key.
_floor = math.floor
_exp = math.exp


class GaussianTrials:
    """Cursor over the base sampler's trials in one random source.

    Holds the trials of a chunk of _TRIALS_PER_CHUNK starting at the
    source's position, decoded into two lists, the signed candidate z and
    its acceptance bound z0^2/2 sigma0^2 - ln u - _GUARD (NaN where the
    uniform u is 0), and the uniforms as a numpy array for the exact test;
    and the index of the next unread trial.  `close()`, or leaving a `with`
    block, consumes the trials read from the source, 16 bytes each.
    """

    __slots__ = ("rng", "z", "bound", "uniform", "next")

    def __init__(self, rng: RandomSource):
        self.rng = rng
        self.z = self.bound = []
        self.uniform = None
        self.next = 0

    def _refill(self) -> None:
        """Skip the current chunk and decode the next one."""
        self.rng.skip(_TRIAL_BYTES * len(self.z))
        words = np.frombuffer(
            self.rng.peek(_TRIAL_BYTES * _TRIALS_PER_CHUNK), dtype="<u8"
        ).reshape(-1, 2)
        candidate = words[:, 0]
        z0 = np.searchsorted(_BASE_THRESHOLDS, candidate, side="right")
        sign = (candidate & np.uint64(1)).astype(np.intp)
        self.z = _BASE_SIGNED[z0 + _BASE_ROWS * sign].tolist()
        u = (words[:, 1] >> np.uint64(11)) * (1.0 / (1 << 53))
        ln_u = np.log(u, out=np.full_like(u, np.nan), where=u > 0.0)
        self.bound = ((z0 * z0) * _BASE_INV_2S2 - ln_u - _GUARD).tolist()
        self.uniform = u
        self.next = 0

    def close(self) -> None:
        """Consume the trials read so far from the source."""
        self.rng.skip(_TRIAL_BYTES * self.next)
        self.z = self.bound = []
        self.uniform = None
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
    and whose low bit is the sign, then a u64 for the uniform u.  The
    trials come from the cursor, decoded a chunk at a time, and the sample
    reads them from the cursor's next unread one on.

    The decision is taken in the log domain.  With e = (z-r)^2/2 sigma^2 and
    t0 = z0^2/2 sigma0^2, the exact test u < exp(-(e - t0)) holds, in real
    numbers, when e < t0 - ln u.  The cursor holds each trial's bound
    l = t0 - ln u - G, G = _GUARD = 1e-9: the trial is kept when e < l,
    dropped when e > l + 2G, and only in between decided by the exact test
    itself.  Both forms start from the same double e, and near the boundary
    every term is below 80 (t0 <= 17^2/8, -ln u <= 53 ln 2); so the rounding
    of ln u (a few ulp), of exp (one ulp) and of the subtractions moves
    either form less than 1e-13 from the real comparison, four orders of
    magnitude inside G, and every decision is the exact test's.  A zero
    uniform (probability 2^-53) has a NaN bound, fails both comparisons
    and reaches the exact test, which rejects it where exp underflows to 0
    (e - t0 above about 745, which needs sigma below about 0.46).
    """
    if not 0.0 < sigma <= _BASE_SIGMA:
        raise ValueError(f"sigma must lie in (0, {_BASE_SIGMA}], got {sigma}")
    base = _floor(center)
    r = center - base
    inv_2s2 = 0.5 / (sigma * sigma)
    band = 2.0 * _GUARD
    zs, bounds = trials.z, trials.bound
    j = trials.next
    while True:
        try:
            z = zs[j]
        except IndexError:
            trials._refill()
            zs, bounds = trials.z, trials.bound
            j = 0
            z = zs[0]
        d = z - r
        e = d * d * inv_2s2
        bound = bounds[j]
        j += 1
        if e < bound:
            break
        if not e > bound + band:
            z0 = z - 1 if z > 0 else -z
            if trials.uniform[j - 1] < _exp(-(e - z0 * z0 * _BASE_INV_2S2)):
                break
    trials.next = j
    return base + z


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
