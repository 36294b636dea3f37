"""Solver for f*G - g*F = q over Z[x]/(x^n + 1).

Completes a short key pair (f, g) into a full trapdoor basis.  The recursion
projects the problem through the field norm down to integers, solves with an
extended gcd, lifts back up, and size-reduces the lifted solution against
(f, g) with Babai rounding in the Fourier domain.

Exact polynomial products go through `ring.karamul` (Kronecker substitution:
coefficients are packed into one big integer so CPython's native
multiplication does the work).
"""

from __future__ import annotations

import math

import numpy as np

from dwpt_auth.errors import NotInvertible
from dwpt_auth.ring import karamul


def galois_conjugate(a: list[int]) -> list[int]:
    """a(x) -> a(-x)."""
    return [c if i % 2 == 0 else -c for i, c in enumerate(a)]


def field_norm(a: list[int]) -> list[int]:
    """Project a from Z[x]/(x^n+1) to Z[y]/(y^(n/2)+1) via the field norm.

    With a = ae(x^2) + x*ao(x^2), the norm is ae^2 - y*ao^2.
    """
    half = len(a) // 2
    ae = a[0::2]
    ao = a[1::2]
    ae2 = karamul(ae, ae)
    ao2 = karamul(ao, ao)
    shifted = [-ao2[half - 1]] + ao2[: half - 1]
    return [ae2[i] - shifted[i] for i in range(half)]


def lift(a: list[int]) -> list[int]:
    """a(y) -> a(x^2) in the ring of twice the degree."""
    out = [0] * (2 * len(a))
    out[0::2] = a
    return out


def _bitsize(*polys: list[int]) -> int:
    """Bit length of the largest coefficient, and at least one 53-bit window."""
    return max(53, *(c.bit_length() for p in polys for c in (min(p), max(p))))


def fft_neg(a: np.ndarray) -> np.ndarray:
    """Evaluate at the primitive 2n-th roots e^(i*pi*(2k+1)/n)."""
    n = len(a)
    twist = np.exp(1j * np.pi * np.arange(n) / n)
    return n * np.fft.ifft(a * twist)


def ifft_neg(values: np.ndarray) -> np.ndarray:
    n = len(values)
    twist = np.exp(-1j * np.pi * np.arange(n) / n)
    return np.real(np.fft.fft(values) / n * twist)


def reduce_pair(f: list[int], g: list[int], F: list[int], G: list[int]) -> None:
    """Size-reduce (F, G) against (f, g) in place.

    Repeatedly subtracts k*(f, g) where k = round((F f* + G g*) / (f f* + g g*)),
    computed in the Fourier domain on 53-bit windows of the coefficients so
    arbitrarily large intermediate values stay within float precision.

    The quotient is computed at the scale of the windows, 2^(big - size)
    below its true size, where it is often below 1/2.  Before rounding it is
    scaled up by 2^extra, as far as that gap allows and no further than 50
    bits (so the int64 cast stays exact); k*(f, g) is then shifted by the
    remaining big - size - extra bits.  Each pass thus removes about 50 bits
    of (F, G) instead of rounding to zero and leaving it unreduced.
    """
    size = _bitsize(f, g)
    f_adj = np.array([c >> (size - 53) for c in f], dtype=np.float64)
    g_adj = np.array([c >> (size - 53) for c in g], dtype=np.float64)
    f_hat = fft_neg(f_adj)
    g_hat = fft_neg(g_adj)
    denom = f_hat * f_hat.conj() + g_hat * g_hat.conj()

    while True:
        big = _bitsize(F, G)
        if big < size:
            break
        F_adj = np.array([c >> (big - 53) for c in F], dtype=np.float64)
        G_adj = np.array([c >> (big - 53) for c in G], dtype=np.float64)
        F_hat = fft_neg(F_adj)
        G_hat = fft_neg(G_adj)
        numer = F_hat * f_hat.conj() + G_hat * g_hat.conj()
        quot = ifft_neg(numer / denom)
        extra = min(big - size, max(0, 50 - int(np.max(np.abs(quot))).bit_length()))
        k = np.rint(quot * 2.0**extra).astype(np.int64)
        if not k.any():
            break
        k_list = [int(c) for c in k]
        fk = karamul(f, k_list)
        gk = karamul(g, k_list)
        shift = big - size - extra
        for i in range(len(F)):
            F[i] -= fk[i] << shift
            G[i] -= gk[i] << shift


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(d, u, v) with u*a + v*b = d = gcd(a, b)."""
    old_r, r = a, b
    old_u, u = 1, 0
    old_v, v = 0, 1
    while r:
        quot = old_r // r
        old_r, r = r, old_r - quot * r
        old_u, u = u, old_u - quot * u
        old_v, v = v, old_v - quot * v
    if old_r < 0:
        old_r, old_u, old_v = -old_r, -old_u, -old_v
    return old_r, old_u, old_v


def ntru_solve(f: list[int], g: list[int], q: int) -> tuple[list[int], list[int]]:
    """Return (F, G) with f*G - g*F = q in Z[x]/(x^n + 1).

    Raises NotInvertible when the resultants of f and g share a factor that
    does not divide q; callers resample (f, g) on that outcome.
    """
    n = len(f)
    if n == 1:
        d, u, v = _xgcd(f[0], g[0])
        if d == 0 or q % d != 0:
            raise NotInvertible("constant-term gcd does not divide the modulus")
        scale = q // d
        return [-scale * v], [scale * u]
    fp = field_norm(f)
    gp = field_norm(g)
    Fp, Gp = ntru_solve(fp, gp, q)
    F = karamul(lift(Fp), galois_conjugate(g))
    G = karamul(lift(Gp), galois_conjugate(f))
    reduce_pair(f, g, F, G)
    return F, G
