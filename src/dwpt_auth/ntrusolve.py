"""Solver for f*G - g*F = q over Z[x]/(x^n + 1).

Completes a short key pair (f, g) into a full trapdoor basis.  The recursion
projects the problem through the field norm down to integers, solves with an
extended gcd (`math.gcd` and a modular inverse), lifts back up, and
size-reduces the lifted solution against (f, g) with Babai rounding in the
Fourier domain: one stacked transform of the (F, G) windows per pass, the
quotient rounded in Python.

Exact polynomial products go through `ring.karamul`: Kronecker substitution
(coefficients packed into one big integer for CPython's native multiply),
and the schoolbook sum at the deep levels, where `reduce_pair` multiplies
an (f, g) of thousands of bits by 50-bit quotients.
"""

from __future__ import annotations

import functools
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
    ae2 = karamul(a[0::2], a[0::2])
    ao2 = karamul(a[1::2], a[1::2])
    # y * ao^2 wraps its top coefficient around to -ao2[-1]
    return [ae2[0] + ao2[-1]] + [e - o for e, o in zip(ae2[1:], ao2)]


def lift(a: list[int]) -> list[int]:
    """a(y) -> a(x^2) in the ring of twice the degree."""
    out = [0] * (2 * len(a))
    out[0::2] = a
    return out


def _bitsize(*polys: list[int]) -> int:
    """Bit length of the largest coefficient, and at least one 53-bit window."""
    return max(53, *(c.bit_length() for p in polys for c in (min(p), max(p))))


@functools.cache
def _twist(n: int, inverse: bool) -> np.ndarray:
    """e^(i*pi*k/n) for k < n, or its conjugate for the inverse, read-only."""
    twist = np.exp((-1j if inverse else 1j) * np.pi * np.arange(n) / n)
    twist.setflags(write=False)
    return twist


def fft_neg(a: np.ndarray) -> np.ndarray:
    """Evaluate at the primitive 2n-th roots e^(i*pi*(2k+1)/n), along the
    last axis: each row of a stack is transformed as it would be alone."""
    n = a.shape[-1]
    return n * np.fft.ifft(a * _twist(n, False))


def ifft_neg(values: np.ndarray) -> np.ndarray:
    n = values.shape[-1]
    return np.real(np.fft.fft(values) / n * _twist(n, True))


def reduce_pair(f: list[int], g: list[int], F: list[int], G: list[int]) -> None:
    """Size-reduce (F, G) against (f, g) in place.

    Repeatedly subtracts k*(f, g) where k = round((F f* + G g*) / (f f* + g g*)),
    computed in the Fourier domain on 53-bit windows of the coefficients so
    arbitrarily large intermediate values stay within float precision.  The
    windows of f and g are transformed once per call, those of F and G once
    per pass, each pair as one (2, n) stack.

    The quotient is computed at the scale of the windows, 2^(big - size)
    below its true size, where it is often below 1/2.  Before rounding it is
    scaled up by 2^extra, as far as that gap allows and no further than 50
    bits; k*(f, g) is then shifted by the remaining big - size - extra bits.
    Each pass thus removes about 50 bits of (F, G) instead of rounding to
    zero and leaving it unreduced.  The quotient's few values are scaled and
    rounded (half to even) as Python floats.
    """
    size = _bitsize(f, g)
    f_hat, g_hat = fft_neg(
        np.array([[c >> (size - 53) for c in p] for p in (f, g)], dtype=np.float64)
    )
    f_conj, g_conj = f_hat.conj(), g_hat.conj()
    denom = f_hat * f_conj + g_hat * g_conj

    while True:
        big = _bitsize(F, G)
        if big < size:
            break
        F_hat, G_hat = fft_neg(
            np.array([[c >> (big - 53) for c in p] for p in (F, G)], dtype=np.float64)
        )
        quot = ifft_neg((F_hat * f_conj + G_hat * g_conj) / denom).tolist()
        extra = min(big - size, max(0, 50 - int(max(map(abs, quot))).bit_length()))
        scale = 2.0**extra
        k = [round(x * scale) for x in quot]
        if not any(k):
            break
        fk = karamul(f, k)
        gk = karamul(g, k)
        shift = big - size - extra
        for i in range(len(F)):
            F[i] -= fk[i] << shift
            G[i] -= gk[i] << shift


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(d, u, v) with u*a + v*b = d = gcd(a, b), for a, b >= 0: the pair
    extended Euclid ends on, with -b/2d < u <= b/2d when b > 0."""
    if b == 0:
        return a, 1, 0
    d = math.gcd(a, b)
    m = b // d
    u = pow(a // d, -1, m)
    if 2 * u > m:
        u -= m
    return d, u, (d - u * a) // b


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
    Fp, Gp = ntru_solve(field_norm(f), field_norm(g), q)
    F = karamul(lift(Fp), galois_conjugate(g))
    G = karamul(lift(Gp), galois_conjugate(f))
    reduce_pair(f, g, F, G)
    return F, G
