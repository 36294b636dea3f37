"""Solver for f*G - g*F = q over Z[x]/(x^n + 1).

Completes a short key pair (f, g) into a full trapdoor basis.  The recursion
projects the problem through the field norm down to integers, solves with an
extended gcd (`math.gcd` and a modular inverse), lifts back up, and
size-reduces the lifted solution against (f, g) by Babai rounding: it
subtracts k*(f, g), k the rounded quotient (F f* + G g*) / (f f* + g g*).
Each degree takes one of two routes, chosen by n alone:

- below `_EXACT_BELOW` (n = 2, 4, 8), `reduce_exact` rounds the quotient
  once, exactly, in integers (Pornin and Prest, PKC 2019; NTRUSolve in the
  Falcon specification).  The tower identity p/d = p(x) d(-x) / N(d)(x^2)
  takes the denominator down the field norms to one positive integer, so
  the quotient is an integer polynomial over that integer.  Here (f, g)
  holds a few coefficients of 700 to 2,800 bits at the default tier, and
  the windowed loop took 34 to 110 passes of 50 bits a level.
- from `_EXACT_BELOW` up, `reduce_pair` rounds the quotient in the Fourier
  domain on 53-bit windows, one stacked transform of the (F, G) windows
  per pass, the quotient rounded in Python.  The exact route's tower
  products grow with n and cost more than the windows there.

Solutions differ by multiples of (f, g), and the routes may leave a deep
level at different ones.  The top levels still return one solution: their
coefficients fit the windows exactly, so the windowed loop ends on the
exactly rounded quotient from any start, short of a quotient within float
error of a half.

Exact polynomial products go through `ring.karamul`: Kronecker substitution
(coefficients packed into one big integer for CPython's native multiply),
and the schoolbook sum at the deep levels, where `reduce_pair` multiplies
an (f, g) of thousands of bits by 50-bit quotients.  Each lift, Fp(x^2)
times g(-x), is two half-size products (`lifted_product`).
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
    ae, ao = a[0::2], a[1::2]
    ae2 = karamul(ae, ae)
    ao2 = karamul(ao, ao)
    # y * ao^2 wraps its top coefficient around to -ao2[-1]
    return [ae2[0] + ao2[-1]] + [e - o for e, o in zip(ae2[1:], ao2)]


def adjoint(a: list[int]) -> list[int]:
    """a(1/x), the adjoint a*: its values are the conjugates of a's."""
    return [a[0]] + [-c for c in reversed(a[1:])]


def lifted_product(p: list[int], a: list[int]) -> list[int]:
    """p(x^2) * a(-x) in the ring of twice p's degree, as two half-size
    products: p * a_even into the even slots, -p * a_odd into the odd ones
    (a(-x) = a_even(x^2) - x * a_odd(x^2))."""
    out = [0] * (2 * len(p))
    out[0::2] = karamul(p, a[0::2])
    out[1::2] = [-c for c in karamul(p, a[1::2])]
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
    """Inverse of `fft_neg`, along the last axis, as the real part: the
    twist's product is taken in real arithmetic, each product rounded on
    its own, so no CPU fuses it into a multiply-add and moves a bit."""
    n = values.shape[-1]
    x, twist = np.fft.fft(values), _twist(n, True)
    return (x.real / n) * twist.real - (x.imag / n) * twist.imag


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


_EXACT_BELOW = 16  # the crossover measured on a default-tier keygen


def tower_divide(
    nums: list[list[int]], d: list[int]
) -> tuple[list[list[int]], int]:
    """(R, D) with R[i] / D = nums[i] / d exactly and D a positive integer,
    for d of positive values (such as f f* + g g*).

    d(x) d(-x) = N(d)(x^2), so p/d = p(x) d(-x) / N(d)(x^2): the even and
    odd halves of p(x) d(-x) are divided by N(d) one degree down, until the
    denominator is the last norm of the tower, one integer.
    """
    if len(d) == 1:
        return nums, d[0]
    conj = galois_conjugate(d)
    halves = []
    for p in nums:
        pc = karamul(p, conj)
        halves += (pc[0::2], pc[1::2])
    halves, D = tower_divide(halves, field_norm(d))
    out = []
    for even, odd in zip(halves[0::2], halves[1::2]):
        r = even + odd
        r[0::2], r[1::2] = even, odd
        out.append(r)
    return out, D


def babai_quotient(
    f: list[int], g: list[int], F: list[int], G: list[int]
) -> tuple[list[int], int]:
    """(R, D) with R / D = (F f* + G g*) / (f f* + g g*) exactly, D > 0."""
    f_adj, g_adj = adjoint(f), adjoint(g)
    num = [a + b for a, b in zip(karamul(F, f_adj), karamul(G, g_adj))]
    den = [a + b for a, b in zip(karamul(f, f_adj), karamul(g, g_adj))]
    (R,), D = tower_divide([num], den)
    return R, D


def _round_div(a: int, d: int) -> int:
    """a / d rounded to the nearest integer, an exact half to even, d > 0."""
    k, r = divmod(2 * a + d, 2 * d)
    return k - 1 if r == 0 and k % 2 else k


def reduce_exact(f: list[int], g: list[int], F: list[int], G: list[int]) -> None:
    """Size-reduce (F, G) against (f, g) in place with one exact Babai step.

    k is the quotient of `babai_quotient` rounded coefficient by
    coefficient, an exact half to even as `reduce_pair` rounds its floats;
    after F -= k*f and G -= k*g every coefficient of the remaining quotient
    lies in [-1/2, 1/2].

    Each of the tower's log n steps widens the numerators by the width of
    the denominator, which doubles from step to step, so the route pays
    only at the deepest levels.  On a default-tier
    keygen (shared 2-core Xeon VM, the best of 7 runs on each level's
    inputs) one reduction took, against `reduce_pair`: 0.80 against
    4.02 ms at n = 2, 1.13 against 2.98 at n = 4, 1.80 against 2.34 at
    n = 8, then 3.08 against 2.19 at n = 16, 5.65 against 1.79 at n = 32
    and 9.83 against 1.43 at n = 64; hence `_EXACT_BELOW` = 16.
    """
    R, D = babai_quotient(f, g, F, G)
    k = [_round_div(r, D) for r in R]
    fk = karamul(f, k)
    gk = karamul(g, k)
    for i in range(len(F)):
        F[i] -= fk[i]
        G[i] -= gk[i]


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
    # f(x) f(-x) = N(f)(x^2): the lifted pair solves the equation here.
    F = lifted_product(Fp, g)
    G = lifted_product(Gp, f)
    if n < _EXACT_BELOW:
        reduce_exact(f, g, F, G)
    else:
        reduce_pair(f, g, F, G)
    return F, G
