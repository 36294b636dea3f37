"""Tower-field solver for the f*G - g*F = q lattice completion."""

import warnings
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from dwpt_auth import ntrusolve, ring
from dwpt_auth.errors import NotInvertible
from dwpt_auth.ibe import master_key_gen
from dwpt_auth.ntrusolve import (
    field_norm,
    galois_conjugate,
    lift,
    ntru_solve,
    reduce_pair,
)
from dwpt_auth.ring import TIERS, IntegerPolynomial, karamul, sample_gaussian_poly
from dwpt_auth.rng import RandomSource


def naive_negacyclic(a, b):
    n = len(a)
    out = [0] * n
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            k = i + j
            if k < n:
                out[k] += ai * bj
            else:
                out[k - n] -= ai * bj
    return out


class TestKaramul:
    def test_matches_naive_small(self):
        rng = RandomSource("km-small")
        for _ in range(50):
            n = 8
            a = [rng.below(2001) - 1000 for _ in range(n)]
            b = [rng.below(2001) - 1000 for _ in range(n)]
            assert karamul(a, b) == naive_negacyclic(a, b)

    def test_matches_naive_large_coefficients(self):
        rng = RandomSource("km-big")
        n = 16
        a = [rng.below(1 << 200) - (1 << 199) for _ in range(n)]
        b = [rng.below(1 << 200) - (1 << 199) for _ in range(n)]
        assert karamul(a, b) == naive_negacyclic(a, b)

    def test_matches_integer_polynomial_route(self):
        # A Gaussian key-sized pair at the test tier (N=64): the exact
        # product over Z agrees with the naive loop, and reducing it mod q
        # agrees with the NTT product in R_q.
        p = TIERS["test"]
        rng = RandomSource("km-ipoly")
        f = IntegerPolynomial(sample_gaussian_poly(p, 5.0, rng))
        g = IntegerPolynomial(sample_gaussian_poly(p, 5.0, rng))
        fg = f * g
        assert fg.coeffs == karamul(f.coeffs, g.coeffs)
        assert fg.coeffs == naive_negacyclic(f.coeffs, g.coeffs)
        assert fg.to_ring(p) == f.to_ring(p) * g.to_ring(p)

    def test_degree_one(self):
        assert karamul([3], [4]) == [12]

    @pytest.mark.parametrize("n", [1, 2, 4, 8, 16, 32])
    @settings(max_examples=20, deadline=None, database=None, derandomize=True)
    @given(a_bits=st.integers(1, 1500), b_bits=st.integers(1, 1500))
    @example(a_bits=1450, b_bits=1450)
    @example(a_bits=1450, b_bits=50)  # reduce_pair: a wide f times a quotient
    def test_both_routes_match_naive(self, n, a_bits, b_bits):
        """Signed coefficients of any widths, balanced or not, at every
        degree on both sides of the schoolbook crossover: the product as
        karamul routes it, then with the crossover moved so that each
        degree goes by Kronecker substitution (16 and 32 included) and then
        by the schoolbook sum."""
        rng = RandomSource(f"km-routes-{n}-{a_bits}-{b_bits}")
        a = [rng.below(1 << a_bits) - (1 << (a_bits - 1)) for _ in range(n)]
        b = [rng.below(1 << b_bits) - (1 << (b_bits - 1)) for _ in range(n)]
        expected = naive_negacyclic(a, b)
        assert karamul(a, b) == expected
        for crossover in (1, 64):
            with mock.patch.object(ring, "_SCHOOLBOOK_BELOW", crossover):
                assert karamul(a, b) == expected


class TestTowerMaps:
    def test_galois_conjugate_negates_odd_terms(self):
        assert galois_conjugate([1, 2, 3, 4]) == [1, -2, 3, -4]

    def test_conjugate_is_evaluation_at_minus_x(self):
        # f(x) * f(-x) must land in the even subring
        rng = RandomSource("conj")
        f = [rng.below(41) - 20 for _ in range(16)]
        prod = karamul(f, galois_conjugate(f))
        assert all(c == 0 for c in prod[1::2])

    def test_field_norm_identity(self):
        """N(f) evaluated at x^2 equals f(x) * f(-x) in the big ring."""
        rng = RandomSource("norm")
        for _ in range(20):
            f = [rng.below(21) - 10 for _ in range(16)]
            nf = field_norm(f)
            assert lift(nf) == karamul(f, galois_conjugate(f))

    def test_lift_interleaves(self):
        assert lift([5, 6]) == [5, 0, 6, 0]

    def test_norm_halves_degree(self):
        f = [1, 2, 3, 4, 5, 6, 7, 8]
        assert len(field_norm(f)) == 4


def solve_some_pair(params, rng):
    while True:
        f = IntegerPolynomial(sample_gaussian_poly(params, params.sigma_f, rng))
        g = IntegerPolynomial(sample_gaussian_poly(params, params.sigma_f, rng))
        try:
            F, G = ntru_solve(f.coeffs, g.coeffs, params.q)
        except NotInvertible:
            continue
        return f.coeffs, g.coeffs, F, G


class TestReducePair:
    def test_preserves_determinant_while_shrinking(self):
        """Adding T*(f,g) to a solution and reducing recovers a small one."""
        p = TIERS["toy"]
        rng = RandomSource("reduce")
        f, g, F, G = solve_some_pair(p, rng)
        T = [rng.below(1 << 61) - (1 << 60) for _ in range(p.N)]
        F2 = [a + b for a, b in zip(F, karamul(T, f))]
        G2 = [a + b for a, b in zip(G, karamul(T, g))]
        before = max(abs(c) for c in F2 + G2)
        reduce_pair(f, g, F2, G2)
        diff = [a - b for a, b in zip(karamul(f, G2), karamul(g, F2))]
        assert diff == [p.q] + [0] * (p.N - 1)
        assert max(abs(c) for c in F2 + G2) < before

    def test_every_level_reduced_to_the_size_of_f_g(self, monkeypatch):
        """At each level of the recursion the lifted (F, G) comes out of
        reduce_pair within a byte of (f, g)'s bit size, so no level lifts an
        oversized solution into the next."""
        def bits(*polys):
            return max(abs(c).bit_length() for poly in polys for c in poly)

        sizes = {}
        real = ntrusolve.reduce_pair

        def recording(f, g, F, G):
            real(f, g, F, G)
            sizes[len(f)] = (bits(f, g), bits(F, G))

        monkeypatch.setattr(ntrusolve, "reduce_pair", recording)
        p = TIERS["test"]
        solve_some_pair(p, RandomSource("reduce-levels"))
        assert sorted(sizes) == [2, 4, 8, 16, 32, 64]
        for n, (key_bits, solution_bits) in sizes.items():
            assert solution_bits <= key_bits + 8, (n, key_bits, solution_bits)

    def test_exact_multiple_reduces_to_zero_value(self):
        p = TIERS["toy"]
        rng = RandomSource("reduce-zero")
        f = sample_gaussian_poly(p, p.sigma_f, rng).tolist()
        g = sample_gaussian_poly(p, p.sigma_f, rng).tolist()
        big = [rng.below(1 << 40) for _ in range(p.N)]
        F2, G2 = karamul(big, f), karamul(big, g)
        reduce_pair(f, g, F2, G2)
        assert karamul(f, G2) == karamul(g, F2)


class TestSolve:
    @pytest.mark.parametrize("tier", ["toy", "test"])
    def test_ntru_identity(self, tier):
        p = TIERS[tier]
        rng = RandomSource(f"solve-{tier}")
        solved = 0
        while solved < 3:
            f = IntegerPolynomial(sample_gaussian_poly(p, p.sigma_f, rng))
            g = IntegerPolynomial(sample_gaussian_poly(p, p.sigma_f, rng))
            try:
                F, G = ntru_solve(f.coeffs, g.coeffs, p.q)
            except NotInvertible:
                continue
            solved += 1
            fg = karamul(f.coeffs, G)
            gf = karamul(g.coeffs, F)
            diff = [a - b for a, b in zip(fg, gf)]
            assert diff == [p.q] + [0] * (p.N - 1)

    def test_solution_is_reduced(self):
        """The completion should be comparable in size to q, not astronomically larger."""
        p = TIERS["test"]
        rng = RandomSource("solve-size")
        while True:
            f = IntegerPolynomial(sample_gaussian_poly(p, p.sigma_f, rng))
            g = IntegerPolynomial(sample_gaussian_poly(p, p.sigma_f, rng))
            try:
                F, G = ntru_solve(f.coeffs, g.coeffs, p.q)
            except NotInvertible:
                continue
            break
        assert max(abs(c) for c in F + G) < 60 * p.q

    def test_default_keygen_raises_no_warning(self):
        """The scaled Babai quotient stays inside int64: no numpy overflow
        warning on a cast, at the tier the CLI sets up by default."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for i in range(4):
                master_key_gen(TIERS["default"], RandomSource(f"keygen-clean-{i}"))

    def test_even_resultants_are_unsolvable(self):
        """Res(f, x^n + 1), the field norm of f down to degree 1, is f(1)
        mod 2.  So with f(1) and g(1) both even the resultants' gcd is even,
        cannot divide the odd q, and the solver raises: the fact keygen's
        parity rejection rests on."""
        p = TIERS["test"]
        rng = RandomSource("even-resultants")
        unsolvable = 0
        while unsolvable < 4:
            f = sample_gaussian_poly(p, p.sigma_f, rng).tolist()
            g = sample_gaussian_poly(p, p.sigma_f, rng).tolist()
            norm = f
            while len(norm) > 1:
                norm = field_norm(norm)
            assert (norm[0] - sum(f)) % 2 == 0
            if sum(f) % 2 or sum(g) % 2:
                continue
            with pytest.raises(NotInvertible):
                ntru_solve(f, g, p.q)
            unsolvable += 1

    def test_base_case_unsolvable_pair(self):
        # gcd(0, 0) = 0 cannot divide q
        with pytest.raises(NotInvertible):
            ntru_solve([0], [0], 97)

    def test_base_case_direct(self):
        F, G = ntru_solve([1], [3], 97)
        assert 1 * G[0] - 3 * F[0] == 97
