"""Ring arithmetic: transform correctness, sampling, hashing, serialization."""

import dataclasses
import hashlib
import math
import struct

import numpy as np
import pytest

from dwpt_auth import keyfiles, ring
from dwpt_auth.errors import DecodeError, NotInvertible, ParameterMismatch
from dwpt_auth.ibe import ENC_SIGMA
from dwpt_auth.ring import (
    GaussianTrials,
    IntegerPolynomial,
    RingElement,
    RingParams,
    TIERS,
    hash_to_ring,
    karamul,
    sample_gaussian_int,
    sample_gaussian_poly,
)
from dwpt_auth.rng import RandomSource
from test_rng import ReferenceStream


def random_element(params, rng):
    return RingElement(params, [rng.below(params.q) for _ in range(params.N)])


def products(a, *others):
    return [RingElement(a.params, row) for row in a.product_rows(*others)]


class TestParams:
    def test_tiers_are_valid(self):
        for name, p in TIERS.items():
            assert p.q % (2 * p.N) == 1, name
            assert p.N & (p.N - 1) == 0

    def test_widths_derive_from_N_and_q(self):
        assert [f.name for f in dataclasses.fields(RingParams)] == ["N", "q"]
        p = TIERS["test"]
        assert p.sigma_f == 1.17 * math.sqrt(p.q / (2 * p.N))
        assert p.sigma_extract == 1.5 * math.sqrt(p.q)

    def test_default_tier_modulus(self):
        p = TIERS["default"]
        assert p.N == 512
        assert p.q == 8380417  # prime, 1 mod 1024, fits int64 transforms

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(N=12, q=97),  # not a power of two
            dict(N=16, q=96),  # composite q
            dict(N=16, q=101),  # q != 1 mod 2N
            dict(N=2, q=5),  # N below 4 (5 = 1 mod 2N is prime)
            dict(N=16, q=2147483713),  # q >= 2^31
            dict(N=16, q=1),  # q = 1
            dict(N=16, q=0),  # q = 0
        ],
    )
    def test_invalid_params_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RingParams(**kwargs)

    def test_mismatched_params_refuse_to_mix(self):
        a = RingElement(TIERS["toy"], [1] * 16)
        b = RingElement(TIERS["test"], [1] * 64)
        with pytest.raises(ParameterMismatch):
            a + b


class TestArithmetic:
    @pytest.mark.parametrize("tier", ["toy", "test", "default"])
    def test_transform_matches_schoolbook(self, tier):
        """Dual-route check: fast transform vs the exact product, `karamul`."""
        p = TIERS[tier]
        rng = RandomSource(f"mul-{tier}")
        trials = 400 if p.N <= 64 else 60
        for _ in range(trials):
            a = random_element(p, rng)
            b = random_element(p, rng)
            exact = karamul(a.coeffs.tolist(), b.coeffs.tolist())
            assert a * b == RingElement(p, exact)

    def test_negacyclic_wraparound(self):
        p = TIERS["toy"]
        x = RingElement(p, [0, 1] + [0] * (p.N - 2))
        top = RingElement(p, [0] * (p.N - 1) + [1])
        prod = x * top  # x * x^(N-1) = x^N = -1
        assert prod == RingElement(p, [-1] + [0] * (p.N - 1))

    def test_ring_is_commutative_and_distributive(self):
        p = TIERS["test"]
        rng = RandomSource("laws")
        a, b, c = (random_element(p, rng) for _ in range(3))
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c

    @pytest.mark.parametrize("tier", ["toy", "test", "default"])
    def test_inverse(self, tier):
        p = TIERS[tier]
        rng = RandomSource(f"inv-{tier}")
        found = 0
        while found < 5:
            a = random_element(p, rng)
            try:
                ai = a.inverse()
            except NotInvertible:
                continue
            found += 1
            assert a * ai == RingElement(p, [1] + [0] * (p.N - 1))

    def test_zero_is_not_invertible(self):
        with pytest.raises(NotInvertible):
            RingElement(TIERS["toy"], [0] * 16).inverse()

    def test_centered_representative(self):
        p = TIERS["toy"]  # q = 97
        e = RingElement(p, [0, 1, 48, 49, 96] + [0] * 11)
        c = e.centered()
        assert list(c[:5]) == [0, 1, 48, -48, -1]

    def test_scale_matches_constant_mul(self):
        """A product by the constant polynomial 7 scales every coefficient."""
        p = TIERS["test"]
        rng = RandomSource("scale")
        a = random_element(p, rng)
        scaled = RingElement(p, a.coeffs.astype(np.int64) * 7)
        assert scaled == a * RingElement(p, [7] + [0] * (p.N - 1))


class TestWideModulus:
    """Arithmetic near the top of the modulus range: coefficients are stored
    in 32 bits, so a sum or a product that is not widened first overflows."""

    P = RingParams(16, 2147483489)  # prime, 1 mod 32, just under 2^31

    def elements(self):
        p, rng = self.P, RandomSource("wide-modulus")
        top = RingElement(p, [p.q - 1] * p.N)
        half = RingElement(p, [p.q // 2, p.q // 2 + 1] * (p.N // 2))
        return [top, half] + [random_element(p, rng) for _ in range(20)]

    def test_coefficients_are_stored_in_32_bits(self):
        for a in self.elements():
            assert a.coeffs.dtype.itemsize == 4

    def test_add_sub_against_python_integers(self):
        q = self.P.q
        elems = self.elements()
        for a, b in zip(elems, elems[1:] + elems[:1]):
            x, y = a.coeffs.tolist(), b.coeffs.tolist()
            assert (a + b).coeffs.tolist() == [(u + v) % q for u, v in zip(x, y)]
            assert (a - b).coeffs.tolist() == [(u - v) % q for u, v in zip(x, y)]

    @pytest.mark.parametrize("c", [-1, -7, 2, (1 << 31) - 1, 2147483488, 2147483490,
                                   -(1 << 70) - 3, (1 << 64) + 5])
    def test_scale_against_python_integers(self, c):
        """A product by the constant polynomial c mod q."""
        p, q = self.P, self.P.q
        c_ring = RingElement(p, [c % q] + [0] * (p.N - 1))
        for a in self.elements():
            assert (a * c_ring).coeffs.tolist() == [u * c % q for u in a.coeffs.tolist()]

    def test_product_against_karamul(self):
        p = self.P
        elems = self.elements()
        for a, b in zip(elems, elems[1:] + elems[:1]):
            exact = karamul(a.coeffs.tolist(), b.coeffs.tolist())
            assert (a * b).coeffs.tolist() == [c % p.q for c in exact]

    def test_centered_lies_in_half_open_interval(self):
        q = self.P.q
        for a in self.elements():
            c = a.centered()
            assert np.all(-q / 2 < c) and np.all(c <= q / 2)
            assert [int(x) % q for x in c] == a.coeffs.tolist()

    def test_serialization_round_trip(self):
        for a in self.elements():
            assert RingElement.from_bytes(a.to_bytes(), self.P) == a


class TestKeptTransform:
    @pytest.mark.parametrize("tier", ["toy", "test", "default"])
    def test_products_ignore_which_operand_keeps_it(self, tier):
        p = TIERS[tier]
        rng = RandomSource(f"kept-{tier}")
        for _ in range(5):
            a, b = random_element(p, rng), random_element(p, rng)
            plain = a * b
            assert plain == RingElement(p, karamul(a.coeffs.tolist(), b.coeffs.tolist()))
            a2, b2 = RingElement(p, a.coeffs), RingElement(p, b.coeffs)
            assert a2.keep_transform() * b2 == plain  # left operand only
            assert b2 * RingElement(p, a.coeffs).keep_transform() == plain  # right only
            assert a2 * b2.keep_transform() == plain  # both

    def test_leaves_the_element_unchanged(self):
        p = TIERS["test"]
        a = random_element(p, RandomSource("kept-views"))
        coeffs, digest, raw = a.coeffs.copy(), hash(a), a.to_bytes()
        assert a.keep_transform() is a
        assert np.array_equal(a.coeffs, coeffs)
        assert hash(a) == digest and a.to_bytes() == raw
        assert a == RingElement(p, coeffs) and RingElement(p, coeffs) == a

    def test_secret_keys_keep_no_transform(self):
        """h and the operator's s2 keep one, since every session multiplies
        by both (an encryption's nonce is transformed once, stacked with the
        identity point); vehicle keys keep none: a transform on every one
        would grow each wallet by a key's worth of memory."""
        from dwpt_auth.netsim import simulate_session
        from dwpt_auth.registration import ra_setup, register_vehicle

        ra = ra_setup(TIERS["default"], "kept-transform")
        creds = register_vehicle(ra, b"EV-kept", 2)
        usk = creds.entries[0].usk
        assert usk.h is ra.mpk.h
        assert simulate_session(ra, creds, n_pads=2, seed="kept").completed
        assert ra.mpk.h._ntt is not None
        for key in [e.usk for e in creds.entries]:
            assert key.s1._ntt is None and key.s2._ntt is None
        assert ra.cspa_usk.s1._ntt is None
        assert ra.cspa_usk.s2._ntt is not None


#: The widest modulus RingParams accepts (prime, = 1 mod 32, below 2^31),
#: where the butterfly bounds leave the least room.
WIDE = RingParams(16, 2147483489)


class TestStackedTransforms:
    @pytest.mark.parametrize("params", [*TIERS.values(), WIDE], ids=[*TIERS, "wide"])
    def test_products_match_mul_and_karamul(self, params):
        p = params
        rng = RandomSource(f"stacked-{p.N}-{p.q}")
        a = random_element(p, rng)
        others = [random_element(p, rng) for _ in range(3)]
        exact = [
            RingElement(p, [c % p.q for c in karamul(a.coeffs.tolist(), b.coeffs.tolist())])
            for b in others
        ]
        assert products(a, *others) == exact
        assert [a * b for b in others] == exact
        # Kept transforms on either side, and an operand repeated.
        kept = RingElement(p, a.coeffs).keep_transform()
        others[1].keep_transform()
        assert products(kept, *others) == exact
        assert products(a, *others) == exact
        assert products(a, a, a) == [a * a, a * a]

    def test_every_extreme_input_at_the_widest_modulus(self):
        """All 2^16 inputs with coefficients in {0, q - 1} survive a round
        trip either way: an unreduced sum that overflowed int64 would not."""
        N, q = WIDE.N, WIDE.q
        extremes = (np.arange(1 << N)[:, None] >> np.arange(N) & 1) * (q - 1)
        forward = ring._ntt_forward(extremes, N, q)
        assert np.array_equal(ring._ntt_inverse(forward, N, q), extremes)
        inverse = ring._ntt_inverse(extremes, N, q)
        assert np.array_equal(ring._ntt_forward(inverse, N, q), extremes)

    def test_mixed_params_rejected(self):
        a = random_element(TIERS["toy"], RandomSource("mix-a"))
        b = random_element(TIERS["toy"], RandomSource("mix-b"))
        c = random_element(TIERS["test"], RandomSource("mix-c"))
        with pytest.raises(ParameterMismatch):
            a.product_rows(b, c)
        with pytest.raises(ParameterMismatch):
            c * a

    @pytest.mark.parametrize("params", [*TIERS.values(), WIDE], ids=[*TIERS, "wide"])
    def test_stacked_transform_equals_rows(self, params):
        N, q = params.N, params.q
        rng = RandomSource(f"rows-{N}-{q}")
        stack = np.array([[rng.below(q) for _ in range(N)] for _ in range(4)])
        forward = ring._ntt_forward(stack, N, q)
        assert forward.shape == stack.shape
        for row, out in zip(stack, forward):
            assert np.array_equal(ring._ntt_forward(row, N, q), out)
            assert out.min() >= 0 and out.max() < q
        back = ring._ntt_inverse(forward, N, q)
        for row, out in zip(forward, back):
            assert np.array_equal(ring._ntt_inverse(row, N, q), out)
        assert np.array_equal(back, stack)
        three_d = stack.reshape(2, 2, N)
        assert np.array_equal(ring._ntt_forward(three_d, N, q), forward.reshape(2, 2, N))

    def test_unreduced_stages_fit_int64(self):
        """A pass may have radix up to 2^k, k = `_lazy_stages(q)`, since
        each output sums one product below q^2 per row of its matrix before
        the pass reduces: up to 2^9 at the default q, only 2 at the widest
        modulus.  The passes are radix 8 at most, and each fits int64."""
        assert ring._lazy_stages(TIERS["default"].q) >= 9
        assert ring._lazy_stages(WIDE.q) == 1
        for q in (TIERS["default"].q, WIDE.q):
            k = ring._lazy_stages(q)
            assert (q * q) << k < 1 << 63 <= (q * q) << (k + 1)
        radices = {"toy": [8, 2], "test": [8, 8], "default": [8, 8, 8], "wide": [2, 2, 2, 2]}
        for name, p in [*TIERS.items(), ("wide", WIDE)]:
            forward, inverse = ring._ntt_context(p.N, p.q)
            assert [m.shape[-1] for m in forward] == radices[name]
            assert [m.shape[-1] for m in inverse] == radices[name][::-1]
            for m in forward + inverse:
                blocks, R, _ = m.shape
                assert m.shape == (blocks, R, R) and blocks * R <= p.N
                assert R * p.q * p.q < 1 << 63
                assert m.dtype == np.int64 and m.min() >= 0 and m.max() < p.q

    @pytest.mark.parametrize(
        "params, rows", [(TIERS["toy"], 1), (TIERS["test"], 1), (WIDE, 1), (TIERS["default"], 2)],
        ids=["toy", "test", "wide", "default"],
    )
    def test_transform_is_evaluation_at_odd_powers_of_psi(self, params, rows):
        """Output i of the forward transform is a(psi^(2 brv(i) + 1)) mod q,
        brv reversing log2(N) bits, evaluated here with Python integers;
        the inverse takes those values back to a."""
        N, q = params.N, params.q
        bits = N.bit_length() - 1
        psi = ring._find_psi(N, q)
        rng = RandomSource(f"oracle-{N}-{q}")
        stack = [[rng.below(q) for _ in range(N)] for _ in range(rows)]
        expected = []
        for coeffs in stack:
            values = []
            for i in range(N):
                brv = int(format(i, f"0{bits}b")[::-1], 2)
                x, acc = pow(psi, 2 * brv + 1, q), 0
                for c in reversed(coeffs):
                    acc = (acc * x + c) % q
                values.append(acc)
            expected.append(values)
        assert ring._ntt_forward(np.array(stack), N, q).tolist() == expected
        assert ring._ntt_inverse(np.array(expected), N, q).tolist() == stack

    def test_shared_tables_are_read_only(self):
        """The arrays `functools.cache` shares across the process refuse
        in-place writes, so no caller can corrupt every later transform or
        sample."""
        forward, inverse = ring._ntt_context(TIERS["default"].N, TIERS["default"].q)
        support, cdf = ring._gauss_table(3.0)
        for table in (*forward, *inverse, support, cdf):
            with pytest.raises(ValueError, match="read-only"):
                table[...] = 0
            with pytest.raises(ValueError, match="read-only"):
                table += 1

    def test_one_default_session_makes_eight_transform_calls(self, monkeypatch):
        """Two encryptions and two decryptions, each one stacked forward and
        one stacked inverse transform; h, the operator's s2 and the
        operator's identity point keep their own, so the encryption of m1
        and the operator's decryption each transform one row, not two."""
        from dwpt_auth.netsim import simulate_session
        from dwpt_auth.registration import ra_setup, register_vehicle

        ra = ra_setup(TIERS["default"], "transform-calls")
        creds = register_vehicle(ra, b"EV-count", 2)
        calls = []
        for name in ("_ntt_forward", "_ntt_inverse"):
            real = getattr(ring, name)

            def counted(values, *args, _real=real, _name=name):
                calls.append((_name, 1 if np.ndim(values) == 1 else len(values)))
                return _real(values, *args)

            monkeypatch.setattr(ring, name, counted)
        # The first session also computes the operator's kept transforms of
        # s2 and of its identity point.
        assert simulate_session(ra, creds, n_pads=3, seed="count-0").completed
        assert len(calls) == 10
        calls.clear()
        assert simulate_session(ra, creds, n_pads=3, seed="count-1").completed
        forward = [rows for name, rows in calls if name == "_ntt_forward"]
        inverse = [rows for name, rows in calls if name == "_ntt_inverse"]
        # encrypt: r alone to the operator, r and the pseudonym's point
        # stacked; decrypt: u alone, then u and the EV's s2.
        assert sorted(forward) == [1, 1, 2, 2]
        # encrypt: r*h and r*t stacked (twice); decrypt: one product each.
        assert sorted(inverse) == [1, 1, 2, 2]


class TestGaussianSampling:
    def test_statistics(self):
        p = TIERS["default"]
        rng = RandomSource("gauss-stats")
        sigma = 3.0
        samples = np.concatenate(
            [sample_gaussian_poly(p, sigma, rng) for _ in range(200)]
        )
        assert samples.size == 102400
        assert abs(samples.mean()) < 0.05
        assert abs(samples.std() - sigma) < 0.05
        assert np.abs(samples).max() <= math.ceil(12 * sigma)

    def test_tiny_sigma_gives_zero_polynomial(self):
        p = TIERS["test"]
        rng = RandomSource("tiny")
        assert not sample_gaussian_poly(p, 0.05, rng).any()

    def test_deterministic_for_fixed_seed(self):
        p = TIERS["test"]
        a = sample_gaussian_poly(p, 2.5, RandomSource(99))
        b = sample_gaussian_poly(p, 2.5, RandomSource(99))
        assert a.dtype == np.int64 and a.shape == (p.N,)
        assert np.array_equal(a, b)

    def test_rows_are_consecutive_one_row_draws(self):
        """A k-row draw reads the source once, and gives the rows and the
        stream position of k one-row draws."""
        p = TIERS["test"]
        block_rng, row_rng = RandomSource("rows"), RandomSource("rows")
        block = sample_gaussian_poly(p, 1.5, block_rng, rows=3)
        assert block.dtype == np.int64 and block.shape == (3, p.N)
        for row in block:
            assert np.array_equal(row, sample_gaussian_poly(p, 1.5, row_rng))
        assert block_rng.position == row_rng.position == 3 * 8 * p.N

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ValueError):
            sample_gaussian_poly(TIERS["toy"], 0.0, RandomSource(0))

    # The encryption noise, keygen's width at each tier, and a width whose
    # cumulative table ends in three entries equal to 1.0.
    @pytest.mark.parametrize(
        "sigma",
        [ENC_SIGMA, *(p.sigma_f for p in TIERS.values()), 0.3],
        ids=["enc", *(f"sigma_f-{tier}" for tier in TIERS), "trailing-ones"],
    )
    @pytest.mark.parametrize("rows", [1, 3])
    @pytest.mark.parametrize("lead", [0, 1000, 1021])
    def test_threshold_draw_is_the_float_table_search(self, sigma, rows, lead):
        """Searching the integer thresholds with raw u64 words gives the
        samples that searching the float table with their top 53 bits as
        uniforms in [0, 1) gives, and reads the same bytes, at offsets on and
        across a chunk boundary."""
        p = TIERS["test"]
        tail = max(1, math.ceil(12.0 * sigma))
        support = np.arange(-tail, tail + 1)
        cdf = np.cumsum(np.exp(-(support.astype(np.float64) ** 2) / (2.0 * sigma * sigma)))
        cdf /= cdf[-1]
        n = rows * p.N
        raw = np.frombuffer(RandomSource("thresholds").bytes(lead + 8 * n)[lead:], dtype="<u8")
        expected = support[np.searchsorted(cdf, (raw >> np.uint64(11)) * 2.0**-53, side="right")]

        rng = RandomSource("thresholds")
        rng.skip(lead)
        got = sample_gaussian_poly(p, sigma, rng, rows=rows)
        assert np.array_equal(got.reshape(-1), expected)
        assert rng.position == lead + 8 * n
        _, thresholds = ring._gauss_table(float(sigma))
        assert len(thresholds) + np.count_nonzero(cdf == 1.0) == len(support)


def exact_discrete_gaussian_moments(center, sigma):
    """Mean, variance and fourth central moment of D_{Z, sigma, center}."""
    base = math.floor(center)
    z = np.arange(base - 40, base + 41, dtype=np.float64)
    w = np.exp(-((z - center) ** 2) / (2 * sigma * sigma))
    w /= w.sum()
    mean = float(w @ z)
    d = z - mean
    return mean, float(w @ d**2), float(w @ d**4)


class TestSampleGaussianInt:
    """The table-and-rejection base sampler of the extraction walk."""

    @pytest.mark.parametrize("sigma", [1.2, 1.5, 1.95])
    @pytest.mark.parametrize("center", [0.0, 0.25, 0.5, -3.7, 1e6 + 0.3])
    def test_moments_match_exact_distribution(self, sigma, center):
        n = 4000
        trials = GaussianTrials(RandomSource(f"base-{sigma}-{center}"))
        x = np.array([sample_gaussian_int(center, sigma, trials) for _ in range(n)], dtype=np.float64)
        mean, var, m4 = exact_discrete_gaussian_moments(center, sigma)
        # Four standard errors of the sample mean and the sample variance.
        assert abs(x.mean() - mean) < 4 * math.sqrt(var / n)
        assert abs(x.var() - var) < 4 * math.sqrt((m4 - var * var) / n)

    def test_same_seed_same_stream(self):
        draws = [
            [sample_gaussian_int(0.1 * i, 1.7, trials) for i in range(500)]
            for trials in (GaussianTrials(RandomSource("stream")) for _ in range(2))
        ]
        assert draws[0] == draws[1]
        assert all(isinstance(z, int) for z in draws[0])

    @pytest.mark.parametrize("sigma", [2.0001, 3.0, 0.0, -1.0])
    def test_width_outside_base_table_rejected(self, sigma):
        with pytest.raises(ValueError):
            sample_gaussian_int(0.5, sigma, GaussianTrials(RandomSource(0)))


class CraftedSource:
    """Crafted bytes behind the two calls a `GaussianTrials` cursor makes."""

    def __init__(self, data: bytes):
        self.data, self.pos = data, 0

    def peek(self, n):
        assert self.pos + n <= len(self.data)
        return self.data[self.pos : self.pos + n]

    def skip(self, n):
        self.pos += n


def candidate_word(z0, sign):
    """A u64 candidate that lands on table row z0 with the given sign bit."""
    thresholds = ring._BASE_THRESHOLDS
    if z0 == len(thresholds):
        return (1 << 64) - 2 + sign
    return (int(thresholds[z0 - 1]) if z0 else 0) + sign


def trial_bytes(trials):
    """(candidate word, uniform word) pairs as the 16-byte trials they are."""
    return b"".join(struct.pack("<QQ", c, u) for c, u in trials)


def crafted_draws(data, draws, monkeypatch):
    """Draw (center, sigma) pairs from the given bytes, followed by a
    stretch of a seeded stream, and from `ReferenceStream` over the same
    bytes; returns both draw lists, both byte counts, the reference's trial
    count and the number of exact tests taken.  The bytes are finite, so a
    sampler that rejects every trial fails instead of running on."""
    data += RandomSource("crafted-filler").bytes(2 * 16 * ring._TRIALS_PER_CHUNK)
    exact = []
    monkeypatch.setattr(ring, "_exp", lambda x: exact.append(x) or math.exp(x))
    source = CraftedSource(data)
    with GaussianTrials(source) as cursor:
        got = [sample_gaussian_int(c, s, cursor) for c, s in draws]
    ref = ReferenceStream(b"")
    ref.data = data
    want = [ref.gaussian_int(c, s) for c, s in draws]
    return got, want, source.pos, ref.pos, ref.trials, len(exact)


class TestLeafDrawEdges:
    """Crafted trials on both sides of the log-domain decision, each checked
    against the trial-by-trial definition in `ReferenceStream`."""

    def test_zero_uniform_rejected_where_exp_underflows(self, monkeypatch):
        """The last row with sign bit 1 is z = 18; at width 0.4 around 0 the
        acceptance probability exp(-976) is 0 in double precision, so a zero
        uniform must be rejected, although -ln 0 is infinite."""
        z0 = len(ring._BASE_THRESHOLDS)
        assert math.exp(-((z0 + 1) ** 2 / (2 * 0.4 * 0.4) - z0 * z0 * ring._BASE_INV_2S2)) == 0.0
        got, want, used, ref_used, ref_trials, exact = crafted_draws(
            trial_bytes([(candidate_word(z0, 1), 0)]), [(0.0, 0.4)], monkeypatch
        )
        assert got == want and used == ref_used
        assert ref_trials > 1 and exact >= 1

    def test_zero_uniform_accepted_where_exp_is_positive(self, monkeypatch):
        got, want, used, ref_used, ref_trials, exact = crafted_draws(
            trial_bytes([(candidate_word(3, 0), 0)]), [(0.25, 1.5)], monkeypatch
        )
        assert got == want == [-3] and used == ref_used == 16
        assert ref_trials == 1 and exact == 1

    @pytest.mark.parametrize("offset", range(-8, 9))
    def test_uniform_at_the_acceptance_probability(self, offset, monkeypatch):
        """Uniforms within 2^-50 of exp(-x), on both sides and on it: each
        falls inside the guard band, and the exact test decides."""
        z0, center, sigma = 2, 0.9, 1.9
        z, r = 1 + z0, center
        x = (z - r) * (z - r) * (0.5 / (sigma * sigma)) - z0 * z0 * ring._BASE_INV_2S2
        p = math.exp(-x)
        assert 0.5 <= p < 1  # so that p is a multiple of 2^-53 and u can equal it
        m = int(p * 2**53) + offset
        got, want, used, ref_used, ref_trials, exact = crafted_draws(
            trial_bytes([(candidate_word(z0, 1), m << 11)]), [(center, sigma)], monkeypatch
        )
        assert got == want and used == ref_used
        assert exact >= 1
        assert (ref_trials == 1) == (m * 2.0**-53 < p)

    @pytest.mark.parametrize("sign", [0, 1])
    @pytest.mark.parametrize("z0", range(ring._BASE_ROWS))
    def test_table_rows_and_sign_bits(self, z0, sign, monkeypatch):
        """Every row, up to the last one (17: the cumulative entries from
        z0 = 17 on are 1.0), with both sign bits, under a uniform of 0.5 and
        a uniform just above 0."""
        assert ring._BASE_ROWS == 18
        word = candidate_word(z0, sign)
        cursor = GaussianTrials(CraftedSource(trial_bytes([(word, 0)] * 256)))
        cursor._refill()
        assert cursor.z[0] == (1 + z0 if sign else -z0)
        for uniform in (1 << 63, 1 << 11):
            got, want, used, ref_used, _, _ = crafted_draws(
                trial_bytes([(word, uniform)] * 3),
                [(0.5, 2.0), (-0.75, 1.2), (10.1, 0.3)],
                monkeypatch,
            )
            assert got == want and used == ref_used

    def test_every_decision_exact_under_a_wide_guard(self, monkeypatch):
        """With G widened past any e, no trial is decided in the log domain;
        5,000 draws must still match the reference, draw for draw and byte
        for byte, with one exact test per trial."""
        monkeypatch.setattr(ring, "_GUARD", 1e6)
        draws = [(0.37 * i - 900.0, 1.2 + 0.8 * (i % 101) / 100) for i in range(5000)]
        data = RandomSource("wide-guard").bytes(48 * 16 * ring._TRIALS_PER_CHUNK)
        got, want, used, ref_used, ref_trials, exact = crafted_draws(data, draws, monkeypatch)
        assert got == want and used == ref_used
        assert exact == ref_trials > 5000


def reference_hash_to_ring(data, N, q):
    """Word-by-word rejection loop; returns the coefficients and the number
    of words rejected on the way."""
    limit = ((1 << 32) // q) * q
    coeffs, rejected, counter = [], 0, 0
    while len(coeffs) < N:
        block = hashlib.sha256(data + counter.to_bytes(4, "little")).digest()
        counter += 1
        for off in range(0, 32, 4):
            word = int.from_bytes(block[off : off + 4], "little")
            if word >= limit:
                rejected += 1
                continue
            coeffs.append(word % q)
            if len(coeffs) == N:
                break
    return coeffs, rejected


class TestHashToRing:
    def test_deterministic_and_in_range(self):
        p = TIERS["test"]
        a = hash_to_ring(b"payload", p)
        b = hash_to_ring(b"payload", p)
        assert a == b
        assert int(a.coeffs.max()) < p.q
        assert hash_to_ring(b"payloae", p) != a

    def test_uniformity_chi_square(self):
        """Coefficients over many hashes should fill [0, q) evenly."""
        p = TIERS["toy"]  # q = 97 bins
        counts = np.zeros(p.q, dtype=np.int64)
        for i in range(600):
            e = hash_to_ring(b"chi" + i.to_bytes(4, "little"), p)
            counts += np.bincount(e.coeffs, minlength=p.q)
        total = counts.sum()
        expected = total / p.q
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        # 96 degrees of freedom; this bound is ~4 sigma above the mean
        assert chi2 < 160.0

    def test_distinct_inputs_differ(self):
        p = TIERS["test"]
        seen = {hash_to_ring(i.to_bytes(4, "big"), p).coeffs.tobytes() for i in range(50)}
        assert len(seen) == 50

    def test_matches_word_by_word_reference(self):
        """The block-at-once draw equals the one-word-at-a-time loop it
        replaced, including inputs whose first N/8 blocks hold a rejected
        word (likely at the default tier, where 2^32 mod q is largest)."""
        rejected = 0
        for name, p in TIERS.items():
            for i in range(200):
                data = f"{name}-{i}".encode()
                coeffs, misses = reference_hash_to_ring(data, p.N, p.q)
                assert hash_to_ring(data, p).coeffs.tolist() == coeffs, (name, i)
                rejected += misses
        assert rejected > 0


class TestSerialization:
    @pytest.mark.parametrize("tier", ["toy", "test", "default"])
    def test_round_trip(self, tier):
        p = TIERS[tier]
        e = random_element(p, RandomSource(f"ser-{tier}"))
        extremes = RingElement(p, [0, p.q - 1] * (p.N // 2))
        for elem in (e, extremes):
            blob = elem.to_bytes()
            assert len(blob) == p.element_bytes == p.N * p.coeff_width
            # Reference: one minimal-width little-endian field per
            # coefficient, and nothing else: no N, no q.
            assert blob == b"".join(
                int(c).to_bytes(p.coeff_width, "little") for c in elem.coeffs
            )
            assert RingElement.from_bytes(blob, p) == elem

    @pytest.mark.parametrize("tier", ["toy", "test", "default"])
    def test_one_byte_short_or_long_rejected(self, tier):
        p = TIERS[tier]
        blob = random_element(p, RandomSource(f"len-{tier}")).to_bytes()
        for bad in (blob[:-1], blob + b"\x00"):
            with pytest.raises(DecodeError, match=f"^ring element of {len(bad)} bytes"):
                RingElement.from_bytes(bad, p)

    @pytest.mark.parametrize("tier", ["toy", "test", "default"])
    def test_decoded_element_is_the_constructed_one(self, tier):
        """from_bytes keeps the checked coefficients without reducing them
        again: equal to the `__init__`-built element, int32 and read-only."""
        p = TIERS[tier]
        for elem in (random_element(p, RandomSource(f"dec-{tier}")),
                     RingElement(p, [p.q - 1, 0] * (p.N // 2))):
            decoded = RingElement.from_bytes(elem.to_bytes(), p)
            assert decoded == elem and decoded.params is p
            assert decoded.coeffs.dtype == np.int32
            assert not decoded.coeffs.flags.writeable
            assert decoded._ntt is None
            with pytest.raises(ValueError):
                decoded.coeffs[0] = 1

    def test_header_mismatch_rejected(self):
        """No header is stored: an element of another tier is rejected by
        its length under the parameters the decoder is given."""
        e = RingElement(TIERS["toy"], [1] * 16)
        with pytest.raises(DecodeError):
            RingElement.from_bytes(e.to_bytes(), TIERS["test"])

    def test_truncated_rejected(self):
        e = RingElement(TIERS["toy"], [1] * 16)
        with pytest.raises(ValueError):
            RingElement.from_bytes(e.to_bytes()[:-1], TIERS["toy"])

    def test_out_of_range_coefficient_rejected(self):
        p = TIERS["toy"]
        blob = bytearray(RingElement(p, [0] * p.N).to_bytes())
        blob[0] = p.q  # q = 97 fits a byte
        with pytest.raises(ValueError):
            RingElement.from_bytes(bytes(blob), p)

    def test_wide_modulus_header_rejected(self, toy_authority):
        # q = 2147483713 is prime and 1 mod 32 but needs more than int64
        # butterflies allow; a container header naming it must not decode.
        blob = bytearray(keyfiles.authority_to_bytes(toy_authority))
        blob[7:15] = struct.pack("<Q", 2147483713)  # after magic(4), record type(1), N(2)
        with pytest.raises(DecodeError, match="bad ring parameters"):
            keyfiles.authority_from_bytes(bytes(blob))


class TestIntegerPolynomial:
    def test_exact_product_reduces_mod_x_n_plus_1(self):
        # (x^(n-1)) * x = x^n = -1
        n = 8
        a = IntegerPolynomial([0] * (n - 1) + [1])
        b = IntegerPolynomial([0, 1] + [0] * (n - 2))
        assert (a * b).coeffs == [-1] + [0] * (n - 1)

    def test_to_ring_reduces_mod_q(self):
        p = TIERS["toy"]
        poly = IntegerPolynomial([-1] + [0] * (p.N - 1))
        assert poly.to_ring(p) == RingElement(p, [p.q - 1] + [0] * (p.N - 1))

    def test_matches_ring_multiplication(self):
        p = TIERS["test"]
        rng = RandomSource("ipoly")
        a = IntegerPolynomial(sample_gaussian_poly(p, 4.0, rng))
        b = IntegerPolynomial(sample_gaussian_poly(p, 4.0, rng))
        assert (a * b).to_ring(p) == a.to_ring(p) * b.to_ring(p)
