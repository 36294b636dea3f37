"""Release gate: the seven checks this package must pass before shipping.

Each check is one test; the terminal summary hook in conftest.py prints one
PASS/FAIL line per check at the end of the run. Gates 1-3 are pure closed-form
accounting and must finish in under a second each; gates 4-7 exercise the
lattice crypto and the simulator and take a few seconds apiece.
"""

from __future__ import annotations

import base64
import hashlib
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import GATE_RESULTS, copy_credentials
from dwpt_auth.ibe import (
    decrypt,
    encrypt,
    extract,
    identity_point,
    master_key_gen,
    norm_bound,
    sign,
    verify,
)
from dwpt_auth.netsim import (
    SCENARIOS,
    TimingModel,
    cost_first_pad,
    pad_length_m,
    run_adversary,
    sending_time_us,
    simulate_session,
)
from dwpt_auth.protocol import NOMINAL_SIZES
from dwpt_auth.registration import register_vehicle, storage_estimate
from dwpt_auth.ring import TIERS, RingElement, karamul
from dwpt_auth.rng import RandomSource
from dwpt_auth.symcrypto import HashChain

# Reference pad lengths in metres, speeds (km/h) by chain length, frozen from
# the figures this model reproduces. The closed form lands a systematic ~0.3%
# below these rounded targets; the gate allows 1% relative error per cell.
PAD_COUNTS = (10, 50, 100, 150, 200)
REFERENCE_PAD_LENGTH_M = {
    10: (0.79, 0.83, 0.88, 0.93, 0.98),
    30: (2.38, 2.50, 2.65, 2.80, 2.95),
    50: (3.97, 4.17, 4.42, 4.67, 4.92),
    70: (5.56, 5.84, 6.19, 6.54, 6.89),
    90: (7.14, 7.50, 7.95, 8.40, 8.85),
    110: (8.73, 9.17, 9.72, 10.27, 10.82),
    130: (10.32, 10.83, 11.49, 12.14, 12.79),
}

FIRST_PAD_KINDS = ("m1", "m2", "m3", "m4", "m5", "m6", "m7")


@pytest.fixture(scope="module")
def gate_vehicle(default_authority):
    # Distinctive id so the transcript scans in gate 6 cannot hit by accident.
    return register_vehicle(default_authority, b"EV-GATE-4419", 6)


def test_gate_1_message_cost_table():
    started = time.perf_counter()
    tm = TimingModel.rounded_table()

    expected_ms = {
        "m1": Fraction("139.36"),
        "m2": Fraction("139.36"),
        "m3": Fraction("0.69"),
        "m4": Fraction("0.33"),
        "m5": Fraction("0.33"),
        "m6": Fraction("0.69"),
    }
    for kind, want in expected_ms.items():
        assert tm.message_cost_ms(kind, 1) == want, kind

    for n in range(1, 201):
        assert cost_first_pad(n, tm) == Fraction("281.12") + n * Fraction("0.36")

    expected_us = (10.24, 10.24, 10.24, 7.68, 7.68, 2.56, 9.48)
    for kind, want in zip(FIRST_PAD_KINDS, expected_us):
        assert abs(float(sending_time_us(kind)) - want) <= 0.01, kind

    assert sum(NOMINAL_SIZES[k] for k in FIRST_PAD_KINDS) == 640
    # n chain-bearing messages plus n-1 pad-to-pad forwards after the setup.
    setup_bytes = sum(NOMINAL_SIZES[k] for k in FIRST_PAD_KINDS[:-1])
    for n in range(1, 201):
        total = setup_bytes + 32 * n + 32 * (n - 1)
        assert total == 576 + 64 * n

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    GATE_RESULTS["test_gate_1_message_cost_table"] = (
        "costs and first-pad line exact; sending within 0.01 us; "
        "640 B through the first pad, 576+64n B total"
    )


def test_gate_2_pad_length_grid():
    started = time.perf_counter()

    worst = 0.0
    for speed, row in REFERENCE_PAD_LENGTH_M.items():
        for n, want in zip(PAD_COUNTS, row):
            got = float(pad_length_m(speed, n))
            rel = abs(got - want) / want
            worst = max(worst, rel)
            assert rel <= 0.01, (speed, n, got, want)

    assert REFERENCE_PAD_LENGTH_M[10][0] == 0.79
    assert REFERENCE_PAD_LENGTH_M[130][-1] == 12.79
    assert abs(float(pad_length_m(10, 10)) - 0.79) / 0.79 <= 0.01
    assert abs(float(pad_length_m(130, 200)) - 12.79) / 12.79 <= 0.01

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    GATE_RESULTS["test_gate_2_pad_length_grid"] = (
        f"35/35 cells within 1% (worst {worst * 100:.2f}%); "
        "anchors 0.79 m and 12.79 m covered"
    )


def test_gate_3_first_pad_and_storage_anchors():
    assert cost_first_pad(100) == Fraction("317.12")
    assert storage_estimate(10**7, 3650, 96) == (350_400, 3_504_000_000_000)
    GATE_RESULTS["test_gate_3_first_pad_and_storage_anchors"] = (
        "317.12 ms at n=100; 350400 B per vehicle, 3.504e12 B fleet-wide"
    )


def test_gate_4_cryptographic_invariants(default_authority):
    # Trapdoor bases: f*G - g*F must equal the constant polynomial q.
    for tier in ("toy", "test"):
        p = TIERS[tier]
        for i in range(20):
            _, msk = master_key_gen(p, RandomSource(f"gate-kg-{tier}-{i}"))
            det = msk.f * msk.G - msk.g * msk.F
            assert det.coeffs == [p.q] + [0] * (p.N - 1), (tier, i)

    # Extraction: every issued key is a short preimage of the identity point.
    # A key keeps s2 and derives s1 = H(id) - s2*h, so it is a preimage by
    # construction; its norm is what tells a right s2 from any other.
    p = TIERS["test"]
    mpk, msk = master_key_gen(p, RandomSource("gate-extract"))
    bound_sq = norm_bound(p) ** 2
    for i in range(100):
        (usk,) = extract(msk, f"gate-id-{i}".encode())
        assert usk.s1.norm_squared() + usk.s2.norm_squared() <= bound_sq, i

    # Decryption margin at the production tier: zero failures tolerated.
    # A failure here means the modulus is too small for the noise budget.
    mpk_d = default_authority.mpk
    (usk_d,) = extract(default_authority.msk, b"gate-roundtrip")
    rng = RandomSource("gate-roundtrip-bits")
    n_bits = mpk_d.params.N
    failures = 0
    for _ in range(1000):
        raw = rng.bytes(n_bits // 8)
        bits = [(raw[i >> 3] >> (i & 7)) & 1 for i in range(n_bits)]
        ct = encrypt(mpk_d, identity_point(mpk_d.params, b"gate-roundtrip"), bits, rng)
        if not np.array_equal(decrypt(usk_d, ct), bits):
            failures += 1
    assert failures == 0, f"{failures}/1000 round trips corrupted"

    # Signatures: honest pairs verify, any single-bit change does not.
    sig_rng = RandomSource("gate-sign")
    for i in range(20):
        msg = sig_rng.bytes(40)
        assert verify(mpk, msg, sign(msk, msg, sig_rng)), i
    msg = sig_rng.bytes(125)  # 1000 bits, one mutation per position
    sig = sign(msk, msg, sig_rng)
    assert verify(mpk, msg, sig)
    rejected = 0
    for i in range(1000):
        mutated = bytearray(msg)
        mutated[i >> 3] ^= 1 << (i & 7)
        if not verify(mpk, bytes(mutated), sig):
            rejected += 1
    assert rejected == 1000, f"only {rejected}/1000 mutations rejected"

    GATE_RESULTS["test_gate_4_cryptographic_invariants"] = (
        "40 basis determinants == q; 100 extracted keys within norm_bound; "
        "1000/1000 round trips; 1000/1000 mutations rejected"
    )


def test_gate_5_protocol_end_to_end(default_authority, gate_vehicle):
    # Determinism first, on copies, so slot 0 is still unspent.
    runs = [
        simulate_session(
            default_authority,
            copy_credentials(gate_vehicle),
            n_pads=4,
            seed="gate-determinism",
            entry_index=0,
        )
        for _ in range(2)
    ]
    assert runs[0].to_jsonl() == runs[1].to_jsonl()
    assert runs[0].wire_log == runs[1].wire_log

    total_200 = None
    for n in (1, 10, 100, 200):
        trace = simulate_session(
            default_authority, gate_vehicle, n_pads=n, seed=f"gate-run-{n}"
        )
        assert trace.completed and trace.rejection is None, (n, trace.rejection)
        assert trace.accepted_pads == n
        accepts = sum(
            1
            for e in trace.events
            if e.kind in ("m7", "m9", "chain") and e.verdict == "ok"
        )
        assert accepts == n
        if n == 200:
            total_200 = trace.total_computation_ms + trace.total_sending_us / 1000

    assert total_200 is not None and total_200 < 1500  # ms

    GATE_RESULTS["test_gate_5_protocol_end_to_end"] = (
        "n=1/10/100/200 all complete with exactly n accepts; "
        f"n=200 analytic total {float(total_200):.2f} ms; seeded reruns byte-identical"
    )


def test_gate_6_adversary_rejection(default_authority, gate_vehicle):
    expected = {
        "replay-m7",
        "pseudonym-reuse",
        "forge-m4",
        "double-spend",
        "stale-timestamp",
    }
    assert set(SCENARIOS) == expected

    vid = gate_vehicle.vehicle_id
    needles = [vid, vid.hex().encode(), vid.hex().upper().encode(), base64.b64encode(vid)]

    for scenario in sorted(expected):
        report = run_adversary(
            scenario, default_authority, gate_vehicle, n_pads=3, seed="gate-adv"
        )
        assert report.passed, scenario
        assert report.accepted_count == 0, scenario
        assert report.actions, scenario
        text = report.to_jsonl()
        for needle in needles:
            assert needle.decode("latin-1") not in text, scenario

    # The honest wire transcript must not carry the identity either.
    trace = simulate_session(
        default_authority, copy_credentials(gate_vehicle), n_pads=3, seed="gate-privacy"
    )
    assert trace.completed
    for kind, body in trace.wire_log:
        for needle in needles:
            assert needle not in body, kind

    GATE_RESULTS["test_gate_6_adversary_rejection"] = (
        "5 scenarios, 0 adversary actions accepted; "
        "no vehicle identity bytes in any transcript"
    )


def test_gate_7_oracle_equivalence():
    # Dual-route multiplication: transform path vs the exact product, `karamul`.
    for tier in ("toy", "test", "default"):
        p = TIERS[tier]
        rng = RandomSource(f"gate-oracle-{tier}")
        for i in range(1000):
            a = RingElement(p, [rng.below(p.q) for _ in range(p.N)])
            b = RingElement(p, [rng.below(p.q) for _ in range(p.N)])
            exact = karamul(a.coeffs.tolist(), b.coeffs.tolist())
            assert a * b == RingElement(p, exact), (tier, i)

    # Chain oracle: iterative build vs a from-scratch recursive definition.
    token, m_ev = b"gate-chain-token", b"gate-chain-secret"
    chain = HashChain.build(token, m_ev, 200)

    def rec(k: int) -> bytes:
        if k == 0:
            return hashlib.sha256(
                hashlib.sha256(token).digest() + hashlib.sha256(m_ev).digest()
            ).digest()
        return hashlib.sha256(rec(k - 1)).digest()

    assert chain.head == rec(200)
    for j in range(1, 201):
        assert chain.value_for_pad(j) == rec(200 - j), j

    GATE_RESULTS["test_gate_7_oracle_equivalence"] = (
        "1000 multiplication pairs per tier agree; "
        "chain matches recursive evaluation at n=200"
    )
