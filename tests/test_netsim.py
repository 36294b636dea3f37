"""Cost model, lane simulation, and the adversary harness.

The closed-form numbers asserted here were worked out by hand from the
per-primitive table (103.00 / 36.00 / 0.33 / 0.36 ms) and the channel rates;
the simulator must reproduce them exactly, not approximately, because all
accounting is done in rational arithmetic.
"""

import copy
import dataclasses
import hashlib
import importlib
import json
import pkgutil
from fractions import Fraction

import pytest

import dwpt_auth
from dwpt_auth import TIERS, ibe, netsim, protocol, ra_setup, register_vehicle, ring, symcrypto
from dwpt_auth.errors import ProtocolRejection
from dwpt_auth.netsim import (
    CHANNELS,
    CYCLE_COUNTS,
    KIND_CHANNEL,
    SCENARIOS,
    SessionTrace,
    TIMING_MODES,
    TimingModel,
    TraceEvent,
    build_world,
    cost_asymptotic,
    cost_first_pad,
    message_cost_rows,
    message_costs_csv,
    pad_length_m,
    pad_lengths_csv,
    run_adversary,
    sending_first_pad_us,
    session_bytes,
    sending_time_us,
    simulate_session,
)


class TestTimingModel:
    def test_rounded_table_values(self):
        tm = TimingModel.rounded_table()
        assert tm.t_ibe_enc == Fraction("103.00")
        assert tm.t_ibe_dec == Fraction("36.00")
        assert tm.t_aes == Fraction("0.33")
        assert tm.t_sha == Fraction("0.36")

    def test_cycle_accurate_values(self):
        tm = TimingModel.cycle_accurate()
        # 3_297_380 cycles at 32 MHz
        assert tm.t_ibe_enc == Fraction(3_297_380 * 1000, 32_000_000)
        assert float(tm.t_ibe_enc) == pytest.approx(103.043125)
        assert float(tm.t_ibe_dec) == pytest.approx(36.09375)
        # the rounded table tracks the cycle counts to better than 1 percent
        rounded = TimingModel.rounded_table()
        for name in ("t_ibe_enc", "t_ibe_dec", "t_aes", "t_sha"):
            got, table = getattr(tm, name), getattr(rounded, name)
            assert abs(got - table) / table < Fraction(1, 100)

    def test_for_mode(self):
        assert list(TIMING_MODES) == ["rounded-table", "cycle-accurate"]
        for mode in TIMING_MODES:
            assert TIMING_MODES[mode].mode == mode

    def test_per_message_costs(self):
        tm = TimingModel.rounded_table()
        assert tm.message_cost_ms("m1", 10) == Fraction("139.36")
        assert tm.message_cost_ms("m2", 10) == Fraction("139.36")
        assert tm.message_cost_ms("m3", 10) == Fraction("0.69")
        assert tm.message_cost_ms("m6", 10) == Fraction("0.69")
        assert tm.message_cost_ms("m4", 10) == Fraction("0.33")
        assert tm.message_cost_ms("m5", 10) == Fraction("0.33")
        # first chain message carries the n-link chain build plus one check
        assert tm.message_cost_ms("m7", 100) == 101 * Fraction("0.36")
        assert tm.message_cost_ms("m8", 10) == 0
        assert tm.message_cost_ms("m9", 10) == Fraction("0.36")
        assert tm.message_cost_ms("chain", 10) == Fraction("0.36")
        with pytest.raises(ValueError):
            tm.message_cost_ms("m10", 1)


class TestClosedForms:
    def test_first_pad_formula(self):
        # 2*(enc+dec+sha) + 2*(aes+sha) + 2*aes + (n+1)*sha = 281.12 + 0.36n
        for n in (1, 2, 5, 10, 50, 100, 200, 1000):
            assert cost_first_pad(n) == Fraction("281.12") + n * Fraction("0.36")

    def test_first_pad_anchors(self):
        assert cost_first_pad(100) == Fraction("317.12")
        assert cost_first_pad(1) == Fraction("281.48")

    def test_asymptotic_formula(self):
        base = Fraction("280.76")
        sha = Fraction("0.36")
        for n in (1, 2, 10, 100, 200):
            expected = base + n * sha + Fraction(n * n + n, 2) * sha
            assert cost_asymptotic(n) == expected

    def test_asymptotic_anchor(self):
        assert cost_asymptotic(200) == Fraction("7588.76")

    def test_asymptotic_dominates_first_pad(self):
        # equal at n=1 (recomputing from the base is one hash either way),
        # strictly worse for every longer lane
        assert cost_asymptotic(1) == cost_first_pad(1)
        for n in (2, 10, 100):
            assert cost_asymptotic(n) > cost_first_pad(n)

    def test_pad_length_examples(self):
        assert float(pad_length_m(10, 10)) == pytest.approx(0.79089, abs=1e-4)
        assert float(pad_length_m(130, 200)) == pytest.approx(12.75, abs=0.01)
        with pytest.raises(ValueError):
            pad_length_m(0, 10)

    def test_cycle_accurate_first_pad_close_to_table(self):
        table = cost_first_pad(100)
        cycles = cost_first_pad(100, TimingModel.cycle_accurate())
        assert abs(table - cycles) / table < Fraction(1, 100)


class TestChannels:
    def test_rates(self):
        assert CHANNELS == {"fast-ethernet": 100_000_000, "fiveg": 100_000_000, "dsrc": 27_000_000}

    def test_sending_times(self):
        assert sending_time_us("m1") == Fraction("10.24")
        assert sending_time_us("m2") == Fraction("10.24")
        assert sending_time_us("m3") == Fraction("10.24")
        assert sending_time_us("m4") == Fraction("7.68")
        assert sending_time_us("m5") == Fraction("7.68")
        assert sending_time_us("m6") == Fraction("2.56")
        assert sending_time_us("m7") == Fraction(32 * 8, 27)
        assert float(sending_time_us("m7")) == pytest.approx(9.4815, abs=1e-4)

    def test_first_pad_on_air_total(self):
        assert float(sending_first_pad_us()) == pytest.approx(58.12, abs=0.005)

    def test_kind_channel_covers_all_kinds(self):
        from dwpt_auth.protocol import NOMINAL_SIZES

        assert set(KIND_CHANNEL) == set(NOMINAL_SIZES)

    def test_cycle_counts_table(self):
        assert CYCLE_COUNTS == {
            "ibe_enc": 3_297_380,
            "ibe_dec": 1_155_000,
            "aes": 10_611,
            "sha": 11_561,
        }


@pytest.fixture(scope="module")
def trace(default_authority, default_vehicle):
    from conftest import copy_credentials

    return simulate_session(
        default_authority,
        copy_credentials(default_vehicle),
        n_pads=5,
        seed="netsim-suite",
    )


def _wire_windows(trace) -> set[bytes]:
    """Every 12-byte substring of every message the pass put on the wire."""
    return {body[i : i + 12] for _, body in trace.wire_log for i in range(len(body) - 11)}


def _insider_view(trace, authority) -> dict[str, list[bytes]]:
    """Each field an RSU or a pad reads in one pass, by message and name:
    the RSU opens m3 under the CSPA-RSU group key, m4 and m5 under the
    session key from m3; a pad opens m6 and m8 under the RSU-CP group key
    and reads the chain values bare."""
    view: dict[str, list[bytes]] = {}

    def add(kind, names, payload, widths):
        off = 0
        for name, width in zip(names, widths):
            view.setdefault(f"{kind}.{name}", []).append(payload[off : off + width])
            off += width
        assert off == len(payload), kind

    session = None
    for kind, body in trace.wire_log:
        if kind == "m3":
            payload = symcrypto.aead_open(authority.gk_cspa_rsu, body, b"dwpt/m3")
            add(kind, ("h_token", "pseudonym", "session_key", "time"), payload, (32,) * 4)
            session = symcrypto.SymmetricKey(payload[64:96], "session")
        elif kind == "m4":
            payload = symcrypto.aead_open(session, body, b"dwpt/m4")
            add(kind, ("pseudonym", "nonce", "time"), payload, (32,) * 3)
        elif kind == "m5":
            payload = symcrypto.aead_open(session, body, b"dwpt/m5")
            add(kind, ("nonce", "m_ev", "time", "pads"), payload, (32, 32, 32, 4))
        elif kind in ("m6", "m8"):
            payload = symcrypto.aead_open(authority.gk_rsu_cp, body, b"dwpt/provision")
            add(kind, ("head",), payload, (32,))
        elif kind in ("m7", "m9", "chain"):
            add(kind, ("chain",), body, (32,))
    return view


class TestSimulateSession:
    def test_completes(self, trace):
        assert trace.completed
        assert trace.rejection is None
        assert trace.accepted_pads == 5
        assert trace.used_entry_index == 0

    def test_computation_totals_are_exact(self, trace):
        assert trace.comp_through_first_pad_ms == cost_first_pad(5)
        # each pad after the first adds exactly one hash check
        assert trace.total_computation_ms == cost_first_pad(5) + 4 * Fraction("0.36")

    def test_sending_totals_are_exact(self, trace):
        assert trace.sending_through_first_pad_us == sending_first_pad_us()
        extra = trace.total_sending_us - trace.sending_through_first_pad_us
        # 4 chain values + 4 forwards, all on the short-range link
        assert extra == 8 * sending_time_us("chain")

    def test_byte_totals(self, trace):
        assert trace.bytes_through_first_pad == 640
        assert trace.total_bytes == 576 + 64 * 5

    def test_event_sequence(self, trace):
        kinds = [e.kind for e in trace.events]
        assert kinds == [
            "m1", "m2", "m3", "m4", "m5", "m6", "m7",
            "m8", "m9", "m8", "chain", "m8", "chain", "m8", "chain",
        ]
        assert all(e.verdict == "ok" for e in trace.events)
        assert [e.seq for e in trace.events] == list(range(len(trace.events)))
        times = [e.time_ms for e in trace.events]
        assert times == sorted(times)

    def test_jsonl_round_trips(self, trace):
        lines = [json.loads(line) for line in trace.to_jsonl().splitlines()]
        assert lines[0]["type"] == "config"
        assert lines[0]["n_pads"] == 5
        assert lines[-1]["type"] == "summary"
        assert lines[-1]["completed"] is True
        assert lines[-1]["bytes_through_first_pad"] == 640
        assert lines[-1]["first_pad_model_ms"] == pytest.approx(
            float(cost_first_pad(5))
        )
        events = [l for l in lines if l["type"] == "event"]
        assert len(events) == len(trace.events)

    def test_event_to_json(self, trace):
        """Field by field: `bytes` stands for `nominal_bytes` and the three
        exact quantities become floats."""
        m1 = trace.events[0]
        assert not hasattr(m1, "__dict__")
        out = m1.to_json()
        assert out == {
            "type": "event",
            "seq": 0,
            "time_ms": 139.37024,
            "kind": "m1",
            "sender": "EV",
            "receiver": "CSPA",
            "bytes": 128,
            "channel": "fiveg",
            "computation_ms": 139.36,
            "sending_us": 10.24,
            "verdict": "ok",
        }
        for key in ("time_ms", "computation_ms", "sending_us"):
            assert type(out[key]) is float

    def test_finished_trace_deep_copies(self, trace):
        twin = copy.deepcopy(trace)
        assert twin is not trace and twin.events[0] is not trace.events[0]
        assert twin.events == trace.events
        assert twin.wire_log == trace.wire_log
        assert twin.to_jsonl() == trace.to_jsonl()

    def test_tables_follow_pad_count_and_model(self, default_authority, fresh_vehicle):
        """Sessions of different lengths under both models, in one process:
        m7 carries its own pad count's chain construction under its own
        model, and the first-pad total matches the closed form."""
        for tm in (TimingModel.rounded_table(), TimingModel.cycle_accurate()):
            for n in (200, 1, 7):
                trace = simulate_session(
                    default_authority, fresh_vehicle.copy(), n_pads=n,
                    seed=f"tables-{n}", timing=tm,
                )
                assert trace.completed and trace.timing == tm
                [m7] = [e for e in trace.events if e.kind == "m7"]
                assert m7.computation_ms == (n + 1) * tm.t_sha
                assert trace.comp_through_first_pad_ms == cost_first_pad(n, tm)

    def test_summary_prices_with_the_model_it_ran(self, default_authority, fresh_vehicle):
        """A custom model, which no timing-mode name rebuilds, prices the summary."""
        custom = TimingModel("custom", Fraction(1), Fraction(2), Fraction(3), Fraction(4))
        trace = simulate_session(default_authority, fresh_vehicle, n_pads=2, seed=4, timing=custom)
        assert trace.completed
        assert trace.comp_through_first_pad_ms == cost_first_pad(2, custom)
        summary = json.loads(trace.to_jsonl().splitlines()[-1])
        assert summary["first_pad_model_ms"] == float(cost_first_pad(2, custom))
        assert summary["asymptotic_model_ms"] == float(cost_asymptotic(2, custom))

    def test_wire_log_does_not_leak_identities(self, trace, default_vehicle):
        """Nothing on the air may contain the vehicle id, its long-term
        secret, or a bare secret share."""
        blob = b"".join(body for _, body in trace.wire_log)
        assert b"EV-main" not in blob
        assert default_vehicle.d_ev.to_bytes(32, "big") not in blob
        for entry in default_vehicle.entries:
            assert entry.w not in blob

    def test_two_passes_of_one_vehicle_share_no_wire_bytes(self, default_authority, fresh_vehicle):
        """Unlinkability: the wire logs of two passes of one vehicle, on
        slots 0 and 1, have no 12-byte string in common."""
        windows = []
        for slot in (0, 1):
            trace = simulate_session(
                default_authority, fresh_vehicle, n_pads=3, seed=f"unlink-{slot}", entry_index=slot
            )
            assert trace.completed
            windows.append(_wire_windows(trace))
        assert not windows[0] & windows[1]

    def test_passes_of_two_vehicles_share_no_wire_bytes(self, default_authority, fresh_vehicle):
        """Unlinkability across vehicles: a pass of the suite's vehicle and a
        pass of another vehicle of the same authority have no 12-byte
        string in common on the wire."""
        authority = copy.deepcopy(default_authority)
        other = register_vehicle(authority, b"EV-unlink-other", 2)
        windows = []
        for k, vehicle in enumerate((fresh_vehicle, other)):
            trace = simulate_session(authority, vehicle, n_pads=3, seed=f"unlink-vehicle-{k}")
            assert trace.completed
            windows.append(_wire_windows(trace))
        assert not windows[0] & windows[1]

    def test_two_passes_of_one_vehicle_leave_insiders_nothing_in_common(
        self, default_authority, fresh_vehicle
    ):
        """Unlinkability from the inside: of what an RSU opens (m3, m4) and
        seals (m5), and what a pad opens (m6, m8) and reads (m7, m9, the
        chain messages), two passes of one vehicle share only the fields
        every pass of every vehicle shares: the simulated timestamps and
        the pad count.  Every pseudonym, H(T), session key, nonce, M_EV and
        chain value differs."""
        shared = {"m3.time", "m4.time", "m5.time", "m5.pads"}
        views = []
        for slot in (0, 1):
            trace = simulate_session(
                default_authority, fresh_vehicle, n_pads=3, seed=f"insider-{slot}", entry_index=slot
            )
            assert trace.completed
            views.append(_insider_view(trace, default_authority))
        assert views[0].keys() == views[1].keys() >= shared
        assert {"m7.chain", "m9.chain", "chain.chain", "m6.head", "m8.head"} <= views[0].keys()
        for name in shared:
            assert views[0][name] == views[1][name], name
        first, second = (
            {value for name, values in view.items() if name not in shared for value in values}
            for view in views
        )
        assert not first & second

    def test_pseudonym_reuse_across_sessions(self, default_authority, default_vehicle):
        from conftest import copy_credentials

        creds = copy_credentials(default_vehicle)
        t1 = simulate_session(default_authority, creds, n_pads=2, seed=1, entry_index=1)
        assert t1.completed
        # same slot against a fresh operator state is fine; the operator's
        # consumed set comes from the authority's dataset flags
        burned = creds.entries[1].pseudonym
        default_authority.consumed.add(burned)
        try:
            t2 = simulate_session(
                default_authority,
                copy_credentials(default_vehicle),
                n_pads=2,
                seed=2,
                entry_index=1,
            )
        finally:
            default_authority.consumed.discard(burned)
        assert not t2.completed
        assert t2.rejection == "PseudonymReuse"
        assert t2.events[-1].kind == "reject"

    def test_rejected_run_counts_only_sent_messages(self, default_authority, default_vehicle):
        from conftest import copy_credentials

        creds = copy_credentials(default_vehicle)
        creds.spent.update(range(len(creds.entries)))
        trace = simulate_session(default_authority, creds, n_pads=2, seed=3)
        assert trace.rejection == "NoUnusedPseudonym"
        assert trace.total_bytes == 0
        assert not trace.completed


    @pytest.mark.parametrize("index", [2, -1])
    def test_entry_index_outside_the_wallet_raises(self, index):
        """A slot the vehicle does not have is a caller's error, not a
        NoUnusedPseudonym verdict; nothing is spent."""
        ra = ra_setup(TIERS["toy"], "slots")
        creds = register_vehicle(ra, b"EV-slots", 2)
        with pytest.raises(IndexError, match=f"no pseudonym slot {index}"):
            simulate_session(ra, creds, n_pads=1, seed=0, entry_index=index)
        assert creds.spent == set()


class TestAdversaryHarness:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_scenario_rejects_everything(self, name, default_authority, default_vehicle):
        report = run_adversary(
            name, default_authority, default_vehicle, n_pads=3, seed=f"adv-{name}"
        )
        assert report.passed, [a.to_json() for a in report.actions]
        assert report.accepted_count == 0
        assert report.actions  # a scenario with no actions proves nothing

    def test_credentials_are_sandboxed(self, default_authority, default_vehicle):
        spent_before = set(default_vehicle.spent)
        run_adversary("double-spend", default_authority, default_vehicle, seed=0)
        assert default_vehicle.spent == spent_before

    def test_expected_reasons(self, default_authority, default_vehicle):
        report = run_adversary("replay-m7", default_authority, default_vehicle, seed=4)
        assert [a.reason for a in report.actions] == [
            "ChainValueReused",
            "ChainMismatch",
        ]
        report = run_adversary("stale-timestamp", default_authority, default_vehicle, seed=5)
        assert [a.reason for a in report.actions] == ["StaleTimestamp"]
        report = run_adversary("forge-m4", default_authority, default_vehicle, seed=6)
        assert [a.reason for a in report.actions] == [
            "UnknownPseudonym",
            "DecryptFailure",
        ]
        report = run_adversary("pseudonym-reuse", default_authority, default_vehicle, seed=7)
        assert [a.reason for a in report.actions] == ["PseudonymReuse"]
        report = run_adversary("double-spend", default_authority, default_vehicle, seed=8)
        assert [a.reason for a in report.actions] == ["ChainValueReused"] * 3

    @pytest.mark.parametrize("name", ["replay-m7", "double-spend"])
    def test_failed_honest_ride_raises(self, name, default_authority, default_vehicle, monkeypatch):
        """A drill whose honest pass is rejected cannot run: it raises the
        rejection instead of reporting a pass on an unspent lane."""
        monkeypatch.setattr(protocol, "chain_verify", lambda *args: False)
        with pytest.raises(ProtocolRejection) as exc:
            run_adversary(name, default_authority, default_vehicle, seed=10)
        assert exc.value.reason == "ChainMismatch"

    def test_accepted_action_is_reported(self, default_authority, default_vehicle, monkeypatch):
        """The harness sees an acceptance: with pads that accept any chain
        value, CP2 takes the replayed m7, while CP1 still refuses it as
        already accepted."""
        monkeypatch.setattr(protocol, "chain_verify", lambda *args: True)
        report = run_adversary("replay-m7", default_authority, default_vehicle, n_pads=3)
        assert not report.passed and report.accepted_count == 1
        assert [(a.target, a.reason) for a in report.actions] == [
            ("CP1", "ChainValueReused"), ("CP2", "accepted"),
        ]

    def test_unknown_scenario(self, default_authority, default_vehicle):
        with pytest.raises(ValueError, match="unknown scenario"):
            run_adversary("meteor-strike", default_authority, default_vehicle)

    def test_report_jsonl(self, default_authority, default_vehicle):
        report = run_adversary("double-spend", default_authority, default_vehicle, seed=9)
        lines = [json.loads(line) for line in report.to_jsonl().splitlines()]
        assert lines[0]["type"] == "report"
        assert lines[0]["passed"] is True
        assert lines[0]["adversary_accepted"] == 0
        assert lines[0]["honest_accepts"] == 3
        assert all(l["type"] == "action" for l in lines[1:])


class NoMasterKey:
    """Stands in for the master secret key; any use of it fails the test."""

    def __getattribute__(self, name):
        raise AssertionError(f"session touched msk.{name}")


class TestWorldWiring:
    def test_build_world_is_ready_to_run(self, default_authority, default_vehicle):
        """The lane needs no master secret: a world built from an authority
        without one rides an honest pass."""
        from conftest import copy_credentials

        creds = copy_credentials(default_vehicle)
        ra = dataclasses.replace(default_authority, msk=None)
        world = build_world(ra, creds, 2, seed=11)
        assert world.rsu.n_pads == 2
        assert len(world.pads) == 2
        assert world.ev.credentials is creds
        assert world.ev.cspa_point is ra.cspa_usk.point
        assert len(netsim._ride(world, 2)) == 2
        assert all(pad.consumed for pad in world.pads)

    def test_operator_point_is_hashed_once_per_authority(
        self, default_authority, default_vehicle, monkeypatch
    ):
        """After the first pass, a pass hashes only m2's pseudonym: m1 is
        sealed to the operator's point, kept on its key."""
        from conftest import copy_credentials

        from dwpt_auth import ibe

        ra = default_authority
        assert simulate_session(ra, copy_credentials(default_vehicle), seed=13).completed
        hashed = []

        def counted(data, params, _real=ibe.hash_to_ring):
            hashed.append(data)
            return _real(data, params)

        monkeypatch.setattr(ibe, "hash_to_ring", counted)
        trace = simulate_session(ra, copy_credentials(default_vehicle), seed=14)
        assert trace.completed
        pseudonym = default_vehicle.entries[trace.used_entry_index].pseudonym
        assert hashed == [ibe._ID_PREFIX + pseudonym]
        assert ra.cspa_usk.point == ibe.identity_point(ra.params, ra.cspa_identity)

    def test_session_runs_without_master_key(self, default_authority, default_vehicle):
        from conftest import copy_credentials

        operator_only = dataclasses.replace(default_authority, msk=NoMasterKey())
        trace = simulate_session(
            operator_only, copy_credentials(default_vehicle), n_pads=3, seed=12
        )
        assert trace.completed and trace.accepted_pads == 3
        report = run_adversary("pseudonym-reuse", operator_only, default_vehicle, seed=13)
        assert report.passed and report.actions


class TestConfigAndArtifacts:
    def test_message_cost_rows(self):
        rows = message_cost_rows(100, TimingModel.rounded_table())
        by_kind = {r["message"]: r for r in rows}
        assert by_kind["m1"]["computation_ms"] == Fraction("139.36")
        assert by_kind["m1"]["channel"] == "fiveg"
        assert by_kind["m1"]["bytes"] == 128
        assert by_kind["m7"]["channel"] == "dsrc"
        assert by_kind["m8"]["computation_ms"] == 0

    def test_message_costs_csv(self):
        text = message_costs_csv(100, TimingModel.rounded_table(), {"tier": "default"})
        assert text.endswith("\n")
        lines = text.splitlines()
        assert lines[0] == "# tier=default"
        assert lines[1] == "message,computation_ms,channel,bytes,sending_us"
        data = {l.split(",")[0]: l.split(",") for l in lines[2:]}
        assert data["m1"][1] == "139.36"
        assert data["total_first_pad"][1] == "317.12"
        assert data["total_first_pad"][3] == "640"
        assert data["total_asymptotic"][3] == str(576 + 64 * 100)

    def test_pad_length_csv(self):
        text = pad_lengths_csv([10, 50], [10, 100], TimingModel.rounded_table(), {})
        assert text.endswith("\n")
        lines = text.splitlines()
        assert lines[0] == "speed_kmh,n10,n100"
        first = lines[1].split(",")
        assert first[0] == "10"
        assert float(first[1]) == pytest.approx(0.79, abs=0.005)
        second = lines[2].split(",")
        assert float(second[2]) == pytest.approx(float(pad_length_m(50, 100)))


def _digests(trace) -> tuple[str, str]:
    jsonl = hashlib.sha256(trace.to_jsonl().encode()).hexdigest()
    wire = hashlib.sha256(b"".join(body for _, body in trace.wire_log)).hexdigest()
    return jsonl[:16], wire[:16]


# SHA-256 prefixes of to_jsonl() and of the concatenated wire_log bodies for
# seeded sessions on the suite's default-tier authority and vehicle.  Gate 5
# only compares reruns with each other; these pin the seed-to-transcript map.
TRANSCRIPT_PINS = {
    (1, "rounded-table"): ("858d4bcb3769b1cd", "694d905db07ae97a"),
    (1, "cycle-accurate"): ("43b5d4537f1c863d", "c28b28e33fd40133"),
    (7, "rounded-table"): ("262d96dd767ca128", "5bea0429c197dfca"),
    (7, "cycle-accurate"): ("31311ffb31677780", "7b79917812595fcc"),
    (200, "rounded-table"): ("2bded13ba7c342d6", "96180a10976fc76a"),
    (200, "cycle-accurate"): ("d234f9ba531b0f2f", "cff987f29f8b3575"),
}
REUSE_PIN = ("5bd85dc95ca89c09", "215e2e594bc6cf5b")


class TestTranscriptPins:
    @pytest.mark.parametrize("n_pads, mode", sorted(TRANSCRIPT_PINS))
    def test_seeded_session(self, n_pads, mode, default_authority, fresh_vehicle):
        trace = simulate_session(
            default_authority, fresh_vehicle, n_pads=n_pads, seed=f"pin-{n_pads}",
            timing=TIMING_MODES[mode],
        )
        assert trace.completed
        assert _digests(trace) == TRANSCRIPT_PINS[n_pads, mode]

    def test_seeded_pseudonym_reuse(self, default_authority, fresh_vehicle):
        burned = fresh_vehicle.entries[2].pseudonym
        default_authority.consumed.add(burned)
        try:
            trace = simulate_session(
                default_authority, fresh_vehicle, n_pads=3, seed="pin-reuse", entry_index=2
            )
        finally:
            default_authority.consumed.discard(burned)
        assert trace.rejection == "PseudonymReuse"
        assert _digests(trace) == REUSE_PIN


def _reference_check(trace):
    """Recompute every accounted field with Fraction sums, event by event."""
    tm, n = trace.timing, trace.config["n_pads"]
    clock = comp = send = Fraction(0)
    first = None
    for e in trace.events:
        for value in (e.time_ms, e.computation_ms, e.sending_us):
            assert type(value) is Fraction
        if e.kind == "reject":
            assert e.computation_ms == e.sending_us == 0
        else:
            assert e.computation_ms == tm.message_cost_ms(e.kind, n)
            assert e.sending_us == sending_time_us(e.kind)
        clock += e.computation_ms + e.sending_us / 1000
        comp += e.computation_ms
        send += e.sending_us
        assert e.time_ms == clock
        if first is None and e.kind == "m7":
            first = (comp, send)
    first = first or (comp, send)
    fields = (
        trace.total_computation_ms, trace.total_sending_us,
        trace.comp_through_first_pad_ms, trace.sending_through_first_pad_us,
    )
    for value in fields:
        assert type(value) is Fraction
    assert fields == (comp, send, *first)


class TestLazyEvents:
    """A pass keeps one message log; its events are built on first read."""

    @pytest.mark.parametrize("burned", [False, True], ids=["completed", "rejected"])
    def test_events_built_once_on_read(self, burned, default_authority, fresh_vehicle, monkeypatch):
        built = []

        def counting(*args):
            built.append(args[2])
            return TraceEvent(*args)

        monkeypatch.setattr(netsim, "TraceEvent", counting)
        pseudonym = fresh_vehicle.entries[0].pseudonym
        if burned:
            default_authority.consumed.add(pseudonym)
        try:
            trace = simulate_session(default_authority, fresh_vehicle, n_pads=50, seed="lazy")
        finally:
            default_authority.consumed.discard(pseudonym)
        assert trace.completed == (not burned) and built == []
        events = trace.events
        assert len(built) == len(events) == len(trace.wire_log) + burned
        assert trace.events is events and len(built) == len(events)
        _reference_check(trace)

    def test_totals_are_views_not_fields(self, default_authority, fresh_vehicle):
        """A trace stores only what the pass observed; none of the six totals
        is a field, and none can be assigned."""
        assert [f.name for f in dataclasses.fields(SessionTrace)] == [
            "config", "timing", "messages", "rejection", "used_entry_index", "accepted_pads",
        ]
        trace = simulate_session(default_authority, fresh_vehicle, n_pads=2, seed="views")
        for name in ("comp_through_first_pad_ms", "sending_through_first_pad_us",
                     "bytes_through_first_pad", "total_computation_ms", "total_sending_us",
                     "total_bytes"):
            with pytest.raises(AttributeError):
                setattr(trace, name, getattr(trace, name))


CUSTOM_TIMING = TimingModel(
    "coprime", Fraction(1, 3), Fraction(2, 7), Fraction(5, 11), Fraction(1, 13)
)


class TestExactAccounting:
    @pytest.mark.parametrize(
        "timing", [CUSTOM_TIMING, TimingModel.rounded_table(), TimingModel.cycle_accurate()],
        ids=lambda tm: tm.mode,
    )
    def test_matches_fraction_reference(self, timing, default_authority, fresh_vehicle):
        trace = simulate_session(
            default_authority, fresh_vehicle, n_pads=4, seed="exact", timing=timing
        )
        assert trace.completed
        _reference_check(trace)
        assert trace.comp_through_first_pad_ms == cost_first_pad(4, timing)

    def test_pad_rejection_ends_with_reject_event(self, default_authority, fresh_vehicle, monkeypatch):
        """A pad rejects the way every other party does: the chain value is
        on the air and counted, then a reject event ends the run."""
        verdicts = iter([True, False])
        monkeypatch.setattr(protocol, "chain_verify", lambda *args: next(verdicts))
        trace = simulate_session(
            default_authority, fresh_vehicle, n_pads=3, seed="exact-pad-reject",
            timing=CUSTOM_TIMING,
        )
        assert [e.kind for e in trace.events][-4:] == ["m7", "m8", "m9", "reject"]
        assert trace.events[-1].verdict == trace.rejection == "ChainMismatch"
        assert not trace.completed and trace.accepted_pads == 1
        assert trace.total_bytes == session_bytes(2)
        _reference_check(trace)

    def test_rejected_session_matches_reference(self, default_authority, fresh_vehicle):
        burned = fresh_vehicle.entries[3].pseudonym
        default_authority.consumed.add(burned)
        try:
            trace = simulate_session(
                default_authority, fresh_vehicle, n_pads=2, seed="exact-reject",
                timing=CUSTOM_TIMING, entry_index=3,
            )
        finally:
            default_authority.consumed.discard(burned)
        assert trace.rejection == "PseudonymReuse"
        assert [e.kind for e in trace.events] == ["m1", "reject"]
        _reference_check(trace)


class TestPrimitiveCounts:
    """The primitives an honest default-tier pass performs, counted through
    every binding of each in the package, beside what `TimingModel` charges:
    a refactor that adds or drops a call fails here with the count that
    moved, not as a timing drift."""

    PRIMITIVES = {
        "encrypt": (ibe, "encrypt"),
        "decrypt": (ibe, "decrypt"),
        "aead_seal": (symcrypto, "aead_seal"),
        "aead_open": (symcrypto, "aead_open"),
        "sha256": (symcrypto, "sha256"),
        "hash_to_ring": (ring, "hash_to_ring"),
    }

    @pytest.mark.parametrize("n", [1, 3])
    def test_honest_pass(self, default_authority, fresh_vehicle, monkeypatch, n):
        """m1 and m2 each encrypt and decrypt one content-key block and seal
        their payload; m3-m6 and every pad's m8 forward are sealed, the last
        pad's never sent; each is opened once, every pad opening its
        provision.  SHA-256 runs in both key derivations, H(T), H(M_EV), both
        chain builds and each pad's check.  `hash_to_ring` maps the
        pseudonym for m2; the operator's point is kept on its key."""
        default_authority.cspa_usk.point  # hashed once per authority, then kept
        counts = dict.fromkeys(self.PRIMITIVES, 0)

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        modules = [importlib.import_module(f"dwpt_auth.{m.name}")
                   for m in pkgutil.iter_modules(dwpt_auth.__path__)]
        for name, (home, attr) in self.PRIMITIVES.items():
            fn = getattr(home, attr)
            for module in [dwpt_auth, *modules]:
                for binding, value in vars(module).items():
                    if value is fn:
                        monkeypatch.setattr(module, binding, counting(name, fn))
        trace = simulate_session(default_authority, fresh_vehicle, n_pads=n, seed="primitives")
        assert trace.completed
        assert counts == {
            "encrypt": 2, "decrypt": 2, "aead_seal": 6 + n, "aead_open": 5 + n,
            "sha256": 3 * n + 8, "hash_to_ring": 1,
        }
