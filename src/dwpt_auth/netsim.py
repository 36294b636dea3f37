"""Deterministic cost and network simulation for charging sessions.

The timing model prices each message with per-primitive costs (milliseconds
per IBE encrypt/decrypt, AES block, SHA-256); channels convert modeled byte
sizes into sending times.  A session keeps its clock in exact integers over
one common denominator and hands out Fractions, so the simulated totals
equal the closed-form cost expressions bit for bit; floats only in reports.
Every function that takes a `timing` model defaults to the rounded table,
the model of the closed-form analysis.

Also hosts the adversary harness: scripted man-in-the-middle scenarios that
replay, delay, or forge traffic and count how many hostile actions any party
accepts (the expected number is zero).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from dwpt_auth import protocol
from dwpt_auth.errors import ProtocolRejection
from dwpt_auth.protocol import (
    CpState,
    CspaState,
    EvSession,
    ProtocolMessage,
    RsuState,
)
from dwpt_auth.registration import (
    RegistrationAuthority,
    VehicleCredentials,
    export_cspa_dataset,
)
from dwpt_auth.rng import RandomSource
from dwpt_auth.symcrypto import SymmetricKey, aead_seal, encode_timestamp

#: Measured cycle counts for the four primitives on the modeled 32 MHz MCU.
CYCLE_COUNTS = {
    "ibe_enc": 3_297_380,
    "ibe_dec": 1_155_000,
    "aes": 10_611,
    "sha": 11_561,
}

_MCU_CLOCK_HZ = 32_000_000


@dataclass(frozen=True)
class TimingModel:
    """Per-primitive computation costs in milliseconds (exact fractions)."""

    mode: str
    t_ibe_enc: Fraction
    t_ibe_dec: Fraction
    t_aes: Fraction
    t_sha: Fraction

    @classmethod
    def rounded_table(cls) -> "TimingModel":
        """The two-decimal costs used by the closed-form analysis."""
        return cls(
            mode="rounded-table",
            t_ibe_enc=Fraction("103.00"),
            t_ibe_dec=Fraction("36.00"),
            t_aes=Fraction("0.33"),
            t_sha=Fraction("0.36"),
        )

    @classmethod
    def cycle_accurate(cls) -> "TimingModel":
        """Costs derived from raw cycle counts at the MCU clock."""

        def ms(cycles: int) -> Fraction:
            return Fraction(cycles * 1000, _MCU_CLOCK_HZ)

        return cls(
            mode="cycle-accurate",
            t_ibe_enc=ms(CYCLE_COUNTS["ibe_enc"]),
            t_ibe_dec=ms(CYCLE_COUNTS["ibe_dec"]),
            t_aes=ms(CYCLE_COUNTS["aes"]),
            t_sha=ms(CYCLE_COUNTS["sha"]),
        )

    def message_cost_ms(self, kind: str, n_pads: int) -> Fraction:
        """Computation charged to one message, both endpoints combined.

        The first chain message also carries the one-off chain construction
        (n links), so the running total at the first pad's accept matches the
        first-pad closed form.
        """
        if kind in ("m1", "m2"):
            return self.t_ibe_enc + self.t_ibe_dec + self.t_sha
        if kind in ("m3", "m6"):
            return self.t_aes + self.t_sha
        if kind in ("m4", "m5"):
            return self.t_aes
        if kind == "m7":
            return (n_pads + 1) * self.t_sha
        if kind == "m8":
            return Fraction(0)
        if kind in ("m9", "chain"):
            return self.t_sha
        raise ValueError(f"unknown message kind {kind!r}")

    @cached_property
    def _clock(self) -> tuple:
        """A session's integer clock, built on first use and kept: D, then
        per kind the cost and the sending time in ticks of 1/D ms.  m7 is
        priced at n = 0; its price at any n keeps t_sha's denominator, so D
        serves every pad count.  Sessions share the tables and never write
        to them."""
        comp = {k: self.message_cost_ms(k, 0) for k in protocol.NOMINAL_SIZES}
        send = {k: sending_time_us(k) / 1000 for k in protocol.NOMINAL_SIZES}
        D = math.lcm(*(c.denominator for c in (*comp.values(), *send.values())))
        comp_ticks = {k: int(c * D) for k, c in comp.items()}
        send_ticks = {k: int(s * D) for k, s in send.items()}
        return D, comp_ticks, send_ticks

    def _ticks(self, n_pads: int) -> tuple:
        """D, then per kind the cost and the sending time in ticks of 1/D
        ms, with m7 priced at `n_pads`: the one price table of a session."""
        D, comp_ticks, send_ticks = self._clock
        m7 = int(self.message_cost_ms("m7", n_pads) * D)
        return D, {**comp_ticks, "m7": m7}, send_ticks


#: Each timing mode's name and its one model, built once.  The rounded
#: table is the default `timing` of every function that takes one.
TIMING_MODES = {tm.mode: tm for tm in (TimingModel.rounded_table(), TimingModel.cycle_accurate())}


#: Bit rate of each link, in bits per second.
CHANNELS = {
    "fast-ethernet": 100_000_000,
    "fiveg": 100_000_000,
    "dsrc": 27_000_000,
}

#: Which link carries each message kind.
KIND_CHANNEL = {
    "m1": "fiveg",
    "m2": "fiveg",
    "m3": "fast-ethernet",
    "m4": "fiveg",
    "m5": "fiveg",
    "m6": "fast-ethernet",
    "m7": "dsrc",
    "m8": "dsrc",
    "m9": "dsrc",
    "chain": "dsrc",
}


#: Messages from first contact through the first pad's accept, in order.
FIRST_PAD_KINDS = ("m1", "m2", "m3", "m4", "m5", "m6", "m7")


def sending_time_us(kind: str) -> Fraction:
    return Fraction(protocol.NOMINAL_SIZES[kind] * 8 * 1_000_000, CHANNELS[KIND_CHANNEL[kind]])


def cost_first_pad(n_pads: int, timing: TimingModel = TIMING_MODES["rounded-table"]) -> Fraction:
    """Computation (ms) from first contact through the first pad's accept."""
    return sum(timing.message_cost_ms(kind, n_pads) for kind in FIRST_PAD_KINDS)


def cost_asymptotic(n_pads: int, timing: TimingModel = TIMING_MODES["rounded-table"]) -> Fraction:
    """Whole-lane computation (ms) under the no-caching model.

    Each pad's value is recomputed from the chain base, so pad checks cost
    (n^2 + n)/2 hashes in total instead of n single-step checks.
    """
    fixed = sum(timing.message_cost_ms(kind, n_pads) for kind in FIRST_PAD_KINDS[:6])
    return fixed + n_pads * timing.t_sha + Fraction(n_pads * n_pads + n_pads, 2) * timing.t_sha


def sending_first_pad_us() -> Fraction:
    """On-air time (microseconds) for the messages through the first pad."""
    return sum(sending_time_us(k) for k in FIRST_PAD_KINDS)


def pad_length_m(
    speed_kmh, n_pads: int, timing: TimingModel = TIMING_MODES["rounded-table"]
) -> Fraction:
    """Pad length (meters) so authentication finishes within one pad.

    Distance covered at the peak speed during the first-pad latency:
    (v / 3.6 m/s) * cost_first_pad / 1000.
    """
    v = Fraction(speed_kmh)
    if v <= 0:
        raise ValueError("speed must be positive")
    return v * cost_first_pad(n_pads, timing) / 3600


# ---------------------------------------------------------------------------
# Session simulation

@dataclass(slots=True)
class TraceEvent:
    seq: int
    time_ms: Fraction
    kind: str
    sender: str
    receiver: str
    nominal_bytes: int
    channel: str
    computation_ms: Fraction
    sending_us: Fraction
    verdict: str

    def to_json(self) -> dict:
        return {
            "type": "event",
            "seq": self.seq,
            "time_ms": float(self.time_ms),
            "kind": self.kind,
            "sender": self.sender,
            "receiver": self.receiver,
            "bytes": self.nominal_bytes,
            "channel": self.channel,
            "computation_ms": float(self.computation_ms),
            "sending_us": float(self.sending_us),
            "verdict": self.verdict,
        }


@dataclass
class SessionTrace:
    """One pass as observed: each message sent with its arrival tick (1/D ms
    of the timing model's clock), the rejection, the slot and the pads that
    accepted.  The events, the wire log and the six totals are read from
    `messages`, not stored beside it."""

    config: dict
    timing: TimingModel  # the model that priced every event
    messages: list[tuple[ProtocolMessage, int]]
    rejection: str | None
    used_entry_index: int | None
    accepted_pads: int

    @cached_property
    def _totals(self) -> tuple:
        """Computation (ms), sending time (us) and bytes of every message
        sent, then of those through the first pad's chain value; summed
        from the log on first read, then kept."""
        D, comp_ticks, send_ticks = self.timing._ticks(self.config["n_pads"])

        def account(kinds):
            return (Fraction(sum(comp_ticks[k] for k in kinds), D),
                    Fraction(1000 * sum(send_ticks[k] for k in kinds), D),
                    sum(protocol.NOMINAL_SIZES[k] for k in kinds))

        sent = [msg.kind for msg, _ in self.messages]
        first = protocol.chain_kind(1)
        through_first = sent[: sent.index(first) + 1] if first in sent else sent
        return (*account(sent), *account(through_first))

    (total_computation_ms, total_sending_us, total_bytes, comp_through_first_pad_ms,
     sending_through_first_pad_us, bytes_through_first_pad) = (
        property(lambda trace, i=i: trace._totals[i]) for i in range(6))

    @property
    def completed(self) -> bool:
        return self.rejection is None

    @cached_property
    def events(self) -> list[TraceEvent]:
        """One event per message sent, then a `reject` event at the last
        arrival if the pass was rejected; built on first read."""
        D, comp_ticks, send_ticks = self.timing._ticks(self.config["n_pads"])
        comp = {k: Fraction(t, D) for k, t in comp_ticks.items()}
        send = {k: Fraction(1000 * t, D) for k, t in send_ticks.items()}
        sizes = protocol.NOMINAL_SIZES
        events = [
            TraceEvent(
                seq, Fraction(tick, D), msg.kind, msg.sender, msg.receiver,
                sizes[msg.kind], KIND_CHANNEL[msg.kind], comp[msg.kind],
                send[msg.kind], "ok",
            )
            for seq, (msg, tick) in enumerate(self.messages)
        ]
        if self.rejection is not None:
            tick = self.messages[-1][1] if self.messages else 0
            events.append(TraceEvent(
                len(events), Fraction(tick, D), "reject", "-", "-", 0, "-",
                Fraction(0), Fraction(0), self.rejection,
            ))
        return events

    @property
    def wire_log(self) -> tuple[tuple[str, bytes], ...]:
        """(kind, body) of every message sent, in order."""
        return tuple((msg.kind, msg.body) for msg, _ in self.messages)

    def summary(self) -> dict:
        return {
            "type": "summary",
            "completed": self.completed,
            "rejection": self.rejection,
            "used_entry_index": self.used_entry_index,
            "accepted_pads": self.accepted_pads,
            "computation_through_first_pad_ms": float(self.comp_through_first_pad_ms),
            "sending_through_first_pad_us": float(self.sending_through_first_pad_us),
            "bytes_through_first_pad": self.bytes_through_first_pad,
            "total_computation_ms": float(self.total_computation_ms),
            "total_sending_us": float(self.total_sending_us),
            "total_bytes": self.total_bytes,
            "first_pad_model_ms": float(cost_first_pad(self.config["n_pads"], self.timing)),
            "asymptotic_model_ms": float(cost_asymptotic(self.config["n_pads"], self.timing)),
        }

    def to_jsonl(self) -> str:
        config = {"type": "config", "timing_mode": self.timing.mode, **self.config}
        lines = [json.dumps(config, sort_keys=True)]
        lines += [json.dumps(e.to_json(), sort_keys=True) for e in self.events]
        lines.append(json.dumps(self.summary(), sort_keys=True))
        return "\n".join(lines) + "\n"


@dataclass
class World:
    """All parties for one lane, wired to one operator."""

    ev: EvSession
    cspa: CspaState
    rsu: RsuState
    pads: list[CpState]
    rng: RandomSource


def build_world(
    authority: RegistrationAuthority,
    credentials: VehicleCredentials,
    n_pads: int,
    seed,
    entry_index: int | None = None,
    freshness_ms: int = protocol.FRESHNESS_WINDOW_MS,
) -> World:
    """The lane from what the operator side holds: the authority's CSPA
    dataset (with the operator's identity key and the CSPA-RSU key), the
    master public key and the RSU-CP key.  No master secret is involved.
    The EV seals m1 to the operator's identity point, which its key holds
    once hashed (`UserSecretKey.point`)."""
    dataset, mpk, gk_rsu_cp = export_cspa_dataset(authority), authority.mpk, authority.gk_rsu_cp
    root = RandomSource(seed)
    ev = EvSession(credentials, mpk, dataset.usk.point, root.child("ev"), entry_index, freshness_ms)
    cspa = CspaState(dataset, mpk, root.child("cspa"), freshness_ms)
    rsu = RsuState(dataset.gk_cspa_rsu, gk_rsu_cp, n_pads, root.child("rsu"), freshness_ms)
    pads = [CpState(i + 1, gk_rsu_cp) for i in range(n_pads)]
    return World(ev, cspa, rsu, pads, root.child("world"))


def _ride(world: World, n_pads: int, now=lambda: 0, emit=lambda msg: msg):
    """One honest pass: m1-m6, each message delivered as soon as it is sent,
    then pads 1..n_pads in driving order, each provisioned (m6, then the
    previous pad's m8 forward) before it checks the EV's chain value.

    Returns (chain message, forward) for every pad; a rejection raises
    ProtocolRejection.  `emit` sees each message as it goes on the air.
    """
    ev, cspa, rsu = world.ev, world.cspa, world.rsu
    m1 = emit(ev.compose_m1(now()))
    m2, m3 = cspa.handle_m1(m1, now())
    ev.handle_m2(emit(m2), now())
    rsu.handle_m3(emit(m3), now())
    m4 = emit(ev.compose_m4(now()))
    m5, provision = rsu.handle_m4(m4, now())
    ev.handle_m5(emit(m5), now())
    rides = []
    for pad in world.pads[:n_pads]:
        pad.handle_provision(emit(provision))
        msg = emit(ev.next_chain_message())
        provision = pad.handle_chain(msg, world.rng)
        rides.append((msg, provision))
    return rides


def simulate_session(
    authority: RegistrationAuthority,
    credentials: VehicleCredentials,
    n_pads: int = 1,
    seed=0,
    timing: TimingModel = TIMING_MODES["rounded-table"],
    entry_index: int | None = None,
    freshness_ms: int = protocol.FRESHNESS_WINDOW_MS,
) -> SessionTrace:
    """Run one honest session and account every message.

    The clock advances by each message's computation and sending time; the
    running computation total at the first pad's accept equals
    cost_first_pad(n_pads) exactly, and each later pad adds one hash check.
    A protocol rejection ends the run with the reason recorded.

    The pass only simulates: it marks its slot spent in `credentials` but
    leaves the authority's `consumed` set as it is.  An explicit
    `entry_index` names its slot even when it is spent (see
    `VehicleCredentials.pick_slot`), so the same pseudonym can run again in
    memory.  `record_pass` spends the pseudonym of a pass that reached m2;
    only `consumed`, which the CLI then persists, turns a replay into
    PseudonymReuse.
    """
    world = build_world(authority, credentials, n_pads, seed, entry_index, freshness_ms)
    # Every cost is a whole number of ticks of 1/D ms, so the clock runs on
    # integers; the trace builds its Fractions only when they are read.
    D, comp_ticks, send_ticks = timing._ticks(n_pads)
    ticks = {k: comp_ticks[k] + send_ticks[k] for k in comp_ticks}
    messages, clock, rejection = [], 0, None

    def emit(msg: ProtocolMessage) -> ProtocolMessage:
        nonlocal clock
        clock += ticks[msg.kind]
        messages.append((msg, clock))
        return msg

    try:
        _ride(world, n_pads, lambda: clock // D, emit)
    except ProtocolRejection as exc:
        rejection = exc.reason
    config = {
        "seed": str(seed),
        "tier_N": authority.params.N,
        "tier_q": authority.params.q,
        "n_pads": n_pads,
        "freshness_ms": freshness_ms,
        "entry_index": entry_index,
    }
    return SessionTrace(config, timing, messages, rejection, world.ev.slot,
                        sum(pad.consumed for pad in world.pads))


def record_pass(
    authority: RegistrationAuthority, credentials: VehicleCredentials, trace: SessionTrace
) -> bool:
    """Spend the pseudonym of a simulated pass: add it to the authority's
    `consumed` set if the pass sent an m2, and return whether it did.

    Once the operator has answered m1 it has issued a token, so the slot is
    burned whether or not the pass completed; a pass rejected at m1 burns
    nothing.  `simulate_session` only simulates, so only this call, and a
    caller that then saves the authority, turns a replay of the slot into
    PseudonymReuse.
    """
    if not any(kind == "m2" for kind, _ in trace.wire_log):
        return False
    authority.consumed.add(credentials.entries[trace.used_entry_index].pseudonym)
    return True


# ---------------------------------------------------------------------------
# Adversary harness

@dataclass
class AdversaryAction:
    description: str
    target: str
    reason: str
    accepted: bool

    def to_json(self) -> dict:
        return dict(vars(self))


@dataclass
class AdversaryReport:
    scenario: str
    actions: list[AdversaryAction]
    honest_accepts: int

    @property
    def accepted_count(self) -> int:
        return sum(1 for a in self.actions if a.accepted)

    @property
    def passed(self) -> bool:
        return self.accepted_count == 0

    def to_jsonl(self) -> str:
        lines = [
            json.dumps(
                {
                    "type": "report",
                    "scenario": self.scenario,
                    "honest_accepts": self.honest_accepts,
                    "adversary_accepted": self.accepted_count,
                    "passed": self.passed,
                },
                sort_keys=True,
            )
        ]
        lines += [json.dumps({"type": "action", **a.to_json()}, sort_keys=True) for a in self.actions]
        return "\n".join(lines) + "\n"


def _attempt(description: str, target: str, handler, *args) -> AdversaryAction:
    """Run a handler on adversarial input and record whether it accepted."""
    try:
        handler(*args)
    except ProtocolRejection as exc:
        return AdversaryAction(description, target, exc.reason, False)
    return AdversaryAction(description, target, "accepted", True)


def _scenario_replay_first_chain(world: World) -> list[AdversaryAction]:
    pads, rng = world.pads, world.rng
    [(m7, forward)] = _ride(world, 1)
    actions = [_attempt("replay first chain value to its own pad", "CP1",
                        pads[0].handle_chain, m7, rng)]
    if len(pads) > 1:
        pads[1].handle_provision(forward)
        actions.append(_attempt("replay first chain value to the next pad", "CP2",
                                pads[1].handle_chain, m7, rng))
    return actions


def _scenario_pseudonym_reuse(world: World) -> list[AdversaryAction]:
    ev, cspa = world.ev, world.cspa
    m1 = ev.compose_m1(0)
    cspa.handle_m1(m1, 0)
    replay = ProtocolMessage("m1", "MITM", "CSPA", m1.body)
    return [_attempt("replay captured first message within the window", "CSPA",
                     cspa.handle_m1, replay, 1)]


def _scenario_forge_m4(world: World) -> list[AdversaryAction]:
    ev, cspa, rsu = world.ev, world.cspa, world.rsu
    mallory = RandomSource("mallory")

    fake_key = SymmetricKey(mallory.bytes(32), "session")
    fake_payload = mallory.bytes(32) + mallory.bytes(32) + encode_timestamp(0)
    forged = ProtocolMessage(
        "m4", "MITM", "RSU", aead_seal(fake_key, fake_payload, mallory, b"dwpt/m4")
    )
    actions = [_attempt("forge arrival message with no session pending", "RSU",
                        rsu.handle_m4, forged, 0)]

    m1 = ev.compose_m1(0)
    m2, m3 = cspa.handle_m1(m1, 0)
    ev.handle_m2(m2, 0)
    rsu.handle_m3(m3, 0)
    actions.append(_attempt("forge arrival message against a pending session", "RSU",
                            rsu.handle_m4, forged, 0))
    return actions


def _scenario_double_spend(world: World) -> list[AdversaryAction]:
    rides = _ride(world, len(world.pads))
    return [
        _attempt(f"re-spend accepted chain value at pad {j}", pad.name,
                 pad.handle_chain, msg, world.rng)
        for j, (pad, (msg, _)) in enumerate(zip(world.pads, rides), start=1)
    ]


def _scenario_stale_timestamp(world: World) -> list[AdversaryAction]:
    ev, cspa = world.ev, world.cspa
    m1 = ev.compose_m1(0)  # intercepted; never delivered on time
    return [_attempt("deliver intercepted first message after the freshness window", "CSPA",
                     cspa.handle_m1, m1, cspa.freshness_ms + 1000)]


SCENARIOS = {
    "replay-m7": _scenario_replay_first_chain,
    "pseudonym-reuse": _scenario_pseudonym_reuse,
    "forge-m4": _scenario_forge_m4,
    "double-spend": _scenario_double_spend,
    "stale-timestamp": _scenario_stale_timestamp,
}


def run_adversary(
    scenario: str,
    authority: RegistrationAuthority,
    credentials: VehicleCredentials,
    n_pads: int = 3,
    seed=0,
) -> AdversaryReport:
    """Run one scripted attack against a fresh world with the default
    freshness window; passing means every adversary action was rejected."""
    try:
        script = SCENARIOS[scenario]
    except KeyError:
        raise ValueError(
            f"unknown scenario {scenario!r}; choose from {sorted(SCENARIOS)}"
        ) from None
    # Scenarios are what-if simulations: work on a copy so the vehicle's real
    # pseudonym slots stay unspent.
    world = build_world(authority, credentials.copy(), n_pads, seed)
    actions = script(world)
    return AdversaryReport(scenario, actions, sum(pad.consumed for pad in world.pads))


# ---------------------------------------------------------------------------
# Cost tables

def _fmt(x: Fraction) -> str:
    return repr(float(x))


def message_cost_rows(n_pads: int, timing: TimingModel) -> list[dict]:
    rows = []
    for kind in ("m1", "m2", "m3", "m4", "m5", "m6", "m7", "m8", "m9"):
        rows.append(
            {
                "message": kind,
                "computation_ms": timing.message_cost_ms(kind, n_pads),
                "channel": KIND_CHANNEL[kind],
                "bytes": protocol.NOMINAL_SIZES[kind],
                "sending_us": sending_time_us(kind),
            }
        )
    return rows


def session_bytes(n_pads: int) -> int:
    """Nominal bytes of a completed n-pad session, summed per message as
    `simulate_session` sums them: m1-m5, then for each pad its provisioning
    message (m6 from the RSU for pad 1, m8 from the previous pad after that)
    and its chain message."""
    sizes = protocol.NOMINAL_SIZES
    total = sum(sizes[k] for k in FIRST_PAD_KINDS[:5])
    for j in range(1, n_pads + 1):
        total += sizes["m6" if j == 1 else "m8"] + sizes[protocol.chain_kind(j)]
    return total


def message_costs_csv(n_pads: int, timing: TimingModel, header: dict) -> str:
    """The per-message cost table of an n-pad lane as CSV text, after one
    `# key=value` comment line per `header` item."""
    lines = [f"# {k}={v}" for k, v in sorted(header.items())]
    lines.append("message,computation_ms,channel,bytes,sending_us")
    for row in message_cost_rows(n_pads, timing):
        lines.append(
            f'{row["message"]},{_fmt(row["computation_ms"])},{row["channel"]},'
            f'{row["bytes"]},{_fmt(row["sending_us"])}'
        )
    lines.append(
        f"total_first_pad,{_fmt(cost_first_pad(n_pads, timing))},-,"
        f"{sum(protocol.NOMINAL_SIZES[k] for k in FIRST_PAD_KINDS)},"
        f"{_fmt(sending_first_pad_us())}"
    )
    lines.append(
        f"total_asymptotic,{_fmt(cost_asymptotic(n_pads, timing))},-,"
        f"{session_bytes(n_pads)},-"
    )
    return "\n".join(lines) + "\n"


def pad_lengths_csv(speeds, pad_counts, timing: TimingModel, header: dict) -> str:
    """The pad length (m) at each speed and pad count as CSV text, after one
    `# key=value` comment line per `header` item."""
    lines = [f"# {k}={v}" for k, v in sorted(header.items())]
    lines.append("speed_kmh," + ",".join(f"n{n}" for n in pad_counts))
    for v in speeds:
        cells = [_fmt(pad_length_m(v, n, timing)) for n in pad_counts]
        lines.append(f"{v}," + ",".join(cells))
    return "\n".join(lines) + "\n"
