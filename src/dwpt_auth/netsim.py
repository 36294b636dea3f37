"""Deterministic cost and network simulation for charging sessions.

The timing model prices each message with per-primitive costs (milliseconds
per IBE encrypt/decrypt, AES block, SHA-256); channels convert modeled byte
sizes into sending times.  All accounting runs on exact fractions so the
simulated totals equal the closed-form cost expressions bit for bit, with
floats only at the reporting boundary.

Also hosts the adversary harness: scripted man-in-the-middle scenarios that
replay, delay, or forge traffic and count how many hostile actions any party
accepts (the expected number is zero).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from dwpt_auth import protocol
from dwpt_auth.errors import ProtocolRejection
from dwpt_auth.ibe import MasterPublicKey
from dwpt_auth.protocol import (
    CpState,
    CspaState,
    EvSession,
    ProtocolMessage,
    RsuState,
)
from dwpt_auth.registration import (
    CspaDataset,
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

    @classmethod
    def for_mode(cls, mode: str) -> "TimingModel":
        if mode == "rounded-table":
            return cls.rounded_table()
        if mode == "cycle-accurate":
            return cls.cycle_accurate()
        raise ValueError(f"unknown timing mode {mode!r}")

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


@dataclass(frozen=True)
class Channel:
    name: str
    bitrate_bps: int

    def sending_us(self, nbytes: int) -> Fraction:
        return Fraction(nbytes * 8 * 1_000_000, self.bitrate_bps)


CHANNELS = {
    "fast-ethernet": Channel("fast-ethernet", 100_000_000),
    "fiveg": Channel("fiveg", 100_000_000),
    "dsrc": Channel("dsrc", 27_000_000),
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
    return CHANNELS[KIND_CHANNEL[kind]].sending_us(protocol.NOMINAL_SIZES[kind])


def cost_first_pad(n_pads: int, timing: TimingModel | None = None) -> Fraction:
    """Computation (ms) from first contact through the first pad's accept."""
    tm = timing or TimingModel.rounded_table()
    return sum(tm.message_cost_ms(kind, n_pads) for kind in FIRST_PAD_KINDS)


def cost_asymptotic(n_pads: int, timing: TimingModel | None = None) -> Fraction:
    """Whole-lane computation (ms) under the no-caching model.

    Each pad's value is recomputed from the chain base, so pad checks cost
    (n^2 + n)/2 hashes in total instead of n single-step checks.
    """
    tm = timing or TimingModel.rounded_table()
    fixed = sum(tm.message_cost_ms(kind, n_pads) for kind in FIRST_PAD_KINDS[:6])
    return fixed + n_pads * tm.t_sha + Fraction(n_pads * n_pads + n_pads, 2) * tm.t_sha


def sending_first_pad_us() -> Fraction:
    """On-air time (microseconds) for the messages through the first pad."""
    return sum(sending_time_us(k) for k in FIRST_PAD_KINDS)


def pad_length_m(
    speed_kmh, n_pads: int, timing: TimingModel | None = None
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

@dataclass
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
        out = {k: float(v) if isinstance(v, Fraction) else v for k, v in vars(self).items()}
        out["bytes"] = out.pop("nominal_bytes")
        return {"type": "event", **out}


@dataclass
class SessionTrace:
    config: dict
    events: list[TraceEvent] = field(default_factory=list)
    wire_log: list[tuple[str, bytes]] = field(default_factory=list)
    completed: bool = False
    rejection: str | None = None
    used_entry_index: int | None = None
    comp_through_first_pad_ms: Fraction = Fraction(0)
    sending_through_first_pad_us: Fraction = Fraction(0)
    bytes_through_first_pad: int = 0
    total_computation_ms: Fraction = Fraction(0)
    total_sending_us: Fraction = Fraction(0)
    total_bytes: int = 0
    accepted_pads: int = 0

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
            "first_pad_model_ms": float(
                cost_first_pad(self.config["n_pads"], self._timing())
            ),
            "asymptotic_model_ms": float(
                cost_asymptotic(self.config["n_pads"], self._timing())
            ),
        }

    def _timing(self) -> TimingModel:
        return TimingModel.for_mode(self.config["timing_mode"])

    def to_jsonl(self) -> str:
        lines = [json.dumps({"type": "config", **self.config}, sort_keys=True)]
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
    dataset: CspaDataset,
    mpk: MasterPublicKey,
    gk_rsu_cp: SymmetricKey,
    credentials: VehicleCredentials,
    n_pads: int,
    seed,
    entry_index: int | None = None,
    freshness_ms: int = protocol.FRESHNESS_WINDOW_MS,
) -> World:
    """The lane from what the operator side holds: its dataset (with its
    identity key and the CSPA-RSU key), the master public key and the RSU-CP
    key.  No master secret is involved."""
    root = RandomSource(seed)
    ev = EvSession(
        credentials,
        mpk,
        dataset.cspa_identity,
        root.child("ev"),
        entry_index=entry_index,
        freshness_ms=freshness_ms,
    )
    cspa = CspaState(dataset, mpk, root.child("cspa"), freshness_ms)
    rsu = RsuState(
        dataset.gk_cspa_rsu,
        gk_rsu_cp,
        n_pads,
        root.child("rsu"),
        freshness_ms,
    )
    pads = [CpState(i + 1, gk_rsu_cp) for i in range(n_pads)]
    return World(ev, cspa, rsu, pads, root.child("world"))


def _ride(world: World, n_pads: int, now=lambda: 0, emit=lambda msg, verdict="ok": msg):
    """One honest pass: m1-m6, each message delivered as soon as it is sent,
    then pads 1..n_pads in driving order, each provisioned (m6, then the
    previous pad's m8 forward) before it checks the EV's chain value.

    Stops at the first pad that rejects; returns (chain message, verdict)
    for every pad reached.  `emit` sees each message as it goes on the air.
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
        msg = ev.next_chain_message()
        verdict = pad.handle_chain(msg, world.rng)
        emit(msg, "ok" if verdict.accepted else verdict.reason)
        rides.append((msg, verdict))
        if not verdict.accepted:
            break
        provision = verdict.forward
    return rides


def simulate_session(
    authority: RegistrationAuthority,
    credentials: VehicleCredentials,
    n_pads: int = 1,
    seed=0,
    timing: TimingModel | None = None,
    entry_index: int | None = None,
    freshness_ms: int = protocol.FRESHNESS_WINDOW_MS,
) -> SessionTrace:
    """Run one honest session and account every message.

    The clock advances by each message's computation and sending time; the
    running computation total at the first pad's accept equals
    cost_first_pad(n_pads) exactly, and each later pad adds one hash check.
    A protocol rejection ends the run with the reason recorded.
    """
    tm = timing or TimingModel.rounded_table()
    world = build_world(
        export_cspa_dataset(authority), authority.mpk, authority.gk_rsu_cp,
        credentials, n_pads, seed, entry_index, freshness_ms,
    )
    trace = SessionTrace(
        config={
            "type": "config",
            "seed": str(seed),
            "tier_N": authority.params.N,
            "tier_q": authority.params.q,
            "n_pads": n_pads,
            "timing_mode": tm.mode,
            "freshness_ms": freshness_ms,
            "entry_index": entry_index,
        }
    )
    clock = Fraction(0)
    first_pad_seen = False

    def emit(msg: ProtocolMessage, verdict: str = "ok") -> ProtocolMessage:
        nonlocal clock, first_pad_seen
        comp = tm.message_cost_ms(msg.kind, n_pads)
        send = sending_time_us(msg.kind)
        clock += comp + send / 1000
        trace.events.append(
            TraceEvent(
                seq=len(trace.events),
                time_ms=clock,
                kind=msg.kind,
                sender=msg.sender,
                receiver=msg.receiver,
                nominal_bytes=msg.nominal_size,
                channel=KIND_CHANNEL[msg.kind],
                computation_ms=comp,
                sending_us=send,
                verdict=verdict,
            )
        )
        trace.wire_log.append((msg.kind, msg.body))
        trace.total_computation_ms += comp
        trace.total_sending_us += send
        trace.total_bytes += msg.nominal_size
        if not first_pad_seen:
            trace.comp_through_first_pad_ms += comp
            trace.sending_through_first_pad_us += send
            trace.bytes_through_first_pad += msg.nominal_size
            first_pad_seen = msg.kind == protocol.chain_kind(1)
        return msg

    try:
        verdicts = [v for _, v in _ride(world, n_pads, lambda: int(clock), emit)]
    except ProtocolRejection as exc:
        trace.rejection = exc.reason
        trace.events.append(TraceEvent(
            seq=len(trace.events), time_ms=clock, kind="reject", sender="-", receiver="-",
            nominal_bytes=0, channel="-", computation_ms=Fraction(0), sending_us=Fraction(0),
            verdict=exc.reason,
        ))
    else:
        trace.accepted_pads = sum(v.accepted for v in verdicts)
        trace.completed = trace.accepted_pads == n_pads
        if not verdicts[-1].accepted:
            trace.rejection = verdicts[-1].reason
    if world.ev.entry is not None:
        trace.used_entry_index = world.ev.entry.index
    return trace


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
    passed: bool

    @property
    def accepted_count(self) -> int:
        return sum(1 for a in self.actions if a.accepted)

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


def _reject_reason(fn, *args) -> tuple[str, bool]:
    """Run a handler on adversarial input: (reason, accepted)."""
    try:
        fn(*args)
        return "accepted", True
    except ProtocolRejection as exc:
        return exc.reason, False


def _scenario_replay_first_chain(world: World) -> list[AdversaryAction]:
    pads = world.pads
    [(m7, first)] = _ride(world, 1)
    assert first.accepted
    actions = []
    v = pads[0].handle_chain(m7, world.rng)
    actions.append(
        AdversaryAction("replay first chain value to its own pad", "CP1", v.reason, v.accepted)
    )
    if len(pads) > 1:
        pads[1].handle_provision(first.forward)
        v = pads[1].handle_chain(m7, world.rng)
        actions.append(
            AdversaryAction(
                "replay first chain value to the next pad", "CP2", v.reason, v.accepted
            )
        )
    return actions


def _scenario_pseudonym_reuse(world: World) -> list[AdversaryAction]:
    ev, cspa = world.ev, world.cspa
    m1 = ev.compose_m1(0)
    cspa.handle_m1(m1, 0)
    replay = ProtocolMessage("m1", "MITM", "CSPA", m1.body)
    reason, accepted = _reject_reason(cspa.handle_m1, replay, 1)
    return [
        AdversaryAction("replay captured first message within the window", "CSPA", reason, accepted)
    ]


def _scenario_forge_m4(world: World) -> list[AdversaryAction]:
    ev, cspa, rsu = world.ev, world.cspa, world.rsu
    mallory = RandomSource("mallory")
    actions = []

    fake_key = SymmetricKey(mallory.bytes(32), "session")
    fake_payload = mallory.bytes(32) + mallory.bytes(32) + encode_timestamp(0)
    forged = ProtocolMessage(
        "m4", "MITM", "RSU", aead_seal(fake_key, fake_payload, mallory, b"dwpt/m4")
    )
    reason, accepted = _reject_reason(rsu.handle_m4, forged, 0)
    actions.append(
        AdversaryAction("forge arrival message with no session pending", "RSU", reason, accepted)
    )

    m1 = ev.compose_m1(0)
    m2, m3 = cspa.handle_m1(m1, 0)
    ev.handle_m2(m2, 0)
    rsu.handle_m3(m3, 0)
    reason, accepted = _reject_reason(rsu.handle_m4, forged, 0)
    actions.append(
        AdversaryAction(
            "forge arrival message against a pending session", "RSU", reason, accepted
        )
    )
    return actions


def _scenario_double_spend(world: World) -> list[AdversaryAction]:
    rides = _ride(world, len(world.pads))
    assert all(verdict.accepted for _, verdict in rides)
    actions = []
    for j, (pad, (msg, _)) in enumerate(zip(world.pads, rides), start=1):
        v = pad.handle_chain(msg, world.rng)
        actions.append(
            AdversaryAction(
                f"re-spend accepted chain value at pad {j}", pad.name, v.reason, v.accepted
            )
        )
    return actions


def _scenario_stale_timestamp(world: World) -> list[AdversaryAction]:
    ev, cspa = world.ev, world.cspa
    m1 = ev.compose_m1(0)  # intercepted; never delivered on time
    late = cspa.freshness_ms + 1000
    reason, accepted = _reject_reason(cspa.handle_m1, m1, late)
    return [
        AdversaryAction(
            "deliver intercepted first message after the freshness window",
            "CSPA",
            reason,
            accepted,
        )
    ]


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
    freshness_ms: int = protocol.FRESHNESS_WINDOW_MS,
) -> AdversaryReport:
    """Run one scripted attack against a fresh world; passing means every
    adversary action was rejected."""
    try:
        script = SCENARIOS[scenario]
    except KeyError:
        raise ValueError(
            f"unknown scenario {scenario!r}; choose from {sorted(SCENARIOS)}"
        ) from None
    # Scenarios are what-if simulations: work on a copy so the vehicle's real
    # pseudonym slots stay unspent.
    world = build_world(
        export_cspa_dataset(authority), authority.mpk, authority.gk_rsu_cp,
        credentials.copy(), n_pads, seed, freshness_ms=freshness_ms,
    )
    actions = script(world)
    honest_accepts = sum(1 for pad in world.pads if pad.consumed)
    return AdversaryReport(
        scenario=scenario,
        actions=actions,
        honest_accepts=honest_accepts,
        passed=all(not a.accepted for a in actions),
    )


# ---------------------------------------------------------------------------
# Config files and artifact writers

def parse_config(text: str) -> dict:
    """key = value lines; '#' comments; later keys override earlier ones."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key = value")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


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


def write_message_costs_csv(path, n_pads: int, timing: TimingModel, header: dict):
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
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_pad_length_csv(path, speeds, pad_counts, timing: TimingModel, header: dict):
    lines = [f"# {k}={v}" for k, v in sorted(header.items())]
    lines.append("speed_kmh," + ",".join(f"n{n}" for n in pad_counts))
    for v in speeds:
        cells = [_fmt(pad_length_m(v, n, timing)) for n in pad_counts]
        lines.append(f"{v}," + ",".join(cells))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
