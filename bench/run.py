"""The dwpt-auth benchmark: three workloads, checked outputs, one JSON result.

    python3 bench/run.py --workload {lane,enroll,cli-run} --seed N \
        --seconds S --trace {0,1}

Run from the repository root; the package is imported from ``src/`` and is
not modified.  The load is a closed loop with one client: each operation
starts only after the previous one returned.  The seed fixes every input the
package receives (authority seed, vehicle ids, pad counts, session seeds).

Workloads (see BENCHMARK.json for why each exists):

- ``lane``: ``simulate_session`` passes on one authority whose fleet is
  registered in set-up; every pass spends a fresh pseudonym slot and draws
  its pad count uniformly from 1..200 (shuffled rounds of 1..200).
- ``enroll``: ``register_vehicle`` for new vehicles, ten slots each; the
  extraction sampler is built in set-up.
- ``cli-run``: sequential ``dwpt-auth run`` processes (5 pads, a fresh
  ``--pseudonym-index`` each) against an authority file of 100 slots.

Times of in-process calls are calibrated.  On a shared 2-core Xeon virtual
machine the speed of a core swung by up to 1.75x for seconds at a time with
other tenants' load, which moved raw medians by 30% from one run to the
next.  So a fixed calibration loop (pure Python, hashlib, Fraction
and small numpy work, none of it from the package) is timed between
consecutive measured calls, and each call's wall time is scaled by
CAL_NOMINAL_S over the mean of the loop times just before and just after
it: the wall time the call would take where the loop takes CAL_NOMINAL_S.
A ``dwpt-auth`` process of the cli-run workload is timed raw, spawn to
exit, because the loop in this process did not track its speed.  Raw wall
medians and the machine's speed are printed beside the metrics.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
workload with span wrappers installed, prints the per-layer metrics (raw
span wall times), replays the first operations with the wrappers removed to
prove the artifacts are byte-identical and to measure the tracing overhead,
and writes the spans to ``.bench_out/``.  Human-readable lines come first;
the last line of stdout is the JSON result.  A failed output check makes the
exit code 1.
"""

from __future__ import annotations

import argparse
import copy
import ctypes
import gc
import hashlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

# One BLAS thread, for this process and the CLI processes it starts; it has
# to be set before numpy loads.  The sampler build's matrix products are the
# only threaded code.  With a BLAS thread per core on a shared 2-core
# machine, cli-run process times spread 18% across seeds; with one, 6%.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
CHILD = BENCH_DIR / "child.py"

WORKLOADS = ("lane", "enroll", "cli-run")
TIER = "default"
#: Untraced runs set the authority up this many times (distinct seeds) and
#: report the median; the last authority is the one the workload uses.
SETUP_REPEATS = 3
SLOTS_PER_VEHICLE = 10
#: The lane fleet holds this many slots per second of measurement, so no
#: pass has to reuse a pseudonym.  Fixed, so set-up work does not depend on
#: how fast the sessions run.
LANE_SLOTS_PER_SECOND = 75
LANE_MAX_PADS = 200
CLI_VEHICLES = 10
CLI_N_PADS = 5
CLI_TIMEOUT_S = 120
#: Operations whose artifact digests are printed, and operations a traced
#: run replays untraced, per workload.
DIGEST_OPS = 3
REPLAY_OPS = {"lane": 20, "enroll": 3, "cli-run": 3}
#: Calibration loop runs per reading (the reading is their median), and the
#: loop's duration on the nominal machine (a quiet 2-core Xeon, Python 3.11).
CAL_ROUNDS = 3
CAL_NOMINAL_S = 0.00083

#: End-to-end metrics reported by every untraced run: (name, unit).
END_TO_END = [
    ("setup_s", "s"),
    ("op_ms_p50", "ms"),
    ("work_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
]
#: What one operation and one unit of work are, per workload, and the names
#: the metrics go by for that workload.
LABELS = {
    "lane": ("session_ms", "pads_per_s"),
    "enroll": ("register_ms", "slots_per_s"),
    "cli-run": ("cli_run_ms", "sessions_per_s"),
}


def calibration_loop():
    """Fixed work touching what the workloads touch; not from the package."""
    digest = b"calibration"
    acc = 0
    for i in range(600):
        digest = hashlib.sha256(digest).digest()
        acc += i * i % 7
    table = {(i, str(i)): [i, i * 2] for i in range(600)}
    total = Fraction(0)
    for i in range(1, 60):
        total += Fraction(i, 7)
    sorted(table.items(), key=lambda kv: kv[1][0] % 13)
    values = np.arange(512, dtype=np.int64)
    for _ in range(16):
        values = (values * 3 + 1) % 8380417
    return acc, total, values


class Stopwatch:
    """Times calls in calibrated seconds (see the module docstring)."""

    def __init__(self):
        self.reading = self._read()
        self.readings = [self.reading]

    @staticmethod
    def _read() -> float:
        """Median time of CAL_ROUNDS runs of the calibration loop."""
        # With the collector off, the reading does not depend on how many
        # objects the package keeps alive.
        gc.disable()
        try:
            times = []
            for _ in range(CAL_ROUNDS):
                t0 = time.perf_counter()
                calibration_loop()
                times.append(time.perf_counter() - t0)
            return statistics.median(times)
        finally:
            gc.enable()

    def time(self, fn, *args):
        """(result, calibrated seconds, wall seconds) of fn(*args)."""
        t0 = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - t0
        after = self._read()
        calibrated = wall * CAL_NOMINAL_S / ((self.reading + after) / 2)
        self.reading = after
        self.readings.append(after)
        return result, calibrated, wall


class Inputs:
    """Every input the package receives, derived from the workload seed."""

    def __init__(self, workload: str, seed: int):
        self.rng = random.Random(f"dwpt-bench/{workload}/{seed}")
        self.authority_seed = f"{self.rng.getrandbits(128):032x}"
        self._vehicles = 0

    def vehicle_id(self) -> bytes:
        self._vehicles += 1
        return f"EV-{self._vehicles:05d}-{self.rng.getrandbits(32):08x}".encode()

    def session_seed(self) -> str:
        return f"{self.rng.getrandbits(64):016x}"


class Run:
    """State of one benchmark run: inputs, timings, checks, tracing."""

    def __init__(self, workload: str, seed: int, seconds: int, tracer):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.inputs = Inputs(workload, seed)
        self.watch = Stopwatch()
        self.op_s: list[float] = []  # as reported: calibrated, or raw for processes
        self.op_wall_s: list[float] = []
        self.work_units = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digests: list[dict] = []
        self.setup_s = 0.0
        self.peak_rss_mb = 0.0
        self.op_pads: dict[int, int] = {}
        self.replay: dict = {}
        self.extra_metrics: dict = {}
        self.work_dir = OUT_DIR / f"work-{workload}-s{seed}-t{int(tracer is not None)}-{os.getpid()}"

    def fail(self, op: int, reason: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"op {op}: {reason}")

    def set_op(self, op: int) -> None:
        if self.tracer is not None:
            self.tracer.current_op = op

    def untrace(self) -> None:
        if self.tracer is not None:
            self.tracer.uninstall()

    def expired(self, started: float) -> bool:
        return time.perf_counter() - started >= self.seconds

    def timed_op(self, i: int, fn, *args, calibrate=True):
        """Run operation i of the timed region and record its time."""
        self.set_op(i)
        result, calibrated, wall = self.watch.time(fn, *args)
        self.set_op(-1)
        self.op_s.append(calibrated if calibrate else wall)
        self.op_wall_s.append(wall)
        return result

    def setup_step(self, fn, *args):
        """Run one set-up step; its calibrated time is added to setup_s."""
        result, calibrated, _ = self.watch.time(fn, *args)
        self.setup_s += calibrated
        return result

    def set_up_authority(self, registration, ibe, params):
        """ra_setup plus the first extract (which builds the sampler).

        Counts the median over the repeats into setup_s and returns the
        authority of the last repeat.
        """
        def set_up(seed):
            ra = registration.ra_setup(params, seed)
            ibe.extract(ra.msk, ra.cspa_identity)
            return ra

        repeats = 1 if self.tracer is not None else SETUP_REPEATS
        times = []
        for r in range(repeats):
            seed = self.inputs.authority_seed
            if r < repeats - 1:
                seed = f"{seed}/repeat{r}"
            ra = None  # free the previous authority first
            ra, calibrated, _ = self.watch.time(set_up, seed)
            times.append(calibrated)
        self.setup_s += statistics.median(times)
        return ra


# ---------------------------------------------------------------------------
# Workloads

def run_lane(run: Run, dw) -> None:
    netsim, registration = dw.netsim, dw.registration
    ra = run.set_up_authority(registration, dw.ibe, dw.params)
    n_slots = math.ceil(run.seconds * LANE_SLOTS_PER_SECOND / SLOTS_PER_VEHICLE) * SLOTS_PER_VEHICLE
    fleet = [
        run.setup_step(registration.register_vehicle, ra, run.inputs.vehicle_id(),
                       SLOTS_PER_VEHICLE)
        for _ in range(n_slots // SLOTS_PER_VEHICLE)
    ]
    # Pad counts come in shuffled rounds of 1..LANE_MAX_PADS: uniform for
    # each pass, and every run sees close to the same mix of lengths.
    pad_counts = []
    while len(pad_counts) < n_slots:
        deck = list(range(1, LANE_MAX_PADS + 1))
        run.inputs.rng.shuffle(deck)
        pad_counts += deck
    passes = [
        (k // SLOTS_PER_VEHICLE, k % SLOTS_PER_VEHICLE, pad_counts[k],
         run.inputs.session_seed())
        for k in range(n_slots)
    ]

    def session(i):
        vehicle, slot, n_pads, seed = passes[i]
        return netsim.simulate_session(
            ra, fleet[vehicle], n_pads=n_pads, seed=seed, entry_index=slot
        )

    transcripts = []
    started = time.perf_counter()
    for i in range(n_slots):
        if run.expired(started):
            break
        trace = run.timed_op(i, session, i)
        n_pads = passes[i][2]
        run.op_pads[i] = n_pads
        run.work_units += trace.accepted_pads
        if not trace.completed or trace.accepted_pads != n_pads:
            run.fail(i, f"rejection={trace.rejection} accepted={trace.accepted_pads}/{n_pads}")
        elif trace.comp_through_first_pad_ms != netsim.cost_first_pad(n_pads):
            run.fail(i, "first-pad computation differs from cost_first_pad")
        if i < max(DIGEST_OPS, REPLAY_OPS["lane"]):
            transcripts.append(trace.to_jsonl().encode())
    else:
        print(f"note: lane fleet of {n_slots} slots used up before "
              f"{run.seconds} s", file=sys.stderr)
    run.digests = [{"transcript": _sha(t)} for t in transcripts[:DIGEST_OPS]]

    if run.tracer is not None:
        run.untrace()
        _replay(run, len(transcripts), lambda i: session(i).to_jsonl().encode(),
                lambda i: transcripts[i])


def run_enroll(run: Run, dw) -> None:
    ibe, registration, keyfiles = dw.ibe, dw.registration, dw.keyfiles
    ra = run.set_up_authority(registration, ibe, dw.params)
    # A traced run replays its first registrations on an untouched copy.
    snapshot = copy.deepcopy(ra) if run.tracer is not None else None

    def register(vehicle_id):
        try:
            return registration.register_vehicle(ra, vehicle_id, SLOTS_PER_VEHICLE)
        except Exception as exc:  # counted as a failed operation below
            return exc

    issued = []
    started = time.perf_counter()
    while not run.expired(started):
        vehicle_id = run.inputs.vehicle_id()
        issued.append((vehicle_id, run.timed_op(len(issued), register, vehicle_id)))
    run.untrace()

    # Checks run after the loop so that they are neither timed nor traced.
    seen = set()
    for i, (_, creds) in enumerate(issued):
        if isinstance(creds, Exception):
            problem = f"{type(creds).__name__}: {creds}"
        else:
            problem = _check_enroll(creds, seen, ra, ibe, dw.params)
        if problem:
            run.fail(i, problem)
        else:
            run.work_units += len(creds.entries)
    vehicle_bytes = [
        keyfiles.vehicle_to_bytes(creds) if not isinstance(creds, Exception) else b""
        for _, creds in issued[: max(DIGEST_OPS, REPLAY_OPS["enroll"])]
    ]
    run.digests = [{"vehicle": _sha(b)} for b in vehicle_bytes[:DIGEST_OPS]]

    if snapshot is not None:
        def replay(i):
            creds = registration.register_vehicle(snapshot, issued[i][0], SLOTS_PER_VEHICLE)
            return keyfiles.vehicle_to_bytes(creds)

        _replay(run, len(vehicle_bytes), replay, lambda i: vehicle_bytes[i])


def _check_enroll(creds, seen: set, ra, ibe, params) -> str | None:
    if len(creds.entries) != SLOTS_PER_VEHICLE:
        return f"{len(creds.entries)} slots issued"
    bound_sq = ibe.norm_bound(params) ** 2
    for entry in creds.entries:
        usk = entry.usk
        if entry.pseudonym in seen:
            return "duplicate pseudonym"
        seen.add(entry.pseudonym)
        if usk.identity != entry.pseudonym:
            return "key issued for another identity"
        if usk.s1 + usk.s2 * ra.mpk.h != ibe.identity_point(params, entry.pseudonym):
            return "s1 + s2*h != identity_point(pseudonym)"
        if usk.s1.norm_squared() + usk.s2.norm_squared() > bound_sq:
            return "key above norm_bound"
    return None


def run_cli(run: Run, dw) -> None:
    registration, keyfiles = dw.registration, dw.keyfiles
    ra = run.set_up_authority(registration, dw.ibe, dw.params)
    state = run.work_dir / "state"
    state.mkdir(parents=True)

    def enroll_vehicle(vehicle_id):
        creds = registration.register_vehicle(ra, vehicle_id, SLOTS_PER_VEHICLE)
        keyfiles.save_vehicle(state / f"vehicle-{vehicle_id.decode()}.bin", creds)
        return creds

    fleet = [run.setup_step(enroll_vehicle, run.inputs.vehicle_id())
             for _ in range(CLI_VEHICLES)]
    run.setup_step(keyfiles.save_authority, state / "authority.bin", ra)
    run.untrace()  # the parent only spawns; children trace themselves
    pristine = run.work_dir / "pristine"
    if run.tracer is not None:
        shutil.copytree(state, pristine)
    n_slots = CLI_VEHICLES * SLOTS_PER_VEHICLE
    invocations = [
        (k % CLI_VEHICLES, k // CLI_VEHICLES, run.inputs.session_seed())
        for k in range(n_slots)
    ]

    def invoke(i, state_dir, out_dir, spans):
        vehicle, slot, seed = invocations[i]
        vehicle_id = fleet[vehicle].vehicle_id.decode()
        cmd = [
            sys.executable, str(CHILD), str(spans) if spans else "-",
            "run",
            "--authority", str(state_dir / "authority.bin"),
            "--vehicle", str(state_dir / f"vehicle-{vehicle_id}.bin"),
            "--n-pads", str(CLI_N_PADS),
            "--pseudonym-index", str(slot),
            "--seed", seed,
            "--out", str(out_dir),
        ]
        try:
            return subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=CLI_TIMEOUT_S, cwd=ROOT)
        except subprocess.TimeoutExpired as exc:  # the child has been killed
            return exc

    kept = max(DIGEST_OPS, REPLAY_OPS["cli-run"])
    artifacts = []
    main_s = 0.0
    started = time.perf_counter()
    for i in range(n_slots):
        if run.expired(started):
            break
        spans = run.work_dir / f"spans-{i}.json" if run.tracer is not None else None
        # A CLI process is timed raw: the calibration loop in this process
        # did not track its speed (it widened the spread across seeds from
        # 5% to 18%).
        proc = run.timed_op(i, invoke, i, state, run.work_dir / f"out-{i}", spans,
                            calibrate=False)
        if spans is not None and spans.exists():
            data = json.loads(spans.read_text())
            spans.unlink()
            run.tracer.merge(data, i)
            main_s += _main_span_s(data)
        vehicle, slot, _ = invocations[i]
        transcript = run.work_dir / f"out-{i}" / "transcript.jsonl"
        problem = _check_cli(proc, transcript, state, fleet[vehicle], slot, keyfiles)
        if problem:
            run.fail(i, problem)
        else:
            run.work_units += 1
        if i < kept:
            artifacts.append(_cli_artifacts(transcript, state))
    run.op_pads = {i: CLI_N_PADS for i in range(len(run.op_s))}
    run.peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    run.digests = [{k: _sha(v) for k, v in a.items()} for a in artifacts[:DIGEST_OPS]]
    if run.tracer is not None:
        run.extra_metrics["cli.start_ms"] = (sum(run.op_wall_s) - main_s) * 1e3

        def replay(i):
            out = run.work_dir / f"replay-{i}"
            proc = invoke(i, pristine, out, None)
            ok = getattr(proc, "returncode", None) == 0
            return _cli_artifacts(out / "transcript.jsonl", pristine) if ok else {}

        _replay(run, len(artifacts), replay, lambda i: artifacts[i])


def _check_cli(proc, transcript: Path, state: Path, creds, slot: int, keyfiles) -> str | None:
    if isinstance(proc, subprocess.TimeoutExpired):
        return f"no exit within {CLI_TIMEOUT_S} s"
    if proc.returncode != 0:
        return f"exit code {proc.returncode}: {proc.stderr.strip()[-200:]}"
    try:
        summary = json.loads(transcript.read_text().splitlines()[-1])
    except (OSError, ValueError, IndexError) as exc:
        return f"unreadable transcript: {exc}"
    if summary.get("type") != "summary" or summary.get("completed") is not True:
        return "transcript summary does not say completed"
    vehicle_file = state / f"vehicle-{creds.vehicle_id.decode()}.bin"
    if creds.entries[slot].pseudonym not in keyfiles.load_authority(state / "authority.bin").consumed:
        return "slot not marked spent in the authority file"
    if slot not in keyfiles.load_vehicle(vehicle_file).spent:
        return "slot not marked spent in the vehicle file"
    return None


def _cli_artifacts(transcript: Path, state: Path) -> dict:
    return {
        "transcript": transcript.read_bytes() if transcript.exists() else b"",
        "authority": (state / "authority.bin").read_bytes(),
    }


def _main_span_s(data: dict) -> float:
    main_id = data["names"].index("cli.main")
    return sum(
        end - start
        for name, start, end in zip(data["name"], data["start"], data["end"])
        if name == main_id
    )


def _replay(run: Run, count: int, replay, expected) -> None:
    """Re-run the first operations untraced; compare artifacts and times."""
    n = min(count, REPLAY_OPS[run.workload])
    overheads = []
    mismatches = 0
    for i in range(n):
        got, calibrated, wall = run.watch.time(replay, i)
        untraced = calibrated if run.workload != "cli-run" else wall
        overheads.append((run.op_s[i] - untraced) * 1e3)
        if got != expected(i):
            mismatches += 1
            run.fail(i, "traced and untraced artifacts differ")
    run.replay = {"ops": n, "mismatches": mismatches}
    run.extra_metrics["bench.trace_overhead_ms"] = statistics.median(overheads) if overheads else 0.0


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# Reporting

def end_to_end_metrics(run: Run) -> dict:
    values = {
        "setup_s": run.setup_s,
        "op_ms_p50": statistics.median(run.op_s) * 1e3,
        "work_per_s": run.work_units / sum(run.op_s),
        "peak_rss_mb": run.peak_rss_mb
        or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8] if len(values) >= 2 else values[0]


def per_layer_metrics(run: Run) -> dict:
    values = run.tracer.layer_metrics()
    values["cli.start_ms"] = run.extra_metrics.get("cli.start_ms", 0.0)
    values["bench.trace_overhead_ms"] = run.extra_metrics.get("bench.trace_overhead_ms", 0.0)
    return {name: {"value": v, "unit": layer_unit(name)} for name, v in values.items()}


def layer_unit(name: str) -> str:
    if name.endswith("_ms") or name.endswith(".ms"):
        return "ms"
    if name.endswith(".bytes"):
        return "bytes"
    return "count"


#: Which handler spans carry each message kind, for the modeled-vs-measured
#: table.  handle_provision serves m6 then m8; the chain handlers serve m7,
#: m9 and then plain chain values, in driving order.
_KIND_BY_HANDLER = {
    "protocol.EvSession.compose_m1": "m1",
    "protocol.CspaState.handle_m1": "m1",
    "protocol.EvSession.handle_m2": "m2",
    "protocol.RsuState.handle_m3": "m3",
    "protocol.EvSession.compose_m4": "m4",
    "protocol.RsuState.handle_m4": "m4",
    "protocol.EvSession.handle_m5": "m5",
}


def _messages(kind: str, n_pads: int) -> int:
    """How many messages of `kind` one completed session of n_pads sends."""
    if kind == "m8":
        return n_pads - 1
    if kind == "m9":
        return 1 if n_pads >= 2 else 0
    if kind == "chain":
        return max(0, n_pads - 2)
    return 1


def modeled_vs_measured(run: Run, netsim) -> dict:
    """Rounded-table computation ms next to measured handler wall time.

    Each handler call is charged to one message kind: the kind it consumes,
    plus the kind a dedicated composer produces.  So handle_m1's time (which
    also builds m2 and m3) sits in the m1 row.  Reported, not gated.
    """
    tracer = run.tracer
    a = tracer.arrays()
    names = {i: n for n, i in tracer.name_ids.items()}
    measured: dict[str, float] = {}
    position: dict[tuple, int] = {}
    for name_id, op, dur in zip(a["name"].tolist(), a["op"].tolist(), a["dur"].tolist()):
        name = names[name_id]
        if op < 0 or not name.startswith("protocol."):
            continue
        kind = _KIND_BY_HANDLER.get(name)
        if kind is None:
            j = position[(op, name)] = position.get((op, name), -1) + 1
            if name == "protocol.CpState.handle_provision":
                kind = "m6" if j == 0 else "m8"
            else:
                kind = ("m7", "m9")[j] if j < 2 else "chain"
        measured[kind] = measured.get(kind, 0.0) + dur * 1e3
    timing = netsim.TimingModel.rounded_table()
    table = {}
    for kind in ("m1", "m2", "m3", "m4", "m5", "m6", "m7", "m8", "m9", "chain"):
        count = sum(_messages(kind, n) for n in run.op_pads.values())
        if not count or kind not in measured:
            continue
        modeled = sum(
            _messages(kind, n) * float(timing.message_cost_ms(kind, n))
            for n in run.op_pads.values()
        )
        table[kind] = {
            "messages": count,
            "modeled_ms": modeled / count,
            "measured_ms": measured[kind] / count,
        }
    return table


def environment(seed: int, workload: str, trace: bool) -> dict:
    import numpy
    import cryptography

    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "platform": platform.platform(),
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cryptography": cryptography.__version__,
        "blas_threads": _blas_threads(),
        "commit": _git_commit(),
        "tier": TIER,
    }


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, when it can be asked."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class _Package:
    """The dwpt_auth modules a workload uses."""

    def __init__(self):
        from dwpt_auth import ibe, keyfiles, netsim, registration
        from dwpt_auth.ring import TIERS

        self.ibe, self.keyfiles = ibe, keyfiles
        self.netsim, self.registration = netsim, registration
        self.params = TIERS[TIER]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "dwpt_auth" / "__init__.py").is_file():
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    dw = _Package()
    run = Run(args.workload, args.seed, args.seconds, tracer)
    env = environment(args.seed, args.workload, bool(args.trace))
    print("env: " + json.dumps(env, sort_keys=True))
    workload_fn = {"lane": run_lane, "enroll": run_enroll, "cli-run": run_cli}[args.workload]
    run.work_dir.parent.mkdir(exist_ok=True)
    try:
        workload_fn(run, dw)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(run.work_dir, ignore_errors=True)

    attempted = len(run.op_s)  # the first operation always runs
    correct = run.failed == 0
    for line in run.failures:
        print(f"check failed: {line}", file=sys.stderr)
    print(f"artifacts: {json.dumps(run.digests)}")

    op_name, work_name = LABELS[args.workload]
    if tracer is None:
        metrics = end_to_end_metrics(run)
        print(f"{args.workload} seed={args.seed}: {attempted} operations, "
              f"{run.failed} failed (failed_share {run.failed / attempted})")
        shown = {"op_ms_p50": f"{op_name}_p50", "work_per_s": work_name}
        for name, m in metrics.items():
            print(f"  {shown.get(name, name):<18} {m['value']:.6g} {m['unit']}")
        print(f"  {op_name + '_p90':<18} {_p90(run.op_s) * 1e3:.6g} ms  "
              f"(reported, not gated; {attempted} samples)")
        print(f"  raw wall {op_name}_p50 {statistics.median(run.op_wall_s) * 1e3:.6g} ms; "
              f"calibration loop at "
              f"{CAL_NOMINAL_S / statistics.median(run.watch.readings):.3f}x nominal speed")
    else:
        metrics = per_layer_metrics(run)
        table = modeled_vs_measured(run, dw.netsim)
        print(f"{args.workload} seed={args.seed} traced: {attempted} operations, "
              f"{run.failed} failed; replay {run.replay}")
        if table:
            print("  kind   modeled_ms  measured_ms  messages")
            for kind, row in table.items():
                print(f"  {kind:<6} {row['modeled_ms']:>10.3f} {row['measured_ms']:>12.4f} "
                      f"{row['messages']:>9}")
        OUT_DIR.mkdir(exist_ok=True)
        dump = OUT_DIR / f"trace-{args.workload}-s{args.seed}.json.gz"
        tracer.dump(dump, {
            "env": env, "metrics": {k: v["value"] for k, v in metrics.items()},
            "modeled_vs_measured": table, "replay": run.replay,
            "op_pads": run.op_pads, "op_ms": [s * 1e3 for s in run.op_s],
        })
        print(f"spans written to {dump.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
