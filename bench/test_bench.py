"""Self-tests of the benchmark (not part of the package's test suite).

    python3 -m pytest -q bench/test_bench.py

Runs every workload once untraced and once traced at the same seed with a
one-second measurement (about two minutes in all), then checks:

- the result line follows BENCHMARK.json and every output check passed;
- tracing leaves the seeded artifacts byte-identical (lane transcripts,
  enroll vehicle files, cli-run transcript.jsonl and authority.bin);
- span coverage: each span fires on the workload predicted to exercise it
  and stays silent where the design predicts a bypass, so a renamed
  function cannot silently drop a layer.
"""

from __future__ import annotations

import gzip
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SEED = 7
WORKLOADS = ("lane", "enroll", "cli-run")

sys.path.insert(0, str(BENCH_DIR))
from tracer import SPAN_NAMES  # noqa: E402

HANDLERS = [n for n in SPAN_NAMES if n.startswith("protocol.")]
KEYFILES = [n for n in SPAN_NAMES if n.startswith("keyfiles.")]
SESSION_PATH = HANDLERS + [
    "netsim.simulate_session", "netsim.build_world",
    "registration.export_cspa_dataset", "ibe.ibe_seal", "ibe.ibe_open",
    "ibe.encrypt", "ibe.decrypt", "symcrypto.aead_seal", "symcrypto.aead_open",
    "symcrypto.HashChain.build", "symcrypto.HashChain.from_digests",
    "symcrypto.chain_verify", "ring.RingElement.__mul__", "ring.hash_to_ring",
]
KEYGEN = ["ibe.master_key_gen", "ntrusolve.ntru_solve", "ntrusolve.karamul"]

#: Per workload: spans that fire in every timed operation, and spans that
#: never fire in the timed region.
PREDICTIONS = {
    "lane": (
        SESSION_PATH,
        KEYFILES + KEYGEN + [
            "ibe.KleinSampler.__init__", "ibe.KleinSampler.sample_near",
            "ring.sample_gaussian_int", "registration.register_vehicle",
            "cli.cmd_run", "cli.main",
        ],
    ),
    "enroll": (
        ["registration.register_vehicle", "ibe.extract",
         "ibe.KleinSampler.sample_near", "ring.sample_gaussian_int",
         "ring.hash_to_ring"],
        HANDLERS + KEYFILES + KEYGEN + [
            "symcrypto.aead_seal", "symcrypto.aead_open", "ibe.ibe_seal",
            "ibe.ibe_open", "ibe.encrypt", "ibe.decrypt",
            "ibe.KleinSampler.__init__", "netsim.simulate_session",
            "netsim.build_world", "cli.cmd_run", "cli.main",
        ],
    ),
    "cli-run": (
        SESSION_PATH + [
            "ibe.KleinSampler.__init__", "ibe.extract",
            "keyfiles.authority_from_bytes", "keyfiles.authority_to_bytes",
            "keyfiles.vehicle_from_bytes", "keyfiles.vehicle_to_bytes",
            "keyfiles.save", "cli.cmd_run", "cli.main",
        ],
        KEYGEN + ["registration.register_vehicle"],
    ),
}


def _bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    lines = proc.stdout.splitlines()
    artifacts = next(l for l in lines if l.startswith("artifacts: "))
    return {
        "returncode": proc.returncode,
        "stderr": proc.stderr,
        "result": json.loads(lines[-1]),
        "artifacts": json.loads(artifacts[len("artifacts: "):]),
    }


@pytest.fixture(scope="module")
def runs() -> dict:
    return {(w, t): _bench(w, t) for w in WORKLOADS for t in (0, 1)}


@pytest.fixture(scope="module")
def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _spans(workload: str) -> dict:
    path = ROOT / ".bench_out" / f"trace-{workload}-s{SEED}.json.gz"
    with gzip.open(path, "rt") as fh:
        spans = json.load(fh)["spans"]
    return {
        "names": spans["names"],
        "name": np.array(spans["name"], dtype=np.int64),
        "op": np.array(spans["op"], dtype=np.int64),
    }


@pytest.mark.parametrize("workload", WORKLOADS)
def test_result_follows_benchmark_json(runs, spec, workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        run = runs[(workload, trace)]
        assert run["returncode"] == 0, run["stderr"]
        result = run["result"]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in spec[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == expected
    for name, m in runs[(workload, 0)]["result"]["metrics"].items():
        assert m["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tracing_leaves_artifacts_byte_identical(runs, workload):
    untraced = runs[(workload, 0)]["artifacts"]
    traced = runs[(workload, 1)]["artifacts"]
    common = min(len(untraced), len(traced))
    assert common >= 1
    assert untraced[:common] == traced[:common]
    # The traced run also replayed its first operations with the wrappers
    # removed; a mismatch there would have failed its output check.
    assert runs[(workload, 1)]["result"]["correct"] is True


@pytest.mark.parametrize("workload", WORKLOADS)
def test_span_coverage(runs, workload):
    assert runs[(workload, 1)]["returncode"] == 0
    spans = _spans(workload)
    names, name, op = spans["names"], spans["name"], spans["op"]
    timed_ops = sorted(set(op[op >= 0].tolist()))
    assert timed_ops
    fires, silent = PREDICTIONS[workload]
    for span in fires:
        sid = names.index(span)
        for o in timed_ops:
            assert np.count_nonzero((name == sid) & (op == o)) >= 1, (span, o)
    for span in silent:
        sid = names.index(span)
        assert np.count_nonzero((name == sid) & (op >= 0)) == 0, span


def test_every_span_fires_somewhere(runs):
    fired = set()
    for workload in WORKLOADS:
        assert runs[(workload, 1)]["returncode"] == 0
        spans = _spans(workload)
        fired |= {spans["names"][i] for i in set(spans["name"].tolist())}
    assert fired == set(SPAN_NAMES)


def test_setup_builds_keys_and_sampler(runs):
    for workload in WORKLOADS:
        spans = _spans(workload)
        names, name, op = spans["names"], spans["name"], spans["op"]
        for span in KEYGEN + ["ibe.KleinSampler.__init__"]:
            assert np.count_nonzero((name == names.index(span)) & (op < 0)) >= 1, span


def test_without_package_sources_exits_nonzero_without_result():
    bare = ROOT / ".bench_out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = subprocess.run(
            [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "lane",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, timeout=170, cwd=bare,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
