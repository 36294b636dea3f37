"""End-to-end command-line lifecycle, driven in process through main()."""

import importlib.metadata as md
import json
import sys
import threading
from pathlib import Path

import pytest

from dwpt_auth import ibe, keyfiles, netsim, protocol, registration
from dwpt_auth.cli import main
from dwpt_auth.ibe import basis_quality
from dwpt_auth.registration import export_cspa_dataset, ra_setup
from dwpt_auth.ring import TIERS

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def _declared_scripts() -> dict:
    """The `[project.scripts]` table of the repo's pyproject.toml."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]


def _installed(dist: str) -> bool:
    try:
        md.distribution(dist)
    except md.PackageNotFoundError:
        return False
    return True


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Authority + registered vehicle + dataset, built once via the CLI."""
    ws = tmp_path_factory.mktemp("cli-lifecycle")
    assert main([
        "setup", "--params-tier", "default", "--seed", "cli-suite",
        "--out", str(ws),
    ]) == 0
    assert main([
        "register", "--authority", str(ws / "authority.bin"),
        "--vehicle-id", "EV-cli", "--count", "6",
    ]) == 0
    assert main([
        "export-dataset", "--authority", str(ws / "authority.bin"),
    ]) == 0
    return ws


@pytest.fixture(scope="module")
def cross_tier(tmp_path_factory):
    """The authority file of `setup --seed 7` and the EV1 wallet that
    `setup --seed 7 --params-tier test` issued: same pseudonyms, another h."""
    ws = tmp_path_factory.mktemp("cross-tier")
    for name, tier in (("a", "default"), ("b", "test")):
        assert main(["setup", "--params-tier", tier, "--seed", "7", "--out", str(ws / name)]) == 0
        assert main([
            "register", "--authority", str(ws / name / "authority.bin"),
            "--vehicle-id", "EV1", "--count", "2",
        ]) == 0
    return ws / "a" / "authority.bin", ws / "b" / "vehicle-EV1.bin"


def _lane(root: Path, wallets: dict) -> Path:
    """A default-tier authority under `root` with each vehicle id of
    `wallets` registered for its slot count, all through main(); returns
    the authority file."""
    assert main(["setup", "--seed", "lane", "--out", str(root)]) == 0
    authority = root / "authority.bin"
    for vehicle_id, count in wallets.items():
        assert main([
            "register", "--authority", str(authority),
            "--vehicle-id", vehicle_id, "--count", str(count),
        ]) == 0
    return authority


class TestSetup:
    def test_writes_authority(self, workspace, capsys):
        assert (workspace / "authority.bin").exists()

    def test_refuses_overwrite_without_force(self, workspace, capsys):
        rc = main([
            "setup", "--params-tier", "test", "--seed", "x",
            "--out", str(workspace),
        ])
        assert rc == 1
        assert "--force" in capsys.readouterr().err
        # and the original file is untouched: the run below still works

    def test_force_overwrites(self, tmp_path, capsys):
        for _ in range(2):
            rc = main([
                "setup", "--params-tier", "test", "--seed", "s",
                "--out", str(tmp_path), "--force",
            ])
            assert rc == 0

    def test_deterministic_artifacts(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main([
                "setup", "--params-tier", "test", "--seed", "same-seed",
                "--out", str(out),
            ]) == 0
        assert (a / "authority.bin").read_bytes() == (b / "authority.bin").read_bytes()

    def test_unknown_tier_from_config(self, tmp_path, capsys):
        cfg = tmp_path / "lane.cfg"
        cfg.write_text("tier = gigantic\n")
        rc = main(["setup", "--out", str(tmp_path), "--config", str(cfg)])
        assert rc == 2

    def test_config_supplies_tier_and_seed(self, tmp_path, capsys):
        cfg = tmp_path / "lane.cfg"
        cfg.write_text("tier = test\nseed = from-config\n")
        assert main(["setup", "--out", str(tmp_path), "--config", str(cfg)]) == 0
        assert "tier=test" in capsys.readouterr().out

    def test_config_comments_blank_lines_and_later_keys(self, tmp_path, capsys):
        """A config file may hold comment lines, trailing comments and blank
        lines, and of a key given twice the later value wins."""
        cfg = tmp_path / "lane.cfg"
        cfg.write_text("# lane setup\nseed = first\n\n  tier = test   # trailing\nseed = second\n")
        assert main(["setup", "--out", str(tmp_path), "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "tier=test" in out and "seed=second)" in out

    def test_config_that_is_not_text(self, tmp_path, capsys):
        """A config file whose bytes do not decode is one error line naming it."""
        cfg = tmp_path / "lane.cfg"
        cfg.write_bytes(b"seed = \xff\n")
        assert main(["setup", "--out", str(tmp_path / "out"), "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: ") and err.count("\n") == 1, err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("tier, fails", [("test", True), ("default", False)])
    def test_states_noise_prediction(self, tmp_path, capsys, tier, fails):
        """One line gives the operator key's predicted decryption noise; a
        tier at which no session completes says so up front."""
        out = str(tmp_path)
        assert main(["setup", "--params-tier", tier, "--seed", "noise", "--out", out]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2 and lines[1].startswith("decryption noise: sd ")
        assert lines[1].endswith("; sessions will end in DecryptFailure") == fails


class TestRegister:
    def test_vehicle_file_written(self, workspace):
        assert (workspace / "vehicle-EV-cli.bin").exists()

    def test_duplicate_rejected(self, workspace, capsys):
        rc = main([
            "register", "--authority", str(workspace / "authority.bin"),
            "--vehicle-id", "EV-cli",
        ])
        assert rc == 1
        assert "already registered" in capsys.readouterr().err

    def test_repeated_pseudonym_is_one_error_line(self, tmp_path, monkeypatch, capsys):
        """A slot whose pseudonym repeats one already issued is one error
        line naming it and exit status 1; the authority file stays as it
        was and no vehicle file is written."""
        assert main(["setup", "--params-tier", "test", "--seed", "s", "--out", str(tmp_path)]) == 0
        authority = tmp_path / "authority.bin"
        before = authority.read_bytes()
        monkeypatch.setattr(registration, "derive_pseudonym", lambda vehicle_id, point: bytes(32))
        capsys.readouterr()
        assert main([
            "register", "--authority", str(authority), "--vehicle-id", "EV-1", "--count", "2",
        ]) == 1
        assert capsys.readouterr().err == f"error: pseudonym {'00' * 32} already issued\n"
        assert authority.read_bytes() == before
        assert not (tmp_path / "vehicle-EV-1.bin").exists()

    def test_retry_after_failed_vehicle_save(self, tmp_path, capsys):
        """A register whose vehicle file cannot be written leaves the
        authority file as it was and names the file it could not write; once
        the obstacle is gone, a retry writes what an undisturbed run writes."""
        def register(out):
            return main([
                "register", "--authority", str(out / "authority.bin"),
                "--vehicle-id", "EV-1", "--count", "2",
            ])

        for out in (tmp_path / "st", tmp_path / "ref"):
            assert main(["setup", "--params-tier", "test", "--seed", "s", "--out", str(out)]) == 0
        st, ref = tmp_path / "st", tmp_path / "ref"
        authority = (st / "authority.bin").read_bytes()
        blocker = st / "vehicle-EV-1.bin"
        blocker.mkdir()
        capsys.readouterr()
        assert register(st) == 2
        assert capsys.readouterr().err == f"error: {blocker}: Is a directory\n"
        assert (st / "authority.bin").read_bytes() == authority
        assert sorted(p.name for p in st.iterdir()) == [
            "authority.bin", "authority.bin.lock", "vehicle-EV-1.bin"
        ]
        blocker.rmdir()
        assert register(st) == 0
        assert register(ref) == 0
        for name in ("vehicle-EV-1.bin", "authority.bin"):
            assert (st / name).read_bytes() == (ref / name).read_bytes()

    def test_corrupt_trapdoor_fails_at_load(self, tmp_path, capsys):
        """An authority file with one bit of F flipped is one error line and
        exit status 2: no wallet is written and the file is left as it was."""
        assert main(["setup", "--params-tier", "test", "--seed", "s", "--out", str(tmp_path)]) == 0
        path = tmp_path / "authority.bin"
        F = keyfiles.load_authority(path).msk.F.coeffs
        stored = b"".join(c.to_bytes(4, "little", signed=True) for c in F)
        blob = path.read_bytes()
        at = blob.index(stored)
        path.write_bytes(blob[:at] + bytes([blob[at] ^ 1]) + blob[at + 1 :])
        before = path.read_bytes()
        capsys.readouterr()
        rc = main([
            "register", "--authority", str(path), "--vehicle-id", "EV-1", "--count", "2",
        ])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {path}: trapdoor fails F*h = G mod q\n"
        assert path.read_bytes() == before
        assert not (tmp_path / "vehicle-EV-1.bin").exists()


    def test_authority_of_a_gaussian_trapdoor_fails_at_load(self, workspace, tmp_path, capsys):
        """An authority written before the annular keygen holds a trapdoor
        that the hybrid sampler does not serve: `register` and `run` on it
        are one error line and exit status 2 each, and write nothing."""
        from test_keyfiles import gaussian_authority

        old = gaussian_authority(ra_setup(TIERS["test"], "gaussian-cli"))
        path = tmp_path / "authority.bin"
        keyfiles.save_authority(path, old)
        quality = basis_quality(old.msk.f, old.msk.g, old.params.q)
        before = path.read_bytes()
        for command in (
            ["register", "--authority", str(path), "--vehicle-id", "EV-1", "--count", "2"],
            ["run", "--authority", str(path), "--vehicle", str(workspace / "vehicle-EV-cli.bin"),
             "--out", str(tmp_path / "run")],
        ):
            capsys.readouterr()
            assert main(command) == 2
            assert capsys.readouterr().err == (
                f"error: {path}: trapdoor quality {quality:.3f} above the sampler's 1.172\n"
            )
        assert path.read_bytes() == before
        assert not (tmp_path / "vehicle-EV-1.bin").exists() and not (tmp_path / "run").exists()


class TestExportDataset:
    def test_dataset_written(self, workspace):
        """dataset.bin holds the operator's view of the authority it came from."""
        back = keyfiles.load_dataset(workspace / "dataset.bin")
        ds = export_cspa_dataset(keyfiles.load_authority(workspace / "authority.bin"))
        assert back.usk == ds.usk
        assert back.gk_cspa_rsu == ds.gk_cspa_rsu
        assert back.entries == ds.entries
        assert back.consumed == ds.consumed

    def test_config_flag_is_a_usage_error(self, workspace, tmp_path):
        """export-dataset reads no setting, so it takes no --config."""
        with pytest.raises(SystemExit) as exc:
            main([
                "export-dataset", "--authority", str(workspace / "authority.bin"),
                "--out", str(tmp_path), "--config", str(tmp_path / "missing.cfg"),
            ])
        assert exc.value.code == 2
        assert not (tmp_path / "dataset.bin").exists()

    def test_empty_registry_rejected(self, tmp_path, capsys):
        assert main([
            "setup", "--params-tier", "test", "--seed", "empty",
            "--out", str(tmp_path),
        ]) == 0
        rc = main(["export-dataset", "--authority", str(tmp_path / "authority.bin")])
        assert rc == 1
        assert "no vehicles" in capsys.readouterr().err


class TestRun:
    def test_session_completes(self, workspace, capsys):
        out = workspace / "run1"
        rc = main([
            "run", "--authority", str(workspace / "authority.bin"),
            "--vehicle", str(workspace / "vehicle-EV-cli.bin"),
            "--n-pads", "5", "--seed", "run-1", "--pseudonym-index", "0",
            "--out", str(out),
        ])
        assert rc == 0
        assert "session complete: 5/5 pads accepted" in capsys.readouterr().out
        lines = [
            json.loads(l)
            for l in (out / "transcript.jsonl").read_text().splitlines()
        ]
        assert lines[0]["type"] == "config"
        assert lines[-1]["type"] == "summary"
        assert lines[-1]["completed"] is True
        assert lines[-1]["accepted_pads"] == 5
        assert lines[-1]["bytes_through_first_pad"] == 640

    def test_pseudonym_rerun_rejected(self, workspace, tmp_path, capsys):
        """A completed run burns its slot on both sides; a rerun on it is
        refused.  The run works on copies, so other tests' runs do not matter."""
        authority, vehicle = tmp_path / "authority.bin", tmp_path / "vehicle-EV-cli.bin"
        for path in (authority, vehicle):
            path.write_bytes((workspace / path.name).read_bytes())

        def run(name, *extra):
            return main([
                "run", "--authority", str(authority), "--vehicle", str(vehicle),
                "--seed", name, *extra, "--out", str(tmp_path / name),
            ])

        assert run("run-1") == 0
        summary = (tmp_path / "run-1" / "transcript.jsonl").read_text().splitlines()[-1]
        slot = str(json.loads(summary)["used_entry_index"])
        capsys.readouterr()
        out = tmp_path / "run-2"
        rc = run("run-2", "--n-pads", "2", "--pseudonym-index", slot)
        assert rc == 1
        assert "PseudonymReuse" in capsys.readouterr().err
        lines = [
            json.loads(l)
            for l in (out / "transcript.jsonl").read_text().splitlines()
        ]
        assert lines[-1]["rejection"] == "PseudonymReuse"

    def test_next_slot_still_works(self, workspace, capsys):
        out = workspace / "run3"
        rc = main([
            "run", "--authority", str(workspace / "authority.bin"),
            "--vehicle", str(workspace / "vehicle-EV-cli.bin"),
            "--n-pads", "1", "--seed", "run-3",
            "--out", str(out),
        ])
        assert rc == 0

    def test_pseudonym_burned_once_operator_accepts(self, workspace, capsys):
        """A pass the RSU rejects after the CSPA issued m2 still spends its slot."""
        def run(name, *extra):
            return main([
                "run", "--authority", str(workspace / "authority.bin"),
                "--vehicle", str(workspace / "vehicle-EV-cli.bin"),
                "--seed", name, "--pseudonym-index", "3", *extra,
                "--out", str(workspace / name),
            ])

        assert run("stale", "--freshness-ms", "139") == 1
        transcript = (workspace / "stale" / "transcript.jsonl").read_text()
        assert json.loads(transcript.splitlines()[-1])["rejection"] == "StaleTimestamp"
        assert '"kind": "m2"' in transcript
        capsys.readouterr()
        assert run("stale-rerun") == 1
        assert "PseudonymReuse" in capsys.readouterr().err

    def test_restored_vehicle_file_skips_consumed_slots(self, workspace, tmp_path, capsys):
        """A vehicle file restored from before a completed run lists the run's
        slot as unspent; the default pick skips it, since the authority
        consumed it, instead of every later run ending in PseudonymReuse."""
        authority, vehicle = tmp_path / "authority.bin", tmp_path / "vehicle-EV-cli.bin"
        for path in (authority, vehicle):
            path.write_bytes((workspace / path.name).read_bytes())
        backup = vehicle.read_bytes()

        def run(name):
            rc = main([
                "run", "--authority", str(authority), "--vehicle", str(vehicle),
                "--seed", name, "--out", str(tmp_path / name),
            ])
            summary = (tmp_path / name / "transcript.jsonl").read_text().splitlines()[-1]
            return rc, json.loads(summary)["used_entry_index"]

        rc, first = run("before-restore")
        assert rc == 0
        vehicle.write_bytes(backup)
        rc, second = run("after-restore")
        assert rc == 0, capsys.readouterr().err
        assert second > first
        assert keyfiles.load_vehicle(vehicle).spent >= {first, second}

    def test_foreign_vehicle_rejected(self, workspace, tmp_path, capsys):
        """A wallet is refused by an authority that did not issue it, also
        once that authority has registered a vehicle of the same id."""
        assert main([
            "setup", "--params-tier", "test", "--seed", "other",
            "--out", str(tmp_path),
        ]) == 0
        authority, vehicle = tmp_path / "authority.bin", workspace / "vehicle-EV-cli.bin"
        for registered in (False, True):
            if registered:
                assert main([
                    "register", "--authority", str(authority),
                    "--vehicle-id", "EV-cli", "--out", str(tmp_path / "issued"),
                ]) == 0
            capsys.readouterr()
            before = authority.read_bytes(), vehicle.read_bytes()
            rc = main([
                "run", "--authority", str(authority), "--vehicle", str(vehicle),
                "--out", str(tmp_path / "run"),
            ])
            assert rc == 1
            assert "not registered" in capsys.readouterr().err
            assert not (tmp_path / "run" / "transcript.jsonl").exists()
            assert (authority.read_bytes(), vehicle.read_bytes()) == before

    def test_unreadable_authority_file_reported(self, workspace, tmp_path, capsys):
        vehicle = workspace / "vehicle-EV-cli.bin"
        rc = main([
            "run", "--authority", str(vehicle), "--vehicle", str(vehicle),
            "--out", str(tmp_path / "run"),
        ])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {vehicle}: container holds vehicle credentials, "
            "expected authority state\n"
        )

    def test_other_layout_reported(self, workspace, tmp_path, capsys):
        """An authority file of another layout version is named as such in
        one error line, not reported as a truncation, and is left alone."""
        path = tmp_path / "authority.bin"
        path.write_bytes(b"DQS3" + (workspace / "authority.bin").read_bytes()[4:])
        before = path.read_bytes()
        rc = main([
            "run", "--authority", str(path),
            "--vehicle", str(workspace / "vehicle-EV-cli.bin"),
            "--out", str(tmp_path / "run"),
        ])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {path}: layout DQS3, this build reads DQS5\n"
        assert path.read_bytes() == before
        assert not (tmp_path / "run").exists()

    def test_operator_commands_never_reach_the_trapdoor(self, workspace, tmp_path, monkeypatch, capsys):
        """run, attack and export-dataset work from the operator key stored at
        setup: no extraction and no sampler build."""
        from dwpt_auth import ibe

        def forbidden(*args, **kwargs):
            raise AssertionError("an operator command used the master trapdoor")

        real_extract = ibe.extract
        for name, module in list(sys.modules.items()):
            if name.startswith("dwpt_auth") and vars(module).get("extract") is real_extract:
                monkeypatch.setattr(module, "extract", forbidden)
        monkeypatch.setattr(ibe.KleinSampler, "__init__", forbidden)
        authority = str(workspace / "authority.bin")
        vehicle = str(workspace / "vehicle-EV-cli.bin")
        assert main([
            "run", "--authority", authority, "--vehicle", vehicle, "--n-pads", "2",
            "--seed", "no-trapdoor", "--pseudonym-index", "2", "--out", str(tmp_path / "run"),
        ]) == 0
        assert main([
            "attack", "--scenario", "pseudonym-reuse", "--authority", authority,
            "--vehicle", vehicle, "--out", str(tmp_path / "attack"),
        ]) == 0
        assert main(["export-dataset", "--authority", authority, "--out", str(tmp_path)]) == 0

    def test_unknown_timing_mode_in_config(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("timing_mode = sundial\n")
        rc = main([
            "run", "--authority", str(workspace / "authority.bin"),
            "--vehicle", str(workspace / "vehicle-EV-cli.bin"),
            "--out", str(tmp_path / "run"), "--config", str(cfg),
        ])
        assert rc == 2


class TestDefaultSeedRuns:
    @pytest.mark.parametrize("vehicles", [("EV-a", "EV-b"), ("EV-a", "EV-a")],
                             ids=["two-vehicles", "two-slots"])
    def test_no_aead_nonce_twice_under_one_key(self, tmp_path, monkeypatch, capsys, vehicles):
        """Two runs at the default seed, of two vehicles or of two slots of
        one vehicle, never seal twice under one AES-GCM key with one nonce:
        each pass draws from a stream of its own pseudonym."""
        authority = _lane(tmp_path, {"EV-a": 2, "EV-b": 1})
        seals = []

        def recording(seal):
            def wrapper(key, *rest):
                blob = seal(key, *rest)
                seals.append((key.key, blob[:12]))
                return blob
            return wrapper

        for module in (protocol, ibe):
            monkeypatch.setattr(module, "aead_seal", recording(module.aead_seal))
        for k, vehicle in enumerate(vehicles):
            assert main([
                "run", "--authority", str(authority),
                "--vehicle", str(tmp_path / f"vehicle-{vehicle}.bin"),
                "--out", str(tmp_path / f"run-{k}"),
            ]) == 0
        assert len(seals) > 2 and len(set(seals)) == len(seals)


class TestConcurrentRuns:
    def test_two_runs_keep_both_burns(self, workspace, tmp_path, monkeypatch, capsys):
        """Two `run`s at once on one authority file each burn a slot, and
        both burns stay consumed.  The first run's load waits (up to a
        second) for the second run's load: the second has to wait for the
        first run's lock, and loads only what the first run saved.  Without
        the lock both would load the same authority, and the later save
        would drop the earlier burn."""
        authority = tmp_path / "authority.bin"
        authority.write_bytes((workspace / "authority.bin").read_bytes())
        for vehicle_id in ("EV-a", "EV-b"):
            assert main([
                "register", "--authority", str(authority), "--vehicle-id", vehicle_id,
                "--count", "1",
            ]) == 0

        real_load, guard, loads = keyfiles.load_authority, threading.Lock(), []
        first_loaded, second_loaded = threading.Event(), threading.Event()

        def load_authority(path):
            ra = real_load(path)
            with guard:
                loads.append(path)
                first = len(loads) == 1
            if first:
                first_loaded.set()
                second_loaded.wait(timeout=1)
            else:
                second_loaded.set()
            return ra

        monkeypatch.setattr(keyfiles, "load_authority", load_authority)
        codes = {}

        def run(vehicle_id):
            codes[vehicle_id] = main([
                "run", "--authority", str(authority),
                "--vehicle", str(tmp_path / f"vehicle-{vehicle_id}.bin"),
                "--seed", vehicle_id, "--out", str(tmp_path / vehicle_id),
            ])

        threads = [threading.Thread(target=run, args=(v,)) for v in ("EV-a", "EV-b")]
        threads[0].start()
        assert first_loaded.wait(timeout=60)
        threads[1].start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert codes == {"EV-a": 0, "EV-b": 0}
        ra = real_load(authority)
        assert set(ra.vehicles[b"EV-a"] + ra.vehicles[b"EV-b"]) <= ra.consumed


class TestMissingFiles:
    """A key file that cannot be opened is one error line, not a traceback."""

    @pytest.mark.parametrize("command", ["run", "register", "attack", "export-dataset"])
    def test_missing_authority(self, workspace, tmp_path, capsys, command):
        missing = tmp_path / "no-authority.bin"
        vehicle = str(workspace / "vehicle-EV-cli.bin")
        argv = {
            "run": ["--vehicle", vehicle, "--out", str(tmp_path / "out")],
            "register": ["--vehicle-id", "EV-new"],
            "attack": ["--scenario", "all", "--vehicle", vehicle, "--out", str(tmp_path / "out")],
            "export-dataset": [],
        }[command]
        assert main([command, "--authority", str(missing), *argv]) == 2
        assert capsys.readouterr().err == f"error: {missing}: No such file or directory\n"
        assert list(tmp_path.glob("*.lock")) == []

    @pytest.mark.parametrize("command", ["run", "attack"])
    def test_missing_vehicle(self, workspace, tmp_path, capsys, command):
        missing = tmp_path / "no-vehicle.bin"
        extra = ["--scenario", "all"] if command == "attack" else []
        assert main([
            command, *extra, "--authority", str(workspace / "authority.bin"),
            "--vehicle", str(missing), "--out", str(tmp_path / "out"),
        ]) == 2
        assert capsys.readouterr().err == f"error: {missing}: No such file or directory\n"

    def test_error_naming_no_file_is_raised(self, tmp_path, monkeypatch):
        """Only an OSError that names its file becomes an error line and
        exit status 2; one that names none is raised as it was."""
        failure = OSError(5, "Input/output error")

        def fail(*args):
            raise failure

        monkeypatch.setattr(netsim, "message_costs_csv", fail)
        with pytest.raises(OSError) as exc:
            main(["costs", "--n-pads", "10", "--speeds", "50", "--out", str(tmp_path)])
        assert exc.value is failure


class TestOutOfRange:
    """A slot count or pad count outside 1 to 2^32 - 1 (which a u32 field
    carries), a speed or `costs` pad count below 1, a `costs` list that is
    empty or not integers, an unknown scenario, a negative freshness
    window, a pseudonym index naming no slot of the vehicle, or a malformed
    config file or one holding a key no command reads is one error line and
    exit status 2, from a flag or from --config, and changes no file."""

    @pytest.mark.parametrize("argv, config, expected", [
        (["register", "--vehicle-id", "EV-zero", "--count", "0"], None, "must be at least 1"),
        (["register", "--vehicle-id", "EV-zero"], "count = 0", "must be at least 1"),
        (["run", "--n-pads", "0"], None, "must be at least 1"),
        (["run", "--n-pads", "-2"], None, "must be at least 1"),
        (["run"], "n_pads = 0", "must be at least 1"),
        (["attack", "--scenario", "all", "--n-pads", "0"], None, "must be at least 1"),
        (["attack", "--scenario", "all"], "n_pads = 0", "must be at least 1"),
        (["register", "--vehicle-id", "EV-huge", "--count", "4294967296"], None,
         "count must be at least 1 and below 4294967296, got 4294967296"),
        (["run", "--n-pads", "4294967296"], None,
         "n_pads must be at least 1 and below 4294967296, got 4294967296"),
        (["attack", "--scenario", "all"], "n_pads = 4294967296",
         "n_pads must be at least 1 and below 4294967296, got 4294967296"),
        (["costs", "--n-pads", "10", "--speeds", "0"], None, "must be at least 1"),
        (["costs", "--n-pads", "10", "--speeds", "50,-5"], None, "must be at least 1"),
        (["costs", "--n-pads", "0", "--speeds", "50"], None, "must be at least 1"),
        (["costs", "--n-pads", "10", "--speeds", "50"], "timing_mode",
         "bad.cfg: line 1: expected key = value"),
        (["run"], "n_pads = x", "n_pads must be an integer, got 'x'"),
        (["run", "--freshness-ms", "-1"], None, "freshness_ms must be at least 0, got -1"),
        (["run"], "freshness_ms = -5", "freshness_ms must be at least 0, got -5"),
        (["run", "--pseudonym-index", "-1"], None,
         "pseudonym_index must be at least 0 and below 6, got -1"),
        (["run", "--pseudonym-index", "99"], None,
         "pseudonym_index must be at least 0 and below 6, got 99"),
        (["run", "--pseudonym-index", "first"], None,
         "pseudonym_index must be an integer, got 'first'"),
        (["run"], "npads = 0", "bad.cfg: unknown key 'npads'"),
        (["run"], "npads = 0\nn_pads", "bad.cfg: line 2: expected key = value"),
        (["costs", "--n-pads", "ten", "--speeds", "10"], None,
         "n_pads must be an integer, got 'ten'"),
        (["costs", "--n-pads", "", "--speeds", "10"], None, "n_pads must be an integer, got ''"),
        (["attack", "--scenario", "meteor-strike"], None,
         "scenario must be one of double-spend, forge-m4, pseudonym-reuse, replay-m7, "
         "stale-timestamp, all, got 'meteor-strike'"),
    ], ids=[
        "register-count", "register-count-config", "run-n-pads", "run-n-pads-negative",
        "run-n-pads-config", "attack-n-pads", "attack-n-pads-config",
        "register-count-past-u32", "run-n-pads-past-u32", "attack-n-pads-config-past-u32",
        "costs-speed-zero",
        "costs-speed-negative", "costs-n-pads", "costs-config-line-without-equals",
        "run-n-pads-config-not-integer", "run-freshness-negative", "run-freshness-config-negative",
        "run-pseudonym-index-negative", "run-pseudonym-index-past-last-slot",
        "run-pseudonym-index-not-integer",
        "run-config-unknown-key", "run-config-unknown-key-then-bad-line",
        "costs-n-pads-not-integer", "costs-n-pads-empty",
        "attack-unknown-scenario",
    ])
    def test_rejected_with_one_line(self, workspace, tmp_path, capsys, argv, config, expected):
        err = self.rejected(workspace, tmp_path, capsys, argv, config)
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert expected in err

    @pytest.mark.parametrize("argv, flag, key, value, expected", [
        (["setup"], "--params-tier", "tier", "bogus",
         "tier must be one of toy, test, default, got 'bogus'"),
        (["register", "--vehicle-id", "EV-abc"], "--count", "count", "abc",
         "count must be an integer, got 'abc'"),
        (["run"], "--n-pads", "n_pads", "1.5", "n_pads must be an integer, got '1.5'"),
        (["run"], "--freshness-ms", "freshness_ms", "soon",
         "freshness_ms must be an integer, got 'soon'"),
        (["run"], "--timing-mode", "timing_mode", "bogus",
         "timing_mode must be one of rounded-table, cycle-accurate, got 'bogus'"),
        (["costs", "--n-pads", "10", "--speeds", "50"], "--timing-mode", "timing_mode", "x",
         "timing_mode must be one of rounded-table, cycle-accurate, got 'x'"),
        (["attack", "--scenario", "all"], "--n-pads", "n_pads", "many",
         "n_pads must be an integer, got 'many'"),
    ], ids=["setup-tier", "register-count", "run-n-pads", "run-freshness", "run-timing-mode",
            "costs-timing-mode", "attack-n-pads"])
    def test_flag_and_config_say_the_same(
        self, workspace, tmp_path, capsys, argv, flag, key, value, expected
    ):
        """A value that is not an integer or not among the choices gives the
        same one line from its flag as from --config: argparse checks
        neither, `cli._setting` checks both."""
        assert self.rejected(workspace, tmp_path, capsys, [*argv, flag, value], None) == (
            f"error: {expected}\n"
        )
        assert self.rejected(workspace, tmp_path, capsys, argv, f"{key} = {value}") == (
            f"error: {expected}\n"
        )

    @staticmethod
    def rejected(workspace, tmp_path, capsys, argv, config) -> str:
        """The stderr of `argv` on the workspace's files, which must exit 2,
        leave the authority file as it was and write no output directory."""
        authority = workspace / "authority.bin"
        files = {
            "setup": [],
            "register": ["--authority", str(authority)],
            "run": ["--authority", str(authority), "--vehicle", str(workspace / "vehicle-EV-cli.bin")],
            "costs": [],
        }
        files["attack"] = files["run"]
        argv = [*argv, *files[argv[0]], "--out", str(tmp_path / "out")]
        if config:
            (tmp_path / "bad.cfg").write_text(config + "\n")
            argv += ["--config", str(tmp_path / "bad.cfg")]
        before = authority.read_bytes()
        assert main(argv) == 2
        assert authority.read_bytes() == before
        assert not (tmp_path / "out").exists()
        return capsys.readouterr().err


class TestCosts:
    def test_writes_tables(self, tmp_path, capsys):
        rc = main([
            "costs", "--n-pads", "10,100", "--speeds", "10,50,130",
            "--out", str(tmp_path),
        ])
        assert rc == 0
        for name in ("message_costs_n10.csv", "message_costs_n100.csv", "pad_lengths.csv"):
            assert (tmp_path / name).exists(), name
        text = (tmp_path / "message_costs_n100.csv").read_text()
        assert "total_first_pad,317.12" in text
        grid = (tmp_path / "pad_lengths.csv").read_text().splitlines()
        header = [l for l in grid if not l.startswith("#")][0]
        assert header == "speed_kmh,n10,n100"
        assert [l.split(",")[0] for l in grid if not l.startswith("#")][1:] == [
            "10", "50", "130",
        ]

    @pytest.mark.parametrize("flag, key", [("--n-pads", "n_pads"), ("--speeds", "speeds")])
    def test_every_listed_value_is_checked(self, tmp_path, capsys, flag, key):
        """A value past 2^63 - 1 is refused wherever it stands in its list."""
        argv = {"--n-pads": "10", "--speeds": "50", flag: "1,9223372036854775808"}
        rc = main(["costs", *(x for item in argv.items() for x in item), "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {key} must be at least 1 and below 9223372036854775808, "
            "got 9223372036854775808\n"
        )
        assert list(tmp_path.iterdir()) == []

    def test_largest_pad_count_finishes(self, tmp_path, capsys):
        """The byte total of a 2^63 - 1 pad lane is computed, not counted."""
        n = (1 << 63) - 1
        assert main(["costs", "--n-pads", str(n), "--speeds", "10", "--out", str(tmp_path)]) == 0
        text = (tmp_path / f"message_costs_n{n}.csv").read_text()
        assert text.splitlines()[-1].endswith(f",{576 + 64 * n},-")


class TestAttack:
    def test_all_scenarios_pass(self, workspace, capsys):
        out = workspace / "attacks"
        rc = main([
            "attack", "--scenario", "all",
            "--authority", str(workspace / "authority.bin"),
            "--vehicle", str(workspace / "vehicle-EV-cli.bin"),
            "--out", str(out),
        ])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert stdout.count("PASS") == 5
        assert "FAIL" not in stdout
        for name in (
            "replay-m7", "pseudonym-reuse", "forge-m4", "double-spend",
            "stale-timestamp",
        ):
            path = out / f"attack_{name}.jsonl"
            assert path.exists()
            first = json.loads(path.read_text().splitlines()[0])
            assert first["passed"] is True
            assert first["adversary_accepted"] == 0

    def test_single_scenario(self, workspace, capsys):
        rc = main([
            "attack", "--scenario", "double-spend",
            "--authority", str(workspace / "authority.bin"),
            "--vehicle", str(workspace / "vehicle-EV-cli.bin"),
            "--out", str(workspace / "attacks-single"),
        ])
        assert rc == 0
        assert "re-spend accepted chain value" in capsys.readouterr().out

    def test_failed_honest_ride_could_not_run(self, workspace, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(protocol, "chain_verify", lambda *args: False)
        rc = main([
            "attack", "--scenario", "double-spend",
            "--authority", str(workspace / "authority.bin"),
            "--vehicle", str(workspace / "vehicle-EV-cli.bin"),
            "--out", str(tmp_path),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: scenario double-spend could not run: ChainMismatch")
        assert not (tmp_path / "attack_double-spend.jsonl").exists()

    def test_accepted_action_fails_the_scenario(self, workspace, tmp_path, monkeypatch, capsys):
        """With pads that accept any chain value, CP2 takes the replayed m7:
        the scenario is reported FAIL with one ACCEPTED line, exit status 1."""
        monkeypatch.setattr(protocol, "chain_verify", lambda *args: True)
        rc = main([
            "attack", "--scenario", "replay-m7",
            "--authority", str(workspace / "authority.bin"),
            "--vehicle", str(workspace / "vehicle-EV-cli.bin"),
            "--out", str(tmp_path),
        ])
        assert rc == 1
        out = capsys.readouterr().out
        assert out.startswith("FAIL replay-m7: 2 adversary actions, 1 accepted")
        assert out.count("ACCEPTED") == 1

    def test_spent_wallet_could_not_run(self, tmp_path, capsys):
        """Once runs have spent every slot, attack refuses with one line
        naming the first scenario and writes no report."""
        authority = _lane(tmp_path, {"EV-a": 1})
        vehicle = tmp_path / "vehicle-EV-a.bin"
        argv = ["--authority", str(authority), "--vehicle", str(vehicle)]
        assert main(["run", *argv, "--out", str(tmp_path / "run")]) == 0
        capsys.readouterr()
        rc = main(["attack", "--scenario", "all", *argv, "--out", str(tmp_path / "attacks")])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: scenario double-spend could not run: "
            "NoUnusedPseudonym: all pseudonym slots spent\n"
        )
        assert list((tmp_path / "attacks").glob("attack_*")) == []

    def test_restored_vehicle_file_skips_consumed_slots(self, workspace, tmp_path, capsys):
        """attack admits a wallet as run does: a vehicle file restored from
        before a completed run lists the run's slot as unspent, and every
        scenario rides another slot instead of ending in PseudonymReuse."""
        authority, vehicle = tmp_path / "authority.bin", tmp_path / "vehicle-EV-cli.bin"
        for path in (authority, vehicle):
            path.write_bytes((workspace / path.name).read_bytes())
        backup = vehicle.read_bytes()
        assert main([
            "run", "--authority", str(authority), "--vehicle", str(vehicle),
            "--out", str(tmp_path / "run"),
        ]) == 0
        vehicle.write_bytes(backup)
        capsys.readouterr()
        rc = main([
            "attack", "--scenario", "all", "--authority", str(authority),
            "--vehicle", str(vehicle), "--out", str(tmp_path / "attacks"),
        ])
        out, err = capsys.readouterr()
        assert rc == 0, err
        assert out.count("PASS") == 5
        assert vehicle.read_bytes() == backup

    def test_foreign_vehicle_rejected(self, workspace, tmp_path, capsys):
        """A same-id wallet that another authority issued is refused before
        any scenario, as run refuses it, and no report is written."""
        assert main([
            "setup", "--params-tier", "test", "--seed", "other", "--out", str(tmp_path),
        ]) == 0
        authority = tmp_path / "authority.bin"
        assert main([
            "register", "--authority", str(authority),
            "--vehicle-id", "EV-cli", "--out", str(tmp_path / "issued"),
        ]) == 0
        capsys.readouterr()
        rc = main([
            "attack", "--scenario", "all", "--authority", str(authority),
            "--vehicle", str(workspace / "vehicle-EV-cli.bin"), "--out", str(tmp_path / "attacks"),
        ])
        assert rc == 1
        assert capsys.readouterr().err == "error: vehicle is not registered with this authority\n"
        assert not (tmp_path / "attacks").exists()

    @pytest.mark.parametrize("command", [["run"], ["attack", "--scenario", "all"]], ids=["run", "attack"])
    def test_wallet_of_same_seed_at_another_tier_rejected(self, cross_tier, command, tmp_path, capsys):
        """Pseudonyms derive from the setup seed alone, so one seed at two
        tiers issues the same pseudonyms under two h.  Such a wallet is
        refused as a foreign one, before any session: run burns no slot of
        the authority, and neither command writes a transcript or report."""
        authority, vehicle = cross_tier
        issued = tuple(e.pseudonym for e in keyfiles.load_vehicle(vehicle).entries)
        assert keyfiles.load_authority(authority).vehicles[b"EV1"] == issued
        before = authority.read_bytes(), vehicle.read_bytes()
        capsys.readouterr()
        rc = main([
            *command, "--authority", str(authority), "--vehicle", str(vehicle),
            "--out", str(tmp_path / "out"),
        ])
        assert rc == 1
        assert capsys.readouterr().err == "error: vehicle is not registered with this authority\n"
        assert (authority.read_bytes(), vehicle.read_bytes()) == before
        assert not (tmp_path / "out").exists()


class TestParser:
    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_console_script_entry_point(self):
        # The declaration in pyproject.toml is the wiring's source; tier-1
        # runs from src/ without installing, so no dist-info exists to read.
        declared = _declared_scripts().get("dwpt-auth")
        assert declared == "dwpt_auth.cli:main"
        ep = md.EntryPoint(name="dwpt-auth", value=declared, group="console_scripts")
        assert ep.load() is main

    @pytest.mark.skipif(
        not _installed("dwpt-auth"),
        reason="distribution dwpt-auth is not installed; no entry-point metadata to read",
    )
    def test_installed_console_script_matches_pyproject(self):
        installed = {
            ep.name: ep.value
            for ep in md.distribution("dwpt-auth").entry_points
            if ep.group == "console_scripts"
        }
        assert installed.get("dwpt-auth") == _declared_scripts().get("dwpt-auth")
