"""End-to-end command-line lifecycle, driven in process through main()."""

import dataclasses
import importlib.metadata as md
import json
import math
import struct
import sys
from pathlib import Path

import pytest

from dwpt_auth import keyfiles
from dwpt_auth.cli import main
from dwpt_auth.registration import export_cspa_dataset
from dwpt_auth.ring import TIERS
from dwpt_auth.symcrypto import SymmetricKey

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

    def test_wide_extraction_width_reported(self, tmp_path, capsys):
        """A stored sigma_extract of 3*sqrt(q), past what the sampler serves,
        is one error line at load, not a failure inside extraction."""
        path = tmp_path / "authority.bin"
        assert main(["setup", "--params-tier", "test", "--seed", "wide", "--out", str(tmp_path)]) == 0
        p = TIERS["test"]
        packed = struct.pack("<d", p.sigma_extract)
        blob = path.read_bytes()
        assert blob.count(packed) == 2  # the authority and master key headers
        path.write_bytes(blob.replace(packed, struct.pack("<d", 3 * math.sqrt(p.q))))
        capsys.readouterr()
        assert main(["register", "--authority", str(path), "--vehicle-id", "EV-wide"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: stored sigma_extract ")
        assert err.count("\n") == 1


class TestExportDataset:
    def test_dataset_written(self, workspace):
        """dataset.bin holds the operator's view of the authority it came from."""
        back = keyfiles.load_dataset(workspace / "dataset.bin")
        ds = export_cspa_dataset(keyfiles.load_authority(workspace / "authority.bin"))
        assert back.cspa_identity == ds.cspa_identity
        assert back.usk == ds.usk
        assert back.gk_cspa_rsu == ds.gk_cspa_rsu
        assert back.entries == ds.entries
        assert back.consumed == ds.consumed

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

    def test_pseudonym_rerun_rejected(self, workspace, capsys):
        """The completed run above burned slot 0 on both sides."""
        out = workspace / "run2"
        rc = main([
            "run", "--authority", str(workspace / "authority.bin"),
            "--vehicle", str(workspace / "vehicle-EV-cli.bin"),
            "--n-pads", "2", "--seed", "run-2", "--pseudonym-index", "0",
            "--out", str(out),
        ])
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

    def test_foreign_vehicle_rejected(self, workspace, tmp_path, capsys):
        assert main([
            "setup", "--params-tier", "test", "--seed", "other",
            "--out", str(tmp_path),
        ]) == 0
        rc = main([
            "run", "--authority", str(tmp_path / "authority.bin"),
            "--vehicle", str(workspace / "vehicle-EV-cli.bin"),
            "--out", str(tmp_path / "run"),
        ])
        assert rc == 1
        assert "not registered" in capsys.readouterr().err

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

    def test_wrong_group_key_role_reported(self, workspace, tmp_path, capsys):
        ra = keyfiles.load_authority(workspace / "authority.bin")
        key = SymmetricKey(ra.gk_cspa_rsu.key, "session")
        path = tmp_path / "authority.bin"
        keyfiles.save_authority(path, dataclasses.replace(ra, gk_cspa_rsu=key))
        rc = main([
            "run", "--authority", str(path),
            "--vehicle", str(workspace / "vehicle-EV-cli.bin"),
            "--out", str(tmp_path / "run"),
        ])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {path}: group key role b'session', expected 'group-cspa-rsu'\n"
        )

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

    @pytest.mark.parametrize("command", ["run", "attack"])
    def test_missing_vehicle(self, workspace, tmp_path, capsys, command):
        missing = tmp_path / "no-vehicle.bin"
        extra = ["--scenario", "all"] if command == "attack" else []
        assert main([
            command, *extra, "--authority", str(workspace / "authority.bin"),
            "--vehicle", str(missing), "--out", str(tmp_path / "out"),
        ]) == 2
        assert capsys.readouterr().err == f"error: {missing}: No such file or directory\n"


class TestOutOfRange:
    """A slot count, pad count or speed below 1, a negative freshness window,
    a pseudonym index naming no slot of the vehicle, or a malformed config
    file or one holding a key no command reads is one error line and exit
    status 2, from a flag or from --config, and changes no file."""

    @pytest.mark.parametrize("argv, config, expected", [
        (["register", "--vehicle-id", "EV-zero", "--count", "0"], None, "must be at least 1"),
        (["register", "--vehicle-id", "EV-zero"], "count = 0", "must be at least 1"),
        (["run", "--n-pads", "0"], None, "must be at least 1"),
        (["run", "--n-pads", "-2"], None, "must be at least 1"),
        (["run"], "n_pads = 0", "must be at least 1"),
        (["attack", "--scenario", "all", "--n-pads", "0"], None, "must be at least 1"),
        (["attack", "--scenario", "all"], "n_pads = 0", "must be at least 1"),
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
        (["run"], "npads = 0", "bad.cfg: unknown key 'npads'"),
    ], ids=[
        "register-count", "register-count-config", "run-n-pads", "run-n-pads-negative",
        "run-n-pads-config", "attack-n-pads", "attack-n-pads-config", "costs-speed-zero",
        "costs-speed-negative", "costs-n-pads", "costs-config-line-without-equals",
        "run-n-pads-config-not-integer", "run-freshness-negative", "run-freshness-config-negative",
        "run-pseudonym-index-negative", "run-pseudonym-index-past-last-slot",
        "run-config-unknown-key",
    ])
    def test_rejected_with_one_line(self, workspace, tmp_path, capsys, argv, config, expected):
        authority = workspace / "authority.bin"
        files = {
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
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert expected in err
        assert authority.read_bytes() == before
        assert not (tmp_path / "out").exists()


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

    def test_bad_pad_list(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["costs", "--n-pads", "ten", "--speeds", "10", "--out", str(tmp_path)])
        assert exc.value.code == 2


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

    def test_unknown_scenario_is_a_usage_error(self, workspace):
        with pytest.raises(SystemExit) as exc:
            main([
                "attack", "--scenario", "meteor-strike",
                "--authority", str(workspace / "authority.bin"),
                "--vehicle", str(workspace / "vehicle-EV-cli.bin"),
                "--out", str(workspace / "attacks-bad"),
            ])
        assert exc.value.code == 2


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
