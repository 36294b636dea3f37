"""Command-line front end.

Subcommands cover the full life cycle: authority setup, vehicle registration,
dataset export for the operator, honest session runs, cost/pad-length tables,
and scripted adversary scenarios.  Every artifact embeds the seed and
configuration that produced it, so reruns are reproducible byte for byte.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from dwpt_auth import keyfiles, netsim, protocol
from dwpt_auth.errors import DecodeError, DuplicateRegistration, EmptyRegistry, ProtocolRejection
from dwpt_auth.netsim import TimingModel
from dwpt_auth.registration import export_cspa_dataset, ra_setup, register_vehicle
from dwpt_auth.ring import TIERS

_TIMING_MODES = ("rounded-table", "cycle-accurate")
_POSITIVE = range(1, 1 << 63)  # slot counts, pad counts and speeds
_NON_NEGATIVE = range(1 << 63)  # the freshness window
# Every key some command reads, so one config file can serve setup and run.
_CONFIG_KEYS = {"tier", "seed", "count", "n_pads", "freshness_ms", "timing_mode"}


class _BadSetting(Exception):
    """A flag or config value out of range: one `error:` line, exit status 2."""


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    try:
        config = netsim.parse_config(Path(path).read_text())
    except ValueError as exc:
        raise _BadSetting(f"{path}: {exc}") from None
    for key in config:
        if key not in _CONFIG_KEYS:
            raise _BadSetting(f"{path}: unknown key {key!r}")
    return config


def _check(key: str, value, allowed):
    if value not in allowed:
        if isinstance(allowed, range):
            wanted = f"at least {allowed.start}"
            if allowed.stop < 1 << 63:
                wanted += f" and below {allowed.stop}"
        else:
            wanted = "one of " + ", ".join(allowed)
        raise _BadSetting(f"{key} must be {wanted}, got {value!r}")
    return value


def _setting(args_value, config: dict, key: str, default, cast=str, allowed=None):
    """CLI flag wins, then config file, then the built-in default, which
    must lie in `allowed` if that is given."""
    if args_value is None:
        try:
            args_value = cast(config[key]) if key in config else default
        except ValueError:  # only the int cast can fail
            raise _BadSetting(f"{key} must be an integer, got {config[key]!r}") from None
    return args_value if allowed is None else _check(key, args_value, allowed)


def _int_list(text: str) -> list[int]:
    try:
        values = [int(x) for x in text.replace(",", " ").split()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer list: {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("list must not be empty")
    return values


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_setup(args) -> int:
    config = _load_config(args.config)
    tier = _setting(args.params_tier, config, "tier", "default", allowed=TIERS)
    seed = _setting(args.seed, config, "seed", "0")
    out = _out_dir(args)
    path = out / "authority.bin"
    if path.exists() and not args.force:
        print(f"error: {path} exists (use --force to overwrite)", file=sys.stderr)
        return 1
    params = TIERS[tier]
    ra = ra_setup(params, seed, cspa_identity=args.cspa_id.encode())
    keyfiles.save_authority(path, ra)
    print(
        f"authority written: {path} (tier={tier}, N={params.N}, q={params.q}, "
        f"seed={seed})"
    )
    return 0


def cmd_register(args) -> int:
    config = _load_config(args.config)
    count = _setting(args.count, config, "count", 4, int, _POSITIVE)
    ra = keyfiles.load_authority(args.authority)
    try:
        creds = register_vehicle(ra, args.vehicle_id.encode(), count)
    except DuplicateRegistration as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    keyfiles.save_authority(args.authority, ra)
    out = _out_dir(args) if args.out else Path(args.authority).parent
    vpath = out / f"vehicle-{args.vehicle_id}.bin"
    keyfiles.save_vehicle(vpath, creds)
    print(
        f"vehicle {args.vehicle_id} registered: {count} pseudonyms, "
        f"credentials at {vpath} ({vpath.stat().st_size} bytes)"
    )
    return 0


def cmd_export_dataset(args) -> int:
    ra = keyfiles.load_authority(args.authority)
    try:
        ds = export_cspa_dataset(ra)
    except EmptyRegistry as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out = _out_dir(args) if args.out else Path(args.authority).parent
    path = out / "dataset.bin"
    keyfiles.save_dataset(path, ds)
    print(f"dataset written: {path} ({len(ds.entries)} pseudonyms)")
    return 0


def cmd_run(args) -> int:
    config = _load_config(args.config)
    seed = _setting(args.seed, config, "seed", "0")
    n_pads = _setting(args.n_pads, config, "n_pads", 1, int, _POSITIVE)
    freshness = _setting(
        args.freshness_ms, config, "freshness_ms", protocol.FRESHNESS_WINDOW_MS, int, _NON_NEGATIVE
    )
    mode = _setting(args.timing_mode, config, "timing_mode", "rounded-table", allowed=_TIMING_MODES)
    ra = keyfiles.load_authority(args.authority)
    creds = keyfiles.load_vehicle(args.vehicle)
    if creds.vehicle_id not in ra.vehicles:
        print("error: vehicle is not registered with this authority", file=sys.stderr)
        return 1
    if args.pseudonym_index is not None:
        _check("pseudonym_index", args.pseudonym_index, range(len(creds.entries)))
    trace = netsim.simulate_session(
        ra,
        creds,
        n_pads=n_pads,
        seed=seed,
        timing=TimingModel.for_mode(mode),
        entry_index=args.pseudonym_index,
        freshness_ms=freshness,
    )
    out = _out_dir(args)
    tpath = out / "transcript.jsonl"
    tpath.write_text(trace.to_jsonl())
    summary = trace.summary()
    if any(event.kind == "m2" for event in trace.events):
        # The operator accepted m1 and issued a token: burn the pseudonym on
        # both sides so a rerun is rejected, whether or not the pass completed.
        ra.consumed.add(creds.entries[trace.used_entry_index].pseudonym)
        keyfiles.save_authority(args.authority, ra)
        keyfiles.save_vehicle(args.vehicle, creds)
    if trace.completed:
        print(
            f"session complete: {trace.accepted_pads}/{n_pads} pads accepted, "
            f"first-pad computation {summary['computation_through_first_pad_ms']:.2f} ms, "
            f"total {summary['total_computation_ms']:.2f} ms, "
            f"transcript at {tpath}"
        )
        return 0
    print(
        f"session rejected: {trace.rejection} "
        f"(transcript at {tpath})",
        file=sys.stderr,
    )
    return 1


def cmd_costs(args) -> int:
    config = _load_config(args.config)
    mode = _setting(args.timing_mode, config, "timing_mode", "rounded-table", allowed=_TIMING_MODES)
    _check("n_pads", min(args.n_pads), _POSITIVE)
    _check("speeds", min(args.speeds), _POSITIVE)
    timing = TimingModel.for_mode(mode)
    out = _out_dir(args)
    header = {
        "timing_mode": mode,
        "pad_counts": " ".join(str(n) for n in args.n_pads),
        "speeds_kmh": " ".join(str(v) for v in args.speeds),
    }
    written = []
    for n in args.n_pads:
        path = out / f"message_costs_n{n}.csv"
        netsim.write_message_costs_csv(path, n, timing, {**header, "n_pads": n})
        written.append(path)
    grid_path = out / "pad_lengths.csv"
    netsim.write_pad_length_csv(grid_path, args.speeds, args.n_pads, timing, header)
    written.append(grid_path)
    for path in written:
        print(f"wrote {path}")
    return 0


def cmd_attack(args) -> int:
    config = _load_config(args.config)
    seed = _setting(args.seed, config, "seed", "0")
    n_pads = _setting(args.n_pads, config, "n_pads", 3, int, _POSITIVE)
    ra = keyfiles.load_authority(args.authority)
    creds = keyfiles.load_vehicle(args.vehicle)
    scenarios = (
        sorted(netsim.SCENARIOS) if args.scenario == "all" else [args.scenario]
    )
    out = _out_dir(args)
    all_passed = True
    for name in scenarios:
        try:
            report = netsim.run_adversary(
                name, ra, creds, n_pads=n_pads, seed=f"{seed}:{name}"
            )
        except (ProtocolRejection, EmptyRegistry) as exc:
            print(f"error: scenario {name} could not run: {exc}", file=sys.stderr)
            return 1
        path = out / f"attack_{name}.jsonl"
        path.write_text(report.to_jsonl())
        status = "PASS" if report.passed else "FAIL"
        print(f"{status} {name}: {len(report.actions)} adversary actions, "
              f"{report.accepted_count} accepted")
        for action in report.actions:
            mark = "ACCEPTED" if action.accepted else "rejected"
            print(f"  - {action.description} -> {mark} ({action.reason})")
        all_passed = all_passed and report.passed
    return 0 if all_passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dwpt-auth",
        description="Post-quantum authentication for dynamic wireless EV charging",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("setup", help="generate authority state")
    p.add_argument("--params-tier", choices=sorted(TIERS), default=None)
    p.add_argument("--seed", default=None)
    p.add_argument("--cspa-id", default="CSPA-1")
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_setup)

    p = sub.add_parser("register", help="register a vehicle and issue pseudonyms")
    p.add_argument("--authority", required=True)
    p.add_argument("--vehicle-id", required=True)
    p.add_argument("--count", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_register)

    p = sub.add_parser("export-dataset", help="export the CSPA pseudonym dataset")
    p.add_argument("--authority", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_export_dataset)

    p = sub.add_parser("run", help="simulate one honest charging session")
    p.add_argument("--authority", required=True)
    p.add_argument("--vehicle", required=True)
    p.add_argument("--n-pads", type=int, default=None)
    p.add_argument("--seed", default=None)
    p.add_argument("--pseudonym-index", type=int, default=None)
    p.add_argument("--freshness-ms", type=int, default=None)
    p.add_argument("--timing-mode", choices=_TIMING_MODES, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("costs", help="write cost tables and pad-length grids")
    p.add_argument("--n-pads", type=_int_list, required=True,
                   help="comma-separated pad counts, e.g. 10,50,100")
    p.add_argument("--speeds", type=_int_list, required=True,
                   help="comma-separated speeds in km/h")
    p.add_argument("--timing-mode", choices=_TIMING_MODES, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_costs)

    p = sub.add_parser("attack", help="run scripted adversary scenarios")
    p.add_argument("--scenario", required=True,
                   choices=sorted(netsim.SCENARIOS) + ["all"])
    p.add_argument("--authority", required=True)
    p.add_argument("--vehicle", required=True)
    p.add_argument("--n-pads", type=int, default=None)
    p.add_argument("--seed", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_attack)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DecodeError, _BadSetting) as exc:  # a DecodeError names its file
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # a file that could not be opened, read or written
        if exc.filename is None:
            raise
        print(f"error: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
