"""Command-line front end.

Subcommands cover the full life cycle: authority setup, vehicle registration,
dataset export for the operator, honest session runs, cost/pad-length tables,
and scripted adversary scenarios.  Every artifact embeds the seed and
configuration that produced it, so reruns are reproducible byte for byte.
This module reads the config files and writes every output file but the key
containers, which `keyfiles` reads and writes.
"""

from __future__ import annotations

import argparse
import contextlib
import fcntl
import os
import sys
from pathlib import Path

from dwpt_auth import keyfiles, netsim, protocol
from dwpt_auth.errors import DecodeError, DuplicateRegistration, EmptyRegistry, ProtocolRejection
from dwpt_auth.ibe import noise_model
from dwpt_auth.netsim import TIMING_MODES
from dwpt_auth.registration import export_cspa_dataset, ra_setup, register_vehicle
from dwpt_auth.ring import TIERS

_POSITIVE = range(1, 1 << 63)  # the pad counts and speeds of `costs`
_COUNT = range(1, 1 << 32)  # slot and pad counts, which a u32 field carries
_NON_NEGATIVE = range(1 << 63)  # the freshness window
_SCENARIOS = [*sorted(netsim.SCENARIOS), "all"]
# Every key some command reads, so one config file can serve setup and run.
_CONFIG_KEYS = {"tier", "seed", "count", "n_pads", "freshness_ms", "timing_mode"}


class _BadSetting(Exception):
    """A flag or config value out of range: one `error:` line, exit status 2."""


def _load_config(path: str | None) -> dict:
    """The `key = value` lines of a config file; '#' starts a comment and a
    later key wins.  Every line is parsed before any key is checked."""
    if not path:
        return {}
    try:
        text = Path(path).read_text()
    except ValueError as exc:  # bytes that do not decode as text
        raise _BadSetting(f"{path}: {exc}") from None
    config = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise _BadSetting(f"{path}: line {lineno}: expected key = value")
        key, value = line.split("=", 1)
        config[key.strip()] = value.strip()
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
    """CLI flag wins, then config file, then the built-in default.  A flag
    and a config value are both text, cast and checked alike; the value,
    the default too, must lie in `allowed` if that is given."""
    text = config.get(key) if args_value is None else args_value
    try:
        value = default if text is None else cast(text)
    except ValueError:  # only the integer casts can fail
        raise _BadSetting(f"{key} must be an integer, got {text!r}") from None
    return value if allowed is None else _check(key, value, allowed)


def _int_list(text: str) -> list[int]:
    """Integers separated by commas or spaces, at least one, or ValueError."""
    values = [int(x) for x in text.replace(",", " ").split()]
    if not values:
        raise ValueError("empty list")
    return values


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


@contextlib.contextmanager
def _writing(authority, creating: bool = False):
    """Hold an exclusive lock on the sibling file `<authority>.lock`.

    `setup`, `register` and `run` each hold it from their load of the
    authority file (or, for `setup`, its existence check) to their last
    save, so two of them never interleave a read-modify-write and lose one
    another's registrations or burned slots.  `export-dataset` and
    `attack` only read the file and take no lock: `keyfiles.save`
    replaces it by a rename, so a reader opens one whole version.
    Only `setup` (`creating`) locks beside a missing authority file; for
    the others that is the load's error, raised before any lock file.
    """
    if not creating:
        os.stat(authority)
    path = Path(authority)
    with open(path.with_name(path.name + ".lock"), "a") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # released when the file closes
        yield


def cmd_setup(args) -> int:
    config = _load_config(args.config)
    tier = _setting(args.params_tier, config, "tier", "default", allowed=TIERS)
    seed = _setting(args.seed, config, "seed", "0")
    out = _out_dir(args)
    path = out / "authority.bin"
    params = TIERS[tier]
    with _writing(path, creating=True):
        if path.exists() and not args.force:
            print(f"error: {path} exists (use --force to overwrite)", file=sys.stderr)
            return 1
        ra = ra_setup(params, seed)
        keyfiles.save_authority(path, ra)
    print(
        f"authority written: {path} (tier={tier}, N={params.N}, q={params.q}, "
        f"seed={seed})"
    )
    noise = noise_model(ra.cspa_usk)
    line = (
        f"decryption noise: sd {noise.sd:.3g} of q/4 (z = {noise.z:.3g}), "
        f"bit flip {noise.bit_flip:.2g}, content key opens {noise.key_opens:.2g}"
    )
    if noise.key_opens**2 < 0.5:  # a session opens two content keys, m1's and m2's
        line += "; sessions will end in DecryptFailure"
    print(line)
    return 0


def cmd_register(args) -> int:
    config = _load_config(args.config)
    count = _setting(args.count, config, "count", 4, int, _COUNT)
    with _writing(args.authority):
        ra = keyfiles.load_authority(args.authority)
        try:
            creds = register_vehicle(ra, args.vehicle_id.encode(), count)
        except DuplicateRegistration as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        out = _out_dir(args) if args.out else Path(args.authority).parent
        vpath = out / f"vehicle-{args.vehicle_id}.bin"
        # The wallet first: until the authority file lists the vehicle, a
        # retry after a failed save re-derives the same wallet and writes it
        # again.
        keyfiles.save_vehicle(vpath, creds)
        keyfiles.save_authority(args.authority, ra)
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


def _admit(ra, creds) -> bool:
    """Whether `ra` issued the wallet `creds`, its pseudonyms under its h (a
    setup seed gives the same pseudonyms at every tier); if not, print an
    error line.

    A vehicle file restored from a backup may list a slot as unspent that
    the authority has consumed; an admitted wallet gets it marked spent, so
    the default pick skips it.
    """
    issued = tuple(e.pseudonym for e in creds.entries)
    if ra.vehicles.get(creds.vehicle_id) != issued or creds.entries[0].usk.h != ra.mpk.h:
        print("error: vehicle is not registered with this authority", file=sys.stderr)
        return False
    creds.spent.update(i for i, e in enumerate(creds.entries) if e.pseudonym in ra.consumed)
    return True


def cmd_run(args) -> int:
    config = _load_config(args.config)
    seed = _setting(args.seed, config, "seed", "0")
    n_pads = _setting(args.n_pads, config, "n_pads", 1, int, _COUNT)
    freshness = _setting(
        args.freshness_ms, config, "freshness_ms", protocol.FRESHNESS_WINDOW_MS, int, _NON_NEGATIVE
    )
    mode = _setting(args.timing_mode, config, "timing_mode", "rounded-table", allowed=TIMING_MODES)
    index = _setting(args.pseudonym_index, {}, "pseudonym_index", None, int)
    with _writing(args.authority):
        ra = keyfiles.load_authority(args.authority)
        creds = keyfiles.load_vehicle(args.vehicle)
        if not _admit(ra, creds):
            return 1
        if index is not None:
            _check("pseudonym_index", index, range(len(creds.entries)))
        trace = netsim.simulate_session(
            ra,
            creds,
            n_pads=n_pads,
            seed=seed,
            timing=TIMING_MODES[mode],
            entry_index=index,
            freshness_ms=freshness,
        )
        out = _out_dir(args)
        tpath = out / "transcript.jsonl"
        tpath.write_text(trace.to_jsonl())
        if netsim.record_pass(ra, creds, trace):
            # Burned on both sides: the authority first, so a crash between
            # the two saves leaves the slot consumed and a default run skips
            # it.
            keyfiles.save_authority(args.authority, ra)
            keyfiles.save_vehicle(args.vehicle, creds)
    summary = trace.summary()
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
    mode = _setting(args.timing_mode, config, "timing_mode", "rounded-table", allowed=TIMING_MODES)
    pad_counts = _setting(args.n_pads, {}, "n_pads", None, _int_list)
    speeds = _setting(args.speeds, {}, "speeds", None, _int_list)
    _check("n_pads", min(pad_counts), _POSITIVE)
    _check("speeds", min(speeds), _POSITIVE)
    timing = TIMING_MODES[mode]
    out = _out_dir(args)
    header = {
        "timing_mode": mode,
        "pad_counts": " ".join(str(n) for n in pad_counts),
        "speeds_kmh": " ".join(str(v) for v in speeds),
    }
    written = []
    for n in pad_counts:
        path = out / f"message_costs_n{n}.csv"
        path.write_text(netsim.message_costs_csv(n, timing, {**header, "n_pads": n}))
        written.append(path)
    grid_path = out / "pad_lengths.csv"
    grid_path.write_text(netsim.pad_lengths_csv(speeds, pad_counts, timing, header))
    written.append(grid_path)
    for path in written:
        print(f"wrote {path}")
    return 0


def cmd_attack(args) -> int:
    config = _load_config(args.config)
    seed = _setting(args.seed, config, "seed", "0")
    n_pads = _setting(args.n_pads, config, "n_pads", 3, int, _COUNT)
    scenario = _check("scenario", args.scenario, _SCENARIOS)
    ra = keyfiles.load_authority(args.authority)
    creds = keyfiles.load_vehicle(args.vehicle)
    if not _admit(ra, creds):
        return 1
    scenarios = sorted(netsim.SCENARIOS) if scenario == "all" else [scenario]
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


def _choices(names) -> str:
    """The allowed values as `--help` shows them; `_check` checks them."""
    return "{" + ",".join(names) + "}"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dwpt-auth",
        description="Post-quantum authentication for dynamic wireless EV charging",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("setup", help="generate authority state")
    p.add_argument("--params-tier", metavar=_choices(sorted(TIERS)), default=None)
    p.add_argument("--seed", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_setup)

    p = sub.add_parser("register", help="register a vehicle and issue pseudonyms")
    p.add_argument("--authority", required=True)
    p.add_argument("--vehicle-id", required=True)
    p.add_argument("--count", default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_register)

    p = sub.add_parser("export-dataset", help="export the CSPA pseudonym dataset")
    p.add_argument("--authority", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_export_dataset)

    p = sub.add_parser("run", help="simulate one honest charging session")
    p.add_argument("--authority", required=True)
    p.add_argument("--vehicle", required=True)
    p.add_argument("--n-pads", default=None)
    p.add_argument("--seed", default=None)
    p.add_argument("--pseudonym-index", default=None)
    p.add_argument("--freshness-ms", default=None)
    p.add_argument("--timing-mode", metavar=_choices(TIMING_MODES), default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("costs", help="write cost tables and pad-length grids")
    p.add_argument("--n-pads", required=True, help="comma-separated pad counts, e.g. 10,50,100")
    p.add_argument("--speeds", required=True, help="comma-separated speeds in km/h")
    p.add_argument("--timing-mode", metavar=_choices(TIMING_MODES), default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_costs)

    p = sub.add_parser("attack", help="run scripted adversary scenarios")
    p.add_argument("--scenario", metavar=_choices(_SCENARIOS), required=True)
    p.add_argument("--authority", required=True)
    p.add_argument("--vehicle", required=True)
    p.add_argument("--n-pads", default=None)
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
