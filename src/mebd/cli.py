"""Command-line front end: sweeps, the reference-maxima harness, one-off negativities.

stdout carries only data (CSV, tables, JSON); diagnostics go to stderr.
Exit codes: 2 bad flags, arguments or paths (ValueError, OSError), 3 numerical
failure (ArithmeticError, LinAlgError), 4 calibration breach.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
import time
from collections import namedtuple

import numpy as np

from . import __version__, dynamics, entanglement
from .hilbert import Bipartition, SiteSet
from .model import CouplingKind
from .dynamics import MEBD, SweepConfig

EXIT_BAD_FLAGS = 2
EXIT_NUMERICAL = 3
EXIT_CALIBRATION = 4

# Published maxima of the minimal bipartite negativity for the homogeneous
# dipolar chain with the canonical initial states; the all-pairs profile is
# the one that reproduces them (see README).
REFERENCE_MAXIMA = {
    3: ("010", 1.505, 0.943),
    4: ("1001", 1.819, 1.000),
    6: ("100110", 2.110, 0.992),
    8: ("10011001", 2.193, 0.988),
}
REFERENCE_TOL = 0.01


def _err(msg: str) -> None:
    print(f"mebd: {msg}", file=sys.stderr)


def parse_partition(spec: str, n_sites: int) -> Bipartition:
    """Parse '1,2|3,4' into a bipartition of the n-site register."""
    halves = spec.split("|")
    if len(halves) != 2:
        raise ValueError(f"partition must have exactly one '|': {spec!r}")
    try:  # an empty half is an empty part; an empty token between commas is no site
        sites_a, sites_b = ([int(s) for s in half.split(",")] if half else [] for half in halves)
    except ValueError:
        raise ValueError(f"partition sites must be integers: {spec!r}") from None
    if len(set(sites_a + sites_b)) != len(sites_a) + len(sites_b):
        raise ValueError(f"partition repeats a site: {spec!r}")
    a = SiteSet.from_sites(n_sites, sites_a)
    b = SiteSet.from_sites(n_sites, sites_b)
    return Bipartition(a, b)


def _option(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def _config_tokens(dest: str, key: str, val) -> list[str]:
    """A config value as the command-line tokens of its flag.

    A flag that takes no value (store-true) takes only a JSON bool; any other
    flag takes a string or number that its own type and choices accept.
    """
    spec = FLAGS[dest]
    if spec.get("action") == "store_true":
        if isinstance(val, bool):
            return [_option(dest)] if val else []
    elif isinstance(val, (str, int, float)) and not isinstance(val, bool):
        with contextlib.suppress(ValueError):
            out = spec.get("type", str)(str(val))
            if out in spec.get("choices", (out,)):
                return [f"{_option(dest)}={val}"]
    raise ValueError(f"config key {key!r} has an invalid value {val!r}")


def _apply_config(args: argparse.Namespace, argv: list[str] | None) -> argparse.Namespace:
    """Re-parse argv with a JSON config file's keys given as flags before the command line's.

    Keys are flag names, with dashes or underscores; flags given on the
    command line still win, as the later of two values does.  A key that is
    not a flag of the subcommand, or whose value the flag cannot take, fails.
    """
    with open(args.config) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
    flags = COMMANDS[args.command].flags
    tokens = []
    for key, val in data.items():
        dest = key.replace("-", "_")
        if dest not in flags or dest == "config":
            raise ValueError(f"unknown config key {key!r} for '{args.command}'")
        tokens += _config_tokens(dest, key, val)
    argv = sys.argv[1:] if argv is None else argv
    at = argv.index(args.command) + 1
    return _shared_parser().parse_args(argv[:at] + tokens + argv[at:])


def _sweep_config(args: argparse.Namespace) -> SweepConfig:
    quantities = tuple(q.strip().replace("-", "_")
                       for q in args.quantities.split(",") if q.strip())
    fixed = parse_partition(args.e1_partition, args.n) if args.e1_partition else None
    return SweepConfig(n_sites=args.n, initial_label=args.init, profile=CouplingKind(args.profile),
                       tau_start=args.tau_min, tau_end=args.tau_max, tau_step=args.tau_step,
                       quantities=quantities, fixed_bipartition=fixed)


def _manifest(config: dict, wall: float) -> dict:
    """A run's .manifest.json: its settings under config, the code version and wall time."""
    return {"config": config, "code_version": __version__, "wall_time_seconds": wall,
            "profile_used": config["profile"]}


def _write_manifest(out_path: str, manifest: dict) -> None:
    with open(out_path + ".manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _sweep_config(args)
    start = time.monotonic()
    records = dynamics.run_sweep(cfg)
    wall = time.monotonic() - start

    columns = list(records[0].values)  # run_sweep keys each record in CSV column order
    lines = ["tau," + ",".join(columns)]
    for rec in records:
        lines.append(",".join([repr(rec.tau)] + [repr(rec.values[c]) for c in columns]))
    text = "\n".join(lines) + "\n"

    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        manifest = _manifest({
            "n_sites": cfg.n_sites,
            "initial_label": cfg.initial_label,
            "profile": cfg.profile.value,
            "tau_start": cfg.tau_start,
            "tau_end": cfg.tau_end,
            "tau_step": cfg.tau_step,
            "quantities": list(cfg.quantities),
            "e1_partition": (cfg.fixed_bipartition
                             or dynamics.default_fixed_bipartition(cfg.n_sites)).label(),
        }, wall)
        manifest["diagnostics"] = _sweep_diagnostics(records, cfg)
        _write_manifest(args.out, manifest)
        _err(f"wrote {len(records)} rows to {args.out} in {wall:.1f}s")
    else:
        sys.stdout.write(text)
    return 0


def _sweep_diagnostics(records, cfg: SweepConfig) -> dict:
    """Curve-level diagnostics: witness gap and the doubled-estimate ratio at the peak."""
    diag: dict[str, float] = {}
    if MEBD in cfg.quantities and dynamics.E_TILDE in cfg.quantities:
        diag["max_gap_single_node_minus_mebd"] = max(
            rec.values[dynamics.E_TILDE] - rec.values[MEBD] for rec in records)
    if MEBD in cfg.quantities and dynamics.E1_FIXED in cfg.quantities:
        peak = max(records, key=lambda rec: rec.values[MEBD])
        if peak.values[MEBD] > 0:
            diag["doubled_fixed_estimate_over_mebd_at_peak"] = (
                2.0 * peak.values[dynamics.E1_FIXED] / peak.values[MEBD])
    return diag


def cmd_table1(args: argparse.Namespace) -> int:
    kind = CouplingKind(args.profile)
    try:
        n_list = [3, 4, 6, 8] if args.n_list is None else [int(s) for s in args.n_list.split(",")]
        if any(n not in REFERENCE_MAXIMA for n in n_list) or len(set(n_list)) < len(n_list):
            raise ValueError
    except ValueError:
        raise ValueError(f"--n-list entries must be among {sorted(REFERENCE_MAXIMA)}") from None

    grid = {"tau_start": 0.0, "tau_end": 3.0, "tau_step": args.tau_step}
    rows = []
    start = time.monotonic()
    for n in n_list:
        init, tau_ref, e_ref = REFERENCE_MAXIMA[n]
        cfg = SweepConfig(n_sites=n, initial_label=init, profile=kind, quantities=(MEBD,), **grid)
        report = dynamics.first_maximum(cfg, MEBD)
        row = {
            "n_sites": n,
            "initial_label": init,
            "tau_star": report.tau_star,
            "value": report.value,
            "tau_below_pi": dynamics.sanity_tau_bound(report),
        }
        if kind is CouplingKind.ALL_PAIRS_DIPOLAR:
            row["tau_ref"] = tau_ref
            row["value_ref"] = e_ref
            row["tau_dev"] = abs(report.tau_star - tau_ref)
            row["value_dev"] = abs(report.value - e_ref)
        rows.append(row)
    wall = time.monotonic() - start

    breach = any(
        row.get("tau_dev", 0.0) > REFERENCE_TOL or row.get("value_dev", 0.0) > REFERENCE_TOL
        for row in rows
    )
    payload = {
        "profile": kind.value,
        "tolerance": REFERENCE_TOL,
        "rows": rows,
        "wall_time_seconds": wall,
        "code_version": __version__,
    }
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        header = f"{'N':>3} {'init':>10} {'tau*':>8} {'E':>8}"
        if kind is CouplingKind.ALL_PAIRS_DIPOLAR:
            header += f" {'d_tau':>9} {'d_E':>9}"
        print(header)
        for row in rows:
            line = f"{row['n_sites']:>3} {row['initial_label']:>10} " \
                   f"{row['tau_star']:8.3f} {row['value']:8.3f}"
            if "tau_dev" in row:
                line += f" {row['tau_dev']:9.4f} {row['value_dev']:9.4f}"
            print(line)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        _write_manifest(args.out, _manifest({"command": "table1", "profile": kind.value,
                                             "n_list": n_list, **grid, "quantities": [MEBD]},
                                            wall))
    if breach:
        _err(f"deviation from reference maxima exceeds {REFERENCE_TOL}")
        return EXIT_CALIBRATION
    return 0


def cmd_negativity(args: argparse.Namespace) -> int:
    sector, w, v, c0 = dynamics.sector_eigensystem(args.n, args.init, CouplingKind(args.profile))
    psi = np.zeros((1, 1 << args.n), dtype=np.complex128)
    psi[:, sector] = dynamics.amplitudes(w, v, c0, [args.tau])
    partition = parse_partition(args.partition, args.n)
    value = float(entanglement.pure_double_negativity(psi, partition)[0])
    if args.json:
        print(json.dumps({"tau": args.tau, "partition": partition.label(),
                          "double_negativity": value}))
    else:
        print(repr(value))
    return 0


def cmd_first_max(args: argparse.Namespace) -> int:
    cfg = _sweep_config(args)
    quantity = args.quantity.replace("-", "_")
    report = dynamics.first_maximum(cfg, quantity, min_value=args.min_value)
    payload = {
        "quantity": quantity,
        "tau_star": report.tau_star,
        "value": report.value,
        "kind": report.kind,
        "tau_below_pi": dynamics.sanity_tau_bound(report),
        "splits": list(report.splits),
    }
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(f"{quantity}: tau*={report.tau_star:.6f} value={report.value:.6f} "
              f"({report.kind}) splits={','.join(report.splits) or '-'}")
    return 0


# Every flag's argparse spec, keyed by its Namespace name; COMMANDS picks each subcommand's.
FLAGS = {
    "n": dict(type=int, help="chain length"),
    "init": dict(help="initial basis label, e.g. 1001"),
    "profile": dict(choices=[k.value for k in CouplingKind], default="all-pairs"),
    "json": dict(action="store_true", help="emit JSON instead of text"),
    "out": dict(help="output file path"),
    "config": dict(help="JSON config file (same keys as flags)"),
    "tau_min": dict(type=float, default=0.0),
    "tau_max": dict(type=float, default=4.0),
    "tau_step": dict(type=float, default=0.005),
    "quantities": dict(default="mebd,e1_fixed,e_tilde",
                       help="comma list from: mebd,e1_fixed,e_tilde,per-partition"),
    "e1_partition": dict(help="fixed split for e1_fixed, e.g. 1,2,3,4|5,6 "
                              "(default: first half vs rest)"),
    "n_list": dict(help="subset of 3,4,6,8"),
    "tau": dict(type=float),
    "partition": dict(help="split spec like 1,2|3,4"),
    "quantity": dict(default="mebd"),
    "min_value": dict(type=float, default=0.5),
}
GRID_FLAGS = ("tau_min", "tau_max", "tau_step", "quantities", "e1_partition")


# One row per subcommand: its handler, help text, flags in --help order, the
# flags that must be given, and its own flag defaults.
Command = namedtuple("Command", "handler help flags required defaults", defaults=((), {}))
COMMANDS = {
    "sweep": Command(cmd_sweep, "witness curves on a tau grid (CSV)",
                     ("n", "init", "profile", "out", "config", *GRID_FLAGS),
                     required=("n", "init")),
    "table1": Command(cmd_table1, "reproduce the reference maxima for N=3,4,6,8",
                      ("profile", "json", "out", "config", "n_list", "tau_step"),
                      defaults={"tau_step": 0.05}),
    "negativity": Command(cmd_negativity, "double negativity of one split at one tau",
                          ("n", "init", "profile", "json", "config", "tau", "partition"),
                          required=("n", "init", "tau", "partition")),
    "first-max": Command(cmd_first_max, "first qualifying maximum of a witness curve",
                         ("n", "init", "profile", "json", "config", *GRID_FLAGS,
                          "quantity", "min_value"),
                         required=("n", "init")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mebd",
        description="Minimal entanglement of bipartite decompositions for spin-1/2 chains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, cmd in COMMANDS.items():
        # Flags go by full name only: table1 would otherwise read "--n 5" as "--n-list 5".
        p = sub.add_parser(name, help=cmd.help, allow_abbrev=False)
        for dest in cmd.flags:
            p.add_argument(_option(dest), **FLAGS[dest])
        p.set_defaults(**cmd.defaults)
    return parser


_shared_parser = functools.cache(build_parser)  # built by the first main() call, then reused


def _validate_required(args: argparse.Namespace) -> None:
    """Presence only: SweepConfig, sector_eigensystem and basis_index check the values."""
    missing = [_option(d) for d in COMMANDS[args.command].required if getattr(args, d) is None]
    if missing:
        raise ValueError(f"missing required flags: {', '.join(missing)} (flags or --config)")


def main(argv: list[str] | None = None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
        if args.config:
            args = _apply_config(args, argv)
        _validate_required(args)
        return COMMANDS[args.command].handler(args)
    except SystemExit as exc:
        return EXIT_BAD_FLAGS if exc.code not in (0, None) else 0
    # LinAlgError subclasses ValueError, so this handler must come first.
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        _err(f"numerical failure: {exc}")
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:  # json.JSONDecodeError is a ValueError
        _err(str(exc))
        return EXIT_BAD_FLAGS


if __name__ == "__main__":
    sys.exit(main())
