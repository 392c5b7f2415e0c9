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

import numpy as np

from . import __version__, dynamics, entanglement
from .hilbert import Bipartition, SiteSet
from .model import CouplingKind
from .dynamics import MEBD, PER_PARTITION, SweepConfig

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
    try:
        sites_a = [int(s) for s in halves[0].split(",") if s]
        sites_b = [int(s) for s in halves[1].split(",") if s]
    except ValueError:
        raise ValueError(f"partition sites must be integers: {spec!r}") from None
    if len(set(sites_a + sites_b)) != len(sites_a) + len(sites_b):
        raise ValueError(f"partition repeats a site: {spec!r}")
    a = SiteSet.from_sites(n_sites, sites_a)
    b = SiteSet.from_sites(n_sites, sites_b)
    return Bipartition(a, b)


def _config_default(action: argparse.Action, key: str, val):
    """A config value as its flag would read it from the command line.

    A flag that takes no value (store-true) takes only a JSON bool; any other
    flag takes a string or number, converted by the flag's own type.
    """
    if action.nargs == 0:
        if isinstance(val, bool):
            return val
    elif isinstance(val, (str, int, float)) and not isinstance(val, bool):
        with contextlib.suppress(ValueError):
            out = (action.type or str)(str(val))
            if action.choices is None or out in action.choices:
                return out
    raise ValueError(f"config key {key!r} has an invalid value {val!r}")


def _apply_config(args: argparse.Namespace, argv: list[str] | None) -> argparse.Namespace:
    """Re-parse argv on a fresh parser, a JSON config file's keys as the subcommand's defaults.

    Keys are flag names, with dashes or underscores; flags given on the
    command line still win.  A key that is not a flag of the subcommand, or
    whose value the flag cannot take, fails.  No later call sees the keys.
    """
    with open(args.config) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
    parser = build_parser()
    sub = parser.get_default("subcommands")[args.command]
    actions = {a.dest: a for a in sub._actions if a.dest not in ("help", "config")}
    defaults = {}
    for key, val in data.items():
        action = actions.get(key.replace("-", "_"))
        if action is None:
            raise ValueError(f"unknown config key {key!r} for '{args.command}'")
        defaults[action.dest] = _config_default(action, key, val)
    sub.set_defaults(**defaults)
    return parser.parse_args(argv)


def _sweep_config(args: argparse.Namespace) -> SweepConfig:
    quantities = tuple(q.strip().replace("-", "_")
                       for q in args.quantities.split(",") if q.strip())
    fixed = parse_partition(args.e1_partition, args.n) if args.e1_partition else None
    return SweepConfig(
        n_sites=args.n,
        initial_label=args.init,
        profile=CouplingKind(args.profile),
        tau_start=args.tau_min,
        tau_end=args.tau_max,
        tau_step=args.tau_step,
        quantities=quantities,
        fixed_bipartition=fixed,
    )


def _manifest(cfg: SweepConfig, wall: float) -> dict:
    return {
        "config": {
            "n_sites": cfg.n_sites,
            "initial_label": cfg.initial_label,
            "profile": cfg.profile.value,
            "tau_start": cfg.tau_start,
            "tau_end": cfg.tau_end,
            "tau_step": cfg.tau_step,
            "quantities": list(cfg.quantities),
        },
        "code_version": __version__,
        "wall_time_seconds": wall,
        "profile_used": cfg.profile.value,
    }


def _write_manifest(out_path: str, manifest: dict) -> None:
    with open(out_path + ".manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _sweep_config(args)
    start = time.monotonic()
    records = dynamics.run_sweep(cfg)
    wall = time.monotonic() - start

    columns = [q for q in (dynamics.MEBD, dynamics.E1_FIXED, dynamics.E_TILDE)
               if q in cfg.quantities]
    if PER_PARTITION in cfg.quantities:
        columns += [f"p_{p.label()}" for p in entanglement.enumerate_bipartitions(cfg.n_sites)]

    lines = ["tau," + ",".join(columns)]
    for rec in records:
        lines.append(",".join([repr(rec.tau)] + [repr(rec.values[c]) for c in columns]))
    text = "\n".join(lines) + "\n"

    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        manifest = _manifest(cfg, wall)
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
        n_list = [int(s) for s in args.n_list.split(",")] if args.n_list else [3, 4, 6, 8]
        if any(n not in REFERENCE_MAXIMA for n in n_list):
            raise ValueError
    except ValueError:
        raise ValueError(f"--n-list entries must be among {sorted(REFERENCE_MAXIMA)}") from None

    grid = {"tau_start": 0.0, "tau_end": 3.0, "tau_step": args.tau_step}
    rows = []
    start = time.monotonic()
    for n in n_list:
        init, tau_ref, e_ref = REFERENCE_MAXIMA[n]
        cfg = SweepConfig(
            n_sites=n,
            initial_label=init,
            profile=kind,
            quantities=(MEBD,),
            **grid,
        )
        records = dynamics.run_sweep(cfg)
        report = dynamics.find_first_maximum(records, MEBD)
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
        _write_manifest(args.out, {"command": "table1", "profile": kind.value,
                                   "n_list": n_list, **grid, "quantities": [MEBD],
                                   "code_version": __version__,
                                   "wall_time_seconds": wall})
    if breach:
        _err(f"deviation from reference maxima exceeds {REFERENCE_TOL}")
        return EXIT_CALIBRATION
    return 0


def cmd_negativity(args: argparse.Namespace) -> int:
    psi = next(dynamics.evolve(args.n, args.init, [args.tau], CouplingKind(args.profile)))
    partition = parse_partition(args.partition, args.n)
    value = float(entanglement.pure_double_negativity(psi[None], partition)[0])
    if args.json:
        print(json.dumps({"tau": args.tau, "partition": partition.label(),
                          "double_negativity": value}))
    else:
        print(repr(value))
    return 0


def cmd_first_max(args: argparse.Namespace) -> int:
    cfg = _sweep_config(args)
    quantity = args.quantity.replace("-", "_")
    records = dynamics.run_sweep(cfg)
    report = dynamics.find_first_maximum(records, quantity, min_value=args.min_value)
    payload = {
        "quantity": quantity,
        "tau_star": report.tau_star,
        "value": report.value,
        "kind": report.kind,
        "tau_below_pi": dynamics.sanity_tau_bound(report),
    }
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(f"{quantity}: tau*={report.tau_star:.6f} value={report.value:.6f} "
              f"({report.kind})")
    return 0


def _add_common_flags(p: argparse.ArgumentParser, chain=True, json_flag=True, out=False) -> None:
    """The flags shared among subcommands; each subcommand takes only those it reads."""
    if chain:
        p.add_argument("--n", type=int, required=False, help="chain length")
        p.add_argument("--init", type=str, help="initial basis label, e.g. 1001")
    p.add_argument("--profile", choices=[k.value for k in CouplingKind], default="all-pairs")
    if json_flag:
        p.add_argument("--json", action="store_true", help="emit JSON instead of text")
    if out:
        p.add_argument("--out", type=str, default=None, help="output file path")
    p.add_argument("--config", type=str, default=None, help="JSON config file (same keys as flags)")


def _add_grid_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tau-min", type=float, default=0.0)
    p.add_argument("--tau-max", type=float, default=4.0)
    p.add_argument("--tau-step", type=float, default=0.005)
    p.add_argument("--quantities", default="mebd,e1_fixed,e_tilde",
                   help="comma list from: mebd,e1_fixed,e_tilde,per-partition")
    p.add_argument("--e1-partition", default=None,
                   help="fixed split for e1_fixed, e.g. 1,2,3,4|5,6 "
                        "(default: first half vs rest)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mebd",
        description="Minimal entanglement of bipartite decompositions for spin-1/2 chains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Flags go by full name only: table1 would otherwise read "--n 5" as "--n-list 5".
    add_parser = functools.partial(sub.add_parser, allow_abbrev=False)

    p_sweep = add_parser("sweep", help="witness curves on a tau grid (CSV)")
    _add_common_flags(p_sweep, json_flag=False, out=True)
    _add_grid_flags(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_t1 = add_parser("table1", help="reproduce the reference maxima for N=3,4,6,8")
    _add_common_flags(p_t1, chain=False, out=True)
    p_t1.add_argument("--n-list", type=str, default=None, help="subset of 3,4,6,8")
    p_t1.add_argument("--tau-step", type=float, default=0.01)
    p_t1.set_defaults(func=cmd_table1)

    p_neg = add_parser("negativity", help="double negativity of one split at one tau")
    _add_common_flags(p_neg)
    p_neg.add_argument("--tau", type=float, required=False)
    p_neg.add_argument("--partition", type=str, help="split spec like 1,2|3,4")
    p_neg.set_defaults(func=cmd_negativity)

    p_fm = add_parser("first-max", help="first qualifying maximum of a witness curve")
    _add_common_flags(p_fm)
    _add_grid_flags(p_fm)
    p_fm.add_argument("--quantity", default="mebd")
    p_fm.add_argument("--min-value", type=float, default=0.5)
    p_fm.set_defaults(func=cmd_first_max)

    parser.set_defaults(subcommands=sub.choices)
    return parser


_shared_parser = functools.cache(build_parser)  # built by the first main() call, then reused


def _validate_required(args: argparse.Namespace) -> None:
    """Presence only: SweepConfig, evolve and basis_index check the values."""
    if args.command in ("sweep", "negativity", "first-max"):
        if args.n is None or args.init is None:
            raise ValueError("--n and --init are required (flags or --config)")
    if args.command == "negativity":
        if args.tau is None or args.partition is None:
            raise ValueError("--tau and --partition are required")


def main(argv: list[str] | None = None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
        if args.config:
            args = _apply_config(args, argv)
        _validate_required(args)
        return args.func(args)
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
