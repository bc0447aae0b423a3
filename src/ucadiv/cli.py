"""Command-line front end.

Subcommands:

  modes     eigen-impedance fit and usable-bandwidth report
  match     box-car matching budget per mode
  capacity  single-spacing Monte-Carlo outage capacity
  sweep     outage capacity versus spacing
  fit       series-RLC fit of an impedance sweep file
  fixture   emit a synthetic impedance sweep file

A spacing's modes come from the run configuration alone, through
``capacity.modes_at``; ``--fixture table1`` is shorthand for its entries.

Exit codes: 0 success, 2 usage, 3 data/parse error, 4 model error,
5 numeric error; a capacity or sweep run with a failed point writes its
files, then exits with the code of the first failure.
"""

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from . import capacity as cap
from . import fano, fixtures, io
from .errors import DataError, ModelError, NumericError
from .modes import fit_modes

EXIT_DATA = 3
EXIT_MODEL = 4
EXIT_NUMERIC = 5
OUTDIR_ENV = "UCADIV_OUTDIR"


def _add_input(p, spacings=1, table=False):
    """The mode source flags and ``--out`` of modes, match, capacity, sweep.

    ``spacings`` is the argparse ``nargs`` of ``--spacing``: one value for
    a single-spacing subcommand, "+" for sweep.  Too many values or none
    is a usage error.
    """
    p.add_argument("--config", help="JSON run configuration file")
    p.add_argument("--fixture", choices=["table1"],
                   help="use the built-in reference fixture")
    p.add_argument("--spacing", type=float, nargs=spacings, dest="spacings",
                   metavar="D", help="element spacing in wavelengths",
                   default=[fixtures.TABLE1_SPACING] if spacings == 1
                   else None)
    _add_out(p, table)


def _add_out(p, table=False):
    """``--out``: a subcommand that prints a ``table`` writes it only there."""
    p.add_argument("--out", help="also write the table into this directory"
                   if table else f"output directory (default ${OUTDIR_ENV} "
                   "or '.')")


def _add_monte_carlo(p):
    """Run overrides and reporting of capacity and sweep."""
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--seed", type=int, help="override the RNG seed")
    p.add_argument("--realizations", type=int, help="override sample count")
    p.add_argument("--bits", action="store_true",
                   help="report capacity in bits/s/Hz instead of nats")
    p.add_argument("-v", "--verbose", action="store_true")


# the SimConfig fields a flag overrides when given
_OVERRIDES = ("seed", "realizations", "spacings", "workers")


def _load_run_config(args) -> cap.SimConfig:
    """``--config`` or the defaults, overridden by every flag it takes."""
    run = cap.load_config(args.config) if args.config else cap.SimConfig()
    given = {name: value for name in _OVERRIDES
             if (value := vars(args).get(name)) is not None}
    if args.fixture == "table1":
        if run.n_antennas != 2:  # N = 3 takes two triples too
            raise DataError(f"modes of spacing {fixtures.TABLE1_SPACING} are "
                            f"for N=2, the run has N={run.n_antennas}")
        given.update(input="files", impedance_files=(), fixture_modes=(
            (fixtures.TABLE1_SPACING, fixtures.TABLE1_MODES),))
    return replace(run, **given)


def _out_dir(args):
    """``--out``, else ``$UCADIV_OUTDIR``, else "." (unset or empty alike)."""
    return args.out or os.environ.get(OUTDIR_ENV) or "."


def _out_path(args, name, fallback=None):
    """``name`` in ``--out``, else ``fallback``, made if need be, or None."""
    out = args.out or fallback
    if out is None:
        return None
    os.makedirs(out, exist_ok=True)
    return os.path.join(out, name)


def cmd_modes(args):
    run = _load_run_config(args)
    sys.stdout.write(io.emit_mode_report(cap.modes_at(run, run.spacings[0]),
                                         _out_path(args, "modes.csv")))
    return 0


def cmd_match(args):
    run = _load_run_config(args)
    mode_set = cap.modes_at(run, run.spacings[0])
    w = run.relative_bandwidth
    specs = [fano.fano_boxcar(m, w) for m in mode_set.modes]
    reports = [fano.fano_integral_check(s, m)
               for s, m in zip(specs, mode_set.modes)]
    sys.stdout.write(io.emit_match_report(mode_set, specs, reports,
                                          _out_path(args, "match.csv")))
    return 0


def _run_curve(args, run: cap.SimConfig, stem, label="C_out", note=""):
    """Make ``stem``.csv/.json's directory, sweep into them, print each point.

    A failed point prints its error; once the files are written, the first
    failure is raised again, so it sets the exit code.  Only a run that
    succeeds warns on stderr when its samples resolve the quantile coarsely.
    """
    table, doc = (_out_path(args, f"{stem}.{ext}", _out_dir(args))
                  for ext in ("csv", "json"))
    curve = cap.sweep(run)
    io.emit_curve(curve, run, table, doc, to_bits=args.bits)
    scale, unit = io.capacity_unit(args.bits)
    for p in curve.points:
        if p.cause is not None:
            print(f"d = {p.d}: failed ({p.error})")
        else:
            print(f"d = {p.d}: {label} = {p.c_out * scale:.6f} "
                  f"+/- {p.ci_half_width * scale:.6f} {unit}/s/Hz{note}")
    if args.verbose:
        print(f"wrote {table} and {doc}")
        ran = sum(p.cause is None for p in curve.points)
        if ran:  # timings go to stderr only: stdout and files keep their bytes
            m, t = run.realizations, curve.monte_carlo_s
            print(f"monte carlo: {t:.3f} s for {m} realizations x {ran} "
                  f"spacings, {m / t:.0f} realizations/s", file=sys.stderr)
    failed = [p.cause for p in curve.points if p.cause is not None]
    if failed:
        raise failed[0]
    if not run.quantile_well_resolved:
        print(f"warning: {run.realizations} samples resolve the "
              f"{run.outage_p:g} outage quantile coarsely; about "
              f"{100.0 / run.outage_p:.0f} are needed", file=sys.stderr)
    return 0


def cmd_capacity(args):
    run = _load_run_config(args)
    return _run_curve(args, run, "capacity", label=f"C_out({run.outage_p:g})",
                      note=f"  [{run.realizations} samples]")


def cmd_sweep(args):
    return _run_curve(args, _load_run_config(args), "sweep")


def cmd_fit(args):
    mode_set = fit_modes(io.parse_impedance(args.path))
    sys.stdout.write(io.emit_mode_report(mode_set, _out_path(args, "fit.csv")))
    for m, mode in enumerate(mode_set.modes):
        print(f"mode {m}: rms fit residual {mode.fit_residual:.3g} ohm",
              file=sys.stderr)
    return 0


def cmd_fixture(args):
    sweep = fixtures.fixture_sweep(args.n, args.spacing)
    path = _out_path(args, f"fixture_n{args.n}_d{args.spacing:g}.csv",
                     _out_dir(args))
    io.write_impedance(sweep, path)
    print(path)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ucadiv",
        description="Coupled circular arrays: eigen-modes, matching limits, "
                    "and diversity-OFDM outage capacity.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("modes", help="eigen-impedance fit report")
    _add_input(p, table=True)
    p.set_defaults(func=cmd_modes)

    p = sub.add_parser("match", help="box-car matching budget per mode")
    _add_input(p, table=True)
    p.set_defaults(func=cmd_match)

    p = sub.add_parser("capacity", help="single-spacing outage capacity")
    _add_input(p)
    _add_monte_carlo(p)
    p.set_defaults(func=cmd_capacity)

    p = sub.add_parser("sweep", help="outage capacity versus spacing")
    _add_input(p, spacings="+")
    _add_monte_carlo(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("fit", help="series-RLC fit of an impedance file")
    p.add_argument("path")
    _add_out(p, table=True)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("fixture", help="emit a synthetic impedance file")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--spacing", type=float, default=fixtures.TABLE1_SPACING)
    _add_out(p)
    p.set_defaults(func=cmd_fixture)

    return parser


def cli_main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        return args.func(args)
    # LinAlgError subclasses ValueError, so it is caught first
    except (NumericError, np.linalg.LinAlgError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (DataError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ModelError as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return EXIT_MODEL


def main():
    raise SystemExit(cli_main())


if __name__ == "__main__":
    main()
