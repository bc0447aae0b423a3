"""Command-line front end.

Subcommands:

  modes     eigen-impedance fit and usable-bandwidth report
  match     box-car matching budget per mode
  capacity  single-spacing Monte-Carlo outage capacity
  sweep     outage capacity versus spacing
  fit       series-RLC fit of an impedance sweep file
  fixture   emit a synthetic impedance sweep file

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
from .errors import DataError, ModelError, NumericError, UcadivError
from .modes import EigenModeSet, fit_modes
from .network import default_grid

EXIT_DATA = 3
EXIT_MODEL = 4
EXIT_NUMERIC = 5


def _add_input(p, spacings=1):
    """Where the modes come from: modes, match, capacity and sweep.

    ``spacings`` is the argparse ``nargs`` of ``--spacing``: one value for
    a single-spacing subcommand, "+" for sweep.  Too many values or none
    is a usage error.
    """
    p.add_argument("--config", help="JSON run configuration file")
    p.add_argument("--fixture", choices=["table1"],
                   help="use the built-in reference fixture")
    p.add_argument("--spacing", type=float, nargs=spacings, default=None,
                   metavar="D", help="element spacing in wavelengths")


def _add_out(p):
    p.add_argument("--out", help="output directory "
                   f"(default ${io.OUTDIR_ENV} or '.')")


def _add_monte_carlo(p):
    """Run overrides and reporting of capacity and sweep."""
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--seed", type=int, help="override the RNG seed")
    p.add_argument("--realizations", type=int, help="override sample count")
    p.add_argument("--bits", action="store_true",
                   help="report capacity in bits/s/Hz instead of nats")
    p.add_argument("-v", "--verbose", action="count", default=0)


# flag dest -> the SimConfig field it overrides when given
_OVERRIDES = {"seed": "seed", "realizations": "realizations",
              "spacing": "spacings", "workers": "workers"}


def _load_run_config(args) -> io.RunConfig:
    run = io.load_config(args.config) if args.config else io.RunConfig()
    given = {name: getattr(args, dest) for dest, name in _OVERRIDES.items()
             if getattr(args, dest, None) is not None}
    if "spacings" in given:  # argparse gives a list
        given["spacings"] = tuple(given["spacings"])
    return replace(run, sim=replace(run.sim, **given))


def _mode_set_for(args, run: io.RunConfig, d):
    """Resolve the mode set for one spacing from the configured input."""
    if getattr(args, "fixture", None) == "table1":
        if abs(d - fixtures.TABLE1_SPACING) < 1e-12:
            return fixtures.table1_fixture()
        raise DataError(f"table1 is only for d = {fixtures.TABLE1_SPACING}")
    for spacing, path in run.impedance_files:
        if abs(spacing - d) < 1e-12:
            try:
                sweep = io.parse_impedance(path)
            except OSError as exc:
                raise DataError(f"cannot read {path}: {exc.strerror}") from exc
            if abs(sweep.d - d) >= 1e-12:
                raise DataError(f"{path} describes spacing {sweep.d}, not {d}")
            return fit_modes(sweep)
    for spacing, triples in run.fixture_modes:
        if abs(spacing - d) < 1e-12:
            return EigenModeSet.from_params(run.sim.n_antennas, triples)
    if run.input_mode == "files":
        raise DataError(f"no impedance file configured for spacing {d}")
    return fixtures.CouplingModel().mode_set(run.sim.n_antennas, d)


def _spacing(args):
    """The one ``--spacing`` of a single-spacing subcommand, or Table I's."""
    return args.spacing[0] if args.spacing else fixtures.TABLE1_SPACING


def _out_path(args, name):
    """``name`` in the ``--out`` directory, made if need be, else None."""
    if not args.out:
        return None
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def cmd_modes(args):
    mode_set = _mode_set_for(args, _load_run_config(args), _spacing(args))
    sys.stdout.write(io.emit_mode_report(mode_set,
                                         _out_path(args, "modes.csv")))
    return 0


def cmd_match(args):
    run = _load_run_config(args)
    mode_set = _mode_set_for(args, run, _spacing(args))
    w = run.sim.relative_bandwidth
    specs = [fano.fano_boxcar(m, w) for m in mode_set.modes]
    reports = [fano.fano_integral_check(s, m)
               for s, m in zip(specs, mode_set.modes)]
    sys.stdout.write(io.emit_match_report(mode_set, specs, reports,
                                          _out_path(args, "match.csv")))
    return 0


def _run_curve(args, run: io.RunConfig, stem, label="C_out", note=""):
    """Sweep the run's spacings, write ``stem``.csv/.json, print each point.

    A failed point prints its error; once the files are written, the first
    failure is raised again, so it sets the exit code.  Only a run that
    succeeds warns on stderr when its samples resolve the quantile coarsely.
    """
    mode_source = None
    if run.sim.coupling:
        def mode_source(d):
            return _mode_set_for(args, run, d)
    curve = cap.sweep(run.sim, mode_source=mode_source)
    table, doc = io.emit_curve(curve, run, args.out or io.default_outdir(),
                               stem=stem, to_bits=args.bits)
    scale, unit = io.capacity_unit(args.bits)
    for p in curve.points:
        if p.error:
            print(f"d = {p.d}: failed ({p.error})")
        else:
            print(f"d = {p.d}: {label} = {p.c_out * scale:.6f} "
                  f"+/- {p.ci_half_width * scale:.6f} {unit}/s/Hz{note}")
    if args.verbose:
        print(f"wrote {table} and {doc}")
    failed = [p.cause for p in curve.points if p.cause is not None]
    if failed:
        raise failed[0]
    if not run.sim.quantile_well_resolved:
        print(f"warning: {run.sim.realizations} samples resolve the "
              f"{run.sim.outage_p:g} outage quantile coarsely; about "
              f"{100.0 / run.sim.outage_p:.0f} are needed", file=sys.stderr)
    return 0


def cmd_capacity(args):
    run = _load_run_config(args)
    sim = replace(run.sim, spacings=(_spacing(args),))
    return _run_curve(args, replace(run, sim=sim), "capacity",
                      label=f"C_out({sim.outage_p:g})",
                      note=f"  [{sim.realizations} samples]")


def cmd_sweep(args):
    run = _load_run_config(args)
    if not run.sim.spacings:
        print("usage: sweep requires at least one spacing", file=sys.stderr)
        return 2
    return _run_curve(args, run, "sweep")


def cmd_fit(args):
    mode_set = fit_modes(io.parse_impedance(args.path))
    sys.stdout.write(io.emit_mode_report(mode_set, _out_path(args, "fit.csv")))
    for m in mode_set.modes:
        print(f"mode {m.dft_index}: rms fit residual {m.fit_residual:.3g} ohm",
              file=sys.stderr)
    return 0


def cmd_fixture(args):
    grid = default_grid(span=args.span, points=args.points)
    if args.n == 2 and abs(args.spacing - fixtures.TABLE1_SPACING) < 1e-12:
        sweep = fixtures.table1_sweep(grid)
    else:
        sweep = fixtures.fixture_sweep(args.n, args.spacing, grid)
    out_dir = args.out or io.default_outdir()
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(
        out_dir, f"fixture_n{args.n}_d{args.spacing:g}.csv"
    )
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
    _add_input(p)
    _add_out(p)
    p.set_defaults(func=cmd_modes)

    p = sub.add_parser("match", help="box-car matching budget per mode")
    _add_input(p)
    _add_out(p)
    p.set_defaults(func=cmd_match)

    p = sub.add_parser("capacity", help="single-spacing outage capacity")
    _add_input(p)
    _add_out(p)
    _add_monte_carlo(p)
    p.set_defaults(func=cmd_capacity)

    p = sub.add_parser("sweep", help="outage capacity versus spacing")
    _add_input(p, spacings="+")
    _add_out(p)
    _add_monte_carlo(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("fit", help="series-RLC fit of an impedance file")
    p.add_argument("path")
    _add_out(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("fixture", help="emit a synthetic impedance file")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--spacing", type=float, default=fixtures.TABLE1_SPACING)
    p.add_argument("--span", type=float, default=0.15)
    p.add_argument("--points", type=int, default=601)
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
    except (DataError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ModelError as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except UcadivError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2


def main():
    raise SystemExit(cli_main())


if __name__ == "__main__":
    main()
