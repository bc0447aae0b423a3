"""Command-line front end.

Subcommands:

  modes     eigen-impedance fit and usable-bandwidth report
  match     box-car matching budget per mode
  capacity  single-spacing Monte-Carlo outage capacity
  sweep     outage capacity versus spacing
  fit       series-RLC fit of an impedance sweep file
  fixture   emit a synthetic impedance sweep file

Exit codes: 0 success, 2 usage, 3 data/parse error, 4 model error,
5 numeric error; a sweep with a failed point writes its files, then exits
with the code of the first failure.
"""

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from . import capacity as cap
from . import fano, fixtures, io
from .errors import DataError, ModelError, NumericError, UcadivError
from .modes import fit_modes, usable_bandwidth
from .network import default_grid

EXIT_DATA = 3
EXIT_MODEL = 4
EXIT_NUMERIC = 5


def _add_input(p):
    """Where the modes come from: modes, match, capacity and sweep."""
    p.add_argument("--config", help="JSON run configuration file")
    p.add_argument("--fixture", choices=["table1"],
                   help="use the built-in reference fixture")
    p.add_argument("--spacing", type=float, nargs="*", default=None)


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
    retune = p.add_mutually_exclusive_group()
    retune.add_argument("--retune", dest="retune", action="store_true",
                        default=None, help="retune mode resonances to fc")
    retune.add_argument("--no-retune", dest="retune", action="store_false",
                        default=None)
    p.add_argument("-v", "--verbose", action="count", default=0)


def _load_run_config(args) -> io.RunConfig:
    run = io.load_config(args.config) if args.config else io.RunConfig()
    sim = run.sim
    if getattr(args, "seed", None) is not None:
        sim = replace(sim, seed=args.seed)
    if getattr(args, "realizations", None) is not None:
        sim = replace(sim, realizations=args.realizations)
    if getattr(args, "retune", None) is not None:
        sim = replace(sim, retune_modes=args.retune)
    if getattr(args, "spacing", None):
        sim = replace(sim, spacings=tuple(args.spacing))
    if getattr(args, "workers", None) is not None:
        sim = replace(sim, workers=args.workers)
    return replace(run, sim=sim)


def _mode_set_for(args, run: io.RunConfig, d):
    """Resolve the mode set for one spacing from the configured input."""
    if getattr(args, "fixture", None) == "table1":
        return fixtures.table1_fixture()
    for spacing, path in run.impedance_files:
        if abs(spacing - d) < 1e-12:
            return fit_modes(io.parse_impedance(path))
    for spacing, triples in run.fixture_modes:
        if abs(spacing - d) < 1e-12:
            return _modes_from_triples(run.sim.n_antennas, triples)
    if run.input_mode == "files":
        raise DataError(f"no impedance file configured for spacing {d}")
    return fixtures.CouplingModel().mode_set(run.sim.n_antennas, d)


def _modes_from_triples(n, triples):
    from .modes import EigenModeSet, ResonantMode, distinct_dft_indices

    indices = distinct_dft_indices(n)
    if len(triples) != len(indices):
        raise DataError(
            f"need {len(indices)} (R, Q, f0) triples for N={n}, "
            f"got {len(triples)}"
        )
    modes = tuple(
        ResonantMode(r=t[0], q=t[1], f0=t[2], dft_index=m, multiplicity=mult)
        for t, (m, mult) in zip(triples, indices)
    )
    return EigenModeSet(n=n, modes=modes)


def _report_modes(mode_set, out_path=None):
    bands = [usable_bandwidth(m) for m in mode_set.modes]
    return io.emit_mode_report(mode_set, bands, out_path)


def cmd_modes(args):
    run = _load_run_config(args)
    d = args.spacing[0] if args.spacing else fixtures.TABLE1_SPACING
    mode_set = _mode_set_for(args, run, d)
    out = None
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        out = os.path.join(args.out, "modes.csv")
    text = _report_modes(mode_set, out)
    sys.stdout.write(text)
    return 0


def cmd_match(args):
    run = _load_run_config(args)
    d = args.spacing[0] if args.spacing else fixtures.TABLE1_SPACING
    mode_set = _mode_set_for(args, run, d)
    w = run.sim.relative_bandwidth
    specs = [fano.fano_boxcar(m, w) for m in mode_set.modes]
    reports = [fano.fano_integral_check(s, m)
               for s, m in zip(specs, mode_set.modes)]
    out = None
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        out = os.path.join(args.out, "match.csv")
    text = io.emit_match_report(mode_set, specs, reports, out)
    sys.stdout.write(text)
    return 0


def cmd_capacity(args):
    run = _load_run_config(args)
    d = args.spacing[0] if args.spacing else fixtures.TABLE1_SPACING
    sim = replace(run.sim, spacings=(d,))
    run = replace(run, sim=sim)
    mode_set = None
    if run.sim.coupling:
        mode_set = _mode_set_for(args, run, d)
    samples = cap.run_monte_carlo(sim, d, mode_set=mode_set)
    c0, half = cap.outage(samples, sim.outage_p)
    curve = cap.OutageCurve(
        points=[cap.SpacingResult(d=d, c_out=c0, ci_half_width=half,
                                  n_samples=sim.realizations)],
        config=sim,
    )
    out_dir = args.out or io.default_outdir()
    table, doc = io.emit_curve(curve, run, out_dir, stem="capacity",
                               to_bits=args.bits)
    unit = "bits" if args.bits else "nats"
    scale = 1.0 / np.log(2.0) if args.bits else 1.0
    print(f"d = {d}: C_out({sim.outage_p:g}) = {c0 * scale:.6f} "
          f"+/- {half * scale:.6f} {unit}/s/Hz  [{sim.realizations} samples]")
    if args.verbose:
        print(f"wrote {table} and {doc}")
    return 0


def cmd_sweep(args):
    if args.spacing is not None and len(args.spacing) == 0:
        print("usage: sweep requires at least one spacing", file=sys.stderr)
        return 2
    run = _load_run_config(args)
    if not run.sim.spacings:
        print("usage: sweep requires at least one spacing", file=sys.stderr)
        return 2
    mode_source = None
    if run.sim.coupling:
        def mode_source(d):
            return _mode_set_for(args, run, d)
    curve = cap.sweep(run.sim, mode_source=mode_source)
    out_dir = args.out or io.default_outdir()
    table, doc = io.emit_curve(curve, run, out_dir, stem="sweep",
                               to_bits=args.bits)
    scale = 1.0 / np.log(2.0) if args.bits else 1.0
    unit = "bits" if args.bits else "nats"
    for p in curve.points:
        if p.error:
            print(f"d = {p.d}: failed ({p.error})")
        else:
            print(f"d = {p.d}: C_out = {p.c_out * scale:.6f} "
                  f"+/- {p.ci_half_width * scale:.6f} {unit}/s/Hz")
    if args.verbose:
        print(f"wrote {table} and {doc}")
    failed = [p.cause for p in curve.points if p.cause is not None]
    if failed:
        raise failed[0]
    return 0


def cmd_fit(args):
    sweep = io.parse_impedance(args.path)
    mode_set = fit_modes(sweep)
    out = None
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        out = os.path.join(args.out, "fit.csv")
    text = _report_modes(mode_set, out)
    sys.stdout.write(text)
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
    _add_input(p)
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
