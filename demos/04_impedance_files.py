#!/usr/bin/env python3
"""Impedance sweep files and reproducible runs.

Sweep data moves through a small CSV format: a commented header (element
count, spacing) and one row per frequency with Re/Im pairs for the
independent first-row impedances.  This script writes a synthetic file,
parses it back, re-fits the modes, and runs a fully reproducible capacity
point from a JSON run configuration.
"""

import json
import os
import tempfile

from ucadiv import (
    SimConfig,
    config_hash,
    fit_modes,
    load_config,
    outage,
    parse_impedance,
    run_monte_carlo,
    table1_sweep,
    write_impedance,
)

# the work directory and its files are removed when the demo ends
with tempfile.TemporaryDirectory(prefix="ucadiv_demo_") as workdir:
    # --- write, read, re-fit ---------------------------------------------

    path = os.path.join(workdir, "n2_d025.csv")
    write_impedance(table1_sweep(), path)
    print(f"wrote {path}:")
    with open(path) as fh:
        for line in fh.read().splitlines()[:7]:
            print(f"  {line[:76]}")
    print("  ...")

    back = parse_impedance(path)
    modes = fit_modes(back)
    print("\nre-fitted modes from the file:")
    for k, m in enumerate(modes.modes):
        print(f"  mode {k}: R = {m.r:.2f} ohm, Q = {m.q:.3f}, "
              f"f0 = {m.f0:.4f} fc")

    # --- a reproducible run from a config file -----------------------------

    config_path = os.path.join(workdir, "run.json")
    with open(config_path, "w") as fh:
        json.dump({"spacings": [0.25], "realizations": 2000, "seed": 7}, fh)

    run = load_config(config_path)
    print(f"\nrun configuration hash: {config_hash(run)}")
    samples = run_monte_carlo(run, 0.25)
    c0, half = outage(samples, run.outage_p)
    print(f"C_out(1%) at d = 0.25: {c0:.4f} +/- {half:.4f} nats/s/Hz")

    again = run_monte_carlo(run, 0.25)
    print(f"bit-identical on rerun: {(samples == again).all()}")

    print(f"\n(the same run is available from the shell: "
          f"ucadiv capacity --config {config_path})")
