#!/usr/bin/env python3
"""From a coupled-array impedance sweep to its eigen-modes.

A ring of identical antennas has a circulant impedance matrix, so a fixed
spatial DFT decouples it into independent "virtual antennas" at every
frequency.  This walk-through builds a two-element sweep, extracts the
eigen-impedance traces, fits each as a series-RLC resonator, and compares
the resulting spectral responses.
"""

import numpy as np

from ucadiv import (
    default_grid,
    dft_beamformer,
    eigen_impedances,
    eigen_mode_response,
    fit_modes,
    fixture_sweep,
    table1_sweep,
    usable_bandwidth,
    vswr,
    mode_reflection,
)
from ucadiv.modes import distinct_dft_indices

# --- a two-element array, quarter-wavelength apart -------------------------

sweep = table1_sweep(default_grid(points=241))
lam = eigen_impedances(sweep)

print("eigen-impedances at selected frequencies (ohm):")
print(f"{'f/fc':>8} {'mode 0 (sum)':>24} {'mode 1 (difference)':>24}")
for f in (0.95, 1.0, 1.05):
    i = int(np.argmin(np.abs(sweep.grid.samples - f)))
    print(f"{f:8.2f} {lam[i, 0]:24.2f} {lam[i, 1]:24.2f}")

# --- series-RLC resonance parameters per mode -------------------------------

modes = fit_modes(sweep)
print("\nfitted resonance parameters:")
print(f"{'mode':>4} {'R (ohm)':>10} {'Q':>8} {'f0/fc':>8} "
      f"{'usable band (VSWR<=2)':>24}")
for k, m in enumerate(modes.modes):
    lo, hi = usable_bandwidth(m)
    print(f"{k:>4} {m.r:10.2f} {m.q:8.2f} {m.f0:8.4f} "
          f"   [{lo:.4f}, {hi:.4f}]  width {hi - lo:.4f}")

print("\nCoupling splits one antenna design into a broadband mode and a")
print("narrowband mode at different resonant frequencies.")

# --- spectral responses ------------------------------------------------------

print("\npower transmissivity |T'|^2 per mode:")
freqs = np.linspace(0.9, 1.1, 9)
header = "  ".join(f"{f:6.3f}" for f in freqs)
print(f"{'f/fc':>6}: {header}")
for k, m in enumerate(modes.modes):
    row = "  ".join(f"{eigen_mode_response(m, f):6.3f}" for f in freqs)
    print(f"mode{k:>2}: {row}")

f_probe = 1.0
for k, m in enumerate(modes.modes):
    g = abs(mode_reflection(m, f_probe))
    print(f"mode {k} at the carrier: |Gamma'| = {g:.3f}, "
          f"VSWR = {vswr(g):.2f}")

# --- the array as a lossless 2N-port ------------------------------------------

from ucadiv import cascade, check_lossless, extend_to_2n_port, through_network

two_n_port = extend_to_2n_port(sweep)
ok, worst = check_lossless(two_n_port)
print(f"\n2N-port completion lossless: {ok} (worst deviation {worst:.2e})")
chained = cascade(two_n_port, through_network(2, sweep.grid))
ok, _ = check_lossless(chained)
print(f"cascade with an ideal through stays lossless: {ok}")

# --- degenerate modes on larger rings ----------------------------------------

print("\nlarger rings collapse symmetric DFT indices onto shared modes:")
for n in (3, 4):
    ms = fit_modes(fixture_sweep(n, 0.25))
    desc = ", ".join(
        f"index {k} x{mult} (Q={m.q:.1f})"
        for (k, mult), m in zip(distinct_dft_indices(n), ms.modes)
    )
    print(f"  N={n}: {len(ms.modes)} distinct modes: {desc}")

print("\nbeamformer for N=4 (frequency independent):")
print(np.array_str(dft_beamformer(4), precision=3, suppress_small=True))
