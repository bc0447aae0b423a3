"""Acceptance gate: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Criterion 2 checks the narrow mode's capacitance against its own
Table I row, C2 = 1/(Q R omega0) = 0.3632/fc mF, not against the printed
1.4/fc mF.  The printed value is an erratum: it is what one gets by
substituting the 0.25 element spacing for the resonant frequency 0.9675,
and paired with the published L2 it would resonate at f0 = 0.493.  The
test keeps the printed number and checks that explanation on the published
numbers alone.
"""

import functools
import json
import math
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import special, stats

import ucadiv
from ucadiv.capacity import SimConfig, outage, run_monte_carlo, sweep
from ucadiv.channel import (
    draw_taps,
    equal_power_profile,
    realization_rng,
    spatial_correlation,
)
from ucadiv.cli import cli_main
from ucadiv.fano import fano_boxcar, fano_integral_check
from ucadiv.fixtures import CouplingModel, table1_fixture, table1_sweep
from ucadiv.frontend import NoiseTemps, build_frontend, n0_normalize, noise_cov, subcarrier_grid
from ucadiv.modes import (
    ResonantMode,
    eigen_impedances,
    eigen_mode_response,
    fit_modes,
    mode_reflection,
    retune,
)
from ucadiv.network import (
    FrequencyGrid,
    MultiportS,
    cascade,
    check_lossless,
    circulant_from_row,
    complete_symmetric_row,
    default_grid,
    dft_beamformer,
    diagonalize_circulant,
    through_network,
    z_to_s,
)

TABLE1 = [(118.76, 3.75, 1.0425), (28.31, 16.0, 0.9675)]


def report(number, description):
    """Decorator printing one pass/fail line per criterion."""

    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException as exc:
                first = str(exc).strip().splitlines()
                detail = first[0] if first else type(exc).__name__
                print(f"\nACCEPTANCE {number:>2}: FAIL - {description}: {detail}")
                raise
            print(f"\nACCEPTANCE {number:>2}: PASS - {description}")

        return run

    return wrap


@report(1, "Table I round trip recovers (R, Q, f0) within 1e-6 relative")
def test_criterion_01_table1_round_trip():
    start = time.perf_counter()
    modes = fit_modes(table1_sweep())
    elapsed = time.perf_counter() - start
    for mode, (r, q, f0) in zip(modes.modes, TABLE1):
        assert abs(mode.r - r) / r < 1e-6, f"R: {mode.r} vs {r}"
        assert abs(mode.q - q) / q < 1e-6, f"Q: {mode.q} vs {q}"
        assert abs(mode.f0 - f0) / f0 < 1e-6, f"f0: {mode.f0} vs {f0}"
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s exceeds 1s"


@report(2, "fitted modes reproduce the published L1, C1, L2 and the "
           "row-derived C2 within 0.5%")
def test_criterion_02_derived_elements():
    start = time.perf_counter()
    modes = fit_modes(table1_sweep())
    elapsed = time.perf_counter() - start
    mode1, mode2 = modes.modes
    r2, q2, f2 = TABLE1[1]
    # Table I prints C2 = 1.4e-3, an erratum.  The row's own (R, Q, f0) give
    # C = 1/(Q R 2 pi f0) = 0.36317e-3, and resonance with the published L2,
    # 1/((2 pi f0)^2 L2), gives 0.36308e-3.  The printed value is
    # 1/(Q R 2 pi 0.25) = 1.4055e-3, the 0.25 element spacing put in place of
    # f0; paired with L2 it would resonate at f0 = 0.493, not 0.9675.
    published_c2 = 1.4e-3
    corrected_c2 = 0.3632e-3
    expected = [
        ("L1", mode1.inductance, 67.99, "Table I"),
        ("C1", mode1.capacitance, 342.78e-6, "Table I"),
        ("L2", mode2.inductance, 74.53, "Table I"),
        ("C2", mode2.capacitance, corrected_c2,
         "Table I row 2 via 1/(Q R omega0); printed 1.4e-3 is an erratum"),
    ]
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s exceeds 1s"

    # the erratum, checked on the published numbers alone
    slip = 1.0 / (q2 * r2 * 2.0 * math.pi * 0.25)
    rel = abs(published_c2 - slip) / slip
    assert rel < 5e-3, (
        f"printed C2 {published_c2:.6g} is not 1/(Q R 2 pi 0.25) = "
        f"{slip:.6g} ({rel:.1%} off)"
    )
    resonance = 1.0 / math.sqrt(74.53 * corrected_c2) / (2.0 * math.pi)
    rel = abs(resonance - f2) / f2
    assert rel < 5e-3, (
        f"corrected C2 {corrected_c2:.6g} with published L2 74.53 resonates "
        f"at {resonance:.6g}, not f0 = {f2} ({rel:.1%} off)"
    )

    for name, got, want, source in expected:
        rel = abs(got - want) / want
        assert rel < 5e-3, (
            f"{name}: computed {got:.6g} vs expected {want:.6g} "
            f"({rel:.1%} off); expected value from {source}"
        )


@report(3, "|T'|^2 + |Gamma'|^2 = 1 at 1e4 random triples; peak exactly 1")
def test_criterion_03_eigen_mode_identity():
    rng = np.random.default_rng(2024)
    q = rng.uniform(0.5, 60.0, 10_000)
    f0 = rng.uniform(0.5, 1.5, 10_000)
    f = rng.uniform(0.05, 3.0, 10_000)
    worst = 0.0
    for qi, f0i, fi in zip(q, f0, f):
        mode = ResonantMode(r=50.0, q=qi, f0=f0i)
        t2 = eigen_mode_response(mode, fi)
        g2 = abs(mode_reflection(mode, fi)) ** 2
        worst = max(worst, abs(t2 + g2 - 1.0))
    assert worst < 1e-12, f"worst identity deviation {worst:.3g}"
    for qi, f0i in zip(q[:100], f0[:100]):
        mode = ResonantMode(r=50.0, q=qi, f0=f0i)
        assert eigen_mode_response(mode, f0i) == 1.0


@report(4, "Fano closed form at Q=16, W=0.02; constraint residuals in bounds")
def test_criterion_04_fano_closed_form():
    mode = ResonantMode(r=28.31, q=16.0, f0=0.9675)
    spec = fano_boxcar(mode, 0.02)
    want = math.exp(-2.0 * math.pi * (1.0 - 1e-4) / 0.32)
    assert abs(spec.gamma0_sq - want) / want < 1e-12
    for r, q, f0 in TABLE1:
        m = ResonantMode(r=r, q=q, f0=f0)
        s = fano_boxcar(m, 0.02)
        rep = fano_integral_check(s, m)
        assert abs(rep.residual_a) < 1e-12, f"(a) residual {rep.residual_a:.3g}"
        bound = math.pi * 0.02 ** 2 / (2.0 * q)
        assert abs(rep.residual_b) <= bound + 1e-12, (
            f"(b) residual {rep.residual_b:.3g} vs bound {bound:.3g}"
        )


@report(5, "network algebra invariants (cascade, conversions, DFT, circulant)")
def test_criterion_05_network_algebra():
    rng = np.random.default_rng(55)
    grid = FrequencyGrid(np.linspace(0.9, 1.1, 6))

    def random_lossless(n):
        full = np.stack([
            np.linalg.qr(rng.standard_normal((2 * n, 2 * n))
                         + 1j * rng.standard_normal((2 * n, 2 * n)))[0]
            for _ in range(grid.size)
        ])
        return MultiportS(full[:, :n, :n], full[:, :n, n:],
                          full[:, n:, :n], full[:, n:, n:], grid)

    # through-cascade is the identity, bitwise
    a = random_lossless(2)
    c = cascade(a, through_network(2, grid))
    for blk in ("s11", "s12", "s21", "s22"):
        assert np.array_equal(getattr(c, blk), getattr(a, blk))

    # unitary cascades stay unitary within 1e-9
    for n in (1, 2, 3):
        comp = cascade(random_lossless(n), random_lossless(n))
        _, worst = check_lossless(comp)
        assert worst <= 1e-9, f"cascade unitarity deviation {worst:.3g}"

    # conversion round trip within 1e-12
    z = 50.0 * np.eye(2) + rng.standard_normal((6, 2, 2)) \
        + 1j * rng.standard_normal((6, 2, 2))
    z = z + np.transpose(z, (0, 2, 1))
    # Z = (I + S)(I - S)^-1 = (I - S)^-1 (I + S), as S commutes with I +- S
    s = z_to_s(z)
    back = np.linalg.solve(np.eye(2) - s, np.eye(2) + s)
    assert np.max(np.abs(back - z) / np.abs(z).max()) < 1e-12

    # beamformer unitarity within 1e-13 up to N = 16
    for n in range(1, 17):
        q = dft_beamformer(n)
        assert np.linalg.norm(q.conj().T @ q - np.eye(n)) < 1e-13

    # circulant reconstruction within 1e-10
    for n in (2, 3, 4, 8):
        partial = rng.standard_normal((5, n // 2 + 1)) \
            + 1j * rng.standard_normal((5, n // 2 + 1))
        row = complete_symmetric_row(partial, n)
        lam = diagonalize_circulant(row)
        q = dft_beamformer(n)
        rebuilt = np.einsum("ij,fj,jk->fik", q, lam, q.conj().T)
        want = circulant_from_row(row)
        err = np.max(np.abs(rebuilt - want)) / np.max(np.abs(want))
        assert err < 1e-10, f"circulant reconstruction error {err:.3g}"


@report(6, "noise model degeneracies and the uncoupled N0 baseline")
def test_criterion_06_noise_degeneracies():
    modes = table1_fixture()
    specs = [fano_boxcar(m, 0.02) for m in modes.modes]
    front = build_frontend(modes, specs, subcarrier_grid(16, 0.02))
    r = modes.expand([m.r for m in modes.modes]).real

    # Gamma = I leaves only the load noise 4 kB B (T_f + T_r) I
    dark = build_frontend(modes, specs, subcarrier_grid(16, 0.02))
    dark.gamma = np.ones_like(dark.gamma)
    cov = noise_cov(dark, r, NoiseTemps(1.0, 2.0, 0.7))
    assert_allclose(cov.diag, 2.7 * np.ones_like(cov.diag), rtol=1e-14)

    # T_A = T_r makes the covariance temperature-flat
    cov = noise_cov(front, r, NoiseTemps(1.3, 2.0, 1.3))
    assert_allclose(cov.diag, 3.3 * np.ones_like(cov.diag), rtol=1e-14)

    # uncoupled baseline: Sigma / N0 = I within 1e-12
    from dataclasses import replace

    iso = retune(ucadiv.isolated_mode(), 1.0)
    spec = fano_boxcar(iso, 0.02)
    uncoupled = ucadiv.EigenModeSet(
        n=2,
        modes=(replace(iso, dft_index=0, multiplicity=1),
               replace(iso, dft_index=1, multiplicity=1)),
    )
    front = build_frontend(uncoupled, [spec, spec], subcarrier_grid(64, 0.02))
    n0 = n0_normalize(NoiseTemps(), iso.r, spec.gamma0)
    cov = noise_cov(front, np.array([iso.r, iso.r]), NoiseTemps(), n0=n0)
    assert np.max(np.abs(cov.normalized() - 1.0)) < 1e-12


@report(7, "plane-wave correlation oracle and sample-covariance convergence")
def test_criterion_07_correlation_oracle():
    start = time.perf_counter()
    model = spatial_correlation(2, 0.25, 32)

    # brute-force 32-term sum, straight-line
    acc = 0.0 + 0.0j
    for k in range(32):
        phi = 2.0 * math.pi * k / 32.0
        acc += np.exp(1j * 2.0 * math.pi * 0.25 * math.cos(phi)) / 32.0
    assert abs(model.r_h[0, 1] - acc) < 1e-14, "discrete-sum mismatch"
    assert abs(model.r_h[0, 1] - special.j0(math.pi / 2.0)) < 0.01

    rng = realization_rng(777, 0)
    n_draws = 100_000
    draws = draw_taps(model, n_draws, equal_power_profile(n_draws), rng)
    draws = draws * math.sqrt(n_draws)
    sample_cov = draws.conj().T @ draws / n_draws
    assert np.max(np.abs(sample_cov - model.r_h)) < 0.01
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds 30s"


@report(8, "i.i.d. outage capacity agrees with the brute-force oracle")
def test_criterion_08_iid_cross_check():
    start = time.perf_counter()
    cfg = SimConfig(realizations=5000, seed=101, coupling=False)
    samples = run_monte_carlo(cfg, 1.0)
    c0, half = outage(samples, cfg.outage_p)

    # independent straight-line oracle: same stream contract, explicit DFT
    k_grid = np.arange(cfg.subcarriers)
    l_grid = np.arange(cfg.n_taps)
    dft = np.exp(-2j * np.pi * np.outer(k_grid, l_grid) / cfg.subcarriers)
    snr = 10.0 ** (cfg.snr_db / 10.0)
    oracle = np.empty(cfg.realizations)
    for i in range(cfg.realizations):
        rng = realization_rng(cfg.seed, i)
        w = rng.standard_normal((cfg.n_taps, 2)) \
            + 1j * rng.standard_normal((cfg.n_taps, 2))
        taps = w / np.sqrt(2.0 * cfg.n_taps)
        h = dft @ taps
        oracle[i] = np.mean(np.log1p(snr * np.sum(np.abs(h) ** 2, axis=1)))
    c0_oracle, _ = outage(oracle, cfg.outage_p)
    assert abs(c0 - c0_oracle) <= half, (
        f"pipeline {c0:.4f} vs oracle {c0_oracle:.4f}, CI half-width {half:.4f}"
    )
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"runtime {elapsed:.1f}s exceeds 2min"


@report(9, "outage capacity rises with spacing and saturates by a quarter "
           "wavelength (N=2)")
def test_criterion_09_shape_property():
    start = time.perf_counter()
    cfg = SimConfig(realizations=5000, seed=0,
                    spacings=(0.05, 0.1, 0.25, 0.5, 1.0))
    curve = sweep(cfg)
    assert all(p.error is None for p in curve.points)
    d = [p.d for p in curve.points]
    c = [p.c_out for p in curve.points]
    rho = stats.spearmanr(d, c).statistic
    assert rho > 0.9, f"Spearman rho {rho:.3f} <= 0.9"
    gap = abs(c[2] - c[4]) / c[4]
    assert gap < 0.15, f"quarter-wave saturation gap {gap:.1%} >= 15%"
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0, f"runtime {elapsed:.1f}s exceeds 10min"


@report(10, "degenerate-mode structure and the N=4 sweep shape")
def test_criterion_10_degenerate_modes():
    model = CouplingModel()
    m3 = model.mode_set(3, 0.25)
    assert len(m3.modes) == 2
    assert sum(m.multiplicity for m in m3.modes) == 3
    m4 = model.mode_set(4, 0.25)
    assert len(m4.modes) == 3
    assert sum(m.multiplicity for m in m4.modes) == 4

    # degeneracies are algebraic identities of the DFT
    lam3 = eigen_impedances(ucadiv.fixture_sweep(3, 0.25))
    assert np.array_equal(lam3[:, 2], lam3[:, 1])
    lam4 = eigen_impedances(ucadiv.fixture_sweep(4, 0.25))
    assert np.array_equal(lam4[:, 3], lam4[:, 1])

    cfg = SimConfig(n_antennas=4, realizations=5000, seed=0,
                    spacings=(0.05, 0.1, 0.25, 0.5, 1.0))
    curve = sweep(cfg)
    assert all(p.error is None for p in curve.points)
    d = [p.d for p in curve.points]
    c = [p.c_out for p in curve.points]
    rho = stats.spearmanr(d, c).statistic
    assert rho > 0.9, f"Spearman rho {rho:.3f} <= 0.9"
    gap = abs(c[2] - c[4]) / c[4]
    assert gap < 0.15, f"saturation gap {gap:.1%} >= 15%"


@report(11, "CLI runs are byte-identical across repeats and worker counts")
def test_criterion_11_determinism(tmp_path):
    out = [tmp_path / f"run{i}" for i in range(3)]
    base = ["capacity", "--seed", "7", "--realizations", "400",
            "--spacing", "0.25"]
    assert cli_main(base + ["--out", str(out[0])]) == 0
    assert cli_main(base + ["--out", str(out[1])]) == 0
    assert cli_main(base + ["--workers", "2", "--out", str(out[2])]) == 0
    for name in ("capacity.csv", "capacity.json"):
        ref = (out[0] / name).read_bytes()
        assert (out[1] / name).read_bytes() == ref
        assert (out[2] / name).read_bytes() == ref
    doc = json.loads((out[0] / "capacity.json").read_text())
    assert doc["config"]["seed"] == 7
