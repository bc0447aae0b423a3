"""Per-realization capacity, outage quantiles, and the Monte-Carlo pipeline."""

import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats

import ucadiv
from ucadiv.capacity import (
    _BLOCK,
    OutageCurve,
    SimConfig,
    _binom_ppf,
    _match_and_noise,
    _simulate,
    outage,
    realization_capacity,
    run_monte_carlo,
    sweep,
)
from ucadiv.channel import (
    CorrelationModel,
    draw_taps,
    realization_rng,
    spatial_correlation,
    taps_to_subcarriers,
    to_eigenbasis,
)
from ucadiv.errors import ModelError, NumericError
from ucadiv.fixtures import CouplingModel, table1_fixture
from ucadiv.frontend import NoiseTemps
from ucadiv.network import dft_beamformer


def iid_oracle_samples(config):
    """Straight-line reference implementation of the uncoupled pipeline.

    Re-derives every capacity sample from the documented stream contract
    and the closed-form per-sub-carrier sum, without the production code
    paths (explicit DFT instead of FFT, no correlation machinery).
    """
    k, n, l = config.subcarriers, config.n_antennas, config.n_taps
    snr = 10.0 ** (config.snr_db / 10.0)
    out = np.empty(config.realizations)
    for i in range(config.realizations):
        rng = realization_rng(config.seed, i)
        w = (rng.standard_normal((l, n)) + 1j * rng.standard_normal((l, n)))
        taps = w / np.sqrt(2.0 * l)
        acc = 0.0
        for kk in range(k):
            h_k = np.zeros(n, dtype=complex)
            for ll in range(l):
                h_k += taps[ll] * np.exp(-2j * np.pi * kk * ll / k)
            acc += np.log1p(snr * np.sum(np.abs(h_k) ** 2))
        out[i] = acc / k
    return out


def kernel_inputs(config, d, mode_set=None):
    """(corr, gamma, sigma_norm, q) of one spacing, as the kernel gets them."""
    n, k = config.n_antennas, config.subcarriers
    if not config.coupling:
        eye = np.eye(n, dtype=complex)
        corr = CorrelationModel(n=n, d=d, k_prime=config.planewaves,
                                r_h=eye, sqrt_r_h=eye.copy())
        return corr, np.zeros((k, n)), np.ones((k, n)), dft_beamformer(n)
    front, cov = _match_and_noise(
        config, mode_set or CouplingModel().mode_set(n, d)
    )
    corr = spatial_correlation(n, d, config.planewaves)
    return corr, front.gamma, cov.normalized(), dft_beamformer(n)


def per_realization_samples(config, d, indices):
    """The public per-realization path, one realization at a time."""
    corr, gamma, sigma, q = kernel_inputs(config, d)
    out = np.empty(len(indices))
    for j, i in enumerate(indices):
        rng = realization_rng(config.seed, i)
        taps = draw_taps(corr, config.n_taps, config.profile, rng)
        h = taps_to_subcarriers(taps, config.subcarriers)
        out[j] = realization_capacity(
            to_eigenbasis(h, q), gamma, sigma, config.snr_linear
        )
    return out


class TestRealizationCapacity:
    def test_zero_channel(self):
        h = np.zeros((4, 2), dtype=complex)
        got = realization_capacity(h, np.zeros((4, 2)), np.ones((4, 2)), 10.0)
        assert got == 0.0

    def test_scalar_closed_form(self):
        # single sub-carrier, unit channel on one mode, 10 dB
        h = np.array([[1.0 + 0j, 0.0]])
        got = realization_capacity(h, np.zeros((1, 2)), np.ones((1, 2)), 10.0)
        assert_allclose(got, np.log(11.0), rtol=1e-15)

    def test_all_modes_dark(self):
        rng = np.random.default_rng(0)
        h = rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2))
        got = realization_capacity(h, np.ones((8, 2)), np.ones((8, 2)), 10.0)
        assert got == 0.0

    def test_monotone_in_snr_and_transmissivity(self):
        rng = np.random.default_rng(1)
        h = rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2))
        gamma = np.full((8, 2), 0.5)
        sigma = np.ones((8, 2))
        caps = [realization_capacity(h, gamma, sigma, s) for s in (1, 5, 10, 50)]
        assert np.all(np.diff(caps) > 0)
        better = realization_capacity(h, np.full((8, 2), 0.2), sigma, 10.0)
        assert better > realization_capacity(h, gamma, sigma, 10.0)

    def test_zero_noise_floor_rejected(self):
        h = np.ones((2, 2), dtype=complex)
        with pytest.raises(NumericError):
            realization_capacity(h, np.zeros((2, 2)), np.zeros((2, 2)), 10.0)
        # T_f + T_r = 0 with dark modes is the same ill-conditioned case
        with pytest.raises(NumericError):
            realization_capacity(h, np.ones((2, 2)), np.zeros((2, 2)), 10.0)
        # a 0/0 floor is NaN, which must not pass as positive
        with pytest.raises(NumericError):
            realization_capacity(h, np.zeros((2, 2)), np.full((2, 2), np.nan),
                                 10.0)

    def test_block_equals_scalar_calls(self):
        rng = np.random.default_rng(5)
        shape = (3, 8, 2)
        h = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        gamma = rng.uniform(0, 1, (8, 2))
        sigma = rng.uniform(0.3, 3.0, (8, 2))
        one = realization_capacity(h[:1], gamma, sigma, 10.0)
        assert one.shape == (1,)
        assert one[0] == realization_capacity(h[0], gamma, sigma, 10.0)
        block = realization_capacity(h, gamma, sigma, 10.0)
        assert np.array_equal(
            block, [realization_capacity(x, gamma, sigma, 10.0) for x in h]
        )

    def test_coupling_bound(self):
        # replacing (1 - gamma^2) by 1 and the noise diagonal by its minimum
        # bounds the coupled quadratic form from above
        rng = np.random.default_rng(2)
        for _ in range(50):
            h = rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2))
            gamma = rng.uniform(0, 1, (8, 2))
            sigma = rng.uniform(0.3, 3.0, (8, 2))
            coupled = realization_capacity(h, gamma, sigma, 10.0)
            bound = realization_capacity(
                h, np.zeros((8, 2)), np.full((8, 2), sigma.min()), 10.0
            )
            assert coupled <= bound + 1e-12


class TestOutage:
    def test_order_statistic(self):
        samples = np.arange(1.0, 101.0)
        c0, _ = outage(samples, 0.01)
        assert c0 == 1.0

    def test_constant_samples(self):
        c0, half = outage(np.full(500, 3.25), 0.01)
        assert c0 == 3.25
        assert half == 0.0

    def test_exponential_analytic_quantile(self):
        rng = np.random.default_rng(3)
        samples = rng.exponential(size=100_000)
        p = 0.05
        c0, half = outage(samples, p)
        want = -np.log1p(-p)
        assert abs(c0 - want) <= half
        assert half > 0

    def test_affine_equivariance(self):
        rng = np.random.default_rng(4)
        samples = rng.standard_normal(5000)
        c0, half = outage(samples, 0.02)
        c0b, halfb = outage(2.5 * samples + 1.0, 0.02)
        assert_allclose(c0b, 2.5 * c0 + 1.0, rtol=1e-12)
        assert_allclose(halfb, 2.5 * half, rtol=1e-12)

    def test_insufficient_samples(self):
        with pytest.raises(ValueError):
            outage(np.ones(50), 0.01)

    # every (M, p) the pipeline serves, plus p up to 0.49
    RANK_GRID = [(m, p) for m in (100, 1000, 5000, 100_000)
                 for p in (1e-3, 0.01, 0.05, 0.2, 0.49)]

    @pytest.mark.parametrize("m,p", RANK_GRID)
    def test_ranks_match_scipy_binomial(self, m, p):
        for q in (0.025, 0.975):
            assert _binom_ppf(q, m, p) == int(stats.binom.ppf(q, m, p))
        if m * p < 1.0:
            return
        # with samples 1..M the half-width is half the rank distance
        lo = max(int(stats.binom.ppf(0.025, m, p)), 1)
        hi = min(int(stats.binom.ppf(0.975, m, p)) + 1, m)
        _, half = outage(np.arange(1.0, m + 1.0), p)
        assert half == 0.5 * (hi - lo)


_SCIPY_LOADED = (
    "import sys\n"
    "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
)


@pytest.mark.parametrize("argv", [
    None,
    ["sweep", "--spacing", "0.25", "--realizations", "100"],
    ["capacity", "--spacing", "0.25", "--realizations", "1000"],
    ["modes", "--fixture", "table1"],
], ids=["import", "sweep", "capacity", "modes"])
def test_import_and_cli_leave_scipy_unloaded(argv, tmp_path):
    # scipy serves only the resonance fit and the quadrature check, so
    # neither the import nor a Monte-Carlo or fixture-mode run may load it
    if argv is None:
        code = "import ucadiv\n"
    else:
        code = (
            "from ucadiv.cli import cli_main\n"
            f"assert cli_main({argv + ['--out', str(tmp_path)]!r}) == 0\n"
        )
    src = os.path.dirname(os.path.dirname(ucadiv.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", code + _SCIPY_LOADED],
        env=env, capture_output=True, text=True, check=True,
    )
    assert proc.stdout.strip().splitlines()[-1] == "[]"


class TestRunMonteCarlo:
    def test_single_sample_determinism(self):
        cfg = SimConfig(realizations=120, seed=9)
        a = run_monte_carlo(cfg, 0.25)
        b = run_monte_carlo(cfg, 0.25)
        assert np.array_equal(a, b)

    def test_worker_invariance(self):
        cfg = SimConfig(realizations=200, seed=5)
        serial = run_monte_carlo(cfg, 0.25)
        parallel = run_monte_carlo(
            SimConfig(realizations=200, seed=5, workers=3), 0.25
        )
        assert np.array_equal(serial, parallel)

    def test_iid_matches_brute_force_oracle(self):
        cfg = SimConfig(realizations=400, seed=11, coupling=False,
                        subcarriers=16, n_taps=4)
        got = run_monte_carlo(cfg, 10.0)
        want = iid_oracle_samples(cfg)
        assert_allclose(got, want, atol=1e-10)

    def test_iid_mean_against_independent_seed(self):
        cfg_a = SimConfig(realizations=2000, seed=21, coupling=False)
        cfg_b = SimConfig(realizations=2000, seed=22, coupling=False)
        a = run_monte_carlo(cfg_a, 10.0)
        b = iid_oracle_samples(cfg_b)
        se = np.sqrt(np.var(a) / a.size + np.var(b) / b.size)
        assert abs(a.mean() - b.mean()) < 3.0 * se

    def test_large_spacing_approaches_iid(self):
        coupled = SimConfig(realizations=2000, seed=13)
        iid = SimConfig(realizations=2000, seed=13, coupling=False)
        c_coupled = run_monte_carlo(coupled, 30.0)
        c_iid = run_monte_carlo(iid, 30.0)
        # same streams, vanishing coupling: only residual correlation differs
        assert abs(np.mean(c_coupled) - np.mean(c_iid)) < 0.05

    def test_retune_flag_changes_band_placement_only(self):
        on = SimConfig(realizations=200, seed=4, retune_modes=True)
        off = SimConfig(realizations=200, seed=4, retune_modes=False)
        c_on = run_monte_carlo(on, 0.25)
        c_off = run_monte_carlo(off, 0.25)
        # the matching budget is evaluated in the mode's own normalized
        # frequency, so only the diagnostic band placement moves; samples
        # stay finite and close
        assert np.all(np.isfinite(c_off))
        assert abs(np.mean(c_on) - np.mean(c_off)) < 0.2


# realization counts around the block size; 3 is the fewest SimConfig
# accepts (p < 0.5 needs p M >= 1)
BLOCK_COUNTS = [3, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3]


class TestBlockedKernel:
    @pytest.mark.parametrize("coupling", [True, False])
    @pytest.mark.parametrize("n", [1, 2, 3, 16])
    @pytest.mark.parametrize("m", BLOCK_COUNTS)
    def test_equals_per_realization_path(self, n, coupling, m):
        cfg = SimConfig(n_antennas=n, coupling=coupling, realizations=m,
                        outage_p=0.49, seed=17)
        want = per_realization_samples(cfg, 0.25, range(m))
        assert np.array_equal(run_monte_carlo(cfg, 0.25), want)

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("coupling", [True, False])
    @pytest.mark.parametrize("n", [1, 2, 3, 16])
    def test_pool_equals_per_realization_path(self, n, coupling, workers):
        # 4 chunks per worker, of 72-73 realizations for 2 workers and 48-49
        # for 3: chunk starts fall inside blocks, and the larger chunks span
        # two blocks
        m = 9 * _BLOCK + 5
        cfg = SimConfig(n_antennas=n, coupling=coupling, realizations=m,
                        seed=23, workers=workers)
        got = run_monte_carlo(cfg, 0.1)
        assert np.array_equal(got, per_realization_samples(cfg, 0.1, range(m)))

    @pytest.mark.parametrize("index", [0, _BLOCK + 1, 2**32 - 1])
    def test_single_realization_chunk(self, index):
        cfg = SimConfig(n_antennas=3, seed=2**40)
        got = _simulate(cfg, *kernel_inputs(cfg, 0.5), np.array([index]))
        assert np.array_equal(got, per_realization_samples(cfg, 0.5, [index]))

    def test_zero_noise_error_names_chunk_start(self):
        # a mode too narrow to match stays dark (Gamma = 1), and with no
        # forward or reverse noise nothing is left behind it
        fx = table1_fixture()
        dark = replace(fx, modes=(fx.modes[0], replace(fx.modes[1], q=1e20)))
        cfg = SimConfig(temps=NoiseTemps(1.0, 0.0, 0.0), realizations=200)
        with pytest.raises(NumericError,
                           match=r"^realization 0: zero noise floor"):
            run_monte_carlo(cfg, 0.25, mode_set=dark)
        inputs = kernel_inputs(cfg, 0.25, mode_set=dark)
        with pytest.raises(NumericError,
                           match=r"^realization 70: zero noise floor"):
            _simulate(cfg, *inputs, np.arange(70, 200))


class TestSweep:
    def test_degenerate_single_spacing_equals_baseline(self):
        cfg = SimConfig(realizations=300, seed=7, coupling=False,
                        spacings=(0.5,))
        curve = sweep(cfg)
        assert len(curve.points) == 1
        samples = run_monte_carlo(cfg, 0.5)
        c0, half = outage(samples, cfg.outage_p)
        assert curve.points[0].c_out == c0
        assert curve.points[0].ci_half_width == half

    def test_failures_are_isolated(self):
        cfg = SimConfig(realizations=150, seed=3, spacings=(0.1, 0.25))

        def mode_source(d):
            if d == 0.1:
                raise ModelError("synthetic failure")
            return None

        curve = sweep(cfg, mode_source=mode_source)
        assert curve.points[0].error is not None
        assert curve.points[1].error is None
        assert np.isfinite(curve.points[1].c_out)

    def test_empty_spacings_rejected(self):
        with pytest.raises(ValueError):
            sweep(SimConfig(spacings=()))

    def test_n4_structure(self):
        from ucadiv.fixtures import CouplingModel

        modes = CouplingModel().mode_set(4, 0.25)
        assert len(modes.modes) == 3
        assert sorted(m.multiplicity for m in modes.modes) == [1, 1, 2]
        cfg = SimConfig(n_antennas=4, realizations=150, seed=2,
                        spacings=(0.25,))
        curve = sweep(cfg)
        assert curve.points[0].error is None


class TestSimConfig:
    def test_quantile_resolution_guard(self):
        with pytest.raises(ValueError):
            SimConfig(realizations=50, outage_p=0.01)

    def test_outage_level_domain(self):
        with pytest.raises(ValueError):
            SimConfig(outage_p=0.6)

    def test_realization_count_fits_one_index_word(self):
        assert SimConfig(realizations=2**32).realizations == 2**32
        with pytest.raises(ValueError, match="2\\*\\*32"):
            SimConfig(realizations=2**32 + 1)

    def test_desk_scale_flag(self):
        assert not SimConfig(realizations=5000).quantile_well_resolved
        assert SimConfig(realizations=100_000).quantile_well_resolved
