"""Per-realization capacity, outage quantiles, and the Monte-Carlo pipeline."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats

import ucadiv
from ucadiv import capacity
from ucadiv.capacity import (
    SNR_DB_LIMIT,
    _BLOCK,
    OutageCurve,
    SimConfig,
    _binom_ppf,
    _kernel_inputs,
    _mode_sum,
    _monte_carlo,
    _simulate,
    outage,
    realization_capacity,
    run_monte_carlo,
    sweep,
)
from ucadiv.channel import (
    _KEY_BLOCKS,
    draw_taps,
    realization_rng,
    taps_to_subcarriers,
    to_eigenbasis,
)
from ucadiv.errors import ModelError, NumericError
from ucadiv.fixtures import (
    Q_ISOLATED,
    R_ISOLATED,
    TABLE1_MODE1,
    TABLE1_MODE2,
    CouplingModel,
    table1_sweep,
)
from ucadiv.io import write_impedance
from ucadiv.modes import distinct_dft_indices, uca_pairwise_distance
from ucadiv.network import dft_beamformer


# the default spacings: every exact law is checked at each of them
SPACINGS = SimConfig().spacings


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


def band_snr_terms(config, d):
    """(c_m, mult_m) over the distinct DFT indices m of the coupled run.

    The box-car is flat on the sub-carrier grid, so with tap powers p_l the
    band-mean SNR is Y = sum_m c_m sum_l p_l E_ml, mult_m copies each, where
    the E_ml are unit exponentials and c_m = snr mu_m (1 - Gamma0_m^2) N0 /
    sigma_m.  mu is the DFT of R_h's first row, the plane-wave mean of
    cos(2 pi chord_k cos phi); Gamma0^2, sigma_m and N0 are the closed
    forms of the fano and frontend docstrings.
    """
    n = config.n_antennas
    w, ta, tf, tr = (config.relative_bandwidth, config.temp_antenna,
                     config.temp_forward, config.temp_reverse)

    def gamma0_sq(q):
        return math.exp(-2.0 * math.pi * (1.0 - w * w / 4.0) / (q * w))

    phi = 2.0 * np.pi * np.arange(config.planewaves) / config.planewaves
    chords = np.array([uca_pairwise_distance(n, d, k) for k in range(n)])
    mu = np.fft.fft(np.cos(2.0 * np.pi * chords[:, None] * np.cos(phi))
                    .mean(axis=1)).real
    g_iso = gamma0_sq(Q_ISOLATED)
    n0 = ta * R_ISOLATED * (1.0 - g_iso) + tf + tr * g_iso
    terms = []
    for (m, mult), mode in zip(distinct_dft_indices(n),
                               CouplingModel().mode_set(n, d).modes):
        g = gamma0_sq(mode.q)
        sigma = (ta - tr) * mode.r * (1.0 - g) + tf + tr
        terms.append((config.snr_linear * mu[m] * (1.0 - g) * n0 / sigma,
                      mult))
    return terms


def band_mean_cdf(b, k):
    """CDF y -> P(Y <= y) of Y = sum_m b_m Gamma(k_m, 1), independent terms.

    Inverts prod_m (1 + b_m s)^-k_m / s on the parabola s*(1 + iu)^2, every
    pole on its left (Weideman & Trefethen, Math. Comp. 76, 2007), in float64
    with nothing to cancel.  s* is the real saddle, y s = 1 + sum_m k_m x_m,
    x_m = b_m s / (1 + b_m s), so in [1/y, (1 + sum k) / y]; the trapezoid
    rule takes 64 panels on [0, u_max], u_max^2 = 40 / (1 + 2 sum k x^2).
    """
    b, k = np.asarray(b, float), np.asarray(k, float)

    def cdf(y):
        y = np.asarray(y, float).reshape(-1, 1)
        lo, hi = -np.log(y), np.log1p(k.sum()) - np.log(y)
        for _ in range(60):
            mid = (lo + hi) / 2.0
            bs = b * np.exp(mid)
            above = y * np.exp(mid) > 1.0 + (bs / (1.0 + bs)) @ k[:, None]
            lo, hi = np.where(above, lo, mid), np.where(above, mid, hi)
        s0 = np.exp(lo)
        x = b * s0 / (1.0 + b * s0)
        h = np.sqrt(40.0 / (1.0 + 2.0 * x ** 2 @ k[:, None])) / 64.0
        z = 1.0 + 1j * h * np.arange(65)
        s = s0 * z * z
        log_f = s * y - np.log(s)
        for b_m, k_m in zip(b, k):
            log_f -= k_m * np.log1p(b_m * s)
        g = np.exp(log_f) * s0 * z * h  # the real-line rule, folded at u = 0
        return (2.0 * g.sum(1).real - g[:, 0].real) / np.pi
    return cdf


def band_mean_law(config, d):
    """CDF G of X = log1p(Y), Y the band-mean SNR of the coupled run at d.

    With equal powers on L <= K taps, Parseval makes Y = sum_m b_m
    Gamma(k_m, 1), b_m = c_m / L and k_m = L mult_m over ``band_snr_terms``:
    C <= X by Jensen, and C = X at L = 1.
    """
    taps, terms = config.n_taps, band_snr_terms(config, d)
    cdf = band_mean_cdf([c / taps for c, _ in terms],
                        [taps * mult for _, mult in terms])
    return lambda capacity: cdf(np.expm1(capacity))


def cdf_gaps(samples, cdf, step=20):
    """Upper bounds on sup(F_hat - F) and sup(F - F_hat) over ``samples``.

    ``cdf`` is evaluated at every ``step``-th order statistic and the
    largest only: a sample between two of them has F between theirs, so
    each bound exceeds the exact one by at most step / m plus F's rise
    over the step.
    """
    s = np.sort(samples)
    ranks = np.append(np.arange(step, s.size, step), s.size)
    f = np.concatenate(([0.0], cdf(s[ranks - 1])))
    below = np.concatenate(([0], ranks[:-1])) / s.size
    return (ranks / s.size - f[:-1]).max(), (f[1:] - below).max()


def traced_peak(fn, *args):
    """tracemalloc's peak, in bytes, over one call of ``fn(*args)``."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def per_realization_samples(config, d, indices):
    """The public per-realization path, one realization at a time."""
    corr, gamma, sigma = _kernel_inputs(config, d)
    q = dft_beamformer(config.n_antennas)
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

    def test_negative_or_nan_noise_floor_named_with_its_minimum(self):
        h, gamma = np.ones((2, 2), dtype=complex), np.zeros((2, 2))
        zero = r"^zero noise floor \("
        with pytest.raises(NumericError, match=zero):
            realization_capacity(h, gamma, [[1.0, 0.0], [0.5, 2.0]], 10.0)
        negative = r"^negative or NaN noise floor \(minimum -0\.25; "
        with pytest.raises(NumericError, match=negative):
            realization_capacity(h, gamma, [[1.0, 0.0], [-0.25, 2.0]], 10.0)
        with pytest.raises(NumericError, match=r"\(minimum nan; "):
            realization_capacity(h, gamma, [[1.0, 0.0], [np.nan, 2.0]], 10.0)

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

    @staticmethod
    def straight(h, gamma, sigma, snr):
        w = 1.0 - gamma ** 2
        return np.log1p(snr * (np.abs(h) ** 2 * w / sigma).sum(-1)).mean(-1)

    @pytest.mark.parametrize("lead", [(), (1,), (3,), (_BLOCK + 1,)])
    @pytest.mark.parametrize("n", [1, 2, 3, 16])
    def test_equals_straight_formula(self, n, lead):
        rng = np.random.default_rng(n)
        shape = (*lead, 64, n)
        h = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        gamma = rng.uniform(0, 1, (64, n))
        sigma = rng.uniform(0.3, 3.0, (64, n))
        before = [h.copy(), gamma.copy(), sigma.copy()]
        got = realization_capacity(h, gamma, sigma, 10.0)
        assert np.array_equal(got, self.straight(h, gamma, sigma, 10.0))
        for arg, copy in zip((h, gamma, sigma), before):
            assert np.array_equal(arg, copy)  # inputs left as they were

    @pytest.mark.parametrize("n", [2, 16])
    def test_non_contiguous_input(self, n):
        # (B, K, N) strided along N: the N-axis sum still runs on the
        # contiguous temporary, as the straight formula's does
        rng = np.random.default_rng(n)
        shape = (_BLOCK + 1, n, 64)
        h = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        h = np.swapaxes(h, -1, -2)
        gamma = rng.uniform(0, 1, (64, n))
        sigma = rng.uniform(0.3, 3.0, (64, n))
        assert np.array_equal(realization_capacity(h, gamma, sigma, 10.0),
                              self.straight(h, gamma, sigma, 10.0))

    @pytest.mark.parametrize("lead", [(), (_BLOCK,)])
    @pytest.mark.parametrize("n", [2, 16])
    def test_scratch_gives_the_same_bits(self, n, lead):
        rng = np.random.default_rng(n)
        shape = (*lead, 64, n)
        h = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        gamma = rng.uniform(0, 1, (64, n))
        sigma = rng.uniform(0.3, 3.0, (64, n))
        want = np.asarray(realization_capacity(h, gamma, sigma, 10.0))
        # scratch cut from a complex buffer, as _simulate cuts it
        buf = np.full(h.size, np.nan, complex)
        scratch = buf.view(float)[:h.size].reshape(shape)
        got = realization_capacity(h, gamma, sigma, 10.0, scratch=scratch)
        assert np.asarray(got).tobytes() == want.tobytes()
        # a strided h_hat still lands C-ordered in the scratch
        strided = np.swapaxes(np.swapaxes(h, -1, -2).copy(), -1, -2)
        got = realization_capacity(strided, gamma, sigma, 10.0,
                                   scratch=np.empty(shape))
        assert np.asarray(got).tobytes() == want.tobytes()

    @pytest.mark.parametrize("lead", [(), (3,), (64, 64)])
    @pytest.mark.parametrize("n", range(1, 21))
    def test_mode_sum_equals_numpy_sum(self, n, lead):
        rng = np.random.default_rng(n)
        shape = (*lead, n)
        p = rng.exponential(size=shape) * 10.0 ** rng.uniform(-8, 8, shape)
        strided = np.repeat(p, 2, axis=-1)[..., ::2]
        for x in (p, strided, np.zeros(shape)):
            assert _mode_sum(x).tobytes() == x.sum(axis=-1).tobytes()
            assert not np.shares_memory(_mode_sum(x), x)

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


def outage_coverage(runs, m, p):
    """Share of the arrays ``runs(m, p)`` whose c0 +/- half covers q.

    Each array holds m draws of C = log1p(10 E), E unit exponential, whose
    exact p-quantile q is log1p(-10 ln(1 - p)).
    """
    q = np.log1p(-10.0 * np.log1p(-p))
    hits = [abs(c0 - q) <= half
            for c0, half in (outage(s, p) for s in runs(m, p))]
    return sum(hits) / len(hits)


def exponential_runs(m, p, reps=2000):
    """``reps`` seeded arrays drawn from the distribution itself."""
    rng = np.random.default_rng([18, m])
    for _ in range(reps):
        yield np.log1p(10.0 * rng.exponential(size=m))


def pipeline_runs(m, p, reps=1000):
    """``run_monte_carlo`` samples over seeds 0..reps-1 at N = 1, one tap.

    Uncoupled, with one tap and one sub-carrier, each sample is
    log1p(snr |w|^2) with |w|^2 unit exponential, and snr is 10 (10 dB).
    """
    for seed in range(reps):
        cfg = SimConfig(n_antennas=1, n_taps=1, subcarriers=1, coupling=False,
                        spacings=(0.0,), realizations=m, outage_p=p,
                        seed=seed)
        yield run_monte_carlo(cfg, 0.0)


RANK1 = pytest.mark.xfail(strict=True, reason="rank 1: the lower end is c0 "
                          "itself and no two-sided 95% interval exists "
                          "(ROADMAP item 18(c))")


@pytest.mark.parametrize("runs,m,p", [
    pytest.param(exponential_runs, 100, 0.01, marks=RANK1, id="rank1"),
    pytest.param(exponential_runs, 500, 0.01, id="rank5"),
    pytest.param(exponential_runs, 5000, 0.01, id="rank50"),
    pytest.param(pipeline_runs, 100, 0.01, marks=RANK1, id="pipeline-rank1"),
    pytest.param(pipeline_runs, 500, 0.01, id="pipeline-rank5"),
])
def test_outage_interval_covers_at_95_percent(runs, m, p):
    # the standard error of a 0.95 coverage is 0.005 over 2000 runs and
    # 0.007 over 1000
    assert abs(outage_coverage(runs, m, p) - 0.95) <= 0.02


# every loaded top-level package, on one line
_LOADED = ("import sys\n"
           "print(*sorted({m.split('.')[0] for m in sys.modules}))\n")


@pytest.mark.parametrize("argv,emits", [
    (None, False),
    (["sweep", "--spacing", "0.25", "--realizations", "100"], True),
    (["capacity", "--spacing", "0.25", "--realizations", "1000"], True),
    (["modes", "--fixture", "table1"], False),
    (["match", "--fixture", "table1"], False),
    (["fit", "{tmp}/table1.csv"], False),
    (["sweep", "--config", "{tmp}/files.json"], True),
], ids=["import", "sweep", "capacity", "modes", "match", "fit", "sweep-files"])
def test_import_and_cli_leave_scipy_unloaded(argv, emits, tmp_path):
    # no runtime path loads scipy: not the import, the Monte-Carlo runs,
    # the fixture modes, the resonance fit, the quadrature check of
    # `match` or a sweep over impedance files; none of them starts a pool,
    # so none loads one, and only the runs that hash and write json load
    # hashlib and json
    write_impedance(table1_sweep(), tmp_path / "table1.csv")
    (tmp_path / "files.json").write_text(json.dumps({
        "spacings": [0.25], "realizations": 100, "input": "files",
        "impedance_files": [[0.25, str(tmp_path / "table1.csv")]],
    }))
    if argv is None:
        code = "import ucadiv\n"
    else:
        argv = [a.format(tmp=tmp_path) for a in argv]
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
        [sys.executable, "-c", code + _LOADED],
        env=env, capture_output=True, text=True, check=True,
    )
    loaded = set(proc.stdout.splitlines()[-1].split())
    unused = {"scipy", "concurrent", "multiprocessing"}
    assert not loaded & (unused if emits else unused | {"hashlib", "json"})


@pytest.mark.parametrize("preset,want", [
    ({}, ["1", "1"]),
    ({"OPENBLAS_NUM_THREADS": "3"}, ["3", "1"]),
], ids=["unset", "preset"])
def test_import_defaults_to_one_blas_thread(preset, want):
    # pool workers that each run a multi-threaded BLAS oversubscribe the
    # CPUs, so the import sets one thread; a caller's own setting is kept
    src = os.path.dirname(os.path.dirname(ucadiv.__file__))
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env.update(preset, PYTHONPATH=os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p))
    code = ("import os, ucadiv\n"
            "print(os.environ['OPENBLAS_NUM_THREADS'], "
            "os.environ['OMP_NUM_THREADS'])\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.split() == want


def claim_cpus(monkeypatch, n):
    """Let ``capacity`` see ``n`` CPUs that this process may run on."""
    monkeypatch.setattr(capacity.os, "sched_getaffinity",
                        lambda pid: set(range(n)), raising=False)


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

    @pytest.mark.parametrize("d", SPACINGS)
    def test_one_tap_coupled_law_is_exact(self, d):
        # an oracle that replays no stream: W = 0.5 so that Gamma0 matters,
        # and T_r > 0 so that the noise floor's (T_A - T_r) term does
        cfg = SimConfig(n_taps=1, subcarriers=8, relative_bandwidth=0.5,
                        temp_reverse=0.5, realizations=20000, spacings=(d,))
        ks = stats.kstest(run_monte_carlo(cfg, d), band_mean_law(cfg, d))
        # the DKW band at alpha = 1e-6 (Massart 1990): 0.0190 here
        eps = math.sqrt(math.log(2.0 / 1e-6) / (2.0 * cfg.realizations))
        assert ks.statistic <= eps

    @pytest.mark.parametrize("n", [1, 3, 4, 16])
    @pytest.mark.parametrize("d", SPACINGS)
    def test_one_tap_coupled_law_is_exact_at_n(self, n, d):
        # the N = 2 law above at the other N: up to N = 4 one or two
        # exponentials and a Gamma(2), at N = 16 two exponentials and seven
        # Gamma(2) terms whose scales span up to 14 decades
        cfg = SimConfig(n_antennas=n, n_taps=1, subcarriers=8,
                        relative_bandwidth=0.5, temp_reverse=0.5,
                        realizations=20000, spacings=(d,))
        gaps = cdf_gaps(run_monte_carlo(cfg, d), band_mean_law(cfg, d))
        # the DKW band at alpha = 1e-6, as in the N = 2 law: 0.0190
        eps = math.sqrt(math.log(2.0 / 1e-6) / (2.0 * cfg.realizations))
        assert max(gaps) <= eps

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("d", SPACINGS)
    def test_band_mean_cdf_matches_the_closed_forms(self, n, d):
        # one tap: N = 1 is one exponential and N = 2 two, whose sum is
        # hypoexponential; N = 1 on 8 equal taps is one Gamma(8)
        cfg = SimConfig(n_antennas=n, n_taps=1, relative_bandwidth=0.5,
                        temp_reverse=0.5, spacings=(d,))
        c = np.linspace(0.05, 8.0, 160)
        y = np.expm1(c)
        b = [c_m for c_m, _ in band_snr_terms(cfg, d)]
        if n == 1:
            laws = [(cfg, -np.expm1(-y / b[0])),
                    (replace(cfg, n_taps=8),
                     stats.gamma(8, scale=b[0] / 8).cdf(y))]
        else:
            laws = [(cfg, 1.0 - (b[0] * np.exp(-y / b[0])
                                 - b[1] * np.exp(-y / b[1])) / (b[0] - b[1]))]
        for config, want in laws:
            assert_allclose(band_mean_law(config, d)(c), want,
                            rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("taps", [1, 8])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 16])
    @pytest.mark.parametrize("d", SPACINGS)
    def test_band_mean_law_is_a_cdf(self, d, n, taps):
        # at every point the law tests read.  At N = 16, d = 0.5 on 8 taps
        # two scales of order 16 lie within 7% of each other, and partial
        # fractions in 60-digit decimals read G = 9e11 there
        cfg = SimConfig(n_antennas=n, n_taps=taps, subcarriers=8,
                        relative_bandwidth=0.5, temp_reverse=0.5,
                        spacings=(d,))
        g = band_mean_law(cfg, d)(np.linspace(0.05, 8.0, 160))
        assert np.diff(g).min() >= -1e-13
        assert g.min() >= -1e-13 and g.max() <= 1.0 + 1e-13

    @pytest.mark.parametrize("d", SPACINGS)
    def test_capacity_stays_below_the_band_mean_bound(self, d):
        # 8 equal taps on 8 sub-carriers: C <= X for every realization, so
        # F_C >= G, and F_hat_C may fall below G only by the sampling error
        cfg = SimConfig(n_antennas=16, n_taps=8, subcarriers=8,
                        relative_bandwidth=0.5, temp_reverse=0.5,
                        realizations=20000, spacings=(d,))
        _, above = cdf_gaps(run_monte_carlo(cfg, d), band_mean_law(cfg, d))
        # the one-sided DKW band at alpha = 1e-6: 0.0186
        assert above <= math.sqrt(math.log(1.0 / 1e-6)
                                  / (2.0 * cfg.realizations))

    @pytest.mark.parametrize("d", SPACINGS)
    def test_mean_capacity_law_at_k_equal_l(self, d):
        # 8 equal taps on 8 sub-carriers: the DFT is unitary, so the 8
        # sub-carrier channels are i.i.d. with the one-tap law G1, and C is
        # the mean of 8 i.i.d. copies of X = log1p(Y): E C = int (1 - G1),
        # E X^2 = int 2 c (1 - G1) and Var C = Var X / 8.  Unlike the
        # one-tap laws and the one-sided bound, it sees the tap powers
        cfg = SimConfig(n_antennas=16, n_taps=8, subcarriers=8,
                        relative_bandwidth=0.5, temp_reverse=0.5,
                        realizations=20000, spacings=(d,))
        c = np.linspace(0.0, 12.0, 1201)  # 1 - G1 is rounding by c = 12
        tail = np.append(1.0, 1.0 - band_mean_law(replace(cfg, n_taps=1),
                                                  d)(c[1:]))
        mean = np.trapezoid(tail, c)
        var = np.trapezoid(2.0 * c * tail, c) - mean ** 2
        samples = run_monte_carlo(cfg, d)
        z = (samples.mean() - mean) / math.sqrt(var / 8 / samples.size)
        # six standard errors: a false alarm has probability 2e-9
        assert abs(z) <= 6.0

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 16])
    def test_one_tap_uncoupled_law_is_exact(self, n):
        # coupling off: Gamma = 0, sigma = 1 and one i.i.d. CN(0, I) channel
        # on every sub-carrier, so C = log1p(snr G) with G ~ Gamma(N, 1);
        # N <= 4 takes _mode_sum's slice path, N = 16 numpy's sum
        cfg = SimConfig(n_antennas=n, coupling=False, n_taps=1,
                        subcarriers=8, realizations=20000, spacings=(0.25,))
        ks = stats.kstest(run_monte_carlo(cfg, 0.25), lambda c: stats.gamma(
            n).cdf(np.expm1(c) / cfg.snr_linear))
        # the DKW band at alpha = 1e-6, as in the coupled law above: 0.0190
        eps = math.sqrt(math.log(2.0 / 1e-6) / (2.0 * cfg.realizations))
        assert ks.statistic <= eps

    def test_large_spacing_approaches_iid(self):
        coupled = SimConfig(realizations=2000, seed=13)
        iid = SimConfig(realizations=2000, seed=13, coupling=False)
        c_coupled = run_monte_carlo(coupled, 30.0)
        c_iid = run_monte_carlo(iid, 30.0)
        # same streams, vanishing coupling: only residual correlation differs
        assert abs(np.mean(c_coupled) - np.mean(c_iid)) < 0.05

    def test_pool_size_bounded_by_cpus(self, monkeypatch):
        sizes, chunks = [], []

        class InProcessPool(capacity.ProcessPoolExecutor):
            # records the size asked for and the chunks mapped; starts no
            # process
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers=1)

            def map(self, fn, args):
                chunks.append(len(args))
                return map(fn, args)

        monkeypatch.setattr(capacity, "ProcessPoolExecutor", InProcessPool)
        claim_cpus(monkeypatch, 3)
        cfg = SimConfig(realizations=300, seed=5, workers=1000)
        got = run_monte_carlo(cfg, 0.25)
        assert sizes == [3]
        # 4 chunks per process started, not per worker asked for
        assert chunks == [4 * 3]
        assert np.array_equal(got, run_monte_carlo(replace(cfg, workers=1),
                                                   0.25))

    def test_pool_parent_holds_the_samples_only(self, monkeypatch):
        # the tasks are bounds and each chunk is written into its slice, so
        # besides the samples the parent holds chunks in transit: each
        # process's latest one, waiting to be copied, and the pipe's copy of
        # the next; the pool's own objects get 256 KiB.  At 2**16
        # realizations the bound is 0.98 MB: the parent reads 0.84 MB, and
        # read 1.59 MB when it sent index arrays and kept every chunk for a
        # final concatenate
        claim_cpus(monkeypatch, 2)
        m, processes = 2**16, 2
        cfg = SimConfig(realizations=m, seed=3, workers=processes)
        points = [_kernel_inputs(cfg, 0.25)]
        _monte_carlo(replace(cfg, realizations=4000), points)  # pool imports
        peak = traced_peak(_monte_carlo, cfg, points)
        chunk = -(-m // (4 * processes)) * 8
        assert peak <= m * 8 + (processes + 1) * chunk + 256 * 1024, peak

    @pytest.mark.parametrize("cpus", [1, None])
    def test_one_cpu_runs_serially(self, cpus, monkeypatch):
        # with room for one process only, the samples come from this one
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started for one process")

        monkeypatch.setattr(capacity, "ProcessPoolExecutor", no_pool)
        if cpus is None:  # no affinity call and no CPU count: one process
            monkeypatch.delattr(capacity.os, "sched_getaffinity",
                                raising=False)
            monkeypatch.setattr(capacity.os, "cpu_count", lambda: None)
        else:  # the machine has more CPUs than this process may run on
            claim_cpus(monkeypatch, cpus)
            monkeypatch.setattr(capacity.os, "cpu_count", lambda: cpus + 1)
        cfg = SimConfig(realizations=300, seed=5, workers=4)
        serial = replace(cfg, workers=1)
        assert sweep(cfg).points == sweep(serial).points
        assert np.array_equal(run_monte_carlo(cfg, 0.25),
                              run_monte_carlo(serial, 0.25))


class TestPoolSeam:
    """``capacity.ProcessPoolExecutor``, which tests and tracers replace."""

    def test_first_access_binds_the_standard_pool(self, monkeypatch):
        monkeypatch.delitem(vars(capacity), "ProcessPoolExecutor",
                            raising=False)
        assert capacity.ProcessPoolExecutor is ProcessPoolExecutor
        # a tracer finds the class by scanning the module's namespace
        assert vars(capacity)["ProcessPoolExecutor"] is ProcessPoolExecutor

    def test_run_uses_the_class_set_here(self, monkeypatch):
        starts = []

        class InProcessPool(ProcessPoolExecutor):
            def __init__(self, max_workers):
                starts.append(max_workers)
                super().__init__(max_workers=1)

            def map(self, fn, args):
                return map(fn, args)

        # set before the first access: the run must not replace it
        monkeypatch.delitem(vars(capacity), "ProcessPoolExecutor",
                            raising=False)
        monkeypatch.setattr(capacity, "ProcessPoolExecutor", InProcessPool,
                            raising=False)
        claim_cpus(monkeypatch, 2)
        cfg = SimConfig(realizations=300, seed=5, workers=2)
        got = run_monte_carlo(cfg, 0.25)
        assert starts == [2]
        assert capacity.ProcessPoolExecutor is InProcessPool
        assert np.array_equal(got, run_monte_carlo(replace(cfg, workers=1),
                                                   0.25))

    def test_other_names_stay_missing(self):
        with pytest.raises(AttributeError, match=r"'ucadiv\.capacity' has no "
                                                 r"attribute 'no_such_name'"):
            capacity.no_such_name


# Table I modes with the second too narrow to match: it stays dark
DARK_MODES = (TABLE1_MODE1, (TABLE1_MODE2[0], 1e20, TABLE1_MODE2[2]))


# realization counts around one and two blocks; 3 is the fewest SimConfig
# accepts (p < 0.5 needs p M >= 1).  63-65 and 131 sat around the earlier
# 64-realization block; they add no block shape the others miss, and stay
# so that their parametrized cases keep their names
BLOCK_COUNTS = sorted({3, 63, 64, 65, 131,
                       _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3})
# antenna counts that expose a reordered sum: swapped eigen-basis operands
# change bits at 2, 3, 5, 9 and 17, a mode sum over a strided axis at 9,
# 16 and 17 (numpy's 8-way pairwise sum); N = 17 needs 34 plane waves
KERNEL_NS = [1, 2, 3, 5, 9, 16, 17]


class TestBlockedKernel:
    @pytest.mark.parametrize("coupling", [True, False])
    @pytest.mark.parametrize("n", KERNEL_NS)
    @pytest.mark.parametrize("m", BLOCK_COUNTS)
    def test_equals_per_realization_path(self, n, coupling, m):
        cfg = SimConfig(n_antennas=n, coupling=coupling, realizations=m,
                        outage_p=0.49, seed=17, planewaves=max(32, 2 * n))
        want = per_realization_samples(cfg, 0.25, range(m))
        assert np.array_equal(run_monte_carlo(cfg, 0.25), want)

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("coupling", [True, False])
    @pytest.mark.parametrize("n", [1, 2, 3, 16])
    def test_pool_equals_per_realization_path(self, n, coupling, workers,
                                              monkeypatch):
        # 4 chunks per process, at _BLOCK = 128 of 144-145 realizations for
        # 2 processes and 96-97 for 3: chunk starts fall inside blocks, and
        # the larger chunks span two blocks, the smaller fit in one; enough
        # CPUs are claimed to start one per worker
        claim_cpus(monkeypatch, workers)
        m = 9 * _BLOCK + 5
        cfg = SimConfig(n_antennas=n, coupling=coupling, realizations=m,
                        seed=23, workers=workers)
        got = run_monte_carlo(cfg, 0.1)
        assert np.array_equal(got, per_realization_samples(cfg, 0.1, range(m)))

    @pytest.mark.parametrize("n", [2, 3, 16])
    def test_bits_do_not_depend_on_the_block(self, n, monkeypatch,
                                             used_blocks):
        # 261 realizations end in a partial block at every size but 1, and
        # the two spacings share each block's draws and workspace.  Each
        # case sets _BLOCK and _BLOCK_BYTES; the block is the smaller of
        # _BLOCK and the budget's count of B K N complex entries, at least 1
        m, spacings = 261, (0.1, 0.5)
        cfg = SimConfig(n_antennas=n, realizations=m, seed=37)
        points = [_kernel_inputs(cfg, d) for d in spacings]
        want = [per_realization_samples(cfg, d, range(m)).tobytes()
                for d in spacings]
        entry = 16 * cfg.subcarriers * n  # bytes of one realization's K N
        for size, budget, block in [
            (1, 2**40, 1), (7, 2**40, 7), (64, 2**40, 64), (128, 2**40, 128),
            (200, 2**40, 200), (128, 200 * entry, 128),  # _BLOCK sets it
            (128, 7 * entry + entry // 2, 7),
            (128, entry - 1, 1),  # the budget does, down to one realization
        ]:
            monkeypatch.setattr(capacity, "_BLOCK", size)
            monkeypatch.setattr(capacity, "_BLOCK_BYTES", budget)
            got = _simulate(cfg, points, np.arange(m))
            assert used_blocks.pop() == block, (size, budget)
            assert [s.tobytes() for s in got] == want, (size, budget)

    @staticmethod
    def workspace_peak(n, k, blocks):
        """tracemalloc's peak over a full block and a tail, and B K N."""
        cfg = SimConfig(n_antennas=n, subcarriers=k, seed=3)
        points = [_kernel_inputs(cfg, d) for d in (0.1, 0.5)]
        _simulate(cfg, points, np.arange(1))  # first-call caches stay out
        indices = np.arange(blocks[0] + 5)
        bkn = blocks[0] * k * n
        assert bkn * 16 <= capacity._BLOCK_BYTES  # each buffer within it
        return traced_peak(_simulate, cfg, points, indices), bkn

    def test_peak_memory_stays_near_the_workspace(self, used_blocks):
        # the workspace is two complex buffers of B K N entries; everything
        # else a block allocates (draws, mode sums, samples) must stay under
        # a quarter of it, the size of one |h|^2 array.  At N = 16
        # (B = 64) the bound is 2.62 MB and the kernel reads 2.51 MB; at
        # B = 128 it read 4.88 MB, and 6.13 MB when it allocated the lanes
        # and |h|^2 per block and spacing
        peak, bkn = self.workspace_peak(16, 64, used_blocks)
        assert peak <= 2 * bkn * 16 + bkn * 8, f"peak {peak} bytes"

    def test_peak_memory_stays_within_the_budget_at_large_k(self,
                                                            used_blocks):
        # the same bound at N = 16, K = 1024 (B = 4) is 2.62 MB (2.5 MiB)
        # and the kernel reads 2.38 MB; with 128-realization blocks it
        # read 68.8 MB
        peak, bkn = self.workspace_peak(16, 1024, used_blocks)
        assert peak <= 2 * bkn * 16 + bkn * 8, f"peak {peak} bytes"

    def test_memory_does_not_grow_with_the_realizations(self):
        # keys are derived per span of _KEY_BLOCKS blocks, so over 8 spans
        # the peak may exceed that over 2 by the 6 spans of samples more,
        # plus 64 KiB.  At N = 2 the difference reads 0.39 MB, the samples
        # alone, and read 4.33 MB when every realization's keys were
        # derived at once
        cfg = SimConfig(seed=3)
        points = [_kernel_inputs(cfg, 0.25)]
        span = _KEY_BLOCKS * _BLOCK
        _simulate(cfg, points, np.arange(_BLOCK + 5))  # first-call caches
        two, eight = (traced_peak(_simulate, cfg, points, np.arange(s * span))
                      for s in (2, 8))
        assert eight - two <= 6 * span * 8 + 64 * 1024, (two, eight)

    @pytest.mark.parametrize("index", [0, _BLOCK + 1, 2**32 - 1])
    def test_single_realization_chunk(self, index):
        cfg = SimConfig(n_antennas=3, seed=2**40)
        [got] = _simulate(cfg, [_kernel_inputs(cfg, 0.5)], np.array([index]))
        assert np.array_equal(got, per_realization_samples(cfg, 0.5, [index]))

    def test_zero_noise_raises_before_any_draw(self, monkeypatch):
        # a mode too narrow to match stays dark (Gamma = 1), and with no
        # forward or reverse noise nothing is left behind it
        def no_draws(*args):
            raise AssertionError("taps drawn for a spacing that cannot run")

        monkeypatch.setattr(capacity.channel, "draw_tap_blocks", no_draws)
        cfg = SimConfig(temp_antenna=1.0, temp_forward=0.0, temp_reverse=0.0,
                        realizations=200, spacings=(0.25,),
                        fixture_modes=((0.25, DARK_MODES),))
        [point] = sweep(cfg).points
        assert isinstance(point.cause, NumericError)
        assert point.error.startswith("zero noise floor (")


class TestSharedDraws:
    """A sweep draws each realization once for all its spacings."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("m", BLOCK_COUNTS)
    @pytest.mark.parametrize("coupling", [True, False])
    @pytest.mark.parametrize("n", KERNEL_NS)
    def test_points_equal_run_monte_carlo(self, n, coupling, m, workers):
        cfg = SimConfig(n_antennas=n, coupling=coupling, realizations=m,
                        outage_p=0.49, seed=29, workers=workers,
                        planewaves=max(32, 2 * n))
        serial = replace(cfg, workers=1)
        for p in sweep(cfg).points:
            assert p.error is None and p.n_samples == m
            want = outage(run_monte_carlo(serial, p.d), cfg.outage_p)
            assert (p.c_out, p.ci_half_width) == want

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_spacing_leaves_others_alone(self, workers):
        cfg = SimConfig(temp_antenna=1.0, temp_forward=0.0, temp_reverse=0.0,
                        realizations=200, spacings=(0.1, 0.25, 0.5), seed=31,
                        workers=workers, fixture_modes=((0.25, DARK_MODES),))
        curve = sweep(cfg)
        bad = curve.points[1]
        assert bad.error.startswith("zero noise floor")
        assert isinstance(bad.cause, NumericError) and bad.n_samples == 0
        rest = sweep(replace(cfg, spacings=(0.1, 0.5)))
        assert curve.points[::2] == rest.points

    def test_one_pool_per_sweep(self, monkeypatch):
        starts = []

        class CountingPool(capacity.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                starts.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(capacity, "ProcessPoolExecutor", CountingPool)
        claim_cpus(monkeypatch, 2)
        curve = sweep(SimConfig(realizations=150, seed=37, workers=2))
        assert len(curve.points) == 5
        assert all(p.error is None for p in curve.points)
        assert len(starts) == 1


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

    def test_failures_are_isolated(self, monkeypatch):
        cfg = SimConfig(realizations=150, seed=3, spacings=(0.1, 0.25))

        def modes_at(config, d):
            if d == 0.1:
                raise ModelError("synthetic failure")
            return CouplingModel().mode_set(2, d)

        monkeypatch.setattr(capacity, "modes_at", modes_at)
        curve = sweep(cfg)
        assert curve.points[0].error is not None
        assert curve.points[1].error is None
        assert np.isfinite(curve.points[1].c_out)

    def test_empty_spacings_rejected(self):
        with pytest.raises(ValueError):
            sweep(SimConfig(spacings=()))

    def test_n4_structure(self):
        modes = CouplingModel().mode_set(4, 0.25)
        assert len(modes.modes) == 3
        assert sorted(np.bincount(modes.expand([0, 1, 2]))) == [1, 1, 2]
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

    @pytest.mark.parametrize("snr_db", [-SNR_DB_LIMIT, SNR_DB_LIMIT])
    def test_snr_range_ends_run_finite(self, snr_db):
        cfg = SimConfig(snr_db=snr_db, realizations=150)
        c_out, half = outage(run_monte_carlo(cfg, 0.25), cfg.outage_p)
        assert np.isfinite(c_out) and np.isfinite(half)

    @pytest.mark.parametrize("snr_db", [300.5, -300.5, 3080.0, 4000.0,
                                        float("inf"), float("nan")])
    def test_snr_outside_range_rejected(self, snr_db):
        with pytest.raises(ValueError, match="SNR must lie within"):
            SimConfig(snr_db=snr_db)

    @pytest.mark.parametrize("kwargs, message", [
        ({"subcarriers": 4}, "sub-carrier count must be >= tap count"),
        ({"n_taps": 65}, "sub-carrier count must be >= tap count"),
        ({"relative_bandwidth": 0.0}, r"relative bandwidth must lie in \("),
        ({"relative_bandwidth": 2.0}, r"relative bandwidth must lie in \("),
        ({"relative_bandwidth": float("nan")}, "relative bandwidth"),
        # a bad temperature is named before every other check
        ({"temp_forward": -1.0, "n_antennas": 0}, "noise temperatures"),
        # refused when built, not later by the channel
        ({"n_taps": 0}, "n_taps must be >= 1, got 0$"),
        ({"planewaves": 7, "n_antennas": 4},
         r"planewaves must be >= 2 \* n_antennas = 8, got 7$"),
        # named with its key and spacing, not per point by EigenModeSet
        ({"n_antennas": 4, "fixture_modes": [[0.25, [[100, 5, 1]] * 2]]},
         r"key 'fixture_modes': spacing 0.25 needs 3 \(R, Q, f0\) triples "
         r"for N=4, got 2$"),
    ])
    def test_out_of_range_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match="^" + message):
            SimConfig(**kwargs)

    def test_realization_count_fits_one_index_word(self):
        assert SimConfig(realizations=2**32).realizations == 2**32
        with pytest.raises(ValueError, match="2\\*\\*32"):
            SimConfig(realizations=2**32 + 1)

    @pytest.mark.parametrize("n_taps, powers, message", [
        (8, (1.5, -0.5, 0, 0, 0, 0, 0, 0), "must be finite, >= 0 and sum"),
        (8, (0.5, 0.6), "needs n_taps = 8 entries, got 2"),
        (2, (0.5, 0.6), "must be finite, >= 0 and sum to 1"),
        (2, (float("nan"), 1.0), "must be finite"),
        (2, (float("inf"), 0.0), "must be finite"),
        (1, (1.0, 0.0), "needs n_taps = 1 entries, got 2"),
        (2, (1e308, 1e308), "must be finite, >= 0 and sum to 1"),
    ])
    def test_tap_powers_checked_before_any_draw(self, n_taps, powers,
                                                message):
        # refused by the config, so no bad power reaches the kernel's sqrt
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^tap_powers .*" + message):
                SimConfig(n_taps=n_taps, tap_powers=powers)

    def test_tap_powers_kept_as_written(self):
        powers = (0.25, 0.75)
        cfg = SimConfig(n_taps=2, tap_powers=powers)
        assert cfg.tap_powers is powers
        assert np.array_equal(cfg.profile, [0.25, 0.75])

    def test_desk_scale_flag(self):
        assert not SimConfig(realizations=5000).quantile_well_resolved
        assert SimConfig(realizations=100_000).quantile_well_resolved
