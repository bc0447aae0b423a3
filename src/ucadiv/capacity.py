"""Diversity-OFDM outage capacity under coupling and box-car matching.

Per channel realization the capacity in nats/s/Hz is

    C = (1/K) sum_k log(1 + snr * hhat_k^H Sigma_k^-1 (I - Gamma_k^2) hhat_k)

with everything diagonal in the eigen-basis.  Monte-Carlo realizations use
counter-based per-realization random streams, so results are reproducible
bit-for-bit regardless of how the work is partitioned.
"""

import math
import numbers
import os
from dataclasses import dataclass, field

import numpy as np

from . import channel, fixtures
from .errors import DataError, NumericError, UcadivError
from .fano import fano_boxcar
from .frontend import (
    NoiseTemps,
    build_frontend,
    n0_normalize,
    noise_cov,
    subcarrier_grid,
)
from .modes import EigenModeSet
from .network import dft_beamformer

# Realizations per vectorized block: amortizes numpy's per-call overhead
# while peak memory stays independent of the realization count.
_BLOCK = 64

# |snr_db| bound: 4000 dB overflows snr_linear and 3080 dB the products of
# realization_capacity, while 10**30 leaves them a wide margin
SNR_DB_LIMIT = 300.0


@dataclass(frozen=True)
class SimConfig:
    """Monte-Carlo configuration; defaults follow the reference scenario.

    Every mode's box-car band is centred on the carrier, and its Fano
    budget depends on Q and ``relative_bandwidth`` alone, not on f0.
    ``realizations`` defaults to a desk-scale 5000; quantile confidence is
    meaningful from about 100/outage_p samples upward.
    """

    n_antennas: int = 2
    spacings: tuple = (0.05, 0.1, 0.25, 0.5, 1.0)
    subcarriers: int = 64
    relative_bandwidth: float = 0.02
    snr_db: float = 10.0
    temps: NoiseTemps = field(default_factory=NoiseTemps)
    realizations: int = 5000
    outage_p: float = 0.01
    seed: int = 0
    n_taps: int = 8
    tap_powers: tuple = None
    coupling: bool = True
    planewaves: int = 32
    workers: int = 1

    def __post_init__(self):
        if self.n_antennas < 1:
            raise ValueError("need at least one antenna")
        for d in self.spacings:
            if (isinstance(d, bool) or not isinstance(d, numbers.Real)
                    or not math.isfinite(d) or d < 0):
                raise ValueError(
                    f"spacing must be a finite number >= 0, got {d!r}"
                )
        if not abs(self.snr_db) <= SNR_DB_LIMIT:  # also refuses NaN
            raise ValueError(f"SNR must lie within +-{SNR_DB_LIMIT:g} dB, "
                             f"got {self.snr_db}")
        if not 0.0 < self.outage_p < 0.5:
            raise ValueError("outage level must lie in (0, 0.5)")
        if self.realizations > 2**32:
            raise ValueError("at most 2**32 realizations (32-bit indices)")
        if self.realizations * self.outage_p < 1.0:
            raise ValueError(
                "too few realizations to resolve the outage quantile"
            )
        if self.subcarriers < self.n_taps:
            raise ValueError("sub-carrier count must be >= tap count")
        if not 0.0 < self.relative_bandwidth < 2.0:
            raise ValueError("relative bandwidth must lie in (0, 2)")
        if self.workers < 1:
            raise ValueError(f"need at least one worker, got {self.workers}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.tap_powers is not None:  # kept as written, checked here once
            p = self.profile
            if p.shape != (self.n_taps,):
                raise ValueError(f"tap_powers needs n_taps = {self.n_taps} "
                                 f"entries, got {len(self.tap_powers)}")
            if not (np.all(np.isfinite(p)) and np.all(p >= 0.0)
                    and abs(p.sum() - 1.0) <= 1e-9):
                raise ValueError("tap_powers must be finite, >= 0 and sum "
                                 f"to 1, got {list(self.tap_powers)}")

    @property
    def snr_linear(self):
        return 10.0 ** (self.snr_db / 10.0)

    @property
    def profile(self):
        if self.tap_powers is not None:
            return np.asarray(self.tap_powers, dtype=float)
        return channel.equal_power_profile(self.n_taps)

    @property
    def quantile_well_resolved(self):
        return self.realizations >= 100.0 / self.outage_p


@dataclass
class SpacingResult:
    d: float
    c_out: float = math.nan
    ci_half_width: float = math.nan
    n_samples: int = 0
    cause: UcadivError = None  # why the point failed, if it did

    @property
    def error(self):
        return None if self.cause is None else str(self.cause)


@dataclass
class OutageCurve:
    """Outage capacity versus adjacent-element spacing."""

    points: list


def realization_capacity(h_hat, gamma, sigma_norm, snr_linear):
    """Capacity (nats/s/Hz) of one realization, or of each one in a block.

    ``h_hat``: (K, N) effective eigen-basis channels, or (..., K, N) for a
    block; ``gamma``: (K, N) diagonal reflection magnitudes; ``sigma_norm``:
    (K, N) noise diagonal already normalized by N0 (so snr enters exactly
    once).  Returns a float for one realization, else an array over the
    leading axes.
    """
    h_hat = np.asarray(h_hat)
    weight = 1.0 - np.asarray(gamma) ** 2
    sigma_norm = _noise_floor(sigma_norm)
    # |h|^2 w / sigma in that order on one C-ordered temporary: numpy sums a
    # contiguous axis pairwise, a strided one sequentially (other bits)
    power = np.abs(h_hat, order="C")
    np.square(power, out=power)
    power *= weight
    power /= sigma_norm
    quad = _mode_sum(power)
    quad *= snr_linear
    c = np.log1p(quad, out=quad).mean(axis=-1)
    return float(c) if c.ndim == 0 else c


def _noise_floor(sigma_norm):
    """``sigma_norm`` as an array, checked to be positive everywhere."""
    sigma_norm = np.asarray(sigma_norm)
    if np.all(sigma_norm > 0.0):
        return sigma_norm
    if np.all(sigma_norm >= 0.0):  # NaN fails
        raise NumericError(
            "zero noise floor (no load noise behind a dark or matched mode)")
    raise NumericError(f"negative or NaN noise floor (minimum "
                       f"{np.min(sigma_norm):.6g}; load noise enters as "
                       f"(T_A - T_r) R (1 - |Gamma|^2))")


def _mode_sum(power):
    """``power.sum(axis=-1)`` as a new array, bit for bit.

    numpy's pairwise sum adds fewer than 8 terms one after another, left to
    right, so adding whole mode slices in index order gives the same bits
    at a fraction of the per-row cost.  From 8 terms on it keeps 8 partial
    sums, which no slice order reproduces (nor beats in speed).
    """
    if power.shape[-1] >= 8:
        return power.sum(axis=-1)
    quad = power[..., 0].copy()
    for i in range(1, power.shape[-1]):
        quad += power[..., i]
    return quad


def _match_and_noise(config: SimConfig, mode_set: EigenModeSet):
    """Front end and noise covariance for a mode set."""
    specs = [fano_boxcar(m, config.relative_bandwidth) for m in mode_set.modes]
    freqs = subcarrier_grid(config.subcarriers, config.relative_bandwidth)
    front = build_frontend(mode_set, specs, freqs)

    iso = fixtures.isolated_mode(f0=1.0)
    gamma_iid = fano_boxcar(iso, config.relative_bandwidth).gamma0
    n0 = n0_normalize(config.temps, iso.r, gamma_iid)
    resistances = mode_set.expand([m.r for m in mode_set.modes]).real
    return front, noise_cov(front, resistances, config.temps, n0=n0)


def _simulate(config: SimConfig, points, indices):
    """Samples of realizations ``indices`` at each (corr, gamma, sigma_norm).

    The points share each block's white taps, and each block stays in
    (N, B, L) antenna-major lanes from the correlation to the FFT, so the
    correlation and the eigen-basis product are one BLAS call each and
    nothing is transposed.  The channel stays the left operand of the
    eigen-basis product: swapped, BLAS sums some N in another order.
    """
    n, l, k = config.n_antennas, config.n_taps, config.subcarriers
    q_conj, sqrt_p = dft_beamformer(n).conj(), np.sqrt(config.profile)
    out = [np.empty(len(indices)) for _ in points]
    start = 0
    for w in channel.draw_tap_blocks(n, l, config.seed, indices, _BLOCK):
        b = len(w)
        for samples, (corr, gamma, sigma_norm) in zip(out, points):
            lanes = (corr.sqrt_r_h @ w.reshape(-1, n).T).reshape(n, b, l)
            lanes *= sqrt_p
            h = np.fft.fft(lanes, n=k, axis=-1).reshape(n, -1)
            samples[start:start + b] = realization_capacity(
                (h.T @ q_conj).reshape(b, k, n), gamma, sigma_norm,
                config.snr_linear,
            )
        start += b
    return out


def _pool_run(args):
    return _simulate(*args)


def _kernel_inputs(config: SimConfig, d, mode_set: EigenModeSet = None):
    """(corr, gamma, sigma_norm) of one spacing, as ``_simulate`` takes them.

    Every error of the spacing is raised here, before any draw: the
    kernel's only one, a zero noise floor, does not depend on the draws.
    """
    if config.coupling:
        if mode_set is None:
            mode_set = fixtures.CouplingModel().mode_set(config.n_antennas, d)
        if mode_set.n != config.n_antennas:
            raise DataError(f"modes of spacing {d} are for N={mode_set.n}, "
                            f"the run has N={config.n_antennas}")
        front, cov = _match_and_noise(config, mode_set)
        return (channel.spatial_correlation(config.n_antennas, d,
                                            config.planewaves),
                front.gamma, _noise_floor(cov.normalized()))
    # perfect match and unit noise
    shape = (config.subcarriers, config.n_antennas)
    eye = np.eye(config.n_antennas, dtype=complex)
    corr = channel.CorrelationModel(n=config.n_antennas, r_h=eye,
                                    sqrt_r_h=eye.copy())
    return corr, np.zeros(shape), np.ones(shape)


def _monte_carlo(config: SimConfig, points):
    """``_simulate`` over all realizations; one pool serves every point."""
    if not points:
        return []
    indices = np.arange(config.realizations)
    # the pool starts all its processes at once: no more than may run here
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    processes = min(config.workers, cpus)
    if processes <= 1:
        return _simulate(config, points, indices)
    chunks = np.array_split(indices, processes * 4)
    with __getattr__("ProcessPoolExecutor")(max_workers=processes) as pool:
        parts = list(pool.map(_pool_run,
                              [(config, points, c) for c in chunks]))
    return [np.concatenate(col) for col in zip(*parts)]


def __getattr__(name):
    # PEP 562: the pool loads on first use; a class bound here already stays
    if name != "ProcessPoolExecutor":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from concurrent.futures import ProcessPoolExecutor
    return globals().setdefault(name, ProcessPoolExecutor)


def run_monte_carlo(config: SimConfig, d, mode_set: EigenModeSet = None):
    """Capacity samples (length ``realizations``) for one spacing.

    Pipeline per block of realizations: draw white taps -> correlate ->
    sub-carrier DFT -> eigen-basis -> capacity.  Deterministic under (seed, d) and
    invariant to the worker count.  ``mode_set`` overrides the synthetic
    coupling model (e.g. modes fitted from an ingested impedance sweep).
    """
    return _monte_carlo(config, [_kernel_inputs(config, d, mode_set)])[0]


def _binom_ppf(q, m, p):
    """Smallest k with P(Binomial(m, p) <= k) >= q.

    Each probability mass is formed in log space, so no term overflows
    for any sample count.
    """
    log_p, log_q = math.log(p), math.log1p(-p)
    log_m = math.lgamma(m + 1)
    cdf = 0.0
    for k in range(m):
        cdf += math.exp(log_m - math.lgamma(k + 1) - math.lgamma(m - k + 1)
                        + k * log_p + (m - k) * log_q)
        if cdf >= q:
            return k
    return m


def outage(samples, p):
    """Lower empirical p-quantile and its 95% order-statistic half-width.

    The estimate is the ceil(p M)-th order statistic with no interpolation;
    the interval comes from the binomial distribution of the quantile's
    rank.
    """
    samples = np.asarray(samples, dtype=float)
    m = samples.size
    if m * p < 1.0:
        raise ValueError(f"{m} samples cannot resolve the {p:g} quantile")
    s = np.sort(samples)
    r = math.ceil(p * m)
    c0 = float(s[r - 1])
    lo_rank = max(_binom_ppf(0.025, m, p), 1)
    hi_rank = min(_binom_ppf(0.975, m, p) + 1, m)
    half = 0.5 * float(s[hi_rank - 1] - s[lo_rank - 1])
    return c0, half


def sweep(config: SimConfig, mode_source=None) -> OutageCurve:
    """Outage capacity across the configured spacings.

    ``mode_source`` optionally maps a spacing to its EigenModeSet (fitted
    from ingested data or pinned fixture parameters); the synthetic coupling
    model is the default.  Per-spacing failures are isolated: the offending
    point records its error and the sweep continues.  Every spacing sees
    the same realizations, each drawn once, so the points are paired.
    """
    if not config.spacings:
        raise ValueError("sweep needs at least one spacing")
    inputs = []  # per spacing: kernel inputs, or the error of its setup
    for d in config.spacings:
        try:
            mode_set = mode_source(d) if mode_source is not None else None
            inputs.append(_kernel_inputs(config, d, mode_set))
        except UcadivError as exc:
            inputs.append(exc)
    samples = iter(_monte_carlo(
        config, [p for p in inputs if not isinstance(p, UcadivError)]
    ))
    points = []
    for d, p in zip(config.spacings, inputs):
        if isinstance(p, UcadivError):
            points.append(SpacingResult(float(d), cause=p))
            continue
        c0, half = outage(next(samples), config.outage_p)
        points.append(SpacingResult(float(d), c0, half, config.realizations))
    return OutageCurve(points=points)
