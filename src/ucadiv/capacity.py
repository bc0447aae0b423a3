"""Diversity-OFDM outage capacity under coupling and box-car matching.

Per channel realization the capacity in nats/s/Hz is

    C = (1/K) sum_k log(1 + snr * hhat_k^H Sigma_k^-1 (I - Gamma_k^2) hhat_k)

with everything diagonal in the eigen-basis.  Monte-Carlo realizations use
counter-based per-realization random streams, so results are reproducible
bit-for-bit regardless of how the work is partitioned.
"""

import math
import numbers
# kept at module level although serial runs never use it (~18 ms of import):
# perfbench/tracer.py times the pool by replacing this binding
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import channel, fixtures
from .errors import DataError, ModelError, NumericError, UcadivError
from .fano import fano_boxcar
from .frontend import (
    NoiseTemps,
    build_frontend,
    n0_normalize,
    noise_cov,
    subcarrier_grid,
)
from .modes import EigenModeSet, retune
from .network import dft_beamformer

# Realizations per vectorized block: amortizes numpy's per-call overhead
# while peak memory stays independent of the realization count.
_BLOCK = 64


@dataclass(frozen=True)
class SimConfig:
    """Monte-Carlo configuration; defaults follow the reference scenario.

    ``realizations`` defaults to a desk-scale 5000; quantile confidence is
    meaningful from about 100/outage_p samples upward.
    """

    n_antennas: int = 2
    spacings: tuple = (0.05, 0.1, 0.25, 0.5, 1.0)
    subcarriers: int = 64
    bandwidth_hz: float = 20e6          # informational only
    relative_bandwidth: float = 0.02
    snr_db: float = 10.0
    temps: NoiseTemps = field(default_factory=NoiseTemps)
    realizations: int = 5000
    outage_p: float = 0.01
    seed: int = 0
    retune_modes: bool = True
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
        if not math.isfinite(self.snr_db):
            raise ValueError("SNR must be finite")
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
    c_out: float
    ci_half_width: float
    n_samples: int
    error: str = None
    cause: UcadivError = None  # the exception behind ``error``


@dataclass
class OutageCurve:
    """Outage capacity versus adjacent-element spacing, plus run metadata."""

    points: list
    config: SimConfig


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
    sigma_norm = np.asarray(sigma_norm)
    if not np.all(sigma_norm > 0.0):  # NaN fails too
        raise NumericError(
            "zero noise floor (no load noise behind a dark or matched mode)"
        )
    quad = (np.abs(h_hat) ** 2 * weight / sigma_norm).sum(axis=-1)
    c = np.log1p(snr_linear * quad).mean(axis=-1)
    return float(c) if c.ndim == 0 else c


def _match_and_noise(config: SimConfig, mode_set: EigenModeSet):
    """Front end and noise covariance for a mode set."""
    if config.retune_modes:
        mode_set = replace(
            mode_set,
            modes=tuple(retune(m, 1.0) for m in mode_set.modes),
        )
    specs = [fano_boxcar(m, config.relative_bandwidth) for m in mode_set.modes]
    freqs = subcarrier_grid(config.subcarriers, config.relative_bandwidth)
    front = build_frontend(mode_set, specs, freqs)

    iso = fixtures.isolated_mode(f0=1.0 if config.retune_modes else None)
    gamma_iid = fano_boxcar(iso, config.relative_bandwidth).gamma0
    n0 = n0_normalize(config.temps, iso.r, gamma_iid)
    resistances = mode_set.expand([m.r for m in mode_set.modes]).real
    return front, noise_cov(front, resistances, config.temps, n0=n0)


def _simulate(config: SimConfig, corr, gamma, sigma_norm, q, indices):
    """Capacity samples of the given realization indices, block by block."""
    out = np.empty(len(indices))
    start = 0
    try:
        for taps in channel.draw_tap_blocks(corr, config.n_taps,
                                            config.profile, config.seed,
                                            indices, _BLOCK):
            h = channel.taps_to_subcarriers(taps, config.subcarriers)
            out[start:start + len(taps)] = realization_capacity(
                channel.to_eigenbasis(h, q), gamma, sigma_norm,
                config.snr_linear,
            )
            start += len(taps)
    except UcadivError as exc:
        # every stage error is independent of the draws, so it shows on the
        # chunk's first realization
        raise _with_realization(exc, indices[0]) from exc
    return out


def _with_realization(exc, idx):
    """Re-wrap a stage error in its category, tagged with the realization."""
    for category in (DataError, ModelError, NumericError):
        if isinstance(exc, category):
            return category(f"realization {idx}: {exc}")
    return UcadivError(f"realization {idx}: {exc}")


_POOL_STATE = {}


def _pool_init(config, corr, gamma, sigma_norm, q):
    _POOL_STATE["args"] = (config, corr, gamma, sigma_norm, q)


def _pool_run(indices):
    return _simulate(*_POOL_STATE["args"], indices)


def run_monte_carlo(config: SimConfig, d, mode_set: EigenModeSet = None):
    """Capacity samples (length ``realizations``) for one spacing.

    Pipeline per block of realizations: draw correlated taps -> sub-carrier
    DFT -> eigen-basis -> capacity.  Deterministic under (seed, d) and
    invariant to the worker count.  ``mode_set`` overrides the synthetic
    coupling model (e.g. modes fitted from an ingested impedance sweep).
    """
    if config.coupling:
        if mode_set is None:
            mode_set = fixtures.CouplingModel().mode_set(config.n_antennas, d)
        front, cov = _match_and_noise(config, mode_set)
        gamma, sigma_norm = front.gamma, cov.normalized()
        corr = channel.spatial_correlation(
            config.n_antennas, d, config.planewaves
        )
    else:
        # perfect match and unit noise
        shape = (config.subcarriers, config.n_antennas)
        gamma, sigma_norm = np.zeros(shape), np.ones(shape)
        eye = np.eye(config.n_antennas, dtype=complex)
        corr = channel.CorrelationModel(
            n=config.n_antennas, d=float(d), k_prime=config.planewaves,
            r_h=eye, sqrt_r_h=eye.copy(),
        )
    q = dft_beamformer(config.n_antennas)

    indices = np.arange(config.realizations)
    if config.workers <= 1:
        return _simulate(config, corr, gamma, sigma_norm, q, indices)
    chunks = np.array_split(indices, config.workers * 4)
    with ProcessPoolExecutor(
        max_workers=config.workers,
        initializer=_pool_init,
        initargs=(config, corr, gamma, sigma_norm, q),
    ) as pool:
        parts = list(pool.map(_pool_run, chunks))
    return np.concatenate(parts)


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
    point records its error and the sweep continues.
    """
    if not config.spacings:
        raise ValueError("sweep needs at least one spacing")
    points = []
    for d in config.spacings:
        try:
            mode_set = mode_source(d) if mode_source is not None else None
            samples = run_monte_carlo(config, d, mode_set=mode_set)
            c0, half = outage(samples, config.outage_p)
            points.append(SpacingResult(
                d=float(d), c_out=c0, ci_half_width=half,
                n_samples=config.realizations,
            ))
        except UcadivError as exc:
            points.append(SpacingResult(
                d=float(d), c_out=float("nan"), ci_half_width=float("nan"),
                n_samples=0, error=str(exc), cause=exc,
            ))
    return OutageCurve(points=points, config=config)
