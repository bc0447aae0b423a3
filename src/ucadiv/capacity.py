"""Diversity-OFDM outage capacity under coupling and box-car matching.

Per channel realization the capacity in nats/s/Hz is

    C = (1/K) sum_k log(1 + snr * hhat_k^H Sigma_k^-1 (I - Gamma_k^2) hhat_k)

with everything diagonal in the eigen-basis.  Monte-Carlo realizations use
counter-based per-realization random streams, so results are reproducible
bit-for-bit regardless of how the work is partitioned.
"""

import math
import os
import time
from dataclasses import dataclass, field, fields

import numpy as np

from . import channel, fixtures
from .errors import DataError, NumericError, ParseError, UcadivError
from .fano import fano_boxcar
from .frontend import (
    NoiseTemps,
    build_frontend,
    n0_normalize,
    noise_cov,
    subcarrier_grid,
)
from .io import parse_impedance
from .modes import EigenModeSet, fit_modes
from .network import dft_beamformer

# Realizations per vectorized block: amortizes numpy's per-call overhead
# while peak memory stays independent of the realization count (keys come
# per channel._KEY_BLOCKS blocks, only the samples grow with it).  Fewer
# where K N > 512, so that a workspace buffer of B K N complex entries
# stays within _BLOCK_BYTES, about one core's L2, unless B = 1 exceeds it.
_BLOCK = 128
_BLOCK_BYTES = 2**20

# |snr_db| bound: 4000 dB overflows snr_linear and 3080 dB the products of
# realization_capacity, while 10**30 leaves them a wide margin
SNR_DB_LIMIT = 300.0


def _number(value, finite=True):
    """A JSON number as a float; bool, str, null and lists are not."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or finite and not math.isfinite(value)):
        raise TypeError(f"expected a finite number, got {value!r}")
    return float(value)  # OverflowError for an int no float holds


def _path(value):
    """A JSON string as a path; numbers, bool, null and lists are not."""
    if not isinstance(value, str):
        raise TypeError(f"expected a path string, got {value!r}")
    return value


def _pair(entry, convert=_path):
    """A ``[spacing, value]`` entry as (spacing, convert(value))."""
    if not (isinstance(entry, (list, tuple)) and len(entry) == 2):
        raise TypeError(f"expected a [spacing, value] pair, got {entry!r}")
    return _number(entry[0]), convert(entry[1])


def _triples(modes):
    """The (R, Q, f0) triples of one ``fixture_modes`` entry."""
    if not all(isinstance(m, (list, tuple)) and len(m) == 3 for m in modes):
        raise TypeError(f"expected [R, Q, f0] triples, got {modes!r}")
    return tuple(tuple(map(_number, m)) for m in modes)


# how the entries of a [spacing, value] key are converted
_PAIRS = {"impedance_files": _pair,
          "fixture_modes": lambda entry: _pair(entry, _triples)}


@dataclass(frozen=True)
class SimConfig:
    """Run configuration; defaults follow the reference scenario.

    Each field is a key of the JSON run configuration (``load_config``)
    and takes what the key does: a float field also an int, a tuple field
    a list, ``tap_powers`` None, and only ``coupling`` a bool; else a
    TypeError names the key.  An int is stored as a float and a list as a
    tuple, so the same keys hash the same from Python and from JSON.
    Every mode's box-car band is centred on the carrier, and its Fano
    budget depends on Q and ``relative_bandwidth`` alone, not on f0.
    ``realizations`` defaults to a desk-scale 5000; quantile confidence is
    meaningful from about 100/outage_p samples upward.  The ``temp_*``
    fields are the ``NoiseTemps`` ratios, read together as ``temps``.
    ``impedance_files`` holds (spacing, path) and ``fixture_modes``
    (spacing, (R, Q, f0) triples) pairs of floats, n_antennas // 2 + 1
    triples each; ``modes_at`` reads them, and a bad triple fails its point.
    """

    n_antennas: int = 2
    spacings: tuple = (0.05, 0.1, 0.25, 0.5, 1.0)
    subcarriers: int = 64
    relative_bandwidth: float = 0.02
    snr_db: float = 10.0
    temp_antenna: float = NoiseTemps.t_antenna
    temp_forward: float = NoiseTemps.t_forward
    temp_reverse: float = NoiseTemps.t_reverse
    realizations: int = 5000
    outage_p: float = 0.01
    seed: int = 0
    n_taps: int = 8
    tap_powers: tuple = None
    coupling: bool = True
    planewaves: int = 32
    workers: int = 1
    input: str = "fixture"
    impedance_files: tuple = ()
    fixture_modes: tuple = ()

    def __post_init__(self):
        for f in fields(self):  # each key's JSON type, then its entries
            value = getattr(self, f.name)
            types = {float: (int, float),
                     tuple: (list, tuple)}.get(f.type, (f.type,))
            if value is None and f.default is None:
                continue
            # bool is an int to isinstance, but True is no antenna count
            if (not isinstance(value, types)
                    or isinstance(value, bool) and f.type is not bool):
                raise TypeError(f"key {f.name!r} has wrong type "
                                f"{type(value).__name__}")
            try:  # a pair converted, a number kept as written
                if f.name in _PAIRS:
                    value = tuple(map(_PAIRS[f.name], value))
                elif f.type is tuple:
                    for x in value:  # its range is checked below
                        _number(x, finite=False)
            except (TypeError, ValueError, OverflowError) as exc:
                raise TypeError(f"key {f.name!r}: {exc}") from None
            object.__setattr__(self, f.name, f.type(value))  # float(int)
        if self.input not in ("fixture", "files"):
            raise ValueError(f"input mode must be 'fixture' or 'files', got "
                             f"{self.input!r}")
        self.temps  # a bad temperature is named before any other number
        if self.n_antennas < 1:
            raise ValueError("need at least one antenna")
        for d in self.spacings:
            if not math.isfinite(d) or d < 0:
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
        if self.n_taps < 1:
            raise ValueError(f"n_taps must be >= 1, got {self.n_taps}")
        if self.coupling and self.planewaves < 2 * self.n_antennas:
            raise ValueError(f"planewaves must be >= 2 * n_antennas = "
                             f"{2 * self.n_antennas}, got {self.planewaves}")
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
            # each power in [0, 1] first, so the sum cannot overflow
            if not (np.all(np.isfinite(p)) and np.all((0 <= p) & (p <= 1))
                    and abs(p.sum() - 1.0) <= 1e-9):
                raise ValueError("tap_powers must be finite, >= 0 and sum "
                                 f"to 1, got {list(self.tap_powers)}")
        count = self.n_antennas // 2 + 1  # one mode per distinct DFT index
        for d, triples in self.fixture_modes:
            if len(triples) != count:
                raise ValueError(f"key 'fixture_modes': spacing {d} needs "
                                 f"{count} (R, Q, f0) triples for "
                                 f"N={self.n_antennas}, got {len(triples)}")
        # one run spacing matches an entry within 1e-12, so two entries this
        # close could both match it: a spacing is configured once
        spacings = sorted(d for d, _ in (*self.impedance_files,
                                         *self.fixture_modes))
        for a, b in zip(spacings, spacings[1:]):
            if b - a < 2e-12:
                raise ValueError(f"spacing {a} is configured more than once "
                                 "in impedance_files and fixture_modes")

    def to_dict(self):
        """The hashed configuration: every field but ``workers``."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name != "workers"}

    @property
    def temps(self):
        return NoiseTemps(self.temp_antenna, self.temp_forward,
                          self.temp_reverse)

    @property
    def snr_linear(self):
        return 10.0 ** (self.snr_db / 10.0)

    @property
    def profile(self):
        if self.tap_powers is not None:
            return np.asarray(self.tap_powers, dtype=float)
        return np.full(self.n_taps, 1.0 / self.n_taps)

    @property
    def quantile_well_resolved(self):
        return self.realizations >= 100.0 / self.outage_p


# the run configuration document: each field of SimConfig is a config key,
# and each but workers a to_dict entry and a hashed value.  SimConfig checks
# and converts every value; the document itself must be an object of known
# keys.

def config_from_dict(doc) -> SimConfig:
    """Validate a flat key/value document; unknown keys are rejected."""
    if not isinstance(doc, dict):
        raise DataError("configuration document must be an object")
    unknown = set(doc) - {f.name for f in fields(SimConfig)}
    if unknown:
        raise DataError(f"unknown configuration keys: {sorted(unknown)}")
    try:
        return SimConfig(**doc)  # an absent key keeps the field's default
    except (TypeError, ValueError, OverflowError) as exc:
        raise DataError(str(exc)) from None


def load_config(path) -> SimConfig:
    import json  # here, not at import: `modes`, `match` and `fit` never use it

    def unique(pairs):  # a repeated key is refused, not last-wins
        keys = [key for key, _ in pairs]
        for key in keys:
            if keys.count(key) > 1:
                raise ParseError(f"repeated key {key!r}", path)
        return dict(pairs)

    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh, object_pairs_hook=unique)
        except json.JSONDecodeError as exc:
            raise ParseError(str(exc), path, exc.lineno) from None
        except UnicodeDecodeError as exc:
            raise ParseError(f"not UTF-8 text: {exc}", path) from None
    return config_from_dict(doc)


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
    """Outage capacity versus adjacent-element spacing.

    ``monte_carlo_s`` is the wall time of the draws and the kernel, which
    ``-v`` reports; no result file holds it.
    """

    points: list
    monte_carlo_s: float = field(default=0.0, compare=False)


def realization_capacity(h_hat, gamma, sigma_norm, snr_linear, *,
                         scratch=None):
    """Capacity (nats/s/Hz) of one realization, or of each one in a block.

    ``h_hat``: (K, N) effective eigen-basis channels, or (..., K, N) for a
    block; ``gamma``: (K, N) diagonal reflection magnitudes; ``sigma_norm``:
    (K, N) noise diagonal already normalized by N0 (so snr enters exactly
    once).  ``scratch``, a C-contiguous float array of ``h_hat``'s shape
    that shares no memory with it, takes |h|^2 instead of a new array.
    Returns a float for one realization, else an array over the leading
    axes.
    """
    h_hat = np.asarray(h_hat)
    weight = 1.0 - np.asarray(gamma) ** 2
    sigma_norm = _noise_floor(sigma_norm)
    # |h|^2 w / sigma in that order on one C-ordered temporary: numpy sums a
    # contiguous axis pairwise, a strided one sequentially (other bits)
    power = np.abs(h_hat, order="C", out=scratch)
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
    sums, which a slice order can match but not beat, so ``sum`` stays.
    """
    if power.shape[-1] >= 8:
        return power.sum(axis=-1)
    quad = power[..., 0].copy()
    for i in range(1, power.shape[-1]):
        quad += power[..., i]
    return quad


def _simulate(config: SimConfig, points, indices):
    """Samples of realizations ``indices`` at each (corr, gamma, sigma_norm).

    The points share each block's white taps, and each block stays in
    (N, B, L) antenna-major lanes from the correlation to the FFT, so the
    correlation and the eigen-basis product are one BLAS call each and
    nothing is transposed.  The channel stays the left operand of the
    eigen-basis product: swapped, BLAS sums some N in another order.

    Each block's large arrays live in one workspace per call, two buffers
    of B K N complex entries, at most ``_BLOCK_BYTES`` each; a partial tail
    block uses their leading parts.  ``e_buf`` takes the correlated lanes,
    dead once the FFT has read them (N L <= K N: ``SimConfig`` enforces
    K >= L), then the eigen-basis channels.  ``h_buf`` takes the FFT
    output, dead once the eigen-basis product has read it, then, as floats,
    the |h|^2 of ``realization_capacity``.  Allocated per block, such
    arrays are large enough for glibc to return to the kernel and refault.
    """
    n, l, k = config.n_antennas, config.n_taps, config.subcarriers
    q_conj, sqrt_p = dft_beamformer(n).conj(), np.sqrt(config.profile)
    out = [np.empty(len(indices)) for _ in points]
    block = min(_BLOCK, max(1, _BLOCK_BYTES // (16 * k * n)))
    size = min(block, len(indices)) * k * n
    h_buf, e_buf = np.empty(size, complex), np.empty(size, complex)
    start = 0
    for w in channel.draw_tap_blocks(n, l, config.seed, indices, block):
        b = len(w)
        # contiguous leading slices: (N, B*K) sub-carrier lanes, (B*K, N)
        h = h_buf[:b * k * n].reshape(n, b * k)
        e = e_buf[:b * k * n].reshape(b * k, n)
        lanes = e_buf[:b * l * n].reshape(n, b, l)  # L <= K: it fits
        power = h_buf.view(float)[:b * k * n].reshape(b, k, n)
        for samples, (corr, gamma, sigma_norm) in zip(out, points):
            np.matmul(corr.sqrt_r_h, w.reshape(-1, n).T,
                      out=lanes.reshape(n, b * l))
            lanes *= sqrt_p
            np.fft.fft(lanes, n=k, axis=-1, out=h.reshape(n, b, k))
            np.matmul(h.T, q_conj, out=e)
            samples[start:start + b] = realization_capacity(
                e.reshape(b, k, n), gamma, sigma_norm, config.snr_linear,
                scratch=power,
            )
        start += b
    return out


def _pool_run(args):
    config, points, (start, stop) = args
    return _simulate(config, points, np.arange(start, stop))


def modes_at(config: SimConfig, d):
    """The EigenModeSet of spacing ``d`` under the configured input.

    The first that matches: its impedance file, fitted, its
    ``fixture_modes`` entry, else the synthetic coupling model unless
    ``input`` is "files".  A file of another N is a DataError before the fit.
    """
    n = config.n_antennas
    for spacing, path in config.impedance_files:
        if abs(spacing - d) < 1e-12:
            try:
                swept = parse_impedance(path)
            except OSError as exc:
                raise DataError(f"cannot read {path}: {exc.strerror}") from exc
            if abs(swept.d - d) >= 1e-12:
                raise DataError(f"{path} describes spacing {swept.d}, not {d}")
            if swept.n != n:
                raise DataError(f"modes of spacing {d} are for N={swept.n}, "
                                f"the run has N={n}")
            return fit_modes(swept)
    for spacing, triples in config.fixture_modes:
        if abs(spacing - d) < 1e-12:
            return EigenModeSet.from_params(n, triples)
    if config.input == "files":
        raise DataError("no impedance_files or fixture_modes entry for "
                        f"spacing {d}")
    return fixtures.CouplingModel().mode_set(n, d)


def _kernel_inputs(config: SimConfig, d):
    """(corr, gamma, sigma_norm) of one spacing, as ``_simulate`` takes them.

    The modes, read only with coupling on, are ``modes_at(config, d)``.
    Every error of the spacing is raised here, before any draw: the
    kernel's only one, a zero noise floor, does not depend on the draws.
    """
    n, k, w = config.n_antennas, config.subcarriers, config.relative_bandwidth
    if not config.coupling:  # perfect match and unit noise
        eye = np.eye(n, dtype=complex)
        corr = channel.CorrelationModel(n=n, r_h=eye, sqrt_r_h=eye.copy())
        return corr, np.zeros((k, n)), np.ones((k, n))
    mode_set = modes_at(config, d)
    specs = [fano_boxcar(m, w) for m in mode_set.modes]
    front = build_frontend(mode_set, specs, subcarrier_grid(k, w))
    iso = fixtures.isolated_mode()
    n0 = n0_normalize(config.temps, iso.r, fano_boxcar(iso, w).gamma0)
    r = mode_set.expand([m.r for m in mode_set.modes]).real
    sigma = noise_cov(front, r, config.temps, n0=n0).normalized()
    corr = channel.spatial_correlation(n, d, config.planewaves)
    return corr, front.gamma, _noise_floor(sigma)


def _monte_carlo(config: SimConfig, points):
    """``_simulate`` over all realizations; one pool serves every point.

    The pool's tasks are (start, stop) bounds, and each worker makes its
    own indices, so the parent holds the samples only: it writes every
    chunk's samples into their slice as the chunk arrives.
    """
    if not points:
        return []
    m = config.realizations
    # the pool starts all its processes at once: no more than may run here
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    processes = min(config.workers, cpus)
    if processes <= 1:
        return _simulate(config, points, np.arange(m))
    parts = processes * 4
    edges = [m * i // parts for i in range(parts + 1)]
    bounds = list(zip(edges[:-1], edges[1:]))
    out = [np.empty(m) for _ in points]
    # one pool per call: a pool kept across calls was ~5% faster in process,
    # but its forked workers hold the caller's inherited pipe ends open, so
    # a parent waiting for EOF on one of them waits forever
    with __getattr__("ProcessPoolExecutor")(max_workers=processes) as pool:
        chunks = pool.map(_pool_run, [(config, points, b) for b in bounds])
        for (start, stop), chunk in zip(bounds, chunks):
            for samples, part in zip(out, chunk):
                samples[start:stop] = part
    return out


def __getattr__(name):
    # PEP 562: the pool loads on first use (an eager import cost 4.5-6.7 ms
    # of `import ucadiv.cli`, 2-CPU Xeon); a class bound here stays, as
    # tests/test_capacity.py::TestPoolSeam and perfbench/tracer.py rely on
    if name != "ProcessPoolExecutor":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from concurrent.futures import ProcessPoolExecutor
    return globals().setdefault(name, ProcessPoolExecutor)


def run_monte_carlo(config: SimConfig, d):
    """Capacity samples (length ``realizations``) for one spacing.

    Pipeline per block of realizations: draw white taps -> correlate ->
    sub-carrier DFT -> eigen-basis -> capacity.  Deterministic under (seed, d) and
    invariant to the worker count.  The modes are ``modes_at(config, d)``.
    """
    return _monte_carlo(config, [_kernel_inputs(config, d)])[0]


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


def sweep(config: SimConfig) -> OutageCurve:
    """Outage capacity across the configured spacings.

    Each spacing's modes are ``modes_at(config, d)``, so the config, which
    the result files record, names them.  Per-spacing failures are
    isolated: the offending point records its error and the sweep
    continues.  Every spacing sees the same realizations, each drawn once,
    so the points are paired.
    """
    if not config.spacings:
        raise ValueError("sweep needs at least one spacing")
    points, inputs = [], []  # inputs of the points whose setup succeeded
    for d in config.spacings:
        points.append(SpacingResult(float(d)))
        try:
            inputs.append(_kernel_inputs(config, d))
        except UcadivError as exc:
            points[-1].cause = exc
    start = time.perf_counter()
    samples = _monte_carlo(config, inputs)
    elapsed = time.perf_counter() - start
    for p, s in zip([p for p in points if p.cause is None], samples):
        p.c_out, p.ci_half_width = outage(s, config.outage_p)
        p.n_samples = config.realizations
    return OutageCurve(points=points, monte_carlo_s=elapsed)
