"""The benchmark's three workloads, the inputs they make and their checks.

Each workload splits one job into steps.  ``inputs(j)`` builds the step
inputs of job j from the workload seed (untimed), ``run`` does one step
(timed), ``check`` verifies its output (untimed) and ``fingerprint`` reduces
the output to text, so a traced job can be compared with an untraced one.

Why these three: ``sweep`` is the paper's headline curve, run serially;
``hires-point`` drives the same Monte-Carlo kernel through the process pool
and a 100k-sample order statistic; ``characterize`` covers the
non-Monte-Carlo half (network, modes, fano, io) that the other two barely
touch.
"""

import hashlib
import math
from dataclasses import replace

import numpy as np

import ucadiv as u

N_VALUES = (2, 4, 16)
SPACINGS = u.SimConfig().spacings
FIT_TOL = 1e-9       # fitted (R, Q, f0) against the generating model
NETWORK_TOL = 1e-9   # z_to_s against the 2N-port completion, cascade identity


class Tally:
    """Attempted and failed operations; a failed check fails its operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)
        return ok


def job_seed(seed, j):
    """Distinct Monte-Carlo seed per job, so no two jobs repeat their draws."""
    return seed * 1000 + j


def reference_inputs(config, d):
    """Front end, noise diagonal, correlation and beamformer of one spacing.

    Composed from the public API for the default configuration (modes
    retuned to the carrier), independently of ``run_monte_carlo``.
    """
    w = config.relative_bandwidth
    mode_set = u.CouplingModel().mode_set(config.n_antennas, d)
    mode_set = replace(mode_set,
                       modes=tuple(u.retune(m, 1.0) for m in mode_set.modes))
    specs = [u.fano_boxcar(m, w) for m in mode_set.modes]
    front = u.build_frontend(mode_set, specs,
                             u.subcarrier_grid(config.subcarriers, w))
    iso = u.isolated_mode(f0=1.0)
    n0 = u.n0_normalize(config.temps, iso.r, u.fano_boxcar(iso, w).gamma0)
    r = mode_set.expand([m.r for m in mode_set.modes]).real
    sigma = u.noise_cov(front, r, config.temps, n0=n0).normalized()
    corr = u.spatial_correlation(config.n_antennas, d, config.planewaves)
    return front.gamma, sigma, corr, u.dft_beamformer(config.n_antennas)


def reference_samples(config, d, indices):
    """Capacities of the given realizations through the straight-line path."""
    gamma, sigma, corr, q = reference_inputs(config, d)
    out = np.empty(len(indices))
    for j, i in enumerate(indices):
        rng = u.realization_rng(config.seed, i)
        taps = u.draw_taps(corr, config.n_taps, config.profile, rng)
        h = u.taps_to_subcarriers(taps, config.subcarriers)
        out[j] = u.realization_capacity(
            u.to_eigenbasis(h, q), gamma, sigma, config.snr_linear
        )
    return out


def _hex(values):
    return ",".join(float(v).hex() for v in values)


class Sweep:
    """``ucadiv.sweep`` at defaults for N = 2, 4 and 16, serially."""

    name = "sweep"

    def __init__(self, seed, small=False):
        self.seed = seed
        self.sim = u.SimConfig(realizations=200 if small else 5000, workers=1)

    def setup(self, workdir):
        self.cli_argv = [["sweep", "--spacing", "0.25",
                          "--realizations", "100"]] * 3

    def items_per_job(self):
        return len(N_VALUES) * len(self.sim.spacings) * self.sim.realizations

    def warm_up(self):
        for n in N_VALUES:
            u.sweep(replace(self.sim, n_antennas=n, realizations=100))

    def inputs(self, j):
        return [replace(self.sim, n_antennas=n, seed=job_seed(self.seed, j))
                for n in N_VALUES]

    def step_key(self, config):
        return config.n_antennas

    def run(self, config):
        return u.sweep(config)

    def check(self, j, k, config, curve, tally):
        where = f"sweep seed={config.seed} N={config.n_antennas}"
        for p in curve.points:
            tally.check(
                p.error is None and p.n_samples == config.realizations
                and math.isfinite(p.c_out) and p.c_out > 0.0
                and math.isfinite(p.ci_half_width) and p.ci_half_width >= 0.0,
                f"{where} d={p.d}: {p.error or 'implausible point'}",
            )
        # one point per job, rotating over all 15, is recomputed in full
        if k != j % len(N_VALUES):
            return
        p = curve.points[(j // len(N_VALUES)) % len(curve.points)]
        ref = reference_samples(config, p.d, range(config.realizations))
        tally.check(
            u.outage(ref, config.outage_p) == (p.c_out, p.ci_half_width),
            f"{where} d={p.d}: curve point differs from the straight-line "
            f"recomputation",
        )

    def fingerprint(self, curve):
        return ";".join(
            f"{p.d.hex()}:{_hex([p.c_out, p.ci_half_width])}:{p.n_samples}:"
            f"{p.error}" for p in curve.points
        )


class HiresPoint:
    """One 100/p-resolved point at d = 0.25, N = 2, through the process pool."""

    name = "hires-point"
    d = 0.25
    outage_p = 1e-3
    workers = 2

    def __init__(self, seed, small=False):
        self.seed = seed
        self.sim = u.SimConfig(
            n_antennas=2, spacings=(self.d,), outage_p=self.outage_p,
            realizations=4000 if small else 100_000, workers=self.workers,
        )

    def setup(self, workdir):
        self.cli_argv = [["capacity", "--spacing", "0.25",
                          "--realizations", "1000"]] * 3

    def items_per_job(self):
        return self.sim.realizations

    def warm_up(self):
        self.run(replace(self.sim, realizations=4000))

    def inputs(self, j):
        return [replace(self.sim, seed=job_seed(self.seed, j))]

    def step_key(self, config):
        return self.d

    def run(self, config):
        samples = u.run_monte_carlo(config, self.d)
        return samples, u.outage(samples, config.outage_p)

    def check(self, j, k, config, out, tally):
        check_samples(config, self.d, *out, tally)

    def fingerprint(self, out):
        samples, result = out
        return f"{hashlib.sha256(samples.tobytes()).hexdigest()}:{_hex(result)}"


def check_samples(config, d, samples, result, tally):
    """Sample array and outage result of one Monte-Carlo point."""
    where = f"hires-point seed={config.seed}"
    m = config.realizations
    if not tally.check(
        samples.shape == (m,) and bool(np.all(np.isfinite(samples))),
        f"{where}: sample array has the wrong shape or non-finite values",
    ):
        return
    rng = np.random.default_rng(config.seed)
    picks = {0, 1, m // 4, m // 2, 3 * m // 4, m - 2, m - 1}
    picks.update(int(i) for i in rng.integers(0, m, size=5))
    idx = sorted(picks)
    tally.check(
        np.array_equal(reference_samples(config, d, idx), samples[idx]),
        f"{where}: samples differ from the straight-line recomputation",
    )
    c0, half = result
    rank = math.ceil(config.outage_p * m)
    tally.check(
        c0 == np.sort(samples)[rank - 1] and math.isfinite(half) and half >= 0,
        f"{where}: outage quantile is not the rank-{rank} order statistic",
    )


class Characterize:
    """Impedance sweep -> file round trip -> fit -> budgets -> network chain."""

    name = "characterize"

    def __init__(self, seed, small=False):
        self.seed = seed
        ns = N_VALUES[:2] if small else N_VALUES
        spacings = SPACINGS[2:4] if small else SPACINGS
        self.items = [(n, d) for n in ns for d in spacings]
        self.w = u.SimConfig().relative_bandwidth

    def setup(self, workdir):
        self.workdir = workdir
        fit_file = workdir / "table1.csv"
        u.write_impedance(u.table1_sweep(), fit_file)
        self.cli_argv = [["modes", "--fixture", "table1"],
                         ["match", "--fixture", "table1"],
                         ["fit", str(fit_file)]]

    def items_per_job(self):
        return len(self.items)

    def warm_up(self):
        for n in sorted({n for n, _ in self.items}):
            self.run((n, self.items[0][1], self.workdir / "warm.csv"))

    def inputs(self, j):
        order = np.random.default_rng([self.seed, j]).permutation(len(self.items))
        return [(*self.items[i], self.workdir / f"z{i}.csv") for i in order]

    def step_key(self, item):
        return item[:2]

    def run(self, item):
        n, d, path = item
        sweep = u.fixture_sweep(n, d)
        u.write_impedance(sweep, path)
        parsed = u.parse_impedance(path)
        modes = u.fit_modes(parsed)
        reports = [u.fano_integral_check(u.fano_boxcar(m, self.w), m)
                   for m in modes.modes]
        ext = u.extend_to_2n_port(parsed)
        s = u.z_to_s(parsed.impedance_matrices(), grid=parsed.grid)
        chained = u.cascade(ext, u.through_network(n, parsed.grid))
        lossless = u.check_lossless(chained)
        return dict(sweep=sweep, parsed=parsed, modes=modes, reports=reports,
                    ext=ext, s=s, chained=chained, lossless=lossless)

    def check(self, j, k, item, out, tally):
        n, d, _ = item
        where = f"characterize N={n} d={d}"
        sweep, parsed = out["sweep"], out["parsed"]
        tally.check(
            parsed.n == sweep.n and parsed.d == sweep.d
            and np.array_equal(parsed.grid.samples, sweep.grid.samples)
            and np.array_equal(parsed.first_row, sweep.first_row),
            f"{where}: impedance file does not round-trip exactly",
        )
        truth = u.CouplingModel().mode_set(n, d).modes
        fitted = out["modes"].modes
        worst = max(
            (abs(getattr(a, attr) / getattr(b, attr) - 1.0)
             for a, b in zip(fitted, truth) for attr in ("r", "q", "f0")),
            default=math.inf,
        )
        tally.check(len(fitted) == len(truth) and worst <= FIT_TOL,
                    f"{where}: fitted modes off by {worst:.3g} relative")
        tally.check(all(r.ok for r in out["reports"]),
                    f"{where}: box-car budget violates a matching constraint")
        ext, chained = out["ext"], out["chained"]
        dev_s = float(np.max(np.abs(out["s"] - ext.s22)))
        dev_c = max(float(np.max(np.abs(getattr(chained, b) - getattr(ext, b))))
                    for b in ("s11", "s12", "s21", "s22"))
        tally.check(dev_s <= NETWORK_TOL and dev_c <= NETWORK_TOL,
                    f"{where}: z_to_s/cascade deviate by {max(dev_s, dev_c):.3g}")
        ok, worst_ll = out["lossless"]
        tally.check(ok, f"{where}: cascade is not lossless ({worst_ll:.3g})")

    def fingerprint(self, out):
        modes = out["modes"].modes
        return ";".join([
            _hex(v for m in modes for v in (m.r, m.q, m.f0)),
            _hex(v for r in out["reports"] for v in (r.residual_a, r.residual_b)),
            _hex([out["lossless"][1]]),
        ])


WORKLOADS = {w.name: w for w in (Sweep, HiresPoint, Characterize)}
