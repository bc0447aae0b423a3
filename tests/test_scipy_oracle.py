"""The in-repo searches and quadrature against scipy, bit for bit.

`modes.fit_rlc` and `fano.fano_integral_check` run ports of scipy's
bounded Brent search, golden-section search and QUADPACK QK21 rule.  scipy
is no runtime dependency; here it is the independent reference, so every
fitted mode and every single-pass integral must equal scipy's exactly.
"""

import math

import numpy as np
import pytest
from scipy import integrate, optimize

from ucadiv.capacity import SimConfig
from ucadiv.errors import NumericError
from ucadiv.fano import _quad, boxcar_profile, fano_boxcar, fano_integral_check
from ucadiv.fixtures import fixture_sweep, table1_sweep
from ucadiv.modes import (
    ArraySweep,
    EigenModeSet,
    ResonantMode,
    eigen_impedances,
    fit_modes,
)

SPACINGS = SimConfig().spacings
FIXTURES = [(n, d) for n in (1, 2, 3, 4, 5, 8, 16, 17) for d in SPACINGS]


def scipy_fit_rlc(trace, grid):
    """The resonance fit as written against scipy.optimize.minimize_scalar."""
    f = grid.samples
    re, im = trace.real, trace.imag
    r = float(np.mean(re))
    sign = np.sign(im)
    k = np.nonzero(np.diff(sign) != 0)[0][0]
    f0_seed = f[k] - im[k] * (f[k + 1] - f[k]) / (im[k + 1] - im[k])

    def profile(f0):
        g = f / f0 - f0 / f
        denom = r * float(g @ g)
        q = 0.0 if denom == 0.0 else float(im @ g) / denom
        return q, float(np.sum((im - r * q * g) ** 2))

    def residual(f0):
        return profile(f0)[1]

    span = f[-1] - f[0]
    lo = max(f[0], f0_seed - 0.25 * span)
    hi = min(f[-1], f0_seed + 0.25 * span)
    coarse = optimize.minimize_scalar(
        residual, bounds=(lo, hi), method="bounded", options={"xatol": 1e-12},
    )
    x = float(coarse.x)
    step = max(1e-5 * x, 2.0 * abs(x - f0_seed) + 1e-12)
    bracket = (x - step, x, x + step)
    f0 = x
    if residual(bracket[0]) > residual(x) < residual(bracket[2]):
        f0 = float(optimize.minimize_scalar(
            residual, bracket=bracket, method="golden", options={"xtol": 1e-13},
        ).x)
    q, sq = profile(f0)
    return ResonantMode(r=r, q=q, f0=f0, fit_residual=math.sqrt(sq / f.size))


def scipy_fit_modes(sweep):
    lam = eigen_impedances(sweep)
    return EigenModeSet(n=sweep.n, modes=tuple(
        scipy_fit_rlc(lam[:, m], sweep.grid) for m in range(sweep.n // 2 + 1)
    ))


def noisy(sweep, sigma, seed):
    rng = np.random.default_rng(seed)
    shape = sweep.first_row.shape
    noise = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return ArraySweep(n=sweep.n, d=sweep.d, grid=sweep.grid,
                      first_row=sweep.first_row + sigma * noise)


@pytest.mark.parametrize("n,d", FIXTURES)
def test_fit_equals_scipy_on_fixtures(n, d):
    sweep = fixture_sweep(n, d)
    assert fit_modes(sweep) == scipy_fit_modes(sweep)


@pytest.mark.parametrize("sigma", [0.0, 1e-6, 1e-4, 1e-2, 1.0])
@pytest.mark.parametrize("make", [table1_sweep, lambda: fixture_sweep(4, 0.25)],
                         ids=["table1", "n4"])
def test_fit_equals_scipy_on_noisy_copies(make, sigma):
    for seed in range(3):
        sweep = noisy(make(), sigma, seed)
        assert fit_modes(sweep) == scipy_fit_modes(sweep)


def integrands(spec):
    """The (a) and (b) integrands of `fano_integral_check`."""
    def a(fn):
        return -2.0 * np.log(boxcar_profile(spec, 1.0, fn))

    return a, lambda fn: a(fn) / fn ** 2


def all_modes():
    sweeps = [fixture_sweep(n, d) for n, d in FIXTURES] + [table1_sweep()]
    return sorted({(m.q, m.f0) for s in sweeps for m in fit_modes(s).modes})


MODES = all_modes()


@pytest.mark.parametrize("w", [0.01, 0.02, 0.1, 0.5, 1.0, 1.25])
def test_single_pass_quadrature_equals_quad(w):
    for q, f0 in MODES:
        spec = fano_boxcar(ResonantMode(r=1.0, q=q, f0=f0), w)
        for f in integrands(spec):
            assert _quad(f, 1 - w / 2, 1 + w / 2) == \
                integrate.quad(f, 1 - w / 2, 1 + w / 2)


@pytest.mark.parametrize("w", [1.5, 1.9])
def test_bisected_quadrature_close_to_quad(w):
    for q, f0 in MODES:
        mode = ResonantMode(r=1.0, q=q, f0=f0)
        spec = fano_boxcar(mode, w)
        for f in integrands(spec):
            got, _ = _quad(f, 1 - w / 2, 1 + w / 2)
            want, _ = integrate.quad(f, 1 - w / 2, 1 + w / 2)
            assert abs(got - want) <= 1e-15 * abs(want)
        assert fano_integral_check(spec, mode).ok


def test_singular_integrand_hits_panel_cap():
    with pytest.raises(NumericError, match="50 panels"):
        _quad(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0)
