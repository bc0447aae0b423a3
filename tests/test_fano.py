"""Box-car matching budgets and the gain-bandwidth constraint residuals."""

import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ucadiv import fano
from ucadiv.fano import (
    _quad,
    boundary_bandwidth,
    boxcar_profile,
    fano_boxcar,
    fano_integral_check,
)
from ucadiv.fixtures import CouplingModel, isolated_mode, table1_fixture
from ucadiv.modes import ResonantMode, vswr

NARROW = ResonantMode(r=28.31, q=16.0, f0=0.9675)
BROAD = ResonantMode(r=118.76, q=3.75, f0=1.0425)


class TestFanoBoxcar:
    def test_closed_form_reference_point(self):
        spec = fano_boxcar(NARROW, 0.02)
        want = math.exp(-2.0 * math.pi * (1.0 - 1e-4) / 0.32)
        assert_allclose(spec.gamma0_sq, want, rtol=1e-12)
        assert_allclose(spec.gamma0, math.sqrt(want), rtol=1e-12)

    def test_budget_stores_gamma0_squared_only(self):
        names = [f.name for f in dataclasses.fields(fano.MatchSpec)]
        assert names == ["w", "gamma0_sq_upper", "gamma0_sq", "alpha"]

    @pytest.mark.parametrize("w", [0.02, 0.5, 1.5])
    def test_gamma0_is_the_root_of_gamma0_squared(self, w):
        for mode in table1_fixture().modes:
            spec = fano_boxcar(mode, w)
            assert spec.gamma0 == math.sqrt(spec.gamma0_sq)

    @pytest.mark.parametrize("w", [0.02, 0.5, 1.5])
    def test_transmissivity_is_one_minus_gamma0_squared(self, w):
        # read from the stored Gamma0^2, not from the square of its root,
        # which is an ulp off in 45 of these 219 budgets
        modes = [*table1_fixture().modes, isolated_mode()]
        for n in (2, 4, 16):
            for d in (0.05, 0.1, 0.25, 0.5, 1.0):
                modes.extend(CouplingModel().mode_set(n, d).modes)
        for mode in modes:
            spec = fano_boxcar(mode, w)
            assert spec.transmissivity == 1.0 - spec.gamma0_sq

    def test_bound_pair_ordering(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            q = rng.uniform(0.2, 80)
            w = rng.uniform(1e-4, 1.9)
            spec = fano_boxcar(ResonantMode(r=50, q=q, f0=1.0), w)
            assert 0.0 < spec.gamma0_sq_upper <= spec.gamma0_sq < 1.0

    def test_bounds_tighten_as_w_shrinks(self):
        qs = fano_boxcar(NARROW, 1e-5)
        assert_allclose(qs.gamma0_sq_upper, qs.gamma0_sq, rtol=1e-3)

    def test_usability_boundary_exact(self):
        q = 16.0
        w_star = boundary_bandwidth(q)
        spec = fano_boxcar(ResonantMode(r=50, q=q, f0=1.0), w_star)
        assert_allclose(spec.gamma0, 1.0 / 3.0, rtol=1e-12)
        # small-W approximation of the same boundary
        w_approx = 2.0 * math.pi / (q * math.log(9.0))
        spec2 = fano_boxcar(ResonantMode(r=50, q=q, f0=1.0), w_approx)
        assert abs(spec2.gamma0 - 1.0 / 3.0) < 0.02
        # usable flag flips across the boundary
        better = fano_boxcar(ResonantMode(r=50, q=q, f0=1.0), w_star * 0.99)
        worse = fano_boxcar(ResonantMode(r=50, q=q, f0=1.0), w_star * 1.01)
        assert better.usable
        assert not worse.usable

    def test_usable_iff_vswr_below_two(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            q = rng.uniform(1, 60)
            w = rng.uniform(0.01, 1.5)
            spec = fano_boxcar(ResonantMode(r=50, q=q, f0=1.0), w)
            assert spec.usable == (vswr(spec.gamma0) <= 2.0)

    def test_monotone_in_w_and_q(self):
        ws = np.linspace(0.005, 0.5, 40)
        g_w = [fano_boxcar(NARROW, w).gamma0 for w in ws]
        assert np.all(np.diff(g_w) > 0)
        qs = np.linspace(1.0, 40.0, 40)
        g_q = [fano_boxcar(ResonantMode(r=50, q=q, f0=1.0), 0.02).gamma0
               for q in qs]
        assert np.all(np.diff(g_q) > 0)

    def test_rhp_zero_construction(self):
        spec = fano_boxcar(BROAD, 0.02)
        assert_allclose(
            spec.alpha,
            BROAD.f0 * math.pi * 0.02 ** 2 / (4.0 * BROAD.q),
            rtol=1e-14,
        )
        assert spec.alpha > 0

    def test_domain_guard(self):
        with pytest.raises(ValueError):
            fano_boxcar(NARROW, 0.0)
        with pytest.raises(ValueError):
            fano_boxcar(NARROW, 2.0)
        with pytest.raises(ValueError):
            fano_boxcar(NARROW, -0.1)


class TestIntegralCheck:
    def test_first_constraint_exact(self):
        spec = fano_boxcar(BROAD, 0.02)
        rep = fano_integral_check(spec, BROAD)
        assert abs(rep.residual_a) < 1e-12
        assert rep.ok

    def test_second_constraint_within_analytic_bound(self):
        for mode in (BROAD, NARROW):
            for w in (0.005, 0.02, 0.1):
                spec = fano_boxcar(mode, w)
                rep = fano_integral_check(spec, mode)
                bound = math.pi * w * w / (2.0 * mode.q)
                assert abs(rep.residual_b) <= bound + 1e-12
                assert_allclose(rep.residual_b_bound, bound, rtol=1e-14)

    def test_quadrature_agrees_with_closed_form(self):
        # a box-car's band integrals: W G0 and W G0 / (1 - W^2/4)
        spec = fano_boxcar(NARROW, 0.02)
        w, g0 = spec.w, -math.log(spec.gamma0_sq)

        def logprof(fn):
            return -2.0 * np.log(boxcar_profile(spec, 1.0, fn))

        lo, hi = 1.0 - w / 2.0, 1.0 + w / 2.0
        int_a, err_a = _quad(logprof, lo, hi)
        int_b, err_b = _quad(lambda fn: logprof(fn) / fn ** 2, lo, hi)
        assert max(abs(int_a - w * g0), err_a) < 1e-10
        assert max(abs(int_b - w * g0 / (1.0 - w * w / 4.0)), err_b) < 1e-10

    @pytest.mark.parametrize("w", [0.02, 1.9])
    def test_one_integrand_call_per_panel(self, w, monkeypatch):
        # one 21-node array per QK21 panel; W = 1.9 bisects into several
        spec = fano_boxcar(NARROW, w)
        panels, calls, gk21 = [], [], fano._gk21

        def counted_gk21(f, a, b):
            panels.append((a, b))
            return gk21(f, a, b)

        def integrand(fn):
            calls.append(np.shape(fn))
            return -2.0 * np.log(boxcar_profile(spec, 1.0, fn)) / fn ** 2

        monkeypatch.setattr(fano, "_gk21", counted_gk21)
        _quad(integrand, 1.0 - w / 2.0, 1.0 + w / 2.0)
        assert calls == [(21,)] * len(panels)
        assert (len(panels) == 1) == (w < 1.25)

    def test_budget_identity(self):
        # W (-log gamma0^2) + 2 alpha / f0 = 2 pi / Q
        for w in (0.01, 0.02, 0.3):
            spec = fano_boxcar(NARROW, w)
            g0 = -math.log(spec.gamma0_sq)
            lhs = w * g0 + 2.0 * spec.alpha / NARROW.f0
            assert_allclose(lhs, 2.0 * math.pi / NARROW.q, rtol=1e-12)


class TestBoxcarProfile:
    def test_in_band_value(self):
        spec = fano_boxcar(NARROW, 0.02)
        assert boxcar_profile(spec, 1.0, 1.0) == spec.gamma0
        assert boxcar_profile(spec, 1.0, 1.0 + 0.0099) == spec.gamma0

    def test_out_of_band_total_reflection(self):
        spec = fano_boxcar(NARROW, 0.02)
        assert boxcar_profile(spec, 1.0, 1.0 + 0.02) == 1.0
        assert boxcar_profile(spec, 1.0, 0.97) == 1.0

    def test_in_band_transmissivity(self):
        spec = fano_boxcar(NARROW, 0.02)
        t2 = 1.0 - boxcar_profile(spec, 1.0, 1.0) ** 2
        assert_allclose(t2, 1.0 - 2.975092846501581e-09, rtol=1e-12)

    def test_vector_evaluation(self):
        spec = fano_boxcar(BROAD, 0.1)
        f = np.array([0.8, 0.96, 1.0, 1.04, 1.2])
        got = boxcar_profile(spec, 1.0, f)
        assert_allclose(got, [1.0, spec.gamma0, spec.gamma0, spec.gamma0, 1.0])

    def test_band_follows_center(self):
        spec = fano_boxcar(BROAD, 0.02)
        assert boxcar_profile(spec, 1.0425, 1.0425) == spec.gamma0
        assert boxcar_profile(spec, 1.0425, 1.0) == 1.0
