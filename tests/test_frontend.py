"""Matched front-end assembly and the coupled noise covariance."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ucadiv.errors import ModelError, NumericError
from ucadiv.fano import MatchSpec, fano_boxcar
from ucadiv.fixtures import isolated_mode, table1_fixture
from ucadiv.frontend import (
    NoiseTemps,
    build_frontend,
    n0_normalize,
    noise_cov,
    subcarrier_grid,
)
from ucadiv.modes import retune


def perfect_spec(w=0.02):
    return MatchSpec(w=w, gamma0_sq_upper=0.0, gamma0_sq=0.0, alpha=0.0)


def table1_specs(w=0.02):
    modes = table1_fixture()
    return modes, [fano_boxcar(m, w) for m in modes.modes]


class TestSubcarrierGrid:
    def test_spans_band_interior(self):
        f = subcarrier_grid(64, 0.02)
        assert f.size == 64
        assert f[0] > 1.0 - 0.01 and f[-1] < 1.0 + 0.01
        assert np.all(np.diff(f) > 0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            subcarrier_grid(0, 0.02)


class TestBuildFrontend:
    def test_perfect_match(self):
        modes = table1_fixture()
        freqs = subcarrier_grid(16, 0.02)
        front = build_frontend(modes, [perfect_spec(), perfect_spec()], freqs)
        assert np.all(front.gamma == 0.0)

    def test_out_of_band_subcarrier_is_dark(self):
        modes, specs = table1_specs()
        freqs = np.array([0.9, 1.0, 1.1])  # outer two outside the band
        front = build_frontend(modes, specs, freqs)
        assert_allclose(front.gamma[0], 1.0)
        assert_allclose(front.gamma[2], 1.0)
        assert np.all(1.0 - front.gamma[1] ** 2 > 0.999 ** 2)

    def test_table1_transmissivities(self):
        modes, specs = table1_specs()
        freqs = subcarrier_grid(64, 0.02)
        front = build_frontend(modes, specs, freqs)
        for m, spec in enumerate(specs):
            got = 1.0 - front.gamma[:, m] ** 2
            assert_allclose(got, 1.0 - spec.gamma0_sq, rtol=1e-12)

    def test_grid_outside_all_bands_rejected(self):
        modes, specs = table1_specs()
        with pytest.raises(ModelError):
            build_frontend(modes, specs, np.array([0.5, 0.6]))

    def test_one_spec_per_distinct_mode(self):
        modes, specs = table1_specs()
        with pytest.raises(ModelError, match=r"^need one match spec per "
                                             r"distinct mode \(2\), got 1$"):
            build_frontend(modes, specs[:1], subcarrier_grid(8, 0.02))

    def test_multiplicity_expansion(self):
        from ucadiv.fixtures import CouplingModel

        modes = CouplingModel().mode_set(4, 0.25)
        specs = [fano_boxcar(m, 0.02) for m in modes.modes]
        front = build_frontend(modes, specs, subcarrier_grid(8, 0.02))
        assert front.gamma.shape == (8, 4)
        # DFT indices 1 and 3 share a mode
        assert np.array_equal(front.gamma[:, 1], front.gamma[:, 3])


class TestNoiseCov:
    def setup_method(self):
        modes, specs = table1_specs()
        self.front = build_frontend(modes, specs, subcarrier_grid(8, 0.02))
        self.r = modes.expand([m.r for m in modes.modes]).real

    @pytest.mark.parametrize("r,message", [
        ([118.76], "need one resistance per DFT index"),
        ([[118.76, 28.31]], "need one resistance per DFT index"),
        ([118.76, 0.0], "mode resistances must be positive"),
        ([118.76, -28.31], "mode resistances must be positive"),
    ])
    def test_bad_resistances_rejected(self, r, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            noise_cov(self.front, r, NoiseTemps())

    def test_amplifier_only(self):
        temps = NoiseTemps(t_antenna=0.0, t_forward=3.0, t_reverse=0.0)
        cov = noise_cov(self.front, self.r, temps)
        assert np.all(cov.diag == 3.0)

    def test_total_reflection_leaves_load_noise(self):
        # dark front end: Gamma = 1 everywhere kills the antenna term
        modes, specs = table1_specs()
        front = build_frontend(modes, specs, subcarrier_grid(8, 0.02))
        front.gamma = np.ones_like(front.gamma)
        temps = NoiseTemps(1.0, 2.0, 0.0)
        cov = noise_cov(front, self.r, temps)
        assert_allclose(cov.diag, 2.0)

    def test_direct_substitution(self):
        # ratios (1:2:0), Gamma = 0, R = 118.76 -> diag = R + 2
        front = build_frontend(
            table1_fixture(), [perfect_spec(), perfect_spec()],
            subcarrier_grid(8, 0.02),
        )
        cov = noise_cov(front, np.array([118.76, 118.76]), NoiseTemps())
        assert_allclose(cov.diag, 118.76 + 2.0, rtol=1e-14)

    def test_temperature_flat_when_ta_equals_tr(self):
        temps = NoiseTemps(t_antenna=1.5, t_forward=2.0, t_reverse=1.5)
        cov = noise_cov(self.front, self.r, temps)
        assert_allclose(cov.diag, 3.5 * np.ones_like(cov.diag), rtol=1e-14)

    def test_monotone_in_antenna_and_forward_temps(self):
        base = noise_cov(self.front, self.r, NoiseTemps(1.0, 2.0, 0.0)).diag
        for bump in (NoiseTemps(1.5, 2.0, 0.0), NoiseTemps(1.0, 2.5, 0.0)):
            assert np.all(noise_cov(self.front, self.r, bump).diag >= base - 1e-12)

    def test_reverse_temperature_direction(self):
        # d Sigma / d T_r = 1 - R (1 - gamma^2): reverse noise lowers the
        # covariance when the reflected antenna term dominates
        base = noise_cov(self.front, self.r, NoiseTemps(1.0, 2.0, 0.0)).diag
        bumped = noise_cov(self.front, self.r, NoiseTemps(1.0, 2.0, 0.4)).diag
        slope = 1.0 - self.r * (1.0 - self.front.gamma ** 2)
        assert_allclose(bumped - base, 0.4 * slope, rtol=1e-10)

    def test_negative_temperature_rejected(self):
        with pytest.raises(ValueError):
            NoiseTemps(t_antenna=-0.1)

    def test_floor_when_antenna_hotter(self):
        cov = noise_cov(self.front, self.r, NoiseTemps(1.0, 2.0, 0.5))
        assert np.all(cov.diag >= 2.5 - 1e-12)


class TestN0Normalize:
    def test_perfect_match_baseline(self):
        # at a matched reference the reverse noise T_r |Gamma|^2 vanishes
        for temps, re_z, want in [(NoiseTemps(), 1.0, 3.0),
                                  (NoiseTemps(1.0, 2.0, 0.7), 50.0, 52.0)]:
            assert_allclose(n0_normalize(temps, re_z, 0.0), want)

    def test_decoupled_antenna(self):
        n0 = n0_normalize(NoiseTemps(1.0, 2.0, 0.7), 50.0, 1.0)
        assert_allclose(n0, 2.7)

    def test_isolated_fixture_two_step(self):
        iso = retune(isolated_mode(), 1.0)
        gamma_iid = fano_boxcar(iso, 0.02).gamma0
        n0 = n0_normalize(NoiseTemps(), iso.r, gamma_iid)
        want = iso.r * (1 - gamma_iid ** 2) + 2.0
        assert_allclose(n0, want, rtol=1e-14)

    def test_domain_guard(self):
        with pytest.raises(ValueError):
            n0_normalize(NoiseTemps(), 1.0, 1.5)

    def test_zero_floor_rejected(self):
        # every normalized sample would be 0/0
        with pytest.raises(NumericError, match="not positive"):
            n0_normalize(NoiseTemps(0.0, 0.0, 0.0), 1.0, 0.3)
        with pytest.raises(NumericError):
            n0_normalize(NoiseTemps(1.0, 0.0, 0.0), 1.0, 1.0)

    def test_uncoupled_baseline_is_identity(self):
        # identical isolated modes + gamma_iid: Sigma / N0 = I
        iso = retune(isolated_mode(), 1.0)
        spec = fano_boxcar(iso, 0.02)
        from ucadiv.modes import EigenModeSet

        modes = EigenModeSet(n=2, modes=(iso, iso))
        front = build_frontend(modes, [spec, spec], subcarrier_grid(64, 0.02))
        n0 = n0_normalize(NoiseTemps(), iso.r, spec.gamma0)
        cov = noise_cov(front, np.array([iso.r, iso.r]), NoiseTemps(), n0=n0)
        assert_allclose(cov.normalized(), np.ones_like(cov.diag), atol=1e-12)
