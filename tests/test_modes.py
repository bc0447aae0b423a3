"""Eigen-impedances, RLC fits, mode responses, and the 2N-port completion."""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import optimize

from ucadiv.errors import DataError, ModelError
from ucadiv.fixtures import (TABLE1_MODES, CouplingModel, isolated_mode,
                             table1_fixture, table1_sweep)
from ucadiv.modes import (
    ArraySweep,
    EigenModeSet,
    ResonantMode,
    distinct_dft_indices,
    eigen_impedances,
    eigen_mode_response,
    extend_to_2n_port,
    fit_modes,
    fit_rlc,
    mode_reflection,
    retune,
    sweep_from_modes,
    usable_bandwidth,
    vswr,
)
from ucadiv.network import FrequencyGrid, check_lossless, default_grid

TABLE1 = [(118.76, 3.75, 1.0425), (28.31, 16.0, 0.9675)]


def rlc_sweep(n, mode_params, d=0.25, grid=None):
    return sweep_from_modes(EigenModeSet.from_params(n, mode_params),
                            grid or default_grid(), d)


class TestArraySweep:
    @pytest.mark.parametrize("n", [0, -1])
    def test_rejects_no_element(self, n):
        # else eigen_impedances, fit_modes and extend_to_2n_port fail later
        # in numpy's reductions over a zero-size row
        g = default_grid(points=5)
        with pytest.raises(ValueError, match=f"^element count must be >= 1, "
                                             f"got {n}$"):
            ArraySweep(n=n, d=0.25, grid=g,
                       first_row=np.ones((g.size, 1), dtype=complex))

    @pytest.mark.parametrize("shape", [(5, 1), (5, 3), (4, 2), (5, 2, 1)])
    def test_rejects_first_row_of_wrong_shape(self, shape):
        # N = 2 on 5 samples takes (5, 2)
        with pytest.raises(ValueError, match=r"^first_row must have shape "
                                             r"\(5, 2\), got "):
            ArraySweep(n=2, d=0.25, grid=default_grid(points=5),
                       first_row=np.ones(shape, dtype=complex))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
    def test_rejects_non_finite_first_row_naming_its_first_sample(self, bad):
        # extend_to_2n_port warned on such a row and returned NaN blocks
        g = default_grid(points=5)
        row = np.ones((g.size, 2), dtype=complex)
        row[3, 1] = row[2, 0] = bad
        with pytest.raises(DataError, match=r"^non-finite first row at "
                           rf"sample 2 \(f/fc = {g.samples[2]:.6g}\)$"):
            ArraySweep(n=2, d=0.25, grid=g, first_row=row)


class TestEigenImpedances:
    def test_n2_sum_difference(self):
        sw = table1_sweep()
        lam = eigen_impedances(sw)
        z11 = sw.first_row[:, 0]
        z12 = sw.first_row[:, 1]
        assert_allclose(lam[:, 0], z11 + z12, rtol=1e-12)
        assert_allclose(lam[:, 1], z11 - z12, rtol=1e-12)

    def test_n3_closed_forms_and_degeneracy(self):
        sw = rlc_sweep(3, [(100.0, 5.0, 1.02), (40.0, 12.0, 0.98)])
        lam = eigen_impedances(sw)
        z11, z12 = sw.first_row[:, 0], sw.first_row[:, 1]
        assert_allclose(lam[:, 0], z11 + 2 * z12, rtol=1e-10)
        assert_allclose(lam[:, 1], z11 - z12, rtol=1e-10)
        assert np.array_equal(lam[:, 2], lam[:, 1])

    def test_uncoupled_traces_equal_self_impedance(self):
        g = default_grid(points=51)
        iso = ResonantMode(r=73.0, q=10.0, f0=1.0)
        row = np.zeros((g.size, 2), dtype=complex)
        row[:, 0] = iso.impedance(g.samples)
        sw = ArraySweep(n=3, d=1.0, grid=g, first_row=row)
        lam = eigen_impedances(sw)
        for m in range(3):
            assert_allclose(lam[:, m], row[:, 0], rtol=1e-12)

    def test_passivity_violation(self):
        g = default_grid(points=51)
        row = np.zeros((g.size, 2), dtype=complex)
        row[:, 0] = 1.0   # self resistance 1
        row[:, 1] = 2.0   # mutual 2 -> difference mode resistance -1
        sw = ArraySweep(n=2, d=0.1, grid=g, first_row=row)
        with pytest.raises(ModelError, match="^mode 1 has non-positive "
                                             "resistance inside the band"):
            eigen_impedances(sw)


class TestFitRlc:
    @pytest.mark.parametrize("r,q,f0", TABLE1)
    def test_generate_then_fit_round_trip(self, r, q, f0):
        g = default_grid()
        trace = ResonantMode(r=r, q=q, f0=f0).impedance(g.samples)
        fit = fit_rlc(trace, g)
        assert abs(fit.r - r) / r < 1e-9
        assert abs(fit.q - q) / q < 1e-9
        assert abs(fit.f0 - f0) / f0 < 1e-9

    def test_table1_inductance_rows(self):
        # L = Q R / omega0 in 1/fc units; values as printed, 4 significant figures
        mode1 = ResonantMode(*TABLE1[0])
        mode2 = ResonantMode(*TABLE1[1])
        assert abs(mode1.inductance - 67.99) / 67.99 < 5e-4
        assert abs(mode2.inductance - 74.53) / 74.53 < 5e-4
        # mode 2's L is exactly Q R / omega0; its partner C = 1/(Q R omega0)
        # is checked in test_derived_elements_resonate
        assert abs(mode2.inductance - 16 * 28.31 / (2 * np.pi * 0.9675)) < 1e-9

    def test_derived_elements_resonate(self):
        # omega0 = 1/sqrt(LC) must hold for the derived L and C
        for r, q, f0 in TABLE1:
            m = ResonantMode(r=r, q=q, f0=f0)
            w0 = 2 * np.pi * f0
            assert_allclose(1.0 / np.sqrt(m.inductance * m.capacitance), w0,
                            rtol=1e-12)
            assert_allclose(np.sqrt(m.inductance / m.capacitance) / m.r, q,
                            rtol=1e-12)

    @pytest.mark.parametrize("points,resistance,error,message", [
        (2, 50.0, ValueError, "fit band must contain at least three"),
        (101, 0.0, ModelError, "resistance must stay positive"),
        (101, -5.0, ModelError, "resistance must stay positive"),
    ])
    def test_unfittable_trace_rejected(self, points, resistance, error,
                                       message):
        g = default_grid(points=points)
        trace = ResonantMode(r=50.0, q=8.0, f0=1.0).impedance(g.samples)
        with pytest.raises(error, match="^" + message):
            fit_rlc(trace - 50.0 + resistance, g)

    def test_no_resonance_error(self):
        g = default_grid(points=101)
        trace = np.full(g.size, 50.0 + 30.0j)
        with pytest.raises(ModelError, match="^reactance does not cross "
                                             "zero in the fit band$"):
            fit_rlc(trace, g)

    def test_antiresonant_trace_fails_fit(self):
        # reactance falling through zero fits only with negative Q
        g = default_grid(points=101)
        trace = np.conj(ResonantMode(r=60.0, q=8.0, f0=1.0).impedance(g.samples))
        with pytest.raises(ModelError, match="^fitted quality factor is "
                                             "non-positive"):
            fit_rlc(trace, g)

    def test_scale_consistency(self):
        g = default_grid(points=201)
        base = ResonantMode(r=60.0, q=8.0, f0=0.99).impedance(g.samples)
        f1 = fit_rlc(base, g)
        f2 = fit_rlc(3.5 * base, g)
        assert_allclose(f2.r, 3.5 * f1.r, rtol=1e-12)
        assert_allclose(f2.q, f1.q, rtol=1e-9)
        assert_allclose(f2.f0, f1.f0, rtol=1e-9)

    def test_noisy_trace_still_fits(self):
        rng = np.random.default_rng(5)
        g = default_grid()
        truth = ResonantMode(r=80.0, q=6.0, f0=1.01)
        trace = truth.impedance(g.samples)
        trace = trace + rng.standard_normal(g.size) * 0.05 * (1 + 1j)
        fit = fit_rlc(trace, g)
        assert abs(fit.q - truth.q) / truth.q < 0.02
        assert abs(fit.f0 - truth.f0) / truth.f0 < 1e-3


class TestModeResponse:
    def test_reflection_zero_at_resonance(self):
        for r, q, f0 in TABLE1:
            m = ResonantMode(r=r, q=q, f0=f0)
            assert abs(mode_reflection(m, f0)) < 1e-15
            assert eigen_mode_response(m, f0) == 1.0

    def test_reflection_total_at_dc_limit(self):
        m = ResonantMode(*TABLE1[1])
        assert abs(mode_reflection(m, 1e-9)) > 1 - 1e-6

    def test_narrow_mode_value_at_carrier(self):
        # |T'|^2 = 4 f^2 / (4 f^2 + Q^2 (f^2 - f0^2)^2) at f = 1
        m = ResonantMode(*TABLE1[1])
        want = 4.0 / (4.0 + 16.0 ** 2 * (1.0 - 0.9675 ** 2) ** 2)
        got = eigen_mode_response(m, 1.0)
        assert_allclose(got, want, rtol=1e-14)
        assert_allclose(got, 0.7926, atol=5e-4)
        assert_allclose(abs(mode_reflection(m, 1.0)) ** 2, 1.0 - want,
                        rtol=1e-12)

    def test_energy_identity_random(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            m = ResonantMode(
                r=rng.uniform(5, 200),
                q=rng.uniform(0.5, 50),
                f0=rng.uniform(0.5, 1.5),
            )
            f = rng.uniform(0.05, 3.0)
            t2 = eigen_mode_response(m, f)
            g2 = abs(mode_reflection(m, f)) ** 2
            assert abs(t2 + g2 - 1.0) < 1e-12

    def test_peak_and_monotone_decay(self):
        m = ResonantMode(r=50.0, q=12.0, f0=1.02)
        up = np.linspace(1.02, 2.0, 200)
        down = np.linspace(1.02, 0.1, 200)
        r_up = eigen_mode_response(m, up)
        r_down = eigen_mode_response(m, down)
        assert np.all(np.diff(r_up) < 0)
        assert np.all(np.diff(r_down) < 0)
        assert r_up[0] == 1.0

    def test_domain_guard(self):
        m = ResonantMode(*TABLE1[0])
        with pytest.raises(ValueError):
            mode_reflection(m, 0.0)
        with pytest.raises(ValueError):
            eigen_mode_response(m, -1.0)


class TestVswr:
    def test_values(self):
        assert vswr(0.0) == 1.0
        assert_allclose(vswr(1.0 / 3.0), 2.0, rtol=1e-15)
        assert_allclose(vswr(0.5), 3.0, rtol=1e-15)

    def test_total_reflection_is_infinite(self):
        assert vswr(1.0) == np.inf
        assert vswr(1.5) == np.inf

    def test_monotone(self):
        g = np.linspace(0, 0.99, 50)
        assert np.all(np.diff(vswr(g)) > 0)

    @pytest.mark.parametrize("g", [-0.1, [0.5, -1e-300]])
    def test_rejects_negative_magnitude(self, g):
        with pytest.raises(ValueError, match="^reflection magnitude must be "
                                             "nonnegative$"):
            vswr(g)


class TestUsableBandwidth:
    def test_width_closed_form(self):
        m = ResonantMode(r=28.31, q=16.0, f0=1.0)
        lo, hi = usable_bandwidth(m)
        assert_allclose(hi - lo, 1.0 / (np.sqrt(2.0) * 16.0), rtol=1e-12)

    def test_endpoints_hit_eight_ninths(self):
        for r, q, f0 in TABLE1:
            m = ResonantMode(r=r, q=q, f0=f0)
            lo, hi = usable_bandwidth(m)
            assert abs(eigen_mode_response(m, lo) - 8.0 / 9.0) < 1e-9
            assert abs(eigen_mode_response(m, hi) - 8.0 / 9.0) < 1e-9

    def test_matches_numeric_root_finding(self):
        # independent oracle: brentq on the response threshold
        m = ResonantMode(r=50.0, q=16.0, f0=1.0)
        lo, hi = usable_bandwidth(m)

        def excess(f):
            return eigen_mode_response(m, f) - 8.0 / 9.0

        lo_num = optimize.brentq(excess, 0.5, m.f0, xtol=1e-14)
        hi_num = optimize.brentq(excess, m.f0, 1.5, xtol=1e-14)
        assert_allclose(lo, lo_num, rtol=1e-10)
        assert_allclose(hi, hi_num, rtol=1e-10)

    def test_interval_shrinks_with_q(self):
        wide = usable_bandwidth(ResonantMode(r=100.0, q=3.75, f0=1.0))
        narrow = usable_bandwidth(ResonantMode(r=100.0, q=16.0, f0=1.0))
        assert (narrow[1] - narrow[0]) < (wide[1] - wide[0])

    def test_vswr_equivalence_at_endpoints(self):
        m = ResonantMode(r=40.0, q=9.0, f0=0.98)
        lo, hi = usable_bandwidth(m)
        for f in (lo, hi):
            g = abs(mode_reflection(m, f))
            assert_allclose(vswr(g), 2.0, rtol=1e-8)


class TestResonantMode:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -1.0])
    @pytest.mark.parametrize("field", ["r", "q", "f0"])
    def test_rejects_non_finite_or_non_positive(self, field, bad):
        # NaN compares False with 0, so a bare "<= 0" check lets it through
        params = {"r": 50.0, "q": 4.0, "f0": 1.0, field: bad}
        with pytest.raises(DataError, match="finite and positive"):
            ResonantMode(**params)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_replace_runs_the_same_check(self, bad):
        with pytest.raises(DataError):
            retune(ResonantMode(*TABLE1[0]), bad)
        with pytest.raises(DataError):
            isolated_mode(f0=bad)


class TestRetune:
    @pytest.mark.parametrize("target", [0.0, -1.0])
    def test_rejects_non_positive_target(self, target):
        with pytest.raises(ValueError, match="^target frequency must be "
                                             "positive$"):
            retune(ResonantMode(*TABLE1[0]), target)

    def test_fixed_point(self):
        m = ResonantMode(*TABLE1[0])
        assert retune(m, m.f0) == m

    def test_shift_to_carrier(self):
        m = retune(ResonantMode(*TABLE1[0]), 1.0)
        assert (m.r, m.q, m.f0) == (118.76, 3.75, 1.0)

    def test_peak_moves_to_target(self):
        m = retune(ResonantMode(*TABLE1[1]), 1.07)
        f = np.linspace(0.9, 1.2, 2001)
        resp = eigen_mode_response(m, f)
        assert abs(f[np.argmax(resp)] - 1.07) < 2e-4


class TestExtendTo2nPort:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 16])
    def test_transmission_blocks_are_one_assembly_copied(self, n):
        from ucadiv.fixtures import fixture_sweep
        from ucadiv.network import dft_beamformer

        sw = fixture_sweep(n, 0.25, default_grid(points=61))
        s = extend_to_2n_port(sw)
        lam = eigen_impedances(sw)
        zr = np.full(n, 1.0)
        g = (lam - zr) / (lam + zr)
        t = np.sqrt(np.clip(1.0 - np.abs(g) ** 2, 0.0, None))
        q = dft_beamformer(n)
        want = np.einsum("ij,fj,jk->fik", q, t.astype(complex), q.conj().T)
        assert np.array_equal(s.s12, want)
        assert np.array_equal(s.s21, want)
        # reciprocal: one read-only array serves both blocks
        assert s.s21 is s.s12
        assert not s.s12.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            s.s21[0, 0, 0] = 0.0

    @pytest.mark.parametrize("z_ref", [np.nan, np.inf, np.array(np.nan)])
    def test_rejects_non_finite_reference(self, z_ref):
        with pytest.raises(ValueError, match="finite and positive"):
            extend_to_2n_port(table1_sweep(default_grid(points=21)),
                              z_ref=z_ref)

    @pytest.mark.parametrize("z_ref", [0.0, -1.0])
    def test_rejects_non_positive_reference(self, z_ref):
        with pytest.raises(ValueError, match="^reference resistances must be "
                                             "finite and positive$"):
            extend_to_2n_port(table1_sweep(default_grid(points=21)),
                              z_ref=z_ref)

    @pytest.mark.parametrize("z_ref", [[1.0], [1.0, 1.0, 1.0],
                                       [[1.0, 1.0]]])
    def test_rejects_reference_of_wrong_length(self, z_ref):
        # one reference resistance serves every mode; a list of any
        # length is refused
        with pytest.raises(TypeError):
            extend_to_2n_port(table1_sweep(default_grid(points=21)),
                              z_ref=z_ref)

    def test_uncoupled_unit_resistive_array(self):
        g = default_grid(points=21)
        row = np.zeros((g.size, 2), dtype=complex)
        row[:, 0] = 1.0
        sw = ArraySweep(n=2, d=1.0, grid=g, first_row=row)
        s = extend_to_2n_port(sw)
        assert_allclose(s.s22, 0.0, atol=1e-14)
        assert_allclose(np.abs(s.s21), np.broadcast_to(np.eye(2), s.s21.shape),
                        atol=1e-14)

    def test_s22_matches_z_to_s(self):
        from ucadiv.network import z_to_s

        sw = table1_sweep(default_grid(points=51))
        s = extend_to_2n_port(sw)
        assert_allclose(s.s22, z_to_s(sw.impedance_matrices()), atol=1e-11)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_lossless_and_reciprocal(self, n):
        rng = np.random.default_rng(n)
        params = []
        from ucadiv.modes import distinct_dft_indices

        for _ in distinct_dft_indices(n):
            params.append((rng.uniform(10, 150), rng.uniform(2, 20),
                           rng.uniform(0.9, 1.1)))
        sw = rlc_sweep(n, params, grid=default_grid(points=41))
        s = extend_to_2n_port(sw)
        ok, worst = check_lossless(s)
        assert ok, f"losslessness deviation {worst}"
        full = np.block([[s.s11, s.s12], [s.s21, s.s22]])
        worst = np.max(np.abs(full - np.transpose(full, (0, 2, 1))))
        assert worst <= 1e-10, f"reciprocity deviation {worst}"

    def test_retuned_modes_transmissivity_matches_response(self):
        # with modes centered at the carrier and each mode's resistance as
        # the reference, |Lambda_21|^2 is exactly the eigen-mode response
        modes = EigenModeSet(
            n=2,
            modes=tuple(
                retune(m, 1.0) for m in table1_fixture().modes
            ),
        )
        g = default_grid(points=101)
        sw = sweep_from_modes(modes, g, 0.25)
        q = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        for idx, mode in enumerate(modes.modes):
            s21 = extend_to_2n_port(sw, z_ref=mode.r).s21
            lam21 = np.einsum("ij,fjk,kl->fil", q.conj().T, s21, q)
            got = np.abs(lam21[:, idx, idx]) ** 2
            want = eigen_mode_response(mode, g.samples)
            assert_allclose(got, want, atol=1e-10)

    def test_unretuned_modes_approximate_response(self):
        # off-carrier resonances: the unitarity complement tracks the
        # response formula only to O(|1 - f0^2|)
        modes = table1_fixture()
        g = default_grid(points=101)
        sw = sweep_from_modes(modes, g, 0.25)
        q = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        for idx, mode in enumerate(modes.modes):
            s21 = extend_to_2n_port(sw, z_ref=mode.r).s21
            lam21 = np.einsum("ij,fjk,kl->fil", q.conj().T, s21, q)
            got = np.abs(lam21[:, idx, idx]) ** 2
            want = eigen_mode_response(mode, g.samples)
            assert np.max(np.abs(got - want)) < 0.05

    def test_phase_convention_is_observably_irrelevant(self):
        # an equal-diagonal completion with complex off-diagonal phase has
        # the same |T|^2 as the positive-real-branch choice
        sw = table1_sweep(default_grid(points=31))
        s = extend_to_2n_port(sw)
        lam = eigen_impedances(sw)
        g = (lam - 1.0) / (lam + 1.0)
        t_mag = np.sqrt(np.clip(1.0 - np.abs(g) ** 2, 0.0, None))
        t_alt = t_mag * np.exp(1j * (np.angle(g) + np.pi / 2.0))
        # equal-diagonal 2x2 blocks [[g, t], [t, g]] are unitary with this phase
        blocks = np.stack(
            [np.stack([g, t_alt], axis=-1),
             np.stack([t_alt, g], axis=-1)], axis=-2
        )
        prod = blocks @ np.conj(np.swapaxes(blocks, -1, -2))
        assert_allclose(prod, np.broadcast_to(np.eye(2), prod.shape), atol=1e-12)
        # observable transmissivity agrees with the implemented convention
        q2 = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        lam21 = np.einsum("ij,fjk,kl->fil", q2.conj().T, s.s21, q2)
        for idx in range(2):
            assert_allclose(
                np.abs(lam21[:, idx, idx]) ** 2,
                np.abs(t_alt[:, idx]) ** 2,
                atol=1e-12,
            )


def placed_per_index(mode_set, values):
    """Per-mode values placed index by index on a new last axis of N."""
    out = np.empty(np.shape(values[0]) + (mode_set.n,),
                   dtype=np.result_type(*values))
    for (m, mult), v in zip(distinct_dft_indices(mode_set.n), values):
        out[..., m] = v
        if mult > 1:
            out[..., mode_set.n - m] = v
    return out


class TestEigenModeSet:
    @pytest.mark.parametrize("n", range(1, 18))
    def test_expand_equals_per_index_placement(self, n):
        mode_set = CouplingModel().mode_set(n, 0.25)
        rng = np.random.default_rng(n)
        arrays = [rng.standard_normal((3, 5))
                  + 1j * rng.standard_normal((3, 5)) for _ in mode_set.modes]
        got = mode_set.expand(arrays)
        assert got.shape == (3, 5, n) and got.flags.c_contiguous
        assert np.array_equal(got, placed_per_index(mode_set, arrays))
        scalars = [m.r for m in mode_set.modes]
        assert np.array_equal(mode_set.expand(scalars),
                              placed_per_index(mode_set, scalars))

    @pytest.mark.parametrize("n", range(1, 18))
    def test_from_params_follows_distinct_indices(self, n):
        params = [(1.0 + j, 2.0 + j, 1.0) for j in range(n // 2 + 1)]
        modes = EigenModeSet.from_params(n, params).modes
        assert len(modes) == len(distinct_dft_indices(n))
        assert [(m.r, m.q, m.f0) for m in modes] == params

    def test_from_params_table1(self):
        assert EigenModeSet.from_params(2, TABLE1) == EigenModeSet(2, (
            ResonantMode(*TABLE1[0]), ResonantMode(*TABLE1[1]),
        ))

    def test_coupling_model_at_table1_is_within_ulps_of_it(self):
        # one ulp per parameter here; four, so another libm cannot flake it
        modes = CouplingModel().mode_set(2, 0.25).modes
        np.testing.assert_array_max_ulp(
            np.array([(m.r, m.q, m.f0) for m in modes]),
            np.array(TABLE1_MODES), maxulp=4)

    def test_from_params_wrong_count(self):
        # the constructor's check; SimConfig names a configured entry
        with pytest.raises(ValueError, match=r"^need N >= 1 and N//2 \+ 1 "
                                             r"modes, got N=4 and 2 modes$"):
            EigenModeSet.from_params(4, TABLE1)

    @pytest.mark.parametrize("n,layout", [
        (2, [10.0]),  # index 1 has no mode
        (3, [10.0, 20.0, 30.0]),  # a third mode for two distinct indices
        (4, [10.0, 20.0]),  # index 2 has no mode
        (3, [10.0]),
        (3, []),
        (0, [10.0]),  # no element
        (4, [10.0, 20.0, 30.0, 20.0]),  # N - m is not a mode of its own
    ])
    def test_layout_must_own_each_index_once(self, n, layout):
        # modes are in distinct_dft_indices order, so only N//2 + 1 fit
        modes = tuple(ResonantMode(r, 2.0, 1.0) for r in layout)
        with pytest.raises(ValueError, match=f"N={n}"):
            EigenModeSet(n, modes)
