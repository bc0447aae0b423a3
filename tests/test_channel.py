"""Spatial correlation, Kronecker tap draws, and OFDM sub-carrier channels."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import special

from ucadiv.capacity import _BLOCK
from ucadiv.channel import (
    _white,
    draw_tap_blocks,
    draw_taps,
    realization_keys,
    realization_rng,
    spatial_correlation,
    taps_to_subcarriers,
    to_eigenbasis,
)
from ucadiv.errors import ModelError, NumericError
from ucadiv.modes import uca_pairwise_distance
from ucadiv.network import dft_beamformer


def brute_force_pair_correlation(d, k_prime=32):
    # straight-line oracle for the N = 2 off-diagonal entry
    total = 0.0 + 0.0j
    for k in range(k_prime):
        phi = 2.0 * np.pi * k / k_prime
        total += np.exp(1j * 2.0 * np.pi * d * np.cos(phi)) / k_prime
    return complex(total)


class TestSpatialCorrelation:
    def test_zero_spacing_fully_correlated(self):
        model = spatial_correlation(3, 0.0)
        assert_allclose(model.r_h, np.ones((3, 3)), atol=1e-12)

    def test_quarter_wave_matches_discrete_sum_and_bessel(self):
        model = spatial_correlation(2, 0.25)
        want = brute_force_pair_correlation(0.25)
        assert model.r_h[0, 1] == pytest.approx(want, abs=1e-15)
        assert abs(model.r_h[0, 1] - special.j0(np.pi / 2)) < 0.01

    def test_large_spacing_decorrelates(self):
        # 32 angles alias the fast phase rotation at d = 10 (the discrete sum
        # gives ~0.30 there); with the oscillation resolved the entry decays
        # to the continuum value J0(2 pi d)
        coarse = spatial_correlation(2, 10.0, k_prime=32)
        assert coarse.r_h[0, 1] == pytest.approx(
            brute_force_pair_correlation(10.0, 32), abs=1e-14
        )
        fine = spatial_correlation(2, 10.0, k_prime=128)
        assert abs(fine.r_h[0, 1]) < 0.15
        assert abs(fine.r_h[0, 1] - special.j0(2 * np.pi * 10.0)) < 1e-3

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_hermitian_psd_unit_diagonal(self, n):
        for d in np.linspace(0.0, 10.0, 21):
            model = spatial_correlation(n, d)
            r = model.r_h
            assert_allclose(np.diag(r).real, 1.0, atol=1e-12)
            assert np.max(np.abs(r - r.conj().T)) < 1e-12
            assert np.linalg.eigvalsh(r).min() > -1e-10

    def test_uses_ring_chords(self):
        model = spatial_correlation(4, 0.3)
        diag_dist = uca_pairwise_distance(4, 0.3, 2)
        want = brute_force_pair_correlation(diag_dist)
        assert model.r_h[0, 2] == pytest.approx(want, abs=1e-12)

    def test_sqrt_consistent(self):
        model = spatial_correlation(4, 0.2)
        assert_allclose(model.sqrt_r_h @ model.sqrt_r_h.conj().T, model.r_h,
                        atol=1e-12)

    def test_undersampling_rejected(self):
        with pytest.raises(ValueError):
            spatial_correlation(4, 0.5, k_prime=6)

    @pytest.mark.parametrize("n,d,k_prime,error,message", [
        (0, 0.25, 32, ValueError, "need at least one antenna"),
        (2, -0.1, 32, ValueError, "spacing must be nonnegative"),
        (2, np.nan, 32, ValueError, "spacing must be nonnegative"),
        # chord times cos(phi) summed over 7 azimuths is no Gram matrix
        (3, 2.5, 7, ModelError,
         r"correlation matrix is not PSD \(min eigenvalue -0.363\)"),
    ])
    def test_rejects_bad_arguments(self, n, d, k_prime, error, message):
        with pytest.raises(error, match="^" + message):
            spatial_correlation(n, d, k_prime)

    def test_unresolved_phases_rejected(self):
        # from 2 pi d = 2**33 rad on, adjacent phases lie over 1e-6 rad apart
        bound = 2.0**33 / (2.0 * np.pi)
        spatial_correlation(2, 0.99 * bound)
        with pytest.raises(NumericError, match=r"^spacing 138\d+\.\d+ is too"):
            spatial_correlation(2, 1.01 * bound)
        spatial_correlation(1, 1e300)  # one element has no phase to resolve


class TestDrawTaps:
    def test_identity_covariance_monte_carlo(self):
        model = spatial_correlation(2, 0.25)
        model.r_h = np.eye(2, dtype=complex)
        model.sqrt_r_h = np.eye(2, dtype=complex)
        rng = realization_rng(0, 0)
        draws = draw_taps(model, 100_000, np.full(100_000, 1.0 / 100_000),
                          rng)
        draws = draws * np.sqrt(100_000)  # undo the per-tap power split
        cov = draws.conj().T @ draws / draws.shape[0]
        assert np.max(np.abs(cov - np.eye(2))) < 0.02

    def test_sample_correlation_matches_model(self):
        model = spatial_correlation(2, 0.25)
        rng = realization_rng(7, 0)
        n_draws = 100_000
        w = draw_taps(model, n_draws, np.full(n_draws, 1.0 / n_draws), rng)
        w = w * np.sqrt(n_draws)
        cov = w.conj().T @ w / n_draws
        assert np.max(np.abs(cov - model.r_h)) < 0.01

    def test_rank_one_makes_equal_entries(self):
        model = spatial_correlation(3, 0.0)
        taps = draw_taps(model, 4, np.full(4, 1.0 / 4), realization_rng(1, 2))
        assert_allclose(taps[:, 0], taps[:, 1], rtol=1e-10)
        assert_allclose(taps[:, 0], taps[:, 2], rtol=1e-10)

    def test_fixed_seed_bit_identical(self):
        model = spatial_correlation(2, 0.5)
        a = draw_taps(model, 8, np.full(8, 1.0 / 8), realization_rng(3, 9))
        b = draw_taps(model, 8, np.full(8, 1.0 / 8), realization_rng(3, 9))
        assert np.array_equal(a, b)

    def test_stream_keys_are_independent(self):
        model = spatial_correlation(2, 0.5)
        a = draw_taps(model, 8, np.full(8, 1.0 / 8), realization_rng(3, 0))
        b = draw_taps(model, 8, np.full(8, 1.0 / 8), realization_rng(3, 1))
        assert not np.array_equal(a, b)

    def test_profile_validation(self):
        model = spatial_correlation(2, 0.5)
        with pytest.raises(ValueError):
            draw_taps(model, 3, np.array([0.5, 0.5, 0.5]),
                      realization_rng(0, 0))
        with pytest.raises(ValueError, match="^profile length must equal"):
            draw_taps(model, 3, np.full(2, 1.0 / 2), realization_rng(0, 0))


def seed_sequence_key(seed, index):
    """The Philox key realization_rng derives, straight from numpy."""
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(index,))
    return seq.generate_state(2, np.uint64)


KEY_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 10**99 + 7]
KEY_INDICES = [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2**31, 2**32 - 1]


class TestRealizationKeys:
    @pytest.mark.parametrize("seed", KEY_SEEDS)
    def test_matches_seed_sequence(self, seed):
        got = realization_keys(seed, KEY_INDICES)
        want = np.array([seed_sequence_key(seed, i) for i in KEY_INDICES])
        assert got.dtype == np.uint64
        assert np.array_equal(got, want)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**200),
           indices=st.lists(st.integers(0, 2**32 - 1), max_size=8))
    def test_matches_seed_sequence_property(self, seed, indices):
        got = realization_keys(seed, indices)
        assert got.shape == (len(indices), 2)
        for row, i in zip(got, indices):
            assert np.array_equal(row, seed_sequence_key(seed, i))

    def test_keys_the_realization_stream(self):
        key = realization_rng(5, 77).bit_generator.state["state"]["key"]
        assert np.array_equal(realization_keys(5, [77])[0], key)

    @pytest.mark.parametrize("indices", [[2**32], [0, -1]])
    def test_index_range_enforced(self, indices):
        with pytest.raises(ValueError):
            realization_keys(0, indices)


def complex_normal(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


# leading (realization) axes: one realization without and with a block axis,
# and odd block sizes on either side of the kernel's block
LEADING = [(), (1,), (3,), (_BLOCK + 1,)]


def straight_taps(model, profile, w):
    """sqrt(p_l) R_h^(1/2) w_l for white taps w of shape (..., L, N)."""
    return np.sqrt(profile)[:, None] * (w @ model.sqrt_r_h.T)


class TestCorrelateBits:
    """``draw_taps`` against its straight formulation, bit for bit."""

    @pytest.mark.parametrize("lead", LEADING + [(_BLOCK,)])
    @pytest.mark.parametrize("n", [1, 2, 3, 16])
    def test_equals_stacked_matmul(self, n, lead):
        # a block of shape ``lead`` of realizations, one stream each, is
        # correlated by one stacked matmul over the block
        rng = np.random.default_rng(n)
        model = spatial_correlation(n, 0.3)
        profile = rng.uniform(0.5, 1.5, 8)
        profile /= profile.sum()
        count = math.prod(lead)
        w = np.array([realization_rng(n, i).standard_normal((2, 8, n))
                      for i in range(count)]).reshape(*lead, 2, 8, n)
        white = (w[..., 0, :, :] + 1j * w[..., 1, :, :]) / np.sqrt(2.0)
        got = np.array([draw_taps(model, 8, profile, realization_rng(n, i))
                        for i in range(count)])
        assert np.array_equal(got.reshape(*lead, 8, n),
                              straight_taps(model, profile, white))


class TestDrawTapBlocks:
    @pytest.mark.parametrize("n", [1, 3])
    def test_rows_equal_draw_taps(self, n):
        model = spatial_correlation(n, 0.3)
        profile = np.full(5, 1.0 / 5)
        indices = np.arange(7, 7 + 2 * 4 + 3)
        blocks = list(draw_tap_blocks(n, 5, 11, indices, 4))
        assert [b.shape for b in blocks] == [(4, 5, n)] * 2 + [(3, 5, n)]
        got = [straight_taps(model, profile, b) for b in blocks]
        want = [draw_taps(model, 5, profile, realization_rng(11, i))
                for i in indices]
        assert np.array_equal(np.concatenate(got), np.array(want))

    def test_rekey_after_part_used_buffer(self):
        # 2 L N = 6 normals stop inside a 4-word Philox block, so the next
        # stream must not start from the leftover words
        seed, n, l = 11, 1, 3
        rng = realization_rng(seed, 40)
        rng.standard_normal((2, l, n))
        assert rng.bit_generator.state["buffer_pos"] < 4
        [w] = draw_tap_blocks(n, l, seed, [40, 41], 2)
        re, im = realization_rng(seed, 41).standard_normal((2, l, n))
        assert np.array_equal(w[1], _white(re, im))


class TestTapsToSubcarriers:
    def test_single_tap_is_flat(self):
        taps = np.array([[1.0 + 2.0j, -0.5j]])
        h = taps_to_subcarriers(taps, 16)
        assert_allclose(h, np.broadcast_to(taps[0], (16, 2)))

    def test_impulse_on_first_antenna(self):
        taps = np.zeros((4, 3), dtype=complex)
        taps[0, 0] = 1.0
        h = taps_to_subcarriers(taps, 8)
        want = np.zeros((8, 3), dtype=complex)
        want[:, 0] = 1.0
        assert_allclose(h, want, atol=1e-15)

    def test_parseval(self):
        rng = np.random.default_rng(11)
        taps = rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2))
        h = taps_to_subcarriers(taps, 64)
        lhs = np.sum(np.abs(h) ** 2)
        rhs = 64 * np.sum(np.abs(taps) ** 2)
        assert abs(lhs - rhs) / rhs < 1e-9

    @pytest.mark.parametrize("lead", LEADING)
    @pytest.mark.parametrize("n", [1, 2, 3, 16])
    def test_equals_strided_axis_fft(self, n, lead):
        taps = complex_normal(np.random.default_rng(n), (*lead, 8, n))
        got = taps_to_subcarriers(taps, 64)
        want = np.fft.fft(taps, n=64, axis=-2)
        assert got.shape == (*lead, 64, n)
        assert np.array_equal(got, want)
        # the returned view gives the eigen-basis gains of a contiguous array
        q = dft_beamformer(n)
        assert np.array_equal(to_eigenbasis(got, q), want @ q.conj())

    @pytest.mark.parametrize("n", [2, 16])
    def test_non_contiguous_input(self, n):
        base = complex_normal(np.random.default_rng(n), (_BLOCK + 1, n, 16))
        taps = np.swapaxes(base, -1, -2)[:, ::2]  # (B, 8, N), strided both ways
        assert not taps.flags["C_CONTIGUOUS"]
        want = np.fft.fft(taps, n=64, axis=-2)
        assert np.array_equal(taps_to_subcarriers(taps, 64), want)

    def test_cyclic_prefix_violation(self):
        with pytest.raises(ModelError):
            taps_to_subcarriers(np.zeros((9, 2), dtype=complex), 8)


class TestToEigenbasis:
    def test_identity_beamformer(self):
        h = np.array([[1.0 + 1j, 2.0], [0.5, -1j]])
        assert_allclose(to_eigenbasis(h, np.eye(2)), h)

    def test_constant_vector_goes_to_sum_mode(self):
        q = dft_beamformer(2)
        h = np.array([[1.0, 1.0]])
        got = to_eigenbasis(h, q)
        assert_allclose(got, [[np.sqrt(2.0), 0.0]], atol=1e-15)

    def test_norm_preserved(self):
        rng = np.random.default_rng(13)
        for n in (2, 3, 4):
            q = dft_beamformer(n)
            h = rng.standard_normal((5, n)) + 1j * rng.standard_normal((5, n))
            got = to_eigenbasis(h, q)
            assert_allclose(np.linalg.norm(got, axis=1),
                            np.linalg.norm(h, axis=1), rtol=1e-13)
