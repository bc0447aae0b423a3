"""Multiport network algebra: conversions, cascade, DFT diagonalization."""

import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ucadiv.errors import ModelMismatchError, SingularSampleError
from ucadiv.network import (
    COND_LIMIT,
    FrequencyGrid,
    MultiportS,
    cascade,
    check_lossless,
    circulant_from_row,
    complete_symmetric_row,
    default_grid,
    dft_beamformer,
    diagonalize_circulant,
    through_network,
    _guard,
    _slabs,
    z_to_s,
)


def grid(n_samples=5):
    return FrequencyGrid(np.linspace(0.9, 1.1, n_samples))


def s_to_z(s, z_ref=1.0, grid=None):
    """Oracle inverse of ``z_to_s``: z_ref (I + S)(I - S)^-1.

    Solved through the transposed system, behind the library's
    singular-sample guard.
    """
    s = np.asarray(s, dtype=complex)
    eye = np.eye(s.shape[1], dtype=complex)
    a = np.transpose(eye - s, (0, 2, 1))
    _guard(a, grid, "(I - S), total reflection")
    zt = np.linalg.solve(a, np.transpose(eye + s, (0, 2, 1)))
    return z_ref * np.transpose(zt, (0, 2, 1))


def full(s):
    """The (F, 2N, 2N) scattering matrices of a MultiportS."""
    return np.block([[s.s11, s.s12], [s.s21, s.s22]])


def writable(s):
    """``s`` with each block copied into its own writable array."""
    return MultiportS(s.s11.copy(), s.s12.copy(), s.s21.copy(), s.s22.copy(),
                      s.grid)


def random_unitary(rng, n):
    q, _ = np.linalg.qr(rng.standard_normal((n, n))
                        + 1j * rng.standard_normal((n, n)))
    return q


def random_lossless(rng, n, g):
    """2N-port with per-sample unitary full matrix."""
    full = np.stack([random_unitary(rng, 2 * n) for _ in range(g.size)])
    return MultiportS(
        full[:, :n, :n], full[:, :n, n:], full[:, n:, :n], full[:, n:, n:], g
    )


class TestFrequencyGrid:
    def test_rejects_nonmonotone(self):
        with pytest.raises(ValueError):
            FrequencyGrid(np.array([1.0, 0.9, 1.1]))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            FrequencyGrid(np.array([-0.1, 0.5, 1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_nonfinite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            FrequencyGrid(np.array([0.9, 1.0, bad]))
        with pytest.raises(ValueError, match="finite"):
            FrequencyGrid(np.array([bad, 1.0, 1.1]))


class TestZSConversion:
    def test_matched_termination_is_zero(self):
        z = np.broadcast_to(np.eye(2, dtype=complex), (4, 2, 2))
        assert_allclose(z_to_s(z), 0.0, atol=1e-15)

    def test_three_ohm(self):
        z = 3.0 * np.broadcast_to(np.eye(2, dtype=complex), (4, 2, 2))
        want = np.broadcast_to(0.5 * np.eye(2), (4, 2, 2))
        assert_allclose(z_to_s(z), want, atol=1e-15)

    def test_scalar_resistance(self):
        # (z - 1) / (z + 1) for z = 118.76 ohm
        s = z_to_s(np.full((3, 1, 1), 118.76 + 0j))
        assert_allclose(s, 117.76 / 119.76, rtol=1e-15)

    def test_s_to_z_trivials(self):
        s = np.zeros((3, 2, 2), dtype=complex)
        want = np.broadcast_to(7.0 * np.eye(2), (3, 2, 2))
        assert_allclose(s_to_z(s, z_ref=7.0), want, atol=1e-14)
        s = 0.5 * np.broadcast_to(np.eye(2, dtype=complex), (3, 2, 2))
        want = np.broadcast_to(3.0 * np.eye(2), (3, 2, 2))
        assert_allclose(s_to_z(s), want, atol=1e-14)

    def test_round_trip_random_reciprocal(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((6, 2, 2)) + 1j * rng.standard_normal((6, 2, 2))
        s = 0.4 * (a + np.transpose(a, (0, 2, 1))) / 2
        assert_allclose(z_to_s(s_to_z(s)), s, atol=1e-12)
        z = 50.0 * np.eye(2) + a + np.transpose(a, (0, 2, 1))
        assert_allclose(s_to_z(z_to_s(z)), z, rtol=1e-12)

    def test_equals_per_sample_solves(self):
        # reference: one solve per sample; the stacked solve is bitwise equal
        rng = np.random.default_rng(5)
        for n in (1, 2, 5):
            re, im = rng.standard_normal((2, 7, n, n))
            z = 3.0 * np.eye(n) + re + 1j * im
            want = np.stack([np.linalg.solve(zk + np.eye(n), zk - np.eye(n))
                             for zk in z])
            assert np.array_equal(z_to_s(z), want)

    def test_singular_sample_reported(self):
        z = np.broadcast_to(np.eye(2, dtype=complex), (4, 2, 2)).copy()
        z[2] = -np.eye(2)  # Z + I singular at sample 2
        with pytest.raises(SingularSampleError) as err:
            z_to_s(z, grid=grid(4))
        assert err.value.sample_index == 2
        z = np.broadcast_to(np.eye(2, dtype=complex), (4, 2, 2)).copy()
        z[1] = z[3] = -np.eye(2)  # two singular samples: the first is named
        with pytest.raises(SingularSampleError) as err:
            z_to_s(z, grid=grid(4))
        assert err.value.sample_index == 1
        assert err.value.frequency == grid(4).samples[1]

    def test_total_reflection_error(self):
        s = np.broadcast_to(np.eye(2, dtype=complex), (3, 2, 2))
        with pytest.raises(SingularSampleError):
            s_to_z(s)

    def test_singular_sample_without_grid_names_no_frequency(self):
        # with no grid there is no f/fc to report, only the sample index
        z = np.broadcast_to(np.eye(2, dtype=complex), (4, 2, 2)).copy()
        z[1] = -np.eye(2)
        s = np.zeros((4, 2, 2), dtype=complex)
        s[1] = np.eye(2)  # I - S singular at sample 1
        for convert, sweep in ((z_to_s, z), (s_to_z, s)):
            with pytest.raises(SingularSampleError) as err:
                convert(sweep)
            assert err.value.sample_index == 1
            assert err.value.frequency is None
            assert "f/fc" not in str(err.value)
            assert str(err.value).endswith("at sample 1")


class TestCascade:
    def test_through_is_identity(self):
        rng = np.random.default_rng(7)
        g = grid()
        a = random_lossless(rng, 2, g)
        t = through_network(2, g)
        c = cascade(a, t)
        for blk in ("s11", "s12", "s21", "s22"):
            assert_allclose(getattr(c, blk), getattr(a, blk), atol=1e-13)

    def test_through_blocks_are_read_only_stride_0_views(self):
        t = through_network(3, grid())
        for blk in (t.s11, t.s12, t.s21, t.s22):
            assert blk.shape == (5, 3, 3) and blk.strides[0] == 0
            assert not blk.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                blk[0, 0, 0] = 1.0
        # one n x n identity and one n x n zero serve every sample
        assert np.shares_memory(t.s12, t.s21) and t.s12.base.nbytes == 16 * 9
        assert np.shares_memory(t.s11, t.s22) and t.s11.base.nbytes == 16 * 9
        assert np.array_equal(t.s12, np.broadcast_to(np.eye(3), (5, 3, 3)))
        assert not np.any(t.s11)

    def test_lossless_composition_stays_unitary(self):
        rng = np.random.default_rng(11)
        g = grid()
        for n in (1, 2, 3):
            c = cascade(random_lossless(rng, n, g), random_lossless(rng, n, g))
            ok, worst = check_lossless(c)
            assert ok, f"unitarity deviation {worst}"

    def test_scalar_cascade_against_impedance_oracle(self):
        # straight-line oracle: S -> Z -> ABCD chain -> Z -> S
        rng = np.random.default_rng(13)
        g = grid(4)

        def rand_two_port():
            s = 0.3 * (rng.standard_normal((g.size, 2, 2))
                       + 1j * rng.standard_normal((g.size, 2, 2)))
            return MultiportS(s[:, :1, :1], s[:, :1, 1:], s[:, 1:, :1],
                              s[:, 1:, 1:], g)

        def to_abcd(z):
            z11, z12 = z[0, 0], z[0, 1]
            z21, z22 = z[1, 0], z[1, 1]
            det = z11 * z22 - z12 * z21
            return np.array([[z11 / z21, det / z21], [1 / z21, z22 / z21]])

        def from_abcd(m):
            a, b, c, d = m[0, 0], m[0, 1], m[1, 0], m[1, 1]
            return np.array([[a / c, (a * d - b * c) / c], [1 / c, d / c]])

        na, nm = rand_two_port(), rand_two_port()
        got = cascade(na, nm)
        za, zm, have = s_to_z(full(na)), s_to_z(full(nm)), full(got)
        for k in range(g.size):
            chained = from_abcd(to_abcd(za[k]) @ to_abcd(zm[k]))
            want = z_to_s(chained[None])[0]
            assert_allclose(have[k], want, atol=1e-10)

    def test_associative(self):
        rng = np.random.default_rng(17)
        g = grid()
        a, b, c = (random_lossless(rng, 2, g) for _ in range(3))
        left = cascade(cascade(a, b), c)
        right = cascade(a, cascade(b, c))
        for blk in ("s11", "s12", "s21", "s22"):
            assert_allclose(getattr(left, blk), getattr(right, blk), atol=1e-10)

    def test_resonant_singularity_reported(self):
        g = grid(3)
        eye = np.broadcast_to(np.eye(1, dtype=complex), (3, 1, 1)).copy()
        zero = np.zeros_like(eye)
        # S22a = S11m = I makes (I - S11m S22a) singular everywhere
        a = MultiportS(zero.copy(), eye.copy(), eye.copy(), eye.copy(), g)
        m = MultiportS(eye.copy(), eye.copy(), eye.copy(), zero.copy(), g)
        with pytest.raises(SingularSampleError) as err:
            cascade(a, m)
        assert err.value.sample_index == 0
        # the same at sample 3 only: the error names that sample
        g = grid(5)
        a, m = (writable(through_network(2, g)) for _ in range(2))
        a.s22[3] = m.s11[3] = np.eye(2)
        with pytest.raises(SingularSampleError) as err:
            cascade(a, m)
        assert err.value.sample_index == 3

    def test_both_inner_terms_singular_names_the_first(self):
        # S22a = S11m = I makes both inner matrices singular; the
        # (I - S11m S22a) check runs first
        g = grid(3)
        eye = np.broadcast_to(np.eye(2, dtype=complex), (3, 2, 2)).copy()
        a = MultiportS(eye.copy(), eye.copy(), eye.copy(), eye.copy(), g)
        m = MultiportS(eye.copy(), eye.copy(), eye.copy(), eye.copy(), g)
        with pytest.raises(SingularSampleError, match=r"\(I - S11m S22a\)"):
            cascade(a, m)


def four_solve_cascade(a, m):
    """The block composition with one solve per term, written out."""
    eye = np.eye(a.n_ports, dtype=complex)
    x = np.linalg.solve(eye - m.s11 @ a.s22, m.s11)
    inner = np.linalg.solve(eye - m.s11 @ a.s22, m.s12)
    y21 = np.linalg.solve(eye - a.s22 @ m.s11, a.s21)
    y22 = np.linalg.solve(eye - a.s22 @ m.s11, a.s22 @ m.s12)
    return (a.s11 + a.s12 @ x @ a.s21, a.s12 @ inner,
            m.s21 @ y21, m.s22 + m.s21 @ y22)


def assert_blocks_equal(c, want):
    for blk, w in zip(("s11", "s12", "s21", "s22"), want):
        assert np.array_equal(getattr(c, blk), w), blk


class TestCascadeBits:
    """One factorization per inner matrix gives the four-solve bits."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 16])
    def test_completion_with_through_and_with_completion(self, n):
        from ucadiv.fixtures import fixture_sweep
        from ucadiv.modes import extend_to_2n_port

        ext = extend_to_2n_port(fixture_sweep(n, 0.25))
        other = extend_to_2n_port(fixture_sweep(n, 0.6))
        for m in (through_network(n, ext.grid), other):
            assert_blocks_equal(cascade(ext, m), four_solve_cascade(ext, m))

    def test_random_lossless_pairs(self):
        rng = np.random.default_rng(11)
        g = grid()
        for n in (1, 2, 3):
            a, m = random_lossless(rng, n, g), random_lossless(rng, n, g)
            assert_blocks_equal(cascade(a, m), four_solve_cascade(a, m))


class TestSlabs:
    """cascade and check_lossless at N = 16 work in slabs of samples."""

    N = 16

    def through_pair(self):
        g = default_grid()
        assert len(_slabs(g.size, 2 * self.N)) > 1
        return tuple(writable(through_network(self.N, g)) for _ in range(2))

    def test_singular_sample_in_a_later_slab(self):
        a, m = self.through_pair()
        a.s22[500] = m.s11[500] = np.eye(self.N)
        with pytest.raises(SingularSampleError,
                           match=r"\(I - S11m S22a\)") as err:
            cascade(a, m)
        assert err.value.sample_index == 500
        assert err.value.frequency == a.grid.samples[500]

    def test_first_inner_term_is_named_across_slabs(self):
        # at sample 10 only (I - S22a S11m) is flagged: with
        # S11m = [[1, -x], [0, 1]] and S22a = diag(1 - delta, 0) it is
        # [[delta, x (1 - delta)], [0, 1]], cond ~ x^2 / delta = 1e14,
        # while (I - S11m S22a) = diag(delta, 1) has cond 1 / delta
        a, m = self.through_pair()
        delta, x = 1e-10, 1e2
        m.s11[10, :2, :2] = [[1, -x], [0, 1]]
        a.s22[10, :2, :2] = np.diag([1 - delta, 0])
        with pytest.raises(SingularSampleError,
                           match=r"\(I - S22a S11m\)") as err:
            cascade(a, m)
        assert err.value.sample_index == 10
        # both terms singular at 500, in a later slab: the first term wins
        a.s22[500] = m.s11[500] = np.eye(self.N)
        with pytest.raises(SingularSampleError,
                           match=r"\(I - S11m S22a\)") as err:
            cascade(a, m)
        assert err.value.sample_index == 500
        assert err.value.frequency == a.grid.samples[500]

    def test_only_second_inner_term_singular_in_a_later_slab(self):
        # the construction above at sample 500, inside a slab that starts
        # at 480: the error names the sample on the whole grid
        a, m = self.through_pair()
        delta, x = 1e-10, 1e2
        m.s11[500, :2, :2] = [[1, -x], [0, 1]]
        a.s22[500, :2, :2] = np.diag([1 - delta, 0])
        assert _slabs(a.grid.size, 2 * self.N)[15] == slice(480, 512)
        with pytest.raises(SingularSampleError,
                           match=r"\(I - S22a S11m\) at sample 500 ") as err:
            cascade(a, m)
        assert err.value.sample_index == 500
        assert err.value.frequency == a.grid.samples[500]

    def test_nan_in_a_later_slab_fails_the_lossless_check(self):
        s = writable(through_network(self.N, default_grid()))
        s.s11[500, 0, 0] = np.nan
        ok, worst = check_lossless(s)
        assert not ok and np.isnan(worst)

    def test_temporaries_stay_within_the_slab_bound(self):
        from ucadiv.fixtures import fixture_sweep
        from ucadiv.modes import extend_to_2n_port

        ext = extend_to_2n_port(fixture_sweep(self.N, 0.25))
        through = through_network(self.N, ext.grid)
        mib = 2**20

        def peak_above_entry(fn, *args):
            tracemalloc.start()
            try:
                entry = tracemalloc.get_traced_memory()[0]
                out = fn(*args)
                return out, tracemalloc.get_traced_memory()[1] - entry
            finally:
                tracemalloc.stop()

        chained, peak = peak_above_entry(cascade, ext, through)
        # outputs, the whole-grid (I - S11m S22a) and one slab's temporaries
        # (12.9 MiB); a whole-grid (I - S22a S11m) adds 2.3 MiB, and
        # whole-grid temporaries peaked at 18.8 MiB
        assert peak <= 5 * ext.s11.nbytes + 2 * mib
        _, peak = peak_above_entry(check_lossless, chained)
        assert peak <= 4 * mib  # whole-grid temporaries peaked at 28.3 MiB


class TestBeamformer:
    def test_n2_matrix(self):
        assert_allclose(
            dft_beamformer(2),
            np.array([[1, 1], [1, -1]]) / np.sqrt(2),
            atol=1e-15,
        )

    def test_n4_matrix(self):
        want = 0.5 * np.array(
            [
                [1, 1, 1, 1],
                [1, -1j, -1, 1j],
                [1, -1, 1, -1],
                [1, 1j, -1, -1j],
            ]
        )
        assert_allclose(dft_beamformer(4), want, atol=1e-14)

    @pytest.mark.parametrize("n", range(1, 17))
    def test_unitary(self, n):
        q = dft_beamformer(n)
        assert np.linalg.norm(q.conj().T @ q - np.eye(n)) < 1e-13

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            dft_beamformer(0)


class TestCirculant:
    def test_n2_eigenvalues(self):
        rng = np.random.default_rng(23)
        row = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
        lam = diagonalize_circulant(row)
        assert_allclose(lam[:, 0], row[:, 0] + row[:, 1], rtol=1e-14)
        assert_allclose(lam[:, 1], row[:, 0] - row[:, 1], rtol=1e-14)

    def test_n4_closed_forms(self):
        rng = np.random.default_rng(29)
        z11, z12, z13 = (
            rng.standard_normal(5) + 1j * rng.standard_normal(5)
            for _ in range(3)
        )
        row = np.stack([z11, z12, z13, z12], axis=1)
        lam = diagonalize_circulant(row)
        assert_allclose(lam[:, 0], z11 + 2 * z12 + z13, rtol=1e-13)
        assert_allclose(lam[:, 1], z11 - z13, atol=1e-13)
        assert_allclose(lam[:, 2], z11 - 2 * z12 + z13, atol=1e-13)
        assert np.array_equal(lam[:, 3], lam[:, 1])  # bitwise degeneracy

    def test_uncoupled_row(self):
        row = np.zeros((4, 3), dtype=complex)
        row[:, 0] = 5.0 + 1j
        lam = diagonalize_circulant(row)
        assert_allclose(lam, 5.0 + 1j)

    def test_reconstruction(self):
        rng = np.random.default_rng(31)
        for n in (2, 3, 4, 5):
            m = n // 2 + 1
            partial = rng.standard_normal((4, m)) + 1j * rng.standard_normal((4, m))
            row = complete_symmetric_row(partial, n)
            lam = diagonalize_circulant(row)
            q = dft_beamformer(n)
            rebuilt = np.einsum("ij,fj,jk->fik", q, lam, q.conj().T)
            want = circulant_from_row(row)
            err = np.abs(rebuilt - want) / np.maximum(np.abs(want), 1.0)
            assert err.max() < 1e-10

    def test_symmetry_violation_rejected(self):
        row = np.ones((3, 4), dtype=complex)
        row[:, 1] = 2.0
        row[:, 3] = 5.0  # breaks row[1] == row[3]
        with pytest.raises(ModelMismatchError):
            diagonalize_circulant(row)


class TestLosslessCheck:
    def test_through_passes(self):
        ok, worst = check_lossless(through_network(3, grid()))
        assert ok and worst < 1e-14

    def test_absorber_fails(self):
        g = grid()
        zero = np.zeros((g.size, 2, 2), dtype=complex)
        s = MultiportS(zero, zero.copy(), zero.copy(), zero.copy(), g)
        ok, worst = check_lossless(s)
        assert not ok and worst > 1.0

    def test_reciprocity_of_through(self):
        s = full(through_network(2, grid()))
        assert np.max(np.abs(s - np.transpose(s, (0, 2, 1)))) <= 1e-10


class TestSingularGuard:
    """The bound-then-SVD guard flags exactly what the full SVD flags."""

    KAPPAS = np.concatenate([
        np.geomspace(1.0, 1e17, 35),
        # around the 16x margin and the limit itself
        COND_LIMIT * np.array([1 / 16.5, 1 / 16, 1 / 15.5, 0.5, 0.999,
                               1.001, 2.0]),
    ])

    @staticmethod
    def conditioned(rng, n, kappa, scale=1.0):
        """U diag(sigma) V^H with singular values from 1 down to 1/kappa."""
        sigma = scale * np.geomspace(1.0, 1.0 / kappa, n)
        return (random_unitary(rng, n) * sigma) @ random_unitary(rng, n).conj().T

    @staticmethod
    def specials(rng, n):
        """Exactly singular, all-zero and NaN samples."""
        rank_short = rng.standard_normal((n, n)) + 0j
        rank_short[-1] = rank_short[0]  # a repeated row; zero for N = 1
        if n == 1:
            rank_short[0, 0] = 0.0
        nan = np.eye(n, dtype=complex)
        nan[n // 2, 0] = np.nan
        return [rank_short, np.zeros((n, n), dtype=complex), nan]

    @staticmethod
    def reference(a):
        """Today's verdict: ('ok',), ('singular', k) or ('linalg', message)."""
        try:
            bad = np.flatnonzero(np.linalg.cond(a) > COND_LIMIT)
        except np.linalg.LinAlgError as exc:
            return ("linalg", str(exc))
        return ("singular", int(bad[0])) if bad.size else ("ok",)

    def assert_agrees(self, a):
        g = FrequencyGrid(np.linspace(0.5, 1.5, len(a)))
        b = np.ones_like(a)
        want = self.reference(a)
        try:
            _guard(a, g, "test system")
            x = np.linalg.solve(a, b)
        except SingularSampleError as exc:
            assert want[0] == "singular", (want, str(exc))
            k = want[1]
            assert exc.sample_index == k
            assert str(exc) == str(SingularSampleError(
                "singular test system", k, float(g.samples[k])))
        except np.linalg.LinAlgError as exc:
            assert want == ("linalg", str(exc))
        else:
            assert want == ("ok",)
            assert np.array_equal(x, np.linalg.solve(a, b))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 16, 17])
    def test_kappa_sweep(self, n):
        rng = np.random.default_rng(100 + n)
        for scale in (1e-150, 1.0, 1e150):
            stack = np.stack([self.conditioned(rng, n, k, scale)
                              for k in self.KAPPAS])
            self.assert_agrees(stack)
            for sample in stack:
                self.assert_agrees(sample[None])

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 16, 17])
    def test_mixed_stacks(self, n):
        rng = np.random.default_rng(200 + n)
        pool = [self.conditioned(rng, n, k) for k in self.KAPPAS]
        specials = self.specials(rng, n)
        for sample in specials:
            self.assert_agrees(sample[None])
        for _ in range(20):
            picks = rng.choice(len(pool), size=12)
            stack = [pool[i] for i in picks]
            # splice in a random subset of the special samples
            for sample in rng.permutation(specials)[:rng.integers(0, 4)]:
                stack.insert(rng.integers(0, len(stack) + 1), sample)
            self.assert_agrees(np.stack(stack))
