"""Multiport network algebra: conversions, cascade, DFT diagonalization.

The ring's circulant layout lives on ``modes.ArraySweep`` and
``EigenModeSet.expand``; ``TestRingIndexBits`` pins it to the helpers it
replaced, copied here as an oracle.
"""

import pickle
import re
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ucadiv.errors import DataError, NumericError
from ucadiv.fixtures import CouplingModel, fixture_sweep
from ucadiv.modes import (ArraySweep, distinct_dft_indices, eigen_impedances,
                          extend_to_2n_port)
from ucadiv.network import (
    COND_LIMIT,
    FrequencyGrid,
    MultiportS,
    cascade,
    check_lossless,
    default_grid,
    dft_beamformer,
    through_network,
    _guard,
    _slabs,
    z_to_s,
)


def grid(n_samples=5):
    return FrequencyGrid(np.linspace(0.9, 1.1, n_samples))


def at_sample(k, f=None):
    """Pattern of a singular-sample message's end: sample k, f/fc = f."""
    where = "" if f is None else f" (f/fc = {f:.6g})"
    return re.escape(f" at sample {k}{where}") + "$"


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

    @pytest.mark.parametrize("samples", [[], [[0.9, 1.0], [1.1, 1.2]]])
    def test_rejects_empty_or_not_one_axis(self, samples):
        with pytest.raises(ValueError, match="^frequency grid needs at least "
                                             "one sample$"):
            FrequencyGrid(np.array(samples))

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
        with pytest.raises(NumericError, match=r"at sample 2 \(f/fc = "):
            z_to_s(z, grid=grid(4))
        z = np.broadcast_to(np.eye(2, dtype=complex), (4, 2, 2)).copy()
        z[1] = z[3] = -np.eye(2)  # two singular samples: the first is named
        with pytest.raises(NumericError,
                           match=at_sample(1, grid(4).samples[1])):
            z_to_s(z, grid=grid(4))

    @pytest.mark.parametrize("singular", [False, True])
    def test_grid_of_another_length_rejected(self, singular):
        # a 601-sample sweep on a 21-point grid; Z + I singular at sample 500
        z = np.broadcast_to(np.eye(2, dtype=complex), (601, 2, 2)).copy()
        if singular:
            z[500] = -np.eye(2)
        with pytest.raises(ValueError, match="does not match the grid"):
            z_to_s(z, grid=default_grid(points=21))

    @pytest.mark.parametrize("shape", [(2, 2), (3, 2, 3), (3, 2, 2, 1)])
    def test_non_square_stack_rejected(self, shape):
        with pytest.raises(ValueError, match=r"^sweep must have shape "
                                             r"\(F, N, N\), got "):
            z_to_s(np.ones(shape))

    def test_total_reflection_error(self):
        s = np.broadcast_to(np.eye(2, dtype=complex), (3, 2, 2))
        with pytest.raises(NumericError, match=at_sample(0)):
            s_to_z(s)

    def test_singular_sample_without_grid_names_no_frequency(self):
        # with no grid there is no f/fc to report, only the sample index
        z = np.broadcast_to(np.eye(2, dtype=complex), (4, 2, 2)).copy()
        z[1] = -np.eye(2)
        s = np.zeros((4, 2, 2), dtype=complex)
        s[1] = np.eye(2)  # I - S singular at sample 1
        for convert, sweep in ((z_to_s, z), (s_to_z, s)):
            with pytest.raises(NumericError, match=at_sample(1)) as err:
                convert(sweep)
            assert "f/fc" not in str(err.value)
            assert str(err.value).endswith("at sample 1")

    @pytest.mark.parametrize("g", [grid(4), None])
    def test_singular_sample_error_pickles(self, g):
        # a guarded solve that fails in a pool worker reaches the parent
        # pickled: the error must come back whole, not as a TypeError
        z = np.broadcast_to(np.eye(2, dtype=complex), (4, 2, 2)).copy()
        z[1] = -np.eye(2)
        with pytest.raises(NumericError) as err:
            z_to_s(z, grid=g)
        back = pickle.loads(pickle.dumps(err.value))
        assert type(back) is NumericError
        assert str(back) == str(err.value)


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

    def test_mismatched_networks_rejected(self):
        two = through_network(2, default_grid(points=5))
        with pytest.raises(ValueError, match="^cascade requires equal inner "
                                             "port counts$"):
            cascade(two, through_network(3, default_grid(points=5)))
        for grid in (default_grid(points=6), default_grid(span=0.1, points=5)):
            with pytest.raises(ValueError, match="^cascade requires a shared "
                                                 "frequency grid$"):
                cascade(two, through_network(2, grid))

    @pytest.mark.parametrize("shapes,message", [
        ([(5, 2, 2)] * 3 + [(5, 3, 3)], "all four blocks must share one shape"),
        ([(5, 2, 3)] * 4, r"blocks must have shape \(F, N, N\)"),
        ([(5, 2)] * 4, r"blocks must have shape \(F, N, N\)"),
        ([(4, 2, 2)] * 4, "block sample count does not match the grid"),
    ])
    def test_multiport_shape_checks(self, shapes, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            MultiportS(*(np.zeros(s, dtype=complex) for s in shapes),
                       default_grid(points=5))

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
        with pytest.raises(NumericError, match=r"at sample 0 \(f/fc = "):
            cascade(a, m)
        # the same at sample 3 only: the error names that sample
        g = grid(5)
        a, m = (writable(through_network(2, g)) for _ in range(2))
        a.s22[3] = m.s11[3] = np.eye(2)
        with pytest.raises(NumericError, match=at_sample(3, g.samples[3])):
            cascade(a, m)

    def test_both_inner_terms_singular_names_the_first(self):
        # S22a = S11m = I makes both inner matrices singular; the
        # (I - S11m S22a) check runs first
        g = grid(3)
        eye = np.broadcast_to(np.eye(2, dtype=complex), (3, 2, 2)).copy()
        a = MultiportS(eye.copy(), eye.copy(), eye.copy(), eye.copy(), g)
        m = MultiportS(eye.copy(), eye.copy(), eye.copy(), eye.copy(), g)
        with pytest.raises(NumericError, match=r"\(I - S11m S22a\)"):
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
        with pytest.raises(NumericError,
                           match=r"\(I - S11m S22a\)") as err:
            cascade(a, m)
        assert re.search(at_sample(500, a.grid.samples[500]), str(err.value))

    def test_first_inner_term_is_named_across_slabs(self):
        # at sample 10 only (I - S22a S11m) is flagged: with
        # S11m = [[1, -x], [0, 1]] and S22a = diag(1 - delta, 0) it is
        # [[delta, x (1 - delta)], [0, 1]], cond ~ x^2 / delta = 1e14,
        # while (I - S11m S22a) = diag(delta, 1) has cond 1 / delta
        a, m = self.through_pair()
        delta, x = 1e-10, 1e2
        m.s11[10, :2, :2] = [[1, -x], [0, 1]]
        a.s22[10, :2, :2] = np.diag([1 - delta, 0])
        with pytest.raises(NumericError,
                           match=r"\(I - S22a S11m\)") as err:
            cascade(a, m)
        assert re.search(at_sample(10, a.grid.samples[10]), str(err.value))
        # both terms singular at 500, in a later slab: the earlier slab's
        # flagged term is named, though it is the second term
        a.s22[500] = m.s11[500] = np.eye(self.N)
        with pytest.raises(NumericError,
                           match=r"\(I - S22a S11m\)") as err:
            cascade(a, m)
        assert re.search(at_sample(10, a.grid.samples[10]), str(err.value))

    def test_only_second_inner_term_singular_in_a_later_slab(self):
        # the construction above at sample 500, inside a slab that starts
        # at 480: the error names the sample on the whole grid
        a, m = self.through_pair()
        delta, x = 1e-10, 1e2
        m.s11[500, :2, :2] = [[1, -x], [0, 1]]
        a.s22[500, :2, :2] = np.diag([1 - delta, 0])
        assert _slabs(a.grid.size, 2 * self.N)[15] == slice(480, 512)
        with pytest.raises(NumericError,
                           match=r"\(I - S22a S11m\) at sample 500 ") as err:
            cascade(a, m)
        assert re.search(at_sample(500, a.grid.samples[500]), str(err.value))

    def test_nan_in_a_later_slab_fails_the_lossless_check(self):
        s = writable(through_network(self.N, default_grid()))
        s.s11[500, 0, 0] = np.nan
        ok, worst = check_lossless(s)
        assert not ok and np.isnan(worst)

    def test_temporaries_stay_within_the_slab_bound(self):
        from ucadiv.fixtures import fixture_sweep
        from ucadiv.modes import extend_to_2n_port

        sweep = fixture_sweep(self.N, 0.25)
        mib = 2**20

        def peak_above_entry(fn, *args):
            tracemalloc.start()
            try:
                entry = tracemalloc.get_traced_memory()[0]
                out = fn(*args)
                return out, tracemalloc.get_traced_memory()[1] - entry
            finally:
                tracemalloc.stop()

        ext, peak = peak_above_entry(extend_to_2n_port, sweep)
        # three blocks (S21 is S12) and one assembly temporary: 9.8 MiB
        assert peak <= 4 * ext.s11.nbytes + mib
        through = through_network(self.N, ext.grid)
        chained, peak = peak_above_entry(cascade, ext, through)
        # outputs and one slab's temporaries, both inner terms per slab:
        # 10.7 MiB
        assert peak <= 4 * ext.s11.nbytes + 2 * mib
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


def random_sweep(rng, n, samples, offset=0.0):
    """Random first rows; ``offset`` on Re z11 keeps every mode resistive."""
    m = n // 2 + 1
    row = rng.standard_normal((samples, m)) \
        + 1j * rng.standard_normal((samples, m))
    row[:, 0] += offset
    return ArraySweep(n=n, d=0.25, grid=FrequencyGrid(
        np.linspace(0.9, 1.1, samples)), first_row=row)


class TestCirculant:
    def test_n2_eigenvalues(self):
        sw = random_sweep(np.random.default_rng(23), 2, 5, offset=10.0)
        row = sw.full_row()
        lam = eigen_impedances(sw)
        assert_allclose(lam[:, 0], row[:, 0] + row[:, 1], rtol=1e-14)
        assert_allclose(lam[:, 1], row[:, 0] - row[:, 1], rtol=1e-14)

    def test_n4_closed_forms(self):
        sw = random_sweep(np.random.default_rng(29), 4, 5, offset=10.0)
        z11, z12, z13 = sw.first_row.T
        assert np.array_equal(sw.full_row(),
                              np.stack([z11, z12, z13, z12], axis=1))
        lam = eigen_impedances(sw)
        assert_allclose(lam[:, 0], z11 + 2 * z12 + z13, rtol=1e-13)
        assert_allclose(lam[:, 1], z11 - z13, atol=1e-13)
        assert_allclose(lam[:, 2], z11 - 2 * z12 + z13, atol=1e-13)
        assert np.array_equal(lam[:, 3], lam[:, 1])  # bitwise degeneracy

    def test_uncoupled_row(self):
        row = np.zeros((4, 2), dtype=complex)
        row[:, 0] = 5.0 + 1j
        sw = ArraySweep(n=3, d=0.25, grid=FrequencyGrid(
            np.linspace(0.9, 1.1, 4)), first_row=row)
        assert_allclose(eigen_impedances(sw), 5.0 + 1j)

    def test_reconstruction(self):
        rng = np.random.default_rng(31)
        for n in (2, 3, 4, 5):
            sw = random_sweep(rng, n, 4, offset=10.0)
            lam = eigen_impedances(sw)
            q = dft_beamformer(n)
            rebuilt = np.einsum("ij,fj,jk->fik", q, lam, q.conj().T)
            want = sw.impedance_matrices()
            err = np.abs(rebuilt - want) / np.maximum(np.abs(want), 1.0)
            assert err.max() < 1e-10


def parent_complete_symmetric_row(first_row, n):
    """Oracle: the former ``network.complete_symmetric_row``."""
    first_row = np.atleast_2d(np.asarray(first_row, dtype=complex))
    idx = np.minimum(np.arange(n), n - np.arange(n))
    return first_row[:, idx]


def parent_circulant_from_row(row):
    """Oracle: the former ``network.circulant_from_row``."""
    row = np.atleast_2d(np.asarray(row, dtype=complex))
    n = row.shape[1]
    j, k = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return row[:, (k - j) % n]


def parent_diagonalize_circulant(row):
    """Oracle: the former ``network.diagonalize_circulant`` (FFT + pair copy)."""
    row = np.atleast_2d(np.asarray(row, dtype=complex))
    n = row.shape[1]
    lam = np.fft.fft(row, axis=1)
    for m in range(1, (n - 1) // 2 + 1):
        lam[:, n - m] = lam[:, m]
    return lam


def parent_expand(n, values):
    """Oracle: the former owner-map ``EigenModeSet.expand``."""
    owner = {}
    for j, (m, mult) in enumerate(distinct_dft_indices(n)):
        for i in (m, n - m)[:mult]:
            owner[i] = j
    return np.take(np.stack(values, axis=-1), [owner[i] for i in range(n)],
                   axis=-1)


class TestRingIndexBits:
    @pytest.mark.parametrize("n", range(1, 18))
    def test_equals_former_circulant_helpers(self, n):
        rng = np.random.default_rng(100 + n)
        for sw in (random_sweep(rng, n, 7, offset=50.0),
                   fixture_sweep(n, 0.25, default_grid(points=31))):
            row = parent_complete_symmetric_row(sw.first_row, n)
            assert np.array_equal(sw.full_row(), row)
            assert np.array_equal(sw.impedance_matrices(),
                                  parent_circulant_from_row(row))
            assert np.array_equal(eigen_impedances(sw),
                                  parent_diagonalize_circulant(row))
        mode_set = CouplingModel().mode_set(n, 0.25)
        arrays = [rng.standard_normal((3, 5)) for _ in mode_set.modes]
        assert np.array_equal(mode_set.expand(arrays), parent_expand(n, arrays))
        scalars = [m.r for m in mode_set.modes]
        assert np.array_equal(mode_set.expand(scalars),
                              parent_expand(n, scalars))


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
        """The verdict, one sample at a time: ('ok',), or (kind, k) for the
        first sample k that is non-finite or has cond > COND_LIMIT."""
        for k, sample in enumerate(a):
            if not np.all(np.isfinite(sample)):
                return ("non-finite", k)
            if np.linalg.cond(sample) > COND_LIMIT:
                return ("singular", k)
        return ("ok",)

    def assert_agrees(self, a):
        g = FrequencyGrid(np.linspace(0.5, 1.5, len(a)))
        b = np.ones_like(a)
        want = self.reference(a)
        try:
            _guard(a, g, "test system")
            x = np.linalg.solve(a, b)
        except NumericError as exc:
            assert want[0] != "ok", (want, str(exc))
            kind, k = want
            assert str(exc) == (f"{kind} test system at sample {k} "
                                f"(f/fc = {g.samples[k]:.6g})")
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


def counting(monkeypatch, *names):
    """Count the calls to the named ``np.linalg`` functions."""
    calls = dict.fromkeys(names, 0)

    def wrap(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    for name in names:
        fn = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, wrap(name, fn))
    return calls


class TestGuardTiers:
    """cascade's norm tier, and what reaches _guard's determinant tier."""

    N = 16

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 16])
    def test_norm_bound_clears_both_inner_terms(self, n):
        # ||S11m||_F ||S22a||_F = x < t bounds both inner products' 2-norm
        # by x, so cond(I - S11m S22a) and cond(I - S22a S11m) are at most
        # (1 + t) / (1 - t); rank-one pairs with aligned factors make the
        # Frobenius product the 2-norm, the bound's tight case
        rng = np.random.default_rng(300 + n)
        t = 0.5
        limit = (1 + t) / (1 - t)

        def cplx(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        for trial in range(200):
            if trial % 2:
                s11m, s22a = cplx(n, n), cplx(n, n)
            else:
                u, v, w = cplx(n, 1), cplx(n, 1), cplx(n, 1)
                s11m, s22a = u @ v.conj().T, v @ w.conj().T
            x = t * rng.choice([rng.uniform(), 1 - 1e-12])
            s11m *= x / np.linalg.norm(s11m) / np.linalg.norm(s22a)
            assert np.linalg.norm(s11m) * np.linalg.norm(s22a) < t
            eye = np.eye(n)
            for inner in (eye - s11m @ s22a, eye - s22a @ s11m):
                assert np.linalg.cond(inner) <= limit

    def test_through_cascade_makes_no_factorization(self, monkeypatch):
        # S11m = 0 clears every sample by the norm tier
        ext = extend_to_2n_port(fixture_sweep(self.N, 0.25))
        calls = counting(monkeypatch, "slogdet", "cond")
        cascade(ext, through_network(self.N, ext.grid))
        assert calls == {"slogdet": 0, "cond": 0}

    def test_two_completions_reach_the_determinant_tier(self, monkeypatch):
        sweep = fixture_sweep(self.N, 0.25)
        ext, other = extend_to_2n_port(sweep), extend_to_2n_port(sweep, 2.0)
        calls = counting(monkeypatch, "slogdet", "cond")
        cascade(ext, other)
        assert calls["slogdet"] > 0

    def test_z_to_s_runs_no_svd_when_the_bound_clears_every_sample(
            self, monkeypatch):
        sweep = fixture_sweep(self.N, 0.25)
        z = sweep.impedance_matrices()
        calls = counting(monkeypatch, "cond")
        z_to_s(z, grid=sweep.grid)
        assert calls == {"cond": 0}

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.inf)])
    def test_non_finite_impedance_sample_is_named(self, bad):
        g = default_grid()
        z = np.broadcast_to(3.0 * np.eye(2, dtype=complex), (g.size, 2, 2))
        z = z.copy()
        z[500, 1, 0] = bad
        z[550] = -np.eye(2)  # singular, but after the non-finite sample
        with pytest.raises(NumericError, match="^non-finite "
                           + re.escape("(Z + z_ref I)")
                           + at_sample(500, g.samples[500])):
            z_to_s(z, grid=g)

    def test_nan_first_row_is_named_at_sample_0(self):
        sweep = fixture_sweep(4, 0.25)
        first_row = sweep.first_row.copy()
        first_row[0] = np.nan
        # refused when built, before z_to_s or extend_to_2n_port sees it
        with pytest.raises(DataError, match="^non-finite first row"
                           + at_sample(0, 0.85)):
            ArraySweep(sweep.n, sweep.d, sweep.grid, first_row)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("where", ["s22a", "s11m"])
    def test_non_finite_cascade_sample_in_a_later_slab(self, bad, where):
        g = default_grid()
        a, m = (writable(through_network(self.N, g)) for _ in range(2))
        assert _slabs(g.size, 2 * self.N)[15] == slice(480, 512)
        a.s22[500] = m.s11[500] = 0.3 * np.eye(self.N)
        (a.s22 if where == "s22a" else m.s11)[500, 3, 4] = bad
        a.s22[510] = m.s11[510] = np.eye(self.N)  # singular, later
        with pytest.raises(NumericError, match="^non-finite resonant inner "
                           + re.escape("term (I - S11m S22a)")
                           + at_sample(500, g.samples[500])):
            cascade(a, m)
