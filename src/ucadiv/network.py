"""Multiport network algebra on swept complex matrices.

All spectral quantities live on a shared :class:`FrequencyGrid` of relative
frequencies f/fc.  A "sweep" is a complex ndarray of shape (F, N, N): one
N x N matrix per grid sample.  Scattering descriptions of 2N-port networks
are held in N x N block form by :class:`MultiportS`.  ``cascade`` and
``check_lossless`` bound their temporaries to slabs of ``_SLAB_BYTES`` per
array, but for ``cascade``'s whole-grid (I - S11m S22a); their outputs stay
F x N x N, with the bits of one whole-grid pass.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ModelMismatchError, SingularSampleError

# Condition estimate above which a per-sample solve is treated as singular;
# separates physical open/short limits from ordinary roundoff.
COND_LIMIT = 1e12

# Largest relative asymmetry row[k] - row[N - k] of a symmetric circulant,
# and largest Frobenius deviation of S S^H from I of a lossless 2N-port.
CIRCULANT_TOL = 1e-8
LOSSLESS_TOL = 1e-10

# Size of one slab of complex (2N x 2N) per-sample matrices.
_SLAB_BYTES = 2**19


@dataclass(frozen=True)
class FrequencyGrid:
    """Shared frequency axis, relative to the carrier (f/fc)."""

    samples: np.ndarray

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        object.__setattr__(self, "samples", samples)
        if samples.ndim != 1 or samples.size < 1:
            raise ValueError("frequency grid needs at least one sample")
        if not np.all(np.isfinite(samples)):
            raise ValueError("relative frequencies must be finite")
        if np.any(samples <= 0):
            raise ValueError("relative frequencies must be positive")
        if np.any(np.diff(samples) <= 0):
            raise ValueError("frequency samples must be strictly increasing")

    @property
    def size(self):
        return self.samples.size


def default_grid(span=0.15, points=601):
    """Uniform grid 1-span .. 1+span; the default fit axis for fixtures."""
    return FrequencyGrid(np.linspace(1.0 - span, 1.0 + span, points))


@dataclass
class MultiportS:
    """2N-port scattering description in N x N block form per frequency sample."""

    s11: np.ndarray
    s12: np.ndarray
    s21: np.ndarray
    s22: np.ndarray
    grid: FrequencyGrid

    def __post_init__(self):
        blocks = [self.s11, self.s12, self.s21, self.s22]
        shapes = {b.shape for b in blocks}
        if len(shapes) != 1:
            raise ValueError("all four blocks must share one shape")
        shape = blocks[0].shape
        if len(shape) != 3 or shape[1] != shape[2]:
            raise ValueError("blocks must have shape (F, N, N)")
        if shape[0] != self.grid.size:
            raise ValueError("block sample count does not match the grid")

    @property
    def n_ports(self):
        return self.s11.shape[1]


def through_network(n, grid):
    """Ideal through S11 = S22 = 0, S12 = S21 = I: read-only stride-0 views."""
    eye = np.broadcast_to(np.eye(n, dtype=complex), (grid.size, n, n))
    zero = np.broadcast_to(np.zeros((n, n), dtype=complex), eye.shape)
    return MultiportS(zero, eye, eye, zero, grid)


def _slabs(size, n):
    """Consecutive sample slices of at most _SLAB_BYTES of complex n x n."""
    step = max(1, _SLAB_BYTES // (16 * n * n))
    return [slice(k, k + step) for k in range(0, size, step)]


def _guard(a, grid, what, offset=0):
    """Raise SingularSampleError at the first sample with cond > COND_LIMIT.

    ``a`` starts at grid sample ``offset``; the error names the grid index.

    A sample is flagged exactly when ``np.linalg.cond(a[k]) > COND_LIMIT``,
    but the full SVD runs only on the samples a cheaper bound cannot clear.
    Guggenheimer, Edelman and Johnson ("A simple estimate of the condition
    number of a linear system", College Math. J. 26, 1995) bound the
    2-norm condition number of an n x n matrix by

        kappa(A) < (2 / |det A|) (||A||_F / sqrt(n))^n,

    which one LU factorization (``slogdet``) and the Frobenius norms give.
    A sample whose bound is at most COND_LIMIT / 16 cannot be flagged; the
    16x margin absorbs the rounding of the computed bound, which can fall
    slightly below kappa near the limit.  Singular, all-zero or non-finite
    samples give an infinite or NaN bound and go to the SVD, as does
    everything else the bound leaves unsure.
    """
    n = a.shape[-1]
    with np.errstate(all="ignore"):
        logdet = np.linalg.slogdet(a).logabsdet
        fro = np.linalg.norm(a, axis=(-2, -1))
        log_bound = np.log(2.0) - logdet + n * np.log(fro / np.sqrt(n))
    unsure = np.flatnonzero(~(log_bound <= np.log(COND_LIMIT / 16.0)))
    bad = unsure[np.linalg.cond(a[unsure]) > COND_LIMIT]
    if bad.size:
        k = offset + int(bad[0])
        f = None if grid is None else float(grid.samples[k])
        raise SingularSampleError(f"singular {what}", k, f)


def z_to_s(z, grid=None):
    """Impedance sweep to 1-ohm scattering sweep: (Z + I)^-1 (Z - I)."""
    z = np.asarray(z, dtype=complex)
    if z.ndim != 3 or z.shape[1] != z.shape[2]:
        raise ValueError(f"sweep must have shape (F, N, N), got {z.shape}")
    eye = np.eye(z.shape[1], dtype=complex)
    z_plus = z + eye
    _guard(z_plus, grid, "(Z + z_ref I)")
    return np.linalg.solve(z_plus, z - eye)


def cascade(a: MultiportS, m: MultiportS) -> MultiportS:
    """Cascade two 2N-ports: A's port-2 side feeds M's port-1 side.

    Implements the block composition

        S11c = S11a + S12a (I - S11m S22a)^-1 S11m S21a
        S12c = S12a (I - S11m S22a)^-1 S12m
        S21c = S21m (I - S22a S11m)^-1 S21a
        S22c = S22m + S21m (I - S22a S11m)^-1 S22a S12m

    so the composite relates the outer wave vectors of the chain.
    (I - S11m S22a) is checked over the whole grid first; (I - S22a S11m) is
    built and checked per slab, and both are factored once per slab.
    """
    if a.n_ports != m.n_ports:
        raise ValueError("cascade requires equal inner port counts")
    if a.grid.size != m.grid.size or not np.array_equal(
        a.grid.samples, m.grid.samples
    ):
        raise ValueError("cascade requires a shared frequency grid")
    n = a.n_ports
    eye = np.eye(n, dtype=complex)
    inner_m = eye - m.s11 @ a.s22
    _guard(inner_m, a.grid, "resonant inner term (I - S11m S22a)")
    s11, s12, s21, s22 = (np.empty_like(inner_m) for _ in range(4))
    # (I - S11m S22a)^-1 [S11m | S12m] ; (I - S22a S11m)^-1 [S21a | S22a S12m]
    for k in _slabs(a.grid.size, 2 * n):
        inner_a = eye - a.s22[k] @ m.s11[k]
        _guard(inner_a, a.grid, "resonant inner term (I - S22a S11m)",
               k.start)
        xm = np.linalg.solve(inner_m[k], np.concatenate(
            [m.s11[k], m.s12[k]], axis=2))
        ya = np.linalg.solve(inner_a, np.concatenate(
            [a.s21[k], a.s22[k] @ m.s12[k]], axis=2))
        s11[k] = a.s11[k] + a.s12[k] @ xm[..., :n] @ a.s21[k]
        s12[k] = a.s12[k] @ xm[..., n:]
        s21[k] = m.s21[k] @ ya[..., :n]
        s22[k] = m.s22[k] + m.s21[k] @ ya[..., n:]
    return MultiportS(s11, s12, s21, s22, a.grid)


def dft_beamformer(n):
    """Unitary spatial-DFT matrix Q[m, k] = alpha^(m k)/sqrt(N), alpha = e^(-2 pi j / N).

    Frequency independent; its columns decouple any circulant impedance
    matrix of matching dimension.
    """
    if n < 1:
        raise ValueError("beamformer dimension must be >= 1")
    idx = np.arange(n)
    alpha = np.exp(-2j * np.pi / n)
    return alpha ** np.outer(idx, idx) / np.sqrt(n)


def circulant_from_row(row):
    """Build the circulant matrix C[j, k] = row[(k - j) mod N] per sample."""
    row = np.atleast_2d(np.asarray(row, dtype=complex))
    n = row.shape[1]
    j, k = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return row[:, (k - j) % n]


def complete_symmetric_row(first_row, n):
    """Expand the independent entries z11..z1M (M = N//2 + 1) to a full row.

    The symmetric-circulant structure fixes row[k] = row[N - k].
    """
    first_row = np.atleast_2d(np.asarray(first_row, dtype=complex))
    m = n // 2 + 1
    if first_row.shape[1] != m:
        raise ValueError(f"expected {m} independent row entries for N={n}")
    idx = np.minimum(np.arange(n), n - np.arange(n))
    return first_row[:, idx]


def diagonalize_circulant(row):
    """Eigenvalue traces of a symmetric circulant, ordered by DFT index.

    ``row`` holds the full first row per sample (shape (F, N)).  Returns
    shape (F, N); degenerate pairs (index m and N-m) are made bitwise equal,
    which is an algebraic identity for symmetric rows.
    """
    row = np.atleast_2d(np.asarray(row, dtype=complex))
    n = row.shape[1]
    scale = np.maximum(np.max(np.abs(row), axis=1, keepdims=True), 1.0)
    asym = np.abs(row[:, 1:] - row[:, :0:-1]) / scale
    if asym.size and np.max(asym) > CIRCULANT_TOL:
        k = int(np.argmax(np.max(asym, axis=1)))
        raise ModelMismatchError(
            f"first row violates circulant symmetry (worst relative "
            f"deviation {np.max(asym):.3g} at sample {k})"
        )
    lam = np.fft.fft(row, axis=1)
    for m in range(1, (n - 1) // 2 + 1):
        lam[:, n - m] = lam[:, m]
    return lam


def check_lossless(s: MultiportS):
    """Verify S S^H = I per sample; returns (passed, worst Frobenius deviation)."""
    eye = np.eye(2 * s.n_ports)
    dev = np.empty(s.grid.size)
    for k in _slabs(s.grid.size, 2 * s.n_ports):
        full = np.block([[s.s11[k], s.s12[k]], [s.s21[k], s.s22[k]]])
        prod = full @ np.conj(np.transpose(full, (0, 2, 1)))
        prod -= eye
        dev[k] = np.linalg.norm(prod, axis=(1, 2))
    worst = float(np.max(dev))  # np.max keeps a NaN, so the check fails
    return worst <= LOSSLESS_TOL, worst
