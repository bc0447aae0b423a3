"""Multiport network algebra on swept complex matrices.

All spectral quantities live on a shared :class:`FrequencyGrid` of relative
frequencies f/fc.  A "sweep" is a complex ndarray of shape (F, N, N): one
N x N matrix per grid sample.  Scattering descriptions of 2N-port networks
are held in N x N block form by :class:`MultiportS`.  ``cascade`` and
``check_lossless`` bound their temporaries to slabs of ``_SLAB_BYTES`` per
array; their outputs stay F x N x N, with the bits of one whole-grid pass.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NumericError

# Condition estimate above which a per-sample solve is treated as singular;
# separates physical open/short limits from ordinary roundoff.
COND_LIMIT = 1e12

# Largest Frobenius deviation of S S^H from I of a lossless 2N-port.
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
    """2N-port scattering description in N x N block form per frequency sample.

    Blocks may be shared read-only arrays; copy a block to write into it.
    """

    s11: np.ndarray
    s12: np.ndarray
    s21: np.ndarray
    s22: np.ndarray
    grid: FrequencyGrid

    def __post_init__(self):
        shapes = {b.shape for b in (self.s11, self.s12, self.s21, self.s22)}
        if len(shapes) != 1:
            raise ValueError("all four blocks must share one shape")
        shape = self.s11.shape
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


def _guard(a, grid, what, rows=None):
    """Raise NumericError at the first non-finite sample or cond > COND_LIMIT.

    ``a[i]`` is grid sample ``rows[i]`` (default ``i``); errors name that.

    A finite sample is flagged exactly when ``np.linalg.cond(a[i]) >
    COND_LIMIT``, but the full SVD runs only on the samples a cheaper bound
    cannot clear.  Guggenheimer, Edelman and Johnson ("A simple estimate of
    the condition number of a linear system", College Math. J. 26, 1995)
    bound the 2-norm condition number of an n x n matrix by

        kappa(A) < (2 / |det A|) (||A||_F / sqrt(n))^n,

    which one LU factorization (``slogdet``) and the Frobenius norms give.
    A sample whose bound is at most COND_LIMIT / 16 cannot be flagged; the
    16x margin absorbs the rounding of the computed bound, which can fall
    slightly below kappa near the limit.  Singular, all-zero or non-finite
    samples give an infinite or NaN bound and go to the SVD, as does
    everything else the bound leaves unsure.  A non-finite sample is flagged.
    """
    n = a.shape[-1]
    with np.errstate(all="ignore"):
        logdet = np.linalg.slogdet(a).logabsdet
        fro = np.linalg.norm(a, axis=(-2, -1))
        log_bound = np.log(2.0) - logdet + n * np.log(fro / np.sqrt(n))
    unsure = np.flatnonzero(~(log_bound <= np.log(COND_LIMIT / 16.0)))
    sub = a[unsure]
    sub[~np.isfinite(sub).all(axis=(-2, -1))] = 0.0  # cond(0) = inf; no SVD
    bad = unsure[np.linalg.cond(sub) > COND_LIMIT] if unsure.size else unsure
    if bad.size:
        k = int(bad[0] if rows is None else rows[bad[0]])
        where = "" if grid is None else f" (f/fc = {grid.samples[k]:.6g})"
        kind = "singular" if np.isfinite(a[bad[0]]).all() else "non-finite"
        raise NumericError(f"{kind} {what} at sample {k}{where}")


def z_to_s(z, grid=None):
    """Impedance sweep to 1-ohm scattering sweep: (Z + I)^-1 (Z - I)."""
    z = np.asarray(z, dtype=complex)
    if z.ndim != 3 or z.shape[1] != z.shape[2]:
        raise ValueError(f"sweep must have shape (F, N, N), got {z.shape}")
    if grid is not None and grid.size != z.shape[0]:
        raise ValueError("sweep sample count does not match the grid")
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
    One pass over the slabs builds, checks and factors both inner matrices
    per slab.  Each is I minus a product of 2-norm <= x = ||S11m||_F
    ||S22a||_F, so x < 1/2 gives cond <= 3 (Golub and Van Loan, Matrix
    Computations, Lemma 2.3.3) and clears the sample; ``_guard``'s two tiers
    check the rest.  The error names the first slab with a flagged sample,
    and in it (I - S11m S22a) before (I - S22a S11m): det(I - AB) =
    det(I - BA), so an exactly singular sample is named for the first.
    """
    if a.n_ports != m.n_ports:
        raise ValueError("cascade requires equal inner port counts")
    if not np.array_equal(a.grid.samples, m.grid.samples):  # sizes too
        raise ValueError("cascade requires a shared frequency grid")
    n = a.n_ports
    eye = np.eye(n, dtype=complex)
    s11, s12, s21, s22 = (np.empty((a.grid.size, n, n), dtype=complex)
                          for _ in range(4))
    # (I - S11m S22a)^-1 [S11m | S12m] ; (I - S22a S11m)^-1 [S21a | S22a S12m]
    for k in _slabs(a.grid.size, 2 * n):
        with np.errstate(all="ignore"):  # _guard names a NaN or inf
            inner_m = eye - m.s11[k] @ a.s22[k]
            inner_a = eye - a.s22[k] @ m.s11[k]
            unsure = np.flatnonzero(~(np.linalg.matrix_norm(m.s11[k])
                                      * np.linalg.matrix_norm(a.s22[k]) < 0.5))
        for inner, term in ((inner_m, "S11m S22a"), (inner_a, "S22a S11m")):
            if unsure.size:
                _guard(inner[unsure], a.grid,
                       f"resonant inner term (I - {term})", k.start + unsure)
        xm = np.linalg.solve(inner_m, np.concatenate(
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
