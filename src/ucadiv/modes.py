"""Eigen-modes of coupled circular arrays.

Swept circulant impedance data is reduced to per-mode eigen-impedance
traces, each fitted by a series-RLC resonance (R, Q, f0).  The fitted modes
expose the spectral response, VSWR-based usable bandwidth, and the lossless
2N-port completion of the array.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import network
from .errors import FitFailureError, NonPhysicalDataError, NoResonanceError
from .network import FrequencyGrid, MultiportS, dft_beamformer


def uca_radius(n, d):
    """Circumradius of an N-element ring with adjacent separation d."""
    if n < 2:
        return 0.0
    return d / (2.0 * math.sin(math.pi / n))


def uca_pairwise_distance(n, d, offset):
    """Chord distance between elements ``offset`` steps apart on the ring."""
    if n < 2 or offset % n == 0:
        return 0.0
    return 2.0 * uca_radius(n, d) * math.sin(math.pi * (offset % n) / n)


@dataclass
class ArraySweep:
    """Swept first-row impedances of an N-element uniform circular array.

    ``first_row`` has shape (F, M) with M = N//2 + 1 independent entries
    z11..z1M per sample; the symmetric-circulant completion supplies the
    rest.  Spacing d is the adjacent separation in carrier wavelengths.
    """

    n: int
    d: float
    grid: FrequencyGrid
    first_row: np.ndarray

    def __post_init__(self):
        self.first_row = np.asarray(self.first_row, dtype=complex)
        m = self.n // 2 + 1
        if self.first_row.shape != (self.grid.size, m):
            raise ValueError(
                f"first_row must have shape ({self.grid.size}, {m}), "
                f"got {self.first_row.shape}"
            )

    def full_row(self):
        return network.complete_symmetric_row(self.first_row, self.n)

    def impedance_matrices(self):
        return network.circulant_from_row(self.full_row())


@dataclass(frozen=True)
class ResonantMode:
    """Series-RLC description of one eigen-impedance.

    lambda(f) = R [1 + j Q (f/f0 - f0/f)] with f relative to the carrier.
    Degenerate DFT indices share one mode with multiplicity > 1.
    """

    r: float
    q: float
    f0: float
    dft_index: int = 0
    multiplicity: int = 1
    fit_residual: float = 0.0

    def __post_init__(self):
        if self.r <= 0 or self.q <= 0 or self.f0 <= 0:
            raise ValueError("R, Q and f0 must all be positive")

    @property
    def inductance(self):
        """L = R Q / omega0, in units of 1/fc henry."""
        return self.r * self.q / (2.0 * math.pi * self.f0)

    @property
    def capacitance(self):
        """C = 1 / (Q R omega0), in units of 1/fc farad."""
        return 1.0 / (self.q * self.r * 2.0 * math.pi * self.f0)

    def impedance(self, f):
        f = np.asarray(f, dtype=float)
        return self.r * (1.0 + 1j * self.q * (f / self.f0 - self.f0 / f))


@dataclass(frozen=True)
class EigenModeSet:
    """Distinct resonant modes covering all N DFT indices of an array."""

    n: int
    modes: tuple

    def __post_init__(self):
        total = sum(m.multiplicity for m in self.modes)
        if total != self.n:
            raise ValueError(
                f"mode multiplicities sum to {total}, expected N={self.n}"
            )

    def expand(self, values):
        """Spread per-distinct-mode values onto the N DFT-indexed diagonal."""
        values = list(values)
        out = np.empty(self.n, dtype=np.result_type(*values, float))
        for mode, v in zip(self.modes, values):
            out[mode.dft_index] = v
            if mode.multiplicity > 1:
                out[self.n - mode.dft_index] = v
        return out


def distinct_dft_indices(n):
    """Representative DFT indices and multiplicities: pairs (m, N-m) merge."""
    out = []
    for m in range(n // 2 + 1):
        mult = 1 if (m == 0 or 2 * m == n) else 2
        out.append((m, mult))
    return out


def eigen_impedances(sweep: ArraySweep):
    """Per-mode eigen-impedance traces, shape (F, N), ordered by DFT index.

    The traces are the DFT of the completed first row; degenerate equalities
    (index m vs N-m) hold bitwise.  Raises if any in-band mode resistance is
    non-positive.
    """
    lam = network.diagonalize_circulant(sweep.full_row(), sweep.n)
    re_band = lam[sweep.grid.band_mask()].real
    if np.any(re_band <= 0):
        bad = np.argwhere(re_band <= 0)[0]
        raise NonPhysicalDataError(
            f"mode {bad[1]} has non-positive resistance inside the band "
            f"(Re lambda = {re_band[bad[0], bad[1]]:.4g})"
        )
    return lam


def fit_rlc(trace, grid: FrequencyGrid, dft_index=0, multiplicity=1):
    """Fit a series-RLC resonance to one eigen-impedance trace.

    R is fixed to the band-average resistance; f0 is then refined from the
    reactance zero crossing by minimising the profiled squared residual of
    Im(lambda) against R Q (f/f0 - f0/f), with Q closed-form for each f0.
    """
    # imported here so that the Monte-Carlo path never loads scipy
    from scipy import optimize

    trace = np.asarray(trace, dtype=complex)
    f = grid.samples
    if f.size < 3:
        raise ValueError("fit band must contain at least three samples")
    re, im = trace.real, trace.imag

    if np.any(re <= 0):
        raise NonPhysicalDataError("resistance must stay positive in the fit band")
    r = float(np.mean(re))

    sign = np.sign(im)
    crossings = np.nonzero(np.diff(sign) != 0)[0]
    if crossings.size == 0:
        raise NoResonanceError("reactance does not cross zero in the fit band")
    k = crossings[0]
    # linear interpolation seed for the resonant frequency
    f0_seed = f[k] - im[k] * (f[k + 1] - f[k]) / (im[k + 1] - im[k])

    def q_for(f0):
        g = f / f0 - f0 / f
        denom = r * float(g @ g)
        if denom == 0.0:
            return 0.0
        return float(im @ g) / denom

    def residual(f0):
        g = f / f0 - f0 / f
        return float(np.sum((im - r * q_for(f0) * g) ** 2))

    span = f[-1] - f[0]
    lo = max(f[0], f0_seed - 0.25 * span)
    hi = min(f[-1], f0_seed + 0.25 * span)
    coarse = optimize.minimize_scalar(
        residual, bounds=(lo, hi), method="bounded",
        options={"xatol": 1e-12},
    )
    # fminbound stalls at ~sqrt(eps) relative; golden-section has no such
    # floor and polishes exact-model fits to near machine precision.
    x = float(coarse.x)
    step = max(1e-5 * x, 2.0 * abs(x - f0_seed) + 1e-12)
    bracket = (x - step, x, x + step)
    if residual(bracket[0]) > residual(x) < residual(bracket[2]):
        fine = optimize.minimize_scalar(
            residual, bracket=bracket, method="golden",
            options={"xtol": 1e-13},
        )
        f0 = float(fine.x)
    else:
        f0 = x
    q = q_for(f0)
    if q <= 0:
        raise FitFailureError(f"fitted quality factor is non-positive ({q:.4g})")
    return ResonantMode(
        r=r, q=q, f0=f0, dft_index=dft_index, multiplicity=multiplicity,
        fit_residual=math.sqrt(residual(f0) / f.size),
    )


def fit_modes(sweep: ArraySweep) -> EigenModeSet:
    """Eigen-decompose an array sweep and fit every distinct mode."""
    lam = eigen_impedances(sweep)
    modes = tuple(
        fit_rlc(lam[:, m], sweep.grid, dft_index=m, multiplicity=mult)
        for m, mult in distinct_dft_indices(sweep.n)
    )
    return EigenModeSet(n=sweep.n, modes=modes)


def mode_reflection(mode: ResonantMode, f):
    """Reflection coefficient of a mode referenced to its own resistance.

    Defined as the exact complement of :func:`eigen_mode_response`:
    Gamma'(f) = Q (f^2 - f0^2) / (Q (f^2 - f0^2) - 2 j f), so that
    |Gamma'|^2 + |T'|^2 = 1 identically and Gamma'(f0) = 0.
    """
    f = np.asarray(f, dtype=float)
    if np.any(f <= 0):
        raise ValueError("frequency must be positive")
    u = mode.q * (f * f - mode.f0 * mode.f0)
    return u / (u - 2j * f)


def eigen_mode_response(mode: ResonantMode, f):
    """Power transmissivity |T'(f)|^2 = 4 f^2 / (4 f^2 + Q^2 (f^2 - f0^2)^2)."""
    f = np.asarray(f, dtype=float)
    if np.any(f <= 0):
        raise ValueError("frequency must be positive")
    u = mode.q * (f * f - mode.f0 * mode.f0)
    return 4.0 * f * f / (4.0 * f * f + u * u)


def vswr(gamma_mag):
    """Standing-wave ratio (1 + |Gamma|) / (1 - |Gamma|); inf at |Gamma| >= 1."""
    g = np.asarray(gamma_mag, dtype=float)
    if np.any(g < 0):
        raise ValueError("reflection magnitude must be nonnegative")
    with np.errstate(divide="ignore"):
        out = np.where(g >= 1.0, np.inf, (1.0 + g) / (1.0 - g))
    return float(out) if np.isscalar(gamma_mag) else out


def usable_bandwidth(mode: ResonantMode):
    """Contiguous interval around f0 where |T'|^2 >= 8/9 (VSWR <= 2).

    Endpoints solve Q |f^2 - f0^2| = f / sqrt(2):
    f = -+ 1/(2 sqrt(2) Q) + sqrt(1/(8 Q^2) + f0^2).
    """
    half = 1.0 / (2.0 * math.sqrt(2.0) * mode.q)
    root = math.sqrt(half * half + mode.f0 * mode.f0)
    return (root - half, root + half)


def retune(mode: ResonantMode, f_target) -> ResonantMode:
    """Shift a mode's resonance to f_target, keeping R and Q.

    Models trimming the element lengths so the mode responses overlap at
    the carrier.
    """
    if f_target <= 0:
        raise ValueError("target frequency must be positive")
    return replace(mode, f0=float(f_target))


def extend_to_2n_port(sweep: ArraySweep, z_ref=1.0) -> MultiportS:
    """Lossless, reciprocal 2N-port completion of an array sweep.

    The eigen-domain reflection of each mode is g = (lambda - z)/(lambda + z);
    the remaining blocks take the positive real branch t = sqrt(1 - |g|^2)
    and L11 = -conj(g), making every per-mode 2x2 block unitary and
    port-symmetric.  Only |t|^2 enters downstream formulas, so the phase
    convention is observably irrelevant.

    ``z_ref`` is a scalar (default the 1-ohm system reference, in which case
    S22a equals z_to_s of the impedance matrices) or a per-mode vector of
    reference resistances.
    """
    lam = eigen_impedances(sweep)
    zr = np.asarray(z_ref, dtype=float)
    if zr.ndim == 0:
        zr = np.full(sweep.n, float(zr))
    elif zr.shape != (sweep.n,):
        raise ValueError("per-mode z_ref must have one entry per DFT index")
    if np.any(zr <= 0):
        raise ValueError("reference resistances must be positive")

    g = (lam - zr) / (lam + zr)
    t = np.sqrt(np.clip(1.0 - np.abs(g) ** 2, 0.0, None))

    q = dft_beamformer(sweep.n)
    qh = q.conj().T

    def assemble(diag):
        return np.einsum("ij,fj,jk->fik", q, diag, qh)

    return MultiportS(
        s11=assemble(-np.conj(g)),
        s12=assemble(t.astype(complex)),
        s21=assemble(t.astype(complex)),
        s22=assemble(g),
        grid=sweep.grid,
        z_ref=float(zr[0]) if np.all(zr == zr[0]) else 1.0,
    )


def sweep_from_modes(modes: EigenModeSet, grid: FrequencyGrid, d) -> ArraySweep:
    """Synthesise an ArraySweep whose eigen-impedances are the given modes.

    Inverts the DFT relation: the first row per sample is the inverse DFT of
    the multiplicity-expanded eigenvalue vector, so eigen-decomposing the
    result recovers the mode traces exactly.
    """
    n = modes.n
    lam = np.empty((grid.size, n), dtype=complex)
    for mode in modes.modes:
        trace = mode.impedance(grid.samples)
        lam[:, mode.dft_index] = trace
        if mode.multiplicity > 1:
            lam[:, n - mode.dft_index] = trace
    row = np.fft.ifft(lam, axis=1)
    m = n // 2 + 1
    return ArraySweep(n=n, d=float(d), grid=grid, first_row=row[:, :m])
