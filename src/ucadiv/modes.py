"""Eigen-modes of coupled circular arrays.

Swept circulant impedance data is reduced to per-mode eigen-impedance
traces, each fitted by a series-RLC resonance (R, Q, f0).  The fitted modes
expose the spectral response, VSWR-based usable bandwidth, and the lossless
2N-port completion of the array.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DataError, ModelError
from .network import FrequencyGrid, MultiportS, dft_beamformer


def _ring_index(n):
    """The ring's symmetry: DFT index k and N - k share row entry and mode."""
    k = np.arange(n)
    return np.minimum(k, n - k)


def uca_pairwise_distance(n, d, offset):
    """Chord distance between elements ``offset`` steps apart on the ring."""
    if n < 2 or offset % n == 0:
        return 0.0
    radius = d / (2.0 * math.sin(math.pi / n))  # the ring's circumradius
    return 2.0 * radius * math.sin(math.pi * (offset % n) / n)


@dataclass
class ArraySweep:
    """Swept first-row impedances of an N-element uniform circular array.

    ``first_row`` has shape (F, M) with M = N//2 + 1 independent entries
    z11..z1M per sample; the ring's symmetry row[k] = row[N - k] supplies
    the rest.  Spacing d is the adjacent separation in carrier wavelengths.
    """

    n: int
    d: float
    grid: FrequencyGrid
    first_row: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"element count must be >= 1, got {self.n}")
        self.first_row = np.asarray(self.first_row, dtype=complex)
        m = self.n // 2 + 1
        if self.first_row.shape != (self.grid.size, m):
            raise ValueError(
                f"first_row must have shape ({self.grid.size}, {m}), "
                f"got {self.first_row.shape}"
            )
        finite = np.isfinite(self.first_row).all(axis=1)
        if not finite.all():
            k = int(np.argmin(finite))
            raise DataError(f"non-finite first row at sample {k} "
                            f"(f/fc = {self.grid.samples[k]:.6g})")

    def full_row(self):
        return np.take(self.first_row, _ring_index(self.n), axis=-1)

    def impedance_matrices(self):
        """Circulant Z[f, j, k] = full_row[f, (k - j) mod N]."""
        k = np.arange(self.n)
        return self.full_row()[:, (k - k[:, None]) % self.n]


@dataclass(frozen=True)
class ResonantMode:
    """Series-RLC description of one eigen-impedance.

    lambda(f) = R [1 + j Q (f/f0 - f0/f)] with f relative to the carrier.
    """

    r: float
    q: float
    f0: float
    fit_residual: float = 0.0

    def __post_init__(self):
        if not all(0 < v < math.inf for v in (self.r, self.q, self.f0)):
            raise DataError("R, Q and f0 must all be finite and positive")

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
    """Distinct resonant modes covering all N DFT indices of an array.

    ``modes[m]`` is the mode of DFT index m (and N - m), in
    ``distinct_dft_indices`` order.
    """

    n: int
    modes: tuple

    def __post_init__(self):
        if self.n < 1 or len(self.modes) != self.n // 2 + 1:
            raise ValueError(f"need N >= 1 and N//2 + 1 modes, got N={self.n} "
                             f"and {len(self.modes)} modes")

    @classmethod
    def from_params(cls, n, params):
        """(R, Q, f0) triples in ``distinct_dft_indices`` order, N//2 + 1."""
        return cls(n, tuple(ResonantMode(*p) for p in params))

    def expand(self, values):
        """Per-mode scalars or equal-shape arrays on a new last axis of N.

        Entry k of that axis is the value of mode min(k, N - k).
        """
        return np.take(np.stack(values, axis=-1), _ring_index(self.n), axis=-1)


def distinct_dft_indices(n):
    """Representative DFT indices and multiplicities: pairs (m, N-m) merge."""
    return [(m, 1 if m == 0 or 2 * m == n else 2) for m in range(n // 2 + 1)]


def eigen_impedances(sweep: ArraySweep):
    """Per-mode eigen-impedance traces, shape (F, N), ordered by DFT index.

    The traces are the DFT of the completed first row, read at min(k, N - k)
    so that degenerate equalities (index m vs N-m) hold bitwise.  Raises if
    any mode resistance on the grid is non-positive.
    """
    lam = np.take(np.fft.fft(sweep.full_row(), axis=1), _ring_index(sweep.n),
                  axis=-1)
    re = lam.real
    if np.any(re <= 0):
        bad = np.argwhere(re <= 0)[0]
        raise ModelError(
            f"mode {bad[1]} has non-positive resistance inside the band "
            f"(Re lambda = {re[bad[0], bad[1]]:.4g})"
        )
    return lam


# Ported from SciPy 1.17, optimize/_optimize.py (BSD-3): same float operations.
def _bounded_min(fun, lo, hi, xatol):
    """Brent's bounded minimiser of ``fun`` on [lo, hi], 500 evaluations at most."""
    sqrt_eps, golden_mean = math.sqrt(2.2e-16), 0.5 * (3.0 - math.sqrt(5.0))
    a, b = float(lo), float(hi)
    nfc = xf = fulc = a + golden_mean * (b - a)
    rat = e = 0.0
    fx = ffulc = fnfc = fun(xf)
    for _ in range(499):
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if abs(xf - xm) <= tol2 - 0.5 * (b - a):
            break
        # the parabola's step, if it stays in (a, b) under half the one before last
        r = (xf - nfc) * (fx - ffulc)
        q = (xf - fulc) * (fx - fnfc)
        p = (xf - fulc) * q - (xf - nfc) * r
        q = 2.0 * (q - r)
        p, q = -p if q > 0.0 else p, abs(q)
        if (abs(e) > tol1 and abs(p) < abs(0.5 * q * e)
                and q * (a - xf) < p < q * (b - xf)):
            e, rat = rat, (p + 0.0) / q
            if xf + rat - a < tol2 or b - (xf + rat) < tol2:
                rat = tol1 if xm - xf >= 0 else -tol1
        else:
            e = a - xf if xf >= xm else b - xf
            rat = golden_mean * e
        step = max(abs(rat), tol1)
        x = xf + (step if rat >= 0 else -step)
        fu = fun(x)
        if fu <= fx:
            a, b = (xf, b) if x >= xf else (a, xf)
            fulc, ffulc, nfc, fnfc, xf, fx = nfc, fnfc, xf, fx, x, fu
        else:
            a, b = (x, b) if x < xf else (a, x)
            if fu <= fnfc or nfc == xf:
                fulc, ffulc, nfc, fnfc = nfc, fnfc, x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
    return xf


def _golden_min(fun, xa, xb, xc, xtol):
    """Golden-section minimiser in a bracket xa < xb < xc with f(xb) lowest."""
    gr = 0.61803399
    gc = 1.0 - gr
    if abs(xc - xb) > abs(xb - xa):
        x1, x2 = xb, xb + gc * (xc - xb)
    else:
        x1, x2 = xb - gc * (xb - xa), xb
    f1, f2 = fun(x1), fun(x2)
    for _ in range(5000):
        if abs(xc - xa) <= xtol * (abs(x1) + abs(x2)):
            break
        if f2 < f1:
            xa, x1, x2 = x1, x2, gr * x2 + gc * xc
            f1, f2 = f2, fun(x2)
        else:
            xc, x2, x1 = x2, x1, gr * x1 + gc * xa
            f2, f1 = f1, fun(x1)
    return x1 if f1 < f2 else x2


def fit_rlc(trace, grid: FrequencyGrid):
    """Fit a series-RLC resonance to one eigen-impedance trace.

    R is fixed to the band-average resistance; f0 is then refined from the
    reactance zero crossing by minimising the profiled squared residual of
    Im(lambda) against R Q (f/f0 - f0/f), with Q closed-form for each f0, by
    Brent's bounded search and a golden-section polish (Brent, 1973) that
    repeat SciPy 1.17's ``minimize_scalar``: the fitted bits equal SciPy's.
    """
    trace = np.asarray(trace, dtype=complex)
    f = grid.samples
    if f.size < 3:
        raise ValueError("fit band must contain at least three samples")
    re, im = trace.real, trace.imag

    if np.any(re <= 0):
        raise ModelError("resistance must stay positive in the fit band")
    r = float(np.mean(re))

    crossings = np.nonzero(np.diff(np.sign(im)) != 0)[0]
    if crossings.size == 0:
        raise ModelError("reactance does not cross zero in the fit band")
    k = crossings[0]
    # linear interpolation seed for the resonant frequency
    f0_seed = f[k] - im[k] * (f[k + 1] - f[k]) / (im[k + 1] - im[k])
    g, e = np.empty_like(f), np.empty_like(f)  # reused: no temporaries

    def profile(f0):
        """Closed-form Q at f0 and the squared residual it leaves."""
        np.subtract(np.divide(f, f0, out=g), np.divide(f0, f, out=e), out=g)
        denom = r * float(g @ g)
        q = 0.0 if denom == 0.0 else float(im @ g) / denom
        np.square(np.subtract(im, np.multiply(g, r * q, out=e), out=e), out=e)
        return q, float(np.add.reduce(e))

    def residual(f0):
        return profile(f0)[1]

    span = f[-1] - f[0]
    lo = max(f[0], f0_seed - 0.25 * span)
    hi = min(f[-1], f0_seed + 0.25 * span)
    x = _bounded_min(residual, lo, hi, 1e-12)
    # Brent's search stalls at ~sqrt(eps) relative; golden-section has no
    # such floor and polishes exact-model fits to near machine precision.
    step = max(1e-5 * x, 2.0 * abs(x - f0_seed) + 1e-12)
    f0 = x
    if residual(x - step) > residual(x) < residual(x + step):
        f0 = _golden_min(residual, x - step, x, x + step, 1e-13)
    q, sq = profile(f0)
    if q <= 0:
        raise ModelError(f"fitted quality factor is non-positive ({q:.4g})")
    return ResonantMode(r, q, f0, fit_residual=math.sqrt(sq / f.size))


def fit_modes(sweep: ArraySweep) -> EigenModeSet:
    """Eigen-decompose an array sweep and fit every distinct mode."""
    lam = eigen_impedances(sweep)
    return EigenModeSet(sweep.n, tuple(
        fit_rlc(lam[:, m], sweep.grid) for m in range(sweep.n // 2 + 1)))


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
    the carrier.  A series reactance tuning to the carrier would give Q' =
    Q max(f0, 1/f0) instead (ROADMAP item 3); only ``perfbench`` calls it.
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

    ``z_ref`` is one finite, positive reference resistance for every mode
    (default the 1-ohm system reference, in which case S22a equals z_to_s
    of the impedance matrices).  S21 is S12, made read-only.
    """
    lam = eigen_impedances(sweep)
    zr = float(z_ref)
    if not (math.isfinite(zr) and zr > 0):
        raise ValueError("reference resistances must be finite and positive")

    g = (lam - zr) / (lam + zr)
    t = np.sqrt(np.clip(1.0 - np.abs(g) ** 2, 0.0, None))

    q = dft_beamformer(sweep.n)
    qh = q.conj().T

    def assemble(diag):
        # two einsums keep the bits: einsum's sum-of-products does both
        return np.einsum("fij,jk->fik", np.einsum("ij,fj->fij", q, diag), qh)

    s12 = assemble(t.astype(complex))
    s12.flags.writeable = False  # reciprocal: one array is S12 and S21
    return MultiportS(assemble(-np.conj(g)), s12, s12, assemble(g), sweep.grid)


def sweep_from_modes(modes: EigenModeSet, grid: FrequencyGrid, d) -> ArraySweep:
    """Synthesise an ArraySweep whose eigen-impedances are the given modes.

    Inverts the DFT relation: the first row per sample is the inverse DFT of
    the eigenvalue vector ``expand`` places on all N indices, so
    eigen-decomposing the result recovers the mode traces exactly.
    """
    lam = modes.expand([m.impedance(grid.samples) for m in modes.modes])
    row = np.fft.ifft(lam, axis=1)
    return ArraySweep(n=modes.n, d=float(d), grid=grid,
                      first_row=row[:, :modes.n // 2 + 1])
