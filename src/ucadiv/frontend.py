"""Matched receive front-end per OFDM sub-carrier, and the coupled noise model.

Everything is diagonal in the eigen-basis: per sub-carrier k the front-end
carries a reflection matrix Gamma_k and transmissivity T_k with
T_k T_k^H = I - Gamma_k Gamma_k^H, and the load-referenced noise covariance

    Sigma_nk = 4 kB B [(T_A - T_r) Re(Lambda_A) (I - Gamma_k Gamma_k^H)
                       + (T_f + T_r) I]

with the forward/reverse noise correlation taken as negligible.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ModelError, NumericError
from .fano import boxcar_profile
from .modes import EigenModeSet

K_B = 1.380649e-23  # Boltzmann constant, J/K (exact in the 2019 SI)


@dataclass(frozen=True)
class NoiseTemps:
    """Antenna / forward / reverse effective noise temperatures.

    Expressed as ratios of the standard temperature T0 throughout the
    capacity pipeline; kelvin only matters for report output.
    """

    t_antenna: float = 1.0
    t_forward: float = 2.0
    t_reverse: float = 0.0

    def __post_init__(self):
        temps = (self.t_antenna, self.t_forward, self.t_reverse)
        if not all(math.isfinite(t) and t >= 0 for t in temps):
            raise ValueError(
                "noise temperatures must be finite and nonnegative"
            )


def subcarrier_grid(k, w, center=1.0):
    """K sub-carrier frequencies at the midpoints of equal slices of the band."""
    if k < 1:
        raise ValueError("need at least one sub-carrier")
    offsets = (np.arange(k) + 0.5) / k - 0.5
    return center * (1.0 + w * offsets)


@dataclass
class FrontEnd:
    """Per-sub-carrier diagonal reflection/transmissivity in the eigen-basis.

    ``gamma`` and ``trans`` have shape (K, N): diagonal entries expanded over
    mode multiplicities, ordered by DFT index.
    """

    freqs: np.ndarray
    gamma: np.ndarray
    trans: np.ndarray

    @property
    def n_ports(self):
        return self.gamma.shape[1]


def build_frontend(modes: EigenModeSet, specs, freqs, band_center=1.0) -> FrontEnd:
    """Assemble the box-car matched front-end on a sub-carrier grid.

    ``specs`` maps each distinct mode (same order as ``modes.modes``) to its
    MatchSpec.  Each diagonal entry of Gamma_k is the owning mode's box-car
    profile at the sub-carrier frequency; T_k = sqrt(1 - |Gamma_k|^2).
    Sub-carriers outside every matched band leave all modes dark.
    """
    freqs = np.asarray(freqs, dtype=float)
    specs = list(specs)
    if len(specs) != len(modes.modes):
        raise ModelError(
            f"need one match spec per distinct mode "
            f"({len(modes.modes)}), got {len(specs)}"
        )
    n = modes.n
    gamma = np.empty((freqs.size, n))
    for mode, spec in zip(modes.modes, specs):
        profile = boxcar_profile(spec, band_center, freqs)
        gamma[:, mode.dft_index] = profile
        if mode.multiplicity > 1:
            gamma[:, n - mode.dft_index] = profile
    if np.all(gamma >= 1.0):
        raise ModelError("sub-carrier grid lies outside every matched band")
    trans = np.sqrt(np.clip(1.0 - gamma ** 2, 0.0, None))
    return FrontEnd(freqs=freqs, gamma=gamma, trans=trans)


@dataclass
class NoiseCov:
    """Diagonal eigen-basis noise covariance per sub-carrier.

    ``diag`` has shape (K, N) in units of 4 kB B T0; ``n0`` is the i.i.d.
    normalization in the same units, so ``diag / n0`` is what the capacity
    expression consumes.
    """

    diag: np.ndarray
    n0: float

    def normalized(self):
        return self.diag / self.n0

    def in_kelvin_units(self, bandwidth_hz):
        """Absolute covariance entries, 4 kB B (T0 = 1 K) folded back in."""
        return 4.0 * K_B * bandwidth_hz * self.diag


def noise_cov(front: FrontEnd, mode_resistances, temps: NoiseTemps,
              n0=1.0) -> NoiseCov:
    """Eigen-basis noise covariance Sigma_nk / (4 kB B T0) per sub-carrier.

    ``mode_resistances`` is the length-N diagonal of Re(Lambda_A) (fitted
    per-mode resistances, multiplicity-expanded, in units of the reference
    impedance).
    """
    r = np.asarray(mode_resistances, dtype=float)
    if r.shape != (front.n_ports,):
        raise ValueError("need one resistance per DFT index")
    if np.any(r <= 0):
        raise ValueError("mode resistances must be positive")
    ta, tf, tr = temps.t_antenna, temps.t_forward, temps.t_reverse
    diag = (ta - tr) * r * (1.0 - front.gamma ** 2) + (tf + tr)
    return NoiseCov(diag=diag, n0=float(n0))


def n0_normalize(temps: NoiseTemps, z_a_isolated, gamma_iid):
    """i.i.d. noise floor N0 / (4 kB B T0) for an isolated reference antenna.

    N0 = T_A Re(z_A) (1 - |Gamma_iid|^2) + T_f + T_r |Gamma_iid|^2; an N0
    that is not positive would make every normalized sample 0/0, so it
    raises NumericError.
    """
    if not 0.0 <= gamma_iid <= 1.0:
        raise ValueError("gamma_iid must lie in [0, 1]")
    re_z = float(np.real(z_a_isolated))
    g2 = gamma_iid ** 2
    n0 = (
        temps.t_antenna * re_z * (1.0 - g2)
        + temps.t_forward
        + temps.t_reverse * g2
    )
    if not n0 > 0.0:
        raise NumericError(f"reference noise floor N0 = {n0:g} is not positive")
    return n0
