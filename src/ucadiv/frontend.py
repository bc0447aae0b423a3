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


@dataclass(frozen=True)
class NoiseTemps:
    """Antenna / forward / reverse effective noise temperatures.

    Ratios of the standard temperature T0: every noise quantity is in
    units of 4 kB B T0, so neither kelvin nor the bandwidth B enters a
    result.
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


def subcarrier_grid(k, w):
    """K sub-carrier frequencies: slice midpoints of the band centred on fc."""
    if k < 1:
        raise ValueError("need at least one sub-carrier")
    offsets = (np.arange(k) + 0.5) / k - 0.5
    return 1.0 + w * offsets


@dataclass
class FrontEnd:
    """Per-sub-carrier diagonal reflection in the eigen-basis.

    ``gamma`` has shape (K, N): diagonal entries expanded over mode
    multiplicities, ordered by DFT index.  The power transmissivity is
    1 - gamma**2.
    """

    gamma: np.ndarray


def build_frontend(modes: EigenModeSet, specs, freqs) -> FrontEnd:
    """Assemble the box-car matched front-end on a sub-carrier grid.

    ``specs`` maps each distinct mode (same order as ``modes.modes``) to its
    MatchSpec.  Each diagonal entry of Gamma_k is the owning mode's box-car
    profile at the sub-carrier frequency.
    Sub-carriers outside every matched band leave all modes dark.
    """
    freqs = np.asarray(freqs, dtype=float)
    specs = list(specs)
    if len(specs) != len(modes.modes):
        raise ModelError(
            f"need one match spec per distinct mode "
            f"({len(modes.modes)}), got {len(specs)}"
        )
    gamma = modes.expand([boxcar_profile(s, 1.0, freqs) for s in specs])
    if np.all(gamma >= 1.0):
        raise ModelError("every |Gamma| is 1: the grid is outside every "
                         "band, or every budget reflects fully")
    return FrontEnd(gamma=gamma)


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


def noise_cov(front: FrontEnd, mode_resistances, temps: NoiseTemps,
              n0=1.0) -> NoiseCov:
    """Eigen-basis noise covariance Sigma_nk / (4 kB B T0) per sub-carrier.

    ``mode_resistances`` is the length-N diagonal of Re(Lambda_A), per-mode
    resistances placed on all N DFT indices by ``EigenModeSet.expand``.
    They enter as given: the Monte-Carlo setup passes R in ohms, and its
    ``n0`` the isolated element's R in ohms (ROADMAP item 2).
    """
    r = np.asarray(mode_resistances, dtype=float)
    if r.shape != front.gamma.shape[1:]:
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
