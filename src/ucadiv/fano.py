"""Gain-bandwidth limits for box-car matching of resonant modes.

For a series-RLC mode the two broadband matching constraints, evaluated in
the mode-normalized frequency f_n = f/f0 with a box-car reflection profile
of relative width W, collapse to

    (a)  W G0             = 2 pi / Q - 2 alpha / f0
    (b)  W G0 / (1-W^2/4) = 2 pi / Q - 2 alpha f0 / |z_r|^2

with G0 = -log |Gamma0|^2 and a conjugate pair of right-half-plane zeros
z_r = alpha +- j beta.  Choosing |z_r|^2 = f0^2 and alpha >> beta yields the
conservative closed form |Gamma0|^2 = exp(-2 pi (1 - W^2/4) / (Q W)).
"""

import math
from dataclasses import dataclass

import numpy as np

from .modes import ResonantMode

# VSWR <= 2 usability threshold on the in-band reflection magnitude.
GAMMA_USABLE = 1.0 / 3.0


@dataclass(frozen=True)
class MatchSpec:
    """Box-car matching budget for one mode at relative bandwidth W.

    ``gamma0`` is the conservative (capacity lower-bound) in-band reflection;
    ``gamma0_sq_upper``/``gamma0_sq_lower`` carry both closed-form bounds.
    ``rhp_zero`` is the diagnostic right-half-plane zero alpha + j beta
    (beta kept at 0; the conjugate pair is implied).
    """

    w: float
    gamma0: float
    gamma0_sq_upper: float
    gamma0_sq_lower: float
    rhp_zero: complex
    usable: bool
    q: float
    f0: float

    @property
    def gamma0_sq(self):
        return self.gamma0_sq_lower

    @property
    def transmissivity(self):
        """In-band power transmissivity 1 - |Gamma0|^2."""
        return 1.0 - self.gamma0 ** 2


def fano_boxcar(mode: ResonantMode, w) -> MatchSpec:
    """Evaluate the box-car matching budget of a mode over width W.

    gamma0^2 = exp(-2 pi (1 - W^2/4) / (Q W)); the optimistic bound
    exp(-2 pi / (Q W)) is reported alongside.  The RHP zero
    alpha = f0 pi W^2 / (4 Q) makes constraint (a) exact.
    """
    w = float(w)
    if not 0.0 < w < 2.0:
        raise ValueError(f"relative bandwidth must lie in (0, 2), got {w}")
    q, f0 = mode.q, mode.f0
    g_sq_lower = math.exp(-2.0 * math.pi * (1.0 - w * w / 4.0) / (q * w))
    g_sq_upper = math.exp(-2.0 * math.pi / (q * w))
    alpha = f0 * math.pi * w * w / (4.0 * q)
    gamma0 = math.sqrt(g_sq_lower)
    return MatchSpec(
        w=w,
        gamma0=gamma0,
        gamma0_sq_upper=g_sq_upper,
        gamma0_sq_lower=g_sq_lower,
        rhp_zero=complex(alpha, 0.0),
        usable=gamma0 <= GAMMA_USABLE,
        q=q,
        f0=f0,
    )


def boundary_bandwidth(q):
    """Width at which gamma0 = 1/3 exactly (the VSWR = 2 usability edge).

    Inverts the closed form: (pi/2) W^2 + Q ln 9 W - 2 pi = 0.
    """
    ln9 = math.log(9.0)
    return (-q * ln9 + math.sqrt(q * q * ln9 * ln9 + 4.0 * math.pi ** 2)) / math.pi


def boxcar_profile(spec: MatchSpec, center, f):
    """Reflection magnitude: gamma0 inside center (1 -+ W/2), 1 elsewhere."""
    f = np.asarray(f, dtype=float)
    lo = center * (1.0 - spec.w / 2.0)
    hi = center * (1.0 + spec.w / 2.0)
    out = np.where((f >= lo) & (f <= hi), spec.gamma0, 1.0)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class FanoResidualReport:
    """Residuals of the two matching constraints for a computed spec."""

    residual_a: float
    residual_b: float
    residual_b_bound: float
    quadrature_error: float

    @property
    def ok(self):
        return (
            abs(self.residual_a) < 1e-12
            and abs(self.residual_b) <= self.residual_b_bound + 1e-12
        )


def fano_integral_check(spec: MatchSpec, mode: ResonantMode) -> FanoResidualReport:
    """Integrate the box-car profile against both matching constraints.

    The band integrals are evaluated by quadrature in the mode-normalized
    frequency (they are closed-form for a box-car; the quadrature keeps the
    check independent of the construction).  Constraint (a) must be exact;
    the magnitude of the (b) residual is bounded by pi W^2 / (2 Q).
    """
    # imported here so that the Monte-Carlo path never loads scipy
    from scipy import integrate

    q, f0, w = mode.q, mode.f0, spec.w
    g0 = -math.log(spec.gamma0_sq_lower)
    alpha = spec.rhp_zero.real

    def logprof(fn):
        mag = boxcar_profile(spec, 1.0, fn)
        return -2.0 * np.log(mag)

    lo, hi = 1.0 - w / 2.0, 1.0 + w / 2.0
    int_a, err_a = integrate.quad(logprof, lo, hi)
    int_b, err_b = integrate.quad(lambda fn: logprof(fn) / fn ** 2, lo, hi)

    closed_a = w * g0
    closed_b = w * g0 / (1.0 - w * w / 4.0)
    quad_err = max(abs(int_a - closed_a), abs(int_b - closed_b), err_a, err_b)

    residual_a = int_a - (2.0 * math.pi / q - 2.0 * alpha / f0)
    # |z_r|^2 = f0^2 per the conjugate-pair choice
    residual_b = int_b - (2.0 * math.pi / q - 2.0 * alpha / f0)
    bound = math.pi * w * w / (2.0 * q)
    return FanoResidualReport(
        residual_a=float(residual_a),
        residual_b=float(residual_b),
        residual_b_bound=bound,
        quadrature_error=float(quad_err),
    )
