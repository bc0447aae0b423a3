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

from .errors import NumericError
from .modes import ResonantMode

# VSWR <= 2 usability threshold on the in-band reflection magnitude.
GAMMA_USABLE = 1.0 / 3.0


@dataclass(frozen=True)
class MatchSpec:
    """Box-car matching budget for one mode at relative bandwidth W.

    ``gamma0`` is the conservative (capacity lower-bound) in-band reflection
    and ``gamma0_sq`` its square; ``gamma0_sq_upper`` is the optimistic
    closed-form bound.  ``alpha`` is the real part of the diagnostic
    right-half-plane zero pair alpha +- j beta, with beta taken as 0.
    """

    w: float
    gamma0: float
    gamma0_sq_upper: float
    gamma0_sq: float
    alpha: float

    @property
    def usable(self):
        """VSWR <= 2 over the band: gamma0 <= 1/3."""
        return self.gamma0 <= GAMMA_USABLE

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
    return MatchSpec(w=w, gamma0=math.sqrt(g_sq_lower),
                     gamma0_sq_upper=g_sq_upper, gamma0_sq=g_sq_lower,
                     alpha=alpha)


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


# QUADPACK's QK21 (Piessens et al., 1983), literals as in SciPy's _quad_vec:
# nodes from 1 to the centre, their Kronrod weights, Gauss weights of odd j.
_XGK = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
        0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
        0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
        0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
        0.294392862701460198131126603103866, 0.148874338981631210884826001129720)
_WGK = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
        0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
        0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
        0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
        0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
        0.149445554002916905664936468389821)
_WG = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
       0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
       0.295524224714752870173892994651338)


def _gk21(f, a, b):
    """QK21 on [a, b]: (result, abserr) in QUADPACK's summation order."""
    centr, hlgth = 0.5 * (a + b), 0.5 * (b - a)
    dx = hlgth * np.array(_XGK)
    fc, *v = f(np.concatenate(([centr], centr - dx, centr + dx))).tolist()
    resg, resk = 0.0, _WGK[10] * fc
    resabs = abs(resk)
    # the Gauss nodes first, then the Kronrod-only ones, as QK21 adds them
    for j in (1, 3, 5, 7, 9, 0, 2, 4, 6, 8):
        f1, f2 = v[j], v[10 + j]
        if j % 2:
            resg = resg + _WG[j // 2] * (f1 + f2)
        resk = resk + _WGK[j] * (f1 + f2)
        resabs = resabs + _WGK[j] * (abs(f1) + abs(f2))
    reskh = resk * 0.5
    resasc = _WGK[10] * abs(fc - reskh)
    for j in range(10):
        resasc = resasc + _WGK[j] * (abs(v[j] - reskh) + abs(v[10 + j] - reskh))
    resabs, resasc = resabs * abs(hlgth), resasc * abs(hlgth)
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        abserr = resasc * min(1.0, (200.0 * abserr / resasc) ** 1.5)
    if resabs > 2.2250738585072014e-308 / (50.0 * 2.0 ** -52):
        abserr = max(50.0 * 2.0 ** -52 * resabs, abserr)
    return resk * hlgth, abserr


def _quad(f, a, b):
    """QK21 of ``f`` on 1-D node arrays, bisecting the worst panel until the
    summed error meets quad's max(1.49e-8, 1.49e-8 |result|), 50 panels max."""
    panels = [(*_gk21(f, a, b), a, b)]
    while True:
        result, abserr = sum(p[0] for p in panels), sum(p[1] for p in panels)
        if abserr <= max(1.49e-8, 1.49e-8 * abs(result)):
            return result, abserr
        if len(panels) == 50:
            raise NumericError(f"quadrature on [{a:.6g}, {b:.6g}] misses its "
                               f"tolerance in 50 panels (error {abserr:.3g})")
        worst = max(range(len(panels)), key=lambda i: panels[i][1])
        _, _, lo, hi = panels.pop(worst)
        mid = 0.5 * (lo + hi)
        panels += [(*_gk21(f, lo, mid), lo, mid), (*_gk21(f, mid, hi), mid, hi)]


@dataclass(frozen=True)
class FanoResidualReport:
    """Residuals of the two matching constraints for a computed spec."""

    residual_a: float
    residual_b: float
    residual_b_bound: float

    @property
    def ok(self):
        return (
            abs(self.residual_a) < 1e-12
            and abs(self.residual_b) <= self.residual_b_bound + 1e-12
        )


def fano_integral_check(spec: MatchSpec, mode: ResonantMode) -> FanoResidualReport:
    """Integrate the box-car profile against both matching constraints.

    The band integrals are evaluated by quadrature in the mode-normalized
    frequency (closed-form for a box-car, but quadrature keeps the check
    independent of the construction).  Constraint (a) must be exact; the (b)
    residual's magnitude is bounded by pi W^2 / (2 Q).  The rule is QK21
    (QUADPACK; Piessens et al., 1983), one integrand call per panel: where a
    pass meets quad's tolerance (W <= 1.25) the bits equal SciPy 1.17's
    ``quad``; wider bands are bisected.  Q W < ~0.0084 underflows: NumericError.
    """
    q, f0, w = mode.q, mode.f0, spec.w
    if spec.gamma0_sq == 0.0:
        raise NumericError(f"box-car budget of the mode with Q = {q:.6g} at "
                           f"W = {w:.6g} underflows double precision")

    def logprof(fn):
        return -2.0 * np.log(boxcar_profile(spec, 1.0, fn))

    lo, hi = 1.0 - w / 2.0, 1.0 + w / 2.0
    int_a, _ = _quad(logprof, lo, hi)
    int_b, _ = _quad(lambda fn: logprof(fn) / fn ** 2, lo, hi)

    # |z_r|^2 = f0^2 per the conjugate-pair choice: (b) has (a)'s right side
    budget = 2.0 * math.pi / q - 2.0 * spec.alpha / f0
    return FanoResidualReport(
        residual_a=float(int_a - budget),
        residual_b=float(int_b - budget),
        residual_b_bound=math.pi * w * w / (2.0 * q),
    )
