"""Coupled uniform circular arrays as frequency-dependent multiport networks.

The toolkit decomposes a mutually coupled ring of antennas into independent
eigen-modes, fits each mode as a series-RLC resonator, evaluates the
gain-bandwidth limits of box-car matching, and estimates diversity-OFDM
outage capacity versus element spacing by Monte-Carlo simulation.
"""

import os
# one BLAS thread per process unless set, before numpy loads (see README)
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

from .capacity import (
    OutageCurve,
    SimConfig,
    config_from_dict,
    load_config,
    outage,
    realization_capacity,
    run_monte_carlo,
    sweep,
)
from .channel import (
    CorrelationModel,
    draw_taps,
    realization_rng,
    spatial_correlation,
    taps_to_subcarriers,
    to_eigenbasis,
)
from .fano import MatchSpec, boxcar_profile, fano_boxcar, fano_integral_check
from .fixtures import (
    CouplingModel,
    fixture_sweep,
    isolated_mode,
    table1_fixture,
    table1_sweep,
)
from .frontend import (
    FrontEnd,
    NoiseCov,
    NoiseTemps,
    build_frontend,
    n0_normalize,
    noise_cov,
    subcarrier_grid,
)
from .io import config_hash, emit_curve, parse_impedance, write_impedance
from .modes import (
    ArraySweep,
    EigenModeSet,
    ResonantMode,
    eigen_impedances,
    eigen_mode_response,
    extend_to_2n_port,
    fit_modes,
    fit_rlc,
    mode_reflection,
    retune,
    sweep_from_modes,
    usable_bandwidth,
    vswr,
)
from .network import (
    FrequencyGrid,
    MultiportS,
    cascade,
    check_lossless,
    default_grid,
    dft_beamformer,
    through_network,
    z_to_s,
)

__version__ = "0.1.0"
