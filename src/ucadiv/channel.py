"""Spatially correlated quasi-static fading for circular arrays.

Open-circuit path gains follow the Kronecker model: each delay tap is
R_h^(1/2) w with w standard complex Gaussian, where the receive correlation
R_h comes from a discrete ring of equal-gain plane waves.  Sub-carrier
channel vectors are the DFT of the taps; the spatial DFT Q^H moves them to
the eigen-basis.  Every step after the draw accepts leading batch axes.
The Monte-Carlo kernel in ``capacity`` draws its white taps with
``draw_tap_blocks`` but correlates them as ``draw_taps`` does and does the
later steps itself, in antenna-major lanes, with the same bits as these
per-step functions.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ModelError, NumericError
from .modes import uca_pairwise_distance

# Eigenvalues of the plane-wave correlation matrix below this are treated
# as roundoff and clipped to zero when taking the matrix square root.
PSD_CLIP = -1e-10

# Blocks per realization_keys call in draw_tap_blocks: a call per block
# costs about half the draw, and one for all indices grows with their count.
_KEY_BLOCKS = 64

# Hash constants of numpy's SeedSequence, which realization_keys follows.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def realization_rng(seed, index):
    """Counter-based stream for one channel realization.

    Keyed purely by (seed, index), so any partitioning of realizations over
    workers reproduces the serial draw bit-for-bit.
    """
    key = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(index),))
    return np.random.Generator(np.random.Philox(key))


def _hash(value, mult, factor):
    """One SeedSequence hash step: the hashed value and the next multiplier."""
    step = mult * factor & _MASK32
    value = (value ^ mult) * step & _MASK32
    return value ^ value >> 16, step


def realization_keys(seed, indices):
    """Philox keys of ``realization_rng(seed, i)`` for each i, shape (B, 2).

    Row j equals ``SeedSequence(entropy=seed, spawn_key=(indices[j],))
    .generate_state(2, np.uint64)``.  The spawn key zero-pads the seed words
    to the pool size, which leaves the mixed pool that of
    ``SeedSequence(seed)``; the index word comes last and is hashed into it
    for the whole batch at once.
    """
    seed = int(seed)
    pool = np.random.SeedSequence(seed).pool.tolist()
    indices = np.asarray(indices, dtype=np.int64)
    if indices.size and (indices.min() < 0 or indices.max() > _MASK32):
        raise ValueError("realization indices must lie in [0, 2**32)")
    word = indices.astype(np.uint64)
    # the seed took four hashes per word, padded to at least four words
    n_hashes = 4 * max(4, -(-seed.bit_length() // 32))
    mult_a = _INIT_A * pow(_MULT_A, n_hashes, 1 << 32) & _MASK32
    mult_b = _INIT_B
    out = []
    for p in pool:
        h, mult_a = _hash(word, mult_a, _MULT_A)
        v = (_MIX_MULT_L * p - _MIX_MULT_R * h) & _MASK32
        v, mult_b = _hash(v ^ v >> 16, mult_b, _MULT_B)
        out.append(v)
    return np.stack([out[0] | out[1] << 32, out[2] | out[3] << 32], axis=-1)


@dataclass
class CorrelationModel:
    """Plane-wave spatial correlation of an N-element ring at spacing d."""

    r_h: np.ndarray
    sqrt_r_h: np.ndarray


def spatial_correlation(n, d, k_prime=32) -> CorrelationModel:
    """Correlation matrix from K' equal-power plane waves on a full circle.

    [R_h]_{nm} = sum_k |g|^2 exp(j 2 pi d_nm cos(phi_k)) with azimuths
    phi_k = 2 pi k / K' and isotropic element gains normalized so the
    diagonal is 1.  Distances d_nm are the ring chord lengths.
    """
    if n < 1:
        raise ValueError("need at least one antenna")
    if not d >= 0:  # NaN fails too
        raise ValueError("spacing must be nonnegative")
    if k_prime < 2 * n:
        raise ValueError(f"plane-wave count {k_prime} undersamples N={n}")
    chords = [uca_pairwise_distance(n, d, k) for k in range(n)]
    # from 2 pi d_max = 2**33 rad (d_max ~ 1.37e9 wavelengths) on, adjacent
    # floats lie over 1e-6 rad apart and the phases are rounding noise; an
    # infinite chord has an infinite ulp, so every phase that passes is finite
    if math.ulp(2.0 * math.pi * max(chords)) > 1e-6:
        raise NumericError(f"spacing {d} is too large for the phases of "
                           "the correlation matrix to be resolved")
    phi = 2.0 * np.pi * np.arange(k_prime) / k_prime
    gain_sq = 1.0 / k_prime
    idx = np.arange(n)
    dist = np.array(chords)[np.abs(idx[:, None] - idx)]
    r_h = gain_sq * np.exp(
        1j * 2.0 * np.pi * dist[..., None] * np.cos(phi)
    ).sum(axis=-1)
    r_h = 0.5 * (r_h + r_h.conj().T)  # kill roundoff asymmetry

    vals, vecs = np.linalg.eigh(r_h)
    if not np.min(vals) >= PSD_CLIP:  # NaN fails too
        raise ModelError(f"correlation matrix is not PSD (min eigenvalue "
                         f"{np.min(vals):.3g}): {k_prime} plane waves are too "
                         f"few for N = {n} at spacing {d}; raise planewaves")
    # roundoff-scale eigenvalues would turn into sqrt(eps) noise; zero them
    vals[vals < 1e-14 * max(vals.max(), 1.0)] = 0.0
    sqrt_r_h = (vecs * np.sqrt(vals)) @ vecs.conj().T
    return CorrelationModel(r_h=r_h, sqrt_r_h=sqrt_r_h)


def _white(re, im):
    """Standard complex Gaussian taps (re + j im) / sqrt(2) as a new array."""
    w = np.empty(re.shape, dtype=complex)
    w.real, w.imag = re, im
    w /= np.sqrt(2.0)
    return w


def draw_taps(model: CorrelationModel, l, profile, rng):
    """One quasi-static realization: L correlated tap vectors, shape (L, N).

    Tap l is sqrt(p_l) R_h^(1/2) w_l with w_l standard complex Gaussian.
    """
    profile = np.asarray(profile, dtype=float)
    if profile.shape != (l,):
        raise ValueError("profile length must equal the tap count")
    if not abs(profile.sum() - 1.0) <= 1e-9:  # NaN fails too
        raise ValueError("tap powers must sum to 1")
    re, im = rng.standard_normal((2, l, len(model.sqrt_r_h)))
    taps = _white(re, im) @ model.sqrt_r_h.T
    taps *= np.sqrt(profile)[:, None]
    return taps


def draw_tap_blocks(n, l, seed, indices, block):
    """White taps w of ``indices`` in (B, L, N) blocks, for every spacing.

    Row j is the white taps of ``draw_taps(model, l, profile,
    realization_rng(seed, i))`` bit for bit: one Philox generator, re-keyed
    per realization, starts each stream as ``realization_rng`` does.  The
    keys are derived per span of ``_KEY_BLOCKS`` blocks, so memory does not
    grow with the number of indices.
    """
    bitgen = np.random.Philox(0)
    rng = np.random.Generator(bitgen)
    # a fresh stream (counter 0, buffer_pos 4: empty buffer, has_uint32 0),
    # set whole per realization so no draw leaks into the next stream; as
    # plain lists, since the setter reads numpy arrays element by element
    fresh = bitgen.state
    state = {**fresh, "buffer": fresh["buffer"].tolist(),
             "state": {k: v.tolist() for k, v in fresh["state"].items()}}
    span = _KEY_BLOCKS * block
    for first in range(0, len(indices), span):
        keys = realization_keys(seed, indices[first:first + span])
        for start in range(0, len(keys), block):
            chunk = keys[start:start + block].tolist()
            # w[j] = (re, im) of realization j, filled in stream order
            w = np.empty((len(chunk), 2, l, n))
            for j, key in enumerate(chunk):
                state["state"]["key"] = key
                bitgen.state = state
                rng.standard_normal(out=w[j])
            yield _white(w[:, 0], w[:, 1])


def taps_to_subcarriers(taps, k):
    """Per-sub-carrier channel vectors h_k = sum_l taps[l] e^(-j 2 pi k l / K).

    Maps taps (..., L, N) to (..., K, N); requires the tap count (cyclic
    prefix length) not to exceed K.
    """
    taps = np.asarray(taps, dtype=complex)
    l = taps.shape[-2]
    if l > k:
        raise ModelError(f"tap count {l} exceeds sub-carrier count {k}")
    return np.fft.fft(taps, n=k, axis=-2)


def to_eigenbasis(h, q):
    """Effective path gains Q^H h per sub-carrier (rows of h, (..., K, N))."""
    h = np.asarray(h, dtype=complex)
    return h @ q.conj()
