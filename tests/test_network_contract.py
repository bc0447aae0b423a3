"""The network chain's output bits, pinned by digest.

``z_to_s``, ``extend_to_2n_port``, ``cascade`` and ``check_lossless``
are deterministic functions of the fixture sweep, so their outputs over a
fixed grid hash to one value per array size.  A change to how the chain
checks or solves its per-sample systems that keeps every output bit keeps
that value; one that moves a single bit changes it.

Each digest covers, for every default spacing: the ``z_to_s`` scattering
sweep and its round trip through the ``s_to_z`` oracle below; the four
blocks of the 2N-port completion; the four blocks of that completion
cascaded with a through network and with a second completion (reference
resistance 2 ohm); and the worst deviation ``check_lossless`` reports for
both cascades.  The same digests hold whatever slab size ``cascade`` and
``check_lossless`` use.

The digests were computed with the per-sample singular guard that ran a
full ``np.linalg.cond`` over every sample, before the guard learned to clear
samples by a determinant bound, and hold for numpy 2.4.6 on OpenBLAS
0.3.31, like ``perfbench/reference.json``.  Another numpy, BLAS or CPU
kernel may round differently; re-pin only on such a build change, with the
change recorded.
"""

import hashlib

import numpy as np
import pytest

from ucadiv import (SimConfig, cascade, check_lossless, extend_to_2n_port,
                    fixture_sweep, network, through_network, z_to_s)

SPACINGS = SimConfig().spacings

DIGESTS = {
    1: "c34bb78c01ed42f3b4ebd35a6c65a32a009b0acb18049a11c7101ca635900983",
    2: "c521b5b3269a044b9d11cb584170193541ac8966e5f028ab9f2b917fa46dca52",
    3: "d51a59e2ca838ad2ca6a2cc9817ad4f0cb3458f3de2d735dcc7715815f59e914",
    4: "082b5cc238cc50f6d9b74b253ec92d86c59de80afe4c5ea76abc8a3efacafee1",
    5: "821f0c4204f8deaf46c472674e1665d96a499f3695f17c8751bd59c29298a37a",
    8: "100b972a476065735bb5be8cb344792bd6413d29d76a7f86da91a10e693ef1fb",
    16: "f800d1af9e3899e6988bf36c1e7a243038f48371ee436a8d3313c6778b402cd4",
}


def s_to_z(s, z_ref=1.0, grid=None):
    """Oracle inverse of ``z_to_s``: z_ref (I + S)(I - S)^-1.

    The float operations of the conversion the digests were pinned with:
    the transposed system, then a complex multiply by ``z_ref``.
    """
    eye = np.eye(s.shape[1], dtype=complex)
    zt = network._solve_per_sample(np.transpose(eye - s, (0, 2, 1)),
                                   np.transpose(eye + s, (0, 2, 1)),
                                   grid, "(I - S), total reflection")
    return z_ref * np.transpose(zt, (0, 2, 1))


def chain_digest(n):
    """sha256 over every network-chain output of the N = n fixtures."""
    digest = hashlib.sha256()

    def add(*arrays):
        for a in arrays:
            digest.update(np.ascontiguousarray(a, dtype="<c16").tobytes())

    for d in SPACINGS:
        sweep = fixture_sweep(n, d)
        z = sweep.impedance_matrices()
        s = z_to_s(z, grid=sweep.grid)
        add(s, s_to_z(s, grid=sweep.grid))
        ext = extend_to_2n_port(sweep)
        add(ext.s11, ext.s12, ext.s21, ext.s22)
        for other in (through_network(n, sweep.grid),
                      extend_to_2n_port(sweep, z_ref=2.0)):
            chained = cascade(ext, other)
            add(chained.s11, chained.s12, chained.s21, chained.s22)
            passed, worst = check_lossless(chained)
            assert passed
            digest.update(np.float64(worst).astype("<f8").tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("n", sorted(DIGESTS))
def test_network_chain_keeps_its_bits(n):
    assert chain_digest(n) == DIGESTS[n]


@pytest.mark.parametrize("slab_bytes", [1, 2**40],
                         ids=["one-sample-slabs", "one-slab"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_slab_size_keeps_the_bits(n, slab_bytes, monkeypatch):
    monkeypatch.setattr(network, "_SLAB_BYTES", slab_bytes)
    assert chain_digest(n) == DIGESTS[n]
