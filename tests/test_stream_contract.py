"""The v1 ``(seed, realization index)`` stream contract, pinned by digest.

Every Monte-Carlo sample is a function of (seed, index) alone, so the
kernel's samples over a fixed grid hash to one value.  A change that keeps
the contract keeps that value; one that shifts a single bit anywhere (in
the kernel or in a helper it shares with the per-realization reference
path, where kernel-versus-reference tests would not see it) changes it.

The digests hold for this build: numpy 2.4.6 on OpenBLAS 0.3.31, like
``perfbench/reference.json``.  Another numpy, BLAS or CPU kernel may round
differently without breaking the contract; re-pin only after the
kernel-versus-reference tests pass on that build and with the change
recorded.
"""

import hashlib

import numpy as np
import pytest

from ucadiv.capacity import SimConfig, _kernel_inputs, _monte_carlo

SPACINGS = (0.05, 0.25, 1.0)
# blocks hold 128 realizations up to N = 8, and fewer where a block of K N
# complex entries would pass the kernel's 1 MiB budget: 113 at N = 9, 64 at
# N = 16 and 60 at N = 17 (K = 64).  3 and 64 are short blocks, but 64 fills
# one at N = 16; 131 is one full block and a ragged tail, or two full
# blocks and a tail at N = 16 and 17
COUNTS = (3, 64, 131)

DIGESTS = {
    1: "f3c770b0251fb9e6ef812fe7ca270034e176c3dc41cb50d2db1f97e23b123655",
    2: "03c9de4eef9562de8c23c08652b8f81989bfe248b6042ffbc505987f8c96cce0",
    3: "2746c0c8f9cc4118353b5d136384d2d6acc2604646e7f0be585998a48fcee6d5",
    4: "4d779dd57f75b60c9bd605845f532e7efa7a377e0c59849f1c29577d935a8abd",
    5: "85237467ae27e531cea51e0cabb14dbecf1d6ee1df12d1f7f0f67ace94897f20",
    8: "b322d399359c4d7120a7264cc88103536c98d49c6474f20a4093438669260f7c",
    9: "9cd4ed31122e664ce277b0a721635c4efc00adfbb9b108d32c7a67898b7065f0",
    16: "0cd0b510d56b1bbb417b37ae1b12d8366889742a35980ed5085aa6e6c632310f",
    17: "a515e6e51fdd3e6646b210c8e779f8d522377f41825f694d2b3da5e85f1e85cb",
}


def grid_digest(n):
    """sha256 over the samples of every (coupling, count) case at N = n.

    Each case runs all three spacings through one ``_monte_carlo`` call, as
    a sweep does; the last case splits 131 realizations over 3 workers.
    """
    cases = [(coupling, m, 1) for coupling in (True, False) for m in COUNTS]
    cases.append((True, COUNTS[-1], 3))
    digest = hashlib.sha256()
    for coupling, m, workers in cases:
        cfg = SimConfig(n_antennas=n, spacings=SPACINGS, coupling=coupling,
                        realizations=m, outage_p=0.49, seed=4242,
                        # N = 17 needs more plane waves than the 32 default
                        planewaves=max(32, 2 * n), workers=workers)
        points = [_kernel_inputs(cfg, d) for d in SPACINGS]
        for samples in _monte_carlo(cfg, points):
            assert isinstance(samples, np.ndarray) and samples.shape == (m,)
            digest.update(samples.astype("<f8").tobytes())
    return digest.hexdigest()


def test_counts_cover_a_full_block_and_a_tail(used_blocks):
    # a later block size must not silently drop the full-block case: the
    # block each pinned N uses is read from the kernel's draw_tap_blocks
    for n in sorted(DIGESTS):
        cfg = SimConfig(n_antennas=n, realizations=3, outage_p=0.49,
                        planewaves=max(32, 2 * n))
        _monte_carlo(cfg, [_kernel_inputs(cfg, 0.25)])
        block = used_blocks.pop()
        assert COUNTS[-1] > block and COUNTS[-1] % block, (n, block)


@pytest.mark.parametrize("n", sorted(DIGESTS))
def test_samples_keep_the_v1_stream(n):
    assert grid_digest(n) == DIGESTS[n]
