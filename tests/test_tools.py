"""The repository's tools against this tree: the work that pool_diff reports."""

import os
import sys

import numpy as np

from mapq import copulas, counters, spectral
from mapq.channel import ChannelSpec, capacity_kernel
from mapq.laws import DiscretePmf

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "tools"))
import pool_diff  # noqa: E402


def test_pool_diff_counts_every_work_column_of_this_tree():
    # a scalar solve, a stack of two matrices, one transform of a capacity
    # kernel with two Rayleigh laws, and a Gaussian copula on one inner row
    # of two cells
    assert pool_diff.WORK == tuple(counters.COUNTS)
    law = DiscretePmf((0.0, 2.0), (0.5, 0.5))
    kernel = spectral.MapKernel(("a", "b"), np.array([[0.6, 0.4], [0.3, 0.7]]),
                                ((law,) * 2,) * 2, np.array([0.5, 0.5]))
    snr = np.array([[10.0, 10.0], [1.0, 1.0]])
    service = capacity_kernel(np.full((2, 2), 0.5), ChannelSpec(20.0, snr, ("hi", "lo")))
    done = pool_diff.work_since()
    spectral.perron(kernel, 0.5)
    spectral.perron_grid(kernel, np.array([0.25, 0.75]))
    spectral.transform_matrix(service, 0.5)
    copulas.Gaussian2(0.5).eval_grid([0.0, 0.5, 1.0], [0.3, 0.7])
    assert dict(zip(pool_diff.WORK, done())) == {
        "scalar_solves": 1, "stacked_matrices": 2, "rayleigh_integrations": 2,
        "quadrature_calls": 1, "bvn_cdf_calls": 2}
