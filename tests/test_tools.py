"""The repository's tools against this tree: the private names they count."""

import json
import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)

# one piece of each work column of tools/pool_diff.py, made through the
# library's own calls: a scalar solve, a stack of two matrices, one transform
# of a capacity kernel with two Rayleigh laws, and a Gaussian copula on one
# inner row of two cells
COUNTED_WORK = """\
import json, sys
import numpy as np
import pool_diff
counts = pool_diff._count_work()
from mapq import copulas, spectral
from mapq.channel import ChannelSpec, capacity_kernel
from mapq.laws import DiscretePmf
law = DiscretePmf((0.0, 2.0), (0.5, 0.5))
kernel = spectral.MapKernel(("a", "b"), np.array([[0.6, 0.4], [0.3, 0.7]]), ((law,) * 2,) * 2,
                            np.array([0.5, 0.5]))
spectral.perron(kernel, 0.5)
spectral.perron_grid(kernel, np.array([0.25, 0.75]))
snr = np.array([[10.0, 10.0], [1.0, 1.0]])
spectral.transform_matrix(capacity_kernel(np.full((2, 2), 0.5), ChannelSpec(20.0, snr, ("hi", "lo"))),
                          0.5)
copulas.Gaussian2(0.5).eval_grid([0.0, 0.5, 1.0], [0.3, 0.7])
print(json.dumps(dict(zip(pool_diff.WORK, counts))))
"""


def test_pool_diff_counts_every_work_column_of_this_tree():
    # pool_diff wraps private names of mapq; one that is renamed or no longer
    # called would count nothing, or fail only when the tool runs the pool
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), os.path.join(ROOT, "tools")]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    out = subprocess.run([sys.executable, "-c", COUNTED_WORK], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert json.loads(out) == {"scalar solves": 1, "stacked matrices": 2,
                               "Rayleigh integrations": 2, "quadrature calls": 1,
                               "bvn_cdf calls": 2}
