"""Running counts of the numerical work mapq does, kept by the solvers themselves.

    scalar_solves          perron's eigensolves (a kept solution adds none), one-state
                           closed forms included
    stacked_matrices       matrices of perron_grid stacks that go to the batched
                           eigensolve (a one-state stack is solved in closed
                           form, with none)
    rayleigh_integrations  Rayleigh capacity laws integrated: the rows of each
                           quadrature's (law, theta) exponent stack
    quadrature_calls       those quadratures, one per Rayleigh transform of a call
    quadrature_steps       the steps those quadratures evaluate, step 1/8 included
    bvn_cdf_calls          bivariate normal CDFs (copulas.bvn_cdf, the Gaussian
                           copula's work)
    state_draws            uniforms the state samplers (sim._blocks and
                           sim._path_states) draw, for initial states and moves
    increment_draws        increments sim._increments returns

A plain dict, since mapq runs in one thread.  The counts only grow and nothing
resets them, so a reader takes differences:

    done = counters.tally()
    ...
    done()["scalar_solves"]  # perron eigensolves since tally()
"""

COUNTS = dict.fromkeys(("scalar_solves", "stacked_matrices", "rayleigh_integrations",
                        "quadrature_calls", "quadrature_steps", "bvn_cdf_calls", "state_draws",
                        "increment_draws"), 0)


def tally():
    """A function that returns, as a dict, the COUNTS added since tally() was called."""
    start = dict(COUNTS)
    return lambda: {k: n - start[k] for k, n in COUNTS.items()}
