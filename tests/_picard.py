"""The Picard iteration glued over a whole run: the oracle that tests hold
mild.solve's forward slabs against.

mild.solve finds each slab's fixed point by one slab sweep run in place
(forward substitution) and never iterates.  picard_solve instead iterates
the Jacobi sweep of the slab map (mild.solve_slab) on every slab from
v = perturb * u0_hat, so that a perturbed start checks the uniqueness of
the fixed point and the residual histories show the contraction the paper
proves.
"""

import numpy as np

from mfklab import mild
from mfklab.grids import Field, cell_means_from_cdf


def picard_solve(problem, grid, tol, perturb, max_iter=200):
    """Glue Picard slab solves into a field on [0, T].

    Each slab stops at the per-slab threshold tol * tau / T, so that tol
    bounds the accumulated iteration error of the whole run, and max_iter
    bounds the sweeps of each slab.  Returns (field, states), one
    PicardState per slab with its residual history and max_abs_w.
    """
    m = grid.levels_per_slab
    times = grid.times()
    u = np.empty((grid.n_t + 1, grid.n_x))
    u[0] = cell_means_from_cdf(problem.u0.cdf, grid)
    stencils = mild.build_slab_stencils(problem, grid)
    states = []
    for k in range(grid.n_slabs):
        u_slab, state = mild.solve_slab(times[k * m], u[k * m], problem, grid, stencils,
                                        tol=tol * grid.tau / grid.T, max_iter=max_iter,
                                        perturb=perturb, slab_index=k)
        u[k * m : (k + 1) * m + 1] = u_slab
        states.append(state)
    return Field(grid, u), states


def monitor_ok(histories, pi_C2_tau):
    """Whether every slab's residuals h obey the two-sweep recursion
    h[i + 2] <= pi C^2 tau max(h[:i + 1]); it bounds anything only when
    pi_C2_tau < 1."""
    return all(h[i + 2] <= pi_C2_tau * max(h[: i + 1]) * (1.0 + 1e-9)
               for h in histories for i in range(len(h) - 2))
