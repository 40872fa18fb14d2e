"""Independent reference solutions for cross-validation.

Exact cell averages of the heat, constant-growth and viscous Burgers
(Cole-Hopf) presets, which `validate` compares against, and a conservative
finite-volume Burgers solver, tested against them and cross-checking the mild
solver in the acceptance suite.
"""

from __future__ import annotations

import math

import numpy as np

from .grids import Field, GridSpec, cell_means_from_cdf
from .kernel import ndtr

# burgers_cell_means' rule: panels of _CH_PANEL with _CH_ORDER nodes each
_CH_PANEL = 0.025
_CH_ORDER = 16
_CH_BLOCK = 64  # cell edges per block of Gaussian weights
_CH_ROUNDING = 1e-6  # largest rounding bound accepted in a cell average

# presets with exact cells, validate's -> (default times / T, None for all levels > 0; compare.l1)
VALIDATE_DEFAULTS = {"heat": (None, 1e-3), "exponential_growth": (None, 1e-3),
                     "burgers": ((0.25, 0.5, 1.0), 1e-2)}


def heat_oracle(u0_mean: float, u0_var: float, nu: float, t: float, x) -> np.ndarray | float:
    """Density of the heat evolution of a Gaussian: N(u0_mean, u0_var + nu t) at x."""
    if nu <= 0 or u0_var <= 0:
        raise ValueError("nu and u0_var must be positive")
    var = u0_var + nu * t
    z = (np.asarray(x, dtype=float) - u0_mean)
    out = np.exp(-0.5 * z * z / var) / math.sqrt(2.0 * math.pi * var)
    return float(out) if np.ndim(x) == 0 else out


def exp_mass_oracle(lam: float, t: float) -> float:
    """Total mass e^{lam t} forced by a constant growth rate."""
    return math.exp(lam * t)


def burgers_cell_means(u0, nu: float, t: float, grid: GridSpec) -> np.ndarray:
    """Exact cell averages on the grid of u_t = (nu/2) u_xx - u u_x at time t.

    Cole-Hopf: a cell average is -nu times the difference of log theta at the
    cell edges over dx, theta the heat flow (variance nu t) of exp(-U0/nu), U0
    the CDF of u0.  Of exp(-U0/nu) = e^{-1/nu} + (1 - e^{-1/nu}) H(-y) + r(y),
    the first two terms flow in closed form; r, smooth on either side of 0, is
    integrated by composite Gauss-Legendre on [-L, 0] and [0, L], L the fewest
    whole panels past which r vanishes.  Raises ValueError when u0 has mass
    outside the grid box, sqrt(nu t) is below a fifth of a panel, or nu is so
    small that theta's rounding may reach _CH_ROUNDING in a cell average.
    """
    h = _CH_PANEL
    s = math.sqrt(nu * t) if nu > 0 and t > 0 else 0.0
    if s < 0.2 * h:
        raise ValueError(f"sqrt(nu t) = {s:g} is below a fifth of a panel, {0.2 * h:g}")
    c = math.exp(-1.0 / nu)
    remainder = lambda y: np.exp(-u0.cdf(y) / nu) - c - (1.0 - c) * (y < 0)
    ends = h * np.arange(1, math.ceil(grid.R / h) + 1)  # |r| falls off either side of 0
    panels = 1 + int(np.sum(np.maximum(abs(remainder(-ends)), abs(remainder(ends))) > 1e-15))
    if panels > len(ends):
        raise ValueError(f"u0 carries mass outside the grid box [{-grid.R:g}, {grid.R:g}]")
    nodes, weights = np.polynomial.legendre.leggauss(_CH_ORDER)
    y = (h * (np.arange(-panels, panels)[:, None] + 0.5 * (nodes + 1.0))).ravel()
    wr = np.tile(0.5 * h * weights, 2 * panels) * remainder(y) / (s * math.sqrt(2.0 * math.pi))
    wr = np.stack((wr, np.abs(wr)))  # rows: theta's terms, their magnitudes
    edges = np.append(grid.x_nodes() - 0.5 * grid.dx, grid.R + 0.5 * grid.dx)
    theta = np.repeat(c + (1.0 - c) * ndtr(-edges / s)[:, None], 2, axis=1)
    for i in range(0, len(edges), _CH_BLOCK):
        # einsum, not BLAS: the sums must not depend on the BLAS thread count;
        # both operands summed along their contiguous last axis
        gauss = np.exp(-0.5 * np.square((edges[i : i + _CH_BLOCK, None] - y) / s))
        theta[i : i + _CH_BLOCK] += np.einsum("ij,kj->ik", gauss, wr)
    theta, size = theta.T
    slack = np.divide(size, theta, out=np.full_like(theta, np.inf), where=theta > 0)
    # a cell average's rounding: len(y) summed terms, each exp within a few eps of its weight
    rounding = (len(y) + 8) * np.finfo(float).eps * nu * np.max(slack[:-1] + slack[1:]) / grid.dx
    if not rounding <= _CH_ROUNDING:
        raise ValueError(f"nu = {nu:g} is too small for the exact rule (rounding {rounding:g})")
    return -nu * np.diff(np.log(theta)) / grid.dx


def exact_cell_means(problem, grid: GridSpec, levels) -> np.ndarray:
    """Exact cell averages of the heat, exponential_growth or burgers preset at `levels`.

    Every level whose solution is a Gaussian row, N(u0_mean, u0_var + nu t)
    scaled by the mass e^{lam t} (each level of heat and exponential_growth,
    and burgers' t = 0), comes from one cell_means_from_cdf call whose CDF
    broadcasts over a (levels, 1) column of standard deviations; ndtr
    evaluates it in cache-sized blocks.  Burgers levels at t > 0 take
    burgers_cell_means one level at a time.
    """
    if problem.name not in VALIDATE_DEFAULTS:
        raise ValueError(f"no exact solution for {problem.name!r}")
    nu = problem.Phi**2
    lam = float(problem.Lambda(0.0, 0.0, 0.0))  # each of these presets has a constant rate
    u0 = problem.u0
    times = grid.times()[levels]
    gauss = times <= 0.0 if problem.name == "burgers" else np.ones(len(times), dtype=bool)
    rows = np.empty((len(times), grid.n_x))
    sd = np.sqrt(u0.var + nu * times[gauss])[:, None]
    mass = np.array([exp_mass_oracle(lam, t) for t in times[gauss]])[:, None]
    rows[gauss] = cell_means_from_cdf(lambda x: ndtr((x - u0.mean) / sd), grid) * mass
    for i in np.flatnonzero(~gauss):
        rows[i] = burgers_cell_means(u0, nu, times[i], grid)
    return rows


def burgers_fd_reference(u0, nu: float, grid: GridSpec, refine: int = 4, cfl: float = 0.45,
                         max_steps: int = 20_000_000) -> Field:
    """Conservative finite-volume solve of u_t + d_x(u^2/2 - (nu/2) u_x) = 0.

    Runs on `refine` sub-cells per grid cell, which tile the grid's cells
    [-R - dx/2, R + dx/2] exactly, with an internally chosen stable explicit
    step and zero flux through the outer edges (telescoping fluxes conserve
    mass exactly).  The sub-cells start from the exact cell averages of u0,
    which must expose a cdf, and each time level of the grid gets the plain
    mean of every cell's sub-cells, so level 0 is the exact cell averages of
    u0.  After each level it checks the scheme's discrete maximum principle,
    0 <= u <= sup|u0|, and raises FloatingPointError when a step was unstable
    (e.g. cfl too large).
    """
    if nu <= 0:
        raise ValueError("nu must be positive")
    if refine < 1:
        raise ValueError("refine must be >= 1")
    fine = GridSpec(grid.R + 0.5 * (grid.dx - grid.dx / refine), refine * grid.n_x,
                    grid.n_t, grid.T)
    n_f, dx = fine.n_x, fine.dx
    u = cell_means_from_cdf(u0.cdf, fine)

    sup_u0 = float(np.abs(u).max())
    umax = max(sup_u0, 1e-12)
    dt_level = grid.dt
    dt_stable = cfl * min(dx * dx / nu, dx / umax)
    steps_per_level = max(1, int(np.ceil(dt_level / dt_stable)))
    if steps_per_level * grid.n_t > max_steps:
        raise RuntimeError(
            f"stability requires {steps_per_level * grid.n_t} steps at this "
            "resolution; coarsen the grid or raise max_steps"
        )
    dt = dt_level / steps_per_level

    square = np.empty(n_f)
    flux = np.zeros(n_f + 1)  # face fluxes; the two boundary faces stay 0
    interior = flux[1:-1]
    gradient = np.empty(n_f - 1)
    diff = np.empty(n_f)
    out = np.empty((grid.n_t + 1, grid.n_x))
    out[0] = _restrict(u, refine)
    for k in range(grid.n_t):
        for _ in range(steps_per_level):
            # interior fluxes 0.25 * (u[:-1]**2 + u[1:]**2) - (0.5 * nu) * diff(u) / dx,
            # evaluated in that order into the buffers
            np.square(u, out=square)
            np.add(square[:-1], square[1:], out=interior)
            interior *= 0.25
            np.subtract(u[1:], u[:-1], out=gradient)
            gradient *= 0.5 * nu
            gradient /= dx
            interior -= gradient
            np.subtract(flux[1:], flux[:-1], out=diff)
            diff *= dt / dx
            u -= diff
        # discrete maximum principle of the monotone scheme: 0 <= u <= sup|u0|
        # (written so that NaN fails it too)
        lo, hi = float(u.min()), float(u.max())
        if not (lo >= -1e-12 * sup_u0 and hi <= (1.0 + 1e-12) * sup_u0):
            raise FloatingPointError(
                f"finite-volume reference left its maximum principle at level {k + 1} "
                f"(t = {(k + 1) * dt_level:.6g}): u in [{lo:.6g}, {hi:.6g}], "
                f"sup|u0| = {sup_u0:.6g}; lower cfl (now {cfl:g})"
            )
        out[k + 1] = _restrict(u, refine)
    return Field(grid, out)


def _restrict(fine: np.ndarray, refine: int) -> np.ndarray:
    """Cell averages of a grid from those of its `refine` sub-cells per cell."""
    return fine.reshape(-1, refine).mean(axis=1)
