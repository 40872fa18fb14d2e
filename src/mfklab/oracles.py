"""Independent reference solutions for cross-validation.

Closed forms for the heat and constant-growth presets, the explicit Burgers
expectation formula evaluated by Gauss-Hermite quadrature, and a conservative
finite-volume reference solver for viscous Burgers.  The finite-volume solver
is the arbiter for Burgers acceptance: it is independently checkable through
exact mass conservation and grid self-convergence, whereas the expectation
formula ships in two scalings (see burgers_expectation_formula) that must be
compared against it before trust.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .grids import Field, GridSpec

GH_NODES_DEFAULT = 200


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


def burgers_expectation_formula(u0, nu: float, t: float, x,
                                quad_nodes: int = GH_NODES_DEFAULT,
                                variant: str = "nu_squared") -> np.ndarray | float:
    """Explicit Burgers solution as a ratio of Gaussian expectations.

    variant="nu_squared" evaluates E[u0(x + nu B_t) e^{-U0(x + nu B_t)/nu^2}]
    over E[e^{-U0(x + nu B_t)/nu^2}]; variant="cole_hopf" uses x + sqrt(nu) B_t
    and exponent U0/nu.  The two coincide at nu = 1 and are compared against
    the finite-volume reference to decide which one solves
    u_t = (nu/2) u_xx - u u_x (the answer is recorded by the test suite:
    cole_hopf matches; nu_squared solves the nu^2-viscosity equation).
    u0 must expose pdf and cdf; t must be positive.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    if variant == "nu_squared":
        scale, denom = nu, nu**2
    elif variant == "cole_hopf":
        scale, denom = math.sqrt(nu), nu
    else:
        raise ValueError("variant must be 'nu_squared' or 'cole_hopf'")
    xg, wg = np.polynomial.hermite.hermgauss(quad_nodes)
    shift = scale * math.sqrt(2.0 * t) * xg  # nodes of N(0, scale^2 t)
    x = np.asarray(x, dtype=float)
    args = x[..., None] + shift
    expo = -u0.cdf(args) / denom
    expo -= expo.max(axis=-1, keepdims=True)  # guard the exponent range
    weights = wg * np.exp(expo)
    den = weights.sum(axis=-1)
    if np.any(den <= 0) or not np.all(np.isfinite(den)):
        raise FloatingPointError("denominator underflow in the Burgers formula")
    out = (weights * u0.pdf(args)).sum(axis=-1) / den
    return float(out) if out.ndim == 0 else out


def burgers_fd_reference(u0, nu: float, grid: GridSpec, T: float | None = None,
                         refine: int = 4, cfl: float = 0.45,
                         max_steps: int = 20_000_000) -> Field:
    """Conservative finite-volume solve of u_t + d_x(u^2/2 - (nu/2) u_x) = 0.

    Runs on a grid refined `refine`-fold in space with an internally chosen
    stable explicit step, zero flux through the box boundary (telescoping
    fluxes conserve mass exactly), then restricts cell averages back to the
    requested grid at its time levels.  After each level it checks the
    scheme's discrete maximum principle, 0 <= u <= sup|u0|, and raises
    FloatingPointError when a step was unstable (e.g. cfl too large).
    """
    if nu <= 0:
        raise ValueError("nu must be positive")
    if refine < 1:
        raise ValueError("refine must be >= 1")
    T = grid.T if T is None else T
    n_f = refine * (grid.n_x - 1) + 1
    dx = 2.0 * grid.R / (n_f - 1)
    x = np.linspace(-grid.R, grid.R, n_f)
    # the fine state lives inside a zero halo that the restriction windows read
    padded = np.zeros(n_f + 2 * (refine // 2))
    u = padded[refine // 2 : refine // 2 + n_f]
    if hasattr(u0, "cdf"):
        edges = np.concatenate((x - 0.5 * dx, [x[-1] + 0.5 * dx]))
        u[:] = np.diff(u0.cdf(edges)) / dx
    else:
        u[:] = u0.pdf(x)

    sup_u0 = float(np.abs(u).max())
    umax = max(sup_u0, 1e-12)
    dt_level = T / grid.n_t
    dt_stable = cfl * min(dx * dx / nu, dx / umax)
    steps_per_level = max(1, int(np.ceil(dt_level / dt_stable)))
    if steps_per_level * grid.n_t > max_steps:
        raise RuntimeError(
            f"stability requires {steps_per_level * grid.n_t} steps at this "
            "resolution; coarsen the grid or raise max_steps"
        )
    dt = dt_level / steps_per_level

    stencil = _restriction_stencil(padded, refine)
    square = np.empty(n_f)
    flux = np.zeros(n_f + 1)  # face fluxes; the two boundary faces stay 0
    interior = flux[1:-1]
    gradient = np.empty(n_f - 1)
    diff = np.empty(n_f)
    out = np.empty((grid.n_t + 1, grid.n_x))
    out[0] = _restrict(*stencil)
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
        out[k + 1] = _restrict(*stencil)
    return Field(grid, out)


def _restriction_stencil(padded: np.ndarray, refine: int):
    """Windows, overlap weights and weight sums for restricting to coarse cells.

    `padded` holds the fine cells with a zero halo of refine // 2 on each
    side.  Coarse cell j averages fine cells refine*j - refine//2 ..
    refine*j + refine//2; for even refine the outermost two overlap it
    halfway.  Fine indices outside the grid get weight 0, so the two
    boundary cells average over their truncated windows.  The windows are
    views into `padded`, so the stencil follows later writes to it.
    """
    half = refine // 2
    n_fine = len(padded) - 2 * half
    n_coarse = (n_fine - 1) // refine + 1
    pattern = np.ones(2 * half + 1)
    if refine % 2 == 0:
        pattern[[0, -1]] = 0.5
    fine_index = refine * np.arange(n_coarse) + np.arange(-half, half + 1)[:, None]
    inside = (fine_index >= 0) & (fine_index < n_fine)
    weights = np.where(inside, pattern[:, None], 0.0)
    windows = sliding_window_view(padded, 2 * half + 1)[::refine].T
    return windows, weights, weights.sum(axis=0)


def _restrict(windows: np.ndarray, weights: np.ndarray, sums: np.ndarray) -> np.ndarray:
    """Average fine cell means onto coarse cells (exact overlap weights).

    Sums each window in order along the window axis, then divides by the
    weight sum, as a per-cell dot product would.
    """
    return (weights * windows).sum(axis=0) / sums
