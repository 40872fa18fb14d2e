"""Weighted particle realization of the coupled stochastic system.

Euler-Maruyama trajectories with log-weights accumulating the growth-rate
integral by the left-point rule, weighted Monte-Carlo functionals of the
exponentiated ensemble, weighted Gaussian kernel density estimates, and the
self-consistent mode in which the drift and growth coefficients are closed
through the estimated density level by level.

Randomness comes from a counter-based Philox generator keyed by the master
seed, drawn in a fixed order, so identical (seed, N, dt) reproduce the
ensemble bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .grids import Field, GridSpec
from .kernel import convolve_full
from .problems import ProblemSpec


@dataclass
class ParticleEnsemble:
    """Trajectories and accumulated Feynman-Kac log-weights.

    positions[k, i] is particle i at time level k; logw[k, i] is the
    accumulated left-point integral of the growth rate up to t_k, so
    logw[0] = 0 and |logw[k]| <= M_Lambda * t_k.
    """

    times: np.ndarray
    positions: np.ndarray
    logw: np.ndarray
    seed: int
    dt: float

    @property
    def N(self) -> int:
        return self.positions.shape[1]

    def time_index(self, t: float) -> int:
        k = t / self.dt
        if abs(k - round(k)) > 1e-8:
            raise ValueError(f"t={t} is not a simulated time level")
        k = round(k)
        if not 0 <= k < len(self.times):
            raise ValueError(f"t={t} outside the simulated range")
        return k


@dataclass
class DensityEstimate:
    """Weighted Gaussian KDE of the exponentiated ensemble on the spatial grid."""

    t: float
    bandwidth: float
    x: np.ndarray
    values: np.ndarray

    def mass(self) -> float:
        return float(np.trapezoid(self.values, self.x))


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


def _check_dt(problem: ProblemSpec, u: Field | None, dt: float):
    n_steps = problem.T / dt
    if abs(n_steps - round(n_steps)) > 1e-8:
        raise ValueError(f"dt={dt} does not divide the horizon T={problem.T}")
    if u is not None:
        ratio = u.grid.dt / dt
        inv = dt / u.grid.dt
        if abs(ratio - round(ratio)) > 1e-8 and abs(inv - round(inv)) > 1e-8:
            raise ValueError(
                f"dt={dt} incompatible with the field time spacing {u.grid.dt}: "
                "one must divide the other"
            )
    return round(n_steps)


def _march(problem: ProblemSpec, N: int, dt: float, seed: int, n_steps: int,
           feedback) -> ParticleEnsemble:
    """Euler-Maruyama march of the weighted particle system.

    feedback(t, y, logw) returns z = u(t, y) for the positions y and log-weights
    logw at level t; None freezes the feedback at z = 0.  The growth integral
    accumulates by the left-point rule, and the Philox draws come in the fixed
    order (initial sample, then one normal vector per step).
    """
    rng = _rng(seed)
    y = problem.u0.sample(rng, N)
    positions = np.empty((n_steps + 1, N))
    logw = np.zeros((n_steps + 1, N))
    positions[0] = y
    times = np.linspace(0.0, problem.T, n_steps + 1)
    sq = np.sqrt(dt)
    for k in range(n_steps):
        t = times[k]
        z = feedback(t, y, logw[k]) if feedback is not None else np.zeros(N)
        drift = np.asarray(problem.b(t, y, z)) + problem.b0
        lam = np.asarray(problem.Lambda(t, y, z))
        logw[k + 1] = logw[k] + lam * dt
        y = y + problem.Phi * sq * rng.standard_normal(N) + drift * dt
        positions[k + 1] = y
    return ParticleEnsemble(times, positions, logw, seed, dt)


def simulate_frozen(u: Field | None, problem: ProblemSpec, N: int, dt: float,
                    seed: int) -> ParticleEnsemble:
    """Euler-Maruyama simulation with the feedback field u frozen.

    The field is read with nearest-node-in-space, left-level-in-time lookups
    and returns 0 outside the box; u=None freezes the feedback at z = 0.
    """
    n_steps = _check_dt(problem, u, dt)
    feedback = None if u is None else (lambda t, y, logw: u.lookup(t, y))
    return _march(problem, N, dt, seed, n_steps, feedback)


def weighted_functional(ensemble: ParticleEnsemble, phi, t: float):
    """Monte-Carlo estimate of int phi d(mu_t) = E[phi(Y_t) exp(int Lambda)].

    Returns (estimate, standard_error) with the plain sample standard error of
    the weighted summand.
    """
    k = ensemble.time_index(t)
    vals = np.asarray(phi(ensemble.positions[k])) * np.exp(ensemble.logw[k])
    n = vals.size
    est = float(vals.mean())
    se = float(vals.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return est, se


def silverman_bandwidth(positions: np.ndarray, weights: np.ndarray) -> float:
    """Silverman's rule with the effective sample size of the weighted ensemble."""
    wsum = weights.sum()
    n_eff = wsum**2 / np.square(weights).sum()
    # einsum, not BLAS dot: a threaded BLAS splits long sums by thread count,
    # which would make the closure's field depend on it
    mean = np.einsum("i,i", weights, positions) / wsum
    var = np.einsum("i,i", weights, np.square(positions - mean)) / wsum
    sd = np.sqrt(max(var, 1e-300))
    return float(1.06 * sd * n_eff ** (-0.2))


def density_estimate(ensemble: ParticleEnsemble, t: float, h: float | None,
                     grid: GridSpec) -> DensityEstimate:
    """Exact weighted Gaussian KDE (1/N) sum_i e^{L_i} G_h(x - Y_i) on the grid."""
    k = ensemble.time_index(t)
    y = ensemble.positions[k]
    w = np.exp(ensemble.logw[k])
    if h is None:
        h = silverman_bandwidth(y, w)
    if h <= 0:
        raise ValueError("bandwidth must be positive")
    x = grid.x_nodes()
    vals = np.zeros(grid.n_x)
    block = max(1, int(5e6 // grid.n_x))
    for lo in range(0, y.size, block):
        z = (x[:, None] - y[None, lo : lo + block]) / h
        vals += np.exp(-0.5 * z * z) @ w[lo : lo + block]
    vals /= ensemble.N * h * np.sqrt(2.0 * np.pi)
    return DensityEstimate(t, float(h), x, vals)


def _binned_kde(y: np.ndarray, w: np.ndarray, grid: GridSpec, h: float,
                n_total: int) -> np.ndarray:
    """Linear-binned KDE with cell-integrated Gaussian weights (closure path).

    Splits each particle weight between its two neighboring nodes, then
    convolves with the Gaussian averaged over width-dx cells, which stays
    valid even for h below the grid spacing.  Shares that fall outside the
    nodes land in one pad bin on either side, which is dropped.
    """
    dx = grid.dx
    pos = (y + grid.R) / dx
    j = np.floor(pos).astype(int)
    frac = pos - j
    padded = np.zeros(grid.n_x + 2)
    np.add.at(padded, np.clip(j, -1, grid.n_x) + 1, w * (1.0 - frac))
    np.add.at(padded, np.clip(j + 1, -1, grid.n_x) + 1, w * frac)
    binned = padded[1:-1]
    m = np.arange(-(grid.n_x - 1), grid.n_x) * dx
    kern = (ndtr((m + 0.5 * dx) / h) - ndtr((m - 0.5 * dx) / h)) / dx
    full = convolve_full(binned, kern)
    return full[grid.n_x - 1 : 2 * grid.n_x - 1] / n_total


def solve_selfconsistent(problem: ProblemSpec, N: int, dt: float, seed: int,
                         grid: GridSpec):
    """Time-marched closure of the coupled system.

    At each level the weighted KDE of the current ensemble, with Silverman's
    bandwidth, defines u(t_k, .), which feeds the drift and growth
    coefficients for the step to k+1; u(0, .) is the initial density itself.
    Returns the ensemble and the reconstructed field on the grid nodes at the
    simulation levels.
    """
    n_steps = _check_dt(problem, None, dt)
    field_grid = GridSpec(R=grid.R, n_x=grid.n_x, n_t=n_steps, T=problem.T,
                          tau=problem.T)
    rec = Field.zeros(field_grid)
    rec.values[0] = problem.u0.pdf(grid.x_nodes())

    def estimate(k: int, y: np.ndarray, logw: np.ndarray):
        w = np.exp(logw)
        rec.values[k] = _binned_kde(y, w, grid, silverman_bandwidth(y, w), N)

    def feedback(t, y, logw):
        k = field_grid.time_index(t)
        if k > 0:
            estimate(k, y, logw)
        return rec.lookup(t, y)

    ensemble = _march(problem, N, dt, seed, n_steps, feedback)
    estimate(n_steps, ensemble.positions[-1], ensemble.logw[-1])
    return ensemble, Field(field_grid, rec.values)  # validates every estimated level
