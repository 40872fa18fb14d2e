"""Weighted particle realization of the coupled stochastic system.

Euler-Maruyama trajectories with log-weights accumulating the growth-rate
integral by the left-point rule, weighted Monte-Carlo functionals of the
exponentiated ensemble, weighted Gaussian kernel density estimates, and the
self-consistent mode in which the drift and growth coefficients are closed
through the estimated density level by level.

Randomness comes from a counter-based Philox generator keyed by the master
seed, drawn in a fixed order, so identical (seed, N, dt) reproduce the
ensemble bit-for-bit.  The particles step on the levels of a GridSpec
(particle_grid); a time t becomes a level only through GridSpec.time_index.
The march streams: it holds the current step only and keeps the levels its
caller will read, so an ensemble takes O(N * kept levels) memory.
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
    """Kept levels of the trajectories and their Feynman-Kac log-weights.

    grid is the particle time axis (see particle_grid) and levels the kept
    levels of it, ascending; positions[r, i] is particle i at level
    levels[r]; logw[r, i] is the accumulated left-point integral of the growth
    rate up to that level's time t, so logw is 0 at level 0 and
    |logw| <= M_Lambda * t.  max_abs_z is the largest |z| the march fed to
    the drift and growth coefficients.
    """

    grid: GridSpec
    levels: tuple
    positions: np.ndarray
    logw: np.ndarray
    seed: int
    max_abs_z: float

    @property
    def N(self) -> int:
        return self.positions.shape[1]

    def row(self, t: float) -> int:
        """The row of positions and logw that holds time t."""
        k = self.grid.time_index(t)
        if k not in self.levels:
            kept = ", ".join(f"{s:g}" for s in self.grid.times()[list(self.levels)])
            raise ValueError(f"t={t:g} is not a kept level; kept times: {kept}")
        return self.levels.index(k)

    def health(self) -> list:
        """Per kept level: ESS/N, Silverman's bandwidth and the share of weight
        outside [-R, R], which the KDE and Field.lookup drop."""
        out = []
        times = self.grid.times()
        for k, y, logw in zip(self.levels, self.positions, self.logw):
            w = np.exp(logw)
            wsum = w.sum()
            out.append({"t": float(times[k]),
                        "ess_frac": float(wsum**2 / np.square(w).sum() / self.N),
                        "bandwidth": silverman_bandwidth(y, w),
                        "outside_box": float(w[np.abs(y) > self.grid.R].sum() / wsum)})
        return out


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


def particle_grid(grid: GridSpec, dt: float, frozen: bool = False) -> GridSpec:
    """The particle time axis: grid's box and horizon in steps of dt.

    dt must divide the horizon.  frozen=True also requires one of the level
    counts of grid (a frozen field's) and of the steps to divide the other.
    """
    n = grid.T / dt
    if abs(n - round(n)) > 1e-8:
        raise ValueError(f"dt={dt} does not divide the horizon T={grid.T}")
    steps = GridSpec(grid.R, grid.n_x, round(n), grid.T)
    if frozen and steps.n_t % grid.n_t != 0 and grid.n_t % steps.n_t != 0:
        raise ValueError(f"dt={dt} incompatible with the field time spacing {grid.dt}: "
                         "one must divide the other")
    return steps


def _march(problem: ProblemSpec, N: int, grid: GridSpec, seed: int,
           feedback, levels) -> ParticleEnsemble:
    """Euler-Maruyama march of the weighted particle system on grid's levels,
    keeping the given levels of it (any order, repeats allowed).

    feedback(k, y, logw) returns z = u(t_k, y) for the positions y and
    log-weights logw at level k.  The growth integral accumulates by the
    left-point rule, and the Philox draws come in the fixed order (initial
    sample, then one normal vector per step).
    """
    if grid.T != problem.T:
        raise ValueError(f"particle horizon {grid.T} differs from the problem's {problem.T}")
    kept = tuple(sorted(set(levels)))
    rows = {k: r for r, k in enumerate(kept)}
    positions = np.empty((len(kept), N))
    logw_kept = np.zeros((len(kept), N))
    rng = _rng(seed)
    y = problem.u0.sample(rng, N)
    logw = np.zeros(N)
    if 0 in rows:
        positions[0] = y
    times = grid.times()
    dt = grid.dt
    sq = np.sqrt(dt)
    max_abs_z = 0.0
    for k in range(grid.n_t):
        t = times[k]
        z = feedback(k, y, logw)
        max_abs_z = max(max_abs_z, float(np.abs(z).max()))
        drift = np.asarray(problem.b(t, y, z)) + problem.b0
        lam = np.asarray(problem.Lambda(t, y, z))
        logw = logw + lam * dt
        y = y + problem.Phi * sq * rng.standard_normal(N) + drift * dt
        r = rows.get(k + 1)
        if r is not None:
            positions[r] = y
            logw_kept[r] = logw
    return ParticleEnsemble(grid, kept, positions, logw_kept, seed, max_abs_z)


def simulate_frozen(u: Field, problem: ProblemSpec, N: int, dt: float,
                    seed: int, times) -> ParticleEnsemble:
    """Euler-Maruyama simulation with the feedback field u frozen, keeping the
    levels of the given times, the only ones the ensemble can be read at.

    Step k reads u at its left level k * n_f // n_s (n_f field intervals, n_s
    steps) and the nearest node in space, and 0 outside the box;
    Field.zeros freezes the feedback at z = 0.
    """
    steps = particle_grid(u.grid, dt, frozen=True)
    n_f, n_s = u.grid.n_t, steps.n_t
    return _march(problem, N, steps, seed, lambda k, y, logw: u.lookup(k * n_f // n_s, y),
                  [steps.time_index(t) for t in times])


def weighted_functional(ensemble: ParticleEnsemble, phi, t: float):
    """Monte-Carlo estimate of int phi d(mu_t) = E[phi(Y_t) exp(int Lambda)].

    Returns (estimate, standard_error) with the plain sample standard error of
    the weighted summand.
    """
    r = ensemble.row(t)
    vals = np.asarray(phi(ensemble.positions[r])) * np.exp(ensemble.logw[r])
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
    r = ensemble.row(t)
    y = ensemble.positions[r]
    w = np.exp(ensemble.logw[r])
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
    Returns the ensemble, which keeps level T only, and the reconstructed
    field on the grid nodes at the simulation levels.
    """
    steps = particle_grid(grid, dt)
    rec = Field.zeros(steps)
    rec.values[0] = problem.u0.pdf(grid.x_nodes())

    def estimate(k: int, y: np.ndarray, logw: np.ndarray):
        w = np.exp(logw)
        rec.values[k] = _binned_kde(y, w, grid, silverman_bandwidth(y, w), N)

    def feedback(k, y, logw):
        if k > 0:
            estimate(k, y, logw)
        return rec.lookup(k, y)

    ensemble = _march(problem, N, steps, seed, feedback, [steps.n_t])
    estimate(steps.n_t, ensemble.positions[0], ensemble.logw[0])
    return ensemble, Field(steps, rec.values)  # validates every estimated level
