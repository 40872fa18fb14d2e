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
caller will read, so an ensemble takes O(N * kept levels) memory.  It also
steps in place on seven N-sized arrays, allocated once: the positions, the
log-weights, four work arrays (_Work) that its feedback and its step take in
turn, and the noise array, which a one-worker executor refills once the step
has added it.  Four is what the closure's feedback needs at once: the weights,
and two float arrays and one index array for the binned KDE; the step needs
the feedback's z, |z| and an increment.  A new temporary per operation would
instead cost an allocation of N doubles, which the allocator returns to the
system on release and page-faults back in on the next step.

The normal draws, which release the interpreter lock, are a third to a half
of a march at N = 1e5; the worker of a ThreadPoolExecutor(1) makes them beside
the feedback and the coefficients of the same step.  One generator is drawn in
one order all the same: the initial sample before the first draw is submitted,
and each step's normals only after the previous step's are added, so the
ensemble is that of a serial march bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import Field, GridSpec
from .kernel import apply_spectra, gap_spectra, ndtr
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


class _Work:
    """The N-sized work arrays of one march, allocated once, used by role.

    floats is one (3, N) block.  The feedback may overwrite all of it and
    index, and may return z in floats[0].  The step then overwrites floats[1]
    (with |z|) and floats[2] (the log-weight increment, then the position
    increment).  The closure's feedback puts the weights in floats[0], gives
    floats[1:] and index to the binned KDE, then looks z up into floats[0]
    through index.
    """

    def __init__(self, N: int):
        self.floats = np.empty((3, N))
        self.index = np.empty(N, np.int64)


def _draw(rng: np.random.Generator, scale: float, out: np.ndarray) -> np.ndarray:
    """Fill out with scale * (normals of rng) and return it."""
    rng.standard_normal(out=out)
    out *= scale
    return out


def _march(problem: ProblemSpec, N: int, grid: GridSpec, seed: int,
           feedback, levels) -> ParticleEnsemble:
    """Euler-Maruyama march of the weighted particle system on grid's levels,
    keeping the given levels of it (any order, repeats allowed).

    feedback(k, y, logw, work) returns z = u(t_k, y) for the positions y and
    log-weights logw at level k; work is the march's _Work.  The growth
    integral accumulates by the left-point rule, and the Philox draws come in
    the fixed order (initial sample, then one normal vector per step).  Step
    k's normals are drawn (_draw) on a one-worker executor while the feedback
    and the coefficients of step k run, into one noise array, which the next
    submission refills with step k+1's normals once step k has added them;
    leaving the executor joins its thread on every exit.  y and logw
    are updated in place, in the operation order of y + Phi sqrt(dt) xi +
    (b + b0) dt; what b and Lambda return is only read.
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
    work = _Work(N)
    times = grid.times()
    dt = grid.dt
    max_abs_z = 0.0
    # imported here, not at the top: concurrent.futures loads logging, which
    # only runs that build particles should pay for
    from concurrent.futures import ThreadPoolExecutor

    scale, noise = problem.Phi * np.sqrt(dt), np.empty(N)
    with ThreadPoolExecutor(1, thread_name_prefix="mfklab-noise") as helper:
        fill = helper.submit(_draw, rng, scale, noise)
        for k in range(grid.n_t):
            t = times[k]
            z = feedback(k, y, logw, work)
            absz, incr = work.floats[1], work.floats[2]
            max_abs_z = max(max_abs_z, float(np.abs(z, out=absz).max()))
            # what Lambda and b return is used at once and released before the
            # next step's feedback and coefficients run
            logw += np.multiply(problem.Lambda(t, y, z), dt, out=incr)
            np.add(problem.b(t, y, z), problem.b0, out=incr)
            incr *= dt
            y += fill.result()
            if k + 1 < grid.n_t:
                fill = helper.submit(_draw, rng, scale, noise)
            y += incr
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
    return _march(problem, N, steps, seed,
                  lambda k, y, logw, work: u.lookup(k * n_f // n_s, y, work.floats[0], work.index),
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


def silverman_bandwidth(positions: np.ndarray, weights: np.ndarray,
                        scratch: np.ndarray | None = None) -> float:
    """Silverman's rule with the effective sample size of the weighted ensemble.

    scratch, a float array of positions' shape, is overwritten (a new one is
    made when not given).
    """
    wsum = weights.sum()
    n_eff = wsum**2 / np.square(weights, out=scratch).sum()
    # einsum, not BLAS dot: a threaded BLAS splits long sums by thread count,
    # which would make the closure's field depend on it
    mean = np.einsum("i,i", weights, positions) / wsum
    dev = np.subtract(positions, mean, out=scratch)
    var = np.einsum("i,i", weights, np.square(dev, out=dev)) / wsum
    sd = np.sqrt(max(var, 1e-300))
    return float(1.06 * sd * n_eff ** (-0.2))


def density_estimate(ensemble: ParticleEnsemble, t: float, h: float | None,
                     grid: GridSpec) -> DensityEstimate:
    """Exact weighted Gaussian KDE (1/N) sum_i e^{L_i} G_h(x - Y_i) on the grid:
    the oracle of the closure's _binned_kde, which tests hold to it."""
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
                n_total: int, scratch=None) -> np.ndarray:
    """Linear-binned KDE with cell-integrated Gaussian weights (closure path).

    Splits each particle weight between its two neighboring nodes, then
    convolves with the Gaussian averaged over width-dx cells, which stays
    valid even for h below the grid spacing.  Shares that fall outside the
    nodes land in pad bins, which are dropped.  scratch is two float64 arrays
    and one int64 array of y's shape, overwritten (new ones are made when not
    given).
    """
    if scratch is None:
        scratch = (*np.empty((2, y.size)), np.empty(y.size, np.int64))
    frac, share, index = scratch
    n, dx = grid.n_x, grid.dx
    np.add(y, grid.R, out=frac)
    frac /= dx
    np.floor(frac, out=index, casting="unsafe")  # j, the node left of each particle
    frac -= index
    # node j is bin j + 2, and bins 0, 1 and n + 2 are pads: the left share
    # goes to bin clip(j + 2, 0, n + 2), the right one a bin further, capped at
    # n + 2; with two pads on the left, a clipped left bin keeps the right
    # share off node 0
    padded = np.zeros(n + 3)
    index += 2
    np.clip(index, 0, n + 2, out=index)
    np.add.at(padded, index, np.multiply(np.subtract(1.0, frac, out=share), w, out=share))
    index += 1
    np.minimum(index, n + 2, out=index)
    np.add.at(padded, index, np.multiply(w, frac, out=share))
    binned = padded[2:-1]
    return apply_spectra(gap_spectra(_kde_row(n, dx, h)), binned) / n_total


def _kde_row(n: int, dx: float, h: float) -> np.ndarray:
    """The binned KDE's kernel row: the N(0, h^2) mass of each width-dx cell
    over dx, at the offsets m dx, m in [-(n-1), n-1].

    The row is even in m, so the CDF is evaluated once per cell edge on the
    lower half, (m + 1/2) dx for m in [-n, -1], where each difference is of
    tail values, and mirrored.
    """
    cdf = ndtr((np.arange(-n, 0) + 0.5) * dx / h)
    lower = np.diff(cdf)  # m in [-(n-1), -1]
    return np.concatenate((lower, [1.0 - 2.0 * cdf[-1]], lower[::-1])) / dx


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

    def estimate(k: int, y: np.ndarray, logw: np.ndarray, work: _Work):
        w = np.exp(logw, out=work.floats[0])
        h = silverman_bandwidth(y, w, work.floats[1])
        rec.values[k] = _binned_kde(y, w, grid, h, N, (*work.floats[1:], work.index))

    def feedback(k, y, logw, work):
        if k > 0:
            estimate(k, y, logw, work)
        return rec.lookup(k, y, work.floats[0], work.index)

    ensemble = _march(problem, N, steps, seed, feedback, [steps.n_t])
    estimate(steps.n_t, ensemble.positions[0], ensemble.logw[0], _Work(N))
    return ensemble, Field(steps, rec.values)  # validates every estimated level
