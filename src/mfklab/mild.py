"""Bounded mild solutions as fixed points of a slab map, glued slab by slab.

On each slab [r, r + tau] the mild solution is the fixed point of the
integral map

    Pi(v)(t, x) = int_r^t int p(s, x0, t, x) Lam^(s, x0) dx0 ds
                + int_r^t int d_x0 p(s, x0, t, x) b^(s, x0) dx0 ds,

with Lam^(s, x0) = Lambda(s, x0, w) w and b^(s, x0) = b(s, x0, w) w evaluated
at w = v + u0_hat, u0_hat being the kernel-smoothed slab initial condition.
The slab-local solution u = u0_hat + v_fixed is chained across slabs through
its terminal value, which by the Chapman-Kolmogorov property reproduces the
global mild equation.

Discretization: fields are piecewise constant in time from the left level;
the time integral of the kernel weights over each source interval is computed
in the substituted variable w = sqrt(t - s) by one Gauss-Legendre rule in w
(quadrature.sqrt_tau_rule), which also removes the 1/sqrt(t - s)
kernel-gradient singularity.  Space integrals use the exactly integrated
Gaussian cell weights from the kernel module.  The weights depend on the
level gap only, so a slab operator is one x-spectrum per level gap, applied
at the circular length 2 n_x, which keeps every wrapped-around term out of
the n_x-node output window.  The smoothing of the slab data has its spectra
in closed form (kernel.smooth_symbols), so a solve never builds those
weights; the interval-integrated ones are built and transformed.

The discrete map is strictly causal in the level gap: level l reads only the
levels 0..l-1 of its input.  One level loop (_sweep) applies it, and its two
callers differ only in where the levels go.  solve runs it in place, so each
level reads the levels just written: that one Gauss-Seidel pass is the
forward substitution that finds the slab's fixed point with no iteration, as
for a discrete Volterra convolution equation (Hairer, Lubich & Schlichte,
SIAM J. Sci. Stat. Comput. 6 (1985) 532-541).  picard_map runs it into a new
array, a Jacobi sweep of the old iterate; iterated by solve_slab it is not on
solve's path, but is the test oracle that, from a perturbed start, checks
that the fixed point is unique and shows the contraction.

Each slab needs only the terminal level of the one before, so solve holds
one slab's levels at a time and hands each slab's new levels to a consumer
as soon as the slab is solved; the consumer keeps what it reads (the
harness's FieldWriter streams them to field.npy and keeps the levels its
experiment reads).  Without a consumer, solve collects the whole field.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from numpy.fft import irfft, rfft

from .grids import Field, GridSpec, cell_means_from_cdf, slab_l1
from .kernel import (apply_spectra, gap_spectra, kernel_for, slope_kernel_weights,
                     smooth_symbols, smooth_weight_rows)
from .problems import ProblemSpec, SmoothTestFunction, apply_generator
from .quadrature import sqrt_tau_rule, trapezoid_weights


def estimate_slab_tau(M_b: float, M_Lambda: float, C_u: float,
                      horizon: float | None = None) -> float:
    """Largest slab width for which the fixed-point map preserves the ball.

    Solves 2 sqrt(tau) (M_Lambda tau^{3/2} + 2 M_b C_u) <= 1 by bisection on
    the monotone left-hand side; the ball radius scales out of the condition.
    Returns min(tau_max, horizon) when a horizon is given.
    """
    if M_b < 0 or M_Lambda < 0 or C_u <= 0:
        raise ValueError("constants must be nonnegative, C_u positive")

    def bound(tau):
        return 2.0 * np.sqrt(tau) * (M_Lambda * tau**1.5 + 2.0 * M_b * C_u)

    if M_b == 0.0 and M_Lambda == 0.0:
        return float("inf") if horizon is None else float(horizon)
    hi = 1.0
    while bound(hi) <= 1.0 and hi < 1e12:
        hi *= 2.0
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if bound(mid) <= 1.0:
            lo = mid
        else:
            hi = mid
    tau_max = lo
    if horizon is not None:
        tau_max = min(tau_max, float(horizon))
    return tau_max


def ball_radius(problem: ProblemSpec) -> float:
    """Envelope M = max(1, ||u0||_inf C_u, ||u0||_1) e^{M_Lambda T}-inflated."""
    grow = np.exp(problem.M_Lambda * problem.T)
    return max(1.0, problem.u0.max_value * kernel_for(problem).C_u * grow, 1.0 * grow)


def contraction_constant(problem: ProblemSpec, M: float, tau: float) -> float:
    """Constant C with ||Pi(v1)(t) - Pi(v2)(t)|| <= C int (t-s)^{-1/2} ||v1-v2|| ds."""
    return (2.0 * problem.L_Lambda * M + problem.M_Lambda) * np.sqrt(tau) + \
        kernel_for(problem).C_u * (2.0 * problem.L_b * M + problem.M_b)


def _tau_max(problem: ProblemSpec) -> float:
    """Certified slab width of the problem on its horizon."""
    return estimate_slab_tau(problem.M_b, problem.M_Lambda, kernel_for(problem).C_u,
                             horizon=problem.T)


@dataclass
class SlabStencils:
    """The x-spectra, in kernel.gap_spectra's layout, of every kernel weight
    one slab uses, row g - 1 holding level gap g = 1..m, computed once so
    that a slab solve transforms only its sources.  S_hat is the closed form
    kernel.smooth_symbols, real when the kernel has no base drift; A_hat and
    B_hat are gap_spectra of the physical rows, built only for the terms the
    problem has (None otherwise), so the slab sweep reads which terms to
    apply from the spectra it holds.
    """

    S_hat: np.ndarray  # smoothing of the slab initial data from r to r + g dt
    A_hat: np.ndarray | None  # smoothing kernel integrated over one interval
    B_hat: np.ndarray | None  # gradient kernel integrated over one interval


def _gap_sigma_beta(problem: ProblemSpec, grid: GridSpec):
    """(sigma, beta) of the kernel from the slab start to each level gap g = 1..m."""
    return kernel_for(problem).sigma_beta(0.0, np.arange(1, grid.levels_per_slab + 1) * grid.dt)


def _interval_weights(problem: ProblemSpec, grid: GridSpec):
    """The interval-integrated kernels A and B of one slab, each (m, 2 n_x - 1)
    with row g - 1 for level gap g, or None for a term the problem lacks.

    For the target level t = g dt at gap g, the source interval is
    [t - g dt, t - (g-1) dt]; A and B integrate over it in w = sqrt(t - s) on
    [sqrt((g-1) dt), sqrt(g dt)] by quadrature.sqrt_tau_rule, whose nodes for
    every gap come from one call.  Each gap is one builder call over its
    nodes as rows, summed with the rule's weights.  The nodes are interior,
    so no kernel is evaluated at s = t, where it degenerates to the identity.
    The builders evaluate their rows in cache-sized blocks (kernel._BLOCK).
    A is built iff M_Lambda > 0 and B iff M_b > 0.
    """
    kernel = kernel_for(problem)
    m, n, dx, dt = grid.levels_per_slab, grid.n_x, grid.dx, grid.dt
    A = np.empty((m, 2 * n - 1)) if problem.M_Lambda > 0.0 else None
    B = np.empty((m, 2 * n - 1)) if problem.M_b > 0.0 else None
    if A is None and B is None:
        return A, B
    g = np.arange(1, m + 1)
    w, wt = sqrt_tau_rule(np.sqrt((g - 1) * dt), np.sqrt(g * dt))
    t = g[:, None] * dt
    sigma, beta = kernel.sigma_beta(t - w * w, t)
    for i in range(m):
        # einsum, not BLAS: the node sum keeps one order at any thread count
        if A is not None:
            A[i] = np.einsum("i,ij->j", wt[i], smooth_weight_rows(sigma[i], beta[i], dx, n))
        if B is not None:
            B[i] = np.einsum("i,ij->j", wt[i], slope_kernel_weights(sigma[i], beta[i], dx, n))
    return A, B


def slab_weights(problem: ProblemSpec, grid: GridSpec):
    """The physical weights of one slab: the initial-data smoothing S and the
    interval-integrated kernels A and B (_interval_weights), each
    (m, 2 n_x - 1) with row g - 1 for level gap g.

    The problem's kernel is time-homogeneous, so the weights depend on the
    level gap only and one set, built for the slab at r = 0, serves every
    slab.  S is one smooth_weight_rows call over the m gaps.  A solve reads
    S through its closed-form spectra (kernel.smooth_symbols), so these S
    rows are their oracle; A and B are the rows a solve transforms.
    """
    S = smooth_weight_rows(*_gap_sigma_beta(problem, grid), grid.dx, grid.n_x)
    return (S, *_interval_weights(problem, grid))


def build_slab_stencils(problem: ProblemSpec, grid: GridSpec) -> SlabStencils:
    """The spectra a solve applies: S_hat in closed form (kernel.smooth_symbols,
    never the physical S rows), A_hat and B_hat as gap_spectra of the
    interval-integrated rows."""
    A, B = _interval_weights(problem, grid)
    return SlabStencils(smooth_symbols(*_gap_sigma_beta(problem, grid), grid.dx, grid.n_x),
                        None if A is None else gap_spectra(A),
                        None if B is None else gap_spectra(B))


@dataclass
class PicardState:
    """State of the fixed-point iteration on one slab."""

    r: float
    grid: GridSpec
    u0hat: np.ndarray  # (m + 1, n_x) kernel-evolved slab initial condition
    v: np.ndarray  # (m + 1, n_x) current iterate, v[0] = 0
    stencils: SlabStencils
    residual_history: list = field(default_factory=list)
    max_abs_w: float = 0.0  # largest |w| fed to the coefficients, to compare with z_max


def prepare_slab(r: float, phi: np.ndarray, grid: GridSpec, stencils: SlabStencils,
                 perturb: float = 0.0) -> PicardState:
    """Assemble u0_hat for the slab starting at r with data phi.

    The iteration starts from v = perturb * u0_hat (v = 0 by default).
    """
    u0hat = np.empty((grid.levels_per_slab + 1, grid.n_x))
    u0hat[0] = phi  # t = r uses the identity, never a kernel evaluation
    u0hat[1:] = apply_spectra(stencils.S_hat, phi)
    v = perturb * u0hat if perturb else np.zeros_like(u0hat)
    return PicardState(r, grid, u0hat, v, stencils)


def _sweep(state: PicardState, problem: ProblemSpec, out: np.ndarray) -> np.ndarray:
    """Apply the slab map to w = state.v + u0_hat, level l into out[l]; returns out.

    Level l receives sum_{j<l} K[l-1-j] * src[j], causal in the level gap as
    well as a convolution in x: for l = 1..m, level l - 1's sources are
    transformed once and pushed to every later level of one (m, n_x + 1)
    spectrum accumulator, and level l is one inverse transform of its row.
    out[0] is left as the caller gave it, 0 on both paths.  With out a new
    array this is a Jacobi sweep, reading only the old iterate; with out =
    state.v it runs in place, level l - 1 written before level l reads it,
    which is the forward substitution that reaches the fixed point in one
    pass.  Both run the same sums in the same order.
    """
    grid = state.grid
    m, n = grid.levels_per_slab, grid.n_x
    kernels = [(spec, coefficient) for spec, coefficient
               in ((state.stencils.A_hat, problem.Lambda), (state.stencils.B_hat, problem.b))
               if spec is not None]
    if not kernels:
        return out
    x = grid.x_nodes()
    v, u0hat = state.v, state.u0hat
    acc = np.zeros((m, n + 1), dtype=complex)
    for ell in range(1, m + 1):
        w = v[ell - 1] + u0hat[ell - 1]
        t = state.r + (ell - 1) * grid.dt
        for spec, coefficient in kernels:
            acc[ell - 1:] += spec[: m - ell + 1] * rfft(coefficient(t, x, w) * w, 2 * n)
        out[ell] = irfft(acc[ell - 1], 2 * n)[n:]
    state.max_abs_w = max(state.max_abs_w, float(np.abs(v[:m] + u0hat[:m]).max()))
    return out


def picard_map(state: PicardState, problem: ProblemSpec) -> np.ndarray:
    """One Jacobi application of the slab map Pi to the current iterate.

    Returns the next iterate on the slab grid (the caller updates state).
    Inputs in the ball of radius M stay in it for tau below the
    estimate_slab_tau threshold.  The kernel enters through the slab stencils.
    """
    return _sweep(state, problem, np.zeros_like(state.v))


def solve_slab(r: float, phi: np.ndarray, problem: ProblemSpec, grid: GridSpec,
               stencils: SlabStencils, tol: float = 1e-6, max_iter: int = 200,
               perturb: float = 0.0, slab_index: int = 0):
    """Iterate the slab map from v = perturb * u0_hat until the successive L1
    distance <= tol.

    Returns (u_slab, state) where u_slab = u0_hat + v_fixed on the slab levels
    and state carries the residual history, one entry per sweep.  Raises
    RuntimeError on non-convergence within max_iter, reporting the history.
    """
    state = prepare_slab(r, phi, grid, stencils, perturb=perturb)
    for _ in range(max_iter):
        v_new = picard_map(state, problem)
        res = slab_l1(v_new - state.v, grid.dx, grid.dt)
        state.v = v_new
        state.residual_history.append(res)
        if res <= tol:
            return state.u0hat + state.v, state
    raise RuntimeError(
        f"slab {slab_index} at r={r:.6g} did not converge in {max_iter} iterations; "
        f"residual history tail {state.residual_history[-5:]} (tau too large or "
        "constants inconsistent)"
    )


@dataclass
class SolveReport:
    """Diagnostics of one mild solve."""

    C_u: float
    c_u: float
    M: float
    tau: float
    tau_max: float
    contraction_C: float
    pi_C2_tau: float
    max_iterate_per_time_l1: float
    max_iterate_sup: float
    max_abs_w: float
    min_rel: float  # min of u over max |u|: below 0 when the field undershoots
    grid: GridSpec

    def ball_ok(self) -> bool:
        return (self.max_iterate_per_time_l1 <= self.M + 1e-12
                and self.max_iterate_sup <= self.M + 1e-12)


def solve(problem: ProblemSpec, grid: GridSpec, consume=None):
    """Glue slab fixed points into the bounded mild solution on [0, T].

    Each slab's fixed point is computed exactly, by one slab sweep run in
    place (forward substitution), and its terminal level starts the next slab.
    After each slab, consume(start, block) receives the levels the slab adds,
    block[i] being level start + i: slab k adds levels k m .. (k + 1) m - 1,
    and the last slab level n_t too.  A junction level k m is slab k's
    u0_hat[0] + v[0], slab k - 1's terminal level with any -0.0 made +0.0.
    The block is the slab's own array, dropped after the call, so a consumer
    copies what it keeps; memory is then one slab plus what the consumer
    keeps.  Without consume the levels are collected into the whole
    (n_t + 1, n_x) Field, which is returned with the report; with it the
    field returned is None.
    """
    if abs(grid.T - problem.T) > 1e-12 * max(1.0, problem.T):
        raise ValueError("grid horizon must match the problem horizon")
    kernel = kernel_for(problem)
    M = ball_radius(problem)
    tau_max = _tau_max(problem)
    if grid.tau > tau_max * (1.0 + 1e-9):
        raise ValueError(f"slab width tau={grid.tau:.6g} exceeds tau_max={tau_max:.6g}")

    N, m = grid.n_slabs, grid.levels_per_slab
    times = grid.times()
    u = None
    if consume is None:
        u = np.empty((grid.n_t + 1, grid.n_x))

        def consume(start, block):
            u[start : start + len(block)] = block

    stencils = build_slab_stencils(problem, grid)
    max_l1 = 0.0
    max_sup = 0.0
    max_abs_w = 0.0
    lo, hi = np.inf, -np.inf
    C = contraction_constant(problem, M, grid.tau)

    phi = cell_means_from_cdf(problem.u0.cdf, grid)
    for k in range(N):
        state = prepare_slab(times[k * m], phi, grid, stencils)
        _sweep(state, problem, state.v)
        per_time_l1 = np.abs(state.v).sum(axis=1).max() * grid.dx
        max_l1 = max(max_l1, per_time_l1)
        max_sup = max(max_sup, float(np.abs(state.v).max()))
        max_abs_w = max(max_abs_w, state.max_abs_w)
        levels = state.v
        levels += state.u0hat  # u = u0_hat + v, in the iterate's array
        block = levels if k == N - 1 else levels[:m]
        consume(k * m, block)
        # min and max over the slabs are those of the field, which holds each level once
        lo, hi = min(lo, float(block.min())), max(hi, float(block.max()))
        phi = levels[m]

    peak = max(hi, -lo)
    report = SolveReport(
        C_u=kernel.C_u, c_u=kernel.c_u, M=M, tau=grid.tau, tau_max=float(tau_max),
        contraction_C=float(C), pi_C2_tau=float(np.pi * C * C * grid.tau),
        max_iterate_per_time_l1=float(max_l1), max_iterate_sup=float(max_sup),
        max_abs_w=max_abs_w, min_rel=lo / peak if peak > 0 else 0.0, grid=grid,
    )
    return (None if u is None else Field(grid, u)), report


def freeze_coefficients(problem: ProblemSpec, u: Field):
    """Coefficient fields b^(t,x) = b(t,x,u) and Lam^(t,x) = Lambda(t,x,u)."""
    x = u.grid.x_nodes()
    times = u.grid.times()
    b_hat = np.empty_like(u.values)
    lam_hat = np.empty_like(u.values)
    for k, t in enumerate(times):
        b_hat[k] = np.asarray(problem.b(t, x, u.values[k]))
        lam_hat[k] = np.asarray(problem.Lambda(t, x, u.values[k]))
    return b_hat, lam_hat


def solve_linearized(problem: ProblemSpec, b_hat: np.ndarray, Lambda_hat: np.ndarray,
                     grid: GridSpec) -> Field:
    """Measure-mild solution of the frozen-coefficient linear equation.

    b_hat and Lambda_hat are bounded fields on the grid levels; the fixed
    point is linear in the unknown and additive in problem.u0.  The same slab
    machinery applies with the z-dependence replaced by field lookups.
    """
    b_hat = np.asarray(b_hat, dtype=float)
    Lambda_hat = np.asarray(Lambda_hat, dtype=float)
    shape = (grid.n_t + 1, grid.n_x)
    if b_hat.shape != shape or Lambda_hat.shape != shape:
        raise ValueError(f"frozen coefficient fields must have shape {shape}")
    level = grid.time_index
    frozen = replace(
        problem, b=lambda t, x, z: b_hat[level(t)], Lambda=lambda t, x, z: Lambda_hat[level(t)],
        M_b=float(np.abs(b_hat).max()), M_Lambda=float(np.abs(Lambda_hat).max()),
        L_b=0.0, L_Lambda=0.0, z_max=float("inf"),
    )
    field_out, _ = solve(frozen, grid)
    return field_out


def weak_residual(u: Field, phi_test: SmoothTestFunction, t: float, problem: ProblemSpec) -> float:
    """Absolute defect of the weak-form identity at time t for one test function.

    Both sides are evaluated by trapezoid quadrature in space and time on the
    field's grid; the true mild solution has zero defect, so the returned
    value bounds the discretization error.
    """
    grid = u.grid
    k = grid.time_index(t)
    x = grid.x_nodes()
    wx = trapezoid_weights(grid.n_x, grid.dx)
    gen_phi = apply_generator(problem, phi_test, t, x)

    lhs = float(np.dot(wx, phi_test.f(x) * u.values[k]))
    rhs = float(np.dot(wx, phi_test.f(x) * problem.u0.pdf(x)))

    times = grid.times()[: k + 1]
    integrand = np.empty(k + 1)
    for j, tj in enumerate(times):
        z = u.values[j]
        bz = np.asarray(problem.b(tj, x, z))
        lz = np.asarray(problem.Lambda(tj, x, z))
        integrand[j] = float(
            np.dot(wx, z * gen_phi + phi_test.df(x) * bz * z + phi_test.f(x) * lz * z)
        )
    if k >= 1:
        rhs += float(np.trapezoid(integrand, times))
    return abs(lhs - rhs)


# planned slabs hold at least this many levels, and the level count is a
# multiple of _ALIGN so that quarter-horizon comparison times land on levels
_LEVELS_PER_SLAB_MIN = 2
_ALIGN = 4


def plan_grid(problem: ProblemSpec, R: float, n_x: int, n_t_min: int,
              min_slabs: int = 1) -> GridSpec:
    """Pick a slab decomposition: the fewest slabs (at least min_slabs) with
    tau under the bound, then the smallest count from there reaching n_t_min
    levels with the total level count a multiple of _ALIGN."""
    N0 = max(min_slabs, int(np.ceil(problem.T / _tau_max(problem) - 1e-12)))
    for N in range(N0, 4 * N0 + _ALIGN + 1):
        m = max(_LEVELS_PER_SLAB_MIN, int(np.ceil(n_t_min / N)))
        if (N * m) % _ALIGN == 0:
            return GridSpec(R=R, n_x=n_x, n_t=N * m, T=problem.T, n_slabs=N)
    raise ValueError("no aligned slab decomposition found")
