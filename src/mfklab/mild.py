"""Bounded mild solutions by per-slab fixed-point iteration.

On each slab [r, r + tau] the solver iterates the integral map

    Pi(v)(t, x) = int_r^t int p(s, x0, t, x) Lam^(s, x0) dx0 ds
                + int_r^t int d_x0 p(s, x0, t, x) b^(s, x0) dx0 ds,

with Lam^(s, x0) = Lambda(s, x0, w) w and b^(s, x0) = b(s, x0, w) w evaluated
at w = v + u0_hat, u0_hat being the kernel-smoothed slab initial condition.
The slab-local solution u = u0_hat + v_fixed is chained across slabs through
its terminal value, which by the Chapman-Kolmogorov property reproduces the
global mild equation.

Discretization: fields are piecewise constant in time from the left level;
the time integral of the kernel weights over each source interval is computed
in the substituted variable w = sqrt(t - s) (uniform Simpson nodes), which
also removes the 1/sqrt(t - s) kernel-gradient singularity.  Space integrals
use the exactly integrated Gaussian cell weights from the kernel module.  The
weights depend on the level gap only, so each sweep is one space-time
convolution in (level gap, x) per nonlinear term.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .grids import Field, GridSpec, cell_means_from_cdf, slab_l1
from .kernel import (Spectrum, convolve_full, kernel_for, slope_kernel_weights, smooth_weights,
                     staggered_slopes, stencil_spectrum)
from .problems import ProblemSpec, SmoothTestFunction
from .quadrature import simpson_weights, trapezoid_weights


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


# Simpson nodes per source interval in the w = sqrt(t - s) variable (odd).
_N_W = 65


@dataclass
class SlabStencils:
    """Every kernel weight one slab uses, row g - 1 holding level gap g = 1..m.

    A and B are built only for the terms the problem has (None otherwise), so
    picard_map reads which terms to apply from the stencils it holds.  Each
    stencil comes with its spectrum for the one data shape it is convolved
    with, so a sweep transforms only its sources.
    """

    S: np.ndarray  # (m, 2 n_x - 1): smoothing of the slab initial data from r to r + g dt
    A: np.ndarray | None  # (m, 2 n_x - 1): smoothing kernel integrated over one interval
    B: np.ndarray | None  # (m, 2 n_x): gradient kernel, applied to staggered slopes
    S_hat: Spectrum  # for the (1, n_x) slab initial data
    A_hat: Spectrum | None  # for the (m, n_x) growth sources
    B_hat: Spectrum | None  # for the (m, n_x + 1) staggered drift slopes


def build_slab_stencils(problem: ProblemSpec, grid: GridSpec) -> SlabStencils:
    """Build the initial-data smoothing and the interval-integrated kernels.

    The problem's kernel is time-homogeneous, so the weights depend on the
    level gap only and one set, built for the slab at r = 0, serves every
    slab.  For the target level t = g dt at gap g, the source interval is
    [t - g dt, t - (g-1) dt]; the integral runs in w = sqrt(t - s) with
    composite Simpson weights carrying the 2w Jacobian, so the w = 0 endpoint
    (kernel degenerating to the identity) has zero weight and is skipped.
    A is built iff M_Lambda > 0 and B iff M_b > 0.
    """
    kernel = kernel_for(problem)
    m, n, dx, dt = grid.levels_per_slab, grid.n_x, grid.dx, grid.dt
    S = np.empty((m, 2 * n - 1))
    A = np.zeros((m, 2 * n - 1)) if problem.M_Lambda > 0.0 else None
    B = np.zeros((m, 2 * n)) if problem.M_b > 0.0 else None
    for g in range(1, m + 1):
        t = g * dt
        S[g - 1] = smooth_weights(*kernel.sigma_beta(0.0, t), dx, n)
        if A is None and B is None:
            continue
        w_lo, w_hi = np.sqrt((g - 1) * dt), np.sqrt(g * dt)
        w = np.linspace(w_lo, w_hi, _N_W)
        wt = simpson_weights(_N_W, (w_hi - w_lo) / (_N_W - 1)) * 2.0 * w
        for wi, wti in zip(w, wt):
            if wti == 0.0:
                continue
            sigma, beta = kernel.sigma_beta(max(t - wi * wi, 0.0), t)
            if A is not None:
                A[g - 1] += wti * smooth_weights(sigma, beta, dx, n)
            if B is not None:
                B[g - 1] += wti * slope_kernel_weights(sigma, beta, dx, n)
    return SlabStencils(S, A, B, stencil_spectrum(S, (1, n)),
                        None if A is None else stencil_spectrum(A, (m, n)),
                        None if B is None else stencil_spectrum(B, (m, n + 1)))


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


def prepare_slab(r: float, phi: np.ndarray, problem: ProblemSpec, grid: GridSpec,
                 stencils: SlabStencils | None = None, perturb: float = 0.0) -> PicardState:
    """Assemble u0_hat and the stencils for the slab starting at r with data phi.

    The iteration starts from v = perturb * u0_hat (v = 0 by default).
    """
    if stencils is None:
        stencils = build_slab_stencils(problem, grid)
    n = grid.n_x
    u0hat = np.empty((grid.levels_per_slab + 1, n))
    u0hat[0] = phi  # t = r uses the identity, never a kernel evaluation
    u0hat[1:] = convolve_full(phi[None, :], stencils.S_hat)[:, n - 1 : 2 * n - 1]
    return PicardState(r, grid, u0hat, perturb * u0hat, stencils)


def picard_map(state: PicardState, problem: ProblemSpec) -> np.ndarray:
    """One application of the slab map Pi to the current iterate.

    Returns the next iterate on the slab grid (the caller updates state).
    Inputs in the ball of radius M stay in it for tau below the
    estimate_slab_tau threshold.  The kernel enters through the slab stencils.
    Level l receives sum_{j<l} K[l-1-j] * src[j], causal in the level gap as
    well as a convolution in x, so each term is one 2-D convolution.
    """
    grid, st = state.grid, state.stencils
    m, n = grid.levels_per_slab, grid.n_x
    out = np.zeros_like(state.v)
    if st.A is None and st.B is None:
        return out
    x = grid.x_nodes()
    w = state.v + state.u0hat
    times = state.r + np.arange(m) * grid.dt
    state.max_abs_w = max(state.max_abs_w, float(np.abs(w[:m]).max()))
    if st.A is not None:
        lam_src = np.array([problem.Lambda(t, x, wj) * wj for t, wj in zip(times, w)])
        out[1:] += convolve_full(lam_src, st.A_hat)[:m, n - 1 : 2 * n - 1]
    if st.B is not None:
        b_src = np.array([problem.b(t, x, wj) * wj for t, wj in zip(times, w)])
        out[1:] += convolve_full(staggered_slopes(b_src, grid.dx), st.B_hat)[:m, n : 2 * n]
    return out


def solve_slab(r: float, phi: np.ndarray, problem: ProblemSpec, grid: GridSpec,
               tol: float = 1e-6, max_iter: int = 200, stencils: SlabStencils | None = None,
               perturb: float = 0.0, slab_index: int = 0):
    """Iterate the slab map from v = perturb * u0_hat until the successive L1
    distance <= tol.

    Returns (u_slab, state) where u_slab = u0_hat + v_fixed on the slab levels
    and state carries the residual history, one entry per sweep.  Raises
    RuntimeError on non-convergence within max_iter, reporting the history.
    """
    state = prepare_slab(r, phi, problem, grid, stencils=stencils, perturb=perturb)
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
    """Convergence diagnostics of one mild solve (non-convergence raises)."""

    tol: float
    residual_histories: list  # per slab, the L1 residual of each sweep
    C_u: float
    c_u: float
    M: float
    tau: float
    tau_max: float
    contraction_C: float
    pi_C2_tau: float
    contraction_monitor_ok: bool | None  # None when pi_C2_tau >= 1: nothing to check
    max_iterate_per_time_l1: float
    max_iterate_sup: float
    max_abs_w: float
    grid: GridSpec

    def ball_ok(self) -> bool:
        return (self.max_iterate_per_time_l1 <= self.M + 1e-12
                and self.max_iterate_sup <= self.M + 1e-12)


def solve(problem: ProblemSpec, grid: GridSpec, tol: float = 1e-6,
          max_iter: int = 200, perturb_initial: float = 0.0):
    """Glue slab fixed points into the bounded mild solution on [0, T].

    The per-slab stopping threshold is tol * tau / T so that tol bounds the
    accumulated iteration error of the whole run.  perturb_initial != 0 starts
    every slab from that multiple of u0_hat instead of v = 0 (a uniqueness
    check, not the default path).
    """
    if abs(grid.T - problem.T) > 1e-12 * max(1.0, problem.T):
        raise ValueError("grid horizon must match the problem horizon")
    kernel = kernel_for(problem)
    M = ball_radius(problem)
    tau_max = _tau_max(problem)
    if grid.tau > tau_max * (1.0 + 1e-9):
        raise ValueError(f"slab width tau={grid.tau:.6g} exceeds tau_max={tau_max:.6g}")

    N, m = grid.n_slabs, grid.levels_per_slab
    tol_slab = tol * grid.tau / grid.T
    times = grid.times()
    u = np.empty((grid.n_t + 1, grid.n_x))
    u[0] = cell_means_from_cdf(problem.u0.cdf, grid)

    stencils = build_slab_stencils(problem, grid)
    histories = []
    max_l1 = 0.0
    max_sup = 0.0
    max_abs_w = 0.0
    C = contraction_constant(problem, M, grid.tau)
    rho2 = float(np.pi * C * C * grid.tau)
    # the two-sweep residual recursion only bounds anything when rho2 < 1
    monitor_ok = True if rho2 < 1.0 else None

    for k in range(N):
        r = times[k * m]
        phi = u[k * m]
        u_slab, state = solve_slab(r, phi, problem, grid, tol=tol_slab, max_iter=max_iter,
                                   stencils=stencils, perturb=perturb_initial, slab_index=k)
        u[k * m : (k + 1) * m + 1] = u_slab
        histories.append(state.residual_history)
        per_time_l1 = np.abs(state.v).sum(axis=1).max() * grid.dx
        max_l1 = max(max_l1, per_time_l1)
        max_sup = max(max_sup, float(np.abs(state.v).max()))
        max_abs_w = max(max_abs_w, state.max_abs_w)
        if rho2 < 1.0:
            h = state.residual_history
            for i in range(len(h) - 2):
                if h[i + 2] > rho2 * max(h[: i + 1]) * (1.0 + 1e-9):
                    monitor_ok = False

    report = SolveReport(
        tol=tol, residual_histories=histories, C_u=kernel.C_u, c_u=kernel.c_u, M=M,
        tau=grid.tau, tau_max=float(tau_max), contraction_C=float(C),
        pi_C2_tau=rho2, contraction_monitor_ok=monitor_ok,
        max_iterate_per_time_l1=float(max_l1), max_iterate_sup=float(max_sup),
        max_abs_w=max_abs_w, grid=grid,
    )
    return Field(grid, u), report


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
                     grid: GridSpec, tol: float = 1e-6, max_iter: int = 200) -> Field:
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
    field_out, _ = solve(frozen, grid, tol=tol, max_iter=max_iter)
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
    gen_phi = 0.5 * problem.Phi**2 * phi_test.d2f(x) + problem.b0 * phi_test.df(x)

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
