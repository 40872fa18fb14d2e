"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
The Burgers mild solve and its finite-volume reference are session fixtures
shared by the criteria that exercise them.
"""

import math
import time

import numpy as np
import pytest

from mfklab.grids import Field, GridSpec, slab_l1
from mfklab.kernel import KernelModel
from mfklab.mild import (
    freeze_coefficients,
    plan_grid,
    solve,
    solve_linearized,
    weak_residual,
)
from mfklab.oracles import heat_oracle
from mfklab.particles import simulate_frozen, solve_selfconsistent, weighted_functional
from mfklab.problems import preset, smooth_test_functions
from mfklab.quadrature import beta_half_half_quad, trapezoid_weights

from _picard import picard_solve


def _criterion(num, name, ok, detail):
    print(f"[criterion {num:2d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_1_heat_exactness():
    problem = preset("heat", nu=1.0, u0_var=0.04)
    grid = GridSpec(R=7.0, n_x=512, n_t=64, T=1.0)
    t0 = time.perf_counter()
    u, _ = solve(problem, grid)
    wall = time.perf_counter() - t0
    x = grid.x_nodes()
    w = trapezoid_weights(grid.n_x, grid.dx)
    worst = 0.0
    for k, t in enumerate(grid.times()):
        oracle = problem.u0.pdf(x) if t == 0.0 else heat_oracle(0.0, 0.04, 1.0, t, x)
        worst = max(worst, float(np.dot(w, np.abs(u.values[k] - oracle))))
    _criterion(1, "heat exactness on 512x64", worst <= 1e-3 and wall <= 30.0,
               f"worst per-time l1 {worst:.3e} <= 1e-3, wall {wall:.1f}s <= 30s")


def test_criterion_2_mass_laws(burgers_setup):
    u = burgers_setup["u"]
    grid = burgers_setup["grid"]
    worst_cons = max(abs(u.mass(k) - 1.0) for k in range(grid.n_t + 1))

    growth = preset("exponential_growth", lam=0.5, nu=1.0, u0_var=0.04)
    ggrid = plan_grid(growth, R=7.0, n_x=512, n_t_min=512, min_slabs=8)
    ug, _ = solve(growth, ggrid)
    err_growth = abs(ug.mass(ggrid.n_t) - math.exp(0.5))
    _criterion(2, "mass laws", worst_cons <= 1e-3 and err_growth <= 1e-3,
               f"|mass-1| {worst_cons:.2e} <= 1e-3 (Lambda=0), "
               f"|mass(1)-e^0.5| {err_growth:.2e} <= 1e-3 (Lambda=0.5)")


def test_criterion_3_burgers_cross_validation(burgers_setup, burgers_reference):
    u, grid = burgers_setup["u"], burgers_setup["grid"]
    ref = burgers_reference["ref"]
    wall = burgers_setup["wall"] + burgers_reference["wall"]
    w = trapezoid_weights(grid.n_x, grid.dx)
    dists = {}
    for t in (0.25, 0.5, 1.0):
        k = grid.time_index(t)
        dists[t] = float(np.dot(w, np.abs(u.values[k] - ref.values[k])))
    worst = max(dists.values())
    _criterion(3, "Burgers mild vs finite-volume reference",
               worst <= 1e-2 and wall <= 300.0,
               f"l1 {{0.25: {dists[0.25]:.2e}, 0.5: {dists[0.5]:.2e}, "
               f"1.0: {dists[1.0]:.2e}}} <= 1e-2, wall {wall:.0f}s <= 300s")


def test_criterion_4_fixed_point_uniqueness(burgers_setup):
    problem, grid = burgers_setup["problem"], burgers_setup["grid"]
    tol = burgers_setup["tol"]
    u2, _ = picard_solve(problem, grid, tol, perturb=0.1)
    dist = slab_l1(burgers_setup["u"].values - u2.values, grid.dx, grid.dt)
    _criterion(4, "Picard uniqueness under perturbed start", dist <= 2 * tol,
               f"l1 {dist:.2e} <= 2 tol = {2 * tol:.1e}")


def test_criterion_5_slab_gluing(burgers_setup):
    # bound the gap between decompositions by the scheme's discretization
    # accuracy; slab junctions re-represent near-grid-scale kernel output, a
    # ~3e-5 floor at 512 nodes (see the README's numerical notes)
    problem = burgers_setup["problem"]
    grid = burgers_setup["grid"]
    tol = 1e-4
    g_half = GridSpec(R=grid.R, n_x=grid.n_x, n_t=grid.n_t, T=grid.T, n_slabs=2 * grid.n_slabs)
    u1, _ = solve(problem, grid)
    u2, _ = solve(problem, g_half)
    dist = slab_l1(u1.values - u2.values, grid.dx, grid.dt)
    _criterion(5, "slab widths tau vs tau/2 agree", dist <= 2 * tol,
               f"global l1 {dist:.2e} <= 2 tol = {2 * tol:.1e}")


def test_criterion_6_ball_preservation(burgers_setup):
    report = burgers_setup["report"]
    ok = report.ball_ok()
    _criterion(6, "slab fixed points stay in the ball", ok,
               f"max per-time l1 {report.max_iterate_per_time_l1:.3e}, "
               f"max sup {report.max_iterate_sup:.3e}, M {report.M:.3f}")


def test_criterion_7_kernel_suite():
    kernel = KernelModel(1.0, T=1.0)
    x = np.linspace(-10.0, 10.0, 4001)
    norm_err = max(
        abs(np.trapezoid(kernel.eval_p(0.0, 0.3, t, x), x) - 1.0)
        for t in (0.05, 0.25, 1.0)
    )
    ck_worst = 0.0
    for s in (0.0, 0.15, 0.3):
        for t in (0.45, 0.55, 0.65):
            for r in (0.75, 0.85, 1.0):
                ck_worst = max(
                    ck_worst,
                    kernel.chapman_kolmogorov_residual(s, t, r, 0.2, -0.4, 256),
                )
    worst_p, worst_g = kernel.verify_bounds(10_000, seed=2024)
    beta_err = max(abs(beta_half_half_quad(d) - math.pi) for d in (0.01, 0.1, 1.0))
    ok = norm_err <= 1e-8 and ck_worst <= 1e-7 and worst_p <= 1.0 and worst_g <= 1.0 \
        and beta_err <= 1e-6
    _criterion(7, "kernel suite", ok,
               f"normalization {norm_err:.1e} <= 1e-8, chapman-kolmogorov "
               f"{ck_worst:.1e} <= 1e-7, bound ratios ({worst_p:.4f}, {worst_g:.4f}) <= 1, "
               f"beta identity {beta_err:.1e} <= 1e-6")


def test_criterion_8_frozen_representation(burgers_setup):
    problem, grid, u = (burgers_setup[k] for k in ("problem", "grid", "u"))
    x = grid.x_nodes()
    w = trapezoid_weights(grid.n_x, grid.dx)
    basket = smooth_test_functions()
    t0 = time.perf_counter()
    hits = total = 0
    times = (0.25, 0.5, 1.0)
    for s in range(20):
        ens = simulate_frozen(u, problem, 100_000, 1.0 / 256, 1000 + s, times)
        for t in times:
            k = grid.time_index(t)
            for tf in basket:
                est, se = weighted_functional(ens, tf, t)
                quadrature = float(np.dot(w, tf.f(x) * u.values[k]))
                hits += abs(est - quadrature) <= 3.0 * se
                total += 1
    wall = time.perf_counter() - t0
    frac = hits / total
    _criterion(8, "frozen-mode representation battery",
               frac >= 0.95 and wall <= 600.0,
               f"{hits}/{total} within 3 se ({frac:.1%} >= 95%), wall {wall:.0f}s <= 600s")


def test_criterion_9_linearized_uniqueness(burgers_setup):
    problem, grid, u = (burgers_setup[k] for k in ("problem", "grid", "u"))
    tol = burgers_setup["tol"]
    b_hat, lam_hat = freeze_coefficients(problem, u)
    lin = solve_linearized(problem, b_hat, lam_hat, grid)
    dist = slab_l1(u.values - lin.values, grid.dx, grid.dt)
    _criterion(9, "linearized solve reproduces the frozen solution",
               dist <= 2 * tol, f"global l1 {dist:.2e} <= 2 tol = {2 * tol:.1e}")


def test_criterion_10_weak_mild_equivalence(burgers_setup):
    problem, grid, u = (burgers_setup[k] for k in ("problem", "grid", "u"))
    basket = smooth_test_functions()
    worst = 0.0
    for tf in basket:
        for t in (0.25, 0.5, 1.0):
            worst = max(worst, weak_residual(u, tf, t, problem))
    tf = basket[0]
    base = weak_residual(u, tf, 0.5, problem)
    values = u.values.copy()
    values[grid.time_index(0.5)] += 0.1 * np.exp(-grid.x_nodes() ** 2)
    inflated = weak_residual(Field(grid, values), tf, 0.5, problem)
    ratio = inflated / base
    _criterion(10, "weak-form residual", worst <= 5e-3 and ratio >= 10.0,
               f"worst residual {worst:.2e} <= 5e-3, bump inflation x{ratio:.0f} >= 10")


def test_criterion_11_mckean_trend(burgers_setup):
    problem, grid, u = (burgers_setup[k] for k in ("problem", "grid", "u"))
    w = trapezoid_weights(grid.n_x, grid.dx)
    medians = []
    for n_particles in (1_000, 10_000, 100_000):
        dists = []
        for s in range(5):
            _, rec = solve_selfconsistent(problem, n_particles, 1.0 / 256, 7000 + s, grid)
            dists.append(float(np.dot(w, np.abs(rec.values[-1] - u.values[-1]))))
        medians.append(float(np.median(dists)))
    ok = medians[0] >= medians[1] >= medians[2]
    _criterion(11, "self-consistent particle trend", ok,
               f"median l1 at T over N in (1e3, 1e4, 1e5): "
               f"{medians[0]:.3f} >= {medians[1]:.3f} >= {medians[2]:.3f}")
