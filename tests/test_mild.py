import math

import numpy as np
import pytest
import scipy.fft
from scipy.optimize import brentq

from mfklab.grids import Field, GridSpec, cell_means_from_cdf, slab_l1
from mfklab.kernel import apply_mean_smooth, kernel_for
from mfklab.mild import (
    ball_radius,
    build_slab_stencils,
    estimate_slab_tau,
    freeze_coefficients,
    picard_map,
    plan_grid,
    prepare_slab,
    solve,
    solve_linearized,
    solve_slab,
    weak_residual,
)
from mfklab.oracles import heat_oracle
from mfklab.problems import GaussianDensity, ProblemSpec, preset, smooth_test_functions
from mfklab.quadrature import trapezoid_weights


class TestSlabTau:
    def test_mixed_constants_bisection(self):
        tau = estimate_slab_tau(1.0, 1.0, 1.0)
        root = brentq(lambda t: 2 * math.sqrt(t) * (t**1.5 + 2.0) - 1.0, 1e-6, 1.0)
        assert tau == pytest.approx(root, abs=1e-9)
        assert tau == pytest.approx(0.0611, abs=1e-3)

    def test_growth_only_closed_form(self):
        tau = estimate_slab_tau(0.0, 1.0, 1.0, horizon=10.0)
        assert tau == pytest.approx(math.sqrt(0.5), abs=1e-9)

    def test_trivial_problem_takes_whole_horizon(self):
        assert estimate_slab_tau(0.0, 0.0, 1.0, horizon=1.0) == 1.0
        assert estimate_slab_tau(0.0, 0.0, 1.0) == math.inf


class TestGridSpec:
    @pytest.mark.parametrize("n_slabs, match", [
        (0, "n_slabs must be at least 1"), (-2, "n_slabs must be at least 1"),
        (3, "divide the time level count"), (20, "divide the time level count")])
    def test_bad_slab_count_rejected(self, n_slabs, match):
        with pytest.raises(ValueError, match=match):
            GridSpec(R=1.0, n_x=4, n_t=10, T=1.0, n_slabs=n_slabs)

    def test_slab_count_must_divide_levels(self):
        with pytest.raises(ValueError, match="divide the time level count"):
            GridSpec(R=1.0, n_x=4, n_t=10, T=1.0, n_slabs=4)

    def test_slab_width_is_horizon_over_count(self):
        grid = GridSpec(R=1.0, n_x=4, n_t=10, T=0.5, n_slabs=5)
        assert (grid.tau, grid.levels_per_slab) == (0.5 / 5, 2)

    def test_field_rejects_nonfinite(self):
        grid = GridSpec(R=1.0, n_x=4, n_t=2, T=1.0, n_slabs=2)
        bad = np.zeros((3, 4))
        bad[1, 2] = np.nan
        with pytest.raises(ValueError, match="finite"):
            Field(grid, bad)


def _small_grid(problem, n_x=257, n_t=32, R=7.0, **kw):
    return plan_grid(problem, R=R, n_x=n_x, n_t_min=n_t, **kw)


class TestPicardMap:
    def test_zero_nonlinearity_maps_to_zero(self):
        prob = preset("heat")
        grid = _small_grid(prob)
        phi = cell_means_from_cdf(prob.u0.cdf, grid)
        state = prepare_slab(0.0, phi, prob, grid)
        out = picard_map(state, prob)
        assert np.all(out == 0.0)

    def test_constant_growth_mass_identity(self):
        # integral of Pi(0)(t) equals lam * (t - r) * mass(phi) for pc-left sources
        lam = 0.5
        prob = preset("exponential_growth", lam=lam)
        grid = GridSpec(R=7.0, n_x=257, n_t=16, T=1.0, n_slabs=4)
        phi = cell_means_from_cdf(prob.u0.cdf, grid)
        state = prepare_slab(0.0, phi, prob, grid)
        out = picard_map(state, prob)
        mass_phi = phi.sum() * grid.dx
        for ell in range(1, grid.levels_per_slab + 1):
            got = out[ell].sum() * grid.dx
            assert got == pytest.approx(lam * ell * grid.dt * mass_phi, abs=1e-8)

    def test_burgers_first_sweep_is_odd(self):
        prob = preset("burgers", nu=1.0, u0_var=0.04)
        # odd node count so x -> -x maps the lattice onto itself
        grid = GridSpec(R=7.0, n_x=257, n_t=512, T=1.0, n_slabs=256)
        phi = cell_means_from_cdf(prob.u0.cdf, grid)
        state = prepare_slab(0.0, phi, prob, grid)
        out = picard_map(state, prob)
        for ell in range(1, grid.levels_per_slab + 1):
            assert np.abs(out[ell] + out[ell][::-1]).max() <= 1e-12


class TestSolveSlab:
    def test_heat_converges_immediately(self):
        prob = preset("heat")
        grid = _small_grid(prob)
        phi = cell_means_from_cdf(prob.u0.cdf, grid)
        u_slab, state = solve_slab(0.0, phi, prob, grid, tol=1e-10)
        assert len(state.residual_history) == 1
        assert np.array_equal(u_slab, state.u0hat)

    def test_growth_slab_mass(self):
        prob = preset("exponential_growth", lam=0.5, T=0.25)
        grid = GridSpec(R=7.0, n_x=257, n_t=256, T=0.25)
        phi = cell_means_from_cdf(prob.u0.cdf, grid)
        u_slab, _ = solve_slab(0.0, phi, prob, grid, tol=1e-10)
        mass_end = u_slab[-1].sum() * grid.dx
        assert mass_end == pytest.approx(math.exp(0.125), abs=1e-4)

    def test_burgers_residuals_decay(self):
        prob = preset("burgers", nu=1.0, u0_var=0.04)
        grid = GridSpec(R=7.0, n_x=257, n_t=1024, T=1.0, n_slabs=256)
        phi = cell_means_from_cdf(prob.u0.cdf, grid)
        _, state = solve_slab(0.0, phi, prob, grid, tol=1e-12, max_iter=60)
        hist = state.residual_history
        assert hist[-1] <= 1e-3 * hist[0]
        # geometric trend from the second iterate on
        assert all(hist[i + 1] <= hist[i] for i in range(1, len(hist) - 1))

    def test_nonconvergence_reports_slab(self):
        prob = preset("burgers", nu=1.0, u0_var=0.04)
        grid = GridSpec(R=7.0, n_x=129, n_t=1024, T=1.0, n_slabs=256)
        phi = cell_means_from_cdf(prob.u0.cdf, grid)
        with pytest.raises(RuntimeError, match="slab 3"):
            solve_slab(0.0, phi, prob, grid, tol=1e-14, max_iter=2,
                       slab_index=3)


class TestSolve:
    def test_heat_matches_oracle(self):
        prob = preset("heat", nu=1.0, u0_var=0.04)
        grid = _small_grid(prob, n_x=257, n_t=32)
        u, _ = solve(prob, grid, tol=1e-8)
        x = grid.x_nodes()
        for k in (1, grid.n_t // 2, grid.n_t):
            t = grid.times()[k]
            l1 = np.abs(u.values[k] - heat_oracle(0.0, 0.04, 1.0, t, x)).sum() * grid.dx
            assert l1 <= 4e-3

    def test_mass_conserved_without_growth(self):
        prob = preset("heat")
        grid = _small_grid(prob)
        u, _ = solve(prob, grid)
        for k in range(grid.n_t + 1):
            assert abs(u.mass(k) - 1.0) <= 1e-9

    def test_rejects_oversized_slab(self):
        prob = preset("burgers", nu=1.0, u0_var=0.04)
        grid = GridSpec(R=7.0, n_x=65, n_t=16, T=1.0, n_slabs=4)
        with pytest.raises(ValueError, match="tau"):
            solve(prob, grid)

    def test_rejects_horizon_mismatch(self):
        prob = preset("heat", T=2.0)
        grid = GridSpec(R=7.0, n_x=65, n_t=16, T=1.0)
        with pytest.raises(ValueError, match="horizon"):
            solve(prob, grid)

    def test_deterministic(self):
        prob = preset("exponential_growth", lam=0.3, T=0.5)
        grid = GridSpec(R=7.0, n_x=129, n_t=32, T=0.5, n_slabs=2)
        u1, _ = solve(prob, grid)
        u2, _ = solve(prob, grid)
        assert np.array_equal(u1.values, u2.values)

    def test_perturbed_start_reaches_same_fixed_point(self):
        prob = preset("burgers", nu=1.0, u0_var=0.04, T=0.25)
        grid = GridSpec(R=7.0, n_x=257, n_t=512, T=0.25, n_slabs=64)
        tol = 1e-9
        u1, _ = solve(prob, grid, tol=tol)
        u2, _ = solve(prob, grid, tol=tol, perturb_initial=0.1)
        assert slab_l1(u1.values - u2.values, grid.dx, grid.dt) <= 2 * tol

    def test_ball_preserved(self):
        prob = preset("burgers", nu=1.0, u0_var=0.04, T=0.25)
        grid = GridSpec(R=7.0, n_x=257, n_t=512, T=0.25, n_slabs=64)
        _, report = solve(prob, grid, tol=1e-8)
        assert report.ball_ok()
        assert report.max_iterate_sup <= report.M
        # two-sweep contraction factor pi C^2 tau is below 1 here, so the
        # monitored residual recursion must hold
        assert report.pi_C2_tau < 1.0
        assert report.contraction_monitor_ok

    def test_contraction_monitor_vacuous(self):
        # logistic_fkpp's Lipschitz constants put pi C^2 tau far above 1, where
        # the residual recursion bounds nothing: the monitor reports None
        prob = preset("logistic_fkpp")
        grid = _small_grid(prob, n_x=65, n_t=16)
        _, report = solve(prob, grid)
        assert report.pi_C2_tau >= 1.0
        assert report.contraction_monitor_ok is None

    def test_slab_refinement_consistency(self):
        prob = preset("burgers", nu=1.0, u0_var=0.04, T=0.25)
        tol = 1e-4
        g1 = GridSpec(R=7.0, n_x=257, n_t=512, T=0.25, n_slabs=64)
        g2 = GridSpec(R=7.0, n_x=257, n_t=512, T=0.25, n_slabs=128)
        u1, _ = solve(prob, g1, tol=tol)
        u2, _ = solve(prob, g2, tol=tol)
        assert slab_l1(u1.values - u2.values, g1.dx, g1.dt) <= 2 * tol


class TestSolveLinearized:
    def test_zero_coefficients_reduce_to_smoothing(self):
        prob = preset("heat")
        grid = _small_grid(prob)
        zeros = np.zeros((grid.n_t + 1, grid.n_x))
        out = solve_linearized(prob, zeros, zeros, grid)
        ref, _ = solve(prob, grid)
        assert np.abs(out.values - ref.values).max() <= 1e-12

    def test_constant_growth_semigroup(self):
        lam = 0.3
        prob = preset("heat", T=0.5)
        grid = GridSpec(R=7.0, n_x=257, n_t=512, T=0.5, n_slabs=2)
        zeros = np.zeros((grid.n_t + 1, grid.n_x))
        lam_field = np.full_like(zeros, lam)
        out = solve_linearized(prob, zeros, lam_field, grid, tol=1e-10)
        x = grid.x_nodes()
        for k in (grid.n_t // 2, grid.n_t):
            t = grid.times()[k]
            target = math.exp(lam * t) * heat_oracle(0.0, 0.04, 1.0, t, x)
            l1 = np.abs(out.values[k] - target).sum() * grid.dx
            assert l1 <= 5e-4  # left-point time rule bias at this resolution

    def test_reproduces_frozen_nonlinear_solution(self):
        prob = preset("burgers", nu=1.0, u0_var=0.04, T=0.25)
        grid = GridSpec(R=7.0, n_x=257, n_t=512, T=0.25, n_slabs=64)
        tol = 1e-9
        u, _ = solve(prob, grid, tol=tol)
        b_hat, lam_hat = freeze_coefficients(prob, u)
        lin = solve_linearized(prob, b_hat, lam_hat, grid, tol=tol)
        assert slab_l1(u.values - lin.values, grid.dx, grid.dt) <= 2 * tol


class TestWeakResidual:
    def test_heat_conservation_residual_small(self):
        prob = preset("heat")
        grid = _small_grid(prob)
        u, _ = solve(prob, grid)
        wide = smooth_test_functions()[0]
        assert weak_residual(u, wide, 0.5, prob) <= 1e-3

    def test_perturbation_inflates_residual(self):
        prob = preset("heat")
        grid = _small_grid(prob)
        u, _ = solve(prob, grid)
        tf = smooth_test_functions()[0]
        base = weak_residual(u, tf, 0.5, prob)
        values = u.values.copy()
        values[grid.time_index(0.5)] += 0.1 * np.exp(-grid.x_nodes() ** 2)
        assert weak_residual(Field(grid, values), tf, 0.5, prob) >= 10 * base


def test_ball_radius_envelope():
    prob = preset("burgers", nu=1.0, u0_var=0.04)
    M = ball_radius(prob)
    assert M == pytest.approx(prob.u0.max_value * kernel_for(prob).C_u, rel=1e-9)
    prob2 = preset("exponential_growth", lam=0.5)
    assert ball_radius(prob2) >= math.exp(0.5)


def test_stencils_cache_shape():
    grid = GridSpec(R=7.0, n_x=65, n_t=8, T=1.0, n_slabs=4)
    prob = preset("burgers", nu=1.0, u0_var=0.04)
    st = build_slab_stencils(prob, grid)
    assert st.S.shape == (2, 2 * 65 - 1)
    assert st.A is None  # Burgers has no growth term
    assert st.B.shape == (2, 2 * 65)
    growth = preset("exponential_growth", lam=0.5)
    st = build_slab_stencils(growth, grid)
    assert st.A.shape == (2, 2 * 65 - 1)
    assert st.B is None  # no state-dependent drift


def test_slab_operator_matches_per_level_sums():
    # both terms nonzero (no preset has both) on a slab starting at r > 0:
    # the fused space-time convolutions against direct per-level sums
    drift = lambda t, x, z: 0.5 * np.clip(z, -2.0, 2.0)
    growth = lambda t, x, z: 0.3 * (1.0 - np.clip(z, -2.0, 2.0))
    prob = ProblemSpec("drift_growth", 1.0, 1.0, drift, growth,
                       GaussianDensity(0.0, 0.04), M_b=1.0, M_Lambda=0.9,
                       L_b=0.5, L_Lambda=0.3, z_max=2.0)
    grid = GridSpec(R=7.0, n_x=65, n_t=20, T=1.0, n_slabs=5)
    m, n, dx = grid.levels_per_slab, grid.n_x, grid.dx
    r = grid.tau
    phi = cell_means_from_cdf(prob.u0.cdf, grid)
    state = prepare_slab(r, phi, prob, grid, perturb=0.3)
    for ell in range(1, m + 1):
        ref = apply_mean_smooth(phi, *kernel_for(prob).sigma_beta(r, r + ell * grid.dt), dx)
        assert np.abs(state.u0hat[ell] - ref).max() <= 1e-12 * np.abs(ref).max()

    A, B = state.stencils.A, state.stencils.B
    x = grid.x_nodes()
    w = state.v + state.u0hat
    expected = np.zeros_like(w)
    for ell in range(1, m + 1):
        for j in range(ell):
            t_j = r + j * grid.dt
            lam_src = growth(t_j, x, w[j]) * w[j]
            slopes = np.diff(np.concatenate(([0.0], drift(t_j, x, w[j]) * w[j], [0.0]))) / dx
            expected[ell] += np.convolve(lam_src, A[ell - 1 - j])[n - 1 : 2 * n - 1]
            expected[ell] += np.convolve(slopes, B[ell - 1 - j])[n : 2 * n]
    out = picard_map(state, prob)
    assert np.all(out[0] == 0.0)
    assert np.abs(out - expected).max() <= 1e-12 * np.abs(expected).max()


def test_solve_identical_across_fft_workers():
    prob = preset("burgers", nu=1.0, u0_var=0.04, T=0.125)
    grid = GridSpec(R=7.0, n_x=257, n_t=512, T=0.125, n_slabs=32)
    fields = []
    for workers in (1, 2):
        with scipy.fft.set_workers(workers):
            fields.append(solve(prob, grid, tol=1e-9)[0].values)
    assert np.array_equal(fields[0], fields[1])


def test_field_lookup_conventions():
    grid = GridSpec(R=1.0, n_x=5, n_t=2, T=1.0, n_slabs=2)
    vals = np.arange(15, dtype=float).reshape(3, 5)
    f = Field(grid, vals)
    # nearest node in space at the given level, zero outside the box
    assert f.lookup(0, np.array([0.49]))[0] == vals[0, 3]
    assert f.lookup(1, np.array([0.49]))[0] == vals[1, 3]
    assert f.lookup(1, np.array([5.0]))[0] == 0.0


@pytest.mark.parametrize("n_x", [9, 10])
def test_field_lookup_matches_masked_index(n_x):
    grid = GridSpec(R=2.0, n_x=n_x, n_t=4, T=1.0, n_slabs=4)
    R, dx = grid.R, grid.dx
    f = Field(grid, np.random.default_rng(3).standard_normal((5, n_x)))
    x = grid.x_nodes()
    # the box edges, half a cell and a cell either side, half-node ties (rint
    # rounds half to even, so R + dx/2 is inside for odd n_x only), far outside
    x = np.concatenate(([-R, R, -R - dx / 2, -R + dx / 2, R - dx / 2, R + dx / 2,
                         -R - dx, R + dx, -100.0, 100.0], x[:-1] + dx / 2, x))

    def masked(k, x):
        j = np.rint((np.asarray(x) + R) / dx).astype(int)
        j = np.where((j < 0) | (j >= grid.n_x), -1, j)
        return np.where(j >= 0, f.values[k, np.where(j >= 0, j, 0)], 0.0)

    for k in range(grid.n_t + 1):
        assert np.array_equal(f.lookup(k, x), masked(k, x))


def test_burgers_mild_matches_closed_form_oracle():
    # triangular cross-validation: the Picard solution, the finite-volume
    # reference and the closed-form expectation formula are three independent
    # routes to the same object
    from mfklab.oracles import burgers_expectation_formula

    prob = preset("burgers", nu=1.0, u0_var=0.04, T=0.5)
    grid = plan_grid(prob, R=7.0, n_x=257, n_t_min=512)
    u, _ = solve(prob, grid, tol=1e-8)
    x = grid.x_nodes()
    w = trapezoid_weights(grid.n_x, grid.dx)
    for t in (0.25, 0.5):
        k = grid.time_index(t)
        cf = burgers_expectation_formula(prob.u0, 1.0, t, x)
        assert float(np.dot(w, np.abs(u.values[k] - cf))) <= 2e-3


def test_base_drift_shifts_the_heat_solution():
    # exercises the drift-shift path of the kernel weights end to end
    zero = lambda t, x, z: np.zeros_like(np.asarray(z, dtype=float))
    prob = ProblemSpec("drifted_heat", 1.0, 1.0, zero, zero,
                       GaussianDensity(0.0, 0.04), M_b=0.0, M_Lambda=0.0,
                       L_b=0.0, L_Lambda=0.0, z_max=3.0, b0=0.5)
    grid = plan_grid(prob, R=8.0, n_x=512, n_t_min=32)
    u, _ = solve(prob, grid, tol=1e-8)
    x = grid.x_nodes()
    w = trapezoid_weights(grid.n_x, grid.dx)
    for k, t in enumerate(grid.times()):
        oracle = prob.u0.pdf(x) if t == 0 else heat_oracle(0.5 * t, 0.04, 1.0, t, x)
        assert float(np.dot(w, np.abs(u.values[k] - oracle))) <= 2e-3
