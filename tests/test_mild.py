import math

import numpy as np
import pytest
from scipy.optimize import brentq

from mfklab import mild
from mfklab.grids import Field, GridSpec, cell_means_from_cdf, slab_l1
from mfklab.kernel import (apply_mean_smooth, gap_spectra, kernel_for, slope_kernel_weights,
                           smooth_weight_rows)
from mfklab.mild import (
    ball_radius,
    build_slab_stencils,
    estimate_slab_tau,
    freeze_coefficients,
    picard_map,
    plan_grid,
    prepare_slab,
    slab_weights,
    solve,
    solve_linearized,
    solve_slab,
    weak_residual,
)
from mfklab.oracles import exact_cell_means, heat_oracle
from mfklab.problems import GaussianDensity, ProblemSpec, preset, smooth_test_functions
from mfklab.quadrature import trapezoid_weights

from _picard import monitor_ok, picard_solve


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

    @pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
    def test_time_index_rejects_nonfinite(self, t):
        with pytest.raises(ValueError, match="outside"):
            GridSpec(R=1.0, n_x=4, n_t=10, T=1.0).time_index(t)

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
        state = prepare_slab(0.0, phi, grid, build_slab_stencils(prob, grid))
        out = picard_map(state, prob)
        assert np.all(out == 0.0)

    def test_constant_growth_mass_identity(self):
        # integral of Pi(0)(t) equals lam * (t - r) * mass(phi) for pc-left sources
        lam = 0.5
        prob = preset("exponential_growth", lam=lam)
        grid = GridSpec(R=7.0, n_x=257, n_t=16, T=1.0, n_slabs=4)
        phi = cell_means_from_cdf(prob.u0.cdf, grid)
        state = prepare_slab(0.0, phi, grid, build_slab_stencils(prob, grid))
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
        state = prepare_slab(0.0, phi, grid, build_slab_stencils(prob, grid))
        out = picard_map(state, prob)
        for ell in range(1, grid.levels_per_slab + 1):
            assert np.abs(out[ell] + out[ell][::-1]).max() <= 1e-12


class TestSolveSlab:
    def test_heat_converges_immediately(self):
        prob = preset("heat")
        grid = _small_grid(prob)
        phi = cell_means_from_cdf(prob.u0.cdf, grid)
        u_slab, state = solve_slab(0.0, phi, prob, grid, build_slab_stencils(prob, grid), tol=1e-10)
        assert len(state.residual_history) == 1
        assert np.array_equal(u_slab, state.u0hat)

    def test_growth_slab_mass(self):
        prob = preset("exponential_growth", lam=0.5, T=0.25)
        grid = GridSpec(R=7.0, n_x=257, n_t=256, T=0.25)
        phi = cell_means_from_cdf(prob.u0.cdf, grid)
        u_slab, _ = solve_slab(0.0, phi, prob, grid, build_slab_stencils(prob, grid), tol=1e-10)
        mass_end = u_slab[-1].sum() * grid.dx
        assert mass_end == pytest.approx(math.exp(0.125), abs=1e-4)

    def test_burgers_residuals_decay(self):
        prob = preset("burgers", nu=1.0, u0_var=0.04)
        grid = GridSpec(R=7.0, n_x=257, n_t=1024, T=1.0, n_slabs=256)
        phi = cell_means_from_cdf(prob.u0.cdf, grid)
        _, state = solve_slab(0.0, phi, prob, grid, build_slab_stencils(prob, grid),
                              tol=1e-12, max_iter=60)
        hist = state.residual_history
        assert hist[-1] <= 1e-3 * hist[0]
        # geometric trend from the second iterate on
        assert all(hist[i + 1] <= hist[i] for i in range(1, len(hist) - 1))

    def test_nonconvergence_reports_slab(self):
        prob = preset("burgers", nu=1.0, u0_var=0.04)
        grid = GridSpec(R=7.0, n_x=129, n_t=1024, T=1.0, n_slabs=256)
        phi = cell_means_from_cdf(prob.u0.cdf, grid)
        with pytest.raises(RuntimeError, match="slab 3"):
            solve_slab(0.0, phi, prob, grid, build_slab_stencils(prob, grid), tol=1e-14,
                       max_iter=2, slab_index=3)


class TestSolve:
    def test_heat_matches_oracle(self):
        prob = preset("heat", nu=1.0, u0_var=0.04)
        grid = _small_grid(prob, n_x=257, n_t=32)
        u, _ = solve(prob, grid)
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
        u1, _ = solve(prob, grid)
        u2, _ = picard_solve(prob, grid, tol, perturb=0.1)
        assert slab_l1(u1.values - u2.values, grid.dx, grid.dt) <= 2 * tol

    def test_ball_preserved(self):
        prob = preset("burgers", nu=1.0, u0_var=0.04, T=0.25)
        grid = GridSpec(R=7.0, n_x=257, n_t=512, T=0.25, n_slabs=64)
        _, report = solve(prob, grid)
        assert report.ball_ok()
        assert report.max_iterate_sup <= report.M
        # two-sweep contraction factor pi C^2 tau is below 1 here, so the
        # monitored residual recursion must hold where sweeps run
        _, states = picard_solve(prob, grid, 1e-8, perturb=0.1)
        histories = [state.residual_history for state in states]
        assert report.pi_C2_tau < 1.0
        assert monitor_ok(histories, report.pi_C2_tau)
        assert min(len(h) for h in histories) >= 3

    def test_contraction_monitor_vacuous(self):
        # logistic_fkpp's Lipschitz constants put pi C^2 tau far above 1, where
        # the residual recursion bounds nothing
        prob = preset("logistic_fkpp")
        grid = _small_grid(prob, n_x=65, n_t=16)
        _, report = solve(prob, grid)
        assert report.pi_C2_tau >= 1.0

    def test_observed_contraction_on_the_benchmark_grid(self):
        # successive Picard residuals of every slab shrink by far more than
        # the a priori pi C^2 tau (0.78) promises: 0.0154 measured
        prob = preset("burgers", nu=1.0, u0_var=0.04)
        _, states = picard_solve(prob, plan_grid(prob, R=8.0, n_x=512, n_t_min=1024), 1e-8,
                                 perturb=0.1)
        ratios = [b / a for state in states
                  for a, b in zip(state.residual_history, state.residual_history[1:]) if a > 0.0]
        assert max(ratios) < 0.05

    def test_no_contraction_ratio_without_a_second_sweep(self):
        # heat's slab map is zero: from a perturbed start the first sweep
        # lands on the fixed point, and the second finds a zero residual, so
        # no slab has a ratio of successive nonzero residuals
        prob = preset("heat")
        grid = _small_grid(prob, n_x=65, n_t=16)
        _, states = picard_solve(prob, grid, 1e-6, perturb=0.1)
        assert all(len(state.residual_history) == 2 and state.residual_history[0] > 0.0
                   and state.residual_history[1] == 0.0 for state in states)

    def test_min_rel_of_a_heat_field(self):
        # the heat field is positive up to rounding; min_rel reports its sign
        prob = preset("heat")
        u, report = solve(prob, _small_grid(prob, n_x=128, n_t=16))
        assert report.min_rel == u.values.min() / u.values.max()
        assert abs(report.min_rel) < 1e-12

    @pytest.mark.parametrize("name, params", [
        ("heat", {}), ("burgers", {"nu": 1.0, "u0_var": 0.04}),
        ("exponential_growth", {"lam": 0.5}), ("logistic_fkpp", {"lam": 2.0})])
    def test_min_rel_is_that_of_the_whole_field(self, name, params):
        # each field's minimum and largest |u| lie before its last slab
        prob = preset(name, **params)
        u, report = solve(prob, plan_grid(prob, 8.0, 64, 32, min_slabs=4))
        assert report.min_rel == u.values.min() / np.abs(u.values).max() < 0.0

    @pytest.mark.parametrize("name, params, n_t, min_slabs", [
        ("heat", {}, 16, 1), ("burgers", {"nu": 1.0, "u0_var": 0.04}, 64, 1),
        ("logistic_fkpp", {"lam": 2.0}, 32, 4)])
    def test_consumer_gets_each_level_once_slab_by_slab(self, name, params, n_t, min_slabs):
        prob = preset(name, **params)
        grid = plan_grid(prob, 8.0, 64, n_t, min_slabs=min_slabs)
        blocks = []
        field_none, streamed = solve(prob, grid, lambda start, block: blocks.append(
            (start, block.copy())))
        u, report = solve(prob, grid)
        m = grid.levels_per_slab
        assert field_none is None and streamed == report
        assert [start for start, _ in blocks] == list(range(0, grid.n_t, m))
        assert [len(b) for _, b in blocks] == [m] * (grid.n_slabs - 1) + [m + 1]
        assert np.concatenate([b for _, b in blocks]).tobytes() == u.values.tobytes()

    def test_slab_refinement_consistency(self):
        prob = preset("burgers", nu=1.0, u0_var=0.04, T=0.25)
        tol = 1e-4
        g1 = GridSpec(R=7.0, n_x=257, n_t=512, T=0.25, n_slabs=64)
        g2 = GridSpec(R=7.0, n_x=257, n_t=512, T=0.25, n_slabs=128)
        u1, _ = solve(prob, g1)
        u2, _ = solve(prob, g2)
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
        out = solve_linearized(prob, zeros, lam_field, grid)
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
        u, _ = solve(prob, grid)
        b_hat, lam_hat = freeze_coefficients(prob, u)
        lin = solve_linearized(prob, b_hat, lam_hat, grid)
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
    S, A, B = slab_weights(prob, grid)
    assert S.shape == B.shape == (2, 2 * 65 - 1)
    assert A is None  # Burgers has no growth term
    growth = preset("exponential_growth", lam=0.5)
    S, A, B = slab_weights(growth, grid)
    assert S.shape == A.shape == (2, 2 * 65 - 1)
    assert B is None  # no state-dependent drift


@pytest.mark.parametrize("name", ["exponential_growth", "logistic_fkpp", "burgers"])
def test_slab_stencils_are_the_spectra_of_the_slab_weights(name):
    # A_hat and B_hat are gap_spectra of the physical rows bit for bit; S_hat
    # is their closed form, within round-off of the physical S rows' spectra
    # (1.0e-14 of the peak on exponential_growth's 16 gaps, sigma up to 4.6 dx)
    prob = _slab_problem(name)
    grid = plan_grid(prob, 7.0, 65, 16)
    stencils = build_slab_stencils(prob, grid)
    S, A, B = slab_weights(prob, grid)
    for spec, rows in ((stencils.A_hat, A), (stencils.B_hat, B)):
        assert (spec is None) == (rows is None)
        if rows is not None:
            assert np.array_equal(spec, gap_spectra(rows))
    ref = gap_spectra(S)
    assert np.abs(stencils.S_hat - ref).max() <= 2e-14 * np.abs(ref).max()


def test_solves_never_build_the_physical_smoothing_rows(monkeypatch):
    # the slab data is smoothed through kernel.smooth_symbols: with mild's
    # physical row builder refusing, heat and Burgers solve to the same fields
    burgers = preset("burgers", nu=1.0, u0_var=0.04)
    cases = [(preset("heat"), GridSpec(R=7.0, n_x=128, n_t=16, T=1.0)),
             (burgers, plan_grid(burgers, R=8.0, n_x=128, n_t_min=64))]
    fields = [solve(prob, grid)[0].values for prob, grid in cases]

    def refuse(*args):
        raise AssertionError("physical smoothing rows built")

    monkeypatch.setattr(mild, "smooth_weight_rows", refuse)
    with pytest.raises(AssertionError, match="physical smoothing rows"):
        slab_weights(*cases[0])
    for (prob, grid), values in zip(cases, fields):
        assert np.array_equal(solve(prob, grid)[0].values, values)


def _dense_time_rule_row(problem, grid, g, builder, n=1025):
    """Gap g's interval-integrated kernel row by composite Simpson on n nodes
    in w = sqrt(t - s): an independent, much denser rule than slab_weights'.
    The w = 0 node has weight 0 and is dropped; s is clamped at 0, where
    w = sqrt(t) may round it below."""
    t, dt = g * grid.dt, grid.dt
    lo, hi = math.sqrt((g - 1) * dt), math.sqrt(g * dt)
    w = np.linspace(lo, hi, n)
    wt = np.full(n, 2.0)
    wt[1::2] = 4.0
    wt[0] = wt[-1] = 1.0
    wt *= (hi - lo) / (3.0 * (n - 1)) * 2.0 * w
    keep = w > 0.0
    sigma, beta = kernel_for(problem).sigma_beta(np.maximum(t - w[keep] ** 2, 0.0), t)
    return np.einsum("i,ij->j", wt[keep], builder(sigma, beta, grid.dx, grid.n_x))


@pytest.mark.parametrize("name, gaps", [("burgers", (1, 2, 3, 4)),
                                        ("exponential_growth", (1, 2, 64))])
def test_slab_weights_match_a_dense_time_rule(name, gaps):
    # Burgers' B rows at 512x1024 and exponential_growth's A rows in one slab
    # at 257x64, against 1025 Simpson nodes in w.  The largest relative error
    # reads 6.4e-12 (Burgers) and 1.3e-11 (exponential_growth), both at gap 1;
    # 65 Simpson nodes read 2.5e-9 and 1.2e-8 there
    prob = preset(name)
    if name == "burgers":
        grid = GridSpec(R=8.0, n_x=512, n_t=1024, T=1.0, n_slabs=256)
    else:
        grid = plan_grid(prob, 8.0, 257, 64)
    assert grid.levels_per_slab == max(gaps)
    _, A, B = slab_weights(prob, grid)
    rows, builder = (B, slope_kernel_weights) if name == "burgers" else (A, smooth_weight_rows)
    for g in gaps:
        ref = _dense_time_rule_row(prob, grid, g, builder)
        assert np.abs(rows[g - 1] - ref).max() <= 2e-11 * np.abs(ref).max(), g


def _drift_growth_problem(terms):
    drift = lambda t, x, z: 0.5 * np.clip(z, -2.0, 2.0)
    growth = lambda t, x, z: 0.3 * (1.0 - np.clip(z, -2.0, 2.0))
    zero = lambda t, x, z: np.zeros_like(z)
    has_b, has_lam = terms in ("drift", "both"), terms in ("growth", "both")
    return ProblemSpec("drift_growth", 1.0, 1.0, drift if has_b else zero,
                       growth if has_lam else zero, GaussianDensity(0.0, 0.04),
                       M_b=1.0 if has_b else 0.0, M_Lambda=0.9 if has_lam else 0.0,
                       L_b=0.5 if has_b else 0.0, L_Lambda=0.3 if has_lam else 0.0, z_max=2.0)


@pytest.mark.parametrize("terms", ["growth", "drift", "both"])
@pytest.mark.parametrize("m", [1, 3, 4, 8])
@pytest.mark.parametrize("n_x", [65, 64])
def test_slab_operator_matches_per_level_sums(n_x, m, terms):
    # on a slab starting at r > 0, the x-spectra sweep against direct
    # per-level sums of np.convolve (no preset has both terms)
    prob = _drift_growth_problem(terms)
    grid = GridSpec(R=7.0, n_x=n_x, n_t=5 * m, T=1.0, n_slabs=5)
    n, dx = grid.n_x, grid.dx
    r = grid.tau
    phi = cell_means_from_cdf(prob.u0.cdf, grid)
    state = prepare_slab(r, phi, grid, build_slab_stencils(prob, grid), perturb=0.3)
    for ell in range(1, m + 1):
        ref = apply_mean_smooth(phi, *kernel_for(prob).sigma_beta(r, r + ell * grid.dt), dx)
        assert np.abs(state.u0hat[ell] - ref).max() <= 1e-12 * np.abs(ref).max()

    _, A, B = slab_weights(prob, grid)
    assert (A is not None, B is not None) == (terms != "drift", terms != "growth")
    x = grid.x_nodes()
    w = state.v + state.u0hat
    expected = np.zeros_like(w)
    for ell in range(1, m + 1):
        for j in range(ell):
            t_j = r + j * grid.dt
            if A is not None:
                lam_src = prob.Lambda(t_j, x, w[j]) * w[j]
                expected[ell] += np.convolve(lam_src, A[ell - 1 - j])[n - 1 : 2 * n - 1]
            if B is not None:
                b_src = prob.b(t_j, x, w[j]) * w[j]
                expected[ell] += np.convolve(b_src, B[ell - 1 - j])[n - 1 : 2 * n - 1]
    out = picard_map(state, prob)
    assert np.all(out[0] == 0.0)
    assert np.abs(out - expected).max() <= 1e-12 * np.abs(expected).max()


def _smoothed_slab_data(cell_means, gap: float, R: float, n_x: int):
    """u0_hat one gap after the slab start, for the data cell_means(grid):
    prepare_slab on heat-preset stencils, the route every run smooths its
    slab data by, on a one-level grid whose horizon is the gap."""
    grid = GridSpec(R=R, n_x=n_x, n_t=1, T=gap)
    stencils = build_slab_stencils(preset("heat", T=gap), grid)
    return grid, prepare_slab(0.0, cell_means(grid), grid, stencils).u0hat[1]


def _density_cell_means(density):
    return lambda grid: cell_means_from_cdf(density.cdf, grid)


def test_slab_data_smoothing_gaussian_closed_form():
    grid, out = _smoothed_slab_data(_density_cell_means(GaussianDensity(0.0, 0.04)),
                                    1.0, 7.0, 512)
    mid = np.argmin(np.abs(grid.x_nodes()))
    assert out[mid] == pytest.approx(0.391213, abs=1e-4)  # cell mean vs point value


def _indicator_cell_means(grid):
    """Exact cell means of the density 1/2 on [-1, 1], rough data for the symbols."""
    x, h = grid.x_nodes(), 0.5 * grid.dx
    overlap = np.minimum(x + h, 1.0) - np.maximum(x - h, -1.0)
    return 0.5 * np.maximum(overlap, 0.0) / grid.dx


def test_slab_data_smoothing_preserves_indicator_mass():
    grid, out = _smoothed_slab_data(_indicator_cell_means, 0.5, 8.0, 801)
    assert np.abs(out).sum() * grid.dx == pytest.approx(1.0, abs=1e-3)
    assert out.sum() * grid.dx == pytest.approx(1.0, abs=1e-9)


def test_slab_data_smoothing_norm_bounds():
    # ||u0_hat||_1 <= ||phi||_1 and ||u0_hat||_inf <= C_u ||phi||_inf, up to
    # box-truncation tails
    phi = GaussianDensity(0.3, 0.09)
    grid, out = _smoothed_slab_data(_density_cell_means(phi), 0.5, 7.0, 512)
    assert np.abs(out).sum() * grid.dx <= 1.0 + 1e-9
    assert np.abs(out).max() <= kernel_for(preset("heat", T=0.5)).C_u * phi.max_value + 1e-9


def _slab_problem(name):
    if name == "drift_growth":
        return _drift_growth_problem("both")
    return preset(name, nu=1.0, u0_var=0.04) if name == "burgers" else preset(name)


@pytest.mark.parametrize("name", ["burgers", "exponential_growth", "logistic_fkpp",
                                  "drift_growth"])
@pytest.mark.parametrize("m", [1, 3, 4, 8])
def test_in_place_sweep_is_the_fixed_point_of_m_sweeps(name, m):
    # level l of the slab map reads levels 0..l-1 of its input, so m Jacobi
    # sweeps from v = 0 reach the exact discrete fixed point; the sweep run in
    # place, solve's forward substitution, must land there bit for bit, as
    # both run one summation order, on a slab starting at r > 0
    prob = _slab_problem(name)
    grid = GridSpec(R=7.0, n_x=65, n_t=5 * m, T=prob.T, n_slabs=5)
    stencils = build_slab_stencils(prob, grid)
    r = grid.tau
    phi = cell_means_from_cdf(prob.u0.cdf, grid)
    forward = prepare_slab(r, phi, grid, stencils)
    assert mild._sweep(forward, prob, forward.v) is forward.v
    state = prepare_slab(r, phi, grid, stencils)
    for _ in range(m):
        state.v = picard_map(state, prob)
    assert np.abs(state.v).max() > 0.0
    assert np.array_equal(forward.v, state.v)
    assert forward.residual_history == []
    w = state.v + state.u0hat
    assert forward.max_abs_w == np.abs(w[:m]).max()
    # one more sweep returns the forward result: it is the map's fixed point
    assert np.array_equal(picard_map(forward, prob), forward.v)


def _picard_map_2d(state, problem, A, B):
    """The sweep as one 2-D (level gap, x) convolution per term through
    scipy's fftconvolve, with the slab_weights rows A and B: the oracle of
    the x-spectra sweep."""
    from scipy.signal import fftconvolve

    grid = state.grid
    m, n = grid.levels_per_slab, grid.n_x
    out = np.zeros_like(state.v)
    if A is None and B is None:
        return out
    x = grid.x_nodes()
    w = state.v + state.u0hat
    times = state.r + np.arange(m) * grid.dt
    state.max_abs_w = max(state.max_abs_w, float(np.abs(w[:m]).max()))
    if A is not None:
        lam_src = np.array([problem.Lambda(t, x, wj) * wj for t, wj in zip(times, w)])
        out[1:] += fftconvolve(lam_src, A)[:m, n - 1 : 2 * n - 1]
    if B is not None:
        b_src = np.array([problem.b(t, x, wj) * wj for t, wj in zip(times, w)])
        out[1:] += fftconvolve(b_src, B)[:m, n - 1 : 2 * n - 1]
    return out


def test_solve_matches_the_2d_convolution_sweep(monkeypatch):
    # Picard sweeps of picard_map from a perturbed start, glued over the run
    prob = preset("burgers", nu=1.0, u0_var=0.04)
    grid = plan_grid(prob, R=7.0, n_x=257, n_t_min=256)
    u, states = picard_solve(prob, grid, 1e-8, perturb=0.1)
    _, A, B = slab_weights(prob, grid)
    monkeypatch.setattr(mild, "picard_map",
                        lambda state, problem: _picard_map_2d(state, problem, A, B))
    u_2d, states_2d = picard_solve(prob, grid, 1e-8, perturb=0.1)
    sweeps = [len(state.residual_history) for state in states]
    assert min(sweeps) >= 3
    assert sweeps == [len(state.residual_history) for state in states_2d]
    assert np.abs(u.values - u_2d.values).max() <= 1e-12 * np.abs(u_2d.values).max()
    assert max(state.max_abs_w for state in states) == \
        pytest.approx(max(state.max_abs_w for state in states_2d), rel=1e-12)


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


def test_lookup_with_and_without_buffers():
    grid = GridSpec(R=2.0, n_x=9, n_t=4, T=1.0, n_slabs=4)
    f = Field(grid, np.random.default_rng(5).standard_normal((5, 9)))
    x = np.linspace(-3.0, 3.0, 41)
    first, nodes = f.lookup(1, x), grid.nearest_node(x)
    kept = first.copy(), nodes.copy()
    # a second call on other inputs makes its own arrays
    f.lookup(2, -x)
    grid.nearest_node(x + 0.5)
    assert np.array_equal(first, kept[0]) and np.array_equal(nodes, kept[1])
    # given buffers receive the same values and are what the calls return
    out, index = np.empty(x.size), np.empty(x.size, np.int64)
    assert f.lookup(1, x, out, index) is out
    assert np.array_equal(out, first)
    assert grid.nearest_node(x, out=index) is index
    assert np.array_equal(index, nodes)


def test_burgers_mild_matches_closed_form_oracle():
    # triangular cross-validation: the Picard solution, the finite-volume
    # reference and the exact Cole-Hopf cell averages are three independent
    # routes to the same object
    from mfklab.oracles import burgers_cell_means

    prob = preset("burgers", nu=1.0, u0_var=0.04, T=0.5)
    grid = plan_grid(prob, R=7.0, n_x=257, n_t_min=512)
    u, _ = solve(prob, grid)
    w = trapezoid_weights(grid.n_x, grid.dx)
    for t in (0.25, 0.5):
        k = grid.time_index(t)
        cf = burgers_cell_means(prob.u0, 1.0, t, grid)
        assert float(np.dot(w, np.abs(u.values[k] - cf))) <= 2e-3


def test_heat_error_grows_with_the_slab_count():
    # heat forced to N slabs on one grid: each junction re-smooths the slab's
    # starting cell means, so the L1 error at T grows in proportion to N (the
    # values are the same at n_t = 1024, so this is not the time step).  The
    # bounds sit just above the values measured at 129 nodes, 1.04e-5 in one
    # slab to 2.65e-3 in 256; junctions that compose exactly would lower them
    prob = preset("heat", nu=1.0, u0_var=0.04, T=1.0)
    bounds = {1: 1.1e-5, 4: 4.4e-5, 16: 1.75e-4, 64: 7.0e-4, 256: 2.8e-3}
    for n_slabs, bound in bounds.items():
        grid = GridSpec(R=8.0, n_x=129, n_t=256, T=1.0, n_slabs=n_slabs)
        u, _ = solve(prob, grid)
        exact = exact_cell_means(prob, grid, [grid.n_t])[0]
        l1 = float(np.dot(trapezoid_weights(grid.n_x, grid.dx), np.abs(u.values[-1] - exact)))
        assert l1 <= bound, (n_slabs, l1)


def test_exponential_growth_error_is_first_order_in_dt():
    # one slab of exponential_growth at 257 nodes: the L1 at T halves with
    # the step, 1.2570e-2 at n_t 16 and 6.3617e-3 at 32 (ratio 1.976), and
    # the bounds sit just above these values.  Slab operators of second
    # order in dt must tighten this test to a ratio near 4
    prob = preset("exponential_growth")
    l1 = {}
    for n_t in (16, 32):
        grid = plan_grid(prob, 8.0, 257, n_t)
        assert grid.n_slabs == 1
        u, _ = solve(prob, grid)
        exact = exact_cell_means(prob, grid, [grid.n_t])[0]
        l1[n_t] = float(np.dot(trapezoid_weights(grid.n_x, grid.dx), np.abs(u.values[-1] - exact)))
    assert 1.9 <= l1[16] / l1[32] <= 2.1, l1
    assert l1[32] <= 6.4e-3, l1


def test_constant_drift_through_b_and_through_b0():
    # one constant drift c = 0.25 taken two ways over one slab (tau_max = T):
    # through b, the Duhamel drift term of the slab map, and through b0,
    # exact inside the kernel.  The L1 at T against the cell means of
    # N(c T, 0.04 + T) reads 1.0421e-3 at n_t 32 and 4.3512e-4 at 64 through
    # b (ratio 2.395), and 2.6672e-6 at both through b0; the bounds sit just
    # above.  Slab operators that compose exactly must tighten them: the b
    # path to O(dt^2), with no dependence on n_x
    c, T = 0.25, 0.25
    zero = lambda t, x, z: np.zeros_like(np.asarray(z, dtype=float))
    drift = lambda t, x, z: np.full_like(np.asarray(z, dtype=float), c)
    u0 = GaussianDensity(0.0, 0.04)
    paths = {"b": ProblemSpec("drift", T, 1.0, drift, zero, u0, M_b=c, M_Lambda=0.0,
                              L_b=0.0, L_Lambda=0.0, z_max=3.0),
             "b0": ProblemSpec("base_drift", T, 1.0, zero, zero, u0, M_b=0.0,
                               M_Lambda=0.0, L_b=0.0, L_Lambda=0.0, z_max=3.0, b0=c)}
    l1 = {}
    for name, prob in paths.items():
        for n_t in (32, 64):
            grid = GridSpec(6.0, 257, n_t, T)
            u, _ = solve(prob, grid)
            exact = cell_means_from_cdf(GaussianDensity(c * T, 0.04 + T).cdf, grid)
            l1[name, n_t] = float(np.dot(trapezoid_weights(grid.n_x, grid.dx),
                                         np.abs(u.values[-1] - exact)))
    assert max(l1["b0", 32], l1["b0", 64]) <= 2.7e-6, l1
    assert l1["b", 64] <= 4.4e-4, l1
    assert 2.3 <= l1["b", 32] / l1["b", 64] <= 2.5, l1


def test_base_drift_shifts_the_heat_solution():
    # exercises the drift-shift path of the kernel weights end to end
    zero = lambda t, x, z: np.zeros_like(np.asarray(z, dtype=float))
    prob = ProblemSpec("drifted_heat", 1.0, 1.0, zero, zero,
                       GaussianDensity(0.0, 0.04), M_b=0.0, M_Lambda=0.0,
                       L_b=0.0, L_Lambda=0.0, z_max=3.0, b0=0.5)
    grid = plan_grid(prob, R=8.0, n_x=512, n_t_min=32)
    u, _ = solve(prob, grid)
    x = grid.x_nodes()
    w = trapezoid_weights(grid.n_x, grid.dx)
    for k, t in enumerate(grid.times()):
        oracle = prob.u0.pdf(x) if t == 0 else heat_oracle(0.5 * t, 0.04, 1.0, t, x)
        assert float(np.dot(w, np.abs(u.values[k] - oracle))) <= 2e-3
