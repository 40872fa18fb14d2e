import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mfklab
from mfklab.grids import Field, GridSpec
from mfklab.mild import plan_grid, solve
from mfklab.oracles import heat_oracle
from mfklab.particles import (
    _binned_kde,
    density_estimate,
    silverman_bandwidth,
    simulate_frozen,
    solve_selfconsistent,
    weighted_functional,
)
from mfklab.problems import GaussianDensity, ProblemSpec, preset
from mfklab.quadrature import trapezoid_weights


def _zero_field(prob):
    """z = 0 at every particle: one time interval divides any step count."""
    return Field.zeros(GridSpec(R=1.0, n_x=2, n_t=1, T=prob.T))


def test_frozen_heat_brownian_variance():
    prob = preset("heat", nu=1.0, u0_var=1e-6)
    ens = simulate_frozen(_zero_field(prob), prob, 100_000, 1.0 / 128, seed=42)
    v = ens.positions[-1].var(ddof=1)
    se = math.sqrt(2.0 / (100_000 - 1))  # var of the sample variance of N(0,1)
    assert abs(v - 1.0) <= 3 * se


def test_constant_growth_weights_exact():
    prob = preset("exponential_growth", lam=0.5)
    ens = simulate_frozen(_zero_field(prob), prob, 500, 1.0 / 64, seed=1)
    for t in (0.25, 0.5, 1.0):
        k = ens.grid.time_index(t)
        assert np.abs(ens.logw[k] - 0.5 * t).max() == 0.0


def test_weight_bound_invariant():
    prob = preset("logistic_fkpp", lam=0.4, z_max=2.0)
    grid = GridSpec(R=7.0, n_x=129, n_t=64, T=1.0)
    _, rec = solve_selfconsistent(prob, 2000, 1.0 / 64, 3, grid)
    ens = simulate_frozen(rec, prob, 2000, 1.0 / 64, seed=3)
    for k, t in enumerate(ens.grid.times()):
        assert np.abs(ens.logw[k]).max() <= prob.M_Lambda * t + 1e-12


def test_initial_drift_functional_matches_quadrature():
    # ensemble mean of b(0, Y0, u(0, Y0)) against the density-weighted integral
    prob = preset("burgers", nu=1.0, u0_var=0.04, T=0.25)
    grid = plan_grid(prob, R=7.0, n_x=513, n_t_min=256)
    u, _ = solve(prob, grid, tol=1e-8)
    N = 200_000
    ens = simulate_frozen(u, prob, N, 1.0 / 256, seed=9)
    y0 = ens.positions[0]
    z0 = u.lookup(0, y0)
    vals = np.asarray(prob.b(0.0, y0, z0))
    est, se = float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(N))
    x = grid.x_nodes()
    w = trapezoid_weights(grid.n_x, grid.dx)
    quadrature = float(np.dot(w, np.asarray(prob.b(0.0, x, u.values[0])) * prob.u0.pdf(x)))
    assert abs(est - quadrature) <= 3 * se


def test_functional_unit_weights():
    prob = preset("heat")
    ens = simulate_frozen(_zero_field(prob), prob, 1000, 1.0 / 32, seed=5)
    est, se = weighted_functional(ens, lambda x: np.ones_like(x), 0.5)
    assert est == 1.0
    assert se == 0.0


def test_functional_constant_growth():
    prob = preset("exponential_growth", lam=0.5)
    ens = simulate_frozen(_zero_field(prob), prob, 1000, 1.0 / 32, seed=6)
    est, se = weighted_functional(ens, lambda x: np.ones_like(x), 1.0)
    assert est == pytest.approx(math.exp(0.5), rel=1e-12)
    assert se <= 1e-12


def test_functional_rejects_off_level_time():
    prob = preset("heat")
    ens = simulate_frozen(_zero_field(prob), prob, 100, 1.0 / 32, seed=7)
    with pytest.raises(ValueError):
        weighted_functional(ens, lambda x: x, 0.123)


def test_dt_must_divide_horizon_and_grid():
    prob = preset("heat")
    with pytest.raises(ValueError, match="divide"):
        simulate_frozen(_zero_field(prob), prob, 10, 0.3, seed=0)
    grid = GridSpec(R=7.0, n_x=65, n_t=96, T=1.0)
    u, _ = solve(prob, grid)
    with pytest.raises(ValueError, match="incompatible"):
        simulate_frozen(u, prob, 10, 1.0 / 64, seed=0)


@pytest.mark.parametrize("n_f, dt", [(12, 0.25), (3, 1.0 / 12), (10, 0.1)])
def test_frozen_steps_read_the_left_field_level(n_f, dt):
    # level k of the field holds k and Lambda = z, so the log-weights show
    # which level each step read; the field is finer, coarser, and equal
    zero = lambda t, x, z: np.zeros_like(z)
    prob = ProblemSpec("level_probe", 1.0, 1.0, zero, lambda t, x, z: np.asarray(z),
                       GaussianDensity(0.0, 0.04), M_b=0.0, M_Lambda=float(n_f),
                       L_b=0.0, L_Lambda=1.0, z_max=float("inf"))
    field_grid = GridSpec(R=100.0, n_x=2, n_t=n_f, T=1.0)
    u = Field(field_grid, np.repeat(np.arange(n_f + 1.0)[:, None], 2, axis=1))
    ens = simulate_frozen(u, prob, 50, dt, seed=4)
    # the rule the float-time lookup used: left level, up to a 1e-12 dt nudge
    expected = np.zeros(ens.grid.n_t + 1)
    read = []
    for k, t in enumerate(ens.grid.times()[:-1]):
        level = np.searchsorted(field_grid.times(), t + 1e-12 * field_grid.dt, side="right") - 1
        read.append(min(level, n_f))
        expected[k + 1] = expected[k] + read[-1] * ens.grid.dt
    assert len(set(read)) == min(n_f, ens.grid.n_t)
    assert np.array_equal(ens.logw, np.repeat(expected[:, None], 50, axis=1))


def test_seed_determinism_bit_identical():
    prob = preset("burgers", nu=1.0, u0_var=0.04)
    grid = GridSpec(R=7.0, n_x=129, n_t=64, T=1.0)
    u, _ = solve(preset("heat"), grid)  # any frozen field exercises the lookups
    a = simulate_frozen(u, prob, 2000, 1.0 / 64, seed=77)
    b = simulate_frozen(u, prob, 2000, 1.0 / 64, seed=77)
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.logw, b.logw)
    c = simulate_frozen(u, prob, 2000, 1.0 / 64, seed=78)
    assert not np.array_equal(a.positions, c.positions)


class TestDensityEstimate:
    def test_single_particle_is_the_kernel(self):
        prob = preset("heat")
        ens = simulate_frozen(_zero_field(prob), prob, 1, 1.0 / 4, seed=3)
        ens.positions[:] = 0.0
        ens.logw[:] = 0.0
        grid = GridSpec(R=3.0, n_x=301, n_t=4, T=1.0)
        de = density_estimate(ens, 1.0, 0.2, grid)
        x = grid.x_nodes()
        expected = np.exp(-0.5 * (x / 0.2) ** 2) / (0.2 * math.sqrt(2 * math.pi))
        assert np.abs(de.values - expected).max() <= 1e-12

    def test_constant_weights_scale_estimate(self):
        prob = preset("exponential_growth", lam=0.5)
        ens = simulate_frozen(_zero_field(prob), prob, 400, 1.0 / 16, seed=8)
        grid = GridSpec(R=8.0, n_x=257, n_t=16, T=1.0)
        de1 = density_estimate(ens, 1.0, 0.3, grid)
        unweighted = ens.logw.copy()
        ens.logw[:] = 0.0
        de0 = density_estimate(ens, 1.0, 0.3, grid)
        ens.logw[:] = unweighted
        assert np.allclose(de1.values, math.exp(0.5) * de0.values, rtol=1e-12)

    def test_kde_mass_matches_mean_weight(self):
        prob = preset("exponential_growth", lam=0.5)
        ens = simulate_frozen(_zero_field(prob), prob, 5000, 1.0 / 32, seed=9)
        grid = GridSpec(R=10.0, n_x=801, n_t=16, T=1.0)
        de = density_estimate(ens, 1.0, None, grid)
        mean_w = float(np.exp(ens.logw[-1]).mean())
        assert de.mass() == pytest.approx(mean_w, abs=2e-4)

    def test_heat_kde_error_shrinks_with_n(self):
        prob = preset("heat", nu=1.0, u0_var=0.04)
        grid = GridSpec(R=7.0, n_x=257, n_t=8, T=1.0)
        x = grid.x_nodes()
        target = heat_oracle(0.0, 0.04, 1.0, 1.0, x)
        errs = []
        for n in (500, 5_000, 50_000):
            dists = []
            for s in range(3):
                ens = simulate_frozen(_zero_field(prob), prob, n, 1.0 / 8, seed=100 + s)
                de = density_estimate(ens, 1.0, None, grid)
                dists.append(float(np.abs(de.values - target).sum() * grid.dx))
            errs.append(np.median(dists))
        assert errs[2] < errs[1] < errs[0]


class TestSelfConsistent:
    def test_heat_closure_is_inert(self):
        prob = preset("heat")
        grid = GridSpec(R=7.0, n_x=129, n_t=32, T=1.0)
        ens_free = simulate_frozen(_zero_field(prob), prob, 3000, 1.0 / 32, seed=21)
        ens_sc, rec = solve_selfconsistent(prob, 3000, 1.0 / 32, 21, grid)
        assert np.array_equal(ens_free.positions, ens_sc.positions)
        assert np.array_equal(ens_free.logw, ens_sc.logw)
        assert np.array_equal(rec.values[0], prob.u0.pdf(grid.x_nodes()))

    def test_growth_mass_recovered(self):
        prob = preset("exponential_growth", lam=0.5)
        grid = GridSpec(R=9.0, n_x=257, n_t=32, T=1.0)
        _, rec = solve_selfconsistent(prob, 50_000, 1.0 / 64, 31, grid)
        mass = float(np.trapezoid(rec.values[-1], grid.x_nodes()))
        # weights are deterministic e^{lam t}; the residual error is KDE truncation
        assert mass == pytest.approx(math.exp(0.5), abs=5e-3)

    def test_burgers_tracks_mild_solution(self):
        prob = preset("burgers", nu=1.0, u0_var=0.04, T=0.5)
        grid = plan_grid(prob, R=7.0, n_x=257, n_t_min=512)
        u, _ = solve(prob, grid, tol=1e-7)
        _, rec = solve_selfconsistent(prob, 50_000, 1.0 / 128, 17, grid)
        w = trapezoid_weights(grid.n_x, grid.dx)
        dist = float(np.dot(w, np.abs(rec.values[-1] - u.values[-1])))
        assert dist <= 0.05

    def test_field_identical_across_blas_threads(self):
        # N = 1e5 is past the size at which OpenBLAS splits a dot product
        # over threads, so a BLAS reduction in the closure would show here
        script = (
            "import sys\n"
            "from mfklab.grids import GridSpec\n"
            "from mfklab.particles import solve_selfconsistent\n"
            "from mfklab.problems import preset\n"
            "prob = preset('burgers', nu=1.0, u0_var=0.04)\n"
            "grid = GridSpec(R=8.0, n_x=129, n_t=16, T=prob.T)\n"
            "_, rec = solve_selfconsistent(prob, 100_000, prob.T / 16, 7000, grid)\n"
            "sys.stdout.buffer.write(rec.values.tobytes())\n"
        )
        src = str(Path(mfklab.__file__).resolve().parents[1])
        fields = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
            proc = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, check=True, timeout=300)
            fields.append(proc.stdout)
        assert len(fields[0]) == 17 * 129 * 8
        assert fields[0] == fields[1]


def _binned_kde_masked(y, w, grid, h, n_total):
    """Linear binning with explicit masks for the shares outside the nodes:
    the oracle for _binned_kde's pad bins."""
    from scipy.signal import fftconvolve
    from scipy.special import ndtr

    dx = grid.dx
    pos = (y + grid.R) / dx
    j = np.floor(pos).astype(int)
    frac = pos - j
    inside = (j >= -1) & (j < grid.n_x)
    binned = np.zeros(grid.n_x)
    jl = np.clip(j, 0, grid.n_x - 1)
    jr = np.clip(j + 1, 0, grid.n_x - 1)
    keep_l = inside & (j >= 0)
    keep_r = inside & (j + 1 < grid.n_x)
    np.add.at(binned, jl[keep_l], (w * (1.0 - frac))[keep_l])
    np.add.at(binned, jr[keep_r], (w * frac)[keep_r])
    m = np.arange(-(grid.n_x - 1), grid.n_x) * dx
    kern = (ndtr((m + 0.5 * dx) / h) - ndtr((m - 0.5 * dx) / h)) / dx
    return fftconvolve(binned, kern)[grid.n_x - 1 : 2 * grid.n_x - 1] / n_total


@pytest.mark.parametrize("spread", [0.5, 3.0, 9.0])
def test_binned_kde_pad_bins_match_masks(spread):
    grid = GridSpec(R=8.0, n_x=512, n_t=4, T=1.0)
    R, dx = grid.R, grid.dx
    rng = np.random.Generator(np.random.Philox(key=int(10 * spread)))
    edges = np.array([R, R + dx / 2, R - dx / 2, R + dx, R - dx, 100.0])
    y = np.concatenate((edges, -edges, spread * rng.standard_normal(20_000)))
    w = np.exp(0.3 * rng.standard_normal(y.size))
    got = _binned_kde(y, w, grid, 0.2, y.size)
    assert np.array_equal(got, _binned_kde_masked(y, w, grid, 0.2, y.size))


def test_silverman_bandwidth_scaling():
    rng = np.random.Generator(np.random.Philox(key=4))
    x = rng.standard_normal(10_000)
    w = np.ones_like(x)
    h = silverman_bandwidth(x, w)
    assert h == pytest.approx(1.06 * x.std() * 10_000 ** (-0.2), rel=1e-6)
    # concentrating the weights shrinks the effective sample size, widening h
    w2 = np.zeros_like(x)
    w2[:100] = 1.0
    assert silverman_bandwidth(x, w2) > h
