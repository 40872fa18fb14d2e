import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mfklab
from mfklab.grids import Field, GridSpec
from mfklab.kernel import apply_spectra, gap_spectra
from mfklab.mild import plan_grid, solve
from mfklab.oracles import heat_oracle
from mfklab.particles import (
    _binned_kde,
    _kde_row,
    _march,
    density_estimate,
    particle_grid,
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
    ens = simulate_frozen(_zero_field(prob), prob, 100_000, 1.0 / 128, 42, [1.0])
    v = ens.positions[-1].var(ddof=1)
    se = math.sqrt(2.0 / (100_000 - 1))  # var of the sample variance of N(0,1)
    assert abs(v - 1.0) <= 3 * se


def test_constant_growth_weights_exact():
    prob = preset("exponential_growth", lam=0.5)
    zero = _zero_field(prob)
    ens = simulate_frozen(zero, prob, 500, 1.0 / 64, 1, particle_grid(zero.grid, 1.0 / 64).times())
    for t in (0.25, 0.5, 1.0):
        k = ens.grid.time_index(t)
        assert np.abs(ens.logw[k] - 0.5 * t).max() == 0.0


def test_weight_bound_invariant():
    prob = preset("logistic_fkpp", lam=0.4, z_max=2.0)
    grid = GridSpec(R=7.0, n_x=129, n_t=64, T=1.0)
    _, rec = solve_selfconsistent(prob, 2000, 1.0 / 64, 3, grid)
    ens = simulate_frozen(rec, prob, 2000, 1.0 / 64, 3, particle_grid(grid, 1.0 / 64).times())
    for k, t in enumerate(ens.grid.times()):
        assert np.abs(ens.logw[k]).max() <= prob.M_Lambda * t + 1e-12


def test_initial_drift_functional_matches_quadrature():
    # ensemble mean of b(0, Y0, u(0, Y0)) against the density-weighted integral
    prob = preset("burgers", nu=1.0, u0_var=0.04, T=0.25)
    grid = plan_grid(prob, R=7.0, n_x=513, n_t_min=256)
    u, _ = solve(prob, grid)
    N = 200_000
    ens = simulate_frozen(u, prob, N, 1.0 / 256, 9, [0.0])
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
    ens = simulate_frozen(_zero_field(prob), prob, 1000, 1.0 / 32, 5, [0.5])
    est, se = weighted_functional(ens, lambda x: np.ones_like(x), 0.5)
    assert est == 1.0
    assert se == 0.0


def test_functional_constant_growth():
    prob = preset("exponential_growth", lam=0.5)
    ens = simulate_frozen(_zero_field(prob), prob, 1000, 1.0 / 32, 6, [1.0])
    est, se = weighted_functional(ens, lambda x: np.ones_like(x), 1.0)
    assert est == pytest.approx(math.exp(0.5), rel=1e-12)
    assert se <= 1e-12


def test_functional_rejects_off_level_time():
    prob = preset("heat")
    ens = simulate_frozen(_zero_field(prob), prob, 100, 1.0 / 32, 7, [0.5])
    with pytest.raises(ValueError):
        weighted_functional(ens, lambda x: x, 0.123)


def test_dt_must_divide_horizon_and_grid():
    prob = preset("heat")
    with pytest.raises(ValueError, match="divide"):
        simulate_frozen(_zero_field(prob), prob, 10, 0.3, 0, [1.0])
    grid = GridSpec(R=7.0, n_x=65, n_t=96, T=1.0)
    u, _ = solve(prob, grid)
    with pytest.raises(ValueError, match="incompatible"):
        simulate_frozen(u, prob, 10, 1.0 / 64, 0, [1.0])


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
    ens = simulate_frozen(u, prob, 50, dt, 4, particle_grid(field_grid, dt).times())
    # the rule the float-time lookup used: left level, up to a 1e-12 dt nudge
    expected = np.zeros(ens.grid.n_t + 1)
    read = []
    for k, t in enumerate(ens.grid.times()[:-1]):
        level = np.searchsorted(field_grid.times(), t + 1e-12 * field_grid.dt, side="right") - 1
        read.append(min(level, n_f))
        expected[k + 1] = expected[k] + read[-1] * ens.grid.dt
    assert len(set(read)) == min(n_f, ens.grid.n_t)
    assert np.array_equal(ens.logw, np.repeat(expected[:, None], 50, axis=1))


def _march_every_level(problem, N, grid, seed, feedback):
    """The full-trajectory loop that the streaming march replaced: its oracle."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    y = problem.u0.sample(rng, N)
    positions = np.empty((grid.n_t + 1, N))
    logw = np.zeros((grid.n_t + 1, N))
    positions[0] = y
    times = grid.times()
    dt = grid.dt
    sq = np.sqrt(dt)
    for k in range(grid.n_t):
        t = times[k]
        z = feedback(k, y, logw[k], None)
        drift = np.asarray(problem.b(t, y, z)) + problem.b0
        lam = np.asarray(problem.Lambda(t, y, z))
        logw[k + 1] = logw[k] + lam * dt
        y = y + problem.Phi * sq * rng.standard_normal(N) + drift * dt
        positions[k + 1] = y
    return positions, logw


def _closure_feedback(problem, grid, steps, N):
    """solve_selfconsistent's feedback: level k's binned KDE, looked up at y."""
    rec = Field.zeros(steps)
    rec.values[0] = problem.u0.pdf(grid.x_nodes())

    def feedback(k, y, logw, work):
        if k > 0:
            w = np.exp(logw)
            rec.values[k] = _binned_kde(y, w, grid, silverman_bandwidth(y, w), N)
        return rec.lookup(k, y)
    return feedback


def _recording(feedback, seen):
    """feedback that also appends max |z| of each step to seen."""
    def wrapped(k, y, logw, work):
        z = feedback(k, y, logw, work)
        seen.append(float(np.abs(z).max()))
        return z
    return wrapped


# out of order, with a repeat and level 0
KEPT_TIMES = (1.0, 0.25, 0.5, 0.25, 0.0)


def _aliasing_problem(b, Lambda):
    """A problem with the given coefficients and a base drift b0 != 0."""
    return ProblemSpec("aliasing", 1.0, 1.0, b, Lambda, GaussianDensity(0.0, 0.04),
                       M_b=0.0, M_Lambda=0.0, L_b=0.0, L_Lambda=1.0, z_max=float("inf"),
                       b0=0.3)


# the march steps y and logw in place: burgers reads z in b, logistic_fkpp in
# Lambda, so logw moves in place, and "aliasing" returns b's x argument (y)
# and Lambda's z argument, so a step that wrote into what b or Lambda returned,
# or into y before the drift was taken, would change the rows
STREAM_PROBLEMS = [
    pytest.param(preset("burgers", nu=1.0, u0_var=0.04), id="burgers"),
    pytest.param(preset("logistic_fkpp", lam=0.5), id="logistic_fkpp"),
    pytest.param(_aliasing_problem(lambda t, x, z: x, lambda t, x, z: z), id="aliasing"),
]


@pytest.mark.parametrize("prob", STREAM_PROBLEMS)
def test_frozen_stream_keeps_the_oracle_rows(prob):
    grid = GridSpec(R=7.0, n_x=129, n_t=32, T=1.0)
    u, _ = solve(preset("heat"), grid)
    N, dt = 3000, 1.0 / 64
    ens = simulate_frozen(u, prob, N, dt, 5, KEPT_TIMES)
    assert ens.levels == (0, 16, 32, 64)
    assert ens.positions.shape == ens.logw.shape == (len(ens.levels), N)
    seen = []
    feedback = _recording(lambda k, y, logw, work: u.lookup(k * 32 // 64, y), seen)
    positions, logw = _march_every_level(prob, N, ens.grid, 5, feedback)
    assert np.array_equal(ens.positions, positions[list(ens.levels)])
    assert np.array_equal(ens.logw, logw[list(ens.levels)])
    assert ens.max_abs_z == max(seen)
    phi = lambda x: np.cos(x)
    for t in KEPT_TIMES:
        k = ens.grid.time_index(t)
        vals = phi(positions[k]) * np.exp(logw[k])
        assert weighted_functional(ens, phi, t)[0] == float(vals.mean())


@pytest.mark.parametrize("prob", STREAM_PROBLEMS)
def test_closure_stream_keeps_the_oracle_rows(prob):
    grid = GridSpec(R=8.0, n_x=129, n_t=16, T=prob.T)
    N, dt = 3000, prob.T / 32
    steps = particle_grid(grid, dt)
    seen = []
    feedback = _recording(_closure_feedback(prob, grid, steps, N), seen)
    positions, logw = _march_every_level(prob, N, steps, 8, feedback)
    ens, _ = solve_selfconsistent(prob, N, dt, 8, grid)
    assert ens.levels == (steps.n_t,)
    assert ens.positions.shape == (1, N)
    assert np.array_equal(ens.positions[0], positions[-1])
    assert np.array_equal(ens.logw[0], logw[-1])
    assert ens.max_abs_z == max(seen)
    levels = [steps.time_index(t * prob.T) for t in KEPT_TIMES]
    kept = _march(prob, N, steps, 8, _closure_feedback(prob, grid, steps, N), levels)
    assert kept.levels == (0, 8, 16, 32)
    assert np.array_equal(kept.positions, positions[list(kept.levels)])
    assert np.array_equal(kept.logw, logw[list(kept.levels)])


def test_step_only_reads_what_the_coefficients_return():
    # b and Lambda hand back the feedback's read-only z: a step that wrote
    # into either result would raise
    N = 500
    z = np.linspace(0.0, 1.0, N)
    z.flags.writeable = False
    prob = _aliasing_problem(lambda t, x, z: z, lambda t, x, z: z)
    steps = GridSpec(R=7.0, n_x=2, n_t=16, T=1.0)
    feedback = lambda k, y, logw, work: z
    ens = _march(prob, N, steps, 3, feedback, range(steps.n_t + 1))
    positions, logw = _march_every_level(prob, N, steps, 3, feedback)
    assert np.array_equal(ens.positions, positions)
    assert np.array_equal(ens.logw, logw)


@pytest.mark.parametrize("n_t", [8, 64])
def test_march_holds_a_fixed_set_of_arrays(n_t):
    # with coefficients and a feedback that make no array, the march's peak
    # is y, logw, the four work arrays, the noise array being filled and the
    # kept row of each, whatever the step count: no step makes an N-sized
    # temporary
    import tracemalloc

    N = 20_000
    z = np.full(N, 0.5)
    prob = _aliasing_problem(lambda t, x, z: z, lambda t, x, z: z)
    steps = GridSpec(R=7.0, n_x=2, n_t=n_t, T=1.0)
    tracemalloc.start()
    try:
        _march(prob, N, steps, 3, lambda k, y, logw, work: z, [n_t])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 9 * N * 8 <= peak < 9.5 * N * 8


def test_march_with_burgers_coefficients_holds_one_more_array():
    # burgers' Lambda is a read-only zero view and its b makes one clipped
    # copy of z, so the march holds at most one N-sized array beyond the
    # fixed set of the test above
    import tracemalloc

    N, n_t = 20_000, 8
    z = np.full(N, 0.5)
    prob = preset("burgers", nu=1.0, u0_var=0.04)
    steps = GridSpec(R=7.0, n_x=2, n_t=n_t, T=1.0)
    tracemalloc.start()
    try:
        _march(prob, N, steps, 3, lambda k, y, logw, work: z, [n_t])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 9 * N * 8 <= peak < 10.5 * N * 8


def test_feedback_failure_ends_the_noise_thread():
    # the noise worker is shut down and joined on every exit of the march, a
    # failing feedback's included, and the feedback's error reaches the caller
    import threading

    prob = preset("heat")
    steps = GridSpec(R=7.0, n_x=2, n_t=8, T=1.0)

    def feedback(k, y, logw, work):
        if k == 3:
            raise RuntimeError("feedback failed at step 3")
        return np.zeros_like(y)

    before = threading.active_count()
    with pytest.raises(RuntimeError, match="step 3"):
        _march(prob, 1000, steps, 3, feedback, [8])
    assert threading.active_count() == before


class _FailingDraws:
    """A Philox generator whose normal draws into an out array raise after
    the first `good` of them."""

    def __init__(self, seed, good):
        self._rng = np.random.Generator(np.random.Philox(key=seed))
        self._good = good

    def standard_normal(self, size=None, out=None):
        if out is not None:
            if self._good == 0:
                raise FloatingPointError("draw failed")
            self._good -= 1
        return self._rng.standard_normal(size, out=out)


@pytest.mark.parametrize("good", [0, 5])
def test_noise_failure_is_raised_in_the_caller(monkeypatch, good):
    import threading

    import mfklab.particles as particles

    monkeypatch.setattr(particles, "_rng", lambda seed: _FailingDraws(seed, good))
    prob = preset("heat")
    steps = GridSpec(R=7.0, n_x=2, n_t=8, T=1.0)
    before = threading.active_count()
    with pytest.raises(FloatingPointError, match="draw failed"):
        _march(prob, 1000, steps, 3, lambda k, y, logw, work: np.zeros_like(y), [8])
    assert threading.active_count() == before


def test_one_step_march_is_the_oracle():
    # with one step, the one fill is started and none after it
    prob = preset("burgers", nu=1.0, u0_var=0.04)
    steps = GridSpec(R=7.0, n_x=2, n_t=1, T=1.0)
    feedback = lambda k, y, logw, work: np.full_like(y, 0.5)
    ens = _march(prob, 2000, steps, 4, feedback, [0, 1])
    positions, logw = _march_every_level(prob, 2000, steps, 4, feedback)
    assert np.array_equal(ens.positions, positions)
    assert np.array_equal(ens.logw, logw)


class _EagerExecutor:
    """ThreadPoolExecutor without its thread: submit() draws at once and
    returns a finished Future, so a march that submitted the next draw
    before adding the noise array would add the next step's normals in
    place of its own, on every run."""

    def __init__(self, max_workers, thread_name_prefix=""):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        from concurrent.futures import Future

        done = Future()
        done.set_result(fn(*args))
        return done


def test_march_adds_each_noise_before_the_next_fill(monkeypatch):
    import concurrent.futures

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", _EagerExecutor)
    prob = preset("burgers", nu=1.0, u0_var=0.04)
    steps = GridSpec(R=7.0, n_x=2, n_t=8, T=1.0)
    feedback = lambda k, y, logw, work: np.full_like(y, 0.5)
    ens = _march(prob, 500, steps, 6, feedback, range(steps.n_t + 1))
    positions, logw = _march_every_level(prob, 500, steps, 6, feedback)
    assert np.array_equal(ens.positions, positions)
    assert np.array_equal(ens.logw, logw)


def test_concurrent_marches_under_a_short_switch_interval_match_the_oracle():
    # four marches at once, each with its noise worker, on two or fewer
    # cores and with the interpreter switching threads every microsecond: a
    # fill handed over or read out of turn would change some march's rows
    import threading

    prob = preset("burgers", nu=1.0, u0_var=0.04)
    steps = GridSpec(R=7.0, n_x=2, n_t=32, T=1.0)
    feedback = lambda k, y, logw, work: np.multiply(y, 0.1, out=work.floats[0])
    results = {}

    def march(seed):
        results[seed] = _march(prob, 2000, steps, seed, feedback, range(steps.n_t + 1))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=march, args=(seed,)) for seed in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    for seed in range(4):
        positions, logw = _march_every_level(prob, 2000, steps, seed,
                                             lambda k, y, logw, work: 0.1 * y)
        assert np.array_equal(results[seed].positions, positions)
        assert np.array_equal(results[seed].logw, logw)


def test_preset_zero_coefficient_is_a_read_only_view():
    zero = preset("heat").b
    z = np.linspace(-1.0, 1.0, 7)
    out = zero(0.0, z, z)
    assert out.shape == z.shape and not out.flags.writeable
    assert np.array_equal(out, np.zeros(7))
    assert zero(0.0, 0.0, 0.3).shape == ()


def test_unkept_time_is_refused():
    prob = preset("heat")
    ens = simulate_frozen(_zero_field(prob), prob, 100, 1.0 / 32, 7, [0.5, 1.0])
    grid = GridSpec(R=3.0, n_x=31, n_t=4, T=1.0)
    with pytest.raises(ValueError, match="kept times: 0.5, 1"):
        weighted_functional(ens, lambda x: x, 0.25)
    with pytest.raises(ValueError, match="kept times: 0.5, 1"):
        density_estimate(ens, 0.0, 0.2, grid)


def test_health_of_the_kept_levels():
    prob = preset("exponential_growth", lam=0.5)
    ens = simulate_frozen(_zero_field(prob), prob, 1000, 1.0 / 32, 11, [1.0, 0.5])
    R = ens.grid.R
    ens.positions[0] = 0.5 * R
    ens.positions[1] = 0.0
    ens.positions[1, :250] = 2.0 * R  # half of level T outside [-R, R]
    ens.positions[1, 250:500] = -2.0 * R
    early, final = ens.health()
    assert (early["t"], final["t"]) == (0.5, 1.0)
    # equal weights: the ESS is N, and the share outside counts particles
    assert early["ess_frac"] == pytest.approx(1.0, rel=1e-12)
    assert early["outside_box"] == 0.0
    assert final["outside_box"] == 0.5
    assert final["bandwidth"] == silverman_bandwidth(ens.positions[1], np.exp(ens.logw[1]))


def test_seed_determinism_bit_identical():
    prob = preset("burgers", nu=1.0, u0_var=0.04)
    grid = GridSpec(R=7.0, n_x=129, n_t=64, T=1.0)
    u, _ = solve(preset("heat"), grid)  # any frozen field exercises the lookups
    every = particle_grid(grid, 1.0 / 64).times()
    a = simulate_frozen(u, prob, 2000, 1.0 / 64, 77, every)
    b = simulate_frozen(u, prob, 2000, 1.0 / 64, 77, every)
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.logw, b.logw)
    c = simulate_frozen(u, prob, 2000, 1.0 / 64, 78, every)
    assert not np.array_equal(a.positions, c.positions)


class TestDensityEstimate:
    def test_single_particle_is_the_kernel(self):
        prob = preset("heat")
        ens = simulate_frozen(_zero_field(prob), prob, 1, 1.0 / 4, 3, [1.0])
        ens.positions[:] = 0.0
        ens.logw[:] = 0.0
        grid = GridSpec(R=3.0, n_x=301, n_t=4, T=1.0)
        de = density_estimate(ens, 1.0, 0.2, grid)
        x = grid.x_nodes()
        expected = np.exp(-0.5 * (x / 0.2) ** 2) / (0.2 * math.sqrt(2 * math.pi))
        assert np.abs(de.values - expected).max() <= 1e-12

    def test_constant_weights_scale_estimate(self):
        prob = preset("exponential_growth", lam=0.5)
        ens = simulate_frozen(_zero_field(prob), prob, 400, 1.0 / 16, 8, [1.0])
        grid = GridSpec(R=8.0, n_x=257, n_t=16, T=1.0)
        de1 = density_estimate(ens, 1.0, 0.3, grid)
        unweighted = ens.logw.copy()
        ens.logw[:] = 0.0
        de0 = density_estimate(ens, 1.0, 0.3, grid)
        ens.logw[:] = unweighted
        assert np.allclose(de1.values, math.exp(0.5) * de0.values, rtol=1e-12)

    def test_kde_mass_matches_mean_weight(self):
        prob = preset("exponential_growth", lam=0.5)
        ens = simulate_frozen(_zero_field(prob), prob, 5000, 1.0 / 32, 9, [1.0])
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
                ens = simulate_frozen(_zero_field(prob), prob, n, 1.0 / 8, 100 + s, [1.0])
                de = density_estimate(ens, 1.0, None, grid)
                dists.append(float(np.abs(de.values - target).sum() * grid.dx))
            errs.append(np.median(dists))
        assert errs[2] < errs[1] < errs[0]


    def test_binned_kde_converges_to_the_exact_kde(self):
        # density_estimate is the oracle of the closure's _binned_kde: the
        # linear binning and the cell-averaged kernel each err by O(dx^2),
        # so every halving of dx cuts the L1 difference about fourfold
        prob = preset("heat")
        ens = simulate_frozen(_zero_field(prob), prob, 20_000, 1.0 / 8, 3, [0.5])
        y, w = ens.positions[0], np.exp(ens.logw[0])
        diffs = []
        for n_x in (129, 257, 513):
            grid = GridSpec(R=8.0, n_x=n_x, n_t=4, T=1.0)
            exact = density_estimate(ens, 0.5, 0.3, grid).values
            binned = _binned_kde(y, w, grid, 0.3, ens.N)
            diffs.append(float(np.abs(binned - exact).sum() * grid.dx))
        assert diffs[0] >= 3.5 * diffs[1] and diffs[1] >= 3.5 * diffs[2]
        assert diffs[2] < 1.95e-4


class TestSelfConsistent:
    def test_heat_closure_is_inert(self):
        prob = preset("heat")
        grid = GridSpec(R=7.0, n_x=129, n_t=32, T=1.0)
        ens_free = simulate_frozen(_zero_field(prob), prob, 3000, 1.0 / 32, 21, [1.0])
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
        u, _ = solve(prob, grid)
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
    the oracle for _binned_kde's pad bins.  It takes the library's kernel row
    and convolves through the library's own path, so a bitwise comparison
    checks the binning alone."""
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
    return apply_spectra(gap_spectra(_kde_row(grid.n_x, dx, h)), binned) / n_total


@pytest.mark.parametrize("h", [0.01, 0.2, 3.0])
def test_kde_row_is_the_two_sided_cdf_difference(h):
    # the row is mirrored from its lower half; scipy's two-sided CDF
    # difference is the cross-check, to the rounding of a difference of two
    # CDF values over dx
    from scipy.special import ndtr

    n, dx = 512, 16.0 / 511.0
    row = _kde_row(n, dx, h)
    m = np.arange(-(n - 1), n) * dx
    ref = (ndtr((m + 0.5 * dx) / h) - ndtr((m - 0.5 * dx) / h)) / dx
    assert np.array_equal(row, row[::-1])
    assert np.abs(row - ref).max() <= 4 * np.finfo(float).eps / dx


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


def test_kde_and_bandwidth_with_and_without_scratch():
    grid = GridSpec(R=8.0, n_x=128, n_t=4, T=1.0)
    rng = np.random.Generator(np.random.Philox(key=12))
    y1, y2 = 2.0 * rng.standard_normal((2, 5000))
    w1, w2 = np.exp(0.3 * rng.standard_normal((2, 5000)))
    inputs = y1.copy(), w1.copy()
    kde, h = _binned_kde(y1, w1, grid, 0.3, y1.size), silverman_bandwidth(y1, w1)
    kept = kde.copy()
    # a second call on other inputs leaves the first result alone
    _binned_kde(y2, w2, grid, 0.5, y2.size)
    silverman_bandwidth(y2, w2)
    assert np.array_equal(kde, kept)
    # scratch arrays give the same results and leave the inputs alone
    scratch = (*np.empty((2, y1.size)), np.empty(y1.size, np.int64))
    assert np.array_equal(_binned_kde(y1, w1, grid, 0.3, y1.size, scratch), kde)
    assert silverman_bandwidth(y1, w1, scratch[0]) == h
    assert np.array_equal(y1, inputs[0]) and np.array_equal(w1, inputs[1])


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
