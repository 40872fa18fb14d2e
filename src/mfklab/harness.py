"""Experiment runner: configs, dispatch, comparisons, flat-file artifacts.

Configuration files are flat `key = value` text with dotted section prefixes
(see the README for the schema).  Every run writes plot-ready CSV artifacts
with 17-significant-digit formatting and one `run.json` record (config echo,
versions, solve report, checks) that holds no timings, so repeated runs of one
config are byte-identical.  The exit status is the conjunction of the checks.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
import scipy
import scipy.fft

from . import __version__
from .grids import Field, GridSpec, cell_means_from_cdf
from .mild import plan_grid, solve
from .oracles import burgers_fd_reference, exp_mass_oracle
from .particles import (particle_grid, simulate_frozen, solve_selfconsistent,
                        weighted_functional)
from .problems import PRESET_NAMES, GaussianDensity, preset, smooth_test_functions
from .quadrature import trapezoid_weights

_FMT = "%.17g"


class ConfigError(ValueError):
    pass


def parse_config_text(text: str) -> dict:
    """Parse flat dotted-key config text into a {key: string} mapping."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def _float_list(s: str) -> list[float]:
    return [float(tok) for tok in s.split(",") if tok.strip()]


def _int_list(s: str) -> list[int]:
    return [int(tok) for tok in s.split(",") if tok.strip()]


EXPERIMENT_KINDS = ("solve-mild", "simulate-frozen", "simulate-mckean", "validate", "sweep")

_POSITIVE = (lambda v: v > 0, "must be positive")
_AT_LEAST_1 = (lambda v: v >= 1, "must be at least 1")

# problem.<key> -> (rule, requirement) or None; each is a float preset parameter
_PROBLEM_KEYS = {"nu": _POSITIVE, "T": _POSITIVE, "lam": None, "u0_mean": None,
                 "u0_var": _POSITIVE, "z_max": _POSITIVE}

# config key -> (RunConfig field, parser, default as config text or None,
# (rule, requirement) checked on every value but None)
_RUN_KEYS = {
    "grid.R": ("R", float, "8.0", _POSITIVE),
    "grid.n_x": ("n_x", int, "256", (lambda v: v >= 2, "must be at least 2")),
    "grid.n_t": ("n_t", int, "128", _AT_LEAST_1),
    "grid.min_slabs": ("min_slabs", int, "1", _AT_LEAST_1),
    "solver.tol": ("tol", float, "1e-6", _POSITIVE),
    "solver.max_iter": ("max_iter", int, "200", _AT_LEAST_1),
    "particles.N": ("N", int, "10000", _AT_LEAST_1),
    "particles.dt": ("dt", float, "0.00390625", _POSITIVE),
    "particles.seed": ("seed", int, "1234", (lambda v: v >= 0, "must be nonnegative")),
    "particles.seeds": ("seed_count", int, "5", _AT_LEAST_1),
    "sweep.N": ("sweep_N", _int_list, "1000, 10000, 100000",
                (lambda v: v and min(v) >= 1, "must list at least one count, each at least 1")),
    "compare.l1": ("compare_l1", float, None, _POSITIVE),
    "compare.times": ("compare_times", _float_list, "", None),
    "compare.z": ("compare_z", float, "3.0", _POSITIVE),
    "compare.fraction": ("compare_fraction", float, "0.95",
                         (lambda v: 0 < v <= 1, "must lie in (0, 1]")),
    "out": ("out_dir", Path, "runs/out", None),
}


def _value(raw: dict, key: str, cast, default, rule):
    """raw[key], else the default text, parsed and checked against its rule."""
    text = raw.get(key, default)
    if text is None:
        return None
    try:
        value = cast(text)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"key {key!r}: cannot parse {text!r}: {exc}") from None
    if rule is not None and not rule[0](value):
        raise ConfigError(f"{key} {rule[1]}, got {text!r}")
    return value


@dataclass
class RunConfig:
    """Validated experiment description."""

    kind: str
    preset_name: str
    problem_params: dict
    R: float
    n_x: int
    n_t: int
    min_slabs: int
    tol: float
    max_iter: int
    N: int
    dt: float
    seed: int
    seed_count: int
    sweep_N: list
    compare_l1: float | None
    compare_times: list
    compare_z: float
    compare_fraction: float
    out_dir: Path

    @classmethod
    def from_text(cls, text: str, overrides: dict | None = None) -> "RunConfig":
        """Parse and check config text; overrides ({key: value text}, as the
        command line gives them) replace its values before any check."""
        raw = {**parse_config_text(text), **(overrides or {})}
        known = {"experiment", "problem.preset", *_RUN_KEYS}
        known |= {f"problem.{k}" for k in _PROBLEM_KEYS}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown keys: {sorted(unknown)}")
        for key in ("experiment", "problem.preset"):
            if key not in raw:
                raise ConfigError(f"missing required key {key!r}")
        kind, name = raw["experiment"], raw["problem.preset"]
        if kind not in EXPERIMENT_KINDS:
            raise ConfigError(f"experiment must be one of {EXPERIMENT_KINDS}, got {kind!r}")
        if name not in PRESET_NAMES:
            raise ConfigError(f"problem.preset must be one of {PRESET_NAMES}, got {name!r}")
        params = {k: _value(raw, f"problem.{k}", float, None, rule)
                  for k, rule in _PROBLEM_KEYS.items() if f"problem.{k}" in raw}
        values = {attr: _value(raw, key, cast, default, rule)
                  for key, (attr, cast, default, rule) in _RUN_KEYS.items()}
        return cls(kind=kind, preset_name=name, problem_params=params, **values)

    @classmethod
    def from_file(cls, path, overrides: dict | None = None) -> "RunConfig":
        return cls.from_text(Path(path).read_text(), overrides)


@dataclass
class ComparisonReport:
    """Per-time-level L1 and sup distances between two fields."""

    times: np.ndarray
    l1: np.ndarray
    linf: np.ndarray


def compare_fields(a: Field, b: Field) -> ComparisonReport:
    """Per-time-level trapezoid L1 and sup distances; grids must coincide."""
    ga, gb = a.grid, b.grid
    if (ga.n_x, ga.n_t, ga.R, ga.T) != (gb.n_x, gb.n_t, gb.R, gb.T):
        raise ValueError("fields live on different grids")
    diff = np.abs(a.values - b.values)
    l1 = diff @ trapezoid_weights(ga.n_x, ga.dx)
    linf = diff.max(axis=1)
    return ComparisonReport(ga.times(), l1, linf)


def write_field_csv(path, field_obj: Field):
    grid = field_obj.grid
    # the x columns are formatted once; each level's lines become one
    # template whose only % fields are its values (formatted numbers hold no %)
    x_tails = [f",{_FMT % x},{_FMT}\n" for x in grid.x_nodes()]
    with open(path, "w") as fh:
        fh.write("t,x1,u\n")
        for t, row in zip(grid.times(), field_obj.values):
            t_head = _FMT % t
            fh.write("".join([t_head + tail for tail in x_tails]) % tuple(row.tolist()))


def write_comparison_csv(path, report: ComparisonReport):
    with open(path, "w") as fh:
        fh.write("t,l1,linf\n")
        for t, a, b in zip(report.times, report.l1, report.linf):
            fh.write(f"{_FMT % t},{_FMT % a},{_FMT % b}\n")


# presets with an independent reference field for `validate`: the closed forms
# of _oracle_field, and the finite-volume solver for burgers
VALIDATE_REFERENCES = ("heat", "exponential_growth", "burgers")


def _oracle_field(problem, grid: GridSpec) -> Field:
    """Closed-form reference for the zero-drift presets on the grid, as the
    exact cell averages the solver's fields hold."""
    vals = np.empty((grid.n_t + 1, grid.n_x))
    nu = problem.Phi**2
    lam = problem.params.get("lam", 0.5) if problem.name == "exponential_growth" else 0.0
    for k, t in enumerate(grid.times()):
        density = GaussianDensity(problem.u0.mean, problem.u0.var + nu * t)
        vals[k] = cell_means_from_cdf(density.cdf, grid)
        if lam:
            vals[k] *= exp_mass_oracle(lam, t)
    return Field(grid, vals)


def run(config: RunConfig, threads: int = 1) -> int:
    """Execute one experiment with `threads` FFT workers; returns 0 iff every
    declared tolerance passed."""
    with scipy.fft.set_workers(threads):
        return _run_inner(config)


def _check(name: str, value: float, tol, passed) -> dict:
    return {"name": name, "value": float(value), "tol": tol, "passed": bool(passed)}


def _run_inner(config: RunConfig) -> int:
    if config.kind == "validate" and config.preset_name not in VALIDATE_REFERENCES:
        raise ConfigError(f"validate has no reference for preset {config.preset_name!r}; "
                          f"presets with one: {', '.join(VALIDATE_REFERENCES)}")
    problem = preset(config.preset_name, **config.problem_params)
    grid = plan_grid(problem, config.R, config.n_x, config.n_t, min_slabs=config.min_slabs)
    try:
        compare_levels = [grid.time_index(t) for t in config.compare_times]
    except ValueError as exc:
        raise ConfigError(f"compare.times: {exc}") from None
    battery_times = config.compare_times or [grid.T / 4, grid.T / 2, grid.T]
    if config.kind in ("simulate-frozen", "simulate-mckean", "sweep"):
        try:
            steps = particle_grid(grid, config.dt, frozen=config.kind == "simulate-frozen")
            if config.kind == "simulate-frozen":  # the battery's times must be particle levels
                for t in battery_times:
                    steps.time_index(t)
        except ValueError as exc:
            raise ConfigError(f"particles.dt = {config.dt:g}: {exc}") from None
    out = config.out_dir
    out.mkdir(parents=True, exist_ok=True)

    u, report = solve(problem, grid, tol=config.tol, max_iter=config.max_iter)
    write_field_csv(out / "field.csv", u)
    checks = []
    if problem.L_b > 0 or problem.L_Lambda > 0:
        # the coefficients clamp z at z_max; the theory needs the clamp inactive
        checks.append(_check("max |w| within z_max", report.max_abs_w, problem.z_max,
                             report.max_abs_w <= problem.z_max))

    if config.kind == "validate":
        tol = config.compare_l1 if config.compare_l1 is not None else 1e-3
        if problem.name == "burgers":
            ref = burgers_fd_reference(problem.u0, problem.Phi**2, grid)
            default_levels = [grid.time_index(t) for t in (grid.T / 4, grid.T / 2, grid.T)]
            tol = config.compare_l1 if config.compare_l1 is not None else 1e-2
        else:
            ref = _oracle_field(problem, grid)
            default_levels = range(1, grid.n_t + 1)
        rep = compare_fields(u, ref)
        worst = max(rep.l1[i] for i in compare_levels or default_levels)
        write_comparison_csv(out / "comparison.csv", rep)
        checks.append(_check("worst per-time l1 to reference", worst, tol, worst <= tol))

    elif config.kind == "simulate-frozen":
        basket = smooth_test_functions()
        x = grid.x_nodes()
        wx = trapezoid_weights(grid.n_x, grid.dx)
        rows = []
        hits = 0
        for s in range(config.seed_count):
            ens = simulate_frozen(u, problem, config.N, config.dt, config.seed + s)
            for t in battery_times:
                k = grid.time_index(t)
                for tf in basket:
                    est, se = weighted_functional(ens, tf, t)
                    quad = float(np.dot(wx, tf.f(x) * u.values[k]))
                    z = abs(est - quad) / se if se > 0 else 0.0
                    rows.append((config.seed + s, t, tf.name, quad, est, se, z))
                    hits += z <= config.compare_z
        with open(out / "functionals.csv", "w") as fh:
            fh.write("seed,t,phi,quadrature,estimate,stderr,z\n")
            for r in rows:
                fh.write(f"{r[0]},{_FMT % r[1]},{r[2]},{_FMT % r[3]},{_FMT % r[4]},"
                         f"{_FMT % r[5]},{_FMT % r[6]}\n")
        frac = hits / len(rows)
        checks.append(_check(f"share of battery z within {config.compare_z:g} se (at least tol)",
                             frac, config.compare_fraction, frac >= config.compare_fraction))

    elif config.kind == "simulate-mckean":
        _, rec = solve_selfconsistent(problem, config.N, config.dt, config.seed, grid)
        write_field_csv(out / "mckean_field.csv", rec)
        dist = _l1_at_final(rec, u)
        tol = config.compare_l1
        checks.append(_check("l1 distance to mild at T", dist, tol,
                             tol is None or dist <= tol))

    elif config.kind == "sweep":
        medians = []
        with open(out / "sweep.csv", "w") as fh:
            fh.write("N,median_l1_at_T,seed_count\n")
            for n_particles in config.sweep_N:
                dists = []
                for s in range(config.seed_count):
                    _, rec = solve_selfconsistent(problem, n_particles, config.dt,
                                                  config.seed + s, grid)
                    dists.append(_l1_at_final(rec, u))
                med = float(np.median(dists))
                medians.append(med)
                fh.write(f"{n_particles},{_FMT % med},{config.seed_count}\n")
        rise = max((b - a for a, b in zip(medians, medians[1:])), default=0.0)
        checks.append(_check("largest rise of the median l1 between successive N",
                             rise, 0.0, rise <= 0.0))

    echo = {k: v for k, v in asdict(config).items() if k != "out_dir"}
    record = {
        "config": echo,
        "versions": {"mfklab": __version__, "numpy": np.__version__,
                     "scipy": scipy.__version__},
        "solve": {**asdict(report), "ball_ok": bool(report.ball_ok())},
        "checks": checks,
    }
    (out / "run.json").write_text(json.dumps(record, indent=1, allow_nan=False) + "\n")
    for c in checks:
        print(f"{c['name']}: {c['value']:.6g} (tol {c['tol']}) "
              f"-> {'pass' if c['passed'] else 'FAIL'}")
    return 0 if all(c["passed"] for c in checks) else 1


def _l1_at_final(reconstructed: Field, mild: Field) -> float:
    """Trapezoid L1 distance of the final time slices (shared x nodes)."""
    g = mild.grid
    w = trapezoid_weights(g.n_x, g.dx)
    return float(np.dot(w, np.abs(reconstructed.values[-1] - mild.values[-1])))
