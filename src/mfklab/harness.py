"""Experiment runner: configs, dispatch, comparisons, flat-file artifacts.

Configuration files are flat `key = value` text with dotted section prefixes
(see the README for the schema).  Every run writes plot-ready CSV artifacts
with 17-significant-digit formatting and one `run.json` record (config echo,
versions, solve report, checks) that holds no timings, so repeated runs of one
config are byte-identical.  The exit status is the conjunction of the checks.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
import scipy
import scipy.fft

from . import __version__
from .grids import Field, GridSpec
from .kernel import kernel_for
from .mild import plan_grid, solve
from .oracles import burgers_fd_reference, exp_mass_oracle, heat_oracle
from .particles import simulate_frozen, solve_selfconsistent, weighted_functional
from .problems import PRESET_NAMES, preset, smooth_test_functions
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


def _get(raw: dict, key: str, cast, default=None, required=False):
    if key not in raw:
        if required:
            raise ConfigError(f"missing required key {key!r}")
        return default
    try:
        return cast(raw[key])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"key {key!r}: cannot parse {raw[key]!r}: {exc}") from None


def _float_list(s: str) -> list[float]:
    return [float(tok) for tok in s.split(",") if tok.strip()]


def _int_list(s: str) -> list[int]:
    return [int(tok) for tok in s.split(",") if tok.strip()]


EXPERIMENT_KINDS = ("solve-mild", "simulate-frozen", "simulate-mckean", "validate", "sweep")


@dataclass
class RunConfig:
    """Validated experiment description."""

    kind: str
    preset_name: str
    problem_params: dict
    R: float
    n_x: int
    n_t: int
    tau: float | None
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
    threads: int

    @classmethod
    def from_text(cls, text: str) -> "RunConfig":
        raw = parse_config_text(text)
        kind = _get(raw, "experiment", str, required=True)
        if kind not in EXPERIMENT_KINDS:
            raise ConfigError(f"experiment must be one of {EXPERIMENT_KINDS}, got {kind!r}")
        name = _get(raw, "problem.preset", str, required=True)
        if name not in PRESET_NAMES:
            raise ConfigError(f"problem.preset must be one of {PRESET_NAMES}, got {name!r}")
        params = {}
        for key in ("nu", "T", "lam", "u0_mean", "u0_var", "z_max"):
            if f"problem.{key}" in raw:
                params[key] = _get(raw, f"problem.{key}", float)
        cfg = cls(
            kind=kind,
            preset_name=name,
            problem_params=params,
            R=_get(raw, "grid.R", float, 8.0),
            n_x=_get(raw, "grid.n_x", int, 256),
            n_t=_get(raw, "grid.n_t", int, 128),
            tau=_get(raw, "grid.tau", float, None),
            min_slabs=_get(raw, "grid.min_slabs", int, 1),
            tol=_get(raw, "solver.tol", float, 1e-6),
            max_iter=_get(raw, "solver.max_iter", int, 200),
            N=_get(raw, "particles.N", int, 10_000),
            dt=_get(raw, "particles.dt", float, 1.0 / 256),
            seed=_get(raw, "particles.seed", int, 1234),
            seed_count=_get(raw, "particles.seeds", int, 5),
            sweep_N=_get(raw, "sweep.N", _int_list, [1000, 10_000, 100_000]),
            compare_l1=_get(raw, "compare.l1", float, None),
            compare_times=_get(raw, "compare.times", _float_list, []),
            compare_z=_get(raw, "compare.z", float, 3.0),
            compare_fraction=_get(raw, "compare.fraction", float, 0.95),
            out_dir=Path(_get(raw, "out", str, "runs/out")),
            threads=_get(raw, "threads", int, 0),
        )
        known = {"experiment", "out", "threads"}
        known |= {f"problem.{k}" for k in ("preset", "nu", "T", "lam", "u0_mean", "u0_var", "z_max")}
        known |= {f"grid.{k}" for k in ("R", "n_x", "n_t", "tau", "min_slabs")}
        known |= {f"solver.{k}" for k in ("tol", "max_iter")}
        known |= {f"particles.{k}" for k in ("N", "dt", "seed", "seeds")}
        known |= {"sweep.N"}
        known |= {f"compare.{k}" for k in ("l1", "times", "z", "fraction")}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown keys: {sorted(unknown)}")
        for label, value in (("grid.R", cfg.R), ("solver.tol", cfg.tol),
                             ("particles.dt", cfg.dt)):
            if value <= 0:
                raise ConfigError(f"{label} must be positive")
        if cfg.n_x < 2 or cfg.n_t < 1 or cfg.N < 1:
            raise ConfigError("grid.n_x, grid.n_t and particles.N must be positive")
        return cfg

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        return cls.from_text(Path(path).read_text())


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
    """Closed-form reference for the zero-drift presets on the grid."""
    x = grid.x_nodes()
    vals = np.empty((grid.n_t + 1, grid.n_x))
    nu = problem.Phi**2
    lam = problem.params.get("lam", 0.5) if problem.name == "exponential_growth" else 0.0
    for k, t in enumerate(grid.times()):
        if t == 0.0:
            vals[k] = problem.u0.pdf(x)
        else:
            vals[k] = heat_oracle(problem.u0.mean, problem.u0.var, nu, t, x)
        if lam:
            vals[k] *= exp_mass_oracle(lam, t)
    return Field(grid, vals)


def _select_times(grid: GridSpec, wanted: list) -> list:
    if not wanted:
        return list(range(1, grid.n_t + 1))
    return [grid.time_index(t) for t in wanted]


def run(config: RunConfig) -> int:
    """Execute one experiment; returns 0 iff every declared tolerance passed."""
    threads = config.threads or int(os.environ.get("MFKLAB_THREADS", "1"))
    with scipy.fft.set_workers(max(1, threads)):
        return _run_inner(config)


def _check(name: str, value: float, tol, passed) -> dict:
    return {"name": name, "value": float(value), "tol": tol, "passed": bool(passed)}


def _run_inner(config: RunConfig) -> int:
    if config.kind == "validate" and config.preset_name not in VALIDATE_REFERENCES:
        raise ConfigError(f"validate has no reference for preset {config.preset_name!r}; "
                          f"presets with one: {', '.join(VALIDATE_REFERENCES)}")
    out = config.out_dir
    out.mkdir(parents=True, exist_ok=True)
    problem = preset(config.preset_name, **config.problem_params)
    kernel = kernel_for(problem)
    if config.tau is not None:
        try:
            grid = GridSpec(R=config.R, n_x=config.n_x, n_t=config.n_t,
                            T=problem.T, tau=config.tau)
        except ValueError as exc:
            raise ConfigError(f"grid.tau: {exc}") from None
    else:
        grid = plan_grid(problem, config.R, config.n_x, config.n_t, kernel=kernel,
                         min_slabs=config.min_slabs)

    u, report = solve(problem, grid, tol=config.tol, max_iter=config.max_iter,
                      kernel=kernel)
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
            default_times = [grid.T / 4, grid.T / 2, grid.T]
            tol = config.compare_l1 if config.compare_l1 is not None else 1e-2
        else:
            ref = _oracle_field(problem, grid)
            default_times = []
        rep = compare_fields(u, ref)
        idx = _select_times(grid, config.compare_times or default_times)
        worst = max(rep.l1[i] for i in idx)
        write_comparison_csv(out / "comparison.csv", rep)
        checks.append(_check("worst per-time l1 to reference", worst, tol, worst <= tol))

    elif config.kind == "simulate-frozen":
        basket = smooth_test_functions()
        times = config.compare_times or [grid.T / 4, grid.T / 2, grid.T]
        x = grid.x_nodes()
        wx = trapezoid_weights(grid.n_x, grid.dx)
        rows = []
        hits = 0
        for s in range(config.seed_count):
            ens = simulate_frozen(u, problem, config.N, config.dt, config.seed + s)
            for t in times:
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

    echo = {k: v for k, v in asdict(config).items() if k not in ("out_dir", "threads")}
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
