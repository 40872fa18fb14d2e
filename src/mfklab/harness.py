"""Experiment runner: configs, dispatch, comparisons, flat-file artifacts.

Configuration files are flat `key = value` text with dotted section prefixes
(see the README for the schema).  A run writes each field twice: the whole
(n_t + 1, n_x) float64 array losslessly as `<name>.npy` (C order), and a
readable `<name>.csv` summary (`t,x1,u`) at the levels round(j n_t / 4),
j = 0..4.  The mild solve streams its levels into one FieldWriter, the sink
that writes `field.npy` slab by slab and keeps copies of only the levels the
run reads, so a run holds one slab and those levels, never the whole field.
It keeps the summary levels, which are all `solve-mild` reads, and:
`validate` its compared levels; `simulate-mckean` and `sweep` u(T);
`simulate-frozen` every (n_t / steps)-th level with fewer particle steps
than field levels, the ones its march and battery read, and otherwise every
level.  Its other artifacts are CSV files, and every CSV number has 17
significant digits.  One `run.json` record (config echo, versions, solve
report, checks, and the SHA-256 of every other file the run wrote) holds no
timings, so repeated runs of one config are byte-identical.  The exit status
is the conjunction of the checks.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .grids import Field, GridSpec
from .mild import plan_grid, solve
from .oracles import VALIDATE_DEFAULTS, exact_cell_means
from .particles import (particle_grid, simulate_frozen, solve_selfconsistent,
                        weighted_functional)
from .problems import (PRESET_NAMES, PRESET_PARAMS, SHARED_PARAMS, preset,
                       smooth_test_functions)
from .quadrature import trapezoid_weights

_FMT = "%.17g"
# bytes FieldWriter gathers before one write: burgers-validate's 256 slab
# blocks of 16 kB go out in 64 writes
_WRITE_BUFFER = 1 << 16


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
    # sets nothing (each slab is solved exactly), but parsed, checked and
    # echoed, as configs written for the Picard solver set it
    "solver.tol": ("tol", float, "1e-6", _POSITIVE),
    "particles.N": ("N", int, "10000", _AT_LEAST_1),
    "particles.dt": ("dt", float, "0.00390625", _POSITIVE),
    "particles.seed": ("seed", int, "1234", (lambda v: v >= 0, "must be nonnegative")),
    "particles.seeds": ("seed_count", int, "5", _AT_LEAST_1),
    # the sweep gates on the rise of the median L1 between successive counts,
    # which only reads as convergence when the counts increase
    "sweep.N": ("sweep_N", _int_list, "1000, 10000, 100000",
                (lambda v: v and v[0] >= 1 and all(a < b for a, b in zip(v, v[1:])),
                 "must list at least one count, each at least 1, strictly increasing")),
    "compare.l1": ("compare_l1", float, None, _POSITIVE),
    "compare.times": ("compare_times", _float_list, "", None),
    "compare.z": ("compare_z", float, "3.0", _POSITIVE),
    "compare.fraction": ("compare_fraction", float, "0.95",
                         (lambda v: 0 < v <= 1, "must lie in (0, 1]")),
    "out": ("out_dir", Path, "runs/out", None),
}


def _value(raw: dict, key: str, cast, default, rule):
    """raw[key], else the default text, parsed and checked against its rule;
    every float, alone or in a list, must be finite."""
    text = raw.get(key, default)
    if text is None:
        return None
    try:
        value = cast(text)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"key {key!r}: cannot parse {text!r}: {exc}") from None
    if cast in (float, _float_list) and not np.all(np.isfinite(value)):
        raise ConfigError(f"{key} must be finite, got {text!r}")
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
    tol: float
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
            raise ConfigError(f"{', '.join(sorted(unknown))} rejected as unknown keys")
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
        reads = (*SHARED_PARAMS, *PRESET_PARAMS[name])
        for k in params:
            if k not in reads:
                raise ConfigError(f"problem.{k} is not read by preset {name!r}, which "
                                  f"reads {', '.join(reads)}")
        values = {attr: _value(raw, key, cast, default, rule)
                  for key, (attr, cast, default, rule) in _RUN_KEYS.items()}
        return cls(kind=kind, preset_name=name, problem_params=params, **values)

    @classmethod
    def from_file(cls, path, overrides: dict | None = None) -> "RunConfig":
        """from_text of a UTF-8 config file.  A missing file raises
        FileNotFoundError; a file that cannot be read or decoded, ConfigError."""
        try:
            text = Path(path).read_text(encoding="utf-8")
        except FileNotFoundError:
            raise
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from None
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file {path} is not UTF-8 text: byte {exc.start} "
                              f"is {exc.object[exc.start]:#04x}") from None
        return cls.from_text(text, overrides)


@dataclass
class ComparisonReport:
    """Per-time-level L1 and sup distances of a field to reference rows."""

    times: np.ndarray
    l1: np.ndarray
    linf: np.ndarray


def compare_fields(grid: GridSpec, levels, values: np.ndarray,
                   ref: np.ndarray) -> ComparisonReport:
    """Trapezoid L1 and sup distances of a field's rows `values`, its levels
    `levels` on grid, to the rows of `ref`."""
    want = (len(levels), grid.n_x)
    for rows, what in ((values, "field"), (ref, "reference")):
        if np.shape(rows) != want:
            raise ValueError(f"{what} rows {np.shape(rows)}, want {want}")
    diff = np.abs(values - ref)
    l1 = diff @ trapezoid_weights(grid.n_x, grid.dx)
    return ComparisonReport(grid.times()[levels], l1, diff.max(axis=1))


def summary_levels(n_t: int) -> list[int]:
    """The levels of a field's CSV summary: round(j n_t / 4) for j = 0..4, each once."""
    return sorted({round(j * n_t / 4) for j in range(5)})


def write_field_csv(path, grid: GridSpec, summary: np.ndarray):
    """The `t,x1,u` rows of a field on grid at its summary_levels, whose
    values are the rows of summary."""
    times = grid.times()
    # the x columns are formatted once; each level's lines become one
    # template whose only % fields are its values (formatted numbers hold no %)
    x_tails = [f",{_FMT % x},{_FMT}\n" for x in grid.x_nodes()]
    with open(path, "w") as fh:
        fh.write("t,x1,u\n")
        for k, values in zip(summary_levels(grid.n_t), summary):
            t_head = _FMT % times[k]
            fh.write("".join([t_head + tail for tail in x_tails]) % tuple(values.tolist()))


class FieldWriter:
    """The sink of one field's levels, handed over in blocks as mild.solve
    hands over each slab's: called as sink(start, block), block[i] being
    level start + i, from level 0 on.

    Within its `with` block it writes `<name>.npy` as the blocks arrive: the
    header of the whole (n_t + 1, n_x) float64 array, then each block, which
    it first checks finite.  The file is written under a temporary name that
    becomes `<name>.npy` once every level has arrived, so a failed run leaves
    no partial field.  Of the levels it keeps copies of the multiples of
    `stride`, the greatest common divisor of the summary levels and of
    `reads`, the levels its caller reads: `kept` holds them, row j level
    j * stride.  On leaving it writes `<name>.csv` from them and sets
    `entries`, the two files' entries for the run record's artifact map.
    Its memory is the kept levels; the blocks are the caller's.
    """

    def __init__(self, out: Path, name: str, grid: GridSpec, reads=()):
        self.out, self.name, self.grid = out, name, grid
        self.stride = math.gcd(*summary_levels(grid.n_t), *reads)
        self.kept = None
        self.entries = None
        self._pieces = []
        self._next = 0  # the level the next block starts at

    def __enter__(self) -> "FieldWriter":
        self._part = self.out / f"{self.name}.npy.part"
        self._fh = open(self._part, "wb", buffering=_WRITE_BUFFER)
        np.lib.format.write_array_header_1_0(self._fh, {
            "descr": np.lib.format.dtype_to_descr(np.dtype(float)), "fortran_order": False,
            "shape": (self.grid.n_t + 1, self.grid.n_x)})
        return self

    def __call__(self, start: int, block: np.ndarray):
        if start != self._next:
            raise ValueError(f"block starts at level {start}, not at level {self._next}")
        if not np.isfinite(block).all():
            raise ValueError("field values must be finite")
        self._fh.write(block)  # C-contiguous float64 rows, as np.save writes them
        # the block is the caller's, so the kept levels are copied out of it
        self._pieces.append(block[-start % self.stride :: self.stride].copy())
        self._next = start + len(block)

    def __exit__(self, exc_type, exc, tb):
        self._fh.close()
        levels = self.grid.n_t + 1
        if exc_type is not None or self._next != levels:
            self._part.unlink()
            if exc_type is None:
                raise ValueError(f"{self.name}: {self._next} of {levels} levels handed over")
            return False
        self._part.replace(self.out / f"{self.name}.npy")
        self.kept = np.concatenate(self._pieces)
        self._pieces = None
        write_field_csv(self.out / f"{self.name}.csv", self.grid,
                        self.rows(summary_levels(self.grid.n_t)))
        self.entries = {f"{self.name}.csv": {},
                        f"{self.name}.npy": {"shape": [levels, self.grid.n_x]}}
        return False

    def rows(self, levels) -> np.ndarray:
        """The values of `levels`, kept levels each, one row each."""
        return self.kept[np.asarray(levels) // self.stride]


def write_field(out: Path, name: str, field_obj: Field) -> dict:
    """Write a whole field through a FieldWriter, as one block: `<name>.npy`
    and `<name>.csv`; returns their entries for the run record's artifact map."""
    with FieldWriter(out, name, field_obj.grid) as sink:
        sink(0, np.ascontiguousarray(field_obj.values))
    return sink.entries


def write_comparison_csv(path, report: ComparisonReport):
    with open(path, "w") as fh:
        fh.write("t,l1,linf\n")
        for t, a, b in zip(report.times, report.l1, report.linf):
            fh.write(f"{_FMT % t},{_FMT % a},{_FMT % b}\n")


def _check(name: str, value: float, tol, passed) -> dict:
    return {"name": name, "value": float(value), "tol": tol, "passed": bool(passed)}


def _artifact_record(out: Path, written: dict) -> dict:
    """The written files' entries, each with its SHA-256 (read in chunks)."""
    record = {}
    for name in sorted(written):
        with open(out / name, "rb") as fh:
            digest = hashlib.file_digest(fh, "sha256").hexdigest()
        record[name] = {**written[name], "sha256": digest}
    return record


def _particle_record(ens) -> dict:
    return {"seed": ens.seed, "N": ens.N, "max_abs_z": ens.max_abs_z, "levels": ens.health()}


def run(config: RunConfig) -> int:
    """Execute one experiment; returns 0 iff every declared tolerance passed."""
    if config.kind == "validate" and config.preset_name not in VALIDATE_DEFAULTS:
        raise ConfigError(f"validate has no reference for preset {config.preset_name!r}; "
                          f"presets with one: {', '.join(VALIDATE_DEFAULTS)}")
    problem = preset(config.preset_name, **config.problem_params)
    grid = plan_grid(problem, config.R, config.n_x, config.n_t)
    try:
        compare_levels = [grid.time_index(t) for t in config.compare_times]
    except ValueError as exc:
        raise ConfigError(f"compare.times: {exc}") from None
    battery_times = config.compare_times or [grid.T / 4, grid.T / 2, grid.T]
    if config.kind == "validate":  # the exact reference is cheap: checked before the solve
        fractions, default_tol = VALIDATE_DEFAULTS[problem.name]
        try:
            levels = compare_levels or ([grid.time_index(f * grid.T) for f in fractions]
                                        if fractions else list(range(1, grid.n_t + 1)))
            exact = exact_cell_means(problem, grid, levels)
        except ValueError as exc:
            raise ConfigError(f"validate reference: {exc}") from None
    if config.kind in ("simulate-frozen", "simulate-mckean", "sweep"):
        try:
            steps = particle_grid(grid, config.dt, frozen=config.kind == "simulate-frozen")
            if config.kind == "simulate-frozen":  # the battery's times must be particle levels
                for t in battery_times:
                    steps.time_index(t)
        except ValueError as exc:
            raise ConfigError(f"particles.dt = {config.dt:g}: {exc}") from None
    out = config.out_dir
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create out directory {out}: {exc.strerror}") from None

    # the solve streams its levels into field.npy; the run keeps only those it reads
    if config.kind == "validate":
        reads = levels
    elif config.kind == "simulate-frozen":
        # step k reads level k n_f // n_s: every (n_f / n_s)-th level, or every level
        every = max(grid.n_t // steps.n_t, 1)
        reads = range(0, grid.n_t + 1, every)
    else:
        reads = [grid.n_t] if config.kind in ("simulate-mckean", "sweep") else []
    with FieldWriter(out, "field", grid, reads) as sink:
        _, report = solve(problem, grid, sink)
    written = sink.entries  # file name -> its artifact entry
    if config.kind in ("simulate-mckean", "sweep"):
        u_T = sink.kept[-1:]
    elif config.kind == "simulate-frozen":
        # step k reads level k of these
        u = Field(steps if every > 1 else grid, sink.kept[:: every // sink.stride])
    checks = []
    coupled = problem.L_b > 0 or problem.L_Lambda > 0
    if coupled:
        # the coefficients clamp z at z_max; the theory needs the clamp inactive
        checks.append(_check("max |w| within z_max", report.max_abs_w, problem.z_max,
                             report.max_abs_w <= problem.z_max))
    # the slab fixed points stay in the ball of radius M, where the slab map is certified
    reach = max(report.max_iterate_per_time_l1, report.max_iterate_sup)
    checks.append(_check("slab fixed points within the ball of radius M", reach, report.M,
                         report.ball_ok()))
    particles = []  # one record per ensemble, taken before the next one is built

    if config.kind == "validate":
        tol = config.compare_l1 if config.compare_l1 is not None else default_tol
        rep = compare_fields(grid, levels, sink.rows(levels), exact)
        worst = float(rep.l1.max())
        write_comparison_csv(out / "comparison.csv", rep)
        written["comparison.csv"] = {}
        checks.append(_check("worst per-time l1 to reference", worst, tol, worst <= tol))

    elif config.kind == "simulate-frozen":
        basket = smooth_test_functions()
        x = grid.x_nodes()
        wx = trapezoid_weights(grid.n_x, grid.dx)
        rows = []
        hits = 0
        for s in range(config.seed_count):
            ens = simulate_frozen(u, problem, config.N, config.dt, config.seed + s,
                                  battery_times)
            particles.append(_particle_record(ens))
            for t in battery_times:
                k = u.grid.time_index(t)
                for tf in basket:
                    est, se = weighted_functional(ens, tf, t)
                    quad = float(np.dot(wx, tf.f(x) * u.values[k]))
                    # with se = 0 (N = 1, or equal summands) only an exact
                    # estimate is a hit
                    z = abs(est - quad) / se if se > 0 else (0.0 if est == quad else np.inf)
                    rows.append((config.seed + s, t, tf.name, quad, est, se, z))
                    hits += z <= config.compare_z
        with open(out / "functionals.csv", "w") as fh:
            fh.write("seed,t,phi,quadrature,estimate,stderr,z\n")
            for r in rows:
                fh.write(f"{r[0]},{_FMT % r[1]},{r[2]},{_FMT % r[3]},{_FMT % r[4]},"
                         f"{_FMT % r[5]},{_FMT % r[6]}\n")
        written["functionals.csv"] = {}
        frac = hits / len(rows)
        checks.append(_check(f"share of battery z within {config.compare_z:g} se (at least tol)",
                             frac, config.compare_fraction, frac >= config.compare_fraction))

    elif config.kind == "simulate-mckean":
        ens, rec = solve_selfconsistent(problem, config.N, config.dt, config.seed, grid)
        particles.append(_particle_record(ens))
        written |= write_field(out, "mckean_field", rec)
        dist = compare_fields(rec.grid, [rec.grid.n_t], rec.values[-1:], u_T).l1[0]
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
                    ens, rec = solve_selfconsistent(problem, n_particles, config.dt,
                                                    config.seed + s, grid)
                    particles.append(_particle_record(ens))
                    dists.append(compare_fields(rec.grid, [rec.grid.n_t], rec.values[-1:],
                                                u_T).l1[0])
                med = float(np.median(dists))
                medians.append(med)
                fh.write(f"{n_particles},{_FMT % med},{config.seed_count}\n")
        written["sweep.csv"] = {}
        rise = max((b - a for a, b in zip(medians, medians[1:])), default=0.0)
        checks.append(_check("largest rise of the median l1 between successive N",
                             rise, 0.0, rise <= 0.0))

    if coupled and particles:
        max_z = max(p["max_abs_z"] for p in particles)
        checks.append(_check("max particle |z| within z_max", max_z, problem.z_max,
                             max_z <= problem.z_max))

    echo = {k: v for k, v in asdict(config).items() if k != "out_dir"}
    record = {
        "config": echo,
        "versions": {"mfklab": __version__, "numpy": np.__version__},
        "solve": {**asdict(report), "ball_ok": bool(report.ball_ok())},
        "particles": particles,
        "checks": checks,
        "artifacts": _artifact_record(out, written),
    }
    (out / "run.json").write_text(json.dumps(record, indent=1, allow_nan=False) + "\n")
    for c in checks:
        print(f"{c['name']}: {c['value']:.6g} (tol {c['tol']}) "
              f"-> {'pass' if c['passed'] else 'FAIL'}")
    return 0 if all(c["passed"] for c in checks) else 1

