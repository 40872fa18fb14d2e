import dataclasses
import gc
import hashlib
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import mfklab
from mfklab import harness
from mfklab.cli import main as cli_main
from mfklab.grids import Field, GridSpec
from mfklab.harness import (
    EXPERIMENT_KINDS,
    ComparisonReport,
    ConfigError,
    RunConfig,
    compare_fields,
    parse_config_text,
    run,
    summary_levels,
    write_field,
    write_field_csv,
)
from mfklab.mild import SolveReport, plan_grid
from mfklab.mild import solve as mild_solve
from mfklab.particles import simulate_frozen, weighted_functional
from mfklab.problems import preset, smooth_test_functions
from mfklab.quadrature import trapezoid_weights

HEAT_CFG = """
# fast validation setup
experiment = validate
problem.preset = heat
problem.nu = 1.0
problem.u0_var = 0.04
grid.R = 7.0
grid.n_x = 128
grid.n_t = 16
compare.l1 = 1e-2
"""


def test_parse_roundtrip():
    raw = parse_config_text(HEAT_CFG)
    assert raw["problem.preset"] == "heat"
    assert raw["grid.n_x"] == "128"


def test_parse_rejects_garbage():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config_text("not a key value pair")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("a.b = 1\na.b = 2")


def test_config_unknown_key_named():
    with pytest.raises(ConfigError, match="grid.nx"):
        RunConfig.from_text(HEAT_CFG + "\ngrid.nx = 3")


def test_config_rejects_removed_keys():
    for key in ("particles.h = 0.1", "solver.n_w = 33", "sweep.slack = 1.1",
                "grid.min_levels_per_slab = 4", "threads = 2", "grid.tau = 0.5",
                "grid.min_slabs = -3", "solver.max_iter = 0"):
        with pytest.raises(ConfigError, match="unknown keys"):
            RunConfig.from_text(HEAT_CFG + "\n" + key)


# command-line overrides are checked as the config keys they replace
_OVERRIDE_KEYS = {"--seed": "particles.seed"}


@pytest.mark.parametrize("line", [
    "particles.seeds = 0", "sweep.N = ,", "sweep.N = 1000, 0", "sweep.N = 1000, 100",
    "sweep.N = 1000, 1000", "compare.fraction = 7",
    "compare.fraction = 0", "compare.z = 0",
    # removed keys are refused by name like any value out of range
    "solver.max_iter = 0", "grid.min_slabs = -3",
    "grid.n_x = 1", "particles.seed = -1", "compare.l1 = -1",
    "solver.tol = nan", "problem.nu = 0", "problem.u0_var = -1", "--seed -5",
    # non-finite values, including those of keys without a range rule
    "problem.T = inf", "problem.nu = inf", "problem.lam = nan", "problem.u0_mean = inf",
    "problem.u0_var = inf", "problem.z_max = inf", "solver.tol = inf", "grid.R = inf",
    "compare.times = -inf", "compare.times = 0.25, nan",
])
def test_cli_rejects_out_of_range_value(tmp_path, capsys, line):
    flag, _, value = line.partition(" ")
    argv = [flag, value] if flag in _OVERRIDE_KEYS else []
    path = tmp_path / "bad.cfg"
    path.write_text(f"experiment = simulate-frozen\nproblem.preset = heat\n"
                    f"out = {tmp_path}/out\n{'' if argv else line}\n")
    assert cli_main(["simulate-frozen", "--config", str(path), *argv]) == 2
    key = _OVERRIDE_KEYS.get(flag, line.split(" = ")[0])
    assert f"config error: {key} " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name, key", [("heat", "lam"), ("heat", "z_max"),
                                       ("exponential_growth", "z_max"), ("burgers", "lam")])
def test_config_rejects_problem_keys_the_preset_does_not_read(tmp_path, capsys, name, key):
    # a key the preset ignores would be echoed in run.json as if it applied
    with pytest.raises(ValueError, match=f"does not read {key}"):
        preset(name, **{key: 0.5})
    path = tmp_path / "unread.cfg"
    path.write_text(f"experiment = validate\nproblem.preset = {name}\nproblem.{key} = 0.5\n"
                    f"grid.n_x = 64\ngrid.n_t = 16\nout = {tmp_path}/out\n")
    assert cli_main(["validate", "--config", str(path)]) == 2
    assert f"config error: problem.{key} is not read by preset" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_rejects_threads_other_than_one(tmp_path):
    # the numerics run on one thread: 1 is the only worker count accepted
    path = tmp_path / "heat.cfg"
    path.write_text(HEAT_CFG + f"out = {tmp_path}/out\n")
    for threads in ("0", "2"):
        with pytest.raises(SystemExit) as exc:
            cli_main(["validate", "--config", str(path), "--threads", threads])
        assert exc.value.code == 2
    assert not (tmp_path / "out").exists()


def test_shipped_configs_parse():
    root = Path(__file__).resolve().parents[1]
    for folder in (root / "configs", root / "perfbench" / "workloads"):
        paths = sorted(folder.glob("*.cfg"))
        assert paths, folder
        for path in paths:
            assert RunConfig.from_file(path).kind in EXPERIMENT_KINDS, path


def test_config_requires_known_experiment():
    with pytest.raises(ConfigError, match="experiment"):
        RunConfig.from_text("experiment = frobnicate\nproblem.preset = heat")


def test_config_requires_known_preset():
    with pytest.raises(ConfigError, match="preset"):
        RunConfig.from_text("experiment = validate\nproblem.preset = nosuch")


class TestCompareFields:
    def _pair(self):
        grid = GridSpec(R=1.0, n_x=201, n_t=2, T=1.0, n_slabs=2)
        a = Field.zeros(grid)
        return grid, a

    def test_identical_fields(self):
        grid, a = self._pair()
        rep = compare_fields(a, [0, 1, 2], a.values)
        assert np.all(rep.l1 == 0.0) and np.all(rep.linf == 0.0)

    def test_constant_offset_arithmetic(self):
        # offset 0.01 on a width-2 box: l1 = 0.02 per level, sup = 0.01
        grid, a = self._pair()
        rep = compare_fields(a, [2, 1], a.values[[2, 1]] + 0.01)
        assert np.array_equal(rep.times, [1.0, 0.5])
        assert np.allclose(rep.l1, 0.02, atol=1e-12)
        assert np.allclose(rep.linf, 0.01, atol=1e-15)

    def test_grid_mismatch_rejected(self):
        grid, a = self._pair()
        other = GridSpec(R=1.0, n_x=101, n_t=2, T=1.0, n_slabs=2)
        with pytest.raises(ValueError, match="reference rows"):
            compare_fields(a, [0, 1, 2], Field.zeros(other).values)
        with pytest.raises(ValueError, match="reference rows"):
            compare_fields(a, [1], a.values)


def _read_record(out, code):
    """run.json of a finished run, checked against the run's exit code."""
    record = json.loads((out / "run.json").read_text())
    assert code == (0 if all(c["passed"] for c in record["checks"]) else 1)
    assert "out_dir" not in record["config"] and "threads" not in record["config"]
    return record


def test_validate_heat_passes(tmp_path):
    cfg = RunConfig.from_text(HEAT_CFG + f"\nout = {tmp_path}/run")
    code = run(cfg)
    assert code == 0
    names = sorted(p.name for p in (tmp_path / "run").iterdir())
    assert names == ["comparison.csv", "field.csv", "field.npy", "run.json"]
    lines = (tmp_path / "run" / "comparison.csv").read_text().splitlines()
    assert lines[0] == "t,l1,linf"
    assert [r.split(",")[0] for r in lines[1:]] == ["%.17g" % (k / 16) for k in range(1, 17)]
    record = _read_record(tmp_path / "run", code)
    assert [c["name"] for c in record["checks"]] == ["slab fixed points within the ball of radius M",
                                                     "worst per-time l1 to reference"]
    # every other file the run wrote, with its digest; the field's shape besides
    artifacts = record["artifacts"]
    assert sorted(artifacts) == names[:-1]
    for name, entry in artifacts.items():
        digest = hashlib.sha256((tmp_path / "run" / name).read_bytes()).hexdigest()
        assert entry["sha256"] == digest
    assert artifacts["field.npy"]["shape"] == [17, 128]
    assert set(artifacts["field.csv"]) == {"sha256"}
    assert record["solve"]["tau"] <= record["solve"]["tau_max"]
    assert record["solve"]["grid"]["n_x"] == 128
    assert abs(record["solve"]["min_rel"]) < 1e-12  # heat: positive up to rounding
    # the report's fields and its ball verdict, and nothing else; no field of
    # the Picard sweeps, which solve does not run, comes back into either
    assert set(record["solve"]) == {f.name for f in dataclasses.fields(SolveReport)} | {"ball_ok"}
    assert not {"tol", "residual_histories", "contraction_monitor_ok",
                "max_contraction_ratio"} & set(record["solve"])


def test_runs_are_byte_identical(tmp_path):
    cfg1 = RunConfig.from_text(HEAT_CFG + f"\nout = {tmp_path}/a")
    cfg2 = RunConfig.from_text(HEAT_CFG + f"\nout = {tmp_path}/b")
    assert run(cfg1) == 0
    assert run(cfg2) == 0
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
    assert "run.json" in names and "field.npy" in names
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_frozen_runs_are_byte_identical(tmp_path):
    runs = [tmp_path / "a", tmp_path / "b"]
    for out in runs:
        path = tmp_path / f"{out.name}.cfg"
        path.write_text(_burgers_cfg("simulate-frozen", 64, 32,
                                     "particles.N = 2000\nparticles.dt = 0.03125\n"
                                     f"particles.seeds = 2\nout = {out}"))
        _read_record(out, cli_main(["simulate-frozen", "--config", str(path)]))
    names = sorted(p.name for p in runs[0].iterdir())
    assert names == ["field.csv", "field.npy", "functionals.csv", "run.json"]
    for name in names:
        assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes()
    record = json.loads((runs[0] / "run.json").read_text())
    assert [(p["seed"], p["N"]) for p in record["particles"]] == [(1234, 2000), (1235, 2000)]
    for p in record["particles"]:
        assert [lv["t"] for lv in p["levels"]] == [0.25, 0.5, 1.0]
        for lv in p["levels"]:
            assert 0.0 < lv["ess_frac"] <= 1.0 and lv["bandwidth"] > 0.0
            assert 0.0 <= lv["outside_box"] <= 1.0
    clamp = record["checks"][-1]
    assert clamp["name"] == "max particle |z| within z_max"
    assert clamp["value"] == max(p["max_abs_z"] for p in record["particles"])
    assert 0.0 < clamp["value"] <= clamp["tol"] and clamp["passed"]


def test_cli_validate_heat(tmp_path, capsys):
    path = tmp_path / "heat.cfg"
    path.write_text(HEAT_CFG + f"\nout = {tmp_path}/cli_run")
    assert cli_main(["validate", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert "pass" in out


def test_cli_validate_without_reference_fails(tmp_path, capsys):
    # the subcommand wins over the config's experiment, so the check follows it
    path = tmp_path / "fkpp.cfg"
    path.write_text("experiment = solve-mild\nproblem.preset = logistic_fkpp\n"
                    f"grid.n_x = 64\ngrid.n_t = 16\nout = {tmp_path}/fkpp\n")
    assert cli_main(["validate", "--config", str(path)]) == 2
    assert "logistic_fkpp" in capsys.readouterr().err
    assert not (tmp_path / "fkpp").exists()  # refused before the mild solve


@pytest.mark.parametrize("nu, mean, message", [
    (1.0, 7.5, "u0 carries mass outside the grid box"),
    (0.001, 0.0, "nu = 0.001 is too small for the exact rule"),
], ids=["mass-outside-box", "nu-0.001"])
def test_cli_validate_rejects_burgers_outside_the_exact_rule(tmp_path, capsys, nu, mean, message):
    path = tmp_path / "burgers.cfg"
    path.write_text(_burgers_cfg("validate", 64, 16, f"out = {tmp_path}/run")
                    .replace("problem.nu = 1.0", f"problem.nu = {nu}\nproblem.u0_mean = {mean}"))
    assert cli_main(["validate", "--config", str(path)]) == 2
    assert f"config error: validate reference: {message}" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()  # refused before the mild solve


@pytest.mark.parametrize("times", ["5", "0.25, 0.03125"])
def test_cli_rejects_compare_time_off_the_grid(tmp_path, capsys, times):
    # past T, and between two of the 16 levels: refused before the mild solve
    path = tmp_path / "heat.cfg"
    path.write_text(HEAT_CFG + f"\ncompare.times = {times}\nout = {tmp_path}/run")
    assert cli_main(["validate", "--config", str(path)]) == 2
    assert "config error: compare.times: " in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("kind, extra", [
    ("simulate-frozen", "particles.dt = 0.1"),  # 10 steps against 16 field levels
    ("simulate-mckean", "particles.dt = 0.3"),  # does not divide T = 1
    ("simulate-frozen", "particles.dt = 0.125\ncompare.times = 0.0625"),  # not a step level
], ids=["frozen-dt-0.1", "mckean-dt-0.3", "frozen-time-between-steps"])
def test_cli_rejects_particle_step_before_the_solve(tmp_path, capsys, kind, extra):
    path = tmp_path / "heat.cfg"
    path.write_text(HEAT_CFG.replace("grid.n_x = 128", "grid.n_x = 64")
                    + f"\n{extra}\nout = {tmp_path}/run")
    assert cli_main([kind, "--config", str(path)]) == 2
    assert "config error: particles.dt = " in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_validate_heat_compares_cell_averages(tmp_path):
    # the closed form enters as exact cell averages, as the solver's fields are:
    # on this grid point values of the density stood 5.5e-4 off the solution
    cfg = RunConfig.from_text(HEAT_CFG.replace("grid.n_x = 128", "grid.n_x = 512")
                              .replace("grid.n_t = 16", "grid.n_t = 64")
                              .replace("compare.l1 = 1e-2", "compare.l1 = 1e-4")
                              + f"\nout = {tmp_path}/run")
    code = run(cfg)
    _, check = _read_record(tmp_path / "run", code)["checks"]
    assert check["name"] == "worst per-time l1 to reference"
    assert check["value"] < 1e-4 and code == 0


def test_cli_missing_config(tmp_path, capsys):
    assert cli_main(["validate", "--config", str(tmp_path / "nope.cfg")]) == 2


@pytest.mark.parametrize("case", ["config-is-a-directory", "config-not-utf8", "out-under-a-file"])
def test_cli_unreadable_input_is_a_config_error(tmp_path, capsys, case):
    # each ended in a traceback (IsADirectoryError, UnicodeDecodeError, or
    # the run's own mkdir) instead of one config error that names the path
    config, blocker = tmp_path / "heat.cfg", tmp_path / "blocker"
    blocker.write_text("a file where a directory is needed\n")
    text = HEAT_CFG + f"out = {tmp_path}/out\n"
    if case == "config-is-a-directory":
        config.mkdir()
    elif case == "config-not-utf8":
        config.write_bytes(text.replace("fast", "f\u00e4st").encode("latin-1"))
    else:
        text = HEAT_CFG + f"out = {blocker}/out\n"
        config.write_text(text)
    named = blocker / "out" if case == "out-under-a-file" else config
    before = sorted(tmp_path.rglob("*"))
    assert cli_main(["validate", "--config", str(config)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ") and str(named) in err[0]
    assert sorted(tmp_path.rglob("*")) == before


@pytest.fixture(scope="module")
def cli_import_modules():
    """The modules a fresh interpreter holds after `import mfklab.cli`."""
    script = "import sys, mfklab.cli; print('\\n'.join(sorted(sys.modules)))"
    src = str(Path(mfklab.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, check=True, timeout=120)
    modules = set(proc.stdout.split())
    assert "mfklab.cli" in modules  # the listing is the interpreter's, not empty
    return modules


def test_cli_import_leaves_out_slow_scipy_modules(cli_import_modules):
    # scipy.signal (which loads scipy.stats) was about 1 s of every run's set-up
    assert not {"scipy.signal", "scipy.stats"} & cli_import_modules


def test_cli_import_leaves_out_scipy_fft(cli_import_modules):
    # every transform goes through numpy.fft
    assert not [m for m in cli_import_modules if m.startswith("scipy.fft")]


def test_cli_import_leaves_out_scipy(cli_import_modules):
    # ndtr is kernel's own numpy series: no run imports scipy at all
    assert not [m for m in cli_import_modules if m.split(".")[0] == "scipy"]


def test_cli_import_leaves_out_concurrent_futures(cli_import_modules):
    # concurrent.futures loads logging, about 7 ms: the march imports its
    # executor when it runs, so only runs that build particles pay for it
    assert not [m for m in cli_import_modules if m.split(".")[0] == "concurrent"]


def test_field_csv_schema(tmp_path):
    grid = GridSpec(R=1.0, n_x=3, n_t=1, T=1.0)
    f = Field(grid, np.arange(6, dtype=float).reshape(2, 3))
    path = tmp_path / "f.csv"
    write_field_csv(path, f)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,x1,u"
    assert len(lines) == 1 + 2 * 3
    assert lines[1].split(",")[2] == "0"


def test_field_csv_matches_per_value_format(tmp_path):
    grid = GridSpec(R=1.5, n_x=2, n_t=3, T=0.3)
    values = np.array([[-0.0, 5e-324], [1e-320, 1e300], [3.0, -7.0], [0.1, -2.5e-17]])
    path = tmp_path / "f.csv"
    write_field_csv(path, Field(grid, values))
    want = "t,x1,u\n" + "".join(
        "%.17g,%.17g,%.17g\n" % (t, x, values[k, j])
        for k, t in enumerate(grid.times())
        for j, x in enumerate(grid.x_nodes())
    )
    assert path.read_bytes() == want.encode()
    assert path.read_text().splitlines()[1:3] == ["0,-1.5,-0", "0,1.5,4.9406564584124654e-324"]


def test_field_npy_reloads_bit_exactly(tmp_path):
    grid = GridSpec(R=1.5, n_x=2, n_t=3, T=0.3)
    values = np.array([[-0.0, 5e-324], [1e-320, 1e300], [3.0, -7.0], [0.1, -2.5e-17]])
    entries = write_field(tmp_path, "f", Field(grid, values))
    assert entries == {"f.csv": {}, "f.npy": {"shape": [4, 2]}}
    back = np.load(tmp_path / "f.npy", allow_pickle=False)
    assert back.dtype == np.float64 and back.flags.c_contiguous
    assert back.tobytes() == values.tobytes()  # -0.0 and the subnormals too


@pytest.mark.parametrize("n_t, levels", [
    (64, [0, 16, 32, 48, 64]),
    (6, [0, 2, 3, 4, 6]),  # 1.5 and 4.5 round half to even
    (2, [0, 1, 2]),        # 0.5 and 1.5 land on levels already held
])
def test_field_csv_summary_levels(tmp_path, n_t, levels):
    grid = GridSpec(R=1.0, n_x=3, n_t=n_t, T=0.5)
    values = np.arange((n_t + 1) * 3, dtype=float).reshape(n_t + 1, 3)
    write_field(tmp_path, "f", Field(grid, values))
    assert summary_levels(n_t) == levels
    rows = [r.split(",") for r in (tmp_path / "f.csv").read_text().splitlines()[1:]]
    assert [float(r[0]) for r in rows[::3]] == list(grid.times()[levels])
    assert [float(r[2]) for r in rows] == list(values[levels].ravel())


def test_frozen_battery_small(tmp_path):
    cfg = RunConfig.from_text(
        "experiment = simulate-frozen\n"
        "problem.preset = exponential_growth\n"
        "problem.lam = 0.5\n"
        "grid.R = 8.0\n"
        "grid.n_x = 128\n"
        "grid.n_t = 64\n"
        "particles.N = 20000\n"
        "particles.dt = 0.015625\n"
        "particles.seeds = 3\n"
        f"out = {tmp_path}/frozen"
    )
    assert run(cfg) == 0
    rows = (tmp_path / "frozen" / "functionals.csv").read_text().splitlines()
    assert rows[0] == "seed,t,phi,quadrature,estimate,stderr,z"
    assert len(rows) == 1 + 3 * 3 * 5


def test_sweep_monotone_small(tmp_path):
    cfg = RunConfig.from_text(
        "experiment = sweep\n"
        "problem.preset = heat\n"
        "grid.R = 7.0\n"
        "grid.n_x = 128\n"
        "grid.n_t = 16\n"
        "particles.dt = 0.0625\n"
        "particles.seeds = 3\n"
        "sweep.N = 200,2000,20000\n"
        f"out = {tmp_path}/sweep"
    )
    assert run(cfg) == 0
    rows = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()
    assert rows[0] == "N,median_l1_at_T,seed_count"
    assert len(rows) == 4


def test_failed_tolerance_gives_nonzero_exit(tmp_path):
    cfg = RunConfig.from_text(HEAT_CFG.replace("compare.l1 = 1e-2", "compare.l1 = 1e-9")
                              + f"\nout = {tmp_path}/strict")
    code = run(cfg)
    assert code == 1
    record = _read_record(tmp_path / "strict", code)
    assert [c["passed"] for c in record["checks"]] == [True, False]


def test_fixed_point_outside_the_ball_fails_the_run(tmp_path, monkeypatch):
    # no shipped grid leaves the ball, so the report is doctored
    def solve(*args, **kwargs):
        u, report = mild_solve(*args, **kwargs)
        report.max_iterate_sup = 1.5 * report.M
        return u, report

    monkeypatch.setattr(harness, "solve", solve)
    code = run(RunConfig.from_text(HEAT_CFG + f"\nout = {tmp_path}/run"))
    assert code == 1
    record = _read_record(tmp_path / "run", code)
    assert not record["solve"]["ball_ok"]
    M = record["solve"]["M"]
    assert record["checks"][0] == {"name": "slab fixed points within the ball of radius M", "value": 1.5 * M,
                                   "tol": M, "passed": False}


def _burgers_cfg(kind, n_x, n_t, extra):
    return (f"experiment = {kind}\nproblem.preset = burgers\nproblem.nu = 1.0\n"
            f"problem.u0_var = 0.04\ngrid.R = 8.0\ngrid.n_x = {n_x}\ngrid.n_t = {n_t}\n{extra}\n")


def test_battery_without_standard_errors_fails(tmp_path):
    # one particle per seed gives se = 0 on every entry: an estimate that is
    # not exact is then infinitely many standard errors off, never a hit
    path = tmp_path / "one.cfg"
    path.write_text(_burgers_cfg("simulate-frozen", 128, 64,
                                 "particles.N = 1\nparticles.dt = 0.015625\n"
                                 f"particles.seeds = 2\nout = {tmp_path}/one"))
    code = cli_main(["simulate-frozen", "--config", str(path)])
    assert code == 1
    rows = [r.split(",") for r in (tmp_path / "one" / "functionals.csv").read_text().splitlines()]
    assert rows[0][-2:] == ["stderr", "z"] and len(rows) == 1 + 2 * 3 * 5
    assert all(float(r[-2]) == 0.0 and r[-1] == "inf" for r in rows[1:])
    battery = _read_record(tmp_path / "one", code)["checks"][2]
    assert battery["name"].startswith("share of battery z within")
    assert battery["value"] == 0.0 and not battery["passed"]


def test_engaged_clamp_fails_the_run(tmp_path, capsys):
    path = tmp_path / "clamp.cfg"
    path.write_text(_burgers_cfg("solve-mild", 128, 64,
                                 f"problem.z_max = 1.0\nout = {tmp_path}/clamp"))
    code = cli_main(["solve-mild", "--config", str(path)])
    assert code == 1
    assert "max |w| within z_max: " in capsys.readouterr().out.split("-> FAIL")[0]
    record = _read_record(tmp_path / "clamp", code)
    check, _ = record["checks"]
    assert check["name"] == "max |w| within z_max"
    assert check["tol"] == 1.0 and check["value"] > 1.0 and not check["passed"]


def test_engaged_particle_clamp_fails_the_run(tmp_path, capsys):
    path = tmp_path / "clamp.cfg"
    path.write_text(_burgers_cfg("simulate-mckean", 128, 64,
                                 "particles.N = 2000\nparticles.dt = 0.015625\n"
                                 f"problem.z_max = 1.0\nout = {tmp_path}/clamp"))
    code = cli_main(["simulate-mckean", "--config", str(path)])
    assert code == 1
    assert "max particle |z| within z_max: " in capsys.readouterr().out
    record = _read_record(tmp_path / "clamp", code)
    names = [c["name"] for c in record["checks"]]
    assert names == ["max |w| within z_max", "slab fixed points within the ball of radius M",
                     "l1 distance to mild at T", "max particle |z| within z_max"]
    check = record["checks"][-1]
    assert check["tol"] == 1.0 and check["value"] > 1.0 and not check["passed"]
    (particles,) = record["particles"]
    assert [lv["t"] for lv in particles["levels"]] == [1.0]


def test_burgers_validate_passes_its_checks_and_writes_its_artifacts(tmp_path):
    # one --threads 1 run; test_runs_are_byte_identical checks that repeat
    # runs are byte-identical, and the *_across_blas_threads tests that BLAS
    # threads change no bit
    path = tmp_path / "t1.cfg"
    path.write_text(_burgers_cfg("validate", 257, 256, f"out = {tmp_path}/t1"))
    assert cli_main(["validate", "--config", str(path), "--threads", "1"]) == 0
    clamp, ball, _ = _read_record(tmp_path / "t1", 0)["checks"]
    assert clamp["name"] == "max |w| within z_max"
    assert 0.0 < clamp["value"] <= clamp["tol"]
    assert ball["name"] == "slab fixed points within the ball of radius M"
    assert 0.0 < ball["value"] <= ball["tol"] and ball["passed"]
    names = sorted(p.name for p in (tmp_path / "t1").iterdir())
    assert names == ["comparison.csv", "field.csv", "field.npy", "run.json"]
    rows = (tmp_path / "t1" / "comparison.csv").read_text().splitlines()[1:]
    assert [r.split(",")[0] for r in rows] == ["0.25", "0.5", "1"]


def test_burgers_validate_does_not_depend_on_solver_tol(tmp_path):
    # solver.tol still parses, but the forward slab solve sets nothing by it
    codes = []
    for tol in ("1e-4", "1e-10"):
        cfg = RunConfig.from_text(_burgers_cfg("validate", 128, 64,
                                               f"solver.tol = {tol}\nout = {tmp_path}/{tol}"))
        assert cfg.tol == float(tol)
        codes.append(run(cfg))
    assert codes[0] == codes[1]
    for name in ("field.npy", "comparison.csv"):
        assert (tmp_path / "1e-4" / name).read_bytes() == (tmp_path / "1e-10" / name).read_bytes()


# burgers at 64 x 32 plans 512 field levels: particle steps of 1/32 read every
# 16th of them, steps of 1/1024 are finer than the field
@pytest.mark.parametrize("kind, extra", [
    ("simulate-mckean", "particles.N = 500"),
    ("sweep", "sweep.N = 100, 200\nparticles.seeds = 1"),
    ("simulate-frozen", "particles.N = 500\nparticles.seeds = 2"),
], ids=["simulate-mckean", "sweep", "simulate-frozen"])
def test_particle_runs_release_the_field_levels_they_do_not_read(tmp_path, monkeypatch,
                                                                 kind, extra):
    solved, entered = [], []

    def solve(*args):
        u, report = mild_solve(*args)
        solved.append(weakref.ref(u.values))
        return u, report

    def entry(march):
        def wrapped(*args):
            gc.collect()
            # the frozen march's first argument is its field, the closure's its problem
            entered.append((solved[0]() is None, getattr(args[0], "grid", None)))
            return march(*args)
        return wrapped

    monkeypatch.setattr(harness, "solve", solve)
    for name in ("solve_selfconsistent", "simulate_frozen"):
        monkeypatch.setattr(harness, name, entry(getattr(harness, name)))
    run(RunConfig.from_text(_burgers_cfg(kind, 64, 32,
                                         f"{extra}\nparticles.dt = 0.03125\nout = {tmp_path}")))
    assert np.load(tmp_path / "field.npy").shape == (513, 64)  # the whole field is written
    # the closure holds u(T) only; the frozen march gets the field on its own steps
    steps = GridSpec(8.0, 64, 32, 1.0) if kind == "simulate-frozen" else None
    assert entered == [(True, steps)] * (1 if kind == "simulate-mckean" else 2)


def test_mckean_distance_is_to_the_last_level_of_the_field(tmp_path):
    cfg = _burgers_cfg("simulate-mckean", 64, 32, f"particles.N = 500\nparticles.dt = 0.03125\n"
                                                  f"out = {tmp_path}")
    run(RunConfig.from_text(cfg))
    u = np.load(tmp_path / "field.npy")
    rec = np.load(tmp_path / "mckean_field.npy")
    steps = GridSpec(8.0, 64, 32, 1.0)
    want = compare_fields(Field(steps, rec), [32], u[-1:]).l1[0]
    check = _read_record(tmp_path, 0)["checks"][2]
    assert check["name"] == "l1 distance to mild at T" and check["value"] == want


@pytest.mark.parametrize("dt", [0.03125, 0.0009765625])  # 16 field levels a step; 2 steps a level
def test_frozen_battery_is_that_of_the_whole_field(tmp_path, dt):
    cfg = RunConfig.from_text(_burgers_cfg("simulate-frozen", 64, 32,
                                           f"particles.N = 500\nparticles.dt = {dt}\n"
                                           f"particles.seeds = 2\nout = {tmp_path}"))
    run(cfg)
    problem = preset("burgers", nu=1.0, u0_var=0.04)
    u, _ = mild_solve(problem, plan_grid(problem, 8.0, 64, 32))
    x, wx = u.grid.x_nodes(), trapezoid_weights(u.grid.n_x, u.grid.dx)
    times = [0.25, 0.5, 1.0]
    want = []
    for seed in (1234, 1235):
        ens = simulate_frozen(u, problem, 500, dt, seed, times)
        for t in times:
            for tf in smooth_test_functions():
                est, se = weighted_functional(ens, tf, t)
                quad = float(np.dot(wx, tf.f(x) * u.values[u.grid.time_index(t)]))
                want.append((seed, t, tf.name, quad, est, se, abs(est - quad) / se))
    rows = [r.split(",") for r in (tmp_path / "functionals.csv").read_text().splitlines()[1:]]
    got = [(int(r[0]), float(r[1]), r[2], *map(float, r[3:])) for r in rows]
    assert got == want
