import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mfklab
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
    write_field_csv,
)

HEAT_CFG = """
# fast validation setup
experiment = validate
problem.preset = heat
problem.nu = 1.0
problem.u0_var = 0.04
grid.R = 7.0
grid.n_x = 128
grid.n_t = 16
solver.tol = 1e-8
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
                "grid.min_levels_per_slab = 4", "threads = 2", "grid.tau = 0.5"):
        with pytest.raises(ConfigError, match="unknown keys"):
            RunConfig.from_text(HEAT_CFG + "\n" + key)


# command-line overrides are checked as the config keys they replace
_OVERRIDE_KEYS = {"--seed": "particles.seed"}


@pytest.mark.parametrize("line", [
    "particles.seeds = 0", "sweep.N = ,", "sweep.N = 1000, 0", "compare.fraction = 7",
    "compare.fraction = 0", "compare.z = 0", "solver.max_iter = 0", "grid.min_slabs = -3",
    "grid.n_x = 1", "particles.seed = -1", "compare.l1 = -1",
    "solver.tol = nan", "problem.nu = 0", "problem.u0_var = -1", "--seed -5",
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


def test_cli_rejects_nonpositive_threads(tmp_path):
    path = tmp_path / "heat.cfg"
    path.write_text(HEAT_CFG)
    with pytest.raises(SystemExit) as exc:
        cli_main(["validate", "--config", str(path), "--threads", "0"])
    assert exc.value.code == 2


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
        rep = compare_fields(a, a)
        assert np.all(rep.l1 == 0.0) and np.all(rep.linf == 0.0)

    def test_constant_offset_arithmetic(self):
        # offset 0.01 on a width-2 box: l1 = 0.02 per level, sup = 0.01
        grid, a = self._pair()
        b = Field(grid, a.values + 0.01)
        rep = compare_fields(a, b)
        assert np.allclose(rep.l1, 0.02, atol=1e-12)
        assert np.allclose(rep.linf, 0.01, atol=1e-15)

    def test_grid_mismatch_rejected(self):
        grid, a = self._pair()
        other = GridSpec(R=1.0, n_x=101, n_t=2, T=1.0, n_slabs=2)
        with pytest.raises(ValueError, match="grids"):
            compare_fields(a, Field.zeros(other))


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
    assert sorted(p.name for p in (tmp_path / "run").iterdir()) == [
        "comparison.csv", "field.csv", "run.json"]
    header = (tmp_path / "run" / "comparison.csv").read_text().splitlines()[0]
    assert header == "t,l1,linf"
    record = _read_record(tmp_path / "run", code)
    assert [c["name"] for c in record["checks"]] == ["worst per-time l1 to reference"]
    assert record["solve"]["tau"] <= record["solve"]["tau_max"]
    assert record["solve"]["grid"]["n_x"] == 128


def test_runs_are_byte_identical(tmp_path):
    cfg1 = RunConfig.from_text(HEAT_CFG + f"\nout = {tmp_path}/a")
    cfg2 = RunConfig.from_text(HEAT_CFG + f"\nout = {tmp_path}/b")
    assert run(cfg1) == 0
    assert run(cfg2) == 0
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
    assert "run.json" in names
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


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
    (check,) = _read_record(tmp_path / "run", code)["checks"]
    assert check["value"] < 1e-4 and code == 0


def test_cli_missing_config(tmp_path, capsys):
    assert cli_main(["validate", "--config", str(tmp_path / "nope.cfg")]) == 2


def test_cli_import_leaves_out_slow_scipy_modules():
    # scipy.signal (which loads scipy.stats) was about 1 s of every run's set-up
    script = ("import sys, mfklab.cli; "
              "print(sorted({'scipy.signal', 'scipy.stats'} & set(sys.modules)))")
    src = str(Path(mfklab.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, check=True, timeout=120)
    assert proc.stdout.strip() == "[]"


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


def test_frozen_battery_small(tmp_path):
    cfg = RunConfig.from_text(
        "experiment = simulate-frozen\n"
        "problem.preset = exponential_growth\n"
        "problem.lam = 0.5\n"
        "grid.R = 8.0\n"
        "grid.n_x = 128\n"
        "grid.n_t = 64\n"
        "grid.min_slabs = 2\n"
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
    assert [c["passed"] for c in record["checks"]] == [False]


def _burgers_cfg(kind, n_x, n_t, extra):
    return (f"experiment = {kind}\nproblem.preset = burgers\nproblem.nu = 1.0\n"
            f"problem.u0_var = 0.04\ngrid.R = 8.0\ngrid.n_x = {n_x}\ngrid.n_t = {n_t}\n"
            f"solver.tol = 1e-8\n{extra}\n")


def test_engaged_clamp_fails_the_run(tmp_path, capsys):
    path = tmp_path / "clamp.cfg"
    path.write_text(_burgers_cfg("solve-mild", 128, 64,
                                 f"problem.z_max = 1.0\nout = {tmp_path}/clamp"))
    code = cli_main(["solve-mild", "--config", str(path)])
    assert code == 1
    assert "max |w| within z_max: " in capsys.readouterr().out.split("-> FAIL")[0]
    record = _read_record(tmp_path / "clamp", code)
    (check,) = record["checks"]
    assert check["name"] == "max |w| within z_max"
    assert check["tol"] == 1.0 and check["value"] > 1.0 and not check["passed"]


def test_burgers_validate_identical_across_threads(tmp_path):
    for n in (1, 2):
        path = tmp_path / f"t{n}.cfg"
        path.write_text(_burgers_cfg("validate", 257, 256, f"out = {tmp_path}/t{n}"))
        assert cli_main(["validate", "--config", str(path), "--threads", str(n)]) == 0
    clamp, _ = _read_record(tmp_path / "t1", 0)["checks"]
    assert clamp["name"] == "max |w| within z_max"
    assert 0.0 < clamp["value"] <= clamp["tol"]
    names = sorted(p.name for p in (tmp_path / "t1").iterdir())
    assert names == ["comparison.csv", "field.csv", "run.json"]
    assert names == sorted(p.name for p in (tmp_path / "t2").iterdir())
    for name in names:
        assert (tmp_path / "t1" / name).read_bytes() == (tmp_path / "t2" / name).read_bytes()
