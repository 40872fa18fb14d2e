"""Record a BENCH_<label>.json: the benchmark run on a parent and a change commit.

    python3 scripts/bench_record.py --label NAME [--parent REV] [--change REV]

Both commits are exported with `git archive` into fresh temporary directories
(the benchmark builds what it runs from the source in its checkout), so
uncommitted edits are never measured and the repository is left untouched.
For every workload of BENCHMARK.json, the script runs `perfbench/run.py
--trace 0` once per side in each of PAIRS = 10 pairs, with BENCHMARK.json's
run length, one process at a time; the side that runs first alternates by
pair.  Each run's metric is run.py's median over its repetitions; the file
holds, per side, the median, quartiles (inclusive method) and runs of every
end-to-end metric of BENCHMARK.json (`wall_s`, `setup_s`, `peak_rss_mb`,
`err_ref`), the distinct `err_ref` values of all repetitions (17 digits,
`err_ref_values`), the distinct CSV digest sets, the largest `max_du` against
perfbench/reference, and the repetition counts.  Per workload it holds the
pairs the change won (it reads better; ties count for neither), whether both
sides wrote the same digests, and two verdicts per end-to-end metric:

* `gain`: the change won at least 9 of the 10 pairs, and the medians differ,
  in the better direction, by more than the parent's q3 - q1 and by more than
  GAIN_SHARE = 1/10 of the metric's `bound` in BENCHMARK.json, a fraction of
  the parent's median.  The parent's q3 - q1 can be far below what two
  exports of one run path differ by: a last-digit move of `err_ref` wins
  every pair with a zero IQR, and two trees with the same run path have
  differed by 0.1 MB of `peak_rss_mb` over a q1-q3 of 0.01 MB (frozen-battery
  in BENCH_pr32.json); a tenth of the bound is 0.28 MB there;
* `within_bound`: the change's median is worse than the parent's by at most
  the metric's `bound` in BENCHMARK.json, a fraction of the parent's median.

Per workload it also runs the workload's config once per side through the
CLI (`python -m mfklab.cli <experiment> --config perfbench/workloads/W.cfg
--threads 1`, one BLAS thread) and records `max_abs_diff_vs_parent`: per CSV
or `.npy` artifact, the largest |change - parent| over its numeric cells or
array entries, null where the two files differ in shape or in a non-numeric
cell, or only one side wrote the file.  Digests say whether an answer moved;
this says by how much.

The layout is otherwise that of BENCH_pr7.json.

perfbench/ is frozen (the benchmark may not change within a change it
measures), so some of it is stale; what it reports there is to be read with
these in mind until a change to the benchmark mends them:

* workloads/burgers-validate.cfg still says it compares against the
  "finite-volume reference"; `validate` compares against the exact Cole-Hopf
  cell averages, and the FV spans read 0 calls;
* NOTES.md still describes the per-cell `_restrict` loop and an old trace
  table;
* child.py still sets MFKLAB_THREADS, which nothing reads, and passes
  `--threads 1`, the only value the CLI accepts (the numerics run on one
  thread); its comment on the BLAS pin is out of date;
* tracer.py derives `particles.step_rate` and `particles.trajectory_mb` from
  `ensemble.positions.shape`, which counts the rows an ensemble keeps, not
  its steps, since the particle engine streams: step_rate reads about 128x
  low on frozen-battery and 0 on mckean-closure;
* BENCHMARK.json's burgers-validate note says "FV (mostly _restrict),
  256-slab chaining and the 525k-row field CSV dominate": `validate`
  compares against the exact Cole-Hopf cells, so no FV runs; `field.csv`
  holds five levels (2560 rows), and `harness.write_field_csv` times and
  counts the summary only; and the whole field is never held, since
  `mild.solve` streams each slab's levels into `field.npy` through
  `harness.FieldWriter`, which keeps only the levels the run reads (the
  note's 4.2 MB field is the peak it no longer reaches);
* child.py digests `*.csv` only, so the digest sets do not cover the `.npy`
  fields; `max_abs_diff_vs_parent` does;
* NOTES.md still gives burgers-validate "256 slabs, 802 sweeps" and reads
  `mild.picard_map` calls as sweeps: `mild.solve` solves each slab by
  forward substitution and calls neither `solve_slab` nor `picard_map`, so
  on every workload `mild.picard_map` and `mild.sweeps_per_slab` read 0 (the
  tracer counts slabs through `solve_slab`, which only the tests call);
* the slab pass is `mild._sweep`, run in place once per slab, and no span
  wraps it, so its time shows only inside `mild.solve`'s self time; the next
  change to the benchmark should time it;
* `kernel.smooth_weights.calls` and `kernel.smooth_weights.distinct_frac`
  read 0 on every workload: the slab-data smoothing spectra come in closed
  form from `kernel.smooth_symbols`, the growth rows are built in blocks
  through `kernel.smooth_weight_rows`, and only tests call the one-row
  `smooth_weights`; the next change to the benchmark should count the rows
  of `smooth_weight_rows` and time `smooth_symbols`;
* BENCHMARK.json's heat-validate note, "the kernel stencil build is ~93% of
  the run", no longer describes the run: heat builds no weight row at all
  (its S spectra are `kernel.smooth_symbols`, and it has no A or B), and
  `perfbench/run.py --trace 1` reads `mild.build_slab_stencils.s` 0.0011 s
  of a 0.0107 s `harness.run` (10%); the largest layers are now
  `harness.write_field_csv` and the exact oracle in `harness.run`'s self
  time.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parents[1]
PAIRS = 10  # the fewest pairs that can support a claimed gain
GAIN_WINS = 9  # pairs the change must win for a gain
GAIN_SHARE = 0.1  # of the metric's bound: a smaller move of the medians is no gain
# one line per repetition of perfbench/run.py (see its `report`)
REP_LINE = re.compile(r" rep=\d+ trace=0 ok=\S+ .* err_ref=(\S+) max_du=(\S+) digests=(.*)$")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev: str, dest: Path) -> None:
    """Write the committed tree of `rev` into `dest`."""
    dest.mkdir()
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def run_once(tree: Path, command: list, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench/run.py process: its result object plus the repetition lines."""
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise RuntimeError(f"{workload} in {tree.name}: no result\n{proc.stderr[-2000:]}")
    reps = [m.groups() for m in map(REP_LINE.search, lines) if m]
    result["err_ref"] = [float(e) for e, _, _ in reps]
    result["max_du"] = max(float(d) for _, d, _ in reps)
    result["digests"] = [ast.literal_eval(g) for _, _, g in reps]
    return result


def run_cli(tree: Path, workload: str, out: Path) -> None:
    """The workload's config through the CLI of `tree`, artifacts into `out`."""
    config = tree / "perfbench" / "workloads" / f"{workload}.cfg"
    kind = re.search(r"^experiment\s*=\s*(\S+)", config.read_text(), re.M).group(1)
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "OMP_NUM_THREADS": "1",
           "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    subprocess.run([sys.executable, "-m", "mfklab.cli", kind, "--config", str(config),
                    "--out", str(out), "--threads", "1"], cwd=tree, env=env,
                   capture_output=True)


def csv_max_abs_diff(parent: Path, change: Path) -> float | None:
    """Largest |change - parent| over the numeric cells of two CSV files; None
    when their shapes or a non-numeric cell differ."""
    a, b = (np.array([r.split(",") for r in p.read_text().splitlines()[1:]])
            for p in (parent, change))
    if a.shape != b.shape:
        return None
    worst = 0.0
    for col_a, col_b in zip(a.T, b.T):
        try:
            diff = np.abs(col_b.astype(float) - col_a.astype(float))
        except ValueError:  # a text column: it must match exactly
            if not np.array_equal(col_a, col_b):
                return None
            continue
        worst = max(worst, float(diff.max(initial=0.0)))
    return worst


def npy_max_abs_diff(parent: Path, change: Path) -> float | None:
    """Largest |change - parent| over two .npy arrays; None when their shapes differ."""
    a, b = (np.load(p, allow_pickle=False) for p in (parent, change))
    if a.shape != b.shape:
        return None
    return float(np.abs(b - a).max(initial=0.0))


def csv_diffs(parent: Path, change: Path) -> dict:
    """The largest difference per CSV and .npy artifact either side wrote (None
    if one did not)."""
    names = sorted({p.name for d in (parent, change) for pattern in ("*.csv", "*.npy")
                    for p in d.glob(pattern)})
    diff = {".csv": csv_max_abs_diff, ".npy": npy_max_abs_diff}
    return {name: diff[Path(name).suffix](parent / name, change / name)
            if (parent / name).exists() and (change / name).exists() else None
            for name in names}


def summary(runs: list, metrics: list) -> dict:
    """The side's record of one workload, from its run.py results."""
    out = {}
    for m in metrics:
        values = [r["metrics"][m["name"]]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
        out[m["name"]] = {"median": median, "q1": q1, "q3": q3, "runs": values}
    out["err_ref_values"] = sorted({e for r in runs for e in r["err_ref"]})
    out["correct"] = all(r["correct"] for r in runs)
    out["failed"] = sum(r["failed"] for r in runs)
    out["attempted"] = sum(r["attempted"] for r in runs)
    digests = {json.dumps(d, sort_keys=True) for r in runs for d in r["digests"] if d}
    out["digests"] = [json.loads(d) for d in sorted(digests)]
    out["max_du"] = max(r["max_du"] for r in runs)
    return out


def better_by(metric: dict, parent: float, change: float) -> float:
    """How much better the change reads than the parent (below 0: worse)."""
    return parent - change if metric["better"] == "lower" else change - parent


def verdicts(metric: dict, parent: dict, change: dict, wins: int) -> dict:
    """`gain` and `within_bound` of one end-to-end metric (see the module doc);
    parent and change are the sides' {median, q1, q3, runs} of it."""
    by = better_by(metric, parent["median"], change["median"])
    bound = metric["bound"] * abs(parent["median"])
    floor = max(parent["q3"] - parent["q1"], GAIN_SHARE * bound)
    return {"gain": wins >= GAIN_WINS and by > floor, "within_bound": -by <= bound}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json at the root")
    parser.add_argument("--parent", default=None, help="parent commit (default: change~1)")
    parser.add_argument("--change", default="HEAD", help="change commit (default: HEAD)")
    args = parser.parse_args(argv)
    change = git("rev-parse", args.change)
    parent = git("rev-parse", args.parent or f"{change}~1")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    command, seconds, metrics = bench["command"], bench["run_seconds"], bench["end_to_end"]
    work = Path(tempfile.mkdtemp(prefix="bench_record_"))
    record = {
        "label": args.label,
        "command": " ".join(command) + f" --workload W --seed S --seconds {seconds:g} --trace 0",
        "method": "parent and change run alternately (the side that runs first alternates "
                  "by pair), each run a fresh perfbench/run.py in a git-archive export of its "
                  "commit; per run the metric is run.py's median over its repetitions; median "
                  "and quartiles are over runs; a pair is won when the change reads better; "
                  f"gain: at least {GAIN_WINS} of {PAIRS} pairs won and the medians differ by "
                  f"more than the parent's q3 - q1 and than {GAIN_SHARE:g} of BENCHMARK.json's "
                  "bound times the parent's median; within_bound: the change's median is worse "
                  "by at most BENCHMARK.json's bound times the parent's median",
        "commits": {"parent": parent, "change": change},
        "versions": {"python": platform.python_version(), "numpy": np.__version__,
                     "scipy": scipy.__version__},
        "nproc": os.cpu_count(),
        "threads": 1,
        "host": f"{os.cpu_count()} CPUs, {platform.system()} {platform.machine()}; "
                "runs sequential, one benchmark process at a time",
        "max_du_reference": "perfbench/reference/*.npz",
        "workloads": {},
    }
    try:
        trees = {"parent": work / "parent", "change": work / "change"}
        export(parent, trees["parent"])
        export(change, trees["change"])
        for w_index, workload in enumerate(wl["name"] for wl in bench["workloads"]):
            seeds = [100 * (w_index + 1) + 1 + p for p in range(PAIRS)]
            runs = {"parent": [], "change": []}
            for p, seed in enumerate(seeds):
                for side in (("parent", "change") if p % 2 == 0 else ("change", "parent")):
                    runs[side].append(run_once(trees[side], command, workload, seed, seconds))
                print(f"{workload} pair {p + 1}/{PAIRS}: wall_s parent "
                      f"{runs['parent'][-1]['metrics']['wall_s']['value']:.4f} change "
                      f"{runs['change'][-1]['metrics']['wall_s']['value']:.4f}", flush=True)
            entry = {"seeds": seeds, "pairs": PAIRS, "parent": summary(runs["parent"], metrics),
                     "change": summary(runs["change"], metrics)}
            entry["wins"], entry["verdicts"] = {}, {}
            for m in metrics:
                p_m, c_m = entry["parent"][m["name"]], entry["change"][m["name"]]
                wins = sum(better_by(m, a, b) > 0 for a, b in zip(p_m["runs"], c_m["runs"]))
                entry["wins"][m["name"]] = wins
                entry["verdicts"][m["name"]] = verdicts(m, p_m, c_m, wins)
            entry["digests_equal"] = entry["parent"]["digests"] == entry["change"]["digests"]
            outs = {side: work / f"{workload}-{side}-out" for side in trees}
            for side, tree in trees.items():
                run_cli(tree, workload, outs[side])
            entry["max_abs_diff_vs_parent"] = csv_diffs(outs["parent"], outs["change"])
            record["workloads"][workload] = entry
    finally:
        shutil.rmtree(work, ignore_errors=True)
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
