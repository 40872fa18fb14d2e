"""Record a BENCH_<label>.json: the benchmark run on a parent and a change commit.

    python3 scripts/bench_record.py --label NAME [--parent REV] [--change REV]

Both commits are exported with `git archive` into fresh temporary directories
(the benchmark builds what it runs from the source in its checkout), so
uncommitted edits are never measured and the repository is left untouched.
For every workload of BENCHMARK.json, the script runs `perfbench/run.py
--trace 0` once per side in each of PAIRS = 10 pairs, with BENCHMARK.json's
run length, one process at a time; the side that runs first alternates by
pair.  Each run's
metric is run.py's median over its repetitions; the file holds, per side, the
median, quartiles (inclusive method) and runs of `wall_s`, `setup_s` and
`peak_rss_mb`, the distinct `err_ref` values (17 digits), the distinct CSV
digest sets, the largest `max_du` against perfbench/reference, and the
repetition counts; per workload, the pairs the change won (it reads lower)
and whether both sides wrote the same digests.  The layout is that of
BENCH_pr7.json.

perfbench/ is frozen (the benchmark may not change within a change it
measures), so some of it is stale; what it reports there is to be read with
these in mind until a change to the benchmark mends them:

* workloads/burgers-validate.cfg still says it compares against the
  "finite-volume reference"; `validate` compares against the exact Cole-Hopf
  cell averages, and the FV spans read 0 calls;
* NOTES.md still describes the per-cell `_restrict` loop and an old trace
  table;
* child.py still sets MFKLAB_THREADS, which nothing reads (`--threads` is the
  only worker setting), and its comment on the BLAS pin is out of date;
* tracer.py derives `particles.step_rate` and `particles.trajectory_mb` from
  `ensemble.positions.shape`, which counts the rows an ensemble keeps, not
  its steps, since the particle engine streams: step_rate reads about 128x
  low on frozen-battery and 0 on mckean-closure.
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
import tempfile
from pathlib import Path

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parents[1]
TIMED = ("wall_s", "setup_s", "peak_rss_mb")
PAIRS = 10  # the fewest pairs that can support a claimed gain
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


def summary(runs: list) -> dict:
    """The side's record of one workload, from its run.py results."""
    out = {}
    for name in TIMED:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
        out[name] = {"median": median, "q1": q1, "q3": q3, "runs": values}
    out["err_ref"] = sorted({e for r in runs for e in r["err_ref"]})
    out["correct"] = all(r["correct"] for r in runs)
    out["failed"] = sum(r["failed"] for r in runs)
    out["attempted"] = sum(r["attempted"] for r in runs)
    digests = {json.dumps(d, sort_keys=True) for r in runs for d in r["digests"] if d}
    out["digests"] = [json.loads(d) for d in sorted(digests)]
    out["max_du"] = max(r["max_du"] for r in runs)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json at the root")
    parser.add_argument("--parent", default=None, help="parent commit (default: change~1)")
    parser.add_argument("--change", default="HEAD", help="change commit (default: HEAD)")
    args = parser.parse_args(argv)
    change = git("rev-parse", args.change)
    parent = git("rev-parse", args.parent or f"{change}~1")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    command, seconds = bench["command"], bench["run_seconds"]
    work = Path(tempfile.mkdtemp(prefix="bench_record_"))
    record = {
        "label": args.label,
        "command": " ".join(command) + f" --workload W --seed S --seconds {seconds:g} --trace 0",
        "method": "parent and change run alternately (the side that runs first alternates "
                  "by pair), each run a fresh perfbench/run.py in a git-archive export of its "
                  "commit; per run the metric is run.py's median over its repetitions; median "
                  "and quartiles are over runs; a pair is won when the change reads lower",
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
            entry = {"seeds": seeds, "pairs": PAIRS,
                     "parent": summary(runs["parent"]), "change": summary(runs["change"])}
            entry["wins"] = {name: sum(c["metrics"][name]["value"] < q["metrics"][name]["value"]
                                       for q, c in zip(runs["parent"], runs["change"]))
                             for name in TIMED}
            entry["digests_equal"] = entry["parent"]["digests"] == entry["change"]["digests"]
            record["workloads"][workload] = entry
    finally:
        shutil.rmtree(work, ignore_errors=True)
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
