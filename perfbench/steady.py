"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/steady.py --runs 10 [--workloads verify,nf-large] [--trace 1] [--out FILE]

For every workload, runs ``run.py`` once per seed 1..runs, one run at a
time, for BENCHMARK.json's ``run_seconds``.  For each end-to-end metric it prints
the median over the runs and the distance between the first and third
quartiles as a share of the median, next to the metric's bound in
BENCHMARK.json.  A spread at or above a third of the bound is marked, since
two such sets of runs can then differ by more than the bound.  ``--out``
saves every run's result with the summary, as a point of the benchmark's
trajectory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from run import git_sha

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    summary = {"context": {"python": platform.python_version(), "nproc": os.cpu_count(),
                           "git_sha": git_sha(), "seconds": spec["run_seconds"],
                           "trace": args.trace}}
    for workload in args.workloads.split(","):
        seeds = range(1, args.runs + 1)
        results = [run_once(workload, s, spec["run_seconds"], args.trace) for s in seeds]
        ok = all(r["correct"] for r in results)
        print(f"{workload}: {len(results)} runs, all correct: {ok}")
        stats = {}
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            med, share = spread(values) if len(values) > 1 and statistics.median(values) else (values[0], 0.0)
            bound = bounds.get(name)
            flag = "" if args.trace or bound is None or share < bound / 3 else "  <-- spread >= bound/3"
            print(f"  {name:32} median {med:12.6g}  iqr/median {share:7.2%}"
                  + (f"  bound {bound:.0%}" if bound is not None and not args.trace else "") + flag)
            stats[name] = {"median": med, "iqr_share": share, "values": values}
        summary[workload] = {"seeds": list(seeds), "all_correct": ok, "metrics": stats}
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
