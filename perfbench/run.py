"""opalg benchmark: one workload, measured for a fixed time, checked, reported.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

Run from the root of a source checkout.  A run is a closed loop with one
caller: it starts fresh worker interpreters one after another (rounds), each
of which imports opalg, builds the seeded inputs and runs the timed phase
once, until ``--seconds`` have passed.  Every round gets the same inputs, so
rounds differ only by noise and the reported times are medians over rounds.
The first round also checks its outputs against independent references;
every later round must produce the same output digest.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` alternates untraced and traced rounds (at least two of each)
and reports the per-layer metrics, the tracing overhead, and the coverage
and determinism self-checks.  The last line of output is one JSON object;
the lines before it are for people.  A record of the run, with the Python
version, core count, git SHA and seed, goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
# a run must end within 180 s: stop starting rounds well before that
HARD_LIMIT_S = 140.0
MIN_TRACED_ROUNDS = 2
# Times are reported at a fixed machine speed: the speed at which the
# worker's reference task takes this long.
REFERENCE_TASK_S = 0.001


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def git_sha():
    """The checked-out commit, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_round(workload, seed, index, traced, check, timeout):
    """Start one worker, wait for it, and return its result (None if it failed)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--round", str(index), "--trace", str(int(traced)),
           "--check", str(int(check)), "--spawned-at", repr(time.monotonic())]
    env = dict(os.environ, PYTHONHASHSEED=str(seed % 4294967296))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"round {index}: no result within {timeout:.0f} s", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"round {index}: worker exited {proc.returncode}\n{proc.stderr[-2000:]}",
              file=sys.stderr)
        return None
    return json.loads(lines[-1])


def run_rounds(workload, seed, seconds, trace):
    """Rounds until the time is up; with tracing, odd rounds are traced."""
    start = time.monotonic()
    rounds = []
    while True:
        index = len(rounds)
        elapsed = time.monotonic() - start
        traced = bool(trace) and index % 2 == 1
        r = run_round(workload, seed, index, traced, index == 0,
                      timeout=max(10.0, HARD_LIMIT_S + 30 - elapsed))
        if r is None and index == 0:
            return None
        rounds.append((traced, r))
        elapsed = time.monotonic() - start
        per_round = elapsed / len(rounds)
        short = trace and sum(t for t, _ in rounds) < MIN_TRACED_ROUNDS
        if elapsed + per_round > HARD_LIMIT_S or (elapsed >= seconds and not short):
            return rounds


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, q):
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def speed(r):
    """Factor from this round's seconds to seconds at the reference speed.

    A shared machine's speed drifts by tens of percent over seconds to
    minutes, moving the engine and the reference task alike; rescaling by
    the reference task, sampled all through the timed phase, removes that
    drift from the figures without touching what the engine did."""
    return REFERENCE_TASK_S / r["reference_s"]


def summarize(rounds, trace, spec):
    """Metrics, attempted/failed counts and self-check notes of one run."""
    first = rounds[0][1]
    items0 = first["items"]
    attempted = failed = 0
    notes = list(first.get("check_notes", []))
    failed += first["check_failed"]
    for index, (_, r) in enumerate(rounds):
        if r is None:
            attempted += items0
            failed += items0
            notes.append(f"round {index} failed")
            continue
        attempted += r["items"]
        failed += len(r["errors"])
        notes.extend(r["errors"][:3])
        if r["digest"] != first["digest"]:
            failed += r["items"]
            notes.append(f"round {index}: outputs differ from round 0")
    plain = [r for t, r in rounds if r is not None and not t]
    traced = [r for t, r in rounds if r is not None and t]
    problems = []  # failed self-checks of the traced run

    if not trace:
        # every round makes the same requests: a request's latency is its
        # median over the rounds, and the percentiles are over requests
        latencies = [statistics.median(xs) for xs in zip(
            *([x * speed(r) for x in r["latencies_s"]] for r in plain))]
        values = {
            "setup_s": median([r["setup_s"] * speed(r) for r in plain]),
            "wall_s": median([r["wall_s"] * speed(r) for r in plain]),
            "items_per_s": median([r["items"] / (r["wall_s"] * speed(r)) for r in plain]),
            "call_p50_ms": 1e3 * percentile(latencies, 50),
            "call_p90_ms": 1e3 * percentile(latencies, 90),
            "peak_rss_mb": median([r["peak_rss_mb"] for r in plain]),
        }
        metrics = spec["end_to_end"]
    else:
        values = {}
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for name in traced[0]["layers"] if traced else ():
            per_round = [r["layers"][name] for r in traced]
            if units.get(name) == "s":
                values[name] = median([v * speed(r) for v, r in zip(per_round, traced)])
            else:
                values[name] = per_round[0]
                if any(v != per_round[0] for v in per_round):
                    problems.append(f"determinism: {name} differs between traced rounds: {per_round}")
        for r in traced:
            cov = r["coverage"]
            if cov["nf_spans"] != cov["expected"]:
                problems.append(f"coverage: {cov['nf_spans']} normal_form spans, expected {cov['expected']}")
        values["trace.overhead_s"] = (median([r["wall_s"] * speed(r) for r in traced])
                                      - median([r["wall_s"] * speed(r) for r in plain]))
        values["trace.spans"] = traced[0]["spans"] if traced else 0
        if len(traced) < MIN_TRACED_ROUNDS:
            problems.append(f"only {len(traced)} traced rounds")
        metrics = spec["per_layer"]
    missing = [m["name"] for m in metrics if m["name"] not in values]
    if missing:
        problems.append(f"missing metrics: {missing}")
    out = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in metrics}
    info = {
        "rounds": len(rounds),
        "traced_rounds": len(traced),
        "requests": len(first["latencies_s"]),
        "raw_wall_s": median([r["wall_s"] for r in plain]),
        "reference_task_s": median([r["reference_s"] for r in plain]),
        "notes": problems + notes,
    }
    result = {"correct": failed == 0 and not problems, "attempted": attempted,
              "failed": failed, "metrics": out}
    return result, info


def run_workload(name, seed, seconds, trace, spec):
    rounds = run_rounds(name, seed, seconds, trace)
    if rounds is None:
        return None
    result, info = summarize(rounds, trace, spec)
    why = next(w["why"] for w in spec["workloads"] if w["name"] == name)
    context = {
        "workload": name, "why": why, "seed": seed, "seconds": seconds, "trace": trace,
        "python": platform.python_version(), "nproc": os.cpu_count(), "git_sha": git_sha(),
    }
    print(f"# {name} · seed {seed} · trace {trace} · python {context['python']} · "
          f"nproc {context['nproc']} · git {context['git_sha'][:12]}")
    print(f"# why: {why}")
    print(f"# rounds {info['rounds']} (traced {info['traced_rounds']}), requests per round "
          f"{info['requests']}, attempted {result['attempted']}, failed {result['failed']}")
    print(f"# untraced wall {info['raw_wall_s']:.4g} s as measured; reference task "
          f"{1e3 * info['reference_task_s']:.4g} ms, {1e3 * REFERENCE_TASK_S:g} ms at the "
          f"reference speed the times below are scaled to")
    for note in info["notes"][:10]:
        print(f"# note: {note}")
    for key, m in result["metrics"].items():
        print(f"  {key:32} {m['value']:14.6g} {m['unit']}")
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    kept = ("setup_s", "wall_s", "peak_rss_mb", "reference_s", "latencies_s")
    record = dict(context, **info, result=result, round_details=[
        {"traced": t, **({k: r[k] for k in kept} if r else {})} for t, r in rounds])
    (out_dir / f"{name}-seed{seed}-trace{trace}.json").write_text(json.dumps(record, indent=1))
    return result


def main(argv=None):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "opalg" / "__init__.py").is_file():
        print(f"no opalg sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    results = {}
    for name in names if args.workload == "all" else [args.workload]:
        result = run_workload(name, args.seed, args.seconds, args.trace, spec)
        if result is None:
            print(f"{name}: the first round failed; no result", file=sys.stderr)
            return 1
        results[name] = result
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
