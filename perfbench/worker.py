"""One benchmark round in a fresh interpreter, so caches start cold.

Started by run.py, never by hand.  Sets up the workload's inputs, runs the
timed phase (traced or not) while sampling the machine's speed, optionally
checks the outputs against the references, and prints one JSON object as
its last line of output.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import signal
import statistics
import sys
import time
from contextlib import nullcontext
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _reference_task():
    """About a millisecond of what the engine spends its time on: small
    tuples, dict updates, small Fractions and a sort.  It uses no opalg."""
    table = {}
    for i in range(120):
        key = (i % 13, i % 7)
        table[key] = table.get(key, 0) + Fraction(i % 5 + 1, i % 3 + 1)
    return sorted(table.items(), key=lambda kv: (kv[1], kv[0]))


class SpeedSampler:
    """Times the reference task every 50 ms from an interval timer, so the
    samples follow the machine's speed through the timed phase.

    ``clock()`` is ``perf_counter`` minus the time spent sampling, so the
    sampling does not count in any figure taken with it.
    """

    INTERVAL_S = 0.05

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def _sample(self, signum, frame):
        # no garbage collection inside a sample: its cost depends on the
        # engine's heap, not on the machine
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        _reference_task()
        t1 = time.perf_counter()
        if collecting:
            gc.enable()
        self.samples.append(t1 - t0)
        self.spent += t1 - t0

    def clock(self):
        return time.perf_counter() - self.spent

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mean(self):
        """Mean seconds of the reference task over the samples taken."""
        if not self.samples:  # a phase shorter than one interval
            self._sample(None, None)
        return statistics.fmean(self.samples)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--round", type=int, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--check", type=int, default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.append(str(ROOT / "tests"))  # the independent oracles
    from workloads import WORKLOADS, Calls

    sampler = SpeedSampler()
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer(args.round, clock=sampler.clock)
        tracer.install()
    workload = WORKLOADS[args.workload]
    inputs = workload.inputs(args.seed)
    setup_s = time.monotonic() - args.spawned_at

    calls = Calls(tracer.span if tracer else nullcontext, clock=sampler.clock)
    sampler.start()
    if tracer:
        tracer.on = True
    t0 = sampler.clock()
    outputs = workload.run(inputs, calls)
    wall_s = sampler.clock() - t0
    if tracer:
        tracer.on = False
    sampler.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "items": workload.items(inputs, outputs),
        "latencies_s": calls.latencies,
        "errors": calls.errors,
        "peak_rss_mb": peak_rss_mb,
        "digest": workload.digest(outputs),
        "reference_s": sampler.mean(),
    }
    if args.check:
        result["check_failed"], result["check_notes"] = workload.check(inputs, outputs, args.seed)
    if tracer:
        layers = tracer.layer_metrics()
        nf_spans = layers["rewrite.nf_calls"]
        expected = workload.nf_items(inputs) + layers["gsbases.compositions"]
        result["layers"] = layers
        result["spans"] = len(tracer.spans)
        result["coverage"] = {"nf_spans": nf_spans, "expected": expected}
        out_dir = ROOT / "perfbench" / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write_spans(out_dir / f"spans-{args.workload}-seed{args.seed}-round{args.round}.jsonl")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
