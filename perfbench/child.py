"""One workload in one fresh process; started by run.py, never imported.

Modes:
  setup    import macfeedback and make the workload's inputs, print "ready"
           the moment they are, then clean up and exit (run.py times this);
  measure  untraced rounds until the time is up, then one JSON line with
           round times, every round's item latencies, failures, quality
           numbers and peak RSS;
  trace    untraced and traced rounds in turn; per-layer counts come from
           the first traced round, and every later traced round must
           repeat them exactly.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import macfeedback
import numpy

import tracer as trace_mod
import workloads
from speed import Speed, calibrate


class Tally:
    """Items attempted and failed, failure messages and quality numbers."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.quality = None

    def round(self, items, trace=None, speed=None):
        """Run every item once; return (round seconds, item spans).

        A span is (start, end, time the speed sampler took inside it).
        """
        spans, quality = [], {}
        start = perf_counter()
        for index, (label, fn) in enumerate(items):
            if trace is not None:
                trace.item = index
            o0 = speed.overhead if speed else 0.0
            t0 = perf_counter()
            try:
                fails, q = fn()
            except Exception as exc:  # noqa: BLE001 - an item that raises is counted, not fatal
                fails, q = [f"raised {type(exc).__name__}: {exc}"], {}
                traceback.print_exc(file=sys.stderr)
            spans.append((t0, perf_counter(), (speed.overhead if speed else 0.0) - o0))
            quality.update(q)
            self.attempted += 1
            if fails:
                self.failed += 1
                self.failures.extend(f"{label}: {msg}" for msg in fails)
        elapsed = perf_counter() - start
        if trace is not None:
            trace.item = None
        if self.quality is None:
            self.quality = quality
        elif quality != self.quality:
            self.failed += 1
            self.failures.append(f"quality numbers changed between rounds: "
                                 f"{self.quality} then {quality}")
        return elapsed, spans

    def result(self):
        return {"attempted": self.attempted, "failed": self.failed,
                "failures": self.failures[:50], "quality": self.quality}


def _fits(deadline, *durations):
    """Whether one more round of each kind still ends before the deadline."""
    return perf_counter() + sum(max(d) for d in durations) <= deadline


def measure(items, seconds):
    deadline = perf_counter() + seconds
    tally, speed, rounds, spans = Tally(), Speed(), [], []
    with speed:
        while True:
            t, sp = tally.round(items, speed=speed)
            rounds.append(t)
            spans.append(sp)
            if not _fits(deadline, rounds):
                break
    speed.sample()
    return {"rounds": rounds, "latencies": [speed.scaled(sp) for sp in spans],
            "raw_latencies": [[b - a - o for a, b, o in sp] for sp in spans],
            "calibration_s": [c for _, c in speed.samples], **tally.result()}


def traced(items, seconds, span_path):
    deadline = perf_counter() + seconds
    tally, tr = Tally(), trace_mod.Tracer()
    plain, traced_rounds, tables = [], [], []
    while True:
        plain.append(tally.round(items)[0])
        first = len(tr.spans)
        tr.install()
        try:
            traced_rounds.append(tally.round(items, trace=tr)[0])
        finally:
            tr.restore()
        tables.append(trace_mod.aggregate(tr.spans, first))
        if len(tables) == 1:
            first_round = len(tr.spans)
        if not _fits(deadline, plain, traced_rounds):
            break
    counts = trace_mod.counts_of(tables[0])
    if any(trace_mod.counts_of(t) != counts for t in tables[1:]):
        tally.failed += 1
        tally.failures.append("per-layer counts differ between traced rounds")
    tr.write(span_path, first_round)
    layers = tables[0]
    for fn, row in layers.items():
        for key in ("self_s", "total_s", "ns_per_row"):
            if key in row:
                row[key] = statistics.median(t[fn][key] for t in tables)
    return {"plain_rounds": plain, "traced_rounds": traced_rounds, "layers": layers,
            "spans": len(tr.spans), "span_file": str(span_path), **tally.result()}


def _version(dist):
    """A distribution's version, read without importing it: the harness
    itself must not load what only the library needs."""
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=["setup", "measure", "trace"], required=True)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    ap.add_argument("--out", required=True, help="directory for spans and scratch files")
    args = ap.parse_args(argv)

    root = Path.cwd().resolve()
    if not Path(macfeedback.__file__).resolve().is_relative_to(root / "src"):
        sys.exit(f"macfeedback imported from {macfeedback.__file__}, not from {root / 'src'}")

    out = Path(args.out)
    inputs = workloads.prepare(args.workload, args.seed, args.size,
                               out / f"{args.workload}-{os.getpid()}")
    try:
        if args.mode == "setup":
            print("ready", flush=True)
            print(calibrate(), flush=True)
            return
        items = workloads.items(args.workload, inputs, args.seed, args.size)
        if args.mode == "measure":
            result = measure(items, args.seconds)
        else:
            result = traced(items, args.seconds,
                            out / f"spans-{args.workload}.jsonl")
    finally:
        workloads.cleanup(inputs)
    result["n_items"] = len(items)
    result["versions"] = {"numpy": numpy.__version__, "scipy": _version("scipy")}
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result, allow_nan=False))


if __name__ == "__main__":
    main()
