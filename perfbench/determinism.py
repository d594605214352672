"""Determinism self-check of the traced run.

Runs the traced benchmark twice at one seed and once at a second seed for
each workload. The two same-seed runs must give identical per-layer
counts (every *.calls, *.rows, *.elements, *.iterations and *.unconverged)
and identical quality numbers (sum_rate_bits, scaling_gap_bits). The
second seed's counts are printed so that a later claim can be checked on
a seed not used while the claim was developed. Run from a checkout's root:

    python3 perfbench/determinism.py --seed 0 --second-seed 1

Exits 1 if anything differs between the two same-seed runs.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import WORKLOADS  # noqa: E402

SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
COUNT_SUFFIXES = (".calls", ".rows", ".elements", ".iterations", ".unconverged")


def traced(workload, seed):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "1"],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: run.py exited {proc.returncode}: {proc.stderr[-2000:]}")
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    record = json.loads((Path.cwd() / "perfbench" / "out"
                         / f"result-{workload}-{seed}-trace1.json").read_text())
    counts = {k: v["value"] for k, v in metrics.items() if k.endswith(COUNT_SUFFIXES)}
    quality = {k: v for k, v in record["quality"].items() if k != "error_rate"}
    return counts, quality


def main(argv=None):
    ap = argparse.ArgumentParser(description="two traced runs per seed must count alike")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--second-seed", type=int, default=1)
    args = ap.parse_args(argv)

    report, ok = {}, True
    for workload in WORKLOADS:
        first = traced(workload, args.seed)
        again = traced(workload, args.seed)
        other = traced(workload, args.second_seed)
        same = first == again
        ok = ok and same
        report[workload] = {"identical": same, f"seed {args.seed}": first,
                            f"seed {args.second_seed}": other}
        print(f"{workload:9s} seed {args.seed} twice: "
              f"{'identical' if same else 'DIFFERENT'}; quality {first[1]}; "
              f"seed {args.second_seed} quality {other[1]}")
        for name in sorted(first[0]):
            if first[0][name] or other[0][name]:
                print(f"  {name:48s} {first[0][name]:>12} {other[0][name]:>12}"
                      + ("" if first[0][name] == again[0][name] else
                         f"  second run {again[0][name]}"))
    (Path.cwd() / "perfbench" / "out" / "determinism.json").write_text(
        json.dumps(report, indent=1, sort_keys=True))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
