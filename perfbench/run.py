"""The macfeedback benchmark: one workload per fresh process, every output checked.

Run from the root of a checkout:

    python3 perfbench/run.py --workload frontier --seed 0 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 50 --trace 0

``--trace 0`` prints the end-to-end metrics, measured with no tracing
installed; ``--trace 1`` runs the traced child instead and prints the
per-layer metrics (see tracer.py). Either way the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; the lines before it give every metric by name, unit and better
direction, the quality numbers that sit next to the timings, and the
environment stamp. A full record, including failure messages, goes to
perfbench/out/.

Each workload's child runs single-threaded with the BLAS pools pinned to
one thread and the seed passed as an argument. Set-up time is the median
of several fresh interpreters each importing macfeedback and making the
workload's inputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
from speed import NOMINAL_S  # noqa: E402

WORKLOADS = ("frontier", "capacity", "decide", "oracle")
END_TO_END = [("setup_s", "s", "lower"), ("run_s", "s", "lower"),
              ("item_p50_ms", "ms", "lower"), ("item_p90_ms", "ms", "lower"),
              ("peak_rss_mb", "MB", "lower")]
# Printed next to the timings; not gated by a bound (see README.md).
QUALITY = [("sum_rate_bits", "bits", "higher"), ("scaling_gap_bits", "bits", "lower"),
           ("error_rate", "ratio", "lower")]
SETUPS = 5
# A run of a BENCHMARK.json workload ends well inside 180 s. capacity is not
# one of them (see README.md); its traced run alone takes about three minutes.
LIMIT_S = {"capacity": 420.0}
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    """The benchmark could not produce a checked result."""


def child_env(root):
    env = dict(os.environ)
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def child_cmd(args, mode, out, importtime=False):
    cmd = [sys.executable]
    if importtime:
        cmd += ["-X", "importtime"]
    return cmd + [str(HERE / "child.py"), "--mode", mode, "--workload", args.workload,
                  "--seed", str(args.seed), "--seconds", str(args.seconds),
                  "--size", args.size, "--out", str(out)]


def time_setup(args, root, out, deadline):
    """Seconds from spawning a fresh interpreter to the workload's inputs being ready,
    scaled to the nominal machine speed (see speed.py)."""
    t0 = perf_counter()
    proc = subprocess.Popen(child_cmd(args, "setup", out), cwd=root, env=child_env(root),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        cal = proc.stdout.readline()
        _, err = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("set-up child timed out") from None
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"set-up child failed (exit {proc.returncode}): {err.strip()[-2000:]}")
    # The child times the calibration kernel right after it is ready.
    return elapsed * NOMINAL_S / float(cal)


def run_child(args, root, out, deadline):
    trace = args.trace == 1
    proc = subprocess.Popen(child_cmd(args, "trace" if trace else "measure", out, trace),
                            cwd=root, env=child_env(root), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("workload child timed out") from None
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"workload child failed (exit {proc.returncode}): {stderr.strip()[-2000:]}")
    return json.loads(lines[-1]), stderr


def environment(root, seed):
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "macfeedback").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "blas_threads": BLAS_ENV,
            "git_sha": sha, "src_sha256": digest.hexdigest(), "seed": seed}


def end_to_end(setups, child):
    """Each item's latency, scaled to the nominal machine speed, is its median
    over the run's rounds, which repeat the same inputs. run_s is the round
    made of those per-item medians."""
    per_item = [statistics.median(times) for times in zip(*child["latencies"])]
    return {"setup_s": statistics.median(setups),
            "run_s": sum(per_item),
            "item_p50_ms": statistics.median(per_item) * 1e3,
            "item_p90_ms": tracer.percentile(per_item, 90) * 1e3,
            "peak_rss_mb": child["peak_rss_mb"]}


def per_layer(child, stderr):
    values = tracer.parse_importtime(stderr)
    values["trace.overhead_ratio"] = (statistics.median(child["traced_rounds"])
                                      / statistics.median(child["plain_rounds"]))
    for name, _, _ in tracer.PER_LAYER:
        fn, stat = name.rsplit(".", 1)
        if name not in values:
            values[name] = child["layers"].get(fn, {}).get(stat, 0)
    return values


def run_one(args, root, out):
    deadline = perf_counter() + LIMIT_S.get(args.workload, 170.0)
    env = environment(root, args.seed)
    setups = [] if args.trace else [time_setup(args, root, out, deadline)
                                    for _ in range(SETUPS)]
    child, stderr = run_child(args, root, out, deadline)
    quality = dict(child["quality"])
    quality["error_rate"] = child["failed"] / child["attempted"]
    env.update(child.get("versions", {}))
    if args.trace:
        values, spec = per_layer(child, stderr), tracer.PER_LAYER
    else:
        values, spec = end_to_end(setups, child), END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in spec}

    print(f"# workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"items/round {child['n_items']}  attempted {child['attempted']}  "
          f"failed {child['failed']}")
    for name, unit, better in spec:
        print(f"{args.workload:9s} {name:48s} {values[name]:>14.6g} {unit:6s} ({better} is better)")
    for name, unit, better in QUALITY:
        if name in quality:
            print(f"{args.workload:9s} {name:48s} {quality[name]:>14.6g} {unit:6s} "
                  f"({better} is better; quality, not bounded)")
    for msg in child["failures"][:10]:
        print(f"# failure: {msg}")
    print("# environment " + json.dumps(env, sort_keys=True))

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "size": args.size, "environment": env,
              "setups_s": setups, "metrics": metrics, "quality": quality,
              "child": child}
    (out / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True, allow_nan=False))
    return {"correct": child["failed"] == 0, "attempted": child["attempted"],
            "failed": child["failed"], "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "tiny"], default="full",
                    help="tiny is the harness self-test's configuration")
    args = ap.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "macfeedback" / "__init__.py").is_file():
        print(f"error: no src/macfeedback under {root}; run from a checkout's root",
              file=sys.stderr)
        return 2
    out = root / "perfbench" / "out"
    out.mkdir(parents=True, exist_ok=True)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            results[name] = run_one(argparse.Namespace(**{**vars(args), "workload": name}),
                                    root, out)
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
    if args.workload == "all":
        print(json.dumps({"correct": all(r["correct"] for r in results.values()),
                          "attempted": sum(r["attempted"] for r in results.values()),
                          "failed": sum(r["failed"] for r in results.values()),
                          "workloads": results}, allow_nan=False))
    else:
        print(json.dumps(results[args.workload], allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
