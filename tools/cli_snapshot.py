"""Record the CLI's output on the shipped channels for a byte-level diff.

Usage::

    python tools/cli_snapshot.py OUTDIR

Runs each CLI invocation that ``runs()`` lists against the checkout that
holds this script: every subcommand on each shipped ``channels/*.json``
file, a few flag values on ``channels/adder.json``, and the flag values
and output paths the CLI must reject with exit code 2.
Each run is a fresh ``python -m macfeedback`` process with ``src`` on
``PYTHONPATH``; its stdout, stderr and exit code go to
``OUTDIR/<run>.out``, ``.err`` and ``.code``. Snapshots of two checkouts
compare with ``diff -r OUTDIR_A OUTDIR_B``; ``tools/snapshot_delta.py``
summarizes the differences value by value.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PER_CHANNEL = (
    ("singlerate", ["singlerate"]),
    ("singlerate-verify", ["singlerate", "--verify"]),
    ("region", ["region", "--verify"]),
    ("region-w10", ["region", "--weights", "1:0", "--verify"]),
    ("region-w01", ["region", "--weights", "0:1", "--verify"]),
    ("region-if", ["region", "--model", "IF", "--weights", "1:1",
                   "--restarts", "0", "--verify"]),
    ("gain-condition", ["check", "gain-condition"]),
    ("additive-classify", ["check", "additive-classify"]),
    ("symmetry", ["check", "symmetry"]),
    ("additive", ["check", "additive"]),
    ("cfcurve", ["cfcurve", "--verify"]),
    ("cfcurve-pair", ["cfcurve", "--xk-star", "0", "--xbar-k", "1", "--verify"]),
)

# Flag values the CLI must reject with exit code 2, run on the adder; the
# output paths lie in a directory the checkout does not hold and are refused
# before any analysis runs.
BAD_TOLS = (("neg1", "-1"), ("0", "0"), ("nan", "nan"), ("inf", "inf"))
INVALID_FLAGS = tuple(
    [(f"{name}-tol-{label}", argv + ["--tol", tol])
     for name, argv in (("singlerate", ["singlerate"]),
                        ("gain-condition", ["check", "gain-condition"]),
                        ("cfcurve", ["cfcurve"]),
                        ("region", ["region", "--weights", "1:1"]))
     for label, tol in BAD_TOLS]
    + [("region-restarts-neg3", ["region", "--restarts", "-3"]),
       ("region-seed-neg1", ["region", "--seed", "-1"]),
       ("erasure-scaling-restarts-neg2",
        ["check", "erasure-scaling", "--erasure-p", "0.5", "--restarts", "-2"]),
       ("region-weights-empty", ["region", "--weights", ""]),
       ("region-weights-sum-overflows", ["region", "--weights", "1.7e308:1.7e308"]),
       ("erasure-scaling-weights-empty",
        ["check", "erasure-scaling", "--erasure-p", "0.5", "--weights", ""]),
       ("cfcurve-a-grid-past-1", ["cfcurve", "--a-grid", "0:3:1"]),
       ("cfcurve-unknown-xk-star", ["cfcurve", "--xk-star", "7", "--xbar-k", "1"]),
       ("cfcurve-unknown-xbar-k", ["cfcurve", "--xk-star", "0", "--xbar-k", "7"]),
       ("singlerate-restarts-neg5", ["singlerate", "--restarts", "-5"]),
       ("cfcurve-seed-1", ["cfcurve", "--seed", "1"]),
       ("region-csv-out-missing-dir", ["region", "--csv-out", "no-such-dir/f.csv"]),
       ("cfcurve-json-out-missing-dir", ["cfcurve", "--json-out", "no-such-dir/x.json"])]
)

# Flags a check does not read, run on a channel with a group block so that
# only the flag can make the check fail.
UNREAD_FLAGS = (
    ("additive-classify-tol-neg1", ["check", "additive-classify", "--tol", "-1"]),
    ("symmetry-tol-nan", ["check", "symmetry", "--tol", "nan"]),
    ("symmetry-erasure-p-7", ["check", "symmetry", "--erasure-p", "7"]),
    ("additive-restarts-neg5", ["check", "additive", "--restarts", "-5"]),
    ("additive-seed-neg3", ["check", "additive", "--seed", "-3"]),
    ("additive-weights", ["check", "additive", "--weights", "1:1"]),
    ("gain-condition-restarts-neg5", ["check", "gain-condition", "--restarts", "-5"]),
)


def runs() -> list[tuple[str, list[str]]]:
    """(name, argv) for every run, channel paths relative to the checkout."""
    out = []
    for channel in sorted((ROOT / "channels").glob("*.json")):
        rel = str(channel.relative_to(ROOT))
        for name, argv in PER_CHANNEL:
            out.append((f"{channel.stem}.{name}", argv + ["--channel", rel]))
    out.append(("adder.erasure-scaling",
                ["check", "erasure-scaling", "--erasure-p", "0.5",
                 "--channel", "channels/adder.json"]))
    # The grid's last point is 0.1: a grid ends at its last point, not past the stop.
    out.append(("adder.cfcurve-a-grid-0.16",
                ["cfcurve", "--a-grid", "0:0.16:0.1", "--channel", "channels/adder.json"]))
    # A pair is a direction: the rates and witness are those of 1:1.
    for scale in ("1e-12", "1e300"):
        out.append((f"adder.region-weights-{scale}",
                    ["region", "--weights", f"{scale}:{scale}", "--verify",
                     "--channel", "channels/adder.json"]))
    for name, argv in INVALID_FLAGS:
        out.append((f"adder.{name}", argv + ["--channel", "channels/adder.json"]))
    for name, argv in UNREAD_FLAGS:
        out.append((f"erasure_adder_p050.{name}",
                    argv + ["--channel", "channels/erasure_adder_p050.json"]))
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        sys.stderr.write("usage: python tools/cli_snapshot.py OUTDIR\n")
        return 2
    outdir = Path(argv[0])
    outdir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    for name, args in runs():
        proc = subprocess.run([sys.executable, "-m", "macfeedback", *args],
                              cwd=ROOT, env=env, capture_output=True)
        (outdir / f"{name}.out").write_bytes(proc.stdout)
        (outdir / f"{name}.err").write_bytes(proc.stderr)
        (outdir / f"{name}.code").write_text(f"{proc.returncode}\n")
        print(f"{proc.returncode} {name}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
