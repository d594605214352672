"""Record the CLI's output on the shipped channels for a byte-level diff.

Usage::

    python tools/cli_snapshot.py OUTDIR

Runs each CLI invocation that ``runs()`` lists against the checkout that
holds this script: every subcommand on each shipped ``channels/*.json``
file, a few flag values on ``channels/adder.json``, and the flag values,
output paths and missing ``--channel`` file the CLI must reject with exit
code 2. Then it writes the edited copies of
``channels/erasure_adder_p050.json`` that ``MALFORMED`` lists, and the
files ``NOT_A_DOCUMENT`` lists, to ``OUTDIR/malformed/`` and runs
``check additive`` on each from that directory, so that a message naming
the file names it alike in every snapshot; the loader must reject each
with exit code 2 and a message naming the one fault, by its JSON path
where it has one.
Each run is a fresh ``python -m macfeedback`` process with ``src`` on
``PYTHONPATH``; its stdout, stderr and exit code go to
``OUTDIR/<run>.out``, ``.err`` and ``.code``. Snapshots of two checkouts
compare with ``diff -r OUTDIR_A OUTDIR_B``; ``tools/snapshot_delta.py``
summarizes the differences value by value.
"""

from __future__ import annotations

import json
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
       ("region-u-card-0", ["region", "--u-card", "0"]),
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

# One fault each: (run name, JSON path of the edit, new value or DROP).
DROP = object()
MALFORMED = (
    ("pmf-nan", ("pmf", 0, 1, 0), float("nan")),
    ("pmf-negative", ("pmf", 1, 1, 0), -0.01),
    ("pmf-above-1", ("pmf", 0, 0, 0), 1.5),
    ("pmf-row-sum", ("pmf", 1, 0, 4), 0.4),
    ("pmf-not-a-number", ("pmf", 0, 0, 1), "0"),
    ("pmf-true", ("pmf", 0, 1, 2), True),
    ("pmf-null", ("pmf", 0, 1, 2), None),
    ("pmf-huge-int", ("pmf", 0, 1, 2), 10 ** 400),
    ("pmf-block-count", ("pmf", 1), DROP),
    ("pmf-row-count", ("pmf", 0, 1), DROP),
    ("pmf-row-length", ("pmf", 1, 0, 4), DROP),
    ("pmf-missing", ("pmf",), DROP),
    ("x2-string", ("x2",), "0"),
    ("x2-empty", ("x2",), []),
    ("x2-bool-label", ("x2", 1), True),
    ("y-duplicate-label", ("y", 3), "e"),
    ("x1-missing", ("x1",), DROP),
    ("name-not-a-string", ("name",), 7),
    ("group-cayley-float", ("group", "cayley", 1, 2), 3.0),
    ("group-action-out-of-range", ("group", "y_action", 4, 0), 5),
    ("group-cayley-ragged", ("group", "cayley", 2), [2, 3, 0]),
    ("group-embed-x1-length", ("group", "embed_x1"), [0, 1, 2]),
    ("group-identity-missing", ("group", "identity"), DROP),
    ("group-action-row-count", ("group", "y_action", 4), DROP),
)

# Files that are not a channel document: (run name, file text).
NOT_A_DOCUMENT = (
    ("not-json", "{ not json\n"),
    ("top-level-list", "[]\n"),
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
    out.append(("adder.region-u-card-2",
                ["region", "--u-card", "2", "--weights", "1:1", "--verify",
                 "--channel", "channels/adder.json"]))
    for scale in ("1e-12", "1e300"):
        out.append((f"adder.region-weights-{scale}",
                    ["region", "--weights", f"{scale}:{scale}", "--verify",
                     "--channel", "channels/adder.json"]))
    out.append(("no-such-file.singlerate",
                ["singlerate", "--channel", "channels/no-such-file.json"]))
    for name, argv in INVALID_FLAGS:
        out.append((f"adder.{name}", argv + ["--channel", "channels/adder.json"]))
    for name, argv in UNREAD_FLAGS:
        out.append((f"erasure_adder_p050.{name}",
                    argv + ["--channel", "channels/erasure_adder_p050.json"]))
    return out


def malformed_runs(outdir: Path) -> list[tuple[str, list[str]]]:
    """Write each ``MALFORMED`` copy and ``NOT_A_DOCUMENT`` file to ``outdir`` and
    return its run, the channel path relative to ``outdir``."""
    outdir.mkdir(parents=True, exist_ok=True)
    out = []
    for name, path, value in MALFORMED:
        doc = json.loads((ROOT / "channels" / "erasure_adder_p050.json").read_text())
        *parents, last = path
        node = doc
        for key in parents:
            node = node[key]
        if value is DROP:
            del node[last]
        else:
            node[last] = value
        (outdir / f"{name}.json").write_text(json.dumps(doc) + "\n")
        out.append((f"malformed.{name}", ["check", "additive", "--channel", f"{name}.json"]))
    for name, text in NOT_A_DOCUMENT:
        (outdir / f"{name}.json").write_text(text)
        out.append((f"malformed.{name}", ["check", "additive", "--channel", f"{name}.json"]))
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        sys.stderr.write("usage: python tools/cli_snapshot.py OUTDIR\n")
        return 2
    outdir = Path(argv[0])
    outdir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    malformed = outdir / "malformed"
    for cwd, (name, args) in ([(ROOT, run) for run in runs()]
                              + [(malformed, run) for run in malformed_runs(malformed)]):
        proc = subprocess.run([sys.executable, "-m", "macfeedback", *args],
                              cwd=cwd, env=env, capture_output=True)
        (outdir / f"{name}.out").write_bytes(proc.stdout)
        (outdir / f"{name}.err").write_bytes(proc.stderr)
        (outdir / f"{name}.code").write_text(f"{proc.returncode}\n")
        print(f"{proc.returncode} {name}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
