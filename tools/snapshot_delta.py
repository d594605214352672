"""Summarize how two CLI snapshots differ, value by value.

Usage::

    python tools/snapshot_delta.py OUTDIR_A OUTDIR_B

``OUTDIR_A`` and ``OUTDIR_B`` are directories written by
``tools/cli_snapshot.py``. For every file that differs, the report lists
each differing path and the change there, then the file's largest
absolute numeric change. Paths are JSON paths (``frontier.points[0].R1``)
for JSON output and ``line[i][j]`` (field ``j`` of the comma-separated
line ``i``) for any other text. Differences that are not a change of a
number are flagged with ``!``: a changed string, flag or type, a key or
list entry on one side only, a file on one side only, and every
exit-code (``.code``) difference. Identical files are not listed.

Exits 0 when the snapshots are byte-identical, else 1.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

_MISSING = object()


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _walk(a, b, path: str, out: list) -> None:
    """Append (path, a, b) for every leaf where ``a`` and ``b`` differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in list(a) + [k for k in b if k not in a]:
            sub = f"{path}.{key}" if path else str(key)
            _walk(a.get(key, _MISSING), b.get(key, _MISSING), sub, out)
    elif isinstance(a, list) and isinstance(b, list):
        for i in range(max(len(a), len(b))):
            _walk(a[i] if i < len(a) else _MISSING, b[i] if i < len(b) else _MISSING,
                  f"{path}[{i}]", out)
    elif a != b or type(a) is not type(b):
        out.append((path, a, b))


def _parse(text: str):
    """JSON if the text is JSON, else ``line[i]`` -> its comma-separated fields."""
    try:
        return json.loads(text)
    except ValueError:
        return {f"line[{i}]": [_number_or_text(f) for f in line.split(",")]
                for i, line in enumerate(text.splitlines())}


def _number_or_text(field: str):
    try:
        return float(field)
    except ValueError:
        return field


def file_delta(name: str, a: bytes, b: bytes) -> tuple[list[str], float]:
    """Report lines for one differing file and its largest numeric change."""
    if name.endswith(".code"):
        return [f"  ! exit code {a.decode().strip()} -> {b.decode().strip()}"], 0.0
    pa, pb = (_parse(t.decode("utf-8", "replace")) for t in (a, b))
    if type(pa) is not type(pb):
        return ["  ! output changed kind (JSON or text)"], 0.0
    out: list = []
    _walk(pa, pb, "", out)
    lines, largest = [], 0.0
    for path, va, vb in out:
        if _is_number(va) and _is_number(vb) and math.isfinite(va) and math.isfinite(vb):
            delta = vb - va
            largest = max(largest, abs(delta))
            lines.append(f"    {path}: {va!r} -> {vb!r} ({delta:+.3g})")
        else:
            shown = ["(absent)" if v is _MISSING else repr(v) for v in (va, vb)]
            lines.append(f"  ! {path}: {shown[0]} -> {shown[1]}")
    return lines, largest


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.stderr.write("usage: python tools/snapshot_delta.py OUTDIR_A OUTDIR_B\n")
        return 2
    dir_a, dir_b = (Path(d) for d in argv)
    for d in (dir_a, dir_b):
        if not d.is_dir():
            sys.stderr.write(f"not a directory: {d}\n")
            return 2
    names = sorted({p.name for p in dir_a.iterdir()} | {p.name for p in dir_b.iterdir()})
    changed = 0
    for name in names:
        fa, fb = dir_a / name, dir_b / name
        if not (fa.exists() and fb.exists()):
            print(f"{name}\n  ! only in {dir_a if fa.exists() else dir_b}")
            changed += 1
            continue
        a, b = fa.read_bytes(), fb.read_bytes()
        if a == b:
            continue
        changed += 1
        lines, largest = file_delta(name, a, b)
        print(name)
        print("\n".join(lines))
        print(f"  largest |numeric change|: {largest:.3g}")
    print(f"{changed} of {len(names)} files differ")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
