"""Reading and writing channel description files.

A channel file is UTF-8 JSON::

    { "name": str, "x1": [str], "x2": [str], "y": [str],
      "pmf": [[[num]]],          // indexed [x1][x2][y]
      "group": { ... } }          // optional additive structure

Labels (``x1``, ``x2``, ``y`` and ``group.elements``) are non-empty lists
of distinct JSON strings; a number, boolean or null label is rejected,
not converted, and so is a ``name`` that is not a string. Probabilities
are written with 17 significant digits so that round trips preserve them
bit-exactly. On load, rows whose sum
deviates from 1 by less than 1e-9 are renormalized; larger deviations
are rejected with a message naming the offending path into the document.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._util import clamp_tiny, table_faults
from .channel import Mac
from .errors import ChannelFormatError
from .groups import GroupSpec


@dataclass(frozen=True)
class ChannelFile:
    """Everything a channel file carries: the named law plus an optional group."""

    mac: Mac
    group: GroupSpec | None = None


def _labels(value, path: str) -> tuple[str, ...]:
    """The labels at ``path``: a non-empty list of distinct JSON strings."""
    if not isinstance(value, list) or not value:
        raise ChannelFormatError(f"{path}: expected a non-empty list of string labels")
    for k, v in enumerate(value):
        if not isinstance(v, str):
            raise ChannelFormatError(f"{path}[{k}]: expected a string label, "
                                     f"got {json.dumps(v)}")
        if v in value[:k]:
            raise ChannelFormatError(f"{path}[{k}]: duplicate label {v!r}")
    return tuple(value)


def _json_path(root: str, idx) -> str:
    return root + "".join(f"[{k}]" for k in idx)


def _parse_pmf(obj: dict, n1: int, n2: int, ny: int) -> np.ndarray:
    if "pmf" not in obj:
        raise ChannelFormatError("pmf: missing field")
    raw = obj["pmf"]
    if not isinstance(raw, list) or len(raw) != n1:
        raise ChannelFormatError(f"pmf: expected {n1} blocks, one per x1 symbol")
    out = np.zeros((n1, n2, ny))
    for i, block in enumerate(raw):
        if not isinstance(block, list) or len(block) != n2:
            raise ChannelFormatError(f"pmf[{i}]: expected {n2} rows, one per x2 symbol")
        for j, row in enumerate(block):
            if not isinstance(row, list) or len(row) != ny:
                raise ChannelFormatError(
                    f"pmf[{i}][{j}]: expected {ny} probabilities, one per y symbol"
                )
            for k, v in enumerate(row):
                if not isinstance(v, (int, float)) or isinstance(v, bool):
                    raise ChannelFormatError(f"pmf[{i}][{j}][{k}]: not a number")
                try:
                    out[i, j, k] = v
                except OverflowError:  # an integer beyond the float range
                    out[i, j, k] = np.inf
    out = clamp_tiny(out)
    faults = table_faults(out, sum_axes=2)
    if faults:
        kind, idx, v = faults[0]
        path = _json_path("pmf", idx)
        what = {"non-finite": f"non-finite probability {v!r}",
                "negative": f"negative probability {v!r}",
                "above 1": f"probability {v!r} above 1",
                "sum": f"row sums to {v!r}"}[kind]
        raise ChannelFormatError(f"{path}: {what}")
    return out / out.sum(axis=2, keepdims=True)


def _check_indices(value, path: str, shape: tuple[int, ...], bound: int,
                   at: tuple[int, ...] = ()) -> None:
    """Reject anything but nested JSON lists of exactly ``shape`` holding
    integers from 0 to ``bound`` - 1.

    numpy would truncate a float index, read ``true`` as 1 and refuse a
    ragged table without a path, so the check is made on the JSON values
    before any array is built. ``true`` loads as a bool, which is not
    ``int`` by type. The indices ``at`` below ``path`` are formatted into
    a path only for the entry that is rejected.
    """
    if shape and isinstance(value, list) and len(value) == shape[0]:
        for k, v in enumerate(value):
            if len(shape) > 1 or type(v) is not int or not 0 <= v < bound:
                _check_indices(v, path, shape[1:], bound, (*at, k))
    elif shape:
        got = len(value) if isinstance(value, list) else json.dumps(value)
        raise ChannelFormatError(f"{_json_path(path, at)}: expected {shape[0]} entries, got {got}")
    elif type(value) is not int:
        raise ChannelFormatError(f"{_json_path(path, at)}: expected an integer index, "
                                 f"got {json.dumps(value)}")
    elif not 0 <= value < bound:
        raise ChannelFormatError(f"{_json_path(path, at)}: index {value} out of range "
                                 f"for {bound} elements")


def _parse_group(obj: dict, n1: int, n2: int, ny: int) -> GroupSpec | None:
    if "group" not in obj or obj["group"] is None:
        return None
    raw = obj["group"]
    if not isinstance(raw, dict):
        raise ChannelFormatError("group: expected an object")
    keys = ("elements", "cayley", "identity", "embed_x1", "embed_x2", "y_action")
    for key in keys:
        if key not in raw:
            raise ChannelFormatError(f"group.{key}: missing field")
    n = len(_labels(raw["elements"], "group.elements"))
    for key, shape, bound in (("cayley", (n, n), n), ("identity", (), n),
                              ("embed_x1", (n1,), n), ("embed_x2", (n2,), n),
                              ("y_action", (ny, n), ny)):
        _check_indices(raw[key], f"group.{key}", shape, bound)
    return GroupSpec(**{key: raw[key] for key in keys})  # its own checks all pass by now


def load_channel_file(path) -> ChannelFile:
    """Parse a channel file into the named law and optional group."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ChannelFormatError(f"cannot read {path}: {exc}") from None
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ChannelFormatError(f"{path}: malformed JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ChannelFormatError(f"{path}: top level must be an object")
    for key in ("x1", "x2", "y"):
        if key not in obj:
            raise ChannelFormatError(f"{key}: missing field")
    x1, x2, y = (_labels(obj[key], key) for key in ("x1", "x2", "y"))
    pmf = _parse_pmf(obj, len(x1), len(x2), len(y))
    group = _parse_group(obj, len(x1), len(x2), len(y))
    name = obj.get("name", "")
    if not isinstance(name, str):
        raise ChannelFormatError(f"name: expected a string, got {json.dumps(name)}")
    return ChannelFile(mac=Mac(x1, x2, y, pmf, name=name), group=group)


def save_channel(mac: Mac, path, group: GroupSpec | None = None) -> None:
    """Write a channel (and optional group block) as a JSON file."""
    obj = {
        "name": mac.name,
        "x1": list(mac.x1_alphabet),
        "x2": list(mac.x2_alphabet),
        "y": list(mac.y_alphabet),
        "pmf": [[[float(v) for v in row] for row in block] for block in mac.pmf],
    }
    if group is not None:
        obj["group"] = group.to_dict()
    Path(path).write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")
