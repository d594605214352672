"""Reading and writing channel description files.

A channel file is UTF-8 JSON::

    { "name": str, "x1": [str], "x2": [str], "y": [str],
      "pmf": [[[num]]],          // indexed [x1][x2][y]
      "group": { ... } }          // optional additive structure

Labels (``x1``, ``x2``, ``y`` and ``group.elements``) are non-empty lists
of distinct JSON strings; a number, boolean or null label is rejected,
not converted, and so is a ``name`` that is not a string. The loader
hands the fields as parsed to :class:`Mac` and :class:`GroupSpec`, whose
checks name the offending path into the document. Probabilities are
written with 17 significant digits so that round trips preserve them
bit-exactly. On load, rows whose sum deviates from 1 by less than 1e-9
are renormalized; larger deviations are rejected.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .channel import Mac
from .errors import InputError
from .groups import GroupSpec


@dataclass(frozen=True)
class ChannelFile:
    """Everything a channel file carries: the named law plus an optional group."""

    mac: Mac
    group: GroupSpec | None = None


def _parse_group(obj: dict, n1: int, n2: int, ny: int) -> GroupSpec | None:
    """The group block, if any. The loader checks what depends on the
    channel, the row counts of ``embed_x1``, ``embed_x2`` and ``y_action``;
    :class:`GroupSpec` checks the rest, its message put under ``group.``."""
    if "group" not in obj or obj["group"] is None:
        return None
    raw = obj["group"]
    if not isinstance(raw, dict):
        raise InputError("group: expected an object")
    keys = ("elements", "cayley", "identity", "embed_x1", "embed_x2", "y_action")
    for key in keys:
        if key not in raw:
            raise InputError(f"group.{key}: missing field")
    for key, rows in (("embed_x1", n1), ("embed_x2", n2), ("y_action", ny)):
        value = raw[key]
        if not isinstance(value, list) or len(value) != rows:
            got = len(value) if isinstance(value, list) else json.dumps(value)
            raise InputError(f"group.{key}: expected {rows} entries, got {got}")
    try:
        return GroupSpec(**{key: raw[key] for key in keys})
    except InputError as exc:
        raise InputError(f"group.{exc}") from None


def load_channel_file(path) -> ChannelFile:
    """Parse a channel file into the named law and optional group."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: malformed JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise InputError(f"{path}: top level must be an object")
    for key in ("x1", "x2", "y", "pmf"):
        if key not in obj:
            raise InputError(f"{key}: missing field")
    mac = Mac(obj["x1"], obj["x2"], obj["y"], obj["pmf"], name=obj.get("name", ""))
    group = _parse_group(obj, *mac.shape)
    # A Mac keeps its table as given; a file's checked rows are renormalized.
    mac = Mac(mac.x1_alphabet, mac.x2_alphabet, mac.y_alphabet,
              mac.pmf / mac.pmf.sum(axis=2, keepdims=True), name=mac.name)
    return ChannelFile(mac=mac, group=group)


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
