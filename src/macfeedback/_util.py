"""Small numeric helpers used throughout the package."""

from __future__ import annotations

import math
import numbers
from itertools import combinations

import numpy as np

from .errors import InputError

LN2 = math.log(2.0)

# Probability tables may deviate from 1 (row sums) or exceed it (entries) by
# this much before they are rejected.
SUM_TOL = 1e-9

# Entries are floored here before the logarithm, so that 0 log 0 = 0.
_TINY = np.finfo(np.float64).smallest_subnormal

# Entries whose magnitude falls below this are treated as exact zeros when
# arrays enter the package; keeps downstream support decisions stable.
ZERO_CLAMP = 1e-15

# Mass below this threshold does not count as support.
SUPPORT_EPS = 1e-10


def clamp_tiny(arr) -> np.ndarray:
    """Return a float64 copy with magnitudes below ZERO_CLAMP set to 0."""
    out = np.array(arr, dtype=np.float64)
    out[np.abs(out) < ZERO_CLAMP] = 0.0
    return out


def check_count(name: str, value, least: int) -> None:
    """Reject ``value`` unless it is an integer (not a bool) of at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InputError(f"{name} must be an integer, got {value!r}")
    if value < least:
        bound = f"at least {least}" if least else "nonnegative"
        raise InputError(f"{name} must be {bound}, got {value!r}")


def _indices(mask: np.ndarray) -> list[tuple[int, ...]]:
    return [tuple(int(k) for k in idx) for idx in np.argwhere(mask)]


def table_faults(t: np.ndarray, sum_axes=None) -> list[tuple[str, tuple[int, ...], float]]:
    """Every fault of a probability table, as ``(kind, index, value)``.

    Kinds come in this order: "non-finite" entries (when there is one,
    nothing else is checked: NaN passes every comparison), "negative"
    entries, entries "above 1" by more than SUM_TOL, and "sum" faults, one
    per slice over ``sum_axes`` (default: all axes) whose total is off 1
    by more than SUM_TOL, indexed over the remaining axes. A clean table
    costs one min, max and sum (NaN fails ``min() >= 0``: the full listing).
    """
    if t.size and t.min() >= 0.0 and t.max() <= 1.0 + SUM_TOL:
        if abs(t.sum(axis=sum_axes) - 1.0).max() <= SUM_TOL:
            return []
    bad = ~np.isfinite(t)
    if bad.any():
        return [("non-finite", idx, float(t[idx])) for idx in _indices(bad)]
    sums = t.sum(axis=sum_axes)
    neg = t < 0.0
    over = t > 1.0 + SUM_TOL
    off = np.abs(sums - 1.0) > SUM_TOL
    return ([("negative", idx, float(t[idx])) for idx in _indices(neg)]
            + [("above 1", idx, float(t[idx])) for idx in _indices(over)]
            + [("sum", idx, float(sums[idx])) for idx in _indices(off)])


_FAULT_TEXT = {"non-finite": "non-finite entry {!r}", "negative": "negative mass {!r}",
               "above 1": "mass {!r} above 1", "sum": "mass sums to {!r}, not 1"}


def check_table(t: np.ndarray, where: str, sum_axes=None) -> None:
    """Raise InputError naming ``where`` and the first of :func:`table_faults`."""
    faults = table_faults(t, sum_axes)
    if faults:
        kind, idx, value = faults[0]
        at = f" at index {list(idx)}" if idx else ""
        raise InputError(f"{where}: {_FAULT_TEXT[kind].format(value)}{at}")


def freeze(arr: np.ndarray) -> np.ndarray:
    """Mark an array read-only so the owning object stays immutable."""
    arr.flags.writeable = False
    return arr


def entropy_bits(table: np.ndarray, axis=None) -> np.ndarray | float:
    """Shannon entropy in bits of a (possibly batched) probability table.

    Zero entries contribute nothing. With ``axis=None`` the whole array is
    one distribution; otherwise entropy is taken over the given axes.
    """
    return -(table * np.log(np.maximum(table, _TINY))).sum(axis=axis) / LN2


def channel_mi_bits(p: np.ndarray, rows: np.ndarray) -> np.ndarray | float:
    """I(X; Y) in bits of input ``p`` through the channel matrix ``rows``.

    ``p`` is one input vector or a batch of them along its last axis;
    ``rows[x]`` is the output distribution given input ``x``.
    """
    return entropy_bits(p @ rows, axis=-1) - p @ entropy_bits(rows, axis=1)


def binary_entropy(q: float) -> float:
    """Entropy in bits of a Bernoulli(q) variable."""
    if q <= 0.0 or q >= 1.0:
        return 0.0
    return -(q * math.log2(q) + (1.0 - q) * math.log2(1.0 - q))


def project_rows_to_simplex(arr: np.ndarray) -> np.ndarray:
    """Euclidean projection of each trailing-axis row onto the simplex.

    The projection is max(v - tau, 0) with one threshold tau per row: the
    largest of the partial averages (sum of the k largest entries - 1) / k
    over k = 1..d. Two-symbol rows (a, b) take it in closed form, without
    a sort: tau = max(hi - 1, ((a + b) - 1) / 2) with hi the larger entry,
    the same operations in the same order as the sorted partial sums, so
    the result is bitwise the same.
    """
    v = np.asarray(arr, dtype=np.float64)
    d = v.shape[-1]
    if d == 2:
        # Column by column: elementwise passes over all rows at once.
        a, b = v[..., 0], v[..., 1]
        tau = np.maximum(np.maximum(a, b) - 1.0, (a + b - 1.0) / 2.0)
        out = np.empty(v.shape)
        np.maximum(a - tau, 0.0, out=out[..., 0])
        np.maximum(b - tau, 0.0, out=out[..., 1])
        return out
    css = np.cumsum(-np.sort(-v, axis=-1), axis=-1) - 1.0
    tau = (css / np.arange(1, d + 1, dtype=np.float64)).max(axis=-1, keepdims=True)
    return np.maximum(v - tau, 0.0)


def compositions(total: int, parts: int):
    """Yield all tuples of ``parts`` nonnegative ints summing to ``total``."""
    if parts == 1:
        yield (total,)
        return
    for cut in combinations(range(total + parts - 1), parts - 1):
        prev = -1
        out = []
        for c in cut:
            out.append(c - prev - 1)
            prev = c
        out.append(total + parts - 2 - prev)
        yield tuple(out)


def lattice_points(resolution: int, dims: int) -> np.ndarray:
    """All probability vectors with entries k/resolution, as an array."""
    pts = np.array(list(compositions(resolution, dims)), dtype=np.float64)
    return pts / float(resolution)


def set_partitions(items: list):
    """Yield every partition of ``items`` as a list of blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for smaller in set_partitions(rest):
        for i in range(len(smaller)):
            yield smaller[:i] + [[first] + smaller[i]] + smaller[i + 1:]
        yield [[first]] + smaller


_PAIR_ESCAPES = str.maketrans({c: "\\" + c for c in "\\(),"})


def pair_label(a: str, b: str) -> str:
    """The label ``(a,b)`` of a symbol pair, with each backslash, parenthesis
    and comma in ``a`` and ``b`` backslash-escaped, so that distinct pairs get
    distinct labels: the one unescaped comma separates the parts."""
    return f"({a.translate(_PAIR_ESCAPES)},{b.translate(_PAIR_ESCAPES)})"


def fresh_symbol(taken) -> str:
    """A label equal to "e" or "e" plus a numeric suffix, not in ``taken``."""
    if "e" not in taken:
        return "e"
    k = 2
    while f"e{k}" in taken:
        k += 1
    return f"e{k}"
