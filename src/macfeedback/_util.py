"""Small numeric helpers used throughout the package."""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np
from scipy.special import xlogy

from .errors import InputError

LN2 = math.log(2.0)

# Entries whose magnitude falls below this are treated as exact zeros when
# arrays enter the package; keeps downstream support decisions stable.
ZERO_CLAMP = 1e-15

# Mass below this threshold does not count as support.
SUPPORT_EPS = 1e-10


def clamp_tiny(arr: np.ndarray, where: str) -> np.ndarray:
    """Return a float64 copy with magnitudes below ZERO_CLAMP set to 0.

    Raises InputError, naming ``where``, on any NaN or infinite entry:
    every range and sum check downstream would let NaN through.
    """
    out = np.array(arr, dtype=np.float64)
    bad = ~np.isfinite(out)
    if bad.any():
        idx = tuple(int(i) for i in np.argwhere(bad)[0])
        raise InputError(f"{where}: non-finite entry {float(out[idx])!r} at index {list(idx)}")
    out[np.abs(out) < ZERO_CLAMP] = 0.0
    return out


def freeze(arr: np.ndarray) -> np.ndarray:
    """Mark an array read-only so the owning object stays immutable."""
    arr.flags.writeable = False
    return arr


def entropy_bits(table: np.ndarray, axis=None) -> np.ndarray | float:
    """Shannon entropy in bits of a (possibly batched) probability table.

    Zero entries contribute nothing. With ``axis=None`` the whole array is
    one distribution; otherwise entropy is taken over the given axes.
    """
    h = -xlogy(table, table).sum(axis=axis) / LN2
    return h


def binary_entropy(q: float) -> float:
    """Entropy in bits of a Bernoulli(q) variable."""
    if q <= 0.0 or q >= 1.0:
        return 0.0
    return -(q * math.log2(q) + (1.0 - q) * math.log2(1.0 - q))


def project_rows_to_simplex(arr: np.ndarray) -> np.ndarray:
    """Euclidean projection of each trailing-axis row onto the simplex."""
    v = np.asarray(arr, dtype=np.float64)
    d = v.shape[-1]
    u = -np.sort(-v, axis=-1)
    css = np.cumsum(u, axis=-1) - 1.0
    idx = np.arange(1, d + 1, dtype=np.float64)
    cond = u - css / idx > 0
    rho = d - 1 - np.argmax(cond[..., ::-1], axis=-1)
    theta = np.take_along_axis(css, rho[..., None], axis=-1) / (rho + 1)[..., None]
    return np.maximum(v - theta, 0.0)


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


def fresh_symbol(taken, base: str = "e") -> str:
    """A label equal to ``base`` or ``base`` plus a numeric suffix, not in ``taken``."""
    if base not in taken:
        return base
    k = 2
    while f"{base}{k}" in taken:
        k += 1
    return f"{base}{k}"
