"""Exhaustive cross-checks for the optimizers and classifiers.

Everything here trades speed for independence: capacities by sweeping a
probability lattice with a certified continuity gap, frontier points by
sweeping lattices over every factored simplex, and the channel-sum
partition condition by enumerating all candidate partitions. The caps on
alphabet sizes keep the sweeps at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from ._util import (SUPPORT_EPS, binary_entropy, channel_mi_bits, lattice_points,
                    set_partitions)
from .channel import ConditionalPmf, Mac
from .errors import InputError
from .groups import ROW_TOL
from .regions import RatePair, batch_pentagon, check_weight, pentagon_corners


# Rows per batch_pentagon call of the lattice frontier sweep: enough to
# spread numpy's per-call cost, few enough to bound the call's arrays (a
# resolution-10 sweep in a single call would hold about 8 MB).
_LATTICE_BLOCK_ROWS = 1500


@dataclass(frozen=True)
class GridSpec:
    """Lattice resolution: probabilities live on multiples of 1/resolution."""

    resolution: int = 64
    max_dims: int = 3

    def __post_init__(self):
        if self.resolution < 2:
            raise InputError("resolution must be at least 2")


def _entropy_continuity(tv: float, d: int) -> float:
    """Upper bound in bits on |H(r) - H(s)| given total variation ``tv``."""
    if d <= 1:
        return 0.0
    if tv >= 1.0 - 1.0 / d:
        return float(np.log2(d))
    return tv * float(np.log2(max(d - 1, 1))) + binary_entropy(tv)


def capacity_gap_bound(ch: ConditionalPmf, grid: GridSpec) -> float:
    """How far the true capacity can sit above the best lattice value.

    Any input is within L1 distance d/N of the lattice (d input symbols,
    resolution N). Mutual information moves by at most the output-entropy
    continuity bound at that radius plus the linear row-entropy term;
    both are taken deliberately conservatively.
    """
    d = len(ch.input_alphabet)
    ny = len(ch.output_alphabet)
    delta = d / grid.resolution
    return _entropy_continuity(delta / 2.0, ny) + (delta / 2.0) * float(np.log2(max(ny, 2)))


def default_grid(ch: ConditionalPmf) -> GridSpec:
    """Resolution 64 for binary inputs, 24 for ternary: sub-second sweeps."""
    return GridSpec(resolution=64 if len(ch.input_alphabet) <= 2 else 24)


def grid_capacity(ch: ConditionalPmf, grid: GridSpec | None = None) -> tuple[float, float]:
    """Best mutual information on the input lattice, plus its gap bound.

    Returns ``(value, gap)`` with the guarantee
    ``value <= capacity <= value + gap``. Without an explicit grid the
    resolution follows :func:`default_grid`.
    """
    if grid is None:
        grid = default_grid(ch)
    d = len(ch.input_alphabet)
    if d > grid.max_dims:
        raise InputError(
            f"input alphabet size {d} exceeds the oracle cap {grid.max_dims}"
        )
    values = channel_mi_bits(lattice_points(grid.resolution, d), ch.rows)
    best = float(values.max())
    return max(best, 0.0), capacity_gap_bound(ch, grid)


def grid_cl_point(mac: Mac, weight, grid: GridSpec, u_card: int = 2) -> RatePair:
    """Best weighted pentagon point over exhaustive factored lattices.

    The search space is every lattice distribution for ``p(u)`` and every
    lattice row for each conditional, so the cost grows as
    ``B^(2 u_card)``; hence the caps on binary inputs and ``u_card <= 2``.
    The (p(u), p(x1|u)) pairs are taken in lattice order, several at a
    time: each ``batch_pentagon`` call stacks a block of pairs, each
    against every p(x2|u) configuration, about ``_LATTICE_BLOCK_ROWS`` rows
    in all, which bounds the call's arrays. The first best row in that
    order wins, as in a sweep one row at a time.
    """
    n1, n2, _ = mac.shape
    if n1 > 2 or n2 > 2:
        raise InputError("grid_cl_point supports binary input alphabets only")
    if not 1 <= u_card <= 2:
        raise InputError("grid_cl_point supports u_card in {1, 2} only")
    w1, w2 = float(weight[0]), float(weight[1])
    check_weight(w1, w2)

    n = grid.resolution
    pu_lattice = lattice_points(n, u_card)
    rows1 = lattice_points(n, n1)
    rows2 = lattice_points(n, n2)
    conf1 = np.array(list(product(range(rows1.shape[0]), repeat=u_card)))
    conf2 = np.array(list(product(range(rows2.shape[0]), repeat=u_card)))
    px1_all = rows1[conf1]  # (C1, U, n1)
    px2_all = rows2[conf2]  # (C2, U, n2)
    c1, c2 = px1_all.shape[0], px2_all.shape[0]
    n_pairs = pu_lattice.shape[0] * c1
    per_block = max(1, _LATTICE_BLOCK_ROWS // c2)

    best = (-np.inf, 0.0, 0.0)
    for lo in range(0, n_pairs, per_block):
        pu_idx, x1_idx = np.divmod(np.arange(lo, min(lo + per_block, n_pairs)), c1)
        b1, b2, bsum = batch_pentagon(mac.pmf, np.repeat(pu_lattice[pu_idx], c2, axis=0),
                                      np.repeat(px1_all[x1_idx], c2, axis=0),
                                      np.tile(px2_all, (pu_idx.size, 1, 1)))
        vals, r1, r2 = pentagon_corners(b1, b2, bsum, w1, w2)
        k = int(np.argmax(vals))
        if vals[k] > best[0]:
            best = (float(vals[k]), float(r1[k]), float(r2[k]))
    return RatePair(best[1], best[2])


def brute_force_condition2(ch: ConditionalPmf, support=None) -> bool:
    """Exhaustively decide the shielding-variable condition.

    Looks for a variable K that is a deterministic function of the input
    (hence a partition of the support), is also determined by the output,
    and makes the output independent of the input given K. Every
    candidate partition is tried; True as soon as one works.
    """
    if support is None:
        support = ch.input_alphabet
    support = [s for s in ch.input_alphabet if s in set(support)]
    if not support:
        raise InputError("brute_force_condition2: empty support")
    if len(support) > 5:
        raise InputError("brute_force_condition2: support cap is 5 symbols")
    if len(ch.output_alphabet) > 6:
        raise InputError("brute_force_condition2: output cap is 6 symbols")
    idx = [ch.input_alphabet.index(s) for s in support]
    rows = ch.rows[idx]
    supp = rows > SUPPORT_EPS
    ny = rows.shape[1]

    for partition in set_partitions(list(range(len(support)))):
        block_of = {}
        for b, block in enumerate(partition):
            for k in block:
                block_of[k] = b
        # K determined by the output: each output symbol reachable from
        # the support must identify a single block.
        ok = True
        for y in range(ny):
            owners = {block_of[int(k)] for k in np.flatnonzero(supp[:, y])}
            if len(owners) > 1:
                ok = False
                break
        if not ok:
            continue
        # Output independent of the input given K: equal rows per block.
        for block in partition:
            rep = rows[block[0]]
            if any(not np.allclose(rows[k], rep, atol=ROW_TOL, rtol=0.0)
                   for k in block[1:]):
                ok = False
                break
        if ok:
            return True
    return False
