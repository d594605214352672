"""Exhaustive cross-checks for the optimizers and classifiers.

Everything here trades speed for independence: capacities by sweeping a
probability lattice with a certified continuity gap, frontier points by
sweeping lattices over every factored simplex, and the channel-sum
partition condition by enumerating all candidate partitions. The caps on
alphabet sizes keep the sweeps at desk scale.

The frontier sweep does not call the ascent's batched kernel per point:
every Cover-Leung bound is an average over the auxiliary symbol of a
function of that symbol's two conditional rows, so those functions are
tabulated once and only H(Y) is evaluated per lattice point. That makes
it an independent derivation of the bounds, against which the kernel is
tested; the kernel re-evaluates only the winning point.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

from ._util import (SUPPORT_EPS, binary_entropy, channel_mi_bits, check_count, entropy_bits,
                    lattice_points, set_partitions)
from .channel import ConditionalPmf, Mac
from .errors import InputError
from .groups import ROW_TOL
from .regions import RatePair, batch_pentagon, check_weight, frontier_point, pentagon_corners


# Lattice points per block of the frontier sweep: enough to spread numpy's
# per-call cost, few enough to bound a block's arrays (a few hundred kB at
# this size, where the whole resolution-16, u_card-2 lattice would take
# tens of MB).
_LATTICE_BLOCK_ROWS = 1500

# Lattice values within this of the best count as ties; the first tied point
# in lattice order wins, so last-bit noise in the values cannot flip which
# point is returned. In bits of the direction's corner value (check_weight).
_LATTICE_TIE = 1e-12


@dataclass(frozen=True)
class GridSpec:
    """Lattice resolution: probabilities live on multiples of 1/resolution."""

    resolution: int = 64
    max_dims: int = 3

    def __post_init__(self):
        check_count("resolution", self.resolution, 2)
        check_count("max_dims", self.max_dims, 1)


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


def _pair_tables(mac_pmf: np.ndarray, rows1: np.ndarray, rows2: np.ndarray) -> np.ndarray:
    """Per-symbol tables (3 + ny, R1, R2) over pairs of lattice rows.

    For the rows p(x1|u) = ``rows1[a]`` and p(x2|u) = ``rows2[b]`` of one
    auxiliary symbol u, entry ``[:, a, b]`` holds H(Y|X1,X2,U=u),
    H(Y|X2,U=u), H(Y|X1,U=u) and then the output law p(y|u).
    """
    joint = rows1[:, None, :, None] * rows2[None, :, None, :]  # (R1, R2, n1, n2)
    h_c = np.einsum("abij,ij->ab", joint, entropy_bits(mac_pmf, axis=-1))
    h_x2 = entropy_bits(np.einsum("ai,ijy->ajy", rows1, mac_pmf), axis=-1) @ rows2.T
    h_x1 = rows1 @ entropy_bits(np.einsum("bj,ijy->biy", rows2, mac_pmf), axis=-1).T
    p_y = np.einsum("abij,ijy->yab", joint, mac_pmf)
    return np.concatenate([np.stack([h_c, h_x2, h_x1]), p_y])


def _factored_lattice(mac_pmf: np.ndarray, resolution: int, u_card: int):
    """The frontier lattice as a sum of one term per auxiliary symbol.

    A lattice point is a p(u) lattice point p, then a lattice row index
    i_u for each p(x1|u), then j_u for each p(x2|u), in that (lattice)
    order, so the lattice is an array of shape ``(P, R1, ..., R2, ...)``.
    Every per-symbol table of :func:`_pair_tables` enters a point
    linearly, as sum_u p(u) table[:, i_u, j_u]. Term u is the pair
    (p(u), table), each reshaped to broadcast against ``(3 + ny,) + shape``.
    Returns the p(u) lattice, the two row lattices, the shape and the terms.
    """
    n1, n2, _ = mac_pmf.shape
    pu = lattice_points(resolution, u_card)
    rows1, rows2 = lattice_points(resolution, n1), lattice_points(resolution, n2)
    tables = _pair_tables(mac_pmf, rows1, rows2)
    shape = (len(pu),) + (len(rows1),) * u_card + (len(rows2),) * u_card
    terms = []
    for u in range(u_card):
        axes = [1] * len(shape)
        axes[1 + u], axes[1 + u_card + u] = len(rows1), len(rows2)
        terms.append((pu[:, u].reshape(1, -1, *[1] * (len(shape) - 1)),
                      tables.reshape(len(tables), *axes)))
    return pu, rows1, rows2, shape, terms


def _lattice_blocks(shape: tuple[int, ...], limit: int) -> list[tuple]:
    """Index tuples cutting a C-order array of ``shape`` into consecutive blocks.

    Each block fixes the leading axes and takes a run of whole trailing
    sub-arrays along the next axis, as many as ``limit`` entries allow (at
    least one), so the blocks visit the entries in C order.
    """
    k = next(k for k in range(len(shape)) if prod(shape[k + 1:]) <= limit)
    step = max(1, limit // prod(shape[k + 1:]))
    return [lead + (slice(a, min(a + step, shape[k])),)
            for lead in np.ndindex(shape[:k]) for a in range(0, shape[k], step)]


def _take(a: np.ndarray, block: tuple) -> np.ndarray:
    """The part of ``a``, an array that broadcasts against the lattice, in one block.

    Where ``a`` has length 1 on an axis it takes index 0 or the whole axis,
    so each axis is dropped or kept as the block drops or keeps it.
    """
    return a[(slice(None),) + tuple(ix if n > 1 else slice(None) if isinstance(ix, slice) else 0
                                    for ix, n in zip(block, a.shape[1:]))]


def _block_bounds(terms, block: tuple) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(b1, b2, bsum) of one lattice block's points, flattened in lattice order.

    Each term is scaled on its own small slice; only the sum over the
    auxiliary symbols spans the block.
    """
    stats = sum(_take(coef, block) * _take(table, block) for coef, table in terms)
    stats = stats.reshape(len(stats), -1)
    h_c = stats[0]
    b1 = np.maximum(stats[1] - h_c, 0.0)
    b2 = np.maximum(stats[2] - h_c, 0.0)
    bsum = np.maximum(entropy_bits(stats[3:], axis=0) - h_c, 0.0)
    return b1, b2, bsum


def grid_cl_point(mac: Mac, weight, grid: GridSpec, u_card: int = 2) -> RatePair:
    """Best weighted pentagon point over exhaustive factored lattices.

    The search space is every lattice distribution for ``p(u)`` and every
    lattice row for each conditional: ``P R1^u_card R2^u_card`` points for
    P p(u) points and R rows per input (161,051 at resolution 10 with
    ``u_card = 2``), hence the caps on binary inputs and ``u_card <= 2``.

    The sweep is factored. H(Y|X1,X2), H(Y|U,X2), H(Y|U,X1) and p(y) are
    each sum_u p(u) g(p(x1|u), p(x2|u)), so the tables g are built once
    per call over the R1 x R2 row pairs (:func:`_pair_tables`) and summed
    by broadcasting. A point then costs ``u_card`` scaled table entries and
    one entropy, H(Y), rather than a full :func:`batch_pentagon` row.
    Blocks of about ``_LATTICE_BLOCK_ROWS`` points, in lattice order, bound
    the arrays.

    The sweep weighs by the direction of ``weight`` (:func:`check_weight`),
    so the pair's scale moves no result. The winner is the first point in
    lattice order whose weighted value is within ``_LATTICE_TIE`` of the
    best, so the pick does not hang on the last bit of tied values; its
    rates are the :func:`frontier_point` of that one point's :func:`batch_pentagon`.
    """
    n1, n2, _ = mac.shape
    if n1 > 2 or n2 > 2:
        raise InputError("grid_cl_point supports binary input alphabets only")
    check_count("u_card", u_card, 1)
    if u_card > 2:
        raise InputError("grid_cl_point supports u_card in {1, 2} only")
    w1, w2 = check_weight(weight)

    pu, rows1, rows2, shape, terms = _factored_lattice(mac.pmf, grid.resolution, u_card)
    blocks = _lattice_blocks(shape, _LATTICE_BLOCK_ROWS)
    tops = np.array([pentagon_corners(*_block_bounds(terms, b), w1, w2)[0].max()
                     for b in blocks])
    floor = tops.max() - _LATTICE_TIE
    first = int(np.flatnonzero(tops >= floor)[0])
    vals = pentagon_corners(*_block_bounds(terms, blocks[first]), w1, w2)[0]
    lead = blocks[first][:-1] + (blocks[first][-1].start,)
    start = int(np.ravel_multi_index(lead + (0,) * (len(shape) - len(lead)), shape))
    point = np.unravel_index(start + int(np.flatnonzero(vals >= floor)[0]), shape)
    i1, i2 = list(point[1:1 + u_card]), list(point[1 + u_card:])
    return frontier_point(*batch_pentagon(mac.pmf, pu[[point[0]]], rows1[[i1]], rows2[[i2]]),
                          weight)[1]


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
