"""Exhaustive cross-checks for the optimizers and classifiers.

Everything here trades speed for independence: capacities by sweeping a
probability lattice with a certified continuity gap, frontier points by
sweeping lattices over every factored simplex, and the channel-sum
partition condition by enumerating all candidate partitions. The caps on
alphabet sizes keep the sweeps at desk scale.

The frontier sweep does not call the ascent's batched kernel per point:
every Cover-Leung bound is an average over the auxiliary symbol of a
function of that symbol's two conditional rows, so those functions are
tabulated once and only H(Y) is evaluated per lattice point, one block of
points per p(u) lattice point and first p(x1|u) row. That makes it an
independent derivation of the bounds, against which the kernel is
tested; the kernel re-evaluates only the winning point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import (SUPPORT_EPS, binary_entropy, channel_mi_bits, check_count, entropy_bits,
                    lattice_points, set_partitions)
from .channel import ConditionalPmf, Mac
from .errors import InputError
from .groups import ROW_TOL, support_indices
from .regions import RatePair, batch_pentagon, check_weight, frontier_point, pentagon_corners


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


def grid_capacity(ch: ConditionalPmf, grid: GridSpec) -> tuple[float, float]:
    """Best mutual information on the input lattice, plus its gap bound.

    Returns ``(value, gap)`` with the guarantee
    ``value <= capacity <= value + gap``.
    """
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


def _block_bounds(tables: np.ndarray, pu: np.ndarray, p: int, i0: int | None
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(b1, b2, bsum) of one block of the frontier lattice, flattened in lattice order.

    A block is the lattice points with p(u) = ``pu[p]`` and first p(x1|u)
    row ``i0``; its points run over (i1, j0, j1), R1 R2^2 of them, each
    the sum pu[p, 0] tables[:, i0, j0] + pu[p, 1] tables[:, i1, j1]. With
    one auxiliary symbol, ``i0`` is None and the block is the whole (i0, j0)
    lattice.
    """
    if i0 is None:
        stats = pu[p, 0] * tables
    else:
        stats = pu[p, 0] * tables[:, i0, None, :, None] + pu[p, 1] * tables[:, :, None, :]
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
    per call over the R1 x R2 row pairs (:func:`_pair_tables`). A point
    then costs ``u_card`` scaled table entries and one entropy, H(Y),
    rather than a full :func:`batch_pentagon` row. The lattice is swept
    in blocks along its own axes, one per (p(u), first p(x1|u) row) pair
    (:func:`_block_bounds`), in lattice order.

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

    pu = lattice_points(grid.resolution, u_card)
    rows1, rows2 = lattice_points(grid.resolution, n1), lattice_points(grid.resolution, n2)
    tables = _pair_tables(mac.pmf, rows1, rows2)
    blocks = ([(0, None)] if u_card == 1
              else [(p, i0) for p in range(len(pu)) for i0 in range(len(rows1))])
    tops = np.array([pentagon_corners(*_block_bounds(tables, pu, *b), w1, w2)[0].max()
                     for b in blocks])
    floor = tops.max() - _LATTICE_TIE
    p, i0 = blocks[int(np.flatnonzero(tops >= floor)[0])]
    vals = pentagon_corners(*_block_bounds(tables, pu, p, i0), w1, w2)[0]
    k = int(np.flatnonzero(vals >= floor)[0])
    i, *x2 = np.unravel_index(k, (len(rows1),) + (len(rows2),) * u_card)
    x1 = [i] if i0 is None else [i0, i]
    return frontier_point(*batch_pentagon(mac.pmf, pu[[p]], rows1[[x1]], rows2[[x2]]),
                          weight)[1]


def brute_force_condition2(ch: ConditionalPmf, support=None) -> bool:
    """Exhaustively decide the shielding-variable condition.

    Looks for a variable K that is a deterministic function of the input
    (hence a partition of the support), is also determined by the output,
    and makes the output independent of the input given K. Every
    candidate partition is tried; True as soon as one works.
    """
    idx = support_indices(ch, support, "brute_force_condition2")
    if len(idx) > 5:
        raise InputError("brute_force_condition2: support cap is 5 symbols")
    if len(ch.output_alphabet) > 6:
        raise InputError("brute_force_condition2: output cap is 6 symbols")
    rows = ch.rows[idx]
    supp = rows > SUPPORT_EPS
    ny = rows.shape[1]

    for partition in set_partitions(list(range(len(idx)))):
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
