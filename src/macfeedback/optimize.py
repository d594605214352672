"""Capacity maximization over input simplices, stopped on two-sided certificates.

The mutual information of the input bounds capacity from below, the largest
per-input divergence from its output law from above; results carry both,
``value`` (inner) and ``upper`` (outer), measured at the returned input as
its Pmf holds it. Two-input channels are solved by bisection, larger ones
by Newton's method on the KKT conditions over the distinct rows (equal
rows are one input, their mass split evenly). The alternating iteration
(:func:`blahut_arimoto`) is the reference both are tested against.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from ._util import LN2, channel_mi_bits, clamp_tiny, pair_label
from .channel import ConditionalPmf, Mac, Pmf
from .errors import InputError
from .infotheory import NUM_FLOOR

DEFAULT_TOL = 1e-9
DEFAULT_MAX_ITER = 10000
_WARM_STEPS = 4
_NEWTON_STEPS = 60
_DEP_TOL = 1e-7
_FLOOR = 1e-14  # the least mass an input of the support keeps


@dataclass(frozen=True, eq=False)
class OptResult:
    """Outcome of a capacity maximization.

    ``value`` is the mutual information of ``argmax_input``, floored at 0
    and capped at ``upper`` against rounding (a certified lower bound on
    capacity, within the tolerance of it when ``converged``); an excess
    over ``upper`` beyond rounding is left standing, unconverged;
    ``upper`` is the largest divergence D(W_x || p_y) over inputs x, with
    p_y the output law ``argmax_input`` induces, a certified upper bound.
    Inner values read ``value``, outer bounds read ``upper``.
    """

    value: float
    upper: float
    argmax_input: Pmf
    iterations: int
    converged: bool


def check_tol(tol: float) -> None:
    """Reject a stopping tolerance that is not positive and finite (NaN included)."""
    if not 0.0 < tol < np.inf:
        raise InputError(f"tol must be positive and finite, got {tol!r}")


def _result(ch: ConditionalPmf, p: np.ndarray, value, upper, iterations, converged):
    """The OptResult of input ``p``, its inner end floored at 0 and capped at
    the outer end where the excess is rounding (at most ``NUM_FLOOR``, as
    infotheory clamps). A larger excess is a fault of the evaluation; it
    stays visible, and the result unconverged."""
    if value - upper <= NUM_FLOOR:
        value = min(value, upper)
    else:
        converged = False
    return OptResult(value if value > 0.0 else 0.0, upper, Pmf(ch.input_alphabet, p),
                     iterations, converged)


def _ends(rows: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, float, float]:
    """The two certificate ends of input ``p``: (D, I, max D), with D[x] the
    divergence D(W_x || pW) in bits (0 log 0 = 0) and I(p) = p . D over the
    support of ``p``."""
    py, pos = p @ rows, rows > 0.0
    # Every logarithm taken is of a positive ratio, so nothing warns.
    ratio = np.where(pos, rows / np.where(py > 0.0, py, 1.0), 1.0)
    terms = np.where(pos, rows * np.log2(ratio), 0.0)
    if (py <= 0.0).any():
        # An output reachable from x but not under py means infinite gain.
        terms[pos & (py <= 0.0)] = np.inf
    div = terms.sum(axis=1)
    return div, float(p[p > 0.0] @ div[p > 0.0]), float(div.max())


def _largest_upper(solves) -> float:
    """A user's cut-set value: the largest ``upper`` of its partner-channel solves."""
    best = 0.0
    for solve in solves:
        best = max(best, solve.upper)
    return best


def _measured(ch: ConditionalPmf, p: np.ndarray, tol: float, iterations: int) -> OptResult:
    """The OptResult of input ``p`` with both ends measured at ``p`` on ``ch``,
    converged within ``tol``."""
    _, value, upper = _ends(ch.rows, p)
    return _result(ch, p, value, upper, iterations, upper - value <= tol)


def blahut_arimoto(ch: ConditionalPmf, tol: float = DEFAULT_TOL,
                   max_iter: int = DEFAULT_MAX_ITER) -> OptResult:
    """Capacity of a point-to-point channel with a convergence certificate.

    Stops once the gap between the per-input divergence maximum (upper
    bound) and its average under the current input (lower bound) falls
    below ``tol`` bits, or after ``max_iter`` steps. Every iterate is held
    as the result's Pmf holds it, masses below ``ZERO_CLAMP`` zeroed, so
    no output mass underflows; an input held at zero that alone reaches
    an output has an infinite divergence no later iterate can lower, so
    the run stops there. Both ends of the result are measured at the
    returned input, and ``converged`` says whether they lie within
    ``tol`` there. The value is the mutual information of that input, so
    it never overshoots capacity.
    """
    check_tol(tol)
    rows, m = ch.rows, len(ch.input_alphabet)
    r = np.full(m, 1.0 / m)
    lower, iterations = -np.inf, 0
    for iterations in range(1, max_iter + 1):
        div, new_lower, upper = _ends(rows, r)  # div is finite wherever r is positive
        if new_lower < lower - 1e-12:
            raise RuntimeError(f"capacity lower bound decreased from {lower!r} to {new_lower!r}")
        lower = new_lower
        if upper - lower <= tol or upper == np.inf:
            break
        r = r * np.exp2(div - upper)
        r = clamp_tiny(r / r.sum())  # as the result's Pmf holds it

    # The last update may have moved r past the measured input.
    return _measured(ch, r, tol, iterations)


def maximize_joint_mi(mac: Mac, tol: float = DEFAULT_TOL) -> OptResult:
    """max over joint inputs p(x1, x2) of I(X1, X2; Y).

    Solves the channel from the input pair, as one super-symbol, to Y with
    :func:`_kkt_capacity`; the maximizing joint is over the product
    alphabet, row-major in (x1, x2).
    """
    check_tol(tol)
    pairs = tuple(pair_label(s, t) for s in mac.x1_alphabet for t in mac.x2_alphabet)
    flat = ConditionalPmf(pairs, mac.y_alphabet, mac.pmf.reshape(len(pairs), -1))
    return _kkt_capacity(flat, tol)


def _binary_capacity(ch: ConditionalPmf, tol: float) -> OptResult:
    """Exact capacity of a two-input channel by bisection on a = P(X=1).

    I(a) is concave with derivative D(W1 || p_y) - D(W0 || p_y), so the
    sign of that difference tells on which side of ``a`` the optimum lies.
    Starting at a = 1/2, only interior points are evaluated, where both
    divergences are finite. The loop stops once the two-sided certificate
    max_x D(W_x || p_y) - I(a) is at most ``tol`` (``converged``), or,
    unconverged, once the midpoint stops moving. ``iterations`` counts
    the points evaluated.
    """
    rows = ch.rows
    lo, hi, a, iterations = 0.0, 1.0, 0.5, 0
    while True:
        iterations += 1
        r = np.array([1.0 - a, a])
        div, value, upper = _ends(rows, r)
        converged = upper - value <= tol
        if converged:
            break
        lo, hi = (a, hi) if div[1] > div[0] else (lo, a)
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        a = mid
    return _result(ch, r, float(channel_mi_bits(r, rows)), upper, iterations, converged)


def _kkt_capacity(ch: ConditionalPmf, tol: float) -> OptResult:
    """Capacity by Newton's method on the KKT conditions.

    Equal rows are one input: the solve runs on the distinct rows, in
    first-occurrence order, and splits each merged mass evenly. q* is unique;
    D(W_x || q*) = C on the support of every optimal input and <= C off it
    (Gallager 1968, Thm 4.5.1). ``_WARM_STEPS`` capacity iterations pick a
    support S of rows independent to ``_DEP_TOL`` (:func:`_solve`). Newton
    solves D_x(p) = C on S, sum(p) = 1 (Jacobian -W_S diag(1/q) W_S^T / ln 2
    bordered by ones), halving steps until I does not fall; inputs of S that
    reach an output q misses (D_x infinite) take mass instead. An input
    leaves S at zero mass unless S needs it to reach an output (alone, or
    alone above the floor): it shrinks, to no less than 1e-14, which a Pmf
    keeps; there, with D_x < I, its condition is D_x <= C and it takes no
    step. When D on S is within tol/8 of I, the largest D off S joins (a row
    dependent on those with an equation by moving mass along it, which
    empties one). Both ends are measured at the returned input on the full
    channel: unconverged, still a bracket, past ``_NEWTON_STEPS`` or a singular system.
    """
    ids: dict[bytes, int] = {}
    group = np.array([ids.setdefault(row.tobytes(), len(ids)) for row in ch.rows])
    rows, m = np.empty((len(ids), ch.rows.shape[1])), len(ids)
    rows[group] = ch.rows  # the rows of a group are bitwise equal
    p, S, iterations = np.full(m, 1.0 / m), [], 0
    with suppress(np.linalg.LinAlgError):
        for iterations in range(1, _NEWTON_STEPS + 1):
            div, value, upper = _ends(rows, p)
            if upper - value <= tol:
                break
            if iterations < _WARM_STEPS:  # a capacity iteration
                p = p * np.exp2(div - upper)
            elif not S:  # the starting support: independent rows, by mass
                for x in sorted(np.flatnonzero(p >= 1e-3 * p.max()), key=lambda x: -p[x]):
                    if not S or _solve(rows[S], rows[x])[0] > _DEP_TOL:
                        S.append(int(x))
                p = np.where(np.isin(np.arange(m), S), p, 0.0)
            else:
                # At the floor (renormalized: below twice it), D_x < I: no equation.
                eq, py = (p[S] > 2 * _FLOOR) | (div[S] >= value), p @ rows
                if (missed := (rows[S][:, py <= 0.0] > 0.0).any(axis=1)).any():
                    dp = np.where(missed, 1.0, -missed.sum() * p[S])  # mass onto them
                elif div[S].max() - value > tol / 8:  # a Newton step on S
                    dp, W = np.zeros(len(S)), rows[S][eq]  # A dp = D - C with sum(dp) = 0
                    A = (W / np.where(py > 0.0, py, np.inf)) @ W.T / LN2
                    u, v = np.linalg.solve(A, np.stack([div[S][eq], np.ones(len(W))], 1)).T
                    dp[eq] = u - v * u.sum() / v.sum()
                else:  # the input of largest divergence off S joins
                    x = int(np.where(np.isin(np.arange(m), S), -np.inf, div).argmax())
                    error, c = _solve(rows[S][eq], rows[x])  # a dependence: a step <= 1
                    dp = np.append(np.zeros(len(S)), 1.0)
                    dp[np.flatnonzero(eq)] = -c
                    dp = dp if error <= _DEP_TOL else 1e-3 * np.append(-p[S], 1.0)
                    S.append(x)
                live = (reach := rows[S] > 0.0) & ((p[S] > 2 * _FLOOR) | (dp > 0.0))[:, None]
                alone = (reach & (reach.sum(axis=0) == 1)) | (live & (live.sum(axis=0) == 1))
                block = (dp < 0.0) & ~alone.any(axis=1)
                ratio = np.where(block, p[S] / np.where(block, -dp, 1.0), np.inf)
                b, t = int(ratio.argmin()), min(1.0, ratio.min())
                for _ in range(40):
                    step, new = p[S] + t * dp, p.copy()
                    new[S] = np.where(step > 0.0, step, np.maximum(1e-4 * p[S], _FLOOR))
                    new[S[b]] = 0.0 if t == ratio[b] else new[S[b]]
                    if channel_mi_bits(new / new.sum(), rows) >= value - 1e-12:
                        break
                    t *= 0.5
                if t == ratio[b]:
                    del S[b]
                p = new
            p = clamp_tiny(p / p.sum())  # as the result's Pmf holds it
    return _measured(ch, clamp_tiny(p[group] / np.bincount(group)[group]), tol, iterations)


def _solve(W: np.ndarray, row: np.ndarray):
    """Least-squares c with c @ W = row, and its largest error per max(1, max |c|): (error, c)."""
    c = np.linalg.lstsq(W.T, row, rcond=None)[0]
    return float(np.abs(c @ W - row).max()) / max(1.0, float(np.abs(c).max(initial=0.0))), c


def max_support_input(ch: ConditionalPmf, tol: float = DEFAULT_TOL) -> OptResult:
    """A capacity-achieving input in the relative interior of the optimal face.

    With two inputs the face is one point (uniform if the rows are equal),
    found by :func:`_binary_capacity`. Else :func:`_kkt_capacity` finds q*;
    the face is {p >= 0 on S* = {x : D(W_x || q*) >= upper - tol} : pW = q*},
    and the mean of its vertices (solutions on subsets of S* of size
    rank(W_S*)) and the solve's input induces q*, keeps the upper end, and
    puts mass on every symbol a tol-optimal input or the solve uses.
    """
    check_tol(tol)
    if len(ch.input_alphabet) == 2:
        return _binary_capacity(ch, tol)
    res = _kkt_capacity(ch, tol)
    rows, q = ch.rows, res.argmax_input.probs @ ch.rows
    face = np.flatnonzero(_ends(rows, res.argmax_input.probs)[0] >= res.upper - tol)
    p = res.argmax_input.probs.copy()  # plus every vertex, each of mass 1
    for basis in map(list, combinations(face, np.linalg.matrix_rank(rows[face]))):
        error, c = _solve(rows[basis], q)
        if error <= 1e-12 and c.min() >= -1e-12:
            p[basis] += np.maximum(c, 0.0)
    p = clamp_tiny(p / p.sum())
    upper = _ends(rows, p)[2]
    value = float(channel_mi_bits(p, rows))
    return _result(ch, p, value, upper, res.iterations, res.converged and upper - value <= tol)
