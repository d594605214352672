"""Capacity maximization over input simplices.

The workhorse is the classical alternating-maximization capacity
iteration with its two-sided stopping certificate: at every step the
current mutual information is a lower bound on capacity and the largest
per-input divergence from the mixture output is an upper bound, so the
loop can stop with a guaranteed gap instead of mere stagnation.

Channels with two inputs are solved exactly instead: the mutual
information is a concave function of the one number P(X=1), so bisection
on the sign of its derivative finds the unique optimum, and the same
two-sided certificate stops it. Every result carries both ends of the
certificate: ``value`` (inner) and ``upper`` (outer).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import channel_mi_bits
from .channel import ConditionalPmf, Mac, Pmf
from .errors import InputError

DEFAULT_TOL = 1e-9
DEFAULT_MAX_ITER = 10000


@dataclass(frozen=True, eq=False)
class OptResult:
    """Outcome of a capacity maximization.

    ``value`` is the mutual information of ``argmax_input`` through the
    channel (a certified lower bound on capacity, within the requested
    tolerance of it when ``converged``); ``upper`` is the largest
    divergence D(W_x || output_dist) over the inputs x at that same input,
    a certified upper bound on capacity. Inner values read ``value``,
    outer bounds read ``upper``. ``output_dist`` is the induced output
    distribution.
    """

    value: float
    upper: float
    argmax_input: Pmf
    output_dist: Pmf
    iterations: int
    converged: bool


def check_tol(tol: float) -> None:
    """Reject a stopping tolerance that is not positive and finite (NaN included)."""
    if not 0.0 < tol < np.inf:
        raise InputError(f"tol must be positive and finite, got {tol!r}")


def _divergence_rows(rows: np.ndarray, py: np.ndarray) -> np.ndarray:
    """D(row_x || py) in bits for every input x, with 0 log 0 = 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(rows > 0.0, rows / np.where(py > 0.0, py, 1.0), 1.0)
        terms = np.where(rows > 0.0, rows * np.log2(ratio), 0.0)
        # An output reachable from x but not under py means infinite gain.
        blown = (rows > 0.0) & (py <= 0.0)
        terms = np.where(blown, np.inf, terms)
    return terms.sum(axis=1)


def blahut_arimoto(ch: ConditionalPmf, tol: float = DEFAULT_TOL,
                   max_iter: int = DEFAULT_MAX_ITER,
                   init: np.ndarray | None = None) -> OptResult:
    """Capacity of a point-to-point channel with a convergence certificate.

    Stops once the gap between the per-input divergence maximum (upper
    bound) and its average under the current input (lower bound) falls
    below ``tol`` bits; ``converged`` is False when ``max_iter`` is
    exhausted first. The returned value is the exact mutual information
    of the returned input, so it never overshoots capacity.

    ``init`` optionally replaces the uniform starting input; it must be
    strictly positive for the iteration to be able to grow every symbol.
    """
    check_tol(tol)
    rows = ch.rows
    m = rows.shape[0]
    if init is None:
        r = np.full(m, 1.0 / m)
    else:
        r = np.asarray(init, dtype=np.float64)
        if r.shape != (m,) or np.any(r <= 0.0):
            raise InputError("init must be a strictly positive vector over the inputs")
        r = r / r.sum()

    lower = -np.inf
    upper = np.inf
    iterations = 0
    converged = False
    for iterations in range(1, max_iter + 1):
        py = r @ rows
        div = _divergence_rows(rows, py)
        pos = r > 0.0  # div is finite wherever r is positive
        new_lower = float(r[pos] @ div[pos])
        new_upper = float(div.max())
        if new_lower < lower - 1e-12:
            raise RuntimeError(
                f"capacity lower bound decreased from {lower!r} to {new_lower!r}")
        lower, upper = new_lower, new_upper
        if upper - lower <= tol:
            converged = True
            break
        finite = np.isfinite(div)
        if not finite.all():
            # An input underflowed to zero mass yet reaches an otherwise
            # unreachable output; give it a large finite boost instead of
            # propagating inf - inf.
            div = np.where(finite, div, div[finite].max(initial=0.0) + 64.0)
        shift = div - div.max()
        r = r * np.exp2(shift)
        r = r / r.sum()

    py = r @ rows
    if not converged:
        # The last update moved r past the input that ``lower`` and
        # ``upper`` measured.
        lower = float(channel_mi_bits(r, rows))
        upper = float(_divergence_rows(rows, py).max())
    value = lower if lower > 0.0 else 0.0
    return OptResult(
        value=value,
        upper=upper,
        argmax_input=Pmf(ch.input_alphabet, r),
        output_dist=Pmf(ch.output_alphabet, py),
        iterations=iterations,
        converged=converged,
    )


def product_labels(a1, a2) -> tuple[str, ...]:
    """Labels for the flattened product alphabet, row-major in (x1, x2)."""
    return tuple(f"({s},{t})" for s in a1 for t in a2)


def maximize_joint_mi(mac: Mac, tol: float = DEFAULT_TOL,
                      max_iter: int = DEFAULT_MAX_ITER) -> OptResult:
    """max over joint inputs p(x1, x2) of I(X1, X2; Y).

    Treats the input pair as one super-symbol and runs the capacity
    iteration on the flattened channel; the maximizing joint comes back
    as a distribution over the product alphabet, row-major in (x1, x2).
    """
    n1, n2, ny = mac.shape
    flat = ConditionalPmf(
        product_labels(mac.x1_alphabet, mac.x2_alphabet),
        mac.y_alphabet,
        mac.pmf.reshape(n1 * n2, ny),
    )
    return blahut_arimoto(flat, tol=tol, max_iter=max_iter)


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
    lo, hi, a = 0.0, 1.0, 0.5
    iterations = 0
    while True:
        iterations += 1
        r = np.array([1.0 - a, a])
        py = r @ rows
        div = _divergence_rows(rows, py)
        converged = float(div.max() - r @ div) <= tol
        if converged:
            break
        if div[1] > div[0]:
            lo = a
        else:
            hi = a
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        a = mid
    value = float(channel_mi_bits(r, rows))
    return OptResult(
        value=value if value > 0.0 else 0.0,
        upper=float(div.max()),
        argmax_input=Pmf(ch.input_alphabet, r),
        output_dist=Pmf(ch.output_alphabet, py),
        iterations=iterations,
        converged=converged,
    )


def max_support_input(ch: ConditionalPmf, tol: float = DEFAULT_TOL,
                      max_iter: int = DEFAULT_MAX_ITER) -> OptResult:
    """A capacity-achieving input in the relative interior of the optimal face.

    The set of capacity-achieving inputs is a convex face of the simplex.
    With two inputs the face is a single point: when the rows differ, I
    is strictly concave in P(X=1) and zero at both ends, so its optimum
    is unique and interior; when they are equal, every input is optimal
    and uniform is the interior one. So two-input channels are solved
    exactly by :func:`_binary_capacity` (``max_iter`` does not apply).

    With more inputs, one capacity run per input symbol is launched from
    a start biased toward that symbol's vertex; the uniform average of
    the resulting maximizers lands in the interior of the face (mutual
    information is concave in the input, so the average is still within
    tolerance of capacity), and one final refinement sweep re-tightens
    the value. The result keeps positive mass on every symbol that any
    optimum uses, which is what downstream support arguments need.
    """
    check_tol(tol)
    rows = ch.rows
    m = rows.shape[0]
    if m == 2:
        return _binary_capacity(ch, tol)
    beta = 0.1
    total_iters = 0
    all_converged = True
    solutions = []
    for i in range(m):
        start = np.full(m, beta / m)
        start[i] += 1.0 - beta
        res = blahut_arimoto(ch, tol=tol, max_iter=max_iter, init=start)
        total_iters += res.iterations
        all_converged = all_converged and res.converged
        solutions.append(res.argmax_input.probs)
    avg = np.mean(solutions, axis=0)

    # One refinement sweep; multiplicative, so it cannot kill support.
    py = avg @ rows
    div = _divergence_rows(rows, py)
    finite = np.isfinite(div)
    shift = div - div[finite].max() if finite.any() else div
    refined = avg * np.exp2(np.where(finite, shift, 0.0))
    refined = refined / refined.sum()

    value = float(channel_mi_bits(refined, rows))
    py = refined @ rows
    return OptResult(
        value=value if value > 0.0 else 0.0,
        upper=float(_divergence_rows(rows, py).max()),
        argmax_input=Pmf(ch.input_alphabet, refined),
        output_dist=Pmf(ch.output_alphabet, py),
        iterations=total_iters + 1,
        converged=all_converged,
    )
