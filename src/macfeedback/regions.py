"""Achievable-rate frontier and cut-set outer bounds.

The inner bound is the classical Cover-Leung region: rate pairs
satisfying, for some auxiliary distribution ``p(u) p(x1|u) p(x2|u)``,

    R1      <= I(X1; Y | U, X2)
    R2      <= I(X2; Y | U, X1)
    R1 + R2 <= I(X1, X2; Y).

Y depends on U only through the inputs, so the three bounds are
differences of conditional entropies of the output,

    I(X1; Y | U, X2) = H(Y | U, X2) - H(Y | X1, X2)
    I(X2; Y | U, X1) = H(Y | U, X1) - H(Y | X1, X2)
    I(X1, X2; Y)     = H(Y) - H(Y | X1, X2),

and the batched evaluation builds only the output laws p(y|u,x2),
p(y|u,x1) and p(y) that the ascent gradient also reads. Those kernels are
matrix products: each conditional output law is one (B U, n) @ (n, m)
matmul over all B batch rows and U auxiliary symbols, p(y) and the
conditional entropy H(Y | X1, X2) are products with the weights
p(u) p(x1|u), and the gradient sums its partials against p(x1|u) and
p(x2|u) by matmuls with W and by output laws times their logarithms.
Sums over the short output and input axes (length 2 to about 6) add one
column at a time across the whole batch rather than reduce row by row,
which costs numpy a loop per row.

Frontier points are found by weighted-sum scalarization over the two
non-trivial corners of each pentagon, maximized by projected gradient
ascent over the factored simplices. The corner value is the minimum of
two linear combinations of the pentagon bounds; each step follows the
exact analytic gradient of the active one, centred on the support of
every simplex row, and tries a fixed ladder of step lengths. Weights are
per-row arrays, so all (direction, start) rows of a fan run as one pooled
ascent: every step moves the first ``_SLOTS`` unfinished rows in start
order at once. Each row takes the steps it would take alone, so the pool
changes no result; it pays numpy's fixed per-call cost once per step of
the fan rather than once per step of every direction, and ``_SLOTS``
bounds each step's arrays. A direction drops the starts it cannot use:
the single-user cut-set capacities C1 and C2, the certified upper ends of
the partner-channel solves that build the structured starts, bound every
corner value at direction (w1, w2) by w1 C1 + w2 C2, and where a projected
start already comes within ``_WITNESS_TIE`` of that bound (at the axis
weights, on the shipped channels with a positive capacity) the
direction's later starts never ascend.
Ascent may stop at a local optimum; every emitted point is nevertheless a
certified achievable point because its pentagon is re-evaluated exactly
from the stored auxiliary input.

Outer bounds are the cut-set values: per-user bounds that give the free
user one or two looks at the output depending on the feedback model, and
the joint-input sum-rate bound.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from ._util import _TINY, LN2, check_count, is_number, project_rows_to_simplex
from .channel import (ConditionalPmf, JointDist, Mac, Pmf, partner_channels,
                      two_look_channel)
from .errors import InputError
from .infotheory import conditional_mi, mutual_information
from .optimize import DEFAULT_TOL, _largest_upper, max_support_input, maximize_joint_mi

RATE_FLOOR = 1e-12
# Random ascent starts per direction, and the seed they are drawn from.
DEFAULT_RESTARTS = 25
DEFAULT_SEED = 0


@dataclass(frozen=True, eq=False)
class CLInput:
    """An auxiliary variable with conditionally independent inputs.

    Stored factored as ``p(u)``, ``p(x1|u)``, ``p(x2|u)``; the
    conditional independence of the two inputs given U is structural, it
    is never re-estimated from a joint table.
    """

    p_u: Pmf
    p_x1_given_u: ConditionalPmf
    p_x2_given_u: ConditionalPmf

    def __post_init__(self):
        if (self.p_x1_given_u.input_alphabet != self.p_u.alphabet
                or self.p_x2_given_u.input_alphabet != self.p_u.alphabet):
            raise InputError("CLInput: conditionals not indexed by the U alphabet")

    def joint_with(self, mac: Mac) -> JointDist:
        """The joint law p(u) p(x1|u) p(x2|u) p(y|x1, x2)."""
        a1 = self.p_x1_given_u.output_alphabet
        a2 = self.p_x2_given_u.output_alphabet
        if a1 != mac.x1_alphabet or a2 != mac.x2_alphabet:
            raise InputError("CLInput alphabets do not match the channel")
        table = (self.p_u.probs[:, None, None, None]
                 * self.p_x1_given_u.rows[:, :, None, None]
                 * self.p_x2_given_u.rows[:, None, :, None]
                 * mac.pmf[None, :, :, :])
        axes = (("u", self.p_u.alphabet), ("x1", mac.x1_alphabet),
                ("x2", mac.x2_alphabet), ("y", mac.y_alphabet))
        return JointDist(axes, table)

    def to_dict(self) -> dict:
        return {
            "u": list(self.p_u.alphabet),
            "p_u": [float(v) for v in self.p_u.probs],
            "p_x1_given_u": [[float(v) for v in row] for row in self.p_x1_given_u.rows],
            "p_x2_given_u": [[float(v) for v in row] for row in self.p_x2_given_u.rows],
        }


@dataclass(frozen=True)
class RatePair:
    r1: float
    r2: float

    def __post_init__(self):
        for name, v in (("r1", self.r1), ("r2", self.r2)):
            if not math.isfinite(v):
                raise InputError(f"RatePair: {name} is not finite ({v!r})")
            if v < -RATE_FLOOR:
                raise InputError(f"RatePair: {name} is negative ({v!r})")
        object.__setattr__(self, "r1", max(float(self.r1), 0.0))
        object.__setattr__(self, "r2", max(float(self.r2), 0.0))


@dataclass(frozen=True)
class FrontierPoint:
    weights: tuple[float, float]
    rates: RatePair
    value: float
    witness: CLInput


@dataclass(frozen=True)
class RegionFrontier:
    """Scalarized frontier points, sorted from the R1 axis toward R2."""

    points: tuple[FrontierPoint, ...]

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("w1,w2,R1,R2,provenance\n")
        for pt in self.points:
            buf.write(f"{pt.weights[0]!r},{pt.weights[1]!r},"
                      f"{pt.rates.r1!r},{pt.rates.r2!r},inner_bound\n")
        return buf.getvalue()

    def to_dict(self) -> dict:
        return {
            "provenance": "inner_bound",
            "points": [
                {
                    "w1": pt.weights[0],
                    "w2": pt.weights[1],
                    "R1": pt.rates.r1,
                    "R2": pt.rates.r2,
                    "value": pt.value,
                    "witness": pt.witness.to_dict(),
                }
                for pt in self.points
            ],
        }


def cover_leung_bounds(mac: Mac, q: CLInput) -> tuple[float, float, float]:
    """The three pentagon bounds (b1, b2, bsum) for one auxiliary input."""
    joint = q.joint_with(mac)
    b1 = conditional_mi(joint, "x1", "y", ("u", "x2"))
    b2 = conditional_mi(joint, "x2", "y", ("u", "x1"))
    bsum = mutual_information(joint, ("x1", "x2"), "y")
    return b1, b2, bsum


def default_weight_fan(n: int = 17) -> list[tuple[float, float]]:
    """n weight directions sweeping from (1, 0) to (0, 1); ``n`` is an integer of at least 2."""
    check_count("n", n, 2)
    return [(1.0 - k / (n - 1), k / (n - 1)) for k in range(n)]


def _weight_floats(weight) -> tuple[float, float]:
    """A weight pair as two Python floats; anything but two real numbers (not bools) raises."""
    pair = tuple(weight) if np.iterable(weight) else ()
    if len(pair) != 2 or not all(map(is_number, pair)):
        raise InputError(f"weight {weight!r} is not a pair of numbers")
    return float(pair[0]), float(pair[1])


def check_weight(weight) -> tuple[float, float]:
    """The direction ``(w1, w2) / (w1 + w2)`` of a pair of two real numbers that are
    finite, nonnegative, not both zero and whose sum does not overflow; the frontier and
    lattice tolerances are in bits of the direction's corner value."""
    w1, w2 = _weight_floats(weight)
    if not (0.0 <= w1 < np.inf and 0.0 <= w2 < np.inf and w1 + w2 > 0.0):
        raise InputError(
            f"weight ({w1}, {w2}) must be finite, nonnegative and not both zero")
    if w1 + w2 == np.inf:
        raise InputError(f"weight ({w1}, {w2}): the sum w1 + w2 overflows")
    return w1 / (w1 + w2), w2 / (w1 + w2)


# ---------------------------------------------------------------------------
# Batched pentagon evaluation: the ascent inner loop evaluates many
# auxiliary inputs at once. The lattice sweep sums its own per-symbol
# tables and evaluates only its winner here.


def _rows_matmul(a: np.ndarray, m: np.ndarray) -> np.ndarray:
    """``a @ m`` over the last axis of ``a``, as one 2-D matrix product.

    numpy takes a one-row product as a vector product, whose last bits can
    differ from the same row's in a matrix product, so a lone row is
    multiplied as a two-row matrix of itself: a row gets the same bits
    alone or in a batch.
    """
    rows = a.reshape(-1, a.shape[-1])
    out = rows @ m if len(rows) > 1 else (np.concatenate([rows, rows]) @ m)[:1]
    return out.reshape(*a.shape[:-1], m.shape[1])


def _sum_last(a: np.ndarray) -> np.ndarray:
    """The sum over the last axis, one column added at a time.

    For rows shorter than 8 this is the order ``a.sum(axis=-1)`` takes, so
    the result is bitwise the same, but each add is one elementwise pass
    over all rows instead of a reduction per row. Unlike a matrix product
    with a ones vector, whose order depends on how the BLAS blocks the
    rows, the result does not depend on the batch shape: a row sums to
    the same bits alone or in a batch.
    """
    total = a[..., 0]
    for k in range(1, a.shape[-1]):
        total = total + a[..., k]
    return total


def _entropy_y(p: np.ndarray) -> np.ndarray:
    """``entropy_bits(p, axis=-1)``, with the sum over y taken by :func:`_sum_last`.

    The terms p log p are formed in one scratch array, so a batch of output
    laws costs one temporary of its size rather than three.
    """
    terms = np.maximum(p, _TINY)
    np.log(terms, out=terms)
    terms *= p
    return -_sum_last(terms) / LN2


def _output_given_x1(mac_pmf: np.ndarray, p_ux1: np.ndarray,
                     p_x2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Output laws p(y|u,x1) (B, U, n1, ny) and p(y) (B, ny).

    ``p_ux1`` is p(u) p(x1|u) (B, U, n1). Given U the inputs are
    independent, so a conditional averages the channel over the other
    input's row; rows with p(u) = 0 still get one. It is one matrix
    product over all B U rows,

        p(y|u,x1) = p(x2|u) (B U, n2) @ W(y|x1,x2) as (n2, n1 ny),

    and p(y) is, per batch row, p(u) p(x1|u) as (1, U n1) @ p(y|u,x1) as (U n1, ny).
    """
    b, u, n1 = p_ux1.shape
    n2, ny = mac_pmf.shape[1:]
    p_y_ux1 = _rows_matmul(p_x2, mac_pmf.transpose(1, 0, 2).reshape(n2, n1 * ny))
    p_y = (p_ux1.reshape(b, 1, u * n1) @ p_y_ux1.reshape(b, u * n1, ny))[:, 0]
    return p_y_ux1.reshape(b, u, n1, ny), p_y


def _output_given_x2(mac_pmf: np.ndarray, p_x1: np.ndarray) -> np.ndarray:
    """Output law p(y|u,x2) (B, U, n2, ny) = p(x1|u) (B U, n1) @ W as (n1, n2 ny)."""
    b, u, n1 = p_x1.shape
    n2, ny = mac_pmf.shape[1:]
    return _rows_matmul(p_x1, mac_pmf.reshape(n1, n2 * ny)).reshape(b, u, n2, ny)


def batch_pentagon(mac_pmf: np.ndarray, p_u: np.ndarray, p_x1: np.ndarray,
                   p_x2: np.ndarray, *, h_w: np.ndarray | None = None,
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pentagon bounds for a batch of factored auxiliary inputs.

    Shapes: ``p_u (B, U)``, ``p_x1 (B, U, n1)``, ``p_x2 (B, U, n2)``;
    returns three length-B arrays (b1, b2, bsum). Y depends on U only
    through the inputs, so with H(Y|X1,X2) the mean entropy of the
    channel rows under q(u, x1, x2) = p(u) p(x1|u) p(x2|u):

        b1   = H(Y | U, X2) - H(Y | X1, X2)
        b2   = H(Y | U, X1) - H(Y | X1, X2)
        bsum = H(Y) - H(Y | X1, X2)

    Each weighted entropy sum is a product summed over the (u, x) axes,
    one flat row of U n entries per batch row:

        H(Y | X1, X2) = sum (p(u) p(x1|u) as (B U, n1) @ H(W) (n1, n2)) * p(x2|u)
        H(Y | U, X1)  = sum p(u) p(x1|u) * H(p(y|u,x1))
        H(Y | U, X2)  = sum p(u) p(x2|u) * H(p(y|u,x2))

    with H(W)[x1, x2] the entropy of the channel row W(.|x1,x2). Every
    entropy here, H(W) included, sums p log p over y by :func:`_sum_last`,
    one column of all B U n rows at a time, so an output law equal to a
    channel row (a point-mass input) has bitwise the row's entropy.
    ``h_w`` is H(W) when the caller already holds it (the ascent does);
    by default it is computed from ``mac_pmf``.
    """
    if h_w is None:
        h_w = _entropy_y(mac_pmf)
    b = p_u.shape[0]
    p_ux1 = p_u[:, :, None] * p_x1
    p_ux2 = p_u[:, :, None] * p_x2
    h_c = (_rows_matmul(p_ux1, h_w) * p_x2).reshape(b, -1).sum(axis=1)
    # One output law of B U n ny entries is held at a time.
    p_y_ux1, p_y = _output_given_x1(mac_pmf, p_ux1, p_x2)
    h_ux1 = (p_ux1 * _entropy_y(p_y_ux1)).reshape(b, -1).sum(axis=1)
    del p_y_ux1
    h_ux2 = (p_ux2 * _entropy_y(_output_given_x2(mac_pmf, p_x1))).reshape(b, -1).sum(axis=1)
    b1 = np.maximum(h_ux2 - h_c, 0.0)
    b2 = np.maximum(h_ux1 - h_c, 0.0)
    bsum = np.maximum(_entropy_y(p_y) - h_c, 0.0)
    return b1, b2, bsum


def pentagon_corners(b1, b2, bsum, w1: float, w2: float):
    """Best weighted value over the pentagon and the achieving corner.

    For nonnegative weights the optimum sits at one of the two dominant
    corners, a = (b1, min(b2, bsum - b1)) or b = (min(b1, bsum - b2), b2).
    Value a less value b is (w1 - w2)(b1 + b2 - bsum) where the sum bound
    binds and 0 where not, so the weights pick: a iff w1 >= w2. Returns
    (value, r1, r2) arrays for batched inputs, value = w1 r1 + w2 r2.
    """
    use_a = np.asarray(w1) >= w2
    r1 = np.where(use_a, b1, np.minimum(b1, bsum - b2))
    r2 = np.where(use_a, np.minimum(b2, bsum - b1), b2)
    return w1 * r1 + w2 * r2, r1, r2


def frontier_point(b1, b2, bsum, weight) -> tuple[tuple[float, float], RatePair, float]:
    """A pentagon's point at a weight pair: the pair as floats, the rates of the corner
    its direction (:func:`check_weight`) picks (:func:`pentagon_corners`), and their
    value w1 R1 + w2 R2 at the pair; an overflowing value raises an InputError."""
    (d1, d2), (w1, w2) = check_weight(weight), _weight_floats(weight)
    _, r1, r2 = (float(r) for r in pentagon_corners(*np.reshape((b1, b2, bsum), 3), d1, d2))
    value = w1 * r1 + w2 * r2
    if not np.isfinite(value):
        raise InputError(f"weight ({w1}, {w2}): the frontier value at it overflows")
    return (w1, w2), RatePair(r1, r2), value


# ---------------------------------------------------------------------------
# Projected gradient ascent over (p_u, p_x1|u, p_x2|u).

_STEP_LADDER = (1.0, 0.3, 0.1, 0.03, 0.01, 0.003, 0.001)
_IMPROVE_TOL = 1e-11  # bits of the direction's corner value, as _WITNESS_TIE

# Rows the pooled ascent moves at once: the first this many unfinished rows
# in start order. A step evaluates one pentagon per such row and ladder rung,
# so this bounds a step's arrays, and so peak memory, whatever the number of
# directions and starts; a smaller pool means more steps, each paying numpy's
# fixed per-call cost.
_SLOTS = 64

# A start whose value is at least its direction's outer value w1 C1 + w2 C2
# less this is certified: no start can do better by more, so where a
# projected start is already certified the direction's later starts never
# ascend. The witness is the first start within this of the lesser of the
# outer value and the best value. In bits of the corner value at the
# direction (:func:`check_weight`) that the ascent runs on.
_WITNESS_TIE = 1e-12

# Conditional output masses are floored here before taking log2. Mass
# moved onto a zero-mass symbol that alone reaches some output has an
# infinite partial derivative; the floor caps it at a large finite one.
_LOG_FLOOR = 1e-300


def _log2_floored(p: np.ndarray) -> np.ndarray:
    return np.log2(np.maximum(p, _LOG_FLOOR))


def _centre_on_support(p: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Subtract from each simplex row of ``g`` its mean over the support of ``p``."""
    on = p > 0.0
    return g - (_sum_last(g * on) / on.sum(axis=-1))[..., None]


class _AscentProblem:
    """The corner objective of one channel and auxiliary cardinality.

    Weights are arguments, not state: ``w1`` and ``w2`` are per-row arrays
    (or scalars) that broadcast against the batch, so one problem serves
    every direction of a fan.
    """

    def __init__(self, mac: Mac, u_card: int):
        self.pmf = mac.pmf
        self.u = u_card
        self.n1, self.n2, _ = mac.shape
        # H(W)[x1, x2], the entropy of the channel row W(.|x1,x2).
        self.h_w = _entropy_y(self.pmf)
        # W(y|x1,x2) as (n2 ny, n1) and (n1 ny, n2) matrices.
        self.w_by_x2 = self.pmf.transpose(1, 2, 0).reshape(-1, self.n1)
        self.w_by_x1 = self.pmf.transpose(0, 2, 1).reshape(-1, self.n2)

    def split(self, theta: np.ndarray):
        """The parts p(u) (..., U), p(x1|u) (..., U, n1) and p(x2|u) (..., U, n2)
        of parameter rows ``theta`` (..., U (1 + n1 + n2)).

        A parameter row is p(u), then the U rows of p(x1|u), then the U rows
        of p(x2|u), each conditional flattened row by row. Only this and
        :meth:`join`, its inverse, know that layout.
        """
        lead, u, n1 = theta.shape[:-1], self.u, self.n1
        p_u = theta[..., :u]
        p1 = theta[..., u:u + u * n1].reshape(*lead, u, n1)
        p2 = theta[..., u + u * n1:].reshape(*lead, u, self.n2)
        return p_u, p1, p2

    def join(self, p_u: np.ndarray, p1: np.ndarray, p2: np.ndarray) -> np.ndarray:
        """Parameter rows from their parts, the inverse of :meth:`split`."""
        lead, u = p_u.shape[:-1], self.u  # lead may hold a 0: no -1 in the shapes
        return np.concatenate([p_u, p1.reshape(*lead, u * self.n1),
                               p2.reshape(*lead, u * self.n2)], axis=-1)

    def value(self, theta: np.ndarray, w1, w2) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The projected rows, their corner values and whether each row's sum bound binds.

        Row k's corner is the one its weights ``(w1[k], w2[k])`` pick
        (:func:`pentagon_corners`); the bound binds where it is not (b1, b2).

        The pentagon is evaluated on the projected simplex rows as they
        come back, contiguous, before they are joined into parameter rows.
        """
        p_u, p1, p2 = (project_rows_to_simplex(part) for part in self.split(theta))
        b1, b2, bsum = batch_pentagon(self.pmf, p_u, p1, p2, h_w=self.h_w)
        value, r1, r2 = pentagon_corners(b1, b2, bsum, w1, w2)
        return self.join(p_u, p1, p2), value, (r1 != b1) | (r2 != b2)

    def gradient(self, theta: np.ndarray, binds: np.ndarray, w1, w2) -> np.ndarray:
        """Tangent gradient of the active corner piece at projected rows ``theta``.

        ``binds`` says, per row, whether the sum bound binds, as :meth:`value`
        returns it, and ``w1``, ``w2`` are the rows' weights.

        The corner value is ``c1 b1 + c2 b2 + cs bsum``: cs = min(w1, w2) where
        the bound binds (the corner is (b1, bsum - b1) or (bsum - b2, b2)), else
        0, and c1 = w1 - cs, c2 = w2 - cs.
        With the joint mass ``q(u, x1, x2)`` as free variables its partial
        derivative is

            sum_y W(y|x1,x2) [(c1 + c2 + cs) log2 W(y|x1,x2)
                              - c1 log2 p(y|u,x2) - c2 log2 p(y|u,x1)
                              - cs log2 p(y)]

        up to a constant, chained through ``q = p(u) p(x1|u) p(x2|u)``.
        Conditionals given U are the rows themselves, so every partial is
        exact and finite, also where p(u) = 0; the one infinite case (an
        output reached only through a zero-mass symbol) is capped by
        ``_LOG_FLOOR``. Each simplex row is centred on its support, which
        removes the per-row constants.

        Only the partials' sums against p(x2|u) (over x2) and against
        p(x1|u) (over x1) are needed, so the (B, U, n1, n2) array of
        partials is never formed. Summed over x2, with ``p(x2|u) (B U, n2)``:

            (c1 + c2 + cs) p(x2|u) @ (sum_y W log2 W)^T          (n2, n1)
            - c1 (p(x2|u) log2 p(y|u,x2)) as (B U, n2 ny) @ W as (n2 ny, n1)
            - sum_y p(y|u,x1) [c2 log2 p(y|u,x1) + cs log2 p(y)],

        since summing W against p(x2|u) gives p(y|u,x1); the sum over x1
        is the same with the users swapped. The gradient in p(x1|u) is
        p(u) times the first sum, in p(x2|u) p(u) times the second, and
        in p(u) the first sum's p(x1|u)-weighted total. The sums over y
        and over x1, and the support means, add columns by
        :func:`_sum_last`.
        """
        b = theta.shape[0]
        p_u, p1, p2 = self.split(theta)
        cs = np.where(binds, np.minimum(w1, w2), 0.0)
        c1, c2 = w1 - cs, w2 - cs

        p_y_ux1, p_y = _output_given_x1(self.pmf, p_u[:, :, None] * p1, p2)
        p_y_ux2 = _output_given_x2(self.pmf, p1)
        log_y_ux1, log_y_ux2 = _log2_floored(p_y_ux1), _log2_floored(p_y_ux2)
        log_y = _log2_floored(p_y)[:, None, None, :]
        # d_x2 and d_x1 are the partials summed over x2 and over x1.
        c1, c2, cs = c1[:, None, None], c2[:, None, None], cs[:, None, None]
        neg_c = -(c1 + c2 + cs)
        d_x2 = (neg_c * _rows_matmul(p2, self.h_w.T)
                - c1 * _rows_matmul((p2[..., None] * log_y_ux2).reshape(b, self.u, -1),
                                    self.w_by_x2)
                - _sum_last(p_y_ux1 * (c2[..., None] * log_y_ux1 + cs[..., None] * log_y)))
        d_x1 = (neg_c * _rows_matmul(p1, self.h_w)
                - c2 * _rows_matmul((p1[..., None] * log_y_ux1).reshape(b, self.u, -1),
                                    self.w_by_x1)
                - _sum_last(p_y_ux2 * (c1[..., None] * log_y_ux2 + cs[..., None] * log_y)))
        g_u = _sum_last(p1 * d_x2)
        g1 = p_u[:, :, None] * d_x2
        g2 = p_u[:, :, None] * d_x1
        return self.join(_centre_on_support(p_u, g_u), _centre_on_support(p1, g1),
                         _centre_on_support(p2, g2))

    def ascend(self, theta0: np.ndarray, w1: np.ndarray, w2: np.ndarray,
               outer: np.ndarray, max_iter: int = 120) -> tuple[np.ndarray, np.ndarray]:
        """Run one independent ascent per start of ``theta0`` (D, S, dim), the
        S starts of D directions, direction k's at weights ``(w1[k], w2[k])``,
        stepping at most ``_SLOTS`` starts at once.

        Starts never interact; pooling exists purely to amortize numpy's
        per-call overhead. A start stops at its first step that does not
        improve (the next would repeat it bit for bit) or after ``max_iter``
        steps of its own. It also leaves the pool once an earlier start of
        its direction is certified at its projected start: its value
        reaches ``outer[k] - _WITNESS_TIE``, where ``outer[k]`` bounds every
        corner value at direction k (an infinite or NaN bound certifies
        nothing). The witness rule of :func:`cover_leung_frontier` never
        picks a start after the first certified one, so only work it cannot
        use is dropped. The cut is made once, before the first step: on
        the shipped channels a direction certifies at its projected starts
        or not at all (the axis directions, and every direction where both
        capacities are 0).

        Every start's point, value, binding flag and step count stay in
        start order; the starts that step together are the first ``_SLOTS``
        live ones, gathered and stepped until one of them stops, then written
        back and gathered again. The kernels give a row the same bits in
        any batch, so every start that is not dropped ends exactly where it
        would alone, and ``_SLOTS`` bounds a step's arrays whatever the
        number of starts. Returns the final
        (projected) parameter rows (D, S, dim) and their objective values
        (D, S); a dropped start keeps the point it had reached.
        """
        shape = theta0.shape
        per_dir, dim = shape[1:]
        theta0 = theta0.reshape(-1, dim)
        n = len(theta0)
        ladder = np.asarray(_STEP_LADDER)
        w = np.repeat(np.stack([w1, w2]), per_dir, axis=1)
        floor = np.repeat(np.asarray(outer) - _WITNESS_TIE, per_dir)
        # Projected starts, their values and binding flags; each row's
        # latest point overwrites its start.
        theta, best, binds = np.empty_like(theta0), np.empty(n), np.empty(n, dtype=bool)
        for lo in range(0, n, _SLOTS * ladder.size):
            rows = slice(lo, lo + _SLOTS * ladder.size)
            theta[rows], best[rows], binds[rows] = self.value(theta0[rows], *w[:, rows])
        steps = np.zeros(n, dtype=np.int64)
        live = np.full(n, max_iter > 0) & _at_or_before_cut(best >= floor, per_dir)
        while live.any():
            rows = np.flatnonzero(live)[:_SLOTS]
            th, val, bd, st, sw = theta[rows], best[rows], binds[rows], steps[rows], w[:, rows]
            sw_ladder = np.repeat(sw, ladder.size, axis=1)
            stop = np.zeros(rows.size, dtype=bool)
            while not stop.any():
                grads = self.gradient(th, bd, *sw)
                dirs = grads / np.maximum(np.abs(grads).max(axis=1), 1e-300)[:, None]
                cands = th[:, None, :] + ladder[None, :, None] * dirs[:, None, :]
                cthetas, cvals, cbinds = self.value(cands.reshape(-1, dim), *sw_ladder)
                cvals = cvals.reshape(rows.size, -1)
                pick = (np.arange(rows.size), np.argmax(cvals, axis=1))
                cbest = cvals[pick]
                # A zero gradient re-evaluates the row itself, which never improves.
                improved = cbest > val + _IMPROVE_TOL
                th[improved] = cthetas.reshape(rows.size, -1, dim)[pick][improved]
                val[improved] = cbest[improved]
                bd[improved] = cbinds.reshape(rows.size, -1)[pick][improved]
                del cthetas  # not held through the next step's candidates
                st += 1
                stop = ~improved | (st >= max_iter)
            theta[rows], best[rows], binds[rows], steps[rows] = th, val, bd, st
            live[rows[stop]] = False
        return theta.reshape(shape), best.reshape(shape[:2])


def _at_or_before_cut(certified: np.ndarray, per_dir: int) -> np.ndarray:
    """Rows, ``per_dir`` starts per direction, with no certified start before them."""
    by_dir = certified.reshape(-1, per_dir)
    return (np.cumsum(by_dir, axis=1) <= by_dir).ravel()


def _structured_starts(mac: Mac, problem: _AscentProblem,
                       tol: float) -> tuple[np.ndarray, tuple[float, float]]:
    """Deterministic ascent seeds, as rows: uniform plus one per constant-partner corner.

    Also returns (C1, C2), each user's perfect-feedback cut-set value
    (:func:`cutset_single_rate`), read by :func:`_largest_upper` from the
    solves the corner starts already make.
    """
    u, n1, n2 = problem.u, problem.n1, problem.n2
    uniform = (np.full(u, 1.0 / u), np.full((u, n1), 1.0 / n1), np.full((u, n2), 1.0 / n2))
    starts, uppers = [problem.join(*uniform)], []

    # U is a point mass at u0; given u0 the free user sends its best input
    # for the partner's constant, and the partner sends that constant.
    for free in (1, 2):
        channels = partner_channels(mac, free)
        solves = [max_support_input(ch, tol=tol) for ch in channels.values()]
        for solve, point in zip(solves, np.eye(len(channels))):
            at_u0 = (solve.argmax_input.probs, point)
            p1, p2 = uniform[1].copy(), uniform[2].copy()
            p1[0], p2[0] = at_u0 if free == 1 else at_u0[::-1]
            starts.append(problem.join(np.eye(u)[0], p1, p2))
        uppers.append(_largest_upper(solves))
    return np.array(starts), tuple(uppers)


def cover_leung_frontier(mac: Mac, weights=None, restarts: int = DEFAULT_RESTARTS,
                         u_card: int | None = None, seed: int = DEFAULT_SEED,
                         tol: float = DEFAULT_TOL,
                         max_iter: int = 120) -> RegionFrontier:
    """Scalarized inner-bound frontier over auxiliary inputs.

    For each weight direction the pentagon corner objective is maximized
    by projected ascent from deterministic structured starts plus
    ``restarts`` random starts seeded per direction. The (direction, start)
    rows of the whole fan run as one pooled ascent with per-row weights
    (:meth:`_AscentProblem.ascend`); each row takes the steps it would take
    alone. The random starts of the direction at position k of ``weights``
    are stream k of ``SeedSequence(seed).spawn``, so a point depends on its
    direction's position, not on the other directions: a pair at position k
    gets the same point in every list of pairs.

    Each pair runs as its direction (w1, w2) (:func:`check_weight`), so its
    scale moves no witness or rate; each point is the witness pentagon's
    :func:`frontier_point` at the pair. The structured starts'
    capacity solves also give each user's perfect-feedback cut-set value C1,
    C2, and w1 C1 + w2 C2 bounds every corner value at direction (w1, w2). A start
    whose value reaches that bound less ``_WITNESS_TIE`` is certified, and
    where a projected start is already certified the direction's later
    starts never ascend. The witness is the first start within
    ``_WITNESS_TIE`` of the lesser of the bound and the direction's best
    value (of the best value where the bound is infinite or NaN); it comes
    at or before the first certified start, so never from a dropped one.
    Every returned point re-evaluates its pentagon exactly from the stored
    witness, so points are certified achievable regardless of how well the
    ascent did.

    The default auxiliary cardinality is ``|X1| |X2| + 2``, a standard
    support-size heuristic with slack; override ``u_card`` to taste.
    ``restarts``, ``seed`` and ``max_iter`` must be nonnegative integers,
    ``u_card`` a positive one, and ``weights`` must name at least one
    direction.
    """
    if u_card is None:
        u_card = mac.shape[0] * mac.shape[1] + 2
    for name, v, least in (("restarts", restarts, 0), ("seed", seed, 0),
                           ("max_iter", max_iter, 0), ("u_card", u_card, 1)):
        check_count(name, v, least)
    weights = default_weight_fan() if weights is None else list(weights)
    dirs = [check_weight(w) for w in weights]
    if not dirs:
        raise InputError("no weight directions given")
    problem = _AscentProblem(mac, u_card)
    structured, (c1, c2) = _structured_starts(mac, problem, tol)
    per_dir = len(structured) + restarts
    # One block of start rows per direction: the structured starts, then
    # the direction's seeded random starts.
    starts = np.empty((len(weights), per_dir, structured.shape[1]))
    starts[:, :len(structured)] = structured
    for block, wseed in zip(starts, np.random.SeedSequence(seed).spawn(len(weights))):
        block[len(structured):] = _random_starts(np.random.default_rng(wseed), problem, restarts)
    # r1 <= b1 <= C1 and r2 <= b2 <= C2 bound every corner value.
    outer = np.array([d1 * c1 + d2 * c2 for d1, d2 in dirs])
    thetas, vals = problem.ascend(starts, *np.array(dirs).T, outer, max_iter=max_iter)

    points = []
    for w, o, dir_thetas, dir_vals in zip(weights, outer, thetas, vals):
        tied = dir_vals >= np.fmin(o, dir_vals.max()) - _WITNESS_TIE
        q = _theta_to_clinput(dir_thetas[int(np.flatnonzero(tied)[0])], problem, mac)
        points.append(FrontierPoint(*frontier_point(*cover_leung_bounds(mac, q), w), witness=q))

    return RegionFrontier(tuple(pt for _, pt in sorted(zip(dirs, points), key=lambda t: t[0][1])))


def _random_starts(rng: np.random.Generator, problem: _AscentProblem, k: int) -> np.ndarray:
    """``k`` parameter rows drawn in one block, bit for bit the ``rng.dirichlet(ones)``
    draws of p(u), then each row of p(x1|u) and of p(x2|u): shape-1 gamma variates
    in layout order, each simplex times the reciprocal of its sequential sum."""
    width = problem.u * (1 + problem.n1 + problem.n2)
    parts = problem.split(rng.standard_gamma(1.0, size=(k, width)))
    return problem.join(*(g * (1.0 / np.cumsum(g, axis=-1)[..., -1:]) for g in parts))


def _theta_to_clinput(theta: np.ndarray, problem: _AscentProblem, mac: Mac) -> CLInput:
    """The witness for an ascent row, which ``ascend`` already projected."""
    p_u, p1, p2 = problem.split(theta)
    u_labels = tuple(f"u{k}" for k in range(problem.u))
    return CLInput(
        p_u=Pmf(u_labels, p_u),
        p_x1_given_u=ConditionalPmf(u_labels, mac.x1_alphabet, p1),
        p_x2_given_u=ConditionalPmf(u_labels, mac.x2_alphabet, p2),
    )


# ---------------------------------------------------------------------------
# Cut-set outer bounds.


def cutset_single_rate(mac: Mac, user: int, model: str,
                       tol: float = DEFAULT_TOL) -> float:
    """Cut-set bound on one user's rate under the given feedback model.

    With perfect feedback the partner's feedback signal is the output
    itself, so the bound collapses to the best single-look capacity over
    the partner's constants. With one or two independent feedback looks
    the free user's cut carries the output plus one independent copy, so
    the bound is the best two-look capacity; the two independent-look
    models give the same number because only the partner's feedback
    signal enters this cut.

    Each capacity is one :func:`~macfeedback.optimize.max_support_input`
    solve, read from the upper end of its certificate, so the bound holds
    even when the solve stops short of ``tol``.
    """
    channels = partner_channels(mac, user)
    model = str(model).upper()
    if model not in ("PF", "IF", "DF"):
        raise InputError(f"model must be PF, IF or DF, got {model!r}")
    if model != "PF":
        channels = {k: two_look_channel(ch) for k, ch in channels.items()}
    return _largest_upper(max_support_input(ch, tol=tol) for ch in channels.values())


def cutset_sum_rate(mac: Mac, tol: float = DEFAULT_TOL) -> float:
    """Cut-set bound on the sum rate: the best joint-input information.

    Like :func:`cutset_single_rate`, it reads the upper end of the
    capacity certificate, so it never lies below the true bound.
    """
    return maximize_joint_mi(mac, tol=tol).upper
