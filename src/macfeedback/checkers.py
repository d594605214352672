"""Decision procedures built on the capacity and region machinery.

These answer the operational questions about a channel:

* the single-user capacity (no feedback and perfect feedback agree on
  it), with the partner frozen at its best constant;
* whether one independent look at the output, relayed by the idle
  partner via compress-forward, strictly beats that capacity (a
  sufficient condition evaluated at the capacity-achieving input);
* the full compress-forward rate curve as the idle partner's input mixes
  toward a second symbol, with the analytic slope at the start;
* the (1 - p) scaling of the achievable frontier under output erasure;
* for additive channels, the exact classification of when the extra look
  helps, via the joint-input bound and the support-partition condition,
  for both users from one bound and one sum channel.

Each analysis is one function of the state its callers already hold: the
gain condition reads a :class:`SingleRateResult`, and the compress-forward
curve and rate read the partner-constant channels (``partner_channels``
or ``SingleRateResult.channels``), so nothing is solved or built twice.

All capacities and bounds are in bits. Reports serialize to plain dicts
with stable field names; ``inf`` values are emitted as the string "inf"
to keep the JSON strict.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from ._util import check_probability, entropy_bits, is_number
from .channel import (ConditionalPmf, JointDist, Mac, Pmf, _check_free_input,
                      erasure_extend, partner_channels, two_look_rows)
from .errors import InputError
from .groups import (EquivClassPartition, GroupSpec, channel_given_sum,
                     equivalence_classes, verify_additive)
from .infotheory import (conditional_entropy, conditional_mi, kl_divergence_vec,
                         mutual_information)
from .optimize import (DEFAULT_TOL, _largest_upper, check_tol, max_support_input,
                       maximize_joint_mi)
from .regions import (DEFAULT_RESTARTS, DEFAULT_SEED, cover_leung_frontier,
                      default_weight_fan)

DEGENERATE_EPS = 1e-12
STRICT_MARGIN = 1e-9
CLASSIFY_TOL = 1e-6


def _json_num(v):
    if v is None:
        return None
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    if math.isnan(v):
        return "nan"
    return float(v)


@dataclass(frozen=True, eq=False)
class SingleRateResult:
    """Best one-user rate with the partner constant, and how it is achieved.

    ``maximizer_set`` lists every partner symbol whose induced capacity
    ties the best one within the requested tolerance; ``inputs`` holds a
    maximal-support capacity-achieving input for every partner symbol,
    and ``p_star`` is the one for ``xk_star``, the first symbol in label
    order within 1e-13 of the best. ``value`` is that symbol's, so it is
    the value of the printed witness. ``upper`` is the largest
    outer end of the per-symbol certificates, read as a cut-set value is
    (``optimize._largest_upper``), so ``value <= rate <= upper``.
    ``channels`` holds the partner-constant channels those inputs solve,
    keyed like ``inputs``, so that the gain condition and the
    compress-forward curve read them instead of building them again.
    """

    user: int
    value: float
    xk_star: str
    maximizer_set: tuple[str, ...]
    per_symbol: dict[str, float]
    inputs: dict[str, Pmf]
    upper: float
    channels: dict[str, ConditionalPmf]  # the solved partner channels; not serialized

    @property
    def p_star(self) -> Pmf:
        return self.inputs[self.xk_star]

    def to_dict(self) -> dict:
        return {
            "user": self.user,
            "value": self.value,
            "p_star": self.p_star.to_dict(),
            "xk_star": self.xk_star,
            "maximizer_set": list(self.maximizer_set),
            "per_symbol": {k: float(v) for k, v in self.per_symbol.items()},
        }


def single_rate_capacity(mac: Mac, user: int, tol: float = DEFAULT_TOL) -> SingleRateResult:
    """max over p(x_j) and partner constants x_k of I(X_j; Y | X_k = x_k).

    The inner optimizer runs two orders of magnitude tighter than ``tol``
    so that mathematically tied partner symbols land inside the ``tol``
    tie window, but never below the smallest positive float, where a tiny
    ``tol`` would underflow to 0. The partner channels are built once,
    here; the gain condition and its callers reuse ``inputs`` and
    ``channels``.
    """
    check_tol(tol)
    channels = partner_channels(mac, user)
    inner_tol = max(tol / 100.0, math.ulp(0.0))
    solves = {sym: max_support_input(ch, tol=inner_tol) for sym, ch in channels.items()}
    per_symbol = {sym: res.value for sym, res in solves.items()}
    best_val = max(per_symbol.values())
    # First symbol in alphabet order within noise of the maximum, so ties
    # resolve by label rather than by which float came out a hair larger.
    best_sym = next(s for s in channels
                    if per_symbol[s] >= best_val - 1e-13)
    maximizers = tuple(s for s in channels
                       if per_symbol[s] >= best_val - (tol + 1e-12))
    return SingleRateResult(
        user=user,
        value=per_symbol[best_sym],
        xk_star=best_sym,
        maximizer_set=maximizers,
        per_symbol=per_symbol,
        inputs={sym: res.argmax_input for sym, res in solves.items()},
        upper=_largest_upper(solves.values()),
        channels=channels,
    )


@dataclass(frozen=True)
class PairEvaluation:
    """One (xk_star, xbar_k) candidate in the gain condition, fully logged."""

    xk_star: str
    xbar_k: str
    lhs: float | None
    rhs: float
    divergence: float
    factor: float | None
    skipped_degenerate: bool

    def to_dict(self) -> dict:
        return {
            "xk_star": self.xk_star,
            "xbar_k": self.xbar_k,
            "lhs": _json_num(self.lhs),
            "rhs": _json_num(self.rhs),
            "divergence": _json_num(self.divergence),
            "factor": _json_num(self.factor),
            "skipped_degenerate": self.skipped_degenerate,
        }


@dataclass(frozen=True, eq=False)
class GainConditionReport:
    """Outcome of the sufficient condition for an independent-look gain."""

    user: int
    holds: bool
    witness: tuple[Pmf, str, str] | None
    lhs: float | None
    rhs: float | None
    degenerate_denominator: bool
    pairs: tuple[PairEvaluation, ...]
    note: str | None = None

    def to_dict(self) -> dict:
        witness = None
        if self.witness is not None:
            p_star, xk_star, xbar_k = self.witness
            witness = {
                "p_star": p_star.to_dict(),
                "xk_star": xk_star,
                "xbar_k": xbar_k,
            }
        return {
            "user": self.user,
            "holds": self.holds,
            "witness": witness,
            "lhs": _json_num(self.lhs),
            "rhs": _json_num(self.rhs),
            "degenerate_denominator": self.degenerate_denominator,
            "pairs": [p.to_dict() for p in self.pairs],
            "note": self.note,
        }


def _symbol_terms(ch: ConditionalPmf, p: np.ndarray):
    """Output terms of the partner-constant channel ``ch`` at free input ``p``.

    Returns p(y|x_k), H(Y|x_k), H(Y|X_j, x_k) and H(Y, Y'|x_k), where Y'
    is a second, conditionally independent look at the same inputs.
    """
    p_y = p @ ch.rows
    return (p_y, float(entropy_bits(p_y)), float(p @ entropy_bits(ch.rows, axis=1)),
            float(entropy_bits(p @ two_look_rows(ch.rows))))


def _pair_quantities(star, bar):
    """(rhs, lhs, divergence, factor) of the gain inequality for one pair.

    ``star`` and ``bar`` are the :func:`_symbol_terms` of x_k* and
    xbar_k. ``lhs`` and ``factor`` are None when the denominator
    H(Y'|Y, x_k*) vanishes. A diverging term means the mixed-in symbol
    reaches outputs the baseline constant cannot; the sign of the factor
    then decides ``lhs``.
    """
    p_y_star, h_star, h_c_star, h_yy_star = star
    p_y_bar, h_bar, h_c_bar, _ = bar
    rhs = max(h_star - h_c_star, 0.0)
    divergence = kl_divergence_vec(p_y_bar, p_y_star)
    denominator = max(h_yy_star - h_star, 0.0)
    if denominator <= DEGENERATE_EPS:
        return rhs, None, divergence, None
    factor = 1.0 - h_c_star / denominator
    if math.isinf(divergence):
        return rhs, (math.inf if factor > 0.0 else -math.inf), divergence, factor
    return rhs, max(h_bar - h_c_bar, 0.0) + divergence * factor, divergence, factor


def gain_sufficient_condition(sr: SingleRateResult) -> GainConditionReport:
    """Does one relayed independent look strictly beat the one-user capacity?

    Evaluates, for every tied best partner constant ``x_k*`` (``sr.xk_star``
    first, then the others by label) and every alternative ``xbar_k`` (by
    label), whether

        I(Xj; Y | Xk = xbar_k) + D(p(y|xbar_k) || p(y|xk*)) *
            (1 - H(Y | Xj, Xk = xk*) / H(Y' | Y, Xk = xk*))
            >  I(Xj; Y | Xk = xk*)

    at the maximal-support capacity-achieving input for ``x_k*``, reading
    the inputs and partner channels that ``sr`` (from
    :func:`single_rate_capacity`) already holds. The first strict success
    (margin ``STRICT_MARGIN``) wins; pairs whose denominator
    H(Y' | Y, Xk = xk*) vanishes are skipped and flagged. Only the
    maximal-support representative input is tried per ``x_k*``; when the
    condition fails, other capacity-achieving inputs might still certify
    a gain, and the report says so.
    """
    user, channels = sr.user, sr.channels
    candidates = [sr.xk_star] + [s for s in sr.maximizer_set if s != sr.xk_star]

    pairs: list[PairEvaluation] = []
    degenerate = False
    winner: PairEvaluation | None = None

    for xk_star in candidates:
        p_star = sr.inputs[xk_star].probs
        terms = {sym: _symbol_terms(ch, p_star) for sym, ch in channels.items()}
        for xbar in channels:
            rhs, lhs, div, factor = _pair_quantities(terms[xk_star], terms[xbar])
            ev = PairEvaluation(xk_star, xbar, lhs, rhs, div, factor, lhs is None)
            pairs.append(ev)
            if lhs is None:
                degenerate = True
            elif winner is None and lhs - rhs > STRICT_MARGIN:
                winner = ev
        if winner is not None:
            break

    # A failed condition still reports its best evaluated pair.
    holds = winner is not None
    shown = winner if holds else max((p for p in pairs if not p.skipped_degenerate),
                                     key=lambda p: p.lhs - p.rhs, default=None)
    return GainConditionReport(
        user=user, holds=holds,
        witness=(sr.inputs[shown.xk_star], shown.xk_star, shown.xbar_k) if holds else None,
        lhs=None if shown is None else shown.lhs,
        rhs=None if shown is None else shown.rhs,
        degenerate_denominator=degenerate,
        pairs=tuple(pairs),
        note=None if holds else "representative maximizers only",
    )


# ---------------------------------------------------------------------------
# Compress-forward rate curve.


@dataclass(frozen=True, eq=False)
class CFCurve:
    """Relay rate as the partner mixes away from its best constant.

    At mixing weight ``a`` the partner sends ``x_k*`` with probability
    ``1 - a`` and ``xbar_k`` otherwise, quantizes its independent look into
    an erasure description kept with probability ``b``, and the achieved
    rate is the compress-forward value with the best ``b`` for that
    ``a``. Points where the look carries nothing given the output are
    flagged and fall back to the no-relay rate.
    """

    a_grid: tuple[float, ...]
    rates: tuple[float, ...]
    b_values: tuple[float, ...]
    flagged: tuple[bool, ...]
    derivative_at_zero: float

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("a,rate,b,flagged\n")
        for a, r, b, f in zip(self.a_grid, self.rates, self.b_values, self.flagged):
            buf.write(f"{a!r},{r!r},{b!r},{int(f)}\n")
        return buf.getvalue()

    def to_dict(self) -> dict:
        return {
            "a_grid": [float(a) for a in self.a_grid],
            "rates": [float(r) for r in self.rates],
            "b_values": [float(b) for b in self.b_values],
            "flagged": [bool(f) for f in self.flagged],
            "derivative_at_zero": _json_num(self.derivative_at_zero),
        }


def compress_forward_curve(channels: dict[str, ConditionalPmf], xk_star: str, xbar_k: str,
                           p_star: Pmf, a_grid) -> CFCurve:
    """Evaluate the relay rate over a grid of partner mixing weights.

    ``channels`` are the free user's partner-constant channels, from
    ``partner_channels(mac, user)`` or ``SingleRateResult.channels``.
    ``xk_star`` and ``xbar_k`` must be partner symbols and ``p_star`` a
    Pmf over the free user's alphabet, in its order (the check
    :func:`compress_forward_rate` and ``conditional_mi_spread`` share).
    ``a_grid`` must be sorted within [0, 1] and contain 0; the first
    point then reproduces the one-user capacity whenever ``p_star`` and
    ``x_k*`` come from :func:`single_rate_capacity`. With the partner
    mixing two constants, every conditional entropy given Xk is affine in
    ``a`` between its values at ``x_k*`` and ``xbar_k``; only H(Y) is not,
    so the whole grid is evaluated at once from the two endpoints:

        I(Xj; Y | Xk)      = H(Y | Xk) - H(Y | Xj, Xk)
        I(Xk; Y)           = H(Y) - H(Y | Xk)
        H(Y' | Xk, Y)      = H(Y, Y' | Xk) - H(Y | Xk)
        I(Xj; Y' | Xk, Y)  = H(Y' | Xk, Y) - H(Y | Xj, Xk)

    The slope at 0 is computed analytically from the same ingredients as
    the gain condition; it is infinite when the divergence term blows up
    and NaN when the denominator vanishes.
    """
    a_grid = tuple(a_grid)
    if not a_grid or not all(is_number(a) and 0.0 <= a <= 1.0 for a in a_grid):
        raise InputError("a_grid must be a non-empty subset of [0, 1]")
    a_grid = tuple(map(float, a_grid))
    if list(a_grid) != sorted(a_grid):
        raise InputError("a_grid must be sorted")
    if a_grid[0] != 0.0:
        raise InputError("a_grid must contain 0")
    _check_free_input(channels, p_star, (xk_star, xbar_k))

    star = _symbol_terms(channels[xk_star], p_star.probs)
    bar = _symbol_terms(channels[xbar_k], p_star.probs)
    a = np.asarray(a_grid)
    mix = np.stack([1.0 - a, a], axis=1)
    h_k, h_c, h_yy_k = (mix @ np.array([star[1:], bar[1:]])).T
    h_y = entropy_bits(mix @ np.stack([star[0], bar[0]]), axis=1)
    i1 = np.maximum(h_k - h_c, 0.0)
    i2 = np.maximum(h_y - h_k, 0.0)
    h_yp = np.maximum(h_yy_k - h_k, 0.0)
    i_pp = np.maximum(h_yp - h_c, 0.0)
    # Where the look carries nothing given Y, no description is sent.
    flagged = h_yp <= DEGENERATE_EPS
    b = np.where(flagged, 0.0, np.minimum(1.0, i2 / np.where(flagged, 1.0, h_yp)))
    rates = np.maximum(i1 + np.minimum(i2 - b * h_c, b * i_pp), 0.0)

    rhs, lhs, _, _ = _pair_quantities(star, bar)
    deriv = math.nan if lhs is None else lhs - rhs
    return CFCurve(a_grid, tuple(rates.tolist()), tuple(b.tolist()),
                   tuple(flagged.tolist()), deriv)


def compress_forward_rate(channels: dict[str, ConditionalPmf], xk_star: str, xbar_k: str,
                          p_star: Pmf, a: float, b: float) -> float:
    """One compress-forward rate re-evaluated on the named-axis joint.

    The independent check of :func:`compress_forward_curve` on the same
    partner channels: builds p(xk) p(xj) W(y|xj,xk) W(y'|xj,xk) over named
    axes and takes
    I(Xj;Y|Xk) + min(I(Xk;Y) - b H(Y|Xj,Xk), b I(Xj;Y'|Xk,Y)). Its
    arguments are checked as the curve's, and ``a`` and ``b`` must lie
    in [0, 1].
    """
    _check_free_input(channels, p_star, (xk_star, xbar_k))
    check_probability("a", a)
    check_probability("b", b)
    other_alpha = tuple(channels)
    y_alpha = channels[xk_star].output_alphabet
    pk = np.zeros(len(other_alpha))
    pk[other_alpha.index(xk_star)] += 1.0 - a
    pk[other_alpha.index(xbar_k)] += a
    w = np.stack([ch.rows for ch in channels.values()])  # w[xk, xj, y]
    table = (pk[:, None, None, None] * p_star.probs[None, :, None, None]
             * w[:, :, :, None] * w[:, :, None, :])
    joint = JointDist((("xk", other_alpha), ("xj", p_star.alphabet),
                       ("y", y_alpha), ("y'", y_alpha)), table)
    i1 = conditional_mi(joint, "xj", "y", "xk")
    i2 = mutual_information(joint, "xk", "y")
    h_c = conditional_entropy(joint, "y", ("xj", "xk"))
    i_pp = conditional_mi(joint, "xj", "y'", ("xk", "y"))
    return max(i1 + min(i2 - b * h_c, b * i_pp), 0.0)


# ---------------------------------------------------------------------------
# Erasure scaling of the achievable frontier.


@dataclass(frozen=True)
class ScalingRow:
    weights: tuple[float, float]
    value_extended: float
    value_base: float
    gap: float

    def to_dict(self) -> dict:
        return {
            "w1": self.weights[0], "w2": self.weights[1],
            "value_extended": self.value_extended,
            "value_base": self.value_base,
            "gap": self.gap,
        }


@dataclass(frozen=True)
class ScalingReport:
    """Per-weight check of frontier(erased) against (1 - p) frontier(base).

    Both sides are inner approximations from the same seeded optimizer,
    so the gap mixes the scaling identity with residual optimizer noise;
    it is reported, not asserted to vanish.
    """

    erasure_prob: float
    max_abs_gap: float
    rows: tuple[ScalingRow, ...]

    def to_dict(self) -> dict:
        return {
            "erasure_prob": self.erasure_prob,
            "max_abs_gap": self.max_abs_gap,
            "rows": [r.to_dict() for r in self.rows],
        }


def erasure_scaling_check(mac: Mac, p: float, weights=None,
                          restarts: int = DEFAULT_RESTARTS, seed: int = DEFAULT_SEED,
                          tol: float = DEFAULT_TOL) -> ScalingReport:
    """Compare the frontier of the erasure-extended channel to the scaled base."""
    extended_mac = erasure_extend(mac, p)
    # Both frontiers read the directions, so a one-shot iterable is listed once.
    weights = default_weight_fan() if weights is None else list(weights)
    base = cover_leung_frontier(mac, weights=weights, restarts=restarts, seed=seed, tol=tol)
    ext = cover_leung_frontier(extended_mac, weights=weights, restarts=restarts,
                               seed=seed, tol=tol)
    rows = []
    for pb, pe in zip(base.points, ext.points):
        gap = abs(pe.value - (1.0 - p) * pb.value)
        rows.append(ScalingRow(pb.weights, pe.value, pb.value, gap))
    return ScalingReport(
        erasure_prob=p,
        max_abs_gap=max(r.gap for r in rows),
        rows=tuple(rows),
    )


# ---------------------------------------------------------------------------
# Additive-channel classification.


@dataclass(frozen=True, eq=False)
class AdditiveClassification:
    """Exact classification of the independent-look gain on an additive channel.

    ``conclusion`` is "equal" when either the joint-input bound already
    collapses to the one-user capacity (condition1) or the class
    partition of the sum channel shields the output (condition2);
    otherwise it is "strictly_greater", cross-validated against the gain
    sufficient condition.
    """

    user: int
    condition1: bool
    condition2: bool
    conclusion: str
    joint_mi: float
    single_rate: float
    partition: EquivClassPartition
    gain_report: GainConditionReport | None = None

    def to_dict(self) -> dict:
        return {
            "user": self.user,
            "condition1": self.condition1,
            "condition2": self.condition2,
            "conclusion": self.conclusion,
            "evidence": {
                "joint_mi": self.joint_mi,
                "single_rate": self.single_rate,
                "partition": self.partition.to_dict(),
                "gain": None if self.gain_report is None else self.gain_report.to_dict(),
            },
        }


def classify_additive_gain(mac: Mac, group: GroupSpec
                           ) -> tuple[AdditiveClassification, AdditiveClassification]:
    """Decide whether independent looks help each user of an additive channel.

    Returns the classifications of users 1 and 2, which share one
    additivity check, one joint-input solve and one sum channel. Requires
    ``group`` to certify additivity (raises otherwise). ``condition1``
    compares the joint-input bound with the one-user capacity at
    tolerance ``CLASSIFY_TOL``; both are solved to ``DEFAULT_TOL``, and a
    certificate looser than that is refused, as ``condition1`` compares
    inner ends.
    ``condition2`` evaluates the class partition of the sum channel at the
    full embedded support of the free user (any sub-support partition
    refines this one, and row equality in the coarse classes implies it
    in the refined ones). On a strict conclusion the gain condition is
    re-checked and must agree.
    """
    verify_additive(mac, group).require_additive()
    joint = maximize_joint_mi(mac, tol=DEFAULT_TOL)
    sum_channel = channel_given_sum(mac, group)
    out = []
    for user, embed in ((1, group.embed_x1), (2, group.embed_x2)):
        sr = single_rate_capacity(mac, user, tol=DEFAULT_TOL)
        gaps = (joint.upper - joint.value, sr.upper - sr.value)
        if not max(gaps) <= DEFAULT_TOL:
            raise RuntimeError(f"cannot classify: certificate gaps {gaps[0]!r} (joint input) and "
                               f"{gaps[1]!r} (single rate), above the solve tolerance "
                               f"{DEFAULT_TOL!r}")
        condition1 = (joint.value - sr.value) <= CLASSIFY_TOL
        partition = equivalence_classes(sum_channel,
                                        support=tuple(group.elements[i] for i in embed))
        condition2 = partition.markov_ok

        gain_report = None
        if condition1 or condition2:
            conclusion = "equal"
        else:
            conclusion = "strictly_greater"
            gain_report = gain_sufficient_condition(sr)
            if not gain_report.holds:
                raise RuntimeError(
                    "inconsistent classification: neither condition holds but the "
                    "gain sufficient condition failed; this contradicts the "
                    "additive-channel characterization"
                )
        out.append(AdditiveClassification(
            user=user,
            condition1=condition1,
            condition2=condition2,
            conclusion=conclusion,
            joint_mi=joint.value,
            single_rate=sr.value,
            partition=partition,
            gain_report=gain_report,
        ))
    return tuple(out)
