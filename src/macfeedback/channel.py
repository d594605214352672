"""Discrete memoryless two-user multiple-access channel model.

The central object is :class:`Mac`, the conditional law ``p(y | x1, x2)``
stored as a rank-3 tensor over named finite alphabets. Probability vectors
and tables come as :class:`Pmf`, :class:`ConditionalPmf` and
:class:`JointDist`. All objects are immutable after construction and all
operations are pure functions, so everything is safe to share between
threads.

Symbol labels are opaque strings. No operation in this package ever parses
a label to do arithmetic; algebraic structure enters only through explicit
group tables (see :mod:`macfeedback.groups`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import check_table, clamp_tiny, freeze, fresh_symbol, pair_label
from .errors import InputError


def _check_alphabet(labels, where: str) -> tuple[str, ...]:
    labels = tuple(labels)
    if len(labels) == 0:
        raise InputError(f"{where}: alphabet is empty")
    for s in labels:
        if not isinstance(s, str):
            raise InputError(f"{where}: expected a string label, got {s!r}")
    if len(set(labels)) != len(labels):
        dup = next(s for s in labels if labels.count(s) > 1)
        raise InputError(f"{where}: duplicate symbol {dup!r}")
    return labels


@dataclass(frozen=True, eq=False)
class Pmf:
    """A probability mass function over a named finite alphabet.

    Parameters
    ----------
    alphabet : sequence of str
        Distinct symbol labels.
    probs : array-like
        Nonnegative weights summing to 1 within 1e-9 (renormalized to sum
        to 1 exactly after validation).
    """

    alphabet: tuple[str, ...]
    probs: np.ndarray

    def __post_init__(self):
        alphabet = _check_alphabet(self.alphabet, "Pmf")
        probs = clamp_tiny(self.probs)
        if probs.ndim != 1 or probs.shape[0] != len(alphabet):
            raise InputError(
                f"Pmf: got {probs.shape} weights for {len(alphabet)} symbols"
            )
        check_table(probs, "Pmf")
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "probs", freeze(probs / probs.sum()))

    def to_dict(self) -> dict:
        return {"alphabet": list(self.alphabet), "probs": [float(v) for v in self.probs]}

    @staticmethod
    def uniform(alphabet) -> "Pmf":
        alphabet = _check_alphabet(alphabet, "Pmf")
        return Pmf(alphabet, np.full(len(alphabet), 1.0 / len(alphabet)))


def _stochastic_rows(rows, where: str | None = None) -> np.ndarray:
    """``rows`` as a ConditionalPmf holds them: magnitudes below ZERO_CLAMP
    set to 0, each row scaled to sum to 1. Given ``where``, the clamped rows
    are first checked as distributions, errors naming ``where``."""
    rows = clamp_tiny(rows)
    if where is not None:
        check_table(rows, where, sum_axes=1)
    return rows / rows.sum(axis=1)[:, None]


@dataclass(frozen=True, eq=False)
class ConditionalPmf:
    """A channel matrix: one output distribution per input symbol.

    ``rows[i]`` is the distribution of the output given input symbol
    ``input_alphabet[i]``. Every row must sum to 1 within 1e-9.
    """

    input_alphabet: tuple[str, ...]
    output_alphabet: tuple[str, ...]
    rows: np.ndarray

    def __post_init__(self):
        ia = _check_alphabet(self.input_alphabet, "ConditionalPmf input")
        oa = _check_alphabet(self.output_alphabet, "ConditionalPmf output")
        shape = np.shape(self.rows)
        if shape != (len(ia), len(oa)):
            raise InputError(
                f"ConditionalPmf: rows shape {shape} does not match "
                f"({len(ia)}, {len(oa)})"
            )
        object.__setattr__(self, "input_alphabet", ia)
        object.__setattr__(self, "output_alphabet", oa)
        object.__setattr__(self, "rows", freeze(_stochastic_rows(self.rows, "ConditionalPmf")))


@dataclass(frozen=True, eq=False)
class Mac:
    """A two-transmitter channel ``p(y | x1, x2)`` on finite alphabets.

    The tensor is indexed ``pmf[x1][x2][y]``. Construction checks the
    labels, the shape and that every ``(x1, x2)`` slice is a distribution
    (entries in [0, 1], sum within 1e-9 of 1), raising an InputError that
    names the first faulty index. The tensor is stored as given, with
    magnitudes below 1e-15 set to 0, not rescaled.

    Feedback variants (no feedback, perfect feedback, one or two
    independent feedback looks) are parameters of the analyses, not state
    stored here: they all share this one conditional law.
    """

    x1_alphabet: tuple[str, ...]
    x2_alphabet: tuple[str, ...]
    y_alphabet: tuple[str, ...]
    pmf: np.ndarray
    name: str = ""

    def __post_init__(self):
        a1 = _check_alphabet(self.x1_alphabet, "Mac x1")
        a2 = _check_alphabet(self.x2_alphabet, "Mac x2")
        ay = _check_alphabet(self.y_alphabet, "Mac y")
        pmf = clamp_tiny(self.pmf)
        if pmf.shape != (len(a1), len(a2), len(ay)):
            raise InputError(
                f"Mac: pmf shape {pmf.shape} does not match alphabets "
                f"({len(a1)}, {len(a2)}, {len(ay)})"
            )
        check_table(pmf, "Mac", sum_axes=2)
        object.__setattr__(self, "x1_alphabet", a1)
        object.__setattr__(self, "x2_alphabet", a2)
        object.__setattr__(self, "y_alphabet", ay)
        object.__setattr__(self, "pmf", freeze(pmf))

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.pmf.shape


@dataclass(frozen=True, eq=False)
class JointDist:
    """A joint distribution over named axes, stored as a dense tensor."""

    axes: tuple[tuple[str, tuple[str, ...]], ...]
    table: np.ndarray

    def __post_init__(self):
        axes = tuple((str(n), _check_alphabet(a, f"JointDist axis {n!r}"))
                     for n, a in self.axes)
        names = [n for n, _ in axes]
        if len(set(names)) != len(names):
            raise InputError("JointDist: duplicate axis name")
        table = clamp_tiny(self.table)
        want = tuple(len(a) for _, a in axes)
        if table.shape != want:
            raise InputError(
                f"JointDist: table shape {table.shape} does not match {want}"
            )
        check_table(table, "JointDist")
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "table", freeze(table / table.sum()))

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.axes)

    def _axis_index(self, name: str) -> int:
        for i, (n, _) in enumerate(self.axes):
            if n == name:
                return i
        raise InputError(f"JointDist: no axis named {name!r}")

    def marginal_table(self, names) -> np.ndarray:
        """Marginal tensor over the given axes, in the order given."""
        names = (names,) if isinstance(names, str) else tuple(names)
        keep = [self._axis_index(n) for n in names]
        drop = tuple(i for i in range(self.table.ndim) if i not in keep)
        t = self.table.sum(axis=drop) if drop else self.table
        kept_sorted = sorted(keep)
        perm = [kept_sorted.index(k) for k in keep]
        return t.transpose(perm) if perm != sorted(perm) else t


def partner_channels(mac: Mac, user: int) -> dict[str, ConditionalPmf]:
    """Point-to-point channels of ``user`` with the partner held at each constant.

    Keys are the partner's symbols in alphabet order; each channel maps the
    free user's alphabet to the output alphabet. This is the one place
    where a user number picks axes of ``mac.pmf``.
    """
    if user not in (1, 2):
        raise InputError(f"user must be 1 or 2, got {user!r}")
    if user == 1:
        free, partner = mac.x1_alphabet, mac.x2_alphabet
        by_partner = mac.pmf.transpose(1, 0, 2)
    else:
        free, partner = mac.x2_alphabet, mac.x1_alphabet
        by_partner = mac.pmf
    return {sym: ConditionalPmf(free, mac.y_alphabet, rows)
            for sym, rows in zip(partner, by_partner)}


def _check_free_input(channels: dict[str, ConditionalPmf], p_free, symbols=()) -> None:
    """Reject partner ``symbols`` that are not keys of ``channels`` and a
    ``p_free`` that is not a :class:`Pmf` over the free user's alphabet, in
    its order."""
    for sym in symbols:
        if sym not in channels:
            raise InputError(f"symbol {sym!r} not in the partner alphabet")
    free = next(iter(channels.values())).input_alphabet
    if not (isinstance(p_free, Pmf) and p_free.alphabet == free):
        raise InputError(f"the input law must be a Pmf over the free user's alphabet {free}")


def induced_channel(mac: Mac, fix_user: int, fixed_symbol: str) -> ConditionalPmf:
    """Point-to-point channel seen by one user when the other sends a constant.

    ``fix_user`` is the transmitter held at ``fixed_symbol``; the returned
    channel maps the free user's alphabet to the output alphabet.
    """
    if fix_user not in (1, 2):
        raise InputError(f"fix_user must be 1 or 2, got {fix_user!r}")
    channels = partner_channels(mac, 3 - fix_user)
    if fixed_symbol not in channels:
        raise InputError(
            f"symbol {fixed_symbol!r} not in user {fix_user} alphabet"
        )
    return channels[fixed_symbol]


def _look_pairs(rows: np.ndarray) -> np.ndarray:
    """rows[x, y] * rows[x, y'] at column y * ny + y', before normalization."""
    m, ny = rows.shape
    return (rows[:, :, None] * rows[:, None, :]).reshape(m, ny * ny)


def two_look_channel(one: ConditionalPmf) -> ConditionalPmf:
    """Channel from the free user to a pair of independent looks at the output.

    ``one`` is a partner-constant channel (see :func:`partner_channels`);
    each coordinate of the pair output is an independent draw of it.
    """
    pair_alpha = tuple(pair_label(a, b) for a in one.output_alphabet
                       for b in one.output_alphabet)
    return ConditionalPmf(one.input_alphabet, pair_alpha, _look_pairs(one.rows))


def two_look_rows(rows: np.ndarray) -> np.ndarray:
    """The rows :func:`two_look_channel` holds for a channel with ``rows``,
    bitwise, without building its ny * ny pair labels or checking products
    of checked rows again."""
    return _stochastic_rows(_look_pairs(rows))


def independent_copy_joint(mac: Mac, input_dist: JointDist, copies: int = 1) -> JointDist:
    """Joint law of inputs and ``copies`` independent channel outputs.

    With ``copies=2`` the result is ``p(x1, x2) p(y|x1, x2) p(y'|x1, x2)``:
    the second output axis (named ``y'``) is a statistically identical,
    conditionally independent draw of the channel given the same inputs.
    """
    if copies not in (1, 2):
        raise InputError(f"copies must be 1 or 2, got {copies!r}")
    if len(input_dist.axes) != 2:
        raise InputError("input joint must have exactly two axes (x1, x2)")
    (n1, a1), (n2, a2) = input_dist.axes
    if a1 != mac.x1_alphabet or a2 != mac.x2_alphabet:
        raise InputError("input joint alphabets do not match the channel")
    if "y" in (n1, n2) or "y'" in (n1, n2):
        raise InputError("input axis names collide with output axes y, y'")
    p_in = input_dist.table
    w = mac.pmf
    if copies == 1:
        table = p_in[:, :, None] * w
        axes = (input_dist.axes[0], input_dist.axes[1], ("y", mac.y_alphabet))
    else:
        table = (p_in[:, :, None] * w)[:, :, :, None] * w[:, :, None, :]
        axes = (input_dist.axes[0], input_dist.axes[1],
                ("y", mac.y_alphabet), ("y'", mac.y_alphabet))
    return JointDist(axes, table)


def erasure_extend(mac: Mac, p: float) -> Mac:
    """Compose the channel output with an independent erasure stage.

    With probability ``1 - p`` the new output equals the old one; with
    probability ``p`` it is the erasure symbol, independently of
    everything else. The output alphabet grows by the erasure symbol,
    ``"e"`` or, if the alphabet has it, ``"e"`` with the first free
    numeric suffix.
    """
    if not 0.0 <= p <= 1.0:
        raise InputError(f"erasure probability must lie in [0, 1], got {p!r}")
    n1, n2, ny = mac.shape
    new = np.zeros((n1, n2, ny + 1))
    new[:, :, :ny] = (1.0 - p) * mac.pmf
    new[:, :, ny] = p
    name = f"{mac.name}+erasure({p:g})" if mac.name else ""
    return Mac(mac.x1_alphabet, mac.x2_alphabet,
               mac.y_alphabet + (fresh_symbol(mac.y_alphabet),), new, name=name)
