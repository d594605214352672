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

import numbers
from dataclasses import dataclass

import numpy as np

from ._util import (check_probability, check_table, clamp_tiny, freeze, fresh_symbol, is_number,
                    pair_label, real_table, shown)
from .errors import InputError


def _check_alphabet(labels, where: str) -> tuple[str, ...]:
    """``labels``, a non-empty list or tuple of distinct strings, as a tuple;
    an InputError names the first rejected label by its JSON path, ``where[k]``."""
    if not isinstance(labels, (list, tuple)) or not labels:
        raise InputError(f"{where}: expected a non-empty list of string labels")
    labels = tuple(labels)
    for s in labels:  # the labels before s are strings, so labels.index(s) is its index
        if not isinstance(s, str):
            k = labels.index(s)
            raise InputError(f"{where}[{k}]: expected a string label, got {shown(s)}")
    if len(set(labels)) != len(labels):
        k = next(k for k, s in enumerate(labels) if s in labels[:k])
        raise InputError(f"{where}[{k}]: duplicate label {labels[k]!r}")
    return labels


def _table(where: str, table, paths, alphabets, sum_axes=None):
    """Each alphabet checked at its path in ``paths``, and ``table``, one axis per
    alphabet, read by :func:`real_table` and checked at ``where`` over ``sum_axes``."""
    labels = list(map(_check_alphabet, alphabets, paths))
    t = real_table(table, where, tuple(map(len, labels)), paths)
    check_table(t, where, sum_axes)
    return labels, t


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
        (alphabet,), probs = _table("Pmf", self.probs, ("Pmf",), (self.alphabet,))
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "probs", freeze(probs / probs.sum()))

    def to_dict(self) -> dict:
        return {"alphabet": list(self.alphabet), "probs": [float(v) for v in self.probs]}

    @staticmethod
    def uniform(alphabet) -> "Pmf":
        alphabet = _check_alphabet(alphabet, "Pmf")
        return Pmf(alphabet, np.full(len(alphabet), 1.0 / len(alphabet)))


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
        (ia, oa), rows = _table("ConditionalPmf", self.rows,
                                ("ConditionalPmf.input", "ConditionalPmf.output"),
                                (self.input_alphabet, self.output_alphabet), sum_axes=1)
        object.__setattr__(self, "input_alphabet", ia)
        object.__setattr__(self, "output_alphabet", oa)
        object.__setattr__(self, "rows", freeze(rows / rows.sum(axis=1)[:, None]))


@dataclass(frozen=True, eq=False)
class Mac:
    """A two-transmitter channel ``p(y | x1, x2)`` on finite alphabets.

    The tensor is indexed ``pmf[x1][x2][y]``. Construction checks the
    name, labels, shape and that every ``(x1, x2)`` slice is a distribution
    (entries in [0, 1], sum within 1e-9 of 1), raising an InputError at the
    JSON path of the first fault, as in a channel file: ``name``, ``x2[0]``,
    ``pmf[0]`` for a level of the wrong length, ``pmf[1][1][0]`` for an entry.
    The tensor is stored as given, magnitudes below 1e-15 set to 0, not rescaled.

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
        if not isinstance(self.name, str):
            raise InputError(f"name: expected a string, got {shown(self.name)}")
        (a1, a2, ay), pmf = _table("pmf", self.pmf, ("x1", "x2", "y"),
                                   (self.x1_alphabet, self.x2_alphabet, self.y_alphabet),
                                   sum_axes=2)
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
        names = [str(n) for n, _ in self.axes]
        if len(set(names)) != len(names):
            raise InputError("JointDist: duplicate axis name")
        labels, table = _table("JointDist", self.table, [f"JointDist.{n}" for n in names],
                               [a for _, a in self.axes])
        object.__setattr__(self, "axes", tuple(zip(names, labels)))
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


def _check_one_or_two(name: str, value) -> None:
    """Reject ``value`` unless it is the integer 1 or 2 (not ``True`` or ``1.0``)."""
    if not (is_number(value, numbers.Integral) and value in (1, 2)):
        raise InputError(f"{name} must be 1 or 2, got {value!r}")


def partner_channels(mac: Mac, user: int) -> dict[str, ConditionalPmf]:
    """Point-to-point channels of ``user`` with the partner held at each constant.

    Keys are the partner's symbols in alphabet order; each channel maps the
    free user's alphabet to the output alphabet. This is the one place
    where a user number picks axes of ``mac.pmf``.
    """
    _check_one_or_two("user", user)
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
    _check_one_or_two("fix_user", fix_user)
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
    pairs = clamp_tiny(_look_pairs(rows))
    return pairs / pairs.sum(axis=1)[:, None]


def independent_copy_joint(mac: Mac, input_dist: JointDist, copies: int = 1) -> JointDist:
    """Joint law of inputs and ``copies`` independent channel outputs.

    With ``copies=2`` the result is ``p(x1, x2) p(y|x1, x2) p(y'|x1, x2)``:
    the second output axis (named ``y'``) is a statistically identical,
    conditionally independent draw of the channel given the same inputs.
    """
    _check_one_or_two("copies", copies)
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
    check_probability("erasure probability", p)
    n1, n2, ny = mac.shape
    new = np.zeros((n1, n2, ny + 1))
    new[:, :, :ny] = (1.0 - p) * mac.pmf
    new[:, :, ny] = p
    name = f"{mac.name}+erasure({p:g})" if mac.name else ""
    return Mac(mac.x1_alphabet, mac.x2_alphabet,
               mac.y_alphabet + (fresh_symbol(mac.y_alphabet),), new, name=name)
