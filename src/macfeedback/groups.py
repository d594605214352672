"""Additive channel structure: finite group tables and what they certify.

A channel is additive when its law factors through a group sum of the two
inputs, ``Z = X1 + X2``, together with a group action on the output
alphabet that shifts conditional rows into one another. The structure is
declared explicitly as a :class:`GroupSpec`: a Cayley table on abstract
element indices, injective embeddings of each input alphabet into the
group, and an action table on output symbols. Nothing is ever inferred
from symbol labels.

Differences follow the convention ``a - b = a + (-b)`` (inverse on the
right); the groups used in practice are abelian, where the distinction
vanishes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import SUPPORT_EPS, channel_mi_bits
from .channel import (ConditionalPmf, Mac, Pmf, _check_alphabet, _check_free_input,
                      partner_channels)
from .errors import InputError

EQ38_TOL = 1e-9
ROW_TOL = 1e-10
PERMUTATION_TOL = 1e-12


def _index_array(name: str, value) -> np.ndarray:
    """``value`` as an int64 array; floats and booleans are not indices."""
    arr = np.asarray(value)
    if arr.size and arr.dtype.kind not in "iu":
        raise InputError(f"{name} must hold integer indices, got dtype {arr.dtype}")
    return arr.astype(np.int64, copy=False)


@dataclass(frozen=True, eq=False)
class GroupSpec:
    """A finite group with input embeddings and an output action.

    Fields
    ------
    elements : tuple of str
        Labels of the group elements.
    cayley : (n, n) int array
        ``cayley[a, b]`` is the index of ``a + b``.
    identity : int
        Index of the identity element.
    embed_x1, embed_x2 : int arrays
        For each input symbol, the index of its group element.
    y_action : (|Y|, n) int array
        ``y_action[y, g]`` is the index in the output alphabet of ``y + g``.
    """

    elements: tuple[str, ...]
    cayley: np.ndarray
    identity: int
    embed_x1: np.ndarray
    embed_x2: np.ndarray
    y_action: np.ndarray

    def __post_init__(self):
        elements = _check_alphabet(self.elements, "group elements")
        n = len(elements)
        cayley, e1, e2, ya = (_index_array(name, getattr(self, name)) for name in
                              ("cayley", "embed_x1", "embed_x2", "y_action"))
        if cayley.shape != (n, n):
            raise InputError(f"cayley table shape {cayley.shape}, expected ({n}, {n})")
        if cayley.min(initial=0) < 0 or cayley.max(initial=0) >= n:
            raise InputError("cayley table has out-of-range indices")
        if isinstance(self.identity, bool) or not isinstance(self.identity, (int, np.integer)):
            raise InputError(f"identity must be an integer index, got {self.identity!r}")
        if not 0 <= self.identity < n:
            raise InputError("identity index out of range")
        if ya.ndim != 2 or ya.shape[1] != n:
            raise InputError(f"y_action shape {ya.shape}, expected (|Y|, {n})")
        for name, emb in (("embed_x1", e1), ("embed_x2", e2)):
            if emb.ndim != 1 or (emb.size and (emb.min() < 0 or emb.max() >= n)):
                raise InputError(f"{name} has out-of-range indices")
        if ya.size and (ya.min() < 0 or ya.max() >= ya.shape[0]):
            raise InputError("y_action has out-of-range indices")
        for name, value in (("elements", elements), ("cayley", cayley),
                            ("identity", int(self.identity)), ("embed_x1", e1),
                            ("embed_x2", e2), ("y_action", ya)):
            object.__setattr__(self, name, value)

    @property
    def order(self) -> int:
        return len(self.elements)

    def to_dict(self) -> dict:
        return {
            "elements": list(self.elements),
            "cayley": self.cayley.tolist(),
            "identity": self.identity,
            "embed_x1": self.embed_x1.tolist(),
            "embed_x2": self.embed_x2.tolist(),
            "y_action": self.y_action.tolist(),
        }


def _first_five(bad: np.ndarray, what: str, name) -> list[str]:
    """``name(*idx)`` for the first five index rows of ``bad``, then a count of the rest."""
    out = [name(*idx) for idx in bad[:5]]
    if bad.shape[0] > 5:
        out.append(f"... {bad.shape[0] - 5} more {what} failures")
    return out


def group_axiom_violations(g: GroupSpec) -> list[str]:
    """Exhaustive check of associativity, identity and inverse existence."""
    c, el = g.cayley, g.elements
    # c[c, :][a, b, d] = (a + b) + d and c[:, c][a, b, d] = a + (b + d).
    out = _first_five(np.argwhere(c[c, :] != c[:, c]), "associativity", lambda a, b, d:
                      f"associativity fails at ({el[a]!r}, {el[b]!r}, {el[d]!r})")
    e = g.identity
    if not np.array_equal(c[e, :], np.arange(g.order)):
        out.append(f"left identity fails for {g.elements[e]!r}")
    if not np.array_equal(c[:, e], np.arange(g.order)):
        out.append(f"right identity fails for {g.elements[e]!r}")
    for a in np.flatnonzero(~((c == e) & (c.T == e)).any(axis=1)):
        out.append(f"element {g.elements[a]!r} has no two-sided inverse")
    return out


@dataclass(frozen=True)
class AdditivityReport:
    additive: bool
    violations: tuple[str, ...]

    def to_dict(self) -> dict:
        return {"additive": self.additive, "violations": list(self.violations)}

    def require_additive(self) -> None:
        """Refuse, by an InputError naming the first three violations, a channel the
        group does not certify additive."""
        if not self.additive:
            raise InputError("channel is not additive under the given group: "
                             + "; ".join(self.violations[:3]))


def _sum_table(mac: Mac, g: GroupSpec):
    """The group-sum table of ``g`` on ``mac``; raises when dimensions differ.

    Returns ``zidx``, the flat row-major array of ``x1_i + x2_j`` indices;
    the reachable sums in increasing order; the flat index of the first
    input pair realizing each; and ``p(y | z)`` read at that pair.
    """
    n1, n2, ny = mac.shape
    if g.embed_x1.shape[0] != n1 or g.embed_x2.shape[0] != n2:
        raise InputError(f"embeddings cover ({g.embed_x1.shape[0]}, {g.embed_x2.shape[0]}) "
                         f"symbols, channel has ({n1}, {n2})")
    if g.y_action.shape[0] != ny:
        raise InputError(f"y_action covers {g.y_action.shape[0]} output symbols, "
                         f"channel has {ny}")
    zidx = g.cayley[np.ix_(g.embed_x1, g.embed_x2)].ravel()
    sums = np.flatnonzero(np.bincount(zidx, minlength=g.order))
    first = np.argmax(zidx == sums[:, None], axis=1)
    return zidx, sums, first, mac.pmf.reshape(n1 * n2, ny)[first]


def verify_additive(mac: Mac, g: GroupSpec) -> AdditivityReport:
    """Decide whether ``g`` certifies the channel as additive.

    Checks, in order: table dimensions against the channel (dimension
    mismatch raises), group axioms, injectivity of the embeddings with a
    shared zero symbol, the action axioms (per-element permutation,
    identity, compatibility with the group operation), that the channel
    law depends on the inputs only through their group sum, and finally
    the row-shift identity ``p(y | z) = p(y + (z' - z) | z')`` for every
    output symbol and every pair of reachable sums. Violations name the
    offending tuples. Each check is one comparison over whole tables.
    """
    zidx, sums, first, rows = _sum_table(mac, g)
    n2, ny = mac.shape[1:]

    violations = list(group_axiom_violations(g))
    if violations:
        return AdditivityReport(False, tuple(violations))

    for name, emb in (("embed_x1", g.embed_x1), ("embed_x2", g.embed_x2)):
        if len(set(emb.tolist())) != emb.shape[0]:
            violations.append(f"{name} is not injective")
    if g.identity not in g.embed_x1 or g.identity not in g.embed_x2:
        violations.append("identity element is not in the image of both embeddings")

    ya = g.y_action
    # Action indices lie in [0, |Y|), so a column is a permutation exactly
    # when it sorts to 0, 1, ..., |Y| - 1.
    not_perm = (np.sort(ya, axis=0) != np.arange(ny)[:, None]).any(axis=0)
    for gi in np.flatnonzero(not_perm):
        violations.append(
            f"action of {g.elements[gi]!r} is not a permutation of the outputs"
        )
    if not np.array_equal(ya[:, g.identity], np.arange(ny)):
        violations.append("action of the identity moves some output symbol")
    # ya[ya, :][y, g1, g2] = (y + g1) + g2 and ya[:, cayley][y, g1, g2] = y + (g1 + g2).
    violations += _first_five(
        np.argwhere(ya[ya, :] != ya[:, g.cayley]), "compatibility", lambda y, g1, g2:
        f"action compatibility fails at (y={mac.y_alphabet[y]!r}, "
        f"{g.elements[g1]!r}, {g.elements[g2]!r})")
    if violations:
        return AdditivityReport(False, tuple(violations))

    # Every input pair against the first pair of its sum, listed by sum
    # and then in row-major order.
    pair_slot = np.searchsorted(sums, zidx)
    differ = np.flatnonzero(
        (np.abs(mac.pmf.reshape(-1, ny) - rows[pair_slot]) > EQ38_TOL).any(axis=1))
    for k in differ[np.argsort(pair_slot[differ], kind="stable")]:
        (i, j), (i0, j0) = divmod(k, n2), divmod(first[pair_slot[k]], n2)
        violations.append(
            f"law depends on more than the sum: inputs "
            f"({mac.x1_alphabet[i]!r}, {mac.x2_alphabet[j]!r}) and "
            f"({mac.x1_alphabet[i0]!r}, {mac.x2_alphabet[j0]!r}) share "
            f"sum {g.elements[zidx[k]]!r} but differ"
        )
    if violations:
        return AdditivityReport(False, tuple(violations))

    # The axioms hold, so every element has a two-sided inverse.
    # shifted[a, b, y] = p(y + (z_b - z_a) | z_b); the first three
    # failing y are named for each (z_a, z_b).
    c, e, z = g.cayley, g.identity, sums
    inv = np.argmax((c == e) & (c.T == e), axis=1)
    shift = ya.T[c[z[None, :], inv[z][:, None]]]
    shifted = rows[np.arange(z.size)[None, :, None], shift]
    fails = np.abs(rows[:, None, :] - shifted) > EQ38_TOL
    for a, b, y in np.argwhere(fails & (np.cumsum(fails, axis=2) <= 3)):
        violations.append(
            f"row-shift identity fails at (y={mac.y_alphabet[y]!r}, "
            f"z={g.elements[z[a]]!r}, z'={g.elements[z[b]]!r})"
        )
    return AdditivityReport(not violations, tuple(violations))


def channel_given_sum(mac: Mac, g: GroupSpec) -> ConditionalPmf:
    """The point-to-point law ``p(y | z)`` over reachable group sums.

    Input symbols are the group-element labels of ``Z``; the row for each
    sum is taken from the first input pair realizing it, which is the
    common row whenever :func:`verify_additive` passes. Raises when the
    tables do not match the channel's dimensions, as that check does.
    """
    _, sums, _, rows = _sum_table(mac, g)
    return ConditionalPmf(tuple(g.elements[z] for z in sums), mac.y_alphabet, rows)


def rows_are_permutations(ch: ConditionalPmf) -> bool:
    """True when every row of the channel matrix is a permutation of every other."""
    sorted_rows = np.sort(ch.rows, axis=1)
    return bool(np.all(np.abs(sorted_rows - sorted_rows[0]) <= PERMUTATION_TOL))


@dataclass(frozen=True)
class MiSpreadReport:
    """Per-symbol values of I(X_j; Y | X_k = x_k) and their spread."""

    user: int
    values: dict[str, float]
    max_spread: float

    def to_dict(self) -> dict:
        return {"user": self.user, "values": dict(self.values),
                "max_spread": self.max_spread}


def conditional_mi_spread(mac: Mac, user: int, p_xj: Pmf) -> MiSpreadReport:
    """How much I(X_j; Y | X_k = x_k) varies with the other user's symbol.

    For an additive channel the value is the same for every ``x_k``, so
    the spread is a numerical zero; for general channels the spread is
    simply reported. ``p_xj`` must be a Pmf over the free user's alphabet,
    in its order.
    """
    channels = partner_channels(mac, user)
    _check_free_input(channels, p_xj)
    values = {sym: max(float(channel_mi_bits(p_xj.probs, ch.rows)), 0.0)
              for sym, ch in channels.items()}
    spread = max(values.values()) - min(values.values())
    return MiSpreadReport(user=user, values=values, max_spread=spread)


@dataclass(frozen=True)
class EquivClass:
    z_symbols: tuple[str, ...]
    y_symbols: tuple[str, ...]
    representative: np.ndarray


@dataclass(frozen=True)
class EquivClassPartition:
    """Connected components of the input/output support overlap graph.

    ``markov_ok`` is true when, within each class, all conditional rows
    coincide (within 1e-10). The class index is then a variable ``K``
    that is a deterministic function of both the input and the output and
    shields the output from the input, which is exactly the certificate
    the additive-channel classifier needs. Conversely, any such ``K``
    forces row equality inside these components, so this single partition
    decides existence.
    """

    classes: tuple[EquivClass, ...]
    markov_ok: bool
    m: int

    def to_dict(self) -> dict:
        return {"classes": [{"z": list(c.z_symbols), "y": list(c.y_symbols),
                             "row": [float(v) for v in c.representative]}
                            for c in self.classes],
                "markov_ok": self.markov_ok, "m": self.m}


def support_indices(ch: ConditionalPmf, support, caller: str) -> list[int]:
    """Indices, in input-alphabet order, of the ``support`` symbols of ``ch``
    (every input when None); an InputError from ``caller`` names an unknown
    symbol or an empty support."""
    given = ch.input_alphabet if support is None else tuple(support)
    for s in given:
        if s not in ch.input_alphabet:
            raise InputError(f"{caller}: support symbol {s!r} is not an input of the channel")
    idx = [k for k, s in enumerate(ch.input_alphabet) if s in given]
    if not idx:
        raise InputError(f"{caller}: empty support")
    return idx


def equivalence_classes(ch: ConditionalPmf, support=None) -> EquivClassPartition:
    """Partition the supported inputs by overlapping output supports.

    Two inputs are related when some output symbol has positive mass
    (above ``SUPPORT_EPS``) under both; classes are the transitive closure.
    """
    idx = support_indices(ch, support, "equivalence_classes")
    support = [ch.input_alphabet[k] for k in idx]
    rows = ch.rows[idx]
    supp = rows > SUPPORT_EPS

    # Inputs sharing an output are linked; squaring the boolean link matrix
    # until it stops changing gives reachability, and the first input each
    # one reaches is the smallest member of its class, its root.
    reach = supp @ supp.T
    while not np.array_equal(reach, wider := reach @ reach):
        reach = wider
    root = reach.argmax(axis=1)

    # Every member against its root, which is also its class's representative.
    markov_ok = bool(np.all(np.abs(rows - rows[root]) <= ROW_TOL))
    classes = []
    for r in np.flatnonzero(root == np.arange(root.size)):
        members = np.flatnonzero(root == r)
        y_set = np.flatnonzero(supp[members].any(axis=0))
        classes.append(EquivClass(
            z_symbols=tuple(support[k] for k in members),
            y_symbols=tuple(ch.output_alphabet[y] for y in y_set),
            representative=rows[r],
        ))
    return EquivClassPartition(tuple(classes), markov_ok, len(classes))
