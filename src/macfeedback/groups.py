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
from .channel import ConditionalPmf, Mac, Pmf, _check_alphabet, partner_channels
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
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "cayley", cayley)
        object.__setattr__(self, "identity", int(self.identity))
        object.__setattr__(self, "embed_x1", e1)
        object.__setattr__(self, "embed_x2", e2)
        object.__setattr__(self, "y_action", ya)

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

    @staticmethod
    def from_dict(obj: dict) -> "GroupSpec":
        try:
            return GroupSpec(
                elements=tuple(obj["elements"]),
                cayley=np.asarray(obj["cayley"]),
                identity=obj["identity"],
                embed_x1=np.asarray(obj["embed_x1"]),
                embed_x2=np.asarray(obj["embed_x2"]),
                y_action=np.asarray(obj["y_action"]),
            )
        except KeyError as exc:
            raise InputError(f"group block missing field {exc.args[0]!r}") from None


def group_axiom_violations(g: GroupSpec) -> list[str]:
    """Exhaustive check of associativity, identity and inverse existence."""
    out: list[str] = []
    c = g.cayley
    n = g.order
    left = c[c, :]   # left[a, b, d]  = (a + b) + d
    right = c[:, c]  # right[a, b, d] = a + (b + d)
    bad = np.argwhere(left != right)
    for a, b, d in bad[:5]:
        out.append(
            f"associativity fails at ({g.elements[a]!r}, {g.elements[b]!r}, "
            f"{g.elements[d]!r})"
        )
    if bad.shape[0] > 5:
        out.append(f"... {bad.shape[0] - 5} more associativity failures")
    e = g.identity
    if not np.array_equal(c[e, :], np.arange(n)):
        out.append(f"left identity fails for {g.elements[e]!r}")
    if not np.array_equal(c[:, e], np.arange(n)):
        out.append(f"right identity fails for {g.elements[e]!r}")
    for a in range(n):
        if not np.any((c[a, :] == e) & (c[:, a] == e)):
            out.append(f"element {g.elements[a]!r} has no two-sided inverse")
    return out


@dataclass(frozen=True)
class AdditivityReport:
    additive: bool
    violations: tuple[str, ...]

    def to_dict(self) -> dict:
        return {"additive": self.additive, "violations": list(self.violations)}


def _sum_pairs(g: GroupSpec) -> dict[int, np.ndarray]:
    """Input index pairs (i, j) realizing each reachable sum x1 + x2.

    Keyed by group index in increasing order; each value is an (m, 2)
    array of pairs in row-major order, so its first row is the first
    input pair realizing that sum.
    """
    zidx = g.cayley[np.ix_(g.embed_x1, g.embed_x2)]
    return {z: np.argwhere(zidx == z) for z in sorted(set(zidx.ravel().tolist()))}


def verify_additive(mac: Mac, g: GroupSpec) -> AdditivityReport:
    """Decide whether ``g`` certifies the channel as additive.

    Checks, in order: table dimensions against the channel (dimension
    mismatch raises), group axioms, injectivity of the embeddings with a
    shared zero symbol, the action axioms (per-element permutation,
    identity, compatibility with the group operation), that the channel
    law depends on the inputs only through their group sum, and finally
    the row-shift identity ``p(y | z) = p(y + (z' - z) | z')`` for every
    output symbol and every pair of reachable sums. Violations name the
    offending tuples.
    """
    n1, n2, ny = mac.shape
    if g.embed_x1.shape[0] != n1 or g.embed_x2.shape[0] != n2:
        raise InputError(
            f"embeddings cover ({g.embed_x1.shape[0]}, {g.embed_x2.shape[0]}) "
            f"symbols, channel has ({n1}, {n2})"
        )
    if g.y_action.shape[0] != ny:
        raise InputError(
            f"y_action covers {g.y_action.shape[0]} output symbols, channel has {ny}"
        )

    violations = list(group_axiom_violations(g))
    if violations:
        return AdditivityReport(False, tuple(violations))

    for name, emb in (("embed_x1", g.embed_x1), ("embed_x2", g.embed_x2)):
        if len(set(emb.tolist())) != emb.shape[0]:
            violations.append(f"{name} is not injective")
    if g.identity not in g.embed_x1 or g.identity not in g.embed_x2:
        violations.append("identity element is not in the image of both embeddings")

    ya = g.y_action
    ngrp = g.order
    for gi in range(ngrp):
        if len(set(ya[:, gi].tolist())) != ny:
            violations.append(
                f"action of {g.elements[gi]!r} is not a permutation of the outputs"
            )
    if not np.array_equal(ya[:, g.identity], np.arange(ny)):
        violations.append("action of the identity moves some output symbol")
    comp = ya[ya, :]  # comp[y, g1, g2] = (y + g1) + g2
    comp2 = ya[:, g.cayley]  # comp2[y, g1, g2] = y + (g1 + g2)
    bad = np.argwhere(comp != comp2)
    for y, g1, g2 in bad[:5]:
        violations.append(
            f"action compatibility fails at (y={mac.y_alphabet[y]!r}, "
            f"{g.elements[g1]!r}, {g.elements[g2]!r})"
        )
    if bad.shape[0] > 5:
        violations.append(f"... {bad.shape[0] - 5} more compatibility failures")
    if violations:
        return AdditivityReport(False, tuple(violations))

    sum_pairs = _sum_pairs(g)
    rows: dict[int, np.ndarray] = {}
    for z, pairs in sum_pairs.items():
        i0, j0 = pairs[0]
        rows[z] = mac.pmf[i0, j0]
        for i, j in pairs[1:]:
            if not np.allclose(mac.pmf[i, j], rows[z], atol=EQ38_TOL, rtol=0.0):
                violations.append(
                    f"law depends on more than the sum: inputs "
                    f"({mac.x1_alphabet[i]!r}, {mac.x2_alphabet[j]!r}) and "
                    f"({mac.x1_alphabet[i0]!r}, {mac.x2_alphabet[j0]!r}) share "
                    f"sum {g.elements[z]!r} but differ"
                )
    if violations:
        return AdditivityReport(False, tuple(violations))

    # The axioms hold, so every element has a two-sided inverse.
    c, e = g.cayley, g.identity
    inv = np.argmax((c == e) & (c.T == e), axis=1)
    for z in rows:
        for zp in rows:
            d = c[zp, inv[z]]  # z' - z
            shifted = rows[zp][ya[:, d]]  # y -> p(y + (z'-z) | z')
            bad_y = np.flatnonzero(np.abs(rows[z] - shifted) > EQ38_TOL)
            for y in bad_y[:3]:
                violations.append(
                    f"row-shift identity fails at (y={mac.y_alphabet[y]!r}, "
                    f"z={g.elements[z]!r}, z'={g.elements[zp]!r})"
                )
    return AdditivityReport(not violations, tuple(violations))


def channel_given_sum(mac: Mac, g: GroupSpec) -> ConditionalPmf:
    """The point-to-point law ``p(y | z)`` over reachable group sums.

    Input symbols are the group-element labels of ``Z``; the row for each
    sum is taken from the first input pair realizing it, which is the
    common row whenever :func:`verify_additive` passes.
    """
    sum_pairs = _sum_pairs(g)
    rows = [mac.pmf[tuple(pairs[0])] for pairs in sum_pairs.values()]
    labels = tuple(g.elements[z] for z in sum_pairs)
    return ConditionalPmf(labels, mac.y_alphabet, np.array(rows))


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
        return {
            "user": self.user,
            "values": dict(self.values),
            "max_spread": self.max_spread,
        }


def conditional_mi_spread(mac: Mac, user: int, p_xj: Pmf) -> MiSpreadReport:
    """How much I(X_j; Y | X_k = x_k) varies with the other user's symbol.

    For an additive channel the value is the same for every ``x_k``, so
    the spread is a numerical zero; for general channels the spread is
    simply reported.
    """
    p = p_xj.probs
    values: dict[str, float] = {}
    for sym, ch in partner_channels(mac, user).items():
        if p.shape[0] != len(ch.input_alphabet):
            raise InputError("p_xj length does not match the free user's alphabet")
        values[sym] = max(float(channel_mi_bits(p, ch.rows)), 0.0)
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
        return {
            "classes": [
                {
                    "z": list(c.z_symbols),
                    "y": list(c.y_symbols),
                    "row": [float(v) for v in c.representative],
                }
                for c in self.classes
            ],
            "markov_ok": self.markov_ok,
            "m": self.m,
        }


def equivalence_classes(ch: ConditionalPmf, support=None) -> EquivClassPartition:
    """Partition the supported inputs by overlapping output supports.

    Two inputs are related when some output symbol has positive mass
    (above ``SUPPORT_EPS``) under both; classes are the transitive closure.
    """
    if support is None:
        support = ch.input_alphabet
    support = [s for s in ch.input_alphabet if s in set(support)]
    if not support:
        raise InputError("equivalence_classes: empty support")
    idx = [ch.input_alphabet.index(s) for s in support]
    rows = ch.rows[idx]
    supp = rows > SUPPORT_EPS

    # Inputs sharing an output are linked; squaring the boolean link matrix
    # until it stops changing gives reachability, and the first input each
    # one reaches is the smallest member of its class, its root.
    reach = supp @ supp.T
    while not np.array_equal(reach, wider := reach @ reach):
        reach = wider
    root = reach.argmax(axis=1)

    classes = []
    markov_ok = True
    for r in np.flatnonzero(root == np.arange(root.size)):
        members = np.flatnonzero(root == r)
        rep = rows[members[0]]
        for k in members[1:]:
            if not np.allclose(rows[k], rep, atol=ROW_TOL, rtol=0.0):
                markov_ok = False
        y_set = np.flatnonzero(supp[members].any(axis=0))
        classes.append(EquivClass(
            z_symbols=tuple(support[k] for k in members),
            y_symbols=tuple(ch.output_alphabet[y] for y in y_set),
            representative=rep,
        ))
    return EquivClassPartition(tuple(classes), markov_ok, len(classes))
