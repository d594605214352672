"""Entropy, mutual information and divergence over finite distributions.

Every quantity is measured in bits (log base 2). Terms with zero
probability are dropped before any logarithm, and a divergence whose
support condition fails returns ``math.inf`` rather than raising, so that
comparisons against possibly-infinite divergences stay well defined.

Tiny negative values caused by floating-point cancellation (above
``-1e-12``) are clamped to exactly 0; anything more negative is a genuine
bug upstream and is returned as-is so it can be caught.
"""

from __future__ import annotations

import math

import numpy as np

from ._util import binary_entropy  # noqa: F401  (part of this module's API)
from ._util import check_table, clamp_tiny, entropy_bits
from .channel import JointDist, Pmf
from .errors import InputError

NUM_FLOOR = 1e-12


def _floor(value: float) -> float:
    if -NUM_FLOOR <= value < 0.0:
        return 0.0
    return value


def _names(names) -> tuple[str, ...]:
    if names is None:
        return ()
    return (names,) if isinstance(names, str) else tuple(names)


def entropy(p: Pmf | np.ndarray) -> float:
    """Shannon entropy H(p) in bits, with 0 log 0 = 0.

    A raw array is one distribution over all its entries and is checked
    like a :class:`Pmf` table; InputError names the first fault.
    """
    if isinstance(p, Pmf):
        table = p.probs
    else:
        table = clamp_tiny(p)
        check_table(table, "entropy")
    return _floor(float(entropy_bits(table)))


def joint_entropy(joint: JointDist, names=None) -> float:
    """Entropy in bits of the marginal over ``names`` (default: all axes)."""
    names = _names(names)
    table = joint.table if not names else joint.marginal_table(names)
    return _floor(float(entropy_bits(table)))


def conditional_entropy(joint: JointDist, target, given=()) -> float:
    """H(target | given) in bits, both arguments axis names or tuples."""
    target = _names(target)
    given = _names(given)
    if not given:
        return joint_entropy(joint, target)
    return _floor(joint_entropy(joint, target + given) - joint_entropy(joint, given))


def mutual_information(joint: JointDist, a=None, b=None) -> float:
    """I(A; B) in bits.

    Defaults: ``a`` is the first axis, ``b`` all remaining axes. ``a`` and
    ``b`` may each be one name or a tuple of names; they must not overlap.
    """
    names = joint.names
    a = _names(a) or names[:1]
    b = _names(b) or tuple(n for n in names if n not in a)
    if set(a) & set(b):
        raise InputError("mutual_information: axis groups overlap")
    value = (joint_entropy(joint, a) + joint_entropy(joint, b)
             - joint_entropy(joint, a + b))
    return _floor(value)


def conditional_mi(joint: JointDist, a=None, b=None, given=None) -> float:
    """I(A; B | C) in bits.

    Defaults follow a three-axis joint ``(A, B, C)``: ``a`` is the first
    axis, ``b`` the second, ``given`` everything else. Equals the average
    over conditioning values of the per-slice mutual information; slices
    of zero probability contribute nothing.
    """
    names = joint.names
    a = _names(a) or names[:1]
    b = _names(b) or tuple(n for n in names if n not in a)[:1]
    given = _names(given) or tuple(
        n for n in names if n not in a and n not in b
    )
    if not given:
        return mutual_information(joint, a, b)
    if (set(a) & set(b)) or (set(a) & set(given)) or (set(b) & set(given)):
        raise InputError("conditional_mi: axis groups overlap")
    value = (joint_entropy(joint, a + given) + joint_entropy(joint, b + given)
             - joint_entropy(joint, a + b + given) - joint_entropy(joint, given))
    return _floor(value)


def kl_divergence_vec(p: np.ndarray, q: np.ndarray) -> float:
    """D(p || q) in bits for probability vectors on a shared alphabet;
    ``math.inf`` when support(p) is not inside support(q)."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    mask = p > 0.0
    if np.any(q[mask] <= 0.0):
        return math.inf
    pm, qm = p[mask], q[mask]
    return _floor(float(np.sum(pm * (np.log2(pm) - np.log2(qm)))))
