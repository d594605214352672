"""Ready-made channel families used throughout the tests and demos.

Two families recur everywhere:

* the binary adder with an output erasure stage: inputs {0, 1} each, the
  output is the integer sum unless it is erased (probability ``p``), and
* the binary symmetric combination: the output is the mod-2 sum of the
  inputs flipped with probability ``q``.

Both come with a group certificate. For the adder family the group is
the cyclic group of order 4; integer sums of the inputs never wrap, so
the cyclic closure agrees with plain addition on every reachable sum.
Closing the output action under the full group needs one extra output
symbol ("3") which carries zero probability, and the erasure symbol is a
fixed point of the action.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .channel import Mac, erasure_extend
from .errors import InputError
from .groups import GroupSpec


def adder_mac() -> Mac:
    """Noiseless binary adder: Y = X1 + X2 over {0, 1, 2}."""
    pmf = np.zeros((2, 2, 3))
    for i in range(2):
        for j in range(2):
            pmf[i, j, i + j] = 1.0
    return Mac(("0", "1"), ("0", "1"), ("0", "1", "2"), pmf, name="adder")


def erasure_adder_mac(p: float) -> Mac:
    """Binary adder whose output is erased with probability ``p``.

    The adder's output alphabet with "3" added, under
    :func:`~macfeedback.channel.erasure_extend`: ("0", "1", "2", "3", "e");
    symbol "3" never occurs and exists only so the group action of
    :func:`erasure_adder_group` permutes the full alphabet.
    """
    adder = adder_mac()
    four = Mac(adder.x1_alphabet, adder.x2_alphabet, adder.y_alphabet + ("3",),
               np.pad(adder.pmf, ((0, 0), (0, 0), (0, 1))))
    return replace(erasure_extend(four, p), name=f"erasure-adder(p={p:g})")


def erasure_adder_group() -> GroupSpec:
    """Cyclic-4 certificate for :func:`erasure_adder_mac`."""
    n = 4
    cayley = np.fromfunction(lambda a, b: (a + b) % n, (n, n), dtype=np.int64)
    y_action = np.zeros((5, n), dtype=np.int64)
    for y in range(4):
        for g in range(n):
            y_action[y, g] = (y + g) % n
    y_action[4, :] = 4  # erasures are fixed by every shift
    return GroupSpec(
        elements=("0", "1", "2", "3"),
        cayley=cayley,
        identity=0,
        embed_x1=np.array([0, 1]),
        embed_x2=np.array([0, 1]),
        y_action=y_action,
    )


def binary_symmetric_mac(q: float) -> Mac:
    """Y = X1 xor X2 xor N with N ~ Bernoulli(q), all alphabets {0, 1}."""
    if not 0.0 <= q <= 1.0:
        raise InputError(f"flip probability must lie in [0, 1], got {q!r}")
    pmf = np.zeros((2, 2, 2))
    for i in range(2):
        for j in range(2):
            z = i ^ j
            pmf[i, j, z] = 1.0 - q
            pmf[i, j, 1 - z] = q
    return Mac(("0", "1"), ("0", "1"), ("0", "1"), pmf,
               name=f"binary-symmetric(q={q:g})")


def binary_symmetric_group() -> GroupSpec:
    """Mod-2 certificate for :func:`binary_symmetric_mac`."""
    cayley = np.array([[0, 1], [1, 0]])
    return GroupSpec(
        elements=("0", "1"),
        cayley=cayley,
        identity=0,
        embed_x1=np.array([0, 1]),
        embed_x2=np.array([0, 1]),
        y_action=np.array([[0, 1], [1, 0]]),
    )
