"""Ready-made channel families used throughout the tests and demos.

Two families recur everywhere:

* the binary adder with an output erasure stage: inputs {0, 1} each, the
  output is the integer sum unless it is erased (probability ``p``), and
* the binary symmetric combination: the output is the mod-2 sum of the
  inputs flipped with probability ``q``.

Both come with a cyclic group certificate, built by one rule: Z_n with
both binary inputs embedded as 0 and 1, acting on the outputs 0..n-1 by
rotation and fixing any outputs after them. The binary symmetric family
takes Z_2. The adder family takes Z_4; integer sums of the inputs never
wrap, so the cyclic closure agrees with plain addition on every reachable
sum. Closing the output action under the full group needs one extra
output symbol ("3") which carries zero probability, and the erasure
symbol is the one fixed output.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ._util import check_probability
from .channel import Mac, erasure_extend
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


def _cyclic_group(n: int, fixed: int = 0) -> GroupSpec:
    """Z_n with both binary inputs embedded as 0 and 1; the action rotates
    outputs 0..n-1 and fixes the ``fixed`` outputs after them."""
    shift = np.add.outer(np.arange(n), np.arange(n)) % n
    fixed_rows = np.tile(np.arange(n, n + fixed)[:, None], n)
    return GroupSpec(elements=tuple(map(str, range(n))), cayley=shift, identity=0,
                     embed_x1=np.array([0, 1]), embed_x2=np.array([0, 1]),
                     y_action=np.vstack([shift, fixed_rows]))


def erasure_adder_group() -> GroupSpec:
    """Cyclic-4 certificate for :func:`erasure_adder_mac`; the erasure is fixed."""
    return _cyclic_group(4, fixed=1)


def binary_symmetric_mac(q: float) -> Mac:
    """Y = X1 xor X2 xor N with N ~ Bernoulli(q), all alphabets {0, 1}."""
    check_probability("flip probability", q)
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
    return _cyclic_group(2)
