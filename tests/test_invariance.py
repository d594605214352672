"""A certified capacity or cut-set value does not depend on how the channel is written.

Exact transforms of each shipped channel and of 40 seeded random MACs, with
the value each transform must leave unchanged (or scale by 1 - p):

* swap the users (user j's values become user 3 - j's);
* reverse every alphabet;
* split the first output symbol into two proportional halves;
* duplicate the first x1 row as a new x1 symbol;
* erasure extension at p, which scales every value by 1 - p.

Single-user capacities agree to rounding under every transform. The
cut-set values read the upper end of a certificate, so under a transform
that changes the solve (a duplicated row, an erasure) they agree within the
solve tolerance; the IF cut-set is not compared under erasure, where each
of its two looks is erased on its own. The gain condition's verdict is
compared under the swap, the reversal and the duplicated row.
"""

from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from macfeedback import (Mac, cutset_single_rate, cutset_sum_rate, erasure_extend,
                         gain_sufficient_condition, load_channel_file, single_rate_capacity)
from macfeedback.optimize import DEFAULT_TOL

CHANNELS = {p.stem: p
            for p in (Path(__file__).resolve().parent.parent / "channels").glob("*.json")}
RANDOM_SEEDS = range(40)

ROUNDING = 1e-12


def _random_mac(s: int) -> Mac:
    r = np.random.default_rng(1000 + s)
    n1, n2 = r.integers(2, 4), r.integers(2, 4)
    ny = r.integers(2, 5)
    pmf = r.dirichlet(np.ones(ny), size=(n1, n2))
    return Mac(tuple(map(str, range(n1))), tuple(map(str, range(n2))),
               tuple(map(str, range(ny))), pmf, name=f"random-{s}")


CASES = sorted(CHANNELS) + [f"random-{s}" for s in RANDOM_SEEDS]


@lru_cache(maxsize=None)
def _mac(case: str) -> Mac:
    if case in CHANNELS:
        return load_channel_file(CHANNELS[case]).mac
    return _random_mac(int(case.removeprefix("random-")))


def _measures(mac: Mac, skip=()) -> dict:
    """Every compared value but those named in ``skip``, keyed by (measure, user)."""
    out = {("sum", 0): cutset_sum_rate(mac)}
    for user in (1, 2):
        sr = single_rate_capacity(mac, user)
        out["capacity", user] = sr.value
        if "holds" not in skip:
            out["holds", user] = gain_sufficient_condition(sr).holds
        for model in ("PF", "IF"):
            if model not in skip:
                out[model, user] = cutset_single_rate(mac, user, model)
    return out


@lru_cache(maxsize=None)
def _original(case: str) -> dict:
    return _measures(_mac(case))


def _swapped(mac: Mac) -> Mac:
    return Mac(mac.x2_alphabet, mac.x1_alphabet, mac.y_alphabet, mac.pmf.transpose(1, 0, 2))


def _reversed(mac: Mac) -> Mac:
    return Mac(mac.x1_alphabet[::-1], mac.x2_alphabet[::-1], mac.y_alphabet[::-1],
               mac.pmf[::-1, ::-1, ::-1])


def _split(mac: Mac, k: int) -> Mac:
    """Output ``k``'s mass halved, the other half moved to a new last symbol."""
    half = mac.pmf[:, :, k] / 2
    pmf = np.concatenate([mac.pmf, half[:, :, None]], axis=2)
    pmf[:, :, k] = half
    return Mac(mac.x1_alphabet, mac.x2_alphabet, mac.y_alphabet + (f"{mac.y_alphabet[k]}/2",),
               pmf)


def _duplicated(mac: Mac, i: int) -> Mac:
    """x1 symbol ``i``'s rows repeated as a new last x1 symbol."""
    return Mac(mac.x1_alphabet + (f"{mac.x1_alphabet[i]}'",), mac.x2_alphabet, mac.y_alphabet,
               np.concatenate([mac.pmf, mac.pmf[i:i + 1]], axis=0))


def _compare(case, mac: Mac, users=(1, 2), scale=1.0, cutset_tol=ROUNDING, skip=()):
    """Check the measures of ``mac``, a transform of ``case`` whose user j
    is the original's ``users[j - 1]``, against the original's, leaving out
    the measures named in ``skip``."""
    orig = _original(case)
    user_of = {0: 0, 1: users[0], 2: users[1]}
    for (measure, user), value in _measures(mac, skip).items():
        want = orig[measure, user_of[user]]
        if measure == "holds":
            assert value == want, (case, measure, user)
        else:
            tol = ROUNDING if measure == "capacity" else cutset_tol
            assert abs(value - scale * want) <= tol, (case, measure, user, value, scale * want)


@pytest.mark.parametrize("case", CASES)
def test_swap_users(case):
    _compare(case, _swapped(_mac(case)), users=(2, 1))


@pytest.mark.parametrize("case", CASES)
def test_reverse_alphabets(case):
    _compare(case, _reversed(_mac(case)))


@pytest.mark.parametrize("case", CASES)
def test_split_output(case):
    # The gain verdict is not compared: splitting a symbol raises
    # H(Y | Xj, Xk) in the compress-forward term (see ROADMAP item 15).
    _compare(case, _split(_mac(case), 0), skip=("holds",))


@pytest.mark.parametrize("case", CASES)
def test_duplicate_x1_row(case):
    _compare(case, _duplicated(_mac(case), 0), cutset_tol=DEFAULT_TOL)


@pytest.mark.parametrize("p", [0.25, 0.5])
@pytest.mark.parametrize("case", CASES)
def test_erasure_scales_by_one_minus_p(case, p):
    # Two independent looks are erased independently, so the IF cut-set
    # does not scale by 1 - p; the gain verdict is the paper's subject and
    # may change.
    _compare(case, erasure_extend(_mac(case), p), scale=1.0 - p,
             cutset_tol=DEFAULT_TOL, skip=("holds", "IF"))
