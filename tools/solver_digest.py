"""Record every capacity solve and frontier point, bit for bit, for a diff.

Usage::

    python tools/solver_digest.py OUT

Imports ``macfeedback`` from the checkout that holds this script and writes
one line per result to the file ``OUT``, every float as ``float.hex``:

* ``max_support_input`` and ``blahut_arimoto`` on the partner-constant and
  two-look channels of each shipped ``channels/*.json`` file and on seeded
  random channels, dense and sparse; ``maximize_joint_mi`` on each shipped
  channel and on seeded random MACs. A line holds the value, the upper end,
  the iteration count, the convergence flag and the returned input.
* ``cover_leung_frontier`` points: the default fan on each shipped channel,
  each direction of the adder's default fan alone, and the default fan on
  seeded random MACs. A line holds the weights, the value, R1, R2 and the
  SHA-256 of the witness's p(u), p(x1|u) and p(x2|u) bytes.

Digests of two checkouts compare with ``diff OUT_A OUT_B``; any moved bit
shows as a changed line.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import macfeedback as mf  # noqa: E402
from macfeedback import catalog  # noqa: E402

SEED = 2029
RANDOM_CHANNELS = 40  # of each kind, dense and sparse
RANDOM_MACS = 4


def _hex(values) -> str:
    return " ".join(float(v).hex() for v in np.ravel(values))


def _solve_line(label: str, res: mf.OptResult) -> str:
    return (f"{label} value={res.value.hex()} upper={res.upper.hex()} "
            f"iterations={res.iterations} converged={res.converged} "
            f"input={_hex(res.argmax_input.probs)}")


def _channel_lines(label: str, ch: mf.ConditionalPmf) -> list[str]:
    return [_solve_line(f"{label} max_support_input", mf.max_support_input(ch)),
            _solve_line(f"{label} blahut_arimoto", mf.blahut_arimoto(ch))]


def _random_channels(rng: np.random.Generator, sparsity: float):
    """Channels with 2-5 inputs and outputs; with ``sparsity``, that share of
    entries zeroed (never a whole row) and the rows renormalized."""
    for _ in range(RANDOM_CHANNELS):
        n_in, n_out = (int(k) for k in rng.integers(2, 6, size=2))
        rows = rng.dirichlet(np.ones(n_out), size=n_in)
        if sparsity:
            mask = rng.random(rows.shape) < sparsity
            mask[np.arange(n_in), rng.integers(n_out, size=n_in)] = False
            rows = np.where(mask, 0.0, rows)
            rows /= rows.sum(axis=1, keepdims=True)
        yield mf.ConditionalPmf(tuple(map(str, range(n_in))), tuple(map(str, range(n_out))), rows)


def _random_mac(rng: np.random.Generator) -> mf.Mac:
    ny = int(rng.integers(2, 6))
    return mf.Mac(("0", "1"), ("0", "1"), tuple(map(str, range(ny))),
                  rng.dirichlet(np.ones(ny), size=(2, 2)))


def _frontier_lines(label: str, frontier: mf.RegionFrontier) -> list[str]:
    out = []
    for pt in frontier.points:
        q = pt.witness
        witness = b"".join(a.tobytes() for a in (q.p_u.probs, q.p_x1_given_u.rows,
                                                 q.p_x2_given_u.rows))
        out.append(f"{label} weights={_hex(pt.weights)} value={pt.value.hex()} "
                   f"R1={pt.rates.r1.hex()} R2={pt.rates.r2.hex()} "
                   f"witness={hashlib.sha256(witness).hexdigest()}")
    return out


def lines() -> list[str]:
    """Every result line, in a fixed order."""
    shipped = [(path.stem, mf.load_channel_file(path).mac)
               for path in sorted((ROOT / "channels").glob("*.json"))]
    out = []
    for stem, mac in shipped:
        out.append(_solve_line(f"{stem} maximize_joint_mi", mf.maximize_joint_mi(mac)))
        for user in (1, 2):
            for sym, ch in mf.partner_channels(mac, user).items():
                out += _channel_lines(f"{stem} user{user} partner={sym}", ch)
                out += _channel_lines(f"{stem} user{user} partner={sym} two-look",
                                      mf.two_look_channel(ch))
    rng = np.random.default_rng(SEED)
    for kind, sparsity in (("dense", 0.0), ("sparse", 0.5)):
        for k, ch in enumerate(_random_channels(rng, sparsity)):
            out += _channel_lines(f"random-{kind}-{k}", ch)
    macs = [_random_mac(rng) for _ in range(RANDOM_MACS)]
    for k, mac in enumerate(macs):
        out.append(_solve_line(f"random-mac-{k} maximize_joint_mi", mf.maximize_joint_mi(mac)))

    for stem, mac in shipped:
        out += _frontier_lines(f"{stem} fan", mf.cover_leung_frontier(mac))
    adder = catalog.adder_mac()
    for w in mf.default_weight_fan():
        out += _frontier_lines("adder single", mf.cover_leung_frontier(adder, weights=[w]))
    for k, mac in enumerate(macs):
        out += _frontier_lines(f"random-mac-{k} fan", mf.cover_leung_frontier(mac))
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        sys.stderr.write("usage: python tools/solver_digest.py OUT\n")
        return 2
    Path(argv[0]).write_text("".join(line + "\n" for line in lines()), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
