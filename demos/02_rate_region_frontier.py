#!/usr/bin/env python3
"""Achievable frontier of the binary adder, inside its cut-set pentagon.

Sweeps 17 weight directions over auxiliary-variable inputs and writes a
CSV next to this script. Each frontier point is certified achievable:
``cover_leung_frontier`` re-evaluates its pentagon exactly from the stored
auxiliary input. The famous feature of this channel: the frontier's sum
rate (about 1.582 bits) beats the best independent-input sum rate
(1.5 bits) because the auxiliary variable correlates the senders.

With matplotlib installed a PNG of the region is saved as well.
"""

from pathlib import Path

from macfeedback import (catalog, cover_leung_frontier, cutset_single_rate,
                         cutset_sum_rate)

HERE = Path(__file__).parent
mac = catalog.adder_mac()

frontier = cover_leung_frontier(mac, restarts=25, seed=0)
c1 = cutset_single_rate(mac, 1, "PF")
c2 = cutset_single_rate(mac, 2, "PF")
cs = cutset_sum_rate(mac)

best_sum = max(pt.rates.r1 + pt.rates.r2 for pt in frontier.points)
print(f"cut-set bounds: R1 <= {c1:.6f}, R2 <= {c2:.6f}, R1+R2 <= {cs:.6f}")
print(f"best achieved sum rate: {best_sum:.6f} (independent inputs top out at 1.5)")

csv_path = HERE / "adder_frontier.csv"
csv_path.write_text(frontier.to_csv())
print(f"frontier written to {csv_path}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("matplotlib not available; skipping the plot")
else:
    r1 = [pt.rates.r1 for pt in frontier.points]
    r2 = [pt.rates.r2 for pt in frontier.points]
    fig, ax = plt.subplots(figsize=(5, 5))
    ax.plot(r1, r2, "o-", label="achievable frontier")
    ax.plot([0, c1], [cs - c1, 0], "r--", label="sum-rate cut")
    ax.axvline(c1, color="gray", ls=":", label="single-user cuts")
    ax.axhline(c2, color="gray", ls=":")
    ax.set_xlabel("R1 (bits)")
    ax.set_ylabel("R2 (bits)")
    ax.set_title("Binary adder: inner frontier vs cut-set bounds")
    ax.legend(loc="lower left")
    fig.tight_layout()
    out = HERE / "adder_region.png"
    fig.savefig(out, dpi=120)
    print(f"plot written to {out}")
