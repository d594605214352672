#!/usr/bin/env python3
"""When an independent look at the output beats feeding back the output itself.

With the partner's rate at zero, feeding the true output back to the
busy sender is useless: its one-user capacity stays at the no-feedback
value (here 1 - p = 0.5). But if the idle partner observes an
*independent* draw of the output, it can act as a relay: quantize the
look into an erasure description, forward it by mixing its transmit
constant, and hand the decoder a second glimpse of the sender's symbol.

This demo evaluates the sufficient condition for that strict gain on the
half-erased adder, then traces the compress-forward rate as the relay's
mixing weight grows. The curve starts exactly at capacity and climbs.
"""

from macfeedback import (catalog, compress_forward_curve, gain_sufficient_condition,
                         single_rate_capacity)

mac = catalog.erasure_adder_mac(0.5)

single = single_rate_capacity(mac, user=1)
report = gain_sufficient_condition(single)
print(f"strict-gain condition holds: {report.holds}")
p_star, xk_star, xbar_k = report.witness
print(f"witness: relay idles at x2 = {xk_star}, mixes toward x2 = {xbar_k}")
print("sender input:", {s: round(float(v), 6) for s, v in zip(p_star.alphabet, p_star.probs)})
print(f"baseline one-user capacity: {report.rhs:.6f} bits")
print()

a_grid = [round(0.01 * k, 2) for k in range(21)]
curve = compress_forward_curve(single.channels, xk_star, xbar_k, p_star, a_grid)
print(f"{'a':>5} {'rate':>10} {'b':>8}")
for a, r, b in zip(curve.a_grid, curve.rates, curve.b_values):
    marker = "  <- no-feedback capacity" if a == 0 else ""
    print(f"{a:5.2f} {r:10.6f} {b:8.4f}{marker}")

best = max(curve.rates)
print(f"\npeak relay rate on this grid: {best:.6f} "
      f"(+{best - curve.rates[0]:.6f} over the no-feedback capacity)")
print("slope at a = 0:", curve.derivative_at_zero,
      "(infinite: the mixed-in constant reaches fresh output symbols)")
