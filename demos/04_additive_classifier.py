#!/usr/bin/env python3
"""Exact classification of the independent-look gain for additive channels.

A channel is additive when it factors through a group sum of the inputs.
For such channels the question "do independent looks strictly help a
single user?" has a clean answer: they do NOT exactly when either

  1. the joint-input information bound already equals the one-user
     capacity, or
  2. the sum channel splits into classes with disjoint output supports
     and identical rows (a class index shields the output).

Both conditions are decidable, and this demo sweeps the two reference
families to show the resulting phase picture.
"""

from macfeedback import catalog, classify_additive_gain

print("erasure adder family (group: cyclic of order 4)")
print(f"{'p':>5} {'cond1':>6} {'cond2':>6} {'conclusion':>17} {'joint':>8} {'single':>8}")
for k in range(11):
    p = k / 10
    cls, _ = classify_additive_gain(catalog.erasure_adder_mac(p),
                                    catalog.erasure_adder_group())
    print(f"{p:5.1f} {str(cls.condition1):>6} {str(cls.condition2):>6} "
          f"{cls.conclusion:>17} {cls.joint_mi:8.4f} {cls.single_rate:8.4f}")

print()
print("binary symmetric family (group: mod-2)")
print(f"{'q':>5} {'cond1':>6} {'cond2':>6} {'conclusion':>17}")
for q in (0.0, 0.11, 0.25, 0.5):
    cls, _ = classify_additive_gain(catalog.binary_symmetric_mac(q),
                                    catalog.binary_symmetric_group())
    print(f"{q:5.2f} {str(cls.condition1):>6} {str(cls.condition2):>6} "
          f"{cls.conclusion:>17}")

print()
print("Reading the tables: the adder gains from independent looks for every")
print("0 < p < 1, while the symmetric channel never does (its joint bound is")
print("already pinned to the single-user capacity).")
