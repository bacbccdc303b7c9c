"""
Deformed arithmetic
===================

The whole library runs on one change of variables: push ordinary numbers
through u ↦ h·log u and the familiar (+, ×) turns into

    u ⊕_h v = h·log(e^{u/h} + e^{v/h}),      u ⊙ v = u + v.

As h shrinks, ⊕_h hardens into plain max.  This script watches that happen
on a handful of numbers and checks the two-sided bound

    max(u, v)  ≤  u ⊕_h v  ≤  max(u, v) + h·log 2

that makes the degeneration quantitative.
"""
import numpy as np

from tropkit import maxplus, subtropical

u, v = 3.0, 5.0
print(f"u = {u}, v = {v}, max = {max(u, v)}")
print()
print("  h      u ⊕_h v          excess over max")
for h in (4.0, 1.0, 0.25, 0.0625, 1e-3):
    s = subtropical(h).add(u, v)
    print(f"{h:7.4f}  {s:.12f}  {s - max(u, v):.2e}")

# the excess is exactly h·log 2 when the arguments tie
print()
tie = subtropical(0.5).add(1.0, 1.0)
print(f"tie at u = v = 1, h = 0.5:  {tie:.12f}  (1 + 0.5·log 2 = {1 + 0.5 * np.log(2):.12f})")

# and the bound holds pairwise on a big random sample, not just on averages
rng = np.random.default_rng(0)
a = rng.uniform(-40, 40, 100_000)
b = rng.uniform(-40, 40, 100_000)
for h in (1.0, 0.01):
    s = subtropical(h).add(a, b)
    m = np.maximum(a, b)
    assert np.all(s >= m) and np.all(s <= m + h * np.log(2))
    print(f"h = {h}: 100000 random pairs inside the [max, max + h·log 2] band")

# at h = 0 the semiring object itself is the (max, +) structure
mp = maxplus()
print()
print(f"maxplus: 3 ⊕ 5 = {mp.add(3.0, 5.0)},  3 ⊙ 5 = {mp.mul(3.0, 5.0)},  "
      f"neutral elements {mp.zero} and {mp.one}")
