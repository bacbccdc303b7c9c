"""Shortest paths as linear algebra over (min, +).

A weighted digraph is a matrix H with H[j, i] = weight of the arc i → j
(∞ where there is no arc).  Matrix powers then accumulate path weights,
the Kleene star H* collects the best path of any length, and the
single-source problem is the least solution of X = H ⊙ X ⊕ F.  Over
subtropical(h) the same star is h·log (I − e^{A/h})⁻¹, the classical inverse
seen through u ↦ h·log u.
"""
import numpy as np

from tropkit import SemiringMatrix, kleene_star, mat_mul, minplus, solve_bellman, subtropical

mn = minplus()
INF = np.inf

# a small commuter network: 0 = depot, 4 = airport
#            0    1    2    3    4
H = np.array([
    [INF, INF, INF, INF, INF],   # nothing enters the depot
    [2.0, INF, INF, INF, INF],   # 0 → 1 costs 2
    [5.0, 1.0, INF, INF, INF],   # 0 → 2 direct is 5, via 1 is 2 + 1
    [INF, 4.0, 1.0, INF, INF],
    [INF, INF, 6.0, 2.0, INF],
], dtype=float)

Hm = SemiringMatrix(H, mn)
star = kleene_star(Hm)
print("H* (best path weight, any number of hops):")
print(star.entries)

F = np.full((5, 1), INF)
F[0, 0] = 0.0
dist = solve_bellman(SemiringMatrix(H, mn), SemiringMatrix(F, mn))
print()
print("distances from the depot:", dist.entries.ravel())

# the two routes agree entry for entry
assert np.array_equal(dist.entries, mat_mul(star, SemiringMatrix(F, mn)).entries)

# squaring the matrix is dynamic programming over two-hop paths
two_hop = mat_mul(Hm, Hm)
print()
print(f"best two-hop ride 0 → 2: {two_hop.entries[2, 0]}  (2 + 1 beats the direct 5)")

# the negated network over subtropical(h): a smoothed best path that sums over
# every route and hardens into −H* as h → 0 (acyclic, so the star always exists)
reachable = np.isfinite(star.entries)
print()
for h in (1.0, 0.1, 0.01):
    soft = kleene_star(SemiringMatrix(np.where(np.isinf(H), -INF, -H), subtropical(h))).entries
    gap = np.max(np.abs(soft[reachable] + star.entries[reachable]))
    print(f"subtropical(h = {h:<4}) star: max |S_h − (−H*)| = {gap:.3e}")
