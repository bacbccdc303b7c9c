"""
The vanishing-viscosity bridge
==============================

The smoothed evolution

    h·∂u/∂t = (h²/2m)·∂²u/∂x² + V·u

is an ordinary linear parabolic equation.  Writing u = e^{S/h} turns its
heat semigroup into the Lax–Oleinik semigroup over the deformed semiring
subtropical(h), and as h → 0 that semiring hardens into (max, +): the heat
semigroup *is* the Lax–Oleinik semigroup, seen through deformed glasses.
tropkit computes both with one operator, ``lax_oleinik_step``.

Here we launch u₀ = e^{-x²/h}, whose action is -x², evolve for one unit of
time, and compare h·log u against the max-plus limit -x²/(1 + 2t) = -x²/3.
The Gaussian stays a Gaussian, so the gap is exactly (h/2)·log(1 + 2t) =
(h/2)·log 3 ≈ 0.549·h at every h: the ratio column stays put.  At
h ≤ 0.005, e^{-x²/h} underflows to 0 at the edge of the box, so those rungs
start from S₀ = -x² over subtropical(h) and never leave log coordinates.
"""
import numpy as np

from tropkit import (
    GridDomain,
    GridFunction,
    MechanicalSystem,
    dequantize_solution,
    lax_oleinik_evolve,
    maxplus,
    subtropical,
    viscous_solve,
)

mp = maxplus()
dom = GridDomain(-2.0, 2.0, 321)
sys = MechanicalSystem((1.0,), 1.0, 1.0)
x = dom.axes()[0]
mid = np.abs(x) <= 1.0
limit = -(x[mid] ** 2) / 3.0

print("  h      sup |h·log u - S|   ratio to h")
prev = None
for h in (0.4, 0.2, 0.1, 0.05, 0.025, 0.005, 0.001):
    if h > 0.005:
        u0 = GridFunction.sample(lambda t: np.exp(-(t**2) / h), dom, mp)
        s = dequantize_solution(viscous_solve(u0, sys, h), h)
    else:
        s0 = GridFunction.sample(lambda t: -(t**2), dom, subtropical(h))
        s = lax_oleinik_evolve(s0, sys).S
    err = np.max(np.abs(s.values[mid] - limit))
    note = "" if prev is None else f"   (h × {h / prev[0]:.1f}, error × {err / prev[1]:.2f})"
    print(f"{h:6.3f}   {err:.6f}          {err / h:.3f}{note}")
    prev = (h, err)
