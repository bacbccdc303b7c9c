"""Hamilton-Jacobi evolution as linear algebra over tropical semirings.

For a mechanical Hamiltonian ``H = Σ p_i²/(2 m_i) + V(x)`` the value/action
function evolves by the Lax-Oleinik semigroup.  One time step is an
idempotent integral operator with the quadratic kernel
``K(x, y) = Σ_i m_i (x_i − y_i)² / (2 Δt)`` — added over min-plus (cost
minimization), subtracted over max-plus (action maximization) — followed by
an operator-splitting potential update ``S ← S + V·Δt``.  The action's own
semiring picks the sign: the kernel takes the sign of that semiring's zero.
The step is a *linear* operator over its semiring, which is the
superposition principle:
``step(λ₁ ⊙ S₁ ⊕ λ₂ ⊙ S₂) = λ₁ ⊙ step(S₁) ⊕ λ₂ ⊙ step(S₂)``.

The kernel is a sum of one (p × p) kernel per axis, so the step contracts
one axis at a time (:meth:`Semiring.contract`, the blocked contraction of
a matrix product) and never forms the p^{2d} kernel: O(d·p^{d+1}) time and
O(p^d + p²) memory per step on a d-dimensional grid of p points per axis.
:func:`quadratic_kernel` builds the dense kernel as a reference.

The smoothed counterpart is the linear parabolic equation
``h·∂u/∂t = Σ_i (h²/(2 m_i))·∂²u/∂x_i² + V·u`` with reflecting walls.  In
the coordinates ``S = h·log u`` its heat semigroup is the same step over
``subtropical(h)``, with h·log of the heat kernel as the axis kernel, and it
hardens into the max-plus step as h → 0 (Maslov dequantization).  From
``S₀ = −x²`` with m = 1 it gives ``−x²/(1 + 2t) − (h/2)·log(1 + 2t)`` away
from the walls: the gap to the Lax–Oleinik flow is exactly that.
:func:`dequantize_solution` turns a positive u into that ``subtropical(h)``
action, so :func:`viscous_solve` is :func:`lax_oleinik_evolve` between the
change of variables and its inverse.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .analysis import GridDomain, GridFunction
from .errors import DomainTooSmallError
from .semiring import Semiring, _common_spec, subtropical

__all__ = [
    "MechanicalSystem",
    "ActionState",
    "SuperpositionReport",
    "builtin_potential",
    "quadratic_kernel",
    "lax_oleinik_step",
    "lax_oleinik_evolve",
    "viscous_solve",
    "dequantize_solution",
    "superposition_check",
]


@dataclass(frozen=True)
class MechanicalSystem:
    """Masses, potential, step size and horizon of one evolution problem.

    The system holds no semiring: an action evolves in the one it carries.
    A min-plus action is a cost-to-go (kernel added), a max-plus action is
    being maximized (kernel subtracted), and a ``subtropical(h)`` action
    deforms max-plus.  Masses, step and horizon must be finite, and the
    horizon an integer number of steps.
    """

    masses: tuple[float, ...]
    dt: float
    horizon: float
    potential: Callable | None = None

    def __post_init__(self):
        object.__setattr__(
            self, "masses", tuple(float(m) for m in np.atleast_1d(self.masses))
        )
        if not self.masses or any(not m > 0 for m in self.masses):
            raise ValueError("masses must be positive")
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if self.horizon < 0:
            raise ValueError("horizon must be nonnegative")
        finite = {"masses": self.masses, "dt": (self.dt,), "horizon": (self.horizon,)}
        for name, values in finite.items():
            if not all(map(math.isfinite, values)):
                raise ValueError(f"{name} must be finite")
        steps = self.horizon / self.dt
        if abs(steps - round(steps)) > 1e-9 * max(1.0, steps):
            raise ValueError("horizon must be an integer multiple of dt")

    @property
    def dim(self) -> int:
        return len(self.masses)

    @property
    def steps(self) -> int:
        return int(round(self.horizon / self.dt))


@dataclass(frozen=True)
class ActionState:
    """A sampled action function together with its time stamp."""

    S: GridFunction
    t: float


def builtin_potential(text: str) -> Callable | None:
    """Resolve a named potential: ``zero``, ``quadratic K``, ``double-well``.

    ``quadratic K`` is ``V(x) = (K/2)·Σ x_i²``; ``double-well`` is
    ``V(x) = Σ (x_i² − 1)²``.  Returns None for ``zero`` (no potential term).
    """
    parts = text.split()
    if not parts:
        raise ValueError("empty potential name")
    name = parts[0].lower()
    if name == "zero":
        if len(parts) != 1:
            raise ValueError("'zero' takes no parameter")
        return None
    if name == "quadratic":
        if len(parts) != 2:
            raise ValueError("'quadratic' needs a stiffness parameter")
        k = float(parts[1])
        return lambda *xs: 0.5 * k * sum(np.asarray(x) ** 2 for x in xs)
    if name == "double-well":
        if len(parts) != 1:
            raise ValueError("'double-well' takes no parameter")
        return lambda *xs: sum((np.asarray(x) ** 2 - 1.0) ** 2 for x in xs)
    raise ValueError(f"unknown potential {text!r}")


def _check_dimension(domain: GridDomain, sys: MechanicalSystem) -> None:
    if domain.dim != sys.dim:
        raise ValueError(f"grid dimension {domain.dim} != system dimension {sys.dim}")


def _axis_kernels(domain: GridDomain, sys: MechanicalSystem, spec: Semiring) -> list[np.ndarray]:
    """The per-axis kernels ``±m_i (x_i − y_i)²/(2 Δt)`` as (p × p) arrays [x, y].

    The sign is that of the semiring's zero: + over min-plus, − over
    max-plus.  Over ``subtropical(h)`` the heat kernel of
    :func:`_heat_kernel`.  Callers check that the domain has the system's
    dimension.
    """
    kernels = []
    for m, ax, sigma in zip(sys.masses, domain.axes(), domain.spacing):
        if not spec.is_idempotent:
            kernels.append(_heat_kernel(ax.size, sigma, m, sys.dt, spec))
            continue
        diff = ax[:, None] - ax[None, :]
        kern = m * diff * diff / (2.0 * sys.dt)
        kernels.append(np.copysign(kern, spec.zero, out=kern))
    return kernels


def _heat_kernel(p: int, sigma: float, m: float, dt: float, spec: Semiring) -> np.ndarray:
    """h·log of the trapezoid-weighted heat kernel with reflecting walls, [x, y].

        K(x_i, y_j) = ⊕_{y′} −m (x_i − y′)²/(2Δt) + h·log(w_j/σ) − N

    with trapezoid weights w.  On nodes ``x_i = lo + iσ`` the walls reflect
    y_j to ``y′ = lo ± jσ + 2kL``, ``L = (p − 1)σ``, so ``x_i − y′`` is σ
    times one of the 3p − 2 offsets ``i ∓ j`` shifted by ``2k(p − 1)``.  Each
    offset's K images are ⊕-folded once, in O(K·p), and the kernel reads the
    fold at ``i − j`` and ``i + j``, in O(p²).  Images farther than
    ``√(L² + 100·hΔt/m)`` add less than e⁻⁵⁰ of the direct term, which fixes
    K.  Each row meets every residue mod 2(p − 1) once, so N, the fold's ⊕
    over one period, makes rows sum to one in ``u = e^{K/h}`` at any
    resolution; the continuum constant ``h·log(σ·√(m/(2πhΔt)))`` matches −N
    only once ``hΔt/m ≫ σ²``.  Over max and min no image beats the direct
    term (``|x − y′| ≥ |x − y|``), so those kernels have none.
    """
    last = p - 1
    scale = m * sigma * sigma / (2.0 * dt)  # the term at offset n is −scale·n²
    reach = math.sqrt(last * last + 50.0 * spec.h / scale)
    period = 2 * last
    k = np.arange(math.floor((-last - reach) / period), math.ceil((period + reach) / period) + 1)
    z = np.arange(-last, period + 1) - period * k[:, None]
    fold = spec.reduce(-scale * z * z, 0, overwrite=True)
    i = np.arange(p)[:, None]
    kern = spec.add(fold[last + i - i.T], fold[last + i + i.T])
    w = np.ones(p)
    w[[0, -1]] = 0.5
    return kern + (spec.h * np.log(w) - spec.reduce(fold[last:last + period]))


def quadratic_kernel(domain: GridDomain, sys: MechanicalSystem, spec: Semiring) -> GridFunction:
    """The one-step transition kernel over ``spec`` on the product grid X × X.

    ``K(x, y) = ± Σ_i m_i (x_i − y_i)²/(2 Δt)`` with + for min-plus and − for
    max-plus.  This is the dense (p^{2d}-entry) form of the kernel that
    :func:`lax_oleinik_step` applies one axis at a time; it is kept as a
    reference for that step.
    """
    _check_dimension(domain, sys)
    d = domain.dim
    terms = []
    for i, kern in enumerate(_axis_kernels(domain, sys, spec)):
        shape = [1] * (2 * d)
        shape[i] = shape[d + i] = domain.points_per_axis
        terms.append(kern.reshape(shape))
    total = sum(terms[1:], terms[0])
    return GridFunction(GridDomain.product(domain, domain), total, spec)


def _check_support(phi: GridFunction, sys: MechanicalSystem) -> None:
    """Refuse a step whose optimizers could usefully move past the grid.

    A displacement r costs ``min(m)·r²/(2Δt)``; once that exceeds the
    oscillation of S, staying in place is always at least as good, so the
    step cannot depend on points farther away.
    """
    finite = phi.values[np.isfinite(phi.values)]
    osc = float(finite.max() - finite.min()) if finite.size else 0.0
    radius = math.sqrt(2.0 * sys.dt * osc / min(sys.masses))
    extent = min(hi - lo for lo, hi in zip(phi.domain.lower, phi.domain.upper))
    if radius > extent:
        raise DomainTooSmallError(
            f"one-step support radius {radius:.3g} exceeds the grid extent "
            f"{extent:.3g}; enlarge the box or shrink dt"
        )


def lax_oleinik_step(state: ActionState, sys: MechanicalSystem) -> ActionState:
    """One semigroup step: quadratic-kernel propagation, then ``+ V·Δt``.

    The step runs over the semiring of ``state.S``.  The quadratic kernel is
    a sum over axes, ``K = Σ_i K_i(x_i, y_i)`` with
    ``K_i = ±m_i (x_i − y_i)²/(2 Δt)``, and ⊙ (+) distributes over ⊕ (max,
    min, or ``h·log Σ exp(·/h)`` over ``subtropical(h)``), so

        ⊕_y K(x, y) ⊙ S(y) = ⊕_{y_1} K_1 ⊙ ( … ⊕_{y_d} K_d ⊙ S(y) … ).

    The step therefore contracts one axis at a time against the (p × p)
    kernel ``K_i`` with :meth:`Semiring.contract`: O(d·p^{d+1}) time and
    O(p^d + p²) memory, against O(p^{2d}) for both with the dense kernel of
    :func:`quadratic_kernel`.
    The nesting is exact; only the order of the float additions differs from
    the dense sum, by a few ulps in d ≥ 2.  In 1-D it is the same arithmetic
    as the dense operator, so the result agrees with
    ``kernel_apply(quadratic_kernel(...), S)`` bit for bit.  Bottom values
    stay bottom, because every kernel entry is finite.  Over ``subtropical(h)``
    the ``K_i`` are heat kernels (:func:`_heat_kernel`): a heat step in ``S``.

    Raises
    ------
    DomainTooSmallError
        Over max and min, if the kernel's effective support exceeds the grid
        extent, i.e. the result would be dominated by boundary truncation
        everywhere.  The heat kernel reflects at the walls, truncating nothing.
    """
    phi = state.S
    spec = phi.spec
    _check_dimension(phi.domain, sys)
    if spec.is_idempotent:
        _check_support(phi, sys)
    dom = phi.domain
    values = phi.values
    for axis, kern in enumerate(_axis_kernels(dom, sys, spec)):
        values = spec.contract(kern, values, axis)
    if sys.potential is not None:
        v = np.asarray(sys.potential(*dom.grids()), dtype=float)
        values = values + v * sys.dt
    return ActionState(phi.with_values(values), state.t + sys.dt)


def lax_oleinik_evolve(initial: GridFunction, sys: MechanicalSystem) -> ActionState:
    """Apply :func:`lax_oleinik_step` ``horizon/dt`` times starting at t = 0.

    The grid must have the system's dimension, at horizon 0 too.
    """
    _check_dimension(initial.domain, sys)
    state = ActionState(initial, 0.0)
    for _ in range(sys.steps):
        state = lax_oleinik_step(state, sys)
    return state


def viscous_solve(u0: GridFunction, sys: MechanicalSystem, h: float) -> GridFunction:
    """Solve ``h·∂u/∂t = Σ (h²/2m_i)·∂²u/∂x_i² + V·u`` to the horizon.

    The walls reflect.  This is :func:`lax_oleinik_evolve` from the
    ``subtropical(h)`` action ``S₀ = h·log u₀`` of :func:`dequantize_solution`,
    returned as ``e^{S/h}``.  Each
    step convolves with the reflected heat kernel under trapezoid weights,
    which keeps constants and trapezoid mass, then multiplies by
    ``e^{V·Δt/h}``.

    ``u0`` must be strictly positive so that ``h·log u`` stays meaningful.
    """
    s = lax_oleinik_evolve(dequantize_solution(u0, h), sys).S
    return u0 if sys.horizon == 0 else u0.with_values(np.exp(s.values / h))


def dequantize_solution(u: GridFunction, h: float) -> GridFunction:
    """Map a positive solution of the smoothed equation to ``S = h·log u``.

    The result is an action over ``subtropical(h)``: the semiring whose
    Lax–Oleinik step is the heat step of u, so :func:`lax_oleinik_evolve`
    evolves it as it stands.
    """
    spec = subtropical(h)
    if not np.all(u.values > 0):
        raise ValueError("dequantization needs strictly positive values")
    return GridFunction(u.domain, spec.h * np.log(u.values), spec)


@dataclass(frozen=True)
class SuperpositionReport:
    """Outcome of a linearity check of the one-step evolution operator."""

    defect: float
    step_of_combination: GridFunction
    combination_of_steps: GridFunction


def _sup_gap(a: np.ndarray, b: np.ndarray, bottom: float) -> float:
    """Sup-norm of a − b, counting matching bottoms as equal."""
    both_bottom = (a == bottom) & (b == bottom)
    with np.errstate(invalid="ignore"):
        diff = np.abs(a - b)
    diff = np.where(both_bottom, 0.0, diff)
    if np.isnan(diff).any():  # one side bottom, the other not
        return math.inf
    return float(diff.max())


def superposition_check(
    s1: GridFunction,
    s2: GridFunction,
    lam1: float,
    lam2: float,
    sys: MechanicalSystem,
) -> SuperpositionReport:
    """Measure the linearity defect of one step on ``λ₁ ⊙ S₁ ⊕ λ₂ ⊙ S₂``.

    Exact semigroup steps commute with ⊕ and with ⊙ by constants; on a grid
    the defect is zero in exact arithmetic and bounded by rounding noise in
    floats.  Returns the defect together with both sides of the identity.
    """
    spec = _common_spec(s1, s2)
    if s1.domain != s2.domain:
        raise ValueError("superposition operands must share a grid")
    combined = s1.with_values(spec.add(spec.mul(lam1, s1.values), spec.mul(lam2, s2.values)))
    lhs = lax_oleinik_step(ActionState(combined, 0.0), sys).S
    r1 = lax_oleinik_step(ActionState(s1, 0.0), sys).S
    r2 = lax_oleinik_step(ActionState(s2, 0.0), sys).S
    rhs = r1.with_values(spec.add(spec.mul(lam1, r1.values), spec.mul(lam2, r2.values)))
    return SuperpositionReport(_sup_gap(lhs.values, rhs.values, spec.zero), lhs, rhs)
