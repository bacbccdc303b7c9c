import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropkit import (
    ActionState,
    DomainTooSmallError,
    GridDomain,
    GridFunction,
    MechanicalSystem,
    builtin_potential,
    dequantize_solution,
    kernel_apply,
    lax_oleinik_evolve,
    lax_oleinik_step,
    maxplus,
    minplus,
    quadratic_kernel,
    subtropical,
    superposition_check,
    viscous_solve,
)

RNG = np.random.default_rng(1759)
MP = maxplus()
MN = minplus()


def heat_quadrature(u0_vals, y, x, diffusivity, t):
    """Free-space heat propagator by trapezoidal quadrature (reference)."""
    var = 2.0 * diffusivity * t
    kern = np.exp(-((x[:, None] - y[None, :]) ** 2) / (2.0 * var)) / math.sqrt(
        2.0 * math.pi * var
    )
    return np.trapezoid(kern * u0_vals[None, :], y, axis=1)


# ---------------------------------------------------------------------------
# system construction
# ---------------------------------------------------------------------------

def test_system_validation():
    MechanicalSystem((1.0, 2.0), 0.5, 1.0)  # fine
    with pytest.raises(ValueError):
        MechanicalSystem((0.0,), 0.5, 1.0)
    with pytest.raises(ValueError):
        MechanicalSystem((1.0,), -0.5, 1.0)
    with pytest.raises(ValueError):
        MechanicalSystem((1.0,), 0.5, 0.75)  # horizon not a multiple of dt
    sys = MechanicalSystem((1.0, 1.0, 1.0), 0.25, 1.0)
    assert sys.dim == 3 and sys.steps == 4


def test_builtin_potentials():
    assert builtin_potential("zero") is None
    quad = builtin_potential("quadratic 2.0")
    assert quad(np.array([3.0])) == 9.0  # (K/2)x² with K = 2
    well = builtin_potential("double-well")
    assert well(np.array([0.0])) == 1.0
    assert well(np.array([1.0])) == 0.0
    with pytest.raises(ValueError):
        builtin_potential("coulomb")
    with pytest.raises(ValueError):
        builtin_potential("quadratic")


def test_quadratic_kernel_values():
    dom = GridDomain(0.0, 1.0, 3)
    sys = MechanicalSystem((2.0,), 0.25, 0.25)
    kern = quadratic_kernel(dom, sys, MN)
    # K(x, y) = m (x-y)² / (2 dt) = 4 (x-y)²
    assert kern.values[0, 2] == 4.0  # x=0, y=1
    assert kern.values[1, 1] == 0.0
    assert kern.spec == MN
    neg = quadratic_kernel(dom, sys, MP)
    assert np.array_equal(neg.values, -kern.values)


# ---------------------------------------------------------------------------
# semigroup steps
# ---------------------------------------------------------------------------

def test_flat_action_is_a_fixed_point():
    dom = GridDomain(-2.0, 2.0, 101)
    zero = GridFunction.constant(0.0, dom, MN)
    sys = MechanicalSystem((1.0,), 0.5, 2.0)
    out = lax_oleinik_evolve(zero, sys)
    assert out.t == 2.0
    assert np.all(out.S.values == 0.0)  # staying put costs nothing


def test_constant_potential_accumulates_linearly():
    dom = GridDomain(-2.0, 2.0, 101)
    zero = GridFunction.constant(0.0, dom, MN)
    sys = MechanicalSystem(
        (1.0,), 0.25, 1.5, potential=lambda x: np.full_like(x, 0.3)
    )
    out = lax_oleinik_evolve(zero, sys)
    assert np.allclose(out.S.values, 0.3 * 1.5, atol=1e-12)


def test_parabola_spreads_to_quarter():
    """S₀ = x² under free flow: S(t) = x²/(1+2t), so x²/4 at t = 1.5."""
    dom = GridDomain(-2.0, 2.0, 401)
    s0 = GridFunction.sample(lambda x: x**2, dom, MN)
    sys = MechanicalSystem((1.0,), 0.5, 1.5)
    out = lax_oleinik_evolve(s0, sys)
    x = dom.axes()[0]
    assert np.max(np.abs(out.S.values - x**2 / 4.0)) <= 1e-3


def test_maxplus_convention_mirrors_minplus():
    dom = GridDomain(-2.0, 2.0, 401)
    s0 = GridFunction.sample(lambda x: -(x**2), dom, MP)
    sys = MechanicalSystem((1.0,), 1.0, 1.0)
    out = lax_oleinik_evolve(s0, sys)
    x = dom.axes()[0]
    # sup_y [-(x-y)²/2 - y²] = -x²/3
    assert np.max(np.abs(out.S.values - (-(x**2) / 3.0))) <= 1e-3


def test_discrete_semigroup_property():
    # two steps of dt against one step of 2·dt approximate the same flow
    dom = GridDomain(-2.0, 2.0, 401)
    s0 = GridFunction.sample(np.abs, dom, MN)
    twice = lax_oleinik_evolve(s0, MechanicalSystem((1.0,), 0.5, 1.0))
    once = lax_oleinik_evolve(s0, MechanicalSystem((1.0,), 1.0, 1.0))
    assert np.max(np.abs(twice.S.values - once.S.values)) <= 1e-3
    # against the closed form: the Moreau envelope of |x| at t = 1
    x = dom.axes()[0]
    exact = np.where(np.abs(x) <= 1.0, x**2 / 2.0, np.abs(x) - 0.5)
    assert np.max(np.abs(once.S.values - exact)) <= 1e-3


def test_masses_scale_the_kernel():
    # heavier particles move less: with m → ∞ the step approaches the identity
    dom = GridDomain(-1.0, 1.0, 201)
    s0 = GridFunction.sample(lambda x: x**2, dom, MN)
    heavy = lax_oleinik_evolve(s0, MechanicalSystem((1e6,), 0.5, 0.5))
    assert np.max(np.abs(heavy.S.values - s0.values)) <= 1e-3


def test_two_dimensional_step():
    dom = GridDomain((-1.5, -1.5), (1.5, 1.5), 61)
    s0 = GridFunction.sample(lambda x, y: x**2 + 2.0 * y**2, dom, MN)
    sys = MechanicalSystem((1.0, 1.0), 0.25, 0.25)
    out = lax_oleinik_evolve(s0, sys)
    xg, yg = dom.grids()
    # the axes decouple: x²/(1+2t) + 2y²/(1+4t)
    exact = xg**2 / 1.5 + 2.0 * yg**2 / 2.0
    assert np.max(np.abs(out.S.values - exact)) <= 5e-3


def test_domain_too_small():
    dom = GridDomain(-1.0, 1.0, 51)
    steep = GridFunction.sample(lambda y: 50.0 * y**2, dom, MN)
    sys = MechanicalSystem((1.0,), 0.5, 0.5)
    # support radius √(2·0.5·50) ≈ 7.1 > box width 2
    with pytest.raises(DomainTooSmallError):
        lax_oleinik_step(ActionState(steep, 0.0), sys)


def test_dimension_mismatch_raises():
    sys = MechanicalSystem((1.0,), 0.5, 0.5)
    with pytest.raises(ValueError):
        lax_oleinik_evolve(
            GridFunction.constant(0.0, GridDomain((-1.0, -1.0), (1.0, 1.0), 5), MN), sys
        )


# ---------------------------------------------------------------------------
# the per-axis step against the dense kernel
# ---------------------------------------------------------------------------

def dense_step(state, sys):
    """One step as ``kernel_apply(quadratic_kernel(...))``, the p^{2d} operator.

    The support-radius check is the one :func:`lax_oleinik_step` makes.
    Returns the stepped values, or None where the step must refuse.
    """
    phi = state.S
    dom = phi.domain
    extent = min(hi - lo for lo, hi in zip(dom.lower, dom.upper))
    finite = phi.values[np.isfinite(phi.values)]
    osc = float(finite.max() - finite.min()) if finite.size else 0.0
    if math.sqrt(2.0 * sys.dt * osc / min(sys.masses)) > extent:
        return None
    out = kernel_apply(quadratic_kernel(dom, sys, phi.spec), phi).values
    if sys.potential is not None:
        out = out + np.asarray(sys.potential(*dom.grids()), dtype=float) * sys.dt
    return out


def separable_step(state, sys):
    try:
        return lax_oleinik_step(state, sys).S.values
    except DomainTooSmallError:
        return None


@st.composite
def action_problems(draw, dim, max_p):
    """A state with bottoms, unequal masses and maybe a potential, in either convention."""
    spec = draw(st.sampled_from([MN, MP]))
    p = draw(st.integers(2, max_p))
    lower = [draw(st.floats(-3.0, 0.0)) for _ in range(dim)]
    upper = [lo + draw(st.floats(0.5, 4.0)) for lo in lower]
    dom = GridDomain(lower, upper, p)
    scale = draw(st.sampled_from([0.01, 0.1, 1.0, 10.0]))
    vals = np.array(draw(st.lists(st.floats(-5.0, 5.0), min_size=p**dim, max_size=p**dim)))
    holes = np.array(draw(st.lists(st.integers(0, 5), min_size=p**dim, max_size=p**dim)))
    vals = np.where(holes == 0, spec.zero, scale * vals).reshape(dom.shape)
    masses = tuple(draw(st.floats(0.25, 4.0)) for _ in range(dim))
    dt = draw(st.floats(0.05, 2.0))
    potential = builtin_potential(draw(st.sampled_from(["zero", "quadratic 0.7", "double-well"])))
    sys = MechanicalSystem(masses, dt, dt, potential=potential)
    return ActionState(GridFunction(dom, vals, spec), 0.0), sys


@settings(max_examples=200, deadline=None)
@given(problem=action_problems(dim=1, max_p=40))
def test_step_matches_dense_kernel_bitwise_in_1d(problem):
    state, sys = problem
    ref = dense_step(state, sys)
    out = separable_step(state, sys)
    assert (out is None) == (ref is None)  # DomainTooSmallError on the same inputs
    if ref is not None:
        assert out.tobytes() == ref.tobytes()


@pytest.mark.parametrize("dim, max_p", [(2, 9), (3, 5)])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_step_matches_dense_kernel_in_2d_and_3d(dim, max_p, data):
    state, sys = data.draw(action_problems(dim=dim, max_p=max_p))
    ref = dense_step(state, sys)
    out = separable_step(state, sys)
    assert (out is None) == (ref is None)
    if ref is None:
        return
    bottom = np.isinf(ref)
    assert np.array_equal(np.isinf(out), bottom)
    assert np.array_equal(out[bottom], ref[bottom])
    # the nesting only reorders the float sums: 8·d ulps of the largest |S|
    s_in = state.S.values
    size = max(1.0, np.abs(s_in[np.isfinite(s_in)]).max(initial=0.0), np.abs(ref[~bottom]).max(initial=0.0))
    assert np.all(np.abs(out[~bottom] - ref[~bottom]) <= 8 * dim * 2.0**-52 * size)


def test_evolve_2d_at_p161_stays_small():
    """The dense p⁴ kernel would need about 5 GB here; the step needs p³ at most."""
    p = 161
    dom = GridDomain((-2.0, -2.0), (2.0, 2.0), p)
    c = (0.3, -0.2)
    s0 = GridFunction.sample(lambda x, y: ((x - c[0]) ** 2 + (y - c[1]) ** 2) / 2.0, dom, MN)
    sys = MechanicalSystem((1.0, 1.0), 0.5, 1.0)
    tracemalloc.start()
    try:
        out = lax_oleinik_evolve(s0, sys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    xg, yg = dom.grids()
    exact = ((xg - c[0]) ** 2 + (yg - c[1]) ** 2) / 4.0
    lipschitz = math.hypot(2.0 + abs(c[0]), 2.0 + abs(c[1]))
    assert np.max(np.abs(out.S.values - exact)) <= lipschitz * dom.spacing[0]


# ---------------------------------------------------------------------------
# superposition
# ---------------------------------------------------------------------------

def test_superposition_defect_vanishes_on_dyadic_data():
    # σ = 2⁻⁶ and dt = 1/2 keep the kernel and all sums on the dyadic
    # lattice, so min-plus linearity of the step holds bit for bit
    dom = GridDomain(-2.0, 2.0, 257)
    q = 2.0**-6
    s1 = GridFunction(dom, RNG.integers(-256, 256, size=257).astype(float) * q, MN)
    s2 = GridFunction(dom, RNG.integers(-256, 256, size=257).astype(float) * q, MN)
    sys = MechanicalSystem((1.0,), 0.5, 0.5)
    report = superposition_check(s1, s2, 1.25, -0.75, sys)
    assert report.defect == 0.0
    assert np.array_equal(
        report.step_of_combination.values, report.combination_of_steps.values
    )


def test_superposition_defect_tiny_off_lattice():
    dom = GridDomain(-2.0, 2.0, 257)
    s1 = GridFunction.sample(lambda x: x**2, dom, MN)
    s2 = GridFunction.sample(lambda x: np.abs(x - 0.3), dom, MN)
    sys = MechanicalSystem((1.0,), 0.5, 0.5)
    report = superposition_check(s1, s2, 0.7, 1.3, sys)
    assert report.defect <= 1e-12


def test_superposition_defect_tiny_subtropical():
    # the heat step is linear over ⊕_h: the deformed superposition principle
    dom = GridDomain(-2.0, 2.0, 161)
    soft = subtropical(0.05)
    s1 = GridFunction.sample(lambda x: -(x**2), dom, soft)
    s2 = GridFunction.sample(lambda x: -np.abs(x - 0.3), dom, soft)
    report = superposition_check(s1, s2, 0.7, -1.3, MechanicalSystem((1.0,), 0.5, 0.5))
    assert report.defect <= 1e-12


def test_superposition_grid_mismatch():
    a = GridFunction.constant(0.0, GridDomain(-1.0, 1.0, 11), MN)
    b = GridFunction.constant(0.0, GridDomain(-1.0, 1.0, 21), MN)
    with pytest.raises(ValueError):
        superposition_check(a, b, 1.0, 1.0, MechanicalSystem((1.0,), 0.5, 0.5))


# ---------------------------------------------------------------------------
# smoothed (viscous) evolution
# ---------------------------------------------------------------------------

def test_viscous_constant_equilibrium():
    dom = GridDomain(-1.0, 1.0, 33)
    ones = GridFunction.constant(1.0, dom, MP)
    u = viscous_solve(ones, MechanicalSystem((1.0,), 0.5, 1.0), h=0.1)
    assert np.allclose(u.values, 1.0, atol=1e-13)
    s = dequantize_solution(u, 0.1)
    assert np.allclose(s.values, 0.0, atol=1e-12)


def test_viscous_conserves_trapezoid_mass():
    # the kernel's wall images give every column a trapezoid mass of one
    dom = GridDomain(-1.0, 1.0, 101)
    u0 = GridFunction.sample(lambda x: 1.0 + 0.5 * np.cos(3.0 * x), dom, MP)
    sys = MechanicalSystem((1.0,), 0.5, 0.5)
    u = viscous_solve(u0, sys, h=0.2)
    x = dom.axes()[0]
    m0 = np.trapezoid(u0.values, x)
    m1 = np.trapezoid(u.values, x)
    assert m1 == pytest.approx(m0, rel=1e-12)


def test_viscous_under_resolved_kernel_keeps_constants_and_mass():
    # h·Δt/m = σ²/4: the heat kernel is narrower than the grid spacing, so
    # its rows must be normalized on the grid, not by the continuum constant
    dom = GridDomain(-1.0, 1.0, 101)
    sys = MechanicalSystem((1.0,), 0.01, 1.0)
    ones = GridFunction.constant(1.0, dom, MP)
    assert np.max(np.abs(viscous_solve(ones, sys, h=0.01).values - 1.0)) <= 1e-13
    u0 = GridFunction.sample(lambda x: 1.0 + 0.5 * np.cos(3.0 * x), dom, MP)
    x = dom.axes()[0]
    m1 = np.trapezoid(viscous_solve(u0, sys, h=0.01).values, x)
    assert m1 == pytest.approx(np.trapezoid(u0.values, x), rel=1e-12)


def test_viscous_matches_heat_quadrature():
    dom = GridDomain(-2.0, 2.0, 161)
    h = 0.1
    u0 = GridFunction.sample(lambda x: np.exp(-(x**2) / h), dom, MP)
    sys = MechanicalSystem((1.0,), 1.0, 1.0)
    u = viscous_solve(u0, sys, h)
    y = dom.axes()[0]
    ref = heat_quadrature(u0.values, y, y, diffusivity=h / 2.0, t=1.0)
    # boundary mass is ~1e-12 here, so free-space quadrature is a fair oracle
    assert np.max(np.abs(u.values - ref)) <= 1e-3


def test_viscous_step_matches_image_sum():
    # reference: the reflecting-wall heat kernel as an explicit sum over
    # images y + 2kL and 2·lo − y + 2kL, trapezoid weights, plain exp
    dom = GridDomain(0.5, 1.5, 41)
    h, m, dt = 0.5, 2.0, 0.2
    u0 = GridFunction(dom, RNG.uniform(0.5, 2.0, 41), MP)
    u = viscous_solve(u0, MechanicalSystem((m,), dt, dt), h)
    x = dom.axes()[0]
    length, var = 1.0, h * dt / m
    kern = np.zeros((41, 41))
    for k in range(-3, 4):
        for image in (x + 2 * k * length, 2 * 0.5 - x + 2 * k * length):
            kern += np.exp(-((x[:, None] - image[None, :]) ** 2) / (2 * var))
    w = np.full(41, 1.0 / 40)
    w[[0, -1]] /= 2
    ref = kern @ (w * u0.values) / math.sqrt(2 * math.pi * var)
    assert np.max(np.abs(u.values / ref - 1.0)) <= 1e-12


@pytest.mark.parametrize("h", [0.2, 0.1, 0.05, 0.02, 0.01, 0.005, 0.002])
def test_viscous_dequantizes_toward_hopf_lax(h):
    """h·log u(t) → -x²/(1+2t) with the documented O(h) defect."""
    dom = GridDomain(-2.0, 2.0, 161)
    sys = MechanicalSystem((1.0,), 1.0, 1.0)
    if h > 0.005:
        u0 = GridFunction.sample(lambda x: np.exp(-(x**2) / h), dom, MP)
        s = dequantize_solution(viscous_solve(u0, sys, h), h)
    else:  # e^{-x²/h} underflows at |x| = 2: stay in S = h·log u
        s0 = GridFunction.sample(lambda x: -(x**2), dom, subtropical(h))
        s = lax_oleinik_evolve(s0, sys).S
    x = dom.axes()[0]
    mid = np.abs(x) <= 1.0
    err = np.max(np.abs(s.values[mid] - (-(x[mid] ** 2) / 3.0)))
    # closed form says the defect is (h/2)·log 3 + O(h²) ≈ 0.55·h
    assert 0.3 * h <= err <= 0.8 * h


def test_viscous_convergence_is_monotone():
    dom = GridDomain(-2.0, 2.0, 161)
    sys = MechanicalSystem((1.0,), 1.0, 1.0)
    x = dom.axes()[0]
    mid = np.abs(x) <= 1.0
    errs = []
    for h in (0.2, 0.1, 0.05):
        u0 = GridFunction.sample(lambda z: np.exp(-(z**2) / h), dom, MP)
        s = dequantize_solution(viscous_solve(u0, sys, h), h)
        errs.append(np.max(np.abs(s.values[mid] - (-(x[mid] ** 2) / 3.0))))
    assert errs[0] > errs[1] > errs[2]


def test_viscous_input_checks():
    dom = GridDomain(-1.0, 1.0, 11)
    sys = MechanicalSystem((1.0,), 0.5, 0.5)
    flat = GridFunction.constant(0.0, dom, MP)
    with pytest.raises(ValueError):
        viscous_solve(flat, sys, h=0.1)  # not strictly positive
    ones = GridFunction.constant(1.0, dom, MP)
    with pytest.raises(ValueError):
        viscous_solve(ones, sys, h=0.0)
    with pytest.raises(ValueError):
        dequantize_solution(flat, 0.1)  # log of 0
    plane = GridFunction.constant(1.0, GridDomain.product(dom, dom), MP)
    with pytest.raises(ValueError):  # 2-D grid, 1-D system, even with no step
        viscous_solve(plane, MechanicalSystem((1.0,), 0.5, 0.0), h=0.1)


@pytest.mark.parametrize("spec", [MN, MP, subtropical(0.1)], ids=["minplus", "maxplus", "subtropical"])
def test_evolve_checks_dimension_at_horizon_zero(spec):
    plane = GridFunction.constant(0.0, GridDomain((-1.0, -1.0), (1.0, 1.0), 5), spec)
    with pytest.raises(ValueError, match="grid dimension 2 != system dimension 1"):
        lax_oleinik_evolve(plane, MechanicalSystem((1.0,), 0.5, 0.0))


def test_dequantize_solution_is_a_subtropical_action():
    # S = h·log u over subtropical(h): evolving it is the viscous step in S
    dom = GridDomain(-1.0, 1.0, 41)
    u0 = GridFunction.sample(lambda x: 1.0 + 0.5 * np.cos(3.0 * x), dom, MP)
    sys = MechanicalSystem((1.0,), 0.25, 0.5)
    s0 = dequantize_solution(u0, 0.1)
    assert s0.spec == subtropical(0.1)
    assert s0.values.tobytes() == (0.1 * np.log(u0.values)).tobytes()
    s = lax_oleinik_evolve(s0, sys).S
    assert np.exp(s.values / 0.1).tobytes() == viscous_solve(u0, sys, 0.1).values.tobytes()


def test_viscous_long_horizon_relaxes_to_mean():
    # a step far wider than the box has no stability limit: reflected at
    # the walls, u flattens to its trapezoid mean
    dom = GridDomain(-1.0, 1.0, 401)
    u0 = GridFunction.sample(lambda x: 1.0 + 0.5 * np.cos(3.0 * x), dom, MP)
    sys = MechanicalSystem((1.0,), 1000.0, 1000.0)
    u = viscous_solve(u0, sys, h=1.0)
    mean = np.trapezoid(u0.values, dom.axes()[0]) / 2.0
    assert np.max(np.abs(u.values / mean - 1.0)) <= 1e-12


def test_viscous_constant_potential_adds_ct():
    dom = GridDomain(-2.0, 2.0, 81)
    h, c = 0.1, 0.75
    u0 = GridFunction.sample(lambda x: np.exp(-(x**2) / h), dom, MP)
    free = MechanicalSystem((1.0,), 0.5, 1.0)
    lifted = MechanicalSystem((1.0,), 0.5, 1.0, potential=lambda x: np.full_like(x, c))
    s_free = dequantize_solution(viscous_solve(u0, free, h), h)
    s_lifted = dequantize_solution(viscous_solve(u0, lifted, h), h)
    assert np.max(np.abs(s_lifted.values - (s_free.values + c * 1.0))) <= 1e-12


def test_viscous_zero_horizon_is_identity():
    dom = GridDomain(-1.0, 1.0, 11)
    u0 = GridFunction.sample(lambda x: np.exp(x), dom, MP)
    sys = MechanicalSystem((1.0,), 0.5, 0.0)
    assert viscous_solve(u0, sys, h=0.1) is u0
