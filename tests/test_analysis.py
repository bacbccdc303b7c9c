import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropkit import (
    GridDomain,
    GridFunction,
    InputFormatError,
    grid_csv_text,
    grid_tolerance,
    idempotent_integral,
    kernel_apply,
    legendre_transform,
    maxplus,
    measure_integral,
    minplus,
    negate_convention,
    read_grid_csv,
    subtropical,
    sup_convolution,
    write_grid_csv,
)
from tropkit import analysis, semiring

RNG = np.random.default_rng(77)
MP = maxplus()
MN = minplus()


def brute_conjugate(phi, xi_axis):
    """Reference Fenchel conjugate by explicit double loop (1-D only)."""
    x = phi.domain.axes()[0]
    vals = phi.values
    out = np.empty(len(xi_axis))
    for k, xi in enumerate(xi_axis):
        best = -math.inf
        for i in range(len(x)):
            if vals[i] == -math.inf:
                continue
            cand = xi * x[i] - vals[i]
            if cand > best:
                best = cand
        out[k] = best
    return out


# ---------------------------------------------------------------------------
# domains and grid functions
# ---------------------------------------------------------------------------

def test_domain_basics():
    dom = GridDomain(-1.0, 1.0, 41)
    assert dom.dim == 1
    assert dom.spacing == (0.05,)
    assert dom.shape == (41,)
    assert grid_tolerance(dom) == pytest.approx(0.5)  # L = 10

    sq = GridDomain((-1.0, 0.0), (1.0, 2.0), 5)
    assert sq.dim == 2
    assert sq.flat_points().shape == (25, 2)
    prod = GridDomain.product(dom, dom)
    assert prod.dim == 2 and prod.lower == (-1.0, -1.0)


def test_domain_validation():
    with pytest.raises(ValueError):
        GridDomain(0.0, 1.0, 1)
    with pytest.raises(ValueError):
        GridDomain(1.0, 0.0, 5)
    with pytest.raises(ValueError):
        GridDomain(0.0, math.inf, 5)
    with pytest.raises(ValueError):
        GridDomain((0.0, 0.0), (1.0,), 5)


def test_grid_function_carrier():
    dom = GridDomain(0.0, 1.0, 3)
    f = GridFunction(dom, [0.0, -math.inf, 2.0], MP)
    assert f.values[1] == -math.inf
    with pytest.raises(ValueError):
        GridFunction(dom, [0.0, math.inf, 0.0], MP)  # +inf not in the carrier
    with pytest.raises(ValueError):
        GridFunction(dom, [0.0, 1.0], MP)  # wrong length
    with pytest.raises(ValueError):
        f.values[0] = 5.0  # read-only


def test_grid_function_carrier_subtropical():
    # subtropical(h) deforms max-plus and shares its carrier R ∪ {-inf}
    dom = GridDomain(0.0, 1.0, 3)
    g = GridFunction(dom, [0.0, -math.inf, 2.0], subtropical(0.5))
    assert g.values[1] == -math.inf
    with pytest.raises(ValueError):
        GridFunction(dom, [0.0, math.inf, 0.0], subtropical(0.5))
    with pytest.raises(ValueError):
        GridFunction(dom, [0.0, math.nan, 0.0], subtropical(0.5))


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------

def test_integral_is_the_supremum():
    dom = GridDomain(-1.0, 1.0, 4001)
    phi = GridFunction.sample(lambda x: -((x - 0.5) ** 2), dom, MP)
    # 0.5 sits on the grid, so the sup is hit exactly
    assert idempotent_integral(phi) == 0.0

    lin = GridFunction.sample(lambda x: x, GridDomain(0.0, 1.0, 11), MN)
    assert idempotent_integral(lin) == 0.0  # min over [0,1]


def test_scalar_product_quarter():
    dom = GridDomain(-1.0, 1.0, 4001)
    phi = GridFunction.sample(lambda x: -(x**2), dom, MP)
    psi = GridFunction.sample(lambda x: x, dom, MP)
    # sup(-x² + x) = 1/4 at x = 1/2, a grid point
    assert measure_integral(phi, psi) == pytest.approx(0.25, abs=1e-12)


def test_integral_against_bottom():
    dom = GridDomain(0.0, 1.0, 5)
    bottom = GridFunction.constant(-math.inf, dom, MP)
    assert idempotent_integral(bottom) == -math.inf
    phi = GridFunction.sample(lambda x: x, dom, MP)
    assert measure_integral(phi, bottom) == -math.inf


def test_integral_grid_mismatch():
    a = GridFunction.constant(0.0, GridDomain(0.0, 1.0, 5), MP)
    b = GridFunction.constant(0.0, GridDomain(0.0, 2.0, 5), MP)
    with pytest.raises(ValueError):
        measure_integral(a, b)
    c = GridFunction.constant(0.0, GridDomain(0.0, 1.0, 5), MN)
    with pytest.raises(ValueError):
        measure_integral(a, c)


# ---------------------------------------------------------------------------
# kernel operators
# ---------------------------------------------------------------------------

def test_kernel_quadratic_envelope():
    """K(x,y) = -(x-y)², φ(y) = -y² gives (Kφ)(x) = -x²/2 at y = x/2."""
    x_dom = GridDomain(-1.0, 1.0, 201)
    kdom = GridDomain.product(x_dom, x_dom)
    kern = GridFunction.sample(lambda x, y: -((x - y) ** 2), kdom, MP)
    phi = GridFunction.sample(lambda y: -(y**2), x_dom, MP)
    out = kernel_apply(kern, phi)
    x = x_dom.axes()[0]
    sigma = x_dom.spacing[0]
    # argmax may fall between nodes: curvature 2 ⇒ error ≤ 2·(σ/2)²
    assert np.max(np.abs(out.values - (-(x**2) / 2.0))) <= 2.0 * sigma**2


def test_kernel_linearity_exact_on_dyadic_data():
    # finite dyadic inputs make every ⊙ exact, so K(λ⊙φ ⊕ μ⊙ψ) must equal
    # λ⊙Kφ ⊕ μ⊙Kψ bit for bit
    x_dom = GridDomain(0.0, 1.0, 17)
    kdom = GridDomain.product(x_dom, x_dom)
    q = 2.0**-8
    kern = GridFunction(kdom, RNG.integers(-64, 64, size=kdom.shape).astype(float) * q, MP)
    phi = GridFunction(x_dom, RNG.integers(-64, 64, size=17).astype(float) * q, MP)
    psi = GridFunction(x_dom, RNG.integers(-64, 64, size=17).astype(float) * q, MP)
    lam, mu = 3.0 * q, -5.0 * q

    comb = phi.with_values(np.maximum(lam + phi.values, mu + psi.values))
    lhs = kernel_apply(kern, comb)
    rhs = np.maximum(lam + kernel_apply(kern, phi).values, mu + kernel_apply(kern, psi).values)
    assert np.array_equal(lhs.values, rhs)


def test_kernel_identity_spike():
    # the unit kernel (0 on the diagonal, -inf off it) acts as the identity
    x_dom = GridDomain(0.0, 1.0, 9)
    kdom = GridDomain.product(x_dom, x_dom)
    eye = GridFunction.sample(
        lambda x, y: np.where(x == y, 0.0, -math.inf), kdom, MP
    )
    phi = GridFunction(x_dom, RNG.standard_normal(9), MP)
    assert np.array_equal(kernel_apply(eye, phi).values, phi.values)


@pytest.mark.parametrize("spec", [MP, subtropical(0.5)], ids=["maxplus", "subtropical"])
def test_kernel_apply_works_in_blocks(spec):
    """A 401 × 401 kernel (1.2 MiB) is contracted 2¹⁴ stacked sums (128 KiB)
    at a time: the dense product alone would be another kernel-sized array."""
    x_dom = GridDomain(-1.0, 1.0, 401)
    kern = GridFunction.sample(lambda x, y: -((x - y) ** 2), GridDomain.product(x_dom, x_dom), spec)
    phi = GridFunction.sample(lambda y: -(y**2), x_dom, spec)
    whole = kernel_apply(kern, phi).values
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(semiring, "_BLOCK_ELEMENTS", 2**14)
        tracemalloc.start()
        try:
            out = kernel_apply(kern, phi).values
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 4 * 2**14 * 8 < kern.values.nbytes
    assert out.tobytes() == whole.tobytes()


def test_kernel_shape_mismatch():
    x_dom = GridDomain(0.0, 1.0, 9)
    y_dom = GridDomain(0.0, 2.0, 9)
    kdom = GridDomain.product(x_dom, x_dom)
    kern = GridFunction.constant(0.0, kdom, MP)
    phi = GridFunction.constant(0.0, y_dom, MP)
    with pytest.raises(ValueError):
        kernel_apply(kern, phi)  # trailing axes do not match φ's grid
    with pytest.raises(ValueError):
        kernel_apply(phi, GridFunction.constant(0.0, y_dom, MP))  # kernel too thin


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------

def test_convolution_halves_the_parabola():
    dom = GridDomain(-1.0, 1.0, 201)
    phi = GridFunction.sample(lambda x: -(x**2), dom, MP)
    out = sup_convolution(phi, phi)
    assert out.domain.lower == (-2.0,) and out.domain.upper == (2.0,)
    assert out.domain.points_per_axis == 401
    z = out.domain.axes()[0]
    sigma = dom.spacing[0]
    # sup_{x+y=z} -x²-y² = -z²/2, argmax on the half grid
    assert np.max(np.abs(out.values - (-(z**2) / 2.0))) <= 2.0 * sigma**2


def test_convolution_unit_spike():
    dom = GridDomain(0.0, 1.0, 5)
    phi = GridFunction(dom, [0.0, -1.0, -0.5, -2.0, -4.0], MP)
    spike_dom = GridDomain(0.0, 0.5, 3)
    delta = GridFunction(spike_dom, [0.0, -math.inf, -math.inf], MP)
    out = sup_convolution(phi, delta)
    # δ at 0 translates by nothing: φ reappears on the first five nodes
    assert np.array_equal(out.values[:5], phi.values)


def test_convolution_commutes_bitwise():
    dom = GridDomain(0.0, 1.0, 33)
    phi = GridFunction(dom, RNG.standard_normal(33), MP)
    psi = GridFunction(dom, RNG.standard_normal(33), MP)
    ab = sup_convolution(phi, psi)
    ba = sup_convolution(psi, phi)
    assert ab.domain == ba.domain
    assert np.array_equal(ab.values, ba.values)


def test_convolution_minplus_by_duality():
    dom = GridDomain(-1.0, 1.0, 101)
    phi = GridFunction.sample(lambda x: x**2, dom, MN)
    out = sup_convolution(phi, phi)  # inf-convolution for min-plus inputs
    z = out.domain.axes()[0]
    sigma = dom.spacing[0]
    assert np.max(np.abs(out.values - (z**2) / 2.0)) <= 2.0 * sigma**2
    # and it matches the negated max-plus route exactly
    neg = negate_convention(sup_convolution(negate_convention(phi), negate_convention(phi)))
    assert np.array_equal(out.values, neg.values)


def test_minplus_convolution_matches_brute_force_bitwise():
    # φ = x and ψ = −x cancel exactly: min_x φ(x) + ψ(g − x) is +0.0 there
    dom = GridDomain(-1.0, 1.0, 5)
    phi = GridFunction.sample(lambda x: x, dom, MN)
    psi = GridFunction.sample(lambda x: -x, dom, MN)
    out = sup_convolution(phi, psi)
    ref = np.full(9, math.inf)
    for i, a in enumerate(phi.values):
        for j, b in enumerate(psi.values):
            ref[i + j] = min(ref[i + j], a + b)
    assert out.values.tobytes() == ref.tobytes()


@pytest.mark.parametrize("spec", [MP, MN], ids=["maxplus", "minplus"])
@pytest.mark.parametrize("dim", [1, 2])
def test_convolution_with_bottoms_matches_brute_force_bitwise(spec, dim):
    # bottom entries of φ are skipped, which must change nothing
    rng = np.random.default_rng(dim)
    pa, pb = 6, 4
    a = rng.standard_normal((pa,) * dim)
    b = rng.standard_normal((pb,) * dim)
    a[rng.random(a.shape) < 0.4] = spec.zero
    b[rng.random(b.shape) < 0.3] = spec.zero
    a.flat[0] = spec.zero
    phi = GridFunction(GridDomain((0.0,) * dim, (1.0,) * dim, pa), a, spec)
    psi = GridFunction(GridDomain((0.0,) * dim, (0.6,) * dim, pb), b, spec)
    ref = np.full((pa + pb - 1,) * dim, spec.zero)
    for i in np.ndindex(a.shape):
        for j in np.ndindex(b.shape):
            g = tuple(x + y for x, y in zip(i, j))
            ref[g] = spec.add(ref[g], spec.mul(a[i], b[j]))
    assert sup_convolution(phi, psi).values.tobytes() == ref.tobytes()


def test_convolution_2d():
    dom = GridDomain((0.0, 0.0), (1.0, 1.0), 9)
    phi = GridFunction.sample(lambda x, y: -(x**2) - y**2, dom, MP)
    spike = GridFunction.sample(
        lambda x, y: np.where((x == 0.0) & (y == 0.0), 0.0, -math.inf), dom, MP
    )
    out = sup_convolution(phi, spike)
    assert out.domain.points_per_axis == 17
    assert np.array_equal(out.values[:9, :9], phi.values)


def test_convolution_input_checks():
    a = GridFunction.constant(0.0, GridDomain(0.0, 1.0, 5), MP)
    b = GridFunction.constant(0.0, GridDomain(0.0, 1.0, 9), MP)  # different spacing
    with pytest.raises(ValueError):
        sup_convolution(a, b)
    c = GridFunction.constant(0.0, GridDomain(0.0, 1.0, 5), MN)
    with pytest.raises(ValueError):
        sup_convolution(a, c)
    cube = GridFunction.constant(0.0, GridDomain((0.0,) * 3, (1.0,) * 3, 3), MP)
    with pytest.raises(ValueError):
        sup_convolution(cube, cube)


def test_idempotent_only_operations_refuse_subtropical():
    # neither a max-convolution nor a max/min swap is defined over ⊕_h
    soft = GridFunction.constant(0.0, GridDomain(0.0, 1.0, 5), subtropical(0.5))
    with pytest.raises(ValueError, match="idempotent"):
        sup_convolution(soft, soft)
    with pytest.raises(ValueError, match="dual"):
        negate_convention(soft)


# ---------------------------------------------------------------------------
# Legendre-type transforms
# ---------------------------------------------------------------------------

def test_transform_of_quadratic():
    x_dom = GridDomain(-2.0, 2.0, 801)
    phi = GridFunction.sample(lambda x: -(x**2) / 2.0, x_dom, MP)
    xi_dom = GridDomain(-1.0, 1.0, 81)
    out = legendre_transform(phi, xi_dom)
    xi = xi_dom.axes()[0]
    # sup_x (ξx - x²/2) = ξ²/2; budgeted by the documented L·σ bound
    assert np.max(np.abs(out.values - xi**2 / 2.0)) <= grid_tolerance(x_dom)
    assert np.max(np.abs(out.values - xi**2 / 2.0)) <= 2.0 * x_dom.spacing[0] ** 2


def test_transform_of_bottom_is_bottom():
    x_dom = GridDomain(-1.0, 1.0, 11)
    bottom = GridFunction.constant(-math.inf, x_dom, MP)
    out = legendre_transform(bottom, GridDomain(-3.0, 3.0, 7))
    assert np.all(np.isneginf(out.values))
    out = legendre_transform(bottom, GridDomain(-3.0, 3.0, 7), mode="fenchel")
    assert np.all(np.isneginf(out.values))


def test_fenchel_matches_brute_force_bitwise():
    x_dom = GridDomain(-1.5, 1.5, 61)
    vals = np.abs(x_dom.axes()[0]) + 0.25 * RNG.standard_normal(61)
    vals[7] = -math.inf  # a hole must simply drop out of the sup
    phi = GridFunction(x_dom, vals, MP)
    xi_dom = GridDomain(-2.0, 2.0, 41)
    out = legendre_transform(phi, xi_dom, mode="fenchel")
    assert np.array_equal(out.values, brute_conjugate(phi, xi_dom.axes()[0]))


def test_biconjugation_recovers_convex_input():
    x_dom = GridDomain(-2.0, 2.0, 401)
    phi = GridFunction.sample(lambda x: x**2 / 2.0, x_dom, MP)
    xi_dom = GridDomain(-4.0, 4.0, 4001)
    conj = legendre_transform(phi, xi_dom, mode="fenchel")
    back = legendre_transform(conj, x_dom, mode="fenchel")
    # a closed convex function is its own double conjugate, up to the grid
    gap = np.max(np.abs(back.values - phi.values))
    assert gap <= grid_tolerance(x_dom)
    assert gap <= 0.01  # and in practice far tighter than the L·σ budget


def test_biconjugate_is_the_convex_envelope():
    x_dom = GridDomain(-2.0, 2.0, 401)
    phi = GridFunction.sample(lambda x: (x**2 - 1.0) ** 2, x_dom, MP)
    xi_dom = GridDomain(-12.0, 12.0, 2001)
    back = legendre_transform(
        legendre_transform(phi, xi_dom, mode="fenchel"), x_dom, mode="fenchel"
    )
    x = x_dom.axes()[0]
    assert np.all(back.values <= phi.values + 1e-9)  # envelope from below
    inner = np.abs(x) <= 0.9
    assert np.max(phi.values[inner] - back.values[inner]) > 0.5  # strictly below the wells


def test_transform_convolution_duality():
    # T(φ □ ψ) = Tφ ⊙ Tψ: both sides scan the same candidate set
    dom = GridDomain(-1.0, 1.0, 101)
    phi = GridFunction.sample(lambda x: -(x**2), dom, MP)
    psi = GridFunction.sample(lambda x: -2.0 * np.abs(x), dom, MP)
    xi_dom = GridDomain(-1.0, 1.0, 41)
    lhs = legendre_transform(sup_convolution(phi, psi), xi_dom)
    rhs = legendre_transform(phi, xi_dom).values + legendre_transform(psi, xi_dom).values
    assert np.max(np.abs(lhs.values - rhs)) <= 1e-12


def dense_legendre(phi, xi_domain, mode):
    """The transform as one M×N scan ``max_j (⟨ξ, x_j⟩ + c_j)`` (reference)."""
    x = phi.domain.flat_points()
    vals = phi.values.ravel()
    contrib = vals if mode == "additive" else np.where(np.isneginf(vals), -np.inf, -vals)
    xi = xi_domain.flat_points()
    return (xi @ x.T + contrib[None, :]).max(axis=1).reshape(xi_domain.shape)


@st.composite
def legendre_problems_1d(draw):
    """Nonconvex, piecewise-linear, collinear or all-bottom φ, with holes,
    against ξ-grids that may reach far beyond the hull's slopes."""
    n = draw(st.integers(2, 40))
    lo = draw(st.floats(-3.0, 1.0))
    x_dom = GridDomain(lo, lo + draw(st.floats(0.1, 4.0)), n)
    x = x_dom.axes()[0]
    shape = draw(st.sampled_from(["values", "collinear", "piecewise", "bottom"]))
    if shape == "values":
        vals = np.array(draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n)))
    elif shape == "collinear":
        vals = draw(st.floats(-3.0, 3.0)) * x + draw(st.floats(-2.0, 2.0))
    elif shape == "piecewise":
        knots = np.sort(draw(st.lists(st.floats(-3.0, 5.0), min_size=1, max_size=4)))
        heights = draw(st.lists(st.floats(-3.0, 3.0), min_size=knots.size, max_size=knots.size))
        vals = np.interp(x, knots, heights)
    else:
        vals = np.full(n, -math.inf)
    holes = np.array(draw(st.lists(st.integers(0, 5), min_size=n, max_size=n)))
    vals = np.where(holes == 0, -math.inf, vals)
    xi_lo = draw(st.floats(-50.0, 50.0))
    xi_dom = GridDomain(xi_lo, xi_lo + draw(st.floats(0.1, 100.0)), draw(st.integers(2, 40)))
    return GridFunction(x_dom, vals, MP), xi_dom


@pytest.mark.parametrize("mode", ["additive", "fenchel"])
@settings(max_examples=300, deadline=None)
@given(problem=legendre_problems_1d())
def test_hull_transform_matches_dense_scan_bitwise_in_1d(mode, problem):
    phi, xi_dom = problem
    out = legendre_transform(phi, xi_dom, mode=mode).values
    assert out.tobytes() == dense_legendre(phi, xi_dom, mode).tobytes()


@pytest.mark.parametrize("mode", ["additive", "fenchel"])
def test_hull_transform_on_slope_ties(mode):
    """ξ equal to the slope of a collinear run: every point of the run is a
    near-tie, and rounding decides which one the scan keeps.  With slope and
    offset 0 the ties are exact zeros, and the scan's dot product gives +0.0."""
    for n in range(3, 40):
        for slope, offset in ((1.0, 0.5), (3.0, 0.5), (-3.0, 0.5), (0.3, 0.5), (0.0, 0.0)):
            for lo, hi in ((-1.3, 1.7), (-1.0, 1.0), (0.1, 2.9)):
                x_dom = GridDomain(lo, hi, n)
                phi = GridFunction(x_dom, slope * x_dom.axes()[0] + offset, MP)
                tie = slope if mode == "fenchel" else -slope
                xi_dom = GridDomain(tie, tie + 1.0, 5)
                out = legendre_transform(phi, xi_dom, mode=mode).values
                assert out.tobytes() == dense_legendre(phi, xi_dom, mode).tobytes()


@pytest.mark.parametrize("mode", ["additive", "fenchel"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_hull_transform_matches_dense_scan_in_2d(mode, data):
    n = data.draw(st.integers(2, 12))
    x_dom = GridDomain((-1.0, -2.0), (1.5, 1.0), n)
    vals = np.array(data.draw(st.lists(st.floats(-10.0, 10.0), min_size=n * n, max_size=n * n)))
    holes = np.array(data.draw(st.lists(st.integers(0, 5), min_size=n * n, max_size=n * n)))
    phi = GridFunction(x_dom, np.where(holes == 0, -math.inf, vals), MP)
    xi_dom = GridDomain((-3.0, -1.0), (2.0, 3.0), data.draw(st.integers(2, 12)))
    out = legendre_transform(phi, xi_dom, mode=mode).values
    ref = dense_legendre(phi, xi_dom, mode)
    bottom = np.isneginf(ref)
    assert np.array_equal(np.isneginf(out), bottom)
    # the axis-by-axis sups add ξ_1 x_1, ξ_2 x_2 and c in another order:
    # 8 ulps of the largest Σ|ξ_i x_i| + |c|
    size = 1.0 + 3.0 * 1.5 + 3.0 * 2.0 + np.abs(vals).max()
    assert np.all(np.abs(out[~bottom] - ref[~bottom]) <= 8 * 2.0**-52 * size)


@pytest.mark.parametrize(
    "phi_of, conjugate",
    [
        (lambda x: (x - 0.3) ** 2 / 2.0 - 0.4, lambda xi: xi * 0.3 + xi**2 / 2.0 + 0.4),
        (lambda x: 0.0 * x, lambda xi: 2.0 * np.abs(xi)),
        (lambda x: 2.0 * x, lambda xi: 2.0 * np.abs(xi - 2.0)),
    ],
    ids=["quadratic", "constant", "linear"],
)
def test_transform_at_twenty_thousand_points_stays_small(phi_of, conjugate):
    """The M×N scan would need blocks of tens of MiB; the hull needs O(N + M).
    A constant φ, or 2x (exact in floats), is one collinear run of 20,001
    points, which must not make every point a candidate for every ξ."""
    n = 20_001
    x_dom = GridDomain(-2.0, 2.0, n)
    phi = GridFunction(x_dom, phi_of(x_dom.axes()[0]), MP)
    tracemalloc.start()
    try:
        out = legendre_transform(phi, x_dom, mode="fenchel")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    xi = x_dom.axes()[0]
    # where the quadratic's maximiser ξ + 0.3 lies in the box
    inside = np.abs(xi + 0.3) <= 2.0
    assert np.max(np.abs(out.values - conjugate(xi))[inside]) <= (2.0 + 0.3) * x_dom.spacing[0]


@pytest.mark.parametrize("block", [1, 7, 2**12])
def test_transform_where_every_point_ties_stays_in_blocks(block):
    """φ ≡ 10¹⁵: every ξ·x_j is below the rounding of c_j, so all N points tie
    for every ξ and the scan's rounding picks the result.  The candidates are
    then M·N; evaluated in blocks of ``block`` they stay small, and the
    result is still the scan's, bit for bit."""
    n = 1001
    x_dom = GridDomain(-2.0, 2.0, n)
    xi_dom = GridDomain(-3.0, 3.0, n)
    phi = GridFunction(x_dom, np.full(n, 1e15) + 3.0 * x_dom.axes()[0], MP)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "_BLOCK_ELEMENTS", block)
        for mode in ("additive", "fenchel"):
            tracemalloc.start()
            try:
                out = legendre_transform(phi, xi_dom, mode=mode)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # all M·N candidates at once would take about 8 MB for each array
            assert peak < 2 * 2**20
            assert out.values.tobytes() == dense_legendre(phi, xi_dom, mode).tobytes()


def test_transform_rejects_minplus_and_bad_mode():
    phi = GridFunction.constant(0.0, GridDomain(0.0, 1.0, 5), MN)
    with pytest.raises(ValueError):
        legendre_transform(phi, GridDomain(0.0, 1.0, 5))
    good = GridFunction.constant(0.0, GridDomain(0.0, 1.0, 5), MP)
    with pytest.raises(ValueError):
        legendre_transform(good, GridDomain(0.0, 1.0, 5), mode="involution")


# ---------------------------------------------------------------------------
# CSV round trips
# ---------------------------------------------------------------------------

def test_grid_csv_round_trip_bit_exact(tmp_path):
    dom = GridDomain((-1.0, 0.0), (1.0, 3.0), 7)
    vals = RNG.standard_normal(dom.shape) * 1e3
    vals[0, 0] = -math.inf
    vals[3, 4] = 1e-300  # subnormal-ish magnitudes must survive repr
    phi = GridFunction(dom, vals, MP)
    path = tmp_path / "phi.csv"
    write_grid_csv(phi, path)
    back = read_grid_csv(path)
    assert back.domain == dom
    assert np.array_equal(back.values, phi.values)
    # text form is deterministic
    assert grid_csv_text(phi) == grid_csv_text(back)


def test_grid_csv_minplus_round_trip(tmp_path):
    dom = GridDomain(0.0, 1.0, 4)
    phi = GridFunction(dom, [0.0, math.inf, 2.0, 1.0], MN)
    path = tmp_path / "m.csv"
    write_grid_csv(phi, path)
    back = read_grid_csv(path, MN)
    assert np.array_equal(back.values, phi.values)
    assert back.spec == MN


def test_grid_csv_errors(tmp_path):
    bad_header = tmp_path / "a.csv"
    bad_header.write_text("2,0.0,1.0\n0.0\n")
    with pytest.raises(InputFormatError) as err:
        read_grid_csv(bad_header)
    assert err.value.line == 1

    bad_value = tmp_path / "b.csv"
    bad_value.write_text("1,0.0,1.0,2\n0.0\nbanana\n")
    with pytest.raises(InputFormatError) as err:
        read_grid_csv(bad_value)
    assert err.value.line == 3

    short = tmp_path / "c.csv"
    short.write_text("1,0.0,1.0,3\n0.0\n1.0\n")
    with pytest.raises(InputFormatError):
        read_grid_csv(short)
