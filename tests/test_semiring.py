import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import logsumexp

import tropkit as tk
from tropkit import (
    DivergenceError,
    Semiring,
    maxplus,
    minplus,
    semiring,
    subtropical,
)

RNG = np.random.default_rng(20260823)


def dyadic(n, lo=-(1 << 20), hi=1 << 20):
    # integers scaled by 2^-16: float addition on this lattice is exact,
    # so the semiring laws below can be asserted with ==
    return RNG.integers(lo, hi, size=n).astype(float) * 2.0**-16


# ---------------------------------------------------------------------------
# documented point examples
# ---------------------------------------------------------------------------

def test_maxplus_examples():
    mp = maxplus()
    assert mp.add(3.0, 5.0) == 5.0
    assert mp.mul(3.0, 5.0) == 8.0
    assert mp.zero == -math.inf
    assert mp.one == 0.0
    assert mp.add(2.5, -math.inf) == 2.5
    assert mp.mul(2.5, -math.inf) == -math.inf
    assert mp.mul(2.5, 0.0) == 2.5


def test_minplus_examples():
    mn = minplus()
    assert mn.add(3.0, 5.0) == 3.0
    assert mn.mul(3.0, 5.0) == 8.0
    assert mn.zero == math.inf
    assert mn.add(7.0, math.inf) == 7.0
    assert mn.mul(7.0, math.inf) == math.inf


def test_add_at_accumulates_repeated_indices():
    for spec, best in ((maxplus(), 5.0), (minplus(), -1.0)):
        out = np.array([0.0, spec.zero, 2.0])
        spec.add_at(out, [1, 1, 1], [5.0, -1.0, 3.0])
        assert out.tolist() == [0.0, best, 2.0]


def test_order_examples():
    mp, mn = maxplus(), minplus()
    assert mp.leq(2.0, 5.0) and not mp.leq(5.0, 2.0)
    # the min-plus order is reversed: smaller weights dominate
    assert mn.leq(5.0, 2.0) and not mn.leq(2.0, 5.0)
    assert mp.leq(-math.inf, -1e300)
    assert mn.leq(math.inf, 1e300)


def test_subtropical_examples():
    # 0 ⊕_1 0 = log 2, and scaling h scales the whole expression
    assert subtropical(1.0).add(0.0, 0.0) == math.log(2.0)
    assert subtropical(0.25).add(0.0, 0.0) == pytest.approx(0.25 * math.log(2.0), rel=1e-15)
    # direct evaluation of h·log(e^{u/h} + e^{v/h}) for a spread pair
    u, v, h = 3.0, 5.0, 0.5
    direct = h * math.log(math.exp(u / h) + math.exp(v / h))
    assert subtropical(h).add(u, v) == pytest.approx(direct, rel=1e-14)
    # far-apart arguments collapse to max without overflow
    assert subtropical(0.1).add(0.0, 1000.0) == 1000.0
    assert subtropical(0.3).add(-math.inf, 4.0) == 4.0
    assert subtropical(0.3).add(-math.inf, -math.inf) == -math.inf


def test_subtropical_spec_object():
    s = subtropical(0.5)
    assert s.h == 0.5
    assert s.zero == -math.inf and s.one == 0.0
    assert not s.is_idempotent
    assert s.mul(3.0, 5.0) == 8.0
    with pytest.raises(ValueError):
        s.leq(1.0, 2.0)  # no canonical order without idempotency
    with pytest.raises(ValueError):
        s.add_at(np.zeros(2), [0, 0], [1.0, 1.0])  # ⊕_h is not a ufunc


def test_dual_swaps_max_and_min():
    mp, mn = maxplus(), minplus()
    assert mp.dual == mn and mn.dual == mp
    assert mp.dual.dual == mp and mn.dual.dual == mn
    with pytest.raises(ValueError, match="dual"):
        subtropical(0.5).dual


def test_star_values():
    mp, mn = maxplus(), minplus()
    for a in (0.0, -0.5, -1e300, -math.inf):
        assert mp.star(a) == 0.0
        assert mn.star(-a) == 0.0
    # −log(1 − e⁻¹): the series 1 + e⁻¹ + e⁻² + ... through h·log
    assert subtropical(1.0).star(-1.0) == pytest.approx(0.4586751453870819, rel=1e-15)
    for h in (1.0, 0.5, 0.01):
        a = -0.7 * h
        assert subtropical(h).star(a) == pytest.approx(-h * math.log(1 - math.exp(a / h)), rel=1e-14)
        assert subtropical(h).star(-1000.0) == 0.0  # e^{a/h} below an ulp of 1
        bottom = subtropical(h).star(-math.inf)
        assert bottom == 0.0 and math.copysign(1.0, bottom) == 1.0


@pytest.mark.parametrize(
    "spec, a",
    [(maxplus(), 0.5), (minplus(), -0.5), (subtropical(1.0), 0.0), (subtropical(1.0), 0.1)],
)
def test_star_raises_where_the_series_diverges(spec, a):
    with pytest.raises(DivergenceError, match="no star"):
        spec.star(a)


def test_invalid_specs():
    with pytest.raises(ValueError):
        Semiring("subtropical", h=0.0)
    with pytest.raises(ValueError):
        Semiring("subtropical", h=-1.0)
    with pytest.raises(ValueError):
        Semiring("maxplus", h=0.5)  # h is meaningless without smoothing
    with pytest.raises(ValueError):
        Semiring("madplus")


def _h_entry_points():
    """Every public function that takes a deformation parameter h, as h ↦ call."""
    line = tk.SparsePolynomial(2, (((1, 0), 1.0), ((0, 1), 1.0), ((0, 0), 1.0)))
    win = tk.Window(-1.0, 1.0, -1.0, 1.0)
    ones = tk.GridFunction.constant(1.0, tk.GridDomain(-1.0, 1.0, 5), maxplus())
    system = tk.MechanicalSystem((1.0,), 0.5, 0.5)
    return {
        "subtropical": subtropical,
        "Semiring": lambda h: Semiring("subtropical", h),
        "dequantize_at": lambda h: tk.dequantize_at(line, h, [0.0, 0.0]),
        "deform_polynomial": lambda h: tk.deform_polynomial(line, h),
        "slice_roots": lambda h: tk.slice_roots(line, h, 0.0, 4),
        "amoeba_slice": lambda h: tk.amoeba_slice(line, h, 0.0, 4),
        "sample_amoeba": lambda h: tk.sample_amoeba(line, h, win, 2, 4),
        "sample_amoeba-no-slices": lambda h: tk.sample_amoeba(line, h, win, 0, 4),
        "convergence_study": lambda h: tk.convergence_study(line, [h], win, 2, 4),
        "dequantize_solution": lambda h: tk.dequantize_solution(ones, h),
        "viscous_solve": lambda h: tk.viscous_solve(ones, system, h),
    }


@pytest.mark.parametrize("h", [0.0, -1.0, math.inf, math.nan])
@pytest.mark.parametrize("entry", list(_h_entry_points()))
def test_every_h_must_be_positive_and_finite(entry, h):
    call = _h_entry_points()[entry]
    call(0.5)  # a valid h passes
    with pytest.raises(ValueError, match="h must be positive and finite"):
        call(h)


def test_validate_rejects_nan_and_antibottom():
    mp = maxplus()
    mp.validate(np.array([1.0, -math.inf]))
    with pytest.raises(ValueError):
        mp.validate(np.array([1.0, math.nan]))
    with pytest.raises(ValueError):
        mp.validate(np.array([math.inf]))
    minplus().validate(np.array([math.inf, 0.0]))
    with pytest.raises(ValueError):
        minplus().validate(np.array([-math.inf]))


# ---------------------------------------------------------------------------
# algebraic laws, exact on the dyadic lattice
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("spec", [maxplus(), minplus()], ids=["maxplus", "minplus"])
def test_idempotent_laws_exact(spec):
    a, b, c = dyadic(4096), dyadic(4096), dyadic(4096)
    # sprinkle in the neutral element
    a[::97] = spec.zero
    b[::41] = spec.zero
    add, mul = spec.add, spec.mul

    assert np.array_equal(add(add(a, b), c), add(a, add(b, c)))
    assert np.array_equal(add(a, b), add(b, a))
    assert np.array_equal(add(a, a), a)
    assert np.array_equal(mul(mul(a, b), c), mul(a, mul(b, c)))
    assert np.array_equal(mul(a, b), mul(b, a))
    assert np.array_equal(mul(a, add(b, c)), add(mul(a, b), mul(a, c)))
    assert np.array_equal(mul(add(a, b), c), add(mul(a, c), mul(b, c)))
    assert np.array_equal(add(a, np.full_like(a, spec.zero)), a)
    assert np.array_equal(mul(a, np.zeros_like(a)), a)
    assert np.array_equal(mul(a, np.full_like(a, spec.zero)), np.full_like(a, spec.zero))


@pytest.mark.parametrize(
    "spec, sign", [(maxplus(), 1.0), (minplus(), -1.0)], ids=["maxplus", "minplus"]
)
def test_star_law_exact(spec, sign):
    # a* = 1 ⊕ a ⊙ a*, with a ranging over the values that have a star
    for a in sign * np.concatenate([dyadic(200, hi=0), [0.0, -math.inf]]):
        star = spec.star(a)
        assert star == spec.add(spec.one, spec.mul(a, star))


@settings(max_examples=300, deadline=None)
@given(a=st.floats(-30.0, -1e-3), h=st.sampled_from([1.0, 0.5, 0.1, 0.01]))
def test_subtropical_star_law(a, h):
    # a* = 1 ⊕_h a ⊙ a* within 2·2⁻⁵²·(h + |a*|): a few ulps of e^{a*/h}
    s = subtropical(h)
    star = s.star(a)
    assert abs(star - s.add(s.one, s.mul(a, star))) <= 2 * 2.0**-52 * (h + abs(star))


def test_distributivity_exact_for_arbitrary_floats():
    # max distributes over + with no rounding at all, even off the lattice
    a = RNG.standard_normal(4096) * 1e3
    b = RNG.standard_normal(4096)
    c = RNG.standard_normal(4096)
    mp = maxplus()
    lhs = mp.mul(a, mp.add(b, c))
    rhs = mp.add(mp.mul(a, b), mp.mul(a, c))
    assert np.array_equal(lhs, rhs)


def test_bottom_absorbs_even_against_antibottom():
    # -inf ⊙ +inf would be nan under plain +; the product must stay bottom
    mp = maxplus()
    assert mp.mul(-math.inf, math.inf) == -math.inf
    assert mp.mul(math.inf, -math.inf) == -math.inf
    mn = minplus()
    assert mn.mul(math.inf, -math.inf) == math.inf


def test_negation_is_an_isomorphism():
    a, b = dyadic(512), dyadic(512)
    mp, mn = maxplus(), minplus()
    assert np.array_equal(mn.add(a, b), -mp.add(-a, -b))
    assert np.array_equal(mn.mul(a, b), -mp.mul(-a, -b))


# ---------------------------------------------------------------------------
# smoothed addition: laws up to rounding, sandwich bound exactly
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("h", [1.0, 0.1, 0.01])
def test_subtropical_laws_small_relative_error(h):
    s = subtropical(h)
    a = RNG.uniform(-40.0, 40.0, size=2048)
    b = RNG.uniform(-40.0, 40.0, size=2048)
    c = RNG.uniform(-40.0, 40.0, size=2048)

    lhs = s.add(s.add(a, b), c)
    rhs = s.add(a, s.add(b, c))
    scale = np.maximum(1.0, np.abs(lhs))
    assert np.max(np.abs(lhs - rhs) / scale) < 1e-12

    assert np.array_equal(s.add(a, b), s.add(b, a))  # symmetric formula

    # distributivity over ⊙ = + is exact shifting under the log
    lhs = s.mul(c, s.add(a, b))
    rhs = s.add(s.mul(c, a), s.mul(c, b))
    assert np.max(np.abs(lhs - rhs) / np.maximum(1.0, np.abs(lhs))) < 1e-12


@pytest.mark.parametrize("h", [2.0, 1.0, 0.25, 1e-3])
def test_deformation_sandwich_no_float_violations(h):
    u = RNG.uniform(-100.0, 100.0, size=20000)
    v = RNG.uniform(-100.0, 100.0, size=20000)
    smooth = subtropical(h).add(u, v)
    hi = np.maximum(u, v)
    # max ≤ u ⊕_h v ≤ max + h log 2, with zero tolerance: the implementation
    # adds a nonnegative log1p term, and log1p rounding is monotone
    assert np.all(smooth >= hi)
    assert np.all(smooth <= hi + h * math.log(2.0))


def test_deformation_collapses_to_max():
    u = RNG.uniform(-5.0, 5.0, size=200)
    v = RNG.uniform(-5.0, 5.0, size=200)
    gaps = [np.max(subtropical(h).add(u, v) - np.maximum(u, v)) for h in (1.0, 0.1, 0.01)]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] <= 0.01 * math.log(2.0)


def test_scalar_inputs_return_python_floats():
    assert isinstance(maxplus().add(1.0, 2.0), float)
    assert isinstance(subtropical(0.5).add(1.0, 2.0), float)


# ---------------------------------------------------------------------------
# the ⊕-reduction
# ---------------------------------------------------------------------------

@st.composite
def carrier_arrays(draw):
    """2-D max-plus carrier arrays with bottoms, ties and all-bottom rows/columns."""
    shape = draw(st.tuples(st.integers(1, 6), st.integers(1, 6)))
    values = st.one_of(
        st.sampled_from([-math.inf, 0.0, 1.5, -2.25]),
        st.floats(-60.0, 60.0, allow_nan=False),
    )
    a = draw(arrays(np.float64, shape, elements=values))
    if draw(st.booleans()):
        a[draw(st.integers(0, shape[0] - 1)), :] = -math.inf
    if draw(st.booleans()):
        a[:, draw(st.integers(0, shape[1] - 1))] = -math.inf
    return a


def bits(x):
    x = np.asarray(x)
    return x.shape, x.tobytes()


@settings(max_examples=300, deadline=None)
@given(
    values=carrier_arrays(),
    axis=st.sampled_from([0, 1, None]),
    h=st.sampled_from([0.01, 0.3, 0.5, 1.0, 7.0]),
)
def test_subtropical_reduce_is_scipy_logsumexp_bitwise(values, axis, h):
    with np.errstate(divide="ignore"):
        expected = h * logsumexp(values / h, axis=axis)
    before = values.copy()
    got = subtropical(h).reduce(values, axis)
    assert bits(got) == bits(expected)
    assert bits(values) == bits(before)  # the input is left alone by default
    assert bits(subtropical(h).reduce(values.copy(), axis, overwrite=True)) == bits(expected)
    if axis is not None:
        out = np.empty(np.shape(expected))
        assert subtropical(h).reduce(values, axis, out=out) is out
        assert bits(out) == bits(expected)


def test_subtropical_reduce_edge_slices():
    sp = subtropical(0.5)
    a = np.array([[-math.inf, -math.inf], [2.0, 2.0], [1.0, -math.inf]])
    got = sp.reduce(a, 1)
    assert got[0] == -math.inf  # an all-bottom slice is bottom
    assert got[1] == 2.0 + 0.5 * math.log(2.0)  # a tie is the h·log 2 gap
    assert got[2] == 1.0  # bottom terms drop out
    assert sp.reduce(np.full(3, -math.inf)) == -math.inf


@pytest.mark.parametrize(
    "spec, ref", [(maxplus(), np.max), (minplus(), np.min)], ids=["maxplus", "minplus"]
)
@pytest.mark.parametrize("axis", [0, 1, None, (0, 1)])
def test_idempotent_reduce_is_max_or_min(spec, ref, axis):
    a = dyadic(24).reshape(4, 6)
    a[1, 2] = spec.zero
    a[:, 4] = spec.zero
    assert bits(spec.reduce(a, axis)) == bits(ref(a, axis=axis))
    if axis in (0, 1):
        out = np.empty(a.shape[1 - axis])
        assert spec.reduce(a, axis, out=out) is out
        assert bits(out) == bits(ref(a, axis=axis))


# ---------------------------------------------------------------------------
# the ⊕-contraction
# ---------------------------------------------------------------------------

def dense_contract(kern, a, axis, spec):
    """``⊕_y kern[x, y] ⊙ a[..., y, ...]`` from every stacked sum at once, with
    the contracted axis moved last and reduced by numpy or SciPy."""
    terms = np.moveaxis(a, axis, -1)[..., None, :] + kern
    if spec.is_idempotent:
        out = (np.max if spec.variant == "maxplus" else np.min)(terms, axis=-1)
    else:
        with np.errstate(divide="ignore"):
            out = spec.h * logsumexp(terms / spec.h, axis=-1)
    return np.moveaxis(out, -1, axis)


@settings(max_examples=60, deadline=None)
@given(
    spec=st.sampled_from([maxplus(), minplus(), subtropical(1.0), subtropical(0.125)]),
    shape=st.lists(st.integers(1, 5), min_size=1, max_size=3),
    rows=st.integers(1, 5),
    data=st.data(),
)
def test_contract_is_blockwise_exact_and_matches_dense(spec, shape, rows, data):
    # quarter-integer entries with some bottoms; -33 stands for bottom
    def entries(shape):
        k = data.draw(arrays(np.int64, shape, elements=st.integers(-33, 32)))
        return np.where(k == -33, spec.zero, k / 4.0)

    a = entries(tuple(shape))
    for axis in range(a.ndim):
        kern = entries((rows, a.shape[axis]))
        results = []
        for block in (1, 7, 2**21):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(semiring, "_BLOCK_ELEMENTS", block)
                results.append(spec.contract(kern, a, axis))
        assert all(bits(r) == bits(results[0]) for r in results)
        out, ref = results[0], dense_contract(kern, a, axis, spec)
        assert out.shape == ref.shape == a.shape[:axis] + (rows,) + a.shape[axis + 1:]
        if spec.is_idempotent:
            assert bits(out) == bits(ref)
        else:
            np.testing.assert_allclose(out, ref, rtol=1e-14, atol=1e-14)
