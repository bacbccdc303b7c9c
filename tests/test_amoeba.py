import cmath
import itertools
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tropkit import amoeba
from tropkit import (
    AmoebaSample,
    PlanarPLSet,
    ScaleRangeError,
    SparsePolynomial,
    TropicalPolynomial,
    Window,
    amoeba_slice,
    convergence_study,
    deform_polynomial,
    hausdorff_distance,
    sample_amoeba,
    slice_roots,
    tropical_data,
    tropical_variety,
)

LINE = SparsePolynomial(2, (((1, 0), 1.0), ((0, 1), 1.0), ((0, 0), 1.0)))
TROP_LINE = TropicalPolynomial(2, (((1, 0), 0.0), ((0, 1), 0.0), ((0, 0), 0.0)))
WIN = Window(-3.0, 3.0, -3.0, 3.0)


def eval_bivariate(f, z1, z2):
    """Plain monomial-sum evaluation plus the absolute-value scale."""
    total = 0j
    scale = 0.0
    for (a1, a2), c in f.terms:
        term = c * z1**a1 * z2**a2
        total += term
        scale += abs(term)
    return total, scale


def reference_slice_roots(f, h, x1, angle_samples):
    """One ``np.roots`` call per phase, then two ``np.polyval`` Newton passes.

    This is the per-phase loop that ``slice_roots`` replaces with a stacked
    eigensolve; its thetas and roots must come out bit for bit the same.
    """
    exps = np.array(f.support, dtype=int)
    coeffs = f.coefficient_array()
    deg2 = int(exps[:, 1].max())
    thetas = 2.0 * np.pi * np.arange(angle_samples) / angle_samples
    cmat = np.zeros((angle_samples, deg2 + 1), dtype=complex)
    for (a1, a2), c in zip(exps, coeffs):
        cmat[:, a2] += c * math.exp(a1 * x1 / h) * np.exp(1j * a1 * thetas)
    out_thetas, out_roots, out_res = [], [], []
    for t in range(angle_samples):
        desc = cmat[t][::-1]
        if not np.any(desc != 0):
            continue
        roots = np.roots(desc)
        roots = roots[roots != 0]
        deriv = np.polyder(desc)
        for _ in range(2):
            pv = np.polyval(desc, roots)
            dv = np.polyval(deriv, roots)
            ok = dv != 0
            roots = np.where(ok, roots - np.where(ok, pv, 0) / np.where(ok, dv, 1), roots)
        roots = roots[roots != 0]
        z1 = math.exp(x1 / h) * np.exp(1j * thetas[t])
        vals = np.zeros(roots.shape, dtype=complex)
        scale = np.zeros(roots.shape)
        for (a1, a2), c in zip(exps, coeffs):
            term = c * z1**a1 * roots**a2
            vals += term
            scale += np.abs(term)
        with np.errstate(invalid="ignore", divide="ignore"):
            res = np.abs(vals) / scale
        keep = np.isfinite(res)
        out_thetas += [float(thetas[t])] * int(keep.sum())
        out_roots += roots[keep].tolist()
        out_res += res[keep].tolist()
    return (
        np.array(out_thetas),
        np.array(out_roots, dtype=complex),
        np.array(out_res),
    )


def assert_matches_reference(f, h, x1, angle_samples):
    thetas, roots, residuals = slice_roots(f, h, x1, angle_samples)
    ref_thetas, ref_roots, ref_residuals = reference_slice_roots(f, h, x1, angle_samples)
    assert thetas.tobytes() == ref_thetas.tobytes()
    assert roots.tobytes() == ref_roots.tobytes()
    assert np.array_equal(residuals <= 1e-9, ref_residuals <= 1e-9)
    assert np.all(np.diff(thetas) >= 0.0)  # phase-major
    return thetas, roots, residuals


# ---------------------------------------------------------------------------
# windows
# ---------------------------------------------------------------------------

def test_window_basics():
    w = Window.parse("-1,2,-3,4")
    assert (w.xmin, w.xmax, w.ymin, w.ymax) == (-1.0, 2.0, -3.0, 4.0)
    assert w.diagonal == pytest.approx(math.hypot(3.0, 7.0))
    mask = w.contains(np.array([[0.0, 0.0], [5.0, 0.0], [-1.0, 4.0]]))
    assert mask.tolist() == [True, False, True]  # boundary is inside
    with pytest.raises(ValueError):
        Window(0.0, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        Window.parse("1,2,3")


# ---------------------------------------------------------------------------
# valuation data and deformation
# ---------------------------------------------------------------------------

def test_tropical_data_takes_log_moduli():
    f = SparsePolynomial(2, (((1, 0), math.e**2), ((0, 0), 1.0)))
    tf = tropical_data(f)
    vals = dict(tf.terms)
    assert vals[(1, 0)] == pytest.approx(2.0, rel=1e-15)
    assert vals[(0, 0)] == 0.0
    assert tf.evaluate([1.0, 5.0]) == pytest.approx(3.0)  # max(2 + x, 0)


def test_deform_identity_at_unit_h():
    assert deform_polynomial(LINE, 1.0) is LINE


def test_deform_rescales_moduli_preserving_phase():
    f = SparsePolynomial(2, (((1, 0), 4.0), ((0, 1), -9.0), ((0, 0), 2.0j)))
    g = deform_polynomial(f, 0.5)
    mags = {e: abs(c) for e, c in g.terms}
    assert mags[(1, 0)] == pytest.approx(16.0, rel=1e-14)  # 4^{1/h} = 4²
    assert mags[(0, 1)] == pytest.approx(81.0, rel=1e-14)
    phases = {e: cmath.phase(c) for e, c in g.terms}
    assert phases[(0, 1)] == pytest.approx(math.pi)
    assert phases[(0, 0)] == pytest.approx(math.pi / 2.0)
    # the valuation seen at scale h is h-independent by construction
    for e, c in g.terms:
        orig = dict(f.terms)[e]
        assert 0.5 * math.log(abs(c)) == pytest.approx(math.log(abs(orig)), abs=1e-14)


def test_deform_unit_moduli_fixed():
    # on unit-modulus coefficients the deformation acts trivially, so the
    # valuation data is exactly preserved for every h
    f = SparsePolynomial(2, (((1, 0), 1.0), ((0, 1), -1.0), ((0, 0), 1.0j)))
    for h in (2.0, 0.5, 0.125):
        g = deform_polynomial(f, h)
        assert tropical_data(g).terms == tropical_data(f).terms


def test_deform_out_of_range_is_typed():
    # log 3 / h exceeds the double exponent range at h = 0.001
    f = SparsePolynomial(2, (((0, 0), 3.0), ((1, 0), 1.0), ((0, 1), 1.0)))
    with pytest.raises(ScaleRangeError, match=r"coefficient 3.*h=0\.001"):
        deform_polynomial(f, 0.001)
    tiny = SparsePolynomial(2, (((0, 0), 1e-3), ((1, 0), 1.0)))
    with pytest.raises(ScaleRangeError):
        deform_polynomial(tiny, 0.001)  # (1e-3)^1000 underflows to zero
    assert dict(deform_polynomial(f, 0.01).terms)[(0, 0)] == pytest.approx(3.0**100, rel=1e-12)


# ---------------------------------------------------------------------------
# slices
# ---------------------------------------------------------------------------

def test_slice_of_unit_line_hits_origin():
    # at x₁ = 0, θ = 2π/3 the root is z₂ = -(1 + e^{iθ}), of modulus one
    pts = amoeba_slice(LINE, 1.0, 0.0, 3)
    assert pts.shape == (3, 2)
    assert np.min(np.abs(pts[:, 1])) <= 1e-12


def test_slice_roots_against_direct_evaluation():
    thetas, roots, residuals = slice_roots(LINE, 0.5, 1.0, 8)
    assert roots.size == 8
    z1_mod = math.exp(1.0 / 0.5)
    for th, r, res in zip(thetas, roots, residuals):
        val, scale = eval_bivariate(LINE, z1_mod * cmath.exp(1j * th), r)
        assert abs(val) / scale == pytest.approx(res, rel=1e-6, abs=1e-15)
        assert res <= 1e-12  # a degree-one fiber is solved to machine rounding


def test_tentacle_band():
    """Far out on a tentacle the slice hugs x₂ ∈ [log(e³-1), log(e³+1)]."""
    pts = amoeba_slice(LINE, 1.0, 3.0, 256)
    x2 = np.sort(pts[:, 1])
    lo, hi = math.log(math.e**3 - 1.0), math.log(math.e**3 + 1.0)
    assert np.all(x2 >= lo - 1e-9) and np.all(x2 <= hi + 1e-9)
    assert x2[0] <= lo + 5e-3 and x2[-1] >= hi - 5e-3  # both ends reached


def test_slice_guard_rails():
    with pytest.raises(ValueError):
        slice_roots(SparsePolynomial(1, (((1,), 1.0),)), 1.0, 0.0, 4)
    with pytest.raises(ValueError):
        slice_roots(LINE, 0.0, 0.0, 4)
    with pytest.raises(ValueError):
        slice_roots(LINE, 1.0, 0.0, 0)
    with pytest.raises(ValueError):
        slice_roots(LINE, 1e-3, 800.0, 4)  # e^{800/h} overflows
    with pytest.raises(ValueError):
        sample_amoeba(LINE, 1e-3, Window(-1.0, 800.0, -1.0, 1.0), 3, 4)  # the last fibre


def test_degenerate_phase_warns():
    # f = y - xy: at x₁ = 0, θ = 0 the fiber polynomial (1 - z₁)·z₂ vanishes
    # identically (an exact real cancellation), which must be reported,
    # not silently dropped
    f = SparsePolynomial(2, (((0, 1), 1.0), ((1, 1), -1.0)))
    with pytest.warns(UserWarning, match="identically zero"):
        slice_roots(f, 1.0, 0.0, 4)
    # (1 - z₁)(z₂ - 2) vanishes at θ = 0 as well; the other three phases keep
    # their root z₂ = 2 (the fibers of y - xy above carry only the root zero)
    g = SparsePolynomial(
        2, (((0, 1), 1.0), ((1, 1), -1.0), ((0, 0), -2.0), ((1, 0), 2.0))
    )
    with pytest.warns(UserWarning, match="1 phase"):
        thetas, roots, residuals = assert_matches_reference(g, 1.0, 0.0, 4)
    assert thetas.tolist() == [math.pi / 2.0, math.pi, 3.0 * math.pi / 2.0]
    assert np.allclose(roots, 2.0, rtol=0.0, atol=1e-12)
    assert np.all(residuals <= 1e-9)


@pytest.mark.parametrize(
    "terms",
    [
        # (1 - z₁)·z₂² + z₂ + 1: the leading coefficient vanishes, degree drops
        (((0, 2), 1.0), ((1, 2), -1.0), ((0, 1), 1.0), ((0, 0), 1.0)),
        # (1 - z₁) + z₂ + z₂²: the constant vanishes, its zero root is dropped
        (((0, 0), 1.0), ((1, 0), -1.0), ((0, 1), 1.0), ((0, 2), 1.0)),
    ],
    ids=["leading", "constant"],
)
@pytest.mark.parametrize("angle_samples", [1, 4, 16, 64])
def test_mixed_degree_fiber(terms, angle_samples):
    f = SparsePolynomial(2, terms)
    thetas, roots, _ = assert_matches_reference(f, 1.0, 0.0, angle_samples)
    # θ = 0 leaves the single root z₂ = -1; every other phase keeps two roots
    assert np.count_nonzero(thetas == 0.0) == 1
    assert roots[0] == pytest.approx(-1.0, abs=1e-12)
    assert thetas.size == 2 * angle_samples - 1


@settings(max_examples=60, deadline=None)
@given(
    support=st.sets(
        st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=8
    ),
    data=st.data(),
    h=st.sampled_from([1.0, 0.5, 0.25]),
    x1=st.floats(-3.0, 3.0),
    angle_samples=st.sampled_from([1, 3, 16, 64]),
)
def test_slice_roots_matches_per_phase_np_roots(support, data, h, x1, angle_samples):
    moduli = st.floats(0.1, 10.0)
    phases = st.floats(0.0, 2.0 * math.pi)
    terms = tuple(
        (e, data.draw(moduli) * cmath.exp(1j * data.draw(phases)))
        for e in sorted(support)
    )
    assert_matches_reference(SparsePolynomial(2, terms), h, x1, angle_samples)


# ---------------------------------------------------------------------------
# full samples
# ---------------------------------------------------------------------------

def test_sample_monomial_empty():
    mono = SparsePolynomial(2, (((2, 1), 3.0),))
    sample = sample_amoeba(mono, 1.0, WIN, 16, 8)
    assert sample.points.shape == (0, 2)


def test_sample_zero_slices_empty():
    sample = sample_amoeba(LINE, 1.0, WIN, 0, 8)
    assert sample.points.shape == (0, 2)
    with pytest.raises(ValueError):
        sample_amoeba(LINE, 1.0, WIN, -1, 8)


def test_sample_respects_window():
    sample = sample_amoeba(LINE, 1.0, WIN, 40, 16)
    assert isinstance(sample, AmoebaSample)
    assert np.all(WIN.contains(sample.points))
    assert sample.points.shape[0] > 100


def test_sample_horizontal_line():
    # y = e requires log|y| = 1 exactly: the amoeba is the horizontal line x₂ = 1
    f = SparsePolynomial(2, (((0, 1), 1.0), ((0, 0), -math.e)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the x-direction fibers are constants
        sample = sample_amoeba(f, 1.0, WIN, 21, 8)
    assert sample.points.shape[0] >= 21
    assert np.max(np.abs(sample.points[:, 1] - 1.0)) <= 1e-9


def reference_sample_amoeba(f, h, window, slices, angle_samples):
    """One ``amoeba_slice`` per fibre in both directions, clipped to the window.

    This is the per-fibre loop that ``sample_amoeba`` replaces with one run of
    the fibre kernel per direction; ``amoeba_slice`` itself is pinned to the
    per-phase ``np.roots`` reference above.  Returns the points and the roots
    found and kept, counted from ``slice_roots`` on the same fibres.
    """
    collected, found, kept = [], 0, 0
    if slices > 0:
        swapped = SparsePolynomial(2, tuple(((e[1], e[0]), c) for e, c in f.terms))
        for g, coords in ((f, np.linspace(window.xmin, window.xmax, slices)),
                          (swapped, np.linspace(window.ymin, window.ymax, slices))):
            for x in coords:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")  # amoeba_slice below warns once
                    _, _, residuals = slice_roots(g, h, float(x), angle_samples)
                found += residuals.size
                kept += int(np.count_nonzero(residuals <= 1e-9))
                pts = amoeba_slice(g, h, float(x), angle_samples)
                if g is f:
                    keep = (pts[:, 1] >= window.ymin) & (pts[:, 1] <= window.ymax)
                    collected.append(pts[keep])
                else:
                    flipped = pts[:, ::-1]
                    keep = (flipped[:, 0] >= window.xmin) & (flipped[:, 0] <= window.xmax)
                    collected.append(flipped[keep])
    points = np.concatenate(collected, axis=0) if collected else np.empty((0, 2))
    return points, found, kept


def zero_phase_messages(run):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run()
    return result, [str(w.message) for w in caught if "identically zero" in str(w.message)]


@settings(max_examples=60, deadline=None)
@given(
    support=st.sets(
        st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=8
    ),
    data=st.data(),
    h=st.sampled_from([1.0, 0.5, 0.25]),
    slices=st.integers(0, 12),
    angle_samples=st.sampled_from([1, 3, 16]),
    chunking=st.sampled_from(["one fibre", "mid-direction", "default"]),
)
def test_sample_amoeba_matches_per_slice_loop(support, data, h, slices, angle_samples, chunking):
    moduli = st.floats(0.1, 10.0)
    phases = st.floats(0.0, 2.0 * math.pi)
    f = SparsePolynomial(2, tuple(
        (e, data.draw(moduli) * cmath.exp(1j * data.draw(phases))) for e in sorted(support)
    ))
    window = Window(-2.0, 2.5, -2.5, 2.0)
    # a fibre's companion matrices take 2·angle_samples·(deg₂ + 1)² doubles
    # or less, so this block holds `fibres` whole x-direction fibres (fewer
    # or more in the swapped direction, whose degree differs)
    fibre = 2 * angle_samples * (max(e[1] for e in support) + 1) ** 2
    fibres = data.draw(st.integers(1, max(1, slices - 1)))
    block = {"one fibre": 1, "mid-direction": fibres * fibre, "default": 2**21}[chunking]
    ref, ref_messages = zero_phase_messages(
        lambda: reference_sample_amoeba(f, h, window, slices, angle_samples)
    )
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(amoeba, "_BLOCK_ELEMENTS", block)
        sample, messages = zero_phase_messages(
            lambda: sample_amoeba(f, h, window, slices, angle_samples)
        )
    points, found, kept = ref
    assert sample.points.tobytes() == points.tobytes()
    assert (sample.roots_found, sample.roots_kept) == (found, kept)
    assert messages == ref_messages
    assert sample.degenerate_phases == sum(int(m.split(": ")[1].split()[0]) for m in messages)


def test_sample_amoeba_warns_per_fibre_in_order():
    # (1 - z₁)(z₂ - 2) vanishes identically on the phase θ = 0 of the fibre
    # x₁ = 0 and, sliced the other way, of the fibre x₂ = log 2
    g = SparsePolynomial(
        2, (((0, 1), 1.0), ((1, 1), -1.0), ((0, 0), -2.0), ((1, 0), 2.0))
    )
    window = Window(-1.0, 1.0, -math.log(2.0), math.log(2.0))
    expected = [
        "slice x1=0: 1 phase(s) gave an identically zero polynomial; skipped",
        "slice x1=0.693147: 1 phase(s) gave an identically zero polynomial; skipped",
    ]
    (ref, _, _), ref_messages = zero_phase_messages(
        lambda: reference_sample_amoeba(g, 1.0, window, 5, 8)
    )
    assert ref_messages == expected
    for block in (1, 2**21):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(amoeba, "_BLOCK_ELEMENTS", block)
            sample, messages = zero_phase_messages(lambda: sample_amoeba(g, 1.0, window, 5, 8))
        assert messages == expected
        assert sample.degenerate_phases == 2
        assert sample.points.tobytes() == ref.tobytes()


def test_sample_amoeba_memory_is_chunked():
    # 200 fibres × 64 phases per direction of a dense degree-16 polynomial:
    # the per-fibre loop peaked at 12.4 MiB (the points themselves); the
    # stacked chunks may add one 16 MiB block of doubles, not a direction
    rng = np.random.default_rng(16)
    exps = [(i, j) for i in range(17) for j in range(17 - i)]
    coeffs = np.exp(rng.uniform(-1.0, 1.0, len(exps)) + 1j * rng.uniform(0.0, 2.0 * math.pi, len(exps)))
    f = SparsePolynomial(2, tuple(zip(exps, coeffs.tolist())))
    tracemalloc.start()
    try:
        sample = sample_amoeba(f, 1.0, Window(-3.0, 3.0, -3.0, 3.0), 200, 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sample.points.shape[0] > 300_000
    assert peak <= (12.4 + 16.0) * 2**20


# ---------------------------------------------------------------------------
# corner loci
# ---------------------------------------------------------------------------

def test_tropical_line_star():
    pl = tropical_variety(TROP_LINE)
    assert pl.vertices == [(0.0, 0.0)]
    assert pl.edges == []
    assert sorted(d for _, d in pl.rays) == [(-1, 0), (0, -1), (1, 1)]


def test_two_term_vertical_line():
    two = TropicalPolynomial(2, (((1, 0), 0.0), ((0, 0), 0.0)))
    pl = tropical_variety(two)
    assert len(pl.vertices) == 1
    assert abs(pl.vertices[0][0]) <= 1e-12  # x = 0
    assert sorted(d for _, d in pl.rays) == [(0, -1), (0, 1)]


def test_translation_moves_the_vertex():
    shifted = TropicalPolynomial(2, (((1, 0), 0.25), ((0, 1), 0.0), ((0, 0), 0.0)))
    pl = tropical_variety(shifted)
    # max(x + 1/4, y, 0): triple point where x + 1/4 = y = 0
    assert len(pl.vertices) == 1
    assert pl.vertices[0][0] == pytest.approx(-0.25, abs=1e-12)
    assert pl.vertices[0][1] == pytest.approx(0.0, abs=1e-12)
    assert sorted(d for _, d in pl.rays) == [(-1, 0), (0, -1), (1, 1)]


CELLS = st.tuples(st.integers(0, 5), st.integers(0, 5))
DYADIC = st.integers(-12, 12).map(lambda k: k / 4)


@st.composite
def planar_tropical_polynomials(draw):
    """Supports in {0..5}² with dyadic values: general, collinear or coplanar."""
    kind = draw(st.sampled_from(["general", "collinear", "coplanar"]))
    if kind == "collinear":
        d = draw(st.sampled_from([(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, -2)]))
        b = draw(CELLS)
        line = [k for k in range(-5, 6) if 0 <= b[0] + k * d[0] <= 5 and 0 <= b[1] + k * d[1] <= 5]
        assume(len(line) >= 2)
        ks = draw(st.sets(st.sampled_from(line), min_size=2))
        support = [(b[0] + k * d[0], b[1] + k * d[1]) for k in ks]
    else:
        support = sorted(draw(st.sets(CELLS, min_size=2, max_size=12)))
    if kind == "coplanar":  # one affine function, with a few terms pushed below it
        c0, c1, c2 = draw(DYADIC), draw(DYADIC), draw(DYADIC)
        drops = st.sampled_from([0.0, 0.0, 0.0, 0.25, 1.0])
        terms = [(a, c0 + c1 * a[0] + c2 * a[1] - draw(drops)) for a in support]
    else:
        terms = [(a, draw(DYADIC)) for a in support]
    return TropicalPolynomial(2, tuple(terms))


def tied_terms(tf, x, y):
    """Exponents attaining the max at the exact point (x, y), sorted.

    With dyadic values and exponents in {0..5}, untied terms differ by far
    more than 1e-9 at a vertex, and rounding a vertex moves them by ~1e-15.
    """
    vals = [(Fraction(v) + a[0] * x + a[1] * y, a) for a, v in tf.terms]
    top = max(val for val, _ in vals)
    return sorted(a for val, a in vals if top - val <= Fraction(1, 10**9))


def exact_tie_point(tf, tied):
    """The point where the tied terms tie: unique, or the nearest to 0 on their line."""
    value = dict(tf.terms)
    p = tied[0]
    rows = [(a[0] - p[0], a[1] - p[1], Fraction(value[p]) - Fraction(value[a])) for a in tied[1:]]
    for (d1, d2, r), (e1, e2, s) in itertools.combinations(rows, 2):
        det = d1 * e2 - d2 * e1
        if det:
            return ((r * e2 - s * d2) / det, (d1 * s - e1 * r) / det)
    d1, d2, r = rows[0]
    return (r * d1 / (d1 * d1 + d2 * d2), r * d2 / (d1 * d1 + d2 * d2))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(planar_tropical_polynomials())
def test_conic_structure_and_balancing(tf):
    pl = tropical_variety(tf)
    assert pl.vertices == sorted(pl.vertices)
    for vi, (x, y) in enumerate(pl.vertices):
        # (a) the vertex is the correctly rounded tie point of the terms tied there
        tied = tied_terms(tf, Fraction(x), Fraction(y))
        assert len(tied) >= 2
        tx, ty = exact_tie_point(tf, tied)
        assert (x, y) == (float(tx), float(ty))
        # (b) weighted balancing, each piece weighted by the lattice length of
        # the segment the terms tied on it span; (c) at least two terms tie
        pieces = [
            (pl.vertices[b if a == vi else a], None) for a, b in pl.edges if vi in (a, b)
        ] + [((x + d[0], y + d[1]), d) for base, d in pl.rays if base == vi]
        assert pieces
        total = [0, 0]
        for (ox, oy), ray in pieces:
            if ray is None:  # probe a bounded edge at its midpoint
                px, py = (Fraction(x) + Fraction(ox)) / 2, (Fraction(y) + Fraction(oy)) / 2
            else:
                px, py = Fraction(x) + ray[0], Fraction(y) + ray[1]
            on = tied_terms(tf, px, py)
            assert len(on) >= 2
            (p1, p2), (q1, q2) = on[0], on[-1]
            assert all((a1 - p1) * (q2 - p2) == (a2 - p2) * (q1 - p1) for a1, a2 in on)
            w = (p2 - q2, q1 - p1)  # weight × primitive normal of the dual segment
            dx, dy = ox - x, oy - y
            assert abs(w[0] * dy - w[1] * dx) <= 1e-9 * math.hypot(dx, dy) * math.hypot(*w)
            sign = 1 if w[0] * dx + w[1] * dy > 0 else -1
            if ray is not None:
                lattice = math.gcd(q1 - p1, q2 - p2)
                assert (sign * w[0], sign * w[1]) == (lattice * ray[0], lattice * ray[1])
            total = [total[0] + sign * w[0], total[1] + sign * w[1]]
        assert total == [0, 0]


@pytest.mark.parametrize(
    "terms, vertices, edges, rays",
    [
        (  # the conic max(0, x, y, x + y − 1)
            (((0, 0), 0.0), ((1, 0), 0.0), ((0, 1), 0.0), ((1, 1), -1.0)),
            [(0.0, 0.0), (1.0, 1.0)], [(0, 1)],
            [(0, (-1, 0)), (0, (0, -1)), (1, (0, 1)), (1, (1, 0))],
        ),
        (  # vertices 2⁻⁴⁰ apart stay apart: no snapping
            (((0, 0), 0.0), ((1, 0), 0.0), ((0, 1), 0.0), ((1, 1), -(2.0**-40))),
            [(0.0, 0.0), (2.0**-40, 2.0**-40)], [(0, 1)],
            [(0, (-1, 0)), (0, (0, -1)), (1, (0, 1)), (1, (1, 0))],
        ),
        (  # collinear support: (1, 1) is dominated, so only upper-chain pairs tie
            (((0, 0), 0.0), ((1, 1), -1.0), ((2, 2), 0.0), ((3, 3), -1.0)),
            [(0.0, 0.0), (0.5, 0.5)], [],
            [(0, (-1, 1)), (0, (1, -1)), (1, (-1, 1)), (1, (1, -1))],
        ),
        (  # the all-zero 3 × 3 grid: the two axes through one vertex
            tuple(((i, j), 0.0) for i in range(3) for j in range(3)),
            [(0.0, 0.0)], [],
            [(0, (-1, 0)), (0, (0, -1)), (0, (0, 1)), (0, (1, 0))],
        ),
    ],
    ids=["conic", "near-tie-conic", "collinear-dominated", "zero-grid"],
)
def test_corner_locus_regressions(terms, vertices, edges, rays):
    pl = tropical_variety(TropicalPolynomial(2, terms))
    assert (pl.vertices, pl.edges, pl.rays) == (vertices, edges, rays)


def test_variety_needs_two_terms():
    with pytest.raises(ValueError):
        tropical_variety(TropicalPolynomial(2, (((1, 1), 0.0),)))
    with pytest.raises(ValueError):
        tropical_variety(TropicalPolynomial(1, (((0,), 0.0), ((1,), 0.0))))


@pytest.mark.parametrize(
    "dim, terms, message",
    [
        (0, (((), 0.0),), "at least 1"),
        (2, (((1, 0), 0.0), ((1,), 0.0)), "does not have 2 entries"),
        (2, (((1, 0), 0.0), ((1, 0), 1.0)), "duplicate exponent"),
        (2, (), "at least one term"),
    ],
    ids=["dim-0", "short-exponent", "duplicate-exponent", "no-terms"],
)
def test_tropical_polynomial_rejections(dim, terms, message):
    with pytest.raises(ValueError, match=message):
        TropicalPolynomial(dim, terms)


def test_pl_set_json_round_trip():
    pl = tropical_variety(TROP_LINE)
    back = PlanarPLSet.from_json(pl.to_json())
    assert back.vertices == pl.vertices
    assert back.edges == pl.edges
    assert back.rays == pl.rays


# ---------------------------------------------------------------------------
# distances and convergence
# ---------------------------------------------------------------------------

def test_hausdorff_identical_points_is_zero():
    pts = np.array([[0.0, 0.0], [1.0, 1.0], [-2.0, 0.5]])
    assert hausdorff_distance(pts, pts, WIN) == 0.0


def test_hausdorff_two_points():
    a = np.array([[0.0, 0.0]])
    b = np.array([[3.0, -4.0]])
    win = Window(-5.0, 5.0, -5.0, 5.0)
    assert hausdorff_distance(a, b, win) == 5.0


def test_hausdorff_point_to_pl_target():
    pl = tropical_variety(TROP_LINE)
    on_spine = np.array([[0.0, 0.0], [-1.0, 0.0], [1.5, 1.5]])
    d = hausdorff_distance(on_spine, pl, WIN)
    # the points sit on the set, so only the probe direction contributes:
    # the worst probe is the clipped ray end (0, -3), three units from (0, 0)
    assert d == pytest.approx(3.0, abs=0.05)
    off = np.array([[0.0, 1.0]])
    with pytest.raises(ValueError):
        hausdorff_distance(off, pl, Window(5.0, 6.0, 5.0, 6.0))  # empty clip


TROP_CONIC = TropicalPolynomial(
    2,
    (((0, 0), 0.0), ((1, 0), 1.0), ((0, 1), 1.0), ((2, 0), 0.0), ((1, 1), 1.0), ((0, 2), 0.0)),
)


def test_hausdorff_dense_sample_of_conic_with_bounded_edges():
    pl = tropical_variety(TROP_CONIC)
    assert pl.vertices == [(-1.0, -1.0), (0.0, 0.0), (0.0, 1.0), (1.0, 0.0)]
    assert pl.edges == [(0, 1), (1, 2), (1, 3)]
    assert len(pl.rays) == 6
    pitch = WIN.diagonal / 2000  # the probe pitch along each clipped segment
    verts = np.array(pl.vertices)
    pieces = []
    for i, j in pl.edges:
        ts = np.linspace(0.0, 1.0, 1000)
        pieces.append(verts[i] + ts[:, None] * (verts[j] - verts[i]))
    for base, direction in pl.rays:
        ts = np.arange(0.0, 6.0, pitch / 2)  # every ray leaves WIN before t = 6
        pieces.append(verts[base] + ts[:, None] * np.array(direction, dtype=float))
    dense = np.concatenate(pieces)
    assert hausdorff_distance(dense, pl, WIN) <= pitch
    # the vertices alone: the farthest probes are the clipped ray ends
    # (-3, 1), (2, 3), (1, -3) and (3, 2), each 2√2 from its nearest vertex
    assert hausdorff_distance(verts, pl, WIN) == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-12)


def test_hausdorff_to_an_isolated_vertex():
    pl = PlanarPLSet([(0.0, 0.0)], [], [])
    win = Window(-1.0, 5.0, -1.0, 5.0)
    assert hausdorff_distance(np.array([[3.0, 4.0]]), pl, win) == 5.0


def test_hausdorff_empty_inputs():
    with pytest.raises(ValueError):
        hausdorff_distance(np.empty((0, 2)), np.array([[0.0, 0.0]]), WIN)


def test_amoeba_approaches_its_spine():
    rows = convergence_study(LINE, [1.0, 0.5, 0.25], WIN, slices=60, angle_samples=24)
    hs = [h for h, _ in rows]
    ds = [d for _, d in rows]
    assert hs == [1.0, 0.5, 0.25]
    assert ds[0] > ds[1] > ds[2] > 0.0
    # the deformation bound h·log 2 controls the tentacle width at scale h
    assert ds[2] <= 0.25 * math.log(2.0) + 0.1


def test_convergence_study_rejects_monomial():
    mono = SparsePolynomial(2, (((2, 1), 1.0),))
    with pytest.raises(ValueError):
        convergence_study(mono, [1.0], WIN, 8, 8)
