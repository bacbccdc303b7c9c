"""Exact 3-D hulls: an LP oracle, facet invariants, symmetries and scaling."""
import time
from fractions import Fraction
from itertools import combinations, permutations, product

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from tropkit import Polytope, convex_hull, minkowski_mul
from tropkit.polytope import _hull_3d

HYPOTHESIS = settings(max_examples=120, deadline=None, derandomize=True)


def lp_extreme_points(points):
    """Points that no convex combination of the others gives (HiGHS feasibility LP).

    The same test as the benchmark's reference: ``Σ λ_j q_j = p, Σ λ_j = 1,
    λ ≥ 0`` over the other points is infeasible exactly when p is extreme.
    """
    pts = sorted(set(points))
    if len(pts) <= 1:
        return set(pts)
    out = set()
    for i, p in enumerate(pts):
        others = np.array(pts[:i] + pts[i + 1:], dtype=float)
        a_eq = np.vstack([others.T, np.ones(len(others))])
        b_eq = np.append(np.array(p, dtype=float), 1.0)
        res = linprog(
            np.zeros(len(others)), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs"
        )
        assert res.status in (0, 2), res.message
        if res.status == 2:
            out.add(p)
    return out


coord = st.integers(-3, 3)
denominator = st.sampled_from([1, 2, 3])


@st.composite
def point_sets(draw, max_size=12):
    """3-D sets of Fractions, generic or coplanar or collinear, with repeats."""
    den = draw(denominator)
    kind = draw(st.sampled_from(["generic", "coplanar", "collinear"]))
    if kind == "generic":
        raw = draw(st.lists(st.tuples(coord, coord, coord), min_size=1, max_size=max_size))
    elif kind == "coplanar":  # on z = x + y
        raw = [(x, y, x + y) for x, y in draw(st.lists(st.tuples(coord, coord), min_size=1,
                                                        max_size=max_size))]
    else:
        base = draw(st.tuples(coord, coord, coord))
        step = draw(st.tuples(coord, coord, coord))
        raw = [tuple(b + t * s for b, s in zip(base, step))
               for t in draw(st.lists(st.integers(-4, 4), min_size=1, max_size=max_size))]
    repeats = draw(st.lists(st.sampled_from(raw), max_size=3))
    return [tuple(Fraction(c, den) for c in p) for p in raw + repeats]


@HYPOTHESIS
@given(point_sets())
def test_vertices_match_lp_oracle(pts):
    assert set(convex_hull(pts, dim=3).vertices) == lp_extreme_points(pts)


@HYPOTHESIS
@given(point_sets(max_size=4))
def test_small_sets_match_lp_oracle(pts):
    assert set(convex_hull(pts, dim=3).vertices) == lp_extreme_points(pts)


def test_degenerate_hand_cases():
    square = [(0, 0, 0), (2, 0, 0), (0, 2, 0), (2, 2, 0), (1, 1, 0), (1, 0, 0)]
    assert convex_hull(square) == Polytope(3, [(0, 0, 0), (2, 0, 0), (0, 2, 0), (2, 2, 0)])
    line = [(t, 2 * t, -t) for t in (3, -1, 0, 2)]
    assert convex_hull(line).vertices == ((-1, -2, 1), (3, 6, -3))
    cube = list(product((0, 1, 2), repeat=3))  # edge midpoints, face and body centres
    assert set(convex_hull(cube).vertices) == set(product((0, 2), repeat=3))
    assert convex_hull([(1, 2, 3)] * 3).vertices == ((1, 2, 3),)


def test_facets_support_every_point_and_cover_every_vertex():
    rng = np.random.default_rng(12)
    for trial in range(40):
        rows = rng.integers(0, 5, (int(rng.integers(4, 60)), 3))
        pts = sorted({tuple(Fraction(int(c), 1 + trial % 3) for c in row) for row in rows})
        verts, facets = _hull_3d(pts)
        if len(facets) == 0:  # a flat draw has no facets to check
            continue
        for normal, offset, ring in facets:
            assert all(sum(n * c for n, c in zip(normal, p)) <= offset for p in pts)
            assert all(sum(n * c for n, c in zip(normal, v)) == offset for v in ring)
        assert {v for _, _, ring in facets for v in ring} == set(verts)
        for v in verts:
            normals = [n for n, _, ring in facets if v in ring]
            assert len(normals) >= 3
            assert any(_det(*t) != 0 for t in combinations(normals, 3)), v


def _det(a, b, c):
    return (a[0] * (b[1] * c[2] - b[2] * c[1]) - a[1] * (b[0] * c[2] - b[2] * c[0])
            + a[2] * (b[0] * c[1] - b[1] * c[0]))


CUBE_SYMMETRIES = [
    (perm, signs) for perm in permutations(range(3)) for signs in product((1, -1), repeat=3)
]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(point_sets())
def test_hull_commutes_with_cube_symmetries(pts):
    assert len(CUBE_SYMMETRIES) == 48
    hull = convex_hull(pts, dim=3).vertices
    for perm, signs in CUBE_SYMMETRIES:
        def g(p):
            return tuple(s * p[k] for s, k in zip(signs, perm))

        assert set(convex_hull([g(p) for p in pts], dim=3).vertices) == {g(v) for v in hull}


@HYPOTHESIS
@given(point_sets(), st.tuples(coord, coord, coord))
def test_hull_commutes_with_scaling_beyond_int64(pts, shift):
    k = 2**64
    t = tuple(Fraction(c, 7) for c in shift)

    def f(p):
        return tuple(k * c + s for c, s in zip(p, t))

    hull = convex_hull(pts, dim=3).vertices
    assert set(convex_hull([f(p) for p in pts], dim=3).vertices) == {f(v) for v in hull}


def test_hull_scales_to_thousands_of_points():
    # a per-point LP took 14 s for 100 such points
    pts = [tuple(map(int, row)) for row in np.random.default_rng(3).integers(0, 1000, (2000, 3))]
    t0 = time.perf_counter()
    hull = convex_hull(pts)
    assert time.perf_counter() - t0 < 10.0
    assert set(hull.vertices) <= set(pts)


def test_minkowski_of_two_40_vertex_polytopes_is_fast():
    # every lifted point (x, y, ±(x² + y²)) is a vertex
    p = convex_hull([(x, y, x * x + y * y) for x in range(5) for y in range(8)])
    q = convex_hull([(x, y, -(x * x + y * y)) for x in range(8) for y in range(5)])
    assert len(p.vertices) == len(q.vertices) == 40
    t0 = time.perf_counter()
    s = minkowski_mul(p, q)
    assert time.perf_counter() - t0 < 10.0
    assert len(s.vertices) > 40
