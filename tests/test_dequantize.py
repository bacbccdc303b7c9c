import json
import math
from fractions import Fraction

import numpy as np
import pytest

from tropkit import (
    InputFormatError,
    Polytope,
    SparsePolynomial,
    convex_hull,
    dequantize_at,
    dequantize_limit,
    minkowski_add,
    minkowski_mul,
    newton_polytope,
    poly_add,
    poly_evaluate,
    poly_from_json,
    poly_mul,
    poly_to_json,
    polytope_from_json,
    polytope_to_json,
    read_poly_json,
    subdifferential_at_origin,
    write_poly_json,
)

RNG = np.random.default_rng(65537)


def graham_hull(points):
    """Float convex hull (Andrew scan), as an independent 2-D oracle."""
    pts = sorted(set(map(tuple, points)))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return sorted(lower[:-1] + upper[:-1])


def random_support_poly(dim, n_terms, max_deg=6, positive=True):
    support = set()
    while len(support) < n_terms:
        support.add(tuple(int(e) for e in RNG.integers(0, max_deg + 1, size=dim)))
    coeffs = RNG.uniform(0.5, 3.0, size=n_terms)
    if not positive:
        coeffs *= RNG.choice([-1.0, 1.0], size=n_terms)
    return SparsePolynomial(dim, tuple(zip(sorted(support), coeffs)))


# ---------------------------------------------------------------------------
# sparse polynomials
# ---------------------------------------------------------------------------

def test_polynomial_construction():
    f = SparsePolynomial(1, (((1,), 1.0), ((0,), 1.0)))
    assert f.support == [(0,), (1,)]  # canonically sorted
    with pytest.raises(ValueError):
        SparsePolynomial(1, ())
    with pytest.raises(ValueError):
        SparsePolynomial(1, (((0, 1), 1.0),))  # exponent arity
    with pytest.raises(ValueError):
        SparsePolynomial(1, (((-1,), 1.0),))
    with pytest.raises(ValueError):
        SparsePolynomial(1, (((0,), 0.0),))
    with pytest.raises(ValueError):
        SparsePolynomial(1, (((0,), 1.0), ((0,), 2.0)))  # duplicate


def test_poly_arithmetic():
    one_plus_x = SparsePolynomial(1, (((0,), 1.0), ((1,), 1.0)))
    sq = poly_mul(one_plus_x, one_plus_x)
    assert sq.support == [(0,), (1,), (2,)]
    assert dict(zip(sq.support, sq.coefficient_array())) == {
        (0,): 1.0,
        (1,): 2.0,
        (2,): 1.0,
    }
    one_minus_x = SparsePolynomial(1, (((0,), 1.0), ((1,), -1.0)))
    diff = poly_mul(one_plus_x, one_minus_x)
    assert diff.support == [(0,), (2,)]  # the x terms cancelled

    with pytest.raises(ValueError):
        poly_add(one_plus_x, SparsePolynomial(1, (((0,), -1.0), ((1,), -1.0))))


def test_poly_evaluate():
    f = SparsePolynomial(2, (((1, 0), 2.0), ((0, 2), 1.0 + 1.0j)))
    z = (3.0, 2.0j)
    assert poly_evaluate(f, z) == 2.0 * 3.0 + (1.0 + 1.0j) * (2.0j) ** 2


# ---------------------------------------------------------------------------
# the dequantization transform
# ---------------------------------------------------------------------------

def test_binomial_documented_value():
    f = SparsePolynomial(1, (((0,), 1.0), ((1,), 1.0)))
    # direct oracle: h·log(1 + e^{x/h}) at x = 1, h = 0.1
    direct = 0.1 * math.log1p(math.exp(1.0 / 0.1))
    assert dequantize_at(f, 0.1, [1.0]) == pytest.approx(direct, rel=1e-15)
    assert dequantize_at(f, 0.1, [1.0]) == pytest.approx(1.0000045398899218, rel=1e-12)


def test_monomial_is_exactly_affine():
    # a single term gets no smoothing at all: f̂_h(x) = ⟨a,x⟩ + h·log|c|
    f = SparsePolynomial(2, (((3, 1), 2.0),))
    for h in (1.0, 0.37, 1e-3):
        x = RNG.uniform(-5.0, 5.0, size=2)
        expect = 3.0 * x[0] + 1.0 * x[1] + h * math.log(2.0)
        assert dequantize_at(f, h, x) == expect


def test_cancellation_maps_to_bottom():
    f = SparsePolynomial(1, (((0,), 1.0), ((1,), -1.0)))  # 1 - x
    assert dequantize_at(f, 1.0, [0.0]) == -math.inf  # f(e⁰) = 0
    # nearby it is finite again: |1 - e^{-2}| < 1 pushes the log negative
    assert -1.0 < dequantize_at(f, 0.5, [-1.0]) < 0.0
    assert math.isfinite(dequantize_at(f, 0.5, [1.0]))


def test_limit_is_piecewise_linear():
    f = SparsePolynomial(1, (((0,), 1.0), ((1,), 1.0)))
    for x in (-2.0, -0.5, 0.0, 0.7, 3.0):
        assert dequantize_limit(f, [x]) == max(0.0, x)
    # a small h gets within h·log(terms) of the limit
    assert dequantize_at(f, 1e-3, [0.7]) == pytest.approx(0.7, abs=1e-2)
    assert dequantize_at(f, 1e-6, [0.7]) == pytest.approx(0.7, abs=1e-5)


@pytest.mark.parametrize("h", [1.0, 0.1, 0.01])
def test_sandwich_bound(h):
    # unit coefficients: max ≤ f̂_h ≤ max + h·log(#terms), with no violations
    for _ in range(20):
        dim = int(RNG.integers(1, 4))
        n = int(RNG.integers(2, 7))
        support = set()
        while len(support) < n:  # 8 choices per axis, so this terminates even in 1-D
            support.add(tuple(int(e) for e in RNG.integers(0, 8, size=dim)))
        f = SparsePolynomial(dim, tuple((a, 1.0) for a in sorted(support)))
        x = RNG.uniform(-3.0, 3.0, size=dim)
        val = dequantize_at(f, h, x)
        lim = dequantize_limit(f, x)
        assert lim <= val + 1e-12 * max(1.0, abs(val))
        assert val <= lim + h * math.log(n) + 1e-12


def test_deformation_decreases_with_h():
    f = SparsePolynomial(2, (((1, 0), 1.0), ((0, 1), 1.0), ((0, 0), 1.0)))
    x = [0.0, 0.0]  # the three-fold tie point, worst case
    lim = dequantize_limit(f, x)
    gaps = [dequantize_at(f, h, x) - lim for h in (1.0, 0.1, 0.01)]
    assert gaps[0] == pytest.approx(math.log(3.0), rel=1e-12)
    assert gaps[1] == pytest.approx(0.1 * math.log(3.0), rel=1e-9)
    assert gaps[0] > gaps[1] > gaps[2] > 0.0


def test_transform_matches_unfactored_formula():
    # independent route: h·log|f(e^{x/h})| evaluated without exponent factoring
    f = random_support_poly(2, 5, max_deg=3, positive=False)
    h = 0.5
    for _ in range(10):
        x = RNG.uniform(-1.5, 1.5, size=2)
        z = tuple(complex(math.exp(c / h)) for c in x)
        direct = h * math.log(abs(poly_evaluate(f, z)))
        assert dequantize_at(f, h, x) == pytest.approx(direct, rel=1e-11)


# ---------------------------------------------------------------------------
# Newton polytopes
# ---------------------------------------------------------------------------

def test_newton_interval():
    f = SparsePolynomial(1, (((0,), 1.0), ((1,), 1.0)))
    assert newton_polytope(f) == Polytope(1, [(0,), (1,)])


def test_newton_triangle_drops_interior():
    f = SparsePolynomial(
        2,
        (((0, 0), 1.0), ((2, 0), 1.0), ((0, 2), 1.0), ((1, 1), 0.5), ((1, 0), 3.0)),
    )
    p = newton_polytope(f)
    # (1,1) and (1,0) lie inside/on the hull of the three corners
    assert p == Polytope(2, [(0, 0), (2, 0), (0, 2)])


def test_newton_3d_simplex():
    f = SparsePolynomial(
        3,
        (
            ((0, 0, 0), 1.0),
            ((2, 0, 0), 1.0),
            ((0, 2, 0), 1.0),
            ((0, 0, 2), 1.0),
            ((1, 1, 0), 1.0),  # edge midpoint: not a vertex
        ),
    )
    p = newton_polytope(f)
    assert p == Polytope(3, [(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2)])


def test_newton_rejects_high_dimension():
    f = SparsePolynomial(4, (((0, 0, 0, 0), 1.0), ((1, 0, 0, 0), 1.0)))
    with pytest.raises(ValueError):
        newton_polytope(f)


def test_limit_equals_support_function():
    # the piecewise-linear limit is the support function of the polytope:
    # evaluating max over vertices must agree with max over the raw support
    for _ in range(30):
        f = random_support_poly(2, int(RNG.integers(2, 8)), positive=True)
        verts = [tuple(float(c) for c in v) for v in newton_polytope(f).vertices]
        for _ in range(5):
            x = RNG.uniform(-2.0, 2.0, size=2)
            over_support = dequantize_limit(f, x)
            over_vertices = max(a * x[0] + b * x[1] for a, b in verts)
            assert over_support == pytest.approx(over_vertices, rel=1e-13, abs=1e-13)


# ---------------------------------------------------------------------------
# the polytope "semiring"
# ---------------------------------------------------------------------------

def test_minkowski_interval_doubles():
    seg = Polytope(1, [(0,), (1,)])
    assert minkowski_mul(seg, seg) == Polytope(1, [(0,), (2,)])


def test_minkowski_triangle_times_segment():
    tri = Polytope(2, [(0, 0), (1, 0), (0, 1)])
    seg = Polytope(2, [(0, 0), (2, 0)])
    got = minkowski_mul(tri, seg)
    expect = graham_hull([(0, 0), (1, 0), (0, 1), (2, 0), (3, 0), (2, 1)])
    assert [tuple(map(float, v)) for v in got.vertices] == [
        tuple(map(float, v)) for v in expect
    ]


def test_minkowski_against_graham_oracle():
    for _ in range(25):
        p = convex_hull([tuple(map(int, RNG.integers(0, 7, size=2))) for _ in range(6)], dim=2)
        q = convex_hull([tuple(map(int, RNG.integers(0, 7, size=2))) for _ in range(6)], dim=2)
        got = minkowski_mul(p, q)
        sums = [
            (float(a[0] + b[0]), float(a[1] + b[1]))
            for a in p.vertices
            for b in q.vertices
        ]
        assert [tuple(map(float, v)) for v in got.vertices] == graham_hull(sums)


def test_product_homomorphism():
    # Newton(f·g) = Newton(f) ⊙ Newton(g); positive coefficients rule out
    # cancellation, so no extreme monomial can vanish
    for _ in range(30):
        dim = int(RNG.integers(1, 3))
        f = random_support_poly(dim, int(RNG.integers(2, 6)))
        g = random_support_poly(dim, int(RNG.integers(2, 6)))
        assert newton_polytope(poly_mul(f, g)) == minkowski_mul(
            newton_polytope(f), newton_polytope(g)
        )


def test_sum_homomorphism():
    for _ in range(30):
        dim = int(RNG.integers(1, 3))
        f = random_support_poly(dim, int(RNG.integers(2, 6)))
        g = random_support_poly(dim, int(RNG.integers(2, 6)))
        assert newton_polytope(poly_add(f, g)) == minkowski_add(
            newton_polytope(f), newton_polytope(g)
        )


def test_polytope_semiring_laws():
    def rand_poly():
        pts = [tuple(map(int, RNG.integers(-4, 5, size=2))) for _ in range(4)]
        return convex_hull(pts, dim=2)

    for _ in range(15):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert minkowski_add(a, b) == minkowski_add(b, a)
        assert minkowski_mul(a, b) == minkowski_mul(b, a)
        assert minkowski_add(minkowski_add(a, b), c) == minkowski_add(a, minkowski_add(b, c))
        assert minkowski_mul(minkowski_mul(a, b), c) == minkowski_mul(a, minkowski_mul(b, c))
        assert minkowski_add(a, a) == a  # idempotent
        # ⊙ distributes over ⊕
        lhs = minkowski_mul(a, minkowski_add(b, c))
        rhs = minkowski_add(minkowski_mul(a, b), minkowski_mul(a, c))
        assert lhs == rhs
    origin = Polytope(2, [(0, 0)])
    p = rand_poly()
    assert minkowski_mul(p, origin) == p  # {0} is the unit


def test_polytope_structural_equality():
    # constructors canonicalize, so redundant inputs compare equal
    a = Polytope(2, [(0, 0), (2, 0), (1, 0), (0, 2), (Fraction(1, 2), Fraction(1, 2))])
    b = Polytope(2, [(0, 2), (2, 0), (0, 0)])
    assert a == b
    assert hash(a) == hash(b)
    assert a.translate((1, -1)) == Polytope(2, [(1, -1), (3, -1), (1, 1)])


def test_polytope_dim_mismatch():
    with pytest.raises(ValueError):
        minkowski_mul(Polytope(1, [(0,)]), Polytope(2, [(0, 0)]))


# ---------------------------------------------------------------------------
# subdifferential sampling
# ---------------------------------------------------------------------------

def test_subdifferential_point_and_interval():
    mono = SparsePolynomial(2, (((2, 3), 5.0),))
    assert subdifferential_at_origin(mono) == Polytope(2, [(2, 3)])
    f = SparsePolynomial(1, (((0,), 1.0), ((2,), 1.0)))
    assert subdifferential_at_origin(f) == Polytope(1, [(0,), (2,)])


def test_subdifferential_reconstructs_newton_polytope():
    for _ in range(15):
        f = random_support_poly(2, int(RNG.integers(3, 8)))
        assert subdifferential_at_origin(f) == newton_polytope(f)


def test_subdifferential_3d():
    f = SparsePolynomial(
        3, (((0, 0, 0), 1.0), ((1, 0, 0), 1.0), ((0, 1, 0), 1.0), ((0, 0, 1), 1.0))
    )
    assert subdifferential_at_origin(f) == newton_polytope(f)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_poly_json_round_trip(tmp_path):
    f = SparsePolynomial(2, (((0, 0), 1.5), ((2, 1), -0.75 + 2.0j)))
    assert poly_from_json(poly_to_json(f)) == f
    path = tmp_path / "f.json"
    write_poly_json(f, path)
    assert read_poly_json(path) == f


def test_poly_json_errors(tmp_path):
    with pytest.raises(InputFormatError):
        poly_from_json({"dim": 1})
    with pytest.raises(InputFormatError):
        poly_from_json({"dim": 1, "terms": [{"re": 1.0}]})
    bad = tmp_path / "bad.json"
    bad.write_text('{"dim": 1, "terms": [\n  broken\n]}')
    with pytest.raises(InputFormatError) as err:
        read_poly_json(bad)
    assert err.value.line == 2


def test_polytope_json_round_trip():
    p = Polytope(2, [(0, 0), (Fraction(1, 3), 1), (2, 0)])
    obj = polytope_to_json(p)
    assert obj["vertices"][1][0] == "1/3"  # fractions survive as strings
    assert polytope_from_json(obj) == p
    q = Polytope(3, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert polytope_from_json(json.loads(json.dumps(polytope_to_json(q)))) == q
