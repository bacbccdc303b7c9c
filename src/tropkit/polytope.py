"""Exact convex polytopes in dimension ≤ 3 with Minkowski operations.

Vertices are tuples of :class:`fractions.Fraction`.  Hulls are taken in 3-D
(lower dimensions padded with zeros) on the points scaled to integers, by
integer orientation tests, so degenerate inputs (collinear, coplanar,
repeated points) need no epsilons; each facet is read off its plane as a 2-D
hull.  A polytope is stored canonically as its lexicographically sorted
irredundant vertex list, which makes structural equality equality of the
dataclass fields.

Polytopes form an idempotent semiring: ⊕ is the convex hull of the union,
⊙ is the Minkowski sum, with the origin as the ⊙-unit.  Both operations are
implemented on vertex lists followed by a hull pass.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

__all__ = [
    "Polytope",
    "convex_hull",
    "minkowski_mul",
    "minkowski_add",
    "polytope_to_json",
    "polytope_from_json",
]


def _to_fraction_point(p, dim: int) -> tuple[Fraction, ...]:
    q = tuple(Fraction(c) for c in p)
    if len(q) != dim:
        raise ValueError(f"point {p!r} does not have dimension {dim}")
    return q


# -- hull machinery ---------------------------------------------------------

def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _hull_2d(pts):
    """Monotone-chain hull; collinear boundary points are dropped."""
    pts = sorted(pts)
    if len(pts) <= 2:
        return pts
    lower: list = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def _plane(a, b, c):
    """Integer normal ``(b − a) × (c − a)`` and offset of the plane through a, b, c."""
    u0, u1, u2 = b[0] - a[0], b[1] - a[1], b[2] - a[2]
    v0, v1, v2 = c[0] - a[0], c[1] - a[1], c[2] - a[2]
    n = (u1 * v2 - u2 * v1, u2 * v0 - u0 * v2, u0 * v1 - u1 * v0)
    return n, n[0] * a[0] + n[1] * a[1] + n[2] * a[2]


def _dot(n, q):
    return n[0] * q[0] + n[1] * q[1] + n[2] * q[2]


def _planar_hull(pts, idx, normal):
    """Indices of the 2-D hull of the points ``idx``, which lie on a plane with ``normal``."""
    k = max(range(3), key=lambda j: abs(normal[j]))  # dropping it projects injectively
    flat = [tuple(c for j, c in enumerate(pts[i]) if j != k) + (i,) for i in idx]
    return [q[2] for q in _hull_2d(flat)]


def _hull_3d(pts):
    """Exact vertices and facets of a sorted list of distinct 3-D points.

    The points, scaled to integers, go into an incremental hull with
    Quickhull's outside sets (Barber, Dobkin & Huhdanpaa, 1996): q is beyond
    a triangle with normal n and offset c iff n·q > c.  Each plane's 2-D hull
    of triangle corners is a facet ``(normal, offset, ring)``: a primitive
    outer normal, ``normal·x ≤ offset`` on the hull, and the ring in cyclic
    order.  Returns ``(vertices, facets)``; a flat set has no facets.
    ``amoeba.tropical_variety`` reads a tropical curve off these facets.
    """
    if len(pts) <= 2:
        return pts, []
    scale = lcm(*(c.denominator for p in pts for c in p))
    P = [tuple(c.numerator * (scale // c.denominator) for c in p) for p in pts]
    # the sorted ends are extreme; points far off their line and plane follow
    a, b = 0, len(P) - 1
    c = max(range(len(P)), key=lambda i: max(map(abs, _plane(P[a], P[b], P[i])[0])))
    n, off = _plane(P[a], P[b], P[c])
    if n == (0, 0, 0):
        return [pts[a], pts[b]], []
    d = max(range(len(P)), key=lambda i: abs(_dot(n, P[i]) - off))
    if _dot(n, P[d]) == off:
        return [pts[i] for i in _planar_hull(P, range(len(P)), n)], []

    faces = {}  # oriented triangle -> (normal, offset, the points beyond it)
    edges = {}  # directed edge -> the triangle it bounds
    stack = []  # triangles that may have points beyond them

    def add_face(tri, cand):
        """Add ``tri``, give it the points of ``cand`` beyond it, return the rest."""
        n, off = _plane(*(P[i] for i in tri))
        beyond, rest = [], []
        for i in cand:
            (beyond if _dot(n, P[i]) > off else rest).append(i)
        faces[tri] = (n, off, beyond)
        x, y, z = tri
        edges[x, y] = edges[y, z] = edges[z, x] = tri
        stack.append(tri)
        return rest

    cand = [i for i in range(len(P)) if i not in (a, b, c, d)]
    for x, y, z, w in ((a, b, c, d), (a, b, d, c), (a, c, d, b), (b, c, d, a)):
        n, off = _plane(P[x], P[y], P[z])
        cand = add_face((x, y, z) if _dot(n, P[w]) < off else (x, z, y), cand)
    while stack:
        tri = stack.pop()
        if tri not in faces or not faces[tri][2]:
            continue
        n, _, beyond = faces[tri]
        apex = max(beyond, key=lambda i: _dot(n, P[i]))
        visible, todo, horizon = {tri}, [tri], []
        while todo:
            x, y, z = todo.pop()
            for e in ((x, y), (y, z), (z, x)):
                other = edges[e[1], e[0]]
                if other in visible:
                    continue
                if _dot(faces[other][0], P[apex]) > faces[other][1]:
                    visible.add(other)
                    todo.append(other)
                else:
                    horizon.append(e)
        cand = []
        for x, y, z in visible:
            cand += faces.pop((x, y, z))[2]
            del edges[x, y], edges[y, z], edges[z, x]
        for x, y in horizon:
            cand = add_face((x, y, apex), cand)

    planes = {}
    for tri, (n, off, _) in faces.items():
        g = gcd(*n)
        planes.setdefault((n[0] // g, n[1] // g, n[2] // g, off // g), set()).update(tri)
    verts, facets = set(), []
    for (*normal, off), idx in planes.items():
        ring = [pts[i] for i in _planar_hull(P, idx, normal)]
        verts.update(ring)
        facets.append((tuple(normal), Fraction(off, scale), ring))
    return sorted(verts), facets


@dataclass(frozen=True)
class Polytope:
    """A convex polytope given by its canonical (sorted, irredundant) vertices.

    The constructor accepts any finite point set with int/Fraction
    coordinates and reduces it to the extreme points, so two polytopes are
    equal iff their dataclass fields are.
    """

    dim: int
    vertices: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        dim = int(self.dim)
        # a 1- or 2-D set is hulled in 3-D with zero coordinates
        pts = sorted({_to_fraction_point(p, dim) + (0,) * (3 - dim) for p in self.vertices})
        if not pts:
            raise ValueError("a polytope needs at least one point")
        if not 1 <= dim <= 3:
            raise ValueError("exact hulls are implemented for dimensions 1 to 3")
        verts = tuple(sorted(v[:dim] for v in _hull_3d(pts)[0]))
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "vertices", verts)

    def translate(self, offset) -> "Polytope":
        off = _to_fraction_point(offset, self.dim)
        return Polytope(self.dim, [tuple(c + o for c, o in zip(v, off)) for v in self.vertices])

    def __repr__(self):
        return f"Polytope(dim={self.dim}, vertices={[tuple(map(str, v)) for v in self.vertices]})"


def convex_hull(points, dim: int | None = None) -> Polytope:
    """Convex hull of a finite point set (coordinates int or Fraction)."""
    pts = list(points)
    if not pts:
        raise ValueError("cannot take the hull of an empty set")
    if dim is None:
        dim = len(pts[0])
    return Polytope(dim, pts)


def minkowski_mul(p: Polytope, q: Polytope) -> Polytope:
    """Minkowski sum P + Q (the ⊙ of the polytope semiring)."""
    if p.dim != q.dim:
        raise ValueError("Minkowski sum needs matching dimensions")
    sums = [tuple(x + y for x, y in zip(a, b)) for a in p.vertices for b in q.vertices]
    return Polytope(p.dim, sums)


def minkowski_add(p: Polytope, q: Polytope) -> Polytope:
    """Convex hull of the union, conv(P ∪ Q) (the ⊕ of the polytope semiring)."""
    if p.dim != q.dim:
        raise ValueError("hull-of-union needs matching dimensions")
    return Polytope(p.dim, list(p.vertices) + list(q.vertices))


# -- serialization ----------------------------------------------------------

def _coord_to_json(c: Fraction):
    return int(c) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def polytope_to_json(p: Polytope) -> dict:
    """JSON-ready dict: integer coordinates as ints, others as "num/den"."""
    return {
        "dim": p.dim,
        "vertices": [[_coord_to_json(c) for c in v] for v in p.vertices],
    }


def polytope_from_json(obj: dict) -> Polytope:
    try:
        dim = int(obj["dim"])
        verts = [[Fraction(str(c)) for c in v] for v in obj["vertices"]]
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed polytope JSON: {exc}") from None
    return Polytope(dim, verts)
