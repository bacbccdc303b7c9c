"""Amoebas of plane curves and their tropical limits.

The amoeba of a polynomial ``f`` on (C*)² is the image of its zero set under
``Log_h(z) = (h·log|z₁|, h·log|z₂|)``.  It is sampled fiberwise: fixing
``x₁`` (hence ``|z₁| = exp(x₁/h)``) and sweeping the phase of ``z₁``, the
roots of the resulting univariate polynomials in ``z₂`` are computed for
every phase of every fiber of a direction at once: the slice polynomials are
stacked across fibers, one companion-matrix eigensolve per group of rows
that ``np.roots`` would strip alike (the matrices it would build, one per
phase and fiber) plus a vectorized Newton polish, and each root contributes
the point ``(x₁, h·log|z₂|)``.  The fibers are taken in chunks whose
companion matrices stay within one ``_BLOCK_ELEMENTS`` block of doubles, and
each chunk becomes points before the next is solved.  Slicing is done in
both coordinate directions so that tentacles of every orientation are
resolved.

The tropical counterpart is the corner locus of ``max_a (v_a + ⟨a, x⟩)``: a
planar piecewise-linear set of vertices, edges and rays, read exactly off the
upper facets of the lifted Newton polygon (the regular subdivision it is dual
to).  Deforming coefficients by ``c ↦ (c/|c|)·|c|^{1/h}`` makes the
``Log_h``-amoeba of the deformed polynomial collapse onto that corner locus as
``h → 0``; the distance between the two is measured in the Hausdorff metric
after clipping both to a viewing window.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.spatial import cKDTree

from .dequantize import SparsePolynomial
from .errors import ScaleRangeError
from .polytope import _hull_3d
from .semiring import _BLOCK_ELEMENTS, _check_h

__all__ = [
    "Window",
    "TropicalPolynomial",
    "PlanarPLSet",
    "AmoebaSample",
    "tropical_data",
    "deform_polynomial",
    "slice_roots",
    "amoeba_slice",
    "sample_amoeba",
    "tropical_variety",
    "hausdorff_distance",
    "convergence_study",
]

_RESIDUAL_TOL = 1e-9
_EXP_GUARD = 700.0  # beyond this, exp overflows double range
_PROBES_PER_DIAGONAL = 2000  # hausdorff_distance probes a segment at diagonal / this


@dataclass(frozen=True)
class Window:
    """An axis-aligned viewing rectangle ``[xmin, xmax] × [ymin, ymax]``
    with finite bounds."""

    xmin: float
    xmax: float
    ymin: float
    ymax: float

    def __post_init__(self):
        for name in ("xmin", "xmax", "ymin", "ymax"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if not (self.xmax > self.xmin and self.ymax > self.ymin):
            raise ValueError("window must have positive width and height")
        if not all(map(math.isfinite, (self.xmin, self.xmax, self.ymin, self.ymax))):
            raise ValueError("window bounds must be finite")

    @classmethod
    def parse(cls, text: str) -> "Window":
        parts = [p for p in text.replace(",", " ").split() if p]
        if len(parts) != 4:
            raise ValueError("window must be 'xmin,xmax,ymin,ymax'")
        return cls(*(float(p) for p in parts))

    @property
    def diagonal(self) -> float:
        return math.hypot(self.xmax - self.xmin, self.ymax - self.ymin)

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Boolean mask of points inside the closed rectangle."""
        p = np.asarray(points, dtype=float).reshape(-1, 2)
        return (
            (p[:, 0] >= self.xmin)
            & (p[:, 0] <= self.xmax)
            & (p[:, 1] >= self.ymin)
            & (p[:, 1] <= self.ymax)
        )


@dataclass(frozen=True)
class TropicalPolynomial:
    """``max_a (v_a + ⟨a, x⟩)`` given by distinct integer exponents and floats."""

    dim: int
    terms: tuple[tuple[tuple[int, ...], float], ...]

    def __post_init__(self):
        dim = int(self.dim)
        if dim < 1:
            raise ValueError("tropical polynomial dimension must be at least 1")
        seen = {}
        for exps, v in self.terms:
            key = tuple(int(e) for e in exps)
            if len(key) != dim:
                raise ValueError(f"exponent {exps!r} does not have {dim} entries")
            val = float(v)
            if not math.isfinite(val):
                raise ValueError("tropical coefficients must be finite")
            if key in seen:
                raise ValueError(f"duplicate exponent {key!r}")
            seen[key] = val
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "terms", tuple(sorted(seen.items())))
        if not self.terms:
            raise ValueError("need at least one term")

    def evaluate(self, x) -> float:
        xv = np.asarray(x, dtype=float)
        return max(v + float(np.dot(e, xv)) for e, v in self.terms)


def tropical_data(f: SparsePolynomial) -> TropicalPolynomial:
    """Valuation data of a complex polynomial: ``v_a = log|c_a|``."""
    return TropicalPolynomial(
        f.dim, tuple((e, math.log(abs(c))) for e, c in f.terms)
    )


def deform_polynomial(f: SparsePolynomial, h: float) -> SparsePolynomial:
    """Rescale moduli ``c ↦ (c/|c|)·|c|^{1/h}``; at h = 1 this is the identity.

    The deformation matches ``Log_h`` in the sense that the valuation of the
    deformed coefficient seen at scale h, ``h·log|c|^{1/h} = log|c|``, is
    h-independent.

    Raises
    ------
    ScaleRangeError
        If some ``|c|^{1/h}`` overflows or underflows double range.
    """
    h = _check_h(h)
    if h == 1.0:
        return f
    terms = []
    for e, c in f.terms:
        mag = abs(c)
        try:
            scaled = mag ** (1.0 / h)
        except OverflowError:
            scaled = math.inf
        if not 0.0 < scaled < math.inf:
            raise ScaleRangeError(
                f"coefficient {c:g} of exponent {e} leaves double range at h={h:g}: "
                f"|c|^(1/h) = exp({math.log(mag) / h:.4g})"
            )
        terms.append((e, (c / mag) * scaled))
    return SparsePolynomial(f.dim, tuple(terms))


# -- fiberwise root sampling -------------------------------------------------

def _fibre_roots(f: SparsePolynomial, h: float, x1s, angle_samples: int):
    """Roots in ``z₂`` over the circles ``|z₁| = exp(x₁/h)``, ``x₁`` in ``x1s``.

    The one fibre kernel, a generator over consecutive chunks of fibres.
    Each chunk yields ``(fibres, thetas, roots, residuals, degenerate)``: per
    nonzero root with a finite normalized residual ``|f(z)| / Σ_a |c_a z^a|``,
    ordered by fibre, then phase, then eigenvalue, the index of its fibre in
    ``x1s``, its phase and its residual; and the chunk's count of phases
    whose slice polynomial vanishes identically, which are skipped and
    warned about once per fibre.  A chunk holds at most ``_BLOCK_ELEMENTS``
    doubles of companion matrices (one fibre when a fibre alone is larger),
    and is solved and freed before the next one is built; a root does not
    depend on the chunking.  A fibre whose ``|z₁|^deg`` overflows raises
    ``ValueError`` once the fibres before it are yielded.
    """
    if f.dim != 2:
        raise ValueError("amoeba slicing expects a bivariate polynomial")
    h = _check_h(h)
    if angle_samples < 1:
        raise ValueError("need at least one phase sample")
    exps = np.array(f.support, dtype=int)
    coeffs = f.coefficient_array()
    x1s = [float(x1) for x1 in x1s]
    reach = np.max(np.abs(exps[:, 0]))
    stop = next((s for s, x1 in enumerate(x1s) if reach * abs(x1) / h > _EXP_GUARD), len(x1s))
    thetas = 2.0 * np.pi * np.arange(angle_samples) / angle_samples
    step = max(1, _BLOCK_ELEMENTS // (2 * angle_samples * (int(exps[:, 1].max()) + 1) ** 2))
    for start in range(0, stop, step):
        xs = x1s[start : min(start + step, stop)]
        fibres, phases, roots, residuals, dead = _solve_fibres(exps, coeffs, h, xs, thetas)
        for x1, degenerate in zip(xs, dead.tolist()):
            if degenerate:
                warnings.warn(
                    f"slice x1={x1:g}: {degenerate} phase(s) gave an identically zero "
                    "polynomial; skipped",
                    stacklevel=2,  # the loop drawing the chunks
                )
        yield start + fibres, thetas[phases], roots, residuals, int(dead.sum())
    if stop < len(x1s):
        raise ValueError("slice coordinate too large: |z1|^deg overflows")


def _solve_fibres(exps, coeffs, h, xs, thetas):
    """One chunk of :func:`_fibre_roots`: its roots by fibre and phase index,
    their residuals, and each fibre's count of identically zero phases.

    The slice polynomials of every phase of every fibre are stacked as rows;
    rows that ``np.roots`` would strip alike share one companion eigensolve,
    built as ``np.roots`` builds it, and the Newton polish and the residuals
    run over all roots at once.
    """
    deg2 = int(exps[:, 1].max())
    # slice coefficients: C[s, t, a2] = Σ_{(a1, a2)} c · exp(a1·x1_s/h) · e^{i a1 θ_t}
    cmat = np.zeros((len(xs), thetas.size, deg2 + 1), dtype=complex)
    for (a1, a2), c in zip(exps, coeffs):
        scaled = np.array([c * math.exp(a1 * x1 / h) for x1 in xs])
        cmat[:, :, a2] += scaled[:, None] * np.exp(1j * a1 * thetas)

    # one row per (fibre, phase), highest degree first, as np.roots and np.polyval take it
    desc = cmat.reshape(-1, deg2 + 1)[:, ::-1]
    deriv = desc[:, :-1] * np.arange(deg2, 0, -1)
    nonzero = desc != 0
    live = nonzero.any(axis=1)
    first = np.argmax(nonzero, axis=1)
    last = deg2 - np.argmax(nonzero[:, ::-1], axis=1)
    # np.roots strips zero coefficients at both ends; rows stripped alike share
    # one eigensolve, and the trailing zeros it strips are zero roots, dropped
    spans = set(zip(first[live].tolist(), last[live].tolist()))
    rows, roots = [np.empty(0, dtype=int)], [np.empty(0, dtype=complex)]
    for lo, hi in spans:
        if hi == lo:
            continue
        grp = np.flatnonzero(live & (first == lo) & (last == hi))
        comp = np.zeros((grp.size, hi - lo, hi - lo), dtype=complex)
        comp[:, 1:, :-1] = np.eye(hi - lo - 1)
        comp[:, 0, :] = -desc[grp, lo + 1 : hi + 1] / desc[grp, lo, None]
        r = np.linalg.eigvals(comp)
        del comp  # the largest temporary: free it before the next group's
        keep = r != 0
        for _ in range(2):  # Newton polish against the full slice polynomial
            pv = _horner(desc[grp], r)
            dv = _horner(deriv[grp], r)
            ok = dv != 0
            r = np.where(ok, r - np.where(ok, pv, 0) / np.where(ok, dv, 1), r)
        keep &= r != 0
        rows.append(np.broadcast_to(grp[:, None], r.shape)[keep])
        roots.append(r[keep])
    rows = np.concatenate(rows)
    order = np.argsort(rows, kind="stable")  # fibre- and phase-major, eigenvalue order within
    rows, roots = rows[order], np.concatenate(roots)[order]

    moduli = np.array([math.exp(x1 / h) for x1 in xs])
    z1 = (moduli[:, None] * np.exp(1j * thetas)).reshape(-1)[rows]
    vals = np.zeros(roots.shape, dtype=complex)
    scale = np.zeros(roots.shape, dtype=float)
    for (a1, a2), c in zip(exps, coeffs):
        term = c * z1**a1 * roots**a2
        vals += term
        scale += np.abs(term)
    with np.errstate(invalid="ignore", divide="ignore"):
        res = np.abs(vals) / scale
    finite = np.isfinite(res)
    fibres, phases = np.divmod(rows[finite], thetas.size)
    dead = thetas.size - live.reshape(len(xs), thetas.size).sum(axis=1)
    return fibres, phases, roots[finite], res[finite], dead


def slice_roots(f: SparsePolynomial, h: float, x1: float, angle_samples: int):
    """Roots in ``z₂`` over the circle ``|z₁| = exp(x₁/h)``.

    Returns ``(thetas, roots, residuals)``: for each phase sample and each
    nonzero root, phase-major and in eigenvalue order, the normalized
    residual ``|f(z)| / Σ_a |c_a z^a|``.  This is the fibre kernel that
    :func:`sample_amoeba` runs over every fibre of a direction, called with
    this one fibre, so its phases share stacked companion eigensolves and
    one Newton polish.  Phases where the slice polynomial vanishes
    identically are flagged with a warning and skipped.
    """
    ((_, thetas, roots, residuals, _),) = _fibre_roots(f, h, [x1], angle_samples)
    return thetas, roots, residuals


def _horner(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Row-wise ``np.polyval``: ``coeffs`` is ``(T, D)`` descending, ``z`` is ``(T, k)``."""
    y = np.zeros_like(z)
    for c in coeffs.T:
        y = y * z + c[:, None]
    return y


def amoeba_slice(
    f: SparsePolynomial, h: float, x1: float, angle_samples: int
) -> np.ndarray:
    """Amoeba points ``(x₁, h·log|z₂|)`` on one vertical slice.

    Only roots whose normalized residual is below 1e-9 are emitted, so every
    returned point comes from a genuinely certified zero of ``f``.
    """
    _, roots, residuals = slice_roots(f, h, x1, angle_samples)
    keep = residuals <= _RESIDUAL_TOL
    roots = roots[keep]
    if roots.size == 0:
        return np.empty((0, 2))
    x2 = h * np.log(np.abs(roots))
    return np.stack([np.full(x2.shape, float(x1)), x2], axis=1)


@dataclass
class AmoebaSample:
    """A sampled amoeba: the points inside the window, and root counts.

    ``roots_found`` counts the nonzero roots with a finite residual over all
    fibres, ``roots_kept`` those of them that passed the 1e-9 residual
    filter (before the window clips their points), and ``degenerate_phases``
    the phases skipped because their slice polynomial vanished identically.
    """

    points: np.ndarray
    roots_found: int = 0
    roots_kept: int = 0
    degenerate_phases: int = 0

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float).reshape(-1, 2)
        self.points = pts


def _swap_variables(f: SparsePolynomial) -> SparsePolynomial:
    return SparsePolynomial(2, tuple(((e[1], e[0]), c) for e, c in f.terms))


def sample_amoeba(
    f: SparsePolynomial,
    h: float,
    window: Window,
    slices: int,
    angle_samples: int,
) -> AmoebaSample:
    """Slice the amoeba in both coordinate directions and clip to the window.

    ``slices`` fiber positions per direction; zero slices give an empty
    sample.  Monomials have empty amoebas (every slice is root-free).  Each
    direction is one run of the fibre kernel, whose chunks are turned into
    points as they come; the points are those of :func:`amoeba_slice` on
    each fibre in turn, clipped to the window.
    """
    if slices < 0:
        raise ValueError("slice count must be nonnegative")
    h = _check_h(h)
    collected = []
    found = kept = degenerate = 0
    ranges = ((window.xmin, window.xmax), (window.ymin, window.ymax))
    for swapped in (False, True) if slices > 0 else ():
        (lo, hi), (vlo, vhi) = ranges[::-1] if swapped else ranges
        coords = np.linspace(lo, hi, slices)
        g = _swap_variables(f) if swapped else f
        for fibres, _, roots, residuals, dead in _fibre_roots(g, h, coords, angle_samples):
            good = residuals <= _RESIDUAL_TOL
            values = h * np.log(np.abs(roots[good]))
            inside = (values >= vlo) & (values <= vhi)
            fixed, values = coords[fibres[good][inside]], values[inside]
            collected.append(np.stack((values, fixed) if swapped else (fixed, values), axis=1))
            found += residuals.size
            kept += int(good.sum())
            degenerate += dead
    points = (
        np.concatenate(collected, axis=0) if collected else np.empty((0, 2))
    )
    return AmoebaSample(points, found, kept, degenerate)


# -- the tropical side -------------------------------------------------------

@dataclass
class PlanarPLSet:
    """A planar piecewise-linear set: vertices, edges between them, and rays.

    ``rays`` hold ``(base_vertex_index, primitive_integer_direction)``.
    """

    vertices: list[tuple[float, float]]
    edges: list[tuple[int, int]]
    rays: list[tuple[int, tuple[int, int]]]

    def to_json(self) -> dict:
        return {
            "vertices": [list(v) for v in self.vertices],
            "edges": [list(e) for e in self.edges],
            "rays": [{"base": b, "dir": list(d)} for b, d in self.rays],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "PlanarPLSet":
        return cls(
            [tuple(map(float, v)) for v in obj["vertices"]],
            [tuple(map(int, e)) for e in obj["edges"]],
            [(int(r["base"]), tuple(map(int, r["dir"]))) for r in obj["rays"]],
        )


def tropical_variety(tf: TropicalPolynomial) -> PlanarPLSet:
    """Corner locus of a planar tropical polynomial, read off one exact hull.

    The locus is dual to the regular subdivision of the Newton polygon lifted
    exactly by ``a ↦ (a, v_a)`` (Maclagan & Sturmfels, §3.1), made solid by a
    floor copy ``(a, min v − 1)`` of each term.  Each upper facet (normal n)
    is a vertex ``(n₁/n₃, n₂/n₃)``, rounded once, correctly; an edge it shares
    with an upper facet is a bounded edge, with a vertical one a ray along
    that facet's ``(n₁, n₂)``.  A collinear support ties upper-chain
    neighbours along lines, two opposite rays from the point nearest 0.
    Vertices are listed in exact sorted order.
    """
    if tf.dim != 2:
        raise ValueError("corner locus is implemented for the plane")
    if len(tf.terms) < 2:
        raise ValueError("corner locus needs at least two terms")
    floor = Fraction(min(v for _, v in tf.terms)) - 1
    pts = sorted([(*a, Fraction(v)) for a, v in tf.terms] + [(*a, floor) for a, _ in tf.terms])
    hull, facets = _hull_3d(pts)
    corner = {n: (Fraction(n[0], n[2]), Fraction(n[1], n[2])) for n, _, _ in facets if n[2] > 0}
    ties = {corner[n]: ring for n, _, ring in facets if n in corner}  # vertex -> tied terms
    sides = {}  # undirected ring edge -> the normals of its two facets
    for n, _, ring in facets:
        for p, q in zip(ring, ring[1:] + ring[:1]):
            sides.setdefault(frozenset((p, q)), []).append(n)
    pairs = [sorted(pair, key=lambda n: -n[2]) for pair in sides.values()]
    edges = [(corner[n], corner[m]) for n, m in pairs if m in corner]
    rays = [(corner[n], m[:2]) for n, m in pairs if n in corner and m[2] == 0]
    if not facets:  # a collinear support: tie lines of upper-chain neighbours
        chain = sorted(p for p in hull if p[2] != floor)
        for p, q in zip(chain, chain[1:]):
            d1, d2 = q[0] - p[0], q[1] - p[1]
            t, g = (p[2] - q[2]) / (d1 * d1 + d2 * d2), math.gcd(d1, d2)
            ties[t * d1, t * d2] = [p, q]
            rays += [((t * d1, t * d2), (-s * d2 // g, s * d1 // g)) for s in (1, -1)]
    index = {v: i for i, v in enumerate(sorted(ties))}
    vertices = []
    for x, y in index:
        try:
            vertices.append((float(x), float(y)))
        except OverflowError:
            tied = ", ".join(str(p[:2]) for p in sorted(ties[x, y]))
            raise ScaleRangeError(f"the vertex where terms {tied} tie overflows") from None
    edges = sorted(tuple(sorted((index[u], index[w]))) for u, w in edges)
    return PlanarPLSet(vertices, edges, sorted((index[v], d) for v, d in rays))


# -- Hausdorff distance ------------------------------------------------------

def _clip_parametric(p0, d, t_max, window: Window):
    """Clip ``p0 + t·d`` for ``t ∈ [0, t_max]`` to the window (Liang-Barsky)."""
    t_lo, t_hi = 0.0, t_max
    for coord, lo, hi in ((0, window.xmin, window.xmax), (1, window.ymin, window.ymax)):
        p, delta = p0[coord], d[coord]
        if delta == 0.0:
            if p < lo or p > hi:
                return None
        else:
            ta, tb = (lo - p) / delta, (hi - p) / delta
            if ta > tb:
                ta, tb = tb, ta
            t_lo, t_hi = max(t_lo, ta), min(t_hi, tb)
            if t_lo > t_hi:
                return None
    if not math.isfinite(t_hi):
        return None
    return p0 + t_lo * d, p0 + t_hi * d


def _clipped_primitives(pl: PlanarPLSet, window: Window):
    """Clip a PL set to the window, returning a list of (a, b) segments."""
    segs = []
    verts = [np.asarray(v, dtype=float) for v in pl.vertices]
    for i, j in pl.edges:
        d = verts[j] - verts[i]
        clipped = _clip_parametric(verts[i], d, 1.0, window)
        if clipped is not None:
            segs.append(clipped)
    for base, direction in pl.rays:
        d = np.asarray(direction, dtype=float)
        clipped = _clip_parametric(verts[base], d, math.inf, window)
        if clipped is not None:
            segs.append(clipped)
    # isolated vertices still count as zero-length segments
    if not pl.edges and not pl.rays:
        for v in verts:
            if window.contains(v.reshape(1, 2))[0]:
                segs.append((v, v))
    return segs


def _points_to_segment(points: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    ab = b - a
    denom = float(ab @ ab)
    if denom == 0.0:
        return np.linalg.norm(points - a, axis=1)
    t = np.clip((points - a) @ ab / denom, 0.0, 1.0)
    proj = a + t[:, None] * ab
    return np.linalg.norm(points - proj, axis=1)


def hausdorff_distance(sample, target, window: Window) -> float:
    """Symmetric Hausdorff distance of two planar sets clipped to a window.

    ``sample`` is an :class:`AmoebaSample` or an ``(k, 2)`` point array;
    ``target`` is a :class:`PlanarPLSet` or a point array.  Point-to-segment
    distances are exact; the segment-to-points direction discretizes each
    clipped segment at a pitch of the window diagonal / 2000.

    Raises
    ------
    ValueError
        If either set is empty after clipping.
    """
    pts = sample.points if isinstance(sample, AmoebaSample) else np.asarray(sample, float)
    pts = pts.reshape(-1, 2)
    pts = pts[window.contains(pts)]
    if pts.shape[0] == 0:
        raise ValueError("sample is empty after clipping to the window")
    pitch = window.diagonal / _PROBES_PER_DIAGONAL

    if isinstance(target, PlanarPLSet):
        segs = _clipped_primitives(target, window)
        if not segs:
            raise ValueError("target set is empty after clipping to the window")
        dist_to_target = np.full(pts.shape[0], math.inf)
        probe_chunks = []
        for a, b in segs:
            np.minimum(dist_to_target, _points_to_segment(pts, a, b), out=dist_to_target)
            length = float(np.linalg.norm(b - a))
            n = max(2, int(math.ceil(length / pitch)) + 1)
            ts = np.linspace(0.0, 1.0, n)
            probe_chunks.append(a[None, :] + ts[:, None] * (b - a)[None, :])
        probes = np.concatenate(probe_chunks, axis=0)
    else:
        probes = np.asarray(target, dtype=float).reshape(-1, 2)
        probes = probes[window.contains(probes)]
        if probes.shape[0] == 0:
            raise ValueError("target is empty after clipping to the window")
        dist_to_target, _ = cKDTree(probes).query(pts)
    dist_to_sample, _ = cKDTree(pts).query(probes)
    return float(max(dist_to_target.max(), dist_to_sample.max()))


def convergence_study(
    f: SparsePolynomial,
    h_values,
    window: Window,
    slices: int = 200,
    angle_samples: int = 64,
) -> list[tuple[float, float]]:
    """Hausdorff distance of the deformed amoeba to the tropical limit per h.

    For each h the coefficients are deformed, the amoeba of the deformed
    polynomial is sampled under ``Log_h``, and its distance to the corner
    locus of the valuation data of ``f`` is measured inside the window.
    Returns ``[(h, distance), ...]`` in the order given.
    """
    spine = tropical_variety(tropical_data(f))
    rows = []
    for h in h_values:
        fh = deform_polynomial(f, float(h))
        sample = sample_amoeba(fh, float(h), window, slices, angle_samples)
        rows.append((float(h), hausdorff_distance(sample, spine, window)))
    return rows
