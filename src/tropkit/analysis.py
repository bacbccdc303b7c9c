"""Idempotent analysis on uniform grids.

Functions on a box are sampled on a uniform tensor grid and carry their
semiring: max-plus, min-plus or subtropical(h).  The classical integral is
replaced by the ⊕-reduction: for max-plus, ``∫^⊕ φ = sup_x φ(x)``; this makes
an idempotent measure out of ``B ↦ sup_B φ`` and a scalar product out of
``⟨φ, ψ⟩ = sup_x (φ(x) + ψ(x))``.  On top of the integral sit the kernel
operator ``(Kφ)(x) = ⊕_y K(x, y) ⊙ φ(y)``, the sup-convolution
``(φ ⊛ ψ)(g) = sup_{x} (φ(x) + ψ(g − x))`` on the Minkowski sum of the two
boxes, and the Legendre-type transform in both sign conventions.

Grid-induced error: a piecewise evaluation of a supremum misses the true
maximizer by at most half a grid step, so results agree with closed forms to
``L·σ`` for an ``L``-Lipschitz integrand on spacing ``σ``.
:func:`grid_tolerance` packages that bound with ``L = 10``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputFormatError, _reading
from .semiring import _BLOCK_ELEMENTS, Semiring, _common_spec, maxplus

__all__ = [
    "GridDomain",
    "GridFunction",
    "grid_tolerance",
    "idempotent_integral",
    "measure_integral",
    "kernel_apply",
    "sup_convolution",
    "legendre_transform",
    "negate_convention",
    "read_grid_csv",
    "write_grid_csv",
    "grid_csv_text",
]


def _as_floats(x) -> tuple[float, ...]:
    return tuple(float(v) for v in np.atleast_1d(np.asarray(x, dtype=float)))


@dataclass(frozen=True)
class GridDomain:
    """A box ``[lower_i, upper_i]`` sampled by the same point count per axis."""

    lower: tuple[float, ...]
    upper: tuple[float, ...]
    points_per_axis: int

    def __post_init__(self):
        object.__setattr__(self, "lower", _as_floats(self.lower))
        object.__setattr__(self, "upper", _as_floats(self.upper))
        object.__setattr__(self, "points_per_axis", int(self.points_per_axis))
        if len(self.lower) != len(self.upper):
            raise ValueError("lower and upper bounds differ in dimension")
        if not self.lower:
            raise ValueError("domain needs at least one axis")
        if self.points_per_axis < 2:
            raise ValueError("need at least two points per axis")
        for lo, hi in zip(self.lower, self.upper):
            if not (np.isfinite(lo) and np.isfinite(hi) and hi > lo):
                raise ValueError(f"invalid axis bounds [{lo}, {hi}]")

    @property
    def dim(self) -> int:
        return len(self.lower)

    @property
    def spacing(self) -> tuple[float, ...]:
        p = self.points_per_axis
        return tuple((hi - lo) / (p - 1) for lo, hi in zip(self.lower, self.upper))

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.points_per_axis,) * self.dim

    def axes(self) -> list[np.ndarray]:
        """Per-axis coordinate vectors."""
        p = self.points_per_axis
        return [np.linspace(lo, hi, p) for lo, hi in zip(self.lower, self.upper)]

    def grids(self) -> list[np.ndarray]:
        """Full coordinate arrays (``meshgrid`` with matrix indexing)."""
        return list(np.meshgrid(*self.axes(), indexing="ij"))

    def flat_points(self) -> np.ndarray:
        """All grid points as an ``(N, dim)`` array in row-major order."""
        return np.stack([g.ravel() for g in self.grids()], axis=1)

    @staticmethod
    def product(a: "GridDomain", b: "GridDomain") -> "GridDomain":
        """The product box A × B (point counts must agree)."""
        if a.points_per_axis != b.points_per_axis:
            raise ValueError("product domain needs matching point counts")
        return GridDomain(a.lower + b.lower, a.upper + b.upper, a.points_per_axis)


class GridFunction:
    """A function sampled on a :class:`GridDomain` with a semiring attached.

    Values are a read-only float array of shape ``(p,)*dim``; the carrier of
    the semiring is enforced, so a max-plus or subtropical function may take
    the value -inf ("undefined there") but never +inf or NaN.
    """

    __slots__ = ("domain", "values", "spec")

    def __init__(self, domain: GridDomain, values, spec: Semiring):
        arr = np.array(values, dtype=float)
        if arr.shape != domain.shape:
            if arr.size == np.prod(domain.shape):
                arr = arr.reshape(domain.shape)
            else:
                raise ValueError(
                    f"value shape {arr.shape} does not match grid {domain.shape}"
                )
        spec.validate(arr)
        arr.setflags(write=False)
        self.domain = domain
        self.values = arr
        self.spec = spec

    @classmethod
    def sample(cls, fn, domain: GridDomain, spec: Semiring) -> "GridFunction":
        """Sample a vectorized callable ``fn(*coords)`` on the grid."""
        vals = np.asarray(fn(*domain.grids()), dtype=float)
        return cls(domain, np.broadcast_to(vals, domain.shape), spec)

    @classmethod
    def constant(cls, value: float, domain: GridDomain, spec: Semiring) -> "GridFunction":
        return cls(domain, np.full(domain.shape, float(value)), spec)

    # conveniences delegated to the domain
    @property
    def dim(self) -> int:
        return self.domain.dim

    @property
    def spacing(self) -> tuple[float, ...]:
        return self.domain.spacing

    def with_values(self, values) -> "GridFunction":
        """Same grid and semiring, new values."""
        return GridFunction(self.domain, values, self.spec)

    def __repr__(self):
        return (
            f"GridFunction(dim={self.dim}, p={self.domain.points_per_axis}, "
            f"{self.spec!r})"
        )


def grid_tolerance(domain: GridDomain) -> float:
    """The sup-norm error budget ``L·σ`` for grid-evaluated suprema, with the
    Lipschitz constant fixed at ``L = 10``."""
    return 10.0 * max(domain.spacing)


def idempotent_integral(phi: GridFunction) -> float:
    """⊕-integral over the whole box: sup (max-plus) or inf (min-plus)."""
    return float(phi.spec.reduce(phi.values))


def measure_integral(phi: GridFunction, psi: GridFunction) -> float:
    """∫^⊕ φ ⊙ dψ = ⊕_x (φ(x) ⊙ ψ(x)) against the density ψ.

    This is the idempotent scalar product ⟨φ, ψ⟩.
    """
    spec = _common_spec(phi, psi)
    if phi.domain != psi.domain:
        raise ValueError("operands are sampled on different grids")
    return float(spec.reduce(spec.mul(phi.values, psi.values)))


def kernel_apply(kernel: GridFunction, phi: GridFunction) -> GridFunction:
    """Apply an integral operator ``(Kφ)(x) = ⊕_y K(x, y) ⊙ φ(y)``.

    The kernel is a grid function on a product box X × Y whose trailing axes
    match φ's grid exactly (bounds and point count); the result lives on X.
    Flattened to a (|X|, |Y|) matrix, the kernel contracts φ's flattened
    values by :meth:`Semiring.contract`, so the only temporary beyond the
    kernel itself is one block of stacked sums.
    """
    spec = _common_spec(kernel, phi)
    dy = phi.dim
    dx = kernel.dim - dy
    if dx < 1:
        raise ValueError("kernel must have more axes than its argument")
    kdom, pdom = kernel.domain, phi.domain
    if kdom.points_per_axis != pdom.points_per_axis:
        raise ValueError("kernel and argument point counts disagree")
    if kdom.lower[dx:] != pdom.lower or kdom.upper[dx:] != pdom.upper:
        raise ValueError("kernel's trailing axes do not match the argument grid")
    xdom = GridDomain(kdom.lower[:dx], kdom.upper[:dx], kdom.points_per_axis)
    kern = kernel.values.reshape(-1, phi.values.size)
    return GridFunction(xdom, spec.contract(kern, phi.values.ravel()).reshape(xdom.shape), spec)


def negate_convention(phi: GridFunction) -> GridFunction:
    """Flip the sign of the values and move to the order dual semiring."""
    return GridFunction(phi.domain, -phi.values, phi.spec.dual)


def sup_convolution(phi: GridFunction, psi: GridFunction) -> GridFunction:
    """Idempotent convolution ``(φ ⊛ ψ)(g) = ⊕_x φ(x) ⊙ ψ(g − x)``.

    Both operands must share spacing, dimension (1 or 2) and semiring.  The
    result lives on the Minkowski sum of the two boxes with point count
    ``q = p_φ + p_ψ − 1``; argument indices add exactly, so no interpolation
    is involved.  Over min-plus this is the inf-convolution.

    The kernel views φ as an (m, p_φ) array, m = 1 in 1-D, and ψᵀ as a
    contiguous (p_ψ, n) array, n = 1 in 1-D.  It takes the rows x₁ of φ one
    at a time and keeps a partial c of shape (q, n).  For each x₂ with
    φ(x₁, x₂) above bottom it forms ``φ(x₁, x₂) ⊙ ψᵀ`` in one contiguous add
    and applies ``c[x₂ : x₂ + p_ψ] ⊕= …`` in place; then it ⊕-folds cᵀ into
    output rows x₁ … x₁ + n − 1.  Both steps run on contiguous operands and
    a scalar, numpy's fastest loops.  A block of k rows at once needs a
    broadcast add and a (q, k, n) partial; with the partial capped at 2¹⁶
    doubles it measured slower at every size tried, so one row is the block.
    Bottom entries of φ add only bottoms and are skipped, so are rows of φ
    that hold nothing else.

    The work is the p_φ^d·p_ψ^d real sums, O(p_φ^d·p_ψ^d): no subquadratic
    exact algorithm is known for a general (max, +) convolution.  Beyond the
    operands and the result it holds ψᵀ, c and one row of sums,
    (q + 2·p_ψ)·n doubles, about the result's size in 2-D.  Each output
    entry takes its terms in the order x₁ ascending, x₂ ascending within x₁,
    the new term always the second operand of the ⊕: that order decides which of +0.0 and −0.0 a tie keeps, and it is the
    order of the plain loop over x, so the result is that loop's to the bit.
    """
    spec = _common_spec(phi, psi)
    if not spec.is_idempotent:
        raise ValueError("sup-convolution needs an idempotent semiring")
    if phi.dim != psi.dim:
        raise ValueError("operands differ in dimension")
    if phi.dim not in (1, 2):
        raise ValueError("convolution is implemented for 1-D and 2-D grids")
    for sa, sb in zip(phi.spacing, psi.spacing):
        if not np.isclose(sa, sb, rtol=1e-9, atol=0.0):
            raise ValueError(f"grid spacing mismatch: {sa} vs {sb}")

    pa, pb = phi.domain.points_per_axis, psi.domain.points_per_axis
    q = pa + pb - 1
    add, zero = spec._add_ufunc, spec.zero
    rows = phi.values.reshape(-1, pa)
    psi_t = psi.values.reshape(-1, pb).T.ravel()  # ψᵀ, flattened
    n = psi_t.size // pb
    out = np.full((rows.shape[0] + n - 1, q), zero)
    c = np.empty(q * n)
    sums = np.empty(pb * n)
    for x1, row in enumerate(rows):
        cols = np.flatnonzero(row != zero)
        if cols.size == 0:
            continue
        c.fill(zero)
        for x2, v in zip(cols.tolist(), row[cols].tolist()):
            np.add(v, psi_t, out=sums)
            window = c[x2 * n : (x2 + pb) * n]
            add(window, sums, out=window)
        target = out[x1 : x1 + n]
        add(target, c.reshape(q, n).T, out=target)
    dom = GridDomain(
        tuple(a + b for a, b in zip(phi.domain.lower, psi.domain.lower)),
        tuple(a + b for a, b in zip(phi.domain.upper, psi.domain.upper)),
        q,
    )
    return GridFunction(dom, out.reshape((q,) * phi.dim), spec)


def _upper_hull(x: np.ndarray, c: np.ndarray):
    """Upper convex hull of ``(x_j, c_j)`` for strictly increasing ``x``.

    Returns the indices of its vertices and the slopes of its edges.  A
    point is kept only where the slope strictly decreases, so the slopes
    decrease strictly and there is one more vertex than slopes.
    """
    verts, slopes = [], []
    xs, cs = x.tolist(), c.tolist()
    for j, (xj, cj) in enumerate(zip(xs, cs)):
        while verts:
            s = (cj - cs[verts[-1]]) / (xj - xs[verts[-1]])
            if not slopes or s < slopes[-1]:
                break
            verts.pop()
            slopes.pop()
        if verts:
            slopes.append(s)
        verts.append(j)
    return np.array(verts), np.array(slopes)


def _sup_affine(x: np.ndarray, c: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """``max_j (ξ·x_j + c_j)`` for every ξ; -inf entries of ``c`` drop out.

    In exact arithmetic the maximiser is the vertex of the finite points'
    upper hull where the edge slopes cross −ξ.  In floats, the rounding of
    ``ξ·x_j`` and of the slopes can let another point win by an ulp where it
    lies within rounding error of the supporting line: a near-tie, such as
    ξ equal to the slope of a collinear run.  ``tol`` is 8 ulps of the
    largest ``|ξ·x| + |c|``, above the rounding of either, and σ the least
    gap between the x_j.  A point inside an edge whose slope is more than
    ``tol/σ`` away from −ξ lies at least σ from that edge's vertices, so it
    falls more than ``tol`` below one of them.  The candidates for ξ are
    therefore the vertex before and the vertex after the run of edges whose
    slopes lie within ``tol/σ`` of −ξ, and the points within ``tol`` below
    the hull on that run; away from slope ties the run is empty and the
    candidates are the optimal vertex and its two neighbours.  They are
    evaluated in blocks of at most ``_BLOCK_ELEMENTS``, which bounds the
    memory where many ξ tie along one long run (a constant φ of magnitude
    10¹⁵, say, whose rounding exceeds every ξ·x_j).
    """
    finite = np.flatnonzero(c != -np.inf)
    if finite.size == 0:
        return np.full(xi.shape, -np.inf)
    x, c = x[finite], c[finite]
    verts, slopes = _upper_hull(x, c)
    tol = 8.0 * np.finfo(float).eps * (np.abs(xi).max() * np.abs(x).max() + np.abs(c).max())
    near = np.flatnonzero(np.interp(x, x[verts], c[verts]) - c <= tol)
    at = np.searchsorted(near, verts)  # each vertex's position among the near points
    band = tol / np.diff(x).min() if x.size > 1 else 0.0
    lo = np.searchsorted(-slopes, xi - band, side="left")
    hi = np.searchsorted(-slopes, xi + band, side="right")
    # per ξ: vertex lo - 1, the near points from vertex lo to vertex hi, vertex hi + 1
    before = verts[np.maximum(lo - 1, 0)]
    after = verts[np.minimum(hi + 1, verts.size - 1)]
    first = at[lo] - 1
    count = at[hi] - at[lo] + 3
    ends = np.cumsum(count)
    out = np.empty(xi.shape)
    a = 0
    while a < xi.size:
        limit = ends[a] - count[a] + _BLOCK_ELEMENTS
        b = max(a + 1, int(np.searchsorted(ends, limit, side="right")))
        n = count[a:b]
        offsets = np.cumsum(n) - n
        pick = np.repeat(first[a:b] - offsets, n)
        pick += np.arange(pick.size)
        pick = near.take(pick, mode="clip")
        pick[offsets] = before[a:b]
        pick[offsets + n - 1] = after[a:b]
        # ⟨ξ, x⟩ as a sum from +0.0, like a dot product: ξ·x = -0.0 becomes +0.0
        values = np.repeat(xi[a:b], n)
        values *= x[pick]
        values += 0.0
        values += c[pick]
        out[a:b] = np.maximum.reduceat(values, offsets)
        a = b
    return out


def legendre_transform(
    phi: GridFunction,
    xi_domain: GridDomain,
    mode: str = "additive",
) -> GridFunction:
    """Legendre-type transform of a max-plus grid function.

    Parameters
    ----------
    phi : GridFunction
        Max-plus function on an x-grid.
    xi_domain : GridDomain
        Grid of dual variables ξ (same dimension as φ's domain).
    mode : str
        ``"additive"`` computes ``⊕_x (⟨ξ, x⟩ ⊙ φ(x)) = sup_x (⟨ξ, x⟩ + φ)``,
        i.e. the transform as an idempotent scalar product with the linear
        kernel.  ``"fenchel"`` computes the classical convex conjugate
        ``sup_x (⟨ξ, x⟩ − φ(x))``; bottom values of φ are treated as "not in
        the effective domain" and excluded from the supremum.

    Returns
    -------
    GridFunction
        Max-plus function on the ξ-grid.

    Notes
    -----
    In 1-D, with ``c = φ`` or ``−φ``, a supremum of the affine functions
    ``ξ x_j + c_j`` over finitely many points is attained at a vertex of the
    upper convex hull of the points ``(x_j, c_j)``: the vertex where the
    hull's decreasing edge slopes cross −ξ.  The transform builds that hull
    once (a monotone chain, O(N)) and finds each ξ's vertex by binary search
    on the slopes (O(M log N)).  It evaluates the expression of the full
    M×N scan, ``ξ·x_j + c_j``, at that vertex and its two neighbours, and,
    where ξ is within rounding of an edge's slope, at the points within
    rounding error of that edge; it keeps the largest, so it gives the
    scan's result without forming the M×N block.  Away from such ties the
    work is O(N + M log N) and the memory O(N + M); the near-tie candidates
    are evaluated in blocks of bounded size.

    Because ``⟨ξ, x⟩ = Σ_i ξ_i x_i``, the sup over a product grid nests, one
    axis at a time: ``sup_{x_d} ξ_d x_d + … + sup_{x_1} (ξ_1 x_1 + c(x))``.
    So in d ≥ 2 the 1-D pass runs along each axis in turn, over every line
    of the grid (one pass per line, never an M^d × N^d block); the float
    additions then happen in another order than in ``⟨ξ, x⟩ + c``, which
    moves results by a few ulps.
    """
    if phi.spec != maxplus():
        raise ValueError("Legendre transform expects a max-plus function")
    if xi_domain.dim != phi.dim:
        raise ValueError("dual grid dimension does not match the function")
    if mode not in ("additive", "fenchel"):
        raise ValueError(f"unknown mode {mode!r}")

    vals = phi.values
    if mode == "additive":
        contrib = vals
    else:
        contrib = np.where(np.isneginf(vals), -np.inf, -vals)
    for axis, (x, xi) in enumerate(zip(phi.domain.axes(), xi_domain.axes())):
        lines = np.moveaxis(contrib, axis, -1)
        out = np.empty(lines.shape[:-1] + xi.shape)
        for idx in np.ndindex(lines.shape[:-1]):
            out[idx] = _sup_affine(x, lines[idx], xi)
        contrib = np.moveaxis(out, -1, axis)
    return GridFunction(xi_domain, contrib, maxplus())


# ---------------------------------------------------------------------------
# CSV serialization
# ---------------------------------------------------------------------------
#
# Format: one header line "dim,lower...,upper...,points_per_axis", then one
# value per line in row-major order.  Finite values are written with repr()
# (shortest round-tripping form), bottoms as "-inf"/"inf".

def grid_csv_text(phi: GridFunction) -> str:
    """The CSV serialization as a string (header line, then one value per line)."""
    dom = phi.domain
    header = ",".join(
        [str(dom.dim)]
        + [repr(v) for v in dom.lower]
        + [repr(v) for v in dom.upper]
        + [str(dom.points_per_axis)]
    )
    body = "\n".join(map(repr, phi.values.ravel().tolist()))
    return f"{header}\n{body}\n"


def write_grid_csv(phi: GridFunction, path) -> None:
    """Write a grid function to CSV; finite values round-trip bit-exactly."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(grid_csv_text(phi))


def read_grid_csv(path, spec: Semiring | None = None) -> GridFunction:
    """Read a grid function from CSV (see :func:`write_grid_csv`).

    The semiring is not part of the format; pass ``spec`` (default max-plus).
    """
    if spec is None:
        spec = maxplus()
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise InputFormatError("empty grid file", path=str(path), line=1)
    head = lines[0].split(",")
    with _reading(path, 1):
        try:
            dim = int(head[0])
            if len(head) != 2 * dim + 2:
                raise ValueError
            lower = [float(t) for t in head[1 : 1 + dim]]
            upper = [float(t) for t in head[1 + dim : 1 + 2 * dim]]
            points = int(head[-1])
        except ValueError:
            raise ValueError("header must be 'dim,lower...,upper...,points_per_axis'") from None
        dom = GridDomain(lower, upper, points)
    expected = points**dim
    tokens = [t.strip() for t in lines[1:]]
    body = [t for t in tokens if t]
    if len(body) != expected:
        raise InputFormatError(
            f"expected {expected} values, found {len(body)}",
            path=str(path),
            line=len(lines),
        )
    try:
        values = np.fromiter(map(float, body), dtype=float, count=expected)
    except ValueError:
        # only now find the first bad token's line
        for lineno, token in enumerate(tokens, start=2):
            if not token:
                continue
            try:
                float(token)
            except ValueError:
                raise InputFormatError(
                    f"bad value {token!r}", path=str(path), line=lineno
                ) from None
        raise
    with _reading(path):
        return GridFunction(dom, values, spec)
