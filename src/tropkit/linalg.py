"""Matrices over tropical semirings: Kleene star, Bellman solvers, shortest paths.

Matrix addition and multiplication are the semiring lifts of ⊕ and ⊙, the
product being the one blocked contraction :meth:`Semiring.contract`; over
min-plus, ``mat_mul`` is the classical (min, +) product whose powers encode
shortest walks, and the Kleene star ``A* = I ⊕ A ⊕ A² ⊕ ...`` collects walks
of every length.  One elimination computes the star over every semiring from
the scalar closures :meth:`Semiring.star` of its pivots; a pivot with none is
a ⊙-improving cycle, reported as :class:`~tropkit.errors.DivergenceError`.

The stationary Bellman equation ``X = H ⊙ X ⊕ F`` has the least solution
``X = H* ⊙ F``, so computed over ``subtropical(h)``.  Over max-plus and
min-plus it is reached by one relaxation over the stored entries of ``H``,
``x ← F ⊕ (⊕ over stored j of H[i, j] ⊙ x[j])``, iterated from ``x = F`` to
the first exact repeat; iterates that still change after the budget plus one
verification pass raise :class:`DivergenceError` naming the first node that
changed.  A digraph's edge list is the stored entries of ``H = Wᵀ``, its
transposed min-plus adjacency, so single-source shortest paths run on the
parsed edges in O(edges) time a pass and O(edges) memory.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import DivergenceError, InputFormatError
from .semiring import Semiring, _common_spec, minplus

__all__ = [
    "SemiringMatrix",
    "mat_add",
    "mat_mul",
    "kleene_star",
    "solve_bellman",
    "read_edge_list",
    "parse_edge_list",
    "shortest_path_distances",
]


class SemiringMatrix:
    """An immutable dense matrix with entries in one scalar semiring.

    Entries are stored row-major as a read-only float array; the carrier is
    enforced on construction (NaN and the opposite infinity are rejected).
    """

    __slots__ = ("entries", "spec")

    def __init__(self, entries, spec: Semiring):
        # .view(float) sets the canonical float64 descriptor, without a copy: an
        # unpickled array's is equal but a distinct object, which makes ufunc.at
        # (the Bellman relaxation's scatter) many times slower.
        arr = np.array(entries, dtype=float, order="C").view(float)
        if arr.ndim != 2 or arr.shape[0] == 0 or arr.shape[1] == 0:
            raise ValueError("matrix entries must form a non-empty 2-D array")
        spec.validate(arr)
        arr.setflags(write=False)
        self.entries = arr
        self.spec = spec

    @classmethod
    def zeros(cls, rows: int, cols: int, spec: Semiring) -> "SemiringMatrix":
        """Matrix filled with the semiring zero (bottom)."""
        return cls(np.full((rows, cols), spec.zero), spec)

    @classmethod
    def identity(cls, n: int, spec: Semiring) -> "SemiringMatrix":
        """Semiring unit on the diagonal, bottom off it."""
        e = np.full((n, n), spec.zero)
        np.fill_diagonal(e, spec.one)
        return cls(e, spec)

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.entries.shape

    def __eq__(self, other):
        if not isinstance(other, SemiringMatrix):
            return NotImplemented
        return self.spec == other.spec and np.array_equal(self.entries, other.entries)

    def __hash__(self):
        return hash((self.spec, self.entries.tobytes(), self.shape))

    def __add__(self, other):
        return mat_add(self, other)

    def __matmul__(self, other):
        return mat_mul(self, other)

    def __repr__(self):
        return f"SemiringMatrix({self.entries.tolist()!r}, {self.spec!r})"


def mat_add(a: SemiringMatrix, b: SemiringMatrix) -> SemiringMatrix:
    """Entrywise ⊕ of two equal-shaped matrices over the same semiring."""
    spec = _common_spec(a, b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    return SemiringMatrix(spec.add(a.entries, b.entries), spec)


def mat_mul(a: SemiringMatrix, b: SemiringMatrix) -> SemiringMatrix:
    """Semiring matrix product ``C[i, j] = ⊕_k A[i, k] ⊙ B[k, j]``: A's rows
    contract B's first axis, by :meth:`Semiring.contract` in bounded blocks."""
    spec = _common_spec(a, b)
    if a.cols != b.rows:
        raise ValueError(f"inner dimensions disagree: {a.shape} @ {b.shape}")
    return SemiringMatrix(spec.contract(a.entries, b.entries), spec)


def kleene_star(a: SemiringMatrix) -> SemiringMatrix:
    """The closure ``A* = I ⊕ A ⊕ A² ⊕ ...``: best walk weights of every length.

    One Gauss–Jordan–Kleene elimination for every semiring, in O(n³) time and
    O(n²) memory: from ``D = A``, each pivot k updates ``D ← D ⊕ D[:, k] ⊙
    star(D[k, k]) ⊙ D[k, :]`` from the old column and row; ``A* = D ⊕ I``.
    That is Floyd–Warshall over max-plus and min-plus, and ``h·log (I −
    e^{A/h})⁻¹`` over ``subtropical(h)``, which exists iff ``ρ(e^{A/h}) < 1``.

    Raises
    ------
    DivergenceError
        At the first pivot k with no :meth:`Semiring.star`: the
        highest-indexed node of a cycle that keeps improving path weights.
    """
    if a.rows != a.cols:
        raise ValueError("Kleene star requires a square matrix")
    spec = a.spec
    d = a.entries
    try:
        for k in range(a.rows):
            d = spec.add(d, (d[:, k] + spec.star(d[k, k]))[:, None] + d[k])
    except DivergenceError:
        raise DivergenceError(
            f"Kleene star does not exist: node {k} lies on a cycle that keeps "
            f"improving path weights (D[{k}, {k}] = {float(d[k, k])!r})"
        ) from None
    return SemiringMatrix(spec.add(d, SemiringMatrix.identity(a.rows, spec).entries), spec)


def _relax(rows, cols, weights, fe: np.ndarray, spec: Semiring, what: str, nodes) -> np.ndarray:
    """Least solution of ``X = H ⊙ X ⊕ F`` over max-plus or min-plus by the
    relaxation ``x ← F ⊕ (⊕ over stored j of H[i, j] ⊙ x[j])``, ``H`` given by
    its stored entries ``H[rows[e], cols[e]] = weights[e]`` (repeats combine
    by ⊕): the terms are ⊕-scattered into a copy of ``F``, so a row with none
    keeps ``F[i]``.  It iterates from ``x = F`` to the first exact repeat;
    after ``2·n`` passes one more decides between a late fixed point and
    divergence, which names ``nodes[i]``, ``i`` the first row still changing."""
    weights = weights[:, None]
    # flat targets: ufunc.at is several times faster on 1-D operands
    targets = (rows[:, None] * fe.shape[1] + np.arange(fe.shape[1])).ravel()
    budget = 2 * len(fe)
    x = fe
    for _ in range(budget + 1):
        nxt = fe.copy()
        spec.add_at(nxt.reshape(-1), targets, (weights + x[cols]).reshape(-1))
        if np.array_equal(nxt, x):
            return x
        x, prev = nxt, x
    i = int(np.nonzero(x != prev)[0][0])
    raise DivergenceError(
        f"{what} did not stabilize within {budget} passes: an improving cycle "
        f"reaches node {nodes[i]}, which still changed in the verification pass")


def solve_bellman(
    h: SemiringMatrix,
    f: SemiringMatrix,
    method: str = "jacobi",
) -> SemiringMatrix:
    """Least solution of the stationary Bellman equation ``X = H ⊙ X ⊕ F``.

    Parameters
    ----------
    h : SemiringMatrix
        Square system matrix.
    f : SemiringMatrix
        Right-hand side with as many rows as ``h``; any number of columns.
    method : str
        ``"jacobi"`` or ``"gauss-seidel"``; both names run the same
        relaxation over the stored entries of ``h`` (max-plus and min-plus),
        in O(stored·m) memory plus the one n-by-n boolean mask they are read
        off.  ⊕ and float ``+`` are monotone, so it reaches the least solution
        whichever name is given.  Over ``subtropical(h)`` either returns
        ``kleene_star(h) ⊙ f``.

    Raises
    ------
    DivergenceError
        If iterates still change after ``2·n`` passes plus one, or ``h`` has no star.
    """
    spec = _common_spec(h, f)
    if h.rows != h.cols:
        raise ValueError("Bellman system matrix must be square")
    if f.rows != h.rows:
        raise ValueError(f"right-hand side has {f.rows} rows, expected {h.rows}")
    method = method.lower().replace("_", "-")
    if method not in ("jacobi", "gauss-seidel"):
        raise ValueError(f"unknown method {method!r}")
    if not spec.is_idempotent:
        return mat_mul(kleene_star(h), f)
    rows, cols = np.nonzero(h.entries != spec.zero)
    x = _relax(rows, cols, h.entries[rows, cols], f.entries, spec,
               "Bellman iteration", range(h.rows))
    return SemiringMatrix(x, spec)


# ---------------------------------------------------------------------------
# weighted digraphs: the edge list is the stored form of a min-plus matrix
# ---------------------------------------------------------------------------

def parse_edge_list(lines, path: str | None = None):
    """Parse ``src dst weight`` lines into a digraph's stored min-plus entries.

    Node names are arbitrary whitespace-free tokens, numbered in order of
    first appearance.  Blank lines and lines starting with ``#`` are skipped.
    Returns ``(nodes, (tails, heads, weights))``: three numpy arrays in file
    order, edge e running ``nodes[tails[e]] → nodes[heads[e]]`` with weight
    ``weights[e]`` as written.  Parallel edges are all kept; ⊕ is idempotent,
    so the lightest decides every distance.  Memory is O(edges).

    Raises
    ------
    InputFormatError
        On a malformed line, with its 1-based line number.
    """
    order: dict[str, int] = {}
    tails: list[int] = []
    heads: list[int] = []
    weights: list[float] = []
    for lineno, raw in enumerate(lines, start=1):
        text = raw.strip()
        if not text or text.startswith("#"):
            continue
        parts = text.split()
        if len(parts) != 3:
            raise InputFormatError(
                f"expected 'src dst weight', got {text!r}", path=path, line=lineno
            )
        src, dst, wtext = parts
        try:
            weight = float(wtext)
        except ValueError:
            raise InputFormatError(
                f"weight {wtext!r} is not a number", path=path, line=lineno
            ) from None
        if not math.isfinite(weight):
            raise InputFormatError(
                f"edge weight must be finite, got {wtext!r}", path=path, line=lineno
            )
        tails.append(order.setdefault(src, len(order)))
        heads.append(order.setdefault(dst, len(order)))
        weights.append(weight)
    if not order:
        raise InputFormatError("edge list contains no edges", path=path)
    return list(order), (np.array(tails), np.array(heads), np.array(weights))


def read_edge_list(path):
    """Read a ``src dst weight`` edge-list file.  See :func:`parse_edge_list`."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edge_list(fh, path=str(path))


def shortest_path_distances(nodes, edges, source: str) -> list[float]:
    """Single-source shortest-path distances over a parsed edge list.

    Solves ``X = H ⊙ X ⊕ F`` with ``H = Wᵀ`` (row i collects the edges *into*
    node i) and ``F`` the indicator of the source, by the relaxation that
    :func:`solve_bellman` runs over max-plus and min-plus::

        x ← F ⊕ min over edges j → i of (x[j] + W[j, i])

    ``edges`` is ``(tails, heads, weights)`` from :func:`parse_edge_list`, so
    the stored entries of ``H`` are ``(heads, tails, weights)``: no n-by-n
    array is formed, and each of at most ``2·n`` passes plus one takes
    O(edges) time and memory.  ``+inf`` marks unreachable nodes.

    Raises
    ------
    ValueError
        If ``source`` is not a known node.
    DivergenceError
        If a negative cycle is reachable from the source, naming the first
        node it reaches that still changed in the verification pass.
    """
    tails, heads, weights = edges
    try:
        src = nodes.index(source)
    except ValueError:
        raise ValueError(f"unknown source node {source!r}") from None
    f = np.full((len(nodes), 1), np.inf)
    f[src] = 0.0
    x = _relax(heads, tails, weights, f, minplus(), "shortest-path relaxation", nodes)
    return [float(v) for v in x[:, 0]]
