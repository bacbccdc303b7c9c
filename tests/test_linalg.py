import io
import math
import pickle
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra
from scipy.special import logsumexp

from tropkit import (
    DivergenceError,
    InputFormatError,
    SemiringMatrix,
    kleene_star,
    mat_add,
    mat_mul,
    maxplus,
    minplus,
    parse_edge_list,
    semiring,
    shortest_path_distances,
    solve_bellman,
    subtropical,
)
from tropkit.cli import main

RNG = np.random.default_rng(411)
INF = math.inf


def bellman_ford(n, edges, source):
    """Reference single-source shortest paths by edge relaxation.

    Independent of the semiring machinery: plain Python floats, no matrices.
    """
    dist = [INF] * n
    dist[source] = 0.0
    for _ in range(n - 1):
        for u, v, w in edges:
            if dist[u] + w < dist[v]:
                dist[v] = dist[u] + w
    return dist


# ---------------------------------------------------------------------------
# matrix arithmetic
# ---------------------------------------------------------------------------

def test_matmul_example():
    mp = maxplus()
    a = SemiringMatrix([[4.0, 3.0], [3.0, 4.0]], mp)
    sq = mat_mul(a, a)
    # (0,0): max(4+4, 3+3) = 8; (0,1): max(4+3, 3+4) = 7
    assert sq.entries.tolist() == [[8.0, 7.0], [7.0, 8.0]]
    assert (a @ a) == sq


def test_identity_and_zero():
    for spec in (maxplus(), minplus()):
        a = SemiringMatrix(RNG.integers(-5, 5, size=(3, 3)).astype(float), spec)
        eye = SemiringMatrix.identity(3, spec)
        zero = SemiringMatrix.zeros(3, 3, spec)
        assert mat_mul(eye, a) == a
        assert mat_mul(a, eye) == a
        assert mat_add(a, zero) == a
        assert mat_mul(a, zero) == zero
        assert mat_add(a, a) == a  # idempotent entrywise


def test_spec_and_shape_mismatches():
    a = SemiringMatrix([[0.0]], maxplus())
    b = SemiringMatrix([[0.0]], minplus())
    with pytest.raises(ValueError):
        mat_add(a, b)
    c = SemiringMatrix([[0.0, 1.0]], maxplus())
    with pytest.raises(ValueError):
        mat_mul(c, c)


def test_entries_are_read_only():
    a = SemiringMatrix([[1.0, 2.0], [3.0, 4.0]], maxplus())
    with pytest.raises(ValueError):
        a.entries[0, 0] = 9.0


def test_rejects_nan_and_antibottom_entries():
    with pytest.raises(ValueError):
        SemiringMatrix([[math.nan]], maxplus())
    with pytest.raises(ValueError):
        SemiringMatrix([[math.inf]], maxplus())
    with pytest.raises(ValueError):
        SemiringMatrix([[-math.inf]], minplus())


# ---------------------------------------------------------------------------
# closure
# ---------------------------------------------------------------------------

def test_star_1x1():
    mp = maxplus()
    # star of a contraction is the identity weight
    assert kleene_star(SemiringMatrix([[-0.5]], mp)).entries[0, 0] == 0.0
    assert kleene_star(SemiringMatrix([[0.0]], mp)).entries[0, 0] == 0.0
    with pytest.raises(DivergenceError):
        kleene_star(SemiringMatrix([[1.0]], mp))


def test_star_three_node_chain():
    # A -1-> B -2-> C and a direct A -5-> C; the closure picks the relay
    mn = minplus()
    w = SemiringMatrix(
        [[INF, 1.0, 5.0], [INF, INF, 2.0], [INF, INF, INF]], mn
    )
    star = kleene_star(w)
    # oracle: enumerate the two simple paths A→C by hand
    assert star.entries[0, 2] == min(5.0, 1.0 + 2.0) == 3.0
    assert star.entries[0, 0] == 0.0
    assert star.entries[2, 0] == INF  # no route back


def test_star_negative_cycle_diverges():
    mn = minplus()
    w = SemiringMatrix([[INF, 1.0], [-2.0, INF]], mn)  # cycle weight -1
    with pytest.raises(DivergenceError):
        kleene_star(w)


def test_star_matches_truncated_powers():
    # for a nilpotent (acyclic) matrix the star is I ⊕ A ⊕ ... ⊕ A^{n-1}
    mn = minplus()
    n = 5
    entries = np.full((n, n), INF)
    for i in range(n):
        for j in range(i + 1, n):
            if RNG.random() < 0.7:
                entries[i, j] = float(RNG.integers(-3, 10))
    a = SemiringMatrix(entries, mn)
    star = kleene_star(a)
    acc = SemiringMatrix.identity(n, mn)
    power = SemiringMatrix.identity(n, mn)
    for _ in range(n - 1):
        power = mat_mul(power, a)
        acc = mat_add(acc, power)
    assert star == acc  # integer weights: equality is exact


def test_star_memory_is_quadratic():
    # 4 out-edges per node; a series of dense products would build an n³ cube
    n = 400
    rng = np.random.default_rng(7)
    entries = np.full((n, n), INF)
    for i in range(n):
        entries[i, rng.choice(n, 4, replace=False)] = rng.integers(1, 10, size=4)
    w = SemiringMatrix(entries, minplus())
    tracemalloc.start()
    try:
        kleene_star(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * n * n * 8


def test_subtropical_product_memory_is_one_block():
    # one 16 MiB block of stacked sums, reduced inside itself with a 2 MiB
    # mask; a copy of the block would need 34.6 MiB, SciPy's logsumexp 114 MiB
    n = 150
    rng = np.random.default_rng(8)
    a, b = (np.where(rng.random((n, n)) < 0.1, -INF, rng.normal(size=(n, n))) for _ in "ab")
    am, bm = SemiringMatrix(a, subtropical(0.5)), SemiringMatrix(b, subtropical(0.5))
    tracemalloc.start()
    try:
        mat_mul(am, bm)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20


# ---------------------------------------------------------------------------
# the closure, the sweeps and the blocked product against dense references
# ---------------------------------------------------------------------------

def dense_reduce(values, axis, spec):
    """⊕-reduction of every term, bottom ones included."""
    if spec.variant == "maxplus":
        return values.max(axis=axis)
    if spec.variant == "minplus":
        return values.min(axis=axis)
    with np.errstate(divide="ignore"):
        return spec.h * logsumexp(values / spec.h, axis=axis)


def series_star(a):
    """The partial sums ``S ← A ⊙ S ⊕ I`` over a dense n³ product.

    Stops at the first exact repeat within 2n + 1 steps, else diverges.
    """
    spec, e = a.spec, a.entries
    eye = SemiringMatrix.identity(a.rows, spec).entries
    s = eye
    for _ in range(2 * a.rows + 1):
        nxt = spec.add(dense_reduce(e[:, :, None] + s[None, :, :], 1, spec), eye)
        if np.array_equal(nxt, s):
            return s
        s = nxt
    raise DivergenceError("series did not stabilize")


def dense_gauss_seidel(h, f):
    """Ascending row sweeps reading every entry of a row through ``Semiring.mul``."""
    spec, he = h.spec, h.entries
    x = f.entries.copy()
    for _ in range(2 * h.rows + 1):
        prev = x.copy()
        for i in range(h.rows):
            x[i] = spec.add(dense_reduce(spec.mul(he[i][:, None], x), 0, spec), f.entries[i])
        if np.array_equal(x, prev):
            return x
    raise DivergenceError("sweeps did not stabilize")


def outcome(fn, *args):
    """The entries ``fn`` returns, or the string ``"diverged"``."""
    try:
        out = fn(*args)
    except DivergenceError:
        return "diverged"
    return out.entries if isinstance(out, SemiringMatrix) else out


@st.composite
def digraphs(draw, weights, max_n=8, plant=False):
    """``(n, entries)`` with ``None`` for an absent edge; optionally a planted
    cycle 0 → 1 → … → c−1 → 0 of total weight −1."""
    n = draw(st.integers(1, max_n))
    cells = draw(st.lists(st.one_of(st.none(), weights), min_size=n * n, max_size=n * n))
    entries = [cells[i * n:(i + 1) * n] for i in range(n)]
    if plant and draw(st.booleans()):
        plant_cycle(entries, list(range(draw(st.integers(1, n)))))
    return n, entries


def plant_cycle(entries, cycle):
    """Edges ``cycle[0] → cycle[1] → … → cycle[0]`` of total weight −1."""
    for k, i in enumerate(cycle):
        entries[i][cycle[(k + 1) % len(cycle)]] = -1.0 if k == 0 else 0.0


def as_matrix(entries, spec, sign=1.0):
    """Weights given in min-plus sense; ``sign = -1`` turns them into max-plus ones."""
    return SemiringMatrix(
        [[spec.zero if v is None else sign * v for v in row] for row in entries], spec
    )


IDEMPOTENT = [(minplus(), 1.0), (maxplus(), -1.0)]
INT_WEIGHTS = st.integers(-5, 9).map(float)


@pytest.mark.parametrize("spec, sign", IDEMPOTENT)
@settings(max_examples=100, deadline=None)
@given(graph=digraphs(INT_WEIGHTS, plant=True))
def test_star_matches_series_on_integer_weights(spec, sign, graph):
    # integer sums are exact: the closure and the series agree bit for bit,
    # and diverge on exactly the same matrices
    a = as_matrix(graph[1], spec, sign)
    new, old = outcome(kleene_star, a), outcome(series_star, a)
    if isinstance(old, str):
        assert new == old
    else:
        assert np.array_equal(new, old)


@pytest.mark.parametrize("spec, sign", IDEMPOTENT)
@settings(max_examples=100, deadline=None)
@given(graph=digraphs(st.floats(0.0, 10.0)))
def test_star_matches_series_on_real_weights(spec, sign, graph):
    # no improving cycle; a path's sum is associated differently by the two
    # algorithms, so each entry agrees within n·2⁻⁵² relative
    n, entries = graph
    a = as_matrix(entries, spec, sign)
    new, old = kleene_star(a).entries, series_star(a)
    assert np.array_equal(np.isinf(new), np.isinf(old))
    finite = np.isfinite(old)
    assert np.all(np.abs(new[finite] - old[finite]) <= n * 2.0**-52 * np.abs(old[finite]))


def reachable(entries):
    """Walks of length ≥ 0 between nodes: the pattern where ``(I − B)⁻¹ > 0``."""
    r = np.isfinite(entries) | np.eye(len(entries), dtype=bool)
    for k in range(len(entries)):
        r |= r[:, k, None] & r[k]
    return r


def spectral_radius(entries, h):
    return float(np.max(np.abs(np.linalg.eigvals(np.exp(entries / h)))))


def near_closed_form(got, ref, n, h, rho):
    """``|got − ref| ≤ 4·n·2⁻⁵²·(h + |ref|)/(1 − ρ)``: a few ulps of the
    linear-domain ``e^{ref/h}`` per node, amplified by the condition of
    ``I − e^{A/h}``.  Assumes nothing when ``ρ ≥ 1``."""
    if rho >= 1.0:
        return True
    return bool(np.all(np.abs(got - ref) <= 4 * n * 2.0**-52 * (h + np.abs(ref)) / (1 - rho)))


SUBTROPICAL_WEIGHTS = [st.floats(-60.0, -20.0), st.floats(-6.0, -1.0)]


@settings(max_examples=100, deadline=None)
@given(
    graph=st.one_of(*(digraphs(w, max_n=6) for w in SUBTROPICAL_WEIGHTS)),
    h=st.sampled_from([1.0, 0.5, 0.25]),
)
def test_subtropical_star_is_the_series(graph, h):
    # The series I ⊕ A ⊕ A² ⊕ ... sums to h·log (I − e^{A/h})⁻¹ when
    # ρ(e^{A/h}) < 1 and diverges otherwise; near ρ = 1 the verdict is left to
    # rounding.  The closed form is compared where its entries are normal
    # numbers: e^{A/h} underflows long before A* does.
    a = as_matrix(graph[1], subtropical(h))
    n, e = a.rows, a.entries
    rho = spectral_radius(e, h)
    try:
        star = kleene_star(a).entries
    except DivergenceError:
        assert rho >= 0.9
        return
    assert rho <= 1.1
    assert np.array_equal(np.isfinite(star), reachable(e))
    inv = np.linalg.inv(np.eye(n) - np.exp(e / h))
    normal = inv >= np.finfo(float).tiny
    assert near_closed_form(star[normal], h * np.log(inv[normal]), n, h, rho)


@st.composite
def bellman_systems(draw, weights, max_n=10, idempotent=False):
    """``(h_entries, f)``: a system with one row of H that stores nothing.

    ``idempotent`` adds a fully stored hub row, a planted improving cycle
    (a self-loop when it has one node) off the empty row, and bottom
    (``None``) entries of F, so that the cycle may or may not reach a
    finite one."""
    n, entries = draw(digraphs(weights, max_n=max_n))
    empty = draw(st.integers(0, n - 1))
    entries[empty] = [None] * n
    m = draw(st.integers(1, 3))
    value = st.integers(-5, 5).map(float)
    if idempotent and n > 1:
        others = [i for i in range(n) if i != empty]
        entries[draw(st.sampled_from(others))] = draw(st.lists(weights, min_size=n, max_size=n))
        if draw(st.booleans()):
            plant_cycle(entries, draw(st.lists(st.sampled_from(others), min_size=1, unique=True)))
    if idempotent:
        value = st.one_of(st.none(), value)
    f = draw(st.lists(st.lists(value, min_size=m, max_size=m), min_size=n, max_size=n))
    return entries, f


@pytest.mark.parametrize("spec, sign", IDEMPOTENT)
@settings(max_examples=100, deadline=None)
@given(
    system=st.one_of(
        *(bellman_systems(w, idempotent=True) for w in (INT_WEIGHTS, st.floats(0.0, 10.0)))
    ),
    method=st.sampled_from(["jacobi", "gauss-seidel"]),
)
def test_gauss_seidel_matches_dense_sweeps(spec, sign, system, method):
    # both method names run one relaxation; the float weights are ≥ 0 in
    # the min-plus sense, so among them only the planted cycle improves
    entries, f = system
    h, fm = as_matrix(entries, spec, sign), as_matrix(f, spec, sign)
    new = outcome(solve_bellman, h, fm, method)
    old = outcome(dense_gauss_seidel, h, fm)
    if isinstance(old, str):
        assert new == old
    else:
        assert np.array_equal(new, old)


def test_bellman_memory_is_the_stored_entries():
    # 4 stored entries per row plus one fully stored hub row: O(stored·m)
    # plus one n-by-n boolean mask, never a dense n² float block
    n = 1500
    rng = np.random.default_rng(13)
    entries = np.full((n, n), INF)
    for i in range(n):
        entries[i, rng.choice(n, 4, replace=False)] = rng.integers(1, 10, size=4)
    entries[7] = rng.integers(1, 10, size=n)
    f = np.full((n, 4), INF)
    f[rng.choice(n, 4, replace=False), np.arange(4)] = 0.0
    h, fm = SemiringMatrix(entries, minplus()), SemiringMatrix(f, minplus())
    for method in ("jacobi", "gauss-seidel"):
        tracemalloc.start()
        try:
            solve_bellman(h, fm, method)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= n * n + 2**20, (method, peak)


# n = 6, weights in [−6, −3], ρ(e^{H}) = 0.090: a series still moving in its
# last bits after 2n passes
BELLMAN_N6 = (
    [[-4.1, -3.3, -3.7, -5.3, -5.1, -3.4], [-6.0, -3.5, -3.6, -4.6, -5.1, -5.2],
     [-5.2, -4.7, -4.5, -4.3, -3.0, -3.6], [-4.1, -3.0, -5.4, -5.5, -4.2, -5.9],
     [-5.9, -4.5, -4.6, -3.2, -4.1, -4.5], [-4.5, -5.3, -6.0, -5.4, -3.9, -5.4]],
    [[2.0], [-1.0], [0.0], [-5.0], [1.0], [4.0]],
)


@settings(max_examples=100, deadline=None)
@given(
    system=st.one_of(*(bellman_systems(w, max_n=12) for w in SUBTROPICAL_WEIGHTS)),
    h=st.sampled_from([1.0, 0.5, 0.25]),
    method=st.sampled_from(["jacobi", "gauss-seidel"]),
)
@example(system=BELLMAN_N6, h=1.0, method="jacobi")
@example(system=BELLMAN_N6, h=1.0, method="gauss-seidel")
def test_subtropical_bellman_is_the_closed_form(system, h, method):
    # X = h·log (I − e^{H/h})⁻¹ e^{F/h}: both methods, one closed form.  F
    # is finite everywhere, so X is too and every entry is compared.
    entries, f = system
    n, spec = len(entries), subtropical(h)
    hm, fm = as_matrix(entries, spec), SemiringMatrix(f, spec)
    rho = spectral_radius(hm.entries, h)
    try:
        x = solve_bellman(hm, fm, method).entries
    except DivergenceError:
        assert rho >= 0.9
        return
    assert rho <= 1.1
    ref = h * np.log(np.linalg.solve(np.eye(n) - np.exp(hm.entries / h), np.exp(fm.entries / h)))
    assert np.all(np.isfinite(x))
    assert near_closed_form(x, ref, n, h, rho)


def test_subtropical_star_dequantizes_to_maxplus():
    # One fixed 24-node digraph with 4 out-edges per node, weights in
    # [−2, −0.5], so ρ(e^{A/h}) ≤ 4·e^{−0.5/0.3} < 1 on every rung.  S_h ≥ M
    # holds in floats: both eliminations add in the same order, S_h's pivot
    # stars are ≥ 0 and u ⊕_h v ≥ max(u, v).
    rng = np.random.default_rng(30)
    n = 24
    a = np.full((n, n), -INF)
    for i in range(n):
        a[i, rng.choice(n, 4, replace=False)] = rng.uniform(-2.0, -0.5, 4)
    m = kleene_star(SemiringMatrix(a, maxplus())).entries
    finite = np.isfinite(m)
    gaps = []
    for h in (0.3, 0.2, 0.1, 0.05, 0.01, 0.005, 0.001):
        s = kleene_star(SemiringMatrix(a, subtropical(h))).entries
        assert np.array_equal(np.isfinite(s), finite)
        assert np.all(s[finite] >= m[finite])
        gaps.append(float(np.max(s[finite] - m[finite])))
    assert all(later < earlier for earlier, later in zip(gaps, gaps[1:])), gaps
    assert gaps[-1] < 1e-3


@pytest.mark.parametrize("spec, sign", IDEMPOTENT + [(subtropical(0.25), -1.0)])
def test_star_divergence_names_the_cycles_last_node(spec, sign):
    # Weights elsewhere are ≥ 1 (min-plus sense), so the planted cycle
    # 3 → 8 → 5 → 3 of weight −1 is the only improving one, and node 8, its
    # highest-indexed node, is the first pivot that closes it.
    rng = np.random.default_rng(31)
    n = 10
    w = np.where(rng.random((n, n)) < 0.4, rng.uniform(1.0, 5.0, (n, n)), INF)
    w[3, 8], w[8, 5], w[5, 3] = -1.0, 0.0, 0.0
    a = SemiringMatrix(np.where(np.isinf(w), spec.zero, sign * w), spec)
    with pytest.raises(
        DivergenceError,
        match=r"^Kleene star does not exist: node 8 .*keeps improving path weights",
    ):
        kleene_star(a)


@pytest.mark.parametrize("spec", [maxplus(), minplus(), subtropical(0.5)])
def test_blocked_product_matches_dense(spec, monkeypatch):
    # blocks of 1, 2 and 3 rows, with a short last block
    rng = np.random.default_rng(12)
    bottom = spec.zero
    a = np.where(rng.random((7, 5)) < 0.2, bottom, rng.integers(-4, 5, (7, 5)).astype(float))
    b = np.where(rng.random((5, 3)) < 0.2, bottom, rng.integers(-4, 5, (5, 3)).astype(float))
    dense = dense_reduce(a[:, :, None] + b[None, :, :], 1, spec)
    am, bm = SemiringMatrix(a, spec), SemiringMatrix(b, spec)
    for block in (15, 30, 45, 10**6):
        monkeypatch.setattr(semiring, "_BLOCK_ELEMENTS", block)
        assert np.array_equal(mat_mul(am, bm).entries, dense)


# ---------------------------------------------------------------------------
# Bellman equation
# ---------------------------------------------------------------------------

def test_bellman_shortest_path_documented():
    # the 3-node chain again, phrased as X = Wᵀ ⊙ X ⊕ F with F the source column
    mn = minplus()
    wt = SemiringMatrix(
        [[INF, INF, INF], [1.0, INF, INF], [5.0, 2.0, INF]], mn
    )
    f = SemiringMatrix([[0.0], [INF], [INF]], mn)
    x = solve_bellman(wt, f)
    assert x.entries.ravel().tolist() == [0.0, 1.0, 3.0]


@pytest.mark.parametrize("method", ["jacobi", "gauss-seidel"])
def test_bellman_agrees_with_edge_relaxation(method):
    # 50 random integer-weight acyclic digraphs; integer arithmetic in floats
    # is exact, so the two independent solvers must agree bit for bit
    for trial in range(50):
        n = int(RNG.integers(2, 8))
        edges = []
        entries = np.full((n, n), INF)
        for i in range(n):
            for j in range(i + 1, n):
                if RNG.random() < 0.5:
                    w = float(RNG.integers(0, 20))
                    edges.append((i, j, w))
                    entries[j, i] = w  # transposed: X_j gets H[j,i] ⊙ X_i
        f = np.full((n, 1), INF)
        f[0, 0] = 0.0
        mn = minplus()
        x = solve_bellman(SemiringMatrix(entries, mn), SemiringMatrix(f, mn), method=method)
        assert x.entries.ravel().tolist() == bellman_ford(n, edges, 0)


def test_bellman_methods_agree_exactly():
    mn = minplus()
    for _ in range(20):
        n = int(RNG.integers(2, 6))
        entries = np.where(
            RNG.random((n, n)) < 0.6, RNG.integers(1, 15, size=(n, n)).astype(float), INF
        )
        np.fill_diagonal(entries, INF)
        f = RNG.integers(0, 10, size=(n, 2)).astype(float)
        h = SemiringMatrix(entries, mn)
        fm = SemiringMatrix(f, mn)
        assert solve_bellman(h, fm, method="jacobi") == solve_bellman(
            h, fm, method="gauss-seidel"
        )


def test_bellman_least_solution_brute_force():
    # n = 3 over a tiny weight alphabet: enumerate every candidate vector and
    # confirm the solver returns the ⊕-least fixed point
    mn = minplus()
    h = SemiringMatrix([[INF, 2.0, INF], [INF, INF, 1.0], [INF, INF, INF]], mn)
    f = SemiringMatrix([[4.0], [0.0], [1.0]], mn)
    x = solve_bellman(h, f)
    values = [0.0, 1.0, 2.0, 3.0, 4.0, INF]
    solutions = []
    for c0 in values:
        for c1 in values:
            for c2 in values:
                cand = SemiringMatrix([[c0], [c1], [c2]], mn)
                if mat_add(mat_mul(h, cand), f) == cand:
                    solutions.append((c0, c1, c2))
    got = tuple(x.entries.ravel().tolist())
    assert got in solutions
    for sol in solutions:
        assert all(g <= s for g, s in zip(got, sol))


def test_bellman_star_consistency():
    # X = H* ⊙ F: the closed form and the iteration must coincide
    mn = minplus()
    entries = np.array([[INF, 3.0, INF], [INF, INF, 4.0], [INF, INF, INF]])
    f = np.array([[0.0], [7.0], [2.0]])
    h = SemiringMatrix(entries, mn)
    fm = SemiringMatrix(f, mn)
    assert solve_bellman(h, fm) == mat_mul(kleene_star(h), fm)


def test_bellman_divergence():
    mn = minplus()
    # an improving self-loop at 1, which feeds 2: both still change, 1 first
    h = SemiringMatrix([[INF, INF, INF], [INF, -1.0, INF], [INF, 0.0, INF]], mn)
    f = SemiringMatrix([[0.0], [0.0], [0.0]], mn)
    with pytest.raises(DivergenceError, match=r"within 6 passes: .* reaches node 1, "):
        solve_bellman(h, f)


def test_bellman_rejects_unknown_method():
    mn = minplus()
    h = SemiringMatrix([[INF]], mn)
    f = SemiringMatrix([[0.0]], mn)
    with pytest.raises(ValueError):
        solve_bellman(h, f, method="sor")


# ---------------------------------------------------------------------------
# edge lists
# ---------------------------------------------------------------------------

EDGES = """\
# weighted digraph
A B 1
B C 2
A C 5
C D 1
"""


def test_parse_edge_list_and_distances():
    nodes, (tails, heads, weights) = parse_edge_list(io.StringIO(EDGES))
    assert nodes == ["A", "B", "C", "D"]
    assert tails.tolist() == [0, 1, 0, 2] and heads.tolist() == [1, 2, 2, 3]
    assert weights.tolist() == [1.0, 2.0, 5.0, 1.0]  # as written, in file order
    edges = (tails, heads, weights)
    assert shortest_path_distances(nodes, edges, "A") == [0.0, 1.0, 3.0, 4.0]
    assert shortest_path_distances(nodes, edges, "D") == [INF, INF, INF, 0.0]
    # numbered by first appearance, not by name
    nodes, (tails, heads, _) = parse_edge_list(io.StringIO("z a 1\n\nm z 2\nb m 0.25\n"))
    assert nodes == ["z", "a", "m", "b"]
    assert tails.tolist() == [0, 2, 3] and heads.tolist() == [1, 0, 2]


def test_parallel_edges_keep_the_lighter():
    for text in ("A B 4\nA B 2\nB C 1\n", "A B 2\nA B 4\nB C 1\n"):
        nodes, edges = parse_edge_list(io.StringIO(text))
        assert sorted(edges[2][:2].tolist()) == [2.0, 4.0]  # both are stored
        assert shortest_path_distances(nodes, edges, "A") == [0.0, 2.0, 3.0]


def test_parse_errors_carry_line_numbers():
    with pytest.raises(InputFormatError) as err:
        parse_edge_list(io.StringIO("A B 1\nA B\n"), path="g.txt")
    assert "g.txt:2" in str(err.value)
    with pytest.raises(InputFormatError) as err:
        parse_edge_list(io.StringIO("A B ten\n"))
    assert err.value.line == 1
    with pytest.raises(InputFormatError):
        parse_edge_list(io.StringIO("A B inf\n"))  # weights must be finite


@st.composite
def edge_lists(draw, weights):
    """``(n, edges)`` over nodes v0 … v(n−1), the first edge leaving the source
    v0, parallel edges and self-loops allowed, and optionally a planted cycle
    v0 → … → v(c−1) → v0 of weight −1."""
    n = draw(st.integers(1, 12))
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node, weights), max_size=4 * n))
    edges.insert(0, (0, draw(node), draw(weights)))
    if draw(st.booleans()):
        c = draw(st.integers(1, n))
        edges += [(i, (i + 1) % c, -1.0 if i == 0 else 0.0) for i in range(c)]
    return n, edges


def improves(edges, dist):
    """True if one more relaxation pass would lower a distance: a negative
    cycle is reachable."""
    return any(dist[u] + w < dist[v] for u, v, w in edges)


def doomed(edges, dist):
    """Nodes at distance −∞: those a still-improving edge's head reaches."""
    out = {v for u, v, w in edges if dist[u] + w < dist[v]}
    while True:
        more = out | {v for u, v, _ in edges if u in out}
        if more == out:
            return out
        out = more


def named_node(exc):
    """The node a divergence message says a cycle reaches."""
    return re.search(r"reaches node (\S+), which still changed", str(exc)).group(1)


@settings(max_examples=200, deadline=None)
@given(graph=st.one_of(edge_lists(INT_WEIGHTS), edge_lists(st.floats(0.0, 10.0))))
def test_shortest_paths_match_bellman_ford(graph):
    n, edges = graph
    text = "".join(f"v{u} v{v} {w!r}\n" for u, v, w in edges)
    nodes, w = parse_edge_list(io.StringIO(text))
    ref = bellman_ford(n, edges, 0)
    try:
        got = shortest_path_distances(nodes, w, "v0")
    except DivergenceError as exc:
        assert "stabilize" in str(exc)
        assert improves(edges, ref)
        assert int(named_node(exc)[1:]) in doomed(edges, ref)
        return
    assert not improves(edges, ref)
    # nodes missing from the edge list are unreachable in the reference
    assert dict(zip(nodes, got)) == {f"v{i}": d for i, d in enumerate(ref) if f"v{i}" in nodes}


def test_planted_negative_cycle_raises():
    nodes, w = parse_edge_list(io.StringIO("s a 2\na b 1\nb c -3\nc a 1\nc t 4\ns u 7\n"))
    with pytest.raises(DivergenceError, match=r"stabilize within 12 passes") as err:
        shortest_path_distances(nodes, w, "s")
    # named by its edge-list name, and reached from the cycle a → b → c → a
    assert named_node(err.value) in {"a", "b", "c", "t"}
    # unreachable from t, the cycle does no harm
    assert shortest_path_distances(nodes, w, "t") == [INF, INF, INF, INF, 0.0, INF]


def test_unknown_source_raises():
    nodes, w = parse_edge_list(io.StringIO("A B 1\n"))
    with pytest.raises(ValueError):
        shortest_path_distances(nodes, w, "Z")


def test_shortest_path_memory_is_linear_in_edges(tmp_path, capsys):
    # The edge list is the stored form all the way to the relaxation, so a
    # 20,000-node graph needs no 3.2 GB dense adjacency.  The bound of 256
    # bytes per edge is fixed before the run.
    n, out_degree = 20_000, 4
    rng = np.random.default_rng(16)
    # four distinct heads per node, none of them the node itself
    heads = (np.arange(n)[:, None] + np.cumsum(rng.integers(1, n // 5, (n, out_degree)), 1)) % n
    weights = rng.integers(1, 10, (n, out_degree))
    tails = np.repeat(np.arange(n), out_degree)
    graph = tmp_path / "graph.txt"
    graph.write_text("".join(
        f"v{u} v{v} {w}\n" for u, v, w in zip(tails, heads.ravel(), weights.ravel())))
    tracemalloc.start()
    try:
        assert main(["shortest-path", str(graph), "--source", "v0"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * n * out_degree
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    got = np.array([float(d) for _, d in rows])
    order = [int(name[1:]) for name, _ in rows]
    ref = dijkstra(csr_matrix((weights.ravel(), (tails, heads.ravel())), shape=(n, n)), indices=0)
    assert np.array_equal(got, ref[order])


def test_entries_carry_the_canonical_float_descriptor():
    # unpickled arrays carry an equal but distinct float64 descriptor, which
    # sends ufunc.at, the relaxation's scatter, down a much slower path
    a = RNG.random((3, 3))
    assert SemiringMatrix(pickle.loads(pickle.dumps(a)), minplus()).entries.dtype is np.dtype(float)
