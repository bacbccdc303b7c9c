"""Seeded inputs of the three workloads, and the results they must give.

Every expected result here is computed apart from tropkit: Floyd–Warshall
and a max-plus product in numpy, Dijkstra from ``scipy.sparse.csgraph``,
extreme points by LP membership tests with ``scipy.optimize.linprog``, and
closed forms for the Hopf–Lax, Fenchel and sup-convolution values.  This
module never imports tropkit.

A workload is a fixed list of jobs.  The seed draws the contents of each
job (graph edges, weights, centres, exponents, coefficients); the sizes and
the order of the jobs are the same for every seed, so every seed asks for
about the same amount of work.

A job is a plain dict:

* ``kind``  — which runner and check the worker applies (see ``jobs.py``);
* ``label`` — a short human-readable name;
* ``args``  — what the timed call receives: ``argv`` and ``out`` for a CLI
  job, numpy arrays for a library job;
* ``expect`` — the reference data its check compares against.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

WORKLOADS = ("algebra", "mechanics", "geometry")

# Job sizes.  They are fixed so that every seed does the same work; the seed
# only draws contents.  The counts give each job kind a comparable share of a
# pass and put the median job inside one block of near-equal latencies.
KLEENE_SIZES = (100, 125, 150, 100, 125, 150)
DIVERGENT_SIZE, DIVERGENT_JOBS = 60, 7
BELLMAN_SIZE, BELLMAN_JOBS, BELLMAN_SOURCES = 300, 7, 4
SHORTEST_PATH_SIZES = (500, 562, 625, 687, 750, 812, 875, 937, 1000)
OUT_DEGREE = 4
SUBTROPICAL_SIZE, SUBTROPICAL_H = 150, (1.0, 0.5, 0.25)

HJ_1D_SIZES = (401, 601, 801)
HJ_2D_SIZES = (31, 41, 41, 41, 41, 41, 41)
VISCOUS_SIZE, VISCOUS_H = 161, (0.1, 0.05, 0.02, 0.01)
LEGENDRE_SIZES = (4001, 8001)
CONVOLVE_SIZE, CONVOLVE_JOBS = 41, 6

CONVERGE_H, CONVERGE_SLICES, CONVERGE_ANGLES = (1.0, 0.5, 0.25), 60, 16
AMOEBA_JOBS, AMOEBA_TERMS, AMOEBA_H = 3, 6, 0.5
AMOEBA_SLICES, AMOEBA_ANGLES = 40, 16
CURVE_TERMS = (10, 11, 12, 14, 15, 17, 18, 20) * 2
NEWTON_TERMS = (12, 12, 12, 13, 13, 13, 14, 14, 14, 14, 15, 15, 15, 16, 16, 16)
MINKOWSKI_JOBS, MINKOWSKI_POINTS = 2, 7
FRACTAL_JOBS = (
    # generator, scales, target slope, tolerance
    ("segment 16385", (2, 3, 4, 5, 6, 7, 8), 1.0, 0.05),
    ("cantor 12", tuple(range(2, 13)), math.log(2.0) / math.log(3.0), 0.05),
    ("sierpinski 8", (1, 2, 3, 4, 5), math.log(3.0) / math.log(2.0), 0.1),
    ("square 193", (1, 2, 3, 4, 5), 2.0, 0.1),
)
WINDOW = (-3.0, 3.0, -3.0, 3.0)
BASE_SEED = 20260823  # the hull jobs' base point sets (see _geometry)


def build(workload: str, seed: int, workdir: Path) -> list[dict]:
    """Write the workload's input files under ``workdir`` and return its jobs."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    workdir.mkdir(parents=True, exist_ok=True)
    return {"algebra": _algebra, "mechanics": _mechanics, "geometry": _geometry}[
        workload
    ](rng, workdir)


# ---------------------------------------------------------------------------
# reference computations
# ---------------------------------------------------------------------------

def floyd_warshall(w: np.ndarray) -> np.ndarray:
    """Min-plus closure ``I ⊕ W ⊕ W² ⊕ …``: all-pairs shortest walk weights."""
    d = np.array(w, dtype=float)
    np.fill_diagonal(d, np.minimum(np.diag(d), 0.0))
    for k in range(d.shape[0]):
        np.minimum(d, d[:, k, None] + d[None, k, :], out=d)
    return d


def has_negative_cycle(w: np.ndarray) -> bool:
    """True when some closed walk of ``w`` has negative weight."""
    return bool((np.diag(floyd_warshall(w)) < 0).any())


def dijkstra_from(w: np.ndarray, sources) -> np.ndarray:
    """Distances from each source (rows) to every node; ``w[i, j] = inf`` is no edge."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra

    rows, cols = np.nonzero(np.isfinite(w))
    graph = csr_matrix((w[rows, cols], (rows, cols)), shape=w.shape)
    return dijkstra(graph, directed=True, indices=list(sources))


def maxplus_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``M[i, j] = max_k a[i, k] + b[k, j]``."""
    return (a[:, :, None] + b[None, :, :]).max(axis=1)


def extreme_points(points) -> set[tuple[int, ...]]:
    """The points of a finite integer set that no convex combination of the others gives.

    Each point is an LP feasibility problem ``Σ λ_j q_j = p, Σ λ_j = 1,
    λ ≥ 0`` over the other points; it is extreme exactly when that LP is
    infeasible.
    """
    from scipy.optimize import linprog

    pts = sorted({tuple(int(c) for c in p) for p in points})
    if len(pts) <= 1:
        return set(pts)
    out = set()
    for i, p in enumerate(pts):
        others = np.array(pts[:i] + pts[i + 1 :], dtype=float)
        a_eq = np.vstack([others.T, np.ones(len(others))])
        b_eq = np.append(np.array(p, dtype=float), 1.0)
        res = linprog(
            np.zeros(len(others)), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs"
        )
        if res.status == 2:  # infeasible: p is not in the hull of the others
            out.add(p)
        elif res.status != 0:
            raise RuntimeError(f"linprog failed on {p}: {res.message}")
    return out


# ---------------------------------------------------------------------------
# file writers (the formats tropkit reads; see the package README)
# ---------------------------------------------------------------------------

def _write_grid(path: Path, lower, upper, points: int, values: np.ndarray) -> None:
    """Grid CSV: ``dim,lower...,upper...,points`` then one value per line."""
    lower, upper = list(lower), list(upper)
    head = ",".join(
        [str(len(lower))] + [repr(float(v)) for v in lower + upper] + [str(points)]
    )
    body = "\n".join(repr(float(v)) for v in np.ravel(values))
    path.write_text(head + "\n" + body + "\n", encoding="utf-8")


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj) + "\n", encoding="utf-8")


def _axes(lower, upper, points):
    return [np.linspace(lo, hi, points) for lo, hi in zip(lower, upper)]


# ---------------------------------------------------------------------------
# algebra
# ---------------------------------------------------------------------------

def _digraph(rng, n: int) -> np.ndarray:
    """Min-plus adjacency: ``OUT_DEGREE`` distinct out-edges per node, weights 1–9."""
    w = np.full((n, n), np.inf)
    for i in range(n):
        targets = rng.choice(n - 1, OUT_DEGREE, replace=False)
        targets = targets + (targets >= i)  # never a self-loop
        w[i, targets] = rng.integers(1, 10, OUT_DEGREE)
    return w


def _algebra(rng, workdir: Path) -> list[dict]:
    jobs = []
    for n in KLEENE_SIZES:
        w = _digraph(rng, n)
        jobs.append(dict(
            kind="kleene_star", label=f"kleene_star n={n}",
            args={"w": w}, expect={"closure": floyd_warshall(w)},
        ))
    for k in range(DIVERGENT_JOBS):
        n = DIVERGENT_SIZE
        w = _digraph(rng, n)
        a, b, c = rng.choice(n, 3, replace=False)
        w[a, b], w[b, c], w[c, a] = 1.0, 1.0, -5.0  # a cycle of weight -3
        if not has_negative_cycle(w):
            raise RuntimeError("planted negative cycle not found")
        jobs.append(dict(
            kind="kleene_star_divergent", label=f"kleene_star n={n} negative cycle",
            args={"w": w}, expect={},
        ))
    for k in range(BELLMAN_JOBS):
        n = BELLMAN_SIZE
        w = _digraph(rng, n)
        sources = rng.choice(n, BELLMAN_SOURCES, replace=False)
        f = np.full((n, BELLMAN_SOURCES), np.inf)
        f[sources, np.arange(BELLMAN_SOURCES)] = 0.0
        jobs.append(dict(
            kind="solve_bellman", label=f"solve_bellman gauss-seidel n={n}",
            args={"h": w.T.copy(), "f": f},
            expect={"x": dijkstra_from(w, sources).T},
        ))
    for n in SHORTEST_PATH_SIZES:
        w = _digraph(rng, n)
        rows, cols = np.nonzero(np.isfinite(w))
        order = rng.permutation(rows.size)
        lines = [f"v{rows[e]} v{cols[e]} {int(w[rows[e], cols[e]])}" for e in order]
        graph = workdir / f"graph{n}.txt"
        graph.write_text("\n".join(lines) + "\n", encoding="utf-8")
        source = int(rng.integers(n))
        dist = dijkstra_from(w, [source])[0]
        out = workdir / f"paths{n}.csv"
        jobs.append(dict(
            kind="shortest_path", label=f"shortest-path n={n}",
            args={"argv": ["shortest-path", str(graph), "--source", f"v{source}",
                           "-o", str(out)], "out": str(out)},
            expect={"distance": {f"v{i}": float(d) for i, d in enumerate(dist)}},
        ))
    for h in SUBTROPICAL_H:
        n = SUBTROPICAL_SIZE
        a = rng.uniform(-4.0, 4.0, (n, n))
        b = rng.uniform(-4.0, 4.0, (n, n))
        jobs.append(dict(
            kind="mat_mul_subtropical", label=f"mat_mul subtropical({h}) n={n}",
            args={"a": a, "b": b, "h": h},
            expect={"maxplus": maxplus_product(a, b), "h": h, "n": n},
        ))
    return jobs


# ---------------------------------------------------------------------------
# mechanics
# ---------------------------------------------------------------------------

def _scenario(path: Path, dim: int, dt: float, convention: str) -> None:
    masses = ",".join(["1"] * dim)
    path.write_text(
        f"masses {masses}\ndt {dt!r}\nhorizon 1\nconvention {convention}\n",
        encoding="utf-8",
    )


def _mechanics(rng, workdir: Path) -> list[dict]:
    jobs = []
    # Hopf–Lax: S0 = |x - c|²/2 + b, m = 1, t = 1 gives S(1, x) = |x - c|²/4 + b
    # wherever the minimiser (x + c)/2 lies in the box, which is everywhere.
    for dim, sizes in ((1, HJ_1D_SIZES), (2, HJ_2D_SIZES)):
        scenario = workdir / f"scenario{dim}d.txt"
        _scenario(scenario, dim, 0.5, "minplus")
        for k, p in enumerate(sizes):
            lower, upper = [-2.0] * dim, [2.0] * dim
            c = rng.uniform(-0.5, 0.5, dim)
            b = float(rng.uniform(-1.0, 1.0))
            grids = np.meshgrid(*_axes(lower, upper, p), indexing="ij")
            r2 = sum((g - ci) ** 2 for g, ci in zip(grids, c))
            src = workdir / f"s0_{dim}d_{k}.csv"
            _write_grid(src, lower, upper, p, r2 / 2.0 + b)
            out = workdir / f"s1_{dim}d_{k}.csv"
            lipschitz = math.sqrt(sum((2.0 + abs(ci)) ** 2 for ci in c))
            jobs.append(dict(
                kind="hj_evolve", label=f"hj-evolve {dim}-D p={p}",
                args={"argv": ["hj-evolve", str(scenario), str(src), "-o", str(out)],
                      "out": str(out)},
                expect={"values": r2 / 4.0 + b, "tol": lipschitz * 4.0 / (p - 1),
                        "head": (dim, lower, upper, p)},
            ))
    # Viscous dequantization: u0 = exp(-x²/(2h)) on [-2, 2] must come back as
    # h·log u ≈ -x²/4 within h·log 2 + 2σ.  These inputs do not depend on the seed.
    scenario = workdir / "scenario_viscous.txt"
    _scenario(scenario, 1, 1.0, "maxplus")
    p = VISCOUS_SIZE
    x = np.linspace(-2.0, 2.0, p)
    for h in VISCOUS_H:
        src = workdir / f"u0_h{h}.csv"
        _write_grid(src, [-2.0], [2.0], p, np.exp(-x * x / (2.0 * h)))
        out = workdir / f"s_h{h}.csv"
        jobs.append(dict(
            kind="hj_viscous", label=f"hj-viscous --dequantize p={p} h={h}",
            args={"argv": ["hj-viscous", str(scenario), str(src), "--h", repr(h),
                           "--dequantize", "-o", str(out)], "out": str(out)},
            expect={"values": -x * x / 4.0, "tol": h * math.log(2.0) + 2.0 * 4.0 / (p - 1),
                    "head": (1, [-2.0], [2.0], p)},
        ))
    # Fenchel: phi = (x - c)²/2 + b on [-2, 2] has phi*(ξ) = ξc + ξ²/2 - b
    # wherever the maximiser ξ + c lies in [-2, 2].
    for k, n in enumerate(LEGENDRE_SIZES):
        c = float(rng.uniform(-0.5, 0.5))
        b = float(rng.uniform(-1.0, 1.0))
        x = np.linspace(-2.0, 2.0, n)
        src = workdir / f"phi{k}.csv"
        _write_grid(src, [-2.0], [2.0], n, (x - c) ** 2 / 2.0 + b)
        out = workdir / f"phistar{k}.csv"
        xi = np.linspace(-2.0, 2.0, n)
        inside = np.abs(xi + c) <= 2.0
        jobs.append(dict(
            kind="legendre", label=f"legendre --mode fenchel N=M={n}",
            args={"argv": ["legendre", str(src), f"--xi=-2:2:{n}", "--mode", "fenchel",
                           "-o", str(out)], "out": str(out)},
            expect={"values": np.where(inside, xi * c + xi * xi / 2.0 - b, np.nan),
                    "tol": (2.0 + abs(c)) * 4.0 / (n - 1),
                    "head": (1, [-2.0], [2.0], n)},
        ))
    # Sup-convolution: -|x - a|²/2 ⊛ -|y - d|² = -|g - a - d|²/3, attained at
    # x* = a + 2(g - a - d)/3, wherever x* and g - x* lie in their boxes.
    p = CONVOLVE_SIZE
    for k in range(CONVOLVE_JOBS):
        a = rng.uniform(-0.3, 0.3, 2)
        d = rng.uniform(-0.3, 0.3, 2)
        gx, gy = np.meshgrid(*_axes([-1.0, -1.0], [1.0, 1.0], p), indexing="ij")
        src_a, src_b = workdir / f"conv_a{k}.csv", workdir / f"conv_b{k}.csv"
        _write_grid(src_a, [-1.0, -1.0], [1.0, 1.0], p, -((gx - a[0]) ** 2 + (gy - a[1]) ** 2) / 2.0)
        _write_grid(src_b, [-1.0, -1.0], [1.0, 1.0], p, -((gx - d[0]) ** 2 + (gy - d[1]) ** 2))
        q = 2 * p - 1
        g = np.meshgrid(*_axes([-2.0, -2.0], [2.0, 2.0], q), indexing="ij")
        shift = [gi - ai - di for gi, ai, di in zip(g, a, d)]
        xs = [ai + 2.0 * si / 3.0 for ai, si in zip(a, shift)]
        inside = np.ones(g[0].shape, dtype=bool)
        for gi, xi_ in zip(g, xs):
            inside &= (np.abs(xi_) <= 1.0) & (np.abs(gi - xi_) <= 1.0)
        exact = -(shift[0] ** 2 + shift[1] ** 2) / 3.0
        lipschitz = math.hypot(*(1.0 + np.abs(a))) + 2.0 * math.hypot(*(1.0 + np.abs(d)))
        out = workdir / f"conv_out{k}.csv"
        jobs.append(dict(
            kind="convolve", label=f"convolve 2-D p={p}",
            args={"argv": ["convolve", str(src_a), str(src_b), "-o", str(out)],
                  "out": str(out)},
            expect={"values": np.where(inside, exact, np.nan),
                    "tol": lipschitz * 2.0 / (p - 1),
                    "head": (2, [-2.0, -2.0], [2.0, 2.0], q)},
        ))
    return jobs


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------

def _cube_symmetry(rng, high: int):
    """A random symmetry of the cube ``[0, high]³``: permute the axes, reflect some."""
    perm = rng.permutation(3)
    flip = rng.integers(0, 2, 3).astype(bool)

    def apply(points) -> np.ndarray:
        pts = np.asarray(points, dtype=int)[:, perm]
        return np.where(flip, high - pts, pts)

    return apply


def _distinct_exponents(rng, count: int, dim: int, high: int, first=()) -> list[tuple]:
    chosen = [tuple(first)] if first else []
    while len(chosen) < count:
        e = tuple(int(v) for v in rng.integers(0, high + 1, dim))
        if e not in chosen:
            chosen.append(e)
    return chosen


def _geometry(rng, workdir: Path) -> list[dict]:
    jobs = []
    window = ",".join(repr(v) for v in WINDOW)
    line = workdir / "line.json"
    _write_json(line, {"dim": 2, "terms": [{"exp": e, "re": 1.0, "im": 0.0}
                                           for e in ([0, 0], [1, 0], [0, 1])]})
    spacing = (WINDOW[1] - WINDOW[0]) / (CONVERGE_SLICES - 1)
    for h in CONVERGE_H:
        out = workdir / f"converge_h{h}.csv"
        jobs.append(dict(
            kind="converge", label=f"converge 1+z1+z2 h={h}",
            args={"argv": ["converge", str(line), f"--window={window}", "--h", repr(h),
                           "--slices", str(CONVERGE_SLICES), "--angles", str(CONVERGE_ANGLES),
                           "-o", str(out)], "out": str(out)},
            expect={"h": h, "spacing": spacing},
        ))
    for k in range(AMOEBA_JOBS):
        exps = _distinct_exponents(rng, AMOEBA_TERMS, 2, 3, first=(0, 0))
        coeffs = np.exp(rng.uniform(-1.0, 1.0, AMOEBA_TERMS) + 1j * rng.uniform(0, 2 * math.pi, AMOEBA_TERMS))
        poly = workdir / f"amoeba{k}.json"
        _write_json(poly, {"dim": 2, "terms": [
            {"exp": list(e), "re": float(c.real), "im": float(c.imag)} for e, c in zip(exps, coeffs)]})
        out = workdir / f"amoeba{k}.csv"
        jobs.append(dict(
            kind="amoeba", label=f"amoeba {AMOEBA_TERMS} terms h={AMOEBA_H}",
            args={"argv": ["amoeba", str(poly), "--h", repr(AMOEBA_H), f"--window={window}",
                           "--slices", str(AMOEBA_SLICES), "--angles", str(AMOEBA_ANGLES),
                           "-o", str(out)], "out": str(out)},
            expect={"exps": np.array(exps, dtype=float), "log_moduli": np.log(np.abs(coeffs)),
                    "h": AMOEBA_H},
        ))
    for k, m in enumerate(CURVE_TERMS):
        exps = _distinct_exponents(rng, m, 2, 5)
        vals = rng.uniform(-3.0, 3.0, m)
        poly = workdir / f"curve{k}.json"
        _write_json(poly, {"dim": 2, "terms": [
            {"exp": list(e), "coeff": float(v)} for e, v in zip(exps, vals)]})
        out = workdir / f"curve{k}.json.out"
        jobs.append(dict(
            kind="tropical_curve", label=f"tropical-curve {m} terms",
            args={"argv": ["tropical-curve", str(poly), "-o", str(out)], "out": str(out)},
            expect={"exps": np.array(exps, dtype=float), "vals": vals},
        ))
    # The hull jobs' cost depends on the shape of the point set, so their base
    # sets are fixed and the seed draws a symmetry of the cube for each job:
    # every seed asks for congruent hulls, in other coordinates and orders.
    base = np.random.default_rng(BASE_SEED)
    for k, m in enumerate(NEWTON_TERMS):
        support = _distinct_exponents(base, m, 3, 4)
        exps = [tuple(int(c) for c in e) for e in _cube_symmetry(rng, 4)(support)]
        coeffs = rng.uniform(0.5, 2.0, m) * np.exp(1j * rng.uniform(0, 2 * math.pi, m))
        poly = workdir / f"newton{k}.json"
        _write_json(poly, {"dim": 3, "terms": [
            {"exp": list(e), "re": float(c.real), "im": float(c.imag)} for e, c in zip(exps, coeffs)]})
        out = workdir / f"newton{k}.json.out"
        jobs.append(dict(
            kind="newton", label=f"newton 3-D {m} terms",
            args={"argv": ["newton", str(poly), "-o", str(out)], "out": str(out)},
            expect={"vertices": extreme_points(exps)},
        ))
    for k in range(MINKOWSKI_JOBS):
        move = _cube_symmetry(rng, 4)
        p_pts = move(base.integers(0, 5, (MINKOWSKI_POINTS, 3)))
        q_pts = move(base.integers(0, 5, (MINKOWSKI_POINTS, 3)))
        src_p, src_q = workdir / f"mink_p{k}.json", workdir / f"mink_q{k}.json"
        _write_json(src_p, {"dim": 3, "vertices": p_pts.tolist()})
        _write_json(src_q, {"dim": 3, "vertices": q_pts.tolist()})
        sums = (p_pts[:, None, :] + q_pts[None, :, :]).reshape(-1, 3)
        out = workdir / f"mink{k}.json.out"
        jobs.append(dict(
            kind="minkowski", label="minkowski --op mul 3-D",
            args={"argv": ["minkowski", str(src_p), str(src_q), "--op", "mul", "-o", str(out)],
                  "out": str(out)},
            expect={"vertices": extreme_points(sums)},
        ))
    for k, (generator, scales, target, tol) in enumerate(FRACTAL_JOBS):
        out = workdir / f"fractal{k}.csv"
        jobs.append(dict(
            kind="fractal_dim", label=f"fractal-dim {generator}",
            args={"argv": ["fractal-dim", "--generator", generator, "--scales",
                           ",".join(str(s) for s in scales), "-o", str(out)],
                  "out": str(out)},
            expect={"slope": target, "tol": tol},
        ))
    return jobs
