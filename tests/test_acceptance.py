"""End-to-end acceptance audit.

One test per headline capability.  Each test checks the library against an
oracle computed independently inside this file, prints a one-line verdict
(visible with ``pytest -s``; for a failing test the line shows up in the
captured-output section of the report), and enforces a wall-clock budget so
performance regressions fail loudly.  Tolerances are spelled out here rather
than imported, so a change in the library cannot silently loosen them.

The convergence audit in test 8 checks the h·log 2 law.  The amoeba of
1 + z₁ + z₂ under Log_h lies within h·log 2 of the tropical line, and the
bound is attained at the boundary point (−h·log 2, −h·log 2), where
|z₁| = |z₂| = ½.  So the Hausdorff distance is exactly h·log 2, and the
sampled value may fall short of it only by the half slice spacing.  The
test pins the measured distance to that band at every h of its ladder.
"""
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import tropkit as tk

RNG_SEED = 20260823


def _verdict(num, name, ok, detail):
    print(f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} — {detail}")


def _dyadic(rng, n, bottom, p_bottom=0.03):
    """Values on the lattice 2⁻¹⁶·Z, with a sprinkling of the neutral element.

    On dyadic rationals float addition is exact, so the semiring laws for the
    (max, +) and (min, +) variants must hold bit for bit, not approximately.
    """
    vals = rng.integers(-(2**20), 2**20, size=n).astype(float) * 2.0**-16
    vals[rng.random(n) < p_bottom] = bottom
    return vals


# ---------------------------------------------------------------------------
# 1. semiring laws
# ---------------------------------------------------------------------------

def test_acceptance_1_semiring_laws():
    rng = np.random.default_rng(RNG_SEED)
    n = 10_000
    t0 = time.time()

    worst_exact = 0  # count of violated triples across the exact specs
    for spec in (tk.maxplus(), tk.minplus()):
        a = _dyadic(rng, n, spec.zero)
        b = _dyadic(rng, n, spec.zero)
        c = _dyadic(rng, n, spec.zero)
        laws = [
            spec.add(spec.add(a, b), c) == spec.add(a, spec.add(b, c)),
            spec.add(a, b) == spec.add(b, a),
            spec.add(a, a) == a,
            spec.mul(spec.mul(a, b), c) == spec.mul(a, spec.mul(b, c)),
            spec.mul(a, b) == spec.mul(b, a),
            spec.mul(a, spec.add(b, c)) == spec.add(spec.mul(a, b), spec.mul(a, c)),
            spec.add(a, np.full(n, spec.zero)) == a,
            spec.mul(a, np.full(n, spec.one)) == a,
            spec.mul(a, np.full(n, spec.zero)) == np.full(n, spec.zero),
        ]
        worst_exact += sum(int(n - law.sum()) for law in laws)

    def gap(lhs, rhs):
        # relative law defect; infinities must agree exactly
        same = lhs == rhs
        scale = np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
        with np.errstate(invalid="ignore"):
            g = np.where(same, 0.0, np.abs(lhs - rhs) / scale)
        return float(np.nanmax(g))

    worst_deformed = 0.0
    for h in (1.0, 0.1):
        spec = tk.subtropical(h)
        a = rng.uniform(-20.0, 20.0, size=n)
        b = rng.uniform(-20.0, 20.0, size=n)
        c = rng.uniform(-20.0, 20.0, size=n)
        for arr in (a, b, c):
            arr[rng.random(n) < 0.03] = spec.zero
        pairs = [
            (spec.add(spec.add(a, b), c), spec.add(a, spec.add(b, c))),
            (spec.add(a, b), spec.add(b, a)),
            (spec.mul(spec.mul(a, b), c), spec.mul(a, spec.mul(b, c))),
            (spec.mul(a, b), spec.mul(b, a)),
            (spec.mul(a, spec.add(b, c)), spec.add(spec.mul(a, b), spec.mul(a, c))),
            (spec.add(a, np.full(n, spec.zero)), a),
            (spec.mul(a, np.full(n, spec.one)), a),
            (spec.mul(a, np.full(n, spec.zero)), np.full(n, spec.zero)),
        ]
        worst_deformed = max(worst_deformed, max(gap(l, r) for l, r in pairs))

    elapsed = time.time() - t0
    ok = worst_exact == 0 and worst_deformed <= 1e-12 and elapsed < 5.0
    _verdict(
        1, "semiring laws", ok,
        f"exact violations {worst_exact}, deformed rel defect {worst_deformed:.2e}, "
        f"{elapsed:.1f}s",
    )
    assert worst_exact == 0
    assert worst_deformed <= 1e-12
    assert elapsed < 5.0


# ---------------------------------------------------------------------------
# 2. deformed addition stays within h·log 2 of max
# ---------------------------------------------------------------------------

def test_acceptance_2_deformation_bound():
    rng = np.random.default_rng(RNG_SEED + 1)
    n = 10_000
    violations = 0
    for h in (1.0, 0.1, 0.01):
        u = rng.uniform(-50.0, 50.0, size=n)
        v = rng.uniform(-50.0, 50.0, size=n)
        u[rng.random(n) < 0.02] = -np.inf
        s = tk.subtropical(h).add(u, v)
        m = np.maximum(u, v)
        violations += int(np.sum(s < m)) + int(np.sum(s > m + h * math.log(2.0)))
    ok = violations == 0
    _verdict(2, "deformation bound", ok, f"{violations} violations over 3×{n} pairs")
    assert violations == 0


# ---------------------------------------------------------------------------
# 3. path solvers agree with direct relaxation
# ---------------------------------------------------------------------------

def _bellman_ford(n, edges, source):
    dist = [math.inf] * n
    dist[source] = 0.0
    for _ in range(n - 1):
        changed = False
        for u, v, w in edges:
            if dist[u] + w < dist[v]:
                dist[v] = dist[u] + w
                changed = True
        if not changed:
            break
    return dist


def test_acceptance_3_path_solvers_agree():
    rng = np.random.default_rng(RNG_SEED + 2)
    mn = tk.minplus()
    t0 = time.time()
    for k in range(100):
        n = int(rng.integers(2, 51))
        H = np.full((n, n), np.inf)
        edges = {}
        for _ in range(int(rng.integers(n, 3 * n + 1))):
            u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
            if u == v:
                continue
            w = float(rng.integers(1, 101))
            if w < H[v, u]:
                H[v, u] = w  # adjacency transposed: column = source
                edges[(u, v)] = w
        source = int(rng.integers(0, n))
        F = np.full((n, 1), np.inf)
        F[source, 0] = 0.0
        ref = np.array(_bellman_ford(n, [(u, v, w) for (u, v), w in edges.items()], source))

        Hm = tk.SemiringMatrix(H, mn)
        Fm = tk.SemiringMatrix(F, mn)
        xj = tk.solve_bellman(Hm, Fm, method="jacobi").entries.ravel()
        xg = tk.solve_bellman(Hm, Fm, method="gauss-seidel").entries.ravel()
        xs = tk.mat_mul(tk.kleene_star(Hm), Fm).entries.ravel()
        # integer weights: agreement must be exact, not approximate
        assert np.array_equal(ref, xj), f"jacobi differs from relaxation on graph {k}"
        assert np.array_equal(xj, xg), f"gauss-seidel differs on graph {k}"
        assert np.array_equal(xj, xs), f"star solution differs on graph {k}"
    elapsed = time.time() - t0
    ok = elapsed < 30.0
    _verdict(3, "path solvers", ok, f"100 digraphs (n ≤ 50) bit-exact, {elapsed:.1f}s")
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# 4. Legendre duality on grids
# ---------------------------------------------------------------------------

def test_acceptance_4_legendre_duality():
    rng = np.random.default_rng(RNG_SEED + 3)
    mp = tk.maxplus()
    xdom = tk.GridDomain(-2.0, 2.0, 801)
    xidom = tk.GridDomain(-10.0, 10.0, 2001)
    x = xdom.axes()[0]
    tol = tk.grid_tolerance(xdom)

    def rand_piecewise(kind):
        # max (convex) or min (concave) of a few random affine pieces with
        # slopes inside the Lipschitz budget of grid_tolerance
        m = int(rng.integers(2, 6))
        slopes = rng.uniform(-8.0, 8.0, size=m)
        inters = rng.uniform(-1.0, 1.0, size=m)
        sheaf = slopes[:, None] * x[None, :] + inters[:, None]
        return np.max(sheaf, axis=0) if kind == "convex" else np.min(sheaf, axis=0)

    worst_bi = 0.0
    for _ in range(20):
        phi = tk.GridFunction(xdom, rand_piecewise("convex"), mp)
        star = tk.legendre_transform(phi, xidom, mode="fenchel")
        bi = tk.legendre_transform(star, xdom, mode="fenchel")
        worst_bi = max(worst_bi, float(np.max(np.abs(bi.values - phi.values))))

    worst_conv = 0.0
    for _ in range(20):
        phi = tk.GridFunction(xdom, rand_piecewise("concave"), mp)
        psi = tk.GridFunction(xdom, rand_piecewise("concave"), mp)
        conv = tk.sup_convolution(phi, psi)
        lhs = tk.legendre_transform(conv, xidom, mode="additive").values
        rhs = (
            tk.legendre_transform(phi, xidom, mode="additive").values
            + tk.legendre_transform(psi, xidom, mode="additive").values
        )
        worst_conv = max(worst_conv, float(np.max(np.abs(lhs - rhs))))

    ok = worst_bi <= tol and worst_conv <= 2.0 * tol
    _verdict(
        4, "Legendre duality", ok,
        f"biconjugation {worst_bi:.2e} ≤ {tol:.2g}, "
        f"convolution theorem {worst_conv:.2e} ≤ {2 * tol:.2g}",
    )
    assert worst_bi <= tol
    assert worst_conv <= 2.0 * tol


# ---------------------------------------------------------------------------
# 5. action evolution
# ---------------------------------------------------------------------------

def test_acceptance_5_action_evolution():
    mn = tk.minplus()
    mp = tk.maxplus()
    t0 = time.time()

    # (a) the step is linear over (min, +): exact for constants and for the
    # idempotent combination, within grid tolerance for shifted parabolas
    d = tk.GridDomain(-2.0, 2.0, 257)
    sysa = tk.MechanicalSystem((1.0,), 0.5, 0.5)
    r_const = tk.superposition_check(
        tk.GridFunction.constant(0.7, d, mn),
        tk.GridFunction.constant(-0.2, d, mn),
        0.3, 1.1, sysa,
    )
    same = tk.GridFunction.sample(np.abs, d, mn)
    r_idem = tk.superposition_check(same, same, 0.0, 0.0, sysa)
    r_quad = tk.superposition_check(
        tk.GridFunction.sample(lambda v: (v - 0.4) ** 2, d, mn),
        tk.GridFunction.sample(lambda v: (v + 0.9) ** 2, d, mn),
        0.35, -0.15, sysa,
    )
    lin_ok = (
        r_const.defect == 0.0
        and r_idem.defect == 0.0
        and r_quad.defect <= tk.grid_tolerance(d)
    )

    # (b) S₀ = x²/2 under free flow for one unit of time contracts to x²/4
    dom = tk.GridDomain(-1.0, 1.0, 2001)
    s0 = tk.GridFunction.sample(lambda v: v**2 / 2.0, dom, mn)
    out = tk.lax_oleinik_evolve(s0, tk.MechanicalSystem((1.0,), 1.0, 1.0))
    x = dom.axes()[0]
    err_b = float(np.max(np.abs(out.S.values - x**2 / 4.0)))

    # (c) the smoothed evolution dequantizes to the same limit, with an
    # error that shrinks monotonically as h does
    vdom = tk.GridDomain(-2.0, 2.0, 161)
    vsys = tk.MechanicalSystem((1.0,), 1.0, 1.0)
    xv = vdom.axes()[0]
    mid = np.abs(xv) <= 1.0
    errs = []
    for h in (0.2, 0.1, 0.05):
        u0 = tk.GridFunction.sample(lambda z: np.exp(-(z**2) / h), vdom, mp)
        s = tk.dequantize_solution(tk.viscous_solve(u0, vsys, h), h)
        errs.append(float(np.max(np.abs(s.values[mid] - (-(xv[mid] ** 2) / 3.0)))))
    mono_ok = errs[0] > errs[1] > errs[2]

    elapsed = time.time() - t0
    ok = lin_ok and err_b <= 2e-2 and mono_ok and elapsed < 60.0
    _verdict(
        5, "action evolution", ok,
        f"linearity defects ({r_const.defect:.1g}, {r_idem.defect:.1g}, "
        f"{r_quad.defect:.1e}), quadratic error {err_b:.1e}, "
        f"viscous errors {errs[0]:.3f} > {errs[1]:.3f} > {errs[2]:.3f}, {elapsed:.1f}s",
    )
    assert r_const.defect == 0.0 and r_idem.defect == 0.0
    assert r_quad.defect <= tk.grid_tolerance(d)
    assert err_b <= 2e-2
    assert mono_ok, f"errors not monotone: {errs}"
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 6. Newton polytopes three ways
# ---------------------------------------------------------------------------

def _random_poly(rng, dim, positive=False):
    nterms = int(rng.integers(2, 9))
    seen = {}
    while len(seen) < nterms:
        e = tuple(int(v) for v in rng.integers(0, 9, size=dim))
        c = float(rng.uniform(0.5, 3.0))
        seen[e] = c if positive else c * float(rng.choice([-1.0, 1.0]))
    return tk.SparsePolynomial(dim, list(seen.items()))


def test_acceptance_6_newton_polytopes():
    rng = np.random.default_rng(RNG_SEED + 4)
    t0 = time.time()

    for k in range(100):
        f = _random_poly(rng, int(rng.integers(1, 4)))
        assert tk.newton_polytope(f) == tk.subdifferential_at_origin(f), (
            f"subdifferential misses a vertex on instance {k}: {f.terms}"
        )
    for k in range(100):
        dim = int(rng.integers(1, 4))
        f, g = _random_poly(rng, dim), _random_poly(rng, dim)
        assert tk.newton_polytope(tk.poly_mul(f, g)) == tk.minkowski_mul(
            tk.newton_polytope(f), tk.newton_polytope(g)
        ), f"product homomorphism fails on pair {k}"
    for k in range(100):
        dim = int(rng.integers(1, 4))
        f, g = _random_poly(rng, dim, True), _random_poly(rng, dim, True)
        assert tk.newton_polytope(tk.poly_add(f, g)) == tk.minkowski_add(
            tk.newton_polytope(f), tk.newton_polytope(g)
        ), f"sum homomorphism fails on pair {k}"

    elapsed = time.time() - t0
    ok = elapsed < 30.0
    _verdict(
        6, "Newton polytopes", ok,
        f"100 subdifferential + 100 product + 100 sum instances exact, {elapsed:.1f}s",
    )
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# 7. dimension estimates
# ---------------------------------------------------------------------------

def test_acceptance_7_dimension_estimates():
    t0 = time.time()
    seg = tk.hb_dimension(tk.segment_points(16385), [2, 3, 4, 5, 6, 7, 8]).slope
    cantor = tk.hb_dimension(tk.cantor_endpoints(12), list(range(2, 13))).slope
    rng = np.random.default_rng(RNG_SEED + 5)
    finite = tk.hb_dimension(
        tk.PointCloud(rng.standard_normal((30, 2))), [8, 9, 10, 11]
    ).slope
    square = tk.hb_dimension(tk.square_points(513), [1, 2, 3, 4, 5, 6]).slope
    elapsed = time.time() - t0

    cantor_ref = math.log(2.0) / math.log(3.0)
    ok = (
        abs(seg - 1.0) <= 0.05
        and abs(cantor - cantor_ref) <= 0.05
        and abs(finite) <= 0.05
        and abs(square - 2.0) <= 0.1
        and elapsed < 60.0
    )
    _verdict(
        7, "dimension estimates", ok,
        f"segment {seg:.4f}, Cantor {cantor:.4f} (vs {cantor_ref:.4f}), "
        f"finite {finite:.4f}, square {square:.4f}, {elapsed:.1f}s",
    )
    assert abs(seg - 1.0) <= 0.05
    assert abs(cantor - cantor_ref) <= 0.05
    assert abs(finite) <= 0.05
    assert abs(square - 2.0) <= 0.1
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 8. amoeba degeneration to the corner locus
# ---------------------------------------------------------------------------

def test_acceptance_8_amoeba_convergence():
    f = tk.SparsePolynomial(2, [((0, 0), 1.0), ((1, 0), 1.0), ((0, 1), 1.0)])
    win = tk.Window(-3.0, 3.0, -3.0, 3.0)
    target = tk.tropical_variety(tk.tropical_data(f))
    ladder = (1.0, 0.5, 0.25, 0.125)
    slices = 200
    # The worst amoeba point is (−h·log 2, −h·log 2), at exactly h·log 2 from
    # the tropical line.  The phases include θ = π, where |z₂| = 1 − |z₁|, so
    # every slice carries its boundary point; near the maximum the distance
    # along that boundary changes at most as fast as x₁, so the nearest slice
    # falls short of h·log 2 by at most half the slice spacing.
    half_spacing = 0.5 * (win.xmax - win.xmin) / (slices - 1)
    t0 = time.time()

    distances = []
    for h in ladder:
        sample = tk.sample_amoeba(f, h, win, slices=slices, angle_samples=64)
        distances.append(tk.hausdorff_distance(sample, target, win))
    elapsed = time.time() - t0

    # independent residual certification on a subgrid of fibers: every
    # reported point must solve the curve to 1e-9 in the normalized sense
    worst_res = 0.0
    for h in ladder:
        for x1 in np.linspace(-3.0, 3.0, 25):
            thetas, roots, _ = tk.slice_roots(f, h, float(x1), 64)
            z1 = math.exp(x1 / h) * np.exp(1j * thetas)
            num = np.abs(1.0 + z1 + roots)
            den = 1.0 + np.abs(z1) + np.abs(roots)
            worst_res = max(worst_res, float(np.max(num / den)))

    log2 = math.log(2.0)
    off_law = [
        (h, d) for h, d in zip(ladder, distances)
        if not h * log2 - half_spacing <= d <= h * log2 + 1e-6
    ]
    decreasing = all(
        distances[i] >= distances[i + 1] - 1e-12 for i in range(len(distances) - 1)
    )
    d_final = distances[-1]
    ok = (
        worst_res <= 1e-9 and not off_law and decreasing
        and d_final <= 0.15 and elapsed < 120.0
    )
    _verdict(
        8, "amoeba convergence", ok,
        "d_H/h = " + ", ".join(f"{d / h:.4f} (h={h:g})" for h, d in zip(ladder, distances))
        + f" vs log 2 = {log2:.4f}, residuals ≤ {worst_res:.1e}, {elapsed:.1f}s",
    )
    assert worst_res <= 1e-9
    assert not off_law, (
        "d_H outside [h·log 2 − Δ/2, h·log 2] with Δ/2 = "
        f"{half_spacing:.4f}; the worst amoeba point sits near (−h·log 2, −h·log 2), "
        "exactly h·log 2 from the tropical line: "
        + ", ".join(f"h={h:g}: d_H={d:.4f} vs h·log 2={h * log2:.4f}" for h, d in off_law)
    )
    assert decreasing, f"distances not weakly decreasing: {distances}"
    assert elapsed < 120.0
    assert d_final <= 0.15, f"measured d_H(h={ladder[-1]:g}) = {d_final:.4f} > 0.15"


# ---------------------------------------------------------------------------
# 9. command-line interface is deterministic
# ---------------------------------------------------------------------------

# The directory holding the tropkit imported above: the CLI subprocesses run
# from a temporary directory, where a relative PYTHONPATH would not find it.
_TROPKIT_ROOT = str(Path(tk.__file__).resolve().parents[1])


def _cli(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_TROPKIT_ROOT, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-m", "tropkit.cli", *args],
        capture_output=True, cwd=cwd, env=env, timeout=300,
    )


def test_acceptance_9_cli_determinism(tmp_path):
    line = tmp_path / "line.json"
    line.write_text(json.dumps({
        "dim": 2,
        "terms": [
            {"exp": [1, 0], "re": 1.0},
            {"exp": [0, 1], "re": 1.0},
            {"exp": [0, 0], "re": 1.0},
        ],
    }))
    trop = tmp_path / "trop.json"
    trop.write_text(json.dumps({
        "dim": 2,
        "terms": [
            {"exp": [1, 0], "coeff": 0.0},
            {"exp": [0, 1], "coeff": 0.0},
            {"exp": [0, 0], "coeff": 0.0},
        ],
    }))
    graph = tmp_path / "graph.txt"
    graph.write_text("A B 1\nB C 2\nA C 5\nC D 1\n")
    ptope = tmp_path / "p.json"
    ptope.write_text(json.dumps({"dim": 2, "vertices": [[0, 0], [1, 0], [0, 1]]}))

    dom = tk.GridDomain(-2.0, 2.0, 161)
    phi = tmp_path / "phi.csv"
    tk.write_grid_csv(
        tk.GridFunction.sample(lambda x: -(x**2) / 2.0, dom, tk.maxplus()), phi
    )
    s0 = tmp_path / "s0.csv"
    tk.write_grid_csv(tk.GridFunction.sample(lambda x: x**2, dom, tk.minplus()), s0)
    u0 = tmp_path / "u0.csv"
    tk.write_grid_csv(
        tk.GridFunction.sample(lambda x: np.exp(-(x**2) / 0.1), dom, tk.maxplus()), u0
    )
    scen = tmp_path / "scen.txt"
    scen.write_text("masses 1.0\ndt 0.5\nhorizon 1.0\n")

    invocations = {
        "semiring-check": ["semiring-check", "--trials", "500", "--seed", "7"],
        "shortest-path": ["shortest-path", str(graph), "--source", "A"],
        "legendre": ["legendre", str(phi), "--xi=-1:1:41"],
        "convolve": ["convolve", str(phi), str(phi)],
        "hj-evolve": ["hj-evolve", str(scen), str(s0)],
        "hj-viscous": ["hj-viscous", str(scen), str(u0), "--h", "0.1", "--dequantize"],
        "dequantize": ["dequantize", str(line), "--point", "1,0", "--h", "1,0.1", "--limit"],
        "newton": ["newton", str(line)],
        "minkowski": ["minkowski", str(ptope), str(ptope), "--op", "mul"],
        "fractal-dim": ["fractal-dim", "--generator", "cantor 8", "--scales", "1,2,3,4,5,6"],
        "amoeba": ["amoeba", str(line), "--window=-3,3,-3,3", "--slices", "40", "--angles", "16"],
        "tropical-curve": ["tropical-curve", str(trop)],
        "converge": ["converge", str(line), "--window=-3,3,-3,3",
                     "--h", "1,0.5", "--slices", "30", "--angles", "16"],
    }

    unstable = []
    for name, args in invocations.items():
        first = _cli(args, tmp_path)
        second = _cli(args, tmp_path)
        if not (first.returncode == second.returncode == 0):
            unstable.append(f"{name} exited {first.returncode}/{second.returncode}")
        elif first.stdout != second.stdout:
            unstable.append(f"{name} stdout differs between runs")

    red_selftests = []
    for name in invocations:
        proc = _cli([name, "--selftest"], tmp_path)
        out = proc.stdout.decode()
        if proc.returncode != 0 or "FAIL" in out:
            red_selftests.append(name)

    ok = not unstable and not red_selftests
    _verdict(
        9, "CLI determinism", ok,
        f"{len(invocations)} commands, unstable {unstable}, "
        f"red self-tests {red_selftests}",
    )
    assert not unstable, f"nondeterministic commands: {unstable}"
    assert not red_selftests, f"failing self-tests: {red_selftests}"
