"""Command-line front end.

One subcommand per capability; every command accepts ``--selftest`` (runs its
built-in sanity examples and exits) and ``--output`` (file instead of stdout;
relative paths resolve against ``$TROPKIT_OUTPUT_DIR`` when set).
``semiring-check``, the one randomized command, also takes ``--seed``.  A
scenario file's ``convention`` names the semiring that ``hj-evolve`` reads
the initial action in; the action's semiring then drives the evolution.
Scalar output is printed with 12 significant digits; grid files use the
bit-exact CSV format.  Exit codes: 0 success, 1 domain error (divergence,
empty result, invalid parameter), 2 malformed input or usage.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import analysis, amoeba, dequantize, fractal, hamilton_jacobi, linalg, semiring
from .errors import DivergenceError, DomainTooSmallError, InputFormatError, ScaleRangeError
from .errors import _load_json

__all__ = ["main"]


def _fmt(x: float) -> str:
    if x == math.inf:
        return "inf"
    if x == -math.inf:
        return "-inf"
    return f"{x:.12g}"


def _resolve_output(text: str | None) -> Path | None:
    if text is None:
        return None
    p = Path(text)
    if not p.is_absolute():
        base = os.environ.get("TROPKIT_OUTPUT_DIR")
        if base:
            p = Path(base) / p
    return p


def _emit(args, text: str) -> None:
    path = _resolve_output(args.output)
    if path is None:
        sys.stdout.write(text)
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")


def _write_svg(args, text: str) -> None:
    if getattr(args, "svg", None):
        path = _resolve_output(args.svg)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")


def _parse_float_list(text: str) -> list[float]:
    vals = [float(t) for t in text.replace(",", " ").split() if t]
    if not vals:
        raise ValueError("empty number list")
    return vals


def _parse_grid_domain(text: str) -> analysis.GridDomain:
    axes = [a for a in text.split(",") if a]
    lowers, uppers = [], []
    points = None
    for ax in axes:
        parts = ax.split(":")
        if len(parts) != 3:
            raise ValueError(f"axis spec {ax!r} must be lo:hi:points")
        lowers.append(float(parts[0]))
        uppers.append(float(parts[1]))
        p = int(parts[2])
        if points is None:
            points = p
        elif p != points:
            raise ValueError("all axes must share one point count")
    return analysis.GridDomain(lowers, uppers, points)


def _spec_by_name(name: str) -> semiring.Semiring:
    if name == "maxplus":
        return semiring.maxplus()
    if name == "minplus":
        return semiring.minplus()
    raise ValueError(f"unknown convention {name!r}")


def _require(args, *names) -> None:
    for name in names:
        if getattr(args, name) is None:
            raise InputFormatError(f"missing required argument {name!r}")


def _parse_scenario(path) -> tuple[hamilton_jacobi.MechanicalSystem, semiring.Semiring]:
    """Key-value scenario file: the system, and the semiring ``convention`` names."""
    fields: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.strip()
            if not text or text.startswith("#"):
                continue
            key, _, value = text.partition(" ")
            if not value.strip():
                raise InputFormatError(
                    f"expected 'key value', got {text!r}", path=str(path), line=lineno
                )
            fields[key.lower()] = value.strip()
    for required in ("masses", "dt", "horizon"):
        if required not in fields:
            raise InputFormatError(f"scenario lacks {required!r}", path=str(path))
    try:
        masses = _parse_float_list(fields["masses"])
        potential = hamilton_jacobi.builtin_potential(fields.get("potential", "zero"))
        system = hamilton_jacobi.MechanicalSystem(
            masses=tuple(masses),
            dt=float(fields["dt"]),
            horizon=float(fields["horizon"]),
            potential=potential,
        )
        return system, _spec_by_name(fields.get("convention", "minplus"))
    except ValueError as exc:
        raise InputFormatError(str(exc), path=str(path)) from None


def _read_tropical_poly(path) -> amoeba.TropicalPolynomial:
    obj = _load_json(path)
    try:
        terms = [(tuple(int(e) for e in t["exp"]), float(t["coeff"])) for t in obj["terms"]]
        return amoeba.TropicalPolynomial(int(obj["dim"]), tuple(terms))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputFormatError(f"malformed tropical polynomial JSON: {exc}", path=str(path)) from None


# ---------------------------------------------------------------------------
# semiring-check
# ---------------------------------------------------------------------------

def _law_gap(lhs: np.ndarray, rhs: np.ndarray, relative: bool) -> float:
    equal = lhs == rhs  # covers matching infinities
    with np.errstate(invalid="ignore"):
        diff = np.abs(lhs - rhs)
    diff = np.where(equal, 0.0, diff)
    if np.isnan(diff).any():
        return math.inf
    if relative:
        scale = np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
        diff = diff / scale
    return float(diff.max())


def _law_rows(spec: semiring.Semiring, a, b, c, relative: bool):
    add, mul = spec.add, spec.mul
    rows = [
        ("add_assoc", _law_gap(add(add(a, b), c), add(a, add(b, c)), relative)),
        ("add_comm", _law_gap(add(a, b), add(b, a), relative)),
        ("mul_assoc", _law_gap(mul(mul(a, b), c), mul(a, mul(b, c)), relative)),
        ("mul_comm", _law_gap(mul(a, b), mul(b, a), relative)),
        ("distrib_left", _law_gap(mul(a, add(b, c)), add(mul(a, b), mul(a, c)), relative)),
        ("distrib_right", _law_gap(mul(add(a, b), c), add(mul(a, c), mul(b, c)), relative)),
        ("add_zero", _law_gap(add(a, np.full_like(a, spec.zero)), a, relative)),
        ("mul_one", _law_gap(mul(a, np.zeros_like(a)), a, relative)),
        ("mul_zero", _law_gap(mul(a, np.full_like(a, spec.zero)), np.full_like(a, spec.zero), relative)),
    ]
    if spec.is_idempotent:
        rows.insert(2, ("add_idempotent", _law_gap(add(a, a), a, relative)))
    return rows


def _dyadic_triples(rng: np.random.Generator, n: int, bottom: float):
    # dyadic lattice values make float ⊙ exactly associative
    scale = 2.0**-16
    vals = [rng.integers(-(1 << 22), 1 << 22, size=n).astype(float) * scale for _ in range(3)]
    for v in vals:
        v[rng.random(n) < 0.03] = bottom
    return vals


def cmd_semiring_check(args) -> int:
    if args.selftest:
        return _run_selftest("semiring-check", _selftest_semiring)
    rng = np.random.default_rng(args.seed)
    n = args.trials
    lines = ["check,spec,trials,max_error,status"]
    ok = True

    for spec in (semiring.maxplus(), semiring.minplus()):
        a, b, c = _dyadic_triples(rng, n, spec.zero)
        for name, gap in _law_rows(spec, a, b, c, relative=False):
            good = gap == 0.0
            ok &= good
            lines.append(
                f"{name},{spec.variant},{n},{_fmt(gap)},{'ok' if good else 'FAIL'}"
            )

    for h in _parse_float_list(args.h):
        spec = semiring.subtropical(h)
        a, b, c = _dyadic_triples(rng, n, -math.inf)
        for name, gap in _law_rows(spec, a, b, c, relative=True):
            good = gap <= 1e-12
            ok &= good
            lines.append(
                f"{name},subtropical(h={h:g}),{n},{_fmt(gap)},{'ok' if good else 'FAIL'}"
            )
        # deformation sandwich: max(u,v) <= u ⊕_h v <= max(u,v) + h·log 2
        u = rng.uniform(-50, 50, size=n)
        v = rng.uniform(-50, 50, size=n)
        smooth = semiring.subtropical_add(u, v, h)
        hi = np.maximum(u, v)
        violations = int(np.sum((smooth < hi) | (smooth > hi + h * math.log(2.0))))
        good = violations == 0
        ok &= good
        lines.append(
            f"deformation_bound,subtropical(h={h:g}),{n},{violations},{'ok' if good else 'FAIL'}"
        )

    _emit(args, "\n".join(lines) + "\n")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# shortest-path
# ---------------------------------------------------------------------------

def cmd_shortest_path(args) -> int:
    if args.selftest:
        return _run_selftest("shortest-path", _selftest_shortest_path)
    _require(args, "graph", "source")
    nodes, edges = linalg.read_edge_list(args.graph)
    dist = linalg.shortest_path_distances(nodes, edges, args.source)
    lines = ["node,distance"]
    lines.extend(f"{n},{_fmt(d)}" for n, d in zip(nodes, dist))
    _emit(args, "\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# legendre / convolve
# ---------------------------------------------------------------------------

def cmd_legendre(args) -> int:
    if args.selftest:
        return _run_selftest("legendre", _selftest_legendre)
    _require(args, "grid", "xi")
    phi = analysis.read_grid_csv(args.grid, semiring.maxplus())
    xi_dom = _parse_grid_domain(args.xi)
    out = analysis.legendre_transform(phi, xi_dom, mode=args.mode)
    _emit(args, analysis.grid_csv_text(out))
    return 0


def cmd_convolve(args) -> int:
    if args.selftest:
        return _run_selftest("convolve", _selftest_convolve)
    _require(args, "grid_a", "grid_b")
    spec = _spec_by_name(args.spec)
    phi = analysis.read_grid_csv(args.grid_a, spec)
    psi = analysis.read_grid_csv(args.grid_b, spec)
    out = analysis.sup_convolution(phi, psi)
    _emit(args, analysis.grid_csv_text(out))
    return 0


# ---------------------------------------------------------------------------
# hj-evolve / hj-viscous
# ---------------------------------------------------------------------------

def cmd_hj_evolve(args) -> int:
    if args.selftest:
        return _run_selftest("hj-evolve", _selftest_hj_evolve)
    _require(args, "scenario", "initial")
    sys_, spec = _parse_scenario(args.scenario)
    initial = analysis.read_grid_csv(args.initial, spec)
    state = hamilton_jacobi.lax_oleinik_evolve(initial, sys_)
    _emit(args, analysis.grid_csv_text(state.S))
    return 0


def cmd_hj_viscous(args) -> int:
    if args.selftest:
        return _run_selftest("hj-viscous", _selftest_hj_viscous)
    _require(args, "scenario", "initial")
    sys_, _ = _parse_scenario(args.scenario)
    initial = analysis.read_grid_csv(args.initial, semiring.maxplus())
    if args.dequantize:  # stay in S = h·log u, never forming e^{S/h}
        out = hamilton_jacobi._viscous_action(initial, sys_, args.h).S
    else:
        out = hamilton_jacobi.viscous_solve(initial, sys_, args.h)
    _emit(args, analysis.grid_csv_text(out))
    return 0


# ---------------------------------------------------------------------------
# dequantize / newton / minkowski
# ---------------------------------------------------------------------------

def cmd_dequantize(args) -> int:
    if args.selftest:
        return _run_selftest("dequantize", _selftest_dequantize)
    _require(args, "poly", "point")
    f = dequantize.read_poly_json(args.poly)
    x = _parse_float_list(args.point)
    lines = []
    if args.h is not None:
        for h in _parse_float_list(args.h):
            lines.append(f"{_fmt(h)},{_fmt(dequantize.dequantize_at(f, h, x))}")
    if args.limit or args.h is None:
        lines.append(f"limit,{_fmt(dequantize.dequantize_limit(f, x))}")
    _emit(args, "h,value\n" + "\n".join(lines) + "\n")
    return 0


def _polytope_json_text(p) -> str:
    from .polytope import polytope_to_json

    return json.dumps(polytope_to_json(p), indent=2) + "\n"


def cmd_newton(args) -> int:
    if args.selftest:
        return _run_selftest("newton", _selftest_newton)
    _require(args, "poly")
    f = dequantize.read_poly_json(args.poly)
    p = dequantize.newton_polytope(f)
    _emit(args, _polytope_json_text(p))
    if getattr(args, "svg", None) and p.dim == 2:
        from .svgplot import polygon_svg

        _write_svg(args, polygon_svg([(float(a), float(b)) for a, b in p.vertices]))
    return 0


def cmd_minkowski(args) -> int:
    if args.selftest:
        return _run_selftest("minkowski", _selftest_minkowski)
    _require(args, "poly_p", "poly_q")
    from .polytope import minkowski_add, minkowski_mul, polytope_from_json

    operands = []
    for path in (args.poly_p, args.poly_q):
        obj = _load_json(path)
        try:
            operands.append(polytope_from_json(obj))
        except ValueError as exc:
            raise InputFormatError(str(exc), path=str(path)) from None
    out = (minkowski_mul if args.op == "mul" else minkowski_add)(*operands)
    _emit(args, _polytope_json_text(out))
    return 0


# ---------------------------------------------------------------------------
# fractal-dim
# ---------------------------------------------------------------------------

def _generated_cloud(text: str) -> fractal.PointCloud:
    parts = text.split()
    if len(parts) != 2:
        raise ValueError("generator must be 'name N' (segment/cantor/sierpinski/square)")
    name, num = parts[0].lower(), int(parts[1])
    if name == "segment":
        return fractal.segment_points(num)
    if name == "cantor":
        return fractal.cantor_endpoints(num)
    if name == "sierpinski":
        return fractal.sierpinski_points(num)
    if name == "square":
        return fractal.square_points(num)
    raise ValueError(f"unknown generator {name!r}")


def cmd_fractal_dim(args) -> int:
    if args.selftest:
        return _run_selftest("fractal-dim", _selftest_fractal_dim)
    _require(args, "scales")
    s_values = _parse_float_list(args.scales)
    if args.point is not None:
        if args.cloud is None:
            raise InputFormatError("local dimension needs a measure CSV input")
        mu = fractal.read_sampled_measure(args.cloud)
        est = fractal.local_dimension(mu, _parse_float_list(args.point), s_values)
    else:
        if args.generator is not None:
            cloud = _generated_cloud(args.generator)
        elif args.cloud is not None:
            cloud = fractal.read_point_cloud(args.cloud)
        else:
            raise InputFormatError("need a point-cloud CSV or --generator")
        est = fractal.hb_dimension(cloud, s_values)
    lines = [f"slope,{_fmt(est.slope)}"]
    if est.offset_slope is not None:
        lines.append(f"offset_slope,{_fmt(est.offset_slope)}")
    lines.append("s,log_count,ratio")
    for s, lc, r in zip(est.s_values, est.log_counts, est.per_scale):
        lines.append(f"{_fmt(s)},{_fmt(lc)},{_fmt(r)}")
    _emit(args, "\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# amoeba / tropical-curve / converge
# ---------------------------------------------------------------------------

def cmd_amoeba(args) -> int:
    if args.selftest:
        return _run_selftest("amoeba", _selftest_amoeba)
    _require(args, "poly", "window")
    f = dequantize.read_poly_json(args.poly)
    window = amoeba.Window.parse(args.window)
    sample = amoeba.sample_amoeba(f, args.h, window, args.slices, args.angles)
    lines = ["x1,x2"]
    lines.extend(f"{_fmt(p[0])},{_fmt(p[1])}" for p in sample.points)
    _emit(args, "\n".join(lines) + "\n")
    if getattr(args, "svg", None):
        from .svgplot import svg_scene

        _write_svg(args, svg_scene(window, points=sample.points))
    return 0


def cmd_tropical_curve(args) -> int:
    if args.selftest:
        return _run_selftest("tropical-curve", _selftest_tropical_curve)
    _require(args, "poly")
    tf = _read_tropical_poly(args.poly)
    pl = amoeba.tropical_variety(tf)
    _emit(args, json.dumps(pl.to_json(), indent=2) + "\n")
    if getattr(args, "svg", None):
        from .svgplot import svg_scene

        window = amoeba.Window.parse(args.window) if args.window else amoeba.Window(-5, 5, -5, 5)
        _write_svg(args, svg_scene(window, pl_set=pl))
    return 0


def cmd_converge(args) -> int:
    if args.selftest:
        return _run_selftest("converge", _selftest_converge)
    _require(args, "poly", "window")
    f = dequantize.read_poly_json(args.poly)
    window = amoeba.Window.parse(args.window)
    h_values = _parse_float_list(args.h)
    rows = amoeba.convergence_study(f, h_values, window, args.slices, args.angles)
    lines = ["h,hausdorff"]
    lines.extend(f"{_fmt(h)},{_fmt(d)}" for h, d in rows)
    _emit(args, "\n".join(lines) + "\n")
    if getattr(args, "svg", None):
        from .svgplot import svg_scene

        h_last = h_values[-1]
        sample = amoeba.sample_amoeba(
            amoeba.deform_polynomial(f, h_last), h_last, window, args.slices, args.angles
        )
        spine = amoeba.tropical_variety(amoeba.tropical_data(f))
        _write_svg(args, svg_scene(window, points=sample.points, pl_set=spine))
    return 0


# ---------------------------------------------------------------------------
# selftests: the documented trivial identities, runnable offline
# ---------------------------------------------------------------------------

def _run_selftest(name: str, fn) -> int:
    checks = fn()
    bad = [desc for desc, good in checks if not good]
    for desc, good in checks:
        print(f"{'ok' if good else 'FAIL'} - {desc}")
    print(f"selftest {name}: {'ok' if not bad else 'FAILED'} ({len(checks)} checks)")
    return 0 if not bad else 1


def _selftest_semiring():
    mp, mn = semiring.maxplus(), semiring.minplus()
    return [
        ("maxplus 3 ⊕ 5 = 5", mp.add(3.0, 5.0) == 5.0),
        ("maxplus u ⊕ -inf = u", mp.add(2.5, -math.inf) == 2.5),
        ("minplus 3 ⊕ 5 = 3", mn.add(3.0, 5.0) == 3.0),
        ("⊙ is +: 3 ⊙ 5 = 8", mp.mul(3.0, 5.0) == 8.0),
        ("bottom absorbs: x ⊙ -inf = -inf", mp.mul(7.0, -math.inf) == -math.inf),
        ("unit: x ⊙ 0 = x", mp.mul(7.25, 0.0) == 7.25),
        ("maxplus order 2 ≼ 5", mp.leq(2.0, 5.0)),
        ("minplus order has 5 ≼ 2", mn.leq(5.0, 2.0) and not mn.leq(2.0, 5.0)),
        ("bottom is least", mp.leq(-math.inf, -1e9)),
        ("smoothed 0 ⊕_1 0 = log 2", semiring.subtropical_add(0.0, 0.0, 1.0) == math.log(2.0)),
        ("smoothed u ⊕_h -inf = u", semiring.subtropical_add(1.5, -math.inf, 0.3) == 1.5),
    ]


def _selftest_shortest_path():
    mn = semiring.minplus()
    a = linalg.SemiringMatrix([[1.0, 2.0], [3.0, 4.0]], mn)
    zero = linalg.SemiringMatrix.zeros(2, 2, mn)
    eye = linalg.SemiringMatrix.identity(2, mn)
    f = linalg.SemiringMatrix([[0.0], [math.inf]], mn)
    star_ok = linalg.kleene_star(
        linalg.SemiringMatrix([[-0.5]], semiring.maxplus())
    ).entries[0, 0] == 0.0  # a ≤ 0 over max-plus collapses to the unit
    try:
        linalg.kleene_star(linalg.SemiringMatrix([[1.0]], semiring.maxplus()))
        diverged = False
    except DivergenceError:
        diverged = True
    return [
        ("A ⊕ A = A", linalg.mat_add(a, a) == a),
        ("I ⊙ A = A", linalg.mat_mul(eye, a) == a),
        ("A ⊙ 0 = 0", linalg.mat_mul(a, zero) == zero),
        ("H = 0 gives X = F", linalg.solve_bellman(zero, f) == f),
        ("1x1 star of a ≤ 0 is the unit", star_ok),
        ("positive self-loop diverges", diverged),
    ]


def _selftest_legendre():
    dom = analysis.GridDomain(-1.0, 1.0, 41)
    bottom = analysis.GridFunction.constant(-math.inf, dom, semiring.maxplus())
    xi = analysis.GridDomain(-2.0, 2.0, 21)
    out = analysis.legendre_transform(bottom, xi)
    const = analysis.GridFunction.constant(2.5, dom, semiring.maxplus())
    lin = analysis.GridFunction.sample(lambda x: x, analysis.GridDomain(0.0, 1.0, 11), semiring.minplus())
    return [
        ("transform of ≡ -inf is ≡ -inf", bool(np.all(np.isneginf(out.values)))),
        ("sup of a constant is the constant", analysis.idempotent_integral(const) == 2.5),
        ("min-plus integral of x on [0,1] is 0", analysis.idempotent_integral(lin) == 0.0),
    ]


def _selftest_convolve():
    dom = analysis.GridDomain(0.0, 1.0, 5)
    mp = semiring.maxplus()
    phi = analysis.GridFunction(dom, [0.0, -1.0, -2.0, -3.0, -4.0], mp)
    delta = analysis.GridFunction(
        analysis.GridDomain(0.0, 0.5, 3), [0.0, -math.inf, -math.inf], mp
    )
    out = analysis.sup_convolution(phi, delta)
    ab = analysis.sup_convolution(phi, phi)
    ba = analysis.sup_convolution(phi, phi)
    return [
        ("unit spike reproduces φ on the overlap", bool(np.array_equal(out.values[:5], phi.values))),
        ("commutativity on a fixed grid", bool(np.array_equal(ab.values, ba.values))),
    ]


def _selftest_hj_evolve():
    dom = analysis.GridDomain(-2.0, 2.0, 65)
    mn = semiring.minplus()
    zero_fn = analysis.GridFunction.constant(0.0, dom, mn)
    sys_free = hamilton_jacobi.MechanicalSystem((1.0,), 0.5, 1.0)
    flat = hamilton_jacobi.lax_oleinik_evolve(zero_fn, sys_free)
    sys_const = hamilton_jacobi.MechanicalSystem(
        (1.0,), 0.5, 1.0, potential=lambda x: np.full_like(x, 0.5)
    )
    lifted = hamilton_jacobi.lax_oleinik_evolve(zero_fn, sys_const)
    report = hamilton_jacobi.superposition_check(zero_fn, zero_fn, 0.0, 0.0, sys_free)
    return [
        ("free flat action stays flat", bool(np.all(flat.S.values == 0.0))),
        ("constant potential adds c·t", bool(np.all(lifted.S.values == 0.5))),
        ("superposition defect 0 on identical inputs", report.defect == 0.0),
    ]


def _selftest_hj_viscous():
    dom = analysis.GridDomain(-1.0, 1.0, 33)
    ones = analysis.GridFunction.constant(1.0, dom, semiring.maxplus())
    sys_ = hamilton_jacobi.MechanicalSystem((1.0,), 0.25, 0.5)
    u = hamilton_jacobi.viscous_solve(ones, sys_, h=0.1)
    s = hamilton_jacobi.dequantize_solution(u, h=0.1)
    return [
        ("u ≡ 1 is an equilibrium", bool(np.allclose(u.values, 1.0, atol=1e-12))),
        ("h·log u ≡ 0", bool(np.allclose(s.values, 0.0, atol=1e-12))),
    ]


def _selftest_dequantize():
    mono = dequantize.SparsePolynomial(1, (((2,), 3.0),))
    x = [1.5]
    h = 0.7
    expect = 2 * 1.5 + h * math.log(3.0)
    cancel = dequantize.SparsePolynomial(1, (((0,), 1.0), ((1,), -1.0)))
    const = dequantize.SparsePolynomial(1, (((0,), 1.0),))
    return [
        (
            "monomial transform is exactly ⟨a,x⟩ + h·log|c|",
            dequantize.dequantize_at(mono, h, x) == expect,
        ),
        ("1 - x cancels at the origin", dequantize.dequantize_at(cancel, 1.0, [0.0]) == -math.inf),
        ("unit constant maps to 0", dequantize.dequantize_at(const, 0.5, [0.0]) == 0.0),
        ("limit of a monomial is ⟨a,x⟩", dequantize.dequantize_limit(mono, x) == 3.0),
    ]


def _selftest_newton():
    from .polytope import Polytope

    mono = dequantize.SparsePolynomial(2, (((3, 1), 2.0),))
    line = dequantize.SparsePolynomial(1, (((0,), 1.0), ((1,), 1.0)))
    return [
        ("monomial gives a point", dequantize.newton_polytope(mono) == Polytope(2, [(3, 1)])),
        ("1 + x gives [0, 1]", dequantize.newton_polytope(line) == Polytope(1, [(0,), (1,)])),
    ]


def _selftest_minkowski():
    from .polytope import Polytope, minkowski_add, minkowski_mul

    tri = Polytope(2, [(0, 0), (1, 0), (0, 1)])
    origin = Polytope(2, [(0, 0)])
    return [
        ("P ⊙ {0} = P", minkowski_mul(tri, origin) == tri),
        ("P ⊕ P = P", minkowski_add(tri, tri) == tri),
    ]


def _selftest_fractal_dim():
    single = fractal.PointCloud(np.array([[0.2, 0.4]]))
    pair = fractal.PointCloud(np.array([[0.0], [10.0]]))
    finite = fractal.PointCloud(np.linspace(0.0, 1.0, 8)[:, None])
    est = fractal.hb_dimension(finite, [4.0, 5.0, 6.0, 7.0])
    return [
        ("one point occupies one box", fractal.covering_number(single, 0.3) == 1),
        ("two distant points occupy two boxes", fractal.covering_number(pair, 0.5) == 2),
        ("finite sets have slope ≈ 0", abs(est.slope) <= 0.05),
        ("segment 1-ball volume is 2", abs(fractal.ball_volume(1, 1.0) - 2.0) < 1e-12),
        ("disc volume is π·ρ²", abs(fractal.ball_volume(2, 1.0) - math.pi) < 1e-12),
    ]


def _selftest_amoeba():
    line = dequantize.SparsePolynomial(2, (((1, 0), 1.0), ((0, 1), 1.0), ((0, 0), 1.0)))
    mono = dequantize.SparsePolynomial(2, (((1, 1), 2.0),))
    pts = amoeba.amoeba_slice(line, 1.0, 0.0, 3)
    hit_origin = bool(np.any(np.linalg.norm(pts, axis=1) < 1e-9)) if pts.size else False
    win = amoeba.Window(-2, 2, -2, 2)
    empty = amoeba.sample_amoeba(mono, 1.0, win, 16, 8)
    none = amoeba.sample_amoeba(line, 1.0, win, 0, 8)
    return [
        ("unit line slice passes through the origin", hit_origin),
        ("monomials have empty amoebas", empty.points.shape[0] == 0),
        ("zero slices give an empty sample", none.points.shape[0] == 0),
    ]


def _selftest_tropical_curve():
    two = amoeba.TropicalPolynomial(2, (((1, 0), 0.0), ((0, 0), 0.0)))
    pl = amoeba.tropical_variety(two)
    dirs = sorted(d for _, d in pl.rays)
    return [
        ("two balanced terms give a full tie line", len(pl.vertices) == 1 and len(pl.edges) == 0),
        ("the line splits into two opposite rays", dirs == [(0, -1), (0, 1)]),
        ("tie line of x vs 1 is vertical through 0", pl.vertices[0][0] == 0.0),
    ]


def _selftest_converge():
    line = dequantize.SparsePolynomial(2, (((1, 0), 1.0), ((0, 1), 1.0), ((0, 0), 1.0)))
    mono = dequantize.SparsePolynomial(2, (((2, 1), 1.0),))
    try:
        amoeba.convergence_study(mono, [1.0], amoeba.Window(-2, 2, -2, 2), 8, 8)
        raised = False
    except ValueError:
        raised = True
    return [
        ("one-term input has no variety (error)", raised),
        ("deformation at h = 1 is the identity", amoeba.deform_polynomial(line, 1.0) is line),
    ]


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common(sub, svg: bool = False) -> None:
    sub.add_argument("--output", "-o", default=None, help="write here instead of stdout")
    sub.add_argument("--selftest", action="store_true", help="run built-in sanity examples and exit")
    if svg:
        sub.add_argument("--svg", default=None, help="also write an SVG preview here")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tropkit",
        description="Tropical semirings, idempotent analysis and dequantization numerics.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("semiring-check", help="randomized semiring-law audit")
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--h", default="1,0.1", help="comma list of deformation parameters")
    p.add_argument("--seed", type=int, default=0, help="RNG seed for randomized checks")
    _add_common(p)
    p.set_defaults(func=cmd_semiring_check)

    p = subs.add_parser("shortest-path", help="single-source distances on an edge list")
    p.add_argument("graph", nargs="?", help="edge-list file: 'src dst weight' per line")
    p.add_argument("--source", default=None)
    _add_common(p)
    p.set_defaults(func=cmd_shortest_path)

    p = subs.add_parser("legendre", help="Legendre-type transform of a grid function")
    p.add_argument("grid", nargs="?", help="grid CSV of a max-plus function")
    p.add_argument("--xi", default=None, help="dual grid lo:hi:points[,lo:hi:points]")
    p.add_argument("--mode", choices=("additive", "fenchel"), default="additive")
    _add_common(p)
    p.set_defaults(func=cmd_legendre)

    p = subs.add_parser("convolve", help="idempotent convolution of two grid functions")
    p.add_argument("grid_a", nargs="?")
    p.add_argument("grid_b", nargs="?")
    p.add_argument("--spec", choices=("maxplus", "minplus"), default="maxplus")
    _add_common(p)
    p.set_defaults(func=cmd_convolve)

    p = subs.add_parser("hj-evolve", help="semigroup evolution of an action function")
    p.add_argument("scenario", nargs="?", help="key-value scenario file")
    p.add_argument("initial", nargs="?", help="grid CSV of the initial action")
    _add_common(p)
    p.set_defaults(func=cmd_hj_evolve)

    p = subs.add_parser("hj-viscous", help="smoothed (parabolic) evolution")
    p.add_argument("scenario", nargs="?")
    p.add_argument("initial", nargs="?", help="grid CSV of a positive initial profile")
    p.add_argument("--h", type=float, default=0.1)
    p.add_argument("--dequantize", action="store_true", help="emit h·log u instead of u")
    _add_common(p)
    p.set_defaults(func=cmd_hj_viscous)

    p = subs.add_parser("dequantize", help="log-log rescaling of a sparse polynomial")
    p.add_argument("poly", nargs="?", help="polynomial JSON")
    p.add_argument("--point", default=None, help="evaluation point, comma separated")
    p.add_argument("--h", default=None, help="comma list of h values")
    p.add_argument("--limit", action="store_true", help="also print the h → 0 limit")
    _add_common(p)
    p.set_defaults(func=cmd_dequantize)

    p = subs.add_parser("newton", help="Newton polytope of a sparse polynomial")
    p.add_argument("poly", nargs="?")
    _add_common(p, svg=True)
    p.set_defaults(func=cmd_newton)

    p = subs.add_parser("minkowski", help="Minkowski sum / hull-of-union of polytopes")
    p.add_argument("poly_p", nargs="?")
    p.add_argument("poly_q", nargs="?")
    p.add_argument("--op", choices=("mul", "add"), default="mul")
    _add_common(p)
    p.set_defaults(func=cmd_minkowski)

    p = subs.add_parser("fractal-dim", help="covering-number dimension estimates")
    p.add_argument("cloud", nargs="?", help="point-cloud CSV (or measure CSV with --point)")
    p.add_argument("--generator", default=None, help="'segment N' | 'cantor D' | 'sierpinski D' | 'square N'")
    p.add_argument("--scales", default=None, help="comma list of s values (ρ = e^-s)")
    p.add_argument("--point", default=None, help="probe point: estimate the local dimension")
    _add_common(p)
    p.set_defaults(func=cmd_fractal_dim)

    p = subs.add_parser("amoeba", help="sample the amoeba of a plane curve")
    p.add_argument("poly", nargs="?")
    p.add_argument("--h", type=float, default=1.0)
    p.add_argument("--window", default=None, help="xmin,xmax,ymin,ymax")
    p.add_argument("--slices", type=int, default=200)
    p.add_argument("--angles", type=int, default=64)
    _add_common(p, svg=True)
    p.set_defaults(func=cmd_amoeba)

    p = subs.add_parser("tropical-curve", help="corner locus of a tropical polynomial")
    p.add_argument("poly", nargs="?", help="tropical polynomial JSON")
    p.add_argument("--window", default=None, help="window for the SVG preview")
    _add_common(p, svg=True)
    p.set_defaults(func=cmd_tropical_curve)

    p = subs.add_parser("converge", help="Hausdorff distance of deformed amoebas to the tropical limit")
    p.add_argument("poly", nargs="?")
    p.add_argument("--h", default="1,0.5,0.25", help="comma list of h values")
    p.add_argument("--window", default=None)
    p.add_argument("--slices", type=int, default=200)
    p.add_argument("--angles", type=int, default=64)
    _add_common(p, svg=True)
    p.set_defaults(func=cmd_converge)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except InputFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, DivergenceError, DomainTooSmallError, ScaleRangeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
