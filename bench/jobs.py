"""How the worker runs each kind of job, and how it checks the outcome.

``prepare(job, tk)`` builds the job's inputs (outside the timed region) and
returns a zero-argument callable: the one call into tropkit that is timed.
``check(job, outcome)`` decides whether the outcome is correct, using only
the reference data in ``job["expect"]`` and the output the call produced.
An outcome is ``("returned", value)`` or ``("raised", exception)``.

The checks never call tropkit: CLI outputs are parsed here, and library
results are compared as plain arrays.
"""
from __future__ import annotations

import json
import math
import os

import numpy as np

RESIDUAL_SLACK = 1e-8  # certified roots have relative residual ≤ 1e-9
TIE_TOL = 1e-9  # the tropical-curve tie test, relative to the values' scale


def prepare(job: dict, tk):
    """The timed call of ``job``, with its library inputs built in advance."""
    kind, args = job["kind"], job["args"]
    if "argv" in args:
        argv = list(args["argv"])
        if os.path.exists(args["out"]):
            os.remove(args["out"])  # a stale output must not pass the check
        return lambda: tk.cli.main(argv)
    if kind in ("kleene_star", "kleene_star_divergent"):
        w = tk.SemiringMatrix(args["w"], tk.minplus())
        return lambda: tk.linalg.kleene_star(w)
    if kind == "solve_bellman":
        h = tk.SemiringMatrix(args["h"], tk.minplus())
        f = tk.SemiringMatrix(args["f"], tk.minplus())
        return lambda: tk.linalg.solve_bellman(h, f, method="gauss-seidel")
    if kind == "mat_mul_subtropical":
        spec = tk.subtropical(args["h"])
        a = tk.SemiringMatrix(args["a"], spec)
        b = tk.SemiringMatrix(args["b"], spec)
        return lambda: tk.linalg.mat_mul(a, b)
    raise ValueError(f"unknown job kind {kind!r}")


def check(job: dict, outcome) -> bool:
    """True when the outcome of ``job`` is correct."""
    status, value = outcome
    kind, expect = job["kind"], job["expect"]
    if kind == "kleene_star_divergent":
        return status == "raised" and type(value).__name__ == "DivergenceError"
    if status != "returned":
        return False
    if "argv" in job["args"]:
        if value != 0 or not os.path.exists(job["args"]["out"]):
            return False
        with open(job["args"]["out"], encoding="utf-8") as fh:
            text = fh.read()
        return CLI_CHECKS[kind](text, expect)
    entries = np.asarray(value.entries)
    if kind == "kleene_star":
        return bool(np.array_equal(entries, expect["closure"]))
    if kind == "solve_bellman":
        return bool(np.array_equal(entries, expect["x"]))
    if kind == "mat_mul_subtropical":
        return subtropical_product_ok(entries, expect["maxplus"], expect["h"], expect["n"])
    raise ValueError(f"unknown job kind {kind!r}")


# ---------------------------------------------------------------------------
# properties and comparisons
# ---------------------------------------------------------------------------

def subtropical_product_ok(c: np.ndarray, m: np.ndarray, h: float, n: int) -> bool:
    """``M ≤ C ≤ M + h·log n`` entrywise, M the max-plus product.

    The upper side allows one part in 10¹² for the rounding of the
    log-sum-exp; the lower side is exact when h is a power of two.
    """
    slack = 1e-12 * np.maximum(1.0, np.abs(m))
    return bool(c.shape == m.shape and np.all(c >= m) and np.all(c <= m + h * math.log(n) + slack))


def top_two(exps: np.ndarray, offsets: np.ndarray, points: np.ndarray):
    """For each point x, the largest and second-largest of ``offsets + exps·x``."""
    vals = np.sort(offsets[None, :] + points @ exps.T, axis=1)
    return vals[:, -1], vals[:, -2]


def parse_grid(text: str):
    """Grid CSV text to ``((dim, lower, upper, points), values)``."""
    lines = text.split()
    head = lines[0].split(",")
    dim = int(head[0])
    lower = [float(v) for v in head[1 : 1 + dim]]
    upper = [float(v) for v in head[1 + dim : 1 + 2 * dim]]
    points = int(head[-1])
    values = np.array([float(v) for v in lines[1:]])
    return (dim, lower, upper, points), values.reshape((points,) * dim)


def grid_close(text: str, expect: dict) -> bool:
    """Same grid as expected, and within ``tol`` wherever the reference is defined."""
    head, values = parse_grid(text)
    if tuple(head) != tuple(expect["head"]) or values.shape != expect["values"].shape:
        return False
    ref = expect["values"]
    defined = ~np.isnan(ref)
    return bool(defined.any() and np.all(np.abs(values[defined] - ref[defined]) <= expect["tol"]))


def csv_rows(text: str) -> list[list[str]]:
    return [line.split(",") for line in text.strip().splitlines()[1:]]


def _shortest_path_ok(text: str, expect: dict) -> bool:
    got = {name: float(d) for name, d in csv_rows(text)}
    return got == expect["distance"]


def _converge_ok(text: str, expect: dict) -> bool:
    rows = csv_rows(text)
    if len(rows) != 1:
        return False
    h, d = float(rows[0][0]), float(rows[0][1])
    law = h * math.log(2.0)
    return h == expect["h"] and law - expect["spacing"] / 2.0 <= d <= law + 1e-9


def _amoeba_ok(text: str, expect: dict) -> bool:
    rows = csv_rows(text)
    if not rows:
        return False
    points = np.array(rows, dtype=float)
    h, exps = expect["h"], expect["exps"]
    first, second = top_two(exps, h * expect["log_moduli"], points)
    return bool(np.all(first - second <= h * math.log(len(exps) - 1) + RESIDUAL_SLACK))


def _tropical_curve_ok(text: str, expect: dict) -> bool:
    pl = json.loads(text)
    verts = np.array(pl["vertices"], dtype=float).reshape(-1, 2)
    probes = [(verts[i] + verts[j]) / 2.0 for i, j in pl["edges"]]
    probes += [verts[r["base"]] + np.array(r["dir"], dtype=float) for r in pl["rays"]]
    if not probes:
        return False
    first, second = top_two(expect["exps"], expect["vals"], np.array(probes))
    scale = 1.0 + np.maximum(np.abs(first), np.abs(second))
    return bool(np.all(first - second <= TIE_TOL * scale))


def _vertices_ok(text: str, expect: dict) -> bool:
    verts = json.loads(text)["vertices"]
    if any(not isinstance(c, int) for v in verts for c in v):
        return False
    got = [tuple(v) for v in verts]
    return len(got) == len(set(got)) and set(got) == expect["vertices"]


def _fractal_ok(text: str, expect: dict) -> bool:
    first = text.splitlines()[0].split(",")
    return first[0] == "slope" and abs(float(first[1]) - expect["slope"]) <= expect["tol"]


CLI_CHECKS = {
    "shortest_path": _shortest_path_ok,
    "hj_evolve": grid_close,
    "hj_viscous": grid_close,
    "legendre": grid_close,
    "convolve": grid_close,
    "converge": _converge_ok,
    "amoeba": _amoeba_ok,
    "tropical_curve": _tropical_curve_ok,
    "newton": _vertices_ok,
    "minkowski": _vertices_ok,
    "fractal_dim": _fractal_ok,
}
