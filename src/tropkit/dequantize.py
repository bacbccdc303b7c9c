"""Dequantization of sparse polynomials and Newton polytope extraction.

For a polynomial ``f(z) = Σ_a c_a z^a`` with complex coefficients, the
log-log rescaling ``f̂_h(x) = h·log|f(exp(x₁/h), ..., exp(x_n/h))|`` is a
smoothed piecewise-linear function; as ``h → 0⁺`` it converges (away from
cancellation sets) to the tropicalization ``f̂(x) = max_a ⟨a, x⟩``.  The
subdifferential of that limit at the origin is exactly the Newton polytope
conv{a : c_a ≠ 0}, which turns polynomial multiplication into Minkowski
sums; with coefficients in "general position" (e.g. all positive), addition
goes to the hull of the union the same way.

Evaluation is stabilized by factoring out the dominant exponent
``M = max_a ⟨a, x⟩`` before exponentiating, so huge ``|x|/h`` never
overflows; total cancellation surfaces as -inf (log of zero), matching the
max-plus bottom.
"""
from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputFormatError, _load_json
from .polytope import Polytope, convex_hull

__all__ = [
    "SparsePolynomial",
    "poly_mul",
    "poly_add",
    "poly_evaluate",
    "poly_from_json",
    "poly_to_json",
    "read_poly_json",
    "write_poly_json",
    "dequantize_at",
    "dequantize_limit",
    "newton_polytope",
    "subdifferential_at_origin",
]


@dataclass(frozen=True)
class SparsePolynomial:
    """A sparse Laurent-free polynomial: distinct exponent vectors ≥ 0.

    ``terms`` maps canonically sorted integer exponent tuples to nonzero
    complex coefficients.
    """

    dim: int
    terms: tuple[tuple[tuple[int, ...], complex], ...]

    def __post_init__(self):
        dim = int(self.dim)
        if dim < 1:
            raise ValueError("polynomial dimension must be at least 1")
        seen = {}
        for exps, coeff in self.terms:
            key = tuple(int(e) for e in exps)
            if len(key) != dim:
                raise ValueError(f"exponent {exps!r} does not have {dim} entries")
            if any(e < 0 for e in key):
                raise ValueError(f"negative exponent in {exps!r}")
            c = complex(coeff)
            if c == 0:
                raise ValueError("zero coefficients are not stored")
            if key in seen:
                raise ValueError(f"duplicate exponent {key!r}")
            seen[key] = c
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "terms", tuple(sorted(seen.items())))
        if not self.terms:
            raise ValueError("the zero polynomial is not representable")

    @property
    def support(self) -> list[tuple[int, ...]]:
        """The exponent vectors carrying nonzero coefficients."""
        return [e for e, _ in self.terms]

    def exponent_array(self) -> np.ndarray:
        return np.array(self.support, dtype=float)

    def coefficient_array(self) -> np.ndarray:
        return np.array([c for _, c in self.terms], dtype=complex)


def poly_mul(f: SparsePolynomial, g: SparsePolynomial) -> SparsePolynomial:
    """Product polynomial; exactly cancelling terms are dropped."""
    if f.dim != g.dim:
        raise ValueError("polynomial dimensions disagree")
    acc: dict[tuple[int, ...], complex] = {}
    for ea, ca in f.terms:
        for eb, cb in g.terms:
            key = tuple(x + y for x, y in zip(ea, eb))
            acc[key] = acc.get(key, 0j) + ca * cb
    kept = [(e, c) for e, c in acc.items() if c != 0]
    if not kept:
        raise ValueError("product cancelled to the zero polynomial")
    return SparsePolynomial(f.dim, tuple(kept))


def poly_add(f: SparsePolynomial, g: SparsePolynomial) -> SparsePolynomial:
    """Sum polynomial; exactly cancelling terms are dropped."""
    if f.dim != g.dim:
        raise ValueError("polynomial dimensions disagree")
    acc: dict[tuple[int, ...], complex] = dict(f.terms)
    for e, c in g.terms:
        acc[e] = acc.get(e, 0j) + c
    kept = [(e, c) for e, c in acc.items() if c != 0]
    if not kept:
        raise ValueError("sum cancelled to the zero polynomial")
    return SparsePolynomial(f.dim, tuple(kept))


def poly_evaluate(f: SparsePolynomial, z) -> complex:
    """Evaluate f at a point of C^n (plain monomial summation)."""
    if len(z) != f.dim:
        raise ValueError("point dimension does not match the polynomial")
    total = 0j
    for exps, coeff in f.terms:
        term = coeff
        for zi, e in zip(z, exps):
            term *= complex(zi) ** e
        total += term
    return total


# -- JSON -------------------------------------------------------------------

def poly_to_json(f: SparsePolynomial) -> dict:
    return {
        "dim": f.dim,
        "terms": [
            {"exp": list(e), "re": c.real, "im": c.imag} for e, c in f.terms
        ],
    }


def poly_from_json(obj: dict, path: str | None = None) -> SparsePolynomial:
    try:
        dim = int(obj["dim"])
        terms = [
            (tuple(int(e) for e in t["exp"]), complex(t["re"], t.get("im", 0.0)))
            for t in obj["terms"]
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputFormatError(f"malformed polynomial JSON: {exc}", path=path) from None
    try:
        return SparsePolynomial(dim, tuple(terms))
    except ValueError as exc:
        raise InputFormatError(str(exc), path=path) from None


def read_poly_json(path) -> SparsePolynomial:
    return poly_from_json(_load_json(path), path=str(path))


def write_poly_json(f: SparsePolynomial, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(poly_to_json(f), fh, indent=2)
        fh.write("\n")


# -- the dequantization transform ------------------------------------------

def dequantize_at(f: SparsePolynomial, h: float, x) -> float:
    """``h·log|f(exp(x/h))|`` evaluated stably at one point.

    The dominant exponent ``M = max_a ⟨a, x⟩`` is factored out, so the
    exponentials stay bounded by 1.  Total cancellation of the rescaled sum
    returns -inf (the max-plus bottom).
    """
    h = float(h)
    if not h > 0:
        raise ValueError("h must be positive")
    xv = np.asarray(x, dtype=float)
    if xv.shape != (f.dim,):
        raise ValueError(f"point must have {f.dim} coordinates")
    dots = f.exponent_array() @ xv
    m = float(dots.max())
    total = 0j
    for k, (_, coeff) in enumerate(f.terms):
        total += coeff * cmath.exp((dots[k] - m) / h)
    mag = abs(total)
    if mag == 0.0:
        return -math.inf
    return m + h * math.log(mag)


def dequantize_limit(f: SparsePolynomial, x) -> float:
    """The h → 0 limit: the tropicalization ``max_a ⟨a, x⟩``."""
    xv = np.asarray(x, dtype=float)
    if xv.shape != (f.dim,):
        raise ValueError(f"point must have {f.dim} coordinates")
    return float((f.exponent_array() @ xv).max())


# -- Newton polytope and its dual description -------------------------------

def newton_polytope(f: SparsePolynomial) -> Polytope:
    """conv{a : c_a ≠ 0}, computed on exact integer coordinates."""
    if f.dim > 3:
        raise ValueError("exact hulls are implemented for dimensions 1 to 3")
    return convex_hull(f.support, dim=f.dim)


_DEFAULT_DIRECTIONS = {1: 2, 2: 720, 3: 20000}


def _direction_samples(dim: int, count: int) -> np.ndarray:
    if dim == 1:
        return np.array([[-1.0], [1.0]])
    if dim == 2:
        theta = 2.0 * np.pi * np.arange(count) / count
        return np.stack([np.cos(theta), np.sin(theta)], axis=1)
    # Fibonacci sphere: near-uniform deterministic covering of S²
    i = np.arange(count)
    z = 1.0 - 2.0 * (i + 0.5) / count
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    phi = 2.0 * np.pi * i / golden
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)


def subdifferential_at_origin(
    f: SparsePolynomial, directions: int | None = None
) -> Polytope:
    """The subdifferential of ``max_a ⟨a, x⟩`` at 0 via support sampling.

    For each sampled direction u the maximizer of ``⟨a, u⟩`` over the support
    is recorded (any optimal face member on ties); the hull of the recorded
    exponents reconstructs the Newton polytope through its support function —
    an independent route to :func:`newton_polytope`.
    """
    if f.dim > 3:
        raise ValueError("exact hulls are implemented for dimensions 1 to 3")
    if directions is None:
        directions = _DEFAULT_DIRECTIONS[f.dim]
    if directions < 2:
        raise ValueError("need at least two directions")
    dirs = _direction_samples(f.dim, directions)
    exps = f.exponent_array()
    scores = dirs @ exps.T  # (directions, terms)
    chosen = np.unique(scores.argmax(axis=1))
    support = f.support
    return convex_hull([support[k] for k in chosen], dim=f.dim)
