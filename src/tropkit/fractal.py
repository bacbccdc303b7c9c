"""Covering-number dimension estimates for point clouds and measures.

The dimension of a bounded set is read off the growth of covering numbers:
``D = lim inf_{s→∞} (1/s)·log N_{e^{-s}}(S)`` where ``N_ρ`` counts ρ-balls
needed to cover.  Numerically ``N_ρ`` is replaced by the standard
box-counting proxy: axis-aligned cells of side ``2ρ/√n`` anchored at the
origin, each of which fits inside a ρ-ball, and the slope of ``log N``
against ``s`` over a scale ladder is the estimate.  For a finite measure the
local (pointwise) dimension at x is the slope of ``−log μ(B_ρ(x))`` against
``−log ρ``.

Generators for a few classical sets (segment, Cantor middle-thirds
endpoints, Sierpinski vertices, filled square) carry a resolution hint so
that scale ladders probing below the construction depth raise a
:class:`ResolutionWarning`.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InputFormatError, ScaleRangeError, _reading

__all__ = [
    "PointCloud",
    "SampledMeasure",
    "DimensionEstimate",
    "ResolutionWarning",
    "segment_points",
    "cantor_endpoints",
    "sierpinski_points",
    "square_points",
    "ball_volume",
    "covering_number",
    "hb_dimension",
    "local_dimension",
    "read_point_cloud",
    "write_point_cloud",
    "read_sampled_measure",
]


class ResolutionWarning(UserWarning):
    """A scale ladder probes finer than the data can resolve."""


@dataclass
class PointCloud:
    """Finite point set in R^n with an optional resolution hint."""

    points: np.ndarray
    resolution_hint: float | None = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise ValueError("points must form a non-empty (m, n) array")
        if not np.isfinite(pts).all():
            raise ValueError("points must be finite")
        self.points = pts

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass
class SampledMeasure:
    """Atoms with nonnegative weights and positive total mass."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        w = np.asarray(self.weights, dtype=float)
        if pts.ndim != 2 or w.shape != (pts.shape[0],):
            raise ValueError("need (m, n) points and m weights")
        if not (np.isfinite(pts).all() and np.isfinite(w).all()):
            raise ValueError("points and weights must be finite")
        if (w < 0).any() or w.sum() <= 0:
            raise ValueError("weights must be nonnegative with positive total")
        self.points = pts
        self.weights = w

    @property
    def dim(self) -> int:
        return self.points.shape[1]


# -- generators -------------------------------------------------------------

def segment_points(n: int) -> PointCloud:
    """n equispaced points on the unit segment."""
    if n < 2:
        raise ValueError("need at least two points")
    return PointCloud(np.linspace(0.0, 1.0, n)[:, None], resolution_hint=1.0 / (n - 1))


def cantor_endpoints(depth: int) -> PointCloud:
    """Interval endpoints of the middle-thirds construction at given depth."""
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    intervals = [(0.0, 1.0)]
    for _ in range(depth):
        nxt = []
        for a, b in intervals:
            third = (b - a) / 3.0
            nxt.append((a, a + third))
            nxt.append((b - third, b))
        intervals = nxt
    pts = sorted({x for ab in intervals for x in ab})
    return PointCloud(np.array(pts)[:, None], resolution_hint=3.0**-depth)


def sierpinski_points(depth: int) -> PointCloud:
    """Vertices of the triangle subdivision at given depth."""
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    corners = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]])
    pts = corners.copy()
    for _ in range(depth):
        scaled = pts / 2.0
        pts = np.concatenate([scaled + corner / 2.0 for corner in corners])
        pts = np.unique(np.round(pts, 12), axis=0)
    return PointCloud(pts, resolution_hint=2.0**-depth)


def square_points(n: int) -> PointCloud:
    """n × n grid filling the unit square."""
    if n < 2:
        raise ValueError("need at least two points per side")
    side = np.linspace(0.0, 1.0, n)
    gx, gy = np.meshgrid(side, side, indexing="ij")
    return PointCloud(
        np.stack([gx.ravel(), gy.ravel()], axis=1), resolution_hint=1.0 / (n - 1)
    )


# -- covering counts --------------------------------------------------------

def ball_volume(dim: int, rho: float) -> float:
    """Volume of the Euclidean ρ-ball: ``Γ(1/2)^d / Γ(1 + d/2) · ρ^d``."""
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    if not rho > 0:
        raise ValueError("radius must be positive")
    return math.pi ** (dim / 2.0) / math.gamma(1.0 + dim / 2.0) * rho**dim


def _occupied_cells(points: np.ndarray, rho: float, offset: float = 0.0) -> int:
    n = points.shape[1]
    side = 2.0 * rho / math.sqrt(n)
    idx = np.floor(points / side + offset).astype(np.int64)
    cells = idx[np.lexsort(idx.T)]
    return 1 + int(np.count_nonzero((cells[1:] != cells[:-1]).any(axis=1)))


def covering_number(cloud: PointCloud, rho: float) -> int:
    """Boxes of side ``2ρ/√n`` (anchored at the origin) meeting the cloud.

    Each such box has diameter 2ρ, hence fits in a closed ρ-ball, so this
    over-counts the true covering number by at most a bounded factor —
    harmless for slope estimates.
    """
    if not rho > 0:
        raise ValueError("radius must be positive")
    return _occupied_cells(cloud.points, rho)


@dataclass
class DimensionEstimate:
    """A slope fit over a scale ladder plus per-scale diagnostics.

    ``per_scale`` holds the raw ratios ``(1/s)·log N`` (or the local-mass
    analog); ``offset_slope`` refits with half-cell-shifted boxes as an
    anchoring-sensitivity diagnostic (None for local estimates).
    """

    slope: float
    s_values: np.ndarray
    log_counts: np.ndarray
    per_scale: np.ndarray
    offset_slope: float | None = None


def _check_ladder(s_values) -> np.ndarray:
    s = np.asarray(s_values, dtype=float)
    if s.ndim != 1 or s.size < 3:
        raise ValueError("need at least three scales for a slope fit")
    if not np.isfinite(s).all() or (np.diff(s) <= 0).any() or s[0] <= 0:
        raise ValueError("scales must be positive and strictly increasing")
    return s


def hb_dimension(cloud: PointCloud, s_values) -> DimensionEstimate:
    """Box-counting estimate of the covering dimension over ``ρ = e^{-s}``.

    Fits ``log N`` against ``s`` by least squares.  If the finest requested
    scale drops below the cloud's resolution hint, a
    :class:`ResolutionWarning` is emitted (counts saturate there).
    """
    s = _check_ladder(s_values)
    finest = math.exp(-float(s[-1]))
    if cloud.resolution_hint is not None and finest < cloud.resolution_hint:
        warnings.warn(
            f"scale e^-{s[-1]:g} = {finest:.3g} is below the cloud resolution "
            f"{cloud.resolution_hint:.3g}; counts will saturate",
            ResolutionWarning,
            stacklevel=2,
        )
    counts = np.array([covering_number(cloud, math.exp(-si)) for si in s], dtype=float)
    logs = np.log(counts)
    slope = float(np.polyfit(s, logs, 1)[0])
    shifted = np.array(
        [_occupied_cells(cloud.points, math.exp(-si), offset=0.5) for si in s],
        dtype=float,
    )
    offset_slope = float(np.polyfit(s, np.log(shifted), 1)[0])
    return DimensionEstimate(slope, s, logs, logs / s, offset_slope)


def local_dimension(mu: SampledMeasure, x, s_values) -> DimensionEstimate:
    """Pointwise dimension of a measure at x from ball masses ``μ(B_{e^{-s}}(x))``.

    Raises
    ------
    ScaleRangeError
        If some requested ball carries zero mass (scale out of range).
    ValueError
        If x is not a finite point of the measure's space.
    """
    s = _check_ladder(s_values)
    xv = np.asarray(x, dtype=float).reshape(1, -1)
    if xv.shape[1] != mu.dim or not np.isfinite(xv).all():
        raise ValueError(f"probe point must have {mu.dim} finite coordinates")
    dist = np.linalg.norm(mu.points - xv, axis=1)
    masses = np.empty_like(s)
    for k, si in enumerate(s):
        rho = math.exp(-si)
        mass = float(mu.weights[dist <= rho].sum())
        if mass <= 0:
            raise ScaleRangeError(
                f"ball of radius e^-{si:g} around {x!r} carries no mass"
            )
        masses[k] = mass
    neg_log = -np.log(masses)
    slope = float(np.polyfit(s, neg_log, 1)[0])
    return DimensionEstimate(slope, s, neg_log, neg_log / s, None)


# -- CSV --------------------------------------------------------------------

def _read_rows(path) -> list[list[float]]:
    rows: list[list[float]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.strip()
            if not text or text.startswith("#"):
                continue
            try:
                row = [float(t) for t in text.replace(",", " ").split()]
            except ValueError:
                raise InputFormatError(
                    f"non-numeric entry in {text!r}", path=str(path), line=lineno
                ) from None
            if rows and len(row) != len(rows[0]):
                raise InputFormatError(
                    f"row has {len(row)} columns, expected {len(rows[0])}",
                    path=str(path),
                    line=lineno,
                )
            rows.append(row)
    if not rows:
        raise InputFormatError("no data rows", path=str(path))
    return rows


def read_point_cloud(path) -> PointCloud:
    """Read one point per row (comma or whitespace separated; ``#`` comments)."""
    with _reading(path):
        return PointCloud(np.array(_read_rows(path)))


def read_sampled_measure(path) -> SampledMeasure:
    """Read one atom per row, last column the weight."""
    rows = np.array(_read_rows(path))
    with _reading(path):
        if rows.shape[1] < 2:
            raise ValueError("a measure needs at least one coordinate and a weight column")
        return SampledMeasure(rows[:, :-1], rows[:, -1])


def write_point_cloud(cloud: PointCloud, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in cloud.points:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
