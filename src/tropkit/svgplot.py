"""A tiny deterministic SVG writer for 2-D previews (no plotting deps)."""
from __future__ import annotations

import math

import numpy as np

from .amoeba import PlanarPLSet, Window, _clipped_primitives

__all__ = ["svg_scene", "polygon_svg"]

_SIZE = 640.0
_PAD = 20.0
_POINT_COLOR = "#1f77b4"
_LINE_COLOR = "#d62728"


def _mapper(window: Window):
    sx = (_SIZE - 2 * _PAD) / (window.xmax - window.xmin)
    sy = (_SIZE - 2 * _PAD) / (window.ymax - window.ymin)

    def to_px(x, y):
        px = _PAD + (x - window.xmin) * sx
        py = _SIZE - _PAD - (y - window.ymin) * sy  # flip: y grows upward
        return f"{px:.2f}", f"{py:.2f}"

    return to_px


def svg_scene(
    window: Window,
    points: np.ndarray | None = None,
    pl_set: PlanarPLSet | None = None,
) -> str:
    """Render a point cloud and/or a PL set clipped to the window."""
    to_px = _mapper(window)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE:.0f}" '
        f'height="{_SIZE:.0f}" viewBox="0 0 {_SIZE:.0f} {_SIZE:.0f}">',
        f'<rect x="{_PAD}" y="{_PAD}" width="{_SIZE - 2 * _PAD}" '
        f'height="{_SIZE - 2 * _PAD}" fill="white" stroke="#999"/>',
    ]
    if points is not None and len(points):
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        pts = pts[window.contains(pts)]
        for x, y in pts:
            px, py = to_px(x, y)
            parts.append(f'<circle cx="{px}" cy="{py}" r="1.5" fill="{_POINT_COLOR}"/>')
    if pl_set is not None:
        for a, b in _clipped_primitives(pl_set, window):
            ax, ay = to_px(a[0], a[1])
            bx, by = to_px(b[0], b[1])
            parts.append(
                f'<line x1="{ax}" y1="{ay}" x2="{bx}" y2="{by}" '
                f'stroke="{_LINE_COLOR}" stroke-width="2"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def polygon_svg(vertices) -> str:
    """Render a convex polygon (or segment/point) from float vertex pairs,
    in the vertices' bounding box widened by 1 on every side."""
    verts = [(float(x), float(y)) for x, y in vertices]
    xs = [v[0] for v in verts]
    ys = [v[1] for v in verts]
    to_px = _mapper(Window(min(xs) - 1.0, max(xs) + 1.0, min(ys) - 1.0, max(ys) + 1.0))
    # order boundary counterclockwise around the centroid for the outline
    cx = sum(xs) / len(verts)
    cy = sum(ys) / len(verts)
    ordered = sorted(verts, key=lambda v: math.atan2(v[1] - cy, v[0] - cx))
    path = " ".join(",".join(to_px(x, y)) for x, y in ordered)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE:.0f}" '
        f'height="{_SIZE:.0f}" viewBox="0 0 {_SIZE:.0f} {_SIZE:.0f}">\n'
        f'<polygon points="{path}" fill="#9ecae1" stroke="#3182bd" '
        'stroke-width="2"/>\n</svg>\n'
    )
