"""Deterministic SVG renderings of meshes and element fields.

Everything here is plain string assembly with pinned float formatting, so a
rerun on the same mesh produces a byte-identical file.  No plotting library
is involved.
"""
from __future__ import annotations

import numpy as np

from .mesh import Mesh

# 16-step ramp, dark blue to yellow, hand-pinned so output never depends on
# a colormap package.
PALETTE = (
    "#30123b", "#3b3290", "#455ed2", "#4687fb", "#39aaf9", "#1fc9dd",
    "#18dfb4", "#3bef83", "#71f65c", "#a4fc3c", "#cdf134", "#ecd53b",
    "#fcb336", "#fd8a26", "#f35d15", "#d93807",
)

_VIEW_W = 640.0
_MARGIN = 24.0
_LEGEND_W = 86.0


def _fmt(x: float) -> str:
    # Fixed-point with six decimals; normalize negative zero so formatting
    # is a pure function of the value.
    v = float(x)
    if v == 0.0:
        v = 0.0
    return f"{v:.6f}"


def color_bins(values) -> np.ndarray:
    """Map values to palette bins; the maximum lands in the top bin."""
    v = np.asarray(values, dtype=float)
    lo = float(v.min())
    hi = float(v.max())
    if hi <= lo:
        return np.zeros(v.shape, dtype=int)
    idx = np.floor((v - lo) / (hi - lo) * len(PALETTE)).astype(int)
    return np.clip(idx, 0, len(PALETTE) - 1)


def render_mesh_svg(mesh: Mesh, scalar=None, title: str = "") -> str:
    """Render the triangulation as SVG text.

    With ``scalar`` (one value per element) triangles are filled from the
    16-color palette and a legend bar with min/max labels is added; without
    it the output is a plain wireframe.
    """
    xy = mesh.xy
    x0, y0 = xy.min(axis=0)
    x1, y1 = xy.max(axis=0)
    span = max(x1 - x0, y1 - y0, 1e-30)
    scale = (_VIEW_W - 2.0 * _MARGIN) / span
    width = _VIEW_W + (_LEGEND_W if scalar is not None else 0.0)
    height = (y1 - y0) * scale + 2.0 * _MARGIN

    def tx(x):
        return _MARGIN + (x - x0) * scale

    def ty(y):
        return height - _MARGIN - (y - y0) * scale

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" '
        f'height="{_fmt(height)}" viewBox="0 0 {_fmt(width)} {_fmt(height)}">',
        f'<rect width="{_fmt(width)}" height="{_fmt(height)}" fill="#ffffff"/>',
    ]
    if title:
        out.append(f'<title>{title}</title>')

    if scalar is None:
        fills = None
        stroke = ' fill="none" stroke="#444444" stroke-width="0.7"'
    else:
        vals = np.asarray(scalar, dtype=float)
        if vals.shape != (mesh.n_triangles,):
            raise ValueError("scalar must hold one value per triangle")
        fills = [PALETTE[b] for b in color_bins(vals)]
        stroke = ' stroke="#222222" stroke-width="0.3"'

    for k, tri in enumerate(mesh.tris):
        pts = " ".join(f"{_fmt(tx(xy[v, 0]))},{_fmt(ty(xy[v, 1]))}" for v in tri)
        if fills is None:
            out.append(f'<polygon points="{pts}"{stroke}/>')
        else:
            out.append(f'<polygon points="{pts}" fill="{fills[k]}"{stroke}/>')

    if scalar is not None:
        vals = np.asarray(scalar, dtype=float)
        bar_x = _VIEW_W + 10.0
        bar_h = (height - 2.0 * _MARGIN) / len(PALETTE)
        for i, col in enumerate(PALETTE):
            # top of the bar is the top bin
            ry = _MARGIN + (len(PALETTE) - 1 - i) * bar_h
            out.append(f'<rect x="{_fmt(bar_x)}" y="{_fmt(ry)}" width="16.000000" '
                       f'height="{_fmt(bar_h)}" fill="{col}"/>')
        out.append(f'<text x="{_fmt(bar_x + 20.0)}" y="{_fmt(_MARGIN + 4.0)}" '
                   f'font-size="11" font-family="monospace">{float(vals.max()):.6g}</text>')
        out.append(f'<text x="{_fmt(bar_x + 20.0)}" y="{_fmt(height - _MARGIN)}" '
                   f'font-size="11" font-family="monospace">{float(vals.min()):.6g}</text>')

    out.append("</svg>")
    return "\n".join(out) + "\n"
