"""Plain-text SVG rendering of one kp plane: labeled cells, the searched
boundary polyline, and the theoretical threshold line.

No plotting library: the output is a small deterministic SVG whose data
transform is exposed as data-* attributes on the root element, so tests can
map path coordinates back to (kd, ki) values.
"""

from __future__ import annotations

import html

from .evalkit import INVALID
from .search import BOUNDARY

WIDTH = 640
HEIGHT = 480
ML, MR, MT, MB = 70, 20, 20, 50

VALID_FILL = "#a6cbe3"
INVALID_FILL = "#f2a0a0"


class PlaneTransform:
    """Affine map between (kd, ki) data coordinates and SVG pixels."""

    def __init__(self, space):
        self.d_lo = space.d_min - space.d_step / 2.0
        self.d_hi = space.d_max + space.d_step / 2.0
        self.i_lo = space.i_min - space.i_step / 2.0
        self.i_hi = space.i_max + space.i_step / 2.0
        self.pw = WIDTH - ML - MR
        self.ph = HEIGHT - MT - MB

    def x(self, d):
        return ML + (d - self.d_lo) / (self.d_hi - self.d_lo) * self.pw

    def y(self, i):
        return MT + (self.i_hi - i) / (self.i_hi - self.i_lo) * self.ph


def _fmt(v):
    return "%.2f" % v


def render_plane(space, p, grid=None, boundary=None, theory=None,
                 title=None):
    """Build the SVG document for one kp plane.

    Args:
        space: ParamSpace of the plane (kd on x, ki on y).
        p: the plane's kp, shown in the default title.
        grid: optional ClassifiedGrid; labeled cells are filled.
        boundary: optional BoundaryLine; its boundary columns become a
            polyline (omitted entirely when no column found a boundary).
        theory: optional sequence of (kd, ki) threshold points; points
            falling inside the plot become the dashed line.
        title: overrides the default title text.

    Returns:
        the SVG document as a string.
    """
    tr = PlaneTransform(space)
    kp = space.axes[0]
    p_idx = kp.snap(p)
    parts = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" '
        f'data-d-lo="{tr.d_lo!r}" data-d-hi="{tr.d_hi!r}" '
        f'data-i-lo="{tr.i_lo!r}" data-i-hi="{tr.i_hi!r}" '
        f'data-plot="{ML} {MT} {tr.pw} {tr.ph}">')
    parts.append(f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>')

    if grid is not None:
        cw = space.d_step / (tr.d_hi - tr.d_lo) * tr.pw
        ch = space.i_step / (tr.i_hi - tr.i_lo) * tr.ph
        cells = []
        for pid, label in grid.labels.items():
            if kp.snap(pid.kp) != p_idx:
                continue
            x = tr.x(pid.kd - space.d_step / 2.0)
            y = tr.y(pid.ki + space.i_step / 2.0)
            fill = INVALID_FILL if label == INVALID else VALID_FILL
            cells.append((x, y, fill, label))
        cells.sort()
        for x, y, fill, label in cells:
            parts.append(f'<rect class="cell {label}" x="{_fmt(x)}" y="{_fmt(y)}" '
                         f'width="{_fmt(cw)}" height="{_fmt(ch)}" fill="{fill}"/>')

    parts.append(f'<rect x="{ML}" y="{MT}" width="{_fmt(tr.pw)}" height="{_fmt(tr.ph)}" '
                 f'fill="none" stroke="black"/>')

    if theory:
        pts = [(d, ki) for d, ki in theory if tr.i_lo <= ki <= tr.i_hi]
        if pts:
            coords = " ".join(f"{_fmt(tr.x(d))},{_fmt(tr.y(ki))}" for d, ki in pts)
            parts.append(f'<polyline id="theory" points="{coords}" fill="none" '
                         f'stroke="#444444" stroke-dasharray="6 4" stroke-width="1.5"/>')

    if boundary is not None:
        pts = [(c.d, c.i_save) for c in boundary.columns
               if c.status == BOUNDARY and kp.snap(c.p) == p_idx]
        pts.sort()
        if pts:
            coords = " ".join(f"{_fmt(tr.x(d))},{_fmt(tr.y(i))}" for d, i in pts)
            parts.append(f'<polyline id="boundary" points="{coords}" fill="none" '
                         f'stroke="#c0392b" stroke-width="2"/>')

    # minimal axis annotation: corner tick labels and axis names
    parts.append(f'<text x="{ML}" y="{HEIGHT - MB + 16}" font-size="11" '
                 f'text-anchor="middle">{_fmt(tr.d_lo)}</text>')
    parts.append(f'<text x="{ML + tr.pw:.2f}" y="{HEIGHT - MB + 16}" font-size="11" '
                 f'text-anchor="middle">{_fmt(tr.d_hi)}</text>')
    parts.append(f'<text x="{ML - 6}" y="{MT + tr.ph:.2f}" font-size="11" '
                 f'text-anchor="end">{_fmt(tr.i_lo)}</text>')
    parts.append(f'<text x="{ML - 6}" y="{MT + 4}" font-size="11" '
                 f'text-anchor="end">{_fmt(tr.i_hi)}</text>')
    parts.append(f'<text x="{ML + tr.pw / 2:.2f}" y="{HEIGHT - 12}" font-size="13" '
                 f'text-anchor="middle">kd</text>')
    parts.append(f'<text x="16" y="{MT + tr.ph / 2:.2f}" font-size="13" '
                 f'text-anchor="middle" transform="rotate(-90 16 {MT + tr.ph / 2:.2f})">ki</text>')
    text = title if title is not None else f"kp = {p:g}"
    parts.append(f'<text x="{WIDTH / 2:.0f}" y="14" font-size="13" '
                 f'text-anchor="middle">{html.escape(text)}</text>')
    parts.append("</svg>")
    return "\n".join(parts)
