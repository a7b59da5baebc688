"""Flat SVG emission for planar figures: polylines and polygons.

No plotting dependency: elements are accumulated in data coordinates
and written once the overall extent is known.  The vertical axis is
reflected inside the data's bounding box so output renders with y up.
Fixed-precision formatting keeps identical input byte-identical.
"""

from __future__ import annotations

import numpy as np

VIEW_MARGIN = 0.10
STROKE_FRACTION = 0.004
PIXEL_SIZE = 640


def _fmt(v: float) -> str:
    s = f"{float(v):.6g}"
    return "0" if s == "-0" else s


class SvgCanvas:
    """Collects shapes, then renders one standalone SVG document."""

    def __init__(self):
        self._shapes = []

    def _push(self, tag: str, pts, stroke: str):
        pts = np.asarray(pts, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError(f"expected (N, 2) coordinates, got {pts.shape}")
        self._shapes.append((tag, pts, stroke))

    def polyline(self, pts, stroke: str = "#1f6feb"):
        self._push("polyline", pts, stroke)

    def polygon(self, pts, stroke: str = "#d29922"):
        self._push("polygon", pts, stroke)

    def render(self) -> str:
        if not self._shapes:
            raise ValueError("nothing to render")
        allpts = np.vstack([p for _, p, _ in self._shapes])
        lo = allpts.min(axis=0)
        hi = allpts.max(axis=0)
        span = np.maximum(hi - lo, 1e-9)
        margin = VIEW_MARGIN * float(span.max())
        flip = lo[1] + hi[1]  # reflect y inside the bbox, keeps y up
        view = (
            lo[0] - margin,
            lo[1] - margin,
            span[0] + 2 * margin,
            span[1] + 2 * margin,
        )
        width = _fmt(STROKE_FRACTION * float(span.max()))
        body = []
        for tag, pts, stroke in self._shapes:
            coords = " ".join(
                f"{_fmt(x)},{_fmt(flip - y)}" for x, y in pts
            )
            body.append(
                f'<{tag} points="{coords}" fill="none" '
                f'stroke="{stroke}" stroke-width="{width}"/>'
            )
        vb = " ".join(_fmt(v) for v in view)
        head = (
            f'<svg xmlns="http://www.w3.org/2000/svg" '
            f'width="{PIXEL_SIZE}" height="{PIXEL_SIZE}" viewBox="{vb}">'
        )
        return "\n".join([head] + body + ["</svg>"]) + "\n"
