"""Deterministic SVG rendering of maps, traces, and candidate fans.

Plain string assembly with fixed-precision coordinates: identical inputs
produce byte-identical documents, so renders can be diffed in CI. Visual
conventions: static obstacles black, agent paths blue, obstacle traces red,
evaluated-candidate fans gray.
"""

from __future__ import annotations

from .world import OccupancyGrid

AGENT_COLOR = "#1f4fd8"
OBSTACLE_COLOR = "#d82f2f"
FAN_COLOR = "#9a9a9a"
# pixels per meter
SCALE = 50.0


def _fmt(v: float) -> str:
    return f"{v:.2f}"


class SceneRenderer:
    """Accumulates drawing primitives in world coordinates (meters, y up)."""

    def __init__(self, grid: OccupancyGrid):
        self.grid = grid
        xmin, ymin, xmax, ymax = grid.extent
        self._xmin = xmin
        self._ymax = ymax
        self.width = (xmax - xmin) * SCALE
        self.height = (ymax - ymin) * SCALE
        self._fans: list[str] = []
        self._paths: list[str] = []
        self._disks: list[str] = []

    def _pt(self, x: float, y: float) -> tuple[float, float]:
        return ((x - self._xmin) * SCALE, (self._ymax - y) * SCALE)

    def _polyline(self, points, color: str, width: float, opacity: float) -> str:
        coords = " ".join(
            f"{_fmt(px)},{_fmt(py)}" for px, py in (self._pt(x, y) for x, y in points)
        )
        return (
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="{_fmt(width)}" stroke-opacity="{opacity:g}"/>'
        )

    def add_fan(self, points) -> None:
        if len(points) >= 2:
            self._fans.append(self._polyline(points, FAN_COLOR, 1.0, 0.5))

    def add_path(self, points, color: str = AGENT_COLOR, width: float = 2.0) -> None:
        if len(points) >= 2:
            self._paths.append(self._polyline(points, color, width, 1.0))

    def add_disk(self, x: float, y: float, r: float, color: str) -> None:
        px, py = self._pt(x, y)
        self._disks.append(
            f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="{_fmt(r * SCALE)}" fill="{color}"/>'
        )

    def add_goal_marker(self, x: float, y: float) -> None:
        px, py = self._pt(x, y)
        s = 0.18 * SCALE
        self._disks.append(
            f'<path d="M {_fmt(px - s)} {_fmt(py)} L {_fmt(px + s)} {_fmt(py)} '
            f'M {_fmt(px)} {_fmt(py - s)} L {_fmt(px)} {_fmt(py + s)}" '
            f'stroke="{AGENT_COLOR}" stroke-width="1.50" fill="none"/>'
        )

    def _map_rects(self) -> list[str]:
        rects = []
        grid = self.grid
        res = grid.resolution
        ox, oy = grid.origin
        for iy in range(grid.height):
            row = grid.occupied[iy]
            ix = 0
            while ix < grid.width:
                if not row[ix]:
                    ix += 1
                    continue
                run = ix
                while run < grid.width and row[run]:
                    run += 1
                px, py = self._pt(ox + ix * res, oy + (iy + 1) * res)
                rects.append(
                    f'<rect x="{_fmt(px)}" y="{_fmt(py)}" '
                    f'width="{_fmt((run - ix) * res * SCALE)}" '
                    f'height="{_fmt(res * SCALE)}" fill="#000000"/>'
                )
                ix = run
        return rects

    def to_svg(self) -> str:
        parts = [
            '<?xml version="1.0" encoding="UTF-8"?>',
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(self.width)}" '
            f'height="{_fmt(self.height)}" '
            f'viewBox="0 0 {_fmt(self.width)} {_fmt(self.height)}">',
            f'<rect x="0" y="0" width="{_fmt(self.width)}" '
            f'height="{_fmt(self.height)}" fill="#ffffff"/>',
        ]
        parts.extend(self._map_rects())
        parts.extend(self._fans)
        parts.extend(self._paths)
        parts.extend(self._disks)
        parts.append("</svg>")
        return "\n".join(parts) + "\n"
