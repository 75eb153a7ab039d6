"""Static occupancy grid, dynamic disk obstacles, and clearance/TTC queries.

The grid stores a precomputed Euclidean distance field (meters to the nearest
occupied cell center). Dynamic obstacles are disks under a constant-velocity
model or a piecewise-linear waypoint script. A World snapshot is immutable
during one planning cycle; all queries are read-only.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

# Time-to-collision values beyond this horizon are reported as +inf; the
# anticipatory cost factor is within 1e-6 of its asymptote there.
TTC_HORIZON = 100.0

_SPEED_EPS = 1e-9


class OccupancyGrid:
    """Binary occupancy grid with a Euclidean distance field.

    Cells are indexed [iy, ix] with iy = 0 at the bottom; cell (0, 0) spans
    [origin, origin + resolution] in each axis. The distance field holds, per
    cell, the distance in meters to the nearest occupied cell center (+inf
    when the grid has no occupied cell).
    """

    def __init__(
        self,
        occupied: np.ndarray,
        resolution: float,
        origin: tuple[float, float] = (0.0, 0.0),
    ):
        occupied = np.asarray(occupied, dtype=bool)
        if occupied.ndim != 2 or occupied.size == 0:
            raise ValueError("grid must be a non-empty 2D array")
        if resolution <= 0:
            raise ValueError("resolution must be positive")
        self.occupied = occupied
        self.resolution = float(resolution)
        self.origin = (float(origin[0]), float(origin[1]))
        self.height, self.width = occupied.shape
        self._extent = (
            self.origin[0], self.origin[1],
            self.origin[0] + self.width * self.resolution,
            self.origin[1] + self.height * self.resolution,
        )
        self.has_occupied = bool(occupied.any())
        if self.has_occupied:
            # Exact EDT on cell indices, scaled to meters afterwards.
            self.distance_field = ndimage.distance_transform_edt(~occupied) * self.resolution
        else:
            self.distance_field = np.full(occupied.shape, math.inf)
        # Nested-list mirror of the field: scalar sampling is several times
        # faster on plain Python floats than through numpy indexing.
        self._df_rows: list[list[float]] = self.distance_field.tolist()

    @classmethod
    def from_ascii(
        cls,
        rows: list[str],
        resolution: float,
        origin: tuple[float, float] = (0.0, 0.0),
    ) -> "OccupancyGrid":
        """Parse '#' (occupied) / '.' (free) rows; the first row is the map top."""
        if not rows:
            raise ValueError("map has no rows")
        width = len(rows[0])
        if width == 0 or any(len(r) != width for r in rows):
            raise ValueError("map rows must be non-empty and of equal length")
        bad = sorted({c for r in rows for c in r} - {"#", "."})
        if bad:
            raise ValueError(f"map rows may only contain '#' and '.', got {bad}")
        occupied = np.array([[c == "#" for c in row] for row in reversed(rows)])
        return cls(occupied, resolution, origin)

    def to_ascii(self) -> list[str]:
        return ["".join("#" if c else "." for c in row) for row in self.occupied[::-1]]

    @property
    def extent(self) -> tuple[float, float, float, float]:
        """(xmin, ymin, xmax, ymax) of the grid in world coordinates."""
        return self._extent

    def cell_center(self, ix: int, iy: int) -> tuple[float, float]:
        ox, oy = self.origin
        return (ox + (ix + 0.5) * self.resolution, oy + (iy + 0.5) * self.resolution)

    def cell_of(self, x: float, y: float) -> tuple[int, int]:
        """(ix, iy) of the cell containing the point, clamped to the grid."""
        ox, oy = self.origin
        ix = int((x - ox) / self.resolution)
        iy = int((y - oy) / self.resolution)
        return (min(self.width - 1, max(0, ix)), min(self.height - 1, max(0, iy)))

    def sample_distance(self, x: float, y: float) -> float:
        """Bilinear sample of the distance field (meters); clamps outside points."""
        if not self.has_occupied:
            return math.inf
        gx = (x - self.origin[0]) / self.resolution - 0.5
        gy = (y - self.origin[1]) / self.resolution - 0.5
        w1 = self.width - 1
        h1 = self.height - 1
        if gx < 0.0:
            gx = 0.0
        elif gx > w1:
            gx = float(w1)
        if gy < 0.0:
            gy = 0.0
        elif gy > h1:
            gy = float(h1)
        ix = int(gx)
        if ix >= w1:
            ix = w1 - 1 if w1 > 0 else 0
        iy = int(gy)
        if iy >= h1:
            iy = h1 - 1 if h1 > 0 else 0
        fx = gx - ix
        fy = gy - iy
        rows = self._df_rows
        row0 = rows[iy]
        v00 = row0[ix]
        v01 = row0[ix + 1] if w1 > 0 else v00
        if h1 > 0:
            row1 = rows[iy + 1]
            v10 = row1[ix]
            v11 = row1[ix + 1] if w1 > 0 else v10
        else:
            v10, v11 = v00, v01
        if w1 <= 0:
            fx = 0.0
        if h1 <= 0:
            fy = 0.0
        return (1 - fy) * ((1 - fx) * v00 + fx * v01) + fy * ((1 - fx) * v10 + fx * v11)

    def sample_distance_batch(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Vectorized `sample_distance` over arrays of points."""
        xs = np.asarray(xs, dtype=float)
        if not self.has_occupied:
            return np.full(xs.shape, math.inf)
        return self.sample_field_batch(self.distance_field, xs, ys)

    def sample_field_batch(self, values: np.ndarray, xs, ys) -> np.ndarray:
        """Bilinear sample of a per-cell field (shaped like the grid, values at
        cell centers) at arrays of points; clamps outside points."""
        w1 = self.width - 1
        h1 = self.height - 1
        gx = np.minimum(np.maximum(
            (np.asarray(xs, dtype=float) - self.origin[0]) / self.resolution - 0.5, 0.0), w1)
        gy = np.minimum(np.maximum(
            (np.asarray(ys, dtype=float) - self.origin[1]) / self.resolution - 0.5, 0.0), h1)
        ix = np.minimum(gx.astype(int), max(0, w1 - 1))
        iy = np.minimum(gy.astype(int), max(0, h1 - 1))
        fx = gx - ix
        fy = gy - iy
        ix1 = np.minimum(ix + 1, w1)
        iy1 = np.minimum(iy + 1, h1)
        v00 = values[iy, ix]
        v01 = values[iy, ix1]
        v10 = values[iy1, ix]
        v11 = values[iy1, ix1]
        return (1 - fy) * ((1 - fx) * v00 + fx * v01) + fy * ((1 - fx) * v10 + fx * v11)


@dataclass(frozen=True)
class DynamicObstacle:
    """Disk obstacle, either constant-velocity or following a waypoint script.

    For the constant-velocity model `position` holds at time `epoch` and the
    obstacle moves with `velocity` forever. A script is a strictly
    time-ordered sequence of (t, x, y) waypoints, interpolated linearly and
    held at the end points outside the scripted interval.
    """

    id: str
    radius: float
    position: tuple[float, float] = (0.0, 0.0)
    velocity: tuple[float, float] = (0.0, 0.0)
    epoch: float = 0.0
    waypoints: tuple[tuple[float, float, float], ...] | None = None

    def __post_init__(self) -> None:
        if self.radius <= 0:
            raise ValueError(f"obstacle {self.id!r}: radius must be positive")
        if self.waypoints is not None:
            if len(self.waypoints) == 0:
                raise ValueError(f"obstacle {self.id!r}: empty waypoint script")
            times = [w[0] for w in self.waypoints]
            if any(t1 <= t0 for t0, t1 in zip(times, times[1:])):
                raise ValueError(f"obstacle {self.id!r}: waypoint times must strictly increase")


def predict_obstacle(obstacle: DynamicObstacle, t: float) -> tuple[float, float]:
    """Obstacle center at time t under its motion model."""
    wps = obstacle.waypoints
    if wps is None:
        dt = t - obstacle.epoch
        return (
            obstacle.position[0] + obstacle.velocity[0] * dt,
            obstacle.position[1] + obstacle.velocity[1] * dt,
        )
    if t <= wps[0][0]:
        return (wps[0][1], wps[0][2])
    if t >= wps[-1][0]:
        return (wps[-1][1], wps[-1][2])
    for (t0, x0, y0), (t1, x1, y1) in zip(wps, wps[1:]):
        if t <= t1:
            f = (t - t0) / (t1 - t0)
            return (x0 + f * (x1 - x0), y0 + f * (y1 - y0))
    return (wps[-1][1], wps[-1][2])


def obstacle_velocity(obstacle: DynamicObstacle, t: float) -> tuple[float, float]:
    """Instantaneous obstacle velocity at time t (segment slope for scripts)."""
    wps = obstacle.waypoints
    if wps is None:
        return obstacle.velocity
    if t < wps[0][0] or t >= wps[-1][0]:
        return (0.0, 0.0)
    for (t0, x0, y0), (t1, x1, y1) in zip(wps, wps[1:]):
        if t < t1:
            return ((x1 - x0) / (t1 - t0), (y1 - y0) / (t1 - t0))
    return (0.0, 0.0)


@dataclass(frozen=True)
class World:
    """Immutable snapshot: static grid, dynamic obstacles, robot footprint radius."""

    grid: OccupancyGrid
    obstacles: tuple[DynamicObstacle, ...] = ()
    robot_radius: float = 0.35

    def __post_init__(self) -> None:
        if self.robot_radius <= 0:
            raise ValueError("robot_radius must be positive")


# Per obstacle at one time: (x, y, vx, vy, radius), from predict_obstacle and
# obstacle_velocity. Scalar clearance and TTC queries read these.
ObstacleStates = tuple[tuple[float, float, float, float, float], ...]


def obstacle_states(world: World, t: float) -> ObstacleStates:
    """Position, velocity and radius of every obstacle at time t."""
    return tuple(
        predict_obstacle(obs, t) + obstacle_velocity(obs, t) + (obs.radius,)
        for obs in world.obstacles
    )


def _clearance_among(world: World, x: float, y: float, obstacles: ObstacleStates) -> float:
    """distance_to_nearest body against obstacles already predicted."""
    d = world.grid.sample_distance(x, y)
    for ox, oy, _, _, radius in obstacles:
        d = min(d, math.hypot(x - ox, y - oy) - radius)
    return max(0.0, d - world.robot_radius)


def distance_to_nearest(world: World, point: tuple[float, float], t: float) -> float:
    """Clearance d_o in meters at `point` and time `t` (0 = contact/penetration).

    Minimum over the static field and all obstacle disks predicted at t, with
    the robot radius deducted.
    """
    return _clearance_among(world, point[0], point[1], obstacle_states(world, t))


def _obstacle_centers(world: World, ts: np.ndarray) -> list:
    """Per obstacle: (radius, xs, ys) of its centers at the times ts, in numpy."""
    tracks = []
    for obs in world.obstacles:
        if obs.waypoints is None:
            dt = ts - obs.epoch
            ox = obs.position[0] + obs.velocity[0] * dt
            oy = obs.position[1] + obs.velocity[1] * dt
        else:
            wt = np.array([w[0] for w in obs.waypoints])
            ox = np.interp(ts, wt, np.array([w[1] for w in obs.waypoints]))
            oy = np.interp(ts, wt, np.array([w[2] for w in obs.waypoints]))
        tracks.append((obs.radius, ox, oy))
    return tracks


def _clearance_batch(world: World, xs: np.ndarray, ys: np.ndarray, tracks) -> np.ndarray:
    d = world.grid.sample_distance_batch(xs, ys)
    for radius, ox, oy in tracks:
        d = np.minimum(d, np.hypot(xs - ox, ys - oy) - radius)
    return np.maximum(0.0, d - world.robot_radius)


def distance_to_nearest_batch(world: World, xs: np.ndarray, ys: np.ndarray,
                              ts: np.ndarray) -> np.ndarray:
    """Vectorized `distance_to_nearest` over matched point/time arrays."""
    return _clearance_batch(world, xs, ys, _obstacle_centers(world, ts))


class HorizonSnapshot:
    """A world's obstacles predicted once at a fixed list of step times.

    Built once per planning problem (or per trajectory_cost call); the
    optimizer's sweep and its refinement share one, through one `CostKernel`,
    so nothing re-predicts an obstacle. It holds two versions of the centers:

    - `obstacles[k]` equals `obstacle_states(world, ts[k])`, the
      `predict_obstacle`/`obstacle_velocity` values that scalar TTC queries
      read. `tracks` holds the same values as numpy arrays, one
      (radius, xs, ys, vxs, vys) tuple per obstacle over the times, for the
      vectorized sweep.
    - `clearance(xs, ys)` equals `distance_to_nearest_batch(world, xs, ys,
      ts)`, whose waypoint centers come from `np.interp`. Those differ from
      `predict_obstacle` by a few ulps at some times, and the scalar cost
      reads this clearance, so keeping both sets keeps every cost
      bit-identical to `distance_to_nearest_batch`-based scoring.
    """

    __slots__ = ("world", "obstacles", "tracks", "_centers")

    def __init__(self, world: World, ts: list[float]):
        self.world = world
        self.obstacles = [obstacle_states(world, t) for t in ts]
        states = np.array(self.obstacles, dtype=float).reshape(
            len(ts), len(world.obstacles), 5)
        self.tracks = [
            (obs.radius, *states[:, k, :4].T) for k, obs in enumerate(world.obstacles)
        ]
        self._centers = _obstacle_centers(world, np.array(ts, dtype=float))

    def clearance(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        return _clearance_batch(self.world, xs, ys, self._centers)


def _static_ray_arc(
    grid: OccupancyGrid, x: float, y: float, ux: float, uy: float,
    robot_radius: float, max_arc: float,
) -> float | None:
    """Arc length along the ray until the distance field drops to the robot
    radius, or None if there is no hit within max_arc.

    Sphere-tracing march from where the ray enters the grid box: the
    1-Lipschitz field allows steps of (df - radius), floored at resolution/2
    so the error stays within one cell. The box clip and the bilinear sample
    are inlined; the sample must match OccupancyGrid.sample_distance.
    """
    if not grid.has_occupied:
        return None
    xmin, ymin, xmax, ymax = grid._extent
    s, s_end = 0.0, math.inf
    for p, u, lo, hi in ((x, ux, xmin, xmax), (y, uy, ymin, ymax)):
        if abs(u) < 1e-15:
            if p < lo or p > hi:
                return None
        else:
            ta = (lo - p) / u
            tb = (hi - p) / u
            if ta > tb:
                ta, tb = tb, ta
            if ta > s:
                s = ta
            if tb < s_end:
                s_end = tb
    if s_end < s:
        return None
    if max_arc < s_end:
        s_end = max_arc
    res = grid.resolution
    min_step = 0.5 * res
    ox, oy = grid.origin
    w1 = grid.width - 1
    h1 = grid.height - 1
    # Lowest index of the last 2x2 stencil and the offset of the upper
    # neighbour per axis; a one-cell axis uses its one cell twice (clamping
    # then leaves the fraction at exactly 0, as sample_distance sets it).
    ix_last, dx1 = (w1 - 1, 1) if w1 > 0 else (0, 0)
    iy_last, dy1 = (h1 - 1, 1) if h1 > 0 else (0, 0)
    rows = grid._df_rows
    while s <= s_end:
        gx = (x + ux * s - ox) / res - 0.5
        gy = (y + uy * s - oy) / res - 0.5
        if gx < 0.0:
            gx = 0.0
        elif gx > w1:
            gx = float(w1)
        if gy < 0.0:
            gy = 0.0
        elif gy > h1:
            gy = float(h1)
        ix = int(gx)
        if ix >= w1:
            ix = ix_last
        iy = int(gy)
        if iy >= h1:
            iy = iy_last
        fx = gx - ix
        fy = gy - iy
        row0 = rows[iy]
        row1 = rows[iy + dy1]
        v00 = row0[ix]
        v01 = row0[ix + dx1]
        v10 = row1[ix]
        v11 = row1[ix + dx1]
        df = (1 - fy) * ((1 - fx) * v00 + fx * v01) + fy * ((1 - fx) * v10 + fx * v11)
        gap = df - robot_radius
        if gap <= 0.0:
            return s
        s += gap if gap > min_step else min_step
    return None


def _ttc_assuming_clear(
    world: World, x: float, y: float, vx: float, vy: float, obstacles: ObstacleStates
) -> float:
    """time_to_collision body for a configuration already known clear, with
    the obstacles already predicted at the query time."""
    best = math.inf
    robot_radius = world.robot_radius
    for ox, oy, ovx, ovy, radius in obstacles:
        dpx, dpy = ox - x, oy - y
        dvx, dvy = ovx - vx, ovy - vy
        a = dvx * dvx + dvy * dvy
        if a < _SPEED_EPS * _SPEED_EPS:
            continue
        r_sum = robot_radius + radius
        b = 2.0 * (dpx * dvx + dpy * dvy)
        c = dpx * dpx + dpy * dpy - r_sum * r_sum
        disc = b * b - 4.0 * a * c
        if disc <= 0.0:
            continue
        s = (-b - math.sqrt(disc)) / (2.0 * a)
        if 0.0 < s < best:
            best = s
    speed = math.hypot(vx, vy)
    if speed >= _SPEED_EPS and world.grid.has_occupied:
        arc = _static_ray_arc(
            world.grid, x, y, vx / speed, vy / speed,
            robot_radius, max_arc=min(best, TTC_HORIZON) * speed,
        )
        if arc is not None:
            best = min(best, arc / speed)
    if best > TTC_HORIZON:
        return math.inf
    return best


def _time_to_collision_among(
    world: World, x: float, y: float, vx: float, vy: float, obstacles: ObstacleStates
) -> float:
    """time_to_collision body with the obstacles already predicted."""
    if _clearance_among(world, x, y, obstacles) <= 0.0:
        return 0.0
    return _ttc_assuming_clear(world, x, y, vx, vy, obstacles)


def time_to_collision(
    world: World, position: tuple[float, float], velocity: tuple[float, float], t0: float
) -> float:
    """Seconds until first contact if robot and obstacles hold their velocities.

    Returns 0 exactly when already in contact (d_o = 0), +inf when no contact
    occurs within TTC_HORIZON. Dynamic obstacles are solved analytically from
    the relative-motion quadratic; the static grid is ray-marched.
    """
    return _time_to_collision_among(
        world, position[0], position[1], velocity[0], velocity[1],
        obstacle_states(world, t0),
    )


_DIJKSTRA_MOVES = (
    (1, 0, 1.0), (-1, 0, 1.0), (0, 1, 1.0), (0, -1, 1.0),
    (1, 1, math.sqrt(2.0)), (1, -1, math.sqrt(2.0)),
    (-1, 1, math.sqrt(2.0)), (-1, -1, math.sqrt(2.0)),
)


class NavigationField:
    """Shortest-path distance to a goal position over free grid cells (meters).

    Falls back to plain Euclidean distance on grids with no occupied cell.
    Unreachable and occupied cells are assigned a large finite ceiling so
    lookups near walls stay finite.
    """

    def __init__(self, grid: OccupancyGrid, goal: tuple[float, float]):
        self.grid = grid
        self.goal = (float(goal[0]), float(goal[1]))
        self._values: np.ndarray | None = None
        if grid.has_occupied:
            self._values = self._dijkstra()

    def _dijkstra(self) -> np.ndarray:
        grid = self.grid
        res = grid.resolution
        gx, gy = grid.cell_of(*self.goal)
        if grid.occupied[gy, gx]:
            raise ValueError("navigation goal lies in an occupied cell")
        dist = np.full(grid.occupied.shape, math.inf)
        dist[gy, gx] = 0.0
        heap = [(0.0, gx, gy)]
        occ = grid.occupied
        w, h = grid.width, grid.height
        while heap:
            d, cx, cy = heapq.heappop(heap)
            if d > dist[cy, cx]:
                continue
            for mx, my, cost in _DIJKSTRA_MOVES:
                nx, ny = cx + mx, cy + my
                if nx < 0 or ny < 0 or nx >= w or ny >= h or occ[ny, nx]:
                    continue
                nd = d + cost * res
                if nd < dist[ny, nx]:
                    dist[ny, nx] = nd
                    heapq.heappush(heap, (nd, nx, ny))
        finite = dist[np.isfinite(dist)]
        ceiling = (finite.max() if finite.size else 0.0) + math.hypot(
            w * res, h * res
        )
        return np.where(np.isfinite(dist), dist, ceiling)

    def distance(self, x: float, y: float) -> float:
        if self._values is None:
            return math.hypot(x - self.goal[0], y - self.goal[1])
        return float(self.grid.sample_field_batch(self._values, [x], [y])[0])

    def distance_batch(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if self._values is None:
            return np.hypot(xs - self.goal[0], ys - self.goal[1])
        return self.grid.sample_field_batch(self._values, xs, ys)
