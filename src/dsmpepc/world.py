"""Static occupancy grid, dynamic disk obstacles, and clearance/TTC queries.

The grid stores a precomputed Euclidean distance field (meters to the nearest
occupied cell center). Dynamic obstacles are disks under a constant-velocity
model or a piecewise-linear waypoint script. A World snapshot is immutable
during one planning cycle; all queries are read-only.

`OccupancyGrid.sample_field_batch` is the one bilinear sampler of the
distance field and of the navigation field: the clearance, the TTC ray march
and the progress term all read through it. Its constants (origin,
resolution, clamps, corner offsets) are folded into 0-d arrays once per
grid, and it works in place on a few arrays per call, since the march calls
it once per lockstep iteration on few points.

The scalar contact rule (`_gaps`) is written once: `detect_collision` reads
it for every agent of a simulation step, `distance_to_nearest` for one point.
It measures a disk as `HorizonSnapshot.clearance` does, with numpy's
`hypot`, so the scalar and the planner's clearance are equal. One lookup
(`_motion`) gives an obstacle's center and velocity at a time.

A grid with an occupied cell gets both of its fields from numpy alone, each
exact: the distance field from a separable Euclidean distance transform
(`_squared_edt`, after Meijster, Roerdink & Hesselink, 2000), and a
navigation field from a frontier relaxation of the 8-connected moves (a
label-correcting search in the spirit of Meyer & Sanders' delta-stepping)
whose floats are those of a Dijkstra search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Time-to-collision values beyond this horizon are reported as +inf, so a
# TTC past it jumps to the cost's asymptotes. At the default CostParams
# (a = 0.7, sigma_inv_ttc = 0.5) that jump is small but not nil: at the
# horizon the anticipatory factor is 2.8e-4 above its asymptote 1 - a and
# C_TTC is 4.0e-4 below 1. The factor comes within 1e-6 of its asymptote
# only at about 1,700 s.
TTC_HORIZON = 100.0

_SPEED_EPS = 1e-9

_ZERO, _HALF, _ONE = np.array(0.0), np.array(0.5), np.array(1.0)


class OccupancyGrid:
    """Binary occupancy grid with a Euclidean distance field.

    Cells are indexed [iy, ix] with iy = 0 at the bottom; cell (0, 0) spans
    [origin, origin + resolution] in each axis. The distance field holds, per
    cell, the distance in meters to the nearest occupied cell center (+inf
    when the grid has no occupied cell): the square root of an exact integer
    squared distance in cells (`_squared_edt`), times the resolution.
    """

    def __init__(
        self,
        occupied: np.ndarray,
        resolution: float,
        origin: tuple[float, float] = (0.0, 0.0),
    ):
        # a read-only copy: the distance field and has_occupied derive from it
        occupied = np.array(occupied, dtype=bool)
        if occupied.ndim != 2 or occupied.size == 0:
            raise ValueError("grid must be a non-empty 2D array")
        if not 0 < resolution < math.inf:
            raise ValueError("resolution must be positive and finite")
        occupied.flags.writeable = False
        self.occupied = occupied
        self.resolution = float(resolution)
        self.origin = (float(origin[0]), float(origin[1]))
        if not all(map(math.isfinite, self.origin)):
            raise ValueError("origin must be finite")
        self.height, self.width = occupied.shape
        self._extent = (
            self.origin[0], self.origin[1],
            self.origin[0] + self.width * self.resolution,
            self.origin[1] + self.height * self.resolution,
        )
        self.has_occupied = bool(occupied.any())
        if self.has_occupied:
            self.distance_field = np.sqrt(_squared_edt(occupied)) * self.resolution
        else:
            self.distance_field = np.full(occupied.shape, math.inf)
        # Per axis, the 2x2 bilinear stencil of both samplers: (last cell
        # index, lowest index of the last stencil, offset of the upper
        # neighbour). A one-cell axis uses its one cell twice; clamping then
        # leaves the fraction at exactly 0.
        self._stencil_x = _axis_stencil(self.width)
        self._stencil_y = _axis_stencil(self.height)
        # The batch sampler's constants, folded once per grid into 0-d
        # arrays: origin, resolution, clamps, row stride and the flat offsets
        # of the upper-x, upper-y and far corners.
        (w1, ix_last, dx1), (h1, iy_last, dy1) = self._stencil_x, self._stencil_y
        self._folded = tuple(np.array(c, dtype=dtype) for c, dtype in (
            (self.origin[0], float), (self.origin[1], float), (self.resolution, float),
            (w1, float), (h1, float), (ix_last, int), (iy_last, int), (self.width, int),
            (dx1, int), (dy1 * self.width, int), (dy1 * self.width + dx1, int)))

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
        bad = sorted(set("".join(rows)) - {"#", "."})
        if bad:
            raise ValueError(f"map rows may only contain '#' and '.', got {bad}")
        # Only '#' and '.' are left, so the text encodes to one byte per cell.
        text = "".join(reversed(rows)).encode("ascii")
        occupied = np.frombuffer(text, np.uint8).reshape(len(rows), width) == ord("#")
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
        """Bilinear sample of the distance field (meters); clamps outside points.

        The same arithmetic as `sample_distance_batch`, so the two agree
        exactly."""
        if not self.has_occupied:
            return math.inf
        field = self.distance_field
        w1, ix_last, dx1 = self._stencil_x
        h1, iy_last, dy1 = self._stencil_y
        gx = (x - self.origin[0]) / self.resolution - 0.5
        gy = (y - self.origin[1]) / self.resolution - 0.5
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
        v00 = field.item(iy, ix)
        v01 = field.item(iy, ix + dx1)
        v10 = field.item(iy + dy1, ix)
        v11 = field.item(iy + dy1, ix + dx1)
        return (1 - fy) * ((1 - fx) * v00 + fx * v01) + fy * ((1 - fx) * v10 + fx * v11)

    def sample_distance_batch(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Vectorized `sample_distance` over arrays of points."""
        xs = np.asarray(xs, dtype=float)
        if not self.has_occupied:
            return np.full(xs.shape, math.inf)
        return self.sample_field_batch(self.distance_field, xs, ys)

    def sample_field_batch(self, values: np.ndarray, xs, ys) -> np.ndarray:
        """Bilinear sample of a per-cell field (shaped like the grid, values at
        cell centers) at arrays of points; clamps outside points.

        The arithmetic of `sample_distance`, in place on a few arrays per
        call, with the four corners gathered by flat index into the
        row-major field."""
        ox, oy, res, w1, h1, ix_last, iy_last, width, d01, d10, d11 = self._folded
        shape = np.shape(xs)
        gx = np.subtract(xs, ox, out=np.empty(shape))
        gy = np.subtract(ys, oy, out=np.empty(shape))
        cells = []
        for g, last, g_max in ((gx, ix_last, w1), (gy, iy_last, h1)):
            np.divide(g, res, out=g)
            np.subtract(g, _HALF, out=g)
            np.maximum(g, _ZERO, out=g)
            np.minimum(g, g_max, out=g)
            i = g.astype(int)
            np.minimum(i, last, out=i)
            # the fraction within the cell
            np.subtract(g, i, out=g)
            cells.append(i)
        ix, iy = cells
        # flat index of the lower corner, in place of iy
        i00 = np.multiply(iy, width, out=iy)
        np.add(i00, ix, out=i00)
        flat = values.ravel()
        v00 = flat[i00]
        v01, v10, v11 = (flat[np.add(i00, d, out=ix)] for d in (d01, d10, d11))
        # (1 - fy) * ((1 - fx) * v00 + fx * v01) + fy * ((1 - fx) * v10 + fx * v11)
        one_minus = np.subtract(_ONE, gx)
        for lower, upper in ((v00, v01), (v10, v11)):
            np.multiply(one_minus, lower, out=lower)
            np.multiply(gx, upper, out=upper)
            np.add(lower, upper, out=lower)
        np.subtract(_ONE, gy, out=one_minus)
        np.multiply(one_minus, v00, out=v00)
        np.multiply(gy, v10, out=v10)
        np.add(v00, v10, out=v00)
        return v00


def _axis_stencil(cells: int) -> tuple[int, int, int]:
    last = cells - 1
    return (last, last - 1, 1) if last > 0 else (0, 0, 0)


def _squared_edt(occupied: np.ndarray) -> np.ndarray:
    """Per cell, the squared distance in cells to the nearest occupied cell
    center, exact in integers; the grid must have an occupied cell.

    Separable, in O(H * W) memory: first, along each line of the longer
    axis, the distance g to the line's nearest occupied cell, from the
    running last and next occupied index; then, across lines, the least
    g^2 + k^2 over shifts k. A shift no shorter than the largest distance
    found so far can lower none, so the loop stops there.
    """
    swap = occupied.shape[0] > occupied.shape[1]
    occ = occupied.T if swap else occupied
    h, w = occ.shape
    # a line with no occupied cell gets g >= h + w, so g^2 exceeds every
    # squared distance on the grid until another line's cell replaces it
    far = h + w
    index = np.arange(w)
    last = np.maximum.accumulate(np.where(occ, index, -far), axis=1)
    upcoming = np.minimum.accumulate(np.where(occ, index, w + far)[:, ::-1], axis=1)[:, ::-1]
    g = np.minimum(index - last, upcoming - index)
    f = g * g
    out = f.copy()
    for k in range(1, h):
        k2 = k * k
        if k2 >= out.max():
            break
        np.minimum(out[k:], np.add(f[:-k], k2), out=out[k:])
        np.minimum(out[:-k], np.add(f[k:], k2), out=out[:-k])
    # row-major either way: the sampler gathers from the raveled field
    return np.ascontiguousarray(out.T) if swap else out


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
        if not 0 < self.radius < math.inf:
            raise ValueError(f"obstacle {self.id!r}: radius must be positive and finite")
        if len(self.position) != 2 or len(self.velocity) != 2:
            raise ValueError(f"obstacle {self.id!r}: position and velocity must be (x, y) pairs")
        numbers = (*self.position, *self.velocity, self.epoch)
        if self.waypoints is not None:
            if len(self.waypoints) == 0:
                raise ValueError(f"obstacle {self.id!r}: empty waypoint script")
            if any(len(w) != 3 for w in self.waypoints):
                raise ValueError(f"obstacle {self.id!r}: each waypoint must be a (t, x, y) triple")
            times = [w[0] for w in self.waypoints]
            if any(t1 <= t0 for t0, t1 in zip(times, times[1:])):
                raise ValueError(f"obstacle {self.id!r}: waypoint times must strictly increase")
            numbers += tuple(v for w in self.waypoints for v in w)
        if not all(map(math.isfinite, numbers)):
            raise ValueError(f"obstacle {self.id!r}: motion model must be finite")


def _motion(obstacle: DynamicObstacle, t: float) -> tuple[float, float, float, float]:
    """Obstacle center and velocity (x, y, vx, vy) at time t under its motion
    model. A script rests at its first waypoint before its first time and at
    its last waypoint from its last time on; in between, t lies on the one
    segment [t0, t1) that holds it."""
    wps = obstacle.waypoints
    if wps is None:
        (x, y), (vx, vy) = obstacle.position, obstacle.velocity
        dt = t - obstacle.epoch
        return (x + vx * dt, y + vy * dt, vx, vy)
    if t < wps[0][0]:
        _, x, y = wps[0]
        return (x, y, 0.0, 0.0)
    for (t0, x0, y0), (t1, x1, y1) in zip(wps, wps[1:]):
        if t < t1:
            f = (t - t0) / (t1 - t0)
            return (x0 + f * (x1 - x0), y0 + f * (y1 - y0),
                    (x1 - x0) / (t1 - t0), (y1 - y0) / (t1 - t0))
    _, x, y = wps[-1]
    return (x, y, 0.0, 0.0)


def predict_obstacle(obstacle: DynamicObstacle, t: float) -> tuple[float, float]:
    """Obstacle center at time t under its motion model."""
    return _motion(obstacle, t)[:2]


@dataclass(frozen=True)
class World:
    """Immutable snapshot: static grid, dynamic obstacles, robot footprint radius."""

    grid: OccupancyGrid
    obstacles: tuple[DynamicObstacle, ...] = ()
    robot_radius: float = 0.35

    def __post_init__(self) -> None:
        if not 0 < self.robot_radius < math.inf:
            raise ValueError("robot_radius must be positive and finite")


def _gaps(grid: OccupancyGrid, x: float, y: float, radius: float, disks) -> list[float]:
    """The contact rule: the gaps between a robot's disk of `radius` at
    (x, y) and the map, then each of `disks` ((x, y, radius) triples), each
    their distance less the disk's radius, then the robot's. A gap of 0 or
    less is contact, and the robot's clearance d_o is max(0, least gap). The
    arithmetic is `HorizonSnapshot.clearance`'s, so the two agree exactly."""
    gaps = [grid.sample_distance(x, y) - radius]
    for dx, dy, r in disks:
        gaps.append(float(np.hypot(x - dx, y - dy)) - r - radius)
    return gaps


def distance_to_nearest(world: World, point: tuple[float, float], t: float) -> float:
    """Clearance d_o in meters at `point` and time `t` (0 = contact/penetration):
    the least gap of the robot's disk to the grid and to every obstacle disk
    predicted at t, at least 0."""
    x, y = point
    disks = [(*predict_obstacle(obs, t), obs.radius) for obs in world.obstacles]
    return max(0.0, min(_gaps(world.grid, x, y, world.robot_radius, disks)))


def detect_collision(
    grid: OccupancyGrid,
    agents: dict[str, tuple[float, float]],
    radii: dict[str, float],
    obstacles: tuple[DynamicObstacle, ...],
    t: float,
) -> tuple[list[tuple[str, str]], dict[str, float]]:
    """Each agent's contacts (agent, other) at time t, and its clearance d_o.

    `other` is "grid", an obstacle id, or another agent id. Each obstacle is
    predicted once, and each agent reads its own row of the contact rule: its
    gaps to the map, each obstacle and each other agent. Its contacts are the
    parties whose gap is 0 or less, in that order, and its clearance is
    max(0, least gap), the `distance_to_nearest` of a world holding the
    obstacles and the other agents' disks where they stand at t. An agent is
    thus in contact exactly when its d_o is 0, and neither result depends on
    the order of `agents` or `obstacles`.
    """
    disks = [(*predict_obstacle(obs, t), obs.radius) for obs in obstacles]
    parties = ["grid", *(obs.id for obs in obstacles)]
    events, clearance = [], {}
    for aid, (x, y) in agents.items():
        others = [bid for bid in agents if bid != aid]
        gaps = _gaps(grid, x, y, radii[aid], disks + [(*agents[b], radii[b]) for b in others])
        events += [(aid, other) for other, gap in zip(parties + others, gaps) if gap <= 0.0]
        clearance[aid] = max(0.0, min(gaps))
    return events, clearance


class HorizonSnapshot:
    """A world's obstacles predicted once at a fixed list of step times.

    Built once per planning problem (or per trajectory_cost or
    time_to_collision call); every batch the optimizer evaluates shares one,
    through one `CostKernel`, so nothing re-predicts an obstacle. `tracks`
    is a (K, T, 4) array: per obstacle of `world.obstacles` and step time,
    its center and velocity, from one `_motion` lookup. Every
    planning-time clearance (`clearance`) and TTC (`ttc`) reads it, so both
    see the same obstacle centers.
    """

    __slots__ = ("world", "tracks")

    def __init__(self, world: World, ts):
        self.world = world
        self.tracks = np.array(
            [[_motion(obs, t) for t in ts] for obs in world.obstacles],
            dtype=float).reshape(len(world.obstacles), len(ts), 4)

    def clearance(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Clearance d_o at points whose last axis runs over the step times;
        any leading axes (a batch of rollouts) broadcast."""
        world = self.world
        d = world.grid.sample_distance_batch(xs, ys)
        for obs, (ox, oy, _, _) in zip(world.obstacles, self.tracks.transpose(0, 2, 1)):
            d = np.minimum(d, np.hypot(xs - ox, ys - oy) - obs.radius)
        return np.maximum(0.0, d - world.robot_radius)

    def ttc(self, x, y, vx, vy, t_idx, d0) -> np.ndarray:
        """`time_to_collision` of points moving with velocities (vx, vy),
        each against the obstacles at its index `t_idx` into the step times;
        `d0` is the points' clearance (0 exactly where in contact).

        Every operation is elementwise per point, so a point's TTC does not
        depend on the others in the call: `CostKernel.evaluate` makes one
        call per evaluation, its segment queries followed by its terminal
        queries, and the static grid is ray-marched once for all of them."""
        world = self.world
        n = x.shape[0]
        best = np.full(n, math.inf)
        # entered once, not per disk: each entry costs about 2 us
        with np.errstate(divide="ignore", invalid="ignore"):
            for obs, (px, py, ovx, ovy) in zip(world.obstacles,
                                               self.tracks.transpose(0, 2, 1)):
                dpx = px[t_idx] - x
                dpy = py[t_idx] - y
                dvx = ovx[t_idx] - vx
                dvy = ovy[t_idx] - vy
                a = dvx * dvx + dvy * dvy
                r_sum = world.robot_radius + obs.radius
                bq = 2.0 * (dpx * dvx + dpy * dvy)
                c = dpx * dpx + dpy * dpy - r_sum * r_sum
                disc = bq * bq - 4.0 * a * c
                ok = (a >= _SPEED_EPS * _SPEED_EPS) & (disc > 0.0)
                s = (-bq - np.sqrt(np.where(ok, disc, 0.0))) / np.where(ok, 2.0 * a, 1.0)
                s = np.where(ok & (s > 0.0), s, math.inf)
                best = np.minimum(best, s)
        # only the grid march reads the speeds: an open map skips them
        if world.grid.has_occupied:
            speed = np.hypot(vx, vy)
            # a point in contact has TTC 0 whatever the grid holds ahead of it
            movers = (speed >= _SPEED_EPS) & (d0 > 0.0)
            if movers.any():
                mi = np.nonzero(movers)[0]
                sp = speed[mi]
                arcs = _static_ray_arcs(
                    world.grid,
                    x[mi], y[mi], vx[mi] / sp, vy[mi] / sp,
                    world.robot_radius,
                    np.minimum(best[mi], TTC_HORIZON) * sp,
                )
                best[mi] = np.minimum(best[mi], arcs / sp)
        best = np.where(best > TTC_HORIZON, math.inf, best)
        return np.where(d0 <= 0.0, 0.0, best)


def distance_to_nearest_batch(world: World, xs: np.ndarray, ys: np.ndarray,
                              ts: np.ndarray) -> np.ndarray:
    """Vectorized `distance_to_nearest` over matched point/time arrays."""
    return HorizonSnapshot(world, ts).clearance(xs, ys)


def _static_ray_arcs(grid: OccupancyGrid, x, y, ux, uy, robot_radius: float,
                     max_arc) -> np.ndarray:
    """Arc length along each ray until the distance field drops to the robot
    radius; +inf where a ray has no hit within its max_arc.

    Sphere-tracing march from where each ray enters the grid box: the
    1-Lipschitz field allows steps of (df - radius), floored at resolution/2
    so the error stays within one cell. All rays march in lockstep, each
    until it hits or passes its end; each iteration samples only the rays
    still marching.
    """
    n = x.shape[0]
    arcs = np.full(n, math.inf)
    if n == 0 or not grid.has_occupied:
        return arcs
    xmin, ymin, xmax, ymax = grid.extent
    s0 = np.zeros(n)
    s1 = np.minimum(np.asarray(max_arc, dtype=float), math.inf)
    valid = np.ones(n, dtype=bool)
    for p, u, lo, hi in ((x, ux, xmin, xmax), (y, uy, ymin, ymax)):
        parallel = np.abs(u) < 1e-15
        valid &= ~parallel | ((p >= lo) & (p <= hi))
        with np.errstate(divide="ignore", invalid="ignore"):
            ta = (lo - p) / np.where(parallel, 1.0, u)
            tb = (hi - p) / np.where(parallel, 1.0, u)
        lo_t = np.minimum(ta, tb)
        hi_t = np.maximum(ta, tb)
        s0 = np.where(parallel, s0, np.maximum(s0, lo_t))
        s1 = np.where(parallel, s1, np.minimum(s1, hi_t))
    valid &= s1 >= s0
    min_step = 0.5 * grid.resolution

    idx = np.flatnonzero(valid)
    s, end = s0[idx], s1[idx]
    while idx.size:
        df = grid.sample_distance_batch(x[idx] + ux[idx] * s, y[idx] + uy[idx] * s)
        gap = df - robot_radius
        hit = gap <= 0.0
        arcs[idx[hit]] = s[hit]
        s = s + np.maximum(min_step, gap)
        alive = ~hit & (s <= end)
        idx, s, end = idx[alive], s[alive], end[alive]
    return arcs


def time_to_collision(
    world: World, position: tuple[float, float], velocity: tuple[float, float], t0: float
) -> float:
    """Seconds until first contact if robot and obstacles hold their velocities.

    Returns 0 exactly when already in contact (d_o = 0), +inf when no contact
    occurs within TTC_HORIZON. Dynamic obstacles are solved analytically from
    the relative-motion quadratic; the static grid is ray-marched. A batch of
    one point through the planner's own TTC (`HorizonSnapshot.ttc`). Raises
    ValueError for a non-finite position, velocity or t0.
    """
    x, y, vx, vy, t0 = map(float, (position[0], position[1], velocity[0], velocity[1], t0))
    if not all(map(math.isfinite, (x, y, vx, vy, t0))):
        raise ValueError("time_to_collision requires a finite position, velocity and t0")
    snapshot = HorizonSnapshot(world, [t0])
    x, y = np.array([x]), np.array([y])
    ttc = snapshot.ttc(x, y, np.array([vx]), np.array([vy]),
                       np.zeros(1, dtype=int), snapshot.clearance(x, y))
    return float(ttc[0])


_MOVES = (
    (1, 0, 1.0), (-1, 0, 1.0), (0, 1, 1.0), (0, -1, 1.0),
    (1, 1, math.sqrt(2.0)), (1, -1, math.sqrt(2.0)),
    (-1, 1, math.sqrt(2.0)), (-1, -1, math.sqrt(2.0)),
)


class NavigationField:
    """Shortest-path distance to a goal position over free grid cells (meters).

    Falls back to plain Euclidean distance on grids with no occupied cell.
    Unreachable and occupied cells are assigned a large finite ceiling so
    lookups near walls stay finite. The goal must be finite and, on a grid
    with an occupied cell, lie within the grid's extent in a free cell.

    Over a walled grid the field is the shortest 8-connected path (corners
    cut, each move weighing its length, a path's length the running float
    sum of its moves), found by a frontier relaxation: each round relaxes
    the moves out of the cells the last round lowered, until none is
    lowered. It ends at the least fixpoint of d[v] = min over u of
    (d[u] + w), unique for weights of at least one resolution, so it is a
    Dijkstra search's float field, bit for bit.
    """

    def __init__(self, grid: OccupancyGrid, goal: tuple[float, float]):
        self.grid = grid
        self.goal = (float(goal[0]), float(goal[1]))
        if not all(map(math.isfinite, self.goal)):
            raise ValueError(f"navigation goal {self.goal} must be finite")
        self._values: np.ndarray | None = None
        if grid.has_occupied:
            xmin, ymin, xmax, ymax = grid.extent
            if not (xmin <= self.goal[0] <= xmax and ymin <= self.goal[1] <= ymax):
                raise ValueError(
                    f"navigation goal {self.goal} lies outside the grid extent {grid.extent}")
            self._values = self._shortest_paths()

    def _shortest_paths(self) -> np.ndarray:
        grid = self.grid
        res = grid.resolution
        gx, gy = grid.cell_of(*self.goal)
        if grid.occupied[gy, gx]:
            raise ValueError("navigation goal lies in an occupied cell")
        w, h = grid.width, grid.height
        # The grid padded with a one-cell occupied border, flat, so every
        # move is a flat-index offset that stays inside the padded array.
        # Occupied cells hold -inf, which no candidate beats, so a search
        # never enters them; free cells start at +inf.
        stride = w + 2
        dist = np.full((h + 2, stride), -math.inf)
        dist[1:-1, 1:-1] = np.where(grid.occupied, -math.inf, math.inf)
        dist = dist.ravel()
        offsets = np.array([my * stride + mx for mx, my, _ in _MOVES])
        weights = np.array([cost * res for _, _, cost in _MOVES])
        goal = (gy + 1) * stride + gx + 1
        dist[goal] = 0.0
        front = np.array([goal])
        lowered = np.zeros(dist.size, dtype=bool)
        while front.size:
            targets = np.add.outer(front, offsets)
            candidates = np.add.outer(dist[front], weights)
            better = candidates < dist[targets]
            targets = targets[better]
            # a cell several moves reach keeps the least of their candidates
            np.minimum.at(dist, targets, candidates[better])
            lowered[targets] = True
            front = lowered.nonzero()[0]
            lowered[front] = False
        dist = dist.reshape(h + 2, stride)[1:-1, 1:-1]
        # occupied (-inf) and unreachable (+inf) cells alike get the ceiling;
        # the goal is always reached
        reached = np.isfinite(dist)
        ceiling = dist[reached].max() + math.hypot(w * res, h * res)
        return np.where(reached, dist, ceiling)

    def distance(self, x: float, y: float) -> float:
        """`distance_batch` of one point."""
        return float(self.distance_batch([x], [y])[0])

    def distance_batch(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if self._values is None:
            return np.hypot(xs - self.goal[0], ys - self.goal[1])
        return self.grid.sample_field_batch(self._values, xs, ys)
