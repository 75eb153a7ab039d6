"""Seeded input generation for the benchmark workloads.

Everything here is a pure function of the seed: the same seed gives the same
maps, planning problems and scenario documents, so timings from two commits
are taken on identical inputs. The program under test only ever sees the
generated inputs, never the seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

import dsmpepc

ROBOT_RADIUS = 0.35

# The suite budget of the built-in scenarios (n_global_samples,
# n_refine_seeds, refine_max_evals); the replay uses the library default.
SUITE_OPTIMIZER = {"n_global_samples": 256, "n_refine_seeds": 2, "refine_max_evals": 30}

# One map per problem: map geometry sets much of a problem's cost and search
# gain, so spreading the problems over many maps keeps per-seed figures close.
REPLAY_MAPS = 128
REPLAY_PROBLEMS = 128
# Start clearance d_o (m) bands: near clutter, but with room to pull away;
# closer than ~0.25 m every candidate pays a near-certain collision cost.
_CLEARANCE_BANDS = ((0.25, 0.45), (0.45, 0.7))
MIN_START_CLEARANCE = 0.15
# Goals beyond one horizon's travel (5 s at 1 m/s), so progress is bounded
# by speed, not by the goal.
GOAL_MIN_DISTANCE = 5.0
CROWD_SIMS = 2
CROWD_AGENTS = 6
CORRIDOR_SIMS = 4


# --------------------------------------------------------------------------
# Maps
# --------------------------------------------------------------------------


def _rows(occupied: np.ndarray) -> list[str]:
    """ASCII rows (first row = map top) of a bottom-up occupancy array."""
    return ["".join("#" if c else "." for c in row) for row in occupied[::-1]]


def _carve(width_m: float, height_m: float, res: float, free_fn) -> list[str]:
    nx = int(round(width_m / res))
    ny = int(round(height_m / res))
    cx = (np.arange(nx) + 0.5) * res
    cy = (np.arange(ny) + 0.5) * res
    x, y = np.meshgrid(cx, cy)
    return _rows(~free_fn(x, y))


def corridor_map(rng: random.Random) -> dict:
    """Straight corridor, optionally with a side branch (a T junction)."""
    res = rng.choice((0.2, 0.25))
    w = rng.uniform(1.6, 2.6)
    length = rng.uniform(9.0, 13.0)
    branch = rng.random() < 0.5
    bx = rng.uniform(3.0, length - 3.0)
    bw = rng.uniform(1.4, 2.2)
    height = 2.0 + w + (4.0 if branch else 0.0)

    def free(x, y):
        main = (x >= 1.0) & (x <= 1.0 + length) & (y >= 1.0) & (y <= 1.0 + w)
        if not branch:
            return main
        side = (np.abs(x - (1.0 + bx)) <= bw / 2) & (y >= 1.0) & (y <= height - 1.0)
        return main | side

    return {"rows": _carve(length + 2.0, height, res, free), "resolution": res}


def pillar_map(rng: random.Random) -> dict:
    """Walled hall with rectangular pillars."""
    res = rng.choice((0.2, 0.25))
    width = rng.uniform(11.0, 15.0)
    height = rng.uniform(7.0, 10.0)
    pillars = []
    for _ in range(rng.randint(3, 6)):
        pw = rng.uniform(0.6, 1.4)
        ph = rng.uniform(0.6, 1.4)
        px = rng.uniform(2.5, width - 2.5 - pw)
        py = rng.uniform(2.0, height - 2.0 - ph)
        pillars.append((px, py, pw, ph))

    def free(x, y):
        inside = (x >= 0.5) & (x <= width - 0.5) & (y >= 0.5) & (y <= height - 0.5)
        for px, py, pw, ph in pillars:
            inside &= ~((x >= px) & (x <= px + pw) & (y >= py) & (y <= py + ph))
        return inside

    return {"rows": _carve(width, height, res, free), "resolution": res}


def _free_point(rng: random.Random, grid: dsmpepc.OccupancyGrid, clearance: float):
    xmin, ymin, xmax, ymax = grid.extent
    while True:
        x = rng.uniform(xmin, xmax)
        y = rng.uniform(ymin, ymax)
        if grid.sample_distance(x, y) >= clearance:
            return x, y


# --------------------------------------------------------------------------
# plan_replay_ds: independent planning problems
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Problem:
    """One planning cycle's inputs, as a robot would hand them to `plan`."""

    map_index: int
    state: dsmpepc.RobotState
    goal: dsmpepc.Pose
    obstacles: tuple[dsmpepc.DynamicObstacle, ...]
    opt_seed: int


def _obstacle(rng: random.Random, grid, k: int, t0: float) -> dsmpepc.DynamicObstacle:
    radius = rng.uniform(0.2, 0.4)
    if rng.random() < 0.5:
        x, y = _free_point(rng, grid, radius)
        speed = rng.uniform(0.0, 1.0)
        ang = rng.uniform(-math.pi, math.pi)
        return dsmpepc.DynamicObstacle(
            id=f"cv{k}", radius=radius, position=(x, y),
            velocity=(speed * math.cos(ang), speed * math.sin(ang)), epoch=t0,
        )
    n_wp = rng.randint(2, 4)
    t = t0 - rng.uniform(0.0, 4.0)
    waypoints = []
    for _ in range(n_wp):
        x, y = _free_point(rng, grid, radius)
        waypoints.append((t, x, y))
        t += rng.uniform(3.0, 8.0)
    return dsmpepc.DynamicObstacle(id=f"wp{k}", radius=radius, waypoints=tuple(waypoints))


def _start_point(rng: random.Random, world: dsmpepc.World, t0: float, band):
    """A point whose clearance d_o lies in `band`, or the candidate closest to
    it when a crowded map has none; never one in contact."""
    lo, hi = band
    best, best_miss = None, math.inf
    for _ in range(500):
        x, y = _free_point(rng, world.grid, ROBOT_RADIUS)
        d = dsmpepc.distance_to_nearest(world, (x, y), t0)
        miss = max(lo - d, d - hi, 0.0)
        if d >= MIN_START_CLEARANCE and miss < best_miss:
            best, best_miss = (x, y), miss
            if miss == 0.0:
                break
    return best


def _components(grid: dsmpepc.OccupancyGrid) -> np.ndarray:
    """Labels of the free regions that NavigationField's 8-connected moves join."""
    labels, _ = ndimage.label(~grid.occupied, structure=np.ones((3, 3)))
    return labels


def _goal_point(rng: random.Random, grid: dsmpepc.OccupancyGrid, labels, start):
    """A free point reachable from the start and GOAL_MIN_DISTANCE away, or
    the farthest reachable candidate when the map is too short."""
    ix, iy = grid.cell_of(*start)
    region = labels[iy, ix]
    best, best_d = None, -1.0
    for _ in range(200):
        x, y = _free_point(rng, grid, ROBOT_RADIUS + 0.1)
        gx, gy = grid.cell_of(x, y)
        if labels[gy, gx] != region:
            continue
        d = math.hypot(x - start[0], y - start[1])
        if d > best_d:
            best, best_d = (x, y), d
            if d >= GOAL_MIN_DISTANCE:
                break
    return best


def replay_maps(seed: int) -> list[dict]:
    rng = random.Random(f"maps:{seed}")
    return [corridor_map(rng) if i % 2 == 0 else pillar_map(rng) for i in range(REPLAY_MAPS)]


def replay_problems(seed: int, grids: list[dsmpepc.OccupancyGrid]) -> list[Problem]:
    """Collision-free starts near clutter; reachable goals, most of them
    GOAL_MIN_DISTANCE or more away.

    Obstacle counts (0-6) and start-clearance bands are dealt out evenly and
    shuffled, so problem sets from different seeds differ in detail, not in
    mix.
    """
    rng = random.Random(f"problems:{seed}")
    n_obstacles = [i % 7 for i in range(REPLAY_PROBLEMS)]
    bands = [_CLEARANCE_BANDS[i % len(_CLEARANCE_BANDS)] for i in range(REPLAY_PROBLEMS)]
    rng.shuffle(n_obstacles)
    rng.shuffle(bands)
    labels = [_components(g) for g in grids]
    problems = []
    for i in range(REPLAY_PROBLEMS):
        m = i % len(grids)
        grid = grids[m]
        t0 = rng.uniform(0.0, 8.0)
        obstacles = tuple(_obstacle(rng, grid, k, t0) for k in range(n_obstacles[i]))
        world = dsmpepc.World(grid=grid, obstacles=obstacles, robot_radius=ROBOT_RADIUS)
        x, y = _start_point(rng, world, t0, bands[i])
        gx, gy = _goal_point(rng, grid, labels[m], (x, y))
        problems.append(Problem(
            map_index=m,
            state=dsmpepc.RobotState(
                pose=dsmpepc.Pose(x, y, rng.uniform(-math.pi, math.pi)),
                v=rng.uniform(0.0, 0.8), omega=rng.uniform(-1.5, 1.5), t=t0,
            ),
            goal=dsmpepc.Pose(gx, gy, rng.uniform(-math.pi, math.pi)),
            obstacles=obstacles,
            opt_seed=rng.randrange(2**31),
        ))
    return problems


# --------------------------------------------------------------------------
# Scenario documents for the closed-loop workloads
# --------------------------------------------------------------------------


def _document(name, map_doc, agents, mode, duration, seed) -> dict:
    return {
        "name": name,
        "map": map_doc,
        "defaults": {"cost": {"mode": mode}, "optimizer": dict(SUITE_OPTIMIZER)},
        "agents": agents,
        "scripted_obstacles": [],
        "duration": duration,
        "seed": seed,
    }


def crowd_document(rng: random.Random, index: int) -> dict:
    """Antipodal swap of CROWD_AGENTS agents on an open map, angles and radius
    jittered."""
    n = CROWD_AGENTS
    radius = rng.uniform(3.0, 3.3)
    res = 0.25
    size = 2.0 * radius + 4.0
    nx = int(round(size / res))
    c = nx * res / 2.0
    base = rng.uniform(-math.pi, math.pi)
    agents = []
    for k in range(n):
        phi = base + 2.0 * math.pi * k / n + rng.uniform(-0.12, 0.12)
        rk = radius + rng.uniform(-0.1, 0.1)
        sx, sy = c + rk * math.cos(phi), c + rk * math.sin(phi)
        gx, gy = c - rk * math.cos(phi), c - rk * math.sin(phi)
        heading = math.atan2(gy - sy, gx - sx)
        agents.append({"id": f"a{k}", "start": [sx, sy, heading],
                       "goal": [gx, gy, heading], "radius": ROBOT_RADIUS})
    map_doc = {"rows": ["." * nx] * nx, "resolution": res}
    return _document(f"crowd_{index}", map_doc, agents, "ds_mpepc", 15.0,
                     rng.randrange(2**31))


def corridor_document(rng: random.Random, index: int, narrow: bool) -> dict:
    """narrow_corridor or t_corridor geometry with jittered sizes and poses."""
    res = 0.2
    if narrow:
        w = rng.uniform(2.0, 2.2)
        length = rng.uniform(8.0, 10.0)

        def free(x, y):
            return (x >= 1.0) & (x <= 1.0 + length) & (y >= 1.0) & (y <= 1.0 + w)

        rows = _carve(length + 2.0, w + 2.0, res, free)
        mid = 1.0 + w / 2.0
        bias = rng.uniform(0.12, 0.18)
        agents = [
            {"id": "east", "start": [1.8, mid - bias, 0.0],
             "goal": [1.0 + length - 0.8, mid - bias, 0.0]},
            {"id": "west", "start": [1.0 + length - 0.8, mid + bias, math.pi],
             "goal": [1.8, mid + bias, math.pi]},
        ]
        name = f"narrow_corridor_{index}"
    else:
        w = rng.uniform(2.1, 2.3)
        lo, hi = 6.0, 6.0 + w

        def free(x, y):
            stem = (x >= 2.0) & (x <= 4.0) & (y >= 0.6) & (y <= lo)
            bar = (x >= 2.0) & (x <= 11.4) & (y >= lo) & (y <= hi)
            return stem | bar

        rows = _carve(12.0, 10.0, res, free)
        blocker = [rng.uniform(5.2, 6.0), lo + rng.uniform(0.6, 0.8), 0.0]
        agents = [
            {"id": "mover", "start": [3.0, rng.uniform(1.3, 1.8), math.pi / 2],
             "goal": [10.6, lo + w / 2, 0.0]},
            {"id": "blocker", "start": blocker, "goal": blocker},
        ]
        name = f"t_corridor_{index}"
    for a in agents:
        a["radius"] = ROBOT_RADIUS
    return _document(name, {"rows": rows, "resolution": res}, agents,
                     "baseline_mpepc", 15.0, rng.randrange(2**31))


def crowd_documents(seed: int) -> list[dict]:
    rng = random.Random(f"crowd:{seed}")
    return [crowd_document(rng, i) for i in range(CROWD_SIMS)]


def corridor_documents(seed: int) -> list[dict]:
    """CORRIDOR_SIMS corridors, narrow and T geometry in turn."""
    rng = random.Random(f"corridor:{seed}")
    return [corridor_document(rng, i, i % 2 == 0) for i in range(CORRIDOR_SIMS)]
