"""Scenario schema, loader/validator, and the built-in benchmark suite.

A scenario is a JSON document with keys
`name, map{rows[], resolution, origin?}, defaults{planner, cost, optimizer},
agents[], scripted_obstacles[], duration, seed`. Maps are ASCII rows
('#' occupied, '.' free, first row = top). Angles are radians, lengths
meters, times seconds. Each `defaults` block is built on its own; an agent's
`planner`, `cost` and `optimizer` blocks then override its fields.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .cost import CostParams
from .geometry import Pose
from .kinematics import PlannerConfig
from .optimizer import OptimizerConfig
from .simulator import AgentSpec, detect_collision
from .world import DynamicObstacle, OccupancyGrid


class ScenarioError(ValueError):
    """Malformed or invalid scenario document."""


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    grid: OccupancyGrid
    agents: tuple[AgentSpec, ...]
    scripted_obstacles: tuple[DynamicObstacle, ...]
    duration: float
    seed: int

    def to_dict(self) -> dict:
        ox, oy = self.grid.origin
        return {
            "name": self.name,
            "map": {
                "rows": self.grid.to_ascii(),
                "resolution": self.grid.resolution,
                "origin": [ox, oy],
            },
            "agents": [_agent_to_dict(a) for a in self.agents],
            "scripted_obstacles": [_obstacle_to_dict(o) for o in self.scripted_obstacles],
            "duration": self.duration,
            "seed": self.seed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def _agent_to_dict(a: AgentSpec) -> dict:
    return {
        "id": a.id,
        "start": [a.start.x, a.start.y, a.start.heading],
        "goal": [a.goal.x, a.goal.y, a.goal.heading],
        "radius": a.radius,
        "mode": a.mode,
        "planner": asdict(a.planner),
        "cost": asdict(a.cost),
        "optimizer": asdict(a.optimizer),
    }


def _obstacle_to_dict(o: DynamicObstacle) -> dict:
    out: dict = {"id": o.id, "radius": o.radius}
    if o.waypoints is not None:
        out["waypoints"] = [list(w) for w in o.waypoints]
    else:
        out["position"] = list(o.position)
        out["velocity"] = list(o.velocity)
        out["epoch"] = o.epoch
    return out


def _build(path: str, builder, /, *args, **payload):
    """builder(*args, **payload), with a failure reported as a ScenarioError
    naming the document path; also coerces single fields (`_build(path,
    float, value)`)."""
    try:
        return builder(*args, **payload)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


def _object(value, path: str, keys: tuple[str, ...] = ()) -> dict:
    """`value`, which must be an object; given `keys`, one with no other key."""
    if not isinstance(value, dict):
        raise ScenarioError(f"{path}: expected an object")
    for key in value:
        if keys and key not in keys:
            where = f"{path}.{key}" if path else str(key)
            raise ScenarioError(f"{where}: unknown key (known: {', '.join(keys)})")
    return value


def _list(value, path: str) -> list:
    if not isinstance(value, (list, tuple)):
        raise ScenarioError(f"{path}: expected a list")
    return list(value)


def _numbers(value, n: int, path: str) -> tuple[float, ...]:
    """A list of exactly n numbers, coerced to floats."""
    value = _list(value, path)
    if len(value) != n:
        raise ScenarioError(f"{path}: expected {n} numbers, got {len(value)}")
    return tuple(_build(f"{path}[{k}]", float, v) for k, v in enumerate(value))


def _block(base, value, path: str):
    """`base`, a config dataclass, with the fields that `value`, the config
    block at `path`, sets; a planner block's `gains` is a block of its own."""
    changes = dict(_object(value, path, tuple(f.name for f in fields(base))))
    if "gains" in changes:
        changes["gains"] = _block(base.gains, changes["gains"], f"{path}.gains")
    return _build(path, replace, base, **changes)


def _pose(value, path: str) -> Pose:
    """[x, y, heading]; x and y outside the map are rejected by validate()."""
    x, y, heading = _numbers(value, 3, path)
    if not math.isfinite(heading):
        raise ScenarioError(f"{path}: heading must be finite")
    return Pose(x, y, heading).wrapped()


def load(source) -> ScenarioConfig:
    """Load and validate a scenario from a dict, a JSON string, or a file path."""
    if isinstance(source, dict):
        doc = source
    elif isinstance(source, (str, os.PathLike)):
        text = source
        if isinstance(source, os.PathLike) or (
            len(str(source)) < 4096 and os.path.exists(source)
        ):
            try:
                with open(source, "r", encoding="utf-8") as f:
                    text = f.read()
            except (OSError, UnicodeDecodeError) as exc:
                raise ScenarioError(f"cannot read {os.fspath(source)!r}: {exc}") from exc
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            if text is source and not source.lstrip().startswith("{"):
                raise ScenarioError(f"cannot read {source!r}: no such file, "
                                    f"and not JSON text") from exc
            raise ScenarioError(
                f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
            ) from exc
    else:
        raise ScenarioError(f"unsupported scenario source {type(source).__name__}")
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be a JSON object")
    _object(doc, "", ("name", "map", "defaults", "agents", "scripted_obstacles", "duration",
                      "seed"))

    map_block = doc.get("map")
    if not isinstance(map_block, dict) or "rows" not in map_block:
        raise ScenarioError("map: expected an object with 'rows' and 'resolution'")
    _object(map_block, "map", ("rows", "resolution", "origin"))
    rows = _list(map_block["rows"], "map.rows")
    if not all(isinstance(r, str) for r in rows):
        raise ScenarioError("map.rows: expected a list of strings")
    grid = _build(
        "map", OccupancyGrid.from_ascii, rows,
        _build("map.resolution", float, map_block.get("resolution", 0.0)),
        _numbers(map_block.get("origin", (0.0, 0.0)), 2, "map.origin"),
    )

    duration = _build("duration", float, doc.get("duration", 60.0))
    if not 0 < duration < math.inf:
        raise ScenarioError("duration: must be positive and finite")
    seed = doc.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral):
        raise ScenarioError("seed: must be an integer")

    defaults = _object(doc.get("defaults", {}), "defaults", ("planner", "cost", "optimizer"))
    # each block must hold on its own, so a bad value is named where it is written
    default_planner = _block(PlannerConfig(), defaults.get("planner", {}), "defaults.planner")
    default_cost = _block(CostParams(), defaults.get("cost", {}), "defaults.cost")
    default_optimizer = _block(OptimizerConfig(), defaults.get("optimizer", {}),
                               "defaults.optimizer")

    agents_block = doc.get("agents", [])
    if not isinstance(agents_block, list) or not agents_block:
        raise ScenarioError("agents: expected a non-empty list")
    agents = []
    for i, entry in enumerate(agents_block):
        path = f"agents[{i}]"
        entry = _object(entry, path, ("id", "start", "goal", "radius", "mode", "planner",
                                      "cost", "optimizer"))
        if "id" not in entry or "start" not in entry or "goal" not in entry:
            raise ScenarioError(f"{path}: 'id', 'start' and 'goal' are required")
        cost = _object(entry.get("cost", {}), f"{path}.cost")
        if "mode" in entry:
            cost = dict(cost, mode=entry["mode"])
        spec = _build(
            path, AgentSpec,
            id=str(entry["id"]),
            start=_pose(entry["start"], f"{path}.start"),
            goal=_pose(entry["goal"], f"{path}.goal"),
            radius=_build(f"{path}.radius", float, entry.get("radius", 0.35)),
            planner=_block(default_planner, entry.get("planner", {}), f"{path}.planner"),
            cost=_block(default_cost, cost, f"{path}.cost"),
            optimizer=_block(default_optimizer, entry.get("optimizer", {}),
                             f"{path}.optimizer"),
        )
        agents.append(spec)

    obstacles = []
    for i, entry in enumerate(_list(doc.get("scripted_obstacles", []), "scripted_obstacles")):
        path = f"scripted_obstacles[{i}]"
        entry = _object(entry, path, ("id", "radius", "waypoints", "position", "velocity",
                                      "epoch"))
        if "waypoints" in entry and entry.keys() & {"position", "velocity", "epoch"}:
            raise ScenarioError(f"{path}: 'waypoints' excludes 'position', 'velocity' "
                                "and 'epoch'")
        payload = {
            "id": str(entry.get("id", f"obstacle_{i}")),
            "radius": _build(f"{path}.radius", float, entry.get("radius", 0.3)),
        }
        if "waypoints" in entry:
            waypoints = _list(entry["waypoints"], f"{path}.waypoints")
            payload["waypoints"] = tuple(
                _numbers(w, 3, f"{path}.waypoints[{k}]") for k, w in enumerate(waypoints)
            )
        else:
            payload["position"] = _numbers(entry.get("position", (0.0, 0.0)), 2,
                                           f"{path}.position")
            payload["velocity"] = _numbers(entry.get("velocity", (0.0, 0.0)), 2,
                                           f"{path}.velocity")
            payload["epoch"] = _build(f"{path}.epoch", float, entry.get("epoch", 0.0))
        obstacles.append(_build(path, DynamicObstacle, **payload))

    config = ScenarioConfig(
        name=str(doc.get("name", "scenario")),
        grid=grid,
        agents=tuple(agents),
        scripted_obstacles=tuple(obstacles),
        duration=duration,
        seed=seed,
    )
    validate(config)
    return config


def validate(config: ScenarioConfig) -> None:
    """Raise ScenarioError on geometric or schema-level inconsistencies."""
    grid = config.grid
    xmin, ymin, xmax, ymax = grid.extent
    # a contact names the other party by its id, or "grid" for the map
    ids = [a.id for a in config.agents] + [o.id for o in config.scripted_obstacles]
    for k, ident in enumerate(ids):
        if ident == "grid":
            raise ScenarioError("agents and scripted_obstacles: id 'grid' names the map")
        if ident in ids[:k]:
            raise ScenarioError(f"agents and scripted_obstacles: duplicate id {ident!r}")
    if config.seed < 0:
        raise ScenarioError("seed: must be >= 0")
    radii = {a.id: a.radius for a in config.agents}

    def near_map(agent_id: str, label: str, x: float, y: float) -> ScenarioError:
        return ScenarioError(
            f"agent {agent_id!r}: {label} too close to static obstacles (clearance "
            f"{grid.sample_distance(x, y):.3f} m <= radius {radii[agent_id]:g} m)"
        )

    for agent in config.agents:
        for label, pose in (("start", agent.start), ("goal", agent.goal)):
            if not (xmin <= pose.x <= xmax and ymin <= pose.y <= ymax):
                raise ScenarioError(
                    f"agent {agent.id!r}: {label} ({pose.x:g}, {pose.y:g}) outside the map"
                )
        # the grid rule of detect_collision
        if grid.sample_distance(agent.goal.x, agent.goal.y) - agent.radius <= 0.0:
            raise near_map(agent.id, "goal", agent.goal.x, agent.goal.y)
    # the starts must pass the contact test of the simulation's first step
    starts = {a.id: (a.start.x, a.start.y) for a in config.agents}
    for aid, other in detect_collision(grid, starts, radii, config.scripted_obstacles, 0.0):
        if other == "grid":
            raise near_map(aid, "start", *starts[aid])
        if other in starts:
            raise ScenarioError(f"agents {aid!r} and {other!r}: overlapping starts "
                                f"({math.dist(starts[aid], starts[other]):.3f} m apart)")
        raise ScenarioError(f"agent {aid!r}: start overlaps obstacle {other!r} at t = 0")
    step = config.agents[0].planner.step_h
    for agent in config.agents:
        if abs(agent.planner.step_h - step) > 1e-12:
            raise ScenarioError(
                f"agent {agent.id!r}: step_h {agent.planner.step_h:g} differs from "
                f"{step:g}; all agents must share one step"
            )
    for obs in config.scripted_obstacles:
        if obs.waypoints is not None:
            t0, t1 = obs.waypoints[0][0], obs.waypoints[-1][0]
            if t0 < 0 or t1 > config.duration:
                raise ScenarioError(
                    f"obstacle {obs.id!r}: script times [{t0:g}, {t1:g}] outside "
                    f"[0, {config.duration:g}]"
                )


# --------------------------------------------------------------------------
# Built-in benchmark suite
# --------------------------------------------------------------------------


def _carved_grid(width_m: float, height_m: float, resolution: float, free_fn) -> OccupancyGrid:
    """All-occupied grid with cells freed where free_fn(x, y) holds at centers."""
    nx = int(round(width_m / resolution))
    ny = int(round(height_m / resolution))
    occupied = np.ones((ny, nx), dtype=bool)
    for iy in range(ny):
        cy = (iy + 0.5) * resolution
        for ix in range(nx):
            if free_fn((ix + 0.5) * resolution, cy):
                occupied[iy, ix] = False
    return OccupancyGrid(occupied, resolution)


def _scenario(name, grid, agents, duration, seed=1, obstacles=()) -> ScenarioConfig:
    config = ScenarioConfig(
        name=name,
        grid=grid,
        agents=tuple(agents),
        scripted_obstacles=tuple(obstacles),
        duration=duration,
        seed=seed,
    )
    validate(config)
    return config


# Benchmark scenarios use a lighter search budget than the library default
# (400/3/240): it does not change outcomes at desk scale, keeps whole-suite
# wall-clock low, and, at 30 evaluations per seed, refines in three batched
# rounds per plan.
_SUITE_OPTIMIZER = OptimizerConfig(n_global_samples=256, n_refine_seeds=2,
                                   refine_max_evals=30)


def _agent(agent_id, start, goal, mode, radius=0.35, **overrides) -> AgentSpec:
    overrides.setdefault("optimizer", _SUITE_OPTIMIZER)
    overrides.setdefault("cost", CostParams(mode=mode))
    return AgentSpec(id=agent_id, start=start, goal=goal, radius=radius, **overrides)


def open_field(mode: str = "ds_mpepc", size: float = 20.0, goal_distance: float = 5.0,
               resolution: float = 0.25, seed: int = 1) -> ScenarioConfig:
    """Single agent in an empty square field with the goal straight ahead."""
    nx = int(round(size / resolution))
    grid = OccupancyGrid(np.zeros((nx, nx), dtype=bool), resolution)
    mid = size / 2.0
    x0 = (size - goal_distance) / 2.0
    agent = _agent("robot", Pose(x0, mid, 0.0), Pose(x0 + goal_distance, mid, 0.0), mode)
    return _scenario("open_field", grid, [agent], duration=20.0, seed=seed)


def t_corridor(mode: str = "ds_mpepc", corridor_width: float = 2.2,
               resolution: float = 0.2, seed: int = 1) -> ScenarioConfig:
    """T junction whose right arm is mostly blocked by a stationary agent.

    The moving agent comes up the stem and must squeeze through the one open
    gap above the blocker to reach its goal down the arm."""
    w = corridor_width
    bar_lo = 6.0
    bar_hi = bar_lo + w

    def free(x, y):
        in_stem = 2.0 <= x <= 4.0 and 0.6 <= y <= bar_lo
        in_bar = 2.0 <= x <= 11.4 and bar_lo <= y <= bar_hi
        return in_stem or in_bar

    grid = _carved_grid(12.0, 10.0, resolution, free)
    mover = _agent(
        "mover", Pose(3.0, 1.5, math.pi / 2), Pose(10.6, bar_lo + w / 2, 0.0), mode
    )
    # Offset so the one open gap (above the blocker) leaves ~0.22 m clearance:
    # enough for the anticipatory discount to make the pass pay off, while the
    # distance-only cost still prefers halting.
    blocker_pos = Pose(5.6, bar_lo + 0.7, 0.0)
    blocker = _agent("blocker", blocker_pos, blocker_pos, mode)
    return _scenario("t_corridor", grid, [mover, blocker], duration=60.0, seed=seed)


def narrow_corridor(mode: str = "ds_mpepc", width: float = 2.1, length: float = 10.0,
                    resolution: float = 0.2, robot_radius: float = 0.35,
                    seed: int = 1) -> ScenarioConfig:
    """Two agents traverse one corridor in opposing directions."""
    if width < 2.0 * robot_radius + resolution:
        raise ScenarioError(
            f"corridor width {width:g} m is narrower than the robot "
            f"(diameter {2 * robot_radius:g} m)"
        )

    def free(x, y):
        return 1.0 <= x <= 1.0 + length and 1.0 <= y <= 1.0 + width

    grid = _carved_grid(length + 2.0, width + 2.0, resolution, free)
    mid = 1.0 + width / 2.0
    # each agent starts and ends 0.15 m to its own right: a keep-right bias
    # that breaks the head-on symmetry, which otherwise stalls both planners
    # on unlucky sample draws regardless of search budget
    bias = 0.15
    east = _agent(
        "east", Pose(1.0 + 0.8, mid - bias, 0.0),
        Pose(1.0 + length - 0.8, mid - bias, 0.0),
        mode, radius=robot_radius,
    )
    west = _agent(
        "west", Pose(1.0 + length - 0.8, mid + bias, math.pi),
        Pose(1.0 + 0.8, mid + bias, math.pi),
        mode, radius=robot_radius,
    )
    return _scenario("narrow_corridor", grid, [east, west], duration=60.0, seed=seed)


def circle(mode: str = "ds_mpepc", n: int = 4, radius: float = 4.0,
           resolution: float = 0.25, robot_radius: float = 0.35,
           seed: int = 1) -> ScenarioConfig:
    """n agents on a circle, each heading to the diagonally opposite point."""
    if n < 2:
        raise ScenarioError("circle needs at least 2 agents")
    if 2.0 * radius * math.sin(math.pi / n) < 2.5 * robot_radius:
        raise ScenarioError("circle too small for this many agents")
    size = 2.0 * radius + 4.0
    nx = int(round(size / resolution))
    grid = OccupancyGrid(np.zeros((nx, nx), dtype=bool), resolution)
    c = size / 2.0
    agents = []
    for k in range(n):
        phi = 2.0 * math.pi * k / n
        sx = c + radius * math.cos(phi)
        sy = c + radius * math.sin(phi)
        gx = c - radius * math.cos(phi)
        gy = c - radius * math.sin(phi)
        heading = math.atan2(gy - sy, gx - sx)
        agents.append(
            _agent(f"agent_{k}", Pose(sx, sy, heading), Pose(gx, gy, heading),
                   mode, radius=robot_radius)
        )
    return _scenario(f"circle_{n}", grid, agents, duration=45.0, seed=seed)


def pedestrian_hall(mode: str = "ds_mpepc", resolution: float = 0.25,
                    seed: int = 1) -> ScenarioConfig:
    """Hall with pillars and scripted pedestrians crossing the robot's route.

    Stand-in for sensor-derived pedestrian traces: waypoint scripts in a hall
    map. Demonstration scenario, not an acceptance gate.
    """

    def free(x, y):
        if not (0.5 <= x <= 15.5 and 0.5 <= y <= 7.5):
            return False
        if 5.0 <= x <= 6.0 and 4.5 <= y <= 7.5:
            return False
        if 10.0 <= x <= 11.0 and 0.5 <= y <= 3.5:
            return False
        return True

    grid = _carved_grid(16.0, 8.0, resolution, free)
    agent = _agent("robot", Pose(1.5, 4.0, 0.0), Pose(14.5, 4.0, 0.0), mode)
    peds = (
        DynamicObstacle(
            id="ped_0", radius=0.3,
            waypoints=((0.0, 4.0, 7.0), (12.0, 4.0, 1.0), (24.0, 4.0, 7.0),
                       (36.0, 4.0, 1.0)),
        ),
        DynamicObstacle(
            id="ped_1", radius=0.3,
            waypoints=((0.0, 8.0, 1.0), (14.0, 8.0, 7.0), (28.0, 8.0, 1.0)),
        ),
        DynamicObstacle(
            id="ped_2", radius=0.3,
            waypoints=((0.0, 13.0, 6.5), (10.0, 13.0, 1.5), (20.0, 13.0, 6.5),
                       (30.0, 13.0, 1.5)),
        ),
        DynamicObstacle(
            id="ped_3", radius=0.3,
            waypoints=((0.0, 14.5, 5.5), (16.0, 2.5, 5.5), (32.0, 14.5, 5.5)),
        ),
    )
    return _scenario("pedestrian_hall", grid, [agent], duration=40.0, seed=seed,
                     obstacles=peds)


BUILTINS = {
    "open_field": open_field,
    "t_corridor": t_corridor,
    "narrow_corridor": narrow_corridor,
    "circle": circle,
    "pedestrian_hall": pedestrian_hall,
}


def builtin(name: str, **params) -> ScenarioConfig:
    """Instantiate a named built-in benchmark scenario."""
    if name not in BUILTINS:
        known = ", ".join(sorted(BUILTINS))
        raise ScenarioError(f"unknown builtin scenario {name!r} (known: {known})")
    return BUILTINS[name](**params)
