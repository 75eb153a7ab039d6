"""Scenario schema, loader, and the built-in benchmark suite.

A scenario is a JSON document with keys
`name, map{rows[], resolution, origin?}, defaults{planner, cost, optimizer},
agents[], scripted_obstacles[], duration, seed`. Maps are ASCII rows
('#' occupied, '.' free, first row = top). Angles are radians, lengths
meters, times seconds. Each `defaults` block is built on its own; an agent's
`planner`, `cost` and `optimizer` blocks then override its fields.

`ScenarioConfig` checks the scenario rules when it is built, so they hold
for every scenario: loaded, built-in, constructed or `dataclasses.replace`d.
The loader checks only what a document adds: JSON types, keys and paths.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .cost import CostParams
from .kinematics import PlannerConfig, Pose, whole_steps
from .optimizer import OptimizerConfig
from .world import DynamicObstacle, OccupancyGrid, detect_collision


class ScenarioError(ValueError):
    """Malformed or invalid scenario document."""


@dataclass(frozen=True)
class AgentSpec:
    """One robot in a scenario: endpoints, footprint, and configs.

    The cost mode lives in `cost.mode`; `mode` reads it.
    """

    id: str
    start: Pose
    goal: Pose
    radius: float = 0.35
    planner: PlannerConfig = field(default_factory=PlannerConfig)
    cost: CostParams = field(default_factory=CostParams)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)

    def __post_init__(self) -> None:
        if not 0 < self.radius < math.inf:
            raise ValueError(f"agent {self.id!r}: radius must be positive and finite")

    @property
    def mode(self) -> str:
        return self.cost.mode


@dataclass(frozen=True)
class ScenarioConfig:
    """A scenario that a run can start from; a broken rule is a ScenarioError
    that names the field, agent or obstacle."""

    name: str
    grid: OccupancyGrid
    agents: tuple[AgentSpec, ...]
    scripted_obstacles: tuple[DynamicObstacle, ...]
    duration: float
    seed: int

    def __post_init__(self) -> None:
        for name in ("agents", "scripted_obstacles"):
            if not isinstance(getattr(self, name), tuple):
                raise ScenarioError(f"{name}: expected a tuple")
        if not self.agents:
            raise ScenarioError("agents: a scenario needs at least one agent")
        if isinstance(self.seed, bool) or not isinstance(self.seed, numbers.Integral):
            raise ScenarioError("seed: must be an integer")
        if self.seed < 0:
            raise ScenarioError("seed: must be >= 0")
        # a contact names the other party by its id, or "grid" for the map
        ids = [a.id for a in self.agents] + [o.id for o in self.scripted_obstacles]
        for k, ident in enumerate(ids):
            if ident == "grid":
                raise ScenarioError("agents and scripted_obstacles: id 'grid' names the map")
            if ident in ids[:k]:
                raise ScenarioError(f"agents and scripted_obstacles: duplicate id {ident!r}")
        step = self.agents[0].planner.step_h
        for agent in self.agents:
            if abs(agent.planner.step_h - step) > 1e-12:
                raise ScenarioError(
                    f"agent {agent.id!r}: step_h {agent.planner.step_h:g} differs from "
                    f"{step:g}; all agents must share one step"
                )
        try:  # which also rejects a zero, negative or non-finite duration
            whole_steps(self.duration, step, "duration")
        except ValueError as exc:
            raise ScenarioError(str(exc)) from None
        for obs in self.scripted_obstacles:
            if obs.waypoints is not None:
                t0, t1 = obs.waypoints[0][0], obs.waypoints[-1][0]
                if t0 < 0 or t1 > self.duration:
                    raise ScenarioError(
                        f"obstacle {obs.id!r}: script times [{t0:g}, {t1:g}] outside "
                        f"[0, {self.duration:g}]"
                    )
        # starts and goals lie on the map, and none is in contact by the
        # contact test of a run's steps; the starts as the first step finds them
        grid = self.grid
        xmin, ymin, xmax, ymax = grid.extent
        radii = {a.id: a.radius for a in self.agents}

        def near_map(agent_id: str, label: str, x: float, y: float) -> ScenarioError:
            return ScenarioError(
                f"agent {agent_id!r}: {label} too close to static obstacles (clearance "
                f"{grid.sample_distance(x, y):.3f} m <= radius {radii[agent_id]:g} m)"
            )

        for agent in self.agents:
            for label, pose in (("start", agent.start), ("goal", agent.goal)):
                if not (xmin <= pose.x <= xmax and ymin <= pose.y <= ymax):
                    raise ScenarioError(
                        f"agent {agent.id!r}: {label} ({pose.x:g}, {pose.y:g}) outside the map"
                    )
            goal = {agent.id: (agent.goal.x, agent.goal.y)}
            if detect_collision(grid, goal, radii, (), 0.0)[0]:
                raise near_map(agent.id, "goal", *goal[agent.id])
        starts = {a.id: (a.start.x, a.start.y) for a in self.agents}
        contacts, _ = detect_collision(grid, starts, radii, self.scripted_obstacles, 0.0)
        for aid, other in contacts:
            if other == "grid":
                raise near_map(aid, "start", *starts[aid])
            if other in starts:
                raise ScenarioError(f"agents {aid!r} and {other!r}: overlapping starts "
                                    f"({math.dist(starts[aid], starts[other]):.3f} m apart)")
            raise ScenarioError(f"agent {aid!r}: start overlaps obstacle {other!r} at t = 0")

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

    def with_mode(self, mode: str) -> ScenarioConfig:
        """This scenario with every agent's cost mode set to `mode`."""
        return replace(self, agents=tuple(replace(a, cost=replace(a.cost, mode=mode))
                                          for a in self.agents))


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
    naming the document path."""
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


# the JSON types a document's values are checked against, most specific
# first: a bool is also an int in Python, and no JSON number is a boolean
_JSON_TYPES = ((bool, "a boolean"), (str, "a string"), (numbers.Real, "a number"))


def _typed(value, like, path: str):
    """`value`, which must have the JSON type of `like`."""
    kind, name = next(t for t in _JSON_TYPES if isinstance(like, t[0]))
    if not isinstance(value, kind) or isinstance(value, bool) != (kind is bool):
        raise ScenarioError(f"{path}: expected {name}")
    return value


def _number(value, path: str) -> float:
    """`value`, which must be a JSON number, as a float."""
    return _build(path, float, _typed(value, 0.0, path))


def _numbers(value, n: int, path: str) -> tuple[float, ...]:
    """A list of exactly n numbers, coerced to floats."""
    value = _list(value, path)
    if len(value) != n:
        raise ScenarioError(f"{path}: expected {n} numbers, got {len(value)}")
    return tuple(_number(v, f"{path}[{k}]") for k, v in enumerate(value))


def _pair(value, path: str) -> tuple[float, float]:
    return _numbers(value, 2, path)


def _given(entry: dict, path: str, **readers) -> dict:
    """The fields named by `readers` that `entry`, the object at `path`,
    sets, each read by its reader at its own path; a field the entry does
    not set keeps the default of the dataclass it is passed to."""
    return {key: read(entry[key], f"{path}.{key}") for key, read in readers.items()
            if key in entry}


def _block(base, value, path: str):
    """`base`, a config dataclass, with the fields that `value`, the config
    block at `path`, sets; each value must have the JSON type of the field's
    default, and a planner block's `gains` is a block of its own."""
    changes = dict(_object(value, path, tuple(f.name for f in fields(base))))
    for key, field_value in changes.items():
        if key == "gains":
            changes[key] = _block(base.gains, field_value, f"{path}.gains")
        else:
            _typed(field_value, getattr(base, key), f"{path}.{key}")
    return _build(path, replace, base, **changes)


def _pose(value, path: str) -> Pose:
    """[x, y, heading]; x and y outside the map are rejected by ScenarioConfig."""
    x, y, heading = _numbers(value, 3, path)
    if not math.isfinite(heading):
        raise ScenarioError(f"{path}: heading must be finite")
    return Pose(x, y, heading).wrapped()


def load(source) -> ScenarioConfig:
    """Load a scenario from a document (a dict) or the path of a JSON file."""
    if isinstance(source, dict):
        doc = source
    elif isinstance(source, (str, os.PathLike)):
        try:
            with open(source, "r", encoding="utf-8") as f:
                doc = json.load(f)
        except json.JSONDecodeError as exc:
            raise ScenarioError(
                f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
            ) from exc
        except (OSError, UnicodeDecodeError) as exc:
            raise ScenarioError(f"cannot read {os.fspath(source)!r}: {exc}") from exc
    else:
        raise ScenarioError(f"unsupported scenario source {type(source).__name__}")
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be a JSON object")
    _object(doc, "", ("name", "map", "defaults", "agents", "scripted_obstacles", "duration",
                      "seed"))

    map_block = doc.get("map")
    if not isinstance(map_block, dict) or not map_block.keys() >= {"rows", "resolution"}:
        raise ScenarioError("map: expected an object with 'rows' and 'resolution'")
    _object(map_block, "map", ("rows", "resolution", "origin"))
    rows = _list(map_block["rows"], "map.rows")
    if not all(isinstance(r, str) for r in rows):
        raise ScenarioError("map.rows: expected a list of strings")
    grid = _build("map", OccupancyGrid.from_ascii, rows,
                  _number(map_block["resolution"], "map.resolution"),
                  **_given(map_block, "map", origin=_pair))

    defaults = _object(doc.get("defaults", {}), "defaults", ("planner", "cost", "optimizer"))
    # each block must hold on its own, so a bad value is named where it is written
    default_planner = _block(PlannerConfig(), defaults.get("planner", {}), "defaults.planner")
    default_cost = _block(CostParams(), defaults.get("cost", {}), "defaults.cost")
    default_optimizer = _block(OptimizerConfig(), defaults.get("optimizer", {}),
                               "defaults.optimizer")

    agents = []
    for i, entry in enumerate(_list(doc.get("agents", []), "agents")):
        path = f"agents[{i}]"
        entry = _object(entry, path, ("id", "start", "goal", "radius", "mode", "planner",
                                      "cost", "optimizer"))
        if "id" not in entry or "start" not in entry or "goal" not in entry:
            raise ScenarioError(f"{path}: 'id', 'start' and 'goal' are required")
        cost = _block(default_cost, entry.get("cost", {}), f"{path}.cost")
        if "mode" in entry:
            mode = _typed(entry["mode"], "", f"{path}.mode")
            cost = _build(f"{path}.mode", replace, cost, mode=mode)
        spec = _build(
            path, AgentSpec,
            id=_typed(entry["id"], "", f"{path}.id"),
            start=_pose(entry["start"], f"{path}.start"),
            goal=_pose(entry["goal"], f"{path}.goal"),
            **_given(entry, path, radius=_number),
            planner=_block(default_planner, entry.get("planner", {}), f"{path}.planner"),
            cost=cost,
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
            "id": _typed(entry.get("id", f"obstacle_{i}"), "", f"{path}.id"),
            "radius": _number(entry.get("radius", 0.3), f"{path}.radius"),
            **_given(entry, path, position=_pair, velocity=_pair, epoch=_number),
        }
        if "waypoints" in entry:
            waypoints = _list(entry["waypoints"], f"{path}.waypoints")
            payload["waypoints"] = tuple(
                _numbers(w, 3, f"{path}.waypoints[{k}]") for k, w in enumerate(waypoints)
            )
        obstacles.append(_build(path, DynamicObstacle, **payload))

    return ScenarioConfig(
        name=_typed(doc.get("name", "scenario"), "", "name"),
        grid=grid,
        agents=tuple(agents),
        scripted_obstacles=tuple(obstacles),
        duration=_number(doc.get("duration", 60.0), "duration"),
        seed=doc.get("seed", 0),
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


# Benchmark scenarios use a lighter search budget than the library default
# (400/3/240): it does not change outcomes at desk scale, keeps whole-suite
# wall-clock low, and, at 30 evaluations per seed, refines in three batched
# rounds per plan.
_SUITE_OPTIMIZER = OptimizerConfig(n_global_samples=256, n_refine_seeds=2,
                                   refine_max_evals=30)


def _agent(agent_id: str, start: Pose, goal: Pose, **spec) -> AgentSpec:
    return AgentSpec(agent_id, start, goal, optimizer=_SUITE_OPTIMIZER, **spec)


def open_field(size: float = 20.0, goal_distance: float = 5.0,
               resolution: float = 0.25) -> ScenarioConfig:
    """Single agent in an empty square field with the goal straight ahead."""
    nx = int(round(size / resolution))
    grid = OccupancyGrid(np.zeros((nx, nx), dtype=bool), resolution)
    mid = size / 2.0
    x0 = (size - goal_distance) / 2.0
    agent = _agent("robot", Pose(x0, mid, 0.0), Pose(x0 + goal_distance, mid, 0.0))
    return ScenarioConfig("open_field", grid, (agent,), (), duration=20.0, seed=1)


def t_corridor(corridor_width: float = 2.2, resolution: float = 0.2) -> ScenarioConfig:
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
    mover = _agent("mover", Pose(3.0, 1.5, math.pi / 2), Pose(10.6, bar_lo + w / 2, 0.0))
    # Offset so the one open gap (above the blocker) leaves ~0.22 m clearance:
    # enough for the anticipatory discount to make the pass pay off, while the
    # distance-only cost still prefers halting.
    blocker_pos = Pose(5.6, bar_lo + 0.7, 0.0)
    blocker = _agent("blocker", blocker_pos, blocker_pos)
    return ScenarioConfig("t_corridor", grid, (mover, blocker), (), duration=60.0, seed=1)


def narrow_corridor(width: float = 2.1, length: float = 10.0, resolution: float = 0.2,
                    robot_radius: float = 0.35) -> ScenarioConfig:
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
        Pose(1.0 + length - 0.8, mid - bias, 0.0), radius=robot_radius,
    )
    west = _agent(
        "west", Pose(1.0 + length - 0.8, mid + bias, math.pi),
        Pose(1.0 + 0.8, mid + bias, math.pi), radius=robot_radius,
    )
    return ScenarioConfig("narrow_corridor", grid, (east, west), (), duration=60.0, seed=1)


def circle(n: int = 4, radius: float = 4.0, resolution: float = 0.25,
           robot_radius: float = 0.35) -> ScenarioConfig:
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
                   radius=robot_radius)
        )
    return ScenarioConfig(f"circle_{n}", grid, tuple(agents), (), duration=45.0, seed=1)


def pedestrian_hall(resolution: float = 0.25) -> ScenarioConfig:
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
    agent = _agent("robot", Pose(1.5, 4.0, 0.0), Pose(14.5, 4.0, 0.0))
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
    return ScenarioConfig("pedestrian_hall", grid, (agent,), peds, duration=40.0, seed=1)


BUILTINS = {
    "open_field": open_field,
    "t_corridor": t_corridor,
    "narrow_corridor": narrow_corridor,
    "circle": circle,
    "pedestrian_hall": pedestrian_hall,
}


def builtin(name: str, **params) -> ScenarioConfig:
    """Instantiate a named built-in benchmark scenario; `params` are its
    geometry. Every built-in runs the ds cost at seed 1, and is varied as
    any scenario: `config.with_mode(mode)`, `replace(config, seed=s)`."""
    if name not in BUILTINS:
        known = ", ".join(sorted(BUILTINS))
        raise ScenarioError(f"unknown builtin scenario {name!r} (known: {known})")
    return BUILTINS[name](**params)
