"""Closed-loop multi-agent simulation with receding-horizon replanning.

Every cycle each active agent plans against a snapshot in which the other
agents appear as constant-velocity disk obstacles, then all agents execute
the first control of their chosen trajectories simultaneously. Terminated
agents stay in the world as static disks. The loop is deterministic for a
fixed scenario and seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from .cost import CostParams
from .geometry import Pose
from .kinematics import PlannerConfig, RobotState, TrajectoryParam, rollout
from .optimizer import OptimizerConfig, plan
from .world import (
    DynamicObstacle,
    NavigationField,
    OccupancyGrid,
    World,
    distance_to_nearest,
    predict_obstacle,
)

if TYPE_CHECKING:
    from .scenarios import ScenarioConfig

# An agent slower than this for DEADLOCK_WINDOW seconds while still away from
# its goal counts as deadlocked.
DEADLOCK_SPEED = 0.05
DEADLOCK_WINDOW = 5.0

OUTCOME_REACHED = "reached"
OUTCOME_DEADLOCKED = "deadlocked"
OUTCOME_COLLIDED = "collided"
OUTCOME_TIMEOUT = "timeout"


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
        if self.radius <= 0:
            raise ValueError(f"agent {self.id!r}: radius must be positive")

    @property
    def mode(self) -> str:
        return self.cost.mode


@dataclass(frozen=True)
class TraceSample:
    t: float
    x: float
    y: float
    heading: float
    v: float
    omega: float
    d_o: float
    nf_distance: float


@dataclass(frozen=True)
class ContactEvent:
    t: float
    agent_id: str
    other_id: str


@dataclass(frozen=True)
class ReplanRecord:
    t: float
    param: TrajectoryParam
    cost: float
    n_evaluated: int


@dataclass(frozen=True)
class AgentResult:
    id: str
    outcome: str
    time_to_goal: float | None
    path_length: float
    min_clearance: float
    smoothness_v: float
    smoothness_w: float
    trace: tuple[TraceSample, ...]
    replans: tuple[ReplanRecord, ...]

    def to_dict(self) -> dict:
        # strict JSON has no Infinity; unbounded clearance maps to null
        clearance = self.min_clearance if math.isfinite(self.min_clearance) else None
        return {
            "id": self.id,
            "outcome": self.outcome,
            "time_to_goal": self.time_to_goal,
            "path_length": self.path_length,
            "min_clearance": clearance,
            "smoothness_v": self.smoothness_v,
            "smoothness_w": self.smoothness_w,
        }


@dataclass(frozen=True)
class SimResult:
    scenario_name: str
    seed: int
    duration: float
    agents: tuple[AgentResult, ...]
    contacts: tuple[ContactEvent, ...]
    diag_fans: dict[str, list] | None = None

    @property
    def all_reached(self) -> bool:
        return all(a.outcome == OUTCOME_REACHED for a in self.agents)

    def agent(self, agent_id: str) -> AgentResult:
        for a in self.agents:
            if a.id == agent_id:
                return a
        raise KeyError(agent_id)

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario_name,
            "seed": self.seed,
            "duration": self.duration,
            "agents": [a.to_dict() for a in self.agents],
            "contacts": [
                {"t": c.t, "agent": c.agent_id, "other": c.other_id} for c in self.contacts
            ],
        }


def detect_deadlock(
    trace,
    goal_tolerance: float = 0.3,
    speed_threshold: float = DEADLOCK_SPEED,
    window_s: float = DEADLOCK_WINDOW,
) -> bool:
    """True iff the agent stays below speed_threshold for a contiguous
    window_s while its goal distance exceeds goal_tolerance."""
    if not trace:
        raise ValueError("trace must be non-empty")
    run_start: float | None = None
    for sample in trace:
        if abs(sample.v) < speed_threshold and sample.nf_distance > goal_tolerance:
            if run_start is None:
                run_start = sample.t
            if sample.t - run_start >= window_s:
                return True
        else:
            run_start = None
    return False


def detect_collision(
    grid: OccupancyGrid,
    agents: dict[str, tuple[float, float]],
    radii: dict[str, float],
    obstacles: tuple[DynamicObstacle, ...],
    t: float,
) -> list[tuple[str, str]]:
    """Contact pairs (agent, other) at time t; agent-agent pairs reported once.

    `other` is "grid", an obstacle id, or another agent id.
    """
    events: list[tuple[str, str]] = []
    ids = list(agents)
    for aid in ids:
        x, y = agents[aid]
        if grid.has_occupied and grid.sample_distance(x, y) - radii[aid] <= 0.0:
            events.append((aid, "grid"))
        for obs in obstacles:
            ox, oy = predict_obstacle(obs, t)
            if math.hypot(x - ox, y - oy) - obs.radius - radii[aid] <= 0.0:
                events.append((aid, obs.id))
    for i, aid in enumerate(ids):
        for bid in ids[i + 1:]:
            ax, ay = agents[aid]
            bx, by = agents[bid]
            if math.hypot(ax - bx, ay - by) - radii[aid] - radii[bid] <= 0.0:
                events.append((aid, bid))
    return events


def _planar_velocity(state: RobotState) -> tuple[float, float]:
    return (
        state.v * math.cos(state.pose.heading),
        state.v * math.sin(state.pose.heading),
    )


def _snapshot_for(
    agent_id: str,
    specs: list[AgentSpec],
    states: dict[str, RobotState],
    moving: dict[str, bool],
    scripted: tuple[DynamicObstacle, ...],
    grid: OccupancyGrid,
    radius: float,
    t: float,
) -> World:
    obstacles = list(scripted)
    for other in specs:
        if other.id == agent_id:
            continue
        s = states[other.id]
        vel = _planar_velocity(s) if moving[other.id] else (0.0, 0.0)
        obstacles.append(
            DynamicObstacle(
                id=other.id,
                radius=other.radius,
                position=(s.pose.x, s.pose.y),
                velocity=vel,
                epoch=t,
            )
        )
    return World(grid=grid, obstacles=tuple(obstacles), robot_radius=radius)


def _cycle_seed(base_seed: int, agent_index: int, cycle: int) -> int:
    return (base_seed * 1_000_003 + agent_index * 8_191 + cycle * 131 + 7) % (2**31)


def run(scenario: "ScenarioConfig", diag_every: int | None = None) -> SimResult:
    """Simulate a scenario to completion or timeout and collect metrics.

    diag_every, when set, re-rolls every evaluated candidate each
    diag_every-th cycle and stores the resulting polyline fans per agent.
    """
    grid = scenario.grid
    specs = list(scenario.agents)
    if not specs:
        raise ValueError("scenario has no agents")
    h = specs[0].planner.step_h
    if any(abs(a.planner.step_h - h) > 1e-12 for a in specs):
        raise ValueError("all agents must share the same planner step")
    n_cycles = int(round(scenario.duration / h))

    navs = {a.id: NavigationField(grid, (a.goal.x, a.goal.y)) for a in specs}
    states: dict[str, RobotState] = {
        a.id: RobotState(pose=a.start.wrapped(), v=0.0, omega=0.0, t=0.0) for a in specs
    }
    active = {a.id: True for a in specs}
    reached_at: dict[str, float] = {}
    collided = {a.id: False for a in specs}
    warm: dict[str, TrajectoryParam | None] = {a.id: None for a in specs}
    traces: dict[str, list[TraceSample]] = {a.id: [] for a in specs}
    replans: dict[str, list[ReplanRecord]] = {a.id: [] for a in specs}
    contacts: list[ContactEvent] = []
    fans: dict[str, list] | None = {a.id: [] for a in specs} if diag_every else None

    def freeze(agent_id: str, t: float) -> None:
        s = states[agent_id]
        states[agent_id] = RobotState(pose=s.pose, v=0.0, omega=0.0, t=t)
        active[agent_id] = False

    def record_step(t: float) -> None:
        positions = {a.id: (states[a.id].pose.x, states[a.id].pose.y) for a in specs}
        radii = {a.id: a.radius for a in specs}
        events = detect_collision(grid, positions, radii, scenario.scripted_obstacles, t)
        for aid, other in events:
            contacts.append(ContactEvent(t=t, agent_id=aid, other_id=other))
        hit = {aid for aid, _ in events} | {
            other for _, other in events if other in positions
        }
        for a in specs:
            s = states[a.id]
            snapshot = _snapshot_for(
                a.id, specs, states, active, scenario.scripted_obstacles, grid, a.radius, t
            )
            d_o = distance_to_nearest(snapshot, (s.pose.x, s.pose.y), t)
            nf_d = navs[a.id].distance(s.pose.x, s.pose.y)
            traces[a.id].append(
                TraceSample(
                    t=t, x=s.pose.x, y=s.pose.y, heading=s.pose.heading,
                    v=s.v, omega=s.omega, d_o=d_o, nf_distance=nf_d,
                )
            )
            if active[a.id] and a.id in hit:
                collided[a.id] = True
                freeze(a.id, t)
            elif active[a.id] and nf_d <= a.cost.goal_tolerance:
                reached_at[a.id] = t
                freeze(a.id, t)

    record_step(0.0)
    for cycle in range(n_cycles):
        if not any(active.values()):
            break
        t = cycle * h
        moves: dict[str, RobotState] = {}
        for idx, a in enumerate(specs):
            if not active[a.id]:
                continue
            snapshot = _snapshot_for(
                a.id, specs, states, active, scenario.scripted_obstacles, grid, a.radius, t
            )
            opt_cfg = replace(
                a.optimizer, seed=_cycle_seed(scenario.seed, idx, cycle)
            )
            result = plan(
                states[a.id], a.goal, snapshot, a.planner, a.cost, opt_cfg,
                warm_start=warm[a.id], nav=navs[a.id],
            )
            warm[a.id] = result.best_param
            moves[a.id] = result.best_trajectory.states[1]
            replans[a.id].append(
                ReplanRecord(
                    t=t, param=result.best_param, cost=result.best_cost,
                    n_evaluated=len(result.evaluated),
                )
            )
            if fans is not None and cycle % diag_every == 0:
                polylines = []
                for z, _ in result.evaluated:
                    traj = rollout(states[a.id], z, a.planner)
                    polylines.append(tuple((s.pose.x, s.pose.y) for s in traj.states))
                fans[a.id].append((t, tuple(polylines)))
        for a in specs:
            if active[a.id]:
                states[a.id] = moves[a.id]
        record_step((cycle + 1) * h)

    results = []
    for a in specs:
        trace = traces[a.id]
        if collided[a.id]:
            outcome = OUTCOME_COLLIDED
        elif a.id in reached_at:
            outcome = OUTCOME_REACHED
        elif detect_deadlock(trace, goal_tolerance=a.cost.goal_tolerance):
            outcome = OUTCOME_DEADLOCKED
        else:
            outcome = OUTCOME_TIMEOUT
        path_length = sum(
            math.hypot(b.x - a2.x, b.y - a2.y) for a2, b in zip(trace, trace[1:])
        )
        dv = [abs(b.v - a2.v) / h for a2, b in zip(trace, trace[1:])]
        dw = [abs(b.omega - a2.omega) / h for a2, b in zip(trace, trace[1:])]
        results.append(
            AgentResult(
                id=a.id,
                outcome=outcome,
                time_to_goal=reached_at.get(a.id),
                path_length=path_length,
                min_clearance=min(s.d_o for s in trace),
                smoothness_v=(sum(dv) / len(dv)) if dv else 0.0,
                smoothness_w=(sum(dw) / len(dw)) if dw else 0.0,
                trace=tuple(trace),
                replans=tuple(replans[a.id]),
            )
        )
    return SimResult(
        scenario_name=scenario.name,
        seed=scenario.seed,
        duration=scenario.duration,
        agents=tuple(results),
        contacts=tuple(contacts),
        diag_fans=fans,
    )
