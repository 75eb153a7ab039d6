"""Closed-loop multi-agent simulation with receding-horizon replanning.

One loop (`steps`) builds one scene per step. A step makes one contact
pass (`world.detect_collision`), which gives its contacts and every agent's
trace clearance; it records goal arrivals and stops the agents that
finished; stopped agents stay in the world as static disks. It then builds
every agent's disk once and every agent's `World` once: the others as
constant-velocity disks, plus the scripted obstacles. That step's plans read
those worlds, and all active agents execute the first control of their plans
at once. `run()` summarises the steps; the CLI's landscape reads one. The loop
is deterministic for a fixed scenario and seed.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, replace

from .kinematics import RobotState, TrajectoryParam, rollout_batch, whole_steps
from .optimizer import PlanResult, plan
from .scenarios import ScenarioConfig
from .world import DynamicObstacle, NavigationField, World, detect_collision

# An agent slower than this for DEADLOCK_WINDOW seconds while still away from
# its goal counts as deadlocked.
DEADLOCK_SPEED = 0.05
DEADLOCK_WINDOW = 5.0

OUTCOME_REACHED = "reached"
OUTCOME_DEADLOCKED = "deadlocked"
OUTCOME_COLLIDED = "collided"
OUTCOME_TIMEOUT = "timeout"


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


def detect_deadlock(trace, goal_tolerance: float = 0.3) -> bool:
    """True iff the agent stays below DEADLOCK_SPEED for a contiguous
    DEADLOCK_WINDOW while its goal distance exceeds goal_tolerance."""
    if not trace:
        raise ValueError("trace must be non-empty")
    run_start: float | None = None
    for sample in trace:
        if abs(sample.v) < DEADLOCK_SPEED and sample.nf_distance > goal_tolerance:
            if run_start is None:
                run_start = sample.t
            # within 1e-9 s, the tolerance `PlannerConfig` gives whole steps:
            # sample times are cycle * step_h, so a whole window can round
            # short (81 * 0.2 - 56 * 0.2 = 4.999999999999998)
            if sample.t - run_start >= DEADLOCK_WINDOW - 1e-9:
                return True
        else:
            run_start = None
    return False


def _cycle_seed(base_seed: int, agent_index: int, cycle: int) -> int:
    return (base_seed * 1_000_003 + agent_index * 8_191 + cycle * 131 + 7) % (2**31)


@dataclass(frozen=True)
class Step:
    """One recorded step of a run, at t = cycle * step_h: every agent as the
    step found it (`samples`), the agents it stopped (id -> outcome) and the
    states after that, and each agent's world (`worlds`). `plans` are the
    plans made at the step before, which moved the active agents here."""

    cycle: int
    t: float
    samples: dict[str, TraceSample]
    contacts: tuple[ContactEvent, ...]
    stopped: dict[str, str]
    states: dict[str, RobotState]
    worlds: dict[str, World]
    navs: dict[str, NavigationField]
    plans: dict[str, PlanResult]


def steps(scenario: ScenarioConfig) -> Iterator[Step]:
    """The recorded steps of a simulation, from t = 0 until every agent has
    stopped or the duration is spent.

    A step makes one contact pass, which gives its contacts and the samples'
    d_o, and stops the active agents in contact or at their goal. It then
    builds every agent's disk once (at its constant velocity, at rest once
    stopped) and every agent's world once: the grid, the scripted obstacles
    and the other agents' disks. A sample's d_o is its agent's
    `distance_to_nearest` in that world. The plans every active agent makes
    before the next step read these worlds; all of them then execute the
    first control of their plans at once. The scenario keeps its
    rules, as every `ScenarioConfig` does: at least one agent, one shared
    step, and a whole number of steps in the duration.
    """
    grid = scenario.grid
    specs = scenario.agents
    h = specs[0].planner.step_h
    n_cycles = whole_steps(scenario.duration, h, "duration")

    navs = {a.id: NavigationField(grid, (a.goal.x, a.goal.y)) for a in specs}
    radii = {a.id: a.radius for a in specs}
    states = {a.id: RobotState(pose=a.start.wrapped(), t=0.0) for a in specs}
    active = {a.id for a in specs}
    plans: dict[str, PlanResult] = {}
    for cycle in range(n_cycles + 1):
        t = cycle * h
        found = dict(states)
        xy = {aid: (s.pose.x, s.pose.y) for aid, s in found.items()}
        events, d_o = detect_collision(grid, xy, radii, scenario.scripted_obstacles, t)
        hit = {aid for aid, _ in events}
        nf = {a.id: navs[a.id].distance(*xy[a.id]) for a in specs}
        stopped = {}
        for a in specs:
            if a.id in active and (a.id in hit or nf[a.id] <= a.cost.goal_tolerance):
                stopped[a.id] = OUTCOME_COLLIDED if a.id in hit else OUTCOME_REACHED
                active.remove(a.id)
            if a.id not in active:  # at rest, at this step's time
                states[a.id] = RobotState(pose=found[a.id].pose, t=t)

        disks = {
            aid: DynamicObstacle(
                id=aid, radius=radii[aid], position=xy[aid], epoch=t,
                velocity=(s.v * math.cos(s.pose.heading), s.v * math.sin(s.pose.heading))
                if aid in active else (0.0, 0.0),
            )
            for aid, s in states.items()
        }
        worlds = {
            a.id: World(grid=grid, robot_radius=a.radius, obstacles=scenario.scripted_obstacles
                        + tuple(d for bid, d in disks.items() if bid != a.id))
            for a in specs
        }
        samples = {
            aid: TraceSample(t=t, x=s.pose.x, y=s.pose.y, heading=s.pose.heading, v=s.v,
                             omega=s.omega, d_o=d_o[aid], nf_distance=nf[aid])
            for aid, s in found.items()
        }
        contacts = tuple(ContactEvent(t=t, agent_id=aid, other_id=o) for aid, o in events)
        yield Step(cycle, t, samples, contacts, stopped, dict(states), worlds, navs, plans)
        if cycle == n_cycles or not active:
            return

        last, plans = plans, {}
        for idx, a in enumerate(specs):
            if a.id in active:
                warm = last[a.id].best_param if a.id in last else None
                plans[a.id] = plan(
                    states[a.id], a.goal, worlds[a.id], a.planner, a.cost,
                    replace(a.optimizer, seed=_cycle_seed(scenario.seed, idx, cycle)),
                    warm_start=warm, nav=navs[a.id],
                )
        for aid, result in plans.items():
            states[aid] = result.best_trajectory.states[1]


def run(scenario: ScenarioConfig, diag_every: int | None = None) -> SimResult:
    """Simulate a scenario to completion or timeout and collect metrics.

    The result summarises `steps`: every step's trace samples, contacts and
    stopped agents, and the plans made between steps. diag_every, when set,
    re-rolls every candidate a plan evaluated each diag_every-th cycle, in
    one batch, and stores the resulting polyline fans per agent.
    """
    specs = scenario.agents
    traces: dict[str, list[TraceSample]] = {a.id: [] for a in specs}
    replans: dict[str, list[ReplanRecord]] = {a.id: [] for a in specs}
    fans: dict[str, list] | None = {a.id: [] for a in specs} if diag_every else None
    contacts: list[ContactEvent] = []
    stopped: dict[str, tuple[str, float]] = {}
    prev = None
    for step in steps(scenario):
        for a in specs:
            result = step.plans.get(a.id)
            if result is None:
                continue
            replans[a.id].append(ReplanRecord(
                t=prev.t, param=result.best_param, cost=result.best_cost,
                n_evaluated=len(result.costs),
            ))
            if fans is not None and prev.cycle % diag_every == 0:
                xs, ys, *_ = rollout_batch(prev.states[a.id], result.params, a.planner)
                fans[a.id].append((prev.t, tuple(
                    tuple(zip(x_row, y_row)) for x_row, y_row in zip(xs.tolist(), ys.tolist())
                )))
        contacts += step.contacts
        for aid, sample in step.samples.items():
            traces[aid].append(sample)
        stopped.update((aid, (outcome, step.t)) for aid, outcome in step.stopped.items())
        prev = step

    h = specs[0].planner.step_h
    results = []
    for a in specs:
        trace = traces[a.id]
        outcome, stop_t = stopped.get(a.id, (None, None))
        if outcome is None:
            deadlocked = detect_deadlock(trace, goal_tolerance=a.cost.goal_tolerance)
            outcome = OUTCOME_DEADLOCKED if deadlocked else OUTCOME_TIMEOUT
        path_length = sum(
            math.hypot(b.x - a2.x, b.y - a2.y) for a2, b in zip(trace, trace[1:])
        )
        dv = [abs(b.v - a2.v) / h for a2, b in zip(trace, trace[1:])]
        dw = [abs(b.omega - a2.omega) / h for a2, b in zip(trace, trace[1:])]
        results.append(
            AgentResult(
                id=a.id,
                outcome=outcome,
                time_to_goal=stop_t if outcome == OUTCOME_REACHED else None,
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
