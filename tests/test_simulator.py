import math

import numpy as np
import pytest

from dsmpepc import simulator
from dsmpepc.cost import BASELINE_MPEPC, CostParams
from dsmpepc.geometry import Pose
from dsmpepc.kinematics import PlannerConfig
from dsmpepc.optimizer import OptimizerConfig
from dsmpepc.scenarios import ScenarioConfig, _agent_to_dict
from dsmpepc.simulator import (
    AgentSpec,
    TraceSample,
    detect_collision,
    detect_deadlock,
    run,
)
from dsmpepc.world import DynamicObstacle, OccupancyGrid

FAST_OPT = OptimizerConfig(n_global_samples=96, n_refine_seeds=1, refine_max_evals=15)


def make_scenario(agents, rows=None, res=0.25, duration=20.0, seed=1, obstacles=()):
    if rows is None:
        rows = ["." * 80] * 80
    return ScenarioConfig(
        name="test",
        grid=OccupancyGrid.from_ascii(rows, res),
        agents=tuple(agents),
        scripted_obstacles=tuple(obstacles),
        duration=duration,
        seed=seed,
    )


def spec(agent_id, start, goal, **kw):
    kw.setdefault("optimizer", FAST_OPT)
    return AgentSpec(id=agent_id, start=start, goal=goal, **kw)


def trace(samples):
    return [
        TraceSample(t=t, x=0, y=0, heading=0, v=v, omega=0, d_o=1.0, nf_distance=nf)
        for t, v, nf in samples
    ]


def test_detect_deadlock_stationary_far_from_goal():
    samples = trace([(0.2 * i, 0.0, 2.0) for i in range(31)])  # 6 s at rest
    assert detect_deadlock(samples) is True


def test_detect_deadlock_moving_agent():
    samples = trace([(0.2 * i, 0.5, 2.0) for i in range(100)])
    assert detect_deadlock(samples) is False


def test_detect_deadlock_short_pause():
    samples = trace(
        [(0.2 * i, 0.0, 2.0) for i in range(16)]          # 3 s pause
        + [(0.2 * (16 + i), 0.5, 1.5) for i in range(50)]
    )
    assert detect_deadlock(samples) is False


def test_detect_deadlock_near_goal_is_not_deadlock():
    samples = trace([(0.2 * i, 0.0, 0.1) for i in range(100)])
    assert detect_deadlock(samples) is False


def test_detect_collision_pairs():
    grid = OccupancyGrid(np.zeros((10, 10), dtype=bool), 0.5)
    agents = {"a": (1.0, 1.0), "b": (1.0 + 0.69, 1.0), "c": (4.0, 4.0)}
    radii = {"a": 0.35, "b": 0.35, "c": 0.35}
    events = detect_collision(grid, agents, radii, (), 0.0)
    assert ("a", "b") in events
    assert all("c" not in e for e in events)
    apart = {"a": (1.0, 1.0), "b": (2.0, 1.0)}
    assert detect_collision(grid, apart, radii, (), 0.0) == []


def test_detect_collision_matches_brute_force():
    rng = np.random.default_rng(12)
    rows = ["#" * 20] + ["#" + "." * 18 + "#"] * 18 + ["#" * 20]
    grid = OccupancyGrid.from_ascii(rows, 0.5)
    for _ in range(50):
        agents = {
            f"a{i}": (float(rng.uniform(0.5, 9.5)), float(rng.uniform(0.5, 9.5)))
            for i in range(5)
        }
        radii = {k: float(rng.uniform(0.2, 0.5)) for k in agents}
        events = set(detect_collision(grid, agents, radii, (), 0.0))
        expected = set()
        ids = list(agents)
        for aid in ids:
            x, y = agents[aid]
            if grid.sample_distance(x, y) - radii[aid] <= 0:
                expected.add((aid, "grid"))
        for i, aid in enumerate(ids):
            for bid in ids[i + 1:]:
                ax, ay = agents[aid]
                bx, by = agents[bid]
                if math.hypot(ax - bx, ay - by) - radii[aid] - radii[bid] <= 0:
                    expected.add((aid, bid))
        assert events == expected


def test_single_agent_open_field_bounds():
    scenario = make_scenario(
        [spec("bot", Pose(7.5, 10.0, 0.0), Pose(12.5, 10.0, 0.0))]
    )
    result = run(scenario)
    bot = result.agent("bot")
    assert bot.outcome == "reached"
    assert bot.time_to_goal <= 15.0
    assert bot.path_length <= 6.0
    assert not result.contacts
    # reached implies the recorded goal distance is inside the tolerance
    reach_sample = next(s for s in bot.trace if s.t == bot.time_to_goal)
    assert reach_sample.nf_distance <= scenario.agents[0].cost.goal_tolerance


def test_agent_spawned_in_contact_freezes():
    rows = ["#" * 40] + ["#" + "." * 38 + "#"] * 38 + ["#" * 40]
    scenario = make_scenario(
        [spec("bot", Pose(0.6, 5.0, 0.0), Pose(8.0, 5.0, 0.0), radius=0.5)],
        rows=rows, duration=5.0,
    )
    result = run(scenario)
    bot = result.agent("bot")
    assert bot.outcome == "collided"
    xs = {s.x for s in bot.trace}
    ys = {s.y for s in bot.trace}
    assert len(xs) == 1 and len(ys) == 1


def test_two_agent_head_on_ds():
    scenario = make_scenario(
        [
            spec("east", Pose(6.0, 10.0, 0.0), Pose(14.0, 10.0, 0.0)),
            spec("west", Pose(14.0, 10.0, math.pi), Pose(6.0, 10.0, math.pi)),
        ],
        duration=30.0,
    )
    result = run(scenario)
    assert all(a.outcome == "reached" for a in result.agents)
    assert all(a.min_clearance > 0 for a in result.agents)
    assert not result.contacts


def test_simulation_determinism():
    scenario = make_scenario(
        [
            spec("east", Pose(6.0, 10.0, 0.0), Pose(13.0, 10.0, 0.0)),
            spec("west", Pose(13.0, 10.5, math.pi), Pose(6.0, 10.5, math.pi)),
        ],
        duration=10.0,
    )
    r1 = run(scenario)
    r2 = run(scenario)
    for a1, a2 in zip(r1.agents, r2.agents):
        assert a1.trace == a2.trace
        assert a1.replans == a2.replans
        assert a1.outcome == a2.outcome
    assert r1.contacts == r2.contacts


def test_reached_agent_stays_put_and_blocks():
    scenario = make_scenario(
        [spec("bot", Pose(7.0, 10.0, 0.0), Pose(10.0, 10.0, 0.0))],
        duration=20.0,
    )
    result = run(scenario)
    bot = result.agent("bot")
    assert bot.outcome == "reached"
    idx = next(i for i, s in enumerate(bot.trace) if s.t >= bot.time_to_goal)
    tail = bot.trace[idx:]
    assert all(s.x == tail[0].x and s.y == tail[0].y for s in tail)
    assert all(s.v == 0.0 for s in tail[1:])


def test_executed_steps_respect_displacement_bound():
    scenario = make_scenario(
        [
            spec("east", Pose(6.0, 10.0, 0.0), Pose(14.0, 10.0, 0.0)),
            spec("west", Pose(14.0, 10.0, math.pi), Pose(6.0, 10.0, math.pi)),
        ],
        duration=12.0,
    )
    result = run(scenario)
    for agent_res, agent_spec in zip(result.agents, scenario.agents):
        h = agent_spec.planner.step_h
        v_lim = agent_spec.planner.v_limit
        for a, b in zip(agent_res.trace, agent_res.trace[1:]):
            assert math.hypot(b.x - a.x, b.y - a.y) <= v_lim * h + 1e-9


def test_mismatched_step_rejected():
    a = spec("a", Pose(5, 5, 0), Pose(10, 5, 0))
    b = spec("b", Pose(5, 8, 0), Pose(10, 8, 0),
             planner=PlannerConfig(step_h=0.1, horizon_T=5.0))
    scenario = make_scenario([a, b])
    with pytest.raises(ValueError, match="share the same planner step"):
        run(scenario)


def test_scripted_obstacle_participates():
    ped = DynamicObstacle(
        id="ped", radius=0.4,
        waypoints=((0.0, 10.0, 6.0), (10.0, 10.0, 14.0)),
    )
    scenario = make_scenario(
        [spec("bot", Pose(6.0, 10.0, 0.0), Pose(14.0, 10.0, 0.0))],
        duration=25.0, obstacles=(ped,),
    )
    result = run(scenario)
    bot = result.agent("bot")
    assert bot.outcome == "reached"
    assert not result.contacts
    assert bot.min_clearance > 0.0


def test_partial_result_on_timeout():
    # goal unreachable in time: tiny duration
    scenario = make_scenario(
        [spec("bot", Pose(5.0, 10.0, 0.0), Pose(15.0, 10.0, 0.0))],
        duration=2.0,
    )
    result = run(scenario)
    bot = result.agent("bot")
    assert bot.outcome == "timeout"
    assert len(bot.trace) == int(2.0 / 0.2) + 1


def test_agent_cost_mode_reaches_plan(monkeypatch):
    # the cost mode lives only in AgentSpec.cost; run() plans with it as given
    seen = []

    def spy(*args, **kwargs):
        seen.append(args[4].mode)
        return real_plan(*args, **kwargs)

    real_plan = simulator.plan
    monkeypatch.setattr(simulator, "plan", spy)
    bot = spec("bot", Pose(5.0, 10.0, 0.0), Pose(15.0, 10.0, 0.0),
               cost=CostParams(mode=BASELINE_MPEPC))
    assert bot.mode == BASELINE_MPEPC
    run(make_scenario([bot], duration=0.6))
    assert seen == [BASELINE_MPEPC] * 3
    doc = _agent_to_dict(bot)
    assert doc["mode"] == doc["cost"]["mode"] == BASELINE_MPEPC


def test_one_world_and_one_disk_per_agent_per_step(monkeypatch):
    # each recorded step builds every agent's disk once and every agent's
    # world once, and that step's plans are made in those same worlds
    built = {"World": [], "DynamicObstacle": []}
    for name, objects in built.items():
        def counted(*args, _real=getattr(simulator, name), _objects=objects, **kwargs):
            _objects.append(_real(*args, **kwargs))
            return _objects[-1]

        monkeypatch.setattr(simulator, name, counted)
    planned_in = []

    def spy(*args, **kwargs):
        planned_in.append(args[2])
        return real_plan(*args, **kwargs)

    real_plan = simulator.plan
    monkeypatch.setattr(simulator, "plan", spy)
    ped = DynamicObstacle(id="ped", radius=0.3, position=(9.0, 12.0), velocity=(0.0, -0.5))
    scenario = make_scenario(
        [spec("a", Pose(6.0, 10.0, 0.0), Pose(12.0, 10.0, 0.0)),
         spec("b", Pose(12.0, 8.0, math.pi), Pose(6.0, 8.0, math.pi)),
         spec("c", Pose(6.0, 14.0, 0.0), Pose(6.2, 14.0, 0.0))],
        duration=3.0, obstacles=(ped,),
    )
    result = run(scenario)
    recorded = sum(len(a.trace) for a in result.agents)
    assert len(built["World"]) == len(built["DynamicObstacle"]) == recorded
    assert len(planned_in) == sum(len(a.replans) for a in result.agents) > 0
    worlds = {id(w) for w in built["World"]}
    assert all(id(w) in worlds for w in planned_in)
    assert result.agent("c").outcome == "reached"


def test_stopped_agent_rests_at_each_step_time():
    # a landscape read at a later step scores a stopped agent from rest at
    # that step's time, so the moving disks are predicted from that time
    scenario = make_scenario(
        [spec("a", Pose(6.0, 10.0, 0.0), Pose(6.2, 10.0, 0.0)),
         spec("b", Pose(6.0, 14.0, 0.0), Pose(12.0, 14.0, 0.0))],
        duration=1.0,
    )
    seen = []
    for step in simulator.steps(scenario):
        a = step.states["a"]
        assert (a.pose, a.v, a.omega, a.t) == (scenario.agents[0].start, 0.0, 0.0, step.t)
        assert step.worlds["b"].obstacles[0].velocity == (0.0, 0.0)
        seen.append(step.cycle)
    assert seen == list(range(6))
