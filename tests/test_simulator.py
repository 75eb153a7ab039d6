import math
import re
from dataclasses import replace

import numpy as np
import pytest

from dsmpepc import simulator
from dsmpepc.cost import BASELINE_MPEPC, CostParams
from dsmpepc.kinematics import PlannerConfig, Pose
from dsmpepc.optimizer import OptimizerConfig
from dsmpepc.scenarios import AgentSpec, ScenarioConfig, ScenarioError, _agent_to_dict, builtin
from dsmpepc.simulator import TraceSample, detect_deadlock, run
from dsmpepc.world import (
    DynamicObstacle,
    HorizonSnapshot,
    OccupancyGrid,
    World,
    detect_collision,
    distance_to_nearest,
)

from oracles import _clearance, _obstacle_state

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


def test_detect_deadlock_whole_window_of_rounded_step_times():
    # 81 * 0.2 - 56 * 0.2 = 4.999999999999998: 25 steps still fill the window
    assert detect_deadlock(trace([(c * 0.2, 0.0, 2.0) for c in range(56, 82)])) is True
    assert detect_deadlock(trace([(c * 0.2, 0.0, 2.0) for c in range(56, 81)])) is False


def test_detect_deadlock_near_goal_is_not_deadlock():
    samples = trace([(0.2 * i, 0.0, 0.1) for i in range(100)])
    assert detect_deadlock(samples) is False


def test_detect_collision_pairs():
    grid = OccupancyGrid(np.zeros((10, 10), dtype=bool), 0.5)
    agents = {"a": (1.0, 1.0), "b": (1.0 + 0.69, 1.0), "c": (4.0, 4.0)}
    radii = {"a": 0.35, "b": 0.35, "c": 0.35}
    events, clearance = detect_collision(grid, agents, radii, (), 0.0)
    assert ("a", "b") in events
    assert all("c" not in e for e in events)
    assert clearance["a"] == clearance["b"] == 0.0 < clearance["c"]
    apart = {"a": (1.0, 1.0), "b": (2.0, 1.0)}
    events, clearance = detect_collision(grid, apart, radii, (), 0.0)
    assert events == []
    assert clearance == {"a": (1.0 - 0.35) - 0.35, "b": (1.0 - 0.35) - 0.35}
    # alone on a map with no occupied cell, nothing bounds the clearance
    assert detect_collision(grid, {"a": (1.0, 1.0)}, radii, (), 0.0) == ([], {"a": math.inf})


def _random_scene(rng):
    """A constant-velocity and a scripted obstacle, agents and their radii,
    and a time t > 0, drawn inside a 10 m square."""
    t = float(rng.uniform(0.5, 10.0))
    scripted = (
        DynamicObstacle(id="cv", radius=float(rng.uniform(0.2, 0.6)),
                        position=tuple(rng.uniform(0.5, 9.5, 2).tolist()),
                        velocity=tuple(rng.uniform(-0.8, 0.8, 2).tolist()),
                        epoch=float(rng.uniform(0.0, 2.0))),
        DynamicObstacle(id="wp", radius=float(rng.uniform(0.2, 0.6)), waypoints=tuple(
            (float(k), *rng.uniform(0.5, 9.5, 2).tolist()) for k in range(0, 12, 3))),
    )
    agents = {f"a{i}": tuple(rng.uniform(0.5, 9.5, 2).tolist()) for i in range(5)}
    radii = {k: float(rng.uniform(0.2, 0.5)) for k in agents}
    return scripted, agents, radii, t


WALLED = ["#" * 20] + ["#" + "." * 18 + "#"] * 18 + ["#" * 20]


def test_detect_collision_matches_brute_force():
    # contacts in their order and clearances exactly, against the contact
    # rule written out per agent with the oracle's own obstacle prediction
    # and clearance, among walls, constant-velocity and scripted disks at t > 0;
    # a disk's distance is numpy's hypot, as in the oracle
    rng = np.random.default_rng(12)
    grid = OccupancyGrid.from_ascii(WALLED, 0.5)
    contacts = set()
    for _ in range(60):
        scripted, agents, radii, t = _random_scene(rng)
        events, clearance = detect_collision(grid, agents, radii, scripted, t)
        expected = []
        for aid, (x, y) in agents.items():
            # the agent's own row: the map, the obstacles, then the others
            if grid.sample_distance(x, y) - radii[aid] <= 0:
                expected.append((aid, "grid"))
            for obs in scripted:
                ox, oy, _, _ = _obstacle_state(obs, t)
                if float(np.hypot(x - ox, y - oy)) - obs.radius - radii[aid] <= 0:
                    expected.append((aid, obs.id))
            for bid, (bx, by) in agents.items():
                gap = float(np.hypot(x - bx, y - by)) - radii[bid] - radii[aid]
                if bid != aid and gap <= 0:
                    expected.append((aid, bid))
        assert events == expected
        contacts.update(other for _, other in events)
        for aid in agents:
            # the other agents as the step's disks: moving, with epoch t
            disks = tuple(DynamicObstacle(id=bid, radius=radii[bid], position=agents[bid],
                                          velocity=(0.3, -0.2), epoch=t)
                          for bid in agents if bid != aid)
            world = World(grid=grid, obstacles=scripted + disks, robot_radius=radii[aid])
            assert clearance[aid] == _clearance(world, *agents[aid], t)
    # every kind of contact occurred
    assert {"grid", "cv", "wp"} <= contacts and contacts & set(agents)


def test_detect_collision_is_the_same_in_both_pair_orders():
    # 0.49000000000000005 m apart, disks of radii 0.21 and 0.28 touch when
    # 0.21 is subtracted first and not when 0.28 is. Each agent reads its own
    # row, which subtracts the other's radius first, as distance_to_nearest
    # does: b touches a, a does not touch b, in either listing.
    h = 0.49000000000000005
    assert (h - 0.21) - 0.28 <= 0.0 < (h - 0.28) - 0.21
    grid = OccupancyGrid(np.zeros((4, 4), dtype=bool), 0.5)
    radii = {"a": 0.21, "b": 0.28}
    where = {"a": (0.0, 0.0), "b": (h, 0.0)}
    for order in (("a", "b"), ("b", "a")):
        events, clearance = detect_collision(grid, {k: where[k] for k in order}, radii, (),
                                             0.0)
        assert events == [("b", "a")]
        assert clearance == {"a": (h - 0.28) - 0.21, "b": 0.0}


def test_detect_collision_does_not_depend_on_order():
    # permuting the agents and the obstacles leaves the set of contacts and
    # every clearance as they were, and an agent is listed first in a
    # contact exactly when its clearance is 0
    rng = np.random.default_rng(21)
    grid = OccupancyGrid.from_ascii(WALLED, 0.5)
    touching = 0
    for _ in range(60):
        scripted, agents, radii, t = _random_scene(rng)
        events, clearance = detect_collision(grid, agents, radii, scripted, t)
        assert {aid for aid, _ in events} == {aid for aid, d in clearance.items() if d == 0.0}
        touching += sum(other in agents for _, other in events)
        for _ in range(3):
            ids = rng.permutation(list(agents)).tolist()
            obstacles = tuple(scripted[k] for k in rng.permutation(len(scripted)))
            moved, moved_clearance = detect_collision(
                grid, {aid: agents[aid] for aid in ids}, radii, obstacles, t)
            assert sorted(moved) == sorted(events)
            assert moved_clearance == clearance
    assert touching > 0


@pytest.mark.parametrize("scenario", [
    builtin("pedestrian_hall"),
    replace(builtin("circle", n=4), duration=6.0),
], ids=["pedestrian_hall", "circle_4"])
def test_step_clearance_is_distance_to_nearest_in_its_world(scenario):
    # the step's one contact pass gives each sample's d_o: exactly the
    # agent's distance_to_nearest in the world the step built for it, and
    # the planner's clearance (its HorizonSnapshot) of that point there
    obstacle_bound = 0
    for step in simulator.steps(scenario):
        for a in scenario.agents:
            s = step.samples[a.id]
            world = step.worlds[a.id]
            assert s.d_o == distance_to_nearest(world, (s.x, s.y), step.t)
            snapshot = HorizonSnapshot(world, [step.t])
            x, y = np.array([s.x]), np.array([s.y])
            d_grid = world.grid.sample_distance_batch(x, y)
            assert s.d_o == snapshot.clearance(x, y, d_grid).item()
            obstacle_bound += s.d_o < max(0.0, world.grid.sample_distance(s.x, s.y) - a.radius)
    # an obstacle or another agent, not the map, set some of them
    assert obstacle_bound > 0


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
    # a disk drives onto the agent's start by t = 0.6 s, faster than the agent
    # can leave it, while a second agent keeps the run going; a start already
    # in contact is rejected when the scenario is built (tests/test_scenarios.py)
    ram = DynamicObstacle(id="ram", radius=0.5,
                          waypoints=((0.0, 5.0, 13.0), (0.6, 5.0, 10.0)))
    scenario = make_scenario(
        [spec("bot", Pose(5.0, 10.0, 0.0), Pose(12.0, 10.0, 0.0), radius=0.5),
         spec("far", Pose(15.0, 3.0, math.pi / 2), Pose(15.0, 17.0, math.pi / 2))],
        duration=5.0, obstacles=(ram,),
    )
    result = run(scenario)
    bot = result.agent("bot")
    assert bot.outcome == "collided"
    hit = min(c.t for c in result.contacts if c.agent_id == "bot")
    assert 0.0 < hit < 1.0
    after = [s for s in bot.trace if s.t >= hit]
    assert len(after) > 1
    assert len({(s.x, s.y) for s in after}) == 1


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
    with pytest.raises(ScenarioError, match=re.escape(
            "agent 'b': step_h 0.1 differs from 0.2; all agents must share one step")):
        make_scenario([a, b])


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
    run(make_scenario([bot], duration=0.6))
    assert seen == [BASELINE_MPEPC] * 3
    assert _agent_to_dict(bot)["cost"]["mode"] == BASELINE_MPEPC


def test_replans_count_the_plan_arrays(monkeypatch):
    # run() reads a plan's arrays and never builds its `evaluated` pairs
    results = []

    def spy(*args, **kwargs):
        results.append(real_plan(*args, **kwargs))
        return results[-1]

    real_plan = simulator.plan
    monkeypatch.setattr(simulator, "plan", spy)
    bot = spec("bot", Pose(5.0, 10.0, 0.0), Pose(15.0, 10.0, 0.0))
    sim = run(make_scenario([bot], duration=0.6), diag_every=2)
    assert [r.n_evaluated for r in sim.agents[0].replans] == [len(r.costs) for r in results]
    assert [len(fan) for _, fan in sim.diag_fans["bot"]] == [len(results[0].params),
                                                             len(results[2].params)]
    assert not any("evaluated" in vars(r) for r in results)


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
