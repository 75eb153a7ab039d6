"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The scenario criteria run
full simulations and take about a minute combined.
"""

import functools
import itertools
import math
import random
import statistics
import time
from array import array
from dataclasses import replace

import numpy as np

from dsmpepc.cost import (
    BASELINE_MPEPC,
    CostKernel,
    CostParams,
    collision_probability,
    modified_collision_probability,
    terminal_bonus,
    trajectory_cost,
)
from dsmpepc.kinematics import (
    ControlGains,
    PlannerConfig,
    Pose,
    RobotState,
    TrajectoryParam,
    rollout,
    wrap_angle,
)
from dsmpepc.optimizer import OptimizerConfig, evaluate_batch, plan
from dsmpepc.scenarios import builtin
from dsmpepc.simulator import run
from dsmpepc.world import (
    DynamicObstacle,
    NavigationField,
    OccupancyGrid,
    World,
    distance_to_nearest,
    time_to_collision,
)

from oracles import (
    brute_force_distance_field,
    fine_step_first_contact,
    integrate_control_law,
    integrate_recorded_controls,
)

CFG = PlannerConfig()
PARAMS = CostParams()  # T=5, h=0.2, a=0.7, sigma_1/TTG=1e-3, sigma_1/TTC=0.5
REL = 1e-12


def criterion(number, label):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {number} [{label}]: FAIL")
                raise
            print(f"\nACCEPTANCE {number} [{label}]: PASS")
        return wrapper
    return decorate


def open_world(obstacles=(), size=60, res=0.25, robot_radius=0.35):
    grid = OccupancyGrid(np.zeros((size, size), dtype=bool), res)
    return World(grid=grid, obstacles=tuple(obstacles), robot_radius=robot_radius)


def random_world(rng, n_obstacles):
    obstacles = tuple(
        DynamicObstacle(
            id=f"o{i}",
            radius=rng.uniform(0.2, 0.6),
            position=(rng.uniform(2, 13), rng.uniform(2, 13)),
            velocity=(rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8)),
        )
        for i in range(n_obstacles)
    )
    return open_world(obstacles)


def random_state_param(rng):
    start = RobotState(
        pose=Pose(rng.uniform(4, 11), rng.uniform(4, 11),
                  wrap_angle(rng.uniform(-math.pi, math.pi))),
        v=rng.uniform(0, 0.5),
        omega=rng.uniform(-0.5, 0.5),
    )
    z = TrajectoryParam(rng.uniform(0, 6), wrap_angle(rng.uniform(-math.pi, math.pi)),
                        wrap_angle(rng.uniform(-math.pi, math.pi)), rng.uniform(0, 1))
    return start, z


def evaluated_trajectory_set(n_trajectories, seed=100):
    """Random rollouts with ds and baseline evaluations of each."""
    rng = random.Random(seed)
    out = []
    for _ in range(n_trajectories):
        world = random_world(rng, rng.randint(1, 4))
        start, z = random_state_param(rng)
        traj = rollout(start, z, CFG)
        goal = Pose(rng.uniform(3, 12), rng.uniform(3, 12), 0.0)
        ds = trajectory_cost(traj, goal, world, PARAMS, CFG)
        base = trajectory_cost(
            traj, goal, world, replace(PARAMS, mode=BASELINE_MPEPC), CFG
        )
        out.append((traj, ds, base))
    return out


TRAJECTORY_SET = evaluated_trajectory_set(500)


@criterion(1, "anticipatory discount bounded, survivability dominance")
def test_c1_probability_bounds():
    rng = random.Random(1)
    for _ in range(10_000):
        d_o = rng.uniform(0.0, 5.0)
        ttc = rng.choice((0.0, math.inf, rng.uniform(0.0, 120.0)))
        p_c = collision_probability(d_o, PARAMS)
        p_mod = modified_collision_probability(d_o, ttc, PARAMS)
        assert (1.0 - PARAMS.a) * p_c <= p_mod * (1.0 + REL)
        assert p_mod <= p_c * (1.0 + REL)
    for _, ds, base in TRAJECTORY_SET:
        for p_c_ds, p_c, p_s_ds, p_s_base in zip(ds.p_c, base.p_c, ds.p_s, base.p_s):
            assert (1.0 - PARAMS.a) * p_c <= p_c_ds * (1.0 + REL)
            assert p_c_ds <= p_c * (1.0 + REL)
            assert p_s_ds * (1.0 + REL) >= p_s_base


@criterion(2, "in-contact first segment zeroes survivability")
def test_c2_contact_zeroes_survivability():
    rng = random.Random(2)
    for _ in range(30):
        world = open_world(
            (DynamicObstacle(id="o", radius=0.5,
                             position=(rng.uniform(5, 9), rng.uniform(5, 9))),)
        )
        obs = world.obstacles[0]
        ang = rng.uniform(-math.pi, math.pi)
        offset = rng.uniform(0.0, 0.8)  # within radius sum 0.85: contact
        start = RobotState(
            pose=Pose(obs.position[0] + offset * math.cos(ang),
                      obs.position[1] + offset * math.sin(ang),
                      wrap_angle(rng.uniform(-math.pi, math.pi))),
        )
        assert distance_to_nearest(world, (start.pose.x, start.pose.y), 0.0) == 0.0
        for _ in range(5):
            _, z = random_state_param(rng)
            traj = rollout(start, z, CFG)
            for mode_params in (PARAMS, replace(PARAMS, mode=BASELINE_MPEPC)):
                rows = trajectory_cost(
                    traj, Pose(12, 12, 0), world, mode_params, CFG
                )
                assert all(p_s == 0.0 for p_s in rows.p_s)


@criterion(3, "in-contact start halts: modes agree, planner picks null")
def test_c3_contact_start_halts():
    world = open_world(
        (DynamicObstacle(id="o", radius=0.5, position=(7.0, 7.0)),)
    )
    start = RobotState(pose=Pose(7.3, 7.0, 0.4))
    goal = Pose(12.0, 7.0, 0.0)
    rng = random.Random(3)
    base_params = replace(PARAMS, mode=BASELINE_MPEPC)
    for _ in range(100):
        _, z = random_state_param(rng)
        traj = rollout(start, z, CFG)
        ds = trajectory_cost(traj, goal, world, PARAMS, CFG)
        base = trajectory_cost(traj, goal, world, base_params, CFG)
        assert ds.j_terminal == 0.0
        assert ds.total == base.total
    opt = OptimizerConfig(n_global_samples=96, n_refine_seeds=1,
                          refine_max_evals=10)
    state = start
    for cycle in range(50):  # 10 simulated seconds
        result = plan(state, goal, world, CFG, PARAMS, replace(opt, seed=cycle))
        assert result.best_param == TrajectoryParam(0.0, 0.0, 0.0, 0.0)
        state = result.best_trajectory.states[1]
    moved = math.hypot(state.pose.x - start.pose.x, state.pose.y - start.pose.y)
    assert moved < 1e-9


@criterion(4, "survivability monotone; per-segment displacement bound")
def test_c4_monotonicity_and_displacement():
    for traj, ds, base in TRAJECTORY_SET:
        for rows in (ds, base):
            p_s = rows.p_s
            assert all(b <= a for a, b in zip(p_s, p_s[1:]))
        for a, b in zip(traj.states, traj.states[1:]):
            step = math.hypot(b.pose.x - a.pose.x, b.pose.y - a.pose.y)
            assert step <= abs(b.v) * CFG.step_h + 1e-9
            assert step <= CFG.v_limit * CFG.step_h + 1e-9
    scenario = builtin("narrow_corridor")
    result = run(scenario)
    for agent_res, agent_spec in zip(result.agents, scenario.agents):
        h = agent_spec.planner.step_h
        for a, b in zip(agent_res.trace, agent_res.trace[1:]):
            assert math.hypot(b.x - a.x, b.y - a.y) <= \
                agent_spec.planner.v_limit * h + 1e-9


@criterion(5, "terminal cost bounded in [-1, 0] with exact landmarks")
def test_c5_terminal_bounds():
    # 1,000,000 random draws scored in one array call; the first 10,000 are
    # also scored one at a time as floats, each equal to its array entry
    rng = random.Random(5)
    draws = array("d")
    for _ in range(1_000_000):
        p = rng.random()
        ttg = rng.choice((0.0, math.inf, rng.uniform(0.0, 2000.0)))
        ttc = rng.choice((0.0, math.inf, rng.uniform(0.0, 2000.0)))
        draws.extend((p, ttg, ttc))
    p, ttg, ttc = np.frombuffer(draws).reshape(-1, 3).T
    _, _, j = terminal_bonus(p, ttg, ttc, PARAMS)
    assert np.all((-1.0 <= j) & (j <= 0.0))
    for k in range(10_000):
        assert terminal_bonus(float(p[k]), float(ttg[k]), float(ttc[k]), PARAMS)[2] == j[k]
    assert terminal_bonus(1.0, math.inf, math.inf, PARAMS)[2] == -1.0
    assert terminal_bonus(0.0, math.inf, math.inf, PARAMS)[2] == 0.0
    sigma_half = replace(PARAMS, sigma_inv_ttc=0.5)
    j_point = terminal_bonus(1.0, math.inf, 2.0, sigma_half)[2]
    assert abs(j_point - (-math.exp(-1.0))) <= 1e-9


@criterion(6, "oracle equivalences (EDT, TTC, optimizer, integrator)")
def test_c6_oracles():
    # (a) distance field vs brute force, exact, 20 random 64x64 grids
    rng = np.random.default_rng(60)
    for _ in range(20):
        occupied = rng.random((64, 64)) < rng.uniform(0.02, 0.15)
        occupied[32, 32] = True
        res = float(rng.uniform(0.1, 0.5))
        grid = OccupancyGrid(occupied, res)
        assert np.array_equal(grid.distance_field,
                              brute_force_distance_field(occupied, res))

    # (b) analytic disk-disk TTC vs fine-step forward simulation, 1000 pairs
    prng = random.Random(61)
    robot_radius = 0.4
    finite_checked = 0
    for _ in range(1000):
        speed = prng.uniform(0.3, 1.2)
        ang = prng.uniform(-math.pi, math.pi)
        v = (speed * math.cos(ang), speed * math.sin(ang))
        dist = prng.uniform(1.5, 6.0)
        lateral = prng.uniform(-0.7, 0.7)
        ux, uy = math.cos(ang), math.sin(ang)
        obs = DynamicObstacle(
            id="o", radius=prng.uniform(0.2, 0.6),
            position=(ux * dist - uy * lateral, uy * dist + ux * lateral),
            velocity=(prng.uniform(-0.6, 0.6), prng.uniform(-0.6, 0.6)),
        )
        world = open_world((obs,), robot_radius=robot_radius)
        if distance_to_nearest(world, (0.0, 0.0), 0.0) == 0.0:
            continue
        ttc = time_to_collision(world, (0.0, 0.0), v, 0.0)
        sim = fine_step_first_contact(
            (0.0, 0.0), v, obs.position, obs.velocity,
            robot_radius + obs.radius, dt=1e-3, horizon=110.0,
        )
        if math.isinf(ttc):
            assert sim is None
        else:
            finite_checked += 1
            assert sim is not None
            assert abs(ttc - sim) <= 2e-3
    assert finite_checked >= 300  # the sweep must not be vacuous

    # (c) planner vs exhaustive 41x21x21x11 dense grid on 5 fixed scenes,
    # at the full 5 s horizon with a thorough search budget
    short_cfg = PlannerConfig()
    scenes = [
        (RobotState(pose=Pose(7, 7, 0.0)), Pose(10, 7, 0), ()),
        (RobotState(pose=Pose(7, 7, 0.0)), Pose(11, 7, 0),
         (DynamicObstacle(id="s", radius=0.5, position=(8.6, 7.0)),)),
        (RobotState(pose=Pose(7, 7, 0.5)), Pose(11, 9, 0),
         (DynamicObstacle(id="m1", radius=0.4, position=(9.0, 8.5),
                          velocity=(-0.4, -0.3)),
          DynamicObstacle(id="m2", radius=0.3, position=(8.0, 5.5),
                          velocity=(0.2, 0.5)))),
        (RobotState(pose=Pose(7, 7, math.pi)), Pose(10.5, 7.5, 0),
         (DynamicObstacle(id="s", radius=0.4, position=(6.0, 7.0)),)),
        (RobotState(pose=Pose(7, 7, 0.0), v=0.8), Pose(12, 7, 0),
         (DynamicObstacle(id="a", radius=0.45, position=(10.0, 7.2),
                          velocity=(-0.5, 0.0)),)),
    ]
    bounds = OptimizerConfig().resolved_bounds(short_cfg)
    axes = [np.linspace(lo, hi, n) for (lo, hi), n in zip(bounds, (41, 21, 21, 11))]
    grid_points = np.array(list(itertools.product(*axes)))
    search = OptimizerConfig(n_global_samples=1024, n_refine_seeds=6,
                             refine_max_evals=120)
    for idx, (start, goal, obstacles) in enumerate(scenes):
        world = open_world(obstacles)
        nav = NavigationField(world.grid, (goal.x, goal.y))
        result = plan(start, goal, world, short_cfg, PARAMS,
                      replace(search, seed=idx), nav=nav)
        best_grid = math.inf
        kernel = CostKernel(world, goal, PARAMS, short_cfg, start, nav)
        for lo in range(0, len(grid_points), 8192):
            chunk = grid_points[lo:lo + 8192]
            rows, _ = evaluate_batch(chunk, kernel)
            best_grid = min(best_grid, float(rows.total.min()))
        assert result.best_cost <= best_grid + 1e-6

    # (d) rollout vs 100x-substep re-integration of its controls, 50 pairs
    prng = random.Random(64)
    for _ in range(50):
        start, z = random_state_param(prng)
        traj = rollout(start, z, CFG)
        controls = [(s.v, s.omega) for s in traj.states[1:]]
        fine = integrate_recorded_controls(start.pose, controls, CFG.step_h, 100)
        err = math.hypot(traj.terminal.pose.x - fine.x,
                         traj.terminal.pose.y - fine.y)
        assert err <= 0.05


@criterion(7, "scenario reproduction: corridor, narrow, circles, ablation")
def test_c7_scenarios():
    # (a) T-corridor: ds reaches within 60 s with zero contacts; the
    # reconstructed baseline raises the deadlock flag
    ds = run(builtin("t_corridor"))
    mover = ds.agent("mover")
    assert mover.outcome == "reached"
    assert mover.time_to_goal <= 60.0
    assert not ds.contacts
    base = run(builtin("t_corridor").with_mode("baseline_mpepc"))
    assert base.agent("mover").outcome == "deadlocked"
    print("\n  7a t_corridor: ds reached at "
          f"{mover.time_to_goal:.1f}s; baseline deadlocked")

    # (b) narrow corridor: both ds agents reach with zero contacts;
    # baseline outcome reported
    narrow_ds = run(builtin("narrow_corridor"))
    assert all(a.outcome == "reached" for a in narrow_ds.agents)
    assert not narrow_ds.contacts
    narrow_base = run(builtin("narrow_corridor").with_mode("baseline_mpepc"))
    outcomes = {a.id: a.outcome for a in narrow_base.agents}
    print(f"  7b narrow_corridor: ds both reached; baseline outcomes {outcomes}")

    # (c) circle(4) and circle(10): all reach, zero contacts, clearance > 0
    for n in (4, 10):
        result = run(builtin("circle", n=n))
        assert all(a.outcome == "reached" for a in result.agents)
        assert not result.contacts
        min_pair = math.inf
        radii = [a.radius for a in builtin("circle", n=n).agents]
        traces = [a.trace for a in result.agents]
        for i, j in itertools.combinations(range(n), 2):
            for si, sj in zip(traces[i], traces[j]):
                min_pair = min(
                    min_pair,
                    math.hypot(si.x - sj.x, si.y - sj.y) - radii[i] - radii[j],
                )
        assert min_pair > 0.0
        print(f"  7c circle({n}): all reached, min pairwise clearance "
              f"{min_pair:.3f} m")

    # (d) ablation: disabling the TTC factor and the terminal bonus inside
    # ds mode restores the deadlock; at a = 0 the anticipatory factor is
    # exactly 1, so the ablated run is the baseline run of (a), bit for bit
    cfg = builtin("t_corridor")
    ablated = replace(
        cfg,
        agents=tuple(
            replace(a, cost=replace(a.cost, a=0.0, include_terminal=False))
            for a in cfg.agents
        ),
    )
    result = run(ablated)
    assert result.agent("mover").outcome == "deadlocked"
    assert result.agents == base.agents
    print("  7d ablation (a=0, terminal off): deadlocked")


@criterion(8, "control law drives 200 random starts to the target")
def test_c8_attractor():
    rng = random.Random(8)
    gains = ControlGains()
    for _ in range(200):
        r0 = rng.uniform(0.5, 10.0)
        ang = rng.uniform(-math.pi, math.pi)
        start = Pose(-r0 * math.cos(ang), -r0 * math.sin(ang),
                     wrap_angle(rng.uniform(-math.pi, math.pi)))
        target = Pose(0.0, 0.0, wrap_angle(rng.uniform(-math.pi, math.pi)))
        _, reached_at = integrate_control_law(
            start, target, gains, v_max=1.0, dt=0.05, t_end=60.0, stop_radius=0.05
        )
        assert reached_at is not None


@criterion(9, "planning cycle under 200 ms at the default budget")
def test_c9_performance():
    scenario = builtin("t_corridor")
    spec = scenario.agents[0]
    world = World(
        grid=scenario.grid,
        obstacles=(DynamicObstacle(id="blocker", radius=0.35,
                                   position=(5.6, 6.65)),),
        robot_radius=spec.radius,
    )
    nav = NavigationField(scenario.grid, (spec.goal.x, spec.goal.y))
    start = RobotState(pose=spec.start)
    # 400 global + 3x240 refinement: 4 rounds of 60 per seed
    default_budget = OptimizerConfig()
    timings = []
    for i in range(5):
        t0 = time.perf_counter()
        plan(start, spec.goal, world, spec.planner, spec.cost,
             replace(default_budget, seed=i), nav=nav)
        timings.append(time.perf_counter() - t0)
    median = statistics.median(timings)
    report = f"planning cycle median {median * 1000:.1f} ms (limit 200 ms)"
    print(f"\n  {report}")
    assert median < 0.2, report
