import math
import random
from dataclasses import replace

import numpy as np
import pytest

from dsmpepc import world as world_module
from dsmpepc.cost import (
    _P_C_SKIP,
    BASELINE_MPEPC,
    DS_MPEPC,
    CostKernel,
    CostParams,
    anticipatory_factor,
    collision_probability,
    expected_time_to_goal,
    modified_collision_probability,
    survivability,
    terminal_bonus,
    terminal_ttc,
    trajectory_cost,
)
from dsmpepc.kinematics import (
    PlannerConfig,
    Pose,
    RobotState,
    TrajectoryParam,
    rollout,
    rollout_batch,
    wrap_angle,
)
from dsmpepc.world import DynamicObstacle, HorizonSnapshot, OccupancyGrid, World

from agreement import assert_float_alone_equals_array
from oracles import reference_trajectory_cost

PARAMS = CostParams()
CFG = PlannerConfig()


def open_world(obstacles=(), robot_radius=0.35, size=60, res=0.25):
    grid = OccupancyGrid(np.zeros((size, size), dtype=bool), res)
    return World(grid=grid, obstacles=tuple(obstacles), robot_radius=robot_radius)


def random_world(rng, n_obstacles=3):
    obstacles = tuple(
        DynamicObstacle(
            id=f"o{i}",
            radius=rng.uniform(0.2, 0.6),
            position=(rng.uniform(1, 11), rng.uniform(1, 11)),
            velocity=(rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8)),
        )
        for i in range(n_obstacles)
    )
    return open_world(obstacles, size=48, res=0.25)


def random_state_param(rng, center=(6.0, 6.0)):
    start = RobotState(
        pose=Pose(center[0] + rng.uniform(-3, 3), center[1] + rng.uniform(-3, 3),
                  wrap_angle(rng.uniform(-math.pi, math.pi))),
        v=rng.uniform(0, 0.5),
        omega=rng.uniform(-0.5, 0.5),
    )
    z = TrajectoryParam(rng.uniform(0, 6), wrap_angle(rng.uniform(-math.pi, math.pi)),
                        wrap_angle(rng.uniform(-math.pi, math.pi)), rng.uniform(0, 1))
    return start, z


def test_collision_probability_examples():
    assert collision_probability(0.0, PARAMS) == 1.0
    assert collision_probability(PARAMS.sigma_d, PARAMS) == pytest.approx(
        math.exp(-1.0), rel=1e-12
    )
    assert collision_probability(10 * PARAMS.sigma_d, PARAMS) < 1e-40
    with pytest.raises(ValueError):
        collision_probability(-0.1, PARAMS)


def test_anticipatory_factor_limits():
    assert anticipatory_factor(0.0, PARAMS) == 1.0
    assert anticipatory_factor(math.inf, PARAMS) == 1.0 - PARAMS.a
    for ttc in (0.1, 0.5, 2.0, 50.0):
        f = anticipatory_factor(ttc, PARAMS)
        assert 1.0 - PARAMS.a <= f <= 1.0


def test_ttc_horizon_gap_is_as_stated():
    # the gaps to the asymptotes that world.TTC_HORIZON's comment states, at
    # the default CostParams
    factor_gap = anticipatory_factor(world_module.TTC_HORIZON, PARAMS) - (1.0 - PARAMS.a)
    _, c_ttc, _ = terminal_bonus(1.0, math.inf, world_module.TTC_HORIZON, PARAMS)
    assert f"{factor_gap:.1e}" == "2.8e-04"
    assert f"{1.0 - c_ttc:.1e}" == "4.0e-04"


def test_modified_probability_examples():
    for d in (0.0, 0.1, 0.5, 2.0):
        p = collision_probability(d, PARAMS)
        assert modified_collision_probability(d, 0.0, PARAMS) == p
        assert modified_collision_probability(d, math.inf, PARAMS) == (1 - PARAMS.a) * p
    no_anticipation = replace(PARAMS, a=0.0)
    for ttc in (0.0, 0.3, 7.0, math.inf):
        assert modified_collision_probability(0.4, ttc, no_anticipation) == \
            collision_probability(0.4, no_anticipation)


def test_modified_probability_bounds_random():
    rng = random.Random(0)
    for _ in range(5000):
        d = rng.uniform(0, 3)
        ttc = rng.choice([0.0, math.inf, rng.uniform(0, 80)])
        p = collision_probability(d, PARAMS)
        p_mod = modified_collision_probability(d, ttc, PARAMS)
        assert (1 - PARAMS.a) * p <= p_mod * (1 + 1e-12)
        assert p_mod <= p * (1 + 1e-12)


def test_survivability_examples():
    assert survivability([0.0, 0.0, 0.0]) == [1.0, 1.0, 1.0]
    assert survivability([1.0, 0.2]) == [0.0, 0.0]
    got = survivability([0.1, 0.2, 0.5])
    assert got[0] == pytest.approx(0.9, rel=1e-15)
    assert got[1] == pytest.approx(0.72, rel=1e-15)
    assert got[2] == pytest.approx(0.36, rel=1e-15)
    with pytest.raises(ValueError):
        survivability([1.5])


def test_survivability_non_increasing():
    rng = random.Random(1)
    for _ in range(200):
        seq = [rng.random() for _ in range(30)]
        p_s = survivability(seq)
        assert all(b <= a for a, b in zip(p_s, p_s[1:]))


def test_expected_time_to_goal():
    stopped = RobotState(pose=Pose(0, 0, 0), v=0.0)
    assert expected_time_to_goal(stopped, (3.0, 0.0), PARAMS) == math.inf
    head_on = RobotState(pose=Pose(0, 0, 0), v=1.0)
    assert expected_time_to_goal(head_on, (4.0, 0.0), PARAMS) == pytest.approx(4.0)
    perpendicular = RobotState(pose=Pose(0, 0, math.pi / 2), v=1.0)
    assert expected_time_to_goal(perpendicular, (4.0, 0.0), PARAMS) == math.inf
    at_goal = RobotState(pose=Pose(3.9, 0, 0), v=0.5)
    assert expected_time_to_goal(at_goal, (4.0, 0.0), PARAMS) == 0.0


def test_expected_time_to_goal_at_rest_on_the_goal():
    # d = 0 and v_goal = 0: no 0/0 warning (an error in this suite)
    on_goal = RobotState(pose=Pose(4.0, 0.0, 0.3), v=0.0)
    assert expected_time_to_goal(on_goal, (4.0, 0.0), PARAMS) == 0.0
    rows = RobotState(pose=Pose(np.array([4.0, 0.0]), np.zeros(2), np.zeros(2)),
                      v=np.zeros(2))
    assert expected_time_to_goal(rows, (4.0, 0.0), PARAMS).tolist() == [0.0, math.inf]


def test_terminal_ttc_cases():
    world = open_world()
    free = RobotState(pose=Pose(7, 7, 0.3), v=0.0, t=2.0)
    assert terminal_ttc(free, world, 2.0, v_limit=1.0) == math.inf
    # nearest wall cell centers at x = 10.5; a robot at x with radius 0.35
    # leaves a 10.15 - x m gap (2.0 m at 8.15), which the march's backed-off
    # hit meets to rounding whether or not a sample lands on it
    rows = ["." * 52 + "#" * 2] * 40
    grid = OccupancyGrid.from_ascii(rows, 0.2)
    wall_world = World(grid=grid, obstacles=(), robot_radius=0.35)
    for x in (8.15, 8.1, 8.03, 7.91):
        facing = RobotState(pose=Pose(x, 4.0, 0.0), v=0.0, t=0.0)
        assert terminal_ttc(facing, wall_world, 0.0, v_limit=1.0) == pytest.approx(
            10.15 - x, abs=1e-9
        )
    contact = RobotState(pose=Pose(10.3, 4.0, 0.0), v=0.0, t=0.0)
    assert terminal_ttc(contact, wall_world, 0.0, v_limit=1.0) == 0.0


def test_trajectory_terminal_ttc_matches_terminal_ttc():
    # the wall's cell centers sit at x >= 10.5
    grid = OccupancyGrid.from_ascii(["." * 52 + "#" * 2] * 40, 0.2)
    world = World(grid=grid, robot_radius=0.35,
                  obstacles=(DynamicObstacle(id="o", radius=0.4, position=(6.0, 6.5),
                                             velocity=(0.1, -0.3)),))
    goal = Pose(9.0, 4.0, 0.0)
    ends = {}
    for name, pose, z in (
        ("contact", Pose(9.2, 4.0, 0.0), TrajectoryParam(3.0, 0.0, 0.0, 1.0)),
        ("clear", Pose(3.0, 3.0, 0.4), TrajectoryParam(3.0, 0.2, 0.3, 0.6)),
    ):
        start = RobotState(pose=pose, v=0.4)
        traj = rollout(start, z, CFG)
        last = traj.states[-1]
        expected = terminal_ttc(last, world, last.t, CFG.v_limit)
        assert trajectory_cost(traj, goal, world, PARAMS, CFG).ttc_terminal == expected
        ends[name] = expected
    assert ends["contact"] == 0.0
    assert 0.0 < ends["clear"] < math.inf


def test_terminal_bonus_exact_points():
    c_ttg, c_ttc, j = terminal_bonus(1.0, math.inf, math.inf, PARAMS)
    assert (c_ttg, c_ttc, j) == (1.0, 1.0, -1.0)
    _, _, j0 = terminal_bonus(0.0, math.inf, math.inf, PARAMS)
    assert j0 == 0.0
    params = replace(PARAMS, sigma_inv_ttc=0.5)
    _, _, j_e = terminal_bonus(1.0, math.inf, 2.0, params)
    assert j_e == pytest.approx(-math.exp(-1.0), abs=1e-9)


def test_terminal_bonus_bounds_and_monotonicity():
    rng = random.Random(5)
    for _ in range(2000):
        p = rng.random()
        ttg = rng.choice([0.0, math.inf, rng.uniform(0, 1000)])
        ttc = rng.choice([0.0, math.inf, rng.uniform(0, 1000)])
        _, _, j = terminal_bonus(p, ttg, ttc, PARAMS)
        assert -1.0 <= j <= 0.0
    # more ttc / ttg never makes the bonus less negative
    grid_vals = [0.0, 0.5, 1.0, 2.0, 5.0, 50.0, math.inf]
    for ttg in grid_vals:
        for t1, t2 in zip(grid_vals, grid_vals[1:]):
            _, _, j1 = terminal_bonus(1.0, ttg, t1, PARAMS)
            _, _, j2 = terminal_bonus(1.0, ttg, t2, PARAMS)
            assert j2 <= j1
            _, _, g1 = terminal_bonus(1.0, t1, ttg, PARAMS)
            _, _, g2 = terminal_bonus(1.0, t2, ttg, PARAMS)
            assert g2 <= g1


def test_formulas_agree_on_floats_and_arrays():
    # the kernel calls these on arrays; each entry equals the float result
    # for that entry alone, exactly
    rng = np.random.default_rng(6)
    n = 40
    d_o = np.concatenate([rng.uniform(0.0, 1.0, n - 2), [0.0, math.inf]])
    ttc = np.concatenate([rng.uniform(0.0, 6.0, n - 3), [0.0, math.inf, 1e-300]])
    assert_float_alone_equals_array(lambda d: collision_probability(d, PARAMS), d_o)
    assert_float_alone_equals_array(lambda t: anticipatory_factor(t, PARAMS), ttc)
    assert_float_alone_equals_array(
        lambda d, t: modified_collision_probability(d, t, PARAMS), d_o, ttc)

    p_c = rng.uniform(0.0, 1.0, (5, 8))
    p_c[1, 3] = 1.0
    p_c[2] = 0.0
    rows = survivability(p_c)
    for seq, row in zip(p_c.tolist(), rows):
        assert survivability(seq) == row.tolist()

    x, y, heading = rng.uniform(-3.0, 3.0, (3, n))
    v = rng.uniform(0.0, 1.0, n)
    v[:2] = 0.0
    x[2:4] = [4.1, 3.95]  # within goal_tolerance of the goal
    y[2:4] = 0.0
    assert_float_alone_equals_array(
        lambda *a: expected_time_to_goal(RobotState(Pose(*a[:3]), a[3]), (4.0, 0.0), PARAMS),
        x, y, heading, v)

    p_s = np.concatenate([rng.uniform(0.0, 1.0, n - 2), [0.0, 1.0]])
    ttg = np.concatenate([rng.uniform(0.0, 50.0, n - 2), [math.inf, 0.0]])
    for k in range(3):
        assert_float_alone_equals_array(
            lambda *a: terminal_bonus(*a, PARAMS)[k], p_s, ttg, ttc)


def test_array_formulas_keep_their_argument_checks():
    with pytest.raises(ValueError):
        collision_probability(np.array([0.1, -0.1]), PARAMS)
    with pytest.raises(ValueError):
        anticipatory_factor(np.array([math.inf, -1.0]), PARAMS)
    with pytest.raises(ValueError):
        survivability(np.array([[0.1, 1.5]]))
    with pytest.raises(ValueError):
        terminal_bonus(np.array([0.5, math.nan]), 1.0, 1.0, PARAMS)
    # NaN fails every check, and a negative ttg or ttc is rejected
    for bad in (math.nan, np.array([0.2, math.nan])):
        with pytest.raises(ValueError):
            collision_probability(bad, PARAMS)
        with pytest.raises(ValueError):
            anticipatory_factor(bad, PARAMS)
    for ttg, ttc in ((math.nan, 1.0), (1.0, math.nan), (-1.0, 1.0), (1.0, -1.0),
                     (np.array([1.0, -0.5]), 1.0), (1.0, np.array([math.inf, math.nan]))):
        with pytest.raises(ValueError):
            terminal_bonus(0.5, ttg, ttc, PARAMS)


def test_kernel_rows_keep_the_paper_bounds():
    # the guarantees on the rows the planner itself scores: among walls and
    # moving disks, (1 - a) p_c <= p~_c <= p_c per segment and the terminal
    # bonus in [-1, 0]
    rows = ["#" * 48] + ["#" + "." * 46 + "#"] * 8 + ["#" + "." * 20 + "#" * 5
                                                      + "." * 21 + "#"] * 4
    rows += ["#" + "." * 46 + "#"] * 10 + ["#" * 48]
    rng = random.Random(23)
    world = World(grid=OccupancyGrid.from_ascii(rows, 0.25), robot_radius=0.35,
                  obstacles=random_world(rng, n_obstacles=4).obstacles)
    start = RobotState(pose=Pose(2.0, 4.5, 0.3), v=0.4, omega=-0.1, t=1.0)
    lo, hi = np.array([(0.0, 8.0), (-math.pi, math.pi), (-math.pi, math.pi), (0.0, 1.0)]).T
    params = lo + np.random.default_rng(23).random((300, 4)) * (hi - lo)
    states = rollout_batch(start, params, CFG)
    goal = Pose(10.0, 4.0, 0.0)
    ds = CostKernel(world, goal, PARAMS, CFG, start).evaluate(*states)
    base = CostKernel(world, goal, replace(PARAMS, mode=BASELINE_MPEPC), CFG,
                      start).evaluate(*states)
    assert (ds.d_o == base.d_o).all()
    p_c, p_mod = base.p_c, ds.p_c
    assert ((1 - PARAMS.a) * p_c <= p_mod).all()
    assert (p_mod <= p_c).all()
    # both bounds are exercised: contact (ttc = 0) and a discounted hazard
    ttc = ds.ttc
    assert ((ttc == 0.0) & (p_mod == 1.0)).any()
    assert ((p_c > 0.1) & (p_mod < p_c)).any()
    j_terminal = ds.j_terminal
    assert ((-1.0 <= j_terminal) & (j_terminal <= 0.0)).all()
    assert (j_terminal < -0.5).any() and (j_terminal == 0.0).any()


def test_cost_params_validation():
    with pytest.raises(ValueError):
        CostParams(a=1.0)
    with pytest.raises(ValueError):
        CostParams(sigma_d=0.0)
    with pytest.raises(ValueError):
        CostParams(mode="something")
    with pytest.raises(ValueError):
        CostParams(w_progress=-1.0)
    # a scale whose square underflows to 0 or overflows to inf would turn
    # the exact contact values (p_c = 1 at d_o = 0, factor 1 at ttc = 0) to NaN
    for name in ("sigma_d", "sigma_inv_ttc", "sigma_inv_ttg"):
        for sigma in (1e-200, 1e200):
            with pytest.raises(ValueError, match=rf"^{name} squared"):
                CostParams(**{name: sigma})


def total_from_segments(rows, params):
    """Straight-line re-evaluation of the cost sum from stored fields."""
    total = 0.0
    for p_s, j_progress, j_action in zip(rows.p_s, rows.j_progress, rows.j_action):
        total += p_s * j_progress + j_action + (1 - p_s) * params.c_collision
    if rows.j_terminal is not None:
        total += rows.j_terminal
    return total


def test_obstacle_free_straight_run():
    world = open_world()
    start = RobotState(pose=Pose(4.0, 7.5, 0.0))
    traj = rollout(start, TrajectoryParam(9.0, 0.0, 0.0, 1.0), CFG)
    goal = Pose(13.0, 7.5, 0.0)
    rows = trajectory_cost(traj, goal, world, PARAMS, CFG)
    for p_s in rows.p_s:
        assert p_s == pytest.approx(1.0, abs=1e-12)
    assert rows.total < 0.0
    assert rows.j_terminal is not None


def test_baseline_mode_shape():
    world = open_world()
    start = RobotState(pose=Pose(4.0, 7.5, 0.0))
    traj = rollout(start, TrajectoryParam(5.0, 0.3, -0.2, 0.8), CFG)
    rows = trajectory_cost(
        traj, Pose(12.0, 7.5, 0.0), world, replace(PARAMS, mode=BASELINE_MPEPC), CFG
    )
    assert rows.j_terminal is None
    assert rows.ttc is None


def test_total_self_consistency_randomized():
    rng = random.Random(7)
    for _ in range(40):
        world = random_world(rng)
        start, z = random_state_param(rng)
        traj = rollout(start, z, CFG)
        goal = Pose(rng.uniform(2, 10), rng.uniform(2, 10), 0.0)
        for mode in (DS_MPEPC, BASELINE_MPEPC):
            params = replace(PARAMS, mode=mode)
            rows = trajectory_cost(traj, goal, world, params, CFG)
            assert rows.total == total_from_segments(rows, params)
            assert len(rows.p_s) == CFG.n_steps


def test_stored_segment_fields_reproduce_p_c():
    rng = random.Random(8)
    for _ in range(25):
        world = random_world(rng)
        start, z = random_state_param(rng)
        traj = rollout(start, z, CFG)
        goal = Pose(6.0, 6.0, 0.0)
        rows = trajectory_cost(traj, goal, world, PARAMS, CFG)
        for d_o, ttc, p_c in zip(rows.d_o, rows.ttc, rows.p_c):
            assert p_c == modified_collision_probability(d_o, ttc, PARAMS)


def test_discount_bounds_on_trajectories():
    rng = random.Random(9)
    for _ in range(30):
        world = random_world(rng)
        start, z = random_state_param(rng)
        traj = rollout(start, z, CFG)
        goal = Pose(6.0, 6.0, 0.0)
        ds = trajectory_cost(traj, goal, world, PARAMS, CFG)
        base = trajectory_cost(traj, goal, world, replace(PARAMS, mode=BASELINE_MPEPC), CFG)
        for i in range(CFG.n_steps):
            assert ds.d_o[i] == base.d_o[i]
            p_c = base.p_c[i]
            assert (1 - PARAMS.a) * p_c <= ds.p_c[i] * (1 + 1e-12)
            assert ds.p_c[i] <= p_c * (1 + 1e-12)
            assert ds.p_s[i] * (1 + 1e-12) >= base.p_s[i]


def test_contact_start_zeroes_survivability_exactly():
    world = open_world(
        (DynamicObstacle(id="o", radius=0.5, position=(5.0, 5.0)),)
    )
    start = RobotState(pose=Pose(5.2, 5.0, 0.0))  # inside the inflated disk
    for z in (TrajectoryParam(0, 0, 0, 0), TrajectoryParam(4, 0.4, -0.3, 1.0)):
        traj = rollout(start, z, CFG)
        for mode in (DS_MPEPC, BASELINE_MPEPC):
            rows = trajectory_cost(
                traj, Pose(9, 5, 0), world, replace(PARAMS, mode=mode), CFG
            )
            assert rows.p_c[0] == 1.0
            for p_s in rows.p_s:
                assert p_s == 0.0


def test_in_contact_modes_agree_exactly():
    world = open_world(
        (DynamicObstacle(id="o", radius=0.5, position=(5.0, 5.0)),)
    )
    start = RobotState(pose=Pose(5.2, 5.0, 0.0))
    rng = random.Random(11)
    goal = Pose(9.0, 5.0, 0.0)
    for _ in range(50):
        _, z = random_state_param(rng)
        traj = rollout(start, z, CFG)
        ds = trajectory_cost(traj, goal, world, PARAMS, CFG)
        base = trajectory_cost(traj, goal, world, replace(PARAMS, mode=BASELINE_MPEPC), CFG)
        assert ds.j_terminal == 0.0
        assert ds.total == base.total


def test_mode_consistency_a_zero_no_terminal():
    rng = random.Random(13)
    params_ds = replace(PARAMS, a=0.0, include_terminal=False)
    params_base = replace(PARAMS, mode=BASELINE_MPEPC)
    for _ in range(25):
        world = random_world(rng)
        start, z = random_state_param(rng)
        traj = rollout(start, z, CFG)
        goal = Pose(6.0, 6.0, 0.0)
        ds = trajectory_cost(traj, goal, world, params_ds, CFG)
        base = trajectory_cost(traj, goal, world, params_base, CFG)
        assert ds.j_terminal is None
        assert ds.total == base.total


def test_baseline_is_ds_without_either_contribution():
    # at a = 0 the anticipatory factor is exactly 1, so ds with the terminal
    # term off scores every row as the baseline does, bit for bit: rows among
    # walls and moving disks, and rows that start in contact with a wall or a
    # disk (p_c = 1, p_s = 0 from the first segment)
    rows = ["#" * 48] + ["#" + "." * 46 + "#"] * 8 + ["#" + "." * 20 + "#" * 5
                                                      + "." * 21 + "#"] * 4
    rows += ["#" + "." * 46 + "#"] * 10 + ["#" * 48]
    rng = random.Random(29)
    obstacles = random_world(rng, n_obstacles=4).obstacles + (
        DynamicObstacle(id="touch", radius=0.4, position=(8.0, 2.0), velocity=(0.1, 0.2)),)
    world = World(grid=OccupancyGrid.from_ascii(rows, 0.25), robot_radius=0.35,
                  obstacles=obstacles)
    lo, hi = np.array([(0.0, 8.0), (-math.pi, math.pi), (-math.pi, math.pi), (0.0, 1.0)]).T
    draws = np.random.default_rng(29)
    goal = Pose(10.0, 4.0, 0.0)
    ablated = replace(PARAMS, a=0.0, include_terminal=False)
    baseline = replace(PARAMS, mode=BASELINE_MPEPC)
    starts = (Pose(2.0, 4.5, 0.3), Pose(8.2, 2.1, 1.0), Pose(0.4, 3.0, 0.0))
    for k, pose in enumerate(starts):
        start = RobotState(pose=pose, v=0.4, omega=-0.1, t=1.0)
        states = rollout_batch(start, lo + draws.random((200, 4)) * (hi - lo), CFG)
        ds = CostKernel(world, goal, ablated, CFG, start).evaluate(*states)
        base = CostKernel(world, goal, baseline, CFG, start).evaluate(*states)
        assert ds.j_terminal is None
        for name in ("total", "p_c", "p_s"):
            assert np.array_equal(getattr(ds, name), getattr(base, name)), name
        # the first start is clear of everything; the others touch a disk and a wall
        assert (ds.p_s[:, 0] == 0.0).all() == (k > 0)
        assert (ds.ttc > 0.0).any() and (ds.p_c < 1.0).any()


def test_segment_survivability_non_increasing():
    rng = random.Random(17)
    for _ in range(30):
        world = random_world(rng)
        start, z = random_state_param(rng)
        traj = rollout(start, z, CFG)
        p_s = trajectory_cost(traj, Pose(6, 6, 0), world, PARAMS, CFG).p_s
        assert all(b <= a for a, b in zip(p_s, p_s[1:]))
        assert all(0.0 <= p <= 1.0 for p in p_s)


def test_trajectory_cost_rejects_short_trajectory():
    from dsmpepc.kinematics import Trajectory
    start = RobotState(pose=Pose(0, 0, 0))
    bad = Trajectory(states=(start,), param=TrajectoryParam(1, 0, 0, 1))
    with pytest.raises(ValueError):
        trajectory_cost(bad, Pose(1, 0, 0), open_world(), PARAMS, CFG)


@pytest.mark.parametrize("other", [replace(CFG, step_h=CFG.step_h / 2),
                                   replace(CFG, horizon_T=CFG.horizon_T - CFG.step_h)])
def test_trajectory_cost_rejects_a_rollout_under_another_config(other):
    # scored at its own times, such a trajectory would still take CFG's
    # step_h in its effort term
    traj = rollout(RobotState(pose=Pose(6, 6, 0), t=1.0), TrajectoryParam(3, 0, 0, 1), other)
    with pytest.raises(ValueError, match="step times"):
        trajectory_cost(traj, Pose(12, 6, 0), open_world(), PARAMS, CFG)


def test_terminal_rows_of_a_halting_robot():
    world = open_world()
    start = RobotState(pose=Pose(6, 6, 0), t=5.0)
    traj = rollout(start, TrajectoryParam(0.0, 0.0, 0.0, 0.0), CFG)
    ev = trajectory_cost(traj, Pose(12.0, 6.0, 0.0), world, PARAMS, CFG)
    # stopped far from the goal facing open space: full bonus
    assert ev.ttg == math.inf
    assert ev.ttc_terminal == math.inf
    assert ev.p_s_N == 1.0
    assert ev.j_terminal == -1.0


def test_trajectory_cost_matches_scalar_reference():
    # the batched cost against a one-segment-at-a-time evaluation from
    # formulas written again in the oracle, in both modes, among walls,
    # constant-velocity disks and a scripted disk (whose interpolation the
    # oracle predicts on its own); numpy's exp and the rollout's trig round
    # within ulps of math's
    rows = ["#" * 48] + ["#" + "." * 46 + "#"] * 8 + ["#" + "." * 20 + "#" * 5
                                                      + "." * 21 + "#"] * 4
    rows += ["#" + "." * 46 + "#"] * 10 + ["#" * 48]
    grid = OccupancyGrid.from_ascii(rows, 0.25)
    scripted = DynamicObstacle(id="wp", radius=0.3, waypoints=(
        (0.3, 3.0, 1.2), (2.7, 7.5, 3.6), (4.9, 9.5, 1.4)))
    rng = random.Random(19)
    for _ in range(12):
        obstacles = random_world(rng, n_obstacles=2).obstacles + (scripted,)
        world = World(grid=grid, obstacles=obstacles, robot_radius=0.35)
        start, z = random_state_param(rng, center=(6.0, 2.5))
        traj = rollout(start, z, CFG)
        goal = Pose(rng.uniform(2, 10), rng.uniform(1.0, 2.5), 0.0)
        for params in (PARAMS, replace(PARAMS, mode=BASELINE_MPEPC)):
            rows = trajectory_cost(traj, goal, world, params, CFG)
            total, segments, j_terminal = reference_trajectory_cost(
                traj, goal, world, params, CFG)
            assert math.isclose(rows.total, total, rel_tol=1e-9, abs_tol=1e-9)
            for i, (d_o, p_c, p_s) in enumerate(segments):
                assert math.isclose(rows.d_o[i], d_o, abs_tol=1e-12)
                assert math.isclose(rows.p_c[i], p_c, rel_tol=1e-9, abs_tol=1e-12)
                assert math.isclose(rows.p_s[i], p_s, rel_tol=1e-9, abs_tol=1e-12)
            if j_terminal is not None:
                assert math.isclose(rows.j_terminal, j_terminal,
                                    rel_tol=1e-9, abs_tol=1e-12)


def _marching_problem():
    """A walled world with a moving disk and 64 rollouts among them, with
    skipped, queried and in-contact segments and terminal rays that hit."""
    rows = ["#" * 48] + ["#" + "." * 46 + "#"] * 8 + ["#" + "." * 20 + "#" * 5
                                                      + "." * 21 + "#"] * 4
    rows += ["#" + "." * 46 + "#"] * 10 + ["#" * 48]
    world = World(grid=OccupancyGrid.from_ascii(rows, 0.25), robot_radius=0.35,
                  obstacles=(DynamicObstacle(id="o", radius=0.4, position=(5.0, 4.0),
                                             velocity=(-0.3, 0.1), epoch=0.5),))
    start = RobotState(pose=Pose(2.0, 4.5, 0.3), v=0.4, omega=-0.1, t=1.0)
    lo, hi = np.array([(0.0, 8.0), (-math.pi, math.pi), (-math.pi, math.pi), (0.0, 1.0)]).T
    params = lo + np.random.default_rng(31).random((64, 4)) * (hi - lo)
    return world, start, rollout_batch(start, params, CFG)


def test_evaluate_marches_every_ttc_query_once(monkeypatch):
    # one ds evaluation marches its segment and terminal rays together, one
    # ray per distinct queried state, and each row equals what separate
    # segment and terminal queries give
    world, start, states = _marching_problem()
    xs, ys, hs, vs, _ = states
    kernel = CostKernel(world, Pose(10.0, 4.0, 0.0), PARAMS, CFG, start)
    marches = []

    def counted(*args, _real=world_module._static_ray_arcs):
        marches.append(args[1].size)
        return _real(*args)

    monkeypatch.setattr(world_module, "_static_ray_arcs", counted)
    rows = kernel.evaluate(*states)
    monkeypatch.undo()
    assert len(marches) == 1

    b, n = xs.shape[0], xs.shape[1] - 1
    snapshot = kernel.snapshot
    d_grid = world.grid.sample_distance_batch(xs, ys)
    d = snapshot.clearance(xs, ys, d_grid)
    need = collision_probability(rows.d_o, PARAMS) >= _P_C_SKIP
    assert need.any() and not need.all()
    rr, cols = np.nonzero(need)
    pt = np.where(d[rr, cols] <= d[rr, cols + 1], cols, cols + 1)
    pv, ph = vs[rr, pt], hs[rr, pt]
    ttc = np.full((b, n), math.inf)
    ttc[rr, cols] = snapshot.ttc(xs[rr, pt], ys[rr, pt], pv * np.cos(ph), pv * np.sin(ph),
                                 pt, d[rr, pt], d_grid[rr, pt])
    heading = hs[:, -1]
    ttc_n = snapshot.ttc(xs[:, -1], ys[:, -1], CFG.v_limit * np.cos(heading),
                         CFG.v_limit * np.sin(heading), np.full(b, n), d[:, -1], d_grid[:, -1])
    # the rays marched: each distinct queried state that moves and is not in
    # contact, and each terminal row not in contact (all move at v_limit)
    states = sorted(set(zip(rr.tolist(), pt.tolist())))
    assert len(states) < rr.size  # some states close both their segments
    r, t = np.array(states).T
    moving = np.hypot(vs[r, t] * np.cos(hs[r, t]), vs[r, t] * np.sin(hs[r, t])) >= 1e-9
    assert marches == [int((moving & (d[r, t] > 0.0)).sum() + (d[:, -1] > 0.0).sum())]
    np.testing.assert_array_equal(rows.ttc, ttc)
    np.testing.assert_array_equal(rows.ttc_terminal, ttc_n)
    assert (ttc == 0.0).any() and (np.isfinite(ttc) & (ttc > 0.0)).any()
    assert (np.isfinite(ttc_n) & (ttc_n > 0.0)).any()


@pytest.mark.parametrize("params", [replace(PARAMS, mode=BASELINE_MPEPC),
                                    replace(PARAMS, sigma_d=1e-3, include_terminal=False)])
def test_evaluate_without_ttc_queries_makes_no_ttc_call(params, monkeypatch):
    # baseline mode has no TTC; in ds mode without the terminal term, a batch
    # whose segments are all below _P_C_SKIP queries nothing
    world, start, states = _marching_problem()
    kernel = CostKernel(world, Pose(10.0, 4.0, 0.0), params, CFG, start)
    xs, ys = states[:2]
    d_grid = world.grid.sample_distance_batch(xs, ys)
    clear = kernel.snapshot.clearance(xs, ys, d_grid).min(axis=1) > 0.05
    assert 0 < clear.sum() < clear.size
    states = tuple(a[clear] for a in states)
    monkeypatch.setattr(HorizonSnapshot, "ttc", lambda *a: pytest.fail("queried"))
    rows = kernel.evaluate(*states)
    ttc = rows.ttc
    assert ttc is None if params.mode == BASELINE_MPEPC else (ttc == math.inf).all()
