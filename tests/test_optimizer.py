import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import qmc

from dsmpepc import optimizer
from dsmpepc.cost import CostParams, trajectory_cost
from dsmpepc.kinematics import PlannerConfig, Pose, RobotState, TrajectoryParam, rollout
from dsmpepc.optimizer import (
    OptimizerConfig,
    _MIN_ROUND,
    _distinct,
    _ranking,
    _round_sizes,
    _scrambled_sobol,
    candidate_pool,
    evaluate_candidate,
    plan,
)
from dsmpepc.simulator import _cycle_seed
from dsmpepc.world import DynamicObstacle, NavigationField, OccupancyGrid, World

CFG = PlannerConfig()
PARAMS = CostParams()


def open_world(obstacles=(), size=80, res=0.25, robot_radius=0.35):
    grid = OccupancyGrid(np.zeros((size, size), dtype=bool), res)
    return World(grid=grid, obstacles=tuple(obstacles), robot_radius=robot_radius)


def small_opt(seed=0):
    return OptimizerConfig(n_global_samples=96, n_refine_seeds=2,
                           refine_max_evals=20, seed=seed)


def test_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(n_global_samples=0)
    with pytest.raises(ValueError):
        OptimizerConfig(n_refine_seeds=10, n_global_samples=5)


@pytest.mark.parametrize("evals", [1, 2, 3, 4])
def test_refine_budget_below_simplex_rejected(evals):
    # a refinement round needs 5 probes to span the four parameters
    with pytest.raises(ValueError, match="refine_max_evals"):
        OptimizerConfig(refine_max_evals=evals)


@pytest.mark.parametrize("evals", [0, 5, 36, 37, 240])
def test_refine_budget_edges_accepted(evals):
    # every evaluation is spent, also across 36 -> 37, where the rounds first
    # differ from ceil(sqrt(budget) / 2)
    world = open_world()
    start = RobotState(pose=Pose(9.0, 9.0, 0.0))
    goal = Pose(14.0, 11.0, 0.0)
    opt = OptimizerConfig(n_global_samples=32, n_refine_seeds=1, refine_max_evals=evals)
    result = plan(start, goal, world, CFG, PARAMS, opt)
    sweep = plan(start, goal, world, CFG, PARAMS, replace(opt, n_refine_seeds=0))
    assert len(result.evaluated) == len(sweep.evaluated) + evals


def test_round_sizes():
    # up to 36 (the suite's 30, every test digest's budget) the rounds are
    # those of ceil(sqrt(budget) / 2), so those plans stay bit for bit
    for budget in range(_MIN_ROUND, 37):
        assert len(_round_sizes(budget)) == min(math.ceil(math.sqrt(budget) / 2),
                                                budget // _MIN_ROUND), budget
    for budget in range(_MIN_ROUND, 2000):
        sizes = _round_sizes(budget)
        assert min(sizes) >= _MIN_ROUND, budget
        assert sum(sizes) == budget, budget
    assert _round_sizes(240) == (60, 60, 60, 60)


def test_scrambled_sobol_equals_scipy():
    # the sweep's points are scipy's scrambled Sobol points, bit for bit: at
    # small seeds, the largest seed and seeds a simulation gives its cycles
    seeds = [*range(64), 2**31 - 1,
             *(_cycle_seed(*key) for key in ((0, 0, 0), (1, 2, 3), (7, 1, 150), (12345, 5, 99)))]
    for seed in seeds:
        for m in range(12):
            expected = qmc.Sobol(d=4, scramble=True, seed=seed).random_base2(m)
            got = _scrambled_sobol(m, seed)
            assert got.dtype == expected.dtype, (seed, m)
            assert np.array_equal(got, expected), (seed, m)


def test_scrambled_sobol_keeps_the_30_bit_limit():
    with pytest.raises(ValueError, match="2\\^30"):
        _scrambled_sobol(31, 0)


def test_plan_progresses_toward_goal_in_open_world():
    world = open_world()
    start = RobotState(pose=Pose(8.0, 10.0, 0.0))
    goal = Pose(11.0, 10.0, 0.0)
    result = plan(start, goal, world, CFG, PARAMS, small_opt())
    d0 = math.hypot(goal.x - start.pose.x, goal.y - start.pose.y)
    term = result.best_trajectory.terminal.pose
    d1 = math.hypot(goal.x - term.x, goal.y - term.y)
    assert d1 < d0


def test_plan_in_contact_selects_null_candidate():
    world = open_world(
        (DynamicObstacle(id="o", radius=0.5, position=(10.0, 10.0)),)
    )
    start = RobotState(pose=Pose(10.2, 10.0, 0.0))
    goal = Pose(14.0, 10.0, 0.0)
    result = plan(start, goal, world, CFG, PARAMS, small_opt())
    assert result.best_param == TrajectoryParam(0.0, 0.0, 0.0, 0.0)
    for s in result.best_trajectory.states:
        assert (s.pose.x, s.pose.y) == (start.pose.x, start.pose.y)


def test_argmin_dominance():
    world = open_world()
    start = RobotState(pose=Pose(9.0, 9.0, 0.5))
    goal = Pose(13.0, 12.0, 0.0)
    result = plan(start, goal, world, CFG, PARAMS, small_opt(seed=4))
    assert result.best_cost <= min(c for _, c in result.evaluated)
    assert any(p == result.best_param for p, _ in result.evaluated)


def test_plan_determinism():
    world = open_world(
        (DynamicObstacle(id="o", radius=0.4, position=(11.0, 10.0),
                         velocity=(-0.2, 0.1)),)
    )
    start = RobotState(pose=Pose(8.0, 10.0, 0.0))
    goal = Pose(13.0, 10.0, 0.0)
    r1 = plan(start, goal, world, CFG, PARAMS, small_opt(seed=7))
    r2 = plan(start, goal, world, CFG, PARAMS, small_opt(seed=7))
    assert r1.best_param == r2.best_param
    assert r1.best_cost == r2.best_cost
    assert r1.evaluated == r2.evaluated
    assert r1.best_trajectory.states == r2.best_trajectory.states
    assert r1 == r2
    assert r1 != replace(r1, costs=r1.costs + 1.0)
    assert r1 != replace(r1, params=r1.params[::-1])


def test_refinement_not_worse_than_global_best():
    world = open_world()
    start = RobotState(pose=Pose(9.0, 9.0, 0.0))
    goal = Pose(14.0, 11.0, 0.0)
    no_refine = plan(start, goal, world, CFG, PARAMS,
                     OptimizerConfig(n_global_samples=96, n_refine_seeds=0, seed=3))
    refined = plan(start, goal, world, CFG, PARAMS,
                   OptimizerConfig(n_global_samples=96, n_refine_seeds=2,
                                   refine_max_evals=40, seed=3))
    assert refined.best_cost <= no_refine.best_cost


def test_refinement_budget_respected():
    world = open_world()
    start = RobotState(pose=Pose(9.0, 9.0, 0.0))
    goal = Pose(14.0, 11.0, 0.0)
    cfg = OptimizerConfig(n_global_samples=64, n_refine_seeds=2,
                          refine_max_evals=25, seed=1)
    result = plan(start, goal, world, CFG, PARAMS, cfg)
    assert len(result.evaluated) <= 64 + 2 * 25


def test_warm_start_monotone_for_frozen_robot():
    world = open_world(
        (DynamicObstacle(id="o", radius=0.4, position=(12.0, 10.4)),)
    )
    start = RobotState(pose=Pose(8.0, 10.0, 0.0))
    goal = Pose(15.0, 10.0, 0.0)
    warm = None
    prev_cost = math.inf
    for cycle in range(5):
        result = plan(start, goal, world, CFG, PARAMS, small_opt(seed=cycle),
                      warm_start=warm)
        assert result.best_cost <= prev_cost + 1e-12
        warm = result.best_param
        prev_cost = result.best_cost


def test_evaluate_candidate_null_from_rest():
    world = open_world()
    start = RobotState(pose=Pose(10, 10, 0))
    traj, rows = evaluate_candidate(
        TrajectoryParam(0, 0, 0, 0), start, Pose(13, 10, 0), world, CFG, PARAMS
    )
    assert all(s.v == 0.0 for s in traj.states)
    assert all(j == 0.0 for j in rows.j_progress)
    assert all(j == 0.0 for j in rows.j_action)


def test_evaluate_candidate_deterministic_and_consistent():
    world = open_world(
        (DynamicObstacle(id="o", radius=0.4, position=(11, 10), velocity=(0.1, 0)),)
    )
    start = RobotState(pose=Pose(9, 10, 0.2), v=0.3)
    goal = Pose(14, 10, 0)
    z = TrajectoryParam(4.0, 0.3, -0.1, 0.9)
    t1, b1 = evaluate_candidate(z, start, goal, world, CFG, PARAMS)
    t2, b2 = evaluate_candidate(z, start, goal, world, CFG, PARAMS)
    assert t1.states == t2.states
    assert b1.total == b2.total
    # independent recomputation from the returned trajectory
    again = trajectory_cost(t1, goal, world, PARAMS, CFG)
    assert again.total == b1.total


def test_plan_beats_coarse_grid_sample():
    # miniature version of the dense-grid acceptance oracle
    world = open_world(
        (DynamicObstacle(id="o", radius=0.5, position=(11.5, 10.0)),)
    )
    cfg = PlannerConfig(horizon_T=1.0, step_h=0.2)
    start = RobotState(pose=Pose(9.0, 10.0, 0.0))
    goal = Pose(14.0, 10.0, 0.0)
    nav = NavigationField(world.grid, (goal.x, goal.y))
    result = plan(start, goal, world, cfg, PARAMS,
                  OptimizerConfig(n_global_samples=128, n_refine_seeds=2,
                                  refine_max_evals=40, seed=0), nav=nav)
    bounds = OptimizerConfig().resolved_bounds(cfg)
    axes = [np.linspace(lo, hi, n) for (lo, hi), n in zip(bounds, (9, 7, 7, 5))]
    best_grid = math.inf
    for r, th, dl, v in itertools.product(*axes):
        z = TrajectoryParam(float(r), float(th), float(dl), float(v))
        _, rows = evaluate_candidate(z, start, goal, world, cfg, PARAMS, nav=nav)
        best_grid = min(best_grid, rows.total)
    assert result.best_cost <= best_grid + 1e-6


@pytest.mark.parametrize("goal, warm, name", [
    (Pose(math.nan, 10.0, 0.0), None, "goal"),
    (Pose(11.0, 10.0, math.inf), None, "goal"),
    (Pose(11.0, 10.0, 0.0), TrajectoryParam(math.nan, 0.0, 0.0, 0.5), "warm_start"),
    (Pose(11.0, 10.0, 0.0), TrajectoryParam(1.0, math.inf, 0.0, 0.5), "warm_start"),
])
def test_plan_rejects_non_finite_goal_and_warm_start(goal, warm, name):
    start = RobotState(pose=Pose(8.0, 10.0, 0.0))
    with pytest.raises(ValueError, match=name):
        plan(start, goal, open_world(), CFG, PARAMS, small_opt(), warm_start=warm)


def test_navigation_field_for_another_goal_is_rejected():
    # a field built for another goal would steer every candidate toward it
    start = RobotState(pose=Pose(8.0, 10.0, 0.0))
    goal = Pose(14.0, 10.0, 0.0)
    world = open_world()
    nav = NavigationField(world.grid, (4.0, 10.0))
    with pytest.raises(ValueError, match="nav"):
        plan(start, goal, world, CFG, PARAMS, small_opt(), nav=nav)
    z = TrajectoryParam(6.0, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError, match="nav"):
        evaluate_candidate(z, start, goal, world, CFG, PARAMS, nav=nav)
    with pytest.raises(ValueError, match="nav"):
        trajectory_cost(rollout(start, z, CFG), goal, world, PARAMS, CFG, nav=nav)
    same = NavigationField(world.grid, (goal.x, goal.y))
    assert plan(start, goal, world, CFG, PARAMS, small_opt(), nav=same).best_param.r > 0.0


def test_navigation_field_over_another_grid_is_rejected():
    # a field over another map would route the progress term around walls
    # that are not there, or through walls that are
    rows = ["#" * 40] + ["#" + "." * 38 + "#"] * 38 + ["#" * 40]
    walled = rows[:20] + ["#" * 30 + "." * 9 + "#"] + rows[21:]
    world = World(grid=OccupancyGrid.from_ascii(rows, 0.25))
    start = RobotState(pose=Pose(3.0, 3.0, 0.0))
    goal = Pose(3.0, 7.0, 0.0)
    for grid in (OccupancyGrid.from_ascii(walled, 0.25),
                 OccupancyGrid.from_ascii(rows, 0.2),
                 OccupancyGrid.from_ascii(rows, 0.25, origin=(0.25, 0.0))):
        nav = NavigationField(grid, (goal.x, goal.y))
        with pytest.raises(ValueError, match="nav"):
            plan(start, goal, world, CFG, PARAMS, small_opt(), nav=nav)
    # an equal grid built separately is the same map
    equal = NavigationField(OccupancyGrid.from_ascii(rows, 0.25), (goal.x, goal.y))
    own = NavigationField(world.grid, (goal.x, goal.y))
    assert (plan(start, goal, world, CFG, PARAMS, small_opt(), nav=equal)
            == plan(start, goal, world, CFG, PARAMS, small_opt(), nav=own))


def test_plan_result_keeps_the_candidates_as_arrays(monkeypatch):
    # plan() builds best_param and no other TrajectoryParam; `evaluated`
    # builds the rest on its first read and keeps them
    built = []

    def counted(*args):
        built.append(args)
        return TrajectoryParam(*args)

    monkeypatch.setattr(optimizer, "TrajectoryParam", counted)
    world = open_world((DynamicObstacle(id="o", radius=0.4, position=(11.0, 10.0),
                                        velocity=(-0.2, 0.1)),))
    start = RobotState(pose=Pose(8.0, 10.0, 0.0), v=0.3)
    result = plan(start, Pose(13.0, 10.0, 0.0), world, CFG, PARAMS, small_opt(seed=7),
                  warm_start=TrajectoryParam(2.0, 0.1, -0.2, 0.6))
    assert len(built) == 1
    m = len(result.costs)
    assert result.params.shape == (m, 4) and result.costs.shape == (m,)
    for array in (result.params, result.costs):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 1.0
    evaluated = result.evaluated
    assert len(built) == m
    assert result.evaluated is evaluated
    assert len(evaluated) == m
    for (z, c), row, cost in zip(evaluated, result.params.tolist(), result.costs.tolist()):
        assert z.as_tuple() == tuple(row) and c == cost
    assert evaluated[result.best_index][0] is result.best_param
    assert evaluated[result.best_index][1] == result.best_cost


def _full_ranking(params, costs):
    """The order of sorting every row by (cost, r, v_max, theta, delta)."""
    return np.lexsort((params[:, 2], params[:, 1], params[:, 3], params[:, 0], costs))


def test_ranking_equals_the_full_sort():
    rng = np.random.default_rng(11)
    # few distinct values, so costs tie and each key in turn breaks ties
    params = rng.choice([-1.0, 0.0, 0.5, 1.0], size=(240, 4))
    params[40:80] = params[:40]  # exact duplicate rows
    costs = rng.choice([0.5, 1.0, 2.0, math.inf], size=240)
    costs[40:80] = costs[:40]
    pools = [
        (params, costs),
        (params, np.full(240, math.inf)),
        (params, np.where(costs > 1.0, math.nan, costs)),
        # ties on cost then r, v_max, theta and delta in turn
        (np.array([[1.0, 0.0, 0.0, 0.0], [0.5, 0.0, 0.0, 0.0], [0.5, 0.0, 0.0, -1.0],
                   [0.5, 1.0, 0.0, -1.0], [0.5, 1.0, 0.5, -1.0], [0.5, 1.0, 0.5, -1.0],
                   [0.5, 1.0, -0.5, -1.0], [0.0, 0.0, 0.0, 0.0]]),
         np.array([1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 2.0])),
    ]
    for p, c in pools:
        full = _full_ranking(p, c)
        for n in (1, 2, 3, 7, len(c) // 2, len(c) - 1, len(c)):
            assert _ranking(p, c, n).tolist() == full[:n].tolist()


def _unique_pool(given, sobol):
    """Each row's first occurrence, found by sorting the whole pool."""
    pool = np.concatenate((given, sobol))
    _, first = np.unique(pool, axis=0, return_index=True)
    return pool[np.sort(first)]


def test_distinct_equals_the_unique_filter():
    bounds = OptimizerConfig.resolved_bounds(CFG)
    lo, hi = np.array(bounds).T
    sobol = lo + _scrambled_sobol(7, 3)[:100] * (hi - lo)
    halt = np.zeros(4)
    warm = sobol[17]
    givens = [
        [halt, warm, [2.0, 0.3, -0.1, math.inf]],  # a warm start equal to a Sobol row
        [halt, warm, warm],  # a to-goal row equal to the warm start
        [halt, [-0.0, 0.0, -0.0, 0.0], [1.0, -0.0, 0.5, 0.7]],  # -0.0 against 0.0
        [halt, [1.0, 0.0, 0.5, 0.7], [1.0, -0.0, 0.5, 0.7]],
        [halt, halt],
        [halt, [2.0, 0.3, -0.1, math.inf]],
    ]
    for given in givens:
        given = np.array(given, dtype=float)
        for part in (sobol, sobol[:0], np.concatenate((sobol[:5], [[1.0, 0.0, 0.5, 0.7]]))):
            assert _distinct(given, part).tobytes() == _unique_pool(given, part).tobytes()


def test_sweep_sobol_rows_are_pairwise_distinct():
    # what `_distinct` relies on: no two Sobol rows of a sweep are equal,
    # not even in theta alone
    start = RobotState(pose=Pose(1.0, 2.0, 0.3))
    for seed in range(48):
        opt = OptimizerConfig(seed=seed)
        pool, _ = candidate_pool(start, Pose(4.0, 3.0, 0.0), CFG, opt)
        assert len(pool) == opt.n_global_samples
        assert len(np.unique(pool[2:, 1])) == len(pool) - 2
