"""Refinement scoring pinned against the public scalar path and golden digests.

The golden digests were recorded from the planner whose refinement scored
every candidate through `evaluate_candidate` (rollout + trajectory_cost);
any change to the numbers that plan() or run() produce changes a digest.
"""

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from dsmpepc import builtin, run
from dsmpepc.cost import BASELINE_MPEPC, CostParams
from dsmpepc.geometry import Pose
from dsmpepc.kinematics import PlannerConfig, RobotState, TrajectoryParam
from dsmpepc.optimizer import OptimizerConfig, evaluate_candidate, plan
from dsmpepc.world import DynamicObstacle, NavigationField, OccupancyGrid, World

CFG = PlannerConfig()
DS = CostParams()
OPT = OptimizerConfig(n_global_samples=96, n_refine_seeds=2, refine_max_evals=24, seed=5)

# 12 m x 6 m hall: outer walls, a pillar and a half-height partition.
_ROWS = (
    ["#" * 48]
    + ["#" + "." * 46 + "#"] * 5
    + ["#" + "." * 17 + "####" + "." * 25 + "#"] * 4
    + ["#" + "." * 46 + "#"] * 4
    + ["#" + "." * 31 + "#" * 15 + "#"] * 2
    + ["#" + "." * 46 + "#"] * 7
    + ["#" * 48]
)
WALLED = OccupancyGrid.from_ascii(_ROWS, 0.25)
EMPTY = OccupancyGrid(np.zeros((32, 48), dtype=bool), 0.25)

CV = DynamicObstacle(id="cv", radius=0.3, position=(6.5, 2.2), velocity=(-0.4, 0.15),
                     epoch=0.5)
SCRIPTED = DynamicObstacle(id="wp", radius=0.25, waypoints=(
    (0.0, 3.0, 4.6), (2.5, 4.5, 3.4), (4.0, 4.5, 3.4), (7.0, 8.0, 2.0),
))


def _problem(grid, obstacles, start, goal, cost=DS, warm=None):
    return (start, goal, World(grid=grid, obstacles=obstacles, robot_radius=0.35),
            cost, warm)


# name -> (start, goal, world, cost params, warm start)
PROBLEMS = {
    "ds_walled_mixed": _problem(
        WALLED, (CV, SCRIPTED), RobotState(Pose(1.5, 3.0, 0.1), v=0.4, omega=0.1, t=0.6),
        Pose(10.0, 3.5, 0.0)),
    "baseline_walled_mixed": _problem(
        WALLED, (CV, SCRIPTED), RobotState(Pose(1.5, 3.0, 0.1), v=0.4, omega=0.1, t=0.6),
        Pose(10.0, 3.5, 0.0), cost=replace(DS, mode=BASELINE_MPEPC)),
    "ds_no_terminal": _problem(
        WALLED, (SCRIPTED,), RobotState(Pose(2.0, 5.0, -0.4), v=0.2, t=1.4),
        Pose(9.5, 1.0, 0.0), cost=replace(DS, include_terminal=False)),
    "ds_empty_cv": _problem(
        EMPTY, (CV,), RobotState(Pose(2.0, 4.0, 0.0), v=0.6),
        Pose(10.0, 2.0, 0.0)),
    "ds_in_contact": _problem(
        WALLED, (DynamicObstacle(id="touch", radius=0.4, position=(4.0, 2.0)), SCRIPTED),
        RobotState(Pose(4.5, 2.1, 0.3)), Pose(10.0, 3.5, 0.0)),
    "ds_warm_start": _problem(
        WALLED, (CV, SCRIPTED), RobotState(Pose(3.2, 3.4, 0.6), v=0.5, omega=-0.3, t=2.2),
        Pose(10.0, 3.5, 0.0), warm=TrajectoryParam(3.5, -0.4, 0.2, 0.8)),
}


def _plan(name, opt_cfg=OPT):
    start, goal, world, cost, warm = PROBLEMS[name]
    nav = NavigationField(world.grid, (goal.x, goal.y))
    return plan(start, goal, world, CFG, cost, opt_cfg, warm_start=warm, nav=nav), nav


def _digest(values) -> str:
    return hashlib.sha256(repr(values).encode()).hexdigest()


def _states(states):
    return tuple((s.pose.x, s.pose.y, s.pose.heading, s.v, s.omega, s.t) for s in states)


def plan_digest(result) -> str:
    return _digest((
        tuple((z.as_tuple(), c) for z, c in result.evaluated),
        result.best_param.as_tuple(),
        result.best_cost,
        _states(result.best_trajectory.states),
    ))


def sim_digest(result) -> str:
    return _digest((
        tuple(
            (a.id, a.outcome, a.time_to_goal, a.path_length, a.min_clearance,
             a.smoothness_v, a.smoothness_w,
             tuple((s.t, s.x, s.y, s.heading, s.v, s.omega, s.d_o, s.nf_distance)
                   for s in a.trace),
             tuple((r.t, r.param.as_tuple(), r.cost, r.n_evaluated) for r in a.replans))
            for a in result.agents
        ),
        tuple((c.t, c.agent_id, c.other_id) for c in result.contacts),
    ))


PLAN_DIGESTS = {
    "ds_walled_mixed":
        "055296978a7c25aaea57722ed173eb454ff5c5a2f3497e767f295ece41d58e0a",
    "baseline_walled_mixed":
        "1064fa4c1e837bee597b45292b993d68e287aca0bcfdfcecc1129e9172a3cc6c",
    "ds_no_terminal":
        "f3b76c4e32b3ae83b80f77646c0ecdbfb5a6366877b5e6c4c99d8159360cb7d9",
    "ds_empty_cv":
        "d93e723d2a8e47053752f717f0c4a06dc4da8c1a516531ba24bbcf95676e2632",
    "ds_in_contact":
        "f7e4003eb0699b3eb485e7f13ce5326cd735c457d813c326e835aa1c80de7970",
    "ds_warm_start":
        "aed0ba00b8416b7264d64a90cafc11aa1801f469ce5ab710efc985d8907cba7a",
}
RUN_DIGEST = "e0c34edae0078a1b7aabe3028d0c9e4e04187a91fd4354a6fe2a68152544eb18"


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_refinement_entries_rescore_exactly(name):
    result, nav = _plan(name)
    sweep, _ = _plan(name, replace(OPT, n_refine_seeds=0))
    n_sweep = len(sweep.evaluated)
    assert result.evaluated[:n_sweep] == sweep.evaluated
    refined = result.evaluated[n_sweep:]
    assert 0 < len(refined) <= OPT.n_refine_seeds * OPT.refine_max_evals
    start, goal, world, cost, _ = PROBLEMS[name]
    # the vectorized sweep agrees with the scalar path to floating-point noise
    for z, c in sweep.evaluated:
        _, breakdown = evaluate_candidate(z, start, goal, world, CFG, cost, nav=nav)
        assert math.isclose(c, breakdown.total, rel_tol=0.0, abs_tol=1e-9)
    for z, c in refined:
        _, breakdown = evaluate_candidate(z, start, goal, world, CFG, cost, nav=nav)
        assert c == breakdown.total
    best = min(result.evaluated, key=lambda pc: (pc[1], *pc[0].as_tuple()))
    assert best == (result.best_param, result.best_cost)
    traj, breakdown = evaluate_candidate(
        result.best_param, start, goal, world, CFG, cost, nav=nav)
    assert traj.states == result.best_trajectory.states
    assert math.isfinite(result.best_cost)


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_plan_golden_digest(name):
    result, _ = _plan(name)
    assert plan_digest(result) == PLAN_DIGESTS[name]


def test_run_golden_digest():
    scenario = replace(builtin("t_corridor"), duration=2.0)
    assert sim_digest(run(scenario)) == RUN_DIGEST
