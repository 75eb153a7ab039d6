"""Planner results pinned by exact rescoring and golden digests.

plan() keeps its candidates as rows of one (M, 4) parameter array. Every
row, in the sweep and in each batched refinement round, is scored through
`optimizer.evaluate_batch`, and a row of a batch does not depend on the rest of
the batch; so every entry of `evaluated` (the rows as `TrajectoryParam`
objects, with their costs) rescores exactly through `evaluate_candidate`, a
batch of one, and the argmin is the entry of least (cost, r, v_max, theta,
delta), which `best_param` is. The golden digests pin the numbers that
plan() and run() produce; any change to them changes a digest.

numpy's float64 exp, arctan2 and arctan round some last bits differently on
its AVX-512 (X86_V4) and AVX2 code paths, so the digests come in two exact
sets, one per dispatch level, selected from the running numpy. Both were
recorded with numpy 2.4.6 and scipy 1.17.1 on x86-64; the AVX2 set by
running with NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR".
"""

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # numpy < 2
    from numpy.core._multiarray_umath import __cpu_features__

from dsmpepc import builtin, run
from dsmpepc.cost import (
    BASELINE_MPEPC,
    CostKernel,
    CostParams,
    CostRows,
    anticipatory_factor,
    collision_probability,
    expected_time_to_goal,
    survivability,
    terminal_bonus,
    trajectory_cost,
)
from dsmpepc.kinematics import PlannerConfig, Pose, RobotState, TrajectoryParam, rollout
from dsmpepc.optimizer import OptimizerConfig, evaluate_batch, evaluate_candidate, plan
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


PLAN_DIGESTS_AVX512 = {
    "baseline_walled_mixed":
        "200c89bef68f7ba1afb8484f1d0b5b19822239d1c01eeec688f728eec5e2cf8f",
    "ds_empty_cv":
        "35632ac9cf0d2ce21b5add63b1b5419e7265dc215ad7294c1bbd25699e3f45dc",
    "ds_in_contact":
        "b2905dffdc07ae425fe81fcf58504495af4fbfffc2ae1748d43fda30d0949244",
    "ds_no_terminal":
        "3330b9408f646b45bf73835386a782708121a4e066f9a19100a47ef461e4d56f",
    "ds_walled_mixed":
        "485d62268a68288dd87d61bd0e9853671188ed1b9e1fc3e30261724358f62126",
    "ds_warm_start":
        "f50272049985daf62503f15a89512cbfc679d1a59dfd8fc212435f479c29082d",
}
PLAN_DIGESTS_AVX2 = {
    "baseline_walled_mixed":
        "6a07c7d957959e2c07e226038aeab8a4f17050ffd4e434524a95b49948138400",
    "ds_empty_cv":
        "2be347f304799b8e7ac72483ce81432fa1d12061b166a600ebddf259623f8f85",
    "ds_in_contact":
        "b2905dffdc07ae425fe81fcf58504495af4fbfffc2ae1748d43fda30d0949244",
    "ds_no_terminal":
        "b2525c44d6ef07bdfed1638196f72f91ec890bf662369693f9821b1625568f92",
    "ds_walled_mixed":
        "3aa6655594380e1a1d00d49cfa42b9bc17822d772303d94274d7060bbc58e240",
    "ds_warm_start":
        "9c6cb005646b25041ffa4d4a766692cb873f03e64140216e445bd93510d9aaca",
}
# numpy before 2.4 has no X86_V4 target; its AVX-512 baseline is AVX512_SKX
_AVX512 = __cpu_features__.get("X86_V4", __cpu_features__.get("AVX512_SKX"))
PLAN_DIGESTS = PLAN_DIGESTS_AVX512 if _AVX512 else PLAN_DIGESTS_AVX2
RUN_DIGEST = (
    "d119b65ec4873a7bb277e252b0fc9d6a3d79290f2d267e45f40fcd10ff908339" if _AVX512
    else "6b0435a4741c3c3d023f0cd7129e9177f50b8c9529f5ced6160321ba2c0b1371"
)


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_refinement_entries_rescore_exactly(name):
    result, nav = _plan(name)
    sweep, _ = _plan(name, replace(OPT, n_refine_seeds=0))
    n_sweep = len(sweep.evaluated)
    assert result.evaluated[:n_sweep] == sweep.evaluated
    refined = result.evaluated[n_sweep:]
    assert len(refined) == OPT.n_refine_seeds * OPT.refine_max_evals
    start, goal, world, cost, _ = PROBLEMS[name]
    # sweep and refinement alike: each cost is its candidate's batch of one
    for z, c in result.evaluated:
        _, rows = evaluate_candidate(z, start, goal, world, CFG, cost, nav=nav)
        assert c == rows.total
    # the argmin: lowest cost, ties broken on r, v_max, theta, delta in turn
    ranked = min(result.evaluated, key=lambda e: (e[1], e[0].r, e[0].v_max, e[0].theta,
                                                  e[0].delta))
    assert ranked == (result.best_param, result.best_cost)
    assert any(z is result.best_param for z, _ in result.evaluated)
    # the argmin's own rollout row, not a second rollout
    assert result.best_trajectory == rollout(start, result.best_param, CFG)
    assert math.isfinite(result.best_cost)


def _rows(rows, states, k):
    """Everything a batch returns for its k-th candidate, as lists."""
    parts = [a[k] for a in rows if a is not None] + [a[k] for a in states]
    return [np.asarray(a).tolist() for a in parts]


@pytest.mark.parametrize("name", ["ds_walled_mixed", "baseline_walled_mixed", "ds_empty_cv",
                                  "ds_no_terminal"])
def test_batch_rows_do_not_depend_on_the_batch(name):
    # exact rescoring rests on this: a candidate's row in a sub-slice of a
    # batch, down to a batch of one, equals its row in the whole batch; and
    # trajectory_cost of the candidate's rollout is that row, field by field,
    # with the same fields None (ttc in baseline mode, the terminal fields
    # without a terminal term)
    start, goal, world, cost, _ = PROBLEMS[name]
    kernel = CostKernel(world, goal, cost, CFG, start)
    rng = np.random.default_rng(3)
    lo, hi = np.array(OPT.resolved_bounds(CFG)).T
    params = lo + rng.random((64, 4)) * (hi - lo)
    params[5] = 0.0
    full = evaluate_batch(params, kernel)
    for size in (1, 3, 7, 13):
        for first in range(0, 64 - size + 1, size):
            part = evaluate_batch(params[first:first + size], kernel)
            for k in range(size):
                assert _rows(*part, k) == _rows(*full, first + k)
    rows = full[0]
    for k, z in enumerate(params.tolist()):
        single = trajectory_cost(rollout(start, TrajectoryParam(*z), CFG), goal, world, cost,
                                 CFG)
        for field in CostRows._fields:
            got, want = getattr(single, field), getattr(rows, field)
            assert (got is None) == (want is None), field
            if want is not None:
                assert got == want[k].tolist(), field


def _equal(got, want) -> bool:
    return np.shape(got) == np.shape(want) and bool((got == want).all())


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_kernel_rows_equal_the_public_formulas(name):
    # the kernel runs the formulas' unguarded cores; the public, checked
    # formulas on the kernel's own arrays give its rows exactly
    start, goal, world, cost, _ = PROBLEMS[name]
    kernel = CostKernel(world, goal, cost, CFG, start)
    lo, hi = np.array(OPT.resolved_bounds(CFG)).T
    params = lo + np.random.default_rng(11).random((48, 4)) * (hi - lo)
    params[0] = 0.0
    rows, (xs, ys, hs, vs, _) = evaluate_batch(params, kernel)
    p_c = collision_probability(rows.d_o, cost)
    if rows.ttc is not None:
        p_c = p_c * anticipatory_factor(rows.ttc, cost)
    assert _equal(p_c, rows.p_c)
    assert _equal(survivability(rows.p_c), rows.p_s)
    # both ends of the factors: a start touching a disk (each first segment
    # at ttc 0, so p_s 0) and, on the open map, ttc = inf
    if name == "ds_in_contact":
        assert (rows.ttc[:, 0] == 0.0).all() and (rows.p_s == 0.0).all()
    if name == "ds_empty_cv":
        assert np.isinf(rows.ttc).any() and np.isinf(rows.ttc_terminal).any()
    if rows.ttg is None:
        return
    ttg = expected_time_to_goal(RobotState(Pose(xs[:, -1], ys[:, -1], hs[:, -1]), vs[:, -1]),
                                (goal.x, goal.y), cost)
    assert _equal(ttg, rows.ttg)
    assert _equal(rows.p_s_N, rows.p_s[:, -1])
    c_ttg, c_ttc, j_terminal = terminal_bonus(rows.p_s_N, rows.ttg, rows.ttc_terminal, cost)
    assert _equal(c_ttg, rows.c_ttg) and _equal(c_ttc, rows.c_ttc)
    assert _equal(j_terminal, rows.j_terminal)


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_plan_golden_digest(name):
    result, _ = _plan(name)
    assert plan_digest(result) == PLAN_DIGESTS[name]


def test_run_golden_digest():
    scenario = replace(builtin("t_corridor"), duration=2.0)
    assert sim_digest(run(scenario)) == RUN_DIGEST
