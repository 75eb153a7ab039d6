"""Metamorphic invariants of the planner's evaluation path.

One fixed (B, 4) array of trajectory parameters is scored through
`optimizer.evaluate_batch` in a walled world with a constant-velocity disk and a
waypoint disk, and again in a transformed copy of the same problem. Each
transform is a symmetry of the model, so every candidate's total and every
per-segment and terminal row must come out the same. The copies round
differently, a few ulps per operation, so each test states its tolerance.
Unlike the golden digests, these checks do not depend on a platform's float
rounding, and unlike a batch-versus-scalar comparison they catch a frame or
timing error that every path shares: an obstacle predicted on the absolute
clock fails the time shift, swapped axes or atan2 arguments fail the mirror,
a grid lookup that ignores the map origin fails the translation.
An error that commutes with the transforms, such as a flipped sign of the
TTC relative velocity, passes them; the unreachable obstacle below and the
TTC oracles in test_world catch it. An added obstacle checks the
relations that follow from clearance and TTC being minima over obstacles.

The last tests compare two whole runs (`simulator.run`) of one small scenario
on one build, exactly: two agents crossing an open map past a
constant-velocity disk and a waypoint-scripted disk.
"""

from dataclasses import replace

import numpy as np
import pytest

from dsmpepc.cost import BASELINE_MPEPC, CostKernel, CostParams
from dsmpepc.kinematics import PlannerConfig, Pose, RobotState
from dsmpepc.optimizer import OptimizerConfig, evaluate_batch
from dsmpepc.scenarios import AgentSpec, ScenarioConfig
from dsmpepc.simulator import run
from dsmpepc.world import (
    TTC_HORIZON,
    DynamicObstacle,
    NavigationField,
    OccupancyGrid,
    World,
    distance_to_nearest,
    predict_obstacle,
    time_to_collision,
)

CFG = PlannerConfig()
COST = CostParams()
RES = 0.25

# 12 m x 6 m: outer walls, a pillar and a partition, neither symmetric about
# the horizontal mid-line, so the mirror image is a different map.
ROWS = (
    ["#" * 48]
    + ["#" + "." * 46 + "#"] * 4
    + ["#" + "." * 17 + "####" + "." * 25 + "#"] * 5
    + ["#" + "." * 46 + "#"] * 4
    + ["#" + "." * 30 + "#" * 16 + "#"] * 2
    + ["#" + "." * 46 + "#"] * 7
    + ["#" * 48]
)
START = RobotState(Pose(1.5, 2.6, 0.3), v=0.4, omega=-0.2, t=0.6)
GOAL = Pose(10.2, 4.1, 0.4)
CV = DynamicObstacle(id="cv", radius=0.3, position=(5.6, 2.3), velocity=(-0.5, 0.15),
                     epoch=0.9)
# waypoint times off the 0.2 s step grid of START.t + i * h
SCRIPTED = DynamicObstacle(id="wp", radius=0.25, waypoints=(
    (0.37, 2.4, 4.4), (2.93, 4.1, 2.9), (5.11, 7.9, 2.1),
))


def _params() -> np.ndarray:
    rng = np.random.default_rng(8)
    lo, hi = np.array(OptimizerConfig().resolved_bounds(CFG)).T
    params = lo + rng.random((96, 4)) * (hi - lo)
    params[0] = 0.0  # the halting candidate
    return params


PARAMS = _params()


def _score(rows, start, goal, obstacles, params=PARAMS, origin=(0.0, 0.0), cost=COST,
           nav=None):
    world = World(grid=OccupancyGrid.from_ascii(rows, RES, origin), obstacles=obstacles,
                  robot_radius=0.35)
    kernel = CostKernel(world, goal, cost, CFG, start, nav)
    cost_rows, _ = evaluate_batch(params, kernel)
    return cost_rows


def _assert_rows_close(got, want, tol):
    """Totals, then every segment and terminal row, within `tol` absolute or
    relative (TTCs run to tens of seconds); infinities must match."""
    np.testing.assert_allclose(got.total, want.total, rtol=tol, atol=tol)
    for a, b in zip(got[1:], want[1:], strict=True):
        np.testing.assert_allclose(a, b, rtol=tol, atol=tol)


def test_problem_exercises_every_term():
    # the invariants below would be weak on a problem where nothing is near
    rows = _score(ROWS, START, GOAL, (CV, SCRIPTED))
    d_o, ttc, p_c = rows.d_o, rows.ttc, rows.p_c
    assert (ttc == 0.0).any()  # contact
    assert (np.isfinite(ttc) & (ttc > 0.0)).any()  # a discounted hazard
    assert (p_c > 0.1).any() and (d_o > 1.0).any()
    ttc_terminal = rows.ttc_terminal
    assert (ttc_terminal == 0.0).any() and (ttc_terminal > 0.0).any()


@pytest.mark.parametrize("shift", [0.75, 1000.0])
def test_time_shift(shift):
    """Adding a constant to the clock (`current.t`, the obstacle epoch and
    every waypoint time) changes nothing the robot sees.

    Tolerance 1e-9: the shifted step times and waypoint times differ from
    the originals by rounding at the size of `shift`, at most about 1e-13 s;
    the costs move by a few orders of magnitude more at most."""
    shifted = (
        replace(CV, epoch=CV.epoch + shift),
        replace(SCRIPTED, waypoints=tuple((t + shift, x, y)
                                          for t, x, y in SCRIPTED.waypoints)),
    )
    want = _score(ROWS, START, GOAL, (CV, SCRIPTED))
    got = _score(ROWS, replace(START, t=START.t + shift), GOAL, shifted)
    _assert_rows_close(got, want, 1e-9)


def test_mirror():
    """Mirroring the map, the poses and the obstacles across the map's
    horizontal mid-line, and negating theta, delta, the headings and the
    turn rate, mirrors every rollout, so every cost term is unchanged.

    Tolerance 1e-9: a mirrored coordinate 2 * y_mid - y is rounded, so the
    two rollouts differ by a few ulps per step over the 25 steps."""
    y2 = len(ROWS) * RES  # twice the mid-line

    def pose(p):
        return Pose(p.x, y2 - p.y, -p.heading)

    mirrored = (
        replace(CV, position=(CV.position[0], y2 - CV.position[1]),
                velocity=(CV.velocity[0], -CV.velocity[1])),
        replace(SCRIPTED, waypoints=tuple((t, x, y2 - y) for t, x, y in SCRIPTED.waypoints)),
    )
    params = PARAMS * np.array([1.0, -1.0, -1.0, 1.0])
    want = _score(ROWS, START, GOAL, (CV, SCRIPTED))
    got = _score(ROWS[::-1], replace(START, pose=pose(START.pose), omega=-START.omega),
                 pose(GOAL), mirrored, params)
    _assert_rows_close(got, want, 1e-9)


@pytest.mark.parametrize("cells", [(3, -5), (161, 83)])
def test_translation(cells):
    """Moving the map origin, the poses, the obstacles (waypoints too) and
    the goal by a whole number of cells moves every rollout with them and
    keeps every cell, so every cost term is unchanged.

    Tolerance 1e-9: a shifted coordinate x + dx is rounded at the size of
    dx, and the two rollouts, grid lookups and TTC rays then differ by a few
    ulps per step. The shift stays at tens of meters because the terminal
    TTG divides by the velocity toward the goal, which is near 0 on some
    rows (TTGs of thousands of seconds): shifted by 1 km, the TTG rows
    deviated by 3.3e-9 relative while every other term stayed below 1.1e-10.
    """
    dx, dy = cells[0] * RES, cells[1] * RES

    def pose(p):
        return Pose(p.x + dx, p.y + dy, p.heading)

    moved = (
        replace(CV, position=(CV.position[0] + dx, CV.position[1] + dy)),
        replace(SCRIPTED, waypoints=tuple((t, x + dx, y + dy)
                                          for t, x, y in SCRIPTED.waypoints)),
    )
    want = _score(ROWS, START, GOAL, (CV, SCRIPTED))
    got = _score(ROWS, replace(START, pose=pose(START.pose)), pose(GOAL), moved,
                 origin=(dx, dy))
    _assert_rows_close(got, want, 1e-9)


def test_unreachable_obstacle():
    """An obstacle that is never the nearest to any rollout point and that no
    TTC query reaches within TTC_HORIZON changes no row, exactly: clearance
    and TTC are minima over the obstacles, and a minimum with a larger value
    is the smaller one.

    The obstacle starts 20 m left of the map and recedes at twice v_limit,
    faster than any query (the rollout's speed or, for the terminal query,
    v_limit), so every relative motion opens the gap. Being near enough for
    a finite root if time ran backwards, it catches a TTC that accepts a
    receding obstacle, such as one with the relative velocity's sign flipped.
    """
    receding = DynamicObstacle(id="far", radius=0.5, position=(-20.0, 3.0),
                               velocity=(-2.0 * CFG.v_limit, 0.0), epoch=START.t)
    # a receding gap of about 20 m at 1 to 3 m/s would be met within the horizon
    assert 20.0 / CFG.v_limit < TTC_HORIZON
    want = _score(ROWS, START, GOAL, (CV, SCRIPTED))
    got = _score(ROWS, START, GOAL, (CV, SCRIPTED, receding))
    for a, b in zip(got, want, strict=True):
        assert a.tobytes() == b.tobytes()


def test_added_obstacle():
    """Adding an obstacle never raises a clearance or a TTC: both are minima
    over the obstacles, and one more term can only lower a minimum. So,
    exactly, for each of 300 random constant-velocity disks added alone:
    d_o never rises; in ds mode the terminal TTC (`ttc_terminal`, its query
    fixed by the last state) and C_TTC never rise; in baseline mode, where
    p_c is the bell of d_o, p_c never falls and survivability never rises;
    and `time_to_collision` of a fixed query never rises.

    Nothing of the kind holds for ds mode's p_c and survivability. A
    segment's TTC is read at its closer endpoint, and the added disk can
    make the other endpoint the closer one, whose TTC may be longer: some of
    these disks lower a segment's p_c.
    """
    rng = np.random.default_rng(0)
    # fixed queries at 0.8 m/s, each aimed at where one of the two disks is now
    queries = []
    for (x, y), obs in zip(rng.uniform((0.0, 0.0), (12.0, 6.0), (8, 2)).tolist(),
                           [CV, SCRIPTED] * 4):
        ox, oy = predict_obstacle(obs, START.t)
        speed = 0.8 / np.hypot(ox - x, oy - y)
        queries.append(((x, y), (speed * (ox - x), speed * (oy - y)), START.t))
    world = World(grid=OccupancyGrid.from_ascii(ROWS, RES), obstacles=(CV, SCRIPTED),
                  robot_radius=0.35)
    nav = NavigationField(world.grid, (GOAL.x, GOAL.y))
    baseline = replace(COST, mode=BASELINE_MPEPC)

    def measure(obstacles):
        """The quantities of the relations, each signed so that it may not rise."""
        ds = _score(ROWS, START, GOAL, obstacles, nav=nav)
        base = _score(ROWS, START, GOAL, obstacles, cost=baseline, nav=nav)
        return {
            "d_o": ds.d_o,
            "ttc_terminal": ds.ttc_terminal,
            "c_ttc": ds.c_ttc,
            "baseline -p_c": -base.p_c,
            "baseline p_s": base.p_s,
            "time_to_collision": np.array([time_to_collision(
                replace(world, obstacles=obstacles), *q) for q in queries]),
        }

    want = measure((CV, SCRIPTED))
    rose, fell = set(), set()
    for x, y, vx, vy, radius in rng.uniform((0.0, 0.0, -1.0, -1.0, 0.1),
                                            (12.0, 6.0, 1.0, 1.0, 0.5), (300, 5)).tolist():
        extra = DynamicObstacle(id="extra", radius=radius, position=(x, y), velocity=(vx, vy),
                                epoch=START.t)
        for name, got in measure((CV, SCRIPTED, extra)).items():
            if (got > want[name]).any():
                rose.add(name)
            if (got < want[name]).any():
                fell.add(name)
    assert rose == set()
    # the disks move every quantity, so each relation is put to the test
    assert fell == set(want)


_RUN_OPT = OptimizerConfig(n_global_samples=64, n_refine_seeds=2, refine_max_evals=20)
CROSSING = ScenarioConfig(
    "crossing", OccupancyGrid(np.zeros((24, 32), dtype=bool), RES),
    (AgentSpec("a", Pose(1.0, 1.5, 0.5), Pose(7.0, 4.5, 0.0), optimizer=_RUN_OPT),
     AgentSpec("b", Pose(1.0, 4.5, -0.5), Pose(7.0, 1.5, 0.0), optimizer=_RUN_OPT)),
    (DynamicObstacle(id="cv", radius=0.3, position=(6.5, 3.0), velocity=(-0.6, 0.0)),
     DynamicObstacle(id="wp", radius=0.3, waypoints=((0.0, 4.0, 5.8), (4.0, 4.0, 0.2)))),
    duration=4.0, seed=2)


@pytest.fixture(scope="module")
def crossing_run():
    return run(CROSSING)


def test_each_obstacle_bounds_a_crossing_clearance(crossing_run):
    # each scripted disk is the nearest party of some trace sample, near
    # enough to weigh in the cost, so the run-level checks below compare runs
    # that both disks steer
    for obs in CROSSING.scripted_obstacles:
        assert any(
            0.0 < s.d_o < 1.0
            and s.d_o == distance_to_nearest(World(CROSSING.grid, (obs,), spec.radius),
                                             (s.x, s.y), s.t)
            for spec, agent in zip(CROSSING.agents, crossing_run.agents)
            for s in agent.trace
        ), obs.id


def test_run_ignores_the_order_of_scripted_obstacles(crossing_run):
    reversed_run = run(replace(CROSSING, scripted_obstacles=CROSSING.scripted_obstacles[::-1]))
    assert reversed_run.agents == crossing_run.agents


def test_run_ignores_a_far_receding_obstacle(crossing_run):
    # the run-level twin of test_unreachable_obstacle: about 35 m away and
    # receding at three times v_limit, near enough for a finite root if time
    # ran backwards
    far = DynamicObstacle(id="far", radius=0.5, position=(40.0, 3.0),
                          velocity=(3.0 * CFG.v_limit, 0.0))
    assert 35.0 / CFG.v_limit < TTC_HORIZON
    added = CROSSING.scripted_obstacles + (far,)
    assert run(replace(CROSSING, scripted_obstacles=added)).agents == crossing_run.agents
