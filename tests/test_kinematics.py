import math
import random

import numpy as np
import pytest

from dsmpepc.kinematics import (
    OMEGA_STRAIGHT,
    R_EPSILON,
    PlannerConfig,
    Pose,
    RobotState,
    TrajectoryParam,
    advance_pose,
    rollout,
    rollout_batch,
    target_from_param,
    wrap_angle,
)

from agreement import assert_float_alone_equals_array
from oracles import (
    fine_rollout,
    integrate_recorded_controls,
    reference_rollout_batch,
    reference_rollout_step,
)

CFG = PlannerConfig()


def random_case(rng):
    start = RobotState(
        pose=Pose(rng.uniform(-3, 3), rng.uniform(-3, 3),
                  wrap_angle(rng.uniform(-math.pi, math.pi))),
        v=rng.uniform(0.0, 0.5),
        omega=rng.uniform(-0.5, 0.5),
        t=rng.uniform(0.0, 10.0),
    )
    z = TrajectoryParam(
        r=rng.uniform(0.0, 8.0),
        theta=wrap_angle(rng.uniform(-math.pi, math.pi)),
        delta=wrap_angle(rng.uniform(-math.pi, math.pi)),
        v_max=rng.uniform(0.0, CFG.v_limit),
    )
    return start, z


def test_planner_config_requires_integer_steps():
    with pytest.raises(ValueError):
        PlannerConfig(horizon_T=1.0, step_h=0.3)
    # 5e-10 steps passes the 1e-9 whole-step rule, but a rollout needs a step
    with pytest.raises(ValueError,
                       match="^horizon_T: 1e-10 s is shorter than one step_h 0.2 s$"):
        PlannerConfig(horizon_T=1e-10)
    # 5 s / 1e-320 s overflows to an infinite step count
    with pytest.raises(ValueError, match="^horizon_T: 5 s is not a finite number of step_h"):
        PlannerConfig(step_h=1e-320)
    assert PlannerConfig(horizon_T=5.0, step_h=0.2).n_steps == 25


def test_advance_pose_straight():
    p = advance_pose(Pose(0, 0, 0), 1.0, 0.0, 0.5)
    assert (p.x, p.y, p.heading) == (0.5, 0.0, 0.0)


def test_advance_pose_quarter_arc():
    # omega*dt = pi/2 quarter circle of radius v/omega
    v, w = 1.0, math.pi / 2
    p = advance_pose(Pose(0, 0, 0), v, w, 1.0)
    radius = v / w
    assert p.x == pytest.approx(radius, rel=1e-12)
    assert p.y == pytest.approx(radius, rel=1e-12)
    assert p.heading == pytest.approx(math.pi / 2, rel=1e-12)


def test_advance_pose_chord_bound():
    rng = random.Random(1)
    for _ in range(2000):
        v = rng.uniform(-1.5, 1.5)
        w = rng.uniform(-4, 4)
        p0 = Pose(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-3, 3))
        p1 = advance_pose(p0, v, w, 0.2)
        assert math.hypot(p1.x - p0.x, p1.y - p0.y) <= abs(v) * 0.2 + 1e-12


def test_advance_pose_agrees_on_floats_and_arrays():
    # straight steps (|omega| < OMEGA_STRAIGHT, exactly 0 included) and arcs
    rng = np.random.default_rng(2)
    x, y, heading, v = rng.uniform(-3.0, 3.0, (4, 40))
    omega = rng.uniform(-2.0, 2.0, 40)
    omega[:4] = [0.0, 1e-12, -5e-10, 2e-9]
    for part in ("x", "y", "heading"):
        assert_float_alone_equals_array(
            lambda *a: getattr(advance_pose(Pose(*a[:3]), a[3], a[4], 0.2), part),
            x, y, heading, v, omega)


def test_rollout_null_candidate_is_halt():
    start = RobotState(pose=Pose(0, 0, 0))
    traj = rollout(start, TrajectoryParam(0, 0, 0, 1.0), CFG)
    assert len(traj) == CFG.n_steps + 1
    for s in traj.states:
        assert s.pose == start.pose
        assert s.v == 0.0 and s.omega == 0.0


def test_rollout_straight_line():
    start = RobotState(pose=Pose(0, 0, 0))
    cfg = PlannerConfig(accel_limit=5.0)
    traj = rollout(start, TrajectoryParam(10.0, 0.0, 0.0, 1.0), cfg)
    xs = [s.pose.x for s in traj.states]
    assert all(s.pose.heading == 0.0 for s in traj.states)
    assert all(s.pose.y == 0.0 for s in traj.states)
    assert all(b >= a for a, b in zip(xs, xs[1:]))
    assert xs[-1] <= min(10.0, cfg.v_limit * cfg.horizon_T) + 1e-9


def test_rollout_timestamps_and_length():
    start = RobotState(pose=Pose(1, 2, 0.3), t=4.0)
    traj = rollout(start, TrajectoryParam(3, 0.5, -0.2, 0.8), CFG)
    assert len(traj.states) == CFG.n_steps + 1
    for i, s in enumerate(traj.states):
        assert s.t == pytest.approx(4.0 + i * CFG.step_h, abs=1e-12)


def test_rollout_rejects_nonfinite_start():
    bad = RobotState(pose=Pose(math.nan, 0, 0))
    with pytest.raises(ValueError):
        rollout(bad, TrajectoryParam(1, 0, 0, 1), CFG)
    # a parameter outside the model: a non-finite entry, or a negative r or
    # v_max (which would drive the robot backwards)
    start = RobotState(pose=Pose(0, 0, 0))
    for z in (TrajectoryParam(1, 0, 0, -1), TrajectoryParam(-1, 0, 0, 1),
              TrajectoryParam(math.nan, 0, 0, 1), TrajectoryParam(1, math.nan, 0, 1),
              TrajectoryParam(1, 0, math.inf, 1), TrajectoryParam(1, 0, 0, math.inf),
              TrajectoryParam(1, 0, 0, math.nan)):
        with pytest.raises(ValueError):
            rollout(start, z, CFG)


def test_rollout_determinism():
    rng = random.Random(5)
    for _ in range(10):
        start, z = random_case(rng)
        t1 = rollout(start, z, CFG)
        t2 = rollout(start, z, CFG)
        assert t1.states == t2.states


def test_rollout_displacement_and_rate_limits():
    rng = random.Random(9)
    h = CFG.step_h
    for _ in range(100):
        start, z = random_case(rng)
        traj = rollout(start, z, CFG)
        for a, b in zip(traj.states, traj.states[1:]):
            step = math.hypot(b.pose.x - a.pose.x, b.pose.y - a.pose.y)
            assert step <= abs(b.v) * h + 1e-9
            assert step <= CFG.v_limit * h + 1e-9
            assert abs(b.v) <= CFG.v_limit + 1e-12
            assert abs(b.omega) <= CFG.omega_limit + 1e-12
            assert abs(b.v - a.v) <= CFG.accel_limit * h + 1e-12
            assert abs(b.omega - a.omega) <= CFG.alpha_limit * h + 1e-12


def test_rollout_steps_match_composed_helpers():
    # each step of the batched rollout is the public helpers composed: from
    # the rollout's own previous state, within a few ulps of the numpy/math
    # rounding of atan2, sin and cos (worst seen: 2.7e-14 over 500 cases)
    rng = random.Random(7)
    for _ in range(25):
        start, z = random_case(rng)
        traj = rollout(start, z, CFG)
        target = target_from_param(start.pose, z.r, z.theta, z.delta)
        for prev, s in zip(traj.states, traj.states[1:]):
            pose, v, w = reference_rollout_step(prev.pose, prev.v, prev.omega, target,
                                                z.v_max, CFG)
            assert abs(wrap_angle(s.pose.heading - pose.heading)) <= 1e-12
            for got, want in ((s.pose.x, pose.x), (s.pose.y, pose.y), (s.v, v),
                              (s.omega, w)):
                assert abs(got - want) <= 1e-12


def _branch_batch():
    """A start and a (B, 4) batch that take every branch of the step loop."""
    # At rest, so that a row near its target stays near; heading -pi; a turn
    # rate beyond omega_limit, twice the per-step rate limit: the first step
    # holds it at one rate limit, and on rows turning the other way the
    # second step takes it to exactly 0, where they move straight.
    dw = CFG.alpha_limit * CFG.step_h
    start = RobotState(pose=Pose(0.7, -0.4, -math.pi), v=0.0, omega=2.0 * dw, t=1.0)
    rows = [
        (0.0, 0.0, 0.0, 0.0),  # the halting candidate
        # within R_EPSILON of the target, r = 0 included, at every step
        (0.0, 0.7, -0.4, 0.8),
        (0.0, -2.0, 1.0, 0.3),
        (5e-7, 1.0, 0.5, 0.9),
        (1e-9, -1.0, 0.0, 0.9),  # and turning slower than OMEGA_STRAIGHT
        # target on the start's x axis, so the first step's heading minus
        # line of sight is -pi exactly, the wrap's boundary
        (2.0, 0.3, -math.pi, 0.7),
        (3.0, 0.5, -0.2, 1.6),  # v_max above v_limit
        # turn commands beyond omega_limit, either way
        (3.0, 0.0, -0.5, 4.0),
        (3.0, 0.0, 0.5, 4.0),
    ]
    rng = np.random.default_rng(12)
    random_rows = rng.uniform([0.0, -math.pi, -math.pi, 0.0], [8.0, math.pi, math.pi, 1.0],
                              (40, 4))
    return start, np.concatenate((rows, random_rows))


def test_rollout_batch_equals_reference_loop_bit_for_bit():
    start, params = _branch_batch()
    want = reference_rollout_batch(start, params, CFG)
    xs, ys, hs, vs, ws = want
    # the batch takes each branch: targets within R_EPSILON, straight steps,
    # headings wrapped across +-pi, commands beyond both limits
    target = target_from_param(start.pose, *params[:, :3].T)
    r = np.hypot(target.x[:, None] - xs, target.y[:, None] - ys)
    assert (r[1:5, :-1] < R_EPSILON).all() and (r[5:, 0] > R_EPSILON).all()
    assert ((ws == 0.0) & (vs > 0.0)).any()
    assert ((np.abs(ws) < OMEGA_STRAIGHT) & (ws != 0.0)).any()
    assert (np.abs(np.diff(hs, axis=1)) > math.pi).any()
    assert abs(start.omega) > CFG.omega_limit
    assert (vs == CFG.v_limit).any()
    assert (ws == CFG.omega_limit).any() and (ws == -CFG.omega_limit).any()
    got = rollout_batch(start, params, CFG)
    for a, b in zip(got, want, strict=True):
        assert a.shape == b.shape == (len(params), CFG.n_steps + 1)
        assert a.tobytes() == b.tobytes()


def test_rollout_batch_workspace_lives_for_one_call():
    # the arrays a call returns are its own: a later call on another start
    # and batch size neither changes them nor shares memory with them, and
    # the same call again gives them bit for bit
    start, params = _branch_batch()
    first = rollout_batch(start, params[:48], CFG)
    kept = [a.copy() for a in first]
    rng = np.random.default_rng(5)
    other = rollout_batch(random_case(random.Random(5))[0],
                          rng.uniform([0.0, -3.0, -3.0, 0.0], [8.0, 3.0, 3.0, 1.0], (7, 4)), CFG)
    again = rollout_batch(start, params[:48], CFG)
    for a, k, b, c in zip(first, kept, other, again, strict=True):
        assert a.tobytes() == k.tobytes() == c.tobytes()
        assert not np.shares_memory(a, b) and not np.shares_memory(a, c)
    assert not any(np.shares_memory(a, b) for a in first for b in first if a is not b)


def test_rollout_against_fine_integrator_sample():
    # spot check of the 100x-substep re-integration (full sweep in acceptance)
    rng = random.Random(21)
    for _ in range(8):
        start, z = random_case(rng)
        traj = rollout(start, z, CFG)
        controls = [(s.v, s.omega) for s in traj.states[1:]]
        fine = integrate_recorded_controls(start.pose, controls, CFG.step_h, 100)
        err = math.hypot(traj.terminal.pose.x - fine.x, traj.terminal.pose.y - fine.y)
        assert err < 1e-9


def test_rollout_closed_loop_fidelity():
    # discretized closed loop tracks the 100x-rate closed loop for typical
    # planner candidates; 0.1 m envelope is an observed bound, not a contract
    rng = random.Random(21)
    worst = 0.0
    for _ in range(40):
        start = RobotState(
            pose=Pose(rng.uniform(-3, 3), rng.uniform(-3, 3),
                      wrap_angle(rng.uniform(-math.pi, math.pi))),
        )
        z = TrajectoryParam(rng.uniform(0.5, 8.0), rng.uniform(-1.5, 1.5),
                            rng.uniform(-1.5, 1.5), rng.uniform(0.2, 1.0))
        traj = rollout(start, z, CFG)
        fine = fine_rollout(start, z, CFG, substeps=100)
        err = math.hypot(traj.terminal.pose.x - fine.x, traj.terminal.pose.y - fine.y)
        worst = max(worst, err)
    assert worst < 0.1
