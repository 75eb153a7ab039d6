import math
import random

import numpy as np
import pytest

from dsmpepc.kinematics import (
    KAPPA_MAX,
    R_EPSILON,
    ControlGains,
    EgocentricCoords,
    Pose,
    control_law_curvature,
    egocentric_coords,
    target_from_param,
    velocity_modulation,
    wrap_angle,
)

from agreement import assert_float_alone_equals_array
from oracles import integrate_control_law

GAINS = ControlGains(k1=1.2, k2=3.0)


def test_wrap_angle_range_and_boundaries():
    assert wrap_angle(math.pi) == math.pi
    assert wrap_angle(-math.pi) == math.pi
    assert wrap_angle(3 * math.pi) == math.pi
    assert wrap_angle(0.0) == 0.0
    rng = random.Random(0)
    for _ in range(2000):
        a = rng.uniform(-50, 50)
        w = wrap_angle(a)
        assert -math.pi < w <= math.pi
        # same angle modulo 2*pi
        assert math.isclose(math.cos(w), math.cos(a), abs_tol=1e-12)
        assert math.isclose(math.sin(w), math.sin(a), abs_tol=1e-12)


def test_egocentric_collinear_aligned():
    c = egocentric_coords(Pose(0, 0, 0), Pose(2, 0, 0))
    assert (c.r, c.theta, c.delta) == (2.0, 0.0, 0.0)


def test_egocentric_los_along_y():
    c = egocentric_coords(Pose(0, 0, 0), Pose(0, 2, math.pi / 2))
    assert c.r == 2.0
    assert c.theta == pytest.approx(0.0, abs=1e-15)
    assert c.delta == pytest.approx(-math.pi / 2, abs=1e-15)


def test_egocentric_general_case():
    # independent recomputation: los = atan2(4, 3)
    los = math.atan2(4.0, 3.0)
    c = egocentric_coords(Pose(1, 1, math.pi / 4), Pose(4, 5, -math.pi / 2))
    assert c.r == pytest.approx(5.0, abs=1e-12)
    assert c.theta == pytest.approx(wrap_angle(-math.pi / 2 - los), abs=1e-12)
    assert c.delta == pytest.approx(math.pi / 4 - los, abs=1e-12)
    assert c.theta == pytest.approx(-2.498, abs=1e-3)
    assert c.delta == pytest.approx(-0.142, abs=1e-3)


def test_egocentric_coincident_positions():
    c = egocentric_coords(Pose(1, 1, 0.7), Pose(1, 1, 1.5))
    assert c.r == 0.0
    assert c.delta == 0.0
    assert c.theta == pytest.approx(0.8, abs=1e-12)


def test_target_from_param_aligned_identity():
    t = target_from_param(Pose(0, 0, 0), 2.0, 0.0, 0.0)
    assert (t.x, t.y, t.heading) == (2.0, 0.0, 0.0)


def test_target_from_param_inverse_of_example():
    t = target_from_param(Pose(1, 1, math.pi / 4), 5.0, -2.498091544796509,
                          -0.1418970546041639)
    assert t.x == pytest.approx(4.0, abs=1e-9)
    assert t.y == pytest.approx(5.0, abs=1e-9)
    assert t.heading == pytest.approx(-math.pi / 2, abs=1e-9)


def test_target_from_param_rejects_negative_r():
    with pytest.raises(ValueError):
        target_from_param(Pose(0, 0, 0), -1.0, 0.0, 0.0)


def test_round_trip_random_poses():
    rng = random.Random(42)
    for _ in range(500):
        robot = Pose(rng.uniform(-10, 10), rng.uniform(-10, 10),
                     wrap_angle(rng.uniform(-9, 9)))
        target = Pose(rng.uniform(-10, 10), rng.uniform(-10, 10),
                      wrap_angle(rng.uniform(-9, 9)))
        c = egocentric_coords(robot, target)
        if c.r <= R_EPSILON:
            continue
        back = target_from_param(robot, c.r, c.theta, c.delta)
        assert back.x == pytest.approx(target.x, abs=1e-9)
        assert back.y == pytest.approx(target.y, abs=1e-9)
        assert wrap_angle(back.heading - target.heading) == pytest.approx(0.0, abs=1e-9)


def test_curvature_zero_when_aligned():
    for r in (1e-3, 0.5, 2.0, 50.0):
        assert control_law_curvature(EgocentricCoords(r, 0.0, 0.0), GAINS) == 0.0


def test_curvature_formula_value():
    # k2*(pi/2 - atan(0)) + (1 + k1/(1+0)) * sin(pi/2) with k1=1.2, k2=3
    expected = -(3.0 * (math.pi / 2) + 2.2)
    got = control_law_curvature(EgocentricCoords(1.0, 0.0, math.pi / 2), GAINS)
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(-6.9124, abs=1e-4)


def test_curvature_singularity_clamped():
    got = control_law_curvature(EgocentricCoords(1e-9, 0.0, 0.5), GAINS)
    assert abs(got) == KAPPA_MAX


def test_velocity_modulation_examples():
    assert velocity_modulation(0.0, 1.0, 10.0, GAINS) == 1.0
    assert velocity_modulation(3.7, 0.0, 10.0, GAINS) == 0.0
    gains = ControlGains(curvature_beta=0.4, curvature_lambda=2.0)
    assert velocity_modulation(2.0, 1.0, 10.0, gains) == pytest.approx(
        1.0 / 2.6, rel=1e-12
    )


def test_velocity_modulation_bounds():
    rng = random.Random(3)
    for _ in range(1000):
        kappa = rng.uniform(-50, 50)
        vmax = rng.uniform(0, 2)
        r = rng.uniform(0, 20)
        v = velocity_modulation(kappa, vmax, r, GAINS)
        assert 0.0 <= v <= vmax


def test_gain_validation():
    with pytest.raises(ValueError):
        ControlGains(k1=0.0)
    with pytest.raises(ValueError):
        ControlGains(curvature_beta=-0.1)
    with pytest.raises(ValueError):
        ControlGains(curvature_lambda=0.5)


def test_control_law_attracts_sample():
    # spot-check of the global attractor property (full sweep in acceptance)
    rng = random.Random(11)
    for _ in range(20):
        r0 = rng.uniform(0.5, 10.0)
        ang = rng.uniform(-math.pi, math.pi)
        start = Pose(-r0 * math.cos(ang), -r0 * math.sin(ang),
                     wrap_angle(rng.uniform(-math.pi, math.pi)))
        _, reached_at = integrate_control_law(
            start, Pose(0, 0, 0), GAINS, stop_radius=0.05
        )
        assert reached_at is not None and reached_at < 60.0


def test_formulas_agree_on_floats_and_arrays():
    # the rollout calls these on arrays; each entry equals the float result
    # for that entry alone, exactly
    rng = np.random.default_rng(4)
    angles = np.concatenate([rng.uniform(-12.0, 12.0, 40),
                             [math.pi, -math.pi, 3 * math.pi, 0.0, -2 * math.pi]])
    assert_float_alone_equals_array(wrap_angle, angles)

    n = 48
    robot = Pose(*rng.uniform(-3.0, 3.0, (3, n)))
    offset = rng.uniform(-4.0, 4.0, (2, n))
    # coincident and nearly coincident targets take the r < R_EPSILON branch
    offset[:, :4] = [[0.0, 0.0, 1e-7, -3e-7], [0.0, 0.0, 0.0, 2e-7]]
    target = Pose(robot.x + offset[0], robot.y + offset[1], rng.uniform(-3.0, 3.0, n))
    coords = egocentric_coords(robot, target)
    assert (coords.r[:4] < R_EPSILON).all()
    for i in range(n):
        alone = egocentric_coords(*(Pose(float(p.x[i]), float(p.y[i]), float(p.heading[i]))
                                    for p in (robot, target)))
        assert all(isinstance(v, float) for v in (alone.r, alone.theta, alone.delta))
        assert (alone.r, alone.theta, alone.delta) == (coords.r[i], coords.theta[i],
                                                       coords.delta[i])

    start = Pose(0.4, -1.2, 2.9)
    params = rng.uniform([0.0, -math.pi, -math.pi], [9.0, math.pi, math.pi], (n, 3)).T
    batch = target_from_param(start, *params)
    for i in range(n):
        alone = target_from_param(start, *(float(p[i]) for p in params))
        assert (alone.x, alone.y, alone.heading) == (batch.x[i], batch.y[i], batch.heading[i])

    assert_float_alone_equals_array(
        lambda r, th, dl: control_law_curvature(EgocentricCoords(r, th, dl), GAINS),
        coords.r, coords.theta, coords.delta)
    kappa = control_law_curvature(coords, GAINS)
    assert (np.abs(kappa[:4]) <= KAPPA_MAX).all()
    assert_float_alone_equals_array(
        lambda k, vmax, r: velocity_modulation(k, vmax, r, GAINS),
        kappa, rng.uniform(0.0, 1.0, n), coords.r)


def test_array_formulas_keep_their_argument_checks():
    with pytest.raises(ValueError):
        target_from_param(Pose(0, 0, 0), np.array([1.0, -1.0]), 0.0, 0.0)
    with pytest.raises(ValueError):
        velocity_modulation(np.zeros(2), np.array([0.5, -0.1]), np.ones(2), GAINS)
    with pytest.raises(ValueError):
        velocity_modulation(0.0, -0.1, 1.0, GAINS)
    # NaN fails both checks
    for bad in (math.nan, np.array([1.0, math.nan])):
        with pytest.raises(ValueError):
            target_from_param(Pose(0, 0, 0), bad, 0.0, 0.0)
        with pytest.raises(ValueError):
            velocity_modulation(0.0, bad, 1.0, GAINS)
