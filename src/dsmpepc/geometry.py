"""Egocentric coordinate transforms and the smooth pose-following control law.

The planner steers a differential-drive robot toward a target pose by
expressing the target in an egocentric frame (r, theta, delta): distance to
the target, target heading relative to the line of sight, and robot heading
relative to the line of sight. A nonlinear feedback law maps that frame to a
path curvature; a modulation rule maps curvature and target distance to a
linear velocity. All angles are radians wrapped to (-pi, pi].

Each formula takes floats or numpy arrays (elementwise, broadcasting) and is
the planner's own code: `kinematics.rollout_batch` calls it on a whole batch
of rollouts per step. A float input gives a float (numpy's float64).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Below this target distance the line of sight is undefined; the curvature
# is clamped instead of dividing by ~0.
R_EPSILON = 1e-6
KAPPA_MAX = 20.0

# Linear slowdown radius: v scales with min(1, r / R_SLOWDOWN) so trajectories
# terminate at rest at the target. 0.5 m keeps worst-case convergence of the
# closed loop from tight start poses under a minute.
R_SLOWDOWN = 0.5


# As 0-d arrays, constants reach numpy's loops without the conversion of a
# Python float that every operation would otherwise repeat.
_TAU, _PI, _MINUS_PI = np.array(math.tau), np.array(math.pi), np.array(-math.pi)


def wrap_angle(angle):
    """Wrap an angle to (-pi, pi]."""
    w = angle - _TAU * np.rint(angle / _TAU)
    return np.where(w <= _MINUS_PI, _PI, w)[()]


@dataclass(frozen=True)
class Pose:
    """Planar pose: position in meters, heading in radians in (-pi, pi]."""

    x: float
    y: float
    heading: float

    def wrapped(self) -> "Pose":
        return Pose(self.x, self.y, float(wrap_angle(self.heading)))

    def is_finite(self) -> bool:
        return math.isfinite(self.x) and math.isfinite(self.y) and math.isfinite(self.heading)


@dataclass(frozen=True)
class EgocentricCoords:
    """Target expressed relative to the robot: distance r >= 0, angles in (-pi, pi]."""

    r: float
    theta: float
    delta: float


@dataclass(frozen=True)
class ControlGains:
    """Gains of the pose-following law plus the velocity-modulation shape.

    k1 weighs the target-heading correction, k2 the line-of-sight convergence
    rate. curvature_beta/curvature_lambda shape v = v_max / (1 + beta*|kappa|^lambda)
    so the commanded angular rate stays bounded on tight turns.
    """

    k1: float = 1.2
    k2: float = 3.0
    curvature_beta: float = 0.4
    curvature_lambda: float = 2.0

    def __post_init__(self) -> None:
        if not (0 < self.k1 < math.inf and 0 < self.k2 < math.inf):
            raise ValueError("k1 and k2 must be positive and finite")
        if not 0 <= self.curvature_beta < math.inf:
            raise ValueError("curvature_beta must be finite and >= 0")
        if not 1 <= self.curvature_lambda < math.inf:
            raise ValueError("curvature_lambda must be finite and >= 1")


def egocentric_coords(robot: Pose, target: Pose) -> EgocentricCoords:
    """Express `target` in the robot's egocentric (r, theta, delta) frame.

    r is the Euclidean distance to the target. theta is the target heading
    minus the line-of-sight direction, delta the robot heading minus the
    line-of-sight direction. Coincident positions are allowed: the line of
    sight then defaults to the robot heading, giving delta = 0.
    """
    dx = target.x - robot.x
    dy = target.y - robot.y
    r = np.hypot(dx, dy)
    los = np.where(r < R_EPSILON, robot.heading, np.arctan2(dy, dx))
    return EgocentricCoords(
        r=r,
        theta=wrap_angle(target.heading - los),
        delta=wrap_angle(robot.heading - los),
    )


def target_from_param(robot: Pose, r, theta, delta) -> Pose:
    """Inverse of `egocentric_coords`: world-frame target pose for (r, theta, delta)."""
    if np.any(np.less(r, 0.0)):
        raise ValueError("r must be >= 0")
    los = wrap_angle(robot.heading - delta)
    return Pose(
        x=robot.x + r * np.cos(los),
        y=robot.y + r * np.sin(los),
        heading=wrap_angle(los + theta),
    )


def control_law_curvature(coords: EgocentricCoords, gains: ControlGains):
    """Path curvature kappa (1/m) of the pose-following law at `coords`.

    Returns -(1/r) * [k2*(delta - atan(-k1*theta)) + (1 + k1/(1+(k1*theta)^2)) * sin(delta)].
    For r below R_EPSILON the result is clamped to +-KAPPA_MAX.
    """
    k1, k2 = gains.k1, gains.k2
    theta, delta = coords.theta, coords.delta
    k1_theta = k1 * theta
    # -[...] built directly: rounding is symmetric under negation, so this
    # is exactly the negated bracket
    minus_bracket = k2 * (np.arctan(-k1_theta) - delta)
    minus_bracket -= (1.0 + k1 / (1.0 + k1_theta * k1_theta)) * np.sin(delta)
    kappa = minus_bracket / np.maximum(coords.r, R_EPSILON)
    return np.where(coords.r < R_EPSILON,
                    np.minimum(np.maximum(kappa, -KAPPA_MAX), KAPPA_MAX), kappa)[()]


def velocity_modulation(kappa, z_vmax, r, gains: ControlGains):
    """Linear velocity command in [0, z_vmax].

    Velocity drops on high-curvature arcs, 1/(1 + beta*|kappa|^lambda), and
    linearly inside R_SLOWDOWN of the target so the robot arrives at rest.
    Raises ValueError for a negative z_vmax.
    """
    if np.any(np.less(z_vmax, 0.0)):
        raise ValueError("z_vmax must be >= 0")
    return _velocity_modulation(kappa, z_vmax, r, gains)


def _velocity_modulation(kappa, z_vmax, r, gains: ControlGains):
    """The formula of `velocity_modulation` without its z_vmax check, which
    `rollout_batch` would otherwise repeat on the same v_max rows every step."""
    # np.power, not **: numpy's float64 scalar ** rounds squares differently
    v = z_vmax / (1.0 + gains.curvature_beta * np.power(np.abs(kappa), gains.curvature_lambda))
    return v * np.minimum(1.0, r / R_SLOWDOWN)
