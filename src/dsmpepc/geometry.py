"""Egocentric coordinate transforms and the smooth pose-following control law.

The planner steers a differential-drive robot toward a target pose by
expressing the target in an egocentric frame (r, theta, delta): distance to
the target, target heading relative to the line of sight, and robot heading
relative to the line of sight. A nonlinear feedback law maps that frame to a
path curvature; a modulation rule maps curvature and target distance to a
linear velocity. All angles are radians wrapped to (-pi, pi].

Each formula is written once, as an array kernel (`_wrap_into`,
`_egocentric_into`, `_curvature_into`, `_speed_into`) that writes its
result into arrays the caller owns. `kinematics.rollout_batch` calls the
kernels on a whole batch of rollouts per step, into buffers it allocates
once per call. The public functions (`wrap_angle`, `egocentric_coords`,
`control_law_curvature`, `velocity_modulation`) are thin wrappers that take
floats or numpy arrays (elementwise, broadcasting) and run the same
kernels; a float input gives a float (numpy's float64). A branch that only
a few rows take (a target within R_EPSILON, the -pi boundary of the wrap)
is written into its rows with `np.copyto(..., where=mask)`, and its extra
work runs only when a row takes it.
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
_ONE = np.array(1.0)
_R_EPSILON, _R_SLOWDOWN = np.array(R_EPSILON), np.array(R_SLOWDOWN)
_KAPPA_MAX, _MINUS_KAPPA_MAX = np.array(KAPPA_MAX), np.array(-KAPPA_MAX)


def _arrays(*values):
    """The values as float arrays of their common shape, at least 1-D (the
    kernels write into arrays), and that shape."""
    arrays = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in values))
    return [np.atleast_1d(a) for a in arrays], arrays[0].shape


def _unshaped(a, shape):
    """A kernel's result in the callers' shape; a float for float inputs."""
    return a.reshape(shape)[()]


def _wrap_into(angle, out):
    """`wrap_angle` of the array `angle` into `out`, which may be `angle`."""
    turns = np.divide(angle, _TAU)
    np.rint(turns, out=turns)
    np.multiply(_TAU, turns, out=turns)
    np.subtract(angle, turns, out=out)
    # cheaper than testing for the rare row first
    np.copyto(out, _PI, where=out <= _MINUS_PI)
    return out


def wrap_angle(angle):
    """Wrap an angle to (-pi, pi]."""
    a = np.array(angle, dtype=float, ndmin=1)
    return _unshaped(_wrap_into(a, a), np.shape(angle))


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


def _egocentric_into(position, target, heading, target_heading, r, angles):
    """`egocentric_coords` of targets from robots: `position` and `target`
    stack the x and y arrays, (2, ...); the headings, `r` and each row of
    `angles` are arrays of the trailing shape. Writes r into `r` and
    (theta, delta) into the rows of `angles`, which are wrapped in one pass.
    Returns the mask of rows with r < R_EPSILON, or None when there is none.
    """
    d = np.subtract(target, position)
    dx, dy = d
    np.hypot(dx, dy, out=r)
    los = np.arctan2(dy, dx, out=dx)
    near = r < _R_EPSILON
    if not np.count_nonzero(near):
        near = None
    else:
        np.copyto(los, heading, where=near)
    np.subtract(target_heading, los, out=angles[0])
    np.subtract(heading, los, out=angles[1])
    _wrap_into(angles, angles)
    return near


def egocentric_coords(robot: Pose, target: Pose) -> EgocentricCoords:
    """Express `target` in the robot's egocentric (r, theta, delta) frame.

    r is the Euclidean distance to the target. theta is the target heading
    minus the line-of-sight direction, delta the robot heading minus the
    line-of-sight direction. Coincident positions are allowed: the line of
    sight then defaults to the robot heading, giving delta = 0.
    """
    (x, y, heading, tx, ty, th), shape = _arrays(robot.x, robot.y, robot.heading,
                                                 target.x, target.y, target.heading)
    r = np.empty_like(x)
    angles = np.empty((2,) + r.shape)
    _egocentric_into(np.stack((x, y)), np.stack((tx, ty)), heading, th, r, angles)
    return EgocentricCoords(*(_unshaped(a, shape) for a in (r, *angles)))


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


def _curvature_into(r, theta, delta, near, k1, k2, out):
    """`control_law_curvature` into `out`; `near` is the mask of rows with
    r < R_EPSILON or None (`_egocentric_into`), k1 and k2 the gains."""
    k1_theta = np.multiply(k1, theta)
    # -[...] built directly: rounding is symmetric under negation, so this
    # is exactly the negated bracket
    t = np.negative(k1_theta)
    np.arctan(t, out=t)
    np.subtract(t, delta, out=t)
    np.multiply(k2, t, out=out)
    np.multiply(k1_theta, k1_theta, out=k1_theta)
    np.add(_ONE, k1_theta, out=k1_theta)
    np.divide(k1, k1_theta, out=k1_theta)
    np.add(_ONE, k1_theta, out=k1_theta)
    np.sin(delta, out=t)
    np.multiply(k1_theta, t, out=t)
    np.subtract(out, t, out=out)
    if near is not None:
        np.divide(out, np.maximum(r, _R_EPSILON), out=out)
        clamped = np.minimum(np.maximum(out, _MINUS_KAPPA_MAX), _KAPPA_MAX)
        np.copyto(out, clamped, where=near)
    else:
        # every r is at least R_EPSILON
        np.divide(out, r, out=out)
    return out


def control_law_curvature(coords: EgocentricCoords, gains: ControlGains):
    """Path curvature kappa (1/m) of the pose-following law at `coords`.

    Returns -(1/r) * [k2*(delta - atan(-k1*theta)) + (1 + k1/(1+(k1*theta)^2)) * sin(delta)].
    For r below R_EPSILON the result is clamped to +-KAPPA_MAX.
    """
    (r, theta, delta), shape = _arrays(coords.r, coords.theta, coords.delta)
    near = r < _R_EPSILON
    kappa = _curvature_into(r, theta, delta, near if near.any() else None,
                            np.array(gains.k1), np.array(gains.k2), np.empty_like(r))
    return _unshaped(kappa, shape)


def velocity_modulation(kappa, z_vmax, r, gains: ControlGains):
    """Linear velocity command in [0, z_vmax].

    Velocity drops on high-curvature arcs, 1/(1 + beta*|kappa|^lambda), and
    linearly inside R_SLOWDOWN of the target so the robot arrives at rest.
    Raises ValueError for a negative z_vmax.
    """
    if np.any(np.less(z_vmax, 0.0)):
        raise ValueError("z_vmax must be >= 0")
    (kappa, z_vmax, r), shape = _arrays(kappa, z_vmax, r)
    v = _speed_into(kappa, z_vmax, r, np.array(gains.curvature_beta),
                    np.array(gains.curvature_lambda), np.empty_like(r))
    return _unshaped(v, shape)


def _speed_into(kappa, z_vmax, r, beta, lam, out):
    """The formula of `velocity_modulation` into `out`, without its z_vmax
    check, which `rollout_batch` would otherwise repeat on the same v_max
    rows every step; beta and lam are the gains' curvature shape."""
    t = np.abs(kappa)
    # np.power, not **: numpy's float64 scalar ** rounds squares differently
    np.power(t, lam, out=t)
    np.multiply(beta, t, out=t)
    np.add(_ONE, t, out=t)
    np.divide(z_vmax, t, out=out)
    np.divide(r, _R_SLOWDOWN, out=t)
    np.minimum(_ONE, t, out=t)
    np.multiply(out, t, out=out)
    return out
