"""Egocentric coordinate transforms and the smooth pose-following control law.

The planner steers a differential-drive robot toward a target pose by
expressing the target in an egocentric frame (r, theta, delta): distance to
the target, target heading relative to the line of sight, and robot heading
relative to the line of sight. A nonlinear feedback law maps that frame to a
path curvature; a modulation rule maps curvature and target distance to a
linear velocity. All angles are radians wrapped to (-pi, pi].

Each formula is written once, as an array kernel (`_wrap_into`,
`_egocentric_into`, `_curvature_into`, `_speed_into`) that writes its
result and its intermediates into arrays the caller owns; the egocentric
kernel takes them from a `_Workspace`, the arrays and row views of one
shape. `kinematics.rollout_batch` calls the kernels on a whole batch of
rollouts per step, with one workspace made per call for all its steps, so
no step allocates an array or builds a view. The public functions
(`wrap_angle`, `egocentric_coords`, `control_law_curvature`,
`velocity_modulation`) are thin wrappers that take floats or numpy arrays
(elementwise, broadcasting) and run the same kernels on scratch of their
own; a float input gives a float (numpy's float64). A branch that only a
few rows take (a target within R_EPSILON, the -pi boundary of the wrap) is
written into its rows with `np.copyto(..., where=mask)`, and its extra
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


def _wrap_into(angle, out, turns, beyond):
    """`wrap_angle` of the array `angle` into `out`, which may be `angle`;
    `turns` (float) and `beyond` (bool) are scratch arrays of its shape."""
    np.divide(angle, _TAU, out=turns)
    np.rint(turns, out=turns)
    np.multiply(_TAU, turns, out=turns)
    np.subtract(angle, turns, out=out)
    # cheaper than testing for the rare row first
    np.less_equal(out, _MINUS_PI, out=beyond)
    np.copyto(out, _PI, where=beyond)
    return out


def wrap_angle(angle):
    """Wrap an angle to (-pi, pi]."""
    a = np.array(angle, dtype=float, ndmin=1)
    _wrap_into(a, a, np.empty_like(a), np.empty(a.shape, dtype=bool))
    return _unshaped(a, np.shape(angle))


class _Workspace:
    """The arrays the step kernels write, for one shape; each (2, ...)
    pair comes with its rows, as views made here.

    `_egocentric_into` writes the egocentric coordinates into `r` and
    `angles` (rows `theta`, `delta`) and the mask of targets within
    R_EPSILON into `near`. The rest is scratch, dead once its kernel
    returns: `offset` (rows `offset_x`, `offset_y`), the wrap's `turns` and
    `beyond` (with their first rows, for a single row of angles), and
    `tmp_a`, `tmp_b` for the kernels that take scratch arrays.
    """

    __slots__ = ("r", "angles", "theta", "delta", "near", "offset", "offset_x", "offset_y",
                 "turns", "turns_row", "beyond", "beyond_row", "tmp_a", "tmp_b")

    def __init__(self, shape):
        pair = (2,) + shape
        self.r, self.tmp_a, self.tmp_b = (np.empty(shape) for _ in range(3))
        self.near = np.empty(shape, dtype=bool)
        self.angles, self.offset, self.turns = (np.empty(pair) for _ in range(3))
        self.beyond = np.empty(pair, dtype=bool)
        self.theta, self.delta = self.angles
        self.offset_x, self.offset_y = self.offset
        self.turns_row, self.beyond_row = self.turns[0], self.beyond[0]


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


def _egocentric_into(position, target, heading, target_heading, work):
    """`egocentric_coords` of targets from robots into the workspace
    `work`: r into `work.r` and (theta, delta) into `work.angles`, which are
    wrapped in one pass. `position` and `target` stack the x and y arrays,
    (2, ...); the headings are arrays of the trailing shape, the shape of
    `work`. Returns the mask of rows with r < R_EPSILON (`work.near`), or
    None when there is none.
    """
    dx, dy = work.offset_x, work.offset_y
    np.subtract(target, position, out=work.offset)
    np.hypot(dx, dy, out=work.r)
    los = np.arctan2(dy, dx, out=dx)
    near = np.less(work.r, _R_EPSILON, out=work.near)
    if not np.count_nonzero(near):
        near = None
    else:
        np.copyto(los, heading, where=near)
    np.subtract(target_heading, los, out=work.theta)
    np.subtract(heading, los, out=work.delta)
    _wrap_into(work.angles, work.angles, work.turns, work.beyond)
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
    work = _Workspace(x.shape)
    _egocentric_into(np.stack((x, y)), np.stack((tx, ty)), heading, th, work)
    return EgocentricCoords(*(_unshaped(a, shape) for a in (work.r, work.theta, work.delta)))


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


def _curvature_into(r, theta, delta, near, k1, k2, out, k1_theta, t):
    """`control_law_curvature` into `out`; `near` is the mask of rows with
    r < R_EPSILON or None (`_egocentric_into`), k1 and k2 the gains, and
    `k1_theta` and `t` scratch arrays of the shape of `out`."""
    np.multiply(k1, theta, out=k1_theta)
    # -[...] built directly: rounding is symmetric under negation, so this
    # is exactly the negated bracket
    np.negative(k1_theta, out=t)
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
        np.maximum(r, _R_EPSILON, out=t)
        np.divide(out, t, out=out)
        # the clamped curvature, for the near rows
        np.maximum(out, _MINUS_KAPPA_MAX, out=t)
        np.minimum(t, _KAPPA_MAX, out=t)
        np.copyto(out, t, where=near)
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
                            np.array(gains.k1), np.array(gains.k2),
                            *(np.empty_like(r) for _ in range(3)))
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
                    np.array(gains.curvature_lambda), *(np.empty_like(r) for _ in range(2)))
    return _unshaped(v, shape)


def _speed_into(kappa, z_vmax, r, beta, lam, out, t):
    """The formula of `velocity_modulation` into `out`, without its z_vmax
    check, which `rollout_batch` would otherwise repeat on the same v_max
    rows every step; beta and lam are the gains' curvature shape and `t` a
    scratch array of the shape of `out`."""
    np.absolute(kappa, out=t)
    # np.power, not **: numpy's float64 scalar ** rounds squares differently
    np.power(t, lam, out=t)
    np.multiply(beta, t, out=t)
    np.add(_ONE, t, out=t)
    np.divide(z_vmax, t, out=out)
    np.divide(r, _R_SLOWDOWN, out=t)
    np.minimum(_ONE, t, out=t)
    np.multiply(out, t, out=out)
    return out
