"""Closed-loop trajectory rollout for a differential-drive robot.

A candidate trajectory is fully determined by a 4D parameter
(r, theta, delta, v_max): the target pose it encodes acts as an attractor
under the smooth control law, and the rollout simulates the closed loop over
the receding horizon with velocity and acceleration limits applied.

`rollout_batch` steps a whole batch of rollouts at once. Each step runs the
array kernels of `geometry` and this module's arc step (`_advance_into`),
writing every result into rows of buffers allocated once per call, so no
step builds a `Pose` or another intermediate object. `advance_pose` is a
thin wrapper over the same arc step for floats or arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    ControlGains,
    Pose,
    _ONE,
    _arrays,
    _curvature_into,
    _egocentric_into,
    _speed_into,
    _unshaped,
    _wrap_into,
    target_from_param,
)

# Angular rates below this are integrated as straight-line motion.
OMEGA_STRAIGHT = 1e-9
_OMEGA_STRAIGHT = np.array(OMEGA_STRAIGHT)


@dataclass(frozen=True)
class RobotState:
    """Robot state at time t: pose plus commanded (v, omega) over the last step."""

    pose: Pose
    v: float = 0.0
    omega: float = 0.0
    t: float = 0.0

    def is_finite(self) -> bool:
        return (
            self.pose.is_finite()
            and math.isfinite(self.v)
            and math.isfinite(self.omega)
            and math.isfinite(self.t)
        )


@dataclass(frozen=True)
class TrajectoryParam:
    """Trajectory parameter (r, theta, delta, v_max): target pose in egocentric
    coordinates plus the attraction strength."""

    r: float
    theta: float
    delta: float
    v_max: float

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.r, self.theta, self.delta, self.v_max)


@dataclass(frozen=True)
class PlannerConfig:
    """Horizon, integration step, and actuation limits of the rollout."""

    horizon_T: float = 5.0
    step_h: float = 0.2
    v_limit: float = 1.0
    omega_limit: float = 2.0
    accel_limit: float = 1.0
    alpha_limit: float = 2.0 * math.pi
    gains: ControlGains = field(default_factory=ControlGains)

    def __post_init__(self) -> None:
        for name in ("horizon_T", "step_h", "v_limit", "omega_limit", "accel_limit",
                     "alpha_limit"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        n = self.horizon_T / self.step_h
        if abs(n - round(n)) > 1e-9:
            raise ValueError("horizon_T must be an integer multiple of step_h")
        if round(n) < 1:
            raise ValueError("horizon_T must be at least one step_h")

    @property
    def n_steps(self) -> int:
        return int(round(self.horizon_T / self.step_h))

    @property
    def r_max(self) -> float:
        """Largest useful target distance: beyond reach the landscape is flat."""
        return self.v_limit * self.horizon_T + 5.0


@dataclass(frozen=True)
class Trajectory:
    """N+1 states at t = t0, t0+h, ..., t0+N*h plus the parameter and target
    that generated them."""

    states: tuple[RobotState, ...]
    param: TrajectoryParam
    target: Pose

    def __len__(self) -> int:
        return len(self.states)

    @property
    def terminal(self) -> RobotState:
        return self.states[-1]


def _advance_into(position, heading, v, omega, dt, position1, heading1):
    """`advance_pose` into (position1, heading1): `position` and `position1`
    stack the x and y arrays, (2, ...); the other arrays have the trailing
    shape, and no output shares memory with an input."""
    straight = np.abs(omega) < _OMEGA_STRAIGHT
    any_straight = np.count_nonzero(straight)
    turned = np.multiply(omega, dt)
    np.add(heading, turned, out=turned)
    # (radius, -radius); a straight row divides by 1 and is overwritten below
    radius = np.empty_like(position)
    np.divide(v, np.where(straight, _ONE, omega) if any_straight else omega, out=radius[0])
    np.negative(radius[0], out=radius[1])
    # x + radius * (sin h1 - sin h0) and y - radius * (cos h1 - cos h0), the
    # latter as y + -radius * (...), which rounds the same
    trig1 = np.empty_like(position)
    trig0 = np.empty_like(position)
    np.sin(turned, out=trig1[0])
    np.cos(turned, out=trig1[1])
    np.sin(heading, out=trig0[0])
    np.cos(heading, out=trig0[1])
    step = np.subtract(trig1, trig0)
    np.multiply(radius, step, out=step)
    np.add(position, step, out=position1)
    _wrap_into(turned, heading1)
    if any_straight:
        sin0, cos0 = trig0
        np.multiply(v, dt, out=radius[0])
        np.multiply(radius[0], cos0, out=trig1[0])
        np.multiply(radius[0], sin0, out=trig1[1])
        np.add(position, trig1, out=trig1)
        np.copyto(position1, trig1, where=straight)
        np.copyto(heading1, heading, where=straight)


def advance_pose(pose: Pose, v, omega, dt: float) -> Pose:
    """Advance a unicycle pose by one step of constant (v, omega).

    Exact arc integration: for |omega| >= OMEGA_STRAIGHT the pose moves along
    the circle of radius v/omega, otherwise along a straight segment. The
    chord length never exceeds |v|*dt. Takes floats or arrays, like the
    `geometry` formulas.
    """
    (x, y, heading, v, omega), shape = _arrays(pose.x, pose.y, pose.heading, v, omega)
    position1 = np.empty((2,) + x.shape)
    heading1 = np.empty_like(x)
    _advance_into(np.stack((x, y)), heading, v, omega, np.array(dt, dtype=float),
                  position1, heading1)
    return Pose(*(_unshaped(a, shape) for a in (*position1, heading1)))


def step_times(t0: float, cfg: PlannerConfig) -> list[float]:
    """Timestamps t0, t0+h, ..., t0+N*h of a rollout's N+1 states."""
    h = cfg.step_h
    return [t0] + [t0 + i * h for i in range(1, cfg.n_steps + 1)]


def rollout_batch(start: RobotState, params: np.ndarray, cfg: PlannerConfig):
    """The closed-loop rollout of B candidates from one start state at once.

    `params` is a (B, 4) array of (r, theta, delta, v_max) rows. Returns the
    (xs, ys, headings, vs, omegas) arrays, each (B, N+1), whose column 0 is
    the start state; timestamps are `step_times(start.t, cfg)`. The start
    state is not validated here (`rollout` does that).

    The target poses are fixed in the world frame at the start
    (`target_from_param`). Each step is the model's own kernels over the
    whole batch: `egocentric_coords`, `control_law_curvature`,
    `velocity_modulation` (its formula, without re-checking v_max on every
    step), then (v, omega) clamped to the configured limits and
    rate-limited, and one exact arc step (`advance_pose`). Every operation
    is elementwise, so a row does not depend on the rest of the batch.
    """
    b = params.shape[0]
    n = cfg.n_steps
    gains = cfg.gains
    # 0-d arrays, like the constants of `geometry`: numpy takes them as they
    # are instead of converting a Python float on every step
    h, k1, k2, beta, lam = (np.array(c) for c in (
        cfg.step_h, gains.k1, gains.k2, gains.curvature_beta, gains.curvature_lambda))
    # (v, omega) is one (2, B) array: its limits and rate limits are full
    # arrays of that shape, since broadcasting a (2, 1) operand costs more
    # than the two rows apart
    limit, rate = (np.repeat([[c_v], [c_w]], b, axis=1) for c_v, c_w in (
        (cfg.v_limit, cfg.omega_limit),
        (cfg.accel_limit * cfg.step_h, cfg.alpha_limit * cfg.step_h)))
    minus_limit = -limit

    r_z, th_z, dl_z, vmax_z = params.T
    target = target_from_param(start.pose, r_z, th_z, dl_z)
    target_xy = np.stack((target.x, target.y))
    vmax_z = np.ascontiguousarray(vmax_z)

    # One row per step: step i reads row i-1 and writes row i in place.
    xys = np.empty((n + 1, 2, b))
    hs = np.empty((n + 1, b))
    vws = np.empty((n + 1, 2, b))
    xys[0, 0] = start.pose.x
    xys[0, 1] = start.pose.y
    hs[0] = start.pose.heading
    vws[0, 0] = start.v
    vws[0, 1] = start.omega
    r = np.empty(b)
    angles = np.empty((2, b))
    kappa = np.empty(b)
    for i in range(1, n + 1):
        near = _egocentric_into(xys[i - 1], target_xy, hs[i - 1], target.heading, r, angles)
        _curvature_into(r, angles[0], angles[1], near, k1, k2, kappa)
        vw = vws[i]
        v, w = vw
        _speed_into(kappa, vmax_z, r, beta, lam, v)
        np.multiply(kappa, v, out=w)
        np.maximum(vw, minus_limit, out=vw)
        np.minimum(vw, limit, out=vw)
        bound = np.subtract(vws[i - 1], rate)
        np.maximum(vw, bound, out=vw)
        np.add(vws[i - 1], rate, out=bound)
        np.minimum(vw, bound, out=vw)
        _advance_into(xys[i - 1], hs[i - 1], v, w, h, xys[i], hs[i])
    xs, ys = xys.transpose(1, 2, 0).copy()
    vs, ws = vws.transpose(1, 2, 0).copy()
    return xs, ys, hs.T.copy(), vs, ws


def trajectory(start: RobotState, z: TrajectoryParam, cfg: PlannerConfig,
               xs, ys, hs, vs, ws) -> Trajectory:
    """The Trajectory of one rollout row (`rollout_batch`) of `z` from `start`."""
    ts = step_times(start.t, cfg)
    xs, ys, hs, vs, ws = (np.asarray(a).tolist() for a in (xs, ys, hs, vs, ws))
    states = [start] + [
        RobotState(pose=Pose(xs[i], ys[i], hs[i]), v=vs[i], omega=ws[i], t=ts[i])
        for i in range(1, len(ts))
    ]
    target = target_from_param(start.pose, z.r, z.theta, z.delta)
    return Trajectory(states=tuple(states), param=z, target=target)


def rollout(start: RobotState, z: TrajectoryParam, cfg: PlannerConfig) -> Trajectory:
    """Simulate the closed loop from `start` under parameter `z` for the horizon.

    A batch of one through `rollout_batch`, so it returns exactly the states
    the planner scored for `z`: cfg.n_steps + 1 states with strictly
    increasing timestamps.
    """
    if not start.is_finite():
        raise ValueError("rollout requires a finite start state")
    rows = rollout_batch(start, np.array([z.as_tuple()], dtype=float), cfg)
    return trajectory(start, z, cfg, *(a[0] for a in rows))
