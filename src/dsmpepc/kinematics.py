"""Closed-loop trajectory rollout for a differential-drive robot.

A candidate trajectory is fully determined by a 4D parameter
(r, theta, delta, v_max): the target pose it encodes acts as an attractor
under the smooth control law, and the rollout simulates the closed loop over
the receding horizon with velocity and acceleration limits applied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    ControlGains,
    Pose,
    _velocity_modulation,
    control_law_curvature,
    egocentric_coords,
    target_from_param,
    wrap_angle,
)

# Angular rates below this are integrated as straight-line motion.
OMEGA_STRAIGHT = 1e-9


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


def advance_pose(pose: Pose, v, omega, dt: float) -> Pose:
    """Advance a unicycle pose by one step of constant (v, omega).

    Exact arc integration: for |omega| >= OMEGA_STRAIGHT the pose moves along
    the circle of radius v/omega, otherwise along a straight segment. The
    chord length never exceeds |v|*dt. Takes floats or arrays, like the
    `geometry` formulas.
    """
    straight = np.abs(omega) < OMEGA_STRAIGHT
    h0 = pose.heading
    h1 = h0 + omega * dt
    radius = v / np.where(straight, 1.0, omega)
    cos0 = np.cos(h0)
    sin0 = np.sin(h0)
    step = v * dt
    return Pose(
        x=np.where(straight, pose.x + step * cos0, pose.x + radius * (np.sin(h1) - sin0))[()],
        y=np.where(straight, pose.y + step * sin0, pose.y - radius * (np.cos(h1) - cos0))[()],
        heading=np.where(straight, h0, wrap_angle(h1))[()],
    )


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
    (`target_from_param`). Each step is the model's own formulas over the
    whole batch: `egocentric_coords`, `control_law_curvature`,
    `velocity_modulation` (its formula, without re-checking v_max on every
    step), then (v, omega) clamped to the configured limits and
    rate-limited, and one exact arc step (`advance_pose`). Every operation
    is elementwise, so a row does not depend on the rest of the batch.
    """
    b = params.shape[0]
    n = cfg.n_steps
    gains = cfg.gains
    # 0-d arrays, like the constants of `geometry.wrap_angle`: numpy takes
    # them as they are instead of converting a Python float on every step
    h, v_lo, v_hi, w_lo, w_hi, dv, dw = (np.array(c) for c in (
        cfg.step_h, -cfg.v_limit, cfg.v_limit, -cfg.omega_limit, cfg.omega_limit,
        cfg.accel_limit * cfg.step_h, cfg.alpha_limit * cfg.step_h))

    r_z, th_z, dl_z, vmax_z = params.T
    target = target_from_param(start.pose, r_z, th_z, dl_z)

    xs = np.empty((b, n + 1))
    ys = np.empty((b, n + 1))
    hs = np.empty((b, n + 1))
    vs = np.empty((b, n + 1))
    ws = np.empty((b, n + 1))
    xs[:, 0] = start.pose.x
    ys[:, 0] = start.pose.y
    hs[:, 0] = start.pose.heading
    vs[:, 0] = start.v
    ws[:, 0] = start.omega

    pose = Pose(xs[:, 0].copy(), ys[:, 0].copy(), hs[:, 0].copy())
    v_prev = vs[:, 0].copy()
    w_prev = ws[:, 0].copy()
    for i in range(1, n + 1):
        coords = egocentric_coords(pose, target)
        kappa = control_law_curvature(coords, gains)
        v = _velocity_modulation(kappa, vmax_z, coords.r, gains)
        w = kappa * v
        v = np.minimum(np.maximum(v, v_lo), v_hi)
        w = np.minimum(np.maximum(w, w_lo), w_hi)
        v = np.minimum(np.maximum(v, v_prev - dv), v_prev + dv)
        w = np.minimum(np.maximum(w, w_prev - dw), w_prev + dw)
        pose = advance_pose(pose, v, w, h)
        xs[:, i] = pose.x
        ys[:, i] = pose.y
        hs[:, i] = pose.heading
        vs[:, i] = v
        ws[:, i] = w
        v_prev, w_prev = v, w
    return xs, ys, hs, vs, ws


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
