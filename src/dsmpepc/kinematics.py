"""Closed-loop trajectory rollout for a differential-drive robot.

A candidate trajectory is fully determined by a 4D parameter
(r, theta, delta, v_max): the target pose it encodes acts as an attractor
under the smooth control law, and the rollout simulates the closed loop over
the receding horizon with velocity and acceleration limits applied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .geometry import (
    KAPPA_MAX,
    R_EPSILON,
    R_SLOWDOWN,
    ControlGains,
    Pose,
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


def advance_pose(pose: Pose, v: float, omega: float, dt: float) -> Pose:
    """Advance a unicycle pose by one step of constant (v, omega).

    Exact arc integration: for |omega| >= OMEGA_STRAIGHT the pose moves along
    the circle of radius v/omega, otherwise along a straight segment. The
    chord length never exceeds |v|*dt.
    """
    if abs(omega) < OMEGA_STRAIGHT:
        return Pose(
            x=pose.x + v * dt * math.cos(pose.heading),
            y=pose.y + v * dt * math.sin(pose.heading),
            heading=pose.heading,
        )
    radius = v / omega
    h0 = pose.heading
    h1 = h0 + omega * dt
    return Pose(
        x=pose.x + radius * (math.sin(h1) - math.sin(h0)),
        y=pose.y - radius * (math.cos(h1) - math.cos(h0)),
        heading=wrap_angle(h1),
    )


def step_times(t0: float, cfg: PlannerConfig) -> list[float]:
    """Timestamps t0, t0+h, ..., t0+N*h of a rollout's N+1 states."""
    h = cfg.step_h
    return [t0] + [t0 + i * h for i in range(1, cfg.n_steps + 1)]


def rollout_floats(start: RobotState, z: TrajectoryParam, cfg: PlannerConfig):
    """The closed-loop rollout as plain floats, with no per-step objects.

    Returns (target, xs, ys, headings, vs, omegas): N+1-element lists whose
    index 0 is the start state; timestamps are `step_times(start.t, cfg)`.
    The start state is not validated here (`rollout` does that).

    The target pose is fixed in the world frame at the start. Each step
    recomputes the egocentric coordinates, applies the control law and the
    velocity modulation, clamps (v, omega) to the configured limits,
    rate-limits their change, and advances the pose one exact arc step.
    The loop body inlines the geometry helpers for speed; it must stay
    arithmetic-identical to composing them (pinned by a unit test).
    """
    target = target_from_param(start.pose, z.r, z.theta, z.delta)
    h = cfg.step_h
    dv = cfg.accel_limit * h
    dw = cfg.alpha_limit * h
    gains = cfg.gains
    k1, k2 = gains.k1, gains.k2
    beta, lam = gains.curvature_beta, gains.curvature_lambda
    v_limit, w_limit = cfg.v_limit, cfg.omega_limit
    tx, ty, th_target = target.x, target.y, target.heading
    r_eps, kappa_max, r_slow = R_EPSILON, KAPPA_MAX, R_SLOWDOWN
    z_vmax = z.v_max
    remainder, tau, pi = math.remainder, math.tau, math.pi
    atan2, atan, sin, cos, hypot = math.atan2, math.atan, math.sin, math.cos, math.hypot

    x, y, heading = start.pose.x, start.pose.y, start.pose.heading
    v_prev = start.v
    w_prev = start.omega
    xs, ys, hs, vs, ws = [x], [y], [heading], [v_prev], [w_prev]
    for _ in range(cfg.n_steps):
        dx = tx - x
        dy = ty - y
        r = hypot(dx, dy)
        los = heading if r < r_eps else atan2(dy, dx)
        theta = remainder(th_target - los, tau)
        if theta <= -pi:
            theta = pi
        delta = remainder(heading - los, tau)
        if delta <= -pi:
            delta = pi
        bracket = k2 * (delta - atan(-k1 * theta))
        bracket += (1.0 + k1 / (1.0 + (k1 * theta) ** 2)) * sin(delta)
        if r < r_eps:
            kappa = -bracket / r_eps
            if kappa > kappa_max:
                kappa = kappa_max
            elif kappa < -kappa_max:
                kappa = -kappa_max
        else:
            kappa = -bracket / r
        v_cmd = z_vmax / (1.0 + beta * abs(kappa) ** lam)
        slow = r / r_slow
        if slow < 1.0:
            v_cmd = v_cmd * slow
        w_cmd = kappa * v_cmd
        if v_cmd > v_limit:
            v_cmd = v_limit
        elif v_cmd < -v_limit:
            v_cmd = -v_limit
        if w_cmd > w_limit:
            w_cmd = w_limit
        elif w_cmd < -w_limit:
            w_cmd = -w_limit
        lo = v_prev - dv
        hi = v_prev + dv
        v = lo if v_cmd < lo else (hi if v_cmd > hi else v_cmd)
        lo = w_prev - dw
        hi = w_prev + dw
        w = lo if w_cmd < lo else (hi if w_cmd > hi else w_cmd)
        if abs(w) < OMEGA_STRAIGHT:
            x = x + v * h * cos(heading)
            y = y + v * h * sin(heading)
        else:
            radius = v / w
            h1 = heading + w * h
            x = x + radius * (sin(h1) - sin(heading))
            y = y - radius * (cos(h1) - cos(heading))
            heading = remainder(h1, tau)
            if heading <= -pi:
                heading = pi
        xs.append(x)
        ys.append(y)
        hs.append(heading)
        vs.append(v)
        ws.append(w)
        v_prev, w_prev = v, w
    return target, xs, ys, hs, vs, ws


def rollout(start: RobotState, z: TrajectoryParam, cfg: PlannerConfig) -> Trajectory:
    """Simulate the closed loop from `start` under parameter `z` for the horizon.

    Wraps `rollout_floats`, the float-only rollout that the planner's
    refinement scores without building any state, into state objects.
    Returns cfg.n_steps + 1 states with strictly increasing timestamps,
    bit-identical to the floats the planner scored.
    """
    if not start.is_finite():
        raise ValueError("rollout requires a finite start state")
    target, xs, ys, hs, vs, ws = rollout_floats(start, z, cfg)
    ts = step_times(start.t, cfg)
    states = [start] + [
        RobotState(pose=Pose(xs[i], ys[i], hs[i]), v=vs[i], omega=ws[i], t=ts[i])
        for i in range(1, len(xs))
    ]
    return Trajectory(states=tuple(states), param=z, target=target)
