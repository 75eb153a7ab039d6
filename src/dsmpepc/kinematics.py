"""The motion model: egocentric coordinates, the smooth pose-following
control law, velocity modulation and the closed-loop rollout of a
differential-drive robot.

The planner steers the robot toward a target pose by expressing the target
in an egocentric frame (r, theta, delta): distance to the target, target
heading relative to the line of sight, and robot heading relative to the
line of sight. A nonlinear feedback law maps that frame to a path
curvature; a modulation rule maps curvature and target distance to a
linear velocity. All angles are radians wrapped to (-pi, pi]. A candidate
trajectory is fully determined by a 4D parameter (r, theta, delta, v_max):
the target pose it encodes acts as an attractor under the control law, and
the rollout simulates the closed loop over the receding horizon with
velocity and acceleration limits applied.

Each formula is written once, as an array kernel (`_wrap_into`,
`_egocentric_into`, `_curvature_into`, `_speed_into` and the arc step
`_advance_into`) that writes its result and its intermediates into arrays
the caller owns, taken from a `_Workspace`: the arrays and row views of
one shape. `rollout_batch` calls the kernels on a whole batch of rollouts
per step, with one workspace made per call for all its steps. With the
curvature and rate-limit arrays beside it and the per-step views of the
state buffers, all made before the first step, no step allocates an array
or builds a view or a `Pose`. A step hands the next the sine and cosine of
the heading it turned to, so that only the first step takes the trig of
the heading it starts from, and it wraps the turned heading only when some
row's has left (-pi, pi); a row that crossed takes its sine and cosine
anew. The workspace is dropped when the call returns, and the arrays the
call returns are copies that own their data.

The public functions (`wrap_angle`, `egocentric_coords`,
`control_law_curvature`, `velocity_modulation`, `advance_pose`) are thin
wrappers that take floats or numpy arrays (elementwise, broadcasting) and
run the same kernels on scratch of their own; a float input gives a float
(numpy's float64). A branch that only a few rows take (a target within
R_EPSILON, the -pi boundary of the wrap, a straight step) is written into
its rows with `np.copyto(..., where=mask)`, and its extra work runs only
when a row takes it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Below this target distance the line of sight is undefined; the curvature
# is clamped instead of dividing by ~0.
R_EPSILON = 1e-6
KAPPA_MAX = 20.0

# Linear slowdown radius: v scales with min(1, r / R_SLOWDOWN) so trajectories
# terminate at rest at the target. 0.5 m keeps worst-case convergence of the
# closed loop from tight start poses under a minute.
R_SLOWDOWN = 0.5

# Angular rates below this are integrated as straight-line motion.
OMEGA_STRAIGHT = 1e-9

# The most steps a planner horizon may hold: 40 times the default 25. A
# rollout batch keeps several (steps + 1, 2, batch) arrays, so a horizon of
# millions of steps would ask for tens of GB.
MAX_HORIZON_STEPS = 1000


# As 0-d arrays, constants reach numpy's loops without the conversion of a
# Python float that every operation would otherwise repeat.
_TAU, _PI, _MINUS_PI = np.array(math.tau), np.array(math.pi), np.array(-math.pi)
_ONE = np.array(1.0)
_R_EPSILON, _R_SLOWDOWN = np.array(R_EPSILON), np.array(R_SLOWDOWN)
_KAPPA_MAX, _MINUS_KAPPA_MAX = np.array(KAPPA_MAX), np.array(-KAPPA_MAX)
_OMEGA_STRAIGHT = np.array(OMEGA_STRAIGHT)


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
    """The arrays the kernels write, for one shape; each (2, ...) pair
    comes with its rows, as views made here.

    `_egocentric_into` writes the egocentric coordinates into `r` and
    `angles` (rows `theta`, `delta`) and the mask of targets within
    R_EPSILON into `near`. The rest is scratch, dead once its kernel
    returns: `offset` (rows `offset_x`, `offset_y`), the wrap's `turns` and
    `beyond` (with their first rows, for a single row of angles), `tmp_a`
    and `tmp_b` for the kernels that take scratch arrays, and the arc
    step's masks `straight` (straight rows) and `crossed` (rows whose
    turned heading left (-pi, pi)) and pairs `radius` (rows `radius_x`,
    `radius_y`) and `chord` (rows `chord_x`, `chord_y`).
    """

    __slots__ = ("r", "angles", "theta", "delta", "near", "offset", "offset_x", "offset_y",
                 "turns", "turns_row", "beyond", "beyond_row", "tmp_a", "tmp_b",
                 "straight", "crossed", "radius", "radius_x", "radius_y", "chord", "chord_x",
                 "chord_y")

    def __init__(self, shape):
        pair = (2,) + shape
        self.r, self.tmp_a, self.tmp_b = (np.empty(shape) for _ in range(3))
        self.near, self.straight, self.crossed = (np.empty(shape, dtype=bool)
                                                  for _ in range(3))
        self.angles, self.offset, self.turns, self.radius, self.chord = (
            np.empty(pair) for _ in range(5))
        self.beyond = np.empty(pair, dtype=bool)
        self.theta, self.delta = self.angles
        self.offset_x, self.offset_y = self.offset
        self.turns_row, self.beyond_row = self.turns[0], self.beyond[0]
        self.radius_x, self.radius_y = self.radius
        self.chord_x, self.chord_y = self.chord


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
        # One bound per gain, past what steers a ground robot, and low enough
        # that a rollout stays finite with all four at theirs: |kappa| is at
        # most (1.5 pi k2 + 1 + k1) / R_EPSILON < 6e8 1/m, so
        # beta |kappa|^lambda < 1e90.
        for name, bound in (
                # atan(-k1 theta) is then within 0.1 rad of +-pi/2 once
                # |theta| > 0.1 rad; more only sharpens it below that
                ("k1", 100.0),
                # the heading then meets the line of sight within r / k2 of
                # travel: 1 cm at 1 m
                ("k2", 100.0),
                # an arc of 1 m radius then runs at 1 % of v_max
                ("curvature_beta", 100.0),
                # the slowdown is then a step at |kappa| = 1 1/m
                ("curvature_lambda", 10.0)):
            if getattr(self, name) > bound:
                raise ValueError(f"{name} must be at most {bound:g}")


def _egocentric_into(position, target, headings, heading, work):
    """`egocentric_coords` of targets from robots into the workspace
    `work`: r into `work.r` and (theta, delta) into `work.angles`, which are
    taken in one subtraction and wrapped in one pass. `position` and
    `target` stack the x and y arrays and `headings` the target's and the
    robot's heading, (2, ...) each, and `heading` is the robot's row of
    `headings`; the trailing shape is the shape of `work`. Returns the mask of rows with r < R_EPSILON (`work.near`), or
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
    np.subtract(headings, los, out=work.angles)
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
    headings = np.stack((th, heading))
    _egocentric_into(np.stack((x, y)), np.stack((tx, ty)), headings, headings[1], work)
    return EgocentricCoords(*(_unshaped(a, shape) for a in (work.r, work.theta, work.delta)))


def target_from_param(robot: Pose, r, theta, delta) -> Pose:
    """Inverse of `egocentric_coords`: world-frame target pose for (r, theta, delta).

    Raises ValueError for a negative or NaN r.
    """
    if not (np.asarray(r) >= 0.0).all():
        raise ValueError("r must be >= 0")
    los = wrap_angle(robot.heading - delta)
    return Pose(
        x=robot.x + r * np.cos(los),
        y=robot.y + r * np.sin(los),
        heading=wrap_angle(los + theta),
    )


def _curvature_into(r, theta, delta, near, minus_k1, k2, out, k1_theta, t):
    """`control_law_curvature` into `out`; `near` is the mask of rows with
    r < R_EPSILON or None (`_egocentric_into`), minus_k1 and k2 the gains
    -k1 and k2, and `k1_theta` and `t` scratch arrays of the shape of
    `out`."""
    # rounding is symmetric under negation, so -k1*theta is exactly the
    # negated k1*theta, its square is exactly k1*theta's, and
    # 1 - (-k1)/(...) is exactly 1 + k1/(...): this builds -[...] directly
    np.multiply(minus_k1, theta, out=k1_theta)
    np.arctan(k1_theta, out=t)
    np.subtract(t, delta, out=t)
    np.multiply(k2, t, out=out)
    np.multiply(k1_theta, k1_theta, out=k1_theta)
    np.add(_ONE, k1_theta, out=k1_theta)
    np.divide(minus_k1, k1_theta, out=k1_theta)
    np.subtract(_ONE, k1_theta, out=k1_theta)
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
                            np.array(-gains.k1), np.array(gains.k2),
                            *(np.empty_like(r) for _ in range(3)))
    return _unshaped(kappa, shape)


def velocity_modulation(kappa, z_vmax, r, gains: ControlGains):
    """Linear velocity command in [0, z_vmax].

    Velocity drops on high-curvature arcs, 1/(1 + beta*|kappa|^lambda), and
    linearly inside R_SLOWDOWN of the target so the robot arrives at rest.
    Raises ValueError for a negative or NaN z_vmax.
    """
    if not (np.asarray(z_vmax) >= 0.0).all():
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


def whole_steps(span: float, step_h: float, name: str) -> int:
    """The number of steps of `step_h` in `span`, the field `name` (a
    rollout's `horizon_T`, a run's `duration`): a whole number, within 1e-9
    of a step, and at least one. Raises a ValueError that names the field."""
    n = span / step_h
    if not math.isfinite(n):
        raise ValueError(f"{name}: {span:g} s is not a finite number of "
                         f"step_h {step_h:g} s steps")
    steps = round(n)
    if abs(n - steps) > 1e-9:
        raise ValueError(f"{name}: {span:g} s is not an integer multiple "
                         f"of step_h {step_h:g} s")
    if steps < 1:
        raise ValueError(f"{name}: {span:g} s is shorter than one "
                         f"step_h {step_h:g} s")
    return steps


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
        steps = whole_steps(self.horizon_T, self.step_h, "horizon_T")
        if steps > MAX_HORIZON_STEPS:
            raise ValueError(f"horizon_T: {self.horizon_T:g} s is {steps} steps of step_h "
                             f"{self.step_h:g} s, more than MAX_HORIZON_STEPS "
                             f"({MAX_HORIZON_STEPS})")
        if not math.isfinite(self.r_max):
            raise ValueError(f"v_limit {self.v_limit:g} m/s times horizon_T "
                             f"{self.horizon_T:g} s overflows r_max")
        # One bound per limit, past what a ground robot reaches
        for name, bound in (
                ("v_limit", 100.0),  # m/s: 360 km/h
                ("omega_limit", 100.0),  # rad/s: 16 turns a second
                ("accel_limit", 100.0),  # m/s^2: 10 g, where tyres grip at about 1 g
                ("alpha_limit", 1000.0)):  # rad/s^2: from rest to 100 rad/s in 0.1 s
            if getattr(self, name) > bound:
                raise ValueError(f"{name} must be at most {bound:g}")
        # A microsecond is shorter than any robot's control cycle. Above it a
        # turning row's omega h (|omega| >= OMEGA_STRAIGHT) is never 0, so
        # the rollout's turned headings are never -0.0 (`_advance_into`)
        if self.step_h < 1e-6:
            raise ValueError("step_h must be at least 1e-06")
        # a long horizon can still reach an r_max that the speed's slowdown
        # (r / R_SLOWDOWN, `_speed_into`) overflows
        if not math.isfinite(self.r_max / R_SLOWDOWN):
            raise ValueError(f"v_limit {self.v_limit:g} m/s times horizon_T "
                             f"{self.horizon_T:g} s is an r_max that overflows "
                             f"r / R_SLOWDOWN")

    @property
    def n_steps(self) -> int:
        return whole_steps(self.horizon_T, self.step_h, "horizon_T")

    @property
    def r_max(self) -> float:
        """Largest useful target distance: beyond reach the landscape is flat."""
        return self.v_limit * self.horizon_T + 5.0


@dataclass(frozen=True)
class Trajectory:
    """N+1 states at t = t0, t0+h, ..., t0+N*h plus the parameter that
    generated them."""

    states: tuple[RobotState, ...]
    param: TrajectoryParam

    def __len__(self) -> int:
        return len(self.states)

    @property
    def terminal(self) -> RobotState:
        return self.states[-1]


def _advance_into(position, heading, trig0, v, omega, dt, position1, heading1, trig1, work):
    """`advance_pose` into (position1, heading1) with the scratch of the
    `_Workspace` `work`: `position` and `position1` stack the x and y
    arrays, (2, ...); `trig0` is the (2, ...) pair (sin, cos) of `heading`
    followed by its two rows; the other arrays have the trailing shape, the
    shape of `work`, and no output shares memory with an input.

    Writes (sin, cos) of `heading1` into `trig1`, a pair with its rows as
    `trig0`, so that a rollout's next step takes them as its `trig0` and
    computes no trig of the heading it starts from. The turned heading is
    written into `heading1` and wrapped only when some row has |h| >= pi:
    below that `wrap_angle` returns it as it is, except -0.0, which it
    makes +0.0. A straight row keeps its heading and its pair, and a
    turning row turns to -0.0 only when omega dt underflows to -0.0, which
    takes a `dt` below 3e-315 (a `PlannerConfig`'s step_h is at least
    1e-6). A row that crossed takes its pair anew.
    """
    pair0, sin0, cos0 = trig0
    pair1, sin1, cos1 = trig1
    straight, scratch = work.straight, work.tmp_a
    np.absolute(omega, out=scratch)
    np.less(scratch, _OMEGA_STRAIGHT, out=straight)
    any_straight = np.count_nonzero(straight)
    np.multiply(omega, dt, out=heading1)
    np.add(heading, heading1, out=heading1)
    # (radius, -radius); a straight row divides by 1 and is overwritten below
    radius, radius_x, radius_y = work.radius, work.radius_x, work.radius_y
    if any_straight:
        np.copyto(radius_y, omega)
        np.copyto(radius_y, _ONE, where=straight)
        np.divide(v, radius_y, out=radius_x)
    else:
        np.divide(v, omega, out=radius_x)
    np.negative(radius_x, out=radius_y)
    # x + radius * (sin h1 - sin h0) and y - radius * (cos h1 - cos h0), the
    # latter as y + -radius * (...), which rounds the same; the step is
    # built in chord
    chord = work.chord
    np.sin(heading1, out=sin1)
    np.cos(heading1, out=cos1)
    np.subtract(pair1, pair0, out=chord)
    np.multiply(radius, chord, out=chord)
    np.add(position, chord, out=position1)
    np.absolute(heading1, out=scratch)
    crossed = np.greater_equal(scratch, _PI, out=work.crossed)
    if np.count_nonzero(crossed):
        _wrap_into(heading1, heading1, work.turns_row, work.beyond_row)
        np.sin(heading1, out=sin1, where=crossed)
        np.cos(heading1, out=cos1, where=crossed)
    if any_straight:
        # the straight step (v dt cos h0, v dt sin h0), again built in chord
        np.multiply(v, dt, out=radius_x)
        np.multiply(radius_x, cos0, out=work.chord_x)
        np.multiply(radius_x, sin0, out=work.chord_y)
        np.add(position, chord, out=chord)
        np.copyto(position1, chord, where=straight)
        np.copyto(heading1, heading, where=straight)
        np.copyto(pair1, pair0, where=straight)


def advance_pose(pose: Pose, v, omega, dt: float) -> Pose:
    """Advance a unicycle pose by one step of constant (v, omega).

    Exact arc integration: for |omega| >= OMEGA_STRAIGHT the pose moves along
    the circle of radius v/omega, otherwise along a straight segment. The
    chord length never exceeds |v|*dt. Takes floats or arrays, like the
    other formulas of the model.
    """
    (x, y, heading, v, omega), shape = _arrays(pose.x, pose.y, pose.heading, v, omega)
    position1 = np.empty((2,) + x.shape)
    heading1 = np.empty_like(x)
    trig0 = np.stack((np.sin(heading), np.cos(heading)))
    trig1 = np.empty_like(trig0)
    _advance_into(np.stack((x, y)), heading, (trig0, *trig0), v, omega,
                  np.array(dt, dtype=float), position1, heading1, (trig1, *trig1),
                  _Workspace(x.shape))
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
    rate-limited, and one exact arc step (`advance_pose`). The arc step
    hands the next step the sine and cosine of the heading it wrote, and
    wraps the headings only when some row's turned heading has left
    (-pi, pi), which leaves every other row's as it was. So every operation
    is elementwise, and a row does not depend on the rest of the batch.
    """
    b = params.shape[0]
    n = cfg.n_steps
    gains = cfg.gains
    # 0-d arrays, like the module's constants: numpy takes them as they are
    # instead of converting a Python float on every step
    h, minus_k1, k2, beta, lam = (np.array(c) for c in (
        cfg.step_h, -gains.k1, gains.k2, gains.curvature_beta, gains.curvature_lambda))
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

    # One row per step: step i reads row i-1 and writes row i in place. Each
    # heading row sits below a copy of the target headings, so that theta
    # and delta are one subtraction.
    xys = np.empty((n + 1, 2, b))
    hs = np.empty((n + 1, 2, b))
    vws = np.empty((n + 1, 2, b))
    xys[0, 0] = start.pose.x
    xys[0, 1] = start.pose.y
    hs[:, 0] = target.heading
    hs[0, 1] = start.pose.heading
    vws[0, 0] = start.v
    vws[0, 1] = start.omega
    # the workspace of every step, and each step's rows, made once
    work = _Workspace((b,))
    r, theta, delta, tmp_a, tmp_b = work.r, work.theta, work.delta, work.tmp_a, work.tmp_b
    kappa = np.empty(b)
    bound = np.empty((2, b))
    xy, headings, hd, vw = list(xys), list(hs), list(hs[:, 1]), list(vws)
    v_rows, w_rows = list(vws[:, 0]), list(vws[:, 1])
    # (sin, cos) of the heading a step starts from, handed on by the step
    # before, each pair with its rows; the two swap roles every step
    trig0, trig1 = ((pair, *pair) for pair in np.empty((2, 2, b)))
    np.sin(hd[0], out=trig0[1])
    np.cos(hd[0], out=trig0[2])
    for i in range(1, n + 1):
        near = _egocentric_into(xy[i - 1], target_xy, headings[i - 1], hd[i - 1], work)
        _curvature_into(r, theta, delta, near, minus_k1, k2, kappa, tmp_a, tmp_b)
        vw1, v, w = vw[i], v_rows[i], w_rows[i]
        _speed_into(kappa, vmax_z, r, beta, lam, v, tmp_a)
        np.multiply(kappa, v, out=w)
        np.maximum(vw1, minus_limit, out=vw1)
        np.minimum(vw1, limit, out=vw1)
        np.subtract(vw[i - 1], rate, out=bound)
        np.maximum(vw1, bound, out=vw1)
        np.add(vw[i - 1], rate, out=bound)
        np.minimum(vw1, bound, out=vw1)
        _advance_into(xy[i - 1], hd[i - 1], trig0, v, w, h, xy[i], hd[i], trig1, work)
        trig0, trig1 = trig1, trig0
    xs, ys = xys.transpose(1, 2, 0).copy()
    vs, ws = vws.transpose(1, 2, 0).copy()
    return xs, ys, hs[:, 1].T.copy(), vs, ws


def trajectory(start: RobotState, z: TrajectoryParam, cfg: PlannerConfig,
               xs, ys, hs, vs, ws) -> Trajectory:
    """The Trajectory of one rollout row (`rollout_batch`) of `z` from `start`."""
    ts = step_times(start.t, cfg)
    xs, ys, hs, vs, ws = (np.asarray(a).tolist() for a in (xs, ys, hs, vs, ws))
    states = [start] + [
        RobotState(pose=Pose(xs[i], ys[i], hs[i]), v=vs[i], omega=ws[i], t=ts[i])
        for i in range(1, len(ts))
    ]
    return Trajectory(states=tuple(states), param=z)


def rollout(start: RobotState, z: TrajectoryParam, cfg: PlannerConfig) -> Trajectory:
    """Simulate the closed loop from `start` under parameter `z` for the horizon.

    A batch of one through `rollout_batch`, so it returns exactly the states
    the planner scored for `z`: cfg.n_steps + 1 states with strictly
    increasing timestamps. Raises ValueError for a non-finite start state
    or parameter and for a negative r or v_max, which the model excludes.
    """
    if not start.is_finite():
        raise ValueError("rollout requires a finite start state")
    if not (all(map(math.isfinite, z.as_tuple())) and z.v_max >= 0.0):
        raise ValueError("rollout requires a finite parameter with v_max >= 0")
    rows = rollout_batch(start, np.array([z.as_tuple()], dtype=float), cfg)
    return trajectory(start, z, cfg, *(a[0] for a in rows))
