"""Expected trajectory cost: baseline and distance+TTC ("ds") modes.

Per segment the cost combines progress toward the goal, actuation effort, and
a collision penalty, weighted by survivability (the running product of
per-segment non-collision probabilities). The ds mode scales the distance-
based collision probability by an anticipatory factor driven by
time-to-collision and adds a bounded terminal bonus in [-1, 0] that prefers
safe re-orientations, which is what resolves deadlocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Pose
from .kinematics import PlannerConfig, RobotState, Trajectory
from .world import (
    HorizonSnapshot,
    NavigationField,
    World,
    _time_to_collision_among,
    _ttc_assuming_clear,
    # unused here; bench/tracing.py wraps this name on the cost module
    distance_to_nearest_batch,  # noqa: F401
    time_to_collision,
)

BASELINE_MPEPC = "baseline_mpepc"
DS_MPEPC = "ds_mpepc"

# When the distance-based probability is below this, the anticipatory factor
# scales something negligible; the TTC query is skipped and recorded as +inf.
_P_C_SKIP = 1e-12


@dataclass(frozen=True)
class CostParams:
    """Weights and scales of the trajectory cost.

    sigma_d shapes the distance-based collision probability; `a` in [0, 1)
    limits how much a long time-to-collision can discount it. The w_* weights
    and c_collision set the progress/effort/collision trade-off;
    include_terminal exists so the terminal bonus can be ablated.
    """

    sigma_d: float = 0.2
    a: float = 0.7
    sigma_inv_ttc: float = 0.5
    sigma_inv_ttg: float = 1e-3
    w_progress: float = 5.0
    w_action_v: float = 0.02
    w_action_w: float = 0.02
    c_collision: float = 1.0
    mode: str = DS_MPEPC
    include_terminal: bool = True
    goal_tolerance: float = 0.3
    v_epsilon: float = 1e-3

    def __post_init__(self) -> None:
        if self.sigma_d <= 0:
            raise ValueError("sigma_d must be positive")
        if not 0.0 <= self.a < 1.0:
            raise ValueError("a must be in [0, 1)")
        if self.sigma_inv_ttc <= 0 or self.sigma_inv_ttg <= 0:
            raise ValueError("sigma_inv_ttc and sigma_inv_ttg must be positive")
        for name in ("w_progress", "w_action_v", "w_action_w", "c_collision"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.mode not in (BASELINE_MPEPC, DS_MPEPC):
            raise ValueError(f"unknown cost mode {self.mode!r}")
        if self.goal_tolerance <= 0 or self.v_epsilon <= 0:
            raise ValueError("goal_tolerance and v_epsilon must be positive")


@dataclass(frozen=True)
class SegmentEvaluation:
    """Hazard and cost terms of one trajectory segment.

    p_c is the collision probability effective in the evaluated mode (the
    modified one in ds mode); ttc is None in baseline mode. The j_* terms are
    stored unweighted by survivability.
    """

    index: int
    d_o: float
    d_g: float
    ttc: float | None
    p_c: float
    p_s: float
    j_progress: float
    j_action: float
    j_collision: float


@dataclass(frozen=True)
class TerminalEvaluation:
    """Terminal-state bonus: j_terminal = -p_s_N * C_TTG * C_TTC in [-1, 0]."""

    ttg: float
    ttc_terminal: float
    c_ttg: float
    c_ttc: float
    p_s_N: float
    j_terminal: float


@dataclass(frozen=True)
class CostBreakdown:
    """Per-segment evaluations, optional terminal evaluation, and the total."""

    segments: tuple[SegmentEvaluation, ...]
    terminal: TerminalEvaluation | None
    total: float


def collision_probability(d_o: float, params: CostParams) -> float:
    """Bell-shaped distance-based collision probability exp(-d_o^2 / sigma_d^2)."""
    if d_o < 0:
        raise ValueError("d_o must be >= 0")
    return math.exp(-(d_o * d_o) / (params.sigma_d * params.sigma_d))


def _inverse(value: float) -> float:
    """1/value with the exact conventions 1/inf = 0 and 1/0 = inf."""
    if value == 0.0:
        return math.inf
    if math.isinf(value):
        return 0.0
    return 1.0 / value


def anticipatory_factor(ttc: float, params: CostParams) -> float:
    """(1 - a * exp(-(1/ttc)^2 / sigma_inv_ttc^2)) in [1 - a, 1].

    Equals 1 exactly at ttc = 0 (contact: no discount) and 1 - a exactly at
    ttc = +inf (motion that never collides earns the full discount).
    """
    if ttc < 0:
        raise ValueError("ttc must be >= 0")
    inv = _inverse(ttc)
    sig = params.sigma_inv_ttc
    return 1.0 - params.a * math.exp(-(inv * inv) / (sig * sig))


def modified_collision_probability(d_o: float, ttc: float, params: CostParams) -> float:
    """Distance-based probability discounted by the anticipatory factor.

    Satisfies (1 - a) * p_c <= result <= p_c for every ttc.
    """
    return collision_probability(d_o, params) * anticipatory_factor(ttc, params)


def survivability(p_c_sequence) -> list[float]:
    """Running products prod_{k<=i} (1 - p_c_k); index 0 of the result is
    survivability after the first segment."""
    out = []
    p_s = 1.0
    for p_c in p_c_sequence:
        if not 0.0 <= p_c <= 1.0:
            raise ValueError("collision probabilities must lie in [0, 1]")
        p_s = p_s * (1.0 - p_c)
        out.append(p_s)
    return out


def expected_time_to_goal(terminal: RobotState, goal: tuple[float, float],
                          params: CostParams) -> float:
    """Distance to goal over the velocity component toward it.

    0 when already within goal_tolerance; +inf when the terminal state is
    (nearly) stopped or moving with no component toward the goal.
    """
    pose = terminal.pose
    return _time_to_goal(pose.x, pose.y, pose.heading, terminal.v, goal, params)


def _time_to_goal(x: float, y: float, heading: float, v: float,
                  goal: tuple[float, float], params: CostParams) -> float:
    dx = goal[0] - x
    dy = goal[1] - y
    d = math.hypot(dx, dy)
    if d <= params.goal_tolerance:
        return 0.0
    v_goal = v * (math.cos(heading) * dx + math.sin(heading) * dy) / d
    if v_goal > params.v_epsilon:
        return d / v_goal
    return math.inf


def terminal_ttc(terminal: RobotState, world: World, t_N: float, v_limit: float) -> float:
    """Time to collision if the robot drove from the terminal state at full
    speed along its terminal heading, with obstacles predicted from t_N."""
    velocity = (
        v_limit * math.cos(terminal.pose.heading),
        v_limit * math.sin(terminal.pose.heading),
    )
    return time_to_collision(world, (terminal.pose.x, terminal.pose.y), velocity, t_N)


def terminal_bonus(p_s_N: float, ttg: float, ttc: float,
                   params: CostParams) -> tuple[float, float, float]:
    """(C_TTG, C_TTC, j_terminal) with j_terminal = -p_s_N * C_TTG * C_TTC.

    Both C factors reach 1 exactly at infinite TTG/TTC, so the -1 bound is
    attainable; j_terminal is exactly 0 whenever p_s_N is 0.
    """
    if not 0.0 <= p_s_N <= 1.0:
        raise ValueError("p_s_N must lie in [0, 1]")
    inv_g = _inverse(ttg)
    inv_c = _inverse(ttc)
    c_ttg = math.exp(-(inv_g * inv_g) / (params.sigma_inv_ttg * params.sigma_inv_ttg))
    c_ttc = math.exp(-(inv_c * inv_c) / (params.sigma_inv_ttc * params.sigma_inv_ttc))
    if p_s_N == 0.0:
        return (c_ttg, c_ttc, 0.0)
    return (c_ttg, c_ttc, -(p_s_N * c_ttg * c_ttc))


def terminal_cost(terminal: RobotState, p_s_N: float, goal: tuple[float, float],
                  world: World, params: CostParams, v_limit: float) -> TerminalEvaluation:
    """Evaluate the terminal bonus at a trajectory's last state."""
    ttg = expected_time_to_goal(terminal, goal, params)
    ttc = terminal_ttc(terminal, world, terminal.t, v_limit)
    c_ttg, c_ttc, j_term = terminal_bonus(p_s_N, ttg, ttc, params)
    return TerminalEvaluation(
        ttg=ttg, ttc_terminal=ttc, c_ttg=c_ttg, c_ttc=c_ttc,
        p_s_N=p_s_N, j_terminal=j_term,
    )


def _goal_xy(goal) -> tuple[float, float]:
    if isinstance(goal, Pose):
        return (goal.x, goal.y)
    return (float(goal[0]), float(goal[1]))


class CostKernel:
    """Float-only trajectory cost of one planning problem.

    Everything shared by the problem's candidates is prepared once: the
    navigation field, the obstacles predicted at the step times `ts`
    (`snapshot`), the weights and the planner config. `score` then evaluates
    one rollout given as plain float lists (`kinematics.rollout_floats`)
    without building any per-state or per-segment object. `plan()` builds one
    kernel per problem: its vectorized sweep (`_batch.evaluate_batch`) reads
    the kernel's goal, weights, field and snapshot, and its refinement scores
    through `score`. `trajectory_cost` wraps `score` too, so there is one
    scalar cost implementation and the totals of both are bit-identical.
    """

    def __init__(self, world: World, goal, params: CostParams, cfg: PlannerConfig,
                 ts: list[float], nav: NavigationField | None = None):
        self.world = world
        self.goal = _goal_xy(goal)
        self.nav = NavigationField(world.grid, self.goal) if nav is None else nav
        self.params = params
        self.cfg = cfg
        self.snapshot = HorizonSnapshot(world, ts)

    def score(self, xs, ys, hs, vs, ws, segments: list | None = None):
        """(total, terminal) of the rollout with these states at the step times.

        Segment hazards are evaluated at both endpoints against obstacles
        predicted at the matching times; the closer endpoint defines the
        segment's d_o, and its TTC feeds the anticipatory factor (so an
        in-contact endpoint forces probability 1 exactly). Baseline mode uses
        the distance-only probability and no terminal term. `terminal` is
        (ttg, ttc_terminal, c_ttg, c_ttc, p_s_N, j_terminal), or None without
        a terminal term. When `segments` is a list, one (d_o, d_g, ttc, p_c,
        p_s, j_progress, j_action) tuple per segment is appended to it.
        """
        params = self.params
        world = self.world
        obstacles = self.snapshot.obstacles
        xa = np.array(xs)
        ya = np.array(ys)
        nf = self.nav.distance_batch(xa, ya).tolist()
        point_d = self.snapshot.clearance(xa, ya).tolist()

        ds_mode = params.mode == DS_MPEPC
        sig_d2 = params.sigma_d * params.sigma_d
        sig_c2 = params.sigma_inv_ttc * params.sigma_inv_ttc
        a = params.a
        w_progress, w_v, w_w = params.w_progress, params.w_action_v, params.w_action_w
        j_collision = params.c_collision
        h = self.cfg.step_h
        exp, cos, sin, inf = math.exp, math.cos, math.sin, math.inf
        ttc_point = -1
        point_ttc = 0.0
        ttc = None
        p_s = 1.0
        total = 0.0
        # collision_probability and anticipatory_factor are inlined for speed;
        # a unit test pins the segment p_c to them exactly.
        for i in range(1, len(xs)):
            j = i - 1 if point_d[i - 1] <= point_d[i] else i
            d_o = point_d[j]
            p_c = exp(-(d_o * d_o) / sig_d2)
            if ds_mode:
                if p_c < _P_C_SKIP:
                    ttc = inf
                else:
                    # consecutive segments can share an endpoint, never more
                    if j != ttc_point:
                        ttc_point = j
                        if d_o <= 0.0:
                            point_ttc = 0.0
                        else:
                            v, heading = vs[j], hs[j]
                            point_ttc = _ttc_assuming_clear(
                                world, xs[j], ys[j], v * cos(heading), v * sin(heading),
                                obstacles[j],
                            )
                    ttc = point_ttc
                # anticipatory factor, with 1/0 = inf and 1/inf = 0 exactly
                inv = inf if ttc == 0.0 else (0.0 if ttc == inf else 1.0 / ttc)
                p_c = p_c * (1.0 - a * exp(-(inv * inv) / sig_c2))
            p_s = p_s * (1.0 - p_c)
            j_progress = w_progress * (nf[i] - nf[i - 1])
            j_action = h * (w_v * vs[i] ** 2 + w_w * ws[i] ** 2)
            total += p_s * j_progress + j_action + (1.0 - p_s) * j_collision
            if segments is not None:
                segments.append((d_o, nf[i], ttc, p_c, p_s, j_progress, j_action))

        terminal = None
        if ds_mode and params.include_terminal:
            n = len(xs) - 1
            x, y, heading = xs[n], ys[n], hs[n]
            ttg = _time_to_goal(x, y, heading, vs[n], self.goal, params)
            v_limit = self.cfg.v_limit
            ttc_n = _time_to_collision_among(
                world, x, y, v_limit * cos(heading), v_limit * sin(heading), obstacles[n],
            )
            c_ttg, c_ttc, j_term = terminal_bonus(p_s, ttg, ttc_n, params)
            total += j_term
            terminal = (ttg, ttc_n, c_ttg, c_ttc, p_s, j_term)
        return total, terminal


def trajectory_cost(
    traj: Trajectory,
    goal,
    world: World,
    params: CostParams,
    cfg: PlannerConfig,
    nav: NavigationField | None = None,
) -> CostBreakdown:
    """Evaluate a rolled-out trajectory under the configured cost mode.

    Scores the trajectory's states through a `CostKernel` built for its
    timestamps (see `CostKernel.score` for the model) and wraps the result
    into per-segment and terminal breakdown objects.
    """
    states = traj.states
    if len(states) < 2:
        raise ValueError("trajectory must contain at least two states")
    xs = [s.pose.x for s in states]
    ys = [s.pose.y for s in states]
    if not all(map(math.isfinite, xs + ys)):
        raise ValueError("trajectory contains non-finite states")
    kernel = CostKernel(world, goal, params, cfg, [s.t for s in states], nav)
    rows: list = []
    total, terminal = kernel.score(
        xs, ys, [s.pose.heading for s in states], [s.v for s in states],
        [s.omega for s in states], rows,
    )
    segments = tuple(
        SegmentEvaluation(
            index=i, d_o=d_o, d_g=d_g, ttc=ttc, p_c=p_c, p_s=p_s,
            j_progress=j_progress, j_action=j_action, j_collision=params.c_collision,
        )
        for i, (d_o, d_g, ttc, p_c, p_s, j_progress, j_action) in enumerate(rows, 1)
    )
    return CostBreakdown(
        segments=segments,
        terminal=None if terminal is None else TerminalEvaluation(*terminal),
        total=total,
    )
