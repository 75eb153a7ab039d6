"""Expected trajectory cost: baseline and distance+TTC ("ds") modes.

Per segment the cost combines progress toward the goal, actuation effort, and
a collision penalty, weighted by survivability (the running product of
per-segment non-collision probabilities). The ds mode scales the distance-
based collision probability by an anticipatory factor driven by
time-to-collision and adds a bounded terminal bonus in [-1, 0] that prefers
safe re-orientations, which is what resolves deadlocks.

Each formula is written once, as a guard-free array core
(`_collision_probability`, `_anticipatory_factor`, `_survivability`,
`_time_to_goal`, `_terminal_bonus`, built on `_bell`). Its public function
(`collision_probability`, `anticipatory_factor`, `survivability`,
`expected_time_to_goal`, `terminal_bonus`) checks the arguments whose
domain the formula restricts, so that a negative or NaN distance, TTC or
TTG and a probability outside [0, 1] are a ValueError, and runs the core
under `np.errstate`. The formulas reach
their limits through exact float extremes (1/0 = inf, 1/inf = 0,
exp(-inf) = 0, overflow to inf, a 0/0 that a mask discards), which are not
errors. `CostKernel.evaluate` calls the cores on the arrays it builds
itself, inside one `np.errstate`, without re-checking them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .kinematics import PlannerConfig, Pose, RobotState, Trajectory, step_times
from .world import HorizonSnapshot, NavigationField, World, time_to_collision
# unused here; bench/tracing.py wraps these names on the cost module
from .world import distance_to_nearest_batch  # noqa: F401
_ttc_assuming_clear = HorizonSnapshot.ttc

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
        # written so that NaN fails every check
        for name in ("sigma_d", "sigma_inv_ttc", "sigma_inv_ttg", "goal_tolerance",
                     "v_epsilon"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        # _bell divides by the square, which must neither underflow to 0
        # nor overflow to inf, or exact contact values turn to NaN
        for name in ("sigma_d", "sigma_inv_ttc", "sigma_inv_ttg"):
            sigma = getattr(self, name)
            if not 0 < sigma * sigma < math.inf:
                raise ValueError(f"{name} squared must be positive and finite")
        if not 0.0 <= self.a < 1.0:
            raise ValueError("a must be in [0, 1)")
        for name in ("w_progress", "w_action_v", "w_action_w", "c_collision"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0")
        if self.mode not in (BASELINE_MPEPC, DS_MPEPC):
            raise ValueError(f"unknown cost mode {self.mode!r}")


# The floating-point state of the formulas' cores (see the module docstring).
# The public functions take floats or numpy arrays (elementwise,
# broadcasting); a float input gives a float (numpy's float64).
_EXTREMES = {"divide": "ignore", "over": "ignore", "invalid": "ignore"}


def _nonnegative(x) -> bool:
    """Whether every value is >= 0 (NaN is not)."""
    return bool((np.asarray(x) >= 0.0).all())


def _probabilities(p) -> bool:
    """Whether every value lies in [0, 1] (NaN does not)."""
    p = np.asarray(p)
    return bool(((0.0 <= p) & (p <= 1.0)).all())


def _bell(x, sigma: float):
    """exp(-x^2 / sigma^2): 1 exactly at x = 0, 0 exactly at x = +-inf (and
    where x^2 overflows to inf). Of x = 1/t for a t >= 0, it is 0 exactly
    at t = 0 (1/0 = inf) and 1 exactly at t = inf (1/inf = 0)."""
    return np.exp(-(x * x) / (sigma * sigma))


def _collision_probability(d_o, params: CostParams):
    return _bell(d_o, params.sigma_d)


def collision_probability(d_o, params: CostParams):
    """Bell-shaped distance-based collision probability exp(-d_o^2 / sigma_d^2)."""
    if not _nonnegative(d_o):
        raise ValueError("d_o must be >= 0")
    with np.errstate(**_EXTREMES):
        return _collision_probability(d_o, params)


def _anticipatory_factor(ttc, params: CostParams):
    return 1.0 - params.a * _bell(1.0 / ttc, params.sigma_inv_ttc)


def anticipatory_factor(ttc, params: CostParams):
    """(1 - a * exp(-(1/ttc)^2 / sigma_inv_ttc^2)) in [1 - a, 1].

    Equals 1 exactly at ttc = 0 (contact: no discount) and 1 - a exactly at
    ttc = +inf (motion that never collides earns the full discount).
    """
    if not _nonnegative(ttc):
        raise ValueError("ttc must be >= 0")
    with np.errstate(**_EXTREMES):
        return _anticipatory_factor(np.asarray(ttc, dtype=float), params)


def modified_collision_probability(d_o, ttc, params: CostParams):
    """Distance-based probability discounted by the anticipatory factor.

    Satisfies (1 - a) * p_c <= result <= p_c for every ttc.
    """
    return collision_probability(d_o, params) * anticipatory_factor(ttc, params)


def _survivability(p_c):
    return np.cumprod(1.0 - p_c, axis=-1)


def survivability(p_c_sequence):
    """Running products prod_{k<=i} (1 - p_c_k) along the last axis; index 0
    of the result is survivability after the first segment. A sequence gives
    a list, an array an array."""
    if not _probabilities(p_c_sequence):
        raise ValueError("collision probabilities must lie in [0, 1]")
    p_s = _survivability(np.asarray(p_c_sequence, dtype=float))
    return p_s if isinstance(p_c_sequence, np.ndarray) else p_s.tolist()


def _time_to_goal(x, y, heading, v, goal: tuple[float, float], params: CostParams):
    dx = goal[0] - x
    dy = goal[1] - y
    d = np.hypot(dx, dy)
    toward = np.cos(heading) * dx + np.sin(heading) * dy
    v_goal = v * toward / np.where(d > 0.0, d, 1.0)
    # d = v_goal = 0 (at rest on the goal) divides 0 by 0; the tolerance masks it
    return np.where(d <= params.goal_tolerance, 0.0,
                    np.where(v_goal > params.v_epsilon, d / v_goal, math.inf))


def expected_time_to_goal(terminal: RobotState, goal: tuple[float, float],
                          params: CostParams):
    """Distance to goal over the velocity component toward it.

    0 when already within goal_tolerance; +inf when the terminal state is
    (nearly) stopped or moving with no component toward the goal.
    """
    pose = terminal.pose
    with np.errstate(**_EXTREMES):
        return _time_to_goal(pose.x, pose.y, pose.heading, terminal.v, goal, params)[()]


def terminal_ttc(terminal: RobotState, world: World, t_N: float, v_limit: float) -> float:
    """Time to collision if the robot drove from the terminal state at full
    speed along its terminal heading, with obstacles predicted from t_N."""
    velocity = (
        v_limit * math.cos(terminal.pose.heading),
        v_limit * math.sin(terminal.pose.heading),
    )
    return time_to_collision(world, (terminal.pose.x, terminal.pose.y), velocity, t_N)


def _terminal_bonus(p_s_N, ttg, ttc, params: CostParams):
    c_ttg = _bell(1.0 / ttg, params.sigma_inv_ttg)
    c_ttc = _bell(1.0 / ttc, params.sigma_inv_ttc)
    return (c_ttg, c_ttc, np.where(p_s_N == 0.0, 0.0, -(p_s_N * c_ttg * c_ttc)))


def terminal_bonus(p_s_N, ttg, ttc, params: CostParams):
    """(C_TTG, C_TTC, j_terminal) with j_terminal = -p_s_N * C_TTG * C_TTC.

    Both C factors reach 1 exactly at infinite TTG/TTC, so the -1 bound is
    attainable; j_terminal is exactly 0 whenever p_s_N is 0.
    """
    if not _probabilities(p_s_N):
        raise ValueError("p_s_N must lie in [0, 1]")
    if not (_nonnegative(ttg) and _nonnegative(ttc)):
        raise ValueError("ttg and ttc must be >= 0")
    with np.errstate(**_EXTREMES):
        c_ttg, c_ttc, j_terminal = _terminal_bonus(
            p_s_N, np.asarray(ttg, dtype=float), np.asarray(ttc, dtype=float), params)
    return (c_ttg, c_ttc, j_terminal[()])


def _goal_xy(goal) -> tuple[float, float]:
    if isinstance(goal, Pose):
        return (goal.x, goal.y)
    return (float(goal[0]), float(goal[1]))


class CostRows(NamedTuple):
    """The result of a cost evaluation, one row per candidate.

    From `CostKernel.evaluate`, `total` and the terminal fields are (B,)
    arrays and the segment fields (B, N) arrays; from `trajectory_cost`,
    floats and lists. Segment i runs from state i to state i+1: its
    clearance d_o (at the closer endpoint), navigation distance d_g at its
    end, ttc (None in baseline mode), collision probability p_c (the
    modified one in ds mode), survivability p_s after it, and the progress
    and effort terms, unweighted by survivability. The terminal fields are
    None without a terminal term; otherwise j_terminal = -p_s_N * c_ttg *
    c_ttc in [-1, 0].
    """

    total: np.ndarray
    d_o: np.ndarray
    d_g: np.ndarray
    ttc: np.ndarray | None
    p_c: np.ndarray
    p_s: np.ndarray
    j_progress: np.ndarray
    j_action: np.ndarray
    ttg: np.ndarray | None
    ttc_terminal: np.ndarray | None
    c_ttg: np.ndarray | None
    c_ttc: np.ndarray | None
    p_s_N: np.ndarray | None
    j_terminal: np.ndarray | None


class CostKernel:
    """The trajectory cost of one planning problem, over batches of rollouts.

    The problem is a `start` state, a goal and a world. Everything shared by
    its candidates is prepared once: the navigation field (`nav`, which must
    be built for `goal` over the world's grid, or one built here), the
    obstacles predicted at the step times `step_times(start.t, cfg)`
    (`snapshot`), the weights and the planner config. `evaluate` then scores
    any number of rollouts from `start`, given as (B, N+1) state arrays. It
    is the one cost implementation: `plan()` builds one kernel per problem
    and every batch it evaluates (`optimizer.evaluate_batch`) goes through
    it, and `trajectory_cost` scores a single trajectory as a batch of one.
    """

    def __init__(self, world: World, goal, params: CostParams, cfg: PlannerConfig,
                 start: RobotState, nav: NavigationField | None = None):
        self.goal = _goal_xy(goal)
        if nav is not None and nav.goal != self.goal:
            raise ValueError(f"nav was built for goal {nav.goal}, not for {self.goal}")
        # identity first: the planner's callers pass the world's own grid
        if nav is not None and nav.grid is not world.grid and not (
                nav.grid.resolution == world.grid.resolution
                and nav.grid.origin == world.grid.origin
                and np.array_equal(nav.grid.occupied, world.grid.occupied)):
            raise ValueError("nav was built over another grid than the world's")
        self.nav = NavigationField(world.grid, self.goal) if nav is None else nav
        self.params = params
        self.cfg = cfg
        self.start = start
        self.snapshot = HorizonSnapshot(world, step_times(start.t, cfg))

    def evaluate(self, xs, ys, hs, vs, ws) -> CostRows:
        """The `CostRows` of the rollouts whose states at the step times are
        the rows of these (B, N+1) arrays: each one's total cost, and its
        per-segment and terminal terms.

        The terms are the cores of the module's formulas applied to whole
        rows, inside one `np.errstate` and without the public functions'
        argument checks, since the kernel builds every argument itself: the
        cores of `collision_probability` and `anticipatory_factor` per
        segment, `survivability` along each row, and `expected_time_to_goal`
        and `terminal_bonus` at the last states. Segment hazards are evaluated
        at both endpoints against obstacles predicted at the matching times;
        the closer endpoint defines the segment's d_o, and its TTC feeds the
        anticipatory factor (so an in-contact endpoint forces probability 1
        exactly). A segment whose distance-based probability is below
        _P_C_SKIP gets ttc = +inf without a query. Each state is evaluated
        once: one bilinear stencil samples the map's distance field and the
        navigation field at every state (open maps use their closed forms),
        and a state that is the closer endpoint of both its segments is
        queried once for both. All TTC queries of an evaluation go to one
        `HorizonSnapshot.ttc` call, so the grid is ray-marched once: the
        queried states first, then the terminal queries (each last state at
        v_limit along its heading), each ray starting from the distance its
        clearance read. Baseline mode
        uses the distance-only probability and no terminal term. Every
        operation is elementwise or runs along a row, so a row does not
        depend on the rest of the batch, and the segment terms are summed in
        order, as a loop over the segments would.
        """
        params = self.params
        cfg = self.cfg
        snapshot = self.snapshot
        grid = snapshot.world.grid
        b, n = xs.shape[0], xs.shape[1] - 1
        # one stencil samples both fields; an open map's are closed forms
        if grid.has_occupied:
            d_grid, nf = grid.sample_field_batch((grid.distance_field, self.nav.values),
                                                 xs, ys)
        else:
            d_grid = np.full(xs.shape, math.inf)
            nf = np.hypot(xs - self.goal[0], ys - self.goal[1])
        d = snapshot.clearance(xs, ys, d_grid)

        left = d[:, :-1] <= d[:, 1:]
        d_seg = np.where(left, d[:, :-1], d[:, 1:])
        ds_mode = params.mode == DS_MPEPC
        with_terminal = ds_mode and params.include_terminal
        ttc = None
        terminal = (None,) * 6
        with np.errstate(**_EXTREMES):
            p_c = _collision_probability(d_seg, params)
            if ds_mode:
                # the closer endpoint of each segment that needs a TTC; a state
                # closer for both its segments gives both the same d_o, so
                # both or neither need it, and it is queried once
                need = p_c >= _P_C_SKIP
                queried = np.zeros((b, n + 1), dtype=bool)
                queried[:, :-1] = need & left
                queried[:, 1:] |= need & ~left
                # flat indices into the row-major (B, N+1) state arrays
                q = np.flatnonzero(queried)
                m = q.size
                speed = vs.take(q)
                if with_terminal:
                    q = np.concatenate((q, np.arange(n, b * (n + 1), n + 1)))
                    speed = np.concatenate((speed, np.full(b, cfg.v_limit)))
                q_ttc = np.empty(0)
                if q.size:
                    qh = hs.take(q)
                    q_ttc = snapshot.ttc(xs.take(q), ys.take(q), speed * np.cos(qh),
                                         speed * np.sin(qh), q % (n + 1), d.take(q),
                                         d_grid.take(q))
                # +inf at every state left unqueried, so a skipped segment reads +inf
                state_ttc = np.full((b, n + 1), math.inf)
                np.put(state_ttc, q[:m], q_ttc[:m])
                ttc = np.where(left, state_ttc[:, :-1], state_ttc[:, 1:])
                ttc_n = q_ttc[m:]
                p_c = p_c * _anticipatory_factor(ttc, params)

            p_s = _survivability(p_c)
            j_prog = params.w_progress * np.diff(nf, axis=1)
            j_act = cfg.step_h * (params.w_action_v * vs[:, 1:] ** 2
                                  + params.w_action_w * ws[:, 1:] ** 2)
            totals = np.cumsum(
                p_s * j_prog + j_act + (1.0 - p_s) * params.c_collision, axis=1)[:, -1]

            if with_terminal:
                ttg = _time_to_goal(xs[:, -1], ys[:, -1], hs[:, -1], vs[:, -1], self.goal,
                                    params)
                p_s_n = p_s[:, -1]
                c_ttg, c_ttc, j_term = _terminal_bonus(p_s_n, ttg, ttc_n, params)
                totals = totals + j_term
                terminal = (ttg, ttc_n, c_ttg, c_ttc, p_s_n, j_term)
        return CostRows(totals, d_seg, nf[:, 1:], ttc, p_c, p_s, j_prog, j_act, *terminal)


def trajectory_cost(
    traj: Trajectory,
    goal,
    world: World,
    params: CostParams,
    cfg: PlannerConfig,
    nav: NavigationField | None = None,
) -> CostRows:
    """Evaluate a rolled-out trajectory under the configured cost mode.

    Scores the trajectory's states as a batch of one through a `CostKernel`
    built from its first state (see `CostKernel.evaluate` for the model) and
    returns that row as floats and lists. The trajectory must be a rollout
    under `cfg`: its timestamps `step_times(states[0].t, cfg)`.
    """
    states = traj.states
    times = [s.t for s in states]
    if not times or times != step_times(times[0], cfg):
        raise ValueError(
            f"trajectory timestamps are not the {cfg.n_steps + 1} step times of cfg")
    # one contiguous (1, N+1) array per state component, as a batch row
    columns = np.array([(s.pose.x, s.pose.y, s.pose.heading, s.v, s.omega)
                        for s in states], dtype=float).T.copy()
    if not np.isfinite(columns[:2]).all():
        raise ValueError("trajectory contains non-finite states")
    kernel = CostKernel(world, goal, params, cfg, states[0], nav)
    rows = kernel.evaluate(*(c[None] for c in columns))
    return CostRows._make(None if a is None else a[0].tolist() for a in rows)
