"""Per-cycle selection of the trajectory parameter minimizing the expected cost.

The search is derivative-free: a deterministic scrambled-Sobol sweep over the
parameter box (always including the halting candidate, the previous cycle's
solution, and the direct-to-goal parameter), followed by Nelder-Mead
refinement from the best seeds. The cost surface contains minima over
obstacles and infinity sentinels, so nothing here assumes smoothness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize
from scipy.stats import qmc

from ._batch import evaluate_batch
from .cost import CostBreakdown, CostKernel, CostParams, trajectory_cost
from .geometry import Pose, egocentric_coords, wrap_angle
from .kinematics import (
    PlannerConfig,
    RobotState,
    Trajectory,
    TrajectoryParam,
    rollout,
    rollout_floats,
    step_times,
)
from .world import NavigationField, World

Bounds = tuple[tuple[float, float], ...]

# Initial Nelder-Mead simplex spread per dimension (r, theta, delta, v_max).
_SIMPLEX_STEPS = (0.5, 0.25, 0.25, 0.15)
# Evaluations needed to score the initial simplex; a smaller refinement
# budget could not take a single Nelder-Mead step.
_SIMPLEX_SIZE = len(_SIMPLEX_STEPS) + 1


class _BudgetExhausted(Exception):
    """Raised by the refinement objective once its evaluation budget is spent."""


@dataclass(frozen=True)
class OptimizerConfig:
    """Search budgets, RNG seed, and parameter box for (r, theta, delta, v_max).

    bounds=None derives the box from the planner config: r in [0, r_max],
    angles in [-pi, pi], v_max in [0, v_limit]. refine_max_evals is 0 (no
    refinement) or at least 5, the size of the initial simplex.
    """

    n_global_samples: int = 400
    n_refine_seeds: int = 3
    refine_max_evals: int = 60
    seed: int = 0
    bounds: Bounds | None = None

    def __post_init__(self) -> None:
        if self.n_global_samples < 1:
            raise ValueError("n_global_samples must be >= 1")
        if not 0 <= self.n_refine_seeds <= self.n_global_samples:
            raise ValueError("n_refine_seeds must be in [0, n_global_samples]")
        if self.refine_max_evals < 0:
            raise ValueError("refine_max_evals must be >= 0")
        if 0 < self.refine_max_evals < _SIMPLEX_SIZE:
            raise ValueError(
                f"refine_max_evals must be 0 (no refinement) or >= {_SIMPLEX_SIZE}, "
                f"the size of the initial simplex; got {self.refine_max_evals}"
            )
        if self.bounds is not None:
            if len(self.bounds) != 4 or any(lo > hi for lo, hi in self.bounds):
                raise ValueError("bounds must be four well-ordered (lo, hi) pairs")

    def resolved_bounds(self, planner_cfg: PlannerConfig) -> Bounds:
        if self.bounds is not None:
            return self.bounds
        return (
            (0.0, planner_cfg.r_max),
            (-math.pi, math.pi),
            (-math.pi, math.pi),
            (0.0, planner_cfg.v_limit),
        )


@dataclass(frozen=True)
class PlanResult:
    """Argmin parameter with its cost and trajectory, plus every evaluation
    made during the search (for diagnostics and rendering)."""

    best_param: TrajectoryParam
    best_cost: float
    best_trajectory: Trajectory
    evaluated: tuple[tuple[TrajectoryParam, float], ...]


def evaluate_candidate(
    z: TrajectoryParam,
    current: RobotState,
    goal: Pose,
    world: World,
    planner_cfg: PlannerConfig,
    cost_params: CostParams,
    nav: NavigationField | None = None,
) -> tuple[Trajectory, CostBreakdown]:
    """Roll out one candidate and evaluate its cost."""
    traj = rollout(current, z, planner_cfg)
    breakdown = trajectory_cost(traj, goal, world, cost_params, planner_cfg, nav=nav)
    return traj, breakdown


def _canonical(x, bounds: Bounds) -> TrajectoryParam:
    """Project raw optimizer coordinates into the parameter box: clip r and
    v_max, wrap the angles (no artificial boundary at +-pi)."""
    r = min(bounds[0][1], max(bounds[0][0], float(x[0])))
    theta = wrap_angle(float(x[1]))
    delta = wrap_angle(float(x[2]))
    v = min(bounds[3][1], max(bounds[3][0], float(x[3])))
    return TrajectoryParam(r, theta, delta, v)


def _order_key(param: TrajectoryParam, cost: float):
    return (cost, param.r, param.theta, param.delta, param.v_max)


def plan(
    current: RobotState,
    goal: Pose,
    world: World,
    planner_cfg: PlannerConfig,
    cost_params: CostParams,
    opt_cfg: OptimizerConfig,
    warm_start: TrajectoryParam | None = None,
    nav: NavigationField | None = None,
) -> PlanResult:
    """One planning cycle: return the evaluated argmin trajectory parameter.

    Deterministic for fixed inputs and seed. The halting candidate is always
    evaluated, so a result always exists; ties are broken lexicographically on
    (cost, r, theta, delta, v_max). The problem is built once, as one
    `CostKernel` (navigation field, weights, and the obstacles predicted at
    the step times in one `HorizonSnapshot`; `nav` defaults to a field built
    for the goal). The vectorized sweep reads it, and refinement scores
    candidates through it on float rollouts, so each refined cost is
    bit-identical to `evaluate_candidate(z, ...).total`. Only the argmin is
    rolled out into a Trajectory.
    """
    if not current.is_finite():
        raise ValueError("plan requires a finite current state")
    bounds = opt_cfg.resolved_bounds(planner_cfg)
    kernel = CostKernel(world, (goal.x, goal.y), cost_params, planner_cfg,
                        step_times(current.t, planner_cfg), nav)

    evaluated: list[tuple[TrajectoryParam, float]] = []
    best: dict = {"key": None, "param": None, "cost": None}

    def note(z: TrajectoryParam, cost: float) -> None:
        evaluated.append((z, cost))
        key = _order_key(z, cost)
        if best["key"] is None or key < best["key"]:
            best.update(key=key, param=z, cost=cost)

    seeds_pool: list[TrajectoryParam] = [TrajectoryParam(0.0, 0.0, 0.0, 0.0)]
    if warm_start is not None:
        seeds_pool.append(_canonical(warm_start.as_tuple(), bounds))
    to_goal = egocentric_coords(current.pose, goal)
    seeds_pool.append(_canonical((to_goal.r, to_goal.theta, to_goal.delta, math.inf), bounds))

    n_sobol = max(0, opt_cfg.n_global_samples - len(seeds_pool))
    if n_sobol > 0:
        sampler = qmc.Sobol(d=4, scramble=True, seed=opt_cfg.seed)
        m = max(1, math.ceil(math.log2(n_sobol)))
        unit = sampler.random_base2(m)[:n_sobol]
        lo = np.array([b[0] for b in bounds])
        hi = np.array([b[1] for b in bounds])
        for row in lo + unit * (hi - lo):
            seeds_pool.append(TrajectoryParam(*(float(v) for v in row)))

    candidates: list[TrajectoryParam] = []
    seen: set[tuple[float, float, float, float]] = set()
    for z in seeds_pool:
        if z.as_tuple() in seen:
            continue
        seen.add(z.as_tuple())
        candidates.append(z)
    costs = evaluate_batch(candidates, current, kernel)
    global_results: list[tuple[TrajectoryParam, float]] = []
    for z, cost in zip(candidates, costs):
        cost = float(cost)
        note(z, cost)
        global_results.append((z, cost))

    global_results.sort(key=lambda pc: _order_key(pc[0], pc[1]))
    n_refine = min(opt_cfg.n_refine_seeds, len(global_results))
    if opt_cfg.refine_max_evals > 0 and n_refine > 0:
        for seed_param, _ in global_results[:n_refine]:
            budget = opt_cfg.refine_max_evals

            def objective(x) -> float:
                nonlocal budget
                if budget <= 0:
                    raise _BudgetExhausted
                budget -= 1
                z = _canonical(x, bounds)
                _, xs, ys, hs, vs, ws = rollout_floats(current, z, planner_cfg)
                cost, _ = kernel.score(xs, ys, hs, vs, ws)
                note(z, cost)
                return cost

            x0 = np.array(seed_param.as_tuple())
            simplex = [x0]
            for dim, step in enumerate(_SIMPLEX_STEPS):
                vertex = x0.copy()
                vertex[dim] += step
                simplex.append(vertex)
            try:
                minimize(
                    objective,
                    x0,
                    method="Nelder-Mead",
                    options={
                        "maxfev": opt_cfg.refine_max_evals,
                        "initial_simplex": np.array(simplex),
                        "xatol": 1e-4,
                        "fatol": 1e-12,
                    },
                )
            except _BudgetExhausted:
                pass

    return PlanResult(
        best_param=best["param"],
        best_cost=best["cost"],
        best_trajectory=rollout(current, best["param"], planner_cfg),
        evaluated=tuple(evaluated),
    )
