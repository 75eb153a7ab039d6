"""Per-cycle selection of the trajectory parameter minimizing the expected cost.

The search is derivative-free and batched: a deterministic scrambled-Sobol
sweep over the parameter box (always including the halting candidate, the
previous cycle's solution, and the direct-to-goal parameter), then a few
rounds of batched local search around the best seeds (`minimize`). The cost
surface contains minima over obstacles and infinity sentinels, so nothing
here assumes smoothness. The sweep's scrambled Sobol points are drawn here
(`_scrambled_sobol`), in integer arithmetic, and equal scipy's
`Sobol(d=4, scramble=True, seed=seed).random_base2(m)` bit for bit.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .cost import CostKernel, CostParams, CostRows, trajectory_cost
from .kinematics import (
    PlannerConfig,
    Pose,
    RobotState,
    Trajectory,
    TrajectoryParam,
    egocentric_coords,
    rollout,
    rollout_batch,
    trajectory,
    wrap_angle,
)
from .world import NavigationField, World

Bounds = tuple[tuple[float, float], ...]

# Fewest probes per seed in a refinement round: fewer cannot positively span
# the four-dimensional parameter space, so a round could miss every descent
# direction.
_MIN_ROUND = 5
# Standard deviation per axis (r, theta, delta, v_max) of a seed's first round.
_FIRST_SPREAD = np.array([0.5, 0.25, 0.25, 0.15])
# Variance added to every seed's sampling covariance after each round, so it
# stays positive definite.
_COV_FLOOR = np.diag(np.square(1e-3 * _FIRST_SPREAD))

# Sobol points have 30 bits, so at most 2^30 can be drawn.
_SOBOL_BITS = 30
# Joe & Kuo's primitive polynomials and initial direction numbers m_1..m_s of
# Sobol dimensions 1-4 ("Constructing Sobol sequences with better
# two-dimensional projections", SIAM J. Sci. Comput. 2008). Dimension 1 has
# every m_j = 1.
_SOBOL_POLY = (1, 3, 7, 11)
_SOBOL_INIT = ((1,), (1,), (1, 3), (1, 3, 1))
# Bit positions, most significant first.
_SOBOL_MSB = np.arange(_SOBOL_BITS - 1, -1, -1)


def _direction_numbers() -> np.ndarray:
    """The (4, 30) direction numbers v[d, j] = m_j 2^(29 - j), m_j from
    Bratley and Fox's recurrence over the polynomial's coefficients."""
    v = np.ones((4, _SOBOL_BITS), dtype=np.int64)
    for d, (poly, init) in enumerate(zip(_SOBOL_POLY, _SOBOL_INIT)):
        s = poly.bit_length() - 1
        if s == 0:
            continue
        m = list(init)
        for j in range(s, _SOBOL_BITS):
            new = m[j - s] ^ (m[j - s] << s)
            for k in range(1, s):
                if poly >> (s - k) & 1:
                    new ^= m[j - k] << k
            m.append(new)
        v[d] = m
    return v << _SOBOL_MSB


_SOBOL_V = _direction_numbers()
# Per dimension d, direction number j and row k: whether bit 29 - k of
# v[d, j] is set, i.e. which columns of a scramble matrix v[d, j] selects.
_SOBOL_V_BITS = ((_SOBOL_V[:, :, None] >> _SOBOL_MSB) & 1).astype(bool)


def _scrambled_sobol(m: int, seed: int) -> np.ndarray:
    """The first 2^m points in [0, 1)^4 of the Sobol sequence scrambled by
    `seed`: Matousek's linear matrix scrambling plus a digital shift ("On the
    L2-discrepancy for anchored boxes", J. Complexity 1998), in Gray-code
    order.

    Bit for bit the points of scipy's
    `Sobol(d=4, scramble=True, seed=seed).random_base2(m)`: the same
    draws from `np.random.default_rng(seed)` in the same order (the shift,
    then the lower-triangular matrices), all in integer arithmetic, scaled by
    2^-30, which is exact.
    """
    if m > _SOBOL_BITS:
        raise ValueError(f"at most 2^{_SOBOL_BITS} Sobol points can be drawn; got m={m}")
    rng = np.random.default_rng(seed)
    shift = (rng.integers(2, size=(4, _SOBOL_BITS), dtype=np.uint32)
             @ (1 << np.arange(_SOBOL_BITS)))
    ltm = np.tril(rng.integers(2, size=(4, _SOBOL_BITS, _SOBOL_BITS), dtype=np.uint32))
    ltm[:, range(_SOBOL_BITS), range(_SOBOL_BITS)] = 1
    # each matrix times each direction number's bit column, over GF(2): the
    # XOR of the matrix's columns, each packed with row r at bit 29 - r, that
    # the direction number's bits select
    columns = ltm.transpose(0, 2, 1) @ (1 << _SOBOL_MSB)
    v = np.bitwise_xor.reduce(np.where(_SOBOL_V_BITS, columns[:, None, :], 0), axis=2)
    # point i is point i - 1 with the direction number at i's lowest set bit
    # XORed in; point 0 is the shift
    low = np.zeros(1 << m, dtype=np.intp)
    for k in range(m):
        low[1 << k::2 << k] = k
    steps = v[:, low].T
    steps[0] = shift
    return np.bitwise_xor.accumulate(steps, axis=0) * 2.0 ** -_SOBOL_BITS


@dataclass(frozen=True)
class OptimizerConfig:
    """Search budgets and RNG seed.

    The sweep scores n_global_samples candidates, but always the halting,
    the direct-to-goal and the warm-start rows, so below 3 it scores 2, or 3
    with a warm start (see `candidate_pool`). Refinement then spends
    refine_max_evals evaluations on each of the n_refine_seeds best, which is
    0 (no refinement) or at least 5 (see `minimize`). The parameter box
    (`resolved_bounds`) follows from the planner config.
    """

    n_global_samples: int = 400
    n_refine_seeds: int = 3
    refine_max_evals: int = 240
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("n_global_samples", "n_refine_seeds", "refine_max_evals", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.n_global_samples < 1:
            raise ValueError("n_global_samples must be >= 1")
        if not 0 <= self.n_refine_seeds <= self.n_global_samples:
            raise ValueError("n_refine_seeds must be in [0, n_global_samples]")
        if self.refine_max_evals < 0:
            raise ValueError("refine_max_evals must be >= 0")
        # the sweep and refinement draw from one Sobol sequence of
        # 2^ceil(log2(most points either needs)) points (`candidate_pool`)
        if self.n_global_samples > 2 ** _SOBOL_BITS:
            raise ValueError(f"n_global_samples must be <= 2^{_SOBOL_BITS}, the most "
                             f"Sobol points the sweep can draw")
        if self.n_refine_seeds * self.refine_max_evals > 2 ** _SOBOL_BITS:
            raise ValueError(f"n_refine_seeds * refine_max_evals must be <= "
                             f"2^{_SOBOL_BITS}, the most Sobol points refinement can draw")
        if 0 < self.refine_max_evals < _MIN_ROUND:
            raise ValueError(
                f"refine_max_evals must be 0 (no refinement) or >= {_MIN_ROUND}, "
                f"enough for one round to probe every direction of the four "
                f"parameters; got {self.refine_max_evals}"
            )

    @staticmethod
    def resolved_bounds(planner_cfg: PlannerConfig) -> Bounds:
        """The parameter box: r in [0, r_max], angles in [-pi, pi], v_max in
        [0, v_limit]."""
        return (
            (0.0, planner_cfg.r_max),
            (-math.pi, math.pi),
            (-math.pi, math.pi),
            (0.0, planner_cfg.v_limit),
        )


@dataclass(frozen=True)
class PlanResult:
    """Argmin parameter with its cost and trajectory, plus every evaluation
    made during the search (for diagnostics and rendering): the read-only
    (M, 4) parameter rows `params` in evaluation order, their (M,) `costs`,
    and `best_index`, the argmin's row.

    `==` compares the argmin's parameter, cost, trajectory and index and the
    two arrays (`np.array_equal`)."""

    best_param: TrajectoryParam
    best_cost: float
    best_trajectory: Trajectory
    params: np.ndarray = field(compare=False)
    costs: np.ndarray = field(compare=False)
    best_index: int

    def __eq__(self, other):
        if not isinstance(other, PlanResult):
            return NotImplemented
        return ((self.best_param, self.best_cost, self.best_trajectory, self.best_index)
                == (other.best_param, other.best_cost, other.best_trajectory,
                    other.best_index)
                and np.array_equal(self.params, other.params)
                and np.array_equal(self.costs, other.costs))

    @cached_property
    def evaluated(self) -> tuple[tuple[TrajectoryParam, float], ...]:
        """Every evaluation as a (`TrajectoryParam`, cost) pair, built on the
        first read; the argmin's entry holds `best_param` itself."""
        return tuple(
            (self.best_param if i == self.best_index else TrajectoryParam(*row), cost)
            for i, (row, cost) in enumerate(zip(self.params.tolist(), self.costs.tolist()))
        )


def evaluate_candidate(
    z: TrajectoryParam,
    current: RobotState,
    goal: Pose,
    world: World,
    planner_cfg: PlannerConfig,
    cost_params: CostParams,
    nav: NavigationField | None = None,
) -> tuple[Trajectory, CostRows]:
    """Roll out one candidate and evaluate its cost.

    Both steps are batches of one through the planner's own evaluation path,
    so the total equals the candidate's cost in any `plan()` of the same
    problem exactly.
    """
    traj = rollout(current, z, planner_cfg)
    return traj, trajectory_cost(traj, goal, world, cost_params, planner_cfg, nav=nav)


def evaluate_batch(params: np.ndarray, kernel: CostKernel):
    """Score the (B, 4) parameter rows `params` rolled out from the start
    state of the problem `kernel`: the planner's one evaluation path.

    Returns (`cost.CostRows`, states), states being the rollouts' (xs, ys,
    headings, vs, omegas) arrays, each (B, N+1). A candidate's row depends
    only on that candidate (the rollout, the clearances, the TTC queries and
    the cost terms are elementwise or run along the row), so a candidate
    scored alone through `rollout` and `trajectory_cost` equals its entry in
    any batch, bit for bit.
    """
    states = rollout_batch(kernel.start, params, kernel.cfg)
    return kernel.evaluate(*states), states


def _canonical(x: np.ndarray, bounds: Bounds) -> np.ndarray:
    """Project raw (n, 4) parameter rows into the box: clip r and v_max,
    wrap the angles (no artificial boundary at +-pi). A row with v_max = 0
    never moves, whatever its r, theta and delta, so it becomes the halting
    candidate itself rather than a tie with it."""
    (r_lo, r_hi), _, _, (v_lo, v_hi) = bounds
    v = np.minimum(np.maximum(x[:, 3], v_lo), v_hi)
    moving = v != 0.0
    return np.column_stack((
        np.where(moving, np.minimum(np.maximum(x[:, 0], r_lo), r_hi), 0.0),
        np.where(moving, wrap_angle(x[:, 1]), 0.0),
        np.where(moving, wrap_angle(x[:, 2]), 0.0),
        np.where(moving, v, 0.0),
    ))


def _ranking(params: np.ndarray, costs: np.ndarray, n: int) -> np.ndarray:
    """Indices of the first n of the (M, 4) rows in the stable order by
    (cost, r, v_max, theta, delta). A row that ties with the halting
    candidate and is not it has r > 0 or v_max > 0 (see `_canonical`), so
    the tie resolves to the halting one.

    Only the rows whose cost is at most the n-th least cost are sorted; they
    keep their relative order, so the stable tie-break is that of sorting
    all M rows."""
    rows = np.arange(len(costs))
    if n < len(costs):
        # `not >` keeps every row when the n-th least cost is NaN
        rows = np.flatnonzero(~(costs > np.partition(costs, n - 1)[n - 1]))
    p = params[rows]
    return rows[np.lexsort((p[:, 2], p[:, 1], p[:, 3], p[:, 0], costs[rows]))[:n]]


def _round_sizes(budget: int) -> tuple[int, ...]:
    """Probes per seed in each of `minimize`'s rounds: `budget` split over
    ceil(log2(budget) / 2) rounds, or fewer when a round would drop below
    _MIN_ROUND probes, as evenly as it goes, the earlier rounds taking the
    remainder. The rounds grow with the budget faster than their count does,
    since each round pays a fixed `evaluate_batch` cost whatever its size."""
    rounds = min(math.ceil(math.log2(budget) / 2), budget // _MIN_ROUND)
    return tuple(budget // rounds + (r < budget % rounds) for r in range(rounds))


def minimize(seeds: np.ndarray, seed_costs: np.ndarray, kernel: CostKernel, budget: int,
             unit: np.ndarray):
    """Batched local search from each row of the (S, 4) array `seeds`,
    whose costs are `seed_costs`, over the problem `kernel` and inside its
    planner config's parameter box (`OptimizerConfig.resolved_bounds`).

    Each seed spends `budget` evaluations over ceil(log2(budget) / 2) rounds
    (`_round_sizes`), 4 of 60 at the default 240. All seeds share one
    `evaluate_batch` call per round. A round draws each seed's probes from
    the low-discrepancy points `unit` (in [0, 1)^4, at least budget per
    seed), spread over the seed's sampling box (its covariance, started from
    _FIRST_SPREAD), and after a round that moved the seed it repeats that
    move once. When the round beats the seed's best cost, the seed moves to
    the round's best and its covariance becomes mostly that of the steps to
    the round's best third, doubled; otherwise the covariance shrinks to a
    quarter. This is a cross-entropy search that keeps the best point rather
    than the mean.

    Returns, per round in evaluation order, the arrays of its rows, their
    costs and their rollouts' (xs, ys, headings, vs, omegas).
    """
    n = len(seeds)
    bounds = OptimizerConfig.resolved_bounds(kernel.cfg)
    unit = 2.0 * unit[:budget * n] - 1.0
    center = np.array(seeds, dtype=float)
    best = np.array(seed_costs, dtype=float)
    cov = np.tile(np.diag(np.square(_FIRST_SPREAD)), (n, 1, 1))
    step = np.zeros((n, 4))
    evaluated = []
    used = 0
    for k in _round_sizes(budget):
        u = unit[used:used + n * k].reshape(n, k, 4)
        used += n * k
        # u is uniform in [-1, 1], variance 1/3 per axis
        x = center[:, None, :] + np.einsum(
            "sij,skj->ski", np.linalg.cholesky(cov) * math.sqrt(3.0), u)
        moved = step.any(axis=1)
        x[moved, 0] = center[moved] + step[moved]
        x = _canonical(x.reshape(-1, 4), bounds)
        rows, states = evaluate_batch(x, kernel)
        evaluated.append((x, rows.total, *states))
        x = x.reshape(n, k, 4)
        costs = rows.total.reshape(n, k)
        for s in range(n):
            d = x[s] - center[s]
            d[:, 1:3] = wrap_angle(d[:, 1:3])
            order = np.argsort(costs[s], kind="stable")
            j = order[0]
            if costs[s, j] < best[s]:
                elite = d[order[:max(2, k // 3)]]
                cov[s] = 0.2 * cov[s] + 1.6 * (elite.T @ elite) / len(elite)
                step[s] = d[j]
                center[s] = x[s, j]
                best[s] = costs[s, j]
            else:
                step[s] = 0.0
                cov[s] *= 0.25
            cov[s] += _COV_FLOOR
    return evaluated


def _distinct(given: np.ndarray, sobol: np.ndarray) -> np.ndarray:
    """The rows of `given` (the halting, warm-start and to-goal rows) and then
    of `sobol`, each first occurrence once, equality being float `==` per
    entry (so -0.0 equals 0.0). The Sobol rows are pairwise distinct: the
    first 2^m points of a scrambled Sobol net put one point in each 2^-m
    interval of every coordinate, and theta's box is fixed. So only a given
    row can repeat, and a Sobol row goes only when it equals a given one."""
    same = (given[:, None] == given).all(axis=2)
    first = ~np.tril(same, -1).any(axis=1)
    repeated = (sobol[:, None] == given).all(axis=2).any(axis=1)
    return np.concatenate((given[first], sobol[~repeated]))


def candidate_pool(current: RobotState, goal: Pose, planner_cfg: PlannerConfig,
                   opt_cfg: OptimizerConfig, warm_start: TrajectoryParam | None = None):
    """The sweep's (M, 4) rows, each once: the halting candidate, the warm
    start, the direct-to-goal parameter and the first Sobol points over the
    box. The halting, to-goal and warm-start rows are always in the sweep,
    and the Sobol points fill it up to n_global_samples rows before
    duplicates go: below 3 there are none, and the sweep has 2 rows, or 3
    with a warm start. Also the scrambled Sobol points in [0, 1)^4 they came
    from, as many as refinement (`minimize`) spreads around its seeds."""
    bounds = opt_cfg.resolved_bounds(planner_cfg)
    to_goal = egocentric_coords(current.pose, goal)
    given = [(to_goal.r, to_goal.theta, to_goal.delta, math.inf)]
    if warm_start is not None:
        given.insert(0, warm_start.as_tuple())
    n_sobol = max(0, opt_cfg.n_global_samples - 1 - len(given))
    n_refine = opt_cfg.n_refine_seeds * opt_cfg.refine_max_evals
    unit = _scrambled_sobol(max(1, math.ceil(math.log2(max(n_sobol, n_refine, 1)))),
                            opt_cfg.seed)
    lo, hi = np.array(bounds).T
    given = np.concatenate((np.zeros((1, 4)), _canonical(np.array(given), bounds)))
    return _distinct(given, lo + unit[:n_sobol] * (hi - lo)), unit


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
    (cost, r, v_max, theta, delta). The problem is built once, as one
    `CostKernel` (the start state, navigation field, weights, and the
    obstacles predicted at the step times in one `HorizonSnapshot`; `nav`
    defaults to a field built for the goal). The candidates stay rows of one
    (M, 4) array, costs beside it, up to the argmin; the sweep
    (`candidate_pool`) and every refinement round score theirs through the
    kernel (`evaluate_batch`), so every cost in `costs` is bit-identical
    to `evaluate_candidate(z, ...).total`.
    `best_param` is the only `TrajectoryParam` built (`PlanResult.evaluated`
    builds the rest when read), and `best_trajectory` is its own rollout,
    taken from the sweep's or the refinement round's states that hold it.
    """
    if not current.is_finite():
        raise ValueError("plan requires a finite current state")
    if not goal.is_finite():
        raise ValueError("plan requires a finite goal")
    if warm_start is not None and not all(map(math.isfinite, warm_start.as_tuple())):
        raise ValueError("plan requires a finite warm_start")
    kernel = CostKernel(world, (goal.x, goal.y), cost_params, planner_cfg, current, nav)
    params, unit = candidate_pool(current, goal, planner_cfg, opt_cfg, warm_start)
    rows, states = evaluate_batch(params, kernel)
    parts = [(params, rows.total, *states)]
    if opt_cfg.n_refine_seeds * opt_cfg.refine_max_evals > 0:
        seeds = _ranking(params, rows.total, opt_cfg.n_refine_seeds)
        parts += minimize(params[seeds], rows.total[seeds], kernel,
                          opt_cfg.refine_max_evals, unit)
    params = np.concatenate([part[0] for part in parts])
    costs = np.concatenate([part[1] for part in parts])
    params.flags.writeable = costs.flags.writeable = False

    best = int(_ranking(params, costs, 1)[0])
    row = best
    for _, part_costs, *states in parts:
        if row < len(part_costs):
            break
        row -= len(part_costs)
    best_param = TrajectoryParam(*params[best].tolist())
    return PlanResult(
        best_param=best_param,
        best_cost=float(costs[best]),
        best_trajectory=trajectory(current, best_param, planner_cfg,
                                   *(a[row] for a in states)),
        params=params,
        costs=costs,
        best_index=best,
    )
