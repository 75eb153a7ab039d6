"""Vectorized candidate evaluation: the planner's one evaluation path.

`evaluate_batch` rolls out a (B, 4) array of trajectory parameter rows at
once (`kinematics.rollout_batch`) and scores the (B, N+1) state arrays
through the planning problem's `cost.CostKernel` (goal, weights, planner
config, navigation field and the obstacles predicted at the step times in
one `world.HorizonSnapshot`). The optimizer's sweep and every refinement
round call it on their parameter arrays; `rollout`, `trajectory_cost` and
`evaluate_candidate` are batches of one through the same code.

A candidate's row depends only on that candidate: the rollout, the
clearances, the TTC queries and the cost terms are elementwise or run along
the row. So a candidate scored alone equals its entry in any batch, bit for
bit, and every cost `plan()` returns rescores exactly through
`evaluate_candidate`.
"""

from __future__ import annotations

import numpy as np

from .cost import CostKernel
from .kinematics import RobotState, rollout_batch


def evaluate_batch(params: np.ndarray, current: RobotState, kernel: CostKernel):
    """Score the (B, 4) parameter rows `params` rolled out from `current`.

    Returns (`cost.CostRows`, states): the totals with the per-segment and
    terminal rows, and the rollouts' (xs, ys, headings, vs, omegas) arrays,
    each (B, N+1). `kernel` holds the problem; its snapshot must be
    predicted at the step times of a rollout from `current`
    (`kinematics.step_times(current.t, cfg)`).
    """
    states = rollout_batch(current, params, kernel.cfg)
    return kernel.evaluate(*states), states
