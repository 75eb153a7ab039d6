"""Vectorized candidate evaluation: the planner's one evaluation path.

`evaluate_batch` rolls out a whole batch of trajectory parameters at once
(`kinematics.rollout_batch`) and scores the (B, N+1) state arrays through the
planning problem's `cost.CostKernel` (goal, weights, planner config,
navigation field and the obstacles predicted at the step times in one
`world.HorizonSnapshot`). The optimizer's sweep and every refinement round
call it; `rollout`, `trajectory_cost` and `evaluate_candidate` are batches
of one through the same code.

A candidate's row depends only on that candidate: the rollout, the
clearances, the TTC queries and the cost terms are elementwise or run along
the row. So a candidate scored alone equals its entry in any batch, bit for
bit, and every cost `plan()` returns rescores exactly through
`evaluate_candidate`.
"""

from __future__ import annotations

import numpy as np

from .cost import CostKernel
from .kinematics import RobotState, TrajectoryParam, rollout_batch


def evaluate_batch(params: list[TrajectoryParam], current: RobotState,
                   kernel: CostKernel, rows: bool = False):
    """Total costs of all candidates rolled out from `current`.

    With `rows`, returns (`cost.CostRows`, states) instead: the per-segment
    and terminal rows, and the rollouts' (xs, ys, headings, vs, omegas)
    arrays, each (B, N+1). `kernel` holds the problem; its snapshot must be
    predicted at the step times of a rollout from `current`
    (`kinematics.step_times(current.t, cfg)`).
    """
    states = rollout_batch(current, np.array([p.as_tuple() for p in params], dtype=float),
                           kernel.cfg)
    if not rows:
        return kernel.evaluate(*states)
    return kernel.evaluate(*states, rows=True), states
