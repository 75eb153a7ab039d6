"""Receding-horizon navigation for differential-drive robots.

Trajectory candidates are parameterized by an egocentric target pose and a
speed bound, rolled out under a smooth pose-following control law, and scored
by an expected cost that blends goal progress, effort, and collision
probability. The "ds" cost mode adds a time-to-collision-aware collision
probability and a bounded terminal bonus that resolves deadlocks.
"""

from .cost import (
    BASELINE_MPEPC,
    DS_MPEPC,
    CostParams,
    CostRows,
    anticipatory_factor,
    collision_probability,
    expected_time_to_goal,
    modified_collision_probability,
    survivability,
    terminal_bonus,
    terminal_ttc,
    trajectory_cost,
)
from .geometry import (
    ControlGains,
    EgocentricCoords,
    Pose,
    control_law_curvature,
    egocentric_coords,
    target_from_param,
    velocity_modulation,
    wrap_angle,
)
from .kinematics import (
    PlannerConfig,
    RobotState,
    Trajectory,
    TrajectoryParam,
    advance_pose,
    rollout,
)
from .optimizer import OptimizerConfig, PlanResult, evaluate_candidate, plan
from .scenarios import BUILTINS, ScenarioConfig, ScenarioError, builtin, load, validate
from .simulator import (
    AgentResult,
    AgentSpec,
    ContactEvent,
    SimResult,
    detect_collision,
    detect_deadlock,
    run,
)
from .world import (
    DynamicObstacle,
    NavigationField,
    OccupancyGrid,
    TTC_HORIZON,
    World,
    distance_to_nearest,
    predict_obstacle,
    time_to_collision,
)

__version__ = "0.1.0"

__all__ = [
    "AgentResult",
    "AgentSpec",
    "BASELINE_MPEPC",
    "BUILTINS",
    "ContactEvent",
    "ControlGains",
    "CostParams",
    "CostRows",
    "DS_MPEPC",
    "DynamicObstacle",
    "EgocentricCoords",
    "NavigationField",
    "OccupancyGrid",
    "OptimizerConfig",
    "PlanResult",
    "PlannerConfig",
    "Pose",
    "RobotState",
    "ScenarioConfig",
    "ScenarioError",
    "SimResult",
    "TTC_HORIZON",
    "Trajectory",
    "TrajectoryParam",
    "World",
    "advance_pose",
    "anticipatory_factor",
    "builtin",
    "collision_probability",
    "control_law_curvature",
    "detect_collision",
    "detect_deadlock",
    "distance_to_nearest",
    "egocentric_coords",
    "evaluate_candidate",
    "expected_time_to_goal",
    "load",
    "modified_collision_probability",
    "plan",
    "predict_obstacle",
    "rollout",
    "run",
    "survivability",
    "target_from_param",
    "terminal_bonus",
    "terminal_ttc",
    "time_to_collision",
    "trajectory_cost",
    "validate",
    "velocity_modulation",
    "wrap_angle",
]
