"""Independent reference implementations used to cross-check the library.

These deliberately avoid the library's query structures: brute-force loops,
fine-step forward simulation, a fine-step closed-loop integrator, and a
heap-driven Dijkstra. They are slow and simple on purpose.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from dsmpepc.geometry import (
    ControlGains,
    Pose,
    control_law_curvature,
    egocentric_coords,
    velocity_modulation,
)
from dsmpepc.kinematics import PlannerConfig, RobotState, TrajectoryParam
from dsmpepc.geometry import target_from_param


def brute_force_distance_field(occupied: np.ndarray, resolution: float) -> np.ndarray:
    """Per-cell min Euclidean distance to any occupied cell center (meters)."""
    h, w = occupied.shape
    ys, xs = np.nonzero(occupied)
    if len(xs) == 0:
        return np.full((h, w), math.inf)
    gy, gx = np.mgrid[0:h, 0:w]
    d2 = (gy[..., None] - ys) ** 2 + (gx[..., None] - xs) ** 2
    return np.sqrt(d2.min(axis=-1)) * resolution


def reference_navigation_field(grid, goal) -> np.ndarray:
    """Shortest 8-connected path length (meters) from the goal's cell to every
    free cell, one heap entry at a time; unreachable and occupied cells get
    the largest finite length plus the grid diagonal."""
    res = grid.resolution
    gx, gy = grid.cell_of(*goal)
    occ = grid.occupied
    h, w = occ.shape
    moves = [(mx, my, math.hypot(mx, my)) for mx in (-1, 0, 1) for my in (-1, 0, 1)
             if mx or my]
    dist = np.full((h, w), math.inf)
    dist[gy, gx] = 0.0
    heap = [(0.0, gx, gy)]
    while heap:
        d, cx, cy = heapq.heappop(heap)
        if d > dist[cy, cx]:
            continue
        for mx, my, cost in moves:
            nx, ny = cx + mx, cy + my
            if nx < 0 or ny < 0 or nx >= w or ny >= h or occ[ny, nx]:
                continue
            nd = d + cost * res
            if nd < dist[ny, nx]:
                dist[ny, nx] = nd
                heapq.heappush(heap, (nd, nx, ny))
    finite = dist[np.isfinite(dist)]
    ceiling = (finite.max() if finite.size else 0.0) + math.hypot(w * res, h * res)
    return np.where(np.isfinite(dist), dist, ceiling)


def fine_step_first_contact(
    p_robot, v_robot, p_obstacle, v_obstacle, r_sum: float,
    dt: float = 1e-3, horizon: float = 30.0,
):
    """First sampled time with center distance <= r_sum, or None."""
    t = np.arange(0.0, horizon, dt)
    rx = p_robot[0] + v_robot[0] * t
    ry = p_robot[1] + v_robot[1] * t
    ox = p_obstacle[0] + v_obstacle[0] * t
    oy = p_obstacle[1] + v_obstacle[1] * t
    hit = np.hypot(rx - ox, ry - oy) <= r_sum
    idx = np.argmax(hit)
    if not hit[idx]:
        return None
    return float(t[idx])


def integrate_control_law(
    start_pose: Pose,
    target: Pose,
    gains: ControlGains,
    v_max: float = 1.0,
    dt: float = 0.05,
    t_end: float = 60.0,
    stop_radius: float | None = None,
):
    """Integrate the closed loop (kappa, v) without actuation limits.

    Returns (final_pose, time at which the target radius was first reached,
    or None if never).
    """
    pose = start_pose
    t = 0.0
    reached_at = None
    while t < t_end:
        coords = egocentric_coords(pose, target)
        if stop_radius is not None and coords.r < stop_radius:
            reached_at = t
            break
        kappa = control_law_curvature(coords, gains)
        v = velocity_modulation(kappa, v_max, coords.r, gains)
        omega = kappa * v
        heading = pose.heading
        if abs(omega) < 1e-12:
            pose = Pose(
                pose.x + v * dt * math.cos(heading),
                pose.y + v * dt * math.sin(heading),
                heading,
            )
        else:
            radius = v / omega
            h1 = heading + omega * dt
            pose = Pose(
                pose.x + radius * (math.sin(h1) - math.sin(heading)),
                pose.y - radius * (math.cos(h1) - math.cos(heading)),
                math.remainder(h1, math.tau),
            )
        t += dt
    return pose, reached_at


def integrate_recorded_controls(start_pose: Pose, controls, h: float,
                                substeps: int = 100) -> Pose:
    """Re-integrate a piecewise-constant (v, omega) sequence with `substeps`
    fine arc steps per control interval."""
    pose = start_pose
    dt = h / substeps
    for v, w in controls:
        for _ in range(substeps):
            heading = pose.heading
            if abs(w) < 1e-12:
                pose = Pose(
                    pose.x + v * dt * math.cos(heading),
                    pose.y + v * dt * math.sin(heading),
                    heading,
                )
            else:
                radius = v / w
                h1 = heading + w * dt
                pose = Pose(
                    pose.x + radius * (math.sin(h1) - math.sin(heading)),
                    pose.y - radius * (math.cos(h1) - math.cos(heading)),
                    math.remainder(h1, math.tau),
                )
    return pose


def fine_rollout(start: RobotState, z: TrajectoryParam, cfg: PlannerConfig,
                 substeps: int = 100) -> Pose:
    """Closed-loop rollout recomputing control every h/substeps; returns the
    terminal pose after the horizon. Rate limits scale with the substep."""
    target = target_from_param(start.pose, z.r, z.theta, z.delta)
    dt = cfg.step_h / substeps
    dv = cfg.accel_limit * dt
    dw = cfg.alpha_limit * dt
    pose = start.pose
    v_prev, w_prev = start.v, start.omega
    for _ in range(cfg.n_steps * substeps):
        coords = egocentric_coords(pose, target)
        kappa = control_law_curvature(coords, cfg.gains)
        v_cmd = velocity_modulation(kappa, z.v_max, coords.r, cfg.gains)
        w_cmd = kappa * v_cmd
        v_cmd = min(cfg.v_limit, max(-cfg.v_limit, v_cmd))
        w_cmd = min(cfg.omega_limit, max(-cfg.omega_limit, w_cmd))
        v = min(v_prev + dv, max(v_prev - dv, v_cmd))
        w = min(w_prev + dw, max(w_prev - dw, w_cmd))
        heading = pose.heading
        if abs(w) < 1e-12:
            pose = Pose(
                pose.x + v * dt * math.cos(heading),
                pose.y + v * dt * math.sin(heading),
                heading,
            )
        else:
            radius = v / w
            h1 = heading + w * dt
            pose = Pose(
                pose.x + radius * (math.sin(h1) - math.sin(heading)),
                pose.y - radius * (math.cos(h1) - math.cos(heading)),
                math.remainder(h1, math.tau),
            )
        v_prev, w_prev = v, w
    return pose
