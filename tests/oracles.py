"""Independent reference implementations used to cross-check the library.

These deliberately avoid the library's query structures: brute-force loops,
fine-step forward simulation, a fine-step closed-loop integrator, a
heap-driven Dijkstra, and scalar, one-state-at-a-time versions of the
planner's batched rollout step, grid ray march, time-to-collision and
trajectory cost. The model's formulas are written again below with `math`,
one value at a time, so these cross-checks do not compare the library's
formulas with themselves; the clearance, the obstacle prediction and the
grid lookups behind the TTC and cost oracles are this module's own too.
They are slow and simple on purpose.
"""

from __future__ import annotations

import functools
import heapq
import math

import numpy as np

from dsmpepc.cost import DS_MPEPC
from dsmpepc.kinematics import (
    KAPPA_MAX,
    OMEGA_STRAIGHT,
    R_EPSILON,
    R_SLOWDOWN,
    ControlGains,
    PlannerConfig,
    Pose,
    RobotState,
    TrajectoryParam,
)
from dsmpepc.world import TTC_HORIZON


def _wrap_angle(angle: float) -> float:
    """Angle wrapped to (-pi, pi]."""
    w = math.remainder(angle, math.tau)
    return math.pi if w <= -math.pi else w


def _egocentric_coords(robot: Pose, target: Pose) -> tuple[float, float, float]:
    """(r, theta, delta) of the target seen from the robot."""
    dx = target.x - robot.x
    dy = target.y - robot.y
    r = math.hypot(dx, dy)
    los = robot.heading if r < R_EPSILON else math.atan2(dy, dx)
    return r, _wrap_angle(target.heading - los), _wrap_angle(robot.heading - los)


def _target_from_param(robot: Pose, r: float, theta: float, delta: float) -> Pose:
    """World-frame target pose of the parameter (r, theta, delta)."""
    los = _wrap_angle(robot.heading - delta)
    return Pose(robot.x + r * math.cos(los), robot.y + r * math.sin(los),
                _wrap_angle(los + theta))


def _control_law_curvature(r: float, theta: float, delta: float, gains: ControlGains) -> float:
    """The pose-following law's curvature, clamped below R_EPSILON."""
    k1, k2 = gains.k1, gains.k2
    bracket = k2 * (delta - math.atan(-k1 * theta))
    bracket += (1.0 + k1 / (1.0 + (k1 * theta) ** 2)) * math.sin(delta)
    if r < R_EPSILON:
        return min(KAPPA_MAX, max(-KAPPA_MAX, -bracket / R_EPSILON))
    return -bracket / r


def _velocity_modulation(kappa: float, v_max: float, r: float, gains: ControlGains) -> float:
    """Speed slowed on tight arcs and inside R_SLOWDOWN of the target."""
    v = v_max / (1.0 + gains.curvature_beta * abs(kappa) ** gains.curvature_lambda)
    return v * min(1.0, r / R_SLOWDOWN)


def _advance_pose(pose: Pose, v: float, w: float, dt: float) -> Pose:
    """One exact arc step of constant (v, w)."""
    if abs(w) < OMEGA_STRAIGHT:
        return Pose(pose.x + v * dt * math.cos(pose.heading),
                    pose.y + v * dt * math.sin(pose.heading), pose.heading)
    radius = v / w
    h1 = pose.heading + w * dt
    return Pose(pose.x + radius * (math.sin(h1) - math.sin(pose.heading)),
                pose.y - radius * (math.cos(h1) - math.cos(pose.heading)),
                _wrap_angle(h1))


def _bell(value: float, sigma: float) -> float:
    """exp(-(1/value)^2 / sigma^2), with 1/0 = inf and 1/inf = 0."""
    inverse = math.inf if value == 0.0 else 0.0 if math.isinf(value) else 1.0 / value
    return math.exp(-(inverse * inverse) / (sigma * sigma))


def _collision_probability(d_o: float, params) -> float:
    return math.exp(-(d_o * d_o) / (params.sigma_d * params.sigma_d))


def _modified_collision_probability(d_o: float, ttc: float, params) -> float:
    factor = 1.0 - params.a * _bell(ttc, params.sigma_inv_ttc)
    return _collision_probability(d_o, params) * factor


def _expected_time_to_goal(state: RobotState, goal: tuple[float, float], params) -> float:
    """Distance to the goal over the speed toward it; 0 inside goal_tolerance."""
    dx = goal[0] - state.pose.x
    dy = goal[1] - state.pose.y
    d = math.hypot(dx, dy)
    if d <= params.goal_tolerance:
        return 0.0
    v_goal = state.v * (math.cos(state.pose.heading) * dx
                        + math.sin(state.pose.heading) * dy) / d
    return d / v_goal if v_goal > params.v_epsilon else math.inf


def _terminal_bonus(p_s_N: float, ttg: float, ttc: float, params) -> float:
    """j_terminal = -p_s_N * C_TTG * C_TTC."""
    if p_s_N == 0.0:
        return 0.0
    return -(p_s_N * _bell(ttg, params.sigma_inv_ttg) * _bell(ttc, params.sigma_inv_ttc))


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
        r, theta, delta = _egocentric_coords(pose, target)
        if stop_radius is not None and r < stop_radius:
            reached_at = t
            break
        kappa = _control_law_curvature(r, theta, delta, gains)
        v = _velocity_modulation(kappa, v_max, r, gains)
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
    target = _target_from_param(start.pose, z.r, z.theta, z.delta)
    dt = cfg.step_h / substeps
    dv = cfg.accel_limit * dt
    dw = cfg.alpha_limit * dt
    pose = start.pose
    v_prev, w_prev = start.v, start.omega
    for _ in range(cfg.n_steps * substeps):
        r, theta, delta = _egocentric_coords(pose, target)
        kappa = _control_law_curvature(r, theta, delta, cfg.gains)
        v_cmd = _velocity_modulation(kappa, z.v_max, r, cfg.gains)
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


def reference_rollout_step(pose: Pose, v_prev: float, w_prev: float, target: Pose,
                           v_max: float, cfg: PlannerConfig):
    """One closed-loop step of the rollout, composed from the formulas above:
    control law, velocity modulation, limits, rate limits, one arc step.
    Returns (pose, v, omega)."""
    h = cfg.step_h
    r, theta, delta = _egocentric_coords(pose, target)
    kappa = _control_law_curvature(r, theta, delta, cfg.gains)
    v_cmd = _velocity_modulation(kappa, v_max, r, cfg.gains)
    w_cmd = kappa * v_cmd
    v_cmd = min(cfg.v_limit, max(-cfg.v_limit, v_cmd))
    w_cmd = min(cfg.omega_limit, max(-cfg.omega_limit, w_cmd))
    v = min(v_prev + cfg.accel_limit * h, max(v_prev - cfg.accel_limit * h, v_cmd))
    w = min(w_prev + cfg.alpha_limit * h, max(w_prev - cfg.alpha_limit * h, w_cmd))
    return _advance_pose(pose, v, w, h), v, w


def _np_wrap_angle(angle):
    w = angle - math.tau * np.rint(angle / math.tau)
    return np.where(w <= -math.pi, math.pi, w)


def reference_rollout_batch(start: RobotState, params: np.ndarray, cfg: PlannerConfig):
    """kinematics.rollout_batch as one plain numpy step loop: the same ufuncs
    in the same order on every row, with each branch taken through np.where
    over the whole batch and fresh arrays for every result. The same numpy
    rounds both sides alike, so the two agree bit for bit at any dispatch
    level. Returns the (xs, ys, headings, vs, omegas) arrays, each (B, N+1)."""
    gains = cfg.gains
    k1, k2 = gains.k1, gains.k2
    h = cfg.step_h
    r_z, th_z, dl_z, vmax_z = params.T
    los = _np_wrap_angle(start.pose.heading - dl_z)
    tx = start.pose.x + r_z * np.cos(los)
    ty = start.pose.y + r_z * np.sin(los)
    th = _np_wrap_angle(los + th_z)
    b = params.shape[0]
    x, y, hd, v_prev, w_prev = (np.full(b, float(c)) for c in (
        start.pose.x, start.pose.y, start.pose.heading, start.v, start.omega))
    states = [[a] for a in (x, y, hd, v_prev, w_prev)]
    for _ in range(cfg.n_steps):
        # egocentric coordinates of the targets
        dx = tx - x
        dy = ty - y
        r = np.hypot(dx, dy)
        los = np.where(r < R_EPSILON, hd, np.arctan2(dy, dx))
        theta = _np_wrap_angle(th - los)
        delta = _np_wrap_angle(hd - los)
        # curvature, clamped below R_EPSILON
        k1_theta = k1 * theta
        minus_bracket = k2 * (np.arctan(-k1_theta) - delta)
        minus_bracket = minus_bracket - (1.0 + k1 / (1.0 + k1_theta * k1_theta)) * np.sin(delta)
        kappa = minus_bracket / np.maximum(r, R_EPSILON)
        kappa = np.where(r < R_EPSILON, np.minimum(np.maximum(kappa, -KAPPA_MAX), KAPPA_MAX),
                         kappa)
        # velocity modulation, limits, rate limits
        v = vmax_z / (1.0 + gains.curvature_beta
                      * np.power(np.abs(kappa), gains.curvature_lambda))
        v = v * np.minimum(1.0, r / R_SLOWDOWN)
        w = kappa * v
        v = np.minimum(np.maximum(v, -cfg.v_limit), cfg.v_limit)
        w = np.minimum(np.maximum(w, -cfg.omega_limit), cfg.omega_limit)
        dv = cfg.accel_limit * h
        dw = cfg.alpha_limit * h
        v = np.minimum(np.maximum(v, v_prev - dv), v_prev + dv)
        w = np.minimum(np.maximum(w, w_prev - dw), w_prev + dw)
        # one exact arc step, straight below OMEGA_STRAIGHT
        straight = np.abs(w) < OMEGA_STRAIGHT
        h1 = hd + w * h
        radius = v / np.where(straight, 1.0, w)
        cos0 = np.cos(hd)
        sin0 = np.sin(hd)
        x = np.where(straight, x + v * h * cos0, x + radius * (np.sin(h1) - sin0))
        y = np.where(straight, y + v * h * sin0, y - radius * (np.cos(h1) - cos0))
        hd = np.where(straight, hd, _np_wrap_angle(h1))
        v_prev, w_prev = v, w
        for column, a in zip(states, (x, y, hd, v, w)):
            column.append(a)
    return tuple(np.stack(column, axis=1) for column in states)


def reference_sample_field(grid, values, xs, ys) -> np.ndarray:
    """OccupancyGrid.sample_field_batch with 2-D fancy indexing in place of
    its flat-index gather, and the stencil worked out here: the same
    arithmetic, so the two agree bit for bit."""
    w1, h1 = grid.width - 1, grid.height - 1
    gx = np.minimum(np.maximum((np.asarray(xs) - grid.origin[0]) / grid.resolution - 0.5,
                               0.0), w1)
    gy = np.minimum(np.maximum((np.asarray(ys) - grid.origin[1]) / grid.resolution - 0.5,
                               0.0), h1)
    # a one-cell axis samples its one cell twice
    ix = np.minimum(gx.astype(int), max(w1 - 1, 0))
    iy = np.minimum(gy.astype(int), max(h1 - 1, 0))
    ix1 = np.minimum(ix + 1, w1)
    iy1 = np.minimum(iy + 1, h1)
    fx = gx - ix
    fy = gy - iy
    return ((1 - fy) * ((1 - fx) * values[iy, ix] + fx * values[iy, ix1])
            + fy * ((1 - fx) * values[iy1, ix] + fx * values[iy1, ix1]))


@functools.lru_cache(maxsize=8)
def _distance_field(grid) -> np.ndarray:
    return brute_force_distance_field(grid.occupied, grid.resolution)


def _sample_distance(grid, x: float, y: float) -> float:
    """OccupancyGrid.sample_distance from the brute-force distance field."""
    if not grid.occupied.any():
        return math.inf
    return float(reference_sample_field(grid, _distance_field(grid), np.array([x]),
                                        np.array([y]))[0])


def _obstacle_state(obstacle, t: float) -> tuple[float, float, float, float]:
    """(x, y, vx, vy) of an obstacle at time t: constant velocity from its
    epoch, or its waypoint script interpolated linearly and held still
    before the first waypoint and from the last one on."""
    wps = obstacle.waypoints
    if wps is None:
        (x, y), (vx, vy) = obstacle.position, obstacle.velocity
        dt = t - obstacle.epoch
        return x + vx * dt, y + vy * dt, vx, vy
    if t < wps[0][0] or t >= wps[-1][0]:
        _, x, y = wps[0] if t < wps[0][0] else wps[-1]
        return x, y, 0.0, 0.0
    i = 1
    while wps[i][0] <= t:  # the waypoint interval [t0, t1) holding t
        i += 1
    (t0, x0, y0), (t1, x1, y1) = wps[i - 1], wps[i]
    f = (t - t0) / (t1 - t0)
    return (x0 + f * (x1 - x0), y0 + f * (y1 - y0),
            (x1 - x0) / (t1 - t0), (y1 - y0) / (t1 - t0))


def _clearance(world, x: float, y: float, t: float) -> float:
    """distance_to_nearest: the grid and every disk at time t, less the
    robot radius, floored at 0. A disk's distance is numpy's hypot, the
    model's arithmetic (math.hypot can round a last bit differently)."""
    d = _sample_distance(world.grid, x, y)
    for obs in world.obstacles:
        ox, oy, _, _ = _obstacle_state(obs, t)
        d = min(d, float(np.hypot(x - ox, y - oy)) - obs.radius)
    return max(0.0, d - world.robot_radius)


def _ray_box(grid, x, y, ux, uy):
    """(entry, exit) arcs of a ray through the grid box from (x, y), the entry
    at least 0; None where the ray misses the box."""
    xmin, ymin, xmax, ymax = grid.extent
    s, s_end = 0.0, math.inf
    for p, u, lo, hi in ((x, ux, xmin, xmax), (y, uy, ymin, ymax)):
        if abs(u) < 1e-15:
            if p < lo or p > hi:
                return None
        else:
            ta, tb = sorted(((lo - p) / u, (hi - p) / u))
            s, s_end = max(s, ta), min(s_end, tb)
    return None if s_end < s else (s, s_end)


def reference_ray_arc(grid, x, y, ux, uy, robot_radius, max_arc):
    """The grid march written against a scalar sample of the distance field:
    the first sample within the robot radius, backed off by its overshoot
    (never before the entry into the grid box), or None. The march goes one
    step of a resolution past `max_arc`, and a backed-off arc beyond it is
    None."""
    box = _ray_box(grid, x, y, ux, uy)
    if box is None:
        return None
    s = s_entry = box[0]
    s_end = min(box[1], max_arc)
    s_last = s_end + grid.resolution
    while s <= s_last:
        gap = _sample_distance(grid, x + ux * s, y + uy * s) - robot_radius
        if gap <= 0.0:
            arc = max(s + gap, s_entry)
            return arc if arc <= s_end else None
        s += max(gap, grid.resolution)
    return None


def fine_step_ray_contact(grid, x, y, ux, uy, robot_radius, step):
    """A fixed-step march of one ray through the grid box: (first sample arc
    within the robot radius or None, length of the contact zone from there
    to the first sample out of contact, arc where the ray leaves the box)."""
    box = _ray_box(grid, x, y, ux, uy)
    if box is None:
        return None, 0.0, None
    s0, s_end = box
    s = s0 + step * np.arange(int((s_end - s0) / step) + 1)
    df = reference_sample_field(grid, _distance_field(grid), x + ux * s, y + uy * s)
    contact = df - robot_radius <= 0.0
    if not contact.any():
        return None, 0.0, s_end
    first = int(np.argmax(contact))
    inside = contact[first:]
    samples = inside.size if inside.all() else int(np.argmin(inside))
    return float(s[first]), samples * step, s_end


def reference_time_to_collision(world, position, velocity, t0: float) -> float:
    """time_to_collision one obstacle at a time: 0 in contact, the earliest
    positive root of each disk's relative-motion quadratic, the grid march,
    +inf beyond TTC_HORIZON."""
    x, y = position
    vx, vy = velocity
    if _clearance(world, x, y, t0) <= 0.0:
        return 0.0
    best = math.inf
    for obs in world.obstacles:
        ox, oy, ovx, ovy = _obstacle_state(obs, t0)
        dpx, dpy = ox - x, oy - y
        dvx, dvy = ovx - vx, ovy - vy
        a = dvx * dvx + dvy * dvy
        if a < 1e-18:
            continue
        r_sum = world.robot_radius + obs.radius
        b = 2.0 * (dpx * dvx + dpy * dvy)
        c = dpx * dpx + dpy * dpy - r_sum * r_sum
        disc = b * b - 4.0 * a * c
        if disc > 0.0:
            s = (-b - math.sqrt(disc)) / (2.0 * a)
            if s > 0.0:
                best = min(best, s)
    speed = math.hypot(vx, vy)
    if speed >= 1e-9 and world.grid.occupied.any():
        arc = reference_ray_arc(world.grid, x, y, vx / speed, vy / speed,
                                world.robot_radius, min(best, TTC_HORIZON) * speed)
        if arc is not None:
            best = min(best, arc / speed)
    return math.inf if best > TTC_HORIZON else best


def reference_trajectory_cost(traj, goal: Pose, world, params, cfg: PlannerConfig):
    """The trajectory cost one segment at a time from the formulas above.
    Returns (total, [(d_o, p_c, p_s), ...], terminal j or None)."""
    states = traj.states
    grid = world.grid
    xs = np.array([s.pose.x for s in states])
    ys = np.array([s.pose.y for s in states])
    if grid.occupied.any():
        nav = reference_sample_field(grid, reference_navigation_field(grid, (goal.x, goal.y)),
                                     xs, ys).tolist()
    else:
        nav = [math.hypot(s.pose.x - goal.x, s.pose.y - goal.y) for s in states]
    point_d = [_clearance(world, s.pose.x, s.pose.y, s.t) for s in states]
    ds_mode = params.mode == DS_MPEPC
    total, p_s, rows = 0.0, 1.0, []
    for i in range(1, len(states)):
        j = i - 1 if point_d[i - 1] <= point_d[i] else i
        d_o = point_d[j]
        if not ds_mode:
            p_c = _collision_probability(d_o, params)
        elif _collision_probability(d_o, params) < 1e-12:
            p_c = _modified_collision_probability(d_o, math.inf, params)
        else:
            s = states[j]
            velocity = (s.v * math.cos(s.pose.heading), s.v * math.sin(s.pose.heading))
            ttc = reference_time_to_collision(world, (s.pose.x, s.pose.y), velocity, s.t)
            p_c = _modified_collision_probability(d_o, ttc, params)
        p_s *= 1.0 - p_c
        j_progress = params.w_progress * (nav[i] - nav[i - 1])
        j_action = cfg.step_h * (params.w_action_v * states[i].v ** 2
                                 + params.w_action_w * states[i].omega ** 2)
        total += p_s * j_progress + j_action + (1.0 - p_s) * params.c_collision
        rows.append((d_o, p_c, p_s))
    j_terminal = None
    if ds_mode and params.include_terminal:
        last = states[-1]
        ttg = _expected_time_to_goal(last, (goal.x, goal.y), params)
        velocity = (cfg.v_limit * math.cos(last.pose.heading),
                    cfg.v_limit * math.sin(last.pose.heading))
        ttc = reference_time_to_collision(world, (last.pose.x, last.pose.y), velocity, last.t)
        j_terminal = _terminal_bonus(p_s, ttg, ttc, params)
        total += j_terminal
    return total, rows, j_terminal
