"""Vectorized candidate evaluation for the optimizer's global phase.

Mirrors rollout + trajectory_cost across a whole batch of trajectory
parameters in numpy. The planning problem itself comes from the one
`cost.CostKernel` that plan() builds: goal, weights, planner config,
navigation field and the obstacles predicted at the step times
(`world.HorizonSnapshot.tracks`, the same `predict_obstacle` values the
scalar TTC reads). Clearance goes through `world._clearance_batch`. This
module keeps only the batched rollout, TTC and cost arithmetic.

Results agree with the scalar path to floating-point noise (the march-based
static TTC may differ within its one-cell quantization, and the scalar
clearance reads the snapshot's `np.interp` centers). The scalar path remains
the reference semantics: refinement scores through the kernel itself, so
refined costs are bit-identical to evaluate_candidate totals.
"""

from __future__ import annotations

import math

import numpy as np

from .cost import _P_C_SKIP, DS_MPEPC, CostKernel
from .geometry import KAPPA_MAX, R_EPSILON, R_SLOWDOWN
from .kinematics import OMEGA_STRAIGHT, PlannerConfig, RobotState, TrajectoryParam
from .world import _SPEED_EPS, TTC_HORIZON, World, _clearance_batch


def _wrap(a: np.ndarray) -> np.ndarray:
    w = a - math.tau * np.round(a / math.tau)
    return np.where(w <= -math.pi, math.pi, w)


def _rollout_batch(params: np.ndarray, start: RobotState, cfg: PlannerConfig):
    """Closed-loop rollout of B candidates; returns (B, N+1) state arrays."""
    b = params.shape[0]
    n = cfg.n_steps
    gains = cfg.gains
    k1, k2 = gains.k1, gains.k2
    beta, lam = gains.curvature_beta, gains.curvature_lambda
    h = cfg.step_h
    dv = cfg.accel_limit * h
    dw = cfg.alpha_limit * h

    r_z, th_z, dl_z, vmax_z = params.T
    los0 = _wrap(start.pose.heading - dl_z)
    tx = start.pose.x + r_z * np.cos(los0)
    ty = start.pose.y + r_z * np.sin(los0)
    th_t = _wrap(los0 + th_z)

    xs = np.empty((b, n + 1))
    ys = np.empty((b, n + 1))
    hs = np.empty((b, n + 1))
    vs = np.empty((b, n + 1))
    ws = np.empty((b, n + 1))
    xs[:, 0] = start.pose.x
    ys[:, 0] = start.pose.y
    hs[:, 0] = start.pose.heading
    vs[:, 0] = start.v
    ws[:, 0] = start.omega

    x = xs[:, 0].copy()
    y = ys[:, 0].copy()
    hd = hs[:, 0].copy()
    v_prev = vs[:, 0].copy()
    w_prev = ws[:, 0].copy()
    for i in range(1, n + 1):
        dx = tx - x
        dy = ty - y
        r = np.hypot(dx, dy)
        near = r < R_EPSILON
        los = np.where(near, hd, np.arctan2(dy, dx))
        theta = _wrap(th_t - los)
        delta = _wrap(hd - los)
        bracket = k2 * (delta - np.arctan(-k1 * theta))
        bracket += (1.0 + k1 / (1.0 + (k1 * theta) ** 2)) * np.sin(delta)
        kappa = np.where(
            near,
            np.clip(-bracket / R_EPSILON, -KAPPA_MAX, KAPPA_MAX),
            -bracket / np.where(near, 1.0, r),
        )
        v_cmd = vmax_z / (1.0 + beta * np.abs(kappa) ** lam)
        v_cmd = v_cmd * np.minimum(1.0, r / R_SLOWDOWN)
        w_cmd = kappa * v_cmd
        np.clip(v_cmd, -cfg.v_limit, cfg.v_limit, out=v_cmd)
        np.clip(w_cmd, -cfg.omega_limit, cfg.omega_limit, out=w_cmd)
        v = np.clip(v_cmd, v_prev - dv, v_prev + dv)
        w = np.clip(w_cmd, w_prev - dw, w_prev + dw)
        straight = np.abs(w) < OMEGA_STRAIGHT
        w_safe = np.where(straight, 1.0, w)
        radius = v / w_safe
        h1 = hd + w * h
        x = np.where(
            straight,
            x + v * h * np.cos(hd),
            x + radius * (np.sin(h1) - np.sin(hd)),
        )
        y = np.where(
            straight,
            y + v * h * np.sin(hd),
            y - radius * (np.cos(h1) - np.cos(hd)),
        )
        hd = np.where(straight, hd, _wrap(h1))
        xs[:, i] = x
        ys[:, i] = y
        hs[:, i] = hd
        vs[:, i] = v
        ws[:, i] = w
        v_prev, w_prev = v, w
    return xs, ys, hs, vs, ws


def _static_arcs_lockstep(grid, x, y, ux, uy, rr: float, max_arc: np.ndarray) -> np.ndarray:
    """Vectorized sphere-trace march; +inf where the ray never hits."""
    n = x.shape[0]
    arcs = np.full(n, math.inf)
    if n == 0 or not grid.has_occupied:
        return arcs
    xmin, ymin, xmax, ymax = grid.extent
    s0 = np.zeros(n)
    s1 = np.minimum(np.asarray(max_arc, dtype=float), math.inf)
    valid = np.ones(n, dtype=bool)
    for p, u, lo, hi in ((x, ux, xmin, xmax), (y, uy, ymin, ymax)):
        parallel = np.abs(u) < 1e-15
        valid &= ~parallel | ((p >= lo) & (p <= hi))
        with np.errstate(divide="ignore", invalid="ignore"):
            ta = (lo - p) / np.where(parallel, 1.0, u)
            tb = (hi - p) / np.where(parallel, 1.0, u)
        lo_t = np.minimum(ta, tb)
        hi_t = np.maximum(ta, tb)
        s0 = np.where(parallel, s0, np.maximum(s0, lo_t))
        s1 = np.where(parallel, s1, np.minimum(s1, hi_t))
    valid &= s1 >= s0
    min_step = 0.5 * grid.resolution

    idx = np.nonzero(valid)[0]
    s = s0[idx]
    end = s1[idx]
    while idx.size:
        df = grid.sample_distance_batch(x[idx] + ux[idx] * s, y[idx] + uy[idx] * s)
        gap = df - rr
        hit = gap <= 0.0
        arcs[idx[hit]] = s[hit]
        s = s + np.maximum(min_step, gap)
        alive = ~hit & (s <= end)
        idx = idx[alive]
        s = s[alive]
        end = end[alive]
    return arcs


def _ttc_points(world: World, x, y, vx, vy, t_idx, tracks, d0) -> np.ndarray:
    """Vectorized time_to_collision for points indexed into the track arrays."""
    n = x.shape[0]
    best = np.full(n, math.inf)
    for radius, px, py, ovx, ovy in tracks:
        dpx = px[t_idx] - x
        dpy = py[t_idx] - y
        dvx = ovx[t_idx] - vx
        dvy = ovy[t_idx] - vy
        a = dvx * dvx + dvy * dvy
        r_sum = world.robot_radius + radius
        bq = 2.0 * (dpx * dvx + dpy * dvy)
        c = dpx * dpx + dpy * dpy - r_sum * r_sum
        disc = bq * bq - 4.0 * a * c
        ok = (a >= _SPEED_EPS * _SPEED_EPS) & (disc > 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            s = (-bq - np.sqrt(np.where(ok, disc, 0.0))) / np.where(ok, 2.0 * a, 1.0)
        s = np.where(ok & (s > 0.0), s, math.inf)
        best = np.minimum(best, s)
    speed = np.hypot(vx, vy)
    movers = speed >= _SPEED_EPS
    if movers.any() and world.grid.has_occupied:
        mi = np.nonzero(movers)[0]
        sp = speed[mi]
        arcs = _static_arcs_lockstep(
            world.grid,
            x[mi], y[mi], vx[mi] / sp, vy[mi] / sp,
            world.robot_radius,
            np.minimum(best[mi], TTC_HORIZON) * sp,
        )
        best[mi] = np.minimum(best[mi], arcs / sp)
    best = np.where(best > TTC_HORIZON, math.inf, best)
    return np.where(d0 <= 0.0, 0.0, best)


def evaluate_batch(
    params: list[TrajectoryParam], current: RobotState, kernel: CostKernel
) -> np.ndarray:
    """Total costs of all candidates, mirroring the scalar evaluation path.

    `kernel` holds the problem; its snapshot must be predicted at the step
    times of a rollout from `current` (`kinematics.step_times(current.t, cfg)`).
    """
    world = kernel.world
    cfg = kernel.cfg
    cost_params = kernel.params
    tracks = kernel.snapshot.tracks
    arr = np.array([p.as_tuple() for p in params], dtype=float)
    b = arr.shape[0]
    n = cfg.n_steps
    h = cfg.step_h
    xs, ys, hs, vs, ws = _rollout_batch(arr, current, cfg)

    flat = (b, n + 1)
    d = _clearance_batch(
        world, xs.reshape(-1), ys.reshape(-1),
        [(r, np.tile(px, b), np.tile(py, b)) for r, px, py, _, _ in tracks],
    ).reshape(flat)
    nf = kernel.nav.distance_batch(xs.reshape(-1), ys.reshape(-1)).reshape(flat)

    left = d[:, :-1] <= d[:, 1:]
    d_seg = np.where(left, d[:, :-1], d[:, 1:])
    sig_d2 = cost_params.sigma_d * cost_params.sigma_d
    p_c = np.exp(-(d_seg * d_seg) / sig_d2)

    ds_mode = cost_params.mode == DS_MPEPC
    if ds_mode:
        need = p_c >= _P_C_SKIP
        ttc = np.full((b, n), math.inf)
        if need.any():
            rows, cols = np.nonzero(need)
            pt = np.where(left[rows, cols], cols, cols + 1)
            px = xs[rows, pt]
            py = ys[rows, pt]
            pv = vs[rows, pt]
            ph = hs[rows, pt]
            ttc[rows, cols] = _ttc_points(
                world, px, py, pv * np.cos(ph), pv * np.sin(ph), pt, tracks,
                d[rows, pt],
            )
        with np.errstate(divide="ignore"):
            inv = np.where(ttc == 0.0, math.inf, np.where(np.isinf(ttc), 0.0, 1.0 / ttc))
        sig_c2 = cost_params.sigma_inv_ttc * cost_params.sigma_inv_ttc
        with np.errstate(invalid="ignore"):
            factor = 1.0 - cost_params.a * np.exp(-(inv * inv) / sig_c2)
        p_c = p_c * factor

    p_s = np.cumprod(1.0 - p_c, axis=1)
    j_prog = cost_params.w_progress * np.diff(nf, axis=1)
    j_act = h * (
        cost_params.w_action_v * vs[:, 1:] ** 2 + cost_params.w_action_w * ws[:, 1:] ** 2
    )
    totals = np.sum(
        p_s * j_prog + j_act + (1.0 - p_s) * cost_params.c_collision, axis=1
    )

    if ds_mode and cost_params.include_terminal:
        gx, gy = kernel.goal
        dxg = gx - xs[:, -1]
        dyg = gy - ys[:, -1]
        dist = np.hypot(dxg, dyg)
        safe_d = np.where(dist > 0.0, dist, 1.0)
        v_goal = vs[:, -1] * (np.cos(hs[:, -1]) * dxg + np.sin(hs[:, -1]) * dyg) / safe_d
        with np.errstate(divide="ignore"):
            ttg = np.where(
                dist <= cost_params.goal_tolerance,
                0.0,
                np.where(v_goal > cost_params.v_epsilon, dist / v_goal, math.inf),
            )
        t_ttc = _ttc_points(
            world,
            xs[:, -1], ys[:, -1],
            cfg.v_limit * np.cos(hs[:, -1]), cfg.v_limit * np.sin(hs[:, -1]),
            np.full(b, n, dtype=int), tracks, d[:, -1],
        )
        with np.errstate(divide="ignore"):
            inv_g = np.where(ttg == 0.0, math.inf, np.where(np.isinf(ttg), 0.0, 1.0 / ttg))
            inv_c = np.where(
                t_ttc == 0.0, math.inf, np.where(np.isinf(t_ttc), 0.0, 1.0 / t_ttc)
            )
        sg2 = cost_params.sigma_inv_ttg ** 2
        sc2 = cost_params.sigma_inv_ttc ** 2
        with np.errstate(invalid="ignore"):
            c_ttg = np.exp(-(inv_g * inv_g) / sg2)
            c_ttc = np.exp(-(inv_c * inv_c) / sc2)
        p_s_n = p_s[:, -1]
        totals = totals + np.where(p_s_n == 0.0, 0.0, -(p_s_n * c_ttg * c_ttc))
    return totals
