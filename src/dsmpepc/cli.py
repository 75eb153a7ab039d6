"""Command-line surface: run scenarios, compare cost modes, render landscapes.

Commands: `run`, `compare`, `landscape`, `list-builtins`. Scenario arguments
accept either a JSON file path or a built-in scenario name. Exit codes:
0 success (run: all agents reached), 1 non-reached outcome, 2 load/usage
error, 3 artifact write failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import replace

import numpy as np

from . import scenarios as scen
from .cost import BASELINE_MPEPC, DS_MPEPC, CostKernel
from .optimizer import candidate_pool, evaluate_batch
from .simulator import OUTCOME_DEADLOCKED, SimResult, run, steps
from .svg import AGENT_COLOR, OBSTACLE_COLOR, SceneRenderer
from .world import predict_obstacle

SCHEMA_VERSION = 1

_MODE_ALIASES = {"ds": DS_MPEPC, "mpepc": BASELINE_MPEPC,
                 DS_MPEPC: DS_MPEPC, BASELINE_MPEPC: BASELINE_MPEPC}


def _load_scenario(source: str, mode: str | None, seed: int | None) -> scen.ScenarioConfig:
    if os.path.exists(source):
        config = scen.load(source)
    elif source in scen.BUILTINS:
        config = scen.builtin(source)
    else:
        raise scen.ScenarioError(
            f"{source!r} is neither a readable file nor a built-in scenario"
        )
    if seed is not None:
        config = replace(config, seed=seed)
    return config if mode is None else config.with_mode(mode)


def _write_text(path: str, text: str) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(text)


def _trace_csv(result_agent) -> str:
    lines = ["t,x,y,heading,v,omega,d_o,nf_distance"]
    for s in result_agent.trace:
        # an unbounded clearance (inf; null in metrics.json) is an empty cell
        d_o = f"{s.d_o:.6f}" if math.isfinite(s.d_o) else ""
        lines.append(
            f"{s.t:.3f},{s.x:.6f},{s.y:.6f},{s.heading:.6f},"
            f"{s.v:.6f},{s.omega:.6f},{d_o},{s.nf_distance:.6f}"
        )
    return "\n".join(lines) + "\n"


def _diag_csv(result_agent) -> str:
    lines = ["t,r,theta,delta,v_max,cost,n_evaluated"]
    for rec in result_agent.replans:
        p = rec.param
        lines.append(
            f"{rec.t:.3f},{p.r:.6f},{p.theta:.6f},{p.delta:.6f},{p.v_max:.6f},"
            f"{rec.cost:.9f},{rec.n_evaluated}"
        )
    return "\n".join(lines) + "\n"


def _render_result(config: scen.ScenarioConfig, result: SimResult,
                   with_fans: bool) -> str:
    r = SceneRenderer(config.grid)
    if with_fans and result.diag_fans:
        for agent_fans in result.diag_fans.values():
            for _, polylines in agent_fans:
                for line in polylines:
                    r.add_fan(line)
    final_t = max(s.trace[-1].t for s in result.agents)
    for obs in config.scripted_obstacles:
        n_points = max(2, int(final_t / 0.5) + 1)
        pts = [predict_obstacle(obs, final_t * k / (n_points - 1)) for k in range(n_points)]
        r.add_path(pts, color=OBSTACLE_COLOR, width=1.5)
        r.add_disk(*predict_obstacle(obs, final_t), obs.radius, OBSTACLE_COLOR)
    for spec, agent in zip(config.agents, result.agents):
        r.add_path([(s.x, s.y) for s in agent.trace])
        last = agent.trace[-1]
        r.add_disk(last.x, last.y, spec.radius, AGENT_COLOR)
        r.add_goal_marker(spec.goal.x, spec.goal.y)
    return r.to_svg()


def _metrics_json(config: scen.ScenarioConfig, result: SimResult,
                  wall_clock_s: float, artifacts: list[str]) -> str:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "scenario": config.name,
        "seed": result.seed,
        "modes": {a.id: a.mode for a in config.agents},
        "result": result.to_dict(),
        "parameters": {
            "agents": config.to_dict()["agents"],
        },
        "wall_clock_s": round(wall_clock_s, 3),
        "artifacts": artifacts,
    }
    return json.dumps(doc, indent=2) + "\n"


def cmd_run(args) -> int:
    config = _load_scenario(args.scenario, _MODE_ALIASES.get(args.mode), args.seed)
    t0 = time.perf_counter()
    result = run(config, diag_every=25 if args.diag else None)
    wall = time.perf_counter() - t0
    out = args.out
    artifacts: list[str] = []
    if args.csv:
        for agent in result.agents:
            path = os.path.join(out, f"trace_{agent.id}.csv")
            _write_text(path, _trace_csv(agent))
            artifacts.append(path)
    if args.diag:
        for agent in result.agents:
            path = os.path.join(out, f"diag_{agent.id}.csv")
            _write_text(path, _diag_csv(agent))
            artifacts.append(path)
    if args.svg:
        path = os.path.join(out, "scene.svg")
        _write_text(path, _render_result(config, result, with_fans=args.diag))
        artifacts.append(path)
    _write_text(
        os.path.join(out, "metrics.json"),
        _metrics_json(config, result, wall, artifacts),
    )
    for agent in result.agents:
        ttg = "-" if agent.time_to_goal is None else f"{agent.time_to_goal:.1f}s"
        clear = ("-" if math.isinf(agent.min_clearance)
                 else f"{agent.min_clearance:.3f}m")
        print(
            f"{agent.id}: {agent.outcome} time_to_goal={ttg} "
            f"path={agent.path_length:.2f}m min_clearance={clear}"
        )
    return 0 if result.all_reached else 1


def _compare_rows(config: scen.ScenarioConfig, n_seeds: int):
    rows = []
    for mode in (DS_MPEPC, BASELINE_MPEPC):
        stats = {"success": 0, "deadlock": 0, "collision": 0}
        ttgs: list[float] = []
        clearances: list[float] = []
        moded = config.with_mode(mode)
        for k in range(n_seeds):
            result = run(replace(moded, seed=config.seed + k))
            stats["success"] += int(result.all_reached)
            stats["deadlock"] += int(
                any(a.outcome == OUTCOME_DEADLOCKED for a in result.agents)
            )
            stats["collision"] += int(bool(result.contacts))
            ttgs.extend(
                a.time_to_goal for a in result.agents if a.time_to_goal is not None
            )
            clearances.extend(a.min_clearance for a in result.agents)
        mean_ttg = sum(ttgs) / len(ttgs) if ttgs else math.nan
        mean_clear = sum(clearances) / len(clearances) if clearances else math.nan
        rows.append(
            (mode, n_seeds, stats["success"] / n_seeds, stats["deadlock"] / n_seeds,
             stats["collision"] / n_seeds, mean_ttg, mean_clear)
        )
    return rows


def cmd_compare(args) -> int:
    config = _load_scenario(args.scenario, None, args.seed)
    rows = _compare_rows(config, args.seeds)
    lines = ["mode,runs,success_rate,deadlock_rate,collision_rate,"
             "mean_time_to_goal,mean_min_clearance"]
    for mode, runs, succ, dead, coll, ttg, clear in rows:
        # no value (NaN) and an unbounded clearance (inf; null in metrics.json)
        # are empty cells
        ttg_s, clear_s = (f"{x:.3f}" if math.isfinite(x) else "" for x in (ttg, clear))
        lines.append(f"{mode},{runs},{succ:.3f},{dead:.3f},{coll:.3f},{ttg_s},{clear_s}")
    table = "\n".join(lines) + "\n"
    _write_text(os.path.join(args.out, "compare.csv"), table)
    print(table, end="")
    return 0


def _landscape_candidates(config, agent_spec, state, world, nav):
    """The planner's sweep (`candidate_pool`, without a warm start) at one
    state and world, scored in one batch under the ds cost with its terminal
    term (whose TTG and TTC the ranks read): its (M, 4) parameters, their
    `CostRows` and their rollouts' state arrays."""
    params = replace(agent_spec.cost, mode=DS_MPEPC, include_terminal=True)
    opt = replace(agent_spec.optimizer, n_refine_seeds=0, seed=config.seed)
    zs, _ = candidate_pool(state, agent_spec.goal, agent_spec.planner, opt)
    kernel = CostKernel(world, agent_spec.goal, params, agent_spec.planner, state, nav)
    return (zs, *evaluate_batch(zs, kernel))


def cmd_landscape(args) -> int:
    config = _load_scenario(args.scenario, _MODE_ALIASES.get(args.mode), args.seed)
    agent_ids = [a.id for a in config.agents]
    if args.agent not in agent_ids:
        raise scen.ScenarioError(f"unknown agent {args.agent!r} (have {agent_ids})")
    if not 0.0 <= args.t <= config.duration:
        raise scen.ScenarioError(f"snapshot time {args.t} outside [0, {config.duration}]")

    spec = next(a for a in config.agents if a.id == args.agent)
    # the simulation's own step at the snapshot time, or its last step
    cycles = int(round(args.t / spec.planner.step_h))
    for step in steps(config):
        if step.cycle == cycles:
            break
    zs, rows, (xs, ys, *_) = _landscape_candidates(
        config, spec, step.states[spec.id], step.worlds[spec.id], step.navs[spec.id])

    # terminal TTC ranks descending; ties go by (r, theta, delta, v_max)
    key = {"cost": rows.total, "ttg": rows.ttg, "ttc": -rows.ttc_terminal}[args.rank]
    ranked = np.lexsort((*zs[:, ::-1].T, key))
    top = ranked[: args.top]

    renderer = SceneRenderer(config.grid)
    for k in top:
        renderer.add_fan(list(zip(xs[k].tolist(), ys[k].tolist())))
    for other in config.agents:
        st = step.states[other.id]
        color = AGENT_COLOR if other.id == spec.id else OBSTACLE_COLOR
        renderer.add_disk(st.pose.x, st.pose.y, other.radius, color)
    for obs in config.scripted_obstacles:
        renderer.add_disk(*predict_obstacle(obs, step.t), obs.radius, OBSTACLE_COLOR)
    renderer.add_goal_marker(spec.goal.x, spec.goal.y)

    lines = ["rank,r,theta,delta,v_max,cost,ttg,ttc"]
    table = np.column_stack((zs, rows.total, rows.ttg, rows.ttc_terminal))[ranked]
    for i, (r, theta, delta, v_max, cost, ttg, ttc) in enumerate(table.tolist()):
        lines.append(
            f"{i},{r:.6f},{theta:.6f},{delta:.6f},{v_max:.6f},{cost:.9f},{ttg:.6g},{ttc:.6g}"
        )
    _write_text(os.path.join(args.out, "landscape.svg"), renderer.to_svg())
    _write_text(os.path.join(args.out, "landscape.csv"), "\n".join(lines) + "\n")
    print(f"rendered {len(top)} of {len(zs)} candidates (rank={args.rank})")
    return 0


def cmd_list_builtins(_args) -> int:
    for name in sorted(scen.BUILTINS):
        doc = (scen.BUILTINS[name].__doc__ or "").strip().splitlines()
        blurb = doc[0] if doc else ""
        print(f"{name}: {blurb}")
    return 0


def _int_at_least(low: int):
    """argparse type: an integer no smaller than `low`."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dsmpepc",
        description="Receding-horizon robot navigation benchmarks and renders.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("scenario", help="scenario JSON path or built-in name")
        p.add_argument("--seed", type=_int_at_least(0), default=None,
                       help="override scenario seed")
        p.add_argument("--out", default="runs", help="output directory")

    def mode(p):
        # not on compare, which always runs both modes
        p.add_argument("--mode", choices=sorted(_MODE_ALIASES),
                       default=None, help="force a cost mode on every agent")

    p_run = sub.add_parser("run", help="simulate a scenario and write artifacts")
    common(p_run)
    mode(p_run)
    p_run.add_argument("--svg", action="store_true", help="render the scene to SVG")
    p_run.add_argument("--csv", action="store_true", help="write per-agent trace CSVs")
    p_run.add_argument("--diag", action="store_true",
                       help="record per-cycle planning diagnostics and fans")
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="run both cost modes over several seeds")
    common(p_cmp)
    p_cmp.add_argument("--seeds", type=_int_at_least(1), default=5,
                       help="number of seeds per mode")
    p_cmp.set_defaults(func=cmd_compare)

    p_land = sub.add_parser("landscape", help="render ranked candidate trajectories")
    common(p_land)
    mode(p_land)
    p_land.add_argument("--agent", required=True, help="agent id to sample for")
    p_land.add_argument("--t", type=float, default=0.0, help="snapshot time (s)")
    p_land.add_argument("--rank", choices=("cost", "ttg", "ttc"), default="cost")
    p_land.add_argument("--top", type=_int_at_least(0), default=50,
                        help="number of trajectories to render (0: ranking CSV only)")
    p_land.set_defaults(func=cmd_landscape)

    p_list = sub.add_parser("list-builtins", help="list built-in scenarios")
    p_list.set_defaults(func=cmd_list_builtins)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except scen.ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error writing artifacts: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
