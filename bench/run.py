#!/usr/bin/env python3
"""dsmpepc benchmark: one closed-loop caller per workload, outputs checked.

    python3 bench/run.py --workload plan_replay_ds --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory. With `--trace 0` the last line of standard output is a JSON
object with the end-to-end metrics; with `--trace 1` it carries the per-layer
metrics of a traced run instead (see bench/README.md). End-to-end timings are
normalised to a reference host speed (bench/hostclock.py).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os

# One caller thread: no BLAS or OpenMP worker pools beside it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent

# Set-up repeats until both limits are met; the median is reported. Short
# set-ups (the sims' take ~40 ms) need many repeats to be steady.
SETUP_MIN_REPEATS = 5
SETUP_MIN_S = 2.0
# Search quality in a closed loop is scored on the departure: before the
# agents interact, their states follow from the scenario, not from how the
# loop amplified float-level differences in earlier plans.
DEPARTURE_S = 1.0
# A plan() result must finish within one 5 Hz replanning step.
DEADLINE_MS = 200.0
# Rescoring a sweep argmin through the scalar path: the batch path agrees to
# floating-point noise (dsmpepc/_batch.py); refinement argmins must match exactly.
BATCH_TOL = 1e-6


def _import_program():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import dsmpepc
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import dsmpepc from {src}: {exc}")
    if Path(dsmpepc.__file__).resolve().parent.parent != src:
        raise SystemExit(f"bench: dsmpepc imported from {dsmpepc.__file__}, not {src}")
    return dsmpepc


class CheckError(Exception):
    """An output of the program failed a benchmark check."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


# --------------------------------------------------------------------------
# Per-plan observation and checks
# --------------------------------------------------------------------------


@dataclass
class Mark:
    """One call made with the host clock: sampling began at `enter`, the call
    ran from `t0` to `t1`."""

    enter: float
    t0: float
    t1: float


def net_segments(start: float, end: float, marks) -> list[tuple[float, float, float]]:
    """Cut [start, end] at the end of each marked call: (from, to, seconds of
    it not spent sampling the host clock)."""
    segments, last = [], start
    for m in marks:
        segments.append((last, m.t1, (m.t1 - last) - (m.t0 - m.enter)))
        last = m.t1
    segments.append((last, end, end - last))
    return segments


def clocked(fn, clock, marks: list):
    """`fn`, sampling `clock` before each call and marking the call."""
    def call(*args, **kwargs):
        enter = time.perf_counter()
        clock.sample()
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            marks.append(Mark(enter, t0, time.perf_counter()))

    return call


@dataclass
class PlanCall(Mark):
    args: tuple
    kwargs: dict
    best_param: object
    best_cost: float
    halt_cost: float
    argmin: int


class PlanProbe:
    """Times each call of `fn` (a plan function) and keeps what the output
    checks need.

    Inside run() the probe stands in for `dsmpepc.simulator.plan`; its own
    work per call (three clock reads, two scans of the evaluations) is
    microseconds against a plan of tens of milliseconds. With a host clock,
    the probe samples it before each call, outside the timed interval.
    """

    def __init__(self, clock: hostclock.HostClock | None = None) -> None:
        self.fn = None
        self.clock = clock
        self.calls: list[PlanCall] = []

    def __call__(self, *args, **kwargs):
        enter = time.perf_counter()
        if self.clock is not None:
            self.clock.sample()
        t0 = time.perf_counter()
        result = self.fn(*args, **kwargs)
        t1 = time.perf_counter()
        halt_cost = next(c for z, c in result.evaluated if z == HALT)
        self.calls.append(PlanCall(
            enter, t0, t1, args, kwargs, result.best_param, result.best_cost, halt_cost,
            tracing.argmin_index(result),
        ))
        return result


def check_plan(call: PlanCall) -> None:
    """Finite argmin inside the box, no worse than halting, and reproducible."""
    current, goal, world, planner_cfg, cost_params, opt_cfg = call.args[:6]
    nav = call.kwargs.get("nav")
    _require(math.isfinite(call.best_cost), f"best_cost {call.best_cost} not finite")
    bounds = opt_cfg.resolved_bounds(planner_cfg)
    for value, (lo, hi) in zip(call.best_param.as_tuple(), bounds):
        _require(lo <= value <= hi, f"best_param {call.best_param} outside {bounds}")
    _require(call.best_cost <= call.halt_cost,
             f"best_cost {call.best_cost} above the halting cost {call.halt_cost}")
    _require(call.argmin >= 0, "the returned argmin is not among the evaluations")
    _, breakdown = dsmpepc.evaluate_candidate(
        call.best_param, current, goal, world, planner_cfg, cost_params, nav=nav
    )
    # the sweep fills the first n_global_samples evaluations (fewer after dedup)
    tol = BATCH_TOL if call.argmin < opt_cfg.n_global_samples else 0.0
    _require(abs(breakdown.total - call.best_cost) <= tol,
             f"rescored cost {breakdown.total} != best_cost {call.best_cost}")


# --------------------------------------------------------------------------
# Workloads
# --------------------------------------------------------------------------


@dataclass
class OpRecord:
    """What one operation (a plan call or a sim run) produced.

    `segments` cut the operation's wall time at the end of each plan call:
    (start, end, seconds of it not spent sampling the host clock). `plans`
    holds each plan call's (start, end).
    """

    segments: list[tuple[float, float, float]]
    cycles: int
    plans: list[tuple[float, float]]
    gains: list[float]
    clearances: list[float]
    signature: tuple
    reached: list[bool] = field(default_factory=list)
    times_to_goal: list[float] = field(default_factory=list)
    costs: list[float] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(s for _, _, s in self.segments)


class PlanReplay:
    name = "plan_replay_ds"
    tail_pct = 90
    ref_ops = 32

    def setup(self, seed: int, api) -> list:
        maps = workloads.replay_maps(seed)
        grids = [api.grid(m["rows"], m["resolution"]) for m in maps]
        ops = []
        for p in workloads.replay_problems(seed, grids):
            grid = grids[p.map_index]
            world = dsmpepc.World(grid=grid, obstacles=p.obstacles,
                                  robot_radius=workloads.ROBOT_RADIUS)
            nav = api.nav(grid, (p.goal.x, p.goal.y))
            ops.append((p, world, nav, dsmpepc.OptimizerConfig(seed=p.opt_seed)))
        p, world, nav, opt_cfg = ops[0]
        dsmpepc.plan(p.state, p.goal, world, PLANNER, DS_COST, opt_cfg, nav=nav)
        return ops

    def execute(self, op, api, probe: PlanProbe) -> OpRecord:
        p, world, nav, opt_cfg = op
        probe.calls.clear()
        probe.fn = api.plan
        result = probe(p.state, p.goal, world, PLANNER, DS_COST, opt_cfg, nav=nav)
        call = probe.calls[0]
        check_plan(call)
        clearance = min(
            dsmpepc.distance_to_nearest(world, (s.pose.x, s.pose.y), s.t)
            for s in result.best_trajectory.states
        )
        return OpRecord(
            segments=[(call.t0, call.t1, call.t1 - call.t0)], cycles=1,
            plans=[(call.t0, call.t1)],
            gains=[call.halt_cost - call.best_cost], clearances=[clearance],
            signature=(call.best_param.as_tuple(), call.best_cost),
            costs=[call.best_cost],
        )


class SimWorkload:
    """One dsmpepc.run per operation over seeded scenario documents."""

    ref_ops = 1
    require_no_contacts = False

    def documents(self, seed: int) -> list[dict]:
        raise NotImplementedError

    def setup(self, seed: int, api) -> list:
        ops = [api.load(doc) for doc in self.documents(seed)]
        sc = ops[0]
        agent = sc.agents[0]
        nav = dsmpepc.NavigationField(sc.grid, (agent.goal.x, agent.goal.y))
        world = dsmpepc.World(grid=sc.grid, robot_radius=agent.radius)
        dsmpepc.plan(dsmpepc.RobotState(pose=agent.start), agent.goal, world,
                     agent.planner, agent.cost, agent.optimizer, nav=nav)
        return ops

    def execute(self, scenario, api, probe: PlanProbe) -> OpRecord:
        probe.calls.clear()
        probe.fn = dsmpepc.simulator.plan
        dsmpepc.simulator.plan = probe
        try:
            t0 = time.perf_counter()
            result = api.run(scenario)
            t1 = time.perf_counter()
        finally:
            dsmpepc.simulator.plan = probe.fn
        segments = net_segments(t0, t1, probe.calls)
        known = {"reached", "deadlocked", "collided", "timeout"}
        for a in result.agents:
            _require(a.outcome in known, f"agent {a.id}: unknown outcome {a.outcome!r}")
            for s in a.trace:
                _require(all(map(math.isfinite, (s.t, s.x, s.y, s.heading, s.v,
                                                 s.omega, s.nf_distance)))
                         and s.d_o >= 0.0, f"agent {a.id}: non-finite trace at t={s.t}")
        if self.require_no_contacts:
            _require(not result.contacts, f"{len(result.contacts)} contacts")
        cycles = sum(len(a.replans) for a in result.agents)
        _require(cycles == len(probe.calls), "plan calls do not match replans")
        for call in probe.calls:
            check_plan(call)
        return OpRecord(
            segments=segments, cycles=cycles,
            plans=[(c.t0, c.t1) for c in probe.calls],
            gains=[c.halt_cost - c.best_cost for c in probe.calls
                   if c.args[0].t < DEPARTURE_S],
            clearances=[a.min_clearance for a in result.agents],
            signature=tuple((a.outcome, a.time_to_goal, a.min_clearance)
                            for a in result.agents),
            reached=[a.outcome == "reached" for a in result.agents],
            times_to_goal=[a.time_to_goal for a in result.agents
                           if a.time_to_goal is not None],
            costs=[c.best_cost for c in probe.calls],
        )


class CrowdSim(SimWorkload):
    name = "crowd_sim_ds"
    tail_pct = 95
    require_no_contacts = True

    def documents(self, seed):
        return workloads.crowd_documents(seed)


class CorridorSim(SimWorkload):
    name = "corridor_sim_baseline"
    tail_pct = 95

    def documents(self, seed):
        return workloads.corridor_documents(seed)


WORKLOADS = {w.name: w for w in (PlanReplay(), CrowdSim(), CorridorSim())}


def host_stamp() -> dict:
    """Where and on what code the result was measured."""
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    try:
        git = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        lines = git.stdout.split()
        if git.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


# --------------------------------------------------------------------------
# Measurement
# --------------------------------------------------------------------------


def plain_api():
    """The public entry points the benchmark calls itself."""
    return SimpleNamespace(
        plan=dsmpepc.plan, run=dsmpepc.run, load=dsmpepc.load,
        grid=dsmpepc.OccupancyGrid.from_ascii, nav=dsmpepc.NavigationField,
    )


def traced_api(tracer):
    return SimpleNamespace(
        plan=tracer.wrap_plan(dsmpepc.plan),
        run=tracer.wrap(tracing.RUN, dsmpepc.run),
        load=tracer.wrap(tracing.LOAD, dsmpepc.load),
        grid=tracer.wrap(tracing.GRID_BUILD, dsmpepc.OccupancyGrid.from_ascii),
        nav=tracer.wrap(tracing.NAV_BUILD, dsmpepc.NavigationField),
    )


class Loop:
    """Closed loop over the operations: the next starts when the last returns.

    Operations cycle in a fixed order. The first pass is kept: quality
    figures come from it, and every later repeat of an operation must
    reproduce its first result exactly.
    """

    def __init__(self, workload, ops, api, clock=None) -> None:
        self.workload = workload
        self.ops = ops
        self.api = api
        self.probe = PlanProbe(clock)
        self.first: list[OpRecord | None] = []
        self.attempted = 0
        self.failed = 0
        self._next = 0

    def run(self, count: int | None = None, deadline: float | None = None,
            full_pass: bool = True) -> list[OpRecord]:
        """Run `count` operations, or run until `deadline` (with `full_pass`,
        at least to the end of the first pass)."""
        out = []
        stop = None if count is None else self._next + count
        min_ops = len(self.ops) if full_pass else 0
        while True:
            if stop is not None and self._next >= stop:
                break
            if (deadline is not None and self._next >= min_ops
                    and time.perf_counter() >= deadline):
                break
            rec = self._one(self._next)
            if rec is not None:
                out.append(rec)
            self._next += 1
        return out

    def _one(self, i: int) -> OpRecord | None:
        n = len(self.ops)
        self.attempted += 1
        try:
            rec = self.workload.execute(self.ops[i % n], self.api, self.probe)
            if i >= n and self.first[i % n] is not None:
                _require(rec.signature == self.first[i % n].signature,
                         f"operation {i % n} did not reproduce its first result")
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            rec = None
        if i < n:
            self.first.append(rec)
        return rec


def timed_setups(workload, seed: int, api, clock=None) -> tuple[list, list]:
    """Set up from scratch repeatedly; returns the last set-up and each
    set-up's net segments. With a host clock, it is sampled before each
    set-up and before each grid, field and scenario build inside it."""
    setups: list[list] = []
    while (len(setups) < SETUP_MIN_REPEATS
           or sum(s for seg in setups for _, _, s in seg) < SETUP_MIN_S):
        marks: list[Mark] = []
        setup_api = api
        if clock is not None:
            clock.samples(hostclock.SIDE_SAMPLES)
            setup_api = SimpleNamespace(
                plan=api.plan, run=api.run, load=clocked(api.load, clock, marks),
                grid=clocked(api.grid, clock, marks), nav=clocked(api.nav, clock, marks),
            )
        t0 = time.perf_counter()
        ops = workload.setup(seed, setup_api)
        setups.append(net_segments(t0, time.perf_counter(), marks))
    return ops, setups


def tail(latencies_ms: list[float], pct: int) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(latencies_ms)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def _mean(values):
    values = list(values)
    return statistics.fmean(values) if values else None


def end_to_end(workload, setups, loop: Loop, done: list[OpRecord], clock):
    """End-to-end metrics; every timing is scaled by `clock` to the reference
    host speed. The raw figures go into the diagnostics."""
    first = [r for r in loop.first if r is not None]
    raw_ms = [1e3 * (b - a) for r in done for a, b in r.plans]
    lat_ms = [1e3 * (b - a) * clock.scale(a, b) for r in done for a, b in r.plans]
    tail_ms, beyond = tail(lat_ms, workload.tail_pct)
    cycles = sum(r.cycles for r in done)
    metrics = {
        "setup_s": (statistics.median(sum(s * clock.scale(a, b) for a, b, s in seg)
                                      for seg in setups), "s"),
        "plan_ms_p50": (statistics.median(lat_ms), "ms"),
        "plan_ms_tail": (tail_ms, "ms"),
        "cycles_per_s": (cycles / sum(s * clock.scale(a, b)
                                      for r in done for a, b, s in r.segments), "1/s"),
        "plan_gain_mean": (_mean(g for r in first for g in r.gains), "cost"),
        "min_clearance_m": (_mean(c for r in first for c in r.clearances), "m"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "success_frac": ((loop.attempted - loop.failed) / loop.attempted, "frac"),
    }
    reached = [x for r in first for x in r.reached]
    diagnostics = {
        "host_ref_ms": clock.median_ms(),
        "host_ref_samples": len(clock.ms),
        "raw_setup_s": statistics.median(sum(s for _, _, s in seg) for seg in setups),
        "raw_plan_ms_p50": statistics.median(raw_ms),
        "raw_cycles_per_s": cycles / sum(r.wall_s for r in done),
        "operations": loop.attempted,
        "plans": len(lat_ms),
        "tail_percentile": workload.tail_pct,
        "tail_samples_beyond": beyond,
        "deadline_miss_frac": sum(x > DEADLINE_MS for x in lat_ms) / len(lat_ms),
        "error_frac": loop.failed / loop.attempted,
        "plan_cost_mean": _mean(c for r in first for c in r.costs),
        "min_clearance_min_m": min(c for r in first for c in r.clearances),
        "reached_frac": sum(reached) / len(reached) if reached else None,
        "time_to_goal_mean_s": _mean(t for r in first for t in r.times_to_goal),
    }
    return metrics, diagnostics


def run_untraced(workload, seed: int, seconds: float):
    api = plain_api()
    clock = hostclock.HostClock()
    ops, setups = timed_setups(workload, seed, api, clock)
    loop = Loop(workload, ops, api, clock)
    done = loop.run(deadline=time.perf_counter() + seconds)
    clock.samples(hostclock.SIDE_SAMPLES)  # the last operation's "after" side
    metrics, diagnostics = end_to_end(workload, setups, loop, done, clock)
    return metrics, {"diagnostics": diagnostics}, loop


def run_traced(workload, seed: int, seconds: float):
    """Per-layer figures. A reference block of operations runs untraced and
    then traced, which gives the tracing overhead and the exact work counts;
    traced operations then continue until the time is up."""
    tracer = tracing.Tracer()
    tracer.install()
    api = traced_api(tracer)
    try:
        ops, _ = timed_setups(workload, seed, api)
        setup_end = len(tracer)
        ref = min(workload.ref_ops, len(ops))

        tracer.uninstall()
        t0 = time.perf_counter()
        plain = Loop(workload, ops, plain_api())
        untraced_wall = sum(r.wall_s for r in plain.run(count=ref))

        tracer.install()
        deadline = t0 + seconds
        loop = Loop(workload, ops, api)
        counts0 = tracer.counts.copy()
        ref_lo = len(tracer)
        ref_records = loop.run(count=ref)
        ref_hi = len(tracer)
        ref_counts = tracer.counts - counts0
        rest = loop.run(deadline=deadline, full_pass=False)
    finally:
        tracer.uninstall()

    traced_wall = sum(r.wall_s for r in ref_records)
    done = ref_records + rest
    metrics = tracing.timing_metrics(tracer, ref_lo, len(tracer),
                                     sum(r.cycles for r in done))
    counts = tracing.count_metrics(tracer, ref_counts, ref_lo, ref_hi)
    metrics.update({k: v for k, v in counts.items() if k != "plans"})
    metrics.update(tracing.build_metrics(tracer))
    metrics["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    tracer.save(out_dir / f"spans_{workload.name}.npz")
    extra = {"counts": counts, "setup_spans": setup_end, "spans": len(tracer)}
    loop.attempted += plain.attempted
    loop.failed += plain.failed
    return {k: (v, PER_LAYER_UNITS[k]) for k, v in metrics.items()}, extra, loop


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} (known: {', '.join(WORKLOADS)})")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    workload = WORKLOADS[args.workload]

    print(f"bench {workload.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("host " + json.dumps(host_stamp()))
    if args.trace:
        metrics, extra, loop = run_traced(workload, args.seed, args.seconds)
    else:
        metrics, extra, loop = run_untraced(workload, args.seed, args.seconds)
    width = max(map(len, metrics))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<{width}}  {value:14.6f} {unit}")
    for key, value in extra.items():
        print(f"{key} " + json.dumps(value))
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


dsmpepc = _import_program()
import hostclock  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HALT = dsmpepc.TrajectoryParam(0.0, 0.0, 0.0, 0.0)
PLANNER = dsmpepc.PlannerConfig()
DS_COST = dsmpepc.CostParams(mode=dsmpepc.DS_MPEPC)
PER_LAYER_UNITS = {
    "optimizer.refine.ms": "ms",
    "optimizer.refine.evals": "count",
    "optimizer.refine.win_frac": "frac",
    "optimizer.plan.self_ms": "ms",
    "batch.evaluate_batch.ms": "ms",
    "batch.candidates": "count",
    "kinematics.rollout.us": "us",
    "kinematics.rollout.calls": "count",
    "cost.trajectory_cost.self_us": "us",
    "cost.ttc_gate_frac": "frac",
    "world.ttc.calls": "count",
    "world.ttc.us": "us",
    "world.distance_batch.us": "us",
    "world.obstacles": "count",
    "world.grid.build_ms": "ms",
    "world.nav_field.build_ms": "ms",
    "scenarios.load_ms": "ms",
    "simulator.run.self_ms_per_cycle": "ms",
    "trace.overhead_frac": "frac",
}

if __name__ == "__main__":
    sys.exit(main())
