"""Self-tests of the benchmark: seeded inputs, input validity, metric names.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import dsmpepc  # noqa: E402
import hostclock  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def _replay(seed):
    grids = [dsmpepc.OccupancyGrid.from_ascii(m["rows"], m["resolution"])
             for m in workloads.replay_maps(seed)]
    return grids, workloads.replay_problems(seed, grids)


def _documents(seed):
    return workloads.crowd_documents(seed) + workloads.corridor_documents(seed)


def _ceiling(nav: dsmpepc.NavigationField, grid: dsmpepc.OccupancyGrid) -> float:
    """The value NavigationField gives unreachable and occupied cells."""
    iy, ix = next(zip(*grid.occupied.nonzero()))
    return nav.distance(*grid.cell_center(int(ix), int(iy)))


def test_same_seed_same_inputs_other_seed_other_inputs():
    assert workloads.replay_maps(3) == workloads.replay_maps(3)
    assert workloads.replay_maps(3) != workloads.replay_maps(4)
    assert _replay(3)[1] == _replay(3)[1]
    assert _replay(3)[1] != _replay(4)[1]
    assert _documents(3) == _documents(3)
    assert _documents(3) != _documents(4)


@pytest.mark.parametrize("seed", [1, 2])
def test_replay_starts_and_goals_clear_and_reachable(seed):
    grids, problems = _replay(seed)
    for p in problems:
        grid = grids[p.map_index]
        world = dsmpepc.World(grid=grid, obstacles=p.obstacles,
                              robot_radius=workloads.ROBOT_RADIUS)
        start = (p.state.pose.x, p.state.pose.y)
        assert grid.sample_distance(*start) >= workloads.ROBOT_RADIUS
        assert grid.sample_distance(p.goal.x, p.goal.y) >= workloads.ROBOT_RADIUS
        assert dsmpepc.distance_to_nearest(world, start, p.state.t) > 0.0
        nav = dsmpepc.NavigationField(grid, (p.goal.x, p.goal.y))
        assert nav.distance(*start) < _ceiling(nav, grid)


@pytest.mark.parametrize("seed", [1, 2])
def test_scenario_documents_clear_and_reachable(seed):
    for doc in _documents(seed):
        scenario = dsmpepc.load(doc)
        grid = scenario.grid
        for agent in scenario.agents:
            for pose in (agent.start, agent.goal):
                assert grid.sample_distance(pose.x, pose.y) >= agent.radius
            nav = dsmpepc.NavigationField(grid, (agent.goal.x, agent.goal.y))
            d = nav.distance(agent.start.x, agent.start.y)
            assert math.isfinite(d)
            if grid.has_occupied:
                assert d < _ceiling(nav, grid)


def test_workload_names_match_spec():
    assert [w["name"] for w in _spec()["workloads"]] == list(run.WORKLOADS)


def test_end_to_end_names_match_spec():
    rec = run.OpRecord(segments=[(0.0, 0.04, 0.04), (0.04, 0.1, 0.05)], cycles=2,
                       plans=[(0.0, 0.04), (0.05, 0.1)], gains=[1.0],
                       clearances=[0.3], signature=())
    loop = run.Loop(run.WORKLOADS["plan_replay_ds"], [None], None)
    loop.first, loop.attempted = [rec], 1
    clock = hostclock.HostClock()
    clock.samples(2 * hostclock.SIDE_SAMPLES)
    metrics, _ = run.end_to_end(run.WORKLOADS["plan_replay_ds"], [[(0.0, 0.5, 0.5)]], loop,
                                [rec], clock)
    spec = {m["name"]: m["unit"] for m in _spec()["end_to_end"]}
    assert {k: unit for k, (_, unit) in metrics.items()} == spec


def test_per_layer_names_match_spec():
    tracer = tracing.Tracer()
    names = set(tracing.timing_metrics(tracer, 0, 0, 0))
    names |= set(tracing.count_metrics(tracer, tracer.counts, 0, 0)) - {"plans"}
    names |= set(tracing.build_metrics(tracer)) | {"trace.overhead_frac"}
    spec = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
    assert names == set(spec)
    assert run.PER_LAYER_UNITS == spec


def test_host_clock_scales_by_nearby_samples():
    clock = hostclock.HostClock()
    clock.mid = [float(t) for t in range(20)]
    clock.ms = [1.0] * 10 + [2.0] * 10
    assert clock.scale(2.5, 2.6) == hostclock.NOMINAL_MS / 1.0
    assert clock.scale(15.5, 15.6) == hostclock.NOMINAL_MS / 2.0
    assert clock.scale(-5.0, -4.0) == hostclock.NOMINAL_MS / 1.0


@pytest.mark.parametrize("trace", [0, 1])
def test_short_run_prints_every_metric(monkeypatch, capsys, trace):
    monkeypatch.setattr(workloads, "CORRIDOR_SIMS", 1)
    args = ["--workload", "corridor_sim_baseline", "--seed", "1", "--seconds", "1",
            "--trace", str(trace)]
    assert run.main(args) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    key = "per_layer" if trace else "end_to_end"
    spec = {m["name"]: m["unit"] for m in _spec()[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    if trace:
        assert result["metrics"]["world.ttc.calls"]["value"] == 0
