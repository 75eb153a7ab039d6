import json
import os
import xml.etree.ElementTree as ET

import pytest

from dsmpepc.cli import main
from dsmpepc.scenarios import builtin

SMALL_FIELD = {
    "name": "small_field",
    "map": {"rows": ["." * 40] * 40, "resolution": 0.25},
    "defaults": {
        "optimizer": {"n_global_samples": 96, "n_refine_seeds": 1,
                      "refine_max_evals": 15},
    },
    "agents": [
        {"id": "bot", "start": [3.0, 5.0, 0.0], "goal": [7.0, 5.0, 0.0]},
    ],
    "duration": 12.0,
    "seed": 1,
}


@pytest.fixture()
def small_scenario(tmp_path):
    path = tmp_path / "small.json"
    path.write_text(json.dumps(SMALL_FIELD))
    return str(path)


def test_list_builtins(capsys):
    assert main(["list-builtins"]) == 0
    out = capsys.readouterr().out
    for name in ("open_field", "t_corridor", "narrow_corridor", "circle",
                 "pedestrian_hall"):
        assert name in out


def test_run_writes_artifacts_and_exit_zero(small_scenario, tmp_path):
    out = str(tmp_path / "out")
    code = main(["run", small_scenario, "--mode", "ds", "--out", out,
                 "--svg", "--csv", "--diag"])
    assert code == 0
    metrics_path = os.path.join(out, "metrics.json")
    assert os.path.exists(metrics_path)
    with open(metrics_path) as f:
        # strict JSON: no NaN/Infinity constants allowed
        metrics = json.load(f, parse_constant=lambda c: pytest.fail(f"bad JSON {c}"))
    assert metrics["schema_version"] == 1
    assert metrics["result"]["agents"][0]["outcome"] == "reached"
    for artifact in metrics["artifacts"]:
        assert os.path.exists(artifact)
    trace_path = os.path.join(out, "trace_bot.csv")
    with open(trace_path) as f:
        header = f.readline().strip()
    assert header == "t,x,y,heading,v,omega,d_o,nf_distance"
    svg_path = os.path.join(out, "scene.svg")
    tree = ET.parse(svg_path)  # well-formed XML
    assert tree.getroot().tag.endswith("svg")


def test_run_missing_file_exits_2(tmp_path):
    out = str(tmp_path / "out")
    code = main(["run", str(tmp_path / "nope.json"), "--out", out])
    assert code == 2
    assert not os.path.exists(os.path.join(out, "metrics.json"))


def test_run_malformed_json_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", str(bad), "--out", str(tmp_path / "o")]) == 2


def test_run_nonreached_exits_1(tmp_path):
    doc = dict(SMALL_FIELD)
    doc["duration"] = 2.0  # timeout before reaching
    path = tmp_path / "short.json"
    path.write_text(json.dumps(doc))
    code = main(["run", str(path), "--out", str(tmp_path / "out")])
    assert code == 1


def test_run_builtin_name(tmp_path):
    code = main(["run", "open_field", "--mode", "ds",
                 "--out", str(tmp_path / "out")])
    assert code == 0


def test_svg_deterministic(small_scenario, tmp_path):
    out1 = str(tmp_path / "a")
    out2 = str(tmp_path / "b")
    assert main(["run", small_scenario, "--out", out1, "--svg"]) == 0
    assert main(["run", small_scenario, "--out", out2, "--svg"]) == 0
    with open(os.path.join(out1, "scene.svg"), "rb") as f:
        svg1 = f.read()
    with open(os.path.join(out2, "scene.svg"), "rb") as f:
        svg2 = f.read()
    assert svg1 == svg2


def test_compare_table_deterministic(small_scenario, tmp_path):
    out1 = str(tmp_path / "c1")
    out2 = str(tmp_path / "c2")
    assert main(["compare", small_scenario, "--seeds", "2", "--out", out1]) == 0
    assert main(["compare", small_scenario, "--seeds", "2", "--out", out2]) == 0
    with open(os.path.join(out1, "compare.csv"), "rb") as f:
        t1 = f.read()
    with open(os.path.join(out2, "compare.csv"), "rb") as f:
        t2 = f.read()
    assert t1 == t2
    header = t1.decode().splitlines()[0]
    assert header == ("mode,runs,success_rate,deadlock_rate,collision_rate,"
                      "mean_time_to_goal,mean_min_clearance")
    assert len(t1.decode().splitlines()) == 3  # header + two modes


def test_landscape_outputs(small_scenario, tmp_path):
    out = str(tmp_path / "land")
    code = main(["landscape", small_scenario, "--agent", "bot", "--t", "0.0",
                 "--rank", "cost", "--top", "25", "--out", out])
    assert code == 0
    with open(os.path.join(out, "landscape.svg")) as f:
        svg = f.read()
    assert svg.count("<polyline") == 25
    with open(os.path.join(out, "landscape.csv")) as f:
        rows = f.read().splitlines()
    assert rows[0] == "rank,r,theta,delta,v_max,cost,ttg,ttc"
    assert len(rows) > 25


def test_landscape_top_zero_is_valid_svg(small_scenario, tmp_path):
    out = str(tmp_path / "land0")
    code = main(["landscape", small_scenario, "--agent", "bot", "--t", "0.0",
                 "--top", "0", "--out", out])
    assert code == 0
    svg_path = os.path.join(out, "landscape.svg")
    tree = ET.parse(svg_path)
    assert tree.getroot().tag.endswith("svg")
    with open(svg_path) as f:
        assert f.read().count("<polyline") == 0


def test_landscape_ttc_rank_steers_into_free_half_plane():
    # T-corridor snapshot with the blocker dead ahead: at least 80% of the
    # 50 highest-terminal-TTC candidates point into the open gap above it
    import math
    from dataclasses import replace
    from dsmpepc import builtin, run
    from dsmpepc.cli import _landscape_candidates
    from dsmpepc.geometry import Pose
    from dsmpepc.kinematics import RobotState
    from dsmpepc.simulator import _snapshot_for
    from dsmpepc.world import NavigationField

    cfg = builtin("t_corridor", mode="ds_mpepc")
    spec = next(a for a in cfg.agents if a.id == "mover")
    blocker = next(a for a in cfg.agents if a.id == "blocker")
    sim = run(replace(cfg, duration=6.0))
    states = {}
    moving = {}
    for a_spec, a_res in zip(cfg.agents, sim.agents):
        last = a_res.trace[-1]
        states[a_spec.id] = RobotState(
            pose=Pose(last.x, last.y, last.heading), v=last.v, omega=last.omega,
            t=last.t,
        )
        moving[a_spec.id] = a_res.outcome not in ("reached", "collided")
    world = _snapshot_for(
        spec.id, list(cfg.agents), states, moving, cfg.scripted_obstacles,
        cfg.grid, spec.radius, 6.0,
    )
    nav = NavigationField(cfg.grid, (spec.goal.x, spec.goal.y))
    rows = _landscape_candidates(cfg, spec, states[spec.id], world, nav)
    top = sorted(rows, key=lambda r: (-r["ttc"], r["param"].as_tuple()))[:50]
    into_free_half = 0
    for row in top:
        term = row["trajectory"].terminal.pose
        probe_y = term.y + math.sin(term.heading)
        if probe_y > blocker.start.y:
            into_free_half += 1
    assert into_free_half >= 40


def test_run_t_corridor_baseline_exits_1(tmp_path):
    code = main(["run", "t_corridor", "--mode", "mpepc",
                 "--out", str(tmp_path / "out")])
    assert code == 1
    with open(tmp_path / "out" / "metrics.json") as f:
        metrics = json.load(f)
    outcomes = {a["id"]: a["outcome"] for a in metrics["result"]["agents"]}
    assert outcomes["mover"] == "deadlocked"


def test_compare_direction_on_deadlock_scenario(tmp_path):
    out = str(tmp_path / "cmp")
    assert main(["compare", "t_corridor", "--seeds", "1", "--out", out]) == 0
    with open(os.path.join(out, "compare.csv")) as f:
        rows = f.read().splitlines()[1:]
    rates = {line.split(",")[0]: float(line.split(",")[2]) for line in rows}
    assert rates["ds_mpepc"] >= rates["baseline_mpepc"]
    assert rates["ds_mpepc"] == 1.0


def test_landscape_unknown_agent_exits_2(small_scenario, tmp_path):
    code = main(["landscape", small_scenario, "--agent", "ghost",
                 "--out", str(tmp_path / "x")])
    assert code == 2


def test_landscape_bad_time_exits_2(small_scenario, tmp_path):
    code = main(["landscape", small_scenario, "--agent", "bot", "--t", "99.0",
                 "--out", str(tmp_path / "x")])
    assert code == 2
