import copy
import csv
import json
import os
import xml.etree.ElementTree as ET

import pytest

from dsmpepc.cli import main
from dsmpepc.scenarios import builtin, load

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
    assert metrics["schema_version"] == 3
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
    # one diag row per replan: one per cycle before the agent reached its goal
    with open(trace_path) as f:
        trace = list(csv.DictReader(f))
    with open(os.path.join(out, "diag_bot.csv")) as f:
        diag = list(csv.DictReader(f))
    assert [row["t"] for row in diag] == [row["t"] for row in trace[:-1]]
    # a fan of every candidate evaluated at every 25th cycle (step_h 0.2 s)
    fanned = sum(int(row["n_evaluated"]) for row in diag
                 if round(float(row["t"]) / 0.2) % 25 == 0)
    polylines = [e for e in tree.iter() if e.tag.endswith("polyline")]
    assert fanned > 0
    assert sum(e.get("stroke") == "#9a9a9a" for e in polylines) == fanned
    agents = load(small_scenario).to_dict()["agents"]
    assert metrics["parameters"]["agents"] == json.loads(json.dumps(agents))


def test_run_missing_file_exits_2(tmp_path):
    out = str(tmp_path / "out")
    code = main(["run", str(tmp_path / "nope.json"), "--out", out])
    assert code == 2
    assert not os.path.exists(os.path.join(out, "metrics.json"))


def test_run_malformed_json_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", str(bad), "--out", str(tmp_path / "o")]) == 2


def test_run_malformed_field_exits_2(tmp_path, capsys):
    doc = dict(SMALL_FIELD, duration="abc")
    path = tmp_path / "bad_field.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "duration" in capsys.readouterr().err


@pytest.mark.parametrize("changes,field", [
    ({"duration": 1e308}, "duration"),
    ({"defaults": {"planner": {"step_h": 1e-320}}}, "horizon_T"),
], ids=["duration", "step_h"])
def test_run_step_count_overflow_exits_2(changes, field, tmp_path, capsys):
    # a step count that overflows to inf is a scenario error, not a traceback
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(dict(SMALL_FIELD, **changes)))
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"{field}: " in err and "not a finite number" in err


def test_run_unknown_key_exits_2(tmp_path, capsys):
    doc = copy.deepcopy(SMALL_FIELD)
    doc["agents"][0]["raduis"] = 0.5
    path = tmp_path / "bad_key.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "agents[0].raduis: unknown key" in capsys.readouterr().err


@pytest.mark.parametrize("agent_id", ["a\0b", "a/b"])
def test_run_agent_id_that_cannot_name_a_file_exits_2(agent_id, tmp_path, capsys):
    # run names files after ids, so such an id is refused before anything runs
    doc = copy.deepcopy(SMALL_FIELD)
    doc["agents"][0]["id"] = agent_id
    path = tmp_path / "bad_id.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "o"
    assert main(["run", str(path), "--csv", "--diag", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: agent {agent_id!r}: an id that names a file holds no NUL " \
                  f"character or path separator\n"
    assert not out.exists()


def test_run_unreadable_path_exits_2(tmp_path, capsys):
    latin = tmp_path / "latin1.json"
    latin.write_bytes(json.dumps(dict(SMALL_FIELD, name="caf\u00e9"), ensure_ascii=False)
                      .encode("latin-1"))
    for source in (tmp_path, latin):
        assert main(["run", str(source), "--out", str(tmp_path / "o")]) == 2
        assert "cannot read" in capsys.readouterr().err


def test_run_obstacle_sharing_an_agent_id_exits_2(tmp_path, capsys):
    # the obstacle "b" hits agent "a"; with a shared id it would stop agent "b"
    doc = copy.deepcopy(SMALL_FIELD)
    doc["agents"].append({"id": "b", "start": [3.0, 8.0, 0.0], "goal": [7.0, 8.0, 0.0]})
    doc["agents"][0]["id"] = "a"
    doc["scripted_obstacles"] = [{"id": "b", "radius": 0.3, "position": [4.2, 5.0],
                                  "velocity": [-0.5, 0.0]}]
    path = tmp_path / "clash.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "duplicate id 'b'" in capsys.readouterr().err


def test_run_start_in_contact_exits_2(tmp_path, capsys):
    # the simulation would stop the robot at t = 0, so the loader rejects it
    doc = dict(SMALL_FIELD, scripted_obstacles=[{"id": "p", "radius": 0.3,
                                                 "position": [3.2, 5.0]}])
    path = tmp_path / "contact.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "start overlaps obstacle 'p'" in capsys.readouterr().err


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


def test_run_builtin_name_beside_a_directory_of_that_name(tmp_path, monkeypatch):
    # only a file of a built-in's name is read in its place
    monkeypatch.chdir(tmp_path)
    (tmp_path / "open_field").mkdir()
    assert main(["run", "open_field", "--out", str(tmp_path / "out")]) == 0


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


def test_landscape_scores_the_sweep_in_one_batch(small_scenario, tmp_path, monkeypatch):
    # no plan() and no rescoring: one evaluate_batch call over the sweep
    from dsmpepc import cli, optimizer, simulator

    calls = {"cli": 0, "optimizer": 0}
    for module in (cli, optimizer):
        def counted(*args, _real=module.evaluate_batch, _name=module.__name__, **kwargs):
            calls[_name.rsplit(".", 1)[1]] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, "evaluate_batch", counted)
    monkeypatch.setattr(simulator, "plan", lambda *a, **k: pytest.fail("planned"))
    assert main(["landscape", small_scenario, "--agent", "bot", "--top", "0",
                 "--out", str(tmp_path / "land")]) == 0
    assert calls == {"cli": 1, "optimizer": 0}


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
    from dsmpepc.cli import _landscape_candidates
    from dsmpepc.simulator import steps

    cfg = builtin("t_corridor")
    spec = next(a for a in cfg.agents if a.id == "mover")
    blocker = next(a for a in cfg.agents if a.id == "blocker")
    step = next(s for s in steps(cfg) if s.cycle == 30)  # t = 6.0
    zs, rows, (_, ys, hs, *_) = _landscape_candidates(
        cfg, spec, step.states[spec.id], step.worlds[spec.id], step.navs[spec.id])
    top = sorted(range(len(zs)), key=lambda k: (-rows.ttc_terminal[k], tuple(zs[k])))[:50]
    into_free_half = 0
    for k in top:
        probe_y = ys[k, -1] + math.sin(hs[k, -1])
        if probe_y > blocker.start.y:
            into_free_half += 1
    assert into_free_half >= 40


def test_landscape_of_an_agent_stopped_at_the_snapshot_starts_from_rest(tmp_path):
    # open_field's robot reaches its goal at t = 5.2 at 0.8 m/s, and the
    # simulator stops it there; the landscape scores it from that rest
    from dataclasses import replace
    from dsmpepc import run
    from dsmpepc.cost import DS_MPEPC
    from dsmpepc.kinematics import Pose, RobotState, TrajectoryParam
    from dsmpepc.optimizer import evaluate_candidate
    from dsmpepc.world import World

    cfg = builtin("open_field")
    robot = cfg.agents[0]
    last = run(cfg).agent("robot").trace[-1]
    assert (last.t, last.v) == (5.2, 0.8)
    out = tmp_path / "land"
    assert main(["landscape", "open_field", "--agent", "robot", "--t", "5.2",
                 "--top", "0", "--out", str(out)]) == 0
    rows = [r.split(",") for r in (out / "landscape.csv").read_text().splitlines()[1:]]
    halt = next(r for r in rows if r[1:5] == ["0.000000"] * 4)
    _, expected = evaluate_candidate(
        TrajectoryParam(0.0, 0.0, 0.0, 0.0),
        RobotState(pose=Pose(last.x, last.y, last.heading), t=last.t), robot.goal,
        World(grid=cfg.grid, robot_radius=robot.radius), robot.planner,
        replace(robot.cost, mode=DS_MPEPC, include_terminal=True),
    )
    assert halt[5] == f"{expected.total:.9f}"


def test_landscape_of_an_agent_resting_on_its_goal(tmp_path):
    # t_corridor's blocker starts on its goal at rest: its halting candidate
    # ends there with zero distance and speed, and scores a TTG of 0
    out = tmp_path / "land"
    assert main(["landscape", "t_corridor", "--agent", "blocker", "--t", "2",
                 "--top", "0", "--out", str(out)]) == 0
    rows = [r.split(",") for r in (out / "landscape.csv").read_text().splitlines()[1:]]
    halt = next(r for r in rows if r[1:5] == ["0.000000"] * 4)
    assert halt[6] == "0"


def test_landscape_draws_the_scripted_obstacles(tmp_path):
    # the robot and pedestrian_hall's four pedestrians, whose world the
    # candidates were scored in
    out = tmp_path / "land"
    assert main(["landscape", "pedestrian_hall", "--agent", "robot", "--t", "4",
                 "--top", "0", "--out", str(out)]) == 0
    assert (out / "landscape.svg").read_text().count("<circle") == 5


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


def test_compare_writes_an_unbounded_clearance_as_an_empty_cell(tmp_path):
    # open_field has no obstacle and one agent, so nothing bounds its
    # clearance: metrics.json writes null, the trace CSV and compare.csv an
    # empty cell
    assert main(["run", "open_field", "--csv", "--out", str(tmp_path / "run")]) == 0
    metrics = json.loads((tmp_path / "run" / "metrics.json").read_text())
    assert [a["min_clearance"] for a in metrics["result"]["agents"]] == [None]
    header, *rows = (tmp_path / "run" / "trace_robot.csv").read_text().splitlines()
    d_o = header.split(",").index("d_o")
    assert rows and {row.split(",")[d_o] for row in rows} == {""}
    assert main(["compare", "open_field", "--seeds", "1", "--out", str(tmp_path / "cmp")]) == 0
    rows = (tmp_path / "cmp" / "compare.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["ds_mpepc", "baseline_mpepc"]
    assert [row.split(",")[-1] for row in rows] == ["", ""]


COMMANDS = {"run": ["run"], "compare": ["compare", "--seeds", "1"],
            "landscape": ["landscape", "--agent", "bot"]}
# (command, whether its scenario file exists, further options, exit code)
BAD_INPUTS = [
    *(pytest.param(c, False, [], 2, id=f"{c}-missing-scenario") for c in COMMANDS),
    *(pytest.param(c, True, [], 3, id=f"{c}-out-is-a-file") for c in COMMANDS),
    pytest.param("landscape", True, ["--agent", "nobody"], 2, id="landscape-unknown-agent"),
    pytest.param("landscape", True, ["--t", "99.0"], 2, id="landscape-t-past-duration"),
]


@pytest.mark.parametrize("command,exists,options,code", BAD_INPUTS)
def test_bad_input_exit_code(command, exists, options, code, tmp_path, capsys):
    # 2: the scenario or a command option is bad, nothing is written;
    # 3: the artifacts cannot be written (here --out names a regular file)
    path = tmp_path / "short.json"
    if exists:
        path.write_text(json.dumps(dict(SMALL_FIELD, duration=2.0)))
    out = tmp_path / "out"
    if code == 3:
        out.write_text("a file, not a directory")
    argv = [COMMANDS[command][0], str(path), *COMMANDS[command][1:], *options]
    assert main(argv + ["--out", str(out)]) == code
    err = capsys.readouterr().err
    if code == 2:
        assert err.startswith("error: ") and not out.exists()
    else:
        assert err.startswith("error writing artifacts: ")


def test_compare_does_not_offer_mode(tmp_path, capsys):
    # compare always runs both modes, so forcing one is a usage error
    with pytest.raises(SystemExit) as exc:
        main(["compare", "open_field", "--seeds", "1", "--mode", "mpepc",
              "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --mode mpepc" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out")


@pytest.mark.parametrize("argv", [
    ["compare", "open_field", "--seeds", "0"],
    ["compare", "open_field", "--seeds", "-1"],
    ["landscape", "open_field", "--agent", "bot", "--top", "-5"],
    ["landscape", "t_corridor", "--agent", "mover", "--t", "0", "--seed", "-1", "--top", "0"],
])
def test_count_below_minimum_exits_2(argv, tmp_path, capsys):
    # a count or a seed out of range is a usage error, caught before any run starts
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "must be at least" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out")


def test_landscape_with_terminal_ablated(tmp_path):
    # the ranks read the terminal TTG and TTC, so the landscape scores with
    # the terminal term even for an agent that ablates it
    doc = dict(SMALL_FIELD, defaults=dict(SMALL_FIELD["defaults"],
                                          cost={"include_terminal": False}))
    path = tmp_path / "ablated.json"
    path.write_text(json.dumps(doc))
    out = str(tmp_path / "land")
    assert main(["landscape", str(path), "--agent", "bot", "--rank", "ttc",
                 "--out", out]) == 0
    with open(os.path.join(out, "landscape.csv")) as f:
        assert len(f.read().splitlines()) == 1 + 96
