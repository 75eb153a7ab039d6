import copy
import hashlib
import json
import math
import re
from dataclasses import fields, replace
from types import SimpleNamespace

import pytest

from dsmpepc.kinematics import PlannerConfig, Pose
from dsmpepc.scenarios import (
    BUILTINS,
    ScenarioConfig,
    ScenarioError,
    builtin,
    load,
)

MINIMAL = {
    "name": "mini",
    "map": {"rows": ["." * 20] * 20, "resolution": 0.5},
    "agents": [
        {"id": "bot", "start": [2.0, 5.0, 0.0], "goal": [8.0, 5.0, 0.0]},
    ],
    "duration": 20.0,
    "seed": 3,
}


def test_load_minimal_document():
    config = load(MINIMAL)
    assert config.name == "mini"
    assert len(config.agents) == 1
    agent = config.agents[0]
    assert agent.mode == "ds_mpepc"
    assert agent.planner.horizon_T == 5.0
    assert agent.cost.a == 0.7
    assert config.grid.resolution == 0.5


def test_load_from_json_text_and_defaults_merge(tmp_path):
    doc = dict(MINIMAL)
    doc["defaults"] = {
        "planner": {"v_limit": 0.7},
        "cost": {"a": 0.5},
        "optimizer": {"n_global_samples": 64},
    }
    doc["agents"] = [
        {"id": "a", "start": [2, 5, 0], "goal": [8, 5, 0]},
        {"id": "b", "start": [2, 7, 0], "goal": [8, 7, 0],
         "cost": {"a": 0.2}, "mode": "baseline_mpepc"},
    ]
    path = tmp_path / "merge.json"
    path.write_text(json.dumps(doc))
    config = load(path)
    a, b = config.agents
    assert a.planner.v_limit == 0.7 and b.planner.v_limit == 0.7
    assert a.cost.a == 0.5
    assert b.cost.a == 0.2
    assert b.mode == "baseline_mpepc" and b.cost.mode == "baseline_mpepc"
    assert a.optimizer.n_global_samples == 64


def test_agent_blocks_override_fields_of_the_defaults():
    # an agent's block replaces only the fields it names, also inside gains,
    # and its "mode" applies together with its cost block
    doc = dict(MINIMAL, defaults={"planner": {"horizon_T": 4.0, "gains": {"k1": 2.0}}})
    doc["agents"] = [dict(MINIMAL["agents"][0], mode="baseline_mpepc", cost={"a": 0.2},
                          planner={"v_limit": 0.6, "gains": {"k2": 5.0}})]
    agent = load(doc).agents[0]
    assert (agent.planner.gains.k1, agent.planner.gains.k2) == (2.0, 5.0)
    assert (agent.planner.v_limit, agent.planner.horizon_T) == (0.6, 4.0)
    assert (agent.cost.mode, agent.cost.a) == ("baseline_mpepc", 0.2)


def test_load_rejects_malformed_json_with_location(tmp_path):
    path = tmp_path / "bad.json"
    for text in ('{"name": "x",}', '\n  {"name": "x",}'):
        path.write_text(text)
        with pytest.raises(ScenarioError, match="line"):
            load(path)


def test_load_reads_a_path_as_its_document(tmp_path):
    path = tmp_path / "doc.json"
    for doc in (MINIMAL, dict(MINIMAL, scripted_obstacles=[_PED]), *(
            builtin(name).to_dict() for name in BUILTINS)):
        path.write_text(json.dumps(doc))
        assert load(path).to_dict() == load(str(path)).to_dict() == load(doc).to_dict()


def test_load_takes_a_document_or_a_path_and_nothing_else():
    # JSON text is no source: a str is always a path
    with pytest.raises(ScenarioError, match="^cannot read '"):
        load(json.dumps(MINIMAL))
    with pytest.raises(ScenarioError, match="^unsupported scenario source bytes$"):
        load(json.dumps(MINIMAL).encode())


def test_agent_in_wall_is_named():
    doc = dict(MINIMAL)
    doc["map"] = {"rows": ["####", "#..#", "#..#", "####"], "resolution": 1.0}
    doc["agents"] = [{"id": "stuck", "start": [0.5, 0.5, 0.0], "goal": [2.5, 2.5, 0.0]}]
    with pytest.raises(ScenarioError, match="stuck"):
        load(doc)


def test_goal_clearance_validated():
    doc = dict(MINIMAL)
    doc["map"] = {"rows": ["######", "#....#", "#....#", "######"], "resolution": 1.0}
    doc["agents"] = [{"id": "a", "start": [2.5, 2.0, 0.0], "goal": [5.2, 1.1, 0.0]}]
    with pytest.raises(ScenarioError, match="goal"):
        load(doc)


def test_overlapping_starts_rejected():
    doc = dict(MINIMAL)
    doc["agents"] = [
        {"id": "a", "start": [2.0, 5.0, 0.0], "goal": [8.0, 5.0, 0.0]},
        {"id": "b", "start": [2.3, 5.0, 0.0], "goal": [8.0, 6.0, 0.0]},
    ]
    with pytest.raises(ScenarioError, match="overlapping"):
        load(doc)


# starts the simulation's first step would find in contact (and stop): two
# agents that touch exactly, and a scripted obstacle over a start
START_CONTACTS = [
    pytest.param([{"id": "a", "start": [3.0, 5.0, 0.0], "goal": [8.0, 5.0, 0.0], "radius": 0.5},
                  {"id": "b", "start": [4.0, 5.0, 0.0], "goal": [8.0, 7.0, 0.0], "radius": 0.5}],
                 [], "agents 'a' and 'b': overlapping starts", id="touching-agents"),
    pytest.param([{"id": "a", "start": [3.0, 5.0, 0.0], "goal": [8.0, 5.0, 0.0]}],
                 [{"id": "p", "radius": 0.3, "position": [3.2, 5.0]}],
                 "agent 'a': start overlaps obstacle 'p' at t = 0", id="obstacle-over-start"),
]


@pytest.mark.parametrize("agents,obstacles,message", START_CONTACTS)
def test_starts_in_contact_at_t0_rejected(agents, obstacles, message):
    doc = dict(MINIMAL, agents=agents, scripted_obstacles=obstacles)
    with pytest.raises(ScenarioError, match=re.escape(message)):
        load(doc)


def test_refine_budget_below_simplex_rejected_with_path():
    doc = dict(MINIMAL)
    doc["agents"] = [{"id": "bot", "start": [2.0, 5.0, 0.0], "goal": [8.0, 5.0, 0.0],
                      "optimizer": {"refine_max_evals": 3}}]
    with pytest.raises(ScenarioError, match=r"agents\[0\]\.optimizer: refine_max_evals"):
        load(doc)


def test_duplicate_ids_rejected():
    doc = dict(MINIMAL)
    doc["agents"] = [
        {"id": "a", "start": [2.0, 5.0, 0.0], "goal": [8.0, 5.0, 0.0]},
        {"id": "a", "start": [2.0, 8.0, 0.0], "goal": [8.0, 8.0, 0.0]},
    ]
    with pytest.raises(ScenarioError, match="duplicate"):
        load(doc)


@pytest.mark.parametrize("obstacle_id", ["bot", "ped"])
def test_obstacle_id_unique_across_agents_and_obstacles(obstacle_id):
    # a contact names the other party by id, so a shared id would stop the
    # agent of that name whenever the obstacle touches anyone
    doc = dict(MINIMAL, scripted_obstacles=[dict(_PED), dict(_PED, id=obstacle_id)])
    with pytest.raises(ScenarioError, match=f"duplicate id '{obstacle_id}'"):
        load(doc)


def test_grid_is_not_an_id():
    doc = copy.deepcopy(MINIMAL)
    doc["agents"][0]["id"] = "grid"
    with pytest.raises(ScenarioError, match="id 'grid' names the map"):
        load(doc)


def test_unreadable_path_is_a_scenario_error(tmp_path):
    with pytest.raises(ScenarioError, match="cannot read"):
        load(tmp_path)
    latin = tmp_path / "latin1.json"
    latin.write_bytes(json.dumps(dict(MINIMAL, name="caf\u00e9"), ensure_ascii=False)
                      .encode("latin-1"))
    with pytest.raises(ScenarioError, match="cannot read"):
        load(str(latin))
    # a string is a path, and a missing one is named
    for source in ("no_such.json", str(tmp_path / "gone.json")):
        with pytest.raises(ScenarioError, match=f"cannot read {re.escape(repr(source))}"):
            load(source)


def test_script_times_within_duration():
    doc = dict(MINIMAL)
    doc["scripted_obstacles"] = [
        {"id": "ped", "radius": 0.3,
         "waypoints": [[0.0, 1.0, 1.0], [30.0, 5.0, 5.0]]}
    ]
    with pytest.raises(ScenarioError, match="script times"):
        load(doc)


_PED = {"id": "ped", "radius": 0.3, "position": [5.0, 8.0], "velocity": [0.1, 0.0]}

# (path into the document, value); a path that ends in a new key adds it
MALFORMED = [
    (("duration",), "abc"),
    (("duration",), math.nan),
    (("duration",), math.inf),
    (("seed",), "x"),
    (("seed",), 1.5),
    (("seed",), True),
    (("seed",), -1),
    (("agents", 0, "radius"), "big"),
    (("agents", 0, "radius"), math.nan),
    (("agents", 0, "start"), [2.0, 5.0]),
    (("agents", 0, "goal"), [8.0, 5.0, math.nan]),
    (("map", "resolution"), None),
    (("map", "resolution"), math.inf),
    (("map", "origin"), [1.0]),
    (("defaults",), {"cost": [1, 2]}),
    (("defaults",), {"cost": {"path": 1}}),
    (("defaults",), {"cost": {"sigma_d": math.nan}}),
    (("defaults",), {"cost": {"w_progress": math.nan}}),
    (("defaults",), {"planner": {"v_limit": math.nan}}),
    (("defaults",), {"planner": {"v_limit": -1}}),
    (("defaults",), {"optimizer": {"bounds": [[0, 1], [0, 1], [0, 1], [0, math.inf]]}}),
    (("defaults",), {"optimizer": {"n_global_samples": 50.5}}),
    (("defaults",), {"optimizer": {"seed": True}}),
    (("defaults",), {"optimizer": {"seed": -5}}),
    (("agents", 0, "optimizer"), {"seed": -5}),
    (("agents", 0, "planner"), "fast"),
    (("scripted_obstacles",), 5),
    (("scripted_obstacles",), [{"id": "ped", "waypoints": [[0.0, 1.0, 1.0], [2.0, 3.0]]}]),
    (("scripted_obstacles",), [dict(_PED, radius=math.nan)]),
    (("scripted_obstacles",), [dict(_PED, velocity=[math.nan, 0.0])]),
    # wrongly typed JSON values, which loaded coerced or as they were
    (("defaults",), {"cost": {"include_terminal": "no"}}),
    (("defaults",), {"planner": {"v_limit": True}}),
    (("duration",), True),
    (("agents", 0, "radius"), "0.4"),
    (("agents", 0, "start"), [True, "1.5", 0]),
    (("name",), None),
    (("agents", 0, "id"), None),
    (("map", "resolution"), "0.5"),
    (("scripted_obstacles",), [dict(_PED, id=None)]),
    (("scripted_obstacles",), [dict(_PED, velocity=["0.1", 0.0])]),
    # not a whole number of 0.2 s planner steps
    (("duration",), 0.5),
    (("duration",), 1.5),
    # an agent-level mode, named where it is written, not under its cost block
    (("agents", 0, "mode"), 5),
    (("agents", 0, "mode"), "fast"),
    # within the whole-step rule of 0.2 s steps, but no step
    (("agents", 0, "planner"), {"horizon_T": 1e-10}),
]


@pytest.mark.parametrize("path,value", MALFORMED, ids=lambda v: repr(v))
def test_malformed_field_is_a_scenario_error(path, value, tmp_path):
    doc = copy.deepcopy(MINIMAL)
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    # a JSON file carries NaN and Infinity as the literals json.load accepts
    source = tmp_path / "doc.json"
    source.write_text(json.dumps(doc))
    with pytest.raises(ScenarioError) as raised:
        load(source)
    # the error names the value's path, a block that holds it or a field in it
    where = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)[1:]
    named = str(raised.value).split(": ", 1)[0]
    inner, outer = sorted((named, where), key=len)
    assert outer == inner or outer.startswith((inner + ".", inner + "["))


# (path into the document, misspelt key, the path the error must name). The
# first five loaded silently, with the key ignored, before keys were checked;
# a key inside a config block was named under the first agent's block
UNKNOWN_KEYS = [
    ((), "durration", "durration"),
    (("map",), "orgin", "map.orgin"),
    (("defaults",), "planer", "defaults.planer"),
    (("agents", 0), "raduis", "agents[0].raduis"),
    (("scripted_obstacles", 0), "positon", "scripted_obstacles[0].positon"),
    (("defaults", "cost"), "sgima_d", "defaults.cost.sgima_d"),
    (("defaults", "planner"), "v_limt", "defaults.planner.v_limt"),
    (("defaults", "planner", "gains"), "k3", "defaults.planner.gains.k3"),
    (("defaults", "optimizer"), "n_samples", "defaults.optimizer.n_samples"),
    (("agents", 0, "cost"), "sgima_d", "agents[0].cost.sgima_d"),
    (("agents", 0, "planner"), "v_limt", "agents[0].planner.v_limt"),
    (("agents", 0, "planner", "gains"), "k3", "agents[0].planner.gains.k3"),
    (("agents", 0, "optimizer"), "n_samples", "agents[0].optimizer.n_samples"),
]


@pytest.mark.parametrize("path,key,named", UNKNOWN_KEYS, ids=lambda v: repr(v))
def test_unknown_key_is_a_scenario_error(path, key, named):
    doc = copy.deepcopy(MINIMAL)
    blocks = {"cost": {"a": 0.5}, "planner": {"gains": {"k1": 1.2}},
              "optimizer": {"seed": 4}}
    doc["defaults"] = copy.deepcopy(blocks)
    doc["agents"][0].update(copy.deepcopy(blocks))
    doc["scripted_obstacles"] = [dict(_PED)]
    load(doc)
    target = doc
    for step in path:
        target = target[step]
    target[key] = 1.0
    with pytest.raises(ScenarioError, match=rf"^{re.escape(named)}: unknown key"):
        load(doc)


# (defaults block, its content, the error it must raise); these were named
# under the first agent's block, where the defaults are merged in. A
# subnormal step_h overflowed the step count in an error that named no
# field, and the last two budgets loaded and failed only inside plan()
DEFAULTS_VALUE_ERRORS = [
    ("planner", {"v_limit": -1}, "defaults.planner: v_limit must be positive and finite"),
    ("planner", {"horizon_T": 1e-10},
     "defaults.planner: horizon_T: 1e-10 s is shorter than one step_h 0.2 s"),
    ("planner", {"step_h": 1e-320},
     "defaults.planner: horizon_T: 5 s is not a finite number of step_h"),
    ("planner", {"gains": {"k1": 0}}, "defaults.planner.gains: k1 and k2 must be positive"),
    ("cost", {"sigma_d": -1}, "defaults.cost: sigma_d must be positive and finite"),
    ("optimizer", {"n_global_samples": 0}, "defaults.optimizer: n_global_samples must be >= 1"),
    ("optimizer", {"n_global_samples": 2 ** 31},
     "defaults.optimizer: n_global_samples must be <= 2^30"),
    ("optimizer", {"n_refine_seeds": 2, "refine_max_evals": 2 ** 29 + 1},
     "defaults.optimizer: n_refine_seeds * refine_max_evals must be <= 2^30"),
]


@pytest.mark.parametrize("block,content,message", DEFAULTS_VALUE_ERRORS,
                         ids=lambda v: repr(v))
def test_defaults_value_error_names_the_defaults_block(block, content, message):
    doc = dict(MINIMAL, defaults={block: content})
    with pytest.raises(ScenarioError, match=rf"^{re.escape(message)}"):
        load(doc)


@pytest.mark.parametrize("key", ["position", "velocity", "epoch"])
def test_waypoints_exclude_constant_velocity_keys(key):
    obstacle = {"id": "ped", "waypoints": [[0.0, 1.0, 1.0], [2.0, 3.0, 1.0]],
                key: _PED.get(key, 0.5)}
    doc = dict(MINIMAL, scripted_obstacles=[obstacle])
    with pytest.raises(ScenarioError, match=r"^scripted_obstacles\[0\]: 'waypoints' excludes"):
        load(doc)


# t_corridor, whose map has walls, and its two agents
T_CORRIDOR = builtin("t_corridor")
MOVER, BLOCKER = T_CORRIDOR.agents

# (the fields a fault changes in T_CORRIDOR, the error every path raises)
SCENARIO_FAULTS = [
    pytest.param({"duration": 0.5},
                 "duration: 0.5 s is not an integer multiple of step_h 0.2 s", id="off-step"),
    pytest.param({"duration": 1e-10},
                 "duration: 1e-10 s is shorter than one step_h 0.2 s", id="under-one-step"),
    pytest.param({"duration": 1e308},
                 "duration: 1e+308 s is not a finite number of step_h 0.2 s steps",
                 id="step-count-overflow"),
    pytest.param({"seed": -3}, "seed: must be >= 0", id="negative-seed"),
    pytest.param({"agents": (replace(MOVER, goal=Pose(-5.0, 10.0, 0.0)), BLOCKER)},
                 "agent 'mover': goal (-5, 10) outside the map", id="goal-off-map"),
    pytest.param({"agents": (replace(MOVER, start=Pose(0.5, 0.5, 0.0)), BLOCKER)},
                 "agent 'mover': start too close to static obstacles (clearance 0.000 m "
                 "<= radius 0.35 m)", id="start-in-wall"),
    pytest.param({"agents": ()}, "agents: a scenario needs at least one agent",
                 id="no-agents"),
    pytest.param({"agents": (MOVER, replace(BLOCKER, planner=PlannerConfig(step_h=0.1)))},
                 "agent 'blocker': step_h 0.1 differs from 0.2; all agents must share one step",
                 id="mismatched-step"),
]


def _with(changes: dict) -> dict:
    """The fields of T_CORRIDOR with `changes`."""
    return {f.name: getattr(T_CORRIDOR, f.name) for f in fields(ScenarioConfig)} | changes


# the ways to build a scenario; no ScenarioConfig can hold a fault, so the
# document is written by to_dict from the bare fields
BUILDERS = {
    "load": lambda changes: load(ScenarioConfig.to_dict(SimpleNamespace(**_with(changes)))),
    "constructor": lambda changes: ScenarioConfig(**_with(changes)),
    "replace": lambda changes: replace(builtin("t_corridor"), **changes),
}


@pytest.mark.parametrize("build", BUILDERS)
@pytest.mark.parametrize("changes,message", SCENARIO_FAULTS)
def test_every_build_path_rejects_the_same_faults(changes, message, build):
    with pytest.raises(ScenarioError) as raised:
        BUILDERS[build](changes)
    assert str(raised.value) == message


@pytest.mark.parametrize("name", ["agents", "scripted_obstacles"])
def test_scenario_sequences_are_tuples(name):
    # a checked scenario cannot change afterwards
    config = builtin("pedestrian_hall")
    with pytest.raises(ScenarioError, match=rf"^{name}: expected a tuple$"):
        replace(config, **{name: list(getattr(config, name))})


def test_round_trip_serialization():
    config = load(MINIMAL)
    again = load(config.to_dict())
    assert again.to_dict() == config.to_dict()
    for name in BUILTINS:
        built = builtin(name)
        assert load(built.to_dict()).to_dict() == built.to_dict()


# SHA-256 of json.dumps(builtin(name, mode=mode).to_dict(), sort_keys=True),
# recorded when the built-ins still took a mode
BUILTIN_DIGESTS = {
    ("open_field", "ds_mpepc"):
        "198dd458e905fb419c5f74ce65d7be6d10be143cb288b1cd705bb4dba0abd3f4",
    ("open_field", "baseline_mpepc"):
        "9715c036894023b3dc0c24874c5df303bd106096962c1c91a70ab7d096773cad",
    ("t_corridor", "ds_mpepc"):
        "7e83e93d73191aac7422ad95035cddea07204dc5040647c1003f05b42b1d274f",
    ("t_corridor", "baseline_mpepc"):
        "56678d9122b0c427b87f4118b8497e244e952c84993608d539ef3054f53b04de",
    ("narrow_corridor", "ds_mpepc"):
        "ad940718f919c7d8d2d13d84f187ef9bd90d715a9cc61a642b3b34a3d1a709f1",
    ("narrow_corridor", "baseline_mpepc"):
        "38ae952d0df78fef4483deae3476e82652d19378dbc8ae2dcfb6b3da33d1f445",
    ("circle", "ds_mpepc"):
        "6310bd74dd3dee873fd12ef0d748bbb2c20350c3bd9b1f6022985710a060f47b",
    ("circle", "baseline_mpepc"):
        "665aabed46ab6166f50e9e8c6e05e29d058288baefff970002ffc4d76fef462f",
    ("pedestrian_hall", "ds_mpepc"):
        "1200a8f33c853a2c5d385546843ecae82b8fe919d161b238c2e00db6ce645958",
    ("pedestrian_hall", "baseline_mpepc"):
        "8c012d52abd00cf3d26bcc5457fe8f12a8981f9b0506cbeed63ab1a8d26dfc15",
}


@pytest.mark.parametrize("name,mode", BUILTIN_DIGESTS)
def test_builtin_with_mode_is_the_builtin_of_that_mode(name, mode):
    doc = builtin(name).with_mode(mode).to_dict()
    assert [a["mode"] for a in doc["agents"]] == [mode] * len(doc["agents"])
    digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
    assert digest == BUILTIN_DIGESTS[name, mode]


def test_unknown_builtin():
    with pytest.raises(ScenarioError, match="unknown builtin"):
        builtin("no_such_scenario")


def test_every_builtin_validates():
    for name in BUILTINS:
        config = builtin(name)
        assert config.agents
        assert config.duration > 0


def test_narrow_corridor_infeasible_width():
    with pytest.raises(ScenarioError, match="narrower"):
        builtin("narrow_corridor", width=0.69)


def test_circle_antipodal_mapping():
    for n in (4, 10):
        config = builtin("circle", n=n)
        agents = config.agents
        for k, agent in enumerate(agents):
            opposite = agents[(k + n // 2) % n]
            assert agent.goal.x == pytest.approx(opposite.start.x, abs=1e-9)
            assert agent.goal.y == pytest.approx(opposite.start.y, abs=1e-9)


def test_circle_rotational_symmetry():
    n = 4
    config = builtin("circle", n=n)
    agents = config.agents
    cx = sum(a.start.x for a in agents) / n
    cy = sum(a.start.y for a in agents) / n
    rot = 2 * math.pi / n
    for k, agent in enumerate(agents):
        nxt = agents[(k + 1) % n]
        rx = cx + (agent.start.x - cx) * math.cos(rot) - (agent.start.y - cy) * math.sin(rot)
        ry = cy + (agent.start.x - cx) * math.sin(rot) + (agent.start.y - cy) * math.cos(rot)
        assert nxt.start.x == pytest.approx(rx, abs=1e-9)
        assert nxt.start.y == pytest.approx(ry, abs=1e-9)


def test_t_corridor_has_stationary_blocker():
    config = builtin("t_corridor")
    blocker = next(a for a in config.agents if a.id == "blocker")
    assert blocker.start == blocker.goal


def test_optimizer_bounds_key_is_named():
    # the parameter box follows from the planner config; a "bounds" key is
    # rejected with its path, not silently ignored
    doc = dict(MINIMAL)
    doc["agents"] = [{"id": "bot", "start": [2.0, 5.0, 0.0], "goal": [8.0, 5.0, 0.0],
                      "optimizer": {"bounds": [[0, 1], [0, 1], [0, 1], [0, 1]]}}]
    with pytest.raises(ScenarioError, match=r"^agents\[0\]\.optimizer\.bounds: unknown key"):
        load(doc)
