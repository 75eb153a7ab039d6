import copy
import json
import math
import re

import pytest

from dsmpepc.scenarios import (
    BUILTINS,
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


def test_load_from_json_text_and_defaults_merge():
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
    config = load(json.dumps(doc))
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


def test_load_rejects_malformed_json_with_location():
    for text in ('{"name": "x",}', '\n  {"name": "x",}'):
        with pytest.raises(ScenarioError, match="line"):
            load(text)


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
    # a string that is neither a file nor JSON text is named as a path
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
]


@pytest.mark.parametrize("path,value", MALFORMED, ids=lambda v: repr(v))
def test_malformed_field_is_a_scenario_error(path, value):
    doc = copy.deepcopy(MINIMAL)
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    # JSON text carries NaN and Infinity as the literals json.loads accepts
    with pytest.raises(ScenarioError):
        load(json.dumps(doc))


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
        load(json.dumps(doc))


# (defaults block, its content, the error it must raise); these were named
# under the first agent's block, where the defaults are merged in
DEFAULTS_VALUE_ERRORS = [
    ("planner", {"v_limit": -1}, "defaults.planner: v_limit must be positive and finite"),
    ("planner", {"gains": {"k1": 0}}, "defaults.planner.gains: k1 and k2 must be positive"),
    ("cost", {"sigma_d": -1}, "defaults.cost: sigma_d must be positive and finite"),
    ("optimizer", {"n_global_samples": 0}, "defaults.optimizer: n_global_samples must be >= 1"),
]


@pytest.mark.parametrize("block,content,message", DEFAULTS_VALUE_ERRORS,
                         ids=lambda v: repr(v))
def test_defaults_value_error_names_the_defaults_block(block, content, message):
    doc = dict(MINIMAL, defaults={block: content})
    with pytest.raises(ScenarioError, match=rf"^{re.escape(message)}"):
        load(json.dumps(doc))


@pytest.mark.parametrize("key", ["position", "velocity", "epoch"])
def test_waypoints_exclude_constant_velocity_keys(key):
    obstacle = {"id": "ped", "waypoints": [[0.0, 1.0, 1.0], [2.0, 3.0, 1.0]],
                key: _PED.get(key, 0.5)}
    doc = dict(MINIMAL, scripted_obstacles=[obstacle])
    with pytest.raises(ScenarioError, match=r"^scripted_obstacles\[0\]: 'waypoints' excludes"):
        load(doc)


def test_round_trip_serialization():
    config = load(MINIMAL)
    again = load(config.to_json())
    assert again.to_dict() == config.to_dict()
    for name in BUILTINS:
        built = builtin(name)
        assert load(built.to_json()).to_dict() == built.to_dict()


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
