import ast
import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import dsmpepc
from dsmpepc import load

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
PACKAGE = ROOT / "src" / "dsmpepc"


def _imported(path):
    """Each (module, name) the file imports, name None for a plain
    import; a relative module keeps its leading dots."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            yield from ((module, a.name) for a in node.names)
        elif isinstance(node, ast.Import):
            yield from ((a.name, None) for a in node.names)


def test_star_import_binds_every_export():
    # a name left in __all__ after its definition is gone fails the import
    namespace = {}
    exec("from dsmpepc import *", namespace)
    for name in dsmpepc.__all__:
        assert namespace[name] is getattr(dsmpepc, name)
    assert len(set(dsmpepc.__all__)) == len(dsmpepc.__all__)


def test_readme_library_example_runs_as_commented():
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", library, re.DOTALL).group(1)
    namespace = {}
    exec(compile(code, f"{README.name} (## Library)", "exec"), namespace)
    result, rows = namespace["result"], namespace["rows"]
    assert rows.total == result.best_cost
    assert len(rows.p_s) == 25
    assert -1.0 <= rows.j_terminal <= 0.0
    assert len(result.best_trajectory.states) == 26


def test_readme_scenario_document_loads_and_round_trips():
    files = README.read_text(encoding="utf-8").split("\n## Scenario files\n", 1)[1]
    document = re.search(r"```json\n(.*?)```", files, re.DOTALL).group(1)
    config = load(json.loads(document))
    assert [a.id for a in config.agents] == ["bot"]
    assert [o.id for o in config.scripted_obstacles] == ["ped"]
    assert load(config.to_dict()).to_dict() == config.to_dict()


def test_scenarios_does_not_import_the_simulator():
    # a scenario is data and its rules; the simulator reads scenarios, not
    # the other way round
    imported = {f"{m}.{n}" if n else m for m, n in _imported(PACKAGE / "scenarios.py")}
    assert imported and not any("simulator" in name for name in imported)
    # and no package module imports another's private name: what two
    # modules share is public, or belongs in one module
    private = [(path.name, module, name) for path in sorted(PACKAGE.glob("*.py"))
               for module, name in _imported(path)
               if (module.startswith(".") or module.split(".")[0] == "dsmpepc")
               and name is not None and name.startswith("_")]
    assert private == []


def test_readme_key_modules_are_the_package_modules():
    # the architecture notes name each module of the package once, so a
    # merged or split module cannot leave them stale
    notes = README.read_text(encoding="utf-8").split("\nKey modules:\n", 1)[1]
    notes = notes.split("\n## ", 1)[0]
    listed = [name for line in notes.splitlines() if line.startswith("- ")
              for name in re.findall(r"`(\w+)`", line.split(":", 1)[0])]
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    assert sorted(listed) == sorted(modules)


def test_import_does_not_load_scipy_stats():
    # the planner draws its Sobol points itself; scipy.stats is the heaviest
    # module it could pull in, and every CLI command would pay for it
    code = "import sys, dsmpepc, dsmpepc.cli; sys.exit('scipy.stats' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_no_scipy_module_loads_on_a_walled_map():
    # numpy is the package's only dependency: a walled grid's distance
    # transform, a navigation field over it and a corridor run load no scipy
    code = textwrap.dedent("""
        import sys, dsmpepc, dsmpepc.cli
        grid = dsmpepc.OccupancyGrid.from_ascii(["#...", "...."], 0.5)
        dsmpepc.NavigationField(grid, (1.75, 0.25))
        dsmpepc.run(dsmpepc.builtin("narrow_corridor"))
        print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
    """)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.splitlines() == ["[]"]
