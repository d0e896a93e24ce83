"""Every function the package defines is reached from its command line.

A child process installs a profiler before it imports semgeo, then drives
only `semgeo.cli.main`: oracle-check, and simulate, benchmark and plan over
all five experiment kinds with every method tag, a scenario given as a file
path and every planner field set.  Each `def` in src/semgeo/*.py must have
been called.  A def that only tests reach belongs with the tests.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import semgeo
from semgeo.harness import PLANNER_KEYS, load_scenario
from semgeo.methods import METHOD_TAGS

PACKAGE = Path(semgeo.__file__).resolve().parent

# argv[1]: a JSON list of argument lists for semgeo.cli.main.  Prints the
# exit codes and the (file, first line) of every code object called.
CHILD = r"""
import contextlib, io, json, sys

called = set()

def profile(frame, event, arg):
    if event == "call":
        called.add(frame.f_code)

sys.setprofile(profile)
from semgeo.cli import main

codes = []
with contextlib.redirect_stdout(io.StringIO()):
    for argv in json.loads(sys.argv[1]):
        codes.append(main(argv))
sys.setprofile(None)
print(json.dumps({
    "codes": codes,
    "called": sorted({(c.co_filename, c.co_firstlineno) for c in called}),
}))
"""

# every PlannerConfig field a config may set, each away from its default
PLANNER = dict(
    n_nodes=20, k_nearest=5, n_candidates=3, max_step=0.8,
    safety_threshold=0.5, goal_radius=0.5, max_steps=6,
)
SMALL = dict(
    methods=list(METHOD_TAGS), trials=1, n_steps=1, eval_horizon=1,
    n_samples=8, reference_samples=64, n_particles=8, seed=5,
)
# kind -> (verb, sweep)
RUNS = {
    "psafe-vs-time": ("simulate", {}),
    "rmse-vs-samples": ("benchmark", {"n_samples": [4, 8]}),
    "rmse-vs-classes": ("benchmark", {"n_classes": [1, 2]}),
    "rmse-vs-objects": ("benchmark", {"n_objects": [1, 2]}),
    "planning-table": ("plan", {}),
}


def package_defs():
    """(name, {def line, first decorator line}) of every def in the package."""

    def walk(node, file, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}{child.name}"
                lines = {child.lineno} | {d.lineno for d in child.decorator_list[:1]}
                yield file, name, lines
                yield from walk(child, file, name + ".")
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, file, f"{prefix}{child.name}.")
            else:
                yield from walk(child, file, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        yield from walk(ast.parse(path.read_text(encoding="utf-8")), path, f"{path.stem}.")


def test_every_package_def_is_reached_from_the_command_line(tmp_path, child_env):
    assert set(PLANNER) == set(PLANNER_KEYS)
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(load_scenario("oracle_small").to_dict()))
    runs = [["oracle-check", "--seed", "1", "--out", str(tmp_path / "oracle")]]
    for kind, (verb, sweep) in RUNS.items():
        config = tmp_path / f"{kind}.json"
        config.write_text(json.dumps(
            dict(SMALL, kind=kind, scenario=str(scenario), sweep=sweep, planner=PLANNER)
        ))
        runs.append([verb, "--config", str(config), "--out", str(tmp_path / kind)])
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(runs)],
        capture_output=True, text=True, env=child_env,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == [0] * len(runs), proc.stderr
    called = {(Path(file).resolve(), line) for file, line in result["called"]}
    missed = [
        f"{name} ({file.name}:{min(lines)})"
        for file, name, lines in package_defs()
        if not any((file, line) in called for line in lines)
    ]
    assert missed == [], f"defs no command-line run reaches: {missed}"
