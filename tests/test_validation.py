"""The validation promise as properties, and the README against the rules.

Whatever JSON value one config or scenario field holds, parsing returns or
raises the object's own error, and `semgeo simulate` exits 0 or 2, never 1.
The hand-written cases in test_scenario.py and test_harness.py stay as
regression examples.
"""

import contextlib
import io
import json
import os
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from semgeo.cli import main
from semgeo.harness import (
    ALL_KINDS,
    CONFIG_RULES,
    PLANNER_RULES,
    ConfigError,
    ExperimentConfig,
    load_scenario,
)
from semgeo.methods import METHOD_TAGS
from semgeo.scenario import (
    MAX_ALPHA,
    MAX_LENGTH,
    MAX_VARIANCE,
    MIN_VARIANCE,
    SCENARIO_RULES,
    Scenario,
    ScenarioError,
    is_int,
)

README = Path(__file__).resolve().parents[1] / "README.md"
ORACLE = load_scenario("oracle_small").to_dict()
# a tiny psafe-vs-time run: one trial of an exact, a factored and a
# particle method, with the out directory relative to the working directory
TINY = dict(
    kind="psafe-vs-time", scenario=ORACLE, methods=["mcmc-ours", "theoretical-all-hyp", "pf-pruned"],
    trials=1, n_steps=2, eval_horizon=2, n_samples=20, reference_samples=500, n_particles=50,
    seed=3, out="res",
)
BASES = {
    "sweep": dict(TINY, kind="rmse-vs-classes", sweep={"n_classes": [2, 3]}),
    "planner": dict(TINY, kind="planning-table", planner={}),
}
# counts a run's cost grows with: a large valid one is a long run, not an error
COSTS = ("trials", "n_samples", "reference_samples", "n_particles")

# no text holds a path separator, so an `out` names a directory inside the
# run's own temporary directory (or that directory itself, or its parent)
TEXT = st.text(st.characters(blacklist_characters="/"), max_size=6) | st.sampled_from(
    ["", ".", "..", "a\x00b", "\ud800", "defaults", "oracle_small"]
)
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | TEXT,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(TEXT, kids, max_size=3),
    max_leaves=8,
)


def _times(a, x):
    with np.errstate(all="ignore"):
        return (a * x).tolist()


def values_for(path):
    """Any JSON value, or one meant to get past the shape checks: a numeric
    field's value scaled by any float or filled with one, a list of method
    tags, a kind."""
    base = field_value(path)
    extra = st.nothing()
    if path == "methods":
        extra = st.lists(st.sampled_from(METHOD_TAGS), max_size=3)
    elif path == "kind":
        extra = st.sampled_from(ALL_KINDS)
    elif isinstance(base, (int, float, list)):
        a = np.asarray(base, dtype=float)
        extra = st.floats().map(lambda x: _times(a, x)) | st.floats().map(
            lambda x: np.full(a.shape, x).tolist()
        )
    return JSON | extra


def base_of(path):
    """The config a field is checked in: a sweep or planner entry in a
    config of the kind that reads it, anything else in TINY."""
    head, _, rest = path.partition(".")
    return BASES[head] if rest and head in BASES else TINY


def field_value(path):
    head, _, rest = path.partition(".")
    value = base_of(path).get(head)
    return value.get(rest) if rest and isinstance(value, dict) else value


def with_field(path, value):
    """base_of(path) with the field (`name` or `object.name`) set to value."""
    head, _, rest = path.partition(".")
    base = base_of(path)
    if rest:
        value = dict(base.get(head, {}), **{rest: value})
    return dict(base, **{head: value})


CONFIG_FIELDS = [f.name for f in fields(ExperimentConfig)]
PATHS = (
    CONFIG_FIELDS
    + [f"scenario.{name}" for name in ORACLE]
    + [f"planner.{name}" for name in PLANNER_RULES]
    + ["sweep.n_classes"]
)


@settings(max_examples=400, deadline=None, database=None)
@given(st.data())
def test_any_value_in_one_field_parses_or_is_the_objects_error(data):
    path = data.draw(st.sampled_from(PATHS))
    value = data.draw(values_for(path))
    if path.startswith("scenario."):
        try:
            Scenario.from_dict(dict(ORACLE, **{path[9:]: value}))
        except ScenarioError:
            pass
    try:
        ExperimentConfig.from_dict(with_field(path, value))
    except ConfigError:
        pass


@settings(
    max_examples=60, deadline=None, database=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(st.data())
def test_simulate_exits_0_or_2_whatever_one_field_holds(data):
    path = data.draw(st.sampled_from([p for p in PATHS if base_of(p) is TINY]))
    value = data.draw(values_for(path))
    assume(not (path in COSTS and is_int(value) and value > 4))
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "cfg.json"
        config.write_text(json.dumps(with_field(path, value)))
        (Path(tmp) / "run").mkdir()
        os.chdir(Path(tmp) / "run")
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = main(["simulate", "--config", str(config)])
        finally:
            os.chdir(cwd)
    assert code in (0, 2)


def _paragraph(start: str, end: str) -> str:
    text = README.read_text(encoding="utf-8")
    at = text.index(start)
    return text[at : text.index(end, at)]


def _power(x: float) -> str:
    """1e+08 written as the README writes it: 1e8."""
    mantissa, exponent = f"{x:.0e}".split("e")
    return f"{mantissa}e{int(exponent)}"


def test_readme_names_every_field_the_tables_check():
    config = _paragraph("A config file is a JSON object", "Method tags:")
    scenario = _paragraph("## Scenario files", "## Reproducibility")
    for rules, text in ((CONFIG_RULES, config), (PLANNER_RULES, config), (SCENARIO_RULES, scenario)):
        assert [name for name in rules if f"`{name}`" not in text] == []
    for bound in (MAX_LENGTH, MAX_ALPHA, MIN_VARIANCE, MAX_VARIANCE):
        assert _power(bound) in scenario
