"""Experiment configs, scenario resolution, resizing, runs, emission, CLI.

Full experiment runs here are deliberately tiny (a couple of trials at small
sample counts); statistical quality is the acceptance suite's job.  These
tests pin the contracts: config validation errors, file schemas, determinism,
and CLI exit codes.
"""

import csv
import json
import math
import re
import shutil
import subprocess
import sys
import time
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose

import semgeo.cli as cli_mod
import semgeo.harness as harness_mod
import semgeo.methods as methods_mod
from semgeo.baselines import AnalyticHybridBelief, HypothesisParticleFilter
from semgeo.cli import main
from semgeo.harness import (
    METRIC_COLUMNS,
    PLANNING_COLUMNS,
    ConfigError,
    ExperimentConfig,
    load_scenario,
    resize_scenario,
    run_experiment,
)
from semgeo.methods import METHOD_TAGS, ExactReference, _Method, create_method
from semgeo.planner import PlannerConfig
from semgeo.scenario import Scenario, default_alphas, simulate, trial_streams


class TestLoadScenario:
    def test_shipped_name(self):
        sc = load_scenario("oracle_small")
        assert isinstance(sc, Scenario)
        assert (sc.n_objects, sc.n_classes) == (2, 2)

    def test_scenario_passthrough(self, oracle_small):
        assert load_scenario(oracle_small) is oracle_small

    def test_dict(self, oracle_small):
        sc = load_scenario(oracle_small.to_dict())
        assert sc.to_dict() == oracle_small.to_dict()

    def test_file_path(self, oracle_small, tmp_path):
        path = tmp_path / "custom.json"
        path.write_text(json.dumps(oracle_small.to_dict()))
        assert load_scenario(str(path)).n_objects == 2

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigError, match="unknown scenario"):
            load_scenario("no_such_scenario")

    def test_wrong_type_rejected(self):
        with pytest.raises(ConfigError, match="cannot interpret"):
            load_scenario(42)


# 8 objects of 8 classes: 8**8 hypotheses, past both guards; 10**5 at MID
WIDE = resize_scenario(load_scenario("oracle_small"), n_classes=8, n_objects=8).to_dict()
MID = resize_scenario(load_scenario("oracle_small"), n_classes=10, n_objects=5).to_dict()


class TestExperimentConfig:
    def base(self, **over):
        d = dict(
            kind="psafe-vs-time",
            scenario="oracle_small",
            methods=["mcmc-ours"],
            n_steps=2,
            eval_horizon=2,
        )
        d.update(over)
        return d

    def test_defaults_fill_in(self):
        cfg = ExperimentConfig.from_dict(
            dict(kind="psafe-vs-time", scenario="defaults", methods=["mcmc-ours"])
        )
        assert cfg.trials == 20 and cfg.n_steps == 4 and cfg.seed == 0
        assert cfg.methods == ("mcmc-ours",)

    def test_bad_kind(self):
        with pytest.raises(ConfigError, match="kind must be one of"):
            ExperimentConfig.from_dict(self.base(kind="nope"))

    def test_unknown_method(self):
        with pytest.raises(ConfigError, match=r"methods must be a non-empty list of tags from "
                           r"\['theoretical-all-hyp', .*\], got \['mcmc-ours', 'magic'\]"):
            ExperimentConfig.from_dict(self.base(methods=["mcmc-ours", "magic"]))

    def test_repeated_method_tags(self):
        """The estimation kinds key methods by tag and planning-table runs
        each listed item, so a repeated tag would mean different things."""
        with pytest.raises(ConfigError, match=r"\['gs-map'\] more than once"):
            ExperimentConfig.from_dict(
                self.base(methods=["gs-map", "mcmc-ours", "gs-map"])
            )

    def test_unknown_field(self):
        with pytest.raises(ConfigError, match="bad config field"):
            ExperimentConfig.from_dict(self.base(n_sample=10))

    @pytest.mark.parametrize(
        "key", ["bogus", "n_samples", "n_particles", "method_options", "replan_every"]
    )
    def test_unknown_planner_key(self, key):
        """Keys PlannerConfig lacks, or that the harness sets itself, fail at
        parse time instead of as a TypeError inside run_experiment."""
        with pytest.raises(ConfigError, match=rf"unknown planner keys \['{key}'\]"):
            ExperimentConfig.from_dict(
                self.base(kind="planning-table", planner={"n_nodes": 30, key: 1})
            )

    def test_planner_must_be_an_object(self):
        with pytest.raises(ConfigError, match="planner must be an object"):
            ExperimentConfig.from_dict(self.base(kind="planning-table", planner=[1]))

    @pytest.mark.parametrize("methods", [None, 3, 1.5, True, "mcmc-ours", {"mcmc-ours": 1}, [1]])
    def test_methods_must_be_a_list_of_tags(self, methods):
        """A bare string would be split into characters, and null, a number
        or a bool used to escape as a TypeError."""
        with pytest.raises(ConfigError, match="methods must be a non-empty list of tags from "
                           + rf".*, got {re.escape(repr(methods))}$"):
            ExperimentConfig.from_dict(self.base(methods=methods))

    @pytest.mark.parametrize(
        "key, value", [("max_step", math.inf), ("max_step", math.nan), ("goal_radius", math.inf)]
    )
    def test_planner_values_must_be_finite(self, key, value):
        with pytest.raises(ConfigError, match=rf"planner\.{key} must be a finite number"):
            ExperimentConfig.from_dict(self.base(kind="planning-table", planner={key: value}))

    @pytest.mark.parametrize(
        "over, needs",
        [
            # the reference of every estimation kind enumerates 8**8 hypotheses
            (dict(scenario=WIDE), "EXACT_MAX_HYPOTHESES = 1000000, which the exact reference"),
            (dict(kind="planning-table", scenario=WIDE, methods=["gs-map", "theoretical-pruned"]),
             "EXACT_MAX_HYPOTHESES = 1000000, which theoretical-pruned needs"),
            (dict(kind="planning-table", scenario=MID, methods=["pf-pruned"]),
             "PF_MAX_HYPOTHESES = 10000, which pf-pruned needs"),
            (dict(scenario=MID, methods=["mcmc-ours", "pf-all-hyp"]),
             "PF_MAX_HYPOTHESES = 10000, which pf-all-hyp needs"),
            # the largest swept size counts, not the base scenario's
            (dict(kind="rmse-vs-classes", sweep={"n_classes": [2, 1001]}),
             r"1001 classes \*\* 2 objects = 1002001 hypotheses exceed EXACT_MAX_HYPOTHESES"),
            (dict(kind="rmse-vs-objects", sweep={"n_objects": [2, 14]}, methods=["pf-pruned"]),
             r"2 classes \*\* 14 objects = 16384 hypotheses exceed PF_MAX_HYPOTHESES"),
            (dict(kind="rmse-vs-objects", sweep={"n_objects": [1, 100]}),
             r"100 objects = over 2\*\*64 hypotheses exceed EXACT_MAX_HYPOTHESES"),
        ],
        ids=["reference", "theoretical", "pf-plan", "pf-simulate", "class-sweep",
             "object-sweep", "huge-sweep"],
    )
    def test_hypothesis_guards_are_checked_at_parse_time(self, over, needs):
        with pytest.raises(ConfigError, match=needs):
            ExperimentConfig.from_dict(self.base(**over))

    def test_sizes_within_the_guards_parse(self):
        """At the guard itself a config parses, and a planning table of
        factored-belief methods has no guard to meet."""
        ExperimentConfig.from_dict(self.base(kind="rmse-vs-classes", sweep={"n_classes": [1000]}))
        ExperimentConfig.from_dict(
            self.base(kind="rmse-vs-objects", sweep={"n_objects": [13]}, methods=["pf-pruned"])
        )
        ExperimentConfig.from_dict(
            self.base(kind="planning-table", scenario=WIDE, methods=["mcmc-ours", "gs-map"])
        )

    def test_every_settable_planner_field_parses(self):
        planner = {
            "n_nodes": 40,
            "k_nearest": 6,
            "n_candidates": 200,
            "max_step": 1.0,
            "safety_threshold": 0.95,
            "goal_radius": 1.0,
            "max_steps": 40,
        }
        settable = {f.name for f in fields(PlannerConfig)} - {"n_samples", "n_particles"}
        # a PlannerConfig field added without a rule would be accepted unchecked
        assert set(planner) == settable == set(harness_mod.PLANNER_RULES)
        cfg = ExperimentConfig.from_dict(
            self.base(kind="planning-table", planner=planner)
        )
        assert cfg.planner == planner

    @pytest.mark.parametrize(
        "key, value",
        [
            ("n_nodes", -5),
            ("n_nodes", 30.0),
            ("k_nearest", 0),
            ("k_nearest", True),
            ("n_candidates", 0),
            ("n_candidates", False),
            ("max_steps", 1.5),
            ("max_steps", -1),
            ("max_step", 0),
            ("max_step", True),
            ("safety_threshold", "high"),
            ("safety_threshold", 1.5),
            ("safety_threshold", -0.1),
            ("goal_radius", -0.5),
            ("goal_radius", None),
        ],
    )
    def test_invalid_planner_value(self, key, value):
        with pytest.raises(ConfigError, match=rf"planner\.{key} must be"):
            ExperimentConfig.from_dict(self.base(kind="planning-table", planner={key: value}))

    def test_planner_bounds_are_valid(self):
        planner = {
            "n_nodes": 0,
            "k_nearest": 1,
            "n_candidates": 1,
            "max_step": 1,
            "safety_threshold": 0,
            "goal_radius": 0,
            "max_steps": 0,
        }
        cfg = ExperimentConfig.from_dict(self.base(kind="planning-table", planner=planner))
        assert cfg.planner == planner
        cfg = ExperimentConfig.from_dict(
            self.base(kind="planning-table", planner={"safety_threshold": 1})
        )
        assert cfg.planner == {"safety_threshold": 1}

    def test_invalid_scenario_dict_becomes_config_error(self, oracle_small):
        broken = oracle_small.to_dict()
        broken["sigma2_obs"] = -1.0
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(self.base(scenario=broken))

    def test_nonpositive_counts(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(self.base(trials=0))
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(self.base(n_samples=0))

    @pytest.mark.parametrize(
        "over, message",
        [
            # every row would get reference_value 0.0 and a wrong RMSE
            ({"reference_samples": 0}, "reference_samples must be an integer >= 1, got 0"),
            # the particle filter would fail with a bare math domain error
            ({"n_particles": 0, "methods": ["pf-pruned"]},
             "n_particles must be an integer >= 1, got 0"),
            # would run nothing and exit 0
            ({"methods": []}, r"methods must be a non-empty list of tags from .*, got \[\]"),
            # would raise a TypeError inside run_experiment
            ({"trials": 1.5}, "trials must be an integer >= 1, got 1.5"),
            # would write True into the n_samples column
            ({"n_samples": True}, "n_samples must be an integer >= 1, got True"),
            # the trial streams take only non-negative seeds
            ({"seed": -1}, "seed must be an integer >= 0, got -1"),
            # would slice the evaluated plan from the end of the actions
            ({"eval_horizon": -2}, "eval_horizon must be an integer >= 0, got -2"),
            # trials run in one process; a parallel request must not run serially
            ({"workers": 2}, "workers must be 1"),
            ({"workers": 0}, "workers must be 1"),
            # Path() raised a TypeError inside run_experiment
            ({"out": 5}, "out must be a string, got 5"),
            ({"out": None}, "out must be a string, got None"),
        ],
        ids=["reference_samples-0", "n_particles-0", "methods-empty",
             "trials-float", "n_samples-bool", "seed-negative", "eval_horizon-negative",
             "workers-2", "workers-0", "out-number", "out-null"],
    )
    def test_invalid_field_values(self, over, message):
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig.from_dict(self.base(**over))

    def test_sweep_required_per_kind(self):
        for kind, key in [
            ("rmse-vs-samples", "n_samples"),
            ("rmse-vs-classes", "n_classes"),
            ("rmse-vs-objects", "n_objects"),
        ]:
            with pytest.raises(ConfigError, match=f"sweep.{key}"):
                ExperimentConfig.from_dict(self.base(kind=kind))

    @pytest.mark.parametrize(
        "kind, sweep, message",
        [
            # was a bare TypeError from the key lookup
            ("rmse-vs-classes", 5, "sweep must be an object, got 5"),
            # was a ZeroDivisionError mid-run
            ("rmse-vs-classes", {"n_classes": [0]}, "sweep.n_classes: a non-empty"),
            # ran as 2 classes with its stream hashes keyed "2.7"
            ("rmse-vs-classes", {"n_classes": [2.7]}, "sweep.n_classes: a non-empty"),
            # ran nothing and returned an empty summary
            ("rmse-vs-classes", {"n_classes": []}, "sweep.n_classes: a non-empty"),
            # iterated the characters and ran 2 and 4 classes
            ("rmse-vs-classes", {"n_classes": "24"}, "sweep.n_classes: a non-empty"),
            # failed only mid-run, after earlier values had run
            ("rmse-vs-samples", {"n_samples": [20, 0]}, "sweep.n_samples: a non-empty"),
            ("rmse-vs-objects", {"n_objects": [2, 0]}, "sweep.n_objects: a non-empty"),
        ],
        ids=["sweep-not-object", "n_classes-zero", "n_classes-float", "n_classes-empty",
             "n_classes-string", "n_samples-zero", "n_objects-zero"],
    )
    def test_invalid_sweep(self, kind, sweep, message):
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig.from_dict(self.base(kind=kind, sweep=sweep))

    def test_config_must_be_an_object(self):
        with pytest.raises(ConfigError, match="config must be an object, got list"):
            ExperimentConfig.from_dict([1, 2])

    def test_not_enough_scenario_actions(self):
        # oracle_small ships 8 actions; each n_steps + eval_horizon exceeds
        # them, on every estimation kind
        for over in (
            {"n_steps": 6, "eval_horizon": 3},
            {"kind": "rmse-vs-classes", "sweep": {"n_classes": [2]},
             "n_steps": 4, "eval_horizon": 6},
            {"kind": "rmse-vs-objects", "sweep": {"n_objects": [2]}, "n_steps": 20},
        ):
            with pytest.raises(ConfigError, match="n_steps"):
                ExperimentConfig.from_dict(self.base(**over))

    def test_from_json_errors(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config"):
            ExperimentConfig.from_json(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError, match="cannot read config"):
            ExperimentConfig.from_json(bad)


class TestResizeScenario:
    def test_class_resize_refreshes_scales_and_radii(self, defaults_scenario):
        sc = resize_scenario(defaults_scenario, n_classes=6)
        assert sc.n_classes == 6
        assert_allclose(sc.alphas, default_alphas(6))
        r = defaults_scenario.unsafe_radius
        assert_allclose(sc.unsafe_radius, np.linspace(r.min(), r.max(), 6))
        assert sc.class_prior.shape == (defaults_scenario.n_objects, 6)
        assert_allclose(sc.class_prior, 1.0 / 6.0)
        assert sc.sigma2_obs == defaults_scenario.sigma2_obs

    def test_object_growth_adds_circle_objects(self, defaults_scenario):
        sc = resize_scenario(defaults_scenario, n_objects=5)
        assert sc.n_objects == 5
        assert_allclose(
            sc.object_prior_means[:2], defaults_scenario.object_prior_means
        )
        (x0, x1), (y0, y1) = defaults_scenario.workspace
        center = np.array([(x0 + x1) / 2, (y0 + y1) / 2])
        radius = 0.35 * min(x1 - x0, y1 - y0)
        dists = np.linalg.norm(sc.object_prior_means[2:] - center, axis=1)
        assert_allclose(dists, radius, rtol=1e-12)
        assert sc.class_prior.shape == (5, defaults_scenario.n_classes)

    def test_object_shrink_truncates(self, defaults_scenario):
        sc = resize_scenario(defaults_scenario, n_objects=1)
        assert sc.n_objects == 1
        assert_allclose(sc.object_prior_means, defaults_scenario.object_prior_means[:1])

    def test_noop_preserves_everything(self, defaults_scenario):
        assert resize_scenario(defaults_scenario).to_dict() == defaults_scenario.to_dict()


TINY = dict(
    kind="psafe-vs-time",
    scenario="oracle_small",
    methods=["mcmc-ours", "gs-map"],
    trials=2,
    n_steps=2,
    eval_horizon=2,
    n_samples=40,
    reference_samples=2_000,
    seed=9,
)

TAGS = f"a non-empty list of tags from {list(METHOD_TAGS)}"
PLAN_TINY = dict(
    kind="planning-table",
    scenario=dict(
        n_objects=1,
        n_classes=1,
        robot_prior_mean=[0.0, 0.0],
        robot_prior_cov=[[0.01, 0.0], [0.0, 0.01]],
        object_prior_means=[[4.0, 5.0]],
        object_prior_covs=[[0.05, 0.0], [0.0, 0.05]],
        class_prior=[[1.0]],
        sigma2_obs=1.0,
        sigma2_x=0.001,
        alphas=[1.0],
        unsafe_radius=[0.0],
        goal=[8.0, 8.0],
        opening_actions=[],
        workspace=[[-2.0, 10.0], [-2.0, 10.0]],
    ),
    methods=["gs-map"],
    trials=2,
    n_samples=50,
    seed=4,
    planner={"n_nodes": 30, "k_nearest": 6, "n_candidates": 5, "max_steps": 25},
)


class TestRunExperiment:
    def test_psafe_rows_and_summary(self, tmp_path):
        cfg = ExperimentConfig.from_dict(TINY)
        summary = run_experiment(cfg, tmp_path)
        assert summary["kind"] == "psafe-vs-time"
        assert set(summary["stream_hashes"]) == {"0", "1"}
        with open(summary["files"]["rows"], newline="") as fh:
            rows = list(csv.reader(fh))
        assert tuple(rows[0]) == METRIC_COLUMNS
        # trials x steps x methods data rows, estimates in [0, 1]
        # up to weighted-mean roundoff
        assert len(rows) - 1 == 2 * 2 * 2
        for row in rows[1:]:
            assert -1e-12 <= float(row[3]) <= 1.0 + 1e-12
            assert -1e-12 <= float(row[4]) <= 1.0 + 1e-12
        with open(summary["files"]["summary"]) as fh:
            assert json.load(fh)["kind"] == "psafe-vs-time"

    def test_psafe_rerun_is_deterministic(self, tmp_path):
        cfg = ExperimentConfig.from_dict(TINY)
        s1 = run_experiment(cfg, tmp_path / "a")
        s2 = run_experiment(ExperimentConfig.from_dict(TINY), tmp_path / "b")
        assert s1["stream_hashes"] == s2["stream_hashes"]
        read = lambda s: [
            r[:7] for r in csv.reader(open(s["files"]["rows"], newline=""))
        ]
        # identical apart from wall-clock columns
        a, b = read(s1), read(s2)
        for ra, rb in zip(a, b):
            assert ra[:6] == rb[:6]

    def test_sample_sweep_reports_slopes(self, tmp_path):
        cfg = ExperimentConfig.from_dict(
            dict(
                TINY,
                kind="rmse-vs-samples",
                methods=["snis-ours"],
                sweep={"n_samples": [20, 80]},
            )
        )
        summary = run_experiment(cfg, tmp_path)
        assert "snis-ours" in summary["loglog_slopes"]
        groups = [k for k in summary["groups"] if "sweep=20" in k]
        assert groups

    def test_sample_sweep_at_the_prior(self, tmp_path):
        """n_steps 0 queries methods that saw no update, the particle
        filter included."""
        cfg = ExperimentConfig.from_dict(
            dict(
                TINY,
                kind="rmse-vs-samples",
                methods=["pf-all-hyp"],
                trials=1,
                n_steps=0,
                n_particles=64,
                sweep={"n_samples": [20, 40]},
            )
        )
        summary = run_experiment(cfg, tmp_path)
        with open(summary["files"]["rows"], newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [(r[1], r[2], r[8]) for r in rows] == [
            ("0", "pf-all-hyp", "20"),
            ("0", "pf-all-hyp", "40"),
        ]
        for row in rows:
            assert -1e-12 <= float(row[3]) <= 1.0 + 1e-12

    def test_n_particles_reaches_the_filter_on_both_paths(self, tmp_path, monkeypatch):
        """A config's top-level n_particles sizes the pf-* filter in the
        estimation trials and in the planning trials."""
        sizes = []
        build = HypothesisParticleFilter.from_scenario.__func__

        def recorded(cls, scenario, rng, n_particles):
            sizes.append(n_particles)
            return build(cls, scenario, rng, n_particles)

        monkeypatch.setattr(HypothesisParticleFilter, "from_scenario", classmethod(recorded))
        for over in (
            {"methods": ["pf-pruned"], "trials": 1},
            {"kind": "planning-table", "methods": ["pf-all-hyp"], "trials": 1,
             "planner": {"n_nodes": 30, "n_candidates": 2, "max_steps": 2}},
        ):
            sizes.clear()
            cfg = ExperimentConfig.from_dict(dict(TINY, n_particles=7, **over))
            run_experiment(cfg, tmp_path / cfg.kind)
            assert sizes == [7], cfg.kind

    def test_class_sweep_resizes(self, tmp_path):
        cfg = ExperimentConfig.from_dict(
            dict(
                TINY,
                kind="rmse-vs-classes",
                methods=["mcmc-ours"],
                trials=1,
                sweep={"n_classes": [2, 3]},
            )
        )
        summary = run_experiment(cfg, tmp_path)
        assert set(summary["stream_hashes"]) == {"2", "3"}

    def test_object_sweep_rows(self, tmp_path):
        cfg = ExperimentConfig.from_dict(
            dict(
                TINY,
                kind="rmse-vs-objects",
                trials=1,
                sweep={"n_objects": [1, 2]},
            )
        )
        summary = run_experiment(cfg, tmp_path)
        assert set(summary["stream_hashes"]) == {"1", "2"}
        assert all(set(h) == {"0"} for h in summary["stream_hashes"].values())
        with open(summary["files"]["rows"], newline="") as fh:
            rows = list(csv.DictReader(fh))
        # one row per (value, method), all queried after the last step
        assert [(r["sweep_value"], r["method"]) for r in rows] == [
            ("1", "mcmc-ours"),
            ("1", "gs-map"),
            ("2", "mcmc-ours"),
            ("2", "gs-map"),
        ]
        assert all(r["time_step"] == str(cfg.n_steps) for r in rows)

    def test_planning_table_run(self, tmp_path):
        cfg = ExperimentConfig.from_dict(PLAN_TINY)
        summary = run_experiment(cfg, tmp_path)
        stats = summary["planning"]["gs-map"]
        assert stats["trials"] == 2
        assert stats["safe_rate"] == 1.0 and stats["reach_rate"] == 1.0
        with open(summary["files"]["rows"], newline="") as fh:
            rows = list(csv.reader(fh))
        assert tuple(rows[0]) == PLANNING_COLUMNS
        assert len(rows) - 1 == 2

    @pytest.mark.parametrize("config", [TINY, PLAN_TINY], ids=["psafe-vs-time", "planning-table"])
    def test_summary_echoes_config_fields_but_scenario(self, tmp_path, config):
        cfg = ExperimentConfig.from_dict(dict(config, trials=1))
        summary = run_experiment(cfg, tmp_path)
        with open(summary["files"]["summary"]) as fh:
            echoed = json.load(fh)["config"]
        names = [f.name for f in fields(ExperimentConfig) if f.name != "scenario"]
        assert list(echoed) == names
        expected = {name: getattr(cfg, name) for name in names}
        assert echoed == json.loads(json.dumps(expected))
        assert echoed["workers"] == 1 and echoed["methods"] == config["methods"]


SLEEP_S = 0.05


class SleepyMethod:
    """A timed method whose update takes SLEEP_S and whose query is instant."""

    tag = "gs-map"

    def update(self, action, batch, rng=None):
        time.sleep(SLEEP_S)

    def estimate(self, plan, n_samples, rng):
        return {"p_safe": SimpleNamespace(value=0.5)}


class TestWallMs:
    """A row's wall_ms is its query alone, plus the method's summed update
    time only where the sweep resizes the scenario."""

    @pytest.mark.parametrize(
        "over, counts_updates",
        [
            ({}, False),
            ({"kind": "rmse-vs-samples", "sweep": {"n_samples": [20, 40]}}, False),
            ({"kind": "rmse-vs-classes", "sweep": {"n_classes": [2, 3]}}, True),
            ({"kind": "rmse-vs-objects", "sweep": {"n_objects": [1, 2]}}, True),
        ],
        ids=["psafe-vs-time", "rmse-vs-samples", "rmse-vs-classes", "rmse-vs-objects"],
    )
    def test_update_time_counts_only_on_resized_scenarios(
        self, tmp_path, monkeypatch, over, counts_updates
    ):
        def create(tag, scenario, n_particles=500):
            # the untimed reference is built apart and stays real
            return SleepyMethod()

        monkeypatch.setattr(harness_mod, "create_method", create)
        cfg = ExperimentConfig.from_dict(dict(TINY, methods=["gs-map"], trials=1, **over))
        summary = run_experiment(cfg, tmp_path)
        with open(summary["files"]["rows"], newline="") as fh:
            walls = [float(r["wall_ms"]) for r in csv.DictReader(fh)]
        assert walls
        if counts_updates:
            assert min(walls) >= cfg.n_steps * SLEEP_S * 1e3
        else:
            assert max(walls) < SLEEP_S * 1e3


class TestSharedReference:
    """The untimed reference adopts the timed all-hypothesis belief instead
    of building its own copy; its values must not change by that, and it
    must never follow a pruned belief."""

    def reference_column(self, tmp_path, methods, **over) -> list:
        cfg = ExperimentConfig.from_dict(dict(TINY, methods=methods, **over))
        summary = run_experiment(cfg, tmp_path / "-".join(methods))
        with open(summary["files"]["rows"], newline="") as fh:
            rows = list(csv.DictReader(fh))
        return [
            (r["trial"], r["time_step"], r["sweep_value"], r["reference_value"])
            for r in rows
            if r["method"] == "mcmc-ours"
        ]

    @pytest.mark.parametrize(
        "over, n_rows",
        [
            ({}, 4),
            ({"kind": "rmse-vs-classes", "trials": 1, "sweep": {"n_classes": [2, 3]}}, 2),
        ],
        ids=["psafe-vs-time", "rmse-vs-classes"],
    )
    def test_reference_values_do_not_depend_on_the_timed_methods(
        self, tmp_path, over, n_rows
    ):
        own = self.reference_column(tmp_path, ["mcmc-ours"], **over)
        assert len(own) == n_rows
        for timed in ("theoretical-all-hyp", "theoretical-pruned"):
            assert self.reference_column(tmp_path, ["mcmc-ours", timed], **over) == own

    @pytest.mark.parametrize(
        "timed, per_step", [("theoretical-all-hyp", 1), ("theoretical-pruned", 2)]
    )
    def test_exact_updates_per_step(self, tmp_path, monkeypatch, timed, per_step):
        """With the all-hypothesis method in the trial the exact belief is
        updated once per step; a pruned one is never followed, so the
        reference then updates its own."""
        steps = []
        update = AnalyticHybridBelief.update

        def counted(belief, action, batch):
            steps.append(batch.t)
            return update(belief, action, batch)

        monkeypatch.setattr(AnalyticHybridBelief, "update", counted)
        cfg = ExperimentConfig.from_dict(dict(TINY, methods=["mcmc-ours", timed]))
        run_experiment(cfg, tmp_path)
        assert len(steps) == per_step * cfg.n_steps * cfg.trials

    def test_reference_computes_no_cost(self, tmp_path, monkeypatch):
        """Calls to expected_cost made inside the reference's estimate are
        told from those of the timed rows: the reference makes none, and
        every timed row still pays for its own cost."""
        calls = {"reference": 0, "timed": 0}
        inside = []
        cost, ref_estimate = methods_mod.expected_cost, ExactReference.estimate

        def counted(*args):
            calls["reference" if inside else "timed"] += 1
            return cost(*args)

        def marked(method, *args):
            inside.append(method)
            try:
                return ref_estimate(method, *args)
            finally:
                inside.pop()

        monkeypatch.setattr(methods_mod, "expected_cost", counted)
        monkeypatch.setattr(ExactReference, "estimate", marked)
        methods = ["mcmc-ours", "theoretical-all-hyp", "pf-pruned", "gs-map"]
        cfg = ExperimentConfig.from_dict(dict(TINY, methods=methods))
        summary = run_experiment(cfg, tmp_path)
        with open(summary["files"]["rows"], newline="") as fh:
            n_rows = len(list(csv.DictReader(fh)))
        assert n_rows == len(methods) * cfg.trials * cfg.n_steps
        assert calls == {"reference": 0, "timed": n_rows}

    def test_reference_refuses_a_stale_belief(self, oracle_small):
        streams = trial_streams(5, 0)
        _, history = simulate(oracle_small, 2, streams.world, streams.noise)
        timed = create_method("theoretical-all-hyp", oracle_small)
        reference = ExactReference(oracle_small, follow=timed)
        action, batch = history.actions[0], history.batches[0]
        with pytest.raises(RuntimeError, match="update it before the reference"):
            reference.update(action, batch)
        timed.update(action, batch)
        reference.update(action, batch)
        assert reference.exact is timed.belief and reference.k == 1

    def test_timed_prior_query_fills_its_own_memos(self, tmp_path, monkeypatch):
        """At n_steps 0 the reference queries before the timed rows; it must
        not fill the memos of the timed method's step-0 belief, or that
        method's wall_ms would leave out work it pays for on its own."""
        seen = []
        estimate = _Method.estimate

        def recorded(method, plan, n_samples, rng, threshold=0.0):
            if method.tag == "theoretical-all-hyp":
                seen.append(method.belief._log_w is None)
            return estimate(method, plan, n_samples, rng, threshold)

        monkeypatch.setattr(_Method, "estimate", recorded)
        cfg = ExperimentConfig.from_dict(
            dict(
                TINY,
                kind="rmse-vs-samples",
                methods=["theoretical-all-hyp"],
                trials=1,
                n_steps=0,
                sweep={"n_samples": [20]},
            )
        )
        run_experiment(cfg, tmp_path)
        assert seen == [True]


class TestCli:
    def test_missing_config_file(self, capsys):
        assert main(["simulate", "--config", "/nonexistent.json"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_non_integer_field_is_a_config_error(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict(TINY, trials=1.5)))
        assert main(["simulate", "--config", str(path)]) == 2
        assert "trials must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("out", [5, None, [], {}])
    def test_non_string_out_is_a_config_error(self, out, tmp_path, capsys):
        """Path() used to raise a TypeError inside run_experiment (exit 1)."""
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict(TINY, out=out)))
        assert main(["simulate", "--config", str(path)]) == 2
        assert f"out must be a string, got {out!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("out", ["taken", "a\x00b", "\ud800"], ids=["file", "nul", "surrogate"])
    def test_out_directory_that_cannot_be_made_exits_2(self, out, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "taken").write_text("")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict(TINY, out=out)))
        assert main(["simulate", "--config", str(path)]) == 2
        assert "cannot create out directory" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["simulate", "oracle-check"])
    def test_non_object_config_exits_2(self, verb, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli_mod, "run_oracle_checks", lambda scenario, seed=0: (True, []))
        path = tmp_path / "cfg.json"
        path.write_text("[1, 2]")
        assert main([verb, "--config", str(path)]) == 2
        assert "config must be an object" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [("{bad", "cannot read scenario"), ("[1, 2]", "scenario must be an object, got list")],
        ids=["unparsable", "list"],
    )
    def test_broken_scenario_file_exits_2(self, text, message, tmp_path, capsys):
        (tmp_path / "bad.json").write_text(text)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict(TINY, scenario=str(tmp_path / "bad.json"))))
        assert main(["simulate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert message in err and "cannot read config" not in err

    @pytest.mark.parametrize("verb", ["simulate", "oracle-check"])
    def test_non_utf8_files_exit_2(self, verb, tmp_path, capsys, monkeypatch):
        """Both used to escape as a UnicodeDecodeError (exit 1)."""
        monkeypatch.setattr(cli_mod, "run_oracle_checks", lambda scenario, seed=0: (True, []))
        (tmp_path / "bad.json").write_bytes(b"\xff\xfe{")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict(TINY, scenario=str(tmp_path / "bad.json"))))
        assert main([verb, "--config", str(tmp_path / "bad.json")]) == 2
        assert main([verb, "--config", str(path)]) == 2
        assert "cannot read scenario" in capsys.readouterr().err

    def test_oracle_check_takes_no_methods(self, monkeypatch, capsys):
        """oracle-check runs every check; it has no --methods to ignore."""
        monkeypatch.setattr(cli_mod, "run_oracle_checks", lambda scenario, seed=0: (True, []))
        with pytest.raises(SystemExit) as exc:
            main(["oracle-check", "--methods", "gs-map"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --methods" in capsys.readouterr().err

    def test_kind_verb_mismatch(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(TINY))
        assert main(["plan", "--config", str(path)]) == 2
        assert "verb expects kind" in capsys.readouterr().err

    def test_methods_override_must_be_subset(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(TINY))
        assert main(["simulate", "--config", str(path), "--methods", "pf-pruned"]) == 2
        assert "not present" in capsys.readouterr().err

    def test_methods_override_must_not_repeat(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(TINY))
        argv = ["simulate", "--config", str(path), "--out", str(tmp_path / "res")]
        assert main(argv + ["--methods", "gs-map,gs-map"]) == 2
        assert "more than once" in capsys.readouterr().err
        assert not (tmp_path / "res").exists()

    def test_simulate_happy_path(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict(TINY, trials=1, methods=["gs-map"])))
        code = main(
            ["simulate", "--config", str(path), "--out", str(tmp_path / "res")]
        )
        assert code == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["kind"] == "psafe-vs-time"
        assert (tmp_path / "res").is_dir()

    def test_oracle_check_exit_codes(self, tmp_path, monkeypatch):
        calls = {}

        def fake_checks(scenario, seed=0):
            calls["seed"] = seed
            return True, []

        monkeypatch.setattr(cli_mod, "run_oracle_checks", fake_checks)
        assert main(["oracle-check", "--seed", "5", "--out", str(tmp_path)]) == 0
        assert calls["seed"] == 5
        assert (tmp_path / "oracle_check.json").is_file()
        monkeypatch.setattr(
            cli_mod, "run_oracle_checks", lambda scenario, seed=0: (False, [])
        )
        assert main(["oracle-check"]) == 3

    @pytest.mark.parametrize("verb", ["simulate", "oracle-check"])
    def test_directory_as_config_exits_2(self, verb, tmp_path, capsys, monkeypatch):
        """oracle-check used to escape as an IsADirectoryError (exit 1)."""
        monkeypatch.setattr(cli_mod, "run_oracle_checks", lambda scenario, seed=0: (True, []))
        assert main([verb, "--config", str(tmp_path)]) == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_oracle_check_out_that_cannot_be_made_exits_2(self, tmp_path, capsys, monkeypatch):
        """The out directory is made before any check runs; a path under a
        file used to raise NotADirectoryError after all of them (exit 1)."""
        ran = []
        monkeypatch.setattr(
            cli_mod, "run_oracle_checks", lambda scenario, seed=0: ran.append(1) or (True, [])
        )
        (tmp_path / "taken").write_text("")
        assert main(["oracle-check", "--out", str(tmp_path / "taken" / "sub")]) == 2
        assert "cannot create out directory" in capsys.readouterr().err
        assert ran == []

    def test_oracle_check_negative_seed_exits_2(self, capsys):
        """The checks' random streams take only non-negative seeds."""
        assert main(["oracle-check", "--seed", "-1"]) == 2
        assert "seed must be an integer >= 0, got -1" in capsys.readouterr().err

    @pytest.mark.skipif(
        shutil.which("semgeo") is None,
        reason="needs the semgeo console script on PATH "
        "(pip install -e . --no-build-isolation)",
    )
    def test_console_script_is_installed(self, child_env):
        proc = subprocess.run(
            ["semgeo", "plan", "--config", "/nonexistent.json"],
            capture_output=True,
            text=True,
            env=child_env,
        )
        assert proc.returncode == 2
        assert "error:" in proc.stderr

    def test_console_script_target(self, child_env):
        """The declared entry point, run the way the generated wrapper runs it."""
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).parents[1] / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
        assert scripts["semgeo"] == "semgeo.cli:main"
        wrapper = "import sys; from semgeo.cli import main; sys.exit(main())"
        proc = subprocess.run(
            [sys.executable, "-c", wrapper, "plan", "--config", "/nonexistent.json"],
            capture_output=True,
            text=True,
            env=child_env,
        )
        assert proc.returncode == 2
        assert "error:" in proc.stderr

    def test_zero_candidates_exit_2(self, tmp_path, child_env):
        """n_candidates 0 is refused as a config error before the planner
        runs (scipy's yen with K=0 corrupts the heap)."""
        path = tmp_path / "cfg.json"
        cfg = dict(TINY, kind="planning-table", trials=1, planner={"n_candidates": 0})
        path.write_text(json.dumps(cfg))
        proc = subprocess.run(
            [sys.executable, "-m", "semgeo.cli", "plan", "--config", str(path),
             "--out", str(tmp_path / "res")],
            capture_output=True,
            text=True,
            env=child_env,
        )
        assert proc.returncode == 2
        assert "planner.n_candidates must be an integer >= 1" in proc.stderr
        assert not (tmp_path / "res").exists()

    @pytest.mark.parametrize(
        "verb, over, message",
        [
            ("simulate", dict(methods=None), f"methods must be {TAGS}, got None"),
            ("simulate", dict(methods="mcmc-ours"), f"methods must be {TAGS}, got 'mcmc-ours'"),
            ("simulate", dict(scenario=WIDE), "EXACT_MAX_HYPOTHESES = 1000000, which the exact"),
            ("plan", dict(kind="planning-table", scenario=MID, methods=["pf-pruned"]),
             "PF_MAX_HYPOTHESES = 10000, which pf-pruned needs"),
            ("plan", dict(kind="planning-table", planner={"goal_radius": math.inf}),
             "planner.goal_radius must be a finite number >= 0"),
            ("plan", dict(kind="planning-table", planner={"max_step": math.inf}),
             "planner.max_step must be a finite number > 0"),
        ],
        ids=["methods-null", "methods-string", "exact-guard", "pf-guard",
             "goal-radius-inf", "max-step-inf"],
    )
    def test_config_errors_exit_2(self, verb, over, message, tmp_path, child_env):
        """Each is refused before any trial runs, with no traceback."""
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict(TINY, trials=1, **over)))  # inf as Infinity
        proc = subprocess.run(
            [sys.executable, "-m", "semgeo.cli", verb, "--config", str(path),
             "--out", str(tmp_path / "res")],
            capture_output=True,
            text=True,
            env=child_env,
        )
        assert proc.returncode == 2, proc.stderr
        assert message in proc.stderr and "Traceback" not in proc.stderr
        assert not (tmp_path / "res").exists()

    def test_module_entry_point(self, child_env):
        proc = subprocess.run(
            [sys.executable, "-m", "semgeo.cli", "--help"],
            capture_output=True,
            text=True,
            env=child_env,
        )
        assert proc.returncode == 0
        assert "simulate" in proc.stdout and "oracle-check" in proc.stdout
