"""Experiment configs, scenario resolution, resizing, runs, emission, CLI.

Full experiment runs here are deliberately tiny (a couple of trials at small
sample counts); statistical quality is the acceptance suite's job.  These
tests pin the contracts: config validation errors, file schemas, determinism,
and CLI exit codes.
"""

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import semgeo.cli as cli_mod
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
from semgeo.scenario import Scenario, default_alphas


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
        with pytest.raises(ConfigError, match="unknown methods"):
            ExperimentConfig.from_dict(self.base(methods=["mcmc-ours", "magic"]))

    def test_unknown_field(self):
        with pytest.raises(ConfigError, match="bad config field"):
            ExperimentConfig.from_dict(self.base(n_sample=10))

    @pytest.mark.parametrize("key", ["bogus", "n_samples", "method_options"])
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

    def test_every_settable_planner_field_parses(self):
        planner = {
            "n_nodes": 40,
            "k_nearest": 6,
            "n_candidates": 200,
            "max_step": 1.0,
            "safety_threshold": 0.95,
            "goal_radius": 1.0,
            "max_steps": 40,
            "replan_every": 0,
        }
        cfg = ExperimentConfig.from_dict(
            self.base(kind="planning-table", planner=planner)
        )
        assert cfg.planner == planner

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

    def test_sweep_required_per_kind(self):
        for kind, key in [
            ("rmse-vs-samples", "n_samples"),
            ("rmse-vs-classes", "n_classes"),
            ("rmse-vs-objects", "n_objects"),
        ]:
            with pytest.raises(ConfigError, match=f"sweep.{key}"):
                ExperimentConfig.from_dict(self.base(kind=kind))

    def test_not_enough_scenario_actions(self):
        # oracle_small ships 8 actions; 6 + 3 exceeds them
        with pytest.raises(ConfigError, match="n_steps"):
            ExperimentConfig.from_dict(self.base(n_steps=6, eval_horizon=3))

    def test_method_options_route_particle_counts(self):
        cfg = ExperimentConfig.from_dict(self.base(n_particles=77))
        assert cfg.method_options("pf-pruned") == {"n_particles": 77}
        assert cfg.method_options("mcmc-ours") == {}

    def test_from_json_errors(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config"):
            ExperimentConfig.from_json(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError, match="cannot read config"):
            ExperimentConfig.from_json(bad)

    def test_echo_embeds_scenario_dict(self):
        cfg = ExperimentConfig.from_dict(self.base())
        echoed = cfg.echo()
        assert echoed["scenario"]["n_objects"] == 2


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

    def test_planning_table_run(self, tmp_path):
        scenario = dict(
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
        )
        cfg = ExperimentConfig.from_dict(
            dict(
                kind="planning-table",
                scenario=scenario,
                methods=["gs-map"],
                trials=2,
                n_samples=50,
                seed=4,
                planner={"n_nodes": 30, "k_nearest": 6, "n_candidates": 5, "max_steps": 25},
            )
        )
        summary = run_experiment(cfg, tmp_path)
        stats = summary["planning"]["gs-map"]
        assert stats["trials"] == 2
        assert stats["safe_rate"] == 1.0 and stats["reach_rate"] == 1.0
        with open(summary["files"]["rows"], newline="") as fh:
            rows = list(csv.reader(fh))
        assert tuple(rows[0]) == PLANNING_COLUMNS
        assert len(rows) - 1 == 2


class TestCli:
    def test_missing_config_file(self, capsys):
        assert main(["simulate", "--config", "/nonexistent.json"]) == 2
        assert "error:" in capsys.readouterr().err

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

    def test_module_entry_point(self, child_env):
        proc = subprocess.run(
            [sys.executable, "-m", "semgeo.cli", "--help"],
            capture_output=True,
            text=True,
            env=child_env,
        )
        assert proc.returncode == 0
        assert "simulate" in proc.stdout and "oracle-check" in proc.stdout
