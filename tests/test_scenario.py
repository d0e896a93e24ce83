"""Generative model: validation, serialization, RNG streams."""

import json
from importlib.resources import files

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semgeo.cli import main
from semgeo.harness import load_scenario
from semgeo.scenario import (
    MAX_ALPHA,
    MAX_LENGTH,
    MAX_VARIANCE,
    MIN_VARIANCE,
    Scenario,
    ScenarioError,
    default_alphas,
    observe,
    sample_world,
    simulate,
    step_transition,
    trial_streams,
)


def tiny_scenario(**overrides):
    base = dict(
        n_objects=2,
        n_classes=3,
        robot_prior_mean=[0.0, 0.0],
        robot_prior_cov=[[0.1, 0.0], [0.0, 0.1]],
        object_prior_means=[[2.0, 1.0], [1.0, 3.0]],
        object_prior_covs=[[1.0, 0.0], [0.0, 1.0]],
        class_prior=[1 / 3, 1 / 3, 1 / 3],
    )
    base.update(overrides)
    return Scenario(**base)


class TestValidation:
    def test_broadcast_shortcuts(self):
        """A single cov / prior row is tiled across objects."""
        s = tiny_scenario()
        assert s.object_prior_covs.shape == (2, 2, 2)
        assert s.class_prior.shape == (2, 3)
        np.testing.assert_allclose(s.class_prior.sum(axis=1), 1.0)

    def test_rejects_bad_class_prior(self):
        with pytest.raises(ScenarioError):
            tiny_scenario(class_prior=[0.5, 0.5, 0.5])
        with pytest.raises(ScenarioError):
            tiny_scenario(class_prior=[-0.2, 0.6, 0.6])

    def test_rejects_nonpositive_noise(self):
        with pytest.raises(ScenarioError):
            tiny_scenario(sigma2_obs=0.0)
        with pytest.raises(ScenarioError):
            tiny_scenario(sigma2_x=-1.0)

    def test_rejects_asymmetric_cov(self):
        with pytest.raises(ScenarioError):
            tiny_scenario(robot_prior_cov=[[0.1, 0.5], [0.0, 0.1]])

    def test_rejects_negative_radius(self):
        with pytest.raises(ScenarioError):
            tiny_scenario(unsafe_radius=[0.0, -1.0, 2.0])

    @pytest.mark.parametrize(
        "workspace",
        [[[0, 10]], [[5, 1], [0, 10]], [[0, 0], [0, 10]], "ab", 5,
         [[0, float("nan")], [0, 10]], [[0, float("inf")], [0, 10]], [["0", "1"], [0, 10]],
         [[False, True], [0, 10]]],
        ids=["one-pair", "inverted", "empty", "string", "scalar", "nan", "inf", "text", "bool"],
    )
    def test_rejects_bad_workspace(self, workspace):
        with pytest.raises(ScenarioError, match="workspace must be two"):
            tiny_scenario(workspace=workspace)
        with pytest.raises(ScenarioError, match="workspace must be two"):
            Scenario.from_dict(dict(tiny_scenario().to_dict(), workspace=workspace))

    def test_workspace_is_stored_as_given(self):
        s = Scenario.from_dict(dict(tiny_scenario().to_dict(), workspace=[[0, 10], [-1.5, 3]]))
        assert s.to_dict()["workspace"] == [[0, 10], [-1.5, 3]]

    @pytest.mark.parametrize(
        "overrides",
        [
            {"actions": [[1, 2, 3], [4, 5, 6]]},
            {"actions": [[0.5, float("nan")]]},
            {"opening_actions": [[1, 2, 3]]},
            {"goal": [1.0, 2.0, 3.0]},
            {"goal": [float("nan"), 1.0]},
            {"robot_prior_mean": [0.0, 0.0, 0.0]},
            {"alphas": [1.0, 1.0]},
            {"alphas": [float("nan"), 1.0, 1.0]},
            {"unsafe_radius": [float("nan"), 1.0, 1.0]},
            {"unsafe_radius": [0.0, 1.0]},
            {"object_prior_means": [[float("nan"), 1.0], [1.0, 3.0]]},
            {"sigma2_x": float("inf")},
            {"sigma2_obs": float("nan")},
            {"sigma2_obs": True},
            {"n_objects": True, "object_prior_means": [[2.0, 1.0]]},
            {"n_classes": True, "class_prior": [1.0]},
            {"n_objects": 2.0},
            {"goal": ["1", "2"]},
            {"alphas": [True, 1.0, 1.0]},
            {"actions": [[0.5, False]]},
            {"robot_prior_cov": [["1", 0], [0, 1]]},
            {"robot_prior_cov": True},
            {"object_prior_covs": [[True, 0], [0, 1]]},
            {"object_prior_covs": [[1, 0], [0, float("inf")]]},
            {"class_prior": ["0.5", "0.25", "0.25"]},
            {"class_prior": [[True, False, False], [1, 0, 0]]},
        ],
        ids=["actions-triples", "actions-nan", "opening-triple", "goal-3", "goal-nan",
             "robot-mean-3", "alphas-2", "alphas-nan", "radius-nan", "radius-2", "means-nan",
             "sigma2-x-inf", "sigma2-obs-nan", "sigma2-obs-bool", "n-objects-bool",
             "n-classes-bool", "n-objects-float", "goal-strings", "alphas-bool",
             "actions-bool", "robot-cov-string", "robot-cov-bool", "object-cov-bool",
             "object-cov-inf", "class-prior-strings", "class-prior-bools"],
    )
    def test_rejects_malformed_numbers(self, overrides):
        with pytest.raises(ScenarioError):
            tiny_scenario(**overrides)
        with pytest.raises(ScenarioError):
            Scenario.from_dict(dict(tiny_scenario().to_dict(), **overrides))

    def test_nan_covariance_is_reported_as_not_finite(self):
        with pytest.raises(ScenarioError, match="robot_prior_cov must be finite"):
            tiny_scenario(robot_prior_cov=[[float("nan"), 0], [0, 1]])

    def test_empty_actions_are_kept(self):
        s = tiny_scenario(opening_actions=[])
        assert s.opening_actions.shape == (0, 2) and s.actions.shape == (0, 2)
        assert s.to_dict()["actions"] == []

    def test_from_dict_rejects_a_non_object(self):
        with pytest.raises(ScenarioError, match="scenario must be an object, got list"):
            Scenario.from_dict([1, 2])

    def test_default_alphas_bracket_unity(self):
        np.testing.assert_allclose(default_alphas(2), [0.95, 1.05])
        a = default_alphas(5)
        assert a[0] == 0.95 and a[-1] == 1.05
        np.testing.assert_allclose(np.diff(a), np.diff(a)[0])


ORACLE = load_scenario("oracle_small").to_dict()


def scaled(field, x):
    """oracle_small's `field` with every entry x: a workspace spans [-x, x]
    on both axes, and a covariance is x times the identity."""
    if field == "workspace":
        return [[-x, x], [-x, x]]
    if field.startswith("sigma2"):
        return x
    base = np.asarray(ORACLE[field], dtype=float)
    if field.endswith(("_cov", "_covs")):
        return (np.eye(2) * np.ones(base.shape) * x).tolist()
    return np.full(base.shape, x).tolist()


LENGTHS = ["robot_prior_mean", "object_prior_means", "goal", "actions", "opening_actions"]
VARIANCES = ["sigma2_obs", "sigma2_x", "robot_prior_cov", "object_prior_covs"]
# (field, the value at one bound of its rule); np.nextafter away from the
# valid range gives the value just past it
BOUNDS = (
    [(f, x) for f in LENGTHS for x in (MAX_LENGTH, -MAX_LENGTH)]
    + [("workspace", MAX_LENGTH), ("unsafe_radius", MAX_LENGTH)]
    + [("alphas", MAX_ALPHA), ("alphas", -MAX_ALPHA)]
    + [(f, x) for f in VARIANCES for x in (MIN_VARIANCE, MAX_VARIANCE)]
)


def past(x):
    return np.nextafter(x, 0.0 if x == MIN_VARIANCE else np.sign(x) * np.inf)


class TestScaleBounds:
    """Each field alone at a bound of its scale rule runs; just past it the
    scenario is refused.  Past these magnitudes a run used to exit 1: means
    at 1e300 with NaN class weights, alphas at 1e12 or sigma2_obs at 1e-16
    with a singular precision, a covariance at 1e-320 inside the solver."""

    @pytest.mark.parametrize("field, x", BOUNDS)
    def test_at_the_bound_a_run_exits_0(self, field, x, tmp_path):
        scenario = dict(ORACLE, **{field: scaled(field, x)})
        Scenario.from_dict(scenario)
        cfg = dict(
            kind="psafe-vs-time", scenario=scenario, trials=2, n_steps=3, eval_horizon=2,
            methods=["mcmc-ours", "snis-ours", "theoretical-all-hyp", "theoretical-pruned",
                     "gs-map", "pf-pruned"],
            n_samples=40, reference_samples=2000, n_particles=100, seed=9,
        )
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "res")]) == 0

    @pytest.mark.parametrize("field, x", BOUNDS)
    def test_just_past_the_bound_is_refused(self, field, x):
        with pytest.raises(ScenarioError, match=f"^{field} must be"):
            Scenario.from_dict(dict(ORACLE, **{field: scaled(field, past(x))}))

    @pytest.mark.parametrize("name", ["defaults", "planning", "oracle_small"])
    def test_shipped_scenarios_store_their_file_values(self, name):
        raw = json.loads((files("semgeo") / f"scenarios/{name}.json").read_text())
        stored = load_scenario(name).to_dict()
        assert {key: stored[key] for key in raw} == raw


class TestSerialization:
    def test_dict_roundtrip(self, oracle_small):
        back = Scenario.from_dict(oracle_small.to_dict())
        np.testing.assert_array_equal(back.alphas, oracle_small.alphas)
        np.testing.assert_array_equal(back.class_prior, oracle_small.class_prior)
        np.testing.assert_array_equal(back.actions, oracle_small.actions)
        assert back.sigma2_obs == oracle_small.sigma2_obs

    def test_shipped_defaults_keep_reference_values(self, defaults_scenario):
        """The stock scenario uses the documented noise and scale settings."""
        assert defaults_scenario.sigma2_obs == 5.0
        assert defaults_scenario.sigma2_x == 0.3
        assert defaults_scenario.alphas[0] == 0.95
        assert defaults_scenario.alphas[-1] == 1.05


class TestStreams:
    def test_trial_streams_are_reproducible(self):
        a = trial_streams(5, 3)
        b = trial_streams(5, 3)
        np.testing.assert_array_equal(
            a.world.normal(size=4), b.world.normal(size=4)
        )
        np.testing.assert_array_equal(
            a.sampler.integers(0, 100, size=6), b.sampler.integers(0, 100, size=6)
        )

    def test_trials_get_distinct_streams(self):
        a = trial_streams(5, 0).world.normal(size=8)
        b = trial_streams(5, 1).world.normal(size=8)
        assert not np.array_equal(a, b)

    def test_world_independent_of_noise_stream(self, oracle_small):
        """Redrawing trajectory noise must not disturb the sampled world."""
        s1, s2 = trial_streams(9, 0), trial_streams(9, 0)
        s2.noise = np.random.default_rng(999)
        w1, _ = simulate(oracle_small, 3, s1.world, s1.noise)
        w2, _ = simulate(oracle_small, 3, s2.world, s2.noise)
        np.testing.assert_array_equal(w1.labels, w2.labels)
        np.testing.assert_array_equal(w1.objects, w2.objects)
        assert not np.array_equal(w1.trajectory[1:], w2.trajectory[1:])


class TestSimulate:
    def test_stream_hash_is_stable(self, oracle_small):
        runs = []
        for _ in range(2):
            streams = trial_streams(11, 4)
            _, history = simulate(oracle_small, 4, streams.world, streams.noise)
            runs.append(history.stream_hash())
        assert runs[0] == runs[1]

    def test_history_indexing_contract(self, oracle_small):
        """batches[i] is taken at pose i+1, right after actions[i]."""
        streams = trial_streams(2, 0)
        world, history = simulate(oracle_small, 3, streams.world, streams.noise)
        assert len(history.actions) == 3
        assert [b.t for b in history.batches] == [1, 2, 3]
        assert world.trajectory.shape == (4, 2)

    def test_rejects_short_action_sequence(self, oracle_small):
        streams = trial_streams(2, 0)
        with pytest.raises(ScenarioError):
            simulate(oracle_small, 50, streams.world, streams.noise)

    def test_labels_are_zero_based(self, oracle_small, rng):
        drawn = np.concatenate([sample_world(oracle_small, rng).labels for _ in range(40)])
        assert drawn.dtype == np.int64
        assert set(drawn.tolist()) == set(range(oracle_small.n_classes))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_observation_means_are_unbiased(self, seed):
        """Averaged over noise, z_g centers on the offset and z_s on its scaling."""
        s = tiny_scenario(sigma2_obs=0.5)
        rng = np.random.default_rng(seed)
        world = sample_world(s, rng)
        world.trajectory = np.array([[0.0, 0.0]])
        batches = [observe(s, world, 0, rng) for _ in range(400)]
        geo = np.mean([b.geometric for b in batches], axis=0)
        sem = np.mean([b.semantic for b in batches], axis=0)
        rel = world.objects - world.trajectory[0]
        scale = s.alphas[world.labels][:, None]
        se = np.sqrt(0.5 / 400)
        assert np.all(np.abs(geo - rel) < 6 * se)
        assert np.all(np.abs(sem - scale * rel) < 6 * se)

    def test_step_transition_adds_action(self, oracle_small):
        rng = np.random.default_rng(0)
        x = np.array([1.0, 2.0])
        steps = np.array(
            [step_transition(x, [0.5, -0.5], oracle_small, rng) for _ in range(2000)]
        )
        np.testing.assert_allclose(
            steps.mean(axis=0), [1.5, 1.5], atol=5 * np.sqrt(0.3 / 2000) + 0.02
        )
