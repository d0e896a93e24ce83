"""Samplers against the closed-form mixture posterior on a 4-hypothesis case."""

import numpy as np
import pytest

import semgeo.samplers as samplers_mod
from semgeo.samplers import (
    WeightedStateSet,
    complete_hypotheses,
    log_ess,
    mh_sample,
    snis_sample,
    uniform_hypothesis_is,
)


class TestEss:
    def test_uniform_weights_give_n(self):
        assert log_ess(np.zeros(50)) == pytest.approx(50.0, rel=1e-12)
        assert log_ess(np.full(50, -3.7)) == pytest.approx(50.0, rel=1e-12)

    def test_single_surviving_weight_gives_one(self):
        lw = np.array([0.0, -800.0, -900.0])
        assert log_ess(lw) == pytest.approx(1.0, rel=1e-9)

    def test_matches_direct_formula(self, rng):
        lw = rng.normal(size=200)
        w = np.exp(lw - lw.max())
        w = w / w.sum()
        assert log_ess(lw) == pytest.approx(1.0 / np.sum(w**2), rel=1e-10)

    def test_weight_property_normalizes(self, rng):
        sset = WeightedStateSet(
            samples=rng.normal(size=(9, 4)),
            log_weights=rng.normal(size=9) + 500.0,  # large offsets must cancel
            index=None,
        )
        assert sset.weights.sum() == pytest.approx(1.0, rel=1e-12)
        assert len(sset) == 9

    def test_weights_and_ess_computed_once(self, rng, monkeypatch):
        sset = WeightedStateSet(
            samples=rng.normal(size=(9, 4)), log_weights=rng.normal(size=9), index=None
        )
        assert sset.weights is sset.weights
        assert not sset.weights.flags.writeable
        with pytest.raises(ValueError):
            sset.weights[0] = 1.0
        calls = []
        monkeypatch.setattr(samplers_mod, "log_ess", lambda lw: calls.append(lw) or log_ess(lw))
        assert sset.ess == sset.ess == log_ess(sset.log_weights)
        assert len(calls) == 1


class TestAgainstMixture:
    """The analytic route gives exact mixture moments to compare against."""

    def pose_moments(self, analytic):
        cols = analytic.index.pose_cols(analytic.k)
        mean = analytic.mixture_mean()[cols]
        return cols, mean

    def test_mh_pose_mean(self, seeded_history):
        _, _, hybrid, analytic, streams = seeded_history
        cols, exact = self.pose_moments(analytic)
        sset = mh_sample(hybrid, 4000, streams.sampler)
        est = sset.weights @ sset.samples[:, cols]
        var = sset.weights @ (sset.samples[:, cols] - est) ** 2
        se = np.sqrt(var / sset.ess)
        assert np.all(np.abs(est - exact) < 6 * se + 1e-9)

    def test_snis_pose_mean(self, seeded_history):
        _, _, hybrid, analytic, streams = seeded_history
        cols, exact = self.pose_moments(analytic)
        sset = snis_sample(hybrid, 4000, streams.sampler)
        est = sset.weights @ sset.samples[:, cols]
        var = sset.weights @ (sset.samples[:, cols] - est) ** 2
        se = np.sqrt(var / sset.ess)
        assert np.all(np.abs(est - exact) < 6 * se + 1e-9)

    def test_completed_hypothesis_frequencies(self, seeded_history):
        """Completed (X, C) pairs reproduce the exact hypothesis posterior."""
        _, _, hybrid, analytic, streams = seeded_history
        sset = snis_sample(hybrid, 6000, streams.sampler)
        pairs = complete_hypotheses(hybrid, sset, streams.sampler)
        exact = analytic.weights  # hypothesis posterior, all 4 tracked
        got = np.zeros(len(exact))
        powers = hybrid.scenario.n_classes ** np.arange(hybrid.scenario.n_objects)
        idx = pairs.labels @ powers
        np.add.at(got, idx, pairs.weights)
        se = np.sqrt(exact * (1 - exact) / pairs.ess) + 1e-9
        assert np.all(np.abs(got - exact) < 6 * se)

    def test_uniform_hypothesis_is_consistent(self, seeded_history):
        _, _, hybrid, analytic, streams = seeded_history
        sset = uniform_hypothesis_is(hybrid, 8000, streams.sampler)
        exact = analytic.weights
        got = np.zeros(len(exact))
        powers = hybrid.scenario.n_classes ** np.arange(hybrid.scenario.n_objects)
        np.add.at(got, sset.labels @ powers, sset.weights)
        se = np.sqrt(exact * (1 - exact) / max(sset.ess, 1.0)) + 1e-9
        assert np.all(np.abs(got - exact) < 6 * se)

    def test_uniform_proposal_has_lower_ess(self, seeded_history):
        """The worst-case contrast: uniform joint proposals waste samples."""
        _, _, hybrid, _, streams = seeded_history
        n = 4000
        snis = snis_sample(hybrid, n, streams.sampler)
        uni = uniform_hypothesis_is(hybrid, n, streams.sampler)
        assert uni.ess < snis.ess


class TestMechanics:
    def test_mh_sample_count_and_weights(self, seeded_history):
        _, _, hybrid, _, streams = seeded_history
        sset = mh_sample(hybrid, 123, streams.sampler)
        assert len(sset) == 123
        np.testing.assert_array_equal(sset.log_weights, 0.0)
        assert 0.0 <= sset.diagnostics["acceptance_rate"] <= 1.0

    def test_requires_positive_sample_count(self, seeded_history):
        _, _, hybrid, _, streams = seeded_history
        with pytest.raises(ValueError):
            mh_sample(hybrid, 0, streams.sampler)
        with pytest.raises(ValueError):
            snis_sample(hybrid, 0, streams.sampler)

    def test_snis_reports_ess(self, seeded_history):
        _, _, hybrid, _, streams = seeded_history
        sset = snis_sample(hybrid, 500, streams.sampler)
        assert sset.diagnostics["ess"] == pytest.approx(sset.ess)
        assert 1.0 <= sset.ess <= 500.0

    def test_stall_warning(self, seeded_history, monkeypatch):
        _, _, hybrid, _, streams = seeded_history
        monkeypatch.setattr(samplers_mod, "STALL_LIMIT", 1)
        with pytest.warns(RuntimeWarning, match="stalled"):
            sset = mh_sample(hybrid, 400, streams.sampler)
        assert sset.diagnostics["stalled"]

    def test_completion_keeps_weights(self, seeded_history):
        _, _, hybrid, _, streams = seeded_history
        sset = snis_sample(hybrid, 100, streams.sampler)
        pairs = complete_hypotheses(hybrid, sset, streams.sampler)
        np.testing.assert_array_equal(pairs.log_weights, sset.log_weights)
        assert pairs.labels.shape == (100, hybrid.scenario.n_objects)
        assert pairs.diagnostics["completion"] == "factored-conditional"

    def test_completion_starts_a_fresh_memo(self, seeded_history):
        _, _, hybrid, _, streams = seeded_history
        sset = snis_sample(hybrid, 100, streams.sampler)
        weights = sset.weights
        pairs = complete_hypotheses(hybrid, sset, streams.sampler)
        assert pairs.weights is not weights
        np.testing.assert_array_equal(pairs.weights, weights)
        assert pairs.ess == sset.ess

    def test_reproducible_given_stream(self, seeded_history):
        _, _, hybrid, _, _ = seeded_history
        a = snis_sample(hybrid, 50, np.random.default_rng(42))
        b = snis_sample(hybrid, 50, np.random.default_rng(42))
        np.testing.assert_array_equal(a.samples, b.samples)
        np.testing.assert_array_equal(a.log_weights, b.log_weights)


class TestHugeHypothesisSpace:
    # 30 binary objects: ~1.07e9 joint assignments.  Nothing here may
    # enumerate them; the samplers and the factored estimator must complete
    # a full update/estimate cycle regardless of the joint count.

    @pytest.fixture(scope="class")
    def wide_belief(self):
        from semgeo.belief import HybridBelief
        from semgeo.scenario import Scenario, simulate, trial_streams

        n = 30
        means = [[2.0 + (j % 6), -2.0 + (j // 6)] for j in range(n)]
        sc = Scenario(
            n_objects=n,
            n_classes=2,
            robot_prior_mean=[0.0, 0.0],
            robot_prior_cov=[[0.05, 0.0], [0.0, 0.05]],
            object_prior_means=means,
            object_prior_covs=[[[0.2, 0.0], [0.0, 0.2]]] * n,
            class_prior=[[0.5, 0.5]] * n,
            sigma2_obs=1.0,
            sigma2_x=0.05,
            alphas=[0.9, 1.1],
            unsafe_radius=[0.0, 0.4],
            goal=[9.0, 0.0],
            actions=[[0.6, 0.0]] * 8,
            opening_actions=[],
            workspace=[[-2.0, 10.0], [-4.0, 4.0]],
        )
        streams = trial_streams(31, 0)
        _, history = simulate(sc, 2, streams.world, streams.noise)
        belief = HybridBelief.from_scenario(sc)
        for action, batch in zip(history.actions, history.batches):
            belief = belief.update(action, batch)
        return belief

    def test_samplers_complete_without_enumeration(self, wide_belief):
        rng = np.random.default_rng(5)
        for sset in (
            mh_sample(wide_belief, 200, rng),
            complete_hypotheses(wide_belief, snis_sample(wide_belief, 200, rng), rng),
        ):
            assert len(sset) == 200
            assert np.all(np.isfinite(sset.log_weights))

    def test_safety_estimate_stays_factored(self, wide_belief):
        from semgeo.estimators import (
            OpenLoopPlan,
            estimate_explicit_c,
            estimate_structured,
            rollout_states,
            safety_reward,
        )

        rng = np.random.default_rng(6)
        sc = wide_belief.scenario
        plan = OpenLoopPlan(sc.actions[2:6])
        sset = mh_sample(wide_belief, 200, rng)
        rollout = rollout_states(sset, plan, sc, rng)
        probs = wide_belief.class_posterior_given_state(sset.samples)
        rep = estimate_structured(sset, rollout, safety_reward(sc), sc, probs)
        assert 0.0 <= rep.value <= 1.0
        # the enumerating route must refuse rather than attempt 2**30 terms
        with pytest.raises(ValueError, match="max_hypotheses"):
            estimate_explicit_c(
                sset,
                rollout,
                lambda labels: 1.0,
                sc,
                class_probs=probs,
            )
