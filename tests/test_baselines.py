"""Exact mixture belief, hypothesis particle filter, and point-estimate baseline.

The analytic mixture is the yardstick everything else is judged against, so
most tests here cross its two routes: per-hypothesis factor graphs versus the
factored belief plus its Gaussian evidence.  The particle filter only has to
track the analytic hypothesis weights within Monte Carlo error.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.special import logsumexp

from semgeo.baselines import (
    AnalyticHybridBelief,
    HypothesisParticleFilter,
    gs_map_estimate,
    systematic_resample,
    verify_weight_recursion,
)
from semgeo.belief import HybridBelief, enumerate_labels, prior_graph
from semgeo.scenario import ScenarioError


class TestAnalyticBelief:
    def test_prior_weights_match_class_prior(self, oracle_small):
        belief = AnalyticHybridBelief.from_scenario(oracle_small)
        labels = belief.labels_enum
        rows = oracle_small.class_prior[np.arange(oracle_small.n_objects)[None, :], labels]
        assert_allclose(belief.weights, rows.prod(axis=1), rtol=1e-12)
        # prior-only graphs integrate to one
        assert_allclose(belief.log_evidences(), 0.0, atol=1e-9)

    def test_update_is_functional(self, oracle_small, seeded_history):
        _, history, _, _, _ = seeded_history
        b0 = AnalyticHybridBelief.from_scenario(oracle_small)
        b1 = b0.update(history.actions[0], history.batches[0])
        b2 = b1.update(history.actions[1], history.batches[1])
        assert (b0.k, b1.k, b2.k) == (0, 1, 2)
        # every hypothesis starts from one shared step-0 graph: updating
        # must leave it exactly as prior_graph builds it
        want = prior_graph(oracle_small)
        assert len(b0.graphs) == b0.n_tracked
        for g in b0.graphs:
            assert_array_equal(g._H, want._H)
            assert_array_equal(g._theta, want._theta)
            assert_array_equal(g._log_const, want._log_const)

    def test_wrong_batch_t_raises(self, oracle_small, seeded_history):
        _, history, _, _, _ = seeded_history
        b0 = AnalyticHybridBelief.from_scenario(oracle_small)
        with pytest.raises(ScenarioError, match="batch.t"):
            b0.update(history.actions[1], history.batches[1])

    def test_matches_factored_route_pointwise(self, seeded_history, rng):
        # same unnormalized joint from both routes, up to the Gaussian
        # evidence the factored belief keeps outside its density
        _, _, hybrid, analytic, _ = seeded_history
        x = analytic.sample(64, rng).samples
        shift = hybrid.geo.log_evidence
        for h in range(analytic.n_tracked):
            labels = np.tile(analytic.labels_enum[h], (len(x), 1))
            assert_allclose(
                analytic.log_unnormalized_joint(x, h),
                hybrid.log_unnormalized_joint(x, labels) + shift,
                rtol=1e-10,
                atol=1e-8,
            )
        assert_allclose(
            analytic.log_marginal_over_hypotheses(x),
            hybrid.log_unnormalized_marginal(x) + shift,
            rtol=1e-10,
            atol=1e-8,
        )

    def test_weight_recursion_consistent(self, oracle_small, seeded_history):
        _, history, _, _, _ = seeded_history
        report = verify_weight_recursion(oracle_small, history)
        assert report["max_deviation"] < 1e-9
        assert len(report["steps"]) == len(history.batches)
        for step in report["steps"]:
            assert np.all(np.isfinite(step["log_ratio"]))

    def test_mixture_mean_at_prior(self, oracle_small):
        belief = AnalyticHybridBelief.from_scenario(oracle_small)
        expected = np.concatenate(
            [oracle_small.robot_prior_mean, oracle_small.object_prior_means.ravel()]
        )
        assert_allclose(belief.mixture_mean(), expected, atol=1e-12)

    def test_sample_moments_and_label_frequencies(self, seeded_history, rng):
        _, _, _, analytic, _ = seeded_history
        n = 20_000
        draws = analytic.sample(n, rng)
        assert draws.samples.shape == (n, analytic.index.dim)
        assert np.all(draws.log_weights == 0.0)
        se_mean = np.sqrt(np.var(draws.samples, axis=0) / n)
        assert np.all(np.abs(draws.samples.mean(axis=0) - analytic.mixture_mean()) < 6 * se_mean + 1e-9)
        # hypothesis frequencies follow the posterior weights
        powers = analytic.scenario.n_classes ** np.arange(analytic.scenario.n_objects)
        codes = draws.labels @ powers
        enum_codes = analytic.labels_enum @ powers
        for h, code in enumerate(enum_codes):
            w = analytic.weights[h]
            se = np.sqrt(w * (1 - w) / n)
            assert abs(np.mean(codes == code) - w) < 6 * se + 1e-9

    def test_conditional_probs_rows_normalized(self, seeded_history, rng):
        _, _, _, analytic, _ = seeded_history
        x = analytic.sample(32, rng).samples
        probs = analytic.conditional_joint_probs(x)
        assert probs.shape == (32, analytic.n_tracked)
        assert_allclose(probs.sum(axis=1), 1.0, rtol=1e-12)

    def test_conditional_at_prior_equals_weights(self, oracle_small):
        # identical graphs cancel, leaving the hypothesis weights at any state
        belief = AnalyticHybridBelief.from_scenario(oracle_small)
        x = np.array([[0.3, -0.2, 1.0, 2.0, 3.0, 4.0]])
        assert_allclose(belief.conditional_joint_probs(x)[0], belief.weights, rtol=1e-9)


class TestPrune:
    def test_keeps_leading_hypotheses(self, seeded_history):
        _, _, _, analytic, _ = seeded_history
        pruned = analytic.prune(keep=2)
        top = np.sort(np.argsort(-analytic.weights)[:2])
        assert pruned.n_tracked == 2
        assert np.array_equal(pruned.labels_enum, analytic.labels_enum[top])
        assert_allclose(pruned.weights.sum(), 1.0, rtol=1e-12)
        # relative weights of survivors are preserved
        assert_allclose(
            pruned.weights, analytic.weights[top] / analytic.weights[top].sum(), rtol=1e-9
        )

    def test_tie_breaks_to_lower_index(self, oracle_small):
        # at the uniform prior every hypothesis ties; lowest indices survive
        belief = AnalyticHybridBelief.from_scenario(oracle_small)
        pruned = belief.prune(keep=3)
        expected = enumerate_labels(oracle_small.n_objects, oracle_small.n_classes)[:3]
        assert np.array_equal(pruned.labels_enum, expected)

    def test_keep_larger_than_tracked_keeps_all(self, seeded_history):
        _, _, _, analytic, _ = seeded_history
        assert analytic.prune(keep=99).n_tracked == analytic.n_tracked

    def test_keep_zero_raises(self, seeded_history):
        _, _, _, analytic, _ = seeded_history
        with pytest.raises(ValueError):
            analytic.prune(keep=0)


def _filter_state(pf):
    """Copies of everything a particle filter's update or prune could change."""
    return (
        pf.labels_enum.copy(),
        pf.particles.copy(),
        pf.log_hyp_w.copy(),
        pf.index,
        dict(pf.diagnostics),
    )


def _assert_unchanged(pf, state):
    labels, particles, log_hyp_w, index, diagnostics = state
    assert_array_equal(pf.labels_enum, labels)
    assert_array_equal(pf.particles, particles)
    assert_array_equal(pf.log_hyp_w, log_hyp_w)
    assert pf.index is index
    assert pf.diagnostics == diagnostics


def _filtered(pf, history, rng):
    for action, batch in zip(history.actions, history.batches):
        pf = pf.update(action, batch, rng)
    return pf


class TestParticleFilter:
    def test_update_appends_pose_and_mutates(self, oracle_small, seeded_history, rng):
        """Update returns a new filter one pose longer; the filter it was
        called on is not mutated."""
        _, history, _, _, _ = seeded_history
        pf0 = HypothesisParticleFilter.from_scenario(oracle_small, rng, n_particles=64)
        before = _filter_state(pf0)
        pf = pf0.update(history.actions[0], history.batches[0], rng)
        _assert_unchanged(pf0, before)
        assert pf0.k == 0 and pf.k == 1
        assert pf.particles.shape[2] == pf0.particles.shape[2] + 2
        assert pf.index.n_steps == 1
        assert pf.diagnostics is not pf0.diagnostics
        with pytest.raises(ScenarioError, match="batch.t"):
            pf.update(history.actions[0], history.batches[0], rng)

    def test_tracks_analytic_weights(self, oracle_small, seeded_history):
        _, history, _, analytic, _ = seeded_history
        rng = np.random.default_rng(5)
        pf = HypothesisParticleFilter.from_scenario(oracle_small, rng, n_particles=4000)
        pf = _filtered(pf, history, rng)
        assert np.max(np.abs(pf.weights - analytic.weights)) < 0.05
        assert np.argmax(pf.weights) == np.argmax(analytic.weights)

    def test_prune_mutates_and_renormalizes(self, oracle_small, seeded_history, rng):
        """Prune returns a new, renormalized filter; the filter it was
        called on is not mutated."""
        _, history, _, _, _ = seeded_history
        pf0 = HypothesisParticleFilter.from_scenario(oracle_small, rng, n_particles=128)
        pf1 = pf0.update(history.actions[0], history.batches[0], rng)
        before = _filter_state(pf1)
        pf = pf1.prune(keep=3)
        _assert_unchanged(pf1, before)
        assert pf1.n_tracked == 4
        assert pf.n_tracked == 3
        assert pf.particles.shape[0] == 3
        assert_allclose(np.exp(logsumexp(pf.log_hyp_w)), 1.0, rtol=1e-12)

    def test_keep_larger_than_tracked_returns_self(self, oracle_small, rng):
        pf = HypothesisParticleFilter.from_scenario(oracle_small, rng, n_particles=16)
        assert pf.prune(keep=pf.n_tracked) is pf
        assert pf.prune(keep=99) is pf

    def test_keep_zero_raises(self, oracle_small, rng):
        pf = HypothesisParticleFilter.from_scenario(oracle_small, rng, n_particles=16)
        before = _filter_state(pf)
        with pytest.raises(ValueError, match="keep must be >= 1"):
            pf.prune(keep=0)
        _assert_unchanged(pf, before)

    def test_degeneracy_diagnostic_tracks_minimum(self, oracle_small, seeded_history, rng):
        _, history, _, _, _ = seeded_history
        pf = HypothesisParticleFilter.from_scenario(oracle_small, rng, n_particles=256)
        pf = _filtered(pf, history, rng)
        ess = pf.diagnostics["min_particle_ess"]
        assert 0.0 < ess <= 256.0
        assert pf.diagnostics["degenerate"] == (ess < 0.02 * 256)

    def test_sample_label_frequencies(self, oracle_small, seeded_history, rng):
        _, history, _, _, _ = seeded_history
        pf = HypothesisParticleFilter.from_scenario(oracle_small, rng, n_particles=512)
        pf = _filtered(pf, history, rng)
        n = 20_000
        draws = pf.sample(n, rng)
        assert draws.samples.shape == (n, pf.particles.shape[2])
        powers = oracle_small.n_classes ** np.arange(oracle_small.n_objects)
        codes = draws.labels @ powers
        for h, code in enumerate(pf.labels_enum @ powers):
            w = pf.weights[h]
            se = np.sqrt(w * (1 - w) / n)
            assert abs(np.mean(codes == code) - w) < 6 * se + 1e-9

    def test_hypothesis_state_set_is_single_hypothesis(self, oracle_small, rng):
        pf = HypothesisParticleFilter.from_scenario(oracle_small, rng, n_particles=32)
        draws = pf.hypothesis_state_set(2, 100, rng)
        assert np.all(draws.labels == pf.labels_enum[2])
        assert np.all(draws.log_weights == 0.0)
        # every draw is one of hypothesis 2's particles
        matches = (draws.samples[:, None, :] == pf.particles[2][None, :, :]).all(axis=2)
        assert matches.any(axis=1).all()


class TestSystematicResample:
    def test_uniform_weights_give_identity(self, rng):
        w = np.full(8, 1 / 8)
        idx = systematic_resample(w, 8, rng)
        assert np.array_equal(np.sort(idx), np.arange(8))

    def test_point_mass_selects_single_ancestor(self, rng):
        w = np.array([0.0, 0.0, 1.0, 0.0])
        assert np.all(systematic_resample(w, 16, rng) == 2)

    def test_counts_proportional_to_weights(self, rng):
        w = np.array([0.5, 0.5, 0.0, 0.0])
        idx = systematic_resample(w, 4, rng)
        assert np.array_equal(np.bincount(idx, minlength=4), [2, 2, 0, 0])


class TestGsMapEstimate:
    def test_returns_geo_mean_and_map_labels(self, seeded_history):
        _, _, hybrid, _, _ = seeded_history
        x_map, labels = gs_map_estimate(hybrid)
        assert_allclose(x_map, hybrid.geo.mean, rtol=1e-12)
        table = hybrid.class_posterior_given_state(x_map[None, :])[0]
        assert np.array_equal(labels, table.argmax(axis=1))
        assert labels.dtype == np.int64

    def test_tie_breaks_to_lowest_class(self, oracle_small):
        # uniform prior, no observations: every class ties, label 0 wins
        hybrid = HybridBelief.from_scenario(oracle_small)
        _, labels = gs_map_estimate(hybrid)
        assert np.array_equal(labels, np.zeros(oracle_small.n_objects, dtype=np.int64))
