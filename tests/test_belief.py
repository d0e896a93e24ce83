"""Hybrid belief: hypothesis codec, factorized tables, update semantics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from semgeo.baselines import AnalyticHybridBelief
from semgeo.belief import (
    CodecRangeError,
    HybridBelief,
    append_step,
    decode_labels,
    enumerate_labels,
    n_hypotheses,
    prior_graph,
)
from semgeo.gaussian import GaussianFactorGraph, StackedIndex
from semgeo.scenario import ObservationBatch, ScenarioError, simulate, trial_streams


class TestCodec:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_index_roundtrip(self, data):
        n_obj = data.draw(st.integers(1, 5))
        n_cls = data.draw(st.integers(1, 6))
        idx = data.draw(st.integers(0, n_cls**n_obj - 1))
        labels = decode_labels(np.array([idx], dtype=np.int64), n_obj, n_cls)[0]
        assert labels @ n_cls ** np.arange(n_obj) == idx
        assert all(0 <= c < n_cls for c in labels)

    def test_object_zero_is_least_significant(self):
        labels = decode_labels(np.array([1, 2 * 3]), 3, 3)
        np.testing.assert_array_equal(labels, [[1, 0, 0], [0, 2, 0]])

    def test_enumeration_matches_decoder(self):
        labels = enumerate_labels(3, 4)
        assert labels.shape == (64, 3)
        some = np.array([0, 17, 63])
        np.testing.assert_array_equal(labels[some], decode_labels(some, 3, 4))
        assert len(np.unique(labels, axis=0)) == 64

    def test_codec_overflow_guard(self):
        assert n_hypotheses(20, 8) == 8**20
        with pytest.raises(CodecRangeError):
            n_hypotheses(64, 4)

    def test_enumeration_guard(self):
        with pytest.raises(ValueError, match="guard"):
            enumerate_labels(4, 4, max_hypotheses=255)
        assert enumerate_labels(4, 4, max_hypotheses=256).shape == (256, 4)
        # 4**40 > 2**63: the guard speaks before the codec range check
        with pytest.raises(ValueError, match="max_hypotheses=10000"):
            enumerate_labels(40, 4, max_hypotheses=10_000)
        with pytest.raises(CodecRangeError):
            enumerate_labels(40, 4)


class TestPriorBelief:
    def test_no_observations_reduce_to_priors(self, oracle_small):
        """With no semantic evidence the class tables are the prior rows and
        phi(X) = prod_n sum_c P0(c) = 1 for every state."""
        b = HybridBelief.from_scenario(oracle_small)
        x = b.geo.sample(np.random.default_rng(0), 6)
        probs = b.class_posterior_given_state(x)
        np.testing.assert_allclose(
            probs, np.broadcast_to(oracle_small.class_prior, probs.shape), atol=1e-12
        )
        np.testing.assert_allclose(b.log_phi(x), 0.0, atol=1e-12)

    def test_geo_prior_moments(self, oracle_small):
        b = HybridBelief.from_scenario(oracle_small)
        mean, cov = b.geo.posterior_moments()
        np.testing.assert_allclose(mean[:2], oracle_small.robot_prior_mean)
        np.testing.assert_allclose(cov[:2, :2], oracle_small.robot_prior_cov)
        np.testing.assert_allclose(mean[2:4], oracle_small.object_prior_means[0])


class TestUpdate:
    def test_update_is_functional(self, oracle_small):
        streams = trial_streams(3, 0)
        _, history = simulate(oracle_small, 2, streams.world, streams.noise)
        b0 = HybridBelief.from_scenario(oracle_small)
        b1 = b0.update(history.actions[0], history.batches[0])
        assert (b0.k, b1.k) == (0, 1)
        assert b1.geo.dim == b0.geo.dim + 2

    def test_update_rejects_wrong_time_index(self, oracle_small):
        streams = trial_streams(3, 0)
        world, history = simulate(oracle_small, 2, streams.world, streams.noise)
        b = HybridBelief.from_scenario(oracle_small)
        with pytest.raises(ScenarioError, match="batch.t"):
            b.update(history.actions[1], history.batches[1])

    def test_observation_order_within_batch_is_irrelevant(self, oracle_small):
        """Delivering a batch with objects permuted yields the same belief."""
        streams = trial_streams(4, 0)
        world, history = simulate(oracle_small, 1, streams.world, streams.noise)
        batch = history.batches[0]
        flipped = ObservationBatch(
            t=batch.t,
            object_ids=batch.object_ids[::-1],
            geometric=batch.geometric[::-1],
            semantic=batch.semantic[::-1],
        )
        b_fwd = HybridBelief.from_scenario(oracle_small).update(
            history.actions[0], batch
        )
        b_rev = HybridBelief.from_scenario(oracle_small).update(
            history.actions[0], flipped
        )
        x = b_fwd.geo.sample(np.random.default_rng(1), 5)
        np.testing.assert_allclose(
            b_fwd.class_log_tables(x), b_rev.class_log_tables(x), rtol=1e-12
        )
        np.testing.assert_allclose(
            b_fwd.geo.log_evidence, b_rev.geo.log_evidence, rtol=1e-12
        )


def assert_same_graph(got, want):
    np.testing.assert_array_equal(got._H, want._H)
    np.testing.assert_array_equal(got._theta, want._theta)
    np.testing.assert_array_equal(got._log_const, want._log_const)
    assert got.index == want.index and got.n_factors == want.n_factors


class TestStepConstruction:
    """All three beliefs build their graphs through prior_graph and
    append_step; the factor order fixes the floating-point result."""

    def test_hybrid_update_appends_geometric_factors_only(self, oracle_small):
        streams = trial_streams(3, 0)
        _, history = simulate(oracle_small, 2, streams.world, streams.noise)
        b = HybridBelief.from_scenario(oracle_small)
        g = prior_graph(oracle_small)
        for action, batch in zip(history.actions, history.batches):
            b = b.update(action, batch)
            g = append_step(g, action, batch, oracle_small, alphas=None)
            assert_same_graph(b.geo, g)

    def test_hypothesis_graphs_match_factor_by_factor(self, oracle_small):
        """Each hypothesis graph is the prior, then per step the motion
        factor and, per object, its geometric then its semantic factor."""
        sc = oracle_small
        streams = trial_streams(3, 0)
        _, history = simulate(sc, 2, streams.world, streams.noise)
        analytic = AnalyticHybridBelief.from_scenario(sc)
        for action, batch in zip(history.actions, history.batches):
            analytic = analytic.update(action, batch)
        eye2 = np.eye(2)
        a_rel = np.hstack([-eye2, eye2])
        for labels, got in zip(analytic.labels_enum, analytic.graphs):
            index = StackedIndex(sc.n_objects, 0)
            g = GaussianFactorGraph(index)
            g.add_prior(index.pose_cols(0), sc.robot_prior_mean, sc.robot_prior_cov)
            for n in range(sc.n_objects):
                g.add_prior(
                    index.object_cols(n),
                    sc.object_prior_means[n],
                    sc.object_prior_covs[n],
                )
            for t, (action, batch) in enumerate(zip(history.actions, history.batches)):
                g = g.with_appended_step()
                idx = g.index
                cols = np.concatenate([idx.pose_cols(t), idx.pose_cols(t + 1)])
                g.add_linear_factor(cols, a_rel, 0.0, sc.sigma2_x * eye2, action)
                for j, n in enumerate(batch.object_ids):
                    cols = np.concatenate([idx.pose_cols(t + 1), idx.object_cols(n)])
                    noise = sc.sigma2_obs * eye2
                    g.add_linear_factor(cols, a_rel, 0.0, noise, batch.geometric[j])
                    g.add_linear_factor(
                        cols,
                        sc.alphas[labels[n]] * a_rel,
                        0.0,
                        noise,
                        batch.semantic[j],
                    )
            assert_same_graph(got, g)


class TestFactorizedTables:
    def test_rows_are_stochastic(self, seeded_history):
        _, _, hybrid, _, streams = seeded_history
        x = hybrid.geo.sample(streams.sampler, 32)
        probs = hybrid.class_posterior_given_state(x)
        assert probs.min() >= 0
        np.testing.assert_allclose(probs.sum(axis=2), 1.0, rtol=1e-12)

    def test_phi_is_sum_over_joint_hypotheses(self, seeded_history, oracle_small):
        """prod_n sum_c btilde equals the explicit sum over all joint labels."""
        _, _, hybrid, _, streams = seeded_history
        x = hybrid.geo.sample(streams.sampler, 8)
        tables = hybrid.class_log_tables(x)
        labels = enumerate_labels(oracle_small.n_objects, oracle_small.n_classes)
        rows = np.arange(len(x))[:, None, None]
        objs = np.arange(oracle_small.n_objects)[None, None, :]
        per_h = tables[rows, objs, labels[None, :, :]].sum(axis=2)
        np.testing.assert_allclose(
            hybrid.log_phi(x), logsumexp(per_h, axis=1), rtol=1e-12
        )

    def test_joint_consistent_with_marginal(self, seeded_history, oracle_small):
        """logsumexp over labels of the unnormalized joint = the marginal."""
        _, _, hybrid, _, streams = seeded_history
        x = hybrid.geo.sample(streams.sampler, 6)
        labels = enumerate_labels(oracle_small.n_objects, oracle_small.n_classes)
        per_h = np.stack(
            [
                hybrid.log_unnormalized_joint(x, np.tile(lab, (len(x), 1)))
                for lab in labels
            ],
            axis=1,
        )
        np.testing.assert_allclose(
            logsumexp(per_h, axis=1),
            hybrid.log_unnormalized_marginal(x),
            rtol=1e-12,
        )

    def test_sampled_hypotheses_match_conditionals(self, seeded_history):
        _, _, hybrid, _, _ = seeded_history
        rng = np.random.default_rng(5)
        x = np.tile(hybrid.geo.sample(rng, 1), (20_000, 1))
        probs = hybrid.class_posterior_given_state(x[:1])[0]
        labels = hybrid.sample_hypothesis_given_state(x, rng)
        for n in range(hybrid.scenario.n_objects):
            freq = np.bincount(labels[:, n], minlength=hybrid.scenario.n_classes)
            freq = freq / len(labels)
            se = np.sqrt(probs[n] * (1 - probs[n]) / len(labels)) + 1e-9
            assert np.all(np.abs(freq - probs[n]) < 6 * se)
