"""Reward estimators: factored vs explicit routes, safety, cost, MSE bounds."""

import numpy as np
import pytest

from semgeo.belief import enumerate_labels
from semgeo.estimators import (
    OpenLoopPlan,
    _weighted_report,
    estimate_explicit_c,
    estimate_sampled_xc,
    estimate_structured,
    expected_cost,
    is_mse_lower_bound,
    make_context,
    rao_blackwell_gap,
    reward_at_labels,
    rollout_states,
    safety_reward,
)
from semgeo.gaussian import StackedIndex
from semgeo.oracles import random_structured_reward
from semgeo.samplers import WeightedStateSet, complete_hypotheses, log_ess, snis_sample
from semgeo.scenario import Scenario


def fixed_state_set(pose, objects):
    """Deterministic single-support state set at step 0."""
    objects = np.asarray(objects, dtype=float)
    index = StackedIndex(n_objects=len(objects), n_steps=0)
    row = np.concatenate([np.asarray(pose, dtype=float), objects.ravel()])
    return WeightedStateSet(
        samples=np.tile(row, (64, 1)), log_weights=np.zeros(64), index=index
    )


def point_scenario(n_objects, n_classes, radii, objects):
    return Scenario(
        n_objects=n_objects,
        n_classes=n_classes,
        robot_prior_mean=[0.0, 0.0],
        robot_prior_cov=np.eye(2) * 1e-9,
        object_prior_means=objects,
        object_prior_covs=np.eye(2) * 1e-9,
        class_prior=np.full(n_classes, 1.0 / n_classes),
        sigma2_obs=1.0,
        sigma2_x=1e-12,
        unsafe_radius=radii,
    )


def random_state_set(rng, n):
    """n random samples at step 2 with one object, random log-weights."""
    index = StackedIndex(n_objects=1, n_steps=2)
    return WeightedStateSet(
        samples=rng.normal(size=(n, index.dim)) * 4,
        log_weights=rng.normal(size=n),
        index=index,
    )


class TestPlanAndRollout:
    def test_plan_shapes(self):
        plan = OpenLoopPlan([1.0, 0.0])
        assert plan.horizon == 1 and plan.actions.shape == (1, 2)
        assert OpenLoopPlan.empty().horizon == 0

    def test_rollout_zero_horizon(self, rng):
        sset = fixed_state_set([1.0, 2.0], [[0.0, 0.0]])
        roll = rollout_states(sset, OpenLoopPlan.empty(), point_scenario(
            1, 2, [0.0, 1.0], [[0.0, 0.0]]), rng)
        assert roll.shape == (0, 2, 64)

    def test_rollout_tracks_cumulative_actions(self, rng):
        sc = point_scenario(1, 2, [0.0, 1.0], [[5.0, 5.0]])
        sset = fixed_state_set([1.0, 1.0], [[5.0, 5.0]])
        plan = OpenLoopPlan([[1.0, 0.0], [0.0, 2.0], [1.0, 0.0]])
        roll = rollout_states(sset, plan, sc, rng)
        expect = np.array([1.0, 1.0]) + np.cumsum(plan.actions, axis=0)
        np.testing.assert_allclose(roll.mean(axis=2), expect, atol=1e-5)

    def test_rollout_noise_accumulates(self):
        sc = point_scenario(1, 2, [0.0, 1.0], [[5.0, 5.0]])
        sc.sigma2_x = 0.25
        base = fixed_state_set([0.0, 0.0], [[5.0, 5.0]])
        sset = WeightedStateSet(
            samples=np.tile(base.samples[0], (40_000, 1)),
            log_weights=np.zeros(40_000),
            index=base.index,
        )
        plan = OpenLoopPlan(np.zeros((4, 2)))
        roll = rollout_states(sset, plan, sc, np.random.default_rng(0))
        var = roll.var(axis=2).mean(axis=1)
        np.testing.assert_allclose(var, 0.25 * np.arange(1, 5), rtol=0.05)


    def test_rollout_draws_the_normal_stream(self):
        """Poses and the generator state after the call are those of one
        rng.normal(0, sqrt(sigma2_x), (n, h, 2)) draw; golden outputs
        depend on this stream."""
        sc = point_scenario(1, 2, [0.0, 1.0], [[5.0, 5.0]])
        sc.sigma2_x = 0.3
        sset = random_state_set(np.random.default_rng(5), 37)
        plan = OpenLoopPlan(np.random.default_rng(6).normal(size=(5, 2)))
        for seed in range(5):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            poses = rollout_states(sset, plan, sc, rng).transpose(2, 0, 1)
            noise = ref_rng.normal(0.0, np.sqrt(sc.sigma2_x), size=(37, 5, 2))
            x = sset.index.current_pose(sset.samples)
            expect = x[:, None, :] + np.cumsum(plan.actions[None] + noise, axis=1)
            np.testing.assert_array_equal(poses, expect)
            assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestEstimatorAgreement:
    def test_structured_equals_explicit(self, seeded_history, oracle_small):
        """Factored per-object sums equal the full joint enumeration."""
        _, _, hybrid, _, streams = seeded_history
        samples = hybrid.geo.sample(streams.sampler, 128)
        sset = WeightedStateSet(
            samples=samples,
            log_weights=streams.sampler.normal(size=128),
            index=hybrid.index,
        )
        probs = hybrid.class_posterior_given_state(samples)
        plan = OpenLoopPlan(oracle_small.actions[:3])
        rollout = rollout_states(sset, plan, oracle_small, streams.sampler)
        for _ in range(4):
            reward = random_structured_reward(oracle_small, streams.sampler)
            a = estimate_structured(sset, rollout, reward, oracle_small, probs)
            b = estimate_explicit_c(sset, rollout, reward, oracle_small, class_probs=probs)
            np.testing.assert_allclose(a.value, b.value, rtol=1e-12)
            np.testing.assert_allclose(a.std_error, b.std_error, rtol=1e-9)

    def test_sampled_xc_is_unbiased_for_structured(self, seeded_history, oracle_small):
        """Completing classes and evaluating pointwise agrees in expectation."""
        _, _, hybrid, _, streams = seeded_history
        sset = snis_sample(hybrid, 20_000, streams.sampler)
        pairs = complete_hypotheses(hybrid, sset, streams.sampler)
        probs = hybrid.class_posterior_given_state(sset.samples)
        reward = random_structured_reward(oracle_small, streams.sampler)
        rollout = rollout_states(sset, OpenLoopPlan.empty(), oracle_small, streams.sampler)
        a = estimate_sampled_xc(pairs, rollout, reward, oracle_small)
        b = estimate_structured(sset, rollout, reward, oracle_small, probs)
        tol = 6 * np.hypot(a.std_error, b.std_error)
        assert abs(a.value - b.value) < tol

    def test_one_hot_joint_equals_pointwise(self, seeded_history, oracle_small):
        _, _, hybrid, _, streams = seeded_history
        samples = hybrid.geo.sample(streams.sampler, 32)
        sset = WeightedStateSet(
            samples=samples, log_weights=np.zeros(32), index=hybrid.index
        )
        labels_enum = enumerate_labels(2, 2)
        labels = streams.sampler.integers(0, 4, size=32)
        joint = np.zeros((32, 4))
        joint[np.arange(32), labels] = 1.0
        reward = random_structured_reward(oracle_small, streams.sampler)
        rollout = rollout_states(sset, OpenLoopPlan.empty(), oracle_small, streams.sampler)
        via_joint = estimate_explicit_c(
            sset, rollout, reward, oracle_small,
            joint_probs=joint, labels_enum=labels_enum,
        )
        ctx = make_context(sset, rollout, oracle_small)
        pointwise = reward_at_labels(reward, ctx, labels_enum[labels])
        np.testing.assert_allclose(via_joint.value, pointwise.mean(), rtol=1e-12)

    def test_requires_labels_for_sampled_xc(self, seeded_history, oracle_small):
        _, _, hybrid, _, streams = seeded_history
        sset = snis_sample(hybrid, 16, streams.sampler)
        rollout = rollout_states(sset, OpenLoopPlan.empty(), oracle_small, streams.sampler)
        reward = random_structured_reward(oracle_small, streams.sampler)
        with pytest.raises(ValueError, match="labels"):
            estimate_sampled_xc(sset, rollout, reward, oracle_small)


class TestGuards:
    def test_unnormalized_rows_rejected(self, seeded_history, oracle_small):
        """Auto-marginalizing untouched objects needs stochastic rows."""
        _, _, hybrid, _, streams = seeded_history
        samples = hybrid.geo.sample(streams.sampler, 8)
        sset = WeightedStateSet(
            samples=samples, log_weights=np.zeros(8), index=hybrid.index
        )
        probs = hybrid.class_posterior_given_state(samples)
        rollout = rollout_states(sset, OpenLoopPlan.empty(), oracle_small, streams.sampler)
        reward = random_structured_reward(oracle_small, streams.sampler)
        with pytest.raises(ValueError, match="sum to 1"):
            estimate_structured(
                sset, rollout, reward, oracle_small, probs * 0.9
            )

    @pytest.mark.parametrize("route", ["class_probs", "joint_probs"])
    def test_row_sum_tolerance(self, rng, route):
        """Both row-sum guards give np.allclose(sums, 1, atol=1e-6)'s verdict:
        rows off by 1e-5 pass, rows off by 2e-5 or NaN rows do not."""
        objects = [[3.0, 0.0], [0.0, 3.0]]
        sc = point_scenario(2, 2, [0.5, 1.0], objects)
        sset = fixed_state_set([0.0, 0.0], objects)
        rollout = rollout_states(sset, OpenLoopPlan.empty(), sc, rng)
        reward = safety_reward(sc)

        def estimate(offset):
            if route == "class_probs":
                probs = np.full((len(sset), 2, 2), 0.5)
                probs[:, :, 0] += offset
                return estimate_structured(sset, rollout, reward, sc, probs)
            joint = np.full((len(sset), 4), 0.25)
            joint[:, 0] += offset
            return estimate_explicit_c(
                sset, rollout, reward, sc,
                joint_probs=joint, labels_enum=enumerate_labels(2, 2),
            )

        assert np.allclose(1.0 + 1e-5, 1.0, atol=1e-6)
        assert np.isfinite(estimate(1e-5).value)
        for offset in (2e-5, np.nan):
            assert not np.allclose(1.0 + offset, 1.0, atol=1e-6)
            with pytest.raises(ValueError, match="rows must sum to 1"):
                estimate(offset)

    def test_hypothesis_guard(self, seeded_history, oracle_small):
        _, _, hybrid, _, streams = seeded_history
        samples = hybrid.geo.sample(streams.sampler, 4)
        sset = WeightedStateSet(
            samples=samples, log_weights=np.zeros(4), index=hybrid.index
        )
        probs = hybrid.class_posterior_given_state(samples)
        rollout = rollout_states(sset, OpenLoopPlan.empty(), oracle_small, streams.sampler)
        reward = random_structured_reward(oracle_small, streams.sampler)
        with pytest.raises(ValueError, match="exceed the guard 3.*max_hypotheses"):
            estimate_explicit_c(
                sset, rollout, reward, oracle_small,
                class_probs=probs, max_hypotheses=3,
            )
        with pytest.raises(ValueError, match="labels_enum"):
            estimate_explicit_c(
                sset, rollout, reward, oracle_small,
                joint_probs=np.full((4, 4), 0.25),
            )
        # 4**40 > 2**63: still the guard's ValueError, not a CodecRangeError
        objects = [[2.0 + j, 0.0] for j in range(40)]
        wide = point_scenario(40, 4, [0.0, 0.1, 0.2, 0.3], objects)
        sset = fixed_state_set([0.0, 0.0], objects)
        rollout = rollout_states(sset, OpenLoopPlan.empty(), wide, streams.sampler)
        with pytest.raises(ValueError, match=f"{4**40} hypotheses.*max_hypotheses"):
            estimate_explicit_c(
                sset, rollout, lambda labels: 1.0, wide,
                class_probs=np.full((len(sset), 40, 4), 0.25),
            )

    def test_enumerated_joint_is_not_guarded(self, rng):
        """The guard sits where hypotheses are enumerated: a joint the caller
        already holds is summed at any size, here 2**14 > 10_000."""
        objects = [[2.0 + j, 0.0] for j in range(14)]
        sc = point_scenario(14, 2, [0.0, 0.5], objects)
        row = fixed_state_set([0.0, 0.0], objects)
        sset = WeightedStateSet(
            samples=row.samples[:2], log_weights=np.zeros(2), index=row.index
        )
        plan = OpenLoopPlan([[1.3, 0.0], [1.0, 0.0], [1.0, 0.0]])
        rollout = rollout_states(sset, plan, sc, rng)
        labels_enum = enumerate_labels(14, 2)
        joint = np.full((2, len(labels_enum)), 1.0 / len(labels_enum))
        rep = estimate_explicit_c(
            sset, rollout, safety_reward(sc), sc,
            joint_probs=joint, labels_enum=labels_enum,
        )
        want = estimate_structured(
            sset, rollout, safety_reward(sc), sc, np.full((2, 14, 2), 0.5)
        )
        assert len(labels_enum) == 16384
        assert 0.0 < rep.value < 1.0
        assert rep.value == pytest.approx(want.value, abs=1e-12)


class TestSafety:
    def test_pointwise_mixture(self, rng):
        """One object astride the path: p_safe is the mass on small radii."""
        sc = point_scenario(1, 2, [0.0, 1.0], [[2.0, 0.5]])
        sset = fixed_state_set([0.0, 0.0], [[2.0, 0.5]])
        plan = OpenLoopPlan([[2.0, 0.0], [2.0, 0.0]])  # passes 0.5 under the object
        rollout = rollout_states(sset, plan, sc, rng)
        probs = np.tile([0.7, 0.3], (64, 1, 1))
        est = estimate_structured(sset, rollout, safety_reward(sc), sc, probs)
        np.testing.assert_allclose(est.value, 0.7, atol=1e-9)

    def test_factorizes_over_objects(self, rng):
        """Two independent straddled objects multiply their safe masses."""
        sc = point_scenario(2, 2, [0.0, 1.0], [[2.0, 0.5], [4.0, -0.5]])
        sset = fixed_state_set([0.0, 0.0], [[2.0, 0.5], [4.0, -0.5]])
        plan = OpenLoopPlan([[2.0, 0.0], [2.0, 0.0], [2.0, 0.0]])
        rollout = rollout_states(sset, plan, sc, rng)
        probs = np.tile(
            np.array([[0.7, 0.3], [0.9, 0.1]]), (64, 1, 1)
        )
        est = estimate_structured(sset, rollout, safety_reward(sc), sc, probs)
        np.testing.assert_allclose(est.value, 0.7 * 0.9, atol=1e-9)

    def test_empty_plan_is_safe(self, rng):
        sc = point_scenario(1, 2, [0.0, 5.0], [[0.1, 0.0]])
        sset = fixed_state_set([0.0, 0.0], [[0.1, 0.0]])
        rollout = rollout_states(sset, OpenLoopPlan.empty(), sc, rng)
        probs = np.tile([0.0, 1.0], (64, 1, 1))
        est = estimate_structured(sset, rollout, safety_reward(sc), sc, probs)
        np.testing.assert_allclose(est.value, 1.0, rtol=1e-12)

    def test_monotone_in_radius(self, seeded_history, oracle_small, rng):
        """Growing every disk can only lower the safety probability."""
        _, _, hybrid, _, streams = seeded_history
        sset = snis_sample(hybrid, 400, streams.sampler)
        probs = hybrid.class_posterior_given_state(sset.samples)
        plan = OpenLoopPlan(np.tile([0.6, 0.6], (5, 1)))
        rollout = rollout_states(sset, plan, oracle_small, streams.sampler)
        values = []
        for scale in (0.5, 1.0, 2.0):
            sc = Scenario.from_dict(oracle_small.to_dict())
            sc.unsafe_radius = oracle_small.unsafe_radius * scale
            values.append(
                estimate_structured(sset, rollout, safety_reward(sc), sc, probs).value
            )
        assert values[0] >= values[1] >= values[2]
        assert all(0.0 <= v <= 1.0 for v in values)


class TestReport:
    def test_ess_is_the_state_sets(self, rng):
        sset = WeightedStateSet(
            samples=rng.normal(size=(30, 4)), log_weights=rng.normal(size=30), index=None
        )
        report = _weighted_report(rng.random(30), sset)
        assert report.ess == log_ess(sset.log_weights)
        assert report.n_samples == 30


class TestCost:
    def test_deterministic_case(self, rng):
        sc = point_scenario(1, 2, [0.0, 1.0], [[50.0, 50.0]])
        sc = Scenario.from_dict(sc.to_dict())
        sc.goal = np.array([3.0, 0.0])
        sset = fixed_state_set([0.0, 0.0], [[50.0, 50.0]])
        plan = OpenLoopPlan([[1.0, 0.0], [1.0, 0.0]])
        rollout = rollout_states(sset, plan, sc, rng)
        est = expected_cost(sset, rollout, plan, sc)
        # |x0-g| + |x1-g| + |x2-g| + sum|a| = 3 + 2 + 1 + 2
        np.testing.assert_allclose(est.value, 8.0, atol=1e-4)
        assert est.extras["action_cost"] == pytest.approx(2.0)

    def test_zero_horizon_is_current_distance(self, rng):
        sc = point_scenario(1, 2, [0.0, 1.0], [[50.0, 50.0]])
        sc = Scenario.from_dict(sc.to_dict())
        sc.goal = np.array([0.0, 4.0])
        sset = fixed_state_set([0.0, 0.0], [[50.0, 50.0]])
        rollout = rollout_states(sset, OpenLoopPlan.empty(), sc, rng)
        est = expected_cost(sset, rollout, OpenLoopPlan.empty(), sc)
        np.testing.assert_allclose(est.value, 4.0, rtol=1e-12)


    def test_matches_norm_expression(self):
        """Same floats as the np.linalg.norm formulation, on random rollouts."""
        rng = np.random.default_rng(9)
        sc = point_scenario(1, 2, [0.0, 1.0], [[5.0, 5.0]])
        sc.sigma2_x = 0.5
        sc.goal = np.array([7.5, -2.25])
        for n, h in [(200, 19), (33, 1), (10, 0)]:
            sset = random_state_set(rng, n)
            plan = OpenLoopPlan(rng.normal(size=(h, 2)))
            rollout = rollout_states(sset, plan, sc, rng)
            x_now = sset.index.current_pose(sset.samples)
            dist = np.linalg.norm(x_now - sc.goal[None, :], axis=1)
            if h:
                dist = dist + np.linalg.norm(
                    np.ascontiguousarray(rollout.transpose(2, 0, 1)) - sc.goal[None, None, :],
                    axis=2,
                ).sum(axis=1)
            action_cost = float(np.linalg.norm(plan.actions, axis=1).sum())
            expect = _weighted_report(dist + action_cost, sset)
            est = expected_cost(sset, rollout, plan, sc)
            np.testing.assert_array_equal(est.value, expect.value)
            np.testing.assert_array_equal(est.std_error, expect.std_error)


class TestMseBounds:
    def test_uniform_example_value(self):
        """4 equally likely hypotheses, g = (0,1,0,1), 100 samples: 0.01."""
        val = is_mse_lower_bound(
            np.full(4, 0.25), np.full(4, 0.25), np.array([0.0, 1.0, 0.0, 1.0]), 100
        )
        assert val == pytest.approx(0.01, abs=1e-15)

    def test_matched_proposal_closed_form(self):
        """With proposal equal to prior every ratio is 1, so the bound is the
        hypothesis count times the unweighted variance of gbar."""
        prior = np.array([0.7, 0.2, 0.1])
        gbar = np.array([1.0, -1.0, 3.0])
        var = np.var(gbar)
        got = is_mse_lower_bound(prior, prior, gbar, 50)
        assert got == pytest.approx(3 * var / 50)

    def test_uniform_proposal_pays_the_count_factor(self):
        """Uniform hypothesis proposals cost exactly |C-space| times the
        best-case posterior-matched floor, which is the collapse mechanism
        on large concentrated spaces."""
        k = 16
        rng = np.random.default_rng(8)
        post = rng.dirichlet(np.full(k, 0.2))
        gbar = rng.normal(size=k)
        uniform = is_mse_lower_bound(post, np.full(k, 1 / k), gbar, 100)
        floor = post @ (gbar - post @ gbar) ** 2 / 100
        assert uniform == pytest.approx(k * floor, rel=1e-12)

    def test_support_coverage_enforced(self):
        with pytest.raises(ValueError, match="support"):
            is_mse_lower_bound(
                np.array([0.5, 0.5]), np.array([1.0, 0.0]), np.array([0.0, 1.0]), 10
            )


class TestRaoBlackwellGap:
    def test_marginalization_sheds_variance(self, oracle_small):
        rng = np.random.default_rng(31)
        reward = random_structured_reward(oracle_small, rng)
        out = rao_blackwell_gap(
            oracle_small,
            reward,
            n_samples=150,
            repetitions=160,
            rng=rng,
            n_steps=3,
            reference_samples=60_000,
            predict_samples=30_000,
        )
        assert out["mse_rb"] <= out["mse_joint"]
        tol = 5 * np.hypot(out["gap_se"], out["predicted_gap_se"])
        assert abs(out["gap"] - out["predicted_gap"]) < tol
