"""The query kernels give the same floats as their straightforward
(n_samples, ...)-major formulations, kept here as references.

Every check is assert_array_equal: the golden outputs hash these values, so
a rewrite that moves one bit of them fails here before it reaches a workload.
The references lay out samples first and reduce over the short axes, as
numpy users would write them; the kernels keep samples innermost.
"""

import numpy as np
import pytest
from scipy import linalg

from semgeo import _kernels
from semgeo.baselines import _mixture_sample
from semgeo.belief import HybridBelief, enumerate_labels
from semgeo.estimators import (
    OpenLoopPlan,
    _weighted_report,
    estimate_explicit_c,
    estimate_structured,
    expected_cost,
    factored_joint,
    rollout_states,
    safety_reward,
)
from semgeo.gaussian import GaussianFactorGraph, StackedIndex
from semgeo.harness import load_scenario, resize_scenario
from semgeo.samplers import WeightedStateSet
from semgeo.scenario import LOG_2PI, ObservationBatch

CHUNK = _kernels._CHUNK

# ----------------------------------------------------------------------
# reference formulations


def ref_class_log_tables(samples, pose_col, obj_col, obs_obj, obs_z, log_prior, alphas, s2):
    """Per class, the (n, m) log-likelihood matrix of all observations, each
    object's columns picked out by a boolean mask and summed per row."""
    ns = len(samples)
    out = np.empty((ns,) + log_prior.shape)
    out[:] = log_prior[None]
    const = -LOG_2PI - np.log(s2)
    inv = 0.5 / s2
    rx = samples[:, obj_col] - samples[:, pose_col]
    ry = samples[:, obj_col + 1] - samples[:, pose_col + 1]
    for c, a in enumerate(alphas):
        dx = obs_z[None, :, 0] - a * rx
        dy = obs_z[None, :, 1] - a * ry
        ll = const - inv * (dx * dx + dy * dy)
        for n in range(log_prior.shape[0]):
            sel = obs_obj == n
            if np.any(sel):
                out[:, n, c] += ll[:, sel].sum(axis=1)
    return out


def ref_safety_products(future_xy, object_xy, radii):
    """(n, n_future) squared distances per object, min over the future."""
    n_t = future_xy.shape[1]
    out = np.ones((len(future_xy), object_xy.shape[1], len(radii)))
    if n_t == 0:
        return out
    r2 = radii * radii
    for n in range(object_xy.shape[1]):
        dx = future_xy[:, :, 0] - object_xy[:, n, 0:1]
        dy = future_xy[:, :, 1] - object_xy[:, n, 1:2]
        d2 = dx * dx + dy * dy
        out[:, n, :] = d2.min(axis=1)[:, None] > r2[None, :]
    return out


def ref_rollout(x, actions, s2, noise_rng):
    noise = noise_rng.normal(0.0, np.sqrt(s2), size=(len(x), len(actions), 2))
    return x[:, None, :] + np.cumsum(actions[None] + noise, axis=1)


def poses(planes):
    """(n, horizon, 2) C-contiguous poses of (horizon, 2, n) rollout planes."""
    return np.ascontiguousarray(planes.transpose(2, 0, 1))


def ref_class_posterior(tables):
    t = tables - tables.max(axis=2, keepdims=True)
    p = np.exp(t)
    return p / p.sum(axis=2, keepdims=True)


# ----------------------------------------------------------------------
# fixtures


def random_table_args(rng, ns, n_obj, n_cls, per_obj, n_steps=12):
    """Observations of every object at many steps, in a shuffled order."""
    index = StackedIndex(n_obj, n_steps)
    samples = rng.normal(size=(ns, index.dim)) * 3
    obs_obj = np.repeat(np.arange(n_obj), per_obj)
    rng.shuffle(obs_obj)
    obs_t = rng.integers(0, n_steps + 1, size=len(obs_obj))
    pose_col = np.array([index.pose_slice(int(t)).start for t in obs_t])
    obj_col = np.array([index.object_slice(int(n)).start for n in obs_obj])
    obs_z = rng.normal(size=(len(obs_obj), 2)) * 2
    log_prior = np.log(rng.dirichlet(np.ones(n_cls), size=n_obj))
    alphas = np.linspace(0.9, 1.1, n_cls)
    return [samples, pose_col, obj_col, obs_obj, obs_z, log_prior, alphas, 1.7], index


def kernel_args(flat, index):
    """The kernel's arguments for flat reference arguments: each object's
    observations grouped in their flat order."""
    samples, pose_col, _, obs_obj, obs_z, log_prior, alphas, s2 = flat
    evidence = tuple(
        (pose_col[obs_obj == n], obs_z[obs_obj == n]) for n in range(index.n_objects)
    )
    return samples, index, evidence, log_prior, alphas, s2


def random_state_set(rng, n, n_obj=2, n_steps=3):
    index = StackedIndex(n_objects=n_obj, n_steps=n_steps)
    return WeightedStateSet(
        samples=rng.normal(size=(n, index.dim)) * 4,
        log_weights=rng.normal(size=n),
        index=index,
    )


def observed_belief(scenario, n_steps, rng):
    """Factored belief after n_steps of random batches, objects in reverse."""
    belief = HybridBelief.from_scenario(scenario)
    ids = np.arange(scenario.n_objects)[::-1].copy()
    for t in range(1, n_steps + 1):
        batch = ObservationBatch(
            t=t,
            object_ids=ids,
            geometric=rng.normal(size=(len(ids), 2)) * 2,
            semantic=rng.normal(size=(len(ids), 2)) * 2,
        )
        belief = belief.update(rng.normal(size=2) * 0.5, batch)
    return belief


# ----------------------------------------------------------------------


class TestSafetyProducts:
    @pytest.mark.parametrize("n_cls", [2, 4, 8])
    @pytest.mark.parametrize("h", [0, 1, 6, 21])
    @pytest.mark.parametrize("ns", [1, 400, CHUNK + 7])
    def test_matches_reference(self, n_cls, h, ns):
        rng = np.random.default_rng(1000 * n_cls + 10 * h + ns % 97)
        planes = np.ascontiguousarray(rng.normal(size=(h, 2, ns)) * 3)
        objects = rng.normal(size=(ns, 3, 2)) * 3
        radii = np.linspace(0.0, 3.0, n_cls)
        expect = ref_safety_products(poses(planes), objects, radii)
        out = _kernels.safety_products(planes, objects, radii)
        np.testing.assert_array_equal(out, expect)
        assert out.flags.c_contiguous and out.shape == (ns, 3, n_cls)


class TestRollout:
    @pytest.mark.parametrize("h", [1, 8, 21])
    def test_draws_the_normal_stream_in_blocks(self, h):
        """A rollout longer than one block of samples still draws the stream
        of one (n, h, 2) normal draw and leaves the generator where that
        draw would."""
        n = CHUNK + 5
        sc = load_scenario("defaults")
        sset = random_state_set(np.random.default_rng(h), n)
        plan = OpenLoopPlan(np.random.default_rng(h + 1).normal(size=(h, 2)))
        rng, ref_rng = np.random.default_rng(h + 2), np.random.default_rng(h + 2)
        roll = rollout_states(sset, plan, sc, rng)
        x = sset.index.current_pose(sset.samples)
        expect = ref_rollout(x, plan.actions, sc.sigma2_x, ref_rng)
        assert roll.shape == (h, 2, n) and roll.flags.c_contiguous
        np.testing.assert_array_equal(poses(roll), expect)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestCost:
    @pytest.mark.parametrize("n, h", [(400, 8), (CHUNK + 3, 21), (37, 27)])
    def test_matches_reference(self, n, h):
        rng = np.random.default_rng(n + h)
        sc = load_scenario("defaults")
        sset = random_state_set(rng, n)
        plan = OpenLoopPlan(rng.normal(size=(h, 2)))
        rollout = rollout_states(sset, plan, sc, rng)
        x_now = sset.index.current_pose(sset.samples)
        d = poses(rollout) - sc.goal
        steps = np.sqrt(d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1])
        g = x_now - sc.goal
        dist = np.sqrt(g[:, 0] * g[:, 0] + g[:, 1] * g[:, 1]) + steps.sum(axis=1)
        action_cost = float(np.linalg.norm(plan.actions, axis=1).sum())
        expect = _weighted_report(dist + action_cost, sset)
        est = expected_cost(sset, rollout, plan, sc)
        assert (est.value, est.std_error) == (expect.value, expect.std_error)


class TestClassTables:
    @pytest.mark.parametrize(
        "ns, n_obj, n_cls, per_obj",
        [(50, 3, 4, 9), (CHUNK + 11, 2, 8, 12), (7, 1, 2, 8), (300, 3, 3, 1)],
    )
    def test_matches_reference(self, ns, n_obj, n_cls, per_obj):
        rng = np.random.default_rng(ns + n_obj + n_cls + per_obj)
        args, index = random_table_args(rng, ns, n_obj, n_cls, per_obj)
        out = _kernels.class_log_tables(*kernel_args(args, index))
        np.testing.assert_array_equal(out, ref_class_log_tables(*args))
        assert out.flags.c_contiguous

    def test_unobserved_object_keeps_its_prior(self):
        rng = np.random.default_rng(3)
        args, index = random_table_args(rng, 40, 3, 4, 9)
        keep = args[3] != 1
        for i in (1, 2, 3, 4):
            args[i] = args[i][keep]
        out = _kernels.class_log_tables(*kernel_args(args, index))
        np.testing.assert_array_equal(out, ref_class_log_tables(*args))
        np.testing.assert_array_equal(out[:, 1], np.tile(args[5][1], (40, 1)))

    def test_belief_stores_evidence_by_object_then_time(self):
        """Batches list objects in shuffled order and skip some objects; the
        belief's tables equal the reference fed its observations sorted by
        object, then time."""
        rng = np.random.default_rng(14)
        sc = resize_scenario(load_scenario("defaults"), n_classes=4, n_objects=4)
        belief = HybridBelief.from_scenario(sc)
        obs_obj, obs_t, obs_z = [], [], []
        for t in range(1, 10):
            ids = rng.permutation(sc.n_objects)
            if t % 3:
                ids = ids[ids != t % sc.n_objects]  # one object unseen at t
            z = rng.normal(size=(len(ids), 2)) * 2
            batch = ObservationBatch(
                t=t, object_ids=ids, geometric=rng.normal(size=(len(ids), 2)) * 2, semantic=z
            )
            belief = belief.update(rng.normal(size=2) * 0.5, batch)
            obs_obj += list(ids)
            obs_t += [t] * len(ids)
            obs_z.append(z)
        obs_obj, obs_t, obs_z = np.array(obs_obj), np.array(obs_t), np.concatenate(obs_z)
        order = np.lexsort((obs_t, obs_obj))
        obs_obj, obs_t, obs_z = obs_obj[order], obs_t[order], obs_z[order]
        index = belief.index
        pose_col = np.array([index.pose_slice(int(t)).start for t in obs_t])
        obj_col = np.array([index.object_slice(int(n)).start for n in obs_obj])
        samples = belief.geo.sample(rng, CHUNK + 9)
        expect = ref_class_log_tables(
            samples, pose_col, obj_col, obs_obj, obs_z, sc.log_class_prior(), sc.alphas,
            sc.sigma2_obs,
        )
        np.testing.assert_array_equal(belief.class_log_tables(samples), expect)

    @pytest.mark.parametrize("n_cls", [2, 4, 8])
    def test_class_posterior_matches_reference(self, n_cls):
        rng = np.random.default_rng(n_cls)
        sc = resize_scenario(load_scenario("defaults"), n_classes=n_cls, n_objects=3)
        belief = observed_belief(sc, 9, rng)
        samples = belief.geo.sample(rng, 2000)
        probs = belief.class_posterior_given_state(samples)
        np.testing.assert_array_equal(probs, ref_class_posterior(belief.class_log_tables(samples)))
        assert probs.flags.c_contiguous


class TestEstimates:
    def test_structured_and_explicit_match_reference(self):
        """3 objects, 8 classes: the safety table and the class posterior
        feed einsums whose summation order follows operand strides."""
        rng = np.random.default_rng(8)
        sc = resize_scenario(load_scenario("defaults"), n_classes=8, n_objects=3)
        belief = observed_belief(sc, 4, rng)
        n = 3000
        sset = WeightedStateSet(
            samples=belief.geo.sample(rng, n), log_weights=rng.normal(size=n) * 0.1,
            index=belief.index,
        )
        plan = OpenLoopPlan(np.tile([0.6, 0.4], (9, 1)))
        rollout = rollout_states(sset, plan, sc, rng)
        probs = belief.class_posterior_given_state(sset.samples)
        reward = safety_reward(sc)

        table = ref_safety_products(poses(rollout), sset.index.object_xy(sset.samples), sc.unsafe_radius)
        acc = np.ones(n)
        for obj in range(sc.n_objects):
            acc = acc * np.einsum("ic,ic->i", probs[:, obj, :], table[:, obj, :])
        expect = _weighted_report(acc, sset)
        got = estimate_structured(sset, rollout, reward, sc, probs)
        assert (got.value, got.std_error) == (expect.value, expect.std_error)

        labels = enumerate_labels(3, 8)
        joint = np.ones((n, len(labels)))
        vals = np.ones((n, len(labels)))
        for obj in range(sc.n_objects):
            joint *= probs[:, obj, labels[:, obj]]
            vals *= table[:, obj][:, labels[:, obj]]
        expect = _weighted_report(np.einsum("ih,ih->i", joint, vals), sset)
        got = estimate_explicit_c(sset, rollout, reward, sc, factored_joint(probs, labels), labels)
        assert (got.value, got.std_error) == (expect.value, expect.std_error)


class TestMixtureDraw:
    def test_gaussian_sample_matches_reference(self):
        rng = np.random.default_rng(4)
        g = GaussianFactorGraph(5)
        a = rng.normal(size=(5, 5))
        g.add_prior(np.arange(5), rng.normal(size=5), a @ a.T + np.eye(5))
        r1, r2 = np.random.default_rng(0), np.random.default_rng(0)
        out = g.sample(r1, 1000)
        xi = r2.standard_normal((5, 1000))
        low = linalg.cho_factor(g._H, lower=True)[0]
        expect = g.mean[None, :] + linalg.solve_triangular(low, xi, lower=True, trans="T").T
        np.testing.assert_array_equal(out, expect)

    def test_shuffle_matches_fancy_indexing(self):
        rng = np.random.default_rng(5)
        labels_enum = np.array([[0, 0], [1, 0], [0, 1], [1, 1]])
        blocks = {}

        def draw(h, c):
            blocks[h] = rng.normal(size=(c, 6)) + h
            return blocks[h]

        r1 = np.random.default_rng(9)
        sset = _mixture_sample(np.array([0.1, 0.4, 0.3, 0.2]), labels_enum, 5000, 6, draw, r1,
                               index=StackedIndex(2, 0))
        r2 = np.random.default_rng(9)
        counts = r2.multinomial(5000, [0.1, 0.4, 0.3, 0.2])
        perm = r2.permutation(5000)
        samples = np.concatenate([blocks[h] for h in range(4) if counts[h]])
        labels = np.repeat(labels_enum, counts, axis=0)
        np.testing.assert_array_equal(sset.samples, samples[perm])
        np.testing.assert_array_equal(sset.labels, labels[perm])
        assert sset.samples.flags.c_contiguous
