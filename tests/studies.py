"""Study helpers for the acceptance claims c03-c05 and their unit tests.

The package's command line reaches none of these; they support the
analysis of the factored belief: class completion on top of a state set,
the uniform-hypothesis foil, and the Rao-Blackwell gap study.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
from scipy.special import logsumexp

from semgeo.baselines import AnalyticHybridBelief
from semgeo.belief import HybridBelief, decode_labels
from semgeo.estimators import (
    OpenLoopPlan,
    estimate_explicit_c,
    estimate_sampled_xc,
    explicit_values,
    rollout_states,
)
from semgeo.samplers import DegenerateWeightsError, WeightedStateSet, log_ess
from semgeo.scenario import Scenario, simulate, trial_streams

# the current state: no rollout step, no draw
EMPTY_PLAN = OpenLoopPlan(actions=np.empty((0, 2)))


def sample_hypothesis_given_state(
    belief: HybridBelief, samples: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Draw labels (ns, n_objects) from the per-object conditionals."""
    probs = belief.class_posterior_given_state(samples)
    cdf = np.cumsum(probs, axis=2)
    u = rng.random(size=probs.shape[:2])
    labels = (u[:, :, None] > cdf).sum(axis=2)
    return np.minimum(labels, belief.scenario.n_classes - 1).astype(np.int64)


def complete_hypotheses(
    belief: HybridBelief, state_set: WeightedStateSet, rng: np.random.Generator
) -> WeightedStateSet:
    """Pair every state sample with a class draw from b[c_n | X].

    Classes are drawn independently per object from the factored conditional;
    the state weights are unchanged, so the pairs target the joint belief.
    """
    labels = sample_hypothesis_given_state(belief, state_set.samples, rng)
    out = replace(state_set, labels=labels)
    out.diagnostics = dict(state_set.diagnostics, completion="factored-conditional")
    return out


def uniform_hypothesis_is(
    belief: HybridBelief, n_samples: int, rng: np.random.Generator
) -> WeightedStateSet:
    """Importance sampler whose hypothesis proposal is uniform over the joint
    class space (drawn through the integer codec), with X from the geometric
    posterior.  The log weight is log|C-space| plus the picked table entries;
    kept as a worst-case contrast for the factored samplers."""
    sc = belief.scenario
    total = sc.n_classes**sc.n_objects
    samples = belief.geo.sample(rng, n_samples)
    labels = decode_labels(rng.integers(0, total, size=n_samples), sc.n_objects, sc.n_classes)
    tables = belief.class_log_tables(samples)
    rows = np.arange(n_samples)[:, None]
    objs = np.arange(sc.n_objects)[None, :]
    log_w = tables[rows, objs, labels].sum(axis=1) + math.log(total)
    if not np.isfinite(logsumexp(log_w)):
        raise DegenerateWeightsError("all uniform-hypothesis weights are zero")
    return WeightedStateSet(
        samples=samples,
        log_weights=log_w,
        index=belief.index,
        labels=labels,
        diagnostics={"ess": log_ess(log_w)},
    )


def rao_blackwell_gap(
    scenario: Scenario,
    reward: tuple,
    n_samples: int,
    repetitions: int,
    rng: np.random.Generator,
    n_steps: int | None = None,
    reference_samples: int = 400_000,
    predict_samples: int = 200_000,
) -> dict:
    """Paired comparison of the joint-sample estimator against the
    conditional-expectation estimator on one simulated history, with the
    reward evaluated at the current state.

    Marginalizing the sampled classes can only shed variance; the measured
    MSE gap should match the average conditional variance of the reward
    divided by the sample count.  Returns both, with standard errors from
    paired per-repetition differences.
    """
    streams = trial_streams(int(rng.integers(2**32)), 0)
    steps = n_steps if n_steps is not None else len(scenario.actions)
    world, history = simulate(scenario, steps, streams.world, streams.noise)
    belief = AnalyticHybridBelief.from_scenario(scenario)
    for action, batch in zip(history.actions, history.batches):
        belief = belief.update(action, batch)
    plan = EMPTY_PLAN

    # reference value from one large exact joint draw
    big = belief.sample(reference_samples, streams.sampler)
    big_roll = rollout_states(big, plan, scenario, streams.sampler)
    ref = estimate_sampled_xc(big, big_roll, reward, scenario)

    err_joint = np.empty(repetitions)
    err_rb = np.empty(repetitions)
    for r in range(repetitions):
        sset = belief.sample(n_samples, streams.sampler)
        rollout = rollout_states(sset, plan, scenario, streams.sampler)
        est_joint = estimate_sampled_xc(sset, rollout, reward, scenario)
        joint = belief.conditional_joint_probs(sset.samples)
        est_rb = estimate_explicit_c(sset, rollout, reward, scenario, joint, belief.labels_enum)
        err_joint[r] = (est_joint.value - ref.value) ** 2
        err_rb[r] = (est_rb.value - ref.value) ** 2

    diffs = err_joint - err_rb
    gap = float(diffs.mean())
    gap_se = float(diffs.std(ddof=1) / math.sqrt(repetitions))

    # predicted gap: mean conditional variance of the reward, over the state
    pred = belief.sample(predict_samples, streams.sampler)
    pred_roll = rollout_states(pred, plan, scenario, streams.sampler)
    joint = belief.conditional_joint_probs(pred.samples)
    values = explicit_values(reward, pred, pred_roll, scenario, belief.labels_enum)
    cond_mean = np.einsum("ih,ih->i", joint, values)
    cond_second = np.einsum("ih,ih->i", joint, values**2)
    cond_var = cond_second - cond_mean**2
    predicted = float(cond_var.mean() / n_samples)
    predicted_se = float(cond_var.std(ddof=1) / math.sqrt(predict_samples) / n_samples)

    return {
        "reference": ref.value,
        "mse_joint": float(err_joint.mean()),
        "mse_rb": float(err_rb.mean()),
        "gap": gap,
        "gap_se": gap_se,
        "predicted_gap": predicted,
        "predicted_gap_se": predicted_se,
        "n_samples": n_samples,
        "repetitions": repetitions,
    }
