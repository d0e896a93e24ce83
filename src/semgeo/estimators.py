"""Reward expectation estimators over weighted hybrid-belief samples.

A structured reward is a sum of terms, each a product of per-object factors
that depend on that object's class:

    r(C, X) = sum_j prod_{n in objects_j} f_{j,n}(c_n, X)

In code a reward is a tuple of RewardTerms, each its objects and one
(n_samples, n_objects, n_classes) table of f_{j,n}(c, X) per sample,
computed once per term and estimate.  The three estimators share one term
loop and differ only in the per-object factor: the sampled class (joint
samples), the class sum against the factored conditional b[c_n | X]
(conditional expectation, O(n_samples * terms * n_classes) per object), or
every enumerated joint hypothesis's class (the brute-force route).  The
last two agree exactly on identical samples.  The brute-force route sums
the joint it is handed; the hypothesis-count guard sits where hypotheses
are enumerated, in belief.enumerate_labels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .samplers import WeightedStateSet
from .scenario import Scenario


@dataclass(frozen=True)
class OpenLoopPlan:
    """A fixed future action sequence starting at the belief's current step."""

    actions: np.ndarray  # (horizon, 2)

    def __post_init__(self):
        object.__setattr__(
            self, "actions", np.asarray(self.actions, dtype=float).reshape(-1, 2)
        )

    @property
    def horizon(self) -> int:
        return len(self.actions)

    @classmethod
    def empty(cls) -> "OpenLoopPlan":
        return cls(actions=np.empty((0, 2)))


def rollout_states(
    state_set: WeightedStateSet,
    plan: OpenLoopPlan,
    scenario: Scenario,
    rng: np.random.Generator,
) -> np.ndarray:
    """Propagate each sample's current pose through the plan with motion noise.

    Returns the rollout planes: a C-contiguous (horizon, 2, n) array, row
    [t, 0] the x and [t, 1] the y of step t for every sample, so each pass
    of the rollout, safety and cost kernels runs over samples.  The noise is
    the stream of one rng.normal(0, sqrt(sigma2_x), (n, h, 2)) draw
    (rng.normal(0, s) is 0.0 + s * standard_normal), drawn in blocks of
    _CHUNK samples, each block transposed into the planes.
    """
    x = state_set.index.current_pose(state_set.samples)
    n = len(state_set)
    h = plan.horizon
    planes = np.empty((h, 2, n))
    if h == 0:
        return planes
    scale = math.sqrt(scenario.sigma2_x)
    for lo in range(0, n, _kernels._CHUNK):
        hi = min(lo + _kernels._CHUNK, n)
        block = rng.standard_normal(size=(hi - lo, h, 2))
        np.multiply(block.transpose(1, 2, 0), scale, out=planes[:, :, lo:hi])
    planes += plan.actions[:, :, None]
    # the cumulative sum over steps, as np.cumsum forms it: left to right
    for t in range(1, h):
        planes[t] += planes[t - 1]
    planes += np.ascontiguousarray(x.T)
    return planes


@dataclass(frozen=True)
class RewardTerm:
    """One product term: prod_{n in objects} table[:, n, c_n].  A reward is
    a tuple of these.

    table(state_set, rollout, scenario) returns a C-contiguous
    (n_samples, n_objects, n_classes) array of the term's factors.
    """

    objects: tuple
    table: object


@dataclass
class EstimateReport:
    value: float
    std_error: float
    n_samples: int
    ess: float
    extras: dict = field(default_factory=dict)


def _weighted_report(values, state_set) -> EstimateReport:
    w = state_set.weights
    value = float(w @ values)
    std_error = float(np.sqrt(np.sum(w**2 * (values - value) ** 2)))
    return EstimateReport(
        value=value, std_error=std_error, n_samples=len(state_set), ess=state_set.ess
    )


def _check_rows_normalized(probs: np.ndarray, name: str) -> None:
    # np.allclose(sums, 1.0, atol=1e-6) without its overhead: the same
    # |sum - 1| <= atol + rtol * 1 test, and NaN or inf sums still fail.
    # A factored conditional must pass it because objects absent from every
    # term are marginalized by leaving them out of the product.
    sums = _kernels.class_sum(probs)
    if not np.all(np.abs(sums - 1.0) <= 1e-6 + 1e-5):
        raise ValueError(
            f"{name} rows must sum to 1; max deviation {np.abs(sums - 1).max():.3g}"
        )


# ----------------------------------------------------------------------
# per-sample reward values under the three conditioning modes


def _term_values(reward, state_set, rollout, scenario, shape, factor) -> np.ndarray:
    """Sum over terms of the product over the term's objects of
    factor(col, obj), col being the object's (n, n_classes) table column."""
    total = np.zeros(shape)
    for term in reward:
        table = term.table(state_set, rollout, scenario)
        acc = np.ones(shape)
        for obj in term.objects:
            acc *= factor(table[:, obj], obj)
        total += acc
    return total


def reward_at_labels(reward, state_set, rollout, scenario, labels) -> np.ndarray:
    """(n,) reward evaluated at one sampled class assignment per sample."""
    rows = np.arange(len(state_set))
    return _term_values(reward, state_set, rollout, scenario, len(rows),
                        lambda col, obj: col[rows, labels[:, obj]])


def structured_values(reward, state_set, rollout, scenario, class_probs) -> np.ndarray:
    """(n,) conditional expectation per sample via per-object class sums."""
    return _term_values(reward, state_set, rollout, scenario, len(state_set),
                        lambda col, obj: np.einsum("ic,ic->i", class_probs[:, obj, :], col))


def explicit_values(reward, state_set, rollout, scenario, labels_enum) -> np.ndarray:
    """(n, n_hypotheses) reward at every joint hypothesis for every sample."""
    return _term_values(reward, state_set, rollout, scenario, (len(state_set), len(labels_enum)),
                        lambda col, obj: col[:, labels_enum[:, obj]])


def factored_joint(class_probs, labels_enum) -> np.ndarray:
    """(n, n_hypotheses) joint as the per-object product of the factored
    conditional, at the enumerated hypotheses."""
    class_probs = np.asarray(class_probs, dtype=float)
    _check_rows_normalized(class_probs, "class_probs")
    joint = np.ones((len(class_probs), len(labels_enum)))
    for obj in range(class_probs.shape[1]):
        joint *= class_probs[:, obj, labels_enum[:, obj]]
    return joint


# ----------------------------------------------------------------------
# estimators


def estimate_sampled_xc(state_set, rollout, reward, scenario) -> EstimateReport:
    """Plain joint-sample estimator: reward at each (X, C) pair."""
    if state_set.labels is None:
        raise ValueError("state_set has no class labels; complete hypotheses first")
    values = reward_at_labels(reward, state_set, rollout, scenario, state_set.labels)
    return _weighted_report(values, state_set)


def estimate_structured(state_set, rollout, reward, scenario, class_probs) -> EstimateReport:
    """Conditional-expectation estimator using factored per-object sums."""
    class_probs = np.asarray(class_probs, dtype=float)
    _check_rows_normalized(class_probs, "class_probs")
    values = structured_values(reward, state_set, rollout, scenario, class_probs)
    return _weighted_report(values, state_set)


def estimate_explicit_c(
    state_set, rollout, reward, scenario, joint_probs, labels_enum
) -> EstimateReport:
    """Brute-force conditional expectation over every joint hypothesis.

    joint_probs is the (n, n_hypotheses) conditional joint at the caller's
    enumerated labels_enum; factored_joint builds it from a factored
    conditional.
    """
    _check_rows_normalized(joint_probs, "joint_probs")
    values = explicit_values(reward, state_set, rollout, scenario, labels_enum)
    return _weighted_report(np.einsum("ih,ih->i", joint_probs, values), state_set)


# ----------------------------------------------------------------------
# safety and cost


def _safety_table(state_set, rollout, scenario) -> np.ndarray:
    object_xy = state_set.index.object_xy(state_set.samples)
    return _kernels.safety_products(rollout, object_xy, scenario.unsafe_radius)


def safety_reward(scenario: Scenario) -> tuple:
    """Probability-of-safety reward: one multiplicative term over all objects,
    the per-object factor being the indicator that every future pose stays
    outside that object's class-dependent unsafe disk."""
    return (RewardTerm(objects=tuple(range(scenario.n_objects)), table=_safety_table),)


def _goal_distance(x: np.ndarray, y: np.ndarray, goal: np.ndarray) -> np.ndarray:
    """|(x, y) - goal| elementwise; the same float as np.linalg.norm over a
    last axis of 2, which is sqrt(add.reduce(d * d)) and so sqrt(dx*dx + dy*dy)."""
    dx = x - goal[0]
    dy = y - goal[1]
    dx *= dx
    dy *= dy
    dx += dy
    return np.sqrt(dx, out=dx)


def expected_cost(state_set, rollout, plan, scenario) -> EstimateReport:
    """Expected sum over plan steps of distance-to-goal plus action effort.

    Per step t from the current pose to the plan's end: |x_t - goal| summed
    over t = k .. L, plus the deterministic sum of action norms.
    """
    x_now = state_set.index.current_pose(state_set.samples)
    dist = _goal_distance(x_now[:, 0], x_now[:, 1], scenario.goal)
    if len(rollout):
        steps = _goal_distance(rollout[:, 0], rollout[:, 1], scenario.goal)  # (h, n)
        # summed as contiguous (n, h) rows: numpy sums 8 or more pairwise
        dist = dist + np.ascontiguousarray(steps.T).sum(axis=1)
    action_cost = float(np.linalg.norm(plan.actions, axis=1).sum())
    report = _weighted_report(dist + action_cost, state_set)
    report.extras["action_cost"] = action_cost
    return report


# ----------------------------------------------------------------------
# variance bounds


def is_mse_lower_bound(prior, proposal, gbar, n_samples: int) -> float:
    """Best-case mean-squared error of hypothesis importance sampling.

    prior and proposal are distributions over the joint hypothesis space and
    gbar[h] is the conditional expectation of the estimand given hypothesis
    h.  The bound is (1/N) * (sum_h prior_h / proposal_h) * Var_w(gbar) with
    w_h proportional to prior_h / proposal_h.  With proposal equal to prior
    the leading factor is the hypothesis count, which is what makes uniform
    hypothesis proposals collapse on concentrated posteriors.
    """
    prior = np.asarray(prior, dtype=float)
    proposal = np.asarray(proposal, dtype=float)
    gbar = np.asarray(gbar, dtype=float)
    if np.any((proposal <= 0) & (prior > 0)):
        raise ValueError("proposal must cover the prior's support")
    ratio = np.zeros_like(prior)
    live = proposal > 0
    ratio[live] = prior[live] / proposal[live]
    total = ratio.sum()
    w = ratio / total
    mean = w @ gbar
    return float(total * (w @ (gbar - mean) ** 2) / n_samples)


# ----------------------------------------------------------------------
# Rao-Blackwell gap study


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
    from .baselines import AnalyticHybridBelief
    from .scenario import simulate, trial_streams

    streams = trial_streams(int(rng.integers(2**32)), 0)
    steps = n_steps if n_steps is not None else len(scenario.actions)
    world, history = simulate(scenario, steps, streams.world, streams.noise)
    belief = AnalyticHybridBelief.from_scenario(scenario)
    for action, batch in zip(history.actions, history.batches):
        belief = belief.update(action, batch)
    plan = OpenLoopPlan.empty()  # the current state: no rollout step, no draw

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
