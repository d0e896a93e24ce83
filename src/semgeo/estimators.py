"""Reward expectation estimators over weighted hybrid-belief samples.

A structured reward is a sum of terms, each a product of per-object factors
that depend on that object's class:

    r(C, X) = sum_j base_j(X) * prod_{n in objects_j} f_{j,n}(c_n, X)

For such rewards the expectation over the joint belief reduces, per state
sample, to products of per-object class sums against the factored
conditional b[c_n | X].  That path costs O(n_samples * terms * n_classes)
per object, while the brute-force route sums over every joint hypothesis.
Both are implemented; they agree exactly on identical samples, and the
brute-force route is guarded by a hypothesis-count limit.

Objects absent from every term are marginalized automatically, which is only
correct when each conditional row sums to one; the structured estimator
validates that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .belief import enumerate_labels
from .gaussian import StackedIndex
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


@dataclass
class RewardContext:
    """Everything a reward element may inspect; carries a shared cache."""

    samples: np.ndarray
    index: StackedIndex
    rollout: np.ndarray  # (horizon, 2, n) planes from rollout_states
    scenario: Scenario
    plan: OpenLoopPlan
    cache: dict = field(default_factory=dict)


@dataclass(frozen=True)
class RewardTerm:
    """One product term: base(ctx) * prod_{n in objects} element(n, ctx)[:, c_n].

    element(n, ctx) returns an (n_samples, n_classes) array; base, when set,
    returns a class-free (n_samples,) factor.
    """

    objects: tuple
    element: object
    base: object = None


@dataclass(frozen=True)
class StructuredReward:
    terms: tuple

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))


@dataclass
class EstimateReport:
    value: float
    std_error: float
    n_samples: int
    ess: float
    extras: dict = field(default_factory=dict)


def make_context(state_set, rollout, scenario, plan=None) -> RewardContext:
    return RewardContext(
        samples=state_set.samples,
        index=state_set.index,
        rollout=rollout,
        scenario=scenario,
        plan=plan if plan is not None else OpenLoopPlan.empty(),
    )


def _base_values(term: RewardTerm, ctx: RewardContext, n: int) -> np.ndarray:
    return np.ones(n) if term.base is None else np.asarray(term.base(ctx), dtype=float)


def _weighted_report(values, state_set) -> EstimateReport:
    w = state_set.weights
    value = float(w @ values)
    std_error = float(np.sqrt(np.sum(w**2 * (values - value) ** 2)))
    return EstimateReport(
        value=value, std_error=std_error, n_samples=len(state_set), ess=state_set.ess
    )


def _sums_near_one(sums: np.ndarray) -> bool:
    """np.allclose(sums, 1.0, atol=1e-6) without its overhead: the same
    |sum - 1| <= atol + rtol * 1 test, and NaN or inf sums still fail."""
    return bool(np.all(np.abs(sums - 1.0) <= 1e-6 + 1e-5))


def _check_rows_normalized(class_probs: np.ndarray) -> None:
    sums = class_probs.sum(axis=-1)
    if not _sums_near_one(sums):
        raise ValueError(
            "class_probs rows must sum to 1 (auto-marginalization of untouched "
            f"objects is invalid otherwise); max deviation {np.abs(sums - 1).max():.3g}"
        )


# ----------------------------------------------------------------------
# per-sample reward values under the three conditioning modes


def reward_at_labels(reward, ctx, labels) -> np.ndarray:
    """(n,) reward evaluated at one sampled class assignment per sample."""
    n = len(ctx.samples)
    rows = np.arange(n)
    total = np.zeros(n)
    for term in reward.terms:
        acc = _base_values(term, ctx, n)
        for obj in term.objects:
            acc = acc * term.element(obj, ctx)[rows, labels[:, obj]]
        total += acc
    return total


def structured_values(reward, ctx, class_probs) -> np.ndarray:
    """(n,) conditional expectation per sample via per-object class sums."""
    n = len(ctx.samples)
    total = np.zeros(n)
    for term in reward.terms:
        acc = _base_values(term, ctx, n)
        for obj in term.objects:
            fac = term.element(obj, ctx)
            acc = acc * np.einsum("ic,ic->i", class_probs[:, obj, :], fac)
        total += acc
    return total


def explicit_values(reward, ctx, labels_enum) -> np.ndarray:
    """(n, n_hypotheses) reward at every joint hypothesis for every sample."""
    n = len(ctx.samples)
    h = len(labels_enum)
    total = np.zeros((n, h))
    for term in reward.terms:
        acc = np.broadcast_to(_base_values(term, ctx, n)[:, None], (n, h)).copy()
        for obj in term.objects:
            fac = term.element(obj, ctx)
            acc *= fac[:, labels_enum[:, obj]]
        total += acc
    return total


# ----------------------------------------------------------------------
# estimators


def estimate_sampled_xc(state_set, rollout, reward, scenario, plan=None) -> EstimateReport:
    """Plain joint-sample estimator: reward at each (X, C) pair."""
    if state_set.labels is None:
        raise ValueError("state_set has no class labels; complete hypotheses first")
    ctx = make_context(state_set, rollout, scenario, plan)
    return _weighted_report(reward_at_labels(reward, ctx, state_set.labels), state_set)


def estimate_structured(
    state_set, rollout, reward, scenario, class_probs, plan=None
) -> EstimateReport:
    """Conditional-expectation estimator using factored per-object sums."""
    class_probs = np.asarray(class_probs, dtype=float)
    _check_rows_normalized(class_probs)
    ctx = make_context(state_set, rollout, scenario, plan)
    return _weighted_report(structured_values(reward, ctx, class_probs), state_set)


def estimate_explicit_c(
    state_set,
    rollout,
    reward,
    scenario,
    class_probs=None,
    joint_probs=None,
    labels_enum=None,
    plan=None,
    max_hypotheses: int = 10_000,
) -> EstimateReport:
    """Brute-force conditional expectation over every joint hypothesis.

    Either factored class_probs (joint built as the per-object product, its
    hypotheses enumerated under the max_hypotheses guard; pass a larger value
    deliberately to run bigger spaces) or an explicit (n, n_hypotheses)
    joint_probs with its labels_enum, already enumerated by the caller.
    """
    if joint_probs is None and class_probs is None:
        raise ValueError("need class_probs or joint_probs")
    if joint_probs is not None and labels_enum is None:
        raise ValueError("joint_probs requires labels_enum")
    ctx = make_context(state_set, rollout, scenario, plan)
    if joint_probs is None:
        labels_enum = enumerate_labels(scenario.n_objects, scenario.n_classes, max_hypotheses)
        class_probs = np.asarray(class_probs, dtype=float)
        _check_rows_normalized(class_probs)
        joint_probs = np.ones((len(state_set), len(labels_enum)))
        for obj in range(scenario.n_objects):
            joint_probs *= class_probs[:, obj, labels_enum[:, obj]]
    elif not _sums_near_one(joint_probs.sum(axis=1)):
        raise ValueError("joint_probs rows must sum to 1")
    values = np.einsum("ih,ih->i", joint_probs, explicit_values(reward, ctx, labels_enum))
    return _weighted_report(values, state_set)


# ----------------------------------------------------------------------
# safety and cost


def _safety_elements(ctx: RewardContext) -> np.ndarray:
    if "safety_elements" not in ctx.cache:
        object_xy = ctx.index.object_xy(ctx.samples)
        ctx.cache["safety_elements"] = _kernels.safety_products(
            ctx.rollout, object_xy, ctx.scenario.unsafe_radius
        )
    return ctx.cache["safety_elements"]


def safety_reward(scenario: Scenario) -> StructuredReward:
    """Probability-of-safety reward: one multiplicative term over all objects,
    the per-object factor being the indicator that every future pose stays
    outside that object's class-dependent unsafe disk."""

    def element(n, ctx):
        return _safety_elements(ctx)[:, n, :]

    return StructuredReward(
        terms=[RewardTerm(objects=tuple(range(scenario.n_objects)), element=element)]
    )


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
    reward: StructuredReward,
    n_samples: int,
    repetitions: int,
    rng: np.random.Generator,
    plan: OpenLoopPlan | None = None,
    n_steps: int | None = None,
    reference_samples: int = 400_000,
    predict_samples: int = 200_000,
) -> dict:
    """Paired comparison of the joint-sample estimator against the
    conditional-expectation estimator on one simulated history.

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
    plan = plan if plan is not None else OpenLoopPlan.empty()

    def explicit_report(sset, rollout):
        joint = belief.conditional_joint_probs(sset.samples)
        return estimate_explicit_c(
            sset,
            rollout,
            reward,
            scenario,
            joint_probs=joint,
            labels_enum=belief.labels_enum,
            plan=plan,
        )

    # reference value from one large exact joint draw
    big = belief.sample(reference_samples, streams.sampler)
    big_roll = rollout_states(big, plan, scenario, streams.sampler)
    ref = estimate_sampled_xc(big, big_roll, reward, scenario, plan)

    err_joint = np.empty(repetitions)
    err_rb = np.empty(repetitions)
    for r in range(repetitions):
        sset = belief.sample(n_samples, streams.sampler)
        rollout = rollout_states(sset, plan, scenario, streams.sampler)
        est_joint = estimate_sampled_xc(sset, rollout, reward, scenario, plan)
        est_rb = explicit_report(sset, rollout)
        err_joint[r] = (est_joint.value - ref.value) ** 2
        err_rb[r] = (est_rb.value - ref.value) ** 2

    diffs = err_joint - err_rb
    gap = float(diffs.mean())
    gap_se = float(diffs.std(ddof=1) / math.sqrt(repetitions))

    # predicted gap: mean conditional variance of the reward, over the state
    pred = belief.sample(predict_samples, streams.sampler)
    pred_roll = rollout_states(pred, plan, scenario, streams.sampler)
    ctx = make_context(pred, pred_roll, scenario, plan)
    joint = belief.conditional_joint_probs(pred.samples)
    values = explicit_values(reward, ctx, belief.labels_enum)
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
