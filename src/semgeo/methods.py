"""Uniform stateful interface over the estimation methods.

Every method consumes the same action/observation stream through update()
and answers plan queries through one entry, estimate(plan, n, rng,
threshold), returning safety-probability and expected-cost reports.  Each
tag is a row of `_TABLE`: its belief, its draw, and whether it prunes.  The
rows with a draw are one class, `_Method`: a draw returns the step's states
with their report, the sum over the classes, once per time step and sample
count, so the candidate plans at one step share it; each plan is rolled
forward afresh, reported, and costed only when it clears the threshold.  The
rows without a draw are the particle filters (`_ParticleMethod`), which draw
per hypothesis on every query and cost every plan.  Every belief's update
(and prune) returns a new belief and leaves its input as it was.

Tags:
    mcmc-ours            factored belief, Metropolis-Hastings state samples
    snis-ours            factored belief, self-normalized importance samples
    theoretical-all-hyp  exact Gaussian-sum belief, every hypothesis
    theoretical-pruned   exact belief pruned to a few leading hypotheses
    pf-all-hyp           per-hypothesis particle filters, every hypothesis
    pf-pruned            particle filters pruned to a few hypotheses
    gs-map               single point estimate (mean state, modal classes)

`ExactReference` (tag "reference", which no config can name) is the
harness's untimed reference: exact-belief draws read through the factored
conditional and the structured estimator, asked with an infinite threshold,
so it computes p_safe and no cost.
"""

from __future__ import annotations

import numpy as np

from .baselines import AnalyticHybridBelief, HypothesisParticleFilter, gs_map_estimate
from .belief import HybridBelief
from .estimators import (
    EstimateReport,
    OpenLoopPlan,
    estimate_explicit_c,
    estimate_sampled_xc,
    estimate_structured,
    expected_cost,
    rollout_states,
    safety_reward,
)
from .samplers import WeightedStateSet, mh_sample, snis_sample
from .scenario import Scenario

PRUNE_KEEP = 3


class _Method:
    """The shared query path: draw -> rollout -> reward report (+ cost when
    p_safe clears the caller's threshold).

    `draw(method, n, rng)` returns (state_set, report), with
    `report(reward, rollout) -> EstimateReport`; `keep`, when set, prunes the
    belief to that many hypotheses after every update.  perfbench's tracer
    wraps the update and estimate defined here, and tells the reference's
    calls (`ExactReference` overrides neither) by `fast_conditional`.
    """

    def __init__(self, scenario: Scenario, tag: str, belief, draw, keep=None):
        self.scenario = scenario
        self.tag = tag
        self.belief = belief
        self._draw = draw
        self._keep = keep
        self._draws = {}

    @property
    def k(self) -> int:
        return self.belief.k

    def update(self, action, batch, rng=None) -> None:
        self._advance(action, batch)
        self._draws = {}

    def _advance(self, action, batch) -> None:
        self.belief = self.belief.update(action, batch)
        if self._keep is not None:
            self.belief = self.belief.prune(self._keep)

    def pose_mean(self) -> np.ndarray:
        return self.belief.pose_mean()

    def _states(self, n_samples: int, rng):
        if n_samples not in self._draws:
            self._draws[n_samples] = self._draw(self, n_samples, rng)
        return self._draws[n_samples]

    def estimate(self, plan: OpenLoopPlan, n_samples: int, rng, threshold: float = 0.0) -> dict:
        """p_safe of one rollout, and its cost from that same rollout when
        p_safe clears `threshold` (select_plan's comparison, so a NaN p_safe
        is never costed); otherwise cost is None.  The cost draws nothing,
        so the threshold leaves the random stream as it is."""
        sset, report = self._states(n_samples, rng)
        rollout = rollout_states(sset, plan, self.scenario, rng)
        p_safe = report(safety_reward(self.scenario), rollout)
        cost = None
        if p_safe.value >= threshold:
            cost = expected_cost(sset, rollout, plan, self.scenario)
        return {"p_safe": p_safe, "cost": cost}


# ----------------------------------------------------------------------
# draws: (method, n, rng) -> (state_set, report).  They look the samplers
# and estimators up by module name when called, never holding the function
# objects, so perfbench's tracer reaches them by rebinding those names.  A
# report must not hold its method: the method caches it, and the cycle would
# keep every finished trial's draws alive until a full garbage collection.


def _structured(m: _Method, sset):
    """The factored conditional b[C|X] of the drawn states, summed by the
    structured estimator."""
    scenario = m.scenario
    probs = m.belief.class_posterior_given_state(sset.samples)
    return sset, lambda reward, rollout: estimate_structured(
        sset, rollout, reward, scenario, probs
    )


def _mh_draw(m: _Method, n_samples: int, rng):
    return _structured(m, mh_sample(m.belief, n_samples, rng))


def _snis_draw(m: _Method, n_samples: int, rng):
    return _structured(m, snis_sample(m.belief, n_samples, rng))


def _exact_draw(m: _Method, n_samples: int, rng):
    """Exact joint draws, summed explicitly over every tracked hypothesis."""
    scenario, labels_enum = m.scenario, m.belief.labels_enum
    sset = m.belief.sample(n_samples, rng)
    joint = m.belief.conditional_joint_probs(sset.samples)
    return sset, lambda reward, rollout: estimate_explicit_c(
        sset, rollout, reward, scenario, joint_probs=joint, labels_enum=labels_enum
    )


def _map_draw(m: _Method, n_samples: int, rng):
    """Point-estimate baseline: all uncertainty collapsed before evaluation."""
    scenario = m.scenario
    x_map, labels = gs_map_estimate(m.belief)
    sset = WeightedStateSet(
        samples=np.tile(x_map, (n_samples, 1)),
        log_weights=np.zeros(n_samples),
        index=m.belief.index,
        labels=np.tile(labels, (n_samples, 1)),
    )
    return sset, lambda reward, rollout: estimate_sampled_xc(sset, rollout, reward, scenario)


def _reference_draw(m: ExactReference, n_samples: int, rng):
    return _structured(m, m.exact.sample(n_samples, rng))


# tag -> (belief class, draw, keep); a row without a draw is a particle
# filter, whose query draws per hypothesis (`_ParticleMethod`)
_TABLE = {
    "theoretical-all-hyp": (AnalyticHybridBelief, _exact_draw, None),
    "theoretical-pruned": (AnalyticHybridBelief, _exact_draw, PRUNE_KEEP),
    "pf-all-hyp": (HypothesisParticleFilter, None, None),
    "pf-pruned": (HypothesisParticleFilter, None, PRUNE_KEEP),
    "mcmc-ours": (HybridBelief, _mh_draw, None),
    "snis-ours": (HybridBelief, _snis_draw, None),
    "gs-map": (HybridBelief, _map_draw, None),
}
METHOD_TAGS = tuple(_TABLE)


class ExactReference(_Method):
    """The harness's untimed reference: states drawn from the exact
    Gaussian-sum belief (`exact`), read through the factored belief's
    conditional b[C|X] and the structured estimator.  The conditional equals
    the explicit hypothesis sum to roundoff at linear cost; it serves
    untimed reference values, never the timed exact baseline, asked with an
    infinite threshold so that no cost is computed.

    With `follow`, the reference adopts that timed all-hypothesis method's
    exact belief after each update instead of updating a copy: the update is
    deterministic, returns a new object and computes everything a query
    reads, so the values are the same.  The step-0 belief stays this
    method's own: its query memos are empty, and filling them on `follow`'s
    object would hand it work it did not pay for.  `follow` must be updated
    before this method at every step.
    """

    # perfbench's tracer tells the reference from the timed methods by this
    # attribute; without it the reference's spans and untimed probes vanish.
    fast_conditional = True

    def __init__(self, scenario: Scenario, follow: _Method | None = None):
        super().__init__(
            scenario, "reference", HybridBelief.from_scenario(scenario), _reference_draw
        )
        self.exact = AnalyticHybridBelief.from_scenario(scenario)
        self._follow = follow

    def _advance(self, action, batch) -> None:
        if self._follow is not None:
            if self._follow.k != self.k + 1:
                raise RuntimeError(
                    f"followed {self._follow.tag} is at step {self._follow.k}, "
                    f"expected {self.k + 1}: update it before the reference"
                )
            self.exact = self._follow.belief
        else:
            self.exact = self.exact.update(action, batch)
        super()._advance(action, batch)

    def pose_mean(self) -> np.ndarray:
        return self.exact.pose_mean()


class _ParticleMethod:
    """Per-hypothesis particle filters with explicit hypothesis expectation.

    Not a `_Method`: every query draws a fresh state set per hypothesis,
    then a separate mixture draw for cost.  The filter is built from the
    first rng it sees, whether an update's or a query's; `keep`, when set,
    prunes it to that many hypotheses after every update.
    """

    def __init__(self, scenario: Scenario, tag: str, keep, n_particles: int):
        self.scenario = scenario
        self.tag = tag
        self._keep = keep
        self._n_particles = n_particles
        self.pf = None

    @property
    def k(self) -> int:
        return 0 if self.pf is None else self.pf.k

    def _ensure(self, rng) -> None:
        if self.pf is None:
            self.pf = HypothesisParticleFilter.from_scenario(
                self.scenario, rng, self._n_particles
            )

    def update(self, action, batch, rng) -> None:
        self._ensure(rng)
        self.pf = self.pf.update(action, batch, rng)
        if self._keep is not None:
            self.pf = self.pf.prune(self._keep)

    def pose_mean(self) -> np.ndarray:
        if self.pf is None:
            return self.scenario.robot_prior_mean.copy()
        return self.pf.pose_mean()

    def estimate(self, plan: OpenLoopPlan, n_samples: int, rng, threshold: float = 0.0) -> dict:
        """p_safe summed over per-hypothesis draws; cost from one mixture draw."""
        self._ensure(rng)
        reward = safety_reward(self.scenario)
        weights = self.pf.weights
        value = var = 0.0
        for h in range(self.pf.n_tracked):
            sset = self.pf.hypothesis_state_set(h, n_samples, rng)
            rollout = rollout_states(sset, plan, self.scenario, rng)
            rep = estimate_sampled_xc(sset, rollout, reward, self.scenario)
            value += weights[h] * rep.value
            var += (weights[h] * rep.std_error) ** 2
        p_safe = EstimateReport(
            value=float(value),
            std_error=float(np.sqrt(var)),
            n_samples=n_samples * self.pf.n_tracked,
            ess=float(n_samples),
            extras=dict(self.pf.diagnostics),
        )
        # Cost is class-free; one mixture draw suffices.  That draw comes from
        # the caller's stream, so skipping it below the threshold would shift
        # every later draw: every candidate is costed, whatever `threshold`.
        sset = self.pf.sample(n_samples, rng)
        rollout = rollout_states(sset, plan, self.scenario, rng)
        return {
            "p_safe": p_safe,
            "cost": expected_cost(sset, rollout, plan, self.scenario),
        }


def create_method(tag: str, scenario: Scenario, n_particles: int = 500):
    """Instantiate a method state by tag.  Every tag accepts n_particles,
    which mirrors the experiment config's top-level value; only the pf-*
    filters use it, as their particle count per hypothesis."""
    if tag not in _TABLE:
        raise ValueError(f"unknown method tag {tag!r}; known: {', '.join(METHOD_TAGS)}")
    belief, draw, keep = _TABLE[tag]
    if draw is None:
        return _ParticleMethod(scenario, tag, keep, n_particles)
    return _Method(scenario, tag, belief.from_scenario(scenario), draw, keep)