"""Uniform stateful interface over the estimation methods.

Every method consumes the same action/observation stream through update()
and answers plan queries through estimate(), returning safety-probability
and expected-cost reports.  All but the particle filters share one query
path (`_Method`): posterior states and their class posterior b[C|X] are
drawn once per time step and sample count, so evaluating many candidate
plans at one step reuses one draw; each plan is rolled forward from them
afresh, then reported as an expectation over the classes, plus the cost.
The particle filters draw per hypothesis on every query instead.

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
conditional and the structured estimator.
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

METHOD_TAGS = (
    "theoretical-all-hyp",
    "theoretical-pruned",
    "pf-all-hyp",
    "pf-pruned",
    "mcmc-ours",
    "snis-ours",
    "gs-map",
)
PRUNE_KEEP = 3


class _Method:
    """The shared query path: draw -> rollout -> reward report (+ cost).

    Subclasses hold a `belief` and supply `_advance(action, batch)`,
    `pose_mean()`, `_draw(n, rng) -> (state_set, conditional)` and
    `_report(reward, state_set, conditional, rollout, plan)`.  They do not
    override update or estimate, which perfbench's tracer wraps on the
    class that defines them.
    """

    def __init__(self, scenario: Scenario, tag: str):
        self.scenario = scenario
        self.tag = tag
        self._draws = {}

    @property
    def k(self) -> int:
        return self.belief.k

    def update(self, action, batch, rng=None) -> None:
        self._advance(action, batch)
        self._draws = {}

    def _states(self, n_samples: int, rng):
        if n_samples not in self._draws:
            self._draws[n_samples] = self._draw(n_samples, rng)
        return self._draws[n_samples]

    def estimate(self, plan: OpenLoopPlan, n_samples: int, rng) -> dict:
        sset, cond = self._states(n_samples, rng)
        rollout = rollout_states(sset, plan, self.scenario, rng)
        return {
            "p_safe": self._report(safety_reward(self.scenario), sset, cond, rollout, plan),
            "cost": expected_cost(sset, rollout, plan, self.scenario),
        }

    def estimate_reward(self, reward, plan, n_samples, rng) -> EstimateReport:
        sset, cond = self._states(n_samples, rng)
        rollout = rollout_states(sset, plan, self.scenario, rng)
        return self._report(reward, sset, cond, rollout, plan)


class _FactoredMethod(_Method):
    """Factored hybrid belief; MH or SNIS state draws, structured estimator."""

    def __init__(self, scenario: Scenario, tag: str):
        super().__init__(scenario, tag)
        self.belief = HybridBelief.from_scenario(scenario)

    def _advance(self, action, batch) -> None:
        self.belief = self.belief.update(action, batch)

    def pose_mean(self) -> np.ndarray:
        return self.belief.geo.mean[self.belief.index.pose_slice(self.belief.k)]

    def _draw(self, n_samples: int, rng):
        sample = mh_sample if self.tag == "mcmc-ours" else snis_sample
        sset = sample(self.belief, n_samples, rng)
        return sset, self.belief.class_posterior_given_state(sset.samples)

    def _report(self, reward, sset, probs, rollout, plan) -> EstimateReport:
        return estimate_structured(sset, rollout, reward, self.scenario, probs, plan)


class _MapMethod(_FactoredMethod):
    """Point-estimate baseline: all uncertainty collapsed before evaluation."""

    def _draw(self, n_samples: int, rng):
        x_map, labels = gs_map_estimate(self.belief)
        sset = WeightedStateSet(
            samples=np.tile(x_map, (n_samples, 1)),
            log_weights=np.zeros(n_samples),
            index=self.belief.index,
            labels=np.tile(labels, (n_samples, 1)),
        )
        return sset, None

    def _report(self, reward, sset, _, rollout, plan) -> EstimateReport:
        return estimate_sampled_xc(sset, rollout, reward, self.scenario, plan)


class _TheoreticalMethod(_Method):
    """Exact Gaussian-sum belief with honest explicit hypothesis sums."""

    def __init__(self, scenario: Scenario, pruned: bool):
        super().__init__(scenario, "theoretical-pruned" if pruned else "theoretical-all-hyp")
        self.pruned = pruned
        self.belief = AnalyticHybridBelief.from_scenario(scenario)

    def _advance(self, action, batch) -> None:
        self.belief = self.belief.update(action, batch)
        if self.pruned and self.belief.n_tracked > PRUNE_KEEP:
            self.belief = self.belief.prune(PRUNE_KEEP)

    def pose_mean(self) -> np.ndarray:
        return self.belief.mixture_mean()[self.belief.index.pose_slice(self.belief.k)]

    def _draw(self, n_samples: int, rng):
        sset = self.belief.sample(n_samples, rng)
        return sset, self.belief.conditional_joint_probs(sset.samples)

    def _report(self, reward, sset, probs, rollout, plan) -> EstimateReport:
        return estimate_explicit_c(
            sset,
            rollout,
            reward,
            self.scenario,
            joint_probs=probs,
            labels_enum=self.belief.labels_enum,
            plan=plan,
        )


class ExactReference(_FactoredMethod):
    """The harness's untimed reference: states drawn from the exact
    Gaussian-sum belief (`exact`), read through the factored belief's
    conditional b[C|X] and the structured estimator.  The conditional equals
    the explicit hypothesis sum to roundoff at linear cost; it serves
    untimed reference values, never the timed exact baseline.

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

    def __init__(self, scenario: Scenario, follow: _TheoreticalMethod | None = None):
        super().__init__(scenario, "reference")
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
        return self.exact.mixture_mean()[self.exact.index.pose_slice(self.exact.k)]

    def _draw(self, n_samples: int, rng):
        sset = self.exact.sample(n_samples, rng)
        return sset, self.belief.class_posterior_given_state(sset.samples)


class _ParticleMethod:
    """Per-hypothesis particle filters with explicit hypothesis expectation.

    Not a `_Method`: every query draws a fresh state set per hypothesis,
    then a separate mixture draw for cost.  The filter is built from the
    first rng it sees, whether an update's or a query's.
    """

    def __init__(self, scenario: Scenario, pruned: bool, n_particles: int):
        self.scenario = scenario
        self.pruned = pruned
        self.tag = "pf-pruned" if pruned else "pf-all-hyp"
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
        self.pf.update(action, batch, rng)
        if self.pruned and self.pf.n_tracked > PRUNE_KEEP:
            self.pf.prune(PRUNE_KEEP)

    def pose_mean(self) -> np.ndarray:
        if self.pf is None:
            return self.scenario.robot_prior_mean.copy()
        return self.pf.mixture_mean()[self.pf.index.pose_slice(self.pf.k)]

    def estimate_reward(self, reward, plan, n_samples, rng) -> EstimateReport:
        self._ensure(rng)
        weights = self.pf.weights
        value = 0.0
        var = 0.0
        for h in range(self.pf.n_tracked):
            sset = self.pf.hypothesis_state_set(h, n_samples, rng)
            rollout = rollout_states(sset, plan, self.scenario, rng)
            rep = estimate_sampled_xc(sset, rollout, reward, self.scenario, plan)
            value += weights[h] * rep.value
            var += (weights[h] * rep.std_error) ** 2
        return EstimateReport(
            value=float(value),
            std_error=float(np.sqrt(var)),
            n_samples=n_samples * self.pf.n_tracked,
            ess=float(n_samples),
            extras=dict(self.pf.diagnostics),
        )

    def estimate(self, plan: OpenLoopPlan, n_samples: int, rng) -> dict:
        p_safe = self.estimate_reward(safety_reward(self.scenario), plan, n_samples, rng)
        # cost is class-free; one mixture draw suffices
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
    if tag in ("mcmc-ours", "snis-ours"):
        return _FactoredMethod(scenario, tag)
    if tag in ("theoretical-all-hyp", "theoretical-pruned"):
        return _TheoreticalMethod(scenario, pruned=tag == "theoretical-pruned")
    if tag in ("pf-all-hyp", "pf-pruned"):
        return _ParticleMethod(scenario, pruned=tag == "pf-pruned", n_particles=n_particles)
    if tag == "gs-map":
        return _MapMethod(scenario, tag)
    raise ValueError(f"unknown method tag {tag!r}; known: {', '.join(METHOD_TAGS)}")
