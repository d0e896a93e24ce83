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
            method=self.tag,
        )
        return sset, None

    def _report(self, reward, sset, _, rollout, plan) -> EstimateReport:
        return estimate_sampled_xc(sset, rollout, reward, self.scenario, plan)


class _TheoreticalMethod(_Method):
    """Exact Gaussian-sum belief with honest explicit hypothesis sums.

    fast_conditional switches the conditional b[C|X] to the factored table
    route (the same values to roundoff, linear cost); reserved for untimed
    reference evaluations, never for the timed baseline itself.
    """

    def __init__(self, scenario: Scenario, pruned: bool, fast_conditional: bool = False):
        super().__init__(scenario, "theoretical-pruned" if pruned else "theoretical-all-hyp")
        self.pruned = pruned
        self.belief = AnalyticHybridBelief.from_scenario(scenario)
        self.fast_conditional = fast_conditional
        self.factored = HybridBelief.from_scenario(scenario) if fast_conditional else None

    def _advance(self, action, batch) -> None:
        self.belief = self.belief.update(action, batch)
        if self.pruned and self.belief.n_tracked > PRUNE_KEEP:
            self.belief = self.belief.prune(PRUNE_KEEP)
        if self.fast_conditional:
            self.factored = self.factored.update(action, batch)

    def pose_mean(self) -> np.ndarray:
        return self.belief.mixture_mean()[self.belief.index.pose_slice(self.belief.k)]

    def _draw(self, n_samples: int, rng):
        sset = self.belief.sample(n_samples, rng)
        if self.fast_conditional:
            return sset, self.factored.class_posterior_given_state(sset.samples)
        return sset, self.belief.conditional_joint_probs(sset.samples)

    def _report(self, reward, sset, probs, rollout, plan) -> EstimateReport:
        if self.fast_conditional:
            return estimate_structured(sset, rollout, reward, self.scenario, probs, plan)
        return estimate_explicit_c(
            sset,
            rollout,
            reward,
            self.scenario,
            joint_probs=probs,
            labels_enum=self.belief.labels_enum,
            plan=plan,
            max_hypotheses=max(10_000, self.belief.n_tracked),
        )


class _ParticleMethod:
    """Per-hypothesis particle filters with explicit hypothesis expectation.

    Not a `_Method`: every query draws a fresh state set per hypothesis,
    then a separate mixture draw for cost.  The filter is built from the
    first rng it sees, whether an update's or a query's.
    """

    def __init__(self, scenario: Scenario, pruned: bool, n_particles: int = 500):
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
                self.scenario, rng, n_particles=self._n_particles
            )
            if self.pruned:
                self.pf.tag = "pf-pruned"

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
            method=self.tag,
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


def create_method(tag: str, scenario: Scenario, **options):
    """Instantiate a method state by tag.  Options are method specific:
    n_particles (pf-*) and fast_conditional (theoretical-all-hyp, for the
    untimed reference only)."""
    if tag in ("mcmc-ours", "snis-ours"):
        return _FactoredMethod(scenario, tag)
    if tag == "theoretical-all-hyp":
        return _TheoreticalMethod(
            scenario, pruned=False, fast_conditional=options.get("fast_conditional", False)
        )
    if tag == "theoretical-pruned":
        return _TheoreticalMethod(scenario, pruned=True)
    if tag == "pf-all-hyp":
        return _ParticleMethod(scenario, pruned=False, n_particles=options.get("n_particles", 500))
    if tag == "pf-pruned":
        return _ParticleMethod(scenario, pruned=True, n_particles=options.get("n_particles", 500))
    if tag == "gs-map":
        return _MapMethod(scenario, tag)
    raise ValueError(f"unknown method tag {tag!r}; known: {', '.join(METHOD_TAGS)}")
