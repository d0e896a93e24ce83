"""Uniform stateful interface over the estimation methods.

Every method consumes the same action/observation stream through update()
and answers plan queries through estimate(), returning safety-probability
and expected-cost reports.  Posterior state samples are cached per time
step so evaluating many candidate plans at one step reuses one draw; future
rollouts are always fresh per plan.

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
    estimate_p_safe,
    estimate_sampled_xc,
    estimate_structured,
    expected_cost,
    rollout_states,
    safety_reward,
)
from .samplers import McmcConfig, WeightedStateSet, mh_sample, snis_sample
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


class _FactoredMethod:
    """Shared machinery for methods backed by the factored hybrid belief."""

    def __init__(self, scenario: Scenario, tag: str, mcmc_config: McmcConfig | None = None):
        self.scenario = scenario
        self.tag = tag
        self.belief = HybridBelief.from_scenario(scenario)
        self.mcmc_config = mcmc_config or McmcConfig()
        self._step_cache = {}

    @property
    def k(self) -> int:
        return self.belief.k

    def update(self, action, batch, rng=None) -> None:
        self.belief = self.belief.update(action, batch)
        self._step_cache = {}

    def pose_mean(self) -> np.ndarray:
        return self.belief.geo.mean[self.belief.index.pose_slice(self.belief.k)]

    def _states(self, n_samples: int, rng) -> tuple[WeightedStateSet, np.ndarray]:
        key = n_samples
        if key not in self._step_cache:
            if self.tag == "mcmc-ours":
                sset = mh_sample(self.belief, n_samples, rng, self.mcmc_config)
            else:
                sset = snis_sample(self.belief, n_samples, rng)
            probs = self.belief.class_posterior_given_state(sset.samples)
            self._step_cache[key] = (sset, probs)
        return self._step_cache[key]

    def estimate(self, plan: OpenLoopPlan, n_samples: int, rng) -> dict:
        sset, probs = self._states(n_samples, rng)
        rollout = rollout_states(sset, plan, self.scenario, rng)
        return {
            "p_safe": estimate_p_safe(sset, rollout, self.scenario, probs, plan),
            "cost": expected_cost(sset, rollout, plan, self.scenario),
        }

    def estimate_reward(self, reward, plan, n_samples, rng) -> EstimateReport:
        sset, probs = self._states(n_samples, rng)
        rollout = rollout_states(sset, plan, self.scenario, rng)
        return estimate_structured(sset, rollout, reward, self.scenario, probs, plan)


class _TheoreticalMethod:
    """Exact Gaussian-sum belief with honest explicit hypothesis sums.

    fast_conditional switches the conditional b[C|X] to the factored table
    route (identical values, linear cost); reserved for untimed reference
    evaluations, never for the timed baseline itself.
    """

    def __init__(self, scenario: Scenario, pruned: bool, fast_conditional: bool = False):
        self.scenario = scenario
        self.pruned = pruned
        self.tag = "theoretical-pruned" if pruned else "theoretical-all-hyp"
        self.belief = AnalyticHybridBelief.from_scenario(scenario)
        self.fast_conditional = fast_conditional
        self.factored = HybridBelief.from_scenario(scenario) if fast_conditional else None
        self._step_cache = {}

    @property
    def k(self) -> int:
        return self.belief.k

    def update(self, action, batch, rng=None) -> None:
        self.belief = self.belief.update(action, batch)
        if self.pruned and self.belief.n_tracked > PRUNE_KEEP:
            self.belief = self.belief.prune(PRUNE_KEEP)
        if self.factored is not None:
            self.factored = self.factored.update(action, batch)
        self._step_cache = {}

    def pose_mean(self) -> np.ndarray:
        return self.belief.mixture_mean()[self.belief.index.pose_slice(self.belief.k)]

    def _states(self, n_samples: int, rng):
        key = n_samples
        if key not in self._step_cache:
            sset = self.belief.sample(n_samples, rng)
            if self.fast_conditional:
                cond = ("factored", self.factored.class_posterior_given_state(sset.samples))
            else:
                cond = ("joint", self.belief.conditional_joint_probs(sset.samples))
            self._step_cache[key] = (sset, cond)
        return self._step_cache[key]

    def _reward_report(self, reward, sset, cond, rollout, plan) -> EstimateReport:
        kind, probs = cond
        if kind == "factored":
            return estimate_structured(
                sset, rollout, reward, self.scenario, probs, plan
            )
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

    def estimate(self, plan: OpenLoopPlan, n_samples: int, rng) -> dict:
        sset, cond = self._states(n_samples, rng)
        rollout = rollout_states(sset, plan, self.scenario, rng)
        return {
            "p_safe": self._reward_report(
                safety_reward(self.scenario), sset, cond, rollout, plan
            ),
            "cost": expected_cost(sset, rollout, plan, self.scenario),
        }

    def estimate_reward(self, reward, plan, n_samples, rng) -> EstimateReport:
        sset, cond = self._states(n_samples, rng)
        rollout = rollout_states(sset, plan, self.scenario, rng)
        return self._reward_report(reward, sset, cond, rollout, plan)


class _ParticleMethod:
    """Per-hypothesis particle filters with explicit hypothesis expectation."""

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
        return self.pf.mixture_mean()[self.pf.index.pose_slice(self.pf.k)]

    def estimate_reward(self, reward, plan, n_samples, rng) -> EstimateReport:
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


class _MapMethod:
    """Point-estimate baseline: all uncertainty collapsed before evaluation."""

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.tag = "gs-map"
        self.belief = HybridBelief.from_scenario(scenario)
        self._step_cache = {}

    @property
    def k(self) -> int:
        return self.belief.k

    def update(self, action, batch, rng=None) -> None:
        self.belief = self.belief.update(action, batch)
        self._step_cache = {}

    def pose_mean(self) -> np.ndarray:
        return self.belief.geo.mean[self.belief.index.pose_slice(self.belief.k)]

    def _point_set(self, n_samples: int) -> WeightedStateSet:
        key = n_samples
        if key not in self._step_cache:
            x_map, labels = gs_map_estimate(self.belief)
            self._step_cache[key] = WeightedStateSet(
                samples=np.tile(x_map, (n_samples, 1)),
                log_weights=np.zeros(n_samples),
                index=self.belief.index,
                labels=np.tile(labels, (n_samples, 1)),
                method=self.tag,
            )
        return self._step_cache[key]

    def estimate_reward(self, reward, plan, n_samples, rng) -> EstimateReport:
        sset = self._point_set(n_samples)
        rollout = rollout_states(sset, plan, self.scenario, rng)
        return estimate_sampled_xc(sset, rollout, reward, self.scenario, plan)

    def estimate(self, plan: OpenLoopPlan, n_samples: int, rng) -> dict:
        sset = self._point_set(n_samples)
        rollout = rollout_states(sset, plan, self.scenario, rng)
        return {
            "p_safe": estimate_sampled_xc(
                sset, rollout, safety_reward(self.scenario), self.scenario, plan
            ),
            "cost": expected_cost(sset, rollout, plan, self.scenario),
        }


def create_method(tag: str, scenario: Scenario, **options):
    """Instantiate a method state by tag; options are method specific
    (mcmc_config, n_particles, fast_conditional)."""
    if tag == "mcmc-ours":
        return _FactoredMethod(scenario, tag, options.get("mcmc_config"))
    if tag == "snis-ours":
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
        return _MapMethod(scenario)
    raise ValueError(f"unknown method tag {tag!r}; known: {', '.join(METHOD_TAGS)}")
