"""Reference inference baselines over the explicit joint hypothesis space.

AnalyticHybridBelief tracks one Gaussian factor graph per joint class
hypothesis.  Each hypothesis graph absorbs the semantic measurements with
its own class scale factors, so its lazily evaluated log evidence is exactly
the marginal likelihood of that hypothesis; the hypothesis posterior is the
prior times evidence, normalized.  Exponential in object count by design;
guarded, and kept as the exact yardstick the factored belief is checked
against.

HypothesisParticleFilter replaces each per-hypothesis Gaussian with a
particle population; hypothesis weights accumulate the per-step mean
particle likelihood, the particle-filter estimate of the same predictive
term the analytic recursion uses.

Both support pruning to a fixed number of leading hypotheses after the
first update, mirroring common multi-hypothesis practice.  Both return a new
belief from update and prune and leave their input as it was.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import logsumexp

from .belief import HybridBelief, append_step, enumerate_labels, prior_graph
from .gaussian import StackedIndex
from .samplers import WeightedStateSet
from .scenario import LOG_2PI, ObservationBatch, Scenario, ScenarioError

# Hypothesis-count guards: the exact belief keeps one Gaussian graph per
# joint labelling, the particle filter a particle population per labelling.
EXACT_MAX_HYPOTHESES = 1_000_000
PF_MAX_HYPOTHESES = 10_000


def _hypothesis_prior(
    scenario: Scenario, max_hypotheses: int
) -> tuple[np.ndarray, np.ndarray]:
    """(labels_enum, log_prior_c): every joint labelling and its log prior."""
    labels_enum = enumerate_labels(
        scenario.n_objects, scenario.n_classes, max_hypotheses
    )
    log_pc = scenario.log_class_prior()
    log_prior_c = log_pc[np.arange(scenario.n_objects)[None, :], labels_enum].sum(
        axis=1
    )
    return labels_enum, log_prior_c


def _mixture_sample(weights, labels_enum, n, dim, draw, rng, **fields):
    """n joint draws: counts per hypothesis by weight, then draw(h, c) in
    hypothesis order, then one shuffle; fields go to the WeightedStateSet."""
    counts = rng.multinomial(n, weights)
    samples = np.empty((n, dim))
    labels = np.empty((n, labels_enum.shape[1]), dtype=np.int64)
    pos = 0
    for h, c in enumerate(counts):
        if c == 0:
            continue
        samples[pos : pos + c] = draw(h, c)
        labels[pos : pos + c] = labels_enum[h]
        pos += c
    perm = rng.permutation(n)
    return WeightedStateSet(
        samples=np.take(samples, perm, axis=0),
        log_weights=np.zeros(n),
        labels=np.take(labels, perm, axis=0),
        **fields,
    )


def _top_k(log_weights: np.ndarray, keep: int) -> np.ndarray:
    """Indices of the keep largest weights; ties resolved to lower index."""
    order = np.lexsort((np.arange(len(log_weights)), -log_weights))
    return np.sort(order[:keep])


class AnalyticHybridBelief:
    """Exact mixture belief: one Gaussian graph per tracked hypothesis."""

    def __init__(self, scenario, labels_enum, graphs, log_prior_c):
        self.scenario = scenario
        self.labels_enum = labels_enum  # (n_tracked, n_objects) 0-based
        self.graphs = graphs
        self.log_prior_c = log_prior_c
        self._log_w = None

    @classmethod
    def from_scenario(cls, scenario: Scenario) -> "AnalyticHybridBelief":
        labels_enum, log_prior_c = _hypothesis_prior(scenario, EXACT_MAX_HYPOTHESES)
        # one shared step-0 graph: append_step builds new graphs, never
        # mutating its input, so the hypotheses part ways at the first update
        graphs = [prior_graph(scenario)] * len(labels_enum)
        return cls(scenario, labels_enum, graphs, log_prior_c)

    # ------------------------------------------------------------------

    @property
    def n_tracked(self) -> int:
        return len(self.labels_enum)

    @property
    def index(self) -> StackedIndex:
        return self.graphs[0].index

    @property
    def k(self) -> int:
        return self.index.n_steps

    def update(self, action, batch: ObservationBatch) -> "AnalyticHybridBelief":
        if batch.t != self.k + 1:
            raise ScenarioError(f"batch.t={batch.t}, expected {self.k + 1}")
        sc = self.scenario
        new_graphs = [
            append_step(g, action, batch, sc, sc.alphas[self.labels_enum[h]])
            for h, g in enumerate(self.graphs)
        ]
        out = AnalyticHybridBelief(sc, self.labels_enum, new_graphs, self.log_prior_c)
        # Factor every hypothesis graph and form the new weights here, in the
        # filter step, not in the first query: psafe-vs-time rows time the
        # queries alone.
        out.log_weights
        return out

    def log_evidences(self) -> np.ndarray:
        return np.array([g.log_evidence for g in self.graphs])

    @property
    def log_weights(self) -> np.ndarray:
        """Normalized log hypothesis weights: prior times evidence."""
        if self._log_w is None:
            raw = self.log_prior_c + self.log_evidences()
            self._log_w = raw - logsumexp(raw)
        return self._log_w

    @property
    def weights(self) -> np.ndarray:
        return np.exp(self.log_weights)

    def prune(self, keep: int) -> "AnalyticHybridBelief":
        """Keep the leading hypotheses by posterior weight, renormalized;
        self when it tracks no more than keep."""
        if keep < 1:
            raise ValueError("keep must be >= 1")
        if keep >= self.n_tracked:
            return self
        sel = _top_k(self.log_weights, keep)
        return AnalyticHybridBelief(
            self.scenario,
            self.labels_enum[sel],
            [self.graphs[i] for i in sel],
            self.log_prior_c[sel],
        )

    # ------------------------------------------------------------------
    # queries

    def mixture_mean(self) -> np.ndarray:
        means = np.stack([g.mean for g in self.graphs])
        return self.weights @ means

    def pose_mean(self) -> np.ndarray:
        """Mixture mean of the current pose."""
        return self.mixture_mean()[self.index.pose_slice(self.k)]

    def sample(self, n: int, rng: np.random.Generator) -> WeightedStateSet:
        """Exact joint draws: hypothesis by weight, then its Gaussian."""
        return _mixture_sample(
            self.weights, self.labels_enum, n, self.index.dim,
            lambda h, c: self.graphs[h].sample(rng, c), rng, index=self.index,
        )

    def conditional_joint_probs(self, samples: np.ndarray) -> np.ndarray:
        """(n, n_tracked) b[C | X], each row normalized over hypotheses."""
        samples = np.atleast_2d(np.asarray(samples, dtype=float))
        parts = np.empty((len(samples), self.n_tracked))
        lw = self.log_weights
        for h, g in enumerate(self.graphs):
            parts[:, h] = lw[h] + g.log_density(samples)
        return np.exp(parts - logsumexp(parts, axis=1, keepdims=True))

    def log_unnormalized_joint(self, samples: np.ndarray, h: int) -> np.ndarray:
        """log of P0(C_h) times the raw factor product of hypothesis h at X."""
        return self.log_prior_c[h] + self.graphs[h].log_factor_product(samples)

    def log_marginal_over_hypotheses(self, samples: np.ndarray) -> np.ndarray:
        """log sum_C of the unnormalized analytic joint at X (batched)."""
        samples = np.atleast_2d(np.asarray(samples, dtype=float))
        parts = np.stack(
            [self.log_unnormalized_joint(samples, h) for h in range(self.n_tracked)]
        )
        return logsumexp(parts, axis=0)


def verify_weight_recursion(scenario: Scenario, history) -> dict:
    """Check the hypothesis-weight recursion against freshly computed weights.

    Each step multiplies the previous weights by that hypothesis's predictive
    likelihood of the new batch (the per-step evidence increment) over the
    total predictive; the result must match weights recomputed from scratch.
    Returns the largest absolute deviation and the per-step ratio tables.
    """
    belief = AnalyticHybridBelief.from_scenario(scenario)
    log_w = belief.log_prior_c - logsumexp(belief.log_prior_c)
    prev_ev = np.zeros(belief.n_tracked)
    max_dev = 0.0
    steps = []
    for action, batch in zip(history.actions, history.batches):
        belief = belief.update(action, batch)
        ev = belief.log_evidences()
        delta = ev - prev_ev  # log P(z_k | past, C)
        log_pred = logsumexp(log_w + delta)  # log P(z_k | past)
        log_w_rec = log_w + delta - log_pred
        dev = float(np.abs(np.exp(log_w_rec) - belief.weights).max())
        max_dev = max(max_dev, dev)
        steps.append(
            {
                "t": batch.t,
                "deviation": dev,
                "log_ratio": delta - log_pred,
            }
        )
        log_w = belief.log_weights
        prev_ev = ev
    return {"max_deviation": max_dev, "steps": steps}


# ----------------------------------------------------------------------
# particle-filter baseline


def systematic_resample(
    weights: np.ndarray, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Stratified comb resampling; returns n ancestor indices."""
    positions = (rng.random() + np.arange(n)) / n
    return np.searchsorted(np.cumsum(weights), positions).clip(0, len(weights) - 1)


class HypothesisParticleFilter:
    """One particle population per tracked hypothesis, plus Eq.-style
    hypothesis weights accumulated from mean particle likelihoods.

    Particles are full stacked states (trajectory included) so downstream
    estimators treat them exactly like any other sample set.  Resampling is
    systematic and runs every update; the smallest pre-resample particle
    effective sample size is kept as a degeneracy diagnostic.
    """

    def __init__(self, scenario, labels_enum, particles, log_hyp_w, index, diag):
        self.scenario = scenario
        self.labels_enum = labels_enum
        self.particles = particles  # (n_tracked, n_particles, dim)
        self.log_hyp_w = log_hyp_w
        self.index = index
        self.diagnostics = diag

    @classmethod
    def from_scenario(
        cls, scenario: Scenario, rng: np.random.Generator, n_particles: int
    ) -> "HypothesisParticleFilter":
        labels_enum, log_prior_c = _hypothesis_prior(scenario, PF_MAX_HYPOTHESES)
        base = prior_graph(scenario)
        particles = np.stack([base.sample(rng, n_particles) for _ in labels_enum])
        log_hyp_w = log_prior_c - logsumexp(log_prior_c)
        return cls(
            scenario,
            labels_enum,
            particles,
            log_hyp_w,
            base.index,
            {"n_particles": n_particles, "min_particle_ess": float(n_particles)},
        )

    @property
    def n_tracked(self) -> int:
        return len(self.labels_enum)

    @property
    def n_particles(self) -> int:
        return self.particles.shape[1]

    @property
    def k(self) -> int:
        return self.index.n_steps

    @property
    def weights(self) -> np.ndarray:
        return np.exp(self.log_hyp_w)

    def update(self, action, batch: ObservationBatch, rng) -> "HypothesisParticleFilter":
        """A new filter, one step on: propagate, weight, resample."""
        if batch.t != self.k + 1:
            raise ScenarioError(f"batch.t={batch.t}, expected {self.k + 1}")
        sc = self.scenario
        n_hyp, n_p, _ = self.particles.shape
        pose = self.particles[:, :, self.index.pose_slice(self.k)]
        new_pose = (
            pose
            + np.asarray(action, dtype=float)[None, None, :]
            + rng.normal(0.0, math.sqrt(sc.sigma2_x), size=pose.shape)
        )
        objects = self.index.object_xy(self.particles)  # (h, p, n_obj, 2)
        rel = objects - new_pose[:, :, None, :]
        obs_ids = batch.object_ids
        rel_obs = rel[:, :, obs_ids, :]
        alphas = sc.alphas[self.labels_enum[:, obs_ids]]  # (h, m)
        d_geo = batch.geometric[None, None, :, :] - rel_obs
        d_sem = batch.semantic[None, None, :, :] - alphas[:, None, :, None] * rel_obs
        const = -LOG_2PI - math.log(sc.sigma2_obs)
        inv = 0.5 / sc.sigma2_obs
        ll = (
            2 * len(obs_ids) * const
            - inv * np.einsum("hpmk,hpmk->hp", d_geo, d_geo)
            - inv * np.einsum("hpmk,hpmk->hp", d_sem, d_sem)
        )
        # hypothesis weight: += log mean particle likelihood
        log_mean = logsumexp(ll, axis=1) - math.log(n_p)
        log_hyp_w = self.log_hyp_w + log_mean
        log_hyp_w -= logsumexp(log_hyp_w)
        # append the new pose, then resample within each hypothesis
        grown = np.concatenate([self.particles, new_pose], axis=2)
        lw = ll - logsumexp(ll, axis=1, keepdims=True)
        w = np.exp(lw)
        min_ess = float((1.0 / (w**2).sum(axis=1)).min())
        diag = dict(self.diagnostics)
        diag["min_particle_ess"] = min(diag.get("min_particle_ess", float(n_p)), min_ess)
        diag["degenerate"] = min_ess < 0.02 * n_p
        for h in range(n_hyp):
            idx = systematic_resample(w[h], n_p, rng)
            grown[h] = grown[h, idx]
        return HypothesisParticleFilter(
            sc, self.labels_enum, grown, log_hyp_w, self.index.with_appended_step(), diag
        )

    def prune(self, keep: int) -> "HypothesisParticleFilter":
        """Keep the leading hypotheses by weight, renormalized; self when it
        tracks no more than keep."""
        if keep < 1:
            raise ValueError("keep must be >= 1")
        if keep >= self.n_tracked:
            return self
        sel = _top_k(self.log_hyp_w, keep)
        log_w = self.log_hyp_w[sel]
        return HypothesisParticleFilter(
            self.scenario, self.labels_enum[sel], self.particles[sel],
            log_w - logsumexp(log_w), self.index, dict(self.diagnostics),
        )

    def pose_mean(self) -> np.ndarray:
        """Mixture mean of the current pose."""
        mean = self.weights @ self.particles.mean(axis=1)
        return mean[self.index.pose_slice(self.k)]

    def sample(self, n: int, rng: np.random.Generator) -> WeightedStateSet:
        """Joint draws: hypothesis by weight, particle uniformly within it."""
        return _mixture_sample(
            self.weights, self.labels_enum, n, self.index.dim,
            lambda h, c: self.particles[h, rng.integers(0, self.n_particles, size=c)],
            rng, index=self.index, diagnostics=dict(self.diagnostics),
        )

    def hypothesis_state_set(
        self, h: int, n: int, rng: np.random.Generator
    ) -> WeightedStateSet:
        """n uniform-with-replacement draws from hypothesis h's particles."""
        pick = rng.integers(0, self.n_particles, size=n)
        labels = np.tile(self.labels_enum[h], (n, 1))
        return WeightedStateSet(
            samples=self.particles[h, pick],
            log_weights=np.zeros(n),
            index=self.index,
            labels=labels,
        )


# ----------------------------------------------------------------------
# point-estimate baseline


def gs_map_estimate(belief: HybridBelief) -> tuple[np.ndarray, np.ndarray]:
    """Point estimate: the geometric posterior mean state, and per object the
    most probable class given that state (ties to the lowest class id).

    Returns (stacked state, 0-based labels).
    """
    x_map = belief.geo.mean
    table = belief.class_posterior_given_state(x_map[None, :])[0]
    labels = table.argmax(axis=1).astype(np.int64)
    return x_map, labels
