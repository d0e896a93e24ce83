"""Factorized hybrid belief over a continuous state and per-object classes.

The joint posterior over the stacked continuous state X (start pose, object
positions, trajectory) and the discrete class assignment C factorizes as

    b[C, X]  proportional to  b_g[X] * prod_n  btilde[c_n | X]

where b_g is the Gaussian posterior conditioned on geometric measurements
only, and btilde[c_n | X] = P0(c_n) * prod_t P_Z(z_s | x_t, x_obj_n, c_n)
collects the class prior and every semantic measurement of object n.  The
class-sum potential

    phi(X) = prod_n sum_c btilde[c | X]

turns the unnormalized continuous marginal into b_g[X] * phi(X), so the
joint hypothesis space never has to be enumerated: all class structure is
carried by per-object tables of size n_objects x n_classes.
"""

from __future__ import annotations

import numpy as np
from scipy.special import logsumexp

from . import _kernels
from .gaussian import GaussianFactorGraph, StackedIndex
from .scenario import ObservationBatch, Scenario, ScenarioError

# hypothesis indices are kept representable as signed 64-bit
CODEC_LIMIT = 2**63


class CodecRangeError(OverflowError):
    """Joint hypothesis index would not fit in a signed 64-bit integer."""


def n_hypotheses(n_objects: int, n_classes: int) -> int:
    count = n_classes**n_objects
    if count > CODEC_LIMIT:
        raise CodecRangeError(
            f"{n_classes}**{n_objects} hypotheses exceed the 2**63 index range"
        )
    return count


def decode_labels(idx: np.ndarray, n_objects: int, n_classes: int) -> np.ndarray:
    """(len(idx), n_objects) 0-based labels of int64 hypothesis indices."""
    out = np.empty((len(idx), n_objects), dtype=np.int64)
    for n in range(n_objects):
        out[:, n] = (idx // n_classes**n) % n_classes
    return out


def enumerate_labels(
    n_objects: int, n_classes: int, max_hypotheses: int | None = None
) -> np.ndarray:
    """(n_hypotheses, n_objects) 0-based label matrix, row h = decode(h).

    The guard compares the exact count before any index is formed, so it
    speaks even where the count exceeds the 64-bit codec range.
    """
    count = n_classes**n_objects
    if max_hypotheses is not None and count > max_hypotheses:
        raise ValueError(
            f"{count} hypotheses exceed the guard {max_hypotheses} "
            f"(max_hypotheses={max_hypotheses}); use estimate_structured"
        )
    total = n_hypotheses(n_objects, n_classes)
    return decode_labels(np.arange(total, dtype=np.int64), n_objects, n_classes)


_EYE2 = np.eye(2)
# both relative sensors and the motion model read (second slot - first slot)
_A_REL = np.hstack([-_EYE2, _EYE2])


def prior_graph(scenario: Scenario) -> GaussianFactorGraph:
    """Step-0 graph: the start-pose prior, then each object's prior."""
    index = StackedIndex(scenario.n_objects, 0)
    g = GaussianFactorGraph(index)
    g.add_prior(index.pose_cols(0), scenario.robot_prior_mean, scenario.robot_prior_cov)
    for n in range(scenario.n_objects):
        g.add_prior(
            index.object_cols(n),
            scenario.object_prior_means[n],
            scenario.object_prior_covs[n],
        )
    return g


def append_step(
    graph: GaussianFactorGraph,
    action,
    batch: ObservationBatch,
    scenario: Scenario,
    alphas: np.ndarray | None = None,
) -> GaussianFactorGraph:
    """New graph one step longer: the motion factor, then per observed object
    its geometric factor and, given per-object semantic scales `alphas` (a
    joint hypothesis's scenario.alphas[labels]), its semantic factor.
    alphas=None is the factored belief's geometric-only graph."""
    k = graph.index.n_steps
    g = graph.with_appended_step()
    idx = g.index
    noise = scenario.sigma2_obs * _EYE2
    cols = np.concatenate([idx.pose_cols(k), idx.pose_cols(k + 1)])
    g.add_linear_factor(cols, _A_REL, 0.0, scenario.sigma2_x * _EYE2, action)
    for j, n in enumerate(batch.object_ids):
        cols = np.concatenate([idx.pose_cols(k + 1), idx.object_cols(int(n))])
        g.add_linear_factor(cols, _A_REL, 0.0, noise, batch.geometric[j])
        if alphas is not None:
            g.add_linear_factor(
                cols, alphas[int(n)] * _A_REL, 0.0, noise, batch.semantic[j]
            )
    return g


class HybridBelief:
    """Gaussian geometric posterior plus per-object semantic evidence.

    Immutable by convention: update() returns a new belief sharing nothing
    mutable with its parent.  evidence[n] holds object n's semantic
    measurements in arrival order: an int64 array of the observing pose's
    first column (m_n,) and the 2D values (m_n, 2).  The class-table kernel
    sums each object's log likelihoods in that order, so it fixes the
    floating-point result.
    """

    def __init__(self, scenario: Scenario, geo: GaussianFactorGraph, evidence: tuple):
        self.scenario = scenario
        self.geo = geo
        self.evidence = evidence

    # ------------------------------------------------------------------

    @classmethod
    def from_scenario(cls, scenario: Scenario) -> "HybridBelief":
        empty = (np.empty(0, dtype=np.int64), np.empty((0, 2)))
        return cls(scenario, prior_graph(scenario), (empty,) * scenario.n_objects)

    @property
    def index(self) -> StackedIndex:
        return self.geo.index

    @property
    def k(self) -> int:
        return self.index.n_steps

    def pose_mean(self) -> np.ndarray:
        """Posterior mean of the current pose."""
        return self.geo.mean[self.index.pose_slice(self.k)]

    def update(self, action: np.ndarray, batch: ObservationBatch) -> "HybridBelief":
        """Condition on one motion step and its observation batch."""
        if batch.t != self.k + 1:
            raise ScenarioError(
                f"batch.t={batch.t}, expected {self.k + 1} for a belief at k={self.k}"
            )
        sc = self.scenario
        geo = append_step(self.geo, action, batch, sc)
        col = geo.index.pose_slice(batch.t).start
        evidence = list(self.evidence)
        for j, n in enumerate(batch.object_ids):
            cols, z = evidence[n]
            evidence[n] = (np.append(cols, col), np.concatenate([z, batch.semantic[j : j + 1]]))
        return HybridBelief(sc, geo, tuple(evidence))

    # ------------------------------------------------------------------
    # class tables and derived quantities

    def class_log_tables(self, samples: np.ndarray) -> np.ndarray:
        """(ns, n_objects, n_classes) log btilde[c_n | X] per sample."""
        samples = np.atleast_2d(np.asarray(samples, dtype=float))
        sc = self.scenario
        return _kernels.class_log_tables(
            samples,
            self.index,
            self.evidence,
            sc.log_class_prior(),
            sc.alphas,
            sc.sigma2_obs,
        )

    def log_phi(self, samples: np.ndarray) -> np.ndarray:
        """log phi(X) = sum_n logsumexp_c of the class table, per sample."""
        return logsumexp(self.class_log_tables(samples), axis=2).sum(axis=1)

    def log_unnormalized_marginal(self, samples: np.ndarray) -> np.ndarray:
        """log of b_g[X] * phi(X), the unnormalized continuous marginal."""
        samples = np.atleast_2d(np.asarray(samples, dtype=float))
        return self.geo.log_density(samples) + self.log_phi(samples)

    def class_posterior_given_state(self, samples: np.ndarray) -> np.ndarray:
        """Row-stochastic (ns, n_objects, n_classes) table of b[c_n | X]."""
        tables = self.class_log_tables(samples)
        # the class max as a running maximum over the class slices: exact,
        # and a pass over samples rather than a reduction over 2-8 classes
        top = tables[:, :, 0].copy()
        for c in range(1, tables.shape[2]):
            np.maximum(top, tables[:, :, c], out=top)
        tables -= top[:, :, None]
        np.exp(tables, out=tables)
        tables /= tables.sum(axis=2, keepdims=True)
        return tables

    def sample_hypothesis_given_state(
        self, samples: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Draw labels (ns, n_objects) from the per-object conditionals."""
        probs = self.class_posterior_given_state(samples)
        cdf = np.cumsum(probs, axis=2)
        u = rng.random(size=probs.shape[:2])
        labels = (u[:, :, None] > cdf).sum(axis=2)
        return np.minimum(labels, self.scenario.n_classes - 1).astype(np.int64)

    def log_unnormalized_joint(self, samples: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """log of b_g[X] * prod_n btilde[labels_n | X] (labels 0-based)."""
        samples = np.atleast_2d(np.asarray(samples, dtype=float))
        labels = np.atleast_2d(np.asarray(labels, dtype=np.int64))
        tables = self.class_log_tables(samples)
        rows = np.arange(samples.shape[0])[:, None]
        objs = np.arange(self.scenario.n_objects)[None, :]
        picked = tables[rows, objs, labels].sum(axis=1)
        return self.geo.log_density(samples) + picked
