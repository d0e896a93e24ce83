"""Posterior samplers over the hybrid belief's continuous marginal.

All samplers target (up to normalization) b_g[X] * phi(X) and return a
WeightedStateSet.  Weights are invariant to rescaling any per-object class
table by a positive constant, since such constants shift log phi uniformly
across samples and cancel in self-normalization and in acceptance ratios.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import logsumexp

from . import _kernels
from .belief import HybridBelief, decode_labels, n_hypotheses
from .gaussian import StackedIndex


class DegenerateWeightsError(RuntimeError):
    """Every importance weight underflowed to zero."""


def log_ess(log_weights: np.ndarray) -> float:
    """Effective sample size 1 / sum(w_norm^2), computed in log space."""
    lw = np.asarray(log_weights, dtype=float)
    return float(np.exp(2.0 * logsumexp(lw) - logsumexp(2.0 * lw)))


@dataclass
class WeightedStateSet:
    """Weighted stacked-state samples, optionally paired with class labels."""

    samples: np.ndarray  # (n, dim)
    log_weights: np.ndarray  # (n,) unnormalized
    index: StackedIndex
    labels: np.ndarray | None = None  # (n, n_objects) 0-based
    diagnostics: dict = field(default_factory=dict)
    # Normalized weights and ESS, computed on first read: every report on
    # the set reads them, and a set serves many plans at one step.  Not an
    # init field, so dataclasses.replace starts a copy with an empty memo.
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def weights(self) -> np.ndarray:
        """Self-normalized weights (read-only)."""
        if "weights" not in self._memo:
            w = np.exp(self.log_weights - logsumexp(self.log_weights))
            w.flags.writeable = False
            self._memo["weights"] = w
        return self._memo["weights"]

    @property
    def ess(self) -> float:
        if "ess" not in self._memo:
            self._memo["ess"] = log_ess(self.log_weights)
        return self._memo["ess"]


# Metropolis-Hastings settings; all values surface in diagnostics
BURN_IN = 200
THINNING = 5
CHAINS = 4
STALL_LIMIT = 10_000


def mh_sample(
    belief: HybridBelief,
    n_samples: int,
    rng: np.random.Generator,
) -> WeightedStateSet:
    """Metropolis-Hastings targeting b_g[X] * phi(X).

    The independence proposal draws from the geometric posterior, so the
    acceptance ratio reduces to phi(X') / phi(X); proposals and their
    log phi are precomputed in one batch per chain and the accept/reject
    scan runs over the precomputed values.  Samples carry uniform weights.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    kept_per_chain = -(-n_samples // CHAINS)
    pieces = []
    accepts = 0
    proposals_total = 0
    max_consec = 0
    for _ in range(CHAINS):
        iters = BURN_IN + THINNING * (kept_per_chain - 1) + 1
        draws = belief.geo.sample(rng, iters)
        log_phi = belief.log_phi(draws)
        log_u = np.log(rng.random(iters))
        take, acc, consec = _kernels.mh_scan(log_phi, log_u)
        keep = BURN_IN + THINNING * np.arange(kept_per_chain)
        pieces.append(draws[take[keep]])
        accepts += acc
        proposals_total += iters - 1
        max_consec = max(max_consec, consec)
    samples = np.concatenate(pieces, axis=0)[:n_samples]
    stalled = max_consec > STALL_LIMIT
    if stalled:
        warnings.warn(
            f"MH chain stalled: {max_consec} consecutive rejections "
            f"(limit {STALL_LIMIT})",
            RuntimeWarning,
        )
    diagnostics = {
        "acceptance_rate": accepts / max(proposals_total, 1),
        "burn_in": BURN_IN,
        "thinning": THINNING,
        "chains": CHAINS,
        "max_consecutive_rejections": int(max_consec),
        "stalled": stalled,
    }
    return WeightedStateSet(
        samples=samples,
        log_weights=np.zeros(len(samples)),
        index=belief.index,
        diagnostics=diagnostics,
    )


def snis_sample(
    belief: HybridBelief, n_samples: int, rng: np.random.Generator
) -> WeightedStateSet:
    """Self-normalized importance sampling with the geometric posterior as
    proposal; log weight of a draw is exactly log phi(X)."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    samples = belief.geo.sample(rng, n_samples)
    log_w = belief.log_phi(samples)
    if not np.isfinite(logsumexp(log_w)):
        raise DegenerateWeightsError("all SNIS weights are zero")
    sset = WeightedStateSet(samples=samples, log_weights=log_w, index=belief.index)
    sset.diagnostics["ess"] = sset.ess
    return sset


def complete_hypotheses(
    belief: HybridBelief, state_set: WeightedStateSet, rng: np.random.Generator
) -> WeightedStateSet:
    """Pair every state sample with a class draw from b[c_n | X].

    Classes are drawn independently per object from the factored conditional;
    the state weights are unchanged, so the pairs target the joint belief.
    """
    labels = belief.sample_hypothesis_given_state(state_set.samples, rng)
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
    total = n_hypotheses(sc.n_objects, sc.n_classes)
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
