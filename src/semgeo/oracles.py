"""Self-contained consistency checks runnable from the command line.

Every check validates one identity through two independent computation
routes (covariance-form Kalman updates against the information-form graph,
explicit hypothesis enumeration against the factored tables, brute-force
trajectory safety against the per-object product form, and so on).  They are
cheap enough to run before trusting any experiment output, and the test
suite reuses the same implementations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .baselines import AnalyticHybridBelief, verify_weight_recursion
from .belief import HybridBelief, decode_labels, enumerate_labels
from .estimators import (
    OpenLoopPlan,
    RewardTerm,
    StructuredReward,
    estimate_explicit_c,
    estimate_structured,
    is_mse_lower_bound,
    rollout_states,
)
from .gaussian import GaussianFactorGraph
from .samplers import mh_sample, snis_sample
from .scenario import LOG_2PI, Scenario, simulate, trial_streams


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


# ----------------------------------------------------------------------
# oracles reused by the test suite


def kalman_oracle(dim: int, priors, observations):
    """Covariance-form sequential conditioning.

    priors: [(cols, mean, cov)] covering every index exactly once;
    observations: [(cols, A, b, R, z)] applied in order.  Returns
    (mean, cov, sum of predictive log likelihoods); the predictive sum is
    the log evidence of the factor product, since priors integrate to one.
    """
    mean = np.zeros(dim)
    cov = np.zeros((dim, dim))
    for cols, m, c in priors:
        cols = np.asarray(cols)
        mean[cols] = m
        cov[np.ix_(cols, cols)] = c
    loglik = 0.0
    for cols, a, b, r, z in observations:
        cols = np.asarray(cols)
        a = np.atleast_2d(a)
        m_rows = a.shape[0]
        a_full = np.zeros((m_rows, dim))
        a_full[:, cols] = a
        s = a_full @ cov @ a_full.T + r
        resid = np.asarray(z, dtype=float) - (a_full @ mean + b)
        s_inv = np.linalg.inv(s)
        loglik += float(
            -0.5 * m_rows * LOG_2PI
            - 0.5 * np.linalg.slogdet(s)[1]
            - 0.5 * resid @ s_inv @ resid
        )
        gain = cov @ a_full.T @ s_inv
        mean = mean + gain @ resid
        cov = (np.eye(dim) - gain @ a_full) @ cov
        cov = 0.5 * (cov + cov.T)
    return mean, cov, loglik


def random_factor_problem(dim: int, n_factors: int, rng: np.random.Generator):
    """A random well-posed prior+observation sequence over dim states."""
    priors = []
    done = 0
    while done < dim:
        width = int(min(rng.integers(1, 4), dim - done))
        cols = np.arange(done, done + width)
        mean = rng.normal(size=width)
        w = rng.normal(size=(width, width))
        cov = w @ w.T + width * np.eye(width)
        priors.append((cols, mean, cov))
        done += width
    observations = []
    for _ in range(n_factors):
        width = int(rng.integers(1, min(4, dim) + 1))
        cols = np.sort(rng.choice(dim, size=width, replace=False))
        rows = int(rng.integers(1, 4))
        a = rng.normal(size=(rows, width))
        b = rng.normal(size=rows)
        w = rng.normal(size=(rows, rows))
        r = w @ w.T + rows * np.eye(rows)
        z = rng.normal(size=rows)
        observations.append((cols, a, b, r, z))
    return priors, observations


def graph_from_problem(dim: int, priors, observations) -> GaussianFactorGraph:
    g = GaussianFactorGraph(dim)
    for cols, m, c in priors:
        g.add_prior(cols, m, c)
    for cols, a, b, r, z in observations:
        g.add_linear_factor(cols, a, b, r, z)
    return g


def random_structured_reward(
    scenario: Scenario, rng: np.random.Generator, n_terms: int = 3
) -> StructuredReward:
    """Random smooth reward in the structured (sum of products) form.

    Elements are pure functions of the sampled object positions, so repeated
    evaluation is reproducible and the explicit and factored estimators see
    identical factor tables.
    """
    terms = []
    for _ in range(n_terms):
        size = int(rng.integers(1, scenario.n_objects + 1))
        objs = tuple(
            sorted(rng.choice(scenario.n_objects, size=size, replace=False).tolist())
        )
        w = rng.normal(size=(scenario.n_objects, 2))
        phase = rng.normal(size=(scenario.n_objects, scenario.n_classes))

        def element(n, ctx, w=w, phase=phase):
            xy = ctx.index.object_xy(ctx.samples)[:, n, :]
            proj = xy @ w[n]
            return 1.0 + 0.5 * np.sin(proj[:, None] + phase[n][None, :])

        terms.append(RewardTerm(objects=objs, element=element))
    return StructuredReward(terms=terms)


def build_history_beliefs(scenario: Scenario, n_steps: int, seed: int, trial: int = 0):
    """One simulated history with both belief representations updated on it."""
    streams = trial_streams(seed, trial)
    world, history = simulate(scenario, n_steps, streams.world, streams.noise)
    hybrid = HybridBelief.from_scenario(scenario)
    analytic = AnalyticHybridBelief.from_scenario(scenario)
    for action, batch in zip(history.actions, history.batches):
        hybrid = hybrid.update(action, batch)
        analytic = analytic.update(action, batch)
    return world, history, hybrid, analytic, streams


# ----------------------------------------------------------------------
# individual checks


def _check(name, passed, detail="") -> CheckResult:
    return CheckResult(name=name, passed=bool(passed), detail=detail)


def check_codec() -> CheckResult:
    n_objects, n_classes = 3, 4
    labels = enumerate_labels(n_objects, n_classes)
    idx = np.arange(n_classes**n_objects)
    # object 0 is the least significant digit of the joint index
    ok = np.array_equal(labels @ n_classes ** np.arange(n_objects), idx)
    some = np.array([0, 17, 63])
    ok &= np.array_equal(labels[some], decode_labels(some, n_objects, n_classes))
    return _check("codec-roundtrip", ok)


def check_gaussian_oracle(seed: int = 0) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst_m = worst_e = 0.0
    for _ in range(5):
        dim = int(rng.integers(4, 9))
        priors, obs = random_factor_problem(dim, 6, rng)
        g = graph_from_problem(dim, priors, obs)
        mean_o, cov_o, loglik = kalman_oracle(dim, priors, obs)
        mean_g, cov_g = g.posterior_moments()
        worst_m = max(
            worst_m,
            float(np.abs(mean_g - mean_o).max()),
            float(np.abs(cov_g - cov_o).max()),
        )
        worst_e = max(worst_e, abs(g.log_evidence - loglik))
    ok = worst_m < 1e-8 and worst_e < 1e-8
    return _check(
        "gaussian-kalman-evidence", ok, f"moments dev {worst_m:.2e}, evidence dev {worst_e:.2e}"
    )


def check_factorization(scenario: Scenario, seed: int = 0, n_pairs: int = 40) -> CheckResult:
    _, _, hybrid, analytic, streams = build_history_beliefs(scenario, 3, seed)
    samples = hybrid.geo.sample(streams.sampler, n_pairs)
    h_idx = streams.sampler.integers(0, analytic.n_tracked, size=n_pairs)
    log_zg = hybrid.geo.log_evidence
    devs = []
    for x, h in zip(samples, h_idx):
        lhs = analytic.log_unnormalized_joint(x[None, :], int(h))[0]
        rhs = (
            hybrid.log_unnormalized_joint(x, analytic.labels_enum[int(h)][None, :])[0]
            + log_zg
        )
        devs.append(abs(lhs - rhs) / max(abs(lhs), 1.0))
    worst = max(devs)
    return _check("factorization-identity", worst < 1e-12, f"max rel dev {worst:.2e}")


def check_marginal(scenario: Scenario, seed: int = 0, n_states: int = 40) -> CheckResult:
    _, _, hybrid, analytic, streams = build_history_beliefs(scenario, 3, seed)
    samples = hybrid.geo.sample(streams.sampler, n_states)
    lhs = analytic.log_marginal_over_hypotheses(samples)
    rhs = hybrid.log_unnormalized_marginal(samples) + hybrid.geo.log_evidence
    worst = float(np.abs(lhs - rhs).max())
    return _check("marginal-identity", worst < 1e-8, f"max abs dev {worst:.2e}")


def check_class_posterior(scenario: Scenario, seed: int = 0) -> CheckResult:
    _, _, hybrid, analytic, streams = build_history_beliefs(scenario, 3, seed)
    samples = hybrid.geo.sample(streams.sampler, 20)
    factored = hybrid.class_posterior_given_state(samples)
    joint = analytic.conditional_joint_probs(samples)
    worst = 0.0
    for n in range(scenario.n_objects):
        marg = np.zeros((len(samples), scenario.n_classes))
        for c in range(scenario.n_classes):
            marg[:, c] = joint[:, analytic.labels_enum[:, n] == c].sum(axis=1)
        worst = max(worst, float(np.abs(marg - factored[:, n, :]).max()))
    return _check("class-posterior-enumeration", worst < 1e-9, f"max dev {worst:.2e}")


def check_weight_recursion(scenario: Scenario, seed: int = 0) -> CheckResult:
    streams = trial_streams(seed, 0)
    _, history = simulate(scenario, 4, streams.world, streams.noise)
    report = verify_weight_recursion(scenario, history)
    return _check(
        "weight-recursion",
        report["max_deviation"] < 1e-10,
        f"max dev {report['max_deviation']:.2e}",
    )


def check_structured_vs_explicit(scenario: Scenario, seed: int = 0) -> CheckResult:
    _, _, hybrid, _, streams = build_history_beliefs(scenario, 3, seed)
    from .samplers import WeightedStateSet

    samples = hybrid.geo.sample(streams.sampler, 64)
    sset = WeightedStateSet(
        samples=samples,
        log_weights=streams.sampler.normal(size=64),
        index=hybrid.index,
    )
    probs = hybrid.class_posterior_given_state(samples)
    plan = OpenLoopPlan(scenario.actions[:3])
    rollout = rollout_states(sset, plan, scenario, streams.sampler)
    worst = 0.0
    for _ in range(5):
        reward = random_structured_reward(scenario, streams.sampler)
        a = estimate_structured(sset, rollout, reward, scenario, probs).value
        b = estimate_explicit_c(sset, rollout, reward, scenario, class_probs=probs).value
        worst = max(worst, abs(a - b) / max(abs(a), 1.0))
    return _check("structured-vs-explicit", worst < 1e-12, f"max rel dev {worst:.2e}")


def check_safety_identity(scenario: Scenario, seed: int = 0) -> CheckResult:
    _, _, hybrid, _, streams = build_history_beliefs(scenario, 2, seed)
    from .samplers import WeightedStateSet

    n = 128
    samples = hybrid.geo.sample(streams.sampler, n)
    sset = WeightedStateSet(
        samples=samples, log_weights=np.zeros(n), index=hybrid.index
    )
    labels = streams.sampler.integers(0, scenario.n_classes, size=(n, scenario.n_objects))
    plan = OpenLoopPlan(scenario.actions[:4])
    rollout = rollout_states(sset, plan, scenario, streams.sampler)
    poses = rollout.transpose(2, 0, 1)  # (n, steps, 2)
    objects = hybrid.index.object_xy(samples)
    radii = scenario.unsafe_radius[labels]  # (n, n_obj)
    d = np.linalg.norm(
        poses[:, None, :, :] - objects[:, :, None, :], axis=3
    )  # (n, n_obj, steps)
    brute = (~np.any(d <= radii[:, :, None], axis=(1, 2))).astype(float)
    elems = _kernels.safety_products(rollout, objects, scenario.unsafe_radius)
    rows = np.arange(n)[:, None]
    objs = np.arange(scenario.n_objects)[None, :]
    product = elems[rows, objs, labels].prod(axis=1)
    ok = np.array_equal(brute, product)
    return _check("safety-product-identity", ok)


def check_sampler_moments(scenario: Scenario, seed: int = 0) -> CheckResult:
    _, _, hybrid, analytic, streams = build_history_beliefs(scenario, 3, seed)
    pose_cols = hybrid.index.pose_cols(hybrid.k)
    exact = analytic.mixture_mean()[pose_cols]
    n = 4000
    dev = []
    for sset in (
        mh_sample(hybrid, n, streams.sampler),
        snis_sample(hybrid, n, streams.sampler),
    ):
        w = sset.weights
        est = w @ sset.samples[:, pose_cols]
        var = w @ (sset.samples[:, pose_cols] - est) ** 2
        se = np.sqrt(var / max(sset.ess, 1.0))
        dev.append(float(np.max(np.abs(est - exact) / np.maximum(se, 1e-12))))
    worst = max(dev)
    return _check("sampler-moments", worst < 6.0, f"max |z| {worst:.2f} (6.0 limit)")


def check_mse_bound_example() -> CheckResult:
    val = is_mse_lower_bound(
        np.full(4, 0.25), np.full(4, 0.25), np.array([0.0, 1.0, 0.0, 1.0]), 100
    )
    return _check("mse-bound-example", abs(val - 0.01) < 1e-15, f"value {val}")


def run_oracle_checks(scenario: Scenario | None = None, seed: int = 0):
    """Run every check, printing one line each; returns (all_passed, results)."""
    if scenario is None:
        from .harness import load_scenario

        scenario = load_scenario("oracle_small")
    checks = [
        check_codec(),
        check_gaussian_oracle(seed),
        check_factorization(scenario, seed),
        check_marginal(scenario, seed),
        check_class_posterior(scenario, seed),
        check_weight_recursion(scenario, seed),
        check_structured_vs_explicit(scenario, seed),
        check_safety_identity(scenario, seed),
        check_sampler_moments(scenario, seed),
        check_mse_bound_example(),
    ]
    for c in checks:
        status = "ok " if c.passed else "FAIL"
        print(f"[{status}] {c.name}" + (f"  ({c.detail})" if c.detail else ""))
    return all(c.passed for c in checks), checks
