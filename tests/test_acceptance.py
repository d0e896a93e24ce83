"""End-to-end acceptance gate.

Each test verifies one headline property of the package at the stated
tolerance and prints a single [PASS]/[FAIL] line (run with -s to see them
live).  These are deliberately heavier than the unit tests: statistical
claims get enough repetitions to separate signal from Monte Carlo noise, and
timing claims are measured, not assumed.  Expect the full module to take
several minutes; the planning table dominates.
"""

import math
import subprocess
import sys
import time

import numpy as np
from scipy import stats
from scipy.special import logsumexp

from semgeo import _kernels, estimators
from semgeo.baselines import AnalyticHybridBelief
from semgeo.belief import HybridBelief, enumerate_labels
from semgeo.estimators import (
    OpenLoopPlan,
    estimate_explicit_c,
    estimate_structured,
    factored_joint,
    rao_blackwell_gap,
    rollout_states,
)
from semgeo.gaussian import GaussianFactorGraph
from semgeo.harness import ExperimentConfig, load_scenario, resize_scenario, run_experiment
from semgeo.methods import ExactReference, create_method
from semgeo.oracles import random_structured_reward
from semgeo.samplers import (
    complete_hypotheses,
    mh_sample,
    snis_sample,
    uniform_hypothesis_is,
)
from semgeo.scenario import Scenario, default_alphas, simulate, trial_streams


def report(ok: bool, label: str, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


def random_scenario(rng, n_objects, n_classes, **over) -> Scenario:
    """Small randomized world with objects scattered ahead of the robot."""
    means = rng.uniform([1.5, -2.5], [6.5, 2.5], size=(n_objects, 2))
    fields = dict(
        n_objects=n_objects,
        n_classes=n_classes,
        robot_prior_mean=[0.0, 0.0],
        robot_prior_cov=(0.05 * np.eye(2)).tolist(),
        object_prior_means=means.tolist(),
        object_prior_covs=np.tile(
            rng.uniform(0.1, 0.4) * np.eye(2), (n_objects, 1, 1)
        ).tolist(),
        class_prior=np.full((n_objects, n_classes), 1.0 / n_classes).tolist(),
        sigma2_obs=float(rng.uniform(0.5, 2.0)),
        sigma2_x=float(rng.uniform(0.02, 0.1)),
        alphas=default_alphas(n_classes).tolist(),
        unsafe_radius=np.linspace(0.0, 1.5, n_classes).tolist(),
        goal=[8.0, 0.0],
        actions=np.tile([0.7, 0.05], (10, 1)).tolist(),
        opening_actions=[],
        workspace=[[-2.0, 10.0], [-4.0, 4.0]],
    )
    fields.update(over)
    return Scenario(**fields)


def advance(scenario, n_steps, seed):
    """Simulate a short history and update both belief representations."""
    streams = trial_streams(seed, 0)
    world, history = simulate(scenario, n_steps, streams.world, streams.noise)
    hybrid = HybridBelief.from_scenario(scenario)
    analytic = AnalyticHybridBelief.from_scenario(scenario)
    for action, batch in zip(history.actions, history.batches):
        hybrid = hybrid.update(action, batch)
        analytic = analytic.update(action, batch)
    return hybrid, analytic, history


def test_c01_semantic_factor_factorizes_exactly():
    rng = np.random.default_rng(1101)
    t0 = time.perf_counter()
    worst = 0.0
    for pair in range(200):
        n_obj = int(rng.integers(1, 7))
        n_cls = int(rng.integers(1, 4))
        sc = random_scenario(rng, n_obj, n_cls)
        if pair % 10 == 0:
            hybrid, _, _ = advance(sc, 1, int(rng.integers(1e6)))
        else:
            hybrid = HybridBelief.from_scenario(sc)
        x = hybrid.geo.sample(rng, 1)
        log_phi = hybrid.log_phi(x)[0]
        # brute force: sum the full product expansion over every joint label
        tables = hybrid.class_log_tables(x)[0]
        labels = enumerate_labels(n_obj, n_cls)
        brute = logsumexp(tables[np.arange(n_obj)[None, :], labels].sum(axis=1))
        worst = max(worst, abs(log_phi - brute) / max(1.0, abs(brute)))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-12 and elapsed < 10.0
    report(ok, "01 product-factorization", f"max rel dev {worst:.2e}, {elapsed:.1f}s")


def test_c02_marginal_matches_hypothesis_sum():
    rng = np.random.default_rng(1102)
    worst = 0.0
    for case in range(10):
        n_obj = int(rng.integers(1, 4))
        n_cls = int(rng.integers(1, 4))
        sc = random_scenario(rng, n_obj, n_cls)
        hybrid, analytic, _ = advance(sc, int(rng.integers(1, 4)), 7000 + case)
        x = hybrid.geo.sample(rng, 10)
        lhs = hybrid.log_unnormalized_marginal(x) + hybrid.geo.log_evidence
        rhs = analytic.log_marginal_over_hypotheses(x)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    ok = worst < 1e-8
    report(ok, "02 marginal-identity", f"max log dev {worst:.2e} over 100 states")


def test_c03_structured_estimator_equals_explicit_and_is_faster():
    rng = np.random.default_rng(1103)
    worst = 0.0
    for _ in range(50):
        n_obj = int(rng.integers(2, 9))
        n_cls = int(rng.integers(2, 5))
        sc = random_scenario(rng, n_obj, n_cls)
        reward = random_structured_reward(sc, rng)
        belief = HybridBelief.from_scenario(sc)
        sset = complete_hypotheses(belief, snis_sample(belief, 64, rng), rng)
        rollout = rollout_states(sset, OpenLoopPlan.empty(), sc, rng)
        probs = rng.dirichlet(np.ones(n_cls), size=(64, n_obj))
        a = estimate_structured(sset, rollout, reward, sc, probs)
        labels_enum = enumerate_labels(n_obj, n_cls, 70_000)
        b = estimate_explicit_c(
            sset, rollout, reward, sc, factored_joint(probs, labels_enum), labels_enum
        )
        worst = max(worst, abs(a.value - b.value) / max(1e-12, abs(b.value)))
    # timing at the largest size: 8 objects, 4 classes, 65536 hypotheses
    sc = random_scenario(rng, 8, 4)
    reward = random_structured_reward(sc, rng)
    belief = HybridBelief.from_scenario(sc)
    sset = complete_hypotheses(belief, snis_sample(belief, 200, rng), rng)
    rollout = rollout_states(sset, OpenLoopPlan.empty(), sc, rng)
    probs = rng.dirichlet(np.ones(4), size=(200, 8))
    t_struct = t_expl = np.inf
    for _ in range(3):
        t0 = time.perf_counter()
        estimate_structured(sset, rollout, reward, sc, probs)
        t_struct = min(t_struct, time.perf_counter() - t0)
        t0 = time.perf_counter()
        labels_enum = enumerate_labels(8, 4, 70_000)
        estimate_explicit_c(
            sset, rollout, reward, sc, factored_joint(probs, labels_enum), labels_enum
        )
        t_expl = min(t_expl, time.perf_counter() - t0)
    ratio = t_expl / t_struct
    ok = worst < 1e-12 and ratio >= 10.0
    report(
        ok,
        "03 structured-vs-explicit",
        f"max rel dev {worst:.2e}, speedup {ratio:.0f}x at 65536 hypotheses",
    )


def test_c04_marginalized_estimator_sheds_predicted_variance():
    rng = np.random.default_rng(1104)
    sc = load_scenario("oracle_small")
    reward = random_structured_reward(sc, rng)
    t0 = time.perf_counter()
    out = rao_blackwell_gap(
        sc,
        reward,
        n_samples=150,
        repetitions=500,
        rng=rng,
        n_steps=3,
        reference_samples=200_000,
        predict_samples=100_000,
    )
    elapsed = time.perf_counter() - t0
    band = 3 * math.hypot(out["gap_se"], out["predicted_gap_se"])
    ok = (
        out["mse_rb"] <= out["mse_joint"]
        and abs(out["gap"] - out["predicted_gap"]) <= band
        and elapsed < 300.0
    )
    report(
        ok,
        "04 conditional-expectation-gap",
        f"mse {out['mse_joint']:.2e} -> {out['mse_rb']:.2e}, "
        f"gap {out['gap']:.2e} vs predicted {out['predicted_gap']:.2e} "
        f"(band {band:.2e}), {elapsed:.0f}s",
    )


def _first_label_estimate(sset) -> float:
    w = np.exp(sset.log_weights - logsumexp(sset.log_weights))
    return float(w @ sset.labels[:, 0])


def test_c05_uniform_hypothesis_proposal_degrades_with_class_space():
    # fixed estimand (first object's class), growing joint space: 4, 8, 16.
    # Observations are noise-free constructions so the first object's evidence
    # is identical across sizes; only the hypothesis count changes.
    from semgeo.scenario import ObservationBatch

    rng = np.random.default_rng(1105)
    reps, n_s = 300, 64
    action = np.array([0.7, 0.05])
    mse_u, se_u, mse_c, se_c = [], [], [], []
    for n_obj in (2, 3, 4):
        means = np.array([[2.0 + 1.3 * j, (-1.0) ** j] for j in range(n_obj)])
        sc = random_scenario(
            rng,
            n_obj,
            2,
            object_prior_means=means.tolist(),
            object_prior_covs=np.tile(0.01 * np.eye(2), (n_obj, 1, 1)).tolist(),
            robot_prior_cov=(0.01 * np.eye(2)).tolist(),
            sigma2_obs=0.4,
            sigma2_x=0.02,
            alphas=[0.75, 1.25],
        )
        hybrid = HybridBelief.from_scenario(sc)
        analytic = AnalyticHybridBelief.from_scenario(sc)
        for t in range(1, 5):
            rel = means - t * action[None, :]
            batch = ObservationBatch(
                t=t,
                object_ids=np.arange(n_obj),
                geometric=rel,
                semantic=sc.alphas[1] * rel,
            )
            hybrid = hybrid.update(action, batch)
            analytic = analytic.update(action, batch)
        exact = float(analytic.weights @ analytic.labels_enum[:, 0])
        err_u = np.empty(reps)
        err_c = np.empty(reps)
        for r in range(reps):
            err_u[r] = (
                _first_label_estimate(uniform_hypothesis_is(hybrid, n_s, rng)) - exact
            ) ** 2
            completed = complete_hypotheses(hybrid, mh_sample(hybrid, n_s, rng), rng)
            err_c[r] = (_first_label_estimate(completed) - exact) ** 2
        mse_u.append(err_u.mean())
        se_u.append(err_u.std(ddof=1) / math.sqrt(reps))
        mse_c.append(err_c.mean())
        se_c.append(err_c.std(ddof=1) / math.sqrt(reps))
    growing = all(
        mse_u[i + 1] - mse_u[i] > 2 * math.hypot(se_u[i], se_u[i + 1])
        for i in range(2)
    )
    flat = all(
        abs(mse_c[i + 1] - mse_c[i]) <= 2 * math.hypot(se_c[i], se_c[i + 1])
        for i in range(2)
    )
    ok = growing and flat
    report(
        ok,
        "05 uniform-proposal-blowup",
        f"uniform mse {['%.1e' % m for m in mse_u]}, "
        f"completed mse {['%.1e' % m for m in mse_c]}",
    )


def test_c06_samplers_match_analytic_posterior_and_snis_rate():
    rng = np.random.default_rng(1106)
    reps, n_s = 16, 600
    failures = []
    for case in range(20):
        n_obj = 1 + case % 2
        n_cls = 2 + case % 2
        sc = random_scenario(rng, n_obj, n_cls)
        hybrid, analytic, _ = advance(sc, 2, 900 + case)
        cols = slice(2, 2 + 2 * n_obj)
        exact = analytic.mixture_mean()[cols]
        for sampler in (mh_sample, snis_sample):
            per_run = np.empty((reps, 2 * n_obj))
            for r in range(reps):
                sset = sampler(hybrid, n_s, rng)
                w = np.exp(sset.log_weights - logsumexp(sset.log_weights))
                per_run[r] = w @ sset.samples[:, cols]
            grand = per_run.mean(axis=0)
            se = per_run.std(axis=0, ddof=1) / math.sqrt(reps)
            z = (grand - exact) / np.maximum(se, 1e-12)
            # multivariate analogue of a 3-sigma gate: chi-square at the
            # matching 0.3% tail so the bar tracks dimensionality
            stat = float(z @ z)
            crit = stats.chi2.ppf(1 - 2 * (1 - stats.norm.cdf(3.0)), len(z))
            if stat > crit:
                failures.append((case, sampler.__name__, round(stat, 1)))
    # convergence rate of the importance sampler on one fixed posterior
    sc = random_scenario(rng, 2, 3)
    hybrid, analytic, _ = advance(sc, 2, 880)
    exact = analytic.mixture_mean()[2]
    sizes = (64, 256, 1024, 4096)
    rmse = []
    for n in sizes:
        err = np.empty(120)
        for r in range(120):
            sset = snis_sample(hybrid, n, rng)
            w = np.exp(sset.log_weights - logsumexp(sset.log_weights))
            err[r] = (float(w @ sset.samples[:, 2]) - exact) ** 2
        rmse.append(math.sqrt(err.mean()))
    slope = float(np.polyfit(np.log(sizes), np.log(rmse), 1)[0])
    ok = not failures and abs(slope + 0.5) <= 0.2
    report(
        ok,
        "06 sampler-correctness",
        f"posterior-mean mismatches {failures or 'none'}, snis slope {slope:+.3f}",
    )


def test_c07_pruned_and_point_estimates_plateau():
    rng = np.random.default_rng(1107)
    sc = load_scenario("defaults")
    streams = trial_streams(1107, 0)
    _, history = simulate(sc, 4, streams.world, streams.noise)
    plan = OpenLoopPlan(sc.actions[4:10])
    tags = (
        "theoretical-all-hyp",
        "mcmc-ours",
        "snis-ours",
        "theoretical-pruned",
        "pf-pruned",
        "gs-map",
    )
    methods = {}
    for tag in tags:
        m = create_method(tag, sc)
        for action, batch in zip(history.actions, history.batches):
            m.update(action, batch, rng)
        methods[tag] = m
    reference = ExactReference(sc)
    for action, batch in zip(history.actions, history.batches):
        reference.update(action, batch)
    ref = reference.estimate(plan, 200_000, rng)["p_safe"].value
    reps = 100
    rmse = {}
    for tag, m in methods.items():
        for n_s in (100, 10_000):
            err = np.empty(reps)
            for r in range(reps):
                err[r] = (m.estimate(plan, n_s, rng)["p_safe"].value - ref) ** 2
            rmse[tag, n_s] = math.sqrt(err.mean())
    honest_gain = {
        tag: rmse[tag, 100] / rmse[tag, 10_000]
        for tag in ("theoretical-all-hyp", "mcmc-ours", "snis-ours")
    }
    plateau_change = {
        tag: abs(rmse[tag, 10_000] - rmse[tag, 100]) / rmse[tag, 100]
        for tag in ("theoretical-pruned", "pf-pruned", "gs-map")
    }
    ok = all(g >= 3.0 for g in honest_gain.values()) and all(
        c < 0.30 for c in plateau_change.values()
    )
    report(
        ok,
        "07 bias-plateau",
        f"honest gains {({k: round(v, 1) for k, v in honest_gain.items()})}, "
        f"plateau changes {({k: round(v, 2) for k, v in plateau_change.items()})}",
    )


def test_c08_accuracy_ordering_and_runtime_scaling(tmp_path):
    # accuracy at desk scale
    cfg = ExperimentConfig.from_dict(
        dict(
            kind="psafe-vs-time",
            scenario="defaults",
            methods=["mcmc-ours", "theoretical-all-hyp", "theoretical-pruned", "pf-pruned"],
            trials=100,
            n_steps=4,
            eval_horizon=6,
            n_samples=200,
            reference_samples=100_000,
            seed=1108,
        )
    )
    summary = run_experiment(cfg, tmp_path / "acc")
    rmse = {
        tag: summary["groups"][f"{tag}|sweep=|t=4"]["rmse"] for tag in cfg.methods
    }
    acc_ok = (
        rmse["mcmc-ours"] <= 2.0 * rmse["theoretical-all-hyp"]
        and rmse["theoretical-pruned"] >= 2.0 * rmse["mcmc-ours"]
        and rmse["pf-pruned"] >= 2.0 * rmse["mcmc-ours"]
    )
    # runtime scaling across class counts at three objects
    base = load_scenario("defaults")
    cfg_rt = ExperimentConfig.from_dict(
        dict(
            kind="rmse-vs-classes",
            scenario=resize_scenario(base, n_objects=3).to_dict(),
            methods=["theoretical-all-hyp", "mcmc-ours"],
            trials=3,
            n_steps=4,
            eval_horizon=6,
            n_samples=200,
            reference_samples=20_000,
            sweep={"n_classes": [2, 4, 8]},
            seed=1109,
        )
    )
    summary_rt = run_experiment(cfg_rt, tmp_path / "rt")
    slopes = summary_rt["loglog_slopes"]
    wall_all = slopes["theoretical-all-hyp"]["wall_slope"]
    wall_ours = slopes["mcmc-ours"]["wall_slope"]
    rt_ok = wall_all >= 2.0 and wall_ours <= 1.3
    ok = acc_ok and rt_ok
    report(
        ok,
        "08 ordering-and-scaling",
        f"rmse {({k: round(v, 4) for k, v in rmse.items()})}, "
        f"wall slopes all-hyp {wall_all:+.2f} vs ours {wall_ours:+.2f}",
    )


def test_c08_operation_counts_scale_with_classes(monkeypatch):
    """c08's scaling claim counted rather than timed, so load cannot move
    it: Cholesky factorizations (misses of a graph's cached factor) and
    class-table cells (samples x objects x classes) and exhaustive reward
    terms (samples x hypotheses), at 3 objects and 2, 4 and 8 classes.  The
    methods run by hand, not through the harness, so the reference's exact
    belief stays out of the counts."""
    counts = {"chol": 0, "cells": 0, "terms": 0}
    chol = GaussianFactorGraph._chol
    class_log_tables = _kernels.class_log_tables
    explicit_values = estimators.explicit_values

    def counted_chol(graph):
        counts["chol"] += "chol" not in graph._cache
        return chol(graph)

    def counted_tables(*args):
        out = class_log_tables(*args)
        counts["cells"] += out.size
        return out

    monkeypatch.setattr(GaussianFactorGraph, "_chol", counted_chol)
    def counted_terms(*args):
        out = explicit_values(*args)
        counts["terms"] += out.size
        return out

    monkeypatch.setattr(_kernels, "class_log_tables", counted_tables)
    monkeypatch.setattr(estimators, "explicit_values", counted_terms)

    def phase(fn):
        counts.update(chol=0, cells=0, terms=0)
        fn()
        return counts["chol"], counts["cells"], counts["terms"]

    base = resize_scenario(load_scenario("defaults"), n_objects=3)
    classes = (2, 4, 8)
    seen = {}
    for n_cls in classes:
        sc = resize_scenario(base, n_classes=n_cls)
        streams = trial_streams(1109, 0)
        _, history = simulate(sc, 4, streams.world, streams.noise)
        for tag in ("theoretical-all-hyp", "mcmc-ours"):
            method = create_method(tag, sc)
            rng = streams.sampler

            def updates():
                for action, batch in zip(history.actions, history.batches):
                    method.update(action, batch, rng)

            update = phase(updates)
            query = phase(lambda: method.estimate(OpenLoopPlan(sc.actions[4:10]), 200, rng))
            seen[tag, n_cls] = (update[0], query[0], update[1] + query[1], update[2], query[2])
    # (factorizations in the updates, in the query, class-table cells,
    #  exhaustive terms in the updates, in the query)
    expected = {
        ("theoretical-all-hyp", 2): (32, 0, 0, 0, 1600),
        ("theoretical-all-hyp", 4): (256, 0, 0, 0, 12800),
        ("theoretical-all-hyp", 8): (2048, 0, 0, 0, 102400),
        ("mcmc-ours", 2): (0, 1, 11904, 0, 0),
        ("mcmc-ours", 4): (0, 1, 23808, 0, 0),
        ("mcmc-ours", 8): (0, 1, 47616, 0, 0),
    }

    def slope(tag, i):
        ys = [seen[tag, c][i] for c in classes]
        return float(np.polyfit(np.log(classes), np.log(ys), 1)[0])

    report(
        seen == expected,
        "08 count-scaling",
        f"all-hyp factorization slope {slope('theoretical-all-hyp', 0):+.2f}, "
        f"ours per-query factorization slope {slope('mcmc-ours', 1):+.2f}, "
        f"all-hyp per-query term slope {slope('theoretical-all-hyp', 4):+.2f}, "
        f"ours class-cell slope {slope('mcmc-ours', 2):+.2f}; counts {seen}",
    )


def test_c09_planning_safety_ordering(tmp_path):
    cfg = ExperimentConfig.from_dict(
        dict(
            kind="planning-table",
            scenario="planning",
            methods=["theoretical-all-hyp", "pf-pruned", "mcmc-ours", "gs-map"],
            trials=30,
            n_samples=400,
            seed=11,
            planner={
                "n_nodes": 40,
                "k_nearest": 6,
                "n_candidates": 200,
                "max_steps": 40,
            },
        )
    )
    summary = run_experiment(cfg, tmp_path)
    stats_tbl = summary["planning"]
    n = cfg.trials
    safe = {tag: round(stats_tbl[tag]["safe_rate"] * n) for tag in cfg.methods}

    def p_greater(a, b):
        table = [[a, n - a], [b, n - b]]
        return stats.fisher_exact(table, alternative="greater")[1]

    p_pf = p_greater(safe["mcmc-ours"], safe["pf-pruned"])
    p_map = p_greater(safe["mcmc-ours"], safe["gs-map"])
    gap_pp = abs(safe["mcmc-ours"] - safe["theoretical-all-hyp"]) / n * 100
    ok = (
        safe["mcmc-ours"] >= safe["pf-pruned"]
        and safe["mcmc-ours"] >= safe["gs-map"]
        and p_pf < 0.1
        and p_map < 0.1
        and gap_pp <= 10.0
    )
    report(
        ok,
        "09 planning-safety-ordering",
        f"safe {safe}, p(ours>pf-pruned) {p_pf:.3f}, "
        f"p(ours>gs-map) {p_map:.3f}, gap to exhaustive {gap_pp:.1f}pp",
    )


def test_c10_safety_probability_tracks_reference():
    rng = np.random.default_rng(1110)
    hits = 0
    diffs = []
    for case in range(20):
        n_obj = 1 + case % 3
        n_cls = 2 + case % 3
        sc = random_scenario(rng, n_obj, n_cls, unsafe_radius=np.linspace(0.0, 2.0, n_cls).tolist())
        streams = trial_streams(4000 + case, 0)
        _, history = simulate(sc, 2, streams.world, streams.noise)
        plan = OpenLoopPlan(sc.actions[2:6])
        ours = create_method("mcmc-ours", sc)
        ref = ExactReference(sc)
        for action, batch in zip(history.actions, history.batches):
            ours.update(action, batch, rng)
            ref.update(action, batch)
        est = ours.estimate(plan, 1_000, rng)["p_safe"].value
        ref_val = ref.estimate(plan, 100_000, rng)["p_safe"].value
        diffs.append(abs(est - ref_val))
        hits += diffs[-1] <= 0.03
    ok = hits >= 18
    report(
        ok,
        "10 psafe-vs-reference",
        f"{hits}/20 within 0.03 (max dev {max(diffs):.3f})",
    )


def test_c11_consistency_checks_pass_quickly(child_env):
    # `python -m semgeo.cli` is the console script's documented equivalent
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "semgeo.cli", "oracle-check"],
        capture_output=True,
        text=True,
        env=child_env,
    )
    elapsed = time.perf_counter() - t0
    ok = proc.returncode == 0 and elapsed < 120.0
    report(ok, "11 oracle-check-verb", f"exit {proc.returncode} in {elapsed:.1f}s")
