"""The benchmark's output gate, run as the benchmark runs it.

Each workload's traced run must exit 0, match the golden digests on its
default seed and pass the tracer's self-check; its untraced run on a seed
the digests do not pin must pass the invariants; perfbench's own self-test
must pass.  The scripts run from the repository root and only read
perfbench/ (their outputs go to the ignored .bench_out/).  The tracer's
contract with the method classes, and its reach into every method's draw,
are checked in process.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from semgeo.estimators import OpenLoopPlan
from semgeo.harness import ExperimentConfig, run_experiment
from semgeo.methods import METHOD_TAGS, ExactReference, _Method, create_method

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("plan-table", "psafe-time", "class-sweep")


def run_script(*args):
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, capture_output=True, text=True, timeout=900
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_matches_golden(workload):
    proc = run_script("perfbench/run.py", "--workload", workload, "--seconds", "0", "--trace", "1")
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.splitlines()
    gate = json.loads(next(line for line in lines if line.startswith("gate "))[5:])
    assert gate["match"] is True
    result = json.loads(lines[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert result["metrics"]["trace.self_check"]["value"] == 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_on_an_unpinned_seed(workload):
    proc = run_script(
        "perfbench/run.py", "--workload", workload, "--seed", "3101", "--seconds", "0"
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.splitlines()
    gate = json.loads(next(line for line in lines if line.startswith("gate "))[5:])
    assert gate["checked"] is False
    result = json.loads(lines[-1])
    assert result["correct"] is True and result["failed"] == 0


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the class is built
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def load_tracing():
    return load_perfbench("tracing")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_invariants_hold_on_unpinned_seeds(workload, tmp_path):
    """Unit 0 of the seeds the pair records run (3101-3110) passes the
    benchmark's invariants in process.  No golden digest pins these seeds,
    so a failed check or a raised unit would otherwise surface only as a
    benchmark run that exits 1.  class-sweep's config is built through
    resize_scenario and Scenario.from_dict, and its run resizes again at
    each class count; it checks one item per (class count, method)."""
    wl = load_perfbench("workloads")
    for seed in range(3101, 3111):
        cfg = wl.build_config(wl.WORKLOADS[workload], seed)
        summary = run_experiment(cfg, tmp_path)
        rows = wl.read_rows(summary["files"]["rows"])
        attempted, failures = wl.check_unit(cfg, summary, rows)
        items = len(cfg.methods) * len(cfg.sweep.get("n_classes", [None]))
        assert attempted == items and failures == [], (seed, failures)


def test_tracer_tells_the_reference_apart(oracle_small):
    tracing = load_tracing()
    assert tracing.is_reference(ExactReference(oracle_small))
    for tag in METHOD_TAGS:
        assert not tracing.is_reference(create_method(tag, oracle_small))


# layers each method's update and query must reach, beside its own span
DRAW_LAYERS = {
    "mcmc-ours": ("samplers.mh_sample", "estimators.estimate_structured"),
    "snis-ours": ("samplers.snis_sample", "estimators.estimate_structured"),
    "theoretical-all-hyp": ("baselines.analytic.sample", "estimators.estimate_explicit_c"),
    "theoretical-pruned": ("baselines.analytic.sample", "estimators.estimate_explicit_c"),
    "gs-map": ("estimators.estimate_sampled_xc",),
    "pf-all-hyp": ("baselines.pf.update", "estimators.estimate_sampled_xc"),
    "pf-pruned": ("baselines.pf.update", "estimators.estimate_sampled_xc"),
    "reference": ("baselines.analytic.sample", "estimators.estimate_structured"),
}


@pytest.mark.parametrize("tag", [*METHOD_TAGS, "reference"])
def test_tracer_reaches_every_draw(tag, oracle_small, seeded_history):
    """A sampler or estimator the methods reach under a name the tracer
    cannot rebind would drop out of the per-layer metrics unnoticed."""
    _, history, _, _, _ = seeded_history
    tracing = load_tracing()
    if tag == "reference":
        method = ExactReference(oracle_small)
    else:
        method = create_method(tag, oracle_small)
    rng = np.random.default_rng(5)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for action, batch in zip(history.actions[:2], history.batches[:2]):
            method.update(action, batch, rng)
        method.estimate(OpenLoopPlan(oracle_small.actions[2:5]), 50, rng)
    finally:
        tracer.uninstall()
    layers = tracer.layers()
    own = "harness.reference.estimate" if tag == "reference" else f"methods.{tag}.estimate"
    for layer in (own, *DRAW_LAYERS[tag]):
        assert layers.get(layer, {}).get("calls", 0) > 0, layer


@pytest.mark.parametrize(
    "methods", [["theoretical-all-hyp", "mcmc-ours"], ["mcmc-ours"]], ids=["follow", "own"]
)
def test_untimed_probes_run_before_each_reference_update(tmp_path, methods):
    """One probe per world draw and one per reference update, whether or
    not the reference follows a timed exact belief; the benchmark subtracts
    them from the timed wall."""
    tracing = load_tracing()
    cfg = ExperimentConfig.from_dict(
        dict(
            kind="psafe-vs-time",
            scenario="oracle_small",
            methods=methods,
            trials=2,
            n_steps=3,
            eval_horizon=2,
            n_samples=20,
            reference_samples=200,
        )
    )
    probes = tracing.UntimedProbe(lambda: 0.0)
    probes.install()
    try:
        run_experiment(cfg, tmp_path)
    finally:
        probes.uninstall()
    assert len(probes.samples) == cfg.trials * (cfg.n_steps + 1)


@pytest.mark.parametrize(
    "methods", [["theoretical-all-hyp", "mcmc-ours"], ["mcmc-ours"]], ids=["follow", "own"]
)
def test_tracer_wraps_the_reference_pair_once(tmp_path, monkeypatch, methods):
    """ExactReference inherits update and estimate from _Method, so the
    tracer wraps the pair once, on _Method: each reference call is one
    harness.reference span, and no timed method's span counts it."""
    tracing = load_tracing()
    classes = tracing.method_classes()
    assert _Method in classes and ExactReference not in classes
    cfg = ExperimentConfig.from_dict(
        dict(
            kind="psafe-vs-time",
            scenario="oracle_small",
            methods=methods,
            trials=2,
            n_steps=3,
            eval_horizon=2,
            n_samples=20,
            reference_samples=200,
        )
    )
    calls = {"update": 0, "estimate": 0}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # counted on the reference's class alone, around the traced pair
        for op in calls:
            orig = getattr(ExactReference, op)

            def counted(*args, _op=op, _orig=orig, **kwargs):
                calls[_op] += 1
                return _orig(*args, **kwargs)

            monkeypatch.setattr(ExactReference, op, counted)
        run_experiment(cfg, tmp_path)
    finally:
        monkeypatch.undo()
        tracer.uninstall()
    layers = tracer.layers()
    per_run = cfg.trials * cfg.n_steps
    assert calls == {"update": per_run, "estimate": per_run}
    for op in calls:
        assert layers[f"harness.reference.{op}"]["calls"] == per_run
        for tag in methods:
            assert layers[f"methods.{tag}.{op}"]["calls"] == per_run


def test_benchmark_selftest():
    proc = run_script("perfbench/selftest.py")
    assert proc.returncode == 0, proc.stderr[-2000:]
