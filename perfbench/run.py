"""semgeo benchmark: closed-loop experiments through the public harness.

    python3 perfbench/run.py --workload plan-table [--seed N] [--seconds S] [--trace 0|1]

Workloads (perfbench/workloads.py): plan-table, psafe-time, class-sweep.
With --trace 0 the last stdout line is a JSON object with the end-to-end
metrics; with --trace 1 a separate traced run gives per-layer calls and self
times.  The lines before it record the environment, sample counts and the
output gate.  On a workload's default seed the outputs must hash to the
values in perfbench/golden.json; on any seed they must pass the invariants.
Exit status is 0 only when every check passed.
"""

from __future__ import annotations

import os

# Pin BLAS threads before numpy loads, so the run uses one core as measured.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402
import workloads as wl  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60

# Largest self-time layers expected per workload: the top `n` layers by self
# time must all match one of the prefixes.
PREDICTIONS = {
    "plan-table": (2, ("planner.k_shortest_paths", "samplers.bookkeeping")),
    "psafe-time": (1, ("estimators.", "kernels.", "baselines.analytic.sample")),
    "class-sweep": (1, ("gaussian.add_linear_factor",)),
}
# Layers a workload must reach; zero calls means a wrapper is bound wrong.
REQUIRED = {
    "plan-table": ("planner.select_plan", "samplers.bookkeeping", "estimators.rollout_states"),
    "psafe-time": ("harness.reference.estimate", "kernels.safety_products", "samplers.mh_sample"),
    "class-sweep": ("gaussian.add_linear_factor", "baselines.analytic.update"),
}


def fail(msg: str, code: int = 2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_semgeo():
    if not (SRC / "semgeo" / "__init__.py").is_file():
        fail(f"no semgeo sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import semgeo

    if Path(semgeo.__file__).resolve().parent != SRC / "semgeo":
        fail(f"semgeo imported from {semgeo.__file__}, not from {SRC}")
    return semgeo


def measure_setup(workload: str, seed: int, repeats: int = SETUP_REPEATS) -> list:
    """(set-up seconds, machine probe seconds) from fresh processes, one per
    repeat."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    probe = str(Path(__file__).with_name("setup_probe.py"))
    times = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, probe, workload, str(seed)],
            env=env,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=SETUP_TIMEOUT_S,
        )
        if proc.returncode != 0:
            fail(f"set-up probe failed:\n{proc.stderr}")
        setup_s, probe_s = proc.stdout.split()
        times.append((float(setup_s), float(probe_s)))
    return times


def environment(semgeo, seed: int) -> dict:
    import networkx
    import numpy
    import scipy

    from semgeo import _kernels

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "semgeo").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            src_hash.update(str(path.relative_to(SRC)).encode())
            src_hash.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "kernel_backend": _kernels.backend(),
        "openblas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "seed": seed,
        "git_commit": commit,
        "src_sha256": src_hash.hexdigest(),
    }


class Run:
    """One closed-loop run of a workload: units until the time is used."""

    def __init__(self, workload: wl.Workload, seed: int, out_dir: Path, sample_speed: bool):
        from semgeo.harness import run_experiment

        self.run_experiment = run_experiment
        self.workload = workload
        self.seed = seed
        self.out_dir = out_dir
        self.tally = wl.Tally()
        self.attempted = 0
        self.failed = 0
        self.failures: list = []
        self.digests = None  # (rows, summary) sha256 of unit 0
        # machine speed, sampled between units and at untimed points inside them
        self.probes = tracing.UntimedProbe(wl.machine_probe) if sample_speed else None

    def run_unit(self, unit: int) -> float:
        """Run and check one unit; returns its experiment wall seconds."""
        probes = self.probes.samples if self.probes else None
        if probes is not None:
            first_probe = len(probes)
            probes.append(wl.machine_probe())
        cfg = wl.build_config(self.workload, wl.unit_seed(self.seed, unit))
        t0 = time.perf_counter()
        try:
            summary = self.run_experiment(cfg, self.out_dir)
        except Exception:  # the unit's items all count as failed
            n = len(cfg.methods) * len(cfg.sweep.get("n_classes", [0]))
            self.attempted += n
            self.failed += n
            self.failures.append(f"seed={cfg.seed}: raised\n{traceback.format_exc()}")
            return time.perf_counter() - t0
        wall = time.perf_counter() - t0
        slowdown = 1.0
        if probes is not None:
            unit_probes = probes[first_probe:]
            wall -= sum(unit_probes[1:])  # probes inside the experiment are not its work
            slowdown = statistics.fmean(unit_probes) / wl.PROBE_REFERENCE_S
        rows = wl.read_rows(summary["files"]["rows"])
        self.tally.add_unit(cfg, wall, slowdown, rows)
        attempted, failures = wl.check_unit(cfg, summary, rows)
        self.attempted += attempted
        self.failed += len(failures)
        self.failures.extend(failures)
        if unit == 0:
            self.digests = (wl.rows_digest(rows), wl.summary_digest(summary))
        return wall

    def run(self, seconds: float) -> float:
        """Units until `seconds` of experiment wall; returns unit 0's wall."""
        if self.probes:
            self.probes.install()
        try:
            first = elapsed = self.run_unit(0)
            unit = 1
            while elapsed < seconds:
                elapsed += self.run_unit(unit)
                unit += 1
        finally:
            if self.probes:
                self.probes.uninstall()
        return first

    def gate(self, golden: dict) -> dict:
        """Output gate: digests of unit 0, checked on the default seed."""
        rows, summary = self.digests or ("", "")
        out = {"rows_sha256": rows, "summary_sha256": summary, "checked": False}
        ref = golden.get(self.workload.name)
        if ref and self.seed == ref["seed"]:
            out["checked"] = True
            out["match"] = rows == ref["rows_sha256"] and summary == ref["summary_sha256"]
        return out


def end_to_end_metrics(run: Run, setup: list) -> tuple[dict, dict]:
    """(metrics with units, detail) of an untraced run; the detail holds the
    sample count behind each metric, the raw timings and the machine probe."""
    values, counts, raw = wl.end_to_end(run.workload, run.tally)
    values["setup_s"] = statistics.median(t * wl.PROBE_REFERENCE_S / p for t, p in setup)
    counts["setup_s"] = len(setup)
    # ru_maxrss is in KiB on Linux; one process per run keeps workloads apart
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    counts["peak_rss_mb"] = 1
    units = {"setup_s": "s", "peak_rss_mb": "MiB", "trials_per_s": "1/s"}
    metrics = {name: {"value": v, "unit": units.get(name, "ms")} for name, v in values.items()}
    raw["setup_s"] = statistics.median(t for t, _ in setup)
    detail = {
        "samples": counts,
        "raw": raw,
        "probe_ms_mean": 1e3 * statistics.fmean(run.probes.samples),
        "probes": len(run.probes.samples),
    }
    return metrics, detail


def per_layer_metrics(tracer, workload: str, trials: int, overhead: float) -> tuple[dict, dict]:
    """(metrics, report) from the traced run's spans and counters."""
    layers = tracer.layers()
    counters = tracer.counters
    metrics: dict = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    def calls_ms(layer, with_calls=True):
        rec = layers.get(layer, {"calls": 0, "self_ms": 0.0})
        if with_calls:
            put(f"{layer}.calls", rec["calls"], "count")
        put(f"{layer}.ms", rec["self_ms"], "ms")

    for layer in ("planner.build_roadmap", "planner.k_shortest_paths", "planner.select_plan"):
        calls_ms(layer)
    n_ksp = layers.get("planner.k_shortest_paths", {}).get("calls", 0)
    cand = counters.get("planner.candidates", 0)
    put("planner.paths_per_call", counters.get("planner.paths", 0) / n_ksp if n_ksp else 0.0, "count")
    put("planner.admissible_ratio", counters.get("planner.admissible", 0) / cand if cand else 0.0, "ratio")

    for tag in tracing.METHOD_TAGS:
        for op in ("update", "estimate"):
            calls_ms(f"methods.{tag}.{op}")
    for op in ("update", "estimate"):
        layer = f"harness.reference.{op}"
        calls_ms(layer)
        put(f"{layer}.total_ms", layers.get(layer, {}).get("total_ms", 0.0), "ms")

    calls_ms("samplers.mh_sample")
    calls_ms("samplers.snis_sample", with_calls=False)
    n_mh = layers.get("samplers.mh_sample", {}).get("calls", 0)
    put("samplers.mh_acceptance", counters.get("samplers.mh_acceptance_sum", 0) / n_mh if n_mh else 0.0, "ratio")
    calls_ms("samplers.bookkeeping")

    for name in ("rollout_states", "estimate_structured", "estimate_explicit_c",
                 "estimate_sampled_xc", "expected_cost"):
        calls_ms(f"estimators.{name}")
    for layer in tracing.KERNELS:
        calls_ms(layer)
        n = layers.get(layer, {}).get("calls", 0)
        put(f"{layer}.computed_bytes_per_call", counters.get(f"{layer}.bytes", 0) / n if n else 0.0, "B")
    for name in ("update", "class_posterior_given_state", "log_phi"):
        calls_ms(f"belief.{name}")
    calls_ms("baselines.analytic.update")
    put("baselines.analytic.hypotheses_updated",
        counters.get("baselines.analytic.hypotheses_updated", 0), "count")
    for layer in ("baselines.analytic.sample", "baselines.analytic.conditional_joint_probs",
                  "baselines.pf.update"):
        calls_ms(layer, with_calls=False)
    for name in ("add_linear_factor", "with_appended_step", "log_evidence", "sample", "log_density"):
        calls_ms(f"gaussian.{name}")
    for layer in ("harness.emit", "scenario.simulate", "scenario.observe"):
        calls_ms(layer, with_calls=False)

    # self-checks and predictions
    problems = []
    for layer in REQUIRED[workload]:
        if layers.get(layer, {}).get("calls", 0) == 0:
            problems.append(f"{layer} recorded no calls")
    if workload == "plan-table":
        counts = {
            layer: layers.get(layer, {}).get("calls", 0)
            for layer in ("planner.build_roadmap", "planner.k_shortest_paths", "planner.select_plan")
        }
        if len(set(counts.values())) != 1:
            problems.append(f"planner call counts differ: {counts}")
        estimates = sum(
            rec["calls"] for name, rec in layers.items()
            if name.startswith("methods.") and name.endswith(".estimate")
        )
        if estimates < cand:
            problems.append(f"{estimates} method estimates < {cand} candidates evaluated")
    ranking = sorted(layers.items(), key=lambda kv: -kv[1]["self_ms"])
    n_top, prefixes = PREDICTIONS[workload]
    top = [name for name, _ in ranking[:n_top]]
    met = all(any(name.startswith(p) for p in prefixes) for name in top)
    put("trace.self_check", int(not problems), "bool")
    put("trace.prediction_met", int(met), "bool")
    put("trace.overhead_ratio", overhead, "ratio")
    put("trace.trials", trials, "count")
    report = {
        "self_check_problems": problems,
        "prediction": {"top_n": n_top, "expected_prefixes": prefixes, "top": top, "met": met},
        "top_self_ms": {name: round(rec["self_ms"], 3) for name, rec in ranking[:8]},
        "spans": len(tracer.spans),
    }
    return metrics, report


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = wl.WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    semgeo = import_semgeo()
    golden = wl.load_golden(ROOT)
    out_dir = ROOT / ".bench_out" / f"{args.workload}-{seed}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)

    print("env " + json.dumps(environment(semgeo, seed), sort_keys=True), flush=True)
    run = Run(workload, seed, out_dir, sample_speed=not args.trace)
    if args.trace:
        # Tracing overhead: unit 0 traced against unit 0 run again untraced,
        # each scaled by machine-probe times taken just before it.
        tracer = tracing.Tracer()
        probe_traced = statistics.fmean(wl.machine_probe() for _ in range(3))
        tracer.install()
        try:
            traced = run.run(args.seconds)
        finally:
            tracer.uninstall()
        probe_untraced = statistics.fmean(wl.machine_probe() for _ in range(3))
        untraced = Run(workload, seed, out_dir, sample_speed=False).run_unit(0)
        overhead = (traced / probe_traced) / (untraced / probe_untraced) - 1.0
        metrics, report = per_layer_metrics(tracer, args.workload, run.tally.trials, overhead)
        report["overhead"] = {
            "traced_unit0_s": traced,
            "untraced_unit0_s": untraced,
            "probe_ms": [1e3 * probe_traced, 1e3 * probe_untraced],
        }
        print("trace " + json.dumps(report), flush=True)
        problems = report["self_check_problems"]
    else:
        setup = measure_setup(args.workload, seed)
        run.run(args.seconds)
        if not run.tally.trials:
            for f in run.failures:
                print(f"perfbench: failed: {f}", file=sys.stderr)
            fail("no trial completed", code=1)
        metrics, detail = end_to_end_metrics(run, setup)
        with open(out_dir / "samples.json", "w", encoding="utf-8") as fh:
            json.dump(dict(vars(run.tally), setup_s=setup, probe_s=run.probes.samples), fh)
        print("detail " + json.dumps(detail, sort_keys=True), flush=True)
        problems = []

    gate = run.gate(golden)
    print("gate " + json.dumps(gate, sort_keys=True), flush=True)
    for f in run.failures:
        print(f"perfbench: failed: {f}", file=sys.stderr)
    failed = run.failed
    correct = failed == 0 and gate.get("match", True) and not problems
    print(json.dumps({
        "correct": bool(correct),
        "attempted": run.attempted,
        "failed": failed,
        "metrics": metrics,
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
