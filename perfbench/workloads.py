"""Workload definitions, output checks and end-to-end metrics.

Every workload drives `semgeo.harness.run_experiment` in one process with
`workers=1`, closed loop: the next experiment starts when the last one ends.
A run is a sequence of *units*.  Unit 0 uses the run's seed as the experiment
seed, so on a workload's default seed it reproduces the recorded golden
output; unit j > 0 uses `unit_seed(seed, j)`.

Each workload reports the same end-to-end metric names, with a meaning that
fits what the workload runs (see perfbench/README.md):

- `trials_per_s`: trials completed per second of experiment wall time; a
  planning (trial, method) item counts as one trial;
- `method_ms.<tag>`: mean trial `wall_ms` (plan-table), median timed estimate
  query `wall_ms` (psafe-time), or mean row `wall_ms` at the largest class
  count (class-sweep).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

METHOD_METRICS = ("mcmc-ours", "theoretical-all-hyp")
# Timings are reported at the machine speed where `machine_probe` takes this
# long.  The shared host this was tuned on alternates between phases where
# the probe takes about 0.9 ms and 1.5 ms, a few seconds each, which moved
# raw 30 s run means by up to 30%; scaling each unit by the probes taken
# around and inside it removes most of that.
PROBE_REFERENCE_S = 1.0e-3
# The planner settings of the c09 planning table, except that a trial ends
# after 7 steps: the planning scenario's 6 opening moves and one replan.
# Uncapped trials run 1 to 15 replans, and replans near the goal are cheaper,
# so per-trial figures would depend on how many long trials a seed drew.
PLANNER = {"n_nodes": 40, "k_nearest": 6, "n_candidates": 200, "max_steps": 7}
SUMMARY_WALL_KEYS = ("wall_s", "mean_wall_ms", "wall_slope", "files")


def unit_seed(seed: int, unit: int) -> int:
    """Experiment seed of a run's unit; unit 0 keeps the run's own seed."""
    return seed + 1_000_003 * unit


@dataclass
class Workload:
    name: str
    default_seed: int
    kind: str
    methods: tuple
    # fields passed to ExperimentConfig besides kind, methods and seed
    fields: dict = field(default_factory=dict)
    # the scenario, shipped by name, is resized to this many objects
    resize_objects: int | None = None

    def config_dict(self, seed: int) -> dict:
        return dict(self.fields, kind=self.kind, methods=list(self.methods), seed=seed, trials=1)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="plan-table",
            default_seed=11,
            kind="planning-table",
            # pf-pruned, the fourth c09 method, takes 2.5x as long per replan
            # as the others and would halve the trials per run of the methods
            # measured; psafe-time runs it
            methods=("theoretical-all-hyp", "mcmc-ours", "gs-map"),
            fields={"scenario": "planning", "n_samples": 400, "planner": PLANNER},
        ),
        Workload(
            name="psafe-time",
            default_seed=1108,
            kind="psafe-vs-time",
            methods=("mcmc-ours", "theoretical-all-hyp", "theoretical-pruned", "pf-pruned"),
            fields={
                "scenario": "defaults",
                "n_steps": 4,
                "eval_horizon": 6,
                "n_samples": 200,
                "reference_samples": 100_000,
            },
        ),
        Workload(
            name="class-sweep",
            default_seed=1109,
            kind="rmse-vs-classes",
            methods=("theoretical-all-hyp", "mcmc-ours"),
            fields={
                "scenario": "defaults",
                "sweep": {"n_classes": [2, 4, 8]},
                "reference_samples": 20_000,
            },
            resize_objects=3,
        ),
    )
}


def build_config(workload: Workload, seed: int):
    """Parse a unit's experiment config (the scenario is loaded here)."""
    from semgeo.harness import ExperimentConfig, load_scenario, resize_scenario

    d = workload.config_dict(seed)
    if workload.resize_objects is not None:
        scenario = load_scenario(d["scenario"])
        d["scenario"] = resize_scenario(scenario, n_objects=workload.resize_objects)
    return ExperimentConfig.from_dict(d)


# ----------------------------------------------------------------------
# output gate


def read_rows(path) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def rows_digest(rows: list) -> str:
    """sha256 of the rows with the wall-clock column removed."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for r in rows:
        writer.writerow([v for k, v in r.items() if k != "wall_ms"])
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


def _strip_wall(obj):
    if isinstance(obj, dict):
        return {k: _strip_wall(v) for k, v in obj.items() if k not in SUMMARY_WALL_KEYS}
    if isinstance(obj, list):
        return [_strip_wall(v) for v in obj]
    return obj


def summary_digest(summary: dict) -> str:
    """sha256 of the summary without wall-clock fields and file paths."""
    text = json.dumps(_strip_wall(summary), sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()


# ----------------------------------------------------------------------
# invariants, checked on every unit of every seed


def _unit_interval(text: str) -> bool:
    v = float(text)
    return math.isfinite(v) and 0.0 <= v <= 1.0


def _stream_hash(scenario, seed: int, n_steps: int) -> str:
    """Hash of trial 0's action/observation stream, recomputed from its seed."""
    from semgeo.scenario import simulate, trial_streams

    streams = trial_streams(seed, 0)
    _, history = simulate(scenario, n_steps, streams.world, streams.noise)
    return history.stream_hash()


def check_estimation(cfg, summary: dict, rows: list) -> tuple[int, list]:
    """Items are (sweep value, trial, method) rows groups; returns
    (attempted, failures)."""
    from semgeo.harness import resize_scenario

    failures = []
    sweep = cfg.sweep.get("n_classes", [""])
    per_value = cfg.n_steps if cfg.kind == "psafe-vs-time" else 1
    attempted = len(sweep) * cfg.trials * len(cfg.methods)
    hashes = summary.get("stream_hashes", {})
    for value in sweep:
        if value == "":
            recorded = hashes.get("0")
            scenario = cfg.scenario
        else:
            recorded = hashes.get(str(value), {}).get("0")
            scenario = resize_scenario(cfg.scenario, n_classes=int(value))
        expected = _stream_hash(scenario, cfg.seed, cfg.n_steps)
        for method in cfg.methods:
            grp = [
                r for r in rows
                if r["method"] == method and r["sweep_value"] == str(value)
            ]
            item = f"{cfg.kind}|seed={cfg.seed}|sweep={value}|{method}"
            if recorded != expected:
                failures.append(f"{item}: stream hash {recorded} != {expected}")
            elif len(grp) != per_value:
                failures.append(f"{item}: {len(grp)} rows, expected {per_value}")
            elif not all(
                _unit_interval(r["estimate"]) and _unit_interval(r["reference_value"])
                for r in grp
            ):
                failures.append(f"{item}: estimate or reference outside [0, 1]")
    return attempted, failures


def check_planning(cfg, summary: dict, rows: list) -> tuple[int, list]:
    """One (trial, method) item per method of a single-trial experiment; a
    stopped trial never reaches the goal, and the goal verdict agrees with
    the distance."""
    from semgeo.planner import PlannerConfig

    failures = []
    goal_radius = PlannerConfig(**cfg.planner).goal_radius
    for method in cfg.methods:
        item = f"{cfg.kind}|seed={cfg.seed}|{method}"
        grp = [r for r in rows if r["method"] == method]
        stats = summary["planning"].get(method, {})
        if len(grp) != 1 or stats.get("trials") != 1:
            failures.append(f"{item}: {len(grp)} rows, expected 1")
            continue
        (r,) = grp
        dist = float(r["dist_to_goal"])
        reached = r["reached_goal"] == "1"
        if not (math.isfinite(dist) and dist >= 0 and math.isfinite(float(r["traj_len"]))):
            failures.append(f"{item}: non-finite distance or length")
        elif reached != (dist <= goal_radius):
            failures.append(f"{item}: reached_goal disagrees with dist {dist}")
        elif stats["stop_rate"] == 1.0 and reached:
            failures.append(f"{item}: stopped trial reached the goal")
        elif r["safe_verdict"] not in ("0", "1"):
            failures.append(f"{item}: bad safe verdict {r['safe_verdict']!r}")
    return len(cfg.methods), failures


def check_unit(cfg, summary: dict, rows: list) -> tuple[int, list]:
    if cfg.kind == "planning-table":
        return check_planning(cfg, summary, rows)
    return check_estimation(cfg, summary, rows)


# ----------------------------------------------------------------------
# end-to-end metrics


@dataclass
class Tally:
    """What a run measured, unit by unit.  A unit's slowdown is its mean
    machine-probe time over PROBE_REFERENCE_S (1.0 when speed is not
    sampled); dividing a timing by it gives the timing at reference speed."""

    trials: int = 0
    unit_s: list = field(default_factory=list)  # experiment wall per unit
    unit_slowdown: list = field(default_factory=list)
    method_wall_ms: dict = field(default_factory=dict)  # method -> [row wall_ms]
    method_slowdown: dict = field(default_factory=dict)  # method -> [its unit's]

    def add_unit(self, cfg, wall_s: float, slowdown: float, rows: list) -> None:
        self.unit_s.append(wall_s)
        self.unit_slowdown.append(slowdown)
        per_method = len(cfg.methods) if cfg.kind == "planning-table" else 1
        self.trials += cfg.trials * per_method
        top = max(cfg.sweep["n_classes"]) if "n_classes" in cfg.sweep else None
        for r in rows:
            if top is None or r["sweep_value"] == str(top):
                self.method_wall_ms.setdefault(r["method"], []).append(float(r["wall_ms"]))
                self.method_slowdown.setdefault(r["method"], []).append(slowdown)


def end_to_end(workload: Workload, tally: Tally) -> tuple[dict, dict, dict]:
    """(metric values at reference speed, sample counts, raw values) from a
    run's tally."""
    reference_s = sum(w / s for w, s in zip(tally.unit_s, tally.unit_slowdown))
    values = {"trials_per_s": tally.trials / reference_s}
    raw = {"trials_per_s": tally.trials / sum(tally.unit_s)}
    counts = {"trials_per_s": tally.trials}
    agg = statistics.median if workload.kind == "psafe-vs-time" else statistics.fmean
    for m in METHOD_METRICS:
        walls = tally.method_wall_ms[m]
        slows = tally.method_slowdown[m]
        values[f"method_ms.{m}"] = agg(w / s for w, s in zip(walls, slows))
        raw[f"method_ms.{m}"] = agg(walls)
        counts[f"method_ms.{m}"] = len(walls)
    return values, counts, raw


def machine_probe() -> float:
    """Seconds for a fixed mix of interpreter work and small numpy calls, the
    kind of work semgeo does; none of it is semgeo code."""
    import numpy as np

    a = np.arange(576, dtype=float).reshape(24, 24) / 576.0
    a = a @ a.T + 24.0 * np.eye(24)
    v = np.linspace(0.0, 1.0, 400)
    t0 = time.perf_counter()
    x = 0.0
    for i in range(4000):
        x += i * 0.5
    for _ in range(60):
        np.linalg.cholesky(a)
        np.exp(v).sum()
    return time.perf_counter() - t0


def load_golden(root: Path) -> dict:
    with open(root / "perfbench" / "golden.json", encoding="utf-8") as fh:
        return json.load(fh)
