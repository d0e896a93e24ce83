"""Experiment harness: config parsing, trial loops, metrics, oracle checks.

Every experiment runs in the calling process, one trial after another in
config order (for planning tables, trial outer and method inner); a
config's `workers` must be 1.  The four estimation kinds run one trial
loop, `_estimation_trial`: they differ only in where they query (after
every step for psafe-vs-time, after the last step for the sweeps), in the
sample counts queried (the sweep's for rmse-vs-samples) and in the
scenario (resized per value for the class and object sweeps).  A row's
wall_ms times the method's whole estimate call: the p_safe the row
reports and the expected cost it does not (for pf-* that cost makes its
own mixture draw and rollout).  On a resized scenario it also counts that
method's summed update time, since update cost is what grows with the
class and object counts.

Fairness contract: within a trial every method consumes the byte-identical
action/observation stream, generated once from the trial's noise substream;
the stream hash is recorded in the summary.  Reference values come from
`methods.ExactReference`: the exact Gaussian-sum belief sampled at a large
sample count (its conditional taken through the factored-table route, which
tests check agrees with the explicit hypothesis sum to 1e-9), never from the
ground-truth world; its estimate computes p_safe alone, with no cost.
When a trial runs the timed `theoretical-all-hyp` method, the reference
follows it, adopting that method's belief after each of its updates instead
of building the same belief again; the values are bit-identical.  The
sharing goes one way only: a timed method never shares work with another
method or with the reference, so every row's wall_ms measures that method's
own work.

Emitted metric rows share one schema across experiment kinds:
trial, time_step, method, estimate, reference_value, squared_error,
wall_ms, n_samples, sweep_value.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import astuple, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import _kernels
from .baselines import EXACT_MAX_HYPOTHESES, PF_MAX_HYPOTHESES
from .estimators import OpenLoopPlan
from .methods import METHOD_TAGS, ExactReference, create_method
from .planner import PlannerConfig, run_planning_trial
from .scenario import (
    Scenario,
    ScenarioError,
    default_alphas,
    simulate,
    trial_streams,
)

ESTIMATION_KINDS = ("psafe-vs-time",)
BENCHMARK_KINDS = ("rmse-vs-samples", "rmse-vs-classes", "rmse-vs-objects")
PLANNING_KINDS = ("planning-table",)
ALL_KINDS = ESTIMATION_KINDS + BENCHMARK_KINDS + PLANNING_KINDS

PLANNING_COLUMNS = (
    "trial",
    "method",
    "safe_verdict",
    "reached_goal",
    "dist_to_goal",
    "traj_len",
    "wall_ms",
)


# integer config fields and their smallest valid values (None: any integer)
_INT_MINIMA = {
    "trials": 1,
    "n_steps": 0,
    "n_samples": 1,
    "reference_samples": 1,
    "eval_horizon": 0,
    "seed": 0,
    "workers": None,
    "n_particles": 1,
}


# the sweep key each swept kind runs over; its values are counts >= 1
_SWEEP_KEYS = {
    "rmse-vs-samples": "n_samples",
    "rmse-vs-classes": "n_classes",
    "rmse-vs-objects": "n_objects",
}
# the swept kinds that run every value on a resized scenario
_RESIZE_KINDS = ("rmse-vs-classes", "rmse-vs-objects")


class ConfigError(ValueError):
    """Invalid experiment configuration."""


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    return _is_number(value) and math.isfinite(value)


# the PlannerConfig fields a config's `planner` object may set (the harness
# fills n_samples and n_particles from the top level), each with its rule
_PLANNER_RULES = {
    "n_nodes": ("an integer >= 0", lambda v: _is_int(v) and v >= 0),
    "k_nearest": ("an integer >= 1", lambda v: _is_int(v) and v >= 1),
    "n_candidates": ("an integer >= 1", lambda v: _is_int(v) and v >= 1),
    "max_step": ("a finite number > 0", lambda v: _is_finite(v) and v > 0),
    "safety_threshold": ("a number in [0, 1]", lambda v: _is_number(v) and 0 <= v <= 1),
    "goal_radius": ("a finite number >= 0", lambda v: _is_finite(v) and v >= 0),
    "max_steps": ("an integer >= 0", lambda v: _is_int(v) and v >= 0),
}


@dataclass
class MetricRow:
    trial: int
    time_step: int
    method: str
    estimate: float
    reference_value: float
    squared_error: float
    wall_ms: float
    n_samples: int
    sweep_value: object = ""


METRIC_COLUMNS = tuple(f.name for f in fields(MetricRow))


def load_scenario(spec) -> Scenario:
    """Resolve a scenario from a dict, a shipped name, or a file path."""
    if isinstance(spec, Scenario):
        return spec
    if isinstance(spec, dict):
        return Scenario.from_dict(spec)
    if isinstance(spec, str):
        from importlib import resources

        packaged = resources.files("semgeo").joinpath(f"scenarios/{spec}.json")
        if packaged.is_file():
            return Scenario.from_dict(json.loads(packaged.read_text()))
        path = Path(spec)
        if path.is_file():
            try:
                return Scenario.from_json(path)
            except (OSError, json.JSONDecodeError) as exc:
                raise ConfigError(f"cannot read scenario {path}: {exc}") from exc
        raise ConfigError(f"unknown scenario {spec!r} (not shipped, not a file)")
    raise ConfigError(f"cannot interpret scenario spec of type {type(spec).__name__}")


@dataclass
class ExperimentConfig:
    kind: str
    scenario: Scenario
    methods: tuple
    trials: int = 20
    n_steps: int = 4
    n_samples: int = 200
    reference_samples: int = 100_000
    eval_horizon: int = 6
    sweep: dict = field(default_factory=dict)
    seed: int = 0
    out: str = "results"
    workers: int = 1  # only 1 is valid; kept because every summary echoes it
    n_particles: int = 500
    planner: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        if not isinstance(d, dict):
            raise ConfigError(f"config must be an object, got {type(d).__name__}")
        d = dict(d)
        kind = d.pop("kind", None)
        if kind not in ALL_KINDS:
            raise ConfigError(f"kind must be one of {ALL_KINDS}, got {kind!r}")
        try:
            scenario = load_scenario(d.pop("scenario", "defaults"))
        except ScenarioError as exc:
            raise ConfigError(str(exc)) from exc
        methods = d.pop("methods", ["mcmc-ours"])
        if not (isinstance(methods, (list, tuple)) and all(isinstance(m, str) for m in methods)):
            raise ConfigError(f"methods must be a list of method tags, got {methods!r}")
        methods = tuple(methods)
        unknown = [m for m in methods if m not in METHOD_TAGS]
        if unknown:
            raise ConfigError(f"unknown methods {unknown}; known: {list(METHOD_TAGS)}")
        try:
            cfg = cls(kind=kind, scenario=scenario, methods=methods, **d)
        except TypeError as exc:
            raise ConfigError(f"bad config field: {exc}") from exc
        cfg._validate()
        return cfg

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        try:
            with open(path, encoding="utf-8") as fh:
                return cls.from_dict(json.load(fh))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc

    def _validate(self) -> None:
        for name, low in _INT_MINIMA.items():
            value = getattr(self, name)
            if not _is_int(value):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            if low is not None and value < low:
                raise ConfigError(f"{name} must be >= {low}, got {value}")
        if self.workers != 1:
            raise ConfigError(f"workers must be 1: trials run in one process, got {self.workers}")
        if not self.methods:
            raise ConfigError("methods must name at least one method")
        repeated = sorted({m for m in self.methods if self.methods.count(m) > 1})
        if repeated:
            raise ConfigError(f"methods lists {repeated} more than once")
        if not isinstance(self.sweep, dict):
            raise ConfigError(f"sweep must be an object, got {self.sweep!r}")
        key = _SWEEP_KEYS.get(self.kind)
        if key is not None:
            values = self.sweep.get(key)
            if not (
                isinstance(values, (list, tuple))
                and values
                and all(_is_int(v) and v >= 1 for v in values)
            ):
                raise ConfigError(
                    f"{self.kind} needs sweep.{key}: a non-empty list of "
                    f"integers >= 1, got {values!r}"
                )
        self._check_hypothesis_guards()
        if self.kind not in PLANNING_KINDS:
            need = self.n_steps + self.eval_horizon
            if len(self.scenario.actions) < need:
                raise ConfigError(
                    f"scenario.actions has {len(self.scenario.actions)} steps, "
                    f"need n_steps + eval_horizon = {need}"
                )
        if not isinstance(self.planner, dict):
            raise ConfigError("planner must be an object of PlannerConfig fields")
        unknown = sorted(set(self.planner) - set(_PLANNER_RULES))
        if unknown:
            raise ConfigError(
                f"unknown planner keys {unknown}; known: {list(_PLANNER_RULES)} "
                "(n_samples and n_particles are set from the top level)"
            )
        for name, value in self.planner.items():
            rule, valid = _PLANNER_RULES[name]
            if not valid(value):
                raise ConfigError(f"planner.{name} must be {rule}, got {value!r}")

    def _check_hypothesis_guards(self) -> None:
        """Every belief that enumerates hypotheses must fit its guard at
        the largest scenario the run builds: the exact reference of the
        estimation kinds and each theoretical-* method under
        EXACT_MAX_HYPOTHESES, each pf-* method under PF_MAX_HYPOTHESES."""
        exact = [] if self.kind in PLANNING_KINDS else ["the exact reference"]
        exact += [m for m in self.methods if m.startswith("theoretical-")]
        guards = (
            ("EXACT_MAX_HYPOTHESES", EXACT_MAX_HYPOTHESES, exact),
            ("PF_MAX_HYPOTHESES", PF_MAX_HYPOTHESES, [m for m in self.methods if m.startswith("pf-")]),
        )
        n_obj, n_cls = self.scenario.n_objects, self.scenario.n_classes
        sizes = [(n_obj, n_cls)]
        if self.kind == "rmse-vs-classes":
            sizes = [(n_obj, v) for v in self.sweep["n_classes"]]
        elif self.kind == "rmse-vs-objects":
            sizes = [(v, n_cls) for v in self.sweep["n_objects"]]
        for n_obj, n_cls in sizes:
            # 2**64 already exceeds every guard: no need for the full power
            count = n_cls ** min(n_obj, 64)
            for name, limit, needed_by in guards:
                if needed_by and count > limit:
                    raise ConfigError(
                        f"{n_cls} classes ** {n_obj} objects = "
                        f"{count if n_obj <= 64 else 'over 2**64'} hypotheses exceed "
                        f"{name} = {limit}, which {', '.join(needed_by)} needs"
                    )


def resize_scenario(
    base: Scenario, n_classes: int | None = None, n_objects: int | None = None
) -> Scenario:
    """Clone a scenario at a different problem size.

    Class-count changes refresh the scale factors, uniform prior, and evenly
    respaced unsafe radii; object-count changes keep existing priors and add
    objects on a circle around the workspace center.
    """
    d = base.to_dict()
    if n_classes is not None and n_classes != base.n_classes:
        d["n_classes"] = n_classes
        d["alphas"] = default_alphas(n_classes).tolist()
        r = base.unsafe_radius
        lo, hi = float(r.min()), float(r.max())
        d["unsafe_radius"] = np.linspace(lo, hi, n_classes).tolist()
        d["class_prior"] = np.full(
            (base.n_objects, n_classes), 1.0 / n_classes
        ).tolist()
    base_nc = d["n_classes"]
    if n_objects is not None and n_objects != base.n_objects:
        d["n_objects"] = n_objects
        means = list(map(list, base.object_prior_means[:n_objects]))
        covs = list(map(lambda c: np.asarray(c).tolist(), base.object_prior_covs[:n_objects]))
        (x0, x1), (y0, y1) = base.workspace
        cx, cy = (x0 + x1) / 2.0, (y0 + y1) / 2.0
        rad = 0.35 * min(x1 - x0, y1 - y0)
        for j in range(len(means), n_objects):
            ang = 2.0 * math.pi * j / n_objects
            means.append([cx + rad * math.cos(ang), cy + rad * math.sin(ang)])
            covs.append(base.object_prior_covs[0].tolist())
        d["object_prior_means"] = means
        d["object_prior_covs"] = covs
        d["class_prior"] = np.full((n_objects, base_nc), 1.0 / base_nc).tolist()
    return Scenario.from_dict(d)


# ----------------------------------------------------------------------
# estimation experiments


def _timed_row(method, plan, n_samples: int, rng, ref_val: float, extra_s=0.0, **where):
    """One metric row: p_safe from one timed method.estimate call (which
    also computes the unreported expected cost), plus extra_s seconds."""
    t0 = time.perf_counter()
    est = method.estimate(plan, n_samples, rng)["p_safe"]
    wall = (time.perf_counter() - t0 + extra_s) * 1e3
    return MetricRow(
        method=method.tag,
        estimate=est.value,
        reference_value=ref_val,
        squared_error=(est.value - ref_val) ** 2,
        wall_ms=wall,
        n_samples=n_samples,
        **where,
    )


def _estimation_trial(
    cfg: ExperimentConfig, scenario: Scenario, sweep_value, trial: int
) -> tuple:
    """One trial of an estimation kind: its rows and its stream hash.

    Every step updates the timed methods in config order, each update timed,
    then the untimed reference (which may follow one of them).  Queries run
    after every step for psafe-vs-time and once after the last step for the
    sweeps: the reference's p_safe first (the reference computes no cost),
    then one row per (sample count, method).  A row's wall_ms is its
    method.estimate call, p_safe and the unreported cost together, plus the
    method's summed update time when the sweep resizes the scenario."""
    streams = trial_streams(cfg.seed, trial)
    _, history = simulate(scenario, cfg.n_steps, streams.world, streams.noise)
    rng = streams.sampler
    methods = {tag: create_method(tag, scenario, cfg.n_particles) for tag in cfg.methods}
    reference = ExactReference(scenario, follow=methods.get("theoretical-all-hyp"))
    ref_rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, trial, 99)))
    per_step = cfg.kind == "psafe-vs-time"
    resized = cfg.kind in _RESIZE_KINDS
    sample_sweep = cfg.kind == "rmse-vs-samples"
    sample_counts = cfg.sweep["n_samples"] if sample_sweep else [cfg.n_samples]
    update_s = dict.fromkeys(methods, 0.0)
    rows = []
    for step in range(cfg.n_steps + 1):
        if step:
            action, batch = history.actions[step - 1], history.batches[step - 1]
            for tag, m in methods.items():
                t0 = time.perf_counter()
                m.update(action, batch, rng)
                update_s[tag] += time.perf_counter() - t0
            reference.update(action, batch)
        if not (step > 0 if per_step else step == cfg.n_steps):
            continue
        plan = OpenLoopPlan(scenario.actions[step : step + cfg.eval_horizon])
        ref_val = reference.estimate(plan, cfg.reference_samples, ref_rng)["p_safe"].value
        for n_s in sample_counts:
            for tag, m in methods.items():
                rows.append(
                    _timed_row(
                        m, plan, n_s, rng, ref_val, update_s[tag] if resized else 0.0,
                        trial=trial, time_step=step,
                        sweep_value=n_s if sample_sweep else sweep_value,
                    )
                )
    return rows, history.stream_hash()


def run_experiment(config: ExperimentConfig, out_dir=None) -> dict:
    """Run one configured experiment in this process, trials in config
    order; writes rows CSV and summary JSON.

    Returns the summary dict (with file paths under "files")."""
    out = Path(out_dir or config.out)
    out.mkdir(parents=True, exist_ok=True)
    summary: dict = {
        "kind": config.kind,
        "seed": config.seed,
        "methods": list(config.methods),
        "kernel_backend": _kernels.backend(),
        "config": {f.name: getattr(config, f.name) for f in fields(config) if f.name != "scenario"},
    }
    t_start = time.perf_counter()
    if config.kind == "planning-table":
        pcfg = PlannerConfig(
            n_samples=config.n_samples, n_particles=config.n_particles, **config.planner
        )
        rows = [
            run_planning_trial(config.scenario, tag, trial, config.seed, pcfg)
            for trial in range(config.trials)
            for tag in config.methods
        ]
        summary["planning"] = _summarize_planning(rows)
        emit = emit_planning
    else:
        resized = config.kind in _RESIZE_KINDS
        param = _SWEEP_KEYS.get(config.kind)
        rows, hashes = [], {}
        for value in config.sweep[param] if resized else [""]:
            scen = config.scenario
            if resized:
                scen = resize_scenario(scen, **{param: value})
            per_trial = {}
            for trial in range(config.trials):
                trial_rows, per_trial[str(trial)] = _estimation_trial(config, scen, value, trial)
                rows.extend(trial_rows)
            hashes[str(value)] = per_trial
        summary["stream_hashes"] = hashes if resized else hashes[""]
        summary.update(_summarize_metrics(rows))
        emit = emit_plotdata
    summary["wall_s"] = time.perf_counter() - t_start
    summary["files"] = emit(rows, summary, out, prefix=config.kind)
    return summary


def _summarize_metrics(rows: list) -> dict:
    agg: dict = {}
    for row in rows:
        key = (row.method, str(row.sweep_value), row.time_step)
        agg.setdefault(key, []).append(row)
    per_group = {}
    for (method, sweep, step), grp in sorted(agg.items()):
        se = np.array([r.squared_error for r in grp])
        per_group[f"{method}|sweep={sweep}|t={step}"] = {
            "rmse": float(np.sqrt(se.mean())),
            "mean_wall_ms": float(np.mean([r.wall_ms for r in grp])),
            "n_rows": len(grp),
        }
    slopes = {}
    methods = {r.method for r in rows}
    for method in sorted(methods):
        pts = {}
        for row in rows:
            if row.method == method and row.sweep_value != "":
                pts.setdefault(float(row.sweep_value), []).append(row)
        if len(pts) >= 2:
            xs = np.log(sorted(pts))
            groups = [pts[v] for v in sorted(pts)]
            slopes[method] = {
                "rmse_slope": _loglog_slope(
                    xs, [math.sqrt(np.mean([r.squared_error for r in g])) for g in groups]
                ),
                "wall_slope": _loglog_slope(xs, [np.mean([r.wall_ms for r in g]) for g in groups]),
            }
    return {"groups": per_group, "loglog_slopes": slopes}


def _loglog_slope(log_xs, ys: list):
    """Least-squares slope of log(ys) against log_xs; None if some y is 0."""
    with np.errstate(divide="ignore"):
        log_ys = np.log(ys)
    return float(np.polyfit(log_xs, log_ys, 1)[0]) if np.all(np.isfinite(log_ys)) else None


def _summarize_planning(rows: list) -> dict:
    out = {}
    for tag in sorted({r.method for r in rows}):
        grp = [r for r in rows if r.method == tag]
        out[tag] = {
            "trials": len(grp),
            "safe_rate": float(np.mean([r.safe for r in grp])),
            "reach_rate": float(np.mean([r.reached_goal for r in grp])),
            "stop_rate": float(np.mean([r.stopped for r in grp])),
            "mean_dist_to_goal": float(np.mean([r.dist_to_goal for r in grp])),
            "mean_traj_len": float(np.mean([r.traj_len for r in grp])),
            "mean_wall_ms": float(np.mean([r.wall_ms for r in grp])),
        }
    return out


# ----------------------------------------------------------------------
# emission


def _emit(columns, cells, summary: dict, out_dir, prefix: str) -> dict:
    """Write `<prefix>_rows.csv` (a header, then one line per cell list) and
    `<prefix>_summary.json`; returns their paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows_path = out / f"{prefix}_rows.csv"
    with open(rows_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(cells)
    summary_path = out / f"{prefix}_summary.json"
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, default=str)
    return {"rows": str(rows_path), "summary": str(summary_path)}


def emit_plotdata(rows, summary: dict, out_dir, prefix: str) -> dict:
    return _emit(METRIC_COLUMNS, map(astuple, rows), summary, out_dir, prefix)


def emit_planning(rows, summary: dict, out_dir, prefix: str) -> dict:
    cells = (
        [
            r.trial,
            r.method,
            int(r.safe),
            int(r.reached_goal),
            repr(r.dist_to_goal),
            repr(r.traj_len),
            repr(r.wall_ms),
        ]
        for r in rows
    )
    return _emit(PLANNING_COLUMNS, cells, summary, out_dir, prefix)
