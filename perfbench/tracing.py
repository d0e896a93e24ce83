"""Per-layer spans for the traced benchmark run.

Wrappers are installed from outside the program, around the public functions
of each semgeo module (layer).  A module-level function is replaced under
every name a semgeo module binds it to, so a caller that imported it with
`from .estimators import rollout_states` is traced too; methods and
properties are replaced on their class.  Spans (id, parent, name, start,
end) stay in memory until the run ends; a layer's self time is its spans'
duration minus the duration of their child spans.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np

# (layer, module, attribute); "module:Class" wraps a method or property
TARGETS = (
    ("planner.build_roadmap", "semgeo.planner", "build_roadmap"),
    ("planner.k_shortest_paths", "semgeo.planner", "k_shortest_paths"),
    ("planner.select_plan", "semgeo.planner", "select_plan"),
    ("samplers.mh_sample", "semgeo.samplers", "mh_sample"),
    ("samplers.snis_sample", "semgeo.samplers", "snis_sample"),
    ("samplers.bookkeeping", "semgeo.samplers", "log_ess"),
    ("samplers.bookkeeping", "semgeo.samplers:WeightedStateSet", "weights"),
    ("estimators.rollout_states", "semgeo.estimators", "rollout_states"),
    ("estimators.estimate_structured", "semgeo.estimators", "estimate_structured"),
    ("estimators.estimate_explicit_c", "semgeo.estimators", "estimate_explicit_c"),
    ("estimators.estimate_sampled_xc", "semgeo.estimators", "estimate_sampled_xc"),
    ("estimators.expected_cost", "semgeo.estimators", "expected_cost"),
    ("kernels.safety_products", "semgeo._kernels", "safety_products"),
    ("kernels.class_log_tables", "semgeo._kernels", "class_log_tables"),
    ("kernels.mh_scan", "semgeo._kernels", "mh_scan"),
    ("belief.update", "semgeo.belief:HybridBelief", "update"),
    ("belief.class_posterior_given_state", "semgeo.belief:HybridBelief", "class_posterior_given_state"),
    ("belief.log_phi", "semgeo.belief:HybridBelief", "log_phi"),
    ("baselines.analytic.update", "semgeo.baselines:AnalyticHybridBelief", "update"),
    ("baselines.analytic.sample", "semgeo.baselines:AnalyticHybridBelief", "sample"),
    ("baselines.analytic.conditional_joint_probs", "semgeo.baselines:AnalyticHybridBelief", "conditional_joint_probs"),
    ("baselines.pf.update", "semgeo.baselines:HypothesisParticleFilter", "update"),
    ("gaussian.add_linear_factor", "semgeo.gaussian:GaussianFactorGraph", "add_linear_factor"),
    ("gaussian.with_appended_step", "semgeo.gaussian:GaussianFactorGraph", "with_appended_step"),
    ("gaussian.log_evidence", "semgeo.gaussian:GaussianFactorGraph", "log_evidence"),
    ("gaussian.sample", "semgeo.gaussian:GaussianFactorGraph", "sample"),
    ("gaussian.log_density", "semgeo.gaussian:GaussianFactorGraph", "log_density"),
    ("harness.emit", "semgeo.harness", "emit_plotdata"),
    ("harness.emit", "semgeo.harness", "emit_planning"),
    ("scenario.simulate", "semgeo.scenario", "simulate"),
    ("scenario.observe", "semgeo.scenario", "observe"),
)
# method tags the workloads run, each reported as its own methods.* layer
METHOD_TAGS = ("theoretical-all-hyp", "theoretical-pruned", "pf-pruned", "mcmc-ours", "gs-map")
KERNELS = ("kernels.safety_products", "kernels.class_log_tables", "kernels.mh_scan")


def _method_layer(op: str):
    """Span name of a method-object call; the untimed reference (the exact
    belief with the factored conditional) gets its own layer."""

    def name(args) -> str:
        self = args[0]
        if is_reference(self):
            return f"harness.reference.{op}"
        return f"methods.{self.tag}.{op}"

    return name


def method_classes() -> list:
    """The method classes of semgeo.methods: those with update and estimate."""
    methods = sys.modules["semgeo.methods"]
    return [
        cls
        for cls in vars(methods).values()
        if isinstance(cls, type)
        and cls.__module__ == methods.__name__
        and "estimate" in cls.__dict__
        and "update" in cls.__dict__
    ]


def is_reference(method) -> bool:
    """The harness's untimed reference: the exact belief evaluated through
    the factored conditional."""
    return getattr(method, "fast_conditional", False)


class UntimedProbe:
    """Runs `probe` at points inside an experiment that the harness does not
    time: before every update of the untimed reference, and before every
    draw of a world (a planning trial draws its world before its clock
    starts).  `samples` holds the probe results."""

    def __init__(self, probe):
        self.probe = probe
        self.samples: list = []
        self._undo: list = []

    def install(self) -> None:
        for cls in method_classes():
            orig = cls.__dict__["update"]

            def update(method, *args, _orig=orig, **kwargs):
                if is_reference(method):
                    self.samples.append(self.probe())
                return _orig(method, *args, **kwargs)

            _patch(cls, "update", update, self._undo)
        draw = sys.modules["semgeo.scenario"].sample_world

        def sample_world(*args, **kwargs):
            self.samples.append(self.probe())
            return draw(*args, **kwargs)

        _rebind(draw, sample_world, self._undo)

    def uninstall(self) -> None:
        _restore(self._undo)


def _rebind(orig, replacement, undo: list) -> None:
    """Replace `orig` under every name a loaded semgeo module binds it to."""
    for name, mod in list(sys.modules.items()):
        if name == "semgeo" or name.startswith("semgeo."):
            for key, val in list(vars(mod).items()):
                if val is orig:
                    _patch(mod, key, replacement, undo)


def _patch(owner, attr: str, value, undo: list) -> None:
    undo.append((owner, attr, owner.__dict__[attr]))
    setattr(owner, attr, value)


def _restore(undo: list) -> None:
    while undo:
        owner, attr, orig = undo.pop()
        setattr(owner, attr, orig)


def _nbytes(obj) -> int:
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (tuple, list)):
        return sum(_nbytes(o) for o in obj)
    return 0


class Tracer:
    """Records a span for every call of a traced layer, plus counts taken
    from the calls' arguments and results."""

    def __init__(self):
        self.spans: list = []  # (parent, name, start, end), index is the span id
        self.counters: dict = {}
        self._stack: list = []
        self._undo: list = []

    # ------------------------------------------------------------------

    def _count(self, key: str, amount=1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _observe(self, layer: str, args, result) -> None:
        """Counts taken at the layer boundary, from arguments and results."""
        if layer == "planner.select_plan":
            evaluations, threshold = args[0], args[1]
            self._count("planner.candidates", len(evaluations))
            self._count(
                "planner.admissible",
                sum(ev["p_safe"].value >= threshold for ev in evaluations),
            )
        elif layer == "planner.k_shortest_paths":
            self._count("planner.paths", len(result))
        elif layer == "samplers.mh_sample":
            self._count("samplers.mh_acceptance_sum", result.diagnostics["acceptance_rate"])
        elif layer == "baselines.analytic.update":
            self._count("baselines.analytic.hypotheses_updated", args[0].n_tracked)
        elif layer in KERNELS:
            self._count(f"{layer}.bytes", _nbytes(args) + _nbytes(result))

    def _wrap(self, layer, fn):
        spans, stack = self.spans, self._stack
        name_of = layer if callable(layer) else (lambda args: layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = name_of(args)
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[sid] = (parent, name, t0, t1)
            self._observe(name, args, result)
            return result

        return traced

    def install(self) -> None:
        for layer, where, attr in TARGETS:
            module_name, _, cls_name = where.partition(":")
            module = sys.modules[module_name]
            if cls_name:
                cls = getattr(module, cls_name)
                orig = cls.__dict__[attr]
                if isinstance(orig, property):
                    wrapped = property(self._wrap(layer, orig.fget))
                else:
                    wrapped = self._wrap(layer, orig)
                _patch(cls, attr, wrapped, self._undo)
                continue
            orig = getattr(module, attr)
            _rebind(orig, self._wrap(layer, orig), self._undo)
        for cls in method_classes():
            for op in ("update", "estimate"):
                _patch(cls, op, self._wrap(_method_layer(op), cls.__dict__[op]), self._undo)

    def uninstall(self) -> None:
        _restore(self._undo)

    # ------------------------------------------------------------------

    def layers(self) -> dict:
        """name -> {"calls", "self_ms", "total_ms"} over all spans."""
        child = [0.0] * len(self.spans)
        for parent, _, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict = {}
        for sid, (_, name, t0, t1) in enumerate(self.spans):
            rec = out.setdefault(name, {"calls": 0, "self_ms": 0.0, "total_ms": 0.0})
            rec["calls"] += 1
            rec["total_ms"] += (t1 - t0) * 1e3
            rec["self_ms"] += (t1 - t0 - child[sid]) * 1e3
        return out
