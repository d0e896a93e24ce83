"""Scenario configuration, ground-truth worlds, and the generative sensor models.

A scenario fixes the problem size (number of objects, number of classes per
object), the Gaussian priors over the robot start pose and object positions,
the per-object categorical class prior, and the two range-bearing-free
relative sensors:

* geometric:  z_g = x_obj - x_robot + v,   v ~ N(0, sigma2_obs * I)
* semantic:   z_s = alpha_c * (x_obj - x_robot) + v,  same noise law

where alpha_c is a per-class scaling of the relative position.  Motion is a
single-integrator with additive Gaussian noise:

* transition: x' = x + a + w,  w ~ N(0, sigma2_x * I)

All positions are 2D.  Classes are 0-based labels throughout, used directly
for array indexing.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from numbers import Integral, Real

import numpy as np

LOG_2PI = float(np.log(2.0 * np.pi))


class ScenarioError(ValueError):
    """Raised for structurally invalid scenario configuration."""


def default_alphas(n_classes: int) -> np.ndarray:
    """Per-class scale factors, equally spaced from 0.95 to 1.05."""
    if n_classes == 1:
        return np.array([1.0])
    return np.linspace(0.95, 1.05, n_classes)


# Magnitudes the model carries: past them its precision matrices turn
# singular or its sampling weights stop summing to 1.  Each field alone at
# its bound runs every method; fields at their bounds together may not.
MAX_LENGTH = 1e8  # means, goal, actions, workspace bounds, unsafe radii
MAX_ALPHA = 1e3  # |alphas|
MIN_VARIANCE, MAX_VARIANCE = 1e-12, 1e8  # sigma2_* and covariance eigenvalues


def is_int(v) -> bool:
    """Whether v is an integer; bools are not."""
    return isinstance(v, Integral) and not isinstance(v, bool)


def is_real(v) -> bool:
    """Whether v is a real number; bools are not."""
    return isinstance(v, Real) and not isinstance(v, bool)


def is_finite(v) -> bool:
    """Whether v is a real number a float holds finitely: not +-inf or NaN,
    nor an int past the float range."""
    return is_real(v) and abs(v) <= sys.float_info.max


def int_rule(low: int) -> tuple:
    """The rule of an integer field whose smallest valid value is low."""
    return None, lambda v: is_int(v) and v >= low, f"an integer >= {low}"


def check(values: dict, rules: dict, error: type, prefix: str = "") -> dict:
    """Check values against a rules table, field -> (shape, valid, wording),
    in table order, skipping fields `values` lacks; return what was checked.
    With a shape (a field name in it stands for that field's value, "k" for
    any length) `valid` sees the value read as a new float array of that
    shape, else the value as is.  The first failure raises `error`."""
    out = {}
    for name, (shape, valid, wording) in rules.items():
        if name not in values:
            continue
        value = values[name]
        if shape is not None:
            value = _read(value, tuple(values.get(d, d) for d in shape))
            wording += f", of shape ({', '.join(map(str, shape))})"
        if value is None or not valid(value):
            raise error(f"{prefix}{name} must be {wording}, got {values[name]!r}")
        out[name] = value
    return out


def _read(x, shape: tuple):
    """x as a new float array of the given shape, or None if it is not one;
    bools and strings are not numbers, and a ragged list is no array."""
    a = np.array(x, dtype=object)
    if not all(is_real(v) for v in a.flat):
        return None
    try:
        a = a.astype(float)
    except OverflowError:  # an int past float range
        return None
    if shape[:1] == ("k",) and a.size == 0:
        a = a.reshape(0, *shape[1:])
    fits = a.ndim == len(shape) and all(m in (n, "k") for n, m in zip(a.shape, shape))
    return a if fits else None


def _within(low, high):
    """The predicate: every entry lies in [low, high] (NaN never does)."""
    return lambda a: bool(np.all((low <= a) & (a <= high)))


_lengths = _within(-MAX_LENGTH, MAX_LENGTH)
_alphas = _within(-MAX_ALPHA, MAX_ALPHA)
_variances = _within(MIN_VARIANCE, MAX_VARIANCE)


def _covariances(c) -> bool:
    """Whether c holds symmetric matrices with eigenvalues in the variance
    range; the entries, bounded by the largest eigenvalue, are tested first."""
    return (
        _within(-MAX_VARIANCE, MAX_VARIANCE)(c)
        and np.allclose(c, np.swapaxes(c, -1, -2))
        and _variances(np.linalg.eigvalsh(c))
    )


def _stochastic(p) -> bool:
    return bool(np.all(p >= 0)) and np.allclose(p.sum(axis=1), 1.0, atol=1e-9)


def _is_bounds(workspace) -> bool:
    a = _read(workspace, (2, 2))
    return a is not None and _lengths(a) and bool(np.all(a[:, 0] < a[:, 1]))


_NUMBERS = f"finite numbers of magnitude <= {MAX_LENGTH:g}"
_IN_RANGE = f"in [{MIN_VARIANCE:g}, {MAX_VARIANCE:g}]"
_COVARIANCES = f"finite, symmetric, with eigenvalues {_IN_RANGE}"
_VARIANCE = (None, lambda v: is_real(v) and _variances(v), f"a number {_IN_RANGE}")
# field -> (shape, valid, wording), in the order Scenario checks them
SCENARIO_RULES = {
    "n_objects": int_rule(1),
    "n_classes": int_rule(1),
    "object_prior_means": (("n_objects", 2), _lengths, _NUMBERS),
    "class_prior": (("n_objects", "n_classes"), _stochastic, "rows of numbers >= 0 summing to 1"),
    "robot_prior_mean": ((2,), _lengths, _NUMBERS),
    "robot_prior_cov": ((2, 2), _covariances, _COVARIANCES),
    "object_prior_covs": (("n_objects", 2, 2), _covariances, _COVARIANCES),
    "sigma2_obs": _VARIANCE,
    "sigma2_x": _VARIANCE,
    "alphas": (("n_classes",), _alphas, f"numbers in [-{MAX_ALPHA:g}, {MAX_ALPHA:g}]"),
    "unsafe_radius": (("n_classes",), _within(0, MAX_LENGTH), f"numbers in [0, {MAX_LENGTH:g}]"),
    "goal": ((2,), _lengths, _NUMBERS),
    "actions": (("k", 2), _lengths, _NUMBERS),
    "opening_actions": (("k", 2), _lengths, _NUMBERS),
    "workspace": (None, _is_bounds, f"two (low, high) pairs of {_NUMBERS}, x then y, low < high"),
}


@dataclass(eq=False)
class Scenario:
    """Immutable-by-convention problem definition.

    Construction raises ScenarioError unless every field but `name` meets
    its rule in SCENARIO_RULES, which the README's scenario paragraph
    spells out.  Bools and strings are not numbers in any field.  A single
    object cov, a scalar robot cov and one class_prior row broadcast.

    Attributes:
        n_objects: number of landmarks with unknown class.
        n_classes: classes per object; the joint hypothesis space has
            n_classes ** n_objects elements.
        robot_prior_mean / robot_prior_cov: Gaussian prior over x_0.
        object_prior_means / object_prior_covs: per-object Gaussian priors.
        class_prior: (n_objects, n_classes) rows summing to 1.
        sigma2_obs: isotropic observation noise variance (both sensors).
        sigma2_x: isotropic motion noise variance.
        alphas: (n_classes,) semantic scale factors.
        unsafe_radius: (n_classes,) radius of the unsafe disk around an
            object of that class; 0 disables the region.
        goal: planning goal position.
        actions: (T, 2) default open-loop action sequence for simulation.
        opening_actions: (4, 2) predefined actions executed before planning.
        workspace: ((xmin, xmax), (ymin, ymax)) sampling bounds for roadmaps.
    """

    n_objects: int
    n_classes: int
    robot_prior_mean: np.ndarray
    robot_prior_cov: np.ndarray
    object_prior_means: np.ndarray
    object_prior_covs: np.ndarray
    class_prior: np.ndarray
    sigma2_obs: float = 5.0
    sigma2_x: float = 0.3
    alphas: np.ndarray | None = None
    unsafe_radius: np.ndarray | None = None
    goal: np.ndarray = field(default_factory=lambda: np.array([10.0, 10.0]))
    actions: np.ndarray | None = None
    opening_actions: np.ndarray | None = None
    workspace: tuple = ((-2.0, 12.0), (-2.0, 12.0))
    name: str = ""

    def __post_init__(self):
        # the broadcast shortcuts tile, and the defaults fill, arrays sized by
        # the counts, so the means and class prior first tie them to given data
        self._check("n_objects", "n_classes", "object_prior_means")
        if (c := _read(self.robot_prior_cov, ())) is not None:
            self.robot_prior_cov = np.eye(2) * c
        if (c := _read(self.object_prior_covs, (2, 2))) is not None:
            self.object_prior_covs = np.tile(c, (self.n_objects, 1, 1))
        if (p := _read(self.class_prior, (self.n_classes,))) is not None:
            self.class_prior = np.tile(p, (self.n_objects, 1))
        self._check("class_prior")
        if self.alphas is None:
            self.alphas = default_alphas(self.n_classes)
        if self.unsafe_radius is None:
            self.unsafe_radius = np.zeros(self.n_classes)
        if self.opening_actions is None:
            self.opening_actions = np.tile(np.array([[0.5, 0.5]]), (4, 1))
        if self.actions is None:
            self.actions = self.opening_actions
        self._check(*SCENARIO_RULES)

    def _check(self, *names) -> None:
        vars(self).update(check(vars(self), {n: SCENARIO_RULES[n] for n in names}, ScenarioError))

    def log_class_prior(self) -> np.ndarray:
        """(n_objects, n_classes) log prior table; -inf where prior is 0."""
        with np.errstate(divide="ignore"):
            return np.log(self.class_prior)

    # ------------------------------------------------------------------
    # serialization

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "n_objects": self.n_objects,
            "n_classes": self.n_classes,
            "robot_prior_mean": self.robot_prior_mean.tolist(),
            "robot_prior_cov": self.robot_prior_cov.tolist(),
            "object_prior_means": self.object_prior_means.tolist(),
            "object_prior_covs": self.object_prior_covs.tolist(),
            "class_prior": self.class_prior.tolist(),
            "sigma2_obs": self.sigma2_obs,
            "sigma2_x": self.sigma2_x,
            "alphas": self.alphas.tolist(),
            "unsafe_radius": self.unsafe_radius.tolist(),
            "goal": self.goal.tolist(),
            "actions": self.actions.tolist(),
            "opening_actions": self.opening_actions.tolist(),
            "workspace": [list(self.workspace[0]), list(self.workspace[1])],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Scenario":
        if not isinstance(d, dict):
            raise ScenarioError(f"scenario must be an object, got {type(d).__name__}")
        try:
            return cls(**d)
        except TypeError as exc:
            raise ScenarioError(f"bad scenario fields: {exc}") from exc

    @classmethod
    def from_json(cls, path) -> "Scenario":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


@dataclass
class WorldTruth:
    """A sampled ground-truth world: classes, object positions, trajectory."""

    labels: np.ndarray  # (n_objects,) 0-based class labels
    objects: np.ndarray  # (n_objects, 2)
    trajectory: np.ndarray  # (k+1, 2) poses x_0 .. x_k


@dataclass
class ObservationBatch:
    """All measurements collected at one time step.

    t is the pose index the measurements were taken from (1-based: the batch
    taken after the first motion has t == 1).
    """

    t: int
    object_ids: np.ndarray  # (m,) 0-based object indices
    geometric: np.ndarray  # (m, 2)
    semantic: np.ndarray  # (m, 2)

    def __post_init__(self):
        self.object_ids = np.asarray(self.object_ids, dtype=np.int64)
        self.geometric = np.asarray(self.geometric, dtype=float).reshape(-1, 2)
        self.semantic = np.asarray(self.semantic, dtype=float).reshape(-1, 2)
        if not (len(self.object_ids) == len(self.geometric) == len(self.semantic)):
            raise ScenarioError("observation arrays must have equal length")

    def tobytes(self) -> bytes:
        return (
            np.int64(self.t).tobytes()
            + self.object_ids.tobytes()
            + np.ascontiguousarray(self.geometric).tobytes()
            + np.ascontiguousarray(self.semantic).tobytes()
        )


@dataclass
class History:
    """Executed actions and the observation batches they produced.

    actions[i] moves x_i -> x_{i+1}; batches[i] was collected at x_{i+1}.
    """

    actions: list = field(default_factory=list)
    batches: list = field(default_factory=list)

    def append(self, action: np.ndarray, batch: ObservationBatch) -> None:
        if batch.t != len(self.actions) + 1:
            raise ScenarioError(
                f"batch.t={batch.t} does not match history length {len(self.actions)}"
            )
        self.actions.append(np.asarray(action, dtype=float).reshape(2))
        self.batches.append(batch)

    def stream_hash(self) -> str:
        """Hex digest of the raw observation bytes, for fairness assertions."""
        import hashlib

        h = hashlib.sha256()
        for a, b in zip(self.actions, self.batches):
            h.update(np.ascontiguousarray(a).tobytes())
            h.update(b.tobytes())
        return h.hexdigest()


# ----------------------------------------------------------------------
# generative model


def sample_world(scenario: Scenario, rng: np.random.Generator) -> WorldTruth:
    """Draw classes, object positions, and the start pose from the priors."""
    labels = np.empty(scenario.n_objects, dtype=np.int64)
    objects = np.empty((scenario.n_objects, 2))
    for n in range(scenario.n_objects):
        labels[n] = rng.choice(scenario.n_classes, p=scenario.class_prior[n])
        objects[n] = rng.multivariate_normal(
            scenario.object_prior_means[n], scenario.object_prior_covs[n]
        )
    x0 = rng.multivariate_normal(scenario.robot_prior_mean, scenario.robot_prior_cov)
    return WorldTruth(labels=labels, objects=objects, trajectory=x0[None, :].copy())


def step_transition(
    x: np.ndarray, action: np.ndarray, scenario: Scenario, rng: np.random.Generator
) -> np.ndarray:
    """One noisy motion step x' = x + a + w."""
    x = np.asarray(x, dtype=float).reshape(2)
    a = np.asarray(action, dtype=float).reshape(2)
    w = rng.normal(0.0, np.sqrt(scenario.sigma2_x), size=2)
    return x + a + w


def observe(
    scenario: Scenario, world: WorldTruth, t: int, rng: np.random.Generator
) -> ObservationBatch:
    """Collect one geometric and one semantic measurement of every object."""
    x = world.trajectory[t]
    rel = world.objects - x[None, :]
    sd = np.sqrt(scenario.sigma2_obs)
    geo = rel + rng.normal(0.0, sd, size=rel.shape)
    scale = scenario.alphas[world.labels][:, None]
    sem = scale * rel + rng.normal(0.0, sd, size=rel.shape)
    return ObservationBatch(
        t=t,
        object_ids=np.arange(scenario.n_objects),
        geometric=geo,
        semantic=sem,
    )


def simulate(
    scenario: Scenario,
    n_steps: int,
    rng_world: np.random.Generator,
    rng_noise: np.random.Generator,
) -> tuple[WorldTruth, History]:
    """Roll a sampled world forward under scenario.actions.

    The action sequence must cover n_steps.  Separate world and noise
    streams keep the sampled world identical when only the trajectory noise
    stream changes.
    """
    world = sample_world(scenario, rng_world)
    actions = scenario.actions
    if len(actions) < n_steps:
        raise ScenarioError(f"need {n_steps} actions, scenario provides {len(actions)}")
    history = History()
    traj = [world.trajectory[0]]
    for i in range(n_steps):
        x_next = step_transition(traj[-1], actions[i], scenario, rng_noise)
        traj.append(x_next)
        world.trajectory = np.asarray(traj)
        batch = observe(scenario, world, i + 1, rng_noise)
        history.append(actions[i], batch)
    world.trajectory = np.asarray(traj)
    return world, history


# ----------------------------------------------------------------------
# RNG discipline


@dataclass
class RngStreams:
    """Per-trial substreams: world draws, trajectory/sensor noise, samplers."""

    world: np.random.Generator
    noise: np.random.Generator
    sampler: np.random.Generator


def trial_streams(base_seed: int, trial: int) -> RngStreams:
    """Deterministic per-trial streams keyed by (base_seed, trial)."""
    ss = np.random.SeedSequence((int(base_seed), int(trial)))
    world, noise, sampler = ss.spawn(3)
    return RngStreams(
        world=np.random.default_rng(world),
        noise=np.random.default_rng(noise),
        sampler=np.random.default_rng(sampler),
    )
