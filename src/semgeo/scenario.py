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
from dataclasses import dataclass, field
from math import isfinite
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


def _is_numeric(x) -> bool:
    """Whether x is a real number, or a nested list/tuple or numeric array of
    them; bools and strings are not numbers."""
    if isinstance(x, np.ndarray):
        return x.dtype.kind in "iuf"
    if isinstance(x, (list, tuple)):
        return all(_is_numeric(v) for v in x)
    return isinstance(x, Real) and not isinstance(x, bool)


def _floats(x, name: str) -> np.ndarray:
    """x as a float array; ScenarioError unless it is numeric and not ragged."""
    if _is_numeric(x):
        try:
            return np.asarray(x, dtype=float)
        except ValueError:
            pass
    raise ScenarioError(f"{name} must be an array of numbers, got {x!r}")


def _as_cov(x, name: str) -> np.ndarray:
    c = _floats(x, name)
    if c.shape == ():
        c = np.eye(2) * float(c)
    if c.shape != (2, 2):
        raise ScenarioError(f"{name} must be a 2x2 covariance, got shape {c.shape}")
    if not np.isfinite(c).all():
        raise ScenarioError(f"{name} must be finite")
    if not np.allclose(c, c.T):
        raise ScenarioError(f"{name} must be symmetric")
    if np.any(np.linalg.eigvalsh(c) <= 0):
        raise ScenarioError(f"{name} must be positive definite")
    return c


def _is_number(v) -> bool:
    """Whether v is a finite real number and not a bool."""
    return isinstance(v, Real) and not isinstance(v, bool) and isfinite(v)


def _finite(x, name: str, shape: tuple) -> np.ndarray:
    """x as a float array of finite numbers of the given shape; a leading -1
    matches any length, an empty list included."""
    a = _floats(x, name)
    if shape[0] == -1 and a.size == 0:
        a = a.reshape(0, *shape[1:])
    fits = a.ndim == len(shape) and all(m in (n, -1) for n, m in zip(a.shape, shape))
    if not (fits and np.isfinite(a).all()):
        dims = str(shape).replace("-1", "k")
        raise ScenarioError(f"{name} must be finite numbers of shape {dims}, got {x!r}")
    return a


def _is_bounds(workspace) -> bool:
    """Whether workspace is two (low, high) pairs of finite numbers, low < high."""
    try:
        return len(workspace) == 2 and all(
            len(pair) == 2
            and all(_is_number(v) for v in pair)
            and pair[0] < pair[1]
            for pair in workspace
        )
    except TypeError:
        return False


@dataclass(eq=False)
class Scenario:
    """Immutable-by-convention problem definition.

    Construction raises ScenarioError unless n_objects and n_classes are
    integers >= 1, sigma2_obs and sigma2_x finite numbers > 0, the
    covariances finite, symmetric and positive definite, robot_prior_mean
    and goal exactly 2 finite numbers, alphas and unsafe_radius exactly
    n_classes finite numbers (radii >= 0), object_prior_means finite, and
    actions and opening_actions [] or a list of finite [x, y] pairs.  Bools
    and strings are not numbers in any field.  A single object cov, a scalar
    robot cov and one class_prior row broadcast.

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
        for name in ("n_objects", "n_classes"):
            value = getattr(self, name)
            if not (isinstance(value, Integral) and not isinstance(value, bool) and value >= 1):
                raise ScenarioError(f"{name} must be an integer >= 1, got {value!r}")
        self.robot_prior_cov = _as_cov(self.robot_prior_cov, "robot_prior_cov")
        covs = _floats(self.object_prior_covs, "object_prior_covs")
        if covs.shape == (2, 2):
            covs = np.tile(covs, (self.n_objects, 1, 1))
        if covs.shape != (self.n_objects, 2, 2):
            raise ScenarioError(
                f"object_prior_covs must have shape ({self.n_objects}, 2, 2)"
            )
        self.object_prior_covs = np.stack(
            [_as_cov(covs[n], f"object_prior_covs[{n}]") for n in range(self.n_objects)]
        )
        prior = _floats(self.class_prior, "class_prior")
        if prior.shape == (self.n_classes,):
            prior = np.tile(prior, (self.n_objects, 1))
        if prior.shape != (self.n_objects, self.n_classes):
            raise ScenarioError(
                f"class_prior must have shape ({self.n_objects}, {self.n_classes})"
            )
        if np.any(prior < 0) or not np.allclose(prior.sum(axis=1), 1.0, atol=1e-9):
            raise ScenarioError("class_prior rows must be nonnegative and sum to 1")
        self.class_prior = prior
        if not all(_is_number(v) and v > 0 for v in (self.sigma2_obs, self.sigma2_x)):
            raise ScenarioError("noise variances must be finite numbers > 0")
        if self.alphas is None:
            self.alphas = default_alphas(self.n_classes)
        if self.unsafe_radius is None:
            self.unsafe_radius = np.zeros(self.n_classes)
        if self.opening_actions is None:
            self.opening_actions = np.tile(np.array([[0.5, 0.5]]), (4, 1))
        for name, shape in (
            ("robot_prior_mean", (2,)),
            ("object_prior_means", (self.n_objects, 2)),
            ("alphas", (self.n_classes,)),
            ("unsafe_radius", (self.n_classes,)),
            ("goal", (2,)),
            ("opening_actions", (-1, 2)),
        ):
            setattr(self, name, _finite(getattr(self, name), name, shape))
        if self.actions is None:
            self.actions = self.opening_actions.copy()
        self.actions = _finite(self.actions, "actions", (-1, 2))
        if np.any(self.unsafe_radius < 0):
            raise ScenarioError("unsafe_radius entries must be >= 0")
        if not _is_bounds(self.workspace):
            raise ScenarioError(
                "workspace must be two (low, high) pairs of finite numbers with "
                f"low < high, got {self.workspace!r}"
            )

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

    def __len__(self) -> int:
        return len(self.actions)

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
