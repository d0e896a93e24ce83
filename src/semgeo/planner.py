"""Roadmap-based candidate planning under the safety chance constraint.

Each replanning step samples a roadmap over the workspace, extracts the
shortest loopless paths from the belief's current mean pose to the goal,
discretizes them into bounded action steps, and keeps the cheapest candidate
whose estimated safety probability clears the threshold.  No candidate
clearing it means Stop: the trial ends where it stands, which counts as safe
behavior but not as reaching the goal.
"""

from __future__ import annotations

import math
import time
import zlib
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import yen
from scipy.spatial import cKDTree

from .estimators import OpenLoopPlan
from .methods import create_method
from .scenario import Scenario, WorldTruth, observe, sample_world, step_transition


@dataclass(frozen=True)
class PlannerConfig:
    n_nodes: int = 150
    k_nearest: int = 8
    n_candidates: int = 10
    max_step: float = 1.0
    safety_threshold: float = 0.95
    n_samples: int = 200
    goal_radius: float = 1.0
    max_steps: int = 40
    n_particles: int = 500


@dataclass
class Roadmap:
    nodes: np.ndarray  # (m, 2); node 0 is the source, node 1 the goal
    edges: csr_array  # (m, m) symmetric edge lengths, int32 indices

    @property
    def source(self) -> int:
        return 0

    @property
    def goal(self) -> int:
        return 1


def build_roadmap(
    scenario: Scenario,
    source: np.ndarray,
    config: PlannerConfig,
    rng: np.random.Generator,
) -> Roadmap:
    """Uniform random roadmap over the workspace with k-nearest edges."""
    (x0, x1), (y0, y1) = scenario.workspace
    free = rng.uniform([x0, y0], [x1, y1], size=(config.n_nodes, 2))
    nodes = np.vstack([np.asarray(source, dtype=float).reshape(1, 2), scenario.goal[None, :], free])
    m = len(nodes)
    k = min(config.k_nearest + 1, m)
    dists, nbrs = cKDTree(nodes).query(nodes, k=k)
    rows = np.repeat(np.arange(m, dtype=np.int32), k - 1)
    cols = nbrs[:, 1:].ravel().astype(np.int32)
    lengths = dists[:, 1:].ravel()
    ok = np.isfinite(lengths)
    knn = csr_array((lengths[ok], (rows[ok], cols[ok])), shape=(m, m))
    # Mutual neighbours hold the same length both ways, so the maximum keeps
    # it; summing both directions would double it.
    return Roadmap(nodes=nodes, edges=knn.maximum(knn.T))


def k_shortest_paths(roadmap: Roadmap, n_paths: int) -> list:
    """Up to n_paths loopless paths source-to-goal, ordered by total length
    (Yen's algorithm)."""
    # scipy's yen corrupts the heap when asked for fewer than one path
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    _, preds = yen(
        roadmap.edges, roadmap.source, roadmap.goal, n_paths, return_predecessors=True
    )
    paths = []
    for row in preds:
        path = [roadmap.goal]
        while path[-1] != roadmap.source:
            path.append(int(row[path[-1]]))
        paths.append(path[::-1])
    return paths


def discretize(waypoints: np.ndarray, max_step: float) -> np.ndarray:
    """Split a polyline into actions of norm at most max_step.

    Each segment is divided evenly, so the actions sum exactly to the
    displacement between the endpoints.
    """
    if max_step <= 0:
        raise ValueError("max_step must be positive")
    waypoints = np.asarray(waypoints, dtype=float).reshape(-1, 2)
    actions = []
    for a, b in zip(waypoints[:-1], waypoints[1:]):
        seg = b - a
        length = float(np.linalg.norm(seg))
        if length == 0.0:
            continue
        pieces = max(1, math.ceil(length / max_step))
        actions.extend([seg / pieces] * pieces)
    return np.asarray(actions).reshape(-1, 2)


def select_plan(evaluations: list, threshold: float) -> int | None:
    """Choose the cheapest candidate whose safety estimate clears threshold.

    evaluations: list of dicts with keys plan, p_safe, cost (reports).  Ties
    on cost go to the shorter plan, then to the lower candidate index.
    Returns the chosen list index, or None when nothing qualifies (Stop).
    """
    admissible = [
        (ev["cost"].value, ev["plan"].horizon, i)
        for i, ev in enumerate(evaluations)
        if ev["p_safe"].value >= threshold
    ]
    if not admissible:
        return None
    return min(admissible)[2]


@dataclass
class PlanningResult:
    trial: int
    method: str
    safe: bool
    reached_goal: bool
    stopped: bool
    dist_to_goal: float
    traj_len: float
    steps: int
    wall_ms: float


def _violates(scenario: Scenario, world: WorldTruth, x: np.ndarray) -> bool:
    radii = scenario.unsafe_radius[world.labels]
    d = np.linalg.norm(world.objects - x[None, :], axis=1)
    return bool(np.any(d <= radii))


def run_planning_trial(
    scenario: Scenario,
    method_tag: str,
    trial: int,
    base_seed: int,
    config: PlannerConfig = PlannerConfig(),
) -> PlanningResult:
    """One closed-loop trial: opening moves, then replan/execute to the goal.

    The world comes from the (base_seed, trial) world stream, and the
    sensor-noise stream is keyed by (base_seed, trial) only, so every
    method sees byte-identical observations while trajectories coincide.
    """
    world_rng = np.random.default_rng(np.random.SeedSequence((base_seed, trial, 0)))
    noise_rng = np.random.default_rng(np.random.SeedSequence((base_seed, trial, 1)))
    sampler_rng = np.random.default_rng(
        np.random.SeedSequence((base_seed, trial, 2, zlib.crc32(method_tag.encode())))
    )
    world = sample_world(scenario, world_rng)
    t_start = time.perf_counter()
    method = create_method(method_tag, scenario, config.n_particles)
    x = world.trajectory[0].copy()
    traj = [x.copy()]
    violated = False
    stopped = False

    def execute(action) -> None:
        nonlocal x, violated
        x = step_transition(x, action, scenario, noise_rng)
        traj.append(x.copy())
        world.trajectory = np.asarray(traj)
        batch = observe(scenario, world, len(traj) - 1, noise_rng)
        method.update(action, batch, sampler_rng)
        if _violates(scenario, world, x):
            violated = True

    for action in scenario.opening_actions:
        execute(action)

    # Remaining actions of the plan currently being executed.  Re-evaluated
    # against fresh roadmap candidates at every replan, so the robot abandons
    # it only when new evidence turns it unsafe, not because a freshly drawn
    # roadmap happens to miss the corridor it is already committed to.
    tail = np.zeros((0, 2))
    while len(traj) - 1 < config.max_steps:
        if np.linalg.norm(x - scenario.goal) <= config.goal_radius:
            break
        roadmap = build_roadmap(scenario, method.pose_mean(), config, sampler_rng)
        paths = k_shortest_paths(roadmap, config.n_candidates)
        candidates = [discretize(roadmap.nodes[path], config.max_step) for path in paths]
        if len(tail):
            candidates.append(tail)
        evaluations = []
        for actions in candidates:
            if len(actions) == 0:
                continue
            plan = OpenLoopPlan(actions)
            est = method.estimate(plan, config.n_samples, sampler_rng)
            evaluations.append(
                {"plan": plan, "p_safe": est["p_safe"], "cost": est["cost"]}
            )
        choice = select_plan(evaluations, config.safety_threshold)
        if choice is None:
            stopped = True
            break
        plan = evaluations[choice]["plan"]
        execute(plan.actions[0])
        tail = plan.actions[1:]

    traj_arr = np.asarray(traj)
    reached = bool(np.linalg.norm(x - scenario.goal) <= config.goal_radius)
    return PlanningResult(
        trial=trial,
        method=method_tag,
        safe=not violated,
        reached_goal=reached,
        stopped=stopped,
        dist_to_goal=float(np.linalg.norm(x - scenario.goal)),
        traj_len=float(np.linalg.norm(np.diff(traj_arr, axis=0), axis=1).sum()),
        steps=len(traj) - 1,
        wall_ms=(time.perf_counter() - t_start) * 1e3,
    )
