"""Roadmap construction, path discretization, plan selection, closed-loop trials.

Trial tests use a one-class scenario (every radius zero) so safety never
blocks: geometry and bookkeeping can then be asserted exactly.  The planning
behavior under real hypothesis ambiguity is exercised at the acceptance level.
"""

from dataclasses import fields
from itertools import islice

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.sparse import csr_array
from scipy.spatial import cKDTree

import semgeo.methods as methods_mod
import semgeo.planner as planner_mod
from semgeo.estimators import EstimateReport, OpenLoopPlan
from semgeo.methods import METHOD_TAGS
from semgeo.planner import (
    PlannerConfig,
    PlanningResult,
    Roadmap,
    build_roadmap,
    discretize,
    k_shortest_paths,
    run_planning_trial,
    select_plan,
)
from semgeo.scenario import Scenario


def open_scenario(**overrides) -> Scenario:
    """Single harmless class: any path is safe, planning is pure geometry."""
    fields = dict(
        n_objects=1,
        n_classes=1,
        robot_prior_mean=[0.0, 0.0],
        robot_prior_cov=[[0.01, 0.0], [0.0, 0.01]],
        object_prior_means=[[4.0, 5.0]],
        object_prior_covs=[[0.05, 0.0], [0.0, 0.05]],
        class_prior=[[1.0]],
        sigma2_obs=1.0,
        sigma2_x=0.001,
        alphas=[1.0],
        unsafe_radius=[0.0],
        goal=[8.0, 8.0],
        opening_actions=[],
        workspace=[[-2.0, 10.0], [-2.0, 10.0]],
    )
    fields.update(overrides)
    return Scenario(**fields)


QUICK = PlannerConfig(n_nodes=30, k_nearest=6, n_candidates=5, n_samples=50, max_steps=30)


class TestRoadmap:
    def test_source_and_goal_lead_the_nodes(self, rng):
        sc = open_scenario()
        rm = build_roadmap(sc, np.array([1.0, 2.0]), QUICK, rng)
        assert rm.nodes.shape == (QUICK.n_nodes + 2, 2)
        assert_allclose(rm.nodes[rm.source], [1.0, 2.0])
        assert_allclose(rm.nodes[rm.goal], sc.goal)

    def test_sampled_nodes_stay_in_workspace(self, rng):
        sc = open_scenario()
        rm = build_roadmap(sc, np.array([0.0, 0.0]), QUICK, rng)
        (x0, x1), (y0, y1) = sc.workspace
        assert np.all((rm.nodes[2:, 0] >= x0) & (rm.nodes[2:, 0] <= x1))
        assert np.all((rm.nodes[2:, 1] >= y0) & (rm.nodes[2:, 1] <= y1))

    def test_edge_lengths_are_euclidean(self, rng):
        rm = build_roadmap(open_scenario(), np.array([0.0, 0.0]), QUICK, rng)
        coo = rm.edges.tocoo()
        assert coo.nnz >= QUICK.k_nearest * len(rm.nodes)
        lengths = np.linalg.norm(rm.nodes[coo.row] - rm.nodes[coo.col], axis=1)
        assert_allclose(coo.data, lengths, rtol=1e-12)

    def test_edges_symmetric_with_int32_indices(self, rng):
        rm = build_roadmap(open_scenario(), np.array([0.0, 0.0]), QUICK, rng)
        assert rm.edges.indices.dtype == np.int32
        assert rm.edges.indptr.dtype == np.int32
        assert (rm.edges != rm.edges.T).nnz == 0

    def test_k_shortest_paths_ordered_and_loopless(self, rng):
        rm = build_roadmap(open_scenario(), np.array([0.0, 0.0]), QUICK, rng)
        paths = k_shortest_paths(rm, 4)
        assert 1 <= len(paths) <= 4
        lengths = []
        for path in paths:
            assert path[0] == rm.source and path[-1] == rm.goal
            assert len(set(path)) == len(path)
            assert all(rm.edges[a, b] > 0 for a, b in zip(path[:-1], path[1:]))
            lengths.append(sum(rm.edges[a, b] for a, b in zip(path[:-1], path[1:])))
        assert np.all(np.diff(lengths) >= -1e-12)

    @pytest.mark.parametrize("n_paths", [0, -1])
    def test_k_shortest_paths_needs_one_path(self, rng, n_paths):
        """Refused before scipy's yen, which corrupts the heap at K < 1."""
        rm = build_roadmap(open_scenario(), np.array([0.0, 0.0]), QUICK, rng)
        with pytest.raises(ValueError, match="n_paths must be >= 1"):
            k_shortest_paths(rm, n_paths)

    def test_disconnected_goal_yields_no_paths(self):
        # the source (node 0) links to node 2 only; the goal (node 1) has no edge
        rows, cols = np.array([0, 2], dtype=np.int32), np.array([2, 0], dtype=np.int32)
        edges = csr_array((np.ones(2), (rows, cols)), shape=(3, 3))
        rm = Roadmap(nodes=np.zeros((3, 2)), edges=edges)
        assert k_shortest_paths(rm, 3) == []

    @pytest.mark.parametrize(
        "config",
        [
            PlannerConfig(n_nodes=40, k_nearest=6, n_candidates=200),  # planning table
            PlannerConfig(n_candidates=50),  # default roadmap: 150 nodes, k=8
        ],
        ids=["planning-table", "default-roadmap"],
    )
    def test_paths_match_networkx(self, config, planning_scenario):
        """Same paths in the same order as networkx's Yen over a graph built
        edge by edge from the k-nearest query."""
        nx = pytest.importorskip("networkx")
        for seed in range(5):
            rng = np.random.default_rng(seed)
            rm = build_roadmap(planning_scenario, planning_scenario.robot_prior_mean, config, rng)
            dists, nbrs = cKDTree(rm.nodes).query(rm.nodes, k=config.k_nearest + 1)
            g = nx.Graph()
            g.add_nodes_from(range(len(rm.nodes)))
            for i in range(len(rm.nodes)):
                for d, j in zip(dists[i, 1:], nbrs[i, 1:]):
                    g.add_edge(i, int(j), length=float(d))
            gen = nx.shortest_simple_paths(g, rm.source, rm.goal, weight="length")
            expected = list(islice(gen, config.n_candidates))
            assert k_shortest_paths(rm, config.n_candidates) == expected


class TestDiscretize:
    def test_actions_sum_to_displacement(self, rng):
        pts = rng.uniform(-5, 5, size=(6, 2))
        actions = discretize(pts, max_step=0.7)
        assert_allclose(actions.sum(axis=0), pts[-1] - pts[0], atol=1e-12)

    def test_every_action_within_cap(self, rng):
        pts = rng.uniform(-5, 5, size=(6, 2))
        actions = discretize(pts, max_step=0.7)
        assert np.all(np.linalg.norm(actions, axis=1) <= 0.7 + 1e-12)

    def test_segments_divide_evenly(self):
        actions = discretize([[0.0, 0.0], [2.5, 0.0]], max_step=1.0)
        assert actions.shape == (3, 2)
        assert_allclose(actions, np.tile([2.5 / 3, 0.0], (3, 1)), rtol=1e-12)

    def test_repeated_waypoint_contributes_nothing(self):
        actions = discretize([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]], max_step=1.0)
        assert actions.shape == (1, 2)

    def test_nonpositive_cap_rejected(self):
        with pytest.raises(ValueError, match="max_step"):
            discretize([[0.0, 0.0], [1.0, 0.0]], max_step=0.0)


def _ev(p_safe: float, cost: float | None, horizon: int) -> dict:
    plan = OpenLoopPlan(np.zeros((horizon, 2)) + 0.1)
    report = lambda v: EstimateReport(v, 0.0, 1, 1.0)
    return {"plan": plan, "p_safe": report(p_safe), "cost": None if cost is None else report(cost)}


class TestSelectPlan:
    def test_cheapest_admissible_wins(self):
        evs = [_ev(0.99, 5.0, 3), _ev(0.99, 4.0, 6), _ev(0.10, 1.0, 2)]
        assert select_plan(evs, 0.95) == 1
        # an estimate skips the cost of a candidate below the threshold
        uncosted = [_ev(0.10, None, 2), _ev(0.99, 5.0, 3), _ev(0.99, 4.0, 6), _ev(0.94, None, 1)]
        assert select_plan(uncosted, 0.95) == 2

    def test_threshold_is_inclusive(self):
        assert select_plan([_ev(0.95, 1.0, 1)], 0.95) == 0

    def test_cost_tie_prefers_shorter_plan(self):
        evs = [_ev(0.99, 4.0, 6), _ev(0.99, 4.0, 3)]
        assert select_plan(evs, 0.95) == 1

    def test_full_tie_prefers_lower_index(self):
        evs = [_ev(0.99, 4.0, 3), _ev(0.99, 4.0, 3)]
        assert select_plan(evs, 0.95) == 0

    def test_none_when_nothing_clears(self):
        assert select_plan([_ev(0.90, 1.0, 1), _ev(0.94, 2.0, 2)], 0.95) is None
        assert select_plan([], 0.95) is None


class TestTrial:
    def test_open_world_reaches_goal(self):
        res = run_planning_trial(open_scenario(), "gs-map", 0, 42, QUICK)
        assert res.safe and res.reached_goal and not res.stopped
        assert res.dist_to_goal <= QUICK.goal_radius
        assert res.steps <= QUICK.max_steps
        # straight-line distance is a lower bound on the executed path
        assert res.traj_len >= np.hypot(8.0, 8.0) - res.dist_to_goal - 1e-9

    def test_result_is_reproducible(self):
        a = run_planning_trial(open_scenario(), "mcmc-ours", 3, 42, QUICK)
        b = run_planning_trial(open_scenario(), "mcmc-ours", 3, 42, QUICK)
        for name in ("safe", "reached_goal", "stopped", "dist_to_goal", "traj_len", "steps"):
            assert getattr(a, name) == getattr(b, name)

    def test_impossible_threshold_stops_immediately(self):
        cfg = PlannerConfig(
            n_nodes=20, k_nearest=4, n_candidates=3, n_samples=20,
            safety_threshold=1.0000001, max_steps=10,
        )
        res = run_planning_trial(open_scenario(), "gs-map", 0, 42, cfg)
        assert res.stopped and res.safe and not res.reached_goal
        assert res.steps == 0  # no opening moves, stop before acting

    def test_opening_actions_execute_before_planning(self):
        sc = open_scenario(opening_actions=[[0.5, 0.5], [0.5, 0.5]])
        cfg = PlannerConfig(
            n_nodes=20, k_nearest=4, n_candidates=3, n_samples=20,
            safety_threshold=1.0000001, max_steps=10,
        )
        res = run_planning_trial(sc, "gs-map", 0, 42, cfg)
        assert res.stopped and res.steps == 2

    @pytest.mark.parametrize("tag", METHOD_TAGS)
    def test_first_replan_precedes_any_update(self, tag, oracle_small):
        """Without opening moves every method is queried before its first
        update, and still plans."""
        sc = Scenario.from_dict(dict(oracle_small.to_dict(), opening_actions=[]))
        cfg = PlannerConfig(
            n_nodes=20, k_nearest=4, n_candidates=3, n_samples=20, max_steps=2
        )
        res = run_planning_trial(sc, tag, 0, 42, cfg)
        assert res.stopped or res.steps >= 1
        assert res.steps <= cfg.max_steps

    def test_step_cap_truncates(self):
        cfg = PlannerConfig(
            n_nodes=30, k_nearest=6, n_candidates=5, n_samples=20, max_steps=3
        )
        res = run_planning_trial(open_scenario(), "gs-map", 0, 42, cfg)
        assert res.steps == 3
        assert not res.reached_goal and not res.stopped

    def test_committed_tail_survives_roadmap_dropout(self, monkeypatch):
        # after the first replan the roadmap never finds a path again; the
        # remembered tail of the committed plan must carry the robot through
        original = planner_mod.k_shortest_paths
        state = {"first": True}

        def dropout(roadmap, n_paths):
            if state["first"]:
                state["first"] = False
                return original(roadmap, n_paths)
            return []

        monkeypatch.setattr(planner_mod, "k_shortest_paths", dropout)
        res = run_planning_trial(open_scenario(), "gs-map", 0, 42, QUICK)
        assert res.reached_goal and not res.stopped


class TestCostGate:
    # trial 2 of seed 11 runs two replans with admissible candidates for
    # every tag but all-hyp; the other trials stop at their first replan
    CONFIG = PlannerConfig(n_nodes=40, k_nearest=6, n_candidates=40, n_samples=100, max_steps=8)

    # the shared-path tags: the particle filters cost every candidate
    SHARED_PATH = sorted(tag for tag, (_, draw, _) in methods_mod._TABLE.items() if draw)

    @pytest.mark.parametrize("tag", SHARED_PATH)
    def test_gated_trial_equals_fully_costed(self, tag, planning_scenario, monkeypatch):
        """Costing only the candidates that clear the threshold changes no
        trial: select_plan reads no other cost, and a cost draws nothing."""
        costed = []
        cost = methods_mod.expected_cost
        monkeypatch.setattr(
            methods_mod, "expected_cost", lambda *args: costed.append(1) or cost(*args)
        )

        def trials():
            return [
                run_planning_trial(planning_scenario, tag, t, 11, self.CONFIG) for t in range(8)
            ]

        gated = trials()
        n_gated = len(costed)
        estimate = methods_mod._Method.estimate
        monkeypatch.setattr(
            methods_mod._Method,
            "estimate",
            lambda self, plan, n, rng, threshold=0.0: estimate(self, plan, n, rng, 0.0),
        )
        full = trials()
        for a, b in zip(gated, full):
            for field in fields(PlanningResult):
                if field.name != "wall_ms":
                    assert getattr(a, field.name) == getattr(b, field.name), field.name
        assert n_gated < len(costed) - n_gated
