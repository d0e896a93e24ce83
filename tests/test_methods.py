"""One shared contract across the seven tracked-belief method variants.

Every method exposes update / pose_mean / estimate with identical call
shapes, so the planner and harness never branch on the tag; the harness's
reference answers through the same estimate.  Tests pin that contract, the
pruning side effects, and rough agreement of the unbiased estimators with
the exhaustive reference.
"""

import copy
import gc
import math
import weakref

import numpy as np
import pytest
from numpy.testing import assert_array_equal

import semgeo.methods as methods_mod
from semgeo.estimators import EstimateReport, OpenLoopPlan
from semgeo.methods import METHOD_TAGS, ExactReference, _Method, create_method
from semgeo.scenario import ScenarioError, simulate, trial_streams

from studies import EMPTY_PLAN

PLAN = OpenLoopPlan(np.tile([0.4, 0.2], (3, 1)))


def build(tag, scenario, **options):
    """A method by tag; "reference" is the harness's ExactReference."""
    if tag == "reference":
        return ExactReference(scenario)
    return create_method(tag, scenario, **options)


def advanced(tag, scenario, history, seed=17, **options):
    method = build(tag, scenario, **options)
    rng = np.random.default_rng(seed)
    for action, batch in zip(history.actions, history.batches):
        method.update(action, batch, rng)
    return method, rng


class TestCreateMethod:
    def test_every_tag_instantiates(self, oracle_small):
        for tag in METHOD_TAGS:
            assert create_method(tag, oracle_small).tag == tag

    def test_unknown_tag_rejected(self, oracle_small):
        with pytest.raises(ValueError, match="unknown method tag"):
            create_method("bogus", oracle_small)

    def test_particle_count_option(self, oracle_small, seeded_history):
        _, history, _, _, _ = seeded_history
        method, _ = advanced("pf-all-hyp", oracle_small, history, n_particles=96)
        assert method.pf.n_particles == 96

    def test_misspelt_option_rejected(self, oracle_small):
        with pytest.raises(TypeError, match="n_particle"):
            create_method("pf-pruned", oracle_small, n_particle=10)

    def test_rows_without_a_draw_are_particle_filters(self, oracle_small):
        """Every tag is a row of one table; the row alone decides the class
        and the pruning."""
        assert METHOD_TAGS == tuple(methods_mod._TABLE)
        for tag, (_, draw, keep) in methods_mod._TABLE.items():
            method = create_method(tag, oracle_small)
            assert isinstance(method, methods_mod._ParticleMethod) == (draw is None)
            assert method._keep == keep

    def test_fast_conditional_is_rejected_by_every_tag(self, oracle_small):
        """The reference is its own class (ExactReference); no tag switches
        into its route."""
        for tag in METHOD_TAGS:
            with pytest.raises(TypeError, match="fast_conditional"):
                create_method(tag, oracle_small, fast_conditional=True)


class TestSharedContract:
    @pytest.mark.parametrize("tag", METHOD_TAGS)
    def test_update_then_estimate(self, tag, oracle_small, seeded_history):
        _, history, _, _, _ = seeded_history
        method, rng = advanced(tag, oracle_small, history)
        assert (method.pf if tag.startswith("pf-") else method).k == len(history.batches)
        assert method.pose_mean().shape == (2,)
        est = method.estimate(PLAN, 60, rng)
        assert set(est) == {"p_safe", "cost"}
        for rep in est.values():
            assert isinstance(rep, EstimateReport)
            assert np.isfinite(rep.value) and rep.n_samples > 0
        assert -1e-9 <= est["p_safe"].value <= 1.0 + 1e-9
        assert est["cost"].value > 0.0

    @pytest.mark.parametrize("tag", METHOD_TAGS)
    def test_out_of_order_batch_rejected(self, tag, oracle_small, seeded_history):
        _, history, _, _, _ = seeded_history
        method = create_method(tag, oracle_small)
        rng = np.random.default_rng(3)
        method.update(history.actions[0], history.batches[0], rng)
        with pytest.raises(ScenarioError, match="batch.t"):
            method.update(history.actions[0], history.batches[0], rng)

    @pytest.mark.parametrize("tag", METHOD_TAGS)
    def test_threshold_leaves_the_stream_unchanged(self, tag, oracle_small, seeded_history):
        """A shared-path method costs a plan only when its p_safe clears the
        threshold, from the rollout it already drew; the particle filters
        cost every plan.  Either way the threshold moves no random draw."""
        _, history, _, _, _ = seeded_history
        a, rng_a = advanced(tag, oracle_small, history)
        b, rng_b = advanced(tag, oracle_small, history)
        for threshold in (0.0, 1.0000001):
            gated = a.estimate(PLAN, 60, rng_a, threshold)
            full = b.estimate(PLAN, 60, rng_b, 0.0)
            assert gated["p_safe"].value == full["p_safe"].value
            if isinstance(a, _Method) and not gated["p_safe"].value >= threshold:
                assert gated["cost"] is None
            else:
                assert gated["cost"].value == full["cost"].value
                assert gated["cost"].std_error == full["cost"].std_error
            if tag.startswith("pf-"):
                assert gated["cost"] is not None
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    @pytest.mark.parametrize(
        "tag, options",
        [
            ("mcmc-ours", {}),
            ("snis-ours", {}),
            ("theoretical-all-hyp", {}),
            ("theoretical-pruned", {}),
            ("gs-map", {}),
            ("reference", {}),
        ],
    )
    def test_one_posterior_draw_per_step(
        self, tag, options, oracle_small, seeded_history, monkeypatch
    ):
        """A repeat query at one step reuses the step's state set, so it
        draws only the rollout noise; every update forces a new draw."""
        _, history, _, _, _ = seeded_history
        drawn = []
        original = methods_mod.rollout_states
        monkeypatch.setattr(
            methods_mod,
            "rollout_states",
            lambda sset, *args: drawn.append(sset) or original(sset, *args),
        )
        method = build(tag, oracle_small, **options)
        rng = np.random.default_rng(17)
        n = 60
        for action, batch in zip(history.actions, history.batches):
            method.update(action, batch, rng)
            method.estimate(PLAN, n, rng)
            expected = copy.deepcopy(rng)
            expected.standard_normal((n, len(PLAN.actions), 2))
            method.estimate(PLAN, n, rng)
            assert rng.bit_generator.state == expected.bit_generator.state
            assert drawn[-1] is drawn[-2]
        assert len({id(sset) for sset in drawn}) == len(history.batches)

    @pytest.mark.parametrize("tag", [*METHOD_TAGS, "reference"])
    def test_dropped_method_is_freed_at_once(self, tag, oracle_small, seeded_history):
        """A method and its cached draws go with its last reference, not
        at the next full collection: a reference cycle through a cached
        report would keep every finished trial's draws alive, the harness
        reference's 100k-sample sets among them."""
        _, history, _, _, _ = seeded_history
        method, rng = advanced(tag, oracle_small, history)
        method.estimate(PLAN, 60, rng)
        alive = weakref.ref(method)
        gc.disable()
        try:
            del method
            assert alive() is None
        finally:
            gc.enable()

    def test_gs_map_builds_one_point_set_per_step(self, oracle_small, seeded_history, monkeypatch):
        _, history, _, _, _ = seeded_history
        calls = []
        original = methods_mod.gs_map_estimate
        monkeypatch.setattr(
            methods_mod, "gs_map_estimate", lambda b: calls.append(b.k) or original(b)
        )
        method = create_method("gs-map", oracle_small)
        rng = np.random.default_rng(17)
        for action, batch in zip(history.actions, history.batches):
            method.update(action, batch, rng)
            for _ in range(3):
                method.estimate(PLAN, 60, rng)
        assert calls == list(range(1, len(history.batches) + 1))


class TestPruning:
    def test_pruned_variants_track_three(self, oracle_small, seeded_history):
        # four joint hypotheses in this scenario, so pruning bites at once
        _, history, _, _, _ = seeded_history
        full, _ = advanced("theoretical-all-hyp", oracle_small, history)
        pruned, _ = advanced("theoretical-pruned", oracle_small, history)
        assert full.belief.n_tracked == 4
        assert pruned.belief.n_tracked == 3
        pf_full, _ = advanced("pf-all-hyp", oracle_small, history)
        pf_pruned, _ = advanced("pf-pruned", oracle_small, history)
        assert pf_full.pf.n_tracked == 4
        assert pf_pruned.pf.n_tracked == 3


class TestAgreement:
    def test_unbiased_methods_near_reference(self, oracle_small, seeded_history):
        _, history, _, _, _ = seeded_history
        reference, ref_rng = advanced("theoretical-all-hyp", oracle_small, history)
        ref = reference.estimate(PLAN, 20_000, ref_rng)["p_safe"]
        for tag in ("mcmc-ours", "snis-ours", "pf-all-hyp"):
            method, rng = advanced(tag, oracle_small, history)
            est = method.estimate(PLAN, 2_000, rng)["p_safe"]
            band = 6 * np.hypot(est.std_error, ref.std_error) + 0.02
            assert abs(est.value - ref.value) < band, (tag, est.value, ref.value)

    def test_fast_conditional_route_matches(
        self, oracle_small, defaults_scenario, planning_scenario
    ):
        """The reference's factored conditional gives the explicit sum's
        p_safe up to roundoff, from the same draws."""
        for sc in (oracle_small, defaults_scenario, planning_scenario):
            streams = trial_streams(7, 0)
            _, history = simulate(sc, 3, streams.world, streams.noise)
            slow, rng_a = advanced("theoretical-all-hyp", sc, history)
            fast, rng_b = advanced("reference", sc, history)
            a = slow.estimate(PLAN, 4_000, rng_a)
            b = fast.estimate(PLAN, 4_000, rng_b)
            assert abs(a["p_safe"].value - b["p_safe"].value) <= 1e-9
            assert_array_equal(slow._draws[4_000][0].samples, fast._draws[4_000][0].samples)
            assert rng_a.bit_generator.state == rng_b.bit_generator.state

    def test_reference_estimate_is_the_shared_path_p_safe(
        self, oracle_small, defaults_scenario, planning_scenario
    ):
        """The reference answers through the shared estimate.  Asked with an
        infinite threshold, as the harness asks it, it returns the p_safe of
        a fully costed query bit for bit, and no cost; twin-seeded
        references see the same draws, so the rng ends in the same state."""
        assert "estimate" not in vars(ExactReference) and "update" not in vars(ExactReference)
        for sc in (oracle_small, defaults_scenario, planning_scenario):
            streams = trial_streams(11, 0)
            _, history = simulate(sc, 3, streams.world, streams.noise)
            own, rng_a = advanced("reference", sc, history)
            shared, rng_b = advanced("reference", sc, history)
            for plan in (PLAN, OpenLoopPlan(sc.actions[3:9]), EMPTY_PLAN):
                a = own.estimate(plan, 3_000, rng_a, math.inf)
                b = shared.estimate(plan, 3_000, rng_b)
                assert a["cost"] is None and b["cost"] is not None
                assert a["p_safe"].value == b["p_safe"].value
                assert a["p_safe"].std_error == b["p_safe"].std_error
                assert rng_a.bit_generator.state == rng_b.bit_generator.state
