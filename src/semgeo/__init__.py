"""Hybrid semantic-geometric belief inference, estimation, and planning.

The package factors the joint posterior over continuous robot/object states
and per-object discrete classes so that reward expectations and safety
probabilities can be estimated without enumerating the exponential joint
hypothesis space, alongside exact and particle-filter baselines that do
enumerate it, a chance-constrained roadmap planner, and an experiment
harness with built-in consistency oracles.
"""

from .baselines import (
    AnalyticHybridBelief,
    HypothesisParticleFilter,
    gs_map_estimate,
    verify_weight_recursion,
)
from .belief import CodecRangeError, HybridBelief, enumerate_labels
from .estimators import (
    EstimateReport,
    OpenLoopPlan,
    RewardTerm,
    estimate_explicit_c,
    estimate_sampled_xc,
    estimate_structured,
    expected_cost,
    is_mse_lower_bound,
    rao_blackwell_gap,
    rollout_states,
    safety_reward,
)
from .gaussian import GaussianFactorGraph, SingularPrecisionError, StackedIndex
from .harness import (
    ConfigError,
    ExperimentConfig,
    MetricRow,
    load_scenario,
    resize_scenario,
    run_experiment,
)
from .methods import METHOD_TAGS, ExactReference, create_method
from .oracles import run_oracle_checks
from .planner import (
    PlannerConfig,
    PlanningResult,
    Roadmap,
    build_roadmap,
    discretize,
    k_shortest_paths,
    run_planning_trial,
    select_plan,
)
from .samplers import (
    DegenerateWeightsError,
    WeightedStateSet,
    complete_hypotheses,
    mh_sample,
    snis_sample,
    uniform_hypothesis_is,
)
from .scenario import (
    History,
    ObservationBatch,
    Scenario,
    ScenarioError,
    WorldTruth,
    observe,
    sample_world,
    simulate,
    step_transition,
    trial_streams,
)

__version__ = "0.1.0"
