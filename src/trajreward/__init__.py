"""Self-rewarding trajectory scoring and tabular policy-flow checks."""

from .analysis import DiversityMetrics, FeatureStats, diversity_metrics, feature_statistics
from .distance import (
    DistanceMatrix,
    NormalizedCurve,
    batch_distance_matrices,
    normalized_curve,
    plan_requests,
    score_plan,
)
from .rewards import (
    CuriosityConfig,
    GroupReward,
    RewardReport,
    TrajectoryFeatures,
    assemble_rewards,
    consistency,
    curiosity_reward,
    linear_group_reward,
    normalize_advantages,
    vector_group_reward,
    volatility,
)
from .scoring import (
    FileCacheScorer,
    HttpScorer,
    ScoreRequest,
    ScoreResponse,
    ToyModel,
    score_batch,
)
from .simulate import (
    ConvergenceInstance,
    FlowConfig,
    LatentTabularModel,
    TabularPolicy,
    exact_policy_gradient,
    flow_step,
    policy_velocity,
    simulate_collapse,
    simulate_convergence,
    verify_elbo,
)
from .trajectory import (
    AnswerGroup,
    PromptBatch,
    ReasoningStep,
    SegmentationRules,
    Trajectory,
    canonicalize_answer,
    group_by_answer,
    segment_trajectory,
)

__version__ = "0.1.0"
