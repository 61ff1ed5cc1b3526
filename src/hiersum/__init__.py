"""Weakly supervised video summarization with a two-level LSTM policy.

A Manager network turns weak per-subtask labels into subgoals, a Worker
network scores frames and is trained by policy gradient against diversity,
representativeness, and subgoal-agreement rewards. Post-processing segments
each video with kernel temporal segmentation and picks keyshots by exact
0/1 knapsack; evaluation covers F score against user summaries and rank
correlations against human importance scores.
"""

__version__ = "0.1.0"

from .data import (
    AnnotationSet,
    Dataset,
    DatasetManifest,
    FeatureSequence,
    ValidationError,
    block_means,
    derive_keyframes,
    derive_task_labels,
    generate_synthetic,
    load_dataset,
    read_features,
    subtask_bounds,
    write_features,
)
from .evaluation import evaluate_run, f_score, f_score_multi, kendall_tau, spearman_rho
from .kts import ShotPartition, kts_segment
from .nn import Adam, ParamStore, grad_check, load_checkpoint, save_checkpoint
from .policy import greedy_scores, init_policy, manager_forward, sample_actions, worker_forward
from .rewards import (
    RewardBreakdown,
    diversity_reward,
    episode_reward,
    representativeness_reward,
    sub_reward,
)
from .seeding import substream
from .summarize import Summary, knapsack_select, make_summary
from .training import TrainConfig, crossval_split, train, train_run
