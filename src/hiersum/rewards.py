"""Episode rewards: diversity, representativeness, and subgoal agreement.

Diversity is the mean pairwise cosine dissimilarity within the selected
frames. Representativeness is exp(-mean over all frames of the euclidean
distance to the nearest selected frame). The subgoal reward compares the
Worker's mean score per subtask with the Manager's predicted subtask
probability; subtasks are the blocks of a data.subtask_bounds array, and the
Worker's means come from data.block_means over them. The combined reward is
a convex mix of the diversity / representativeness average and the subgoal
term.

episode_rewards scores all of a video's sampled episodes from one T x T
euclidean distance matrix (T^2 * 8 bytes), built once per call and indexed
by each episode's selected frames.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

DEFAULT_ALPHA = 0.5


@dataclass(frozen=True)
class RewardBreakdown:
    r_d: float
    r_rep: float
    r_sub: float
    r: float


def dissimilarity(x, x_other):
    """Cosine dissimilarity 1 - <x, x'> / (|x| |x'|); zero vectors are rejected."""
    x = np.asarray(x, dtype=np.float64)
    x_other = np.asarray(x_other, dtype=np.float64)
    nx = np.linalg.norm(x)
    ny = np.linalg.norm(x_other)
    if nx == 0.0 or ny == 0.0:
        raise ValueError("cosine dissimilarity is undefined for a zero feature vector")
    return 1.0 - float(x @ x_other) / (nx * ny)


def diversity_reward(features, selected):
    """Mean pairwise cosine dissimilarity within the selected frames; 0 if fewer than 2."""
    selected = np.asarray(selected, dtype=np.int64)
    if selected.size < 2:
        return 0.0
    feats = np.asarray(features, dtype=np.float64)[selected]
    norms = np.linalg.norm(feats, axis=1)
    if np.any(norms == 0.0):
        raise ValueError("cosine dissimilarity is undefined for a zero feature vector")
    cos = (feats @ feats.T) / np.outer(norms, norms)
    dis = 1.0 - cos
    k = selected.size
    off_diag_sum = dis.sum() - np.trace(dis)
    return float(off_diag_sum) / (k * (k - 1))


def representativeness_reward(features, selected):
    """exp(-mean distance from each frame to its nearest selected frame).

    An empty selection scores the worst case exp(-max pairwise distance), so
    sampled episodes that pick nothing are penalized rather than crashing.
    """
    feats = np.asarray(features, dtype=np.float64)
    return _representativeness(cdist(feats, feats), np.asarray(selected, dtype=np.int64))


def _representativeness(dist, selected):
    """R_rep from the (T, T) distance matrix of all frames and the selected indices.

    Column j of cdist(X, X) holds the same per-pair distances as
    cdist(X, X[[j]]), so this is bit-identical to computing only the
    selected columns.
    """
    if selected.size == 0:
        return float(np.exp(-dist.max()))
    return float(np.exp(-dist[:, selected].min(axis=1).mean()))


def sub_reward(score_means, subtask_probs):
    """exp(-mean |Worker subtask-mean score - Manager subtask probability|)."""
    score_means = np.asarray(score_means, dtype=np.float64)
    subtask_probs = np.asarray(subtask_probs, dtype=np.float64)
    if score_means.shape != subtask_probs.shape:
        raise ValueError(
            f"{score_means.shape[0]} score means vs {subtask_probs.shape[0]} subtask probabilities"
        )
    return float(np.exp(-np.abs(score_means - subtask_probs).mean()))


def combine(r_dr, r_sub, alpha=DEFAULT_ALPHA):
    """Convex combination alpha * R_dr + (1 - alpha) * R_sub."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    return alpha * r_dr + (1.0 - alpha) * r_sub


def sub_reward_score_grad(score_means, subtask_probs, bounds):
    """d(sub reward) / d(per-frame scores), holding the subtask probabilities fixed.

    Unlike the diversity and representativeness terms, the subgoal reward
    depends on the scores directly rather than through sampled actions, so
    its gradient is available in closed form: each of the n_i frames of
    subtask i, the block [bounds[i], bounds[i + 1]), gets
    R_sub * (-sign(m_i - yhat_i)) / (N * n_i). At m_i = yhat_i the
    subgradient 0 is used.
    """
    score_means = np.asarray(score_means, dtype=np.float64)
    subtask_probs = np.asarray(subtask_probs, dtype=np.float64)
    r = sub_reward(score_means, subtask_probs)
    lengths = np.diff(bounds)
    return np.repeat(-r * np.sign(score_means - subtask_probs) / (lengths.size * lengths), lengths)


def episode_rewards(features, actions, score_means, subtask_probs, alpha=DEFAULT_ALPHA):
    """One RewardBreakdown per row of an (E, T) 0/1 action matrix.

    The rows share one distance matrix and one subgoal reward, which depends
    on the scores rather than the actions.
    """
    feats = np.asarray(features, dtype=np.float64)
    dist = cdist(feats, feats)
    r_sub = sub_reward(score_means, subtask_probs)
    breakdowns = []
    for row in np.asarray(actions):
        selected = np.flatnonzero(row)
        r_d = diversity_reward(feats, selected)
        r_rep = _representativeness(dist, selected)
        r = combine((r_d + r_rep) / 2.0, r_sub, alpha)
        breakdowns.append(RewardBreakdown(r_d=r_d, r_rep=r_rep, r_sub=r_sub, r=r))
    return breakdowns


def episode_reward(features, selected, score_means, subtask_probs, alpha=DEFAULT_ALPHA):
    """episode_rewards of the one episode that selects the given set of frames."""
    actions = np.zeros((1, np.shape(features)[0]), dtype=np.uint8)
    actions[0, np.asarray(selected, dtype=np.int64)] = 1
    return episode_rewards(features, actions, score_means, subtask_probs, alpha)[0]
