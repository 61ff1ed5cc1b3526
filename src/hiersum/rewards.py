"""Episode rewards: diversity, representativeness, and subgoal agreement.

Diversity is the mean pairwise cosine dissimilarity within the selected
frames. Representativeness is exp(-mean over all frames of the euclidean
distance to the nearest selected frame). The subgoal reward compares the
Worker's mean score per subtask with the Manager's predicted subtask
probability; subtasks are the blocks of a data.subtask_bounds array, and the
Worker's means come from data.block_means over them. The combined reward is
a convex mix of the diversity / representativeness average and the subgoal
term.

episode_reward scores all of a video's sampled episodes, the rows of an
(E, T) action matrix, in one call and from one T x T Gram matrix
(T^2 * 8 bytes): one product with it gives every episode's diversity, and it
is then reused in place as the euclidean distance matrix. A row scores the
same bits alone or among others, so one episode is a one-row action matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_ALPHA = 0.5


@dataclass(frozen=True)
class RewardBreakdown:
    r_d: np.ndarray  # (E,) per episode
    r_rep: np.ndarray  # (E,) per episode
    r_sub: float  # the scores' subgoal agreement, shared by every episode
    r: np.ndarray  # (E,) per episode


def _action_rewards(features, actions):
    """(R_div, R_rep) arrays for the rows of an (E, T) 0/1 action matrix, from one Gram matrix.

    R_div of a row is the mean cosine dissimilarity 1 - <x, y> / (|x| |y|)
    over its pairs of selected frames, 0 with fewer than 2; a row that
    selects an all-zero frame among 2 or more raises ValueError, since the
    cosine is undefined there. R_rep is exp(-mean distance from every frame
    to its nearest selected frame), and exp(-max pairwise distance), the
    worst case, for a row that selects nothing.

    Once it has given every episode's cosine sums (_cos_sums), the Gram
    matrix G becomes the distances sqrt(max(|x|^2 + |y|^2 - 2 x.y, 0)) in
    place. Beside the actions, G and a float64 copy of the features, the
    step holds two float64 (E, T) arrays at its peak (_cos_sums), then one
    T x |selected| column block per episode (_representativeness).
    """
    feats = np.asarray(features, dtype=np.float64)
    actions = np.asarray(actions)
    # the copy makes numpy call gemm: its syrk for X @ X.T is threaded even at
    # T=200, D=16, where it was 2-3x slower and at times took 8 ms on 2 cores
    gram = feats @ feats.T.copy()
    sq_norms = gram.diagonal().copy()
    counts = actions.sum(axis=1, dtype=np.float64)
    if np.any((counts >= 2) & actions[:, sq_norms == 0.0].any(axis=1)):
        raise ValueError("cosine dissimilarity is undefined for a zero feature vector")
    cos_sums = _cos_sums(actions, gram, sq_norms)
    pairs = counts * (counts - 1.0)
    r_div = np.where(pairs > 0, 1.0 - (cos_sums - counts) / np.maximum(pairs, 1.0), 0.0)
    dist = np.multiply(gram, -2.0, out=gram)
    dist += sq_norms[:, None]
    dist += sq_norms
    np.sqrt(np.maximum(dist, 0.0, out=dist), out=dist)
    np.fill_diagonal(dist, 0.0)
    return r_div, np.array([_representativeness(dist, np.flatnonzero(row)) for row in actions])


def _cos_sums(actions, gram, sq_norms):
    """Per episode, the sum of cos(x, y) over ordered pairs of selected frames, self pairs included.

    With the actions scaled by 1/|x| into w, these are the row sums of
    (w @ G) * w. einsum sums each row of that product in the same order
    whatever E is (BLAS does not), so a row scores the same bits alone or
    among others. w and the product are the step's two (E, T) float64
    arrays, freed on return.
    """
    weights = actions / np.sqrt(np.where(sq_norms == 0.0, 1.0, sq_norms))
    product = np.einsum("et,ts->es", weights, gram)
    product *= weights
    return product.sum(axis=1)


def _representativeness(dist, selected):
    """R_rep of one episode from the distances (the Gram matrix, reused in place)."""
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


def episode_reward(features, actions, score_means, subtask_probs, alpha=DEFAULT_ALPHA):
    """The rewards of each row of an (E, T) 0/1 action matrix; r_sub depends on the scores only."""
    r_d, r_rep = _action_rewards(features, actions)
    r_sub = sub_reward(score_means, subtask_probs)
    return RewardBreakdown(r_d, r_rep, r_sub, combine((r_d + r_rep) / 2.0, r_sub, alpha))
