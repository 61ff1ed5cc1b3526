import itertools
import math

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from hiersum.data import block_means, subtask_bounds
from hiersum.rewards import (
    RewardBreakdown,
    combine,
    dissimilarity,
    diversity_reward,
    episode_reward,
    episode_rewards,
    representativeness_reward,
    sub_reward,
    sub_reward_score_grad,
)
from hiersum.seeding import substream


# plain-loop reference implementations, no shared code with the module


def loop_dissimilarity(x, y):
    dot = sum(a * b for a, b in zip(x, y))
    nx = math.sqrt(sum(a * a for a in x))
    ny = math.sqrt(sum(b * b for b in y))
    return 1.0 - dot / (nx * ny)


def loop_diversity(feats, selected):
    if len(selected) < 2:
        return 0.0
    pairs = list(itertools.combinations(selected, 2))
    return sum(loop_dissimilarity(feats[i], feats[j]) for i, j in pairs) / len(pairs)


def loop_representativeness(feats, selected):
    def dist(i, j):
        return math.sqrt(sum((a - b) ** 2 for a, b in zip(feats[i], feats[j])))

    t = len(feats)
    if len(selected) == 0:
        worst = max(dist(i, j) for i in range(t) for j in range(t))
        return math.exp(-worst)
    mean_min = sum(min(dist(i, j) for j in selected) for i in range(t)) / t
    return math.exp(-mean_min)


# --- pairwise dissimilarity ----------------------------------------------------


def test_dissimilarity_self_is_zero():
    x = substream(41, "r").normal(size=6)
    assert abs(dissimilarity(x, x)) <= 1e-12


def test_dissimilarity_orthogonal_and_known_angle():
    assert dissimilarity([1.0, 0.0], [0.0, 1.0]) == 1.0
    assert abs(dissimilarity([1.0, 0.0], [1.0, 1.0]) - (1.0 - 1.0 / math.sqrt(2.0))) < 1e-15
    assert abs(dissimilarity([1.0, 0.0], [-1.0, 0.0]) - 2.0) < 1e-15


def test_dissimilarity_zero_vector_rejected():
    with pytest.raises(ValueError, match="zero feature vector"):
        dissimilarity([0.0, 0.0], [1.0, 0.0])
    with pytest.raises(ValueError, match="zero feature vector"):
        diversity_reward(np.array([[0.0, 0.0], [1.0, 0.0]]), [0, 1])


# --- diversity over all subsets --------------------------------------------------


@pytest.mark.parametrize("t", [5, 8])
def test_diversity_matches_loop_oracle_all_subsets(t):
    feats = substream(42, "r", str(t)).normal(size=(t, 4))
    for k in range(t + 1):
        for selected in itertools.combinations(range(t), k):
            got = diversity_reward(feats, list(selected))
            want = loop_diversity(feats, selected)
            assert abs(got - want) <= 1e-12


def test_diversity_conventions_and_bounds():
    feats = substream(43, "r").normal(size=(6, 3))
    assert diversity_reward(feats, []) == 0.0
    assert diversity_reward(feats, [3]) == 0.0
    full = diversity_reward(feats, list(range(6)))
    assert 0.0 <= full <= 2.0
    assert diversity_reward(np.eye(4), [0, 1, 2, 3]) == 1.0  # orthogonal selection


def test_diversity_selection_order_invariant():
    feats = substream(44, "r").normal(size=(7, 3))
    a = diversity_reward(feats, [0, 2, 5, 6])
    b = diversity_reward(feats, [6, 0, 5, 2])
    assert abs(a - b) <= 1e-12


# --- representativeness over all subsets ------------------------------------------


@pytest.mark.parametrize("t", [5, 8])
def test_representativeness_matches_loop_oracle_all_subsets(t):
    feats = substream(45, "r", str(t)).normal(size=(t, 4))
    for k in range(t + 1):
        for selected in itertools.combinations(range(t), k):
            got = representativeness_reward(feats, list(selected))
            want = loop_representativeness(feats, selected)
            assert abs(got - want) <= 1e-12


def test_representativeness_properties():
    feats = substream(46, "r").normal(size=(10, 4))
    all_sel = representativeness_reward(feats, list(range(10)))
    assert all_sel == 1.0  # every frame is its own nearest selection
    empty = representativeness_reward(feats, [])
    some = representativeness_reward(feats, [0, 4, 9])
    assert 0.0 < empty <= some <= 1.0
    a = representativeness_reward(feats, [1, 5, 8])
    b = representativeness_reward(feats, [8, 1, 5])
    assert abs(a - b) <= 1e-12


# --- subgoal agreement -------------------------------------------------------------


def test_sub_reward_values():
    assert abs(sub_reward([1.0], [0.0]) - math.exp(-1.0)) < 1e-12
    assert abs(sub_reward([1.0], [0.0]) - 0.36788) < 1e-5
    assert sub_reward([0.3, 0.7], [0.3, 0.7]) == 1.0
    assert abs(sub_reward([0.75, 0.25], [0.25, 0.75]) - math.exp(-0.5)) < 1e-15


def test_sub_reward_shape_check():
    with pytest.raises(ValueError, match="2 score means vs 3"):
        sub_reward([0.1, 0.2], [0.1, 0.2, 0.3])


def test_subtask_score_means_short_tail():
    bounds = subtask_bounds(7, 3)  # lengths 3, 3, 1
    scores = np.array([0.0, 0.25, 0.5, 1.0, 1.0, 0.25, 0.9])
    means = block_means(scores, bounds)
    assert means.tolist() == [0.25, 0.75, 0.9]


def test_sub_reward_score_grad_matches_finite_differences():
    bounds = subtask_bounds(10, 4)  # lengths 4, 4, 2
    probs = np.array([0.2, 0.9, 0.5])
    scores = substream(47, "r").uniform(0.05, 0.95, size=10)

    def f(s):
        return sub_reward(block_means(s, bounds), probs)

    grad = sub_reward_score_grad(block_means(scores, bounds), probs, bounds)
    h = 1e-6
    for t in range(10):
        bump = np.zeros(10)
        bump[t] = h
        fd = (f(scores + bump) - f(scores - bump)) / (2 * h)
        assert abs(grad[t] - fd) < 1e-6


def test_sub_reward_score_grad_zero_at_agreement():
    bounds = subtask_bounds(4, 2)
    scores = np.array([0.3, 0.5, 0.6, 0.8])
    probs = block_means(scores, bounds)  # means match exactly
    grad = sub_reward_score_grad(probs, probs, bounds)
    assert not grad.any()


# --- combination ----------------------------------------------------------------


def test_combine_endpoints_and_midpoint():
    assert combine(0.7, 0.2, alpha=1.0) == 0.7
    assert combine(0.7, 0.2, alpha=0.0) == 0.2
    assert abs(combine(0.4, 0.2, alpha=0.5) - 0.3) <= 1e-12


def test_combine_alpha_range():
    for alpha in (-0.1, 1.5):
        with pytest.raises(ValueError, match="alpha"):
            combine(0.5, 0.5, alpha=alpha)


def test_episode_reward_composition():
    feats = substream(48, "r").normal(size=(8, 4))
    bounds = subtask_bounds(8, 4)
    scores = substream(48, "s").uniform(0.1, 0.9, size=8)
    probs = np.array([0.4, 0.8])
    selected = np.array([1, 4, 6])
    bd = episode_reward(feats, selected, block_means(scores, bounds), probs, alpha=0.25)
    assert isinstance(bd, RewardBreakdown)
    assert bd.r_d == diversity_reward(feats, selected)
    assert bd.r_rep == representativeness_reward(feats, selected)
    assert bd.r_dr == (bd.r_d + bd.r_rep) / 2.0
    assert bd.r_sub == sub_reward(block_means(scores, bounds), probs)
    assert bd.r == combine(bd.r_dr, bd.r_sub, alpha=0.25)
    assert bd.alpha == 0.25


@pytest.mark.parametrize("t, d", [(12, 5), (200, 16), (300, 64)])
def test_episode_rewards_rows_match_per_episode_rewards_bit_for_bit(t, d):
    feats = substream(49, "r", t).normal(size=(t, d))
    bounds = subtask_bounds(t, 5)
    score_means = block_means(substream(49, "s", t).uniform(0.1, 0.9, size=t), bounds)
    probs = substream(49, "p", t).uniform(0.1, 0.9, size=bounds.size - 1)
    actions = (substream(49, "a", t).random((6, t)) < 0.3).astype(np.uint8)
    actions[0] = 0  # empty: the worst case
    actions[1] = 0
    actions[1, t // 2] = 1  # one frame: no pairs, so R_div is 0
    actions[2] = 1  # every frame
    rows = episode_rewards(feats, actions, score_means, probs, alpha=0.3)
    assert len(rows) == len(actions)
    r_sub = sub_reward(score_means, probs)
    for row, bd in zip(actions, rows):
        selected = np.flatnonzero(row)
        assert bd == episode_reward(feats, selected, score_means, probs, alpha=0.3)
        # the per-episode formulas, with distances to the selected frames only
        if selected.size:
            want_rep = float(np.exp(-cdist(feats, feats[selected]).min(axis=1).mean()))
        else:
            want_rep = float(np.exp(-cdist(feats, feats).max()))
        assert bd.r_rep == want_rep == representativeness_reward(feats, selected)
        assert bd.r_d == diversity_reward(feats, selected)
        assert bd.r_sub == r_sub
        assert bd.r == combine((bd.r_d + bd.r_rep) / 2.0, r_sub, alpha=0.3)
    assert rows[1].r_d == 0.0
    assert rows[2].r_rep == 1.0
    assert rows[0].r_rep < min(bd.r_rep for bd in rows[1:])
