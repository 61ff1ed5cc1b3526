import math

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from hiersum.data import block_means, subtask_bounds
from hiersum.rewards import (
    RewardBreakdown,
    _action_rewards,
    combine,
    episode_reward,
    sub_reward,
    sub_reward_score_grad,
)
from hiersum.seeding import substream
from tests.oracles import action_rows, all_selections, loop_diversity, loop_representativeness


def diversity(feats, *selections):
    """The program's R_div of each selection of frames, one episode each."""
    return _action_rewards(feats, action_rows(len(feats), selections))[0]


def representativeness(feats, *selections):
    """The program's R_rep of each selection of frames, one episode each."""
    return _action_rewards(feats, action_rows(len(feats), selections))[1]


# --- pairwise dissimilarity: R_div of two frames ----------------------------------


def test_dissimilarity_self_is_zero():
    x = substream(41, "r").normal(size=6)
    assert abs(diversity(np.stack([x, x]), [0, 1])[0]) <= 1e-12


def test_dissimilarity_orthogonal_and_known_angle():
    assert diversity(np.array([[1.0, 0.0], [0.0, 1.0]]), [0, 1])[0] == 1.0
    assert abs(diversity(np.array([[1.0, 0.0], [1.0, 1.0]]), [0, 1])[0] - (1.0 - 1.0 / math.sqrt(2.0))) < 1e-15
    assert abs(diversity(np.array([[1.0, 0.0], [-1.0, 0.0]]), [0, 1])[0] - 2.0) < 1e-15


def test_dissimilarity_zero_vector_rejected():
    # two or more selected frames, one of them all zero: the cosine is undefined
    feats = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
    for selected in ([0, 1], [0, 1, 2]):
        with pytest.raises(ValueError, match="zero feature vector"):
            episode_reward(feats, action_rows(3, [selected]), [0.5], [0.5])


# --- diversity over all subsets --------------------------------------------------


@pytest.mark.parametrize("t", [5, 8])
def test_diversity_matches_loop_oracle_all_subsets(t):
    feats = substream(42, "r", str(t)).normal(size=(t, 4))
    actions, subsets = all_selections(t)
    for selected, got in zip(subsets, _action_rewards(feats, actions)[0]):
        want = loop_diversity(feats, selected)
        assert abs(got - want) <= 1e-12


def test_diversity_conventions_and_bounds():
    feats = substream(43, "r").normal(size=(6, 3))
    assert diversity(feats, [])[0] == 0.0
    assert diversity(feats, [3])[0] == 0.0
    full = diversity(feats, range(6))[0]
    assert 0.0 <= full <= 2.0
    assert diversity(np.eye(4), [0, 1, 2, 3])[0] == 1.0  # orthogonal selection


# --- representativeness over all subsets ------------------------------------------


@pytest.mark.parametrize("t", [5, 8])
def test_representativeness_matches_loop_oracle_all_subsets(t):
    feats = substream(45, "r", str(t)).normal(size=(t, 4))
    actions, subsets = all_selections(t)
    for selected, got in zip(subsets, _action_rewards(feats, actions)[1]):
        want = loop_representativeness(feats, selected)
        assert abs(got - want) <= 1e-12


def test_representativeness_properties():
    feats = substream(46, "r").normal(size=(10, 4))
    all_sel = representativeness(feats, range(10))[0]
    assert all_sel == 1.0  # every frame is its own nearest selection
    empty, some = representativeness(feats, [], [0, 4, 9])
    assert 0.0 < empty <= some <= 1.0


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
    actions = action_rows(8, [selected])
    bd = episode_reward(feats, actions, block_means(scores, bounds), probs, alpha=0.25)
    assert isinstance(bd, RewardBreakdown)
    assert bd.r_d[0] == diversity(feats, selected)[0]
    assert bd.r_rep[0] == representativeness(feats, selected)[0]
    assert bd.r_sub == sub_reward(block_means(scores, bounds), probs)
    assert bd.r[0] == combine((bd.r_d[0] + bd.r_rep[0]) / 2.0, bd.r_sub, alpha=0.25)


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
    rows = episode_reward(feats, actions, score_means, probs, alpha=0.3)
    assert rows.r_d.shape == rows.r_rep.shape == rows.r.shape == (len(actions),)
    r_sub = sub_reward(score_means, probs)
    assert rows.r_sub == r_sub
    for e, row in enumerate(actions):
        selected = np.flatnonzero(row)
        bd = episode_reward(feats, action_rows(t, [selected]), score_means, probs, alpha=0.3)
        r_d, r_rep, r = bd.r_d[0], bd.r_rep[0], bd.r[0]
        assert (r_d, r_rep, bd.r_sub, r) == (rows.r_d[e], rows.r_rep[e], r_sub, rows.r[e])
        # the per-episode formulas, with distances to the selected frames only
        if selected.size:
            want_rep = float(np.exp(-cdist(feats, feats[selected]).min(axis=1).mean()))
        else:
            want_rep = float(np.exp(-cdist(feats, feats).max()))
        assert abs(r_rep - want_rep) <= 1e-12
        assert r_rep == representativeness(feats, selected)[0]
        assert r_d == diversity(feats, selected)[0]
        assert r == combine((r_d + r_rep) / 2.0, r_sub, alpha=0.3)
    assert rows.r_d[1] == 0.0
    assert rows.r_rep[2] == 1.0
    assert rows.r_rep[0] < rows.r_rep[1:].min()


def test_representativeness_of_near_duplicate_frames_matches_cdist():
    # pool5-like float32 features: non-negative with an offset, in groups of ten
    # frames that differ from their group's base by at most 0.1 per dimension
    # (about 3% of the norm); the first five groups are exact repeats. The Gram
    # form's error on a distance d grows like eps |x|^2 / d as frames get closer.
    rng = substream(50, "r")
    base = np.abs(rng.normal(size=(30, 1024))) + 0.5
    noise = 0.1 * rng.random((300, 1024))
    noise[:50] = 0.0
    feats = (np.repeat(base, 10, axis=0) + noise).astype(np.float32)
    dist = cdist(feats.astype(np.float64), feats.astype(np.float64))
    actions = (rng.random((20, 300)) < 0.2).astype(np.uint8)
    rows = episode_reward(feats, actions, [0.5], [0.5])
    for row, got in zip(actions, rows.r_rep):
        want = np.exp(-dist[:, np.flatnonzero(row)].min(axis=1).mean())
        assert abs(got - want) <= 1e-12


def test_diversity_zero_vector_rule():
    feats = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
    # a zero frame alone, or left out, has no pair to be undefined for
    assert diversity(feats, [0])[0] == 0.0
    assert diversity(feats, [1, 2])[0] == 1.0
    rows = episode_reward(feats, np.array([[1, 0, 0], [0, 1, 1]]), [0.5], [0.5])
    assert rows.r_d.tolist() == [0.0, 1.0]
    with pytest.raises(ValueError, match="zero feature vector"):
        episode_reward(feats, np.array([[0, 1, 1], [1, 1, 0]]), [0.5], [0.5])
