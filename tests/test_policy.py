import itertools
import math

import numpy as np
import pytest

from hiersum.data import ConfigurationError, subtask_bounds
from hiersum.nn import grad_check
from hiersum import policy
from hiersum.policy import (
    check_checkpoint,
    greedy_scores,
    greedy_scores_batch,
    init_policy,
    log_prob_score_grad,
    manager_forward,
    manager_head,
    manager_loss,
    manager_loss_backward,
    manager_param_names,
    manager_subgoals_batch,
    policy_shapes,
    sample_actions,
    worker_backward,
    worker_forward,
    worker_param_names,
)
from hiersum.seeding import substream
from tests.conftest import traced_peak, zero_store
from tests.oracles import bernoulli_log_prob, replay_lstm


def replay_affine(store, prefix, x):
    return store[f"{prefix}.W"] @ x + store[f"{prefix}.b"]


# --- structure -------------------------------------------------------------------


def test_init_policy_layout():
    store = init_policy(5, 4, substream(51, "init"))
    assert manager_param_names(store) == [
        "manager.lstm.Wx",
        "manager.lstm.Wh",
        "manager.lstm.b",
        "manager.head.W",
        "manager.head.b",
    ]
    assert worker_param_names(store) == [
        "worker.lstm.Wx",
        "worker.lstm.Wh",
        "worker.lstm.b",
        "worker.mix.W",
        "worker.mix.b",
        "worker.head.W",
        "worker.head.b",
    ]
    assert store["worker.mix.W"].shape == (4, 8)
    assert store["manager.lstm.Wx"].shape == (5, 16)  # (D, 4H)


@pytest.mark.parametrize("dim, hidden", [(1, 1), (5, 4), (16, 64), (1024, 3)])
def test_policy_shapes_match_init_policy(dim, hidden):
    store = init_policy(dim, hidden, substream(50, "init"))
    shapes = policy_shapes(dim, hidden)
    assert list(shapes) == store.names()
    assert list(shapes.values()) == [store[name].shape for name in store.names()]


def test_check_checkpoint_rejects_a_large_hidden_without_allocating_it():
    # parameters for hidden = 1200 at D = 4 would take about 115 MB
    store = init_policy(4, 2, substream(50, "init"))
    meta = {"feature_dim": 4, "hidden": 1200, "subtask_size": 5}
    with traced_peak() as traced:
        with pytest.raises(ConfigurationError, match="'manager.lstm.Wx' has shape"):
            check_checkpoint("model.ckpt", store, meta, 4, "video.vsf")
    peak = traced.peak
    assert peak < 2**20, peak


def test_forward_shapes():
    store = init_policy(6, 5, substream(52, "init"))
    feats = substream(52, "x").normal(size=(50, 6))
    mfwd = manager_forward([store], [feats], 20)[0]
    assert np.diff(mfwd.bounds).tolist() == [20, 20, 10]
    assert mfwd.subgoals.shape == (3, 5)
    assert mfwd.probs.shape == (3,)
    wfwd = worker_forward([store], [feats], [mfwd.subgoals], 20)[0]
    assert wfwd.scores.shape == (50,)
    assert wfwd.concat.shape == (50, 10)
    assert np.all((wfwd.scores > 0.0) & (wfwd.scores < 1.0))


def test_zero_parameters_give_half_probabilities():
    store = zero_store(4, 3)
    feats = substream(53, "x").normal(size=(8, 4))
    mfwd = manager_forward([store], [feats], 4)[0]
    assert mfwd.probs.tolist() == [0.5, 0.5]
    assert np.all(mfwd.clamp_mask)
    scores = greedy_scores(store, feats, 4)
    assert scores.tolist() == [0.5] * 8


def test_worker_subgoal_count_checked():
    store = init_policy(3, 4, substream(54, "init"))
    feats = substream(54, "x").normal(size=(10, 3))
    with pytest.raises(ValueError, match="3 subgoals for 2 subtasks"):
        worker_forward([store], [feats], [np.zeros((3, 4))], 5)


# --- batched scoring -------------------------------------------------------------------

BATCH_LENGTHS = [1, 19, 20, 21, 57, 400]  # around subtask edges of 7 and 20, and much longer


@pytest.mark.parametrize("score_batch", [2, 16])
@pytest.mark.parametrize("subtask_size", [7, 20])
@pytest.mark.parametrize("dim", [16, 64])
def test_batched_scores_match_single_video_scores(monkeypatch, dim, subtask_size, score_batch):
    # the six videos take three recurrences of two, or one of six
    monkeypatch.setattr(policy, "SCORE_BATCH", score_batch)
    store = init_policy(dim, 8, substream(66, "init", dim))
    rng = substream(66, "x", dim)
    videos = [rng.normal(size=(t, dim)) for t in BATCH_LENGTHS]
    batched = greedy_scores_batch(store, videos, subtask_size)
    assert [s.shape for s in batched] == [(t,) for t in BATCH_LENGTHS]
    for feats, scores in zip(videos, batched):
        single = greedy_scores(store, feats, subtask_size)
        assert np.max(np.abs(scores - single)) <= 1e-12


def test_batched_scoring_holds_no_copy_of_the_features(monkeypatch):
    # the fold is one batch, and with H=16 its padded gates take 64 floats per
    # frame slot against 256 for the features, so a padded or concatenated
    # copy of the batch's features would push the peak over its feature bytes
    store = init_policy(256, 16, substream(67, "init"))
    rng = substream(67, "x")
    videos = [rng.normal(size=(t, 256)) for t in range(100, 200, 10)]
    monkeypatch.setattr(policy, "SCORE_BATCH", len(videos))
    feature_bytes = sum(v.nbytes for v in videos)
    with traced_peak() as traced:
        greedy_scores_batch(store, videos, 20)
    peak = traced.peak
    assert peak < feature_bytes, (peak, feature_bytes)


def test_float32_features_score_as_their_float64_widening():
    # 57 frames ends on a short subtask, and six videos take two batches
    lengths = [23, 40, 7, 31, 57, 12]
    store = init_policy(32, 8, substream(69, "init"))
    rng = substream(69, "x")
    narrow = [rng.normal(size=(t, 32)).astype(np.float32) for t in lengths]
    wide = [feats.astype(np.float64) for feats in narrow]
    for a, b in zip(greedy_scores_batch(store, narrow, 10), greedy_scores_batch(store, wide, 10)):
        assert a.dtype == np.float64 and a.tobytes() == b.tobytes()


def test_batched_manager_pass_matches_manager_forward():
    # more videos than one batch holds; 23, 7, 31 and 12 frames end on a short subtask
    lengths = [23, 40, 7, 31, 50, 12]
    assert len(lengths) > policy.SCORE_BATCH
    store = init_policy(16, 64, substream(68, "init"))
    rng = substream(68, "x")
    videos = [rng.normal(size=(t, 16)) for t in lengths]
    pairs = manager_subgoals_batch(store, videos, 10)
    assert len(pairs) == len(videos)
    for feats, (batched, probs) in zip(videos, pairs):
        single = manager_forward([store], [feats], 10)[0]
        assert batched.shape == single.subgoals.shape
        assert np.max(np.abs(batched - single.subgoals)) <= 1e-15
        assert np.max(np.abs(manager_head(store, batched)[1] - single.probs)) <= 1e-15
        # the probabilities come from the same pass, so they are the head on its subgoals
        assert probs.tobytes() == manager_head(store, batched)[1].tobytes()


# --- forward replay oracles -------------------------------------------------------


def test_manager_forward_matches_replay():
    store = init_policy(5, 6, substream(55, "init"))
    feats = substream(55, "x").normal(size=(13, 5))
    mfwd = manager_forward([store], [feats], 5)[0]
    hs = replay_lstm(store, "manager.lstm", feats)
    # subgoal = hidden state at each subtask's last frame: 4, 9, 12
    for idx, end in enumerate([4, 9, 12]):
        assert np.allclose(mfwd.subgoals[idx], hs[end], atol=1e-10)
        logit = replay_affine(store, "manager.head", hs[end])[0]
        assert abs(mfwd.probs[idx] - 1.0 / (1.0 + math.exp(-logit))) < 1e-10


def test_worker_forward_matches_replay():
    store = init_policy(4, 5, substream(56, "init"))
    feats = substream(56, "x").normal(size=(11, 4))
    mfwd = manager_forward([store], [feats], 4)[0]
    wfwd = worker_forward([store], [feats], [mfwd.subgoals], 4)[0]
    hs = replay_lstm(store, "worker.lstm", feats)  # one chain across subtasks
    bounds = subtask_bounds(11, 4)
    for i, (start, end) in enumerate(zip(bounds[:-1], bounds[1:])):
        for t in range(start, end):
            cat = np.concatenate([mfwd.subgoals[i], hs[t]])
            assert np.allclose(wfwd.concat[t], cat, atol=1e-10)
            mixed = replay_affine(store, "worker.mix", cat)
            logit = replay_affine(store, "worker.head", mixed)[0]
            assert abs(wfwd.scores[t] - 1.0 / (1.0 + math.exp(-logit))) < 1e-10


def test_worker_scores_causal_given_fixed_subgoals():
    store = init_policy(4, 5, substream(57, "init"))
    rng = substream(57, "x")
    feats = rng.normal(size=(12, 4))
    subgoals = rng.normal(size=(3, 5))
    base = worker_forward([store], [feats], [subgoals], 4)[0].scores
    bumped_feats = feats.copy()
    bumped_feats[7] += 1.0
    bumped = worker_forward([store], [bumped_feats], [subgoals], 4)[0].scores
    assert np.array_equal(base[:7], bumped[:7])  # earlier frames untouched
    assert not np.allclose(base[7:], bumped[7:])


def test_subgoal_reaches_only_its_subtask():
    store = init_policy(4, 5, substream(58, "init"))
    rng = substream(58, "x")
    feats = rng.normal(size=(12, 4))
    subgoals = rng.normal(size=(3, 5))
    base = worker_forward([store], [feats], [subgoals], 4)[0].scores
    altered = subgoals.copy()
    altered[1] += 1.0
    out = worker_forward([store], [feats], [altered], 4)[0].scores
    assert np.array_equal(base[:4], out[:4])
    assert not np.allclose(base[4:8], out[4:8])
    assert np.array_equal(base[8:], out[8:])  # LSTM chain ignores subgoals


# --- action sampling ---------------------------------------------------------------


def test_action_log_prob_uniform_scores():
    scores = np.full(4, 0.5)
    for actions in itertools.product([0, 1], repeat=4):
        assert abs(bernoulli_log_prob(scores, np.array(actions)) - 4 * math.log(0.5)) < 1e-12


def test_action_log_probs_normalize():
    scores = substream(59, "p").uniform(0.1, 0.9, size=8)
    total = 0.0
    for actions in itertools.product([0, 1], repeat=8):
        total += math.exp(bernoulli_log_prob(scores, np.array(actions, dtype=np.float64)))
    assert abs(total - 1.0) < 1e-9


def test_log_prob_score_grad_matches_finite_differences():
    scores = substream(60, "p").uniform(0.2, 0.8, size=6)
    actions = np.array([1, 0, 0, 1, 1, 0], dtype=np.float64)
    grad = log_prob_score_grad(scores, actions)
    h = 1e-7
    for t in range(6):
        bump = np.zeros(6)
        bump[t] = h
        fd = (
            bernoulli_log_prob(scores + bump, actions) - bernoulli_log_prob(scores - bump, actions)
        ) / (2 * h)
        assert abs(grad[t] - fd) < 1e-5


def test_sampling_respects_scores():
    rng = substream(61, "a")
    sure = np.full(10, 1.0 - 1e-7)
    for _ in range(10):
        actions = sample_actions(sure, rng, 1)[0]
        assert actions.sum() == 10
        assert np.flatnonzero(actions).tolist() == list(range(10))
    coin = np.full(1000, 0.5)
    rate = sample_actions(coin, rng, 1)[0].mean()
    assert 0.45 <= rate <= 0.55


def test_sampling_deterministic_per_substream():
    scores = substream(62, "p").uniform(0.2, 0.8, size=30)
    ep1 = sample_actions(scores, substream(62, "draw", 3), 1)[0]
    ep2 = sample_actions(scores, substream(62, "draw", 3), 1)[0]
    assert np.array_equal(ep1, ep2)
    ep3 = sample_actions(scores, substream(62, "draw", 4), 1)[0]
    assert not np.array_equal(ep1, ep3)


def test_sample_episodes_draws_what_repeated_sample_actions_draw():
    scores = substream(62, "p").uniform(0.2, 0.8, size=30)
    batch = sample_actions(scores, substream(62, "draw", 5), 7)
    rng = substream(62, "draw", 5)
    singles = np.stack([sample_actions(scores, rng, 1)[0] for _ in range(7)])
    assert batch.dtype == singles.dtype
    assert np.array_equal(batch, singles)


# --- end-to-end gradients ------------------------------------------------------------


def test_manager_loss_gradients():
    store = init_policy(5, 4, substream(63, "init"))
    feats = substream(63, "x").normal(size=(6, 5))
    labels = np.array([1.0, 0.0, 1.0])

    def loss_fn():
        fwd = manager_forward([store], [feats], 2)[0]
        return manager_loss_backward([store], [fwd], [labels])[0]

    report = grad_check(loss_fn, store, names=manager_param_names(store))
    assert report["ok"], report


def test_manager_loss_label_count_checked():
    store = init_policy(5, 4, substream(64, "init"))
    fwd = manager_forward([store], [substream(64, "x").normal(size=(6, 5))], 2)[0]
    with pytest.raises(ValueError, match="2 labels for 3 subtasks"):
        manager_loss(fwd, np.array([1.0, 0.0]))


def test_worker_log_prob_gradients():
    store = init_policy(5, 4, substream(65, "init"))
    feats = substream(65, "x").normal(size=(6, 5))
    actions = np.array([1, 0, 1, 1, 0, 0], dtype=np.float64)

    def loss_fn():
        mfwd = manager_forward([store], [feats], 2)[0]
        wfwd = worker_forward([store], [feats], [mfwd.subgoals], 2)[0]
        loss = bernoulli_log_prob(wfwd.scores, actions)
        worker_backward([store], [wfwd], [log_prob_score_grad(wfwd.scores, actions)])
        return loss

    report = grad_check(loss_fn, store, names=worker_param_names(store))
    assert report["ok"], report
