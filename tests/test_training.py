import json
import math

import numpy as np
import pytest

from hiersum import nn, policy, rewards
from hiersum.data import ConfigurationError, derive_task_labels, generate_synthetic, load_dataset
from hiersum.nn import Adam, load_checkpoint
from hiersum.policy import (
    manager_forward,
    manager_loss,
    manager_param_names,
    sample_actions,
    worker_forward,
    worker_param_names,
)
from hiersum.data import block_means
from hiersum.rewards import episode_reward
from hiersum.seeding import substream
from hiersum.training import (
    TrainConfig,
    checkpoint_meta,
    crossval_split,
    new_policy,
    train,
    train_manager_epoch,
    train_run,
    train_worker_epoch,
)
from tests.conftest import zero_store


def small_config(**overrides):
    base = dict(
        epochs=2,
        episodes=4,
        alpha=0.5,
        subtask_size=10,
        hidden=8,
        learning_rate=1e-3,
        baseline_momentum=0.9,
        seed=7,
    )
    base.update(overrides)
    return TrainConfig(**base)


def snapshot(store):
    return {name: store[name].copy() for name in store.names()}


def unchanged(store, before, names):
    return all(np.array_equal(store[n], before[n]) for n in names)


# --- config -----------------------------------------------------------------------


def test_config_validation():
    small_config().validate()
    bad = [
        dict(epochs=-1),
        dict(episodes=0),
        dict(alpha=1.5),
        dict(alpha=-0.1),
        dict(subtask_size=0),
        dict(hidden=0),
        dict(learning_rate=0.0),
        dict(baseline_momentum=1.0),
        dict(baseline_momentum=-0.1),
    ]
    for overrides in bad:
        with pytest.raises(ValueError):
            small_config(**overrides).validate()


def test_checkpoint_meta_round_trips_config():
    config = small_config()
    meta = checkpoint_meta(6, config)
    assert meta["feature_dim"] == 6
    assert meta["hidden"] == 8
    assert TrainConfig(**{k: v for k, v in meta.items() if k != "feature_dim"}) == config


# --- phase isolation ----------------------------------------------------------------


def test_manager_epoch_touches_only_manager_params(tiny_dataset):
    config = small_config()
    store = new_policy(6, config)
    before = snapshot(store)
    train_manager_epoch(store, Adam(store, lr=1e-3), tiny_dataset.videos, 10)
    assert unchanged(store, before, worker_param_names(store))
    assert not unchanged(store, before, manager_param_names(store))


def test_worker_epoch_touches_only_worker_params(tiny_dataset):
    config = small_config()
    store = new_policy(6, config)
    before = snapshot(store)
    stats = train_worker_epoch(store, Adam(store, lr=1e-3), tiny_dataset.videos, config, {}, 0)
    assert unchanged(store, before, manager_param_names(store))
    assert not unchanged(store, before, worker_param_names(store))
    assert set(stats) == {"reward", "R_d", "R_rep", "R_sub"}
    assert 0.0 < stats["reward"] <= 1.0


def test_worker_epoch_runs_one_manager_pass_per_batch_and_one_cdist_per_video(
    tiny_dataset, monkeypatch
):
    calls = {"manager": 0, "cdist": 0}
    real_lstm, real_cdist = nn.lstm_forward_batch, rewards.cdist

    def counting_lstm(store, prefix, seqs):
        calls["manager"] += prefix == "manager.lstm"
        return real_lstm(store, prefix, seqs)

    def counting_cdist(*args, **kwargs):
        calls["cdist"] += 1
        return real_cdist(*args, **kwargs)

    # policy calls the batched recurrence directly, and manager_forward through nn.lstm_forward
    monkeypatch.setattr(nn, "lstm_forward_batch", counting_lstm)
    monkeypatch.setattr(policy, "lstm_forward_batch", counting_lstm)
    monkeypatch.setattr(rewards, "cdist", counting_cdist)
    videos = tiny_dataset.videos
    assert len(videos) > policy.SCORE_BATCH
    config = small_config()
    store = new_policy(6, config)
    train_worker_epoch(store, Adam(store, lr=1e-3), videos, config, {}, 0)
    assert calls["manager"] == math.ceil(len(videos) / policy.SCORE_BATCH)
    assert calls["cdist"] == len(videos)


# --- worker update structure ----------------------------------------------------------


def test_matched_baseline_single_episode_is_a_fixed_point(tiny_dataset):
    """With one episode, reward equal to the baseline, and no score-dependent
    reward term (alpha=1), the policy-gradient update vanishes exactly."""
    config = small_config(episodes=1, alpha=1.0)
    video = tiny_dataset.videos[0]
    store = new_policy(6, config)
    feats = video.features.features
    mfwd = manager_forward(store, feats, config.subtask_size)
    wfwd = worker_forward(store, feats, mfwd.subgoals, config.subtask_size)
    rng = substream(config.seed, "worker", video.video_id, 0)
    ep = sample_actions(wfwd.scores, rng)
    bd = episode_reward(
        feats,
        ep.selected,
        block_means(wfwd.scores, wfwd.bounds),
        mfwd.probs,
        config.alpha,
    )
    before = snapshot(store)
    baselines = {video.video_id: bd.r}
    train_worker_epoch(store, Adam(store, lr=1e-3), [video], config, baselines, 0)
    assert unchanged(store, before, store.names())


def test_score_reward_term_updates_even_at_matched_baseline(tiny_dataset):
    # same fixed point setup, but alpha < 1 turns on the subgoal-agreement
    # gradient, which does not pass through the sampled actions
    config = small_config(episodes=1, alpha=0.5)
    video = tiny_dataset.videos[0]
    store = new_policy(6, config)
    feats = video.features.features
    mfwd = manager_forward(store, feats, config.subtask_size)
    wfwd = worker_forward(store, feats, mfwd.subgoals, config.subtask_size)
    ep = sample_actions(wfwd.scores, substream(config.seed, "worker", video.video_id, 0))
    bd = episode_reward(
        feats,
        ep.selected,
        block_means(wfwd.scores, wfwd.bounds),
        mfwd.probs,
        config.alpha,
    )
    before = snapshot(store)
    train_worker_epoch(store, Adam(store, lr=1e-3), [video], config, {video.video_id: bd.r}, 0)
    assert not unchanged(store, before, worker_param_names(store))


def test_baseline_moving_average_update(tiny_dataset):
    config = small_config()
    video = tiny_dataset.videos[0]
    store = new_policy(6, config)
    optimizer = Adam(store, lr=config.learning_rate)
    baselines = {}
    stats0 = train_worker_epoch(store, optimizer, [video], config, baselines, 0)
    m = config.baseline_momentum
    want = m * 0.0 + (1.0 - m) * stats0["reward"]
    assert baselines[video.video_id] == want
    stats1 = train_worker_epoch(store, optimizer, [video], config, baselines, 1)
    assert baselines[video.video_id] == m * want + (1.0 - m) * stats1["reward"]


def test_all_empty_episodes_skip_video(tiny_dataset, caplog):
    config = small_config()
    video = tiny_dataset.videos[0]
    store = zero_store(6, config.hidden)
    store.params["worker.head.b"][0] = -50.0  # scores pinned to the low clamp
    before = snapshot(store)
    with caplog.at_level("WARNING", logger="hiersum.training"):
        stats = train_worker_epoch(store, Adam(store, lr=1e-3), [video], config, {}, 0)
    assert "selected no frames" in caplog.text
    assert unchanged(store, before, store.names())
    assert stats == {"reward": 0.0, "R_d": 0.0, "R_rep": 0.0, "R_sub": 0.0}


# --- learning on easy data --------------------------------------------------------------


def test_manager_loss_decreases(tiny_dataset):
    config = small_config()
    store = new_policy(6, config)
    optimizer = Adam(store, lr=1e-2)
    losses = [
        train_manager_epoch(store, optimizer, tiny_dataset.videos, config.subtask_size)
        for _ in range(30)
    ]
    assert losses[-1] < losses[0] * 0.7


def test_zero_store_manager_loss_is_log_two(tiny_dataset):
    store = zero_store(6, 8)
    video = tiny_dataset.videos[0]
    fwd = manager_forward(store, video.features.features, 10)
    loss = manager_loss(fwd, derive_task_labels(video.annotations.keyframes, 10))
    assert abs(loss - math.log(2.0)) < 1e-15


# --- full loop ------------------------------------------------------------------------


def test_train_history_and_determinism(tiny_dataset, tmp_path):
    config = small_config()
    store1, hist1 = train(
        tiny_dataset.videos, 6, config, checkpoint_path=tmp_path / "a.ckpt",
        log_path=tmp_path / "a.jsonl",
    )
    store2, hist2 = train(
        tiny_dataset.videos, 6, small_config(), checkpoint_path=tmp_path / "b.ckpt",
    )
    assert hist1 == hist2
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()
    phases = [(e["epoch"], e["phase"]) for e in hist1]
    assert phases == [(0, "manager"), (0, "worker"), (1, "manager"), (1, "worker")]
    logged = [json.loads(line) for line in (tmp_path / "a.jsonl").read_text().splitlines()]
    assert logged == hist1
    back, meta = load_checkpoint(tmp_path / "a.ckpt")
    assert back.names() == store1.names()
    assert meta["feature_dim"] == 6 and meta["epochs"] == 2


def test_train_zero_epochs_keeps_init(tiny_dataset):
    config = small_config(epochs=0)
    store, history = train(tiny_dataset.videos, 6, config)
    assert history == []
    init = new_policy(6, config)
    assert all(np.array_equal(store[n], init[n]) for n in store.names())


def test_train_empty_videos_rejected():
    with pytest.raises(ConfigurationError, match="empty"):
        train([], 6, small_config())


# --- cross validation -------------------------------------------------------------------


def test_crossval_split_shapes_and_coverage():
    ids = [f"v{i:02d}" for i in range(25)]
    folds = crossval_split(ids, 5, seed=3)
    assert [len(f) for f in folds] == [5, 5, 5, 5, 5]
    assert sorted(x for f in folds for x in f) == sorted(ids)
    folds50 = crossval_split([str(i) for i in range(50)], 5, seed=3)
    assert [len(f) for f in folds50] == [10] * 5


def test_crossval_split_deterministic():
    ids = [f"v{i}" for i in range(12)]
    assert crossval_split(ids, 4, seed=5) == crossval_split(ids, 4, seed=5)
    assert crossval_split(ids, 4, seed=5) != crossval_split(ids, 4, seed=6)


def test_crossval_split_errors():
    with pytest.raises(ConfigurationError, match="at least 2"):
        crossval_split(["a", "b", "c"], 1, seed=0)
    with pytest.raises(ConfigurationError, match="cannot fill"):
        crossval_split(["a", "b", "c"], 5, seed=0)


# --- run directories ----------------------------------------------------------------------


def test_train_run_layout(tiny_dataset, tmp_path):
    config = small_config(epochs=1)
    out = train_run(tiny_dataset, config, tmp_path / "run", folds=3)
    names = sorted(p.name for p in out.iterdir())
    assert names == [
        "config.json",
        "fold0.ckpt",
        "fold1.ckpt",
        "fold2.ckpt",
        "folds.json",
        "train_fold0.jsonl",
        "train_fold1.jsonl",
        "train_fold2.jsonl",
    ]
    folds_doc = json.loads((out / "folds.json").read_text())
    assert folds_doc["setting"] == "canonical"
    assert sorted(x for f in folds_doc["folds"] for x in f) == sorted(tiny_dataset.video_ids)
    echo = json.loads((out / "config.json").read_text())
    assert echo["dataset"] == tiny_dataset.manifest.name
    assert echo["feature_dim"] == 6
    assert echo["folds"] == 3 and echo["no_cv"] is False
    assert echo["epochs"] == 1 and echo["seed"] == 7


def test_manager_labels_follow_run_subtask_size_not_manifest(tmp_path):
    # 200 frames make 10 windows at both sizes, so misaligned labels would still fit
    outputs = []
    for manifest_size in (20, 21):
        manifest = generate_synthetic(
            tmp_path / f"data{manifest_size}", seed=3, videos=4, frames=200, dims=4,
            subtask_size=manifest_size,
        )
        config = small_config(epochs=1, episodes=2, subtask_size=21, hidden=4)
        out = train_run(load_dataset(manifest), config, tmp_path / f"run{manifest_size}", folds=2)
        kept = [p for p in sorted(out.iterdir()) if p.suffix in (".ckpt", ".jsonl")]
        outputs.append({p.name: p.read_bytes() for p in kept})
    assert len(outputs[0]) == 4
    assert outputs[0] == outputs[1]


def test_train_run_no_cv(tiny_dataset, tmp_path):
    out = train_run(tiny_dataset, small_config(epochs=1), tmp_path / "run", no_cv=True)
    folds_doc = json.loads((out / "folds.json").read_text())
    assert folds_doc["setting"] == "single"
    assert folds_doc["folds"] == [list(tiny_dataset.video_ids)]
    assert (out / "fold0.ckpt").exists()
    assert not (out / "fold1.ckpt").exists()
