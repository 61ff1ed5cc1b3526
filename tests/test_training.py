import collections
import json
import math
from pathlib import Path

import numpy as np
import pytest

from hiersum import data, policy, rewards, training
from hiersum.data import (
    ConfigurationError,
    Dataset,
    DatasetManifest,
    Video,
    derive_task_labels,
    generate_synthetic,
    load_dataset,
)
from hiersum.kts import MEMORY_LIMIT
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
from hiersum.rewards import episode_reward, sub_reward_score_grad
from hiersum.seeding import substream
from hiersum.training import (
    FoldState,
    TrainConfig,
    checkpoint_meta,
    crossval_split,
    new_policy,
    train,
    train_manager_epoch,
    train_run,
    train_worker_epoch,
)
from tests.conftest import traced_peak, zero_store


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


def one_fold(store, baselines=None, lr=1e-3, label=None):
    return FoldState(store, Adam(store, lr=lr), {} if baselines is None else baselines, label)


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
        dict(learning_rate=float("nan")),
        dict(learning_rate=float("inf")),
        dict(baseline_momentum=1.0),
        dict(baseline_momentum=-0.1),
        dict(seed=-1),
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
    train_manager_epoch([one_fold(store)], [tiny_dataset.videos], 10)
    assert unchanged(store, before, worker_param_names(store))
    assert not unchanged(store, before, manager_param_names(store))


def test_worker_epoch_touches_only_worker_params(tiny_dataset):
    config = small_config()
    store = new_policy(6, config)
    before = snapshot(store)
    stats = train_worker_epoch([one_fold(store)], [tiny_dataset.videos], config, 0)[0]
    assert unchanged(store, before, manager_param_names(store))
    assert not unchanged(store, before, worker_param_names(store))
    assert set(stats) == {"reward", "R_d", "R_rep", "R_sub"}
    assert 0.0 < stats["reward"] <= 1.0


def test_worker_epoch_runs_one_manager_pass_per_batch_and_one_gram_per_video(
    tiny_dataset, monkeypatch
):
    calls = {"manager": 0, "head": 0, "gram": 0}
    real_lstm, real_rewards = policy.lstm_forward, rewards._action_rewards
    real_head = policy.manager_head

    def counting_lstm(stores, prefix, seqs):
        calls["manager"] += prefix == "manager.lstm"
        return real_lstm(stores, prefix, seqs)

    def counting_head(store, subgoals):
        calls["head"] += 1
        return real_head(store, subgoals)

    def counting_rewards(*args, **kwargs):
        calls["gram"] += 1
        return real_rewards(*args, **kwargs)

    monkeypatch.setattr(policy, "lstm_forward", counting_lstm)
    monkeypatch.setattr(policy, "manager_head", counting_head)
    monkeypatch.setattr(training, "manager_head", counting_head, raising=False)
    monkeypatch.setattr(rewards, "_action_rewards", counting_rewards)
    videos = tiny_dataset.videos
    assert len(videos) > policy.SCORE_BATCH
    config = small_config()
    store = new_policy(6, config)
    train_worker_epoch([one_fold(store)], [videos], config, 0)
    assert calls["manager"] == math.ceil(len(videos) / policy.SCORE_BATCH)
    # one Manager head per video, in the frozen pass; the Worker steps reuse its probabilities
    assert calls["head"] == len(videos)
    assert calls["gram"] == len(videos)


def test_worker_epoch_dscores_match_per_episode_loop(tiny_dataset, monkeypatch):
    config = small_config(episodes=6, alpha=0.4)
    videos = tiny_dataset.videos[:3]
    store = new_policy(6, config)
    baselines = {video.video_id: 0.1 * k for k, video in enumerate(videos)}
    all_subgoals = policy.manager_subgoals_batch(
        store, [video.features for video in videos], config.subtask_size
    )
    worst = []
    real_backward = training.worker_backward

    def checking_backward(stores, wfwds, dscores):
        # the per-episode loop this epoch replaced, run on the same state
        (store,), (wfwd,), (dscores,) = stores, wfwds, dscores
        k = len(worst)
        video = videos[k]
        probs = policy.manager_head(store, all_subgoals[k][0])[1]
        score_means = block_means(wfwd.scores, wfwd.bounds)
        rng = substream(config.seed, "worker", video.video_id, 0)
        actions = policy.sample_actions(wfwd.scores, rng, config.episodes)
        baseline = baselines[video.video_id]
        want = np.zeros_like(wfwd.scores)
        for row in actions:
            bd = episode_reward(video.features, row[None], score_means, probs, config.alpha)
            want += (bd.r[0] - baseline) / config.episodes * policy.log_prob_score_grad(
                wfwd.scores, row
            )
        want += (1.0 - config.alpha) * sub_reward_score_grad(score_means, probs, wfwd.bounds)
        worst.append(np.abs(-dscores - want).max() / np.abs(want).max())
        return real_backward(stores, wfwds, [dscores])

    monkeypatch.setattr(training, "worker_backward", checking_backward)
    train_worker_epoch([one_fold(store, dict(baselines))], [videos], config, 0)
    assert len(worst) == len(videos)
    assert max(worst) <= 1e-12


# --- worker update structure ----------------------------------------------------------


def test_matched_baseline_single_episode_is_a_fixed_point(tiny_dataset):
    """With one episode, reward equal to the baseline, and no score-dependent
    reward term (alpha=1), the policy-gradient update vanishes exactly."""
    config = small_config(episodes=1, alpha=1.0)
    video = tiny_dataset.videos[0]
    store = new_policy(6, config)
    feats = video.features
    mfwd = manager_forward([store], [feats], config.subtask_size)[0]
    wfwd = worker_forward([store], [feats], [mfwd.subgoals], config.subtask_size)[0]
    rng = substream(config.seed, "worker", video.video_id, 0)
    actions = sample_actions(wfwd.scores, rng, 1)
    bd = episode_reward(
        feats,
        actions,
        block_means(wfwd.scores, wfwd.bounds),
        mfwd.probs,
        config.alpha,
    )
    before = snapshot(store)
    baselines = {video.video_id: float(bd.r[0])}
    train_worker_epoch([one_fold(store, baselines)], [[video]], config, 0)
    assert unchanged(store, before, store.names())


def test_score_reward_term_updates_even_at_matched_baseline(tiny_dataset):
    # same fixed point setup, but alpha < 1 turns on the subgoal-agreement
    # gradient, which does not pass through the sampled actions
    config = small_config(episodes=1, alpha=0.5)
    video = tiny_dataset.videos[0]
    store = new_policy(6, config)
    feats = video.features
    mfwd = manager_forward([store], [feats], config.subtask_size)[0]
    wfwd = worker_forward([store], [feats], [mfwd.subgoals], config.subtask_size)[0]
    actions = sample_actions(wfwd.scores, substream(config.seed, "worker", video.video_id, 0), 1)
    bd = episode_reward(
        feats,
        actions,
        block_means(wfwd.scores, wfwd.bounds),
        mfwd.probs,
        config.alpha,
    )
    before = snapshot(store)
    train_worker_epoch([one_fold(store, {video.video_id: float(bd.r[0])})], [[video]], config, 0)
    assert not unchanged(store, before, worker_param_names(store))


def test_baseline_moving_average_update(tiny_dataset):
    config = small_config()
    video = tiny_dataset.videos[0]
    store = new_policy(6, config)
    fold = one_fold(store, lr=config.learning_rate)
    baselines = fold.baselines
    stats0 = train_worker_epoch([fold], [[video]], config, 0)[0]
    m = config.baseline_momentum
    want = m * 0.0 + (1.0 - m) * stats0["reward"]
    assert baselines[video.video_id] == want
    stats1 = train_worker_epoch([fold], [[video]], config, 1)[0]
    assert baselines[video.video_id] == m * want + (1.0 - m) * stats1["reward"]


def test_all_empty_episodes_skip_video(tiny_dataset, caplog):
    config = small_config()
    video = tiny_dataset.videos[0]
    store = zero_store(6, config.hidden)
    store.params["worker.head.b"][0] = -50.0  # scores pinned to the low clamp
    before = snapshot(store)
    with caplog.at_level("WARNING", logger="hiersum.training"):
        stats = train_worker_epoch([one_fold(store)], [[video]], config, 0)[0]
    assert caplog.messages == [
        f"video {video.video_id}: every episode selected no frames; skipped this epoch"
    ]
    assert unchanged(store, before, store.names())
    assert stats == {"reward": 0.0, "R_d": 0.0, "R_rep": 0.0, "R_sub": 0.0}


def test_skip_warning_names_the_fold(tiny_dataset, caplog):
    # lines from folds trained in lockstep interleave, so the warning carries the
    # same "fold k" prefix as the INFO phase lines; only the pinned fold skips
    config = small_config()
    videos = tiny_dataset.videos[:2]
    pinned = zero_store(6, config.hidden)
    pinned.params["worker.head.b"][0] = -50.0  # scores pinned to the low clamp
    folds = [one_fold(new_policy(6, config), label=0), one_fold(pinned, label=1)]
    with caplog.at_level("WARNING", logger="hiersum.training"):
        train_worker_epoch(folds, [videos, videos], config, 0)
    assert caplog.messages == [
        f"fold 1 video {video.video_id}: every episode selected no frames; skipped this epoch"
        for video in videos
    ]


# --- learning on easy data --------------------------------------------------------------


def test_manager_loss_decreases(tiny_dataset):
    config = small_config()
    store = new_policy(6, config)
    fold = one_fold(store, lr=1e-2)
    losses = [
        train_manager_epoch([fold], [tiny_dataset.videos], config.subtask_size)[0]
        for _ in range(30)
    ]
    assert losses[-1] < losses[0] * 0.7


def test_zero_store_manager_loss_is_log_two(tiny_dataset):
    store = zero_store(6, 8)
    video = tiny_dataset.videos[0]
    fwd = manager_forward([store], [video.features], 10)[0]
    loss = manager_loss(fwd, derive_task_labels(video.keyframes, 10))
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
    # 200 frames make 10 windows at both sizes, so misaligned labels would still fit;
    # the manifests carry a subtask_size key as older datasets do, and it must not count
    outputs = []
    for manifest_size in (20, 21):
        manifest = generate_synthetic(
            tmp_path / f"data{manifest_size}", seed=3, videos=4, frames=200, dims=4
        )
        doc = json.loads(manifest.read_text())
        doc["subtask_size"] = manifest_size
        manifest.write_text(json.dumps(doc))
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


def lockstep_dataset(seed):
    """Seven videos of unequal lengths; the 2-frame v2 often draws an all-empty episode."""
    rng = substream(seed, "lockstep")
    videos = [
        Video(f"v{i}", rng.normal(size=(t, 5)).astype(np.float32), rng.uniform(size=(2, t)))
        for i, t in enumerate([40, 23, 2, 31, 57, 12, 35])
    ]
    return Dataset(DatasetManifest("lockstep", 5, []), videos)


def test_lockstep_folds_match_training_each_fold_alone(tmp_path, caplog):
    # 7 videos in 3 folds train on 4, 5 and 5 videos of 2 to 57 frames, so the
    # stacked recurrence pads both across folds and, at the last step, drops a fold
    config = small_config(epochs=3, episodes=1, hidden=4, seed=3)
    dataset = lockstep_dataset(3)
    with caplog.at_level("WARNING", logger="hiersum.training"):
        out = train_run(dataset, config, tmp_path / "run", folds=3)
    held_out = json.loads((out / "folds.json").read_text())["folds"]
    fold_videos = [[v for v in dataset.videos if v.video_id not in ids] for ids in held_out]
    assert sorted(len(videos) for videos in fold_videos) == [4, 5, 5]
    # v2 is skipped in some but not all of the folds that train on it
    skipped = {int(m.split()[1]) for m in caplog.messages if " video v2: " in m}
    training_on_v2 = {k for k, ids in enumerate(held_out) if "v2" not in ids}
    assert skipped and skipped < training_on_v2, (skipped, training_on_v2)
    for k, videos in enumerate(fold_videos):
        train(
            videos, 5, config, checkpoint_path=tmp_path / f"alone{k}.ckpt",
            log_path=tmp_path / f"alone{k}.jsonl", fold=k,
        )  # fmt: skip
        alone = (tmp_path / f"alone{k}.ckpt", tmp_path / f"alone{k}.jsonl")
        assert (out / f"fold{k}.ckpt").read_bytes() == alone[0].read_bytes()
        assert (out / f"train_fold{k}.jsonl").read_bytes() == alone[1].read_bytes()


def test_worker_memory_estimate_rejects_before_training(tiny_dataset, monkeypatch):
    # the first Manager epoch would run before a (E, T) draw failed; nothing trains now
    monkeypatch.setattr(training, "train_manager_epoch", None)
    config = small_config(episodes=10**12)
    with pytest.raises(ConfigurationError, match=r"--episodes 10+: .*'video000' \(40 frames\)"):
        train(tiny_dataset.videos, 6, config)
    # worker_step_bytes(40, 6, 10) fits easily, and zero epochs never reach a Worker step
    training.check_worker_memory([tiny_dataset.videos], 10)
    train(tiny_dataset.videos, 6, small_config(epochs=0, episodes=10**12))


@pytest.mark.parametrize(
    "frames, dims, episodes",
    [(200, 16, 4000), (300, 1024, 10)],
    ids=["episodes_dominate", "features_dominate"],
)
def test_worker_memory_estimate_covers_the_peak_of_a_worker_epoch(frames, dims, episodes):
    rng = substream(5, "worker-peak")
    video = Video("v", rng.normal(size=(frames, dims)).astype(np.float32), rng.uniform(size=(2, frames)))
    config = small_config(episodes=episodes)
    fold = one_fold(new_policy(dims, config))
    with traced_peak() as traced:
        train_worker_epoch([fold], [[video]], config, 0)
    peak = traced.peak
    need = training.worker_step_bytes(frames, dims, episodes)
    # the estimate is an upper bound, and not a loose one
    assert peak <= need <= 1.25 * peak, (peak, need)


def test_each_group_reads_each_training_video_once(tmp_path, monkeypatch):
    manifest = generate_synthetic(tmp_path / "data", 3, videos=7, frames=30, dims=4)
    reads = collections.Counter()
    read_features = data.read_features

    def counting_read(path):
        reads[Path(path).name] += 1
        return read_features(path)

    monkeypatch.setattr(data, "read_features", counting_read)
    dataset = load_dataset(manifest)
    names = {v.video_id: v.path.name for v in dataset.videos}
    assert reads == collections.Counter(names.values())  # the load-time checks
    reads.clear()
    train_run(dataset, small_config(epochs=0), tmp_path / "fresh", folds=5)
    assert reads == {}
    # groups of 2 folds: {0, 1}, {2, 3} and {4}, for two epochs each
    monkeypatch.setattr(training, "lockstep_group_size", lambda feature_dim, hidden: 2)
    train_run(dataset, small_config(epochs=2), tmp_path / "run", folds=5)
    with open(tmp_path / "run" / "folds.json", encoding="utf-8") as fh:
        held_out = json.load(fh)["folds"]
    want = collections.Counter()
    for group in ([0, 1], [2, 3], [4]):
        trained = set(names) - set.intersection(*(set(held_out[k]) for k in group))
        want.update(names[video_id] for video_id in trained)
    assert reads == want


def test_lockstep_groups_are_sized_by_parameter_state():
    # four float64 copies of a fold's parameters: 1.6 MB at D=16, H=64, 18 MB at D=1024
    assert training.lockstep_group_size(16, 64) == 3
    assert training.lockstep_group_size(1024, 64) == 1


def test_untrained_run_holds_parameters_only(tmp_path):
    # --epochs 0 builds no optimizer, and a store makes no gradient until a backward pass
    manifest = generate_synthetic(tmp_path / "data", 4, videos=2, frames=20, dims=512)
    dataset = load_dataset(manifest)
    with traced_peak() as traced:
        train_run(dataset, small_config(epochs=0, hidden=64), tmp_path / "run", no_cv=True)
    store, _ = load_checkpoint(tmp_path / "run" / "fold0.ckpt")
    params = sum(value.nbytes for value in store.params.values())
    assert traced.peak < 2.5 * params, (traced.peak, params)


def test_parameter_state_estimate_rejects_a_large_hidden_before_allocating():
    # hidden 4000 at D=5: 8 bytes a parameter fit the limit, 32 bytes (training) do not
    assert training.fold_state_bytes(5, 4000, training=False) <= MEMORY_LIMIT
    assert training.fold_state_bytes(5, 4000) > MEMORY_LIMIT
    with traced_peak() as traced:
        training.check_train_memory([[]], 5, small_config(epochs=0, hidden=4000))
        with pytest.raises(ConfigurationError, match=r"--hidden 4000: .* \d+ bytes, over the"):
            training.check_train_memory([[]], 5, small_config(epochs=1, hidden=4000))
    assert traced.peak < 2**20
    # the estimate counts what init_policy allocates
    params = sum(value.size for value in new_policy(5, small_config(hidden=7)).params.values())
    assert training.fold_state_bytes(5, 7, training=False) == 8 * params
