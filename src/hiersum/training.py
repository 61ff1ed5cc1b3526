"""Alternating optimization of the Manager and the Worker.

Each round runs one Manager epoch (binary cross-entropy against the weak
subtask labels) and one Worker epoch (REINFORCE on episode rewards with a
per-video moving-average baseline, plus the closed-form gradient of the
subgoal-agreement reward, which depends on the scores rather than the
actions). Every video gets exactly one optimizer step per epoch, Manager
epochs touch only Manager parameters and Worker epochs only Worker
parameters, and all randomness comes from named substreams of the master
seed, so runs are bit-reproducible.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import ConfigurationError, block_means, derive_task_labels
from .nn import Adam, save_checkpoint
from .policy import (
    DEFAULT_HIDDEN,
    init_policy,
    manager_forward,
    manager_head,
    manager_loss_backward,
    manager_param_names,
    manager_subgoals_batch,
    log_prob_score_grad,
    sample_actions,  # not called here; bench/tracing.py wraps this attribute
    sample_episodes,
    worker_backward,
    worker_forward,
    worker_param_names,
)
from .rewards import (
    DEFAULT_ALPHA,
    episode_reward,  # not called here; bench/tracing.py wraps this attribute
    episode_rewards,
    sub_reward_score_grad,
)
from .seeding import substream

log = logging.getLogger("hiersum.training")


@dataclass
class TrainConfig:
    epochs: int = 60
    episodes: int = 10  # sampled action sequences per video per Worker epoch
    alpha: float = DEFAULT_ALPHA
    subtask_size: int = 20
    hidden: int = DEFAULT_HIDDEN
    learning_rate: float = 1e-3
    baseline_momentum: float = 0.9
    seed: int = 0

    def validate(self):
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.episodes < 1:
            raise ValueError(f"episodes must be >= 1, got {self.episodes}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.subtask_size < 1:
            raise ValueError(f"subtask_size must be >= 1, got {self.subtask_size}")
        if self.hidden < 1:
            raise ValueError(f"hidden must be >= 1, got {self.hidden}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0.0):
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if not 0.0 <= self.baseline_momentum < 1.0:
            raise ValueError(
                f"baseline_momentum must be in [0, 1), got {self.baseline_momentum}"
            )
        return self


def new_policy(feature_dim, config):
    return init_policy(feature_dim, config.hidden, substream(config.seed, "init"))


def train_manager_epoch(store, optimizer, videos, subtask_size):
    """One BCE step per video on the Manager parameters; returns mean loss."""
    names = manager_param_names(store)
    losses = []
    for video in videos:
        fwd = manager_forward(store, video.features, subtask_size)
        labels = derive_task_labels(video.keyframes, subtask_size)
        losses.append(manager_loss_backward(store, fwd, labels))
        optimizer.step(names)
    return float(np.mean(losses))


def train_worker_epoch(store, optimizer, videos, config, baselines, epoch):
    """One policy-gradient step per video on the Worker parameters.

    The update combines two unbiased pieces of the objective's gradient:
    the score-function term (1/E) * sum over episodes of (R - b) grad log-pi
    for the action-dependent rewards, one (E,) @ (E, T) product, and the
    closed-form gradient of the subgoal-agreement reward, which depends on
    the scores directly and would average to zero through the score-function
    estimator alone. Both are combined in score space before a single
    backward pass. Returns the epoch means of the reward and its components.

    The frozen Manager gives every video's subgoals in one batched pass at
    the start; each video's E episodes are scored from one T x T Gram matrix
    (T^2 * 8 bytes), reused in place as the distance matrix.
    """
    names = worker_param_names(store)
    totals = {"reward": [], "R_d": [], "R_rep": [], "R_sub": []}
    all_subgoals = manager_subgoals_batch(
        store, [video.features for video in videos], config.subtask_size
    )
    for video, subgoals in zip(videos, all_subgoals):
        feats = video.features
        probs = manager_head(store, subgoals)[1]
        wfwd = worker_forward(store, feats, subgoals, config.subtask_size)
        score_means = block_means(wfwd.scores, wfwd.bounds)
        rng = substream(config.seed, "worker", video.video_id, epoch)
        actions = sample_episodes(wfwd.scores, rng, config.episodes)
        if not actions.any():
            log.warning(
                "video %s: every episode selected no frames; skipped this epoch",
                video.video_id,
            )
            continue
        rewards = episode_rewards(feats, actions, score_means, probs, config.alpha)
        baseline = baselines.get(video.video_id, 0.0)
        weights = (rewards.r - baseline) / config.episodes
        dscores = weights @ log_prob_score_grad(wfwd.scores, actions)
        dscores += (1.0 - config.alpha) * sub_reward_score_grad(score_means, probs, wfwd.bounds)
        # the optimizer minimizes, the policy gradient ascends: negate
        worker_backward(store, wfwd, -dscores)
        optimizer.step(names)
        mean_r = float(np.mean(rewards.r))
        momentum = config.baseline_momentum
        baselines[video.video_id] = momentum * baseline + (1.0 - momentum) * mean_r
        totals["reward"].append(mean_r)
        totals["R_d"].append(float(np.mean(rewards.r_d)))
        totals["R_rep"].append(float(np.mean(rewards.r_rep)))
        totals["R_sub"].append(rewards.r_sub)
    return {key: float(np.mean(vals)) if vals else 0.0 for key, vals in totals.items()}


def checkpoint_meta(feature_dim, config):
    meta = dataclasses.asdict(config)
    meta["feature_dim"] = int(feature_dim)
    return meta


def train(videos, feature_dim, config, checkpoint_path=None, log_path=None, fold=None):
    """Alternate Manager and Worker epochs; returns (store, history).

    History holds one log entry per phase per round; the same entries go to
    log_path as JSON lines when given, and to the log at INFO level, prefixed
    with the fold number when given and followed by the phase's wall-clock
    seconds, which stay out of the history and log_path.
    """
    config.validate()
    if not videos:
        raise ConfigurationError("cannot train on an empty video list")
    store = new_policy(feature_dim, config)
    optimizer = Adam(store, lr=config.learning_rate)
    baselines = {}
    history = []
    log_fh = open(log_path, "w", encoding="utf-8") if log_path else None
    try:
        for epoch in range(config.epochs):
            start = time.perf_counter()
            loss = train_manager_epoch(store, optimizer, videos, config.subtask_size)
            entry = {"epoch": epoch, "phase": "manager", "L_m": loss}
            _emit(history, log_fh, fold, entry, time.perf_counter() - start)
            start = time.perf_counter()
            stats = train_worker_epoch(store, optimizer, videos, config, baselines, epoch)
            entry = {"epoch": epoch, "phase": "worker", **stats}
            _emit(history, log_fh, fold, entry, time.perf_counter() - start)
    finally:
        if log_fh:
            log_fh.close()
    store.check_finite()
    if checkpoint_path:
        save_checkpoint(checkpoint_path, store, checkpoint_meta(feature_dim, config))
    return store, history


def _emit(history, log_fh, fold, entry, seconds):
    history.append(entry)
    values = [f"{key}={entry[key]:.6g}" for key in sorted(entry) if key not in ("epoch", "phase")]
    log.info(
        "%sepoch %d %s: %s (%.3f s)",
        "" if fold is None else f"fold {fold} ",
        entry["epoch"],
        entry["phase"],
        ", ".join(values),
        seconds,
    )
    if log_fh:
        log_fh.write(json.dumps(entry, sort_keys=True))
        log_fh.write("\n")
        log_fh.flush()


def crossval_split(video_ids, folds, seed):
    """Deterministic shuffled partition into near-equal folds of test videos."""
    video_ids = list(video_ids)
    if folds < 2:
        raise ConfigurationError(f"need at least 2 folds, got {folds}")
    if len(video_ids) < folds:
        raise ConfigurationError(f"{len(video_ids)} videos cannot fill {folds} folds")
    perm = substream(seed, "folds").permutation(len(video_ids))
    return [
        [video_ids[i] for i in sorted(chunk)] for chunk in np.array_split(perm, folds)
    ]


def train_run(dataset, config, out_dir, folds=5, no_cv=False, extra_config=None):
    """Train one checkpoint per fold under out_dir and record the run layout.

    folds.json lists each fold's held-out test videos; fold k trains on all
    the others (with --no-cv there is a single fold trained and tested on
    everything).
    """
    config.validate()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ids = dataset.video_ids
    if no_cv:
        fold_lists = [list(ids)]
        setting = "single"
    else:
        fold_lists = crossval_split(ids, folds, config.seed)
        setting = "canonical"

    echo = dataclasses.asdict(config)
    echo.update(
        {
            "dataset": dataset.manifest.name,
            "feature_dim": dataset.manifest.feature_dim,
            "folds": len(fold_lists),
            "no_cv": bool(no_cv),
        }
    )
    if extra_config:
        echo.update(extra_config)
    with open(out / "config.json", "w", encoding="utf-8") as fh:
        json.dump(echo, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(out / "folds.json", "w", encoding="utf-8") as fh:
        json.dump({"setting": setting, "folds": fold_lists}, fh, indent=2, sort_keys=True)
        fh.write("\n")

    for k, test_ids in enumerate(fold_lists):
        if no_cv:
            train_videos = list(dataset.videos)
        else:
            train_videos = [v for v in dataset.videos if v.video_id not in test_ids]
        train(
            train_videos,
            dataset.manifest.feature_dim,
            config,
            checkpoint_path=out / f"fold{k}.ckpt",
            log_path=out / f"train_fold{k}.jsonl",
            fold=k,
        )
    return out
