"""Alternating optimization of the Manager and the Worker, several folds at once.

Each round runs one Manager epoch (binary cross-entropy against the weak
subtask labels) and one Worker epoch (REINFORCE on episode rewards with a
per-video moving-average baseline, plus the closed-form gradient of the
subgoal-agreement reward, which depends on the scores rather than the
actions). Every video gets exactly one optimizer step per epoch, Manager
epochs touch only Manager parameters and Worker epochs only Worker
parameters, and all randomness comes from named substreams of the master
seed, keyed by video and epoch and never by fold, so runs are
bit-reproducible.

The folds of a run train in lockstep groups, as many as LOCKSTEP_BYTES of
parameter state allows: at step j of each epoch phase every fold of a group
takes its own j-th training video, a fold with fewer videos drops out of
the later steps, and the folds of a step share one stacked LSTM recurrence forward and one
stacked walk backward (nn.lstm_forward_batch, nn.lstm_backward). Heads,
rewards, score gradients, Adam steps and baselines stay per fold, and the
stacked recurrence multiplies each fold's block on its own, so each fold
computes the same bits it would alone. `train` is the one-fold case.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import math
import time
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import ConfigurationError, block_means, derive_task_labels
from .kts import MEMORY_LIMIT
from .nn import Adam, ParamStore, save_checkpoint
from .policy import (
    DEFAULT_HIDDEN,
    init_policy,
    policy_shapes,
    manager_forward,  # not called here; bench/tracing.py wraps this attribute
    manager_forward_folds,
    manager_head,
    manager_loss_backward_folds,
    manager_param_names,
    manager_subgoals_batch,
    log_prob_score_grad,
    sample_actions,  # not called here; bench/tracing.py wraps this attribute
    sample_episodes,
    worker_backward,  # not called here; bench/tracing.py wraps this attribute
    worker_backward_folds,
    worker_forward,  # not called here; bench/tracing.py wraps this attribute
    worker_forward_folds,
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

# bytes of parameter state a lockstep group may hold: every fold of a group keeps
# its parameters, gradients and two Adam moments, four float64 copies of the
# parameters, for the whole run, so groups take as many folds as fit, and at least
# one. D=16, H=64 folds (1.6 MB each) train 3 at a time, D=1024 ones (18 MB) one
# at a time. All 5 folds of the train-cv benchmark at once took 9.5 MB more peak
# RSS than one at a time, about 9% of its process; groups of 3 took 5% and gain
# most of the speed.
LOCKSTEP_BYTES = 5 * 2**20


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


@dataclass
class FoldState:
    """One fold's parameters, optimizer and per-video Worker baselines."""

    store: ParamStore
    optimizer: Adam
    baselines: dict = field(default_factory=dict)  # video id -> moving-average reward
    label: int | None = None  # fold number in log lines; None for a lone train call


def new_policy(feature_dim, config):
    return init_policy(feature_dim, config.hidden, substream(config.seed, "init"))


def _lockstep(per_fold):
    """The steps of a lockstep walk: step j pairs each fold k that has a j-th item with it."""
    for j in range(max(map(len, per_fold))):
        yield [(k, items[j]) for k, items in enumerate(per_fold) if j < len(items)]


def train_manager_epoch(folds, videos, subtask_size):
    """One BCE step per video on each fold's Manager; returns each fold's mean loss.

    videos[k] is folds[k]'s training list. The folds of a lockstep step share
    one stacked Manager recurrence forward and one stacked walk backward.
    """
    losses = [[] for _ in folds]
    for step in _lockstep(videos):
        for (k, _), loss in zip(step, _manager_step(folds, step, subtask_size)):
            losses[k].append(loss)
    return [float(np.mean(fold_losses)) for fold_losses in losses]


def _manager_step(folds, step, subtask_size):
    """One BCE step of each fold k on its video of a lockstep step; returns their losses.

    The step's stacked arrays are freed on return, before the next step's.
    """
    stores = [folds[k].store for k, _ in step]
    fwds = manager_forward_folds(stores, [video.features for _, video in step], subtask_size)
    labels = [derive_task_labels(video.keyframes, subtask_size) for _, video in step]
    losses = manager_loss_backward_folds(stores, fwds, labels)
    names = manager_param_names(stores[0])
    for k, _ in step:
        folds[k].optimizer.step(names)
    return losses


def train_worker_epoch(folds, videos, config, epoch):
    """One policy-gradient step per video on each fold's Worker; returns each fold's stats.

    videos[k] is folds[k]'s training list. The update combines two unbiased
    pieces of the objective's gradient: the score-function term (1/E) * sum
    over episodes of (R - b) grad log-pi for the action-dependent rewards,
    one (E,) @ (E, T) product, and the closed-form gradient of the
    subgoal-agreement reward, which depends on the scores directly and would
    average to zero through the score-function estimator alone. Both are
    combined in score space before a single backward pass. A fold's stats
    are the epoch means of the reward and its components.

    Each fold's frozen Manager gives all its videos' subgoals in one batched
    pass at the start. The folds of a lockstep step then share one stacked
    Worker recurrence forward and one stacked walk backward, which adds
    exact zeros to a fold whose video was skipped; each video's E episodes
    are scored from one T x T Gram matrix (T^2 * 8 bytes), reused in place
    as the distance matrix.
    """
    totals = [{"reward": [], "R_d": [], "R_rep": [], "R_sub": []} for _ in folds]
    items = [
        list(zip(fold_videos, manager_subgoals_batch(
            fold.store, [video.features for video in fold_videos], config.subtask_size
        )))
        for fold, fold_videos in zip(folds, videos)
    ]  # fmt: skip
    for step in _lockstep(items):
        _worker_step(folds, step, config, epoch, totals)
    return [
        {key: float(np.mean(vals)) if vals else 0.0 for key, vals in fold_totals.items()}
        for fold_totals in totals
    ]


def _worker_step(folds, step, config, epoch, totals):
    """One policy-gradient step of each fold k on its (video, subgoals) of a lockstep step.

    A fold whose episodes all select no frames takes no step. The step's
    stacked arrays are freed on return, before the next step's.
    """
    stores = [folds[k].store for k, _ in step]
    fwds = worker_forward_folds(
        stores,
        [video.features for _, (video, _) in step],
        [subgoals for _, (_, subgoals) in step],
        config.subtask_size,
    )
    dscores = [
        _score_gradient(folds[k], video, subgoals, wfwd, config, epoch, totals[k])
        for (k, (video, subgoals)), wfwd in zip(step, fwds)
    ]
    stepped = [folds[k] for (k, _), d in zip(step, dscores) if d is not None]
    if not stepped:
        return
    # the optimizer minimizes, the policy gradient ascends: negate
    worker_backward_folds(stores, fwds, [None if d is None else -d for d in dscores])
    names = worker_param_names(stores[0])
    for fold in stepped:
        fold.optimizer.step(names)


def _score_gradient(fold, video, subgoals, wfwd, config, epoch, totals):
    """d(objective)/d(scores) of one video's episodes, or None if every episode is empty.

    Records the video's rewards in totals and moves its baseline.
    """
    probs = manager_head(fold.store, subgoals)[1]
    score_means = block_means(wfwd.scores, wfwd.bounds)
    rng = substream(config.seed, "worker", video.video_id, epoch)
    actions = sample_episodes(wfwd.scores, rng, config.episodes)
    if not actions.any():
        log.warning(
            "%svideo %s: every episode selected no frames; skipped this epoch",
            _fold_prefix(fold.label),
            video.video_id,
        )
        return None
    rewards = episode_rewards(video.features, actions, score_means, probs, config.alpha)
    baseline = fold.baselines.get(video.video_id, 0.0)
    weights = (rewards.r - baseline) / config.episodes
    dscores = weights @ log_prob_score_grad(wfwd.scores, actions)
    dscores += (1.0 - config.alpha) * sub_reward_score_grad(score_means, probs, wfwd.bounds)
    mean_r = float(np.mean(rewards.r))
    momentum = config.baseline_momentum
    fold.baselines[video.video_id] = momentum * baseline + (1.0 - momentum) * mean_r
    totals["reward"].append(mean_r)
    totals["R_d"].append(float(np.mean(rewards.r_d)))
    totals["R_rep"].append(float(np.mean(rewards.r_rep)))
    totals["R_sub"].append(rewards.r_sub)
    return dscores


def check_worker_memory(fold_videos, episodes):
    """Raise ConfigurationError if a Worker step on the longest video would pass MEMORY_LIMIT.

    The estimate is a floor of one video's Worker working set: the (E, T)
    float64 draws and score-function rows, and the T x T Gram matrix its
    rewards are scored from. It is the limit kts.check_memory holds KTS to.
    """
    video = max((v for videos in fold_videos for v in videos), key=lambda v: v.num_frames)
    need = 8 * video.num_frames * (2 * episodes + video.num_frames)
    if need > MEMORY_LIMIT:
        raise ConfigurationError(
            f"--episodes {episodes}: a Worker step on video '{video.video_id}' "
            f"({video.num_frames} frames) needs an estimated {need} bytes, "
            f"over the {MEMORY_LIMIT}-byte limit"
        )


def checkpoint_meta(feature_dim, config):
    meta = dataclasses.asdict(config)
    meta["feature_dim"] = int(feature_dim)
    return meta


def train(videos, feature_dim, config, checkpoint_path=None, log_path=None, fold=None):
    """Train one fold, train_folds on one video list; returns (store, history)."""
    return train_folds([videos], feature_dim, config, [checkpoint_path], [log_path], [fold])[0]


def train_folds(fold_videos, feature_dim, config, checkpoint_paths, log_paths, labels):
    """Alternate Manager and Worker epochs for folds in lockstep; returns each (store, history).

    fold_videos[k] is fold k's training list, and checkpoint_paths[k],
    log_paths[k] and labels[k] its outputs, each None to skip it. A fold's
    history holds one log entry per phase per round; the same entries go to
    its log path as JSON lines when given, and to the log at INFO level,
    prefixed with its label when given and followed by the phase's
    wall-clock seconds, which the folds share and which stay out of the
    history and the log path. Checkpoints are written once every fold has
    finished.
    """
    config.validate()
    if not all(fold_videos):
        raise ConfigurationError("cannot train on an empty video list")
    if config.epochs:
        check_worker_memory(fold_videos, config.episodes)
    folds = []
    for label in labels:
        store = new_policy(feature_dim, config)
        folds.append(FoldState(store, Adam(store, lr=config.learning_rate), label=label))
    histories = [[] for _ in folds]
    with ExitStack() as stack:
        logs = [p and stack.enter_context(open(p, "w", encoding="utf-8")) for p in log_paths]
        for epoch in range(config.epochs):
            start = time.perf_counter()
            losses = train_manager_epoch(folds, fold_videos, config.subtask_size)
            entries = [{"epoch": epoch, "phase": "manager", "L_m": loss} for loss in losses]
            _emit(folds, histories, logs, entries, time.perf_counter() - start)
            start = time.perf_counter()
            stats = train_worker_epoch(folds, fold_videos, config, epoch)
            entries = [{"epoch": epoch, "phase": "worker", **fold_stats} for fold_stats in stats]
            _emit(folds, histories, logs, entries, time.perf_counter() - start)
    for fold in folds:
        fold.store.check_finite()
    for fold, path in zip(folds, checkpoint_paths):
        if path:
            save_checkpoint(path, fold.store, checkpoint_meta(feature_dim, config))
    return [(fold.store, history) for fold, history in zip(folds, histories)]


def lockstep_group_size(feature_dim, hidden):
    """Folds per lockstep group: as many as LOCKSTEP_BYTES of parameter state holds, at least 1."""
    params = sum(math.prod(shape) for shape in policy_shapes(feature_dim, hidden).values())
    return max(1, LOCKSTEP_BYTES // (32 * params))


def _fold_prefix(label):
    return "" if label is None else f"fold {label} "


def _emit(folds, histories, logs, entries, seconds):
    """Record one phase's entry per fold; every fold's INFO line gives the shared seconds."""
    for fold, history, log_fh, entry in zip(folds, histories, logs, entries):
        history.append(entry)
        values = [f"{k}={entry[k]:.6g}" for k in sorted(entry) if k not in ("epoch", "phase")]
        log.info(
            "%sepoch %d %s: %s (%.3f s)",
            _fold_prefix(fold.label),
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
    everything). The folds train in lockstep groups of lockstep_group_size
    (train_folds), one group after another.
    """
    config.validate()
    ids = dataset.video_ids
    if no_cv:
        fold_lists = [list(ids)]
        fold_videos = [list(dataset.videos)]
        setting = "single"
    else:
        fold_lists = crossval_split(ids, folds, config.seed)
        fold_videos = [[v for v in dataset.videos if v.video_id not in held] for held in fold_lists]
        setting = "canonical"
    if config.epochs:
        check_worker_memory(fold_videos, config.episodes)  # before the run directory is written
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

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

    size = lockstep_group_size(dataset.manifest.feature_dim, config.hidden)
    for first in range(0, len(fold_videos), size):
        labels = list(range(first, min(first + size, len(fold_videos))))
        train_folds(
            fold_videos[first : first + size],
            dataset.manifest.feature_dim,
            config,
            [out / f"fold{k}.ckpt" for k in labels],
            [out / f"train_fold{k}.jsonl" for k in labels],
            labels,
        )
    return out
