"""Manager and Worker networks.

Subtasks are the blocks of the bounds array data.subtask_bounds gives. The
Manager runs one LSTM pass over the whole video with hidden state carried
across subtask boundaries; the hidden state at the last frame of each subtask
(hs[bounds[1:] - 1]) is that subtask's subgoal, and a sigmoid head on the
subgoal predicts the probability that the subtask contains a keyframe. The
Worker runs its own LSTM over the same frames (state also carried across
subtasks), mixes each hidden state with its subtask's subgoal, repeated over
the subtask's frames, through an affine layer, and a sigmoid head turns the
mix into a per-frame importance score. Actions are Bernoulli draws from the
scores.

At inference, greedy_scores_batch runs each network's LSTM over a batch of
videos in one recurrence (nn.lstm_forward_batch), so `evaluate` scores a
fold's held-out videos together; the padded gates take T_max * B * 4H * 8
bytes for a batch of B videos whose longest has T_max frames, and B is at
most SCORE_BATCH. manager_subgoals_batch is the Manager half of that pass;
a Worker epoch, during which the Manager is frozen, takes every video's
subgoals from it.

The Worker treats subgoals as constants: gradients from Worker objectives
never reach Manager parameters, which train only on their own loss.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import ConfigurationError, subtask_bounds
from .nn import (
    ParamStore,
    affine,
    affine_backward,
    bce,
    bce_grad,
    clamp_prob,
    init_affine,
    init_lstm,
    lstm_backward,
    lstm_forward,
    lstm_forward_batch,
    sigmoid,
)

DEFAULT_HIDDEN = 64
# videos per batched recurrence in greedy_scores_batch; bounds the padded gates
# at T_max * SCORE_BATCH * 4H * 8 bytes. At D = 1024 and H = 64 the gates of 4
# videos are no larger than a float64 copy of the longest one's features.
# Batches of 10 were about 10% faster at scoring, but freeing their 8 MB gates
# raised glibc's mmap threshold, and evaluate's peak RSS with it, by about 2%.
SCORE_BATCH = 4


def init_policy(feature_dim, hidden, rng):
    """Fresh parameters for both networks; insertion order fixes checkpoint layout."""
    store = ParamStore()
    init_lstm(store, "manager.lstm", feature_dim, hidden, rng)
    init_affine(store, "manager.head", 1, hidden, rng)
    init_lstm(store, "worker.lstm", feature_dim, hidden, rng)
    init_affine(store, "worker.mix", hidden, 2 * hidden, rng)
    init_affine(store, "worker.head", 1, hidden, rng)
    return store


def policy_shapes(feature_dim, hidden):
    """{name: shape} of the parameters init_policy gives, in its order, with none allocated."""
    d, h = feature_dim, hidden
    lstm = {"lstm.Wx": (d, 4 * h), "lstm.Wh": (h, 4 * h), "lstm.b": (4 * h,)}
    head = {"head.W": (1, h), "head.b": (1,)}
    mix = {"mix.W": (h, 2 * h), "mix.b": (h,)}
    nets = {"manager": {**lstm, **head}, "worker": {**lstm, **mix, **head}}
    return {f"{net}.{key}": shape for net, layers in nets.items() for key, shape in layers.items()}


def check_checkpoint(path, store, meta, feature_dim, source):
    """Reject a loaded checkpoint that does not fit init_policy or the features to score.

    The meta must hold positive integers (not booleans) feature_dim, hidden
    and subtask_size, and the parameters must have exactly the names and
    shapes init_policy gives for that feature_dim and hidden (policy_shapes,
    which allocates nothing) and hold only finite values. The meta's
    feature_dim must equal feature_dim, the width of source (the features
    file or the dataset).
    """
    for key in ("feature_dim", "hidden", "subtask_size"):
        value = meta.get(key)
        if type(value) is not int or value < 1:
            raise ConfigurationError(f"{path}: meta.{key} is {value!r}, not a positive integer")
    layout = policy_shapes(meta["feature_dim"], meta["hidden"])
    for name, shape in layout.items():
        if name not in store:
            raise ConfigurationError(f"{path}: parameter '{name}' is missing")
        if store[name].shape != shape:
            raise ConfigurationError(
                f"{path}: parameter '{name}' has shape {store[name].shape}, expected {shape}"
            )
        if not np.all(np.isfinite(store[name])):
            raise ConfigurationError(f"{path}: parameter '{name}' holds a non-finite value")
    extra = [name for name in store.names() if name not in layout]
    if extra:
        raise ConfigurationError(f"{path}: unexpected parameter '{extra[0]}'")
    if meta["feature_dim"] != feature_dim:
        raise ConfigurationError(
            f"{path}: model feature dim {meta['feature_dim']} does not match "
            f"feature dim {feature_dim} of {source}"
        )


def manager_param_names(store):
    return [n for n in store.names() if n.startswith("manager.")]


def worker_param_names(store):
    return [n for n in store.names() if n.startswith("worker.")]


@dataclass
class ManagerForward:
    bounds: np.ndarray  # (N + 1,) subtask bounds, as subtask_bounds gives them
    subgoals: np.ndarray  # (N, H), hidden state at each subtask's last frame
    raw: np.ndarray  # (N,) sigmoid outputs before clamping
    probs: np.ndarray  # (N,) clamped subtask probabilities
    clamp_mask: np.ndarray
    cache: tuple  # lstm_forward cache for the backward pass


def manager_forward(store, features, subtask_size):
    feats = np.asarray(features, dtype=np.float64)
    bounds = subtask_bounds(feats.shape[0], subtask_size)
    hs, cache = lstm_forward(store, "manager.lstm", feats)
    subgoals = hs[bounds[1:] - 1]
    raw, probs, clamp_mask = manager_head(store, subgoals)
    return ManagerForward(
        bounds=bounds,
        subgoals=subgoals,
        raw=raw,
        probs=probs,
        clamp_mask=clamp_mask,
        cache=cache,
    )


def manager_head(store, subgoals):
    """Subtask probabilities from (N, H) subgoals; returns (raw, probs, clamp_mask)."""
    raw = sigmoid(affine(store, "manager.head", subgoals)[:, 0])
    probs, clamp_mask = clamp_prob(raw)
    return raw, probs, clamp_mask


def manager_subgoals_batch(store, features_list, subtask_size):
    """Each video's (N_v, H) subgoals, from Manager recurrences over up to SCORE_BATCH videos.

    Subgoals match manager_forward on each video alone to within rounding of
    the batched recurrent product (about 1e-16); a batch of one is the same
    arithmetic. Only the subgoals outlive a batch's padded states.
    """
    subgoals = []
    for first in range(0, len(features_list), SCORE_BATCH):
        batch = features_list[first : first + SCORE_BATCH]
        hs = lstm_forward_batch(store, "manager.lstm", batch)[0]
        for v, feats in enumerate(batch):
            subgoals.append(hs[subtask_bounds(feats.shape[0], subtask_size)[1:] - 1, v])
    return subgoals


def manager_backward(store, fwd, dlogits):
    """Accumulate gradients given d(loss)/d(subtask logits)."""
    dhs = np.zeros((fwd.bounds[-1], fwd.subgoals.shape[1]))
    dsubgoals = affine_backward(store, "manager.head", fwd.subgoals, dlogits[:, None])
    dhs[fwd.bounds[1:] - 1] = dsubgoals
    lstm_backward(store, "manager.lstm", fwd.cache, dhs)


def manager_loss(fwd, task_labels):
    """Mean binary cross-entropy of subtask probabilities against weak labels."""
    labels = np.asarray(task_labels, dtype=np.float64)
    if labels.shape[0] != fwd.probs.shape[0]:
        raise ValueError(f"{labels.shape[0]} labels for {fwd.probs.shape[0]} subtasks")
    return float(bce(fwd.probs, labels).mean())


def manager_loss_backward(store, fwd, task_labels):
    """Backward pass for the Manager loss; returns the loss value."""
    labels = np.asarray(task_labels, dtype=np.float64)
    loss = manager_loss(fwd, labels)
    n = fwd.probs.shape[0]
    dprobs = bce_grad(fwd.probs, labels) / n
    dlogits = dprobs * fwd.clamp_mask * fwd.raw * (1.0 - fwd.raw)
    manager_backward(store, fwd, dlogits)
    return loss


@dataclass
class WorkerForward:
    bounds: np.ndarray  # (N + 1,) subtask bounds, as subtask_bounds gives them
    scores: np.ndarray  # (T,) clamped per-frame importance scores
    raw: np.ndarray  # (T,) sigmoid outputs before clamping
    clamp_mask: np.ndarray
    mixed: np.ndarray  # (T, H) affine mix of [subgoal ; hidden]
    concat: np.ndarray  # (T, 2H) mix-layer inputs, subgoal first
    cache: tuple  # lstm_forward cache for the backward pass


def worker_forward(store, features, subgoals, subtask_size):
    feats = np.asarray(features, dtype=np.float64)
    bounds = subtask_bounds(feats.shape[0], subtask_size)
    if bounds.size - 1 != subgoals.shape[0]:
        raise ValueError(f"{subgoals.shape[0]} subgoals for {bounds.size - 1} subtasks")
    hs, cache = lstm_forward(store, "worker.lstm", feats)
    concat, mixed, raw = _worker_head(store, hs, subgoals, bounds)
    scores, clamp_mask = clamp_prob(raw)
    return WorkerForward(
        bounds=bounds,
        scores=scores,
        raw=raw,
        clamp_mask=clamp_mask,
        mixed=mixed,
        concat=concat,
        cache=cache,
    )


def _worker_head(store, hs, subgoals, bounds):
    """Mix each Worker hidden state with its subtask's subgoal; returns (concat, mixed, raw)."""
    concat = np.hstack([np.repeat(subgoals, np.diff(bounds), axis=0), hs])
    mixed = affine(store, "worker.mix", concat)
    raw = sigmoid(affine(store, "worker.head", mixed)[:, 0])
    return concat, mixed, raw


def worker_backward(store, fwd, dscores):
    """Accumulate Worker gradients given d(loss)/d(scores).

    Subgoals are constants to the Worker, so no gradient flows back to them:
    the Manager is updated only by its own loss.
    """
    hidden = fwd.mixed.shape[1]
    dlogits = dscores * fwd.clamp_mask * fwd.raw * (1.0 - fwd.raw)
    dmixed = affine_backward(store, "worker.head", fwd.mixed, dlogits[:, None])
    dconcat = affine_backward(store, "worker.mix", fwd.concat, dmixed)
    lstm_backward(store, "worker.lstm", fwd.cache, dconcat[:, hidden:])


@dataclass
class Episode:
    actions: np.ndarray  # (T,) 0/1
    selected: np.ndarray  # indices where the action is 1


def action_log_prob(scores, actions):
    actions = np.asarray(actions, dtype=np.float64)
    return float(
        np.sum(actions * np.log(scores) + (1.0 - actions) * np.log1p(-scores))
    )


def sample_episodes(scores, rng, count):
    """(count, T) 0/1 actions, one Bernoulli draw per frame per episode.

    One rng.random((count, T)) call takes the same stream values, in the same
    order, as count calls of sample_actions.
    """
    return (rng.random((count, scores.shape[0])) < scores).astype(np.uint8)


def sample_actions(scores, rng):
    """Draw one Bernoulli action per frame from the given scores."""
    actions = sample_episodes(scores, rng, 1)[0]
    return Episode(actions=actions, selected=np.flatnonzero(actions))


def log_prob_score_grad(scores, actions):
    """d log-prob / d scores for a fixed action sequence."""
    actions = np.asarray(actions, dtype=np.float64)
    return actions / scores - (1.0 - actions) / (1.0 - scores)


def greedy_scores(store, features, subtask_size):
    """Deterministic per-frame importance scores of one video, for inference."""
    return greedy_scores_batch(store, [features], subtask_size)[0]


def greedy_scores_batch(store, features_list, subtask_size):
    """Per-frame importance scores of several videos, one (T_v,) array each.

    Up to SCORE_BATCH videos share one Manager and one Worker recurrence;
    the Manager head is skipped, since scoring needs only its subgoals.
    Scores match greedy_scores on each video alone to within rounding of
    the batched recurrent product (about 1e-16).
    """
    scores = []
    for first in range(0, len(features_list), SCORE_BATCH):
        batch = features_list[first : first + SCORE_BATCH]
        # the Manager's padded states are freed before the Worker's gates are allocated
        subgoals = manager_subgoals_batch(store, batch, subtask_size)
        hs = lstm_forward_batch(store, "worker.lstm", batch)[0]
        for v, feats in enumerate(batch):
            bounds = subtask_bounds(feats.shape[0], subtask_size)
            raw = _worker_head(store, hs[: feats.shape[0], v], subgoals[v], bounds)[2]
            scores.append(clamp_prob(raw)[0])
    return scores
