"""Manager and Worker networks.

The Manager runs one LSTM pass over the whole video with hidden state carried
across subtask boundaries; the hidden state at the last frame of each subtask
is that subtask's subgoal, and a sigmoid head on the subgoal predicts the
probability that the subtask contains a keyframe. The Worker runs its own
LSTM over the same frames (state also carried across subtasks), mixes each
hidden state with the current subgoal through an affine layer, and a sigmoid
head turns the mix into a per-frame importance score. Actions are Bernoulli
draws from the scores.

The Worker treats subgoals as constants: gradients from Worker objectives
never reach Manager parameters, which train only on their own loss.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import ConfigurationError, subtask_views
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
    sigmoid,
)

DEFAULT_HIDDEN = 64


def init_policy(feature_dim, hidden, rng):
    """Fresh parameters for both networks; insertion order fixes checkpoint layout."""
    store = ParamStore()
    init_lstm(store, "manager.lstm", feature_dim, hidden, rng)
    init_affine(store, "manager.head", 1, hidden, rng)
    init_lstm(store, "worker.lstm", feature_dim, hidden, rng)
    init_affine(store, "worker.mix", hidden, 2 * hidden, rng)
    init_affine(store, "worker.head", 1, hidden, rng)
    return store


def check_checkpoint(path, store, meta):
    """Reject a loaded checkpoint whose meta or parameters do not fit init_policy.

    The meta must hold positive integers feature_dim, hidden and subtask_size,
    and the parameters must have exactly the names and shapes init_policy
    gives for that feature_dim and hidden.
    """
    for key in ("feature_dim", "hidden", "subtask_size"):
        value = meta.get(key)
        if not isinstance(value, int) or value < 1:
            raise ConfigurationError(f"{path}: meta.{key} is {value!r}, not a positive integer")
    layout = init_policy(meta["feature_dim"], meta["hidden"], np.random.default_rng(0))
    for name in layout.names():
        if name not in store:
            raise ConfigurationError(f"{path}: parameter '{name}' is missing")
        if store[name].shape != layout[name].shape:
            raise ConfigurationError(
                f"{path}: parameter '{name}' has shape {store[name].shape}, "
                f"expected {layout[name].shape}"
            )
    extra = [name for name in store.names() if name not in layout]
    if extra:
        raise ConfigurationError(f"{path}: unexpected parameter '{extra[0]}'")


def manager_param_names(store):
    return [n for n in store.names() if n.startswith("manager.")]


def worker_param_names(store):
    return [n for n in store.names() if n.startswith("worker.")]


def policy_dims(store):
    feature_dim, four_h = store["manager.lstm.Wx"].shape
    return feature_dim, four_h // 4


@dataclass
class ManagerForward:
    views: list
    subgoals: np.ndarray  # (N, H), hidden state at each subtask's last frame
    logits: np.ndarray  # (N,)
    raw: np.ndarray  # (N,) sigmoid outputs before clamping
    probs: np.ndarray  # (N,) clamped subtask probabilities
    clamp_mask: np.ndarray
    cache: tuple  # lstm_forward cache for the backward pass


def manager_forward(store, features, subtask_size):
    feats = np.asarray(features, dtype=np.float64)
    views = subtask_views(feats.shape[0], subtask_size)
    hs, cache = lstm_forward(store, "manager.lstm", feats)
    subgoals = hs[[v.end - 1 for v in views]]
    logits = affine(store, "manager.head", subgoals)[:, 0]
    raw = sigmoid(logits)
    probs, clamp_mask = clamp_prob(raw)
    return ManagerForward(
        views=views,
        subgoals=subgoals,
        logits=logits,
        raw=raw,
        probs=probs,
        clamp_mask=clamp_mask,
        cache=cache,
    )


def manager_backward(store, fwd, dlogits):
    """Accumulate gradients given d(loss)/d(subtask logits)."""
    num_frames = fwd.views[-1].end
    dhs = np.zeros((num_frames, fwd.subgoals.shape[1]))
    dsubgoals = affine_backward(store, "manager.head", fwd.subgoals, dlogits[:, None])
    dhs[[v.end - 1 for v in fwd.views]] = dsubgoals
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
    views: list
    scores: np.ndarray  # (T,) clamped per-frame importance scores
    raw: np.ndarray  # (T,) sigmoid outputs before clamping
    clamp_mask: np.ndarray
    mixed: np.ndarray  # (T, H) affine mix of [subgoal ; hidden]
    concat: np.ndarray  # (T, 2H) mix-layer inputs, subgoal first
    cache: tuple  # lstm_forward cache for the backward pass


def worker_forward(store, features, subgoals, subtask_size):
    feats = np.asarray(features, dtype=np.float64)
    views = subtask_views(feats.shape[0], subtask_size)
    if len(views) != subgoals.shape[0]:
        raise ValueError(f"{subgoals.shape[0]} subgoals for {len(views)} subtasks")
    hs, cache = lstm_forward(store, "worker.lstm", feats)
    concat = np.hstack([subgoals[np.arange(feats.shape[0]) // subtask_size], hs])
    mixed = affine(store, "worker.mix", concat)
    raw = sigmoid(affine(store, "worker.head", mixed)[:, 0])
    scores, clamp_mask = clamp_prob(raw)
    return WorkerForward(
        views=views,
        scores=scores,
        raw=raw,
        clamp_mask=clamp_mask,
        mixed=mixed,
        concat=concat,
        cache=cache,
    )


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


def sample_actions(scores, rng):
    """Draw one Bernoulli action per frame from the given scores."""
    actions = (rng.random(scores.shape[0]) < scores).astype(np.uint8)
    return Episode(actions=actions, selected=np.flatnonzero(actions))


def log_prob_score_grad(scores, actions):
    """d log-prob / d scores for a fixed action sequence."""
    actions = np.asarray(actions, dtype=np.float64)
    return actions / scores - (1.0 - actions) / (1.0 - scores)


def greedy_scores(store, features, subtask_size):
    """Deterministic per-frame importance scores for inference."""
    mfwd = manager_forward(store, features, subtask_size)
    wfwd = worker_forward(store, features, mfwd.subgoals, subtask_size)
    return wfwd.scores
