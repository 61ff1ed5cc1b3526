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

manager_forward and worker_forward are the one forward pass of each
network. They take lists with one entry per lane, a store and a video, and
run every lane's LSTM in one recurrence (nn.lstm_forward); the heads stay
per lane. In training the lanes are the K folds of a lockstep step, each
with its own store, and manager_backward and worker_backward walk them back
in one stacked walk (nn.lstm_backward), with T_max * K * 4H * 8 bytes of
gates. At inference greedy_scores_batch runs the same two passes over a
batch of videos as lanes of one store, so `evaluate` scores a fold's
held-out videos together; the padded gates take T_max * B * 4H * 8 bytes
for a batch of B videos whose longest has T_max frames, and B is at most
SCORE_BATCH. manager_subgoals_batch is the Manager half of that pass; a
Worker epoch, during which the Manager is frozen, takes every video's
subgoals and subtask probabilities from it, one fold at a time. Features
go to the LSTM as the caller holds them, float32 included (nn widens
them).

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
    sigmoid,
)

DEFAULT_HIDDEN = 64
# videos per batched recurrence in greedy_scores_batch and manager_subgoals_batch,
# which run lanes of one store; bounds the gates at T_max * SCORE_BATCH * 4H * 8
# bytes. At D = 1024 and H = 64 the gates of 4 videos are no larger than a
# float64 copy of the longest one's features.
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
    cache: tuple  # nn.lstm_forward's cache, shared by the lanes of one forward call


def manager_forward(stores, features, subtask_size):
    """Lane i's ManagerForward of stores[i] on features[i], from one stacked recurrence."""
    hs, cache = lstm_forward(stores, "manager.lstm", features)
    fwds = []
    for store, lane_hs in zip(stores, hs):
        bounds = subtask_bounds(lane_hs.shape[0], subtask_size)
        subgoals = lane_hs[bounds[1:] - 1]
        raw, probs, clamp_mask = manager_head(store, subgoals)
        fwds.append(ManagerForward(bounds, subgoals, raw, probs, clamp_mask, cache))
    return fwds


def manager_head(store, subgoals):
    """Subtask probabilities from (N, H) subgoals; returns (raw, probs, clamp_mask)."""
    raw = sigmoid(affine(store, "manager.head", subgoals)[:, 0])
    probs, clamp_mask = clamp_prob(raw)
    return raw, probs, clamp_mask


def manager_subgoals_batch(store, features_list, subtask_size):
    """Each video's ((N_v, H) subgoals, (N_v,) clamped subtask probabilities), SCORE_BATCH at once.

    A batch runs through manager_forward as lanes of one store. Both match
    manager_forward of each video alone to within rounding of the batched
    recurrent product (about 1e-16); a batch of one is the same arithmetic.
    Only the subgoals and probabilities outlive a batch's padded states.
    """
    pairs = []
    for first in range(0, len(features_list), SCORE_BATCH):
        batch = features_list[first : first + SCORE_BATCH]
        stores = [store] * len(batch)
        pairs += [(fwd.subgoals, fwd.probs) for fwd in manager_forward(stores, batch, subtask_size)]
    return pairs


def manager_backward(stores, fwds, dlogits):
    """Accumulate each fold's gradients given d(loss)/d(subtask logits), one stacked LSTM walk.

    stores, fwds and dlogits hold one entry per fold: fwds is the whole list
    one manager_forward call gave, whose cache the walk consumes.
    """
    # on each fold's hidden states, nonzero at the subgoals only
    dhs = [np.zeros((fwd.bounds[-1], fwd.subgoals.shape[1])) for fwd in fwds]
    for store, fwd, d, dh in zip(stores, fwds, dlogits, dhs):
        dh[fwd.bounds[1:] - 1] = affine_backward(store, "manager.head", fwd.subgoals, d[:, None])
    lstm_backward(stores, "manager.lstm", fwds[0].cache, dhs)


def manager_loss(fwd, task_labels):
    """Mean binary cross-entropy of subtask probabilities against weak labels."""
    labels = np.asarray(task_labels, dtype=np.float64)
    if labels.shape[0] != fwd.probs.shape[0]:
        raise ValueError(f"{labels.shape[0]} labels for {fwd.probs.shape[0]} subtasks")
    return float(bce(fwd.probs, labels).mean())


def manager_loss_backward(stores, fwds, task_labels):
    """Backward pass for each fold's Manager loss in one stacked walk; returns the losses."""
    losses, dlogits = [], []
    for fwd, labels in zip(fwds, task_labels):
        labels = np.asarray(labels, dtype=np.float64)
        losses.append(manager_loss(fwd, labels))
        dprobs = bce_grad(fwd.probs, labels) / fwd.probs.shape[0]
        dlogits.append(dprobs * fwd.clamp_mask * fwd.raw * (1.0 - fwd.raw))
    manager_backward(stores, fwds, dlogits)
    return losses


@dataclass
class WorkerForward:
    bounds: np.ndarray  # (N + 1,) subtask bounds, as subtask_bounds gives them
    scores: np.ndarray  # (T,) clamped per-frame importance scores
    raw: np.ndarray  # (T,) sigmoid outputs before clamping
    clamp_mask: np.ndarray
    mixed: np.ndarray  # (T, H) affine mix of [subgoal ; hidden]
    subgoals: np.ndarray  # (N, H), constants to the Worker
    hs: np.ndarray  # (T, H) Worker hidden states, a view of the stacked cache
    cache: tuple  # nn.lstm_forward's cache, shared by the lanes of one forward call

    @property
    def concat(self):
        """(T, 2H) mix-layer inputs, subgoal first; built when asked for, not held."""
        return _mix_inputs(self.hs, self.subgoals, self.bounds)


def worker_forward(stores, features, subgoals, subtask_size):
    """Lane i's WorkerForward of stores[i] on features[i] and subgoals[i], stacked."""
    bounds = [subtask_bounds(f.shape[0], subtask_size) for f in features]
    for b, goals in zip(bounds, subgoals):
        if b.size - 1 != goals.shape[0]:
            raise ValueError(f"{goals.shape[0]} subgoals for {b.size - 1} subtasks")
    hs, cache = lstm_forward(stores, "worker.lstm", features)
    fwds = []
    for store, lane_hs, goals, b in zip(stores, hs, subgoals, bounds):
        # mix each hidden state with its subtask's subgoal, then score the mix
        mixed = affine(store, "worker.mix", _mix_inputs(lane_hs, goals, b))
        raw = sigmoid(affine(store, "worker.head", mixed)[:, 0])
        scores, clamp_mask = clamp_prob(raw)
        fwds.append(WorkerForward(b, scores, raw, clamp_mask, mixed, goals, lane_hs, cache))
    return fwds


def _mix_inputs(hs, subgoals, bounds):
    return np.hstack([np.repeat(subgoals, np.diff(bounds), axis=0), hs])


def worker_backward(stores, fwds, dscores):
    """Accumulate each fold's Worker gradients given d(loss)/d(scores), one stacked LSTM walk.

    fwds is the whole list one worker_forward call gave, whose cache the
    walk consumes; a None dscores[k] leaves fold k's parameters alone.
    Subgoals are constants to the Worker, so no gradient flows back to them:
    the Manager is updated only by its own loss.
    """
    dhs = [None] * len(fwds)  # on each fold's hidden states
    for k, (store, fwd, d) in enumerate(zip(stores, fwds, dscores)):
        if d is not None:
            dlogits = d * fwd.clamp_mask * fwd.raw * (1.0 - fwd.raw)
            dmixed = affine_backward(store, "worker.head", fwd.mixed, dlogits[:, None])
            dconcat = affine_backward(store, "worker.mix", fwd.concat, dmixed)
            dhs[k] = dconcat[:, fwd.hs.shape[1] :]  # the hidden-state half
    lstm_backward(stores, "worker.lstm", fwds[0].cache, dhs)


def sample_actions(scores, rng, count):
    """(count, T) 0/1 uint8 actions, one Bernoulli draw per frame per episode.

    Episodes take the stream's values in row order, so count draws of one
    episode each give the rows of one draw of count episodes. The actions
    are a view of the comparison's booleans, so the float64 draw is the only
    (count, T) temporary.
    """
    return (rng.random((count, scores.shape[0])) < scores).view(np.uint8)


def log_prob_score_grad(scores, actions):
    """d log-prob / d scores for fixed actions, one row per action sequence.

    Built in place: beside the actions it holds the float64 result and one
    temporary of the same shape.
    """
    actions = np.asarray(actions)
    grad = actions / scores
    rest = 1.0 - actions
    rest /= 1.0 - scores
    grad -= rest
    return grad


def greedy_scores(store, features, subtask_size):
    """Deterministic per-frame importance scores of one video, for inference."""
    return greedy_scores_batch(store, [features], subtask_size)[0]


def greedy_scores_batch(store, features_list, subtask_size):
    """Per-frame importance scores of several videos, one (T_v,) array each.

    Up to SCORE_BATCH videos at a time run through manager_forward and
    worker_forward as lanes of one store. Scores match greedy_scores on
    each video alone to within rounding of the batched recurrent product
    (about 1e-16).
    """
    scores = []
    for first in range(0, len(features_list), SCORE_BATCH):
        batch = features_list[first : first + SCORE_BATCH]
        # the Manager's padded states are freed before the Worker's gates are allocated
        subgoals = [goals for goals, _ in manager_subgoals_batch(store, batch, subtask_size)]
        stores = [store] * len(batch)
        scores += [fwd.scores for fwd in worker_forward(stores, batch, subgoals, subtask_size)]
    return scores
