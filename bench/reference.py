"""Computations the benchmark checks the program against, written apart from it.

Nothing here imports hiersum. The forward pass follows the model as the
project README describes it: LSTM gates in the order input, forget, output,
candidate; the Manager's subgoal is its hidden state at the last frame of
each window and a sigmoid head turns it into the window probability; the
Worker mixes [subgoal; h] through an affine layer and a sigmoid head gives
the frame score; probabilities are clamped to [1e-7, 1 - 1e-7].
"""

from __future__ import annotations

import json

import numpy as np
from scipy import stats

PROB_CLAMP = 1e-7


def read_checkpoint(path):
    """(params by name, meta) from a checkpoint: a JSON header line, then float64 payloads."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        params = {}
        for spec in header["params"]:
            shape = tuple(spec["shape"])
            count = int(np.prod(shape)) if shape else 1
            params[spec["name"]] = np.frombuffer(fh.read(8 * count), dtype="<f8").reshape(shape)
        if fh.read(1):
            raise ValueError(f"{path}: trailing bytes")
    return params, header["meta"]


def sigmoid(z):
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def clamp(p):
    return np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP)


def lstm(params, prefix, feats):
    """(T, H) hidden states; the input projection is done for all frames at once."""
    wh = params[f"{prefix}.Wh"]
    hidden = wh.shape[0]
    zx = feats @ params[f"{prefix}.Wx"] + params[f"{prefix}.b"]
    h = np.zeros(hidden)
    c = np.zeros(hidden)
    hs = np.empty((feats.shape[0], hidden))
    for t in range(feats.shape[0]):
        z = zx[t] + h @ wh
        i, f, o = sigmoid(z[: 3 * hidden]).reshape(3, hidden)
        c = f * c + i * np.tanh(z[3 * hidden :])
        h = o * np.tanh(c)
        hs[t] = h
    return hs


def manager(params, feats, subtask_size):
    """(subgoals (N, H), clamped window probabilities (N,))."""
    hs = lstm(params, "manager.lstm", feats)
    ends = np.minimum(np.arange(subtask_size, feats.shape[0] + subtask_size, subtask_size), feats.shape[0])
    subgoals = hs[ends - 1]
    logits = subgoals @ params["manager.head.W"][0] + params["manager.head.b"][0]
    return subgoals, clamp(sigmoid(logits))


def frame_scores(params, feats, subtask_size):
    """Clamped per-frame Worker scores for one video."""
    subgoals, _ = manager(params, feats, subtask_size)
    hs = lstm(params, "worker.lstm", feats)
    window = np.arange(feats.shape[0]) // subtask_size
    concat = np.hstack([subgoals[window], hs])
    mixed = concat @ params["worker.mix.W"].T + params["worker.mix.b"]
    logits = mixed @ params["worker.head.W"][0] + params["worker.head.b"][0]
    return clamp(sigmoid(logits))


def manager_bce(params, feats, labels, subtask_size):
    """Mean binary cross-entropy of the window probabilities against the weak labels."""
    _, p = manager(params, feats, subtask_size)
    return float(-(labels * np.log(p) + (1.0 - labels) * np.log1p(-p)).mean())


def knapsack_optimum(values, lengths, capacity):
    """Largest total value of items whose integer lengths sum to at most capacity."""
    best = np.zeros(capacity + 1)
    for value, length in zip(values, lengths):
        if length <= capacity:
            best[length:] = np.maximum(best[length:], best[: capacity + 1 - length] + value)
    return float(best[capacity])


def shot_cost(feats, start, end):
    """Within-shot cost: sum over the shot's frames of |x - shot mean|^2."""
    seg = feats[start:end]
    return float(((seg - seg.mean(axis=0)) ** 2).sum())


def worst_boundary_shift(feats, shots):
    """Largest cost decrease from moving one change point by one frame (<= 0 if none lowers it)."""
    worst = -np.inf
    for (lo, point), (_, hi) in zip(shots[:-1], shots[1:]):
        here = shot_cost(feats, lo, point) + shot_cost(feats, point, hi)
        for moved in (point - 1, point + 1):
            if lo < moved < hi:
                there = shot_cost(feats, lo, moved) + shot_cost(feats, moved, hi)
                worst = max(worst, here - there)
    return worst


def kendall_tau(pred, truth):
    return float(stats.kendalltau(pred, truth).statistic)


def spearman_rho(pred, truth):
    return float(stats.spearmanr(pred, truth).statistic)
