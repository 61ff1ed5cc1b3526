"""Reference implementations the tests compare the program with.

Each is the plain way to compute what a fast path computes: loops, full
enumeration or the whole matrix, with no code shared with hiersum. The one
exception, cost_matrix, gathers the program's own KTS cost rows, so that a
reference DP over them reads the bits the program's DP reads.
"""

import itertools
import math

import numpy as np

from hiersum.kts import _prefix_tables, segment_costs


# --- policy ------------------------------------------------------------------------


def bernoulli_log_prob(scores, actions):
    """log P(actions) under independent Bernoulli(scores) draws, one per frame."""
    actions = np.asarray(actions, dtype=np.float64)
    return float(np.sum(actions * np.log(scores) + (1.0 - actions) * np.log1p(-scores)))


def replay_lstm(store, prefix, xs):
    """Hidden states of the LSTM under prefix, one step at a time straight from the stored matrices."""
    wx = store[f"{prefix}.Wx"]
    wh = store[f"{prefix}.Wh"]
    b = store[f"{prefix}.b"]
    hdim = wh.shape[0]
    h = np.zeros(hdim)
    c = np.zeros(hdim)
    out = []
    for x in xs:
        z = x @ wx + h @ wh + b
        gi = 1.0 / (1.0 + np.exp(-z[:hdim]))
        gf = 1.0 / (1.0 + np.exp(-z[hdim : 2 * hdim]))
        go = 1.0 / (1.0 + np.exp(-z[2 * hdim : 3 * hdim]))
        gg = np.tanh(z[3 * hdim :])
        c = gf * c + gi * gg
        h = go * np.tanh(c)
        out.append(h.copy())
    return np.array(out)


# --- rewards -----------------------------------------------------------------------


def loop_dissimilarity(x, y):
    dot = sum(a * b for a, b in zip(x, y))
    nx = math.sqrt(sum(a * a for a in x))
    ny = math.sqrt(sum(b * b for b in y))
    return 1.0 - dot / (nx * ny)


def loop_diversity(feats, selected):
    if len(selected) < 2:
        return 0.0
    pairs = list(itertools.combinations(selected, 2))
    return sum(loop_dissimilarity(feats[i], feats[j]) for i, j in pairs) / len(pairs)


def loop_representativeness(feats, selected):
    def dist(i, j):
        return math.sqrt(sum((a - b) ** 2 for a, b in zip(feats[i], feats[j])))

    t = len(feats)
    if len(selected) == 0:
        worst = max(dist(i, j) for i in range(t) for j in range(t))
        return math.exp(-worst)
    mean_min = sum(min(dist(i, j) for j in selected) for i in range(t)) / t
    return math.exp(-mean_min)


def action_rows(t, selections):
    """(E, t) 0/1 uint8 actions, row e selecting the frames selections[e]."""
    actions = np.zeros((len(selections), t), dtype=np.uint8)
    for row, selected in zip(actions, selections):
        row[list(selected)] = 1
    return actions


def all_selections(t):
    """action_rows of every subset of t frames, and the subsets as index tuples."""
    subsets = [s for k in range(t + 1) for s in itertools.combinations(range(t), k)]
    return action_rows(t, subsets), subsets


# --- knapsack ------------------------------------------------------------------------


def brute_knapsack(values, lengths, capacity):
    """All feasible subsets by DFS from the highest index down, so including
    item i computes values[i] + suffix total in the DP's association order.
    Returns (best value, lexicographically smallest best set, #best sets)."""
    best_val = -1.0
    best_set = ()
    best_count = 0
    path = []

    def go(i, value, weight):
        nonlocal best_val, best_set, best_count
        if i < 0:
            if value > best_val:
                best_val, best_set, best_count = value, tuple(reversed(path)), 1
            elif value == best_val:
                best_count += 1
                cand = tuple(reversed(path))
                if cand < best_set:
                    best_set = cand
            return
        go(i - 1, value, weight)
        if weight + lengths[i] <= capacity:
            path.append(i)
            go(i - 1, values[i] + value, weight + lengths[i])
            path.pop()

    go(len(values) - 1, 0.0, 0)
    return best_val, best_set, best_count


# --- segmentation --------------------------------------------------------------------


def direct_segment_cost(feats, start, end):
    """Within-segment cost computed the obvious way, no Gram shortcuts."""
    seg = feats[start:end]
    mean = seg.mean(axis=0)
    return float(((seg - mean) ** 2).sum())


def cost_matrix(features):
    """The (T+1)^2 matrix C[a, b] = within-segment cost of [a, b), +inf for b <= a.

    kts.segment_costs of every end at once, from kts's own prefix tables.
    """
    feats = np.asarray(features, dtype=np.float64)
    t = feats.shape[0]
    prefix, diag_prefix = _prefix_tables(feats)
    return segment_costs(prefix, diag_prefix, 0, t + 1, np.empty((t + 1, t + 1))).T


def enumerate_min_costs(feats, max_shots, cost_of):
    """Minimum m-shot cost over all boundary placements, m = 1..max_shots."""
    t = len(feats)
    out = []
    for m in range(1, max_shots + 1):
        best = math.inf
        for cuts in itertools.combinations(range(1, t), m - 1):
            bounds = (0, *cuts, t)
            total = 0.0
            for a, b in zip(bounds, bounds[1:]):
                total = total + cost_of(a, b)
            best = min(best, total)
        out.append(best)
    return np.array(out)


def full_matrix_kts(costs, max_shots, penalty_weight):
    """Reference DP over the whole (T+1)^2 candidate matrix for every shot count.

    Returns (L_m for m = 1..max_shots, change points of the chosen partition).
    """
    t = costs.shape[0] - 1
    best = np.full((max_shots + 1, t + 1), np.inf)
    split_at = np.zeros((max_shots + 1, t + 1), dtype=np.int64)
    best[1] = costs[0]
    for m in range(2, max_shots + 1):
        candidate = best[m - 1][:, None] + costs
        split_at[m] = np.argmin(candidate, axis=0)
        best[m] = candidate[split_at[m], np.arange(t + 1)]
    counts = np.arange(1, max_shots + 1)
    penalty = penalty_weight * counts * (np.log(t / counts) + 1.0)
    chosen = int(counts[np.argmin(best[1:, t] + penalty)])
    boundaries = []
    end = t
    for m in range(chosen, 1, -1):
        end = int(split_at[m][end])
        boundaries.append(end)
    return best[1:, t], tuple(reversed(boundaries))
