"""Turn frame scores into a keyshot summary: shot means, 0/1 knapsack, frame mask."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import block_means
from .kts import kts_segment

DEFAULT_BUDGET_FRACTION = 0.15


@dataclass(frozen=True)
class Summary:
    selected_shots: tuple
    frame_mask: np.ndarray  # (T,) uint8
    budget_fraction: float


def knapsack_select(values, lengths, capacity):
    """Exact 0/1 knapsack: maximize total value with total length <= capacity.

    Returns the selected indices in ascending order; among optimal sets the
    lexicographically smallest index sequence wins.
    """
    values = np.asarray(values, dtype=np.float64)
    lengths = np.asarray(lengths, dtype=np.int64)
    if values.shape != lengths.shape or values.ndim != 1:
        raise ValueError("values and lengths must be 1-D and the same length")
    if np.any(lengths <= 0):
        raise ValueError("lengths must be positive integers")
    capacity = int(capacity)
    if capacity < 0:
        raise ValueError(f"capacity must be >= 0, got {capacity}")
    count = values.shape[0]
    # best[i][w] = max value over items i.. with capacity w
    best = np.zeros((count + 1, capacity + 1))
    for i in range(count - 1, -1, -1):
        best[i] = best[i + 1]
        length = lengths[i]
        if length <= capacity:
            take = values[i] + best[i + 1, : capacity - length + 1]
            best[i, length:] = np.maximum(best[i + 1, length:], take)

    # Lexicographically smallest maximizer: once the remaining optimum is 0
    # the empty completion wins; otherwise taking item i is preferred whenever
    # it still reaches the optimum, since any set without i starts later.
    selected = []
    w = capacity
    for i in range(count):
        if best[i, w] == 0.0:
            break
        if lengths[i] <= w and values[i] + best[i + 1, w - lengths[i]] == best[i, w]:
            selected.append(i)
            w -= int(lengths[i])
    return selected


def assemble_summary(partition, frame_scores, budget_fraction=DEFAULT_BUDGET_FRACTION):
    """Pick shots by knapsack under a floor(budget_fraction * T) frame budget."""
    if not 0.0 < budget_fraction <= 1.0:
        raise ValueError(f"budget_fraction must be in (0, 1], got {budget_fraction}")
    # the epsilon keeps floor() honest when the float product sits one ulp
    # below an exact integer
    capacity = math.floor(budget_fraction * partition.num_frames + 1e-9)
    values = block_means(frame_scores, partition.bounds)
    chosen = knapsack_select(values, partition.shot_lengths, capacity)
    return Summary(
        selected_shots=tuple(chosen),
        frame_mask=partition.frame_mask(chosen),
        budget_fraction=budget_fraction,
    )


def make_summary(
    features,
    frame_scores,
    budget_fraction=DEFAULT_BUDGET_FRACTION,
    max_shots=None,
    penalty_weight=1.0,
):
    """Full post-processing pipeline: segment, score shots, select under budget."""
    partition = kts_segment(features, max_shots=max_shots, penalty_weight=penalty_weight)
    return assemble_summary(partition, frame_scores, budget_fraction), partition


def summary_to_json(video_id, summary):
    return {
        "video_id": video_id,
        "budget_fraction": summary.budget_fraction,
        "selected_shots": [int(s) for s in summary.selected_shots],
        "frame_mask": [int(b) for b in summary.frame_mask],
    }
