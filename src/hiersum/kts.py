"""Kernel temporal segmentation: change-point detection over a dot-product Gram matrix.

The within-segment cost of [a, b) is the total squared deviation of the
segment's features from their mean, written in kernel form as
sum of diagonal entries minus the segment block sum divided by the length.
Dynamic programming finds the cheapest partition into m segments for every
m up to max_shots, and a penalized criterion picks m.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ShotPartition:
    """Half-open shot ranges tiling [0, num_frames), in temporal order."""

    num_frames: int
    change_points: tuple  # start frame of every shot except the first
    shots: tuple  # ((start, end), ...)

    @property
    def num_shots(self):
        return len(self.shots)

    @property
    def shot_lengths(self):
        return np.array([end - start for start, end in self.shots], dtype=np.int64)

    def frame_mask(self, shot_indices):
        mask = np.zeros(self.num_frames, dtype=np.uint8)
        for s in shot_indices:
            start, end = self.shots[s]
            mask[start:end] = 1
        return mask


def partition_from_change_points(change_points, num_frames):
    points = [int(p) for p in change_points]
    if points != sorted(points) or len(set(points)) != len(points):
        raise ValueError("change points must be strictly increasing")
    if any(p < 1 or p >= num_frames for p in points):
        raise ValueError(f"change points must lie in [1, {num_frames - 1}]")
    bounds = [0, *points, num_frames]
    shots = tuple((bounds[i], bounds[i + 1]) for i in range(len(bounds) - 1))
    return ShotPartition(num_frames=num_frames, change_points=tuple(points), shots=shots)


def segment_costs(features):
    """Cost matrix C[a, b] = within-segment cost of [a, b), +inf for b <= a.

    Uses cumulative sums of the Gram matrix so every cost is O(1) to read.
    """
    feats = np.asarray(features, dtype=np.float64)
    t = feats.shape[0]
    gram = feats @ feats.T
    # corner-padded 2-D prefix sums: block[a:b, a:b] in four lookups
    prefix = np.zeros((t + 1, t + 1))
    prefix[1:, 1:] = np.cumsum(np.cumsum(gram, axis=0), axis=1)
    diag_prefix = np.concatenate(([0.0], np.cumsum(np.diag(gram))))
    costs = np.full((t + 1, t + 1), np.inf)
    a = np.arange(t + 1)
    for start in range(t):
        ends = a[start + 1 :]
        block = (
            prefix[ends, ends]
            - prefix[start, ends]
            - prefix[ends, start]
            + prefix[start, start]
        )
        costs[start, start + 1 :] = (
            diag_prefix[ends] - diag_prefix[start] - block / (ends - start)
        )
    return costs


def kts_segment(features, max_shots=None, penalty_weight=1.0):
    """Partition a (T, D) feature sequence into shots.

    For each shot count m up to max_shots (default T // 10, at least 1,
    clamped to T) the DP finds the minimum total within-segment cost L_m;
    the returned partition minimizes L_m + penalty_weight * m * (log(T/m) + 1),
    with ties broken toward fewer shots.
    """
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim != 2 or feats.shape[0] < 1:
        raise ValueError("features must be a non-empty (T, D) matrix")
    if penalty_weight < 0:
        raise ValueError(f"penalty_weight must be >= 0, got {penalty_weight}")
    t = feats.shape[0]
    if max_shots is None:
        max_shots = t // 10
    max_shots = max(1, min(int(max_shots), t))

    costs = segment_costs(feats)
    # best[m][e] = min cost of splitting [0, e) into exactly m shots
    best = np.full((max_shots + 1, t + 1), np.inf)
    split_at = np.zeros((max_shots + 1, t + 1), dtype=np.int64)
    best[1] = costs[0]
    for m in range(2, max_shots + 1):
        # candidate[s, e] = best over m-1 shots on [0, s) plus one shot [s, e)
        candidate = best[m - 1][:, None] + costs
        split_at[m] = np.argmin(candidate, axis=0)
        best[m] = candidate[split_at[m], np.arange(t + 1)]

    shot_counts = np.arange(1, max_shots + 1)
    penalty = penalty_weight * shot_counts * (np.log(t / shot_counts) + 1.0)
    totals = best[1:, t] + penalty
    chosen = int(shot_counts[np.argmin(totals)])  # argmin takes the first, so fewer shots win ties

    boundaries = []
    end = t
    for m in range(chosen, 1, -1):
        end = int(split_at[m][end])
        boundaries.append(end)
    boundaries.reverse()
    return partition_from_change_points(boundaries, t)


def min_costs_per_shot_count(features, max_shots):
    """L_m for m = 1..max_shots over the whole sequence; support for verification."""
    feats = np.asarray(features, dtype=np.float64)
    t = feats.shape[0]
    max_shots = max(1, min(int(max_shots), t))
    costs = segment_costs(feats)
    best = np.full((max_shots + 1, t + 1), np.inf)
    best[1] = costs[0]
    for m in range(2, max_shots + 1):
        candidate = best[m - 1][:, None] + costs
        best[m] = np.min(candidate, axis=0)
    return best[1:, t]


def shot_scores(partition, frame_scores):
    """Per-shot arithmetic mean of the frame scores."""
    scores = np.asarray(frame_scores, dtype=np.float64)
    if scores.shape[0] != partition.num_frames:
        raise ValueError(
            f"{scores.shape[0]} frame scores for a partition of {partition.num_frames} frames"
        )
    return np.array([scores[start:end].mean() for start, end in partition.shots])
