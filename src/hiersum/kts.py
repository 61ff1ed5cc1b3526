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

from .data import ConfigurationError

# KTS inputs whose matrices would need more than this are rejected up front
_MEMORY_LIMIT = 2 * 1024**3  # bytes
# ends per row block of the DP: the fastest of 16 to 256 at T=1600, where its
# (64, T+1) scratch buffer is 820 KB; T = 200..400 change by under 0.7 ms
_DP_BLOCK_ROWS = 64


@dataclass(frozen=True)
class ShotPartition:
    """Shots tiling [0, num_frames) in temporal order; shot i is [bounds[i], bounds[i + 1])."""

    num_frames: int
    change_points: tuple  # start frame of every shot except the first

    @property
    def bounds(self):
        return np.array([0, *self.change_points, self.num_frames], dtype=np.int64)

    @property
    def shots(self):
        """((start, end), ...) as int pairs."""
        bounds = self.bounds.tolist()
        return tuple(zip(bounds[:-1], bounds[1:]))

    @property
    def num_shots(self):
        return len(self.change_points) + 1

    @property
    def shot_lengths(self):
        return np.diff(self.bounds)

    def frame_mask(self, shot_indices):
        picked = np.zeros(self.num_shots, dtype=np.uint8)
        picked[list(shot_indices)] = 1
        return np.repeat(picked, self.shot_lengths)


def partition_from_change_points(change_points, num_frames):
    points = [int(p) for p in change_points]
    if points != sorted(points) or len(set(points)) != len(points):
        raise ValueError("change points must be strictly increasing")
    if any(p < 1 or p >= num_frames for p in points):
        raise ValueError(f"change points must lie in [1, {num_frames - 1}]")
    return ShotPartition(num_frames=num_frames, change_points=tuple(points))


def segment_costs(features):
    """Cost matrix C[a, b] = within-segment cost of [a, b), +inf for b <= a.

    Uses cumulative sums of the Gram matrix so every cost is O(1) to read.
    """
    feats = np.asarray(features, dtype=np.float64)
    t = feats.shape[0]
    gram = feats @ feats.T
    diag_prefix = np.concatenate(([0.0], np.cumsum(np.diag(gram))))
    # corner-padded 2-D prefix sums: block[a:b, a:b] in four lookups
    prefix = np.zeros((t + 1, t + 1))
    np.cumsum(np.cumsum(gram, axis=0, out=gram), axis=1, out=prefix[1:, 1:])
    del gram  # at most two (T+1)^2 matrices are alive at once
    # end-major costs[b, a] starts as prefix[b, b] - prefix[a, b] - prefix[b, a] + prefix[a, a]
    costs = np.subtract(np.diag(prefix)[:, None], prefix.T, order="C")
    costs -= prefix
    costs += np.diag(prefix)[None, :]
    del prefix
    lengths = np.lib.stride_tricks.sliding_window_view(np.arange(-t, t + 1), t + 1)[:, ::-1]
    np.divide(costs, lengths, out=costs, where=lengths > 0)  # lengths[b, a] = b - a, a view
    np.subtract(diag_prefix[:, None] - diag_prefix[None, :], costs, out=costs)
    costs[lengths <= 0] = np.inf
    return costs.T  # stored end-major, the order _kts_dp reads it in


def _shot_cap(num_frames, max_shots):
    """max_shots, defaulting to T // 10, clamped to [1, T]."""
    if max_shots is None:
        max_shots = num_frames // 10
    return max(1, min(int(max_shots), num_frames))


def check_memory(num_frames, max_shots, where):
    """Raise ConfigurationError naming `where` if KTS on num_frames would pass _MEMORY_LIMIT.

    Commands call it once up front, naming their file or video; kts_segment
    calls it again as the library's own guard.

    At its peak KTS holds two (T+1)^2 float64 matrices, both inside
    segment_costs (the Gram/prefix pair, then the prefix and the cost
    matrix), plus the (max_shots+1, T+1) best and split_at tables. The DP
    itself holds the cost matrix and a (_DP_BLOCK_ROWS, T+1) buffer.
    """
    rows = num_frames + 1
    need = 8 * rows * (2 * rows + 2 * (_shot_cap(num_frames, max_shots) + 1))
    if need > _MEMORY_LIMIT:
        raise ConfigurationError(
            f"{where}: KTS over {num_frames} frames needs an estimated {need} bytes, "
            f"over the {_MEMORY_LIMIT}-byte limit"
        )


def _kts_dp(costs, max_shots):
    """best[m, e] = min cost of [0, e) in exactly m shots, split_at[m, e] its last start.

    Layer m walks its ends in blocks of _DP_BLOCK_ROWS rows; a block of ends
    [e0, e1) scans only the splits m-1 <= s < e1-1, so the +inf cells with
    s >= e are mostly skipped and the scratch buffer stays cache-sized.
    """
    t = costs.shape[0] - 1
    best = np.full((max_shots + 1, t + 1), np.inf)
    split_at = np.zeros((max_shots + 1, t + 1), dtype=np.int64)
    best[1] = costs[0]
    buffer = np.empty(_DP_BLOCK_ROWS * (t + 1))
    for m in range(2, max_shots + 1):
        for e0 in range(m, t + 1, _DP_BLOCK_ROWS):
            # m-1 shots on [0, s) plus [s, e); splits at or past e cost +inf
            e1 = min(e0 + _DP_BLOCK_ROWS, t + 1)
            rows, width = e1 - e0, e1 - m
            candidate = buffer[: rows * width].reshape(rows, width)
            np.add(costs.T[e0:e1, m - 1 : e1 - 1], best[m - 1, m - 1 : e1 - 1], out=candidate)
            first = np.argmin(candidate, axis=1)  # the first minimum: the earliest split
            split_at[m, e0:e1] = first + (m - 1)
            best[m, e0:e1] = candidate[np.arange(rows), first]
    return best, split_at


def kts_segment(features, max_shots=None, penalty_weight=1.0):
    """Partition a (T, D) feature sequence into shots.

    For each shot count m up to max_shots (default T // 10, at least 1,
    clamped to T) the DP finds the minimum total within-segment cost L_m;
    the returned partition minimizes L_m + penalty_weight * m * (log(T/m) + 1),
    with ties broken toward fewer shots. Raises ConfigurationError, before
    allocating, when the matrices would pass _MEMORY_LIMIT (check_memory).
    """
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim != 2 or feats.shape[0] < 1:
        raise ValueError("features must be a non-empty (T, D) matrix")
    if not (np.isfinite(penalty_weight) and penalty_weight >= 0):
        raise ValueError(f"penalty_weight must be finite and >= 0, got {penalty_weight}")
    t = feats.shape[0]
    check_memory(t, max_shots, "features")
    max_shots = _shot_cap(t, max_shots)
    best, split_at = _kts_dp(segment_costs(feats), max_shots)

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
    best, _ = _kts_dp(segment_costs(feats), _shot_cap(t, max_shots))
    return best[1:, t]

