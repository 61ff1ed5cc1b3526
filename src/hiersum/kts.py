"""Kernel temporal segmentation: change-point detection over a dot-product Gram matrix.

The within-segment cost of [a, b) is the total squared deviation of the
segment's features from their mean, written in kernel form as
sum of diagonal entries minus the segment block sum divided by the length.
Every cost takes four lookups in one corner-padded (T+1)^2 prefix table of
the Gram matrix and two in the prefix of its diagonal. Dynamic programming
finds the cheapest partition into m segments for every m up to max_shots,
and a penalized criterion picks m. The DP walks the ends in blocks: it
builds one block's cost rows from the prefix table and runs every shot
count on that block before the next, so no (T+1)^2 cost matrix is held.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import ConfigurationError

# KTS inputs, and Worker steps (training.check_worker_memory), whose matrices
# would need more than this are rejected up front
MEMORY_LIMIT = 2 * 1024**3  # bytes
# ends per block of the DP: it sizes both the block's cost rows and the candidate
# buffer, (64, T+1) each, 2 x 820 KB at T=1600, inside a 2 MB L2 cache
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


def _prefix_tables(feats):
    """Corner-padded 2-D prefix sums of the Gram matrix of (T, D) float64 features.

    Returns (prefix, diag_prefix): prefix[a, b] sums gram[:a, :b], so the block
    gram[a:b, a:b] takes four lookups, and diag_prefix[b] sums the first b
    diagonal entries. The Gram matrix is written into prefix[1:, 1:] and summed
    there, so this is the only (T+1)^2 matrix KTS holds. Raises ValueError when
    a total is not finite: a NaN or inf feature reaches both totals, and so
    does a Gram sum that overflows.
    """
    t = feats.shape[0]
    prefix = np.zeros((t + 1, t + 1))
    gram = prefix[1:, 1:]
    diag_prefix = np.zeros(t + 1)
    with np.errstate(over="ignore", invalid="ignore"):  # reported below as one ValueError
        np.matmul(feats, feats.T, out=gram)
        np.cumsum(np.diagonal(gram), out=diag_prefix[1:])
        np.cumsum(gram, axis=0, out=gram)
        np.cumsum(gram, axis=1, out=gram)
    if not (np.isfinite(prefix[t, t]) and np.isfinite(diag_prefix[t])):
        raise ValueError("features contain non-finite values or their Gram sums overflow")
    return prefix, diag_prefix


def _cost_rows(prefix, diag_prefix, e0, e1, out):
    """Write end-major costs[e, a] = cost of [a, e) into out, for e0 <= e < e1 and a < e1.

    Cells with e <= a are +inf. Every cell takes the same steps in the same
    order whatever the block, so segment_costs and the DP read the same bits.
    """
    t = prefix.shape[0] - 1
    corners = np.diagonal(prefix)
    # the block sum of [a, e): prefix[e, e] - prefix[a, e] - prefix[e, a] + prefix[a, a]
    np.subtract(corners[e0:e1, None], prefix[:e1, e0:e1].T, out=out)
    out -= prefix[e0:e1, :e1]
    out += corners[None, :e1]
    # lengths[e, a] = e - a, a view
    lengths = np.lib.stride_tricks.sliding_window_view(np.arange(-t, t + 1), t + 1)[e0:e1, ::-1]
    lengths = lengths[:, :e1]
    np.divide(out, lengths, out=out, where=lengths > 0)
    np.subtract(diag_prefix[e0:e1, None] - diag_prefix[None, :e1], out, out=out)
    out[lengths <= 0] = np.inf
    return out


def segment_costs(features):
    """Cost matrix C[a, b] = within-segment cost of [a, b), +inf for b <= a.

    The full (T+1)^2 matrix, for the tests' oracles and the benchmark's
    tracer; it is off the program path, since kts_segment builds the same
    rows block by block inside the DP and never holds the whole matrix.
    """
    feats = np.asarray(features, dtype=np.float64)
    t = feats.shape[0]
    prefix, diag_prefix = _prefix_tables(feats)
    return _cost_rows(prefix, diag_prefix, 0, t + 1, np.empty((t + 1, t + 1))).T


def _shot_cap(num_frames, max_shots):
    """max_shots, defaulting to T // 10, clamped to [1, T]."""
    if max_shots is None:
        max_shots = num_frames // 10
    return max(1, min(int(max_shots), num_frames))


def check_memory(num_frames, max_shots, where):
    """Raise ConfigurationError naming `where` if KTS on num_frames would pass MEMORY_LIMIT.

    Commands call it once up front, naming their file or video; kts_segment
    and min_costs_per_shot_count call it again as the library's own guard.

    At its peak KTS holds one (T+1)^2 float64 matrix, the prefix table, plus
    the (max_shots+1, T+1) best and split_at tables and the DP's block
    scratch: the cost rows of one block of _DP_BLOCK_ROWS ends, the candidate
    buffer and one block-sized temporary while the cost rows are built.
    """
    rows = num_frames + 1
    cap = _shot_cap(num_frames, max_shots)
    need = 8 * rows * (rows + 2 * (cap + 1) + 3 * _DP_BLOCK_ROWS)
    if need > MEMORY_LIMIT:
        raise ConfigurationError(
            f"{where}: KTS over {num_frames} frames needs an estimated {need} bytes, "
            f"over the {MEMORY_LIMIT}-byte limit"
        )


def _kts_dp(prefix, diag_prefix, max_shots):
    """best[m, e] = min cost of [0, e) in exactly m shots, split_at[m, e] its last start.

    The outer loop walks the ends in blocks of _DP_BLOCK_ROWS: it builds the
    block's end-major cost rows from the prefix table, sets best[1] for it,
    then runs every shot count m on the block before moving on. Layer m of a
    block of ends [e0, e1) needs best[m-1] only before e1-1, which earlier
    blocks and layer m-1 of this one have filled. It scans the splits
    m-1 <= s < e1-1, so the +inf cells with s >= e are mostly skipped, and the
    cost rows and the candidate buffer stay cache-sized.
    """
    t = prefix.shape[0] - 1
    best = np.full((max_shots + 1, t + 1), np.inf)
    split_at = np.zeros((max_shots + 1, t + 1), dtype=np.int64)
    block = np.empty(_DP_BLOCK_ROWS * (t + 1))
    buffer = np.empty(_DP_BLOCK_ROWS * (t + 1))
    for e0 in range(0, t + 1, _DP_BLOCK_ROWS):
        e1 = min(e0 + _DP_BLOCK_ROWS, t + 1)
        costs = block[: (e1 - e0) * e1].reshape(e1 - e0, e1)
        _cost_rows(prefix, diag_prefix, e0, e1, out=costs)
        best[1, e0:e1] = costs[:, 0]
        for m in range(2, min(max_shots, e1 - 1) + 1):
            # ends below m hold fewer than m frames; m-1 shots on [0, s) plus [s, e),
            # and splits at or past e cost +inf
            lo = max(e0, m)
            rows, width = e1 - lo, e1 - m
            candidate = buffer[: rows * width].reshape(rows, width)
            np.add(costs[lo - e0 :, m - 1 : e1 - 1], best[m - 1, m - 1 : e1 - 1], out=candidate)
            first = np.argmin(candidate, axis=1)  # the first minimum: the earliest split
            split_at[m, lo:e1] = first + (m - 1)
            best[m, lo:e1] = candidate[np.arange(rows), first]
    return best, split_at


def _dp_tables(features, max_shots):
    """best and split_at of _kts_dp over (T, D) features, checked by check_memory first."""
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim != 2 or feats.shape[0] < 1:
        raise ValueError("features must be a non-empty (T, D) matrix")
    t = feats.shape[0]
    check_memory(t, max_shots, "features")
    prefix, diag_prefix = _prefix_tables(feats)
    del feats  # a float64 copy of float32 features is freed before the DP's tables exist
    return _kts_dp(prefix, diag_prefix, _shot_cap(t, max_shots))


def kts_segment(features, max_shots=None, penalty_weight=1.0):
    """Partition a (T, D) feature sequence into shots.

    For each shot count m up to max_shots (default T // 10, at least 1,
    clamped to T) the DP finds the minimum total within-segment cost L_m;
    the returned partition minimizes L_m + penalty_weight * m * (log(T/m) + 1),
    with ties broken toward fewer shots. Raises ConfigurationError, before
    allocating, when the matrices would pass MEMORY_LIMIT (check_memory), and
    ValueError on non-finite features.
    """
    if not (np.isfinite(penalty_weight) and penalty_weight >= 0):
        raise ValueError(f"penalty_weight must be finite and >= 0, got {penalty_weight}")
    best, split_at = _dp_tables(features, max_shots)
    max_shots, t = best.shape[0] - 1, best.shape[1] - 1

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
    best, _ = _dp_tables(features, max_shots)
    return best[1:, -1]
