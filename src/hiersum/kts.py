"""Kernel temporal segmentation: change-point detection over a dot-product Gram matrix.

The within-segment cost of [a, b) is the total squared deviation of the
segment's features from their mean, written in kernel form as
sum of diagonal entries minus the segment block sum divided by the length.
Every cost takes four lookups in one corner-padded (T+1)^2 prefix table of
the Gram matrix and two in the prefix of its diagonal. Dynamic programming
finds the cheapest partition into m segments for every m up to max_shots,
and a penalized criterion picks m. The DP walks the ends in blocks: it
builds one block's cost rows from the prefix table (segment_costs) and runs
every shot count on that block before the next, so no (T+1)^2 cost matrix
is held.

The DP also drops splits that can never again be a first minimum. Splitting
a segment never raises its within-segment cost, C(s, e) >= C(s, t) + C(t, e),
so once best[m-1, s] + C(s, t) exceeds best[m-1, t] + margin, split t beats
split s at every end after t, and s leaves layer m's scan for good (the
inequality pruning of PELT and SNIP). The margin is a forward error bound on
the computed costs, so a split that ties, or nearly ties, is never dropped
and the outputs are bit for bit those of the full scan. The dropped splits
are kept as a prefix, one first live split per layer, so every scan stays a
contiguous slice; in the worst case nothing is dropped and the DP scans
what the full scan does. (Monge/SMAWK speed-ups do not apply: these costs
break the quadrangle inequality.)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import ConfigurationError

# KTS inputs, Worker steps, one fold's parameter state and one synthetic video
# whose arrays would need more than this are rejected up front (check_bytes)
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


def segment_costs(prefix, diag_prefix, e0, e1, out):
    """Write end-major costs[e, a] = cost of [a, e) into out, for e0 <= e < e1 and a < e1.

    Cells with e <= a are +inf. Every cell takes the same steps in the same
    order whatever the block, so rows built one block at a time, as the DP
    builds them, hold the same bits as the transposed (T+1)^2 cost matrix
    that e0 = 0, e1 = T+1 gives.
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


def _shot_cap(num_frames, max_shots):
    """max_shots, defaulting to T // 10, clamped to [1, T]."""
    if max_shots is None:
        max_shots = num_frames // 10
    return max(1, min(int(max_shots), num_frames))


def kts_bytes(num_frames, feature_dim, max_shots):
    """Bytes KTS on (T, D) features holds at most, beyond the caller's features.

    It holds the 8·T·D-byte float64 widening of the features while it builds
    the (T+1)^2 float64 prefix table, then the (max_shots+1, T+1) best and
    split_at tables and the DP's scratch:
    - the cost rows of one block of _DP_BLOCK_ROWS ends, the candidate buffer
      (which the pruning step reuses) and one block-sized float temporary
      while the cost rows are built
    - two block-sized boolean temporaries, the cost rows' masks or the
      pruning step's
    - five (T+1) vectors: diag_prefix, the two-sided lengths range, the
      layers' first live splits and the pruning step's split indices
    - numpy's iteration buffers for strided operands, up to three of
      np.getbufsize() float64 elements
    The estimate adds them all, so it holds whether or not the widening is
    freed before the tables exist.
    """
    rows = num_frames + 1
    cap = _shot_cap(num_frames, max_shots)
    return (
        8 * num_frames * feature_dim
        + 8 * rows * (rows + 2 * (cap + 1) + 3 * _DP_BLOCK_ROWS + 5)
        + 2 * rows * _DP_BLOCK_ROWS
        + 3 * 8 * np.getbufsize()
    )


def check_bytes(need, what):
    """Raise ConfigurationError, naming `what`, if it needs more than MEMORY_LIMIT bytes."""
    if need > MEMORY_LIMIT:
        raise ConfigurationError(
            f"{what} needs an estimated {need} bytes, over the {MEMORY_LIMIT}-byte limit"
        )


def check_memory(num_frames, feature_dim, max_shots, where):
    """Raise ConfigurationError naming `where` if KTS on (T, D) features would pass MEMORY_LIMIT.

    Commands call it once up front, naming their file or video; kts_segment
    calls it again, through _dp_tables, as the library's own guard.
    The estimate is kts_bytes.
    """
    need = kts_bytes(num_frames, feature_dim, max_shots)
    check_bytes(need, f"{where}: KTS over {num_frames} frames")


def _prune_margin(diag_prefix, feature_dim):
    """Forward error bound on any difference of two DP candidates that the pruning rule compares.

    Every computed cost is within about 4(D+2T)·u·T·sum|x_i|^2 of its exact
    value, u = eps/2 being the unit roundoff: the Gram entries carry a D-term
    dot product's rounding, the prefix sums up to 2T additions, a cost four
    prefix entries, and by Cauchy-Schwarz sum|gram| <= T·sum|x_i|^2, which
    is diag_prefix[T]. The rule compares sums built from three costs, so
    16(D+2T)·eps·T·diag_prefix[T] covers them with room. The second term is an absolute floor: a product that underflows
    loses up to one smallest normal number whatever its relative error, so
    the bound also holds for features whose products are subnormal. Where
    the bound is as large as the cost differences, nothing is pruned.
    """
    t = diag_prefix.shape[0] - 1
    info = np.finfo(np.float64)
    return 16.0 * (feature_dim + 2 * t) * t * (
        float(info.eps) * float(diag_prefix[t]) + t * float(info.tiny)
    )


def _advance_starts(starts, prev_best, costs_to_t, t, margin, scratch):
    """Move each layer's first live split past the splits that split t beats at every later end.

    Row i of prev_best is best[m-1] for the layer m whose first live split is
    starts[i], and costs_to_t[s] is the cost of [s, t). A split s < t is
    dominated when prev_best[i, s] + C(s, t) > prev_best[i, t] + margin: for
    every end e > t, C(s, e) >= C(s, t) + C(t, e), since splitting a segment
    never raises its within-segment cost, so s costs more than t at e by more
    than any rounding of the computed costs (_prune_margin). A split that
    ties, or is within the margin, stays live, which keeps the earliest-split
    tie-break. starts moves in place to the first live split at or after it,
    or to t when every split before t is dominated; the dominated splits
    past a live one stay in the scan. The sums go through the flat float
    scratch, a few layers at a time.
    """
    lo = int(starts.min())
    width = t - lo
    step = scratch.shape[0] // width  # the scratch holds at least one row
    splits = np.arange(lo, t)
    for i0 in range(0, starts.shape[0], step):
        i1 = min(i0 + step, starts.shape[0])
        sums = scratch[: (i1 - i0) * width].reshape(i1 - i0, width)
        np.add(prev_best[i0:i1, lo:t], costs_to_t[lo:t], out=sums)
        dead = sums > (prev_best[i0:i1, t] + margin)[:, None]
        dead |= splits < starts[i0:i1, None]  # dropped before
        first = np.argmin(dead, axis=1)  # the first live split
        starts[i0:i1] = np.where(dead[np.arange(i1 - i0), first], t, lo + first)


def _kts_dp(prefix, diag_prefix, max_shots, margin):
    """best[m, e] = min cost of [0, e) in exactly m shots, split_at[m, e] its last start.

    The outer loop walks the ends in blocks of _DP_BLOCK_ROWS: it builds the
    block's end-major cost rows from the prefix table, sets best[1] for it,
    then runs every shot count m on the block before moving on. Layer m of a
    block of ends [e0, e1) needs best[m-1] only before e1-1, which earlier
    blocks and layer m-1 of this one have filled. It scans the splits
    start[m] <= s < e1-1, so the +inf cells with s >= e are mostly skipped,
    and the cost rows and the candidate buffer stay cache-sized.

    start[m], layer m's first live split, begins at m-1. After each block,
    _advance_starts moves it past the splits that the block's last end beats
    at every later end by more than margin, the rounding bound of
    _prune_margin; a dropped split could never be the first minimum again, so
    best and split_at are bit for bit those of the full scan. On
    two-cluster features at T=1600 with 160 shot counts this scans about a
    third of the cells. Where no split is dominated (a margin as large as the
    cost differences, or features whose every split stays competitive) the
    starts stay put and the DP scans what the full scan does.
    """
    t = prefix.shape[0] - 1
    best = np.full((max_shots + 1, t + 1), np.inf)
    split_at = np.zeros((max_shots + 1, t + 1), dtype=np.int64)
    start = np.maximum(np.arange(-1, max_shots), 0)
    block = np.empty(_DP_BLOCK_ROWS * (t + 1))
    buffer = np.empty(_DP_BLOCK_ROWS * (t + 1))
    row_index = np.arange(_DP_BLOCK_ROWS)
    for e0 in range(0, t + 1, _DP_BLOCK_ROWS):
        e1 = min(e0 + _DP_BLOCK_ROWS, t + 1)
        costs = block[: (e1 - e0) * e1].reshape(e1 - e0, e1)
        segment_costs(prefix, diag_prefix, e0, e1, out=costs)
        best[1, e0:e1] = costs[:, 0]
        top = min(max_shots, e1 - 1)
        for m in range(2, top + 1):
            # ends below m hold fewer than m frames; m-1 shots on [0, s) plus [s, e),
            # and splits at or past e cost +inf
            lo, s0 = max(e0, m), int(start[m])
            rows, width = e1 - lo, e1 - 1 - s0
            candidate = buffer[: rows * width].reshape(rows, width)
            np.add(costs[lo - e0 :, s0 : e1 - 1], best[m - 1, s0 : e1 - 1], out=candidate)
            first = candidate.argmin(axis=1)  # the first minimum: the earliest split
            best[m, lo:e1] = candidate[row_index[:rows], first]
            first += s0
            split_at[m, lo:e1] = first
        if top >= 2 and e1 <= t:
            _advance_starts(start[2 : top + 1], best[1:top], costs[-1], e1 - 1, margin, buffer)
    return best, split_at


def _dp_tables(features, max_shots):
    """best and split_at of _kts_dp over (T, D) features, checked by check_memory first."""
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim != 2 or feats.shape[0] < 1:
        raise ValueError("features must be a non-empty (T, D) matrix")
    t, d = feats.shape
    check_memory(t, d, max_shots, "features")
    prefix, diag_prefix = _prefix_tables(feats)
    del feats  # a float64 copy of float32 features is freed before the DP's tables exist
    margin = _prune_margin(diag_prefix, d)
    return _kts_dp(prefix, diag_prefix, _shot_cap(t, max_shots), margin)


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
