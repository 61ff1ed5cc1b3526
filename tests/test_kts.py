import itertools
import math
import tracemalloc

import numpy as np
import pytest

from hiersum.data import ConfigurationError, block_means
from hiersum.kts import (
    _DP_BLOCK_ROWS,
    ShotPartition,
    _kts_dp,
    kts_segment,
    min_costs_per_shot_count,
    partition_from_change_points,
    segment_costs,
)
from hiersum.seeding import substream


def direct_segment_cost(feats, start, end):
    """Within-segment cost computed the obvious way, no Gram shortcuts."""
    seg = feats[start:end]
    mean = seg.mean(axis=0)
    return float(((seg - mean) ** 2).sum())


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


# --- partitions ----------------------------------------------------------------


def test_partition_from_change_points():
    part = partition_from_change_points([3, 7], 10)
    assert part.shots == ((0, 3), (3, 7), (7, 10))
    assert part.num_shots == 3
    assert part.shot_lengths.tolist() == [3, 4, 3]
    assert part.frame_mask([1]).tolist() == [0, 0, 0, 1, 1, 1, 1, 0, 0, 0]
    assert part.frame_mask([0, 2]).sum() == 6
    assert partition_from_change_points([], 4).shots == ((0, 4),)


def test_partition_validation():
    with pytest.raises(ValueError, match="increasing"):
        partition_from_change_points([5, 3], 10)
    with pytest.raises(ValueError, match="increasing"):
        partition_from_change_points([4, 4], 10)
    for bad in ([0], [10], [-1]):
        with pytest.raises(ValueError, match=r"\[1, 9\]"):
            partition_from_change_points(bad, 10)


# --- segment costs ---------------------------------------------------------------


def test_segment_costs_match_direct_computation():
    rng = substream(31, "kts")
    for _ in range(10):
        t = int(rng.integers(2, 13))
        feats = rng.normal(size=(t, int(rng.integers(2, 5))))
        costs = segment_costs(feats)
        for a in range(t):
            for b in range(a + 1, t + 1):
                want = direct_segment_cost(feats, a, b)
                scale = max(abs(want), 1.0)
                assert abs(costs[a, b] - want) <= 1e-10 * scale
        assert np.all(np.isinf(costs[np.tril_indices(t + 1)]))


def test_single_frame_segments_cost_near_zero():
    # prefix-sum cancellation leaves rounding residue, so near zero, not exactly
    feats = substream(32, "kts").normal(size=(6, 3))
    costs = segment_costs(feats)
    for a in range(6):
        assert abs(costs[a, a + 1]) < 1e-12


def test_two_frame_segment_closed_form():
    x1 = np.array([1.0, 2.0])
    x2 = np.array([4.0, -2.0])
    costs = segment_costs(np.stack([x1, x2]))
    want = float(((x1 - x2) ** 2).sum()) / 2.0
    assert abs(costs[0, 2] - want) < 1e-12


# --- dynamic program vs exhaustive search ---------------------------------------


def test_dp_matches_enumeration_shared_costs_bitwise():
    rng = substream(33, "kts")
    for _ in range(12):
        t = int(rng.integers(4, 13))
        feats = rng.normal(size=(t, int(rng.integers(2, 5))))
        max_shots = min(4, t)
        costs = segment_costs(feats)
        brute = enumerate_min_costs(feats, max_shots, lambda a, b: costs[a, b])
        dp = min_costs_per_shot_count(feats, max_shots)
        # same cost table, same left-to-right accumulation: identical floats
        assert np.array_equal(dp, brute)


def test_dp_matches_enumeration_independent_costs():
    rng = substream(34, "kts")
    for _ in range(8):
        t = int(rng.integers(4, 13))
        feats = rng.normal(size=(t, 3))
        max_shots = min(4, t)
        brute = enumerate_min_costs(
            feats, max_shots, lambda a, b: direct_segment_cost(feats, a, b)
        )
        dp = min_costs_per_shot_count(feats, max_shots)
        assert np.allclose(dp, brute, rtol=1e-10, atol=1e-10)


def test_chosen_partition_optimal_under_penalty():
    rng = substream(35, "kts")
    for trial in range(8):
        t = int(rng.integers(5, 13))
        feats = rng.normal(size=(t, 3))
        max_shots = min(4, t)
        weight = [0.0, 0.5, 1.0, 2.0][trial % 4]
        part = kts_segment(feats, max_shots=max_shots, penalty_weight=weight)
        costs = segment_costs(feats)
        brute = enumerate_min_costs(feats, max_shots, lambda a, b: costs[a, b])
        counts = np.arange(1, max_shots + 1)
        penalty = weight * counts * (np.log(t / counts) + 1.0)
        expected_m = int(counts[np.argmin(brute + penalty)])
        assert part.num_shots == expected_m
        # the returned boundaries achieve the optimal cost for that shot count
        total = 0.0
        for a, b in part.shots:
            total = total + costs[a, b]
        assert total == brute[expected_m - 1]


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


def test_dp_matches_full_matrix_reference_at_real_sizes():
    rng = substream(40, "kts")
    cases = []
    for t in (20, 57, 128, 200, 300):
        cases.append(rng.normal(size=(t, 8)))
        # block-constant features: many partitions tie at zero cost
        blocks = rng.normal(size=(t // 15 + 1, 4))
        cases.append(np.repeat(blocks, 15, axis=0)[:t])
    for feats in cases:
        t = len(feats)
        costs = segment_costs(feats)
        for max_shots in sorted({t // 10, min(30, t)}):
            want_costs, _ = full_matrix_kts(costs, max_shots, 0.0)
            assert np.array_equal(min_costs_per_shot_count(feats, max_shots), want_costs)
            for weight in (0.0, 1.0, 5.0):
                _, want_points = full_matrix_kts(costs, max_shots, weight)
                part = kts_segment(feats, max_shots=max_shots, penalty_weight=weight)
                assert part.change_points == want_points, (t, max_shots, weight)


@pytest.mark.parametrize(
    "t", [_DP_BLOCK_ROWS - 1, _DP_BLOCK_ROWS, _DP_BLOCK_ROWS + 1, 2 * _DP_BLOCK_ROWS + 1]
)
def test_blocked_dp_matches_full_matrix_reference_at_block_edges(t):
    rng = substream(41, "kts", t)
    cases = [rng.normal(size=(t, 8))]
    # block-constant features tie many splits at zero cost, on both sides of block edges
    for run in (10, _DP_BLOCK_ROWS // 2 + 3):
        cases.append(np.repeat(rng.normal(size=(t // run + 1, 4)), run, axis=0)[:t])
    for feats in cases:
        costs = segment_costs(feats)
        # max_shots = t: the last layers are narrower than one block
        for max_shots in (t // 10, t):
            want_costs, _ = full_matrix_kts(costs, max_shots, 0.0)
            assert np.array_equal(min_costs_per_shot_count(feats, max_shots), want_costs)
            for weight in (0.0, 1.0):
                _, want_points = full_matrix_kts(costs, max_shots, weight)
                part = kts_segment(feats, max_shots=max_shots, penalty_weight=weight)
                assert part.change_points == want_points, (t, max_shots, weight)


def test_kts_dp_scratch_below_one_cost_matrix():
    t = 1000
    costs = segment_costs(substream(42, "kts").normal(size=(t, 8)))
    tracemalloc.start()
    try:
        _kts_dp(costs, t // 10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * (t + 1) ** 2


def test_two_block_sequence_boundary_exact():
    block_a = np.tile(np.array([5.0, 0.0, 0.0]), (10, 1))
    block_b = np.tile(np.array([0.0, 5.0, 0.0]), (10, 1))
    part = kts_segment(np.vstack([block_a, block_b]))
    assert part.num_shots == 2
    assert part.change_points == (10,)
    assert part.shots == ((0, 10), (10, 20))


def test_constant_features_one_shot():
    feats = np.ones((30, 4))
    part = kts_segment(feats, max_shots=5)
    assert part.num_shots == 1
    # every shot count costs zero; zero penalty must still pick the fewest
    part0 = kts_segment(feats, max_shots=5, penalty_weight=0.0)
    assert part0.num_shots == 1


def test_min_costs_non_increasing():
    feats = substream(36, "kts").normal(size=(12, 3))
    dp = min_costs_per_shot_count(feats, 6)
    assert np.all(np.diff(dp) <= 1e-12)


def test_frame_order_changes_costs():
    block_a = np.tile(np.array([5.0, 0.0]), (6, 1))
    block_b = np.tile(np.array([0.0, 5.0]), (6, 1))
    ordered = np.vstack([block_a, block_b])
    interleaved = ordered[[0, 6, 1, 7, 2, 8, 3, 9, 4, 10, 5, 11]]
    assert min_costs_per_shot_count(ordered, 2)[1] < 1e-9
    assert min_costs_per_shot_count(interleaved, 2)[1] > 1.0


# --- clamping -------------------------------------------------------------------


def test_max_shots_clamped_to_frames():
    feats = substream(37, "kts").normal(size=(3, 2))
    part = kts_segment(feats, max_shots=10, penalty_weight=0.0)
    assert part.num_shots == 3  # one shot per frame is free, cap is T


def test_default_max_shots_small_video():
    feats = substream(38, "kts").normal(size=(5, 2))
    assert kts_segment(feats).num_shots == 1  # 5 // 10 clamps up to 1


def test_kts_input_validation():
    with pytest.raises(ValueError, match="non-empty"):
        kts_segment(np.zeros((0, 3)))
    with pytest.raises(ValueError, match="penalty_weight"):
        kts_segment(np.ones((4, 2)), penalty_weight=-1.0)


def test_kts_memory_bound_raises_before_allocating():
    feats = np.ones((20000, 1))
    tracemalloc.start()
    try:
        with pytest.raises(ConfigurationError, match=r"20000 frames .* bytes, over the \d+-byte"):
            kts_segment(feats)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20  # one (T+1)^2 matrix alone would be 3.2 GB


# --- shot scores and cache -------------------------------------------------------


def test_shot_scores_example():
    part = partition_from_change_points([2], 5)
    means = block_means(np.array([1.0, 2.0, 3.0, 4.0, 5.0]), part.bounds)
    assert means.tolist() == [1.5, 4.0]


def test_shot_scores_mean_oracle():
    rng = substream(39, "kts")
    part = partition_from_change_points([4, 9, 15], 20)
    scores = rng.random(20)
    means = block_means(scores, part.bounds)
    for i, (a, b) in enumerate(part.shots):
        assert means[i] == np.mean(scores[a:b])


def test_shot_scores_length_check():
    part = partition_from_change_points([2], 5)
    with pytest.raises(ValueError, match="5 frames"):
        block_means(np.ones(4), part.bounds)
