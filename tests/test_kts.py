import numpy as np
import pytest

from hiersum.data import ConfigurationError, block_means
from hiersum.kts import (
    _DP_BLOCK_ROWS,
    ShotPartition,
    _advance_starts,
    _dp_tables,
    _prefix_tables,
    _prune_margin,
    check_memory,
    kts_bytes,
    kts_segment,
    partition_from_change_points,
)
from hiersum.seeding import substream
from tests.conftest import traced_peak
from tests.oracles import cost_matrix, direct_segment_cost, enumerate_min_costs, full_matrix_kts


def min_costs(feats, max_shots):
    """L_m for m = 1..max_shots, the last column of the program's DP table."""
    return _dp_tables(feats, max_shots)[0][1:, -1]


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
        costs = cost_matrix(feats)
        for a in range(t):
            for b in range(a + 1, t + 1):
                want = direct_segment_cost(feats, a, b)
                scale = max(abs(want), 1.0)
                assert abs(costs[a, b] - want) <= 1e-10 * scale
        assert np.all(np.isinf(costs[np.tril_indices(t + 1)]))


def test_single_frame_segments_cost_near_zero():
    # prefix-sum cancellation leaves rounding residue, so near zero, not exactly
    feats = substream(32, "kts").normal(size=(6, 3))
    costs = cost_matrix(feats)
    for a in range(6):
        assert abs(costs[a, a + 1]) < 1e-12


def test_two_frame_segment_closed_form():
    x1 = np.array([1.0, 2.0])
    x2 = np.array([4.0, -2.0])
    costs = cost_matrix(np.stack([x1, x2]))
    want = float(((x1 - x2) ** 2).sum()) / 2.0
    assert abs(costs[0, 2] - want) < 1e-12


# --- dynamic program vs exhaustive search ---------------------------------------


def test_dp_matches_enumeration_shared_costs_bitwise():
    rng = substream(33, "kts")
    for _ in range(12):
        t = int(rng.integers(4, 13))
        feats = rng.normal(size=(t, int(rng.integers(2, 5))))
        max_shots = min(4, t)
        costs = cost_matrix(feats)
        brute = enumerate_min_costs(feats, max_shots, lambda a, b: costs[a, b])
        dp = min_costs(feats, max_shots)
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
        dp = min_costs(feats, max_shots)
        assert np.allclose(dp, brute, rtol=1e-10, atol=1e-10)


def test_chosen_partition_optimal_under_penalty():
    rng = substream(35, "kts")
    for trial in range(8):
        t = int(rng.integers(5, 13))
        feats = rng.normal(size=(t, 3))
        max_shots = min(4, t)
        weight = [0.0, 0.5, 1.0, 2.0][trial % 4]
        part = kts_segment(feats, max_shots=max_shots, penalty_weight=weight)
        costs = cost_matrix(feats)
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
        costs = cost_matrix(feats)
        for max_shots in sorted({t // 10, min(30, t)}):
            want_costs, _ = full_matrix_kts(costs, max_shots, 0.0)
            assert np.array_equal(min_costs(feats, max_shots), want_costs)
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
        costs = cost_matrix(feats)
        # max_shots = t: the last layers are narrower than one block
        for max_shots in (t // 10, t):
            want_costs, _ = full_matrix_kts(costs, max_shots, 0.0)
            assert np.array_equal(min_costs(feats, max_shots), want_costs)
            for weight in (0.0, 1.0):
                _, want_points = full_matrix_kts(costs, max_shots, weight)
                part = kts_segment(feats, max_shots=max_shots, penalty_weight=weight)
                assert part.change_points == want_points, (t, max_shots, weight)


def two_cluster_features(rng, t, dims):
    """Bench-shaped features: three contiguous runs of one Gaussian cluster in another."""
    centers = rng.normal(size=(2, dims))
    centers[1] = centers[0] + 6.0 * centers[1] / np.linalg.norm(centers[1])
    labels = np.zeros(t, dtype=int)
    for start in rng.choice(t - t // 20, size=3, replace=False):
        labels[start : start + t // 20] = 1
    feats = centers[labels] + rng.normal(size=(t, dims))
    return feats.astype(np.float32).astype(np.float64)


def assert_matches_full_matrix_kts(feats, max_shots_values, weights=(0.0, 1.0)):
    costs = cost_matrix(feats)
    for max_shots in max_shots_values:
        want_costs, _ = full_matrix_kts(costs, max_shots, 0.0)
        got = min_costs(feats, max_shots)
        assert got.tobytes() == want_costs.tobytes(), max_shots
        for weight in weights:
            _, want_points = full_matrix_kts(costs, max_shots, weight)
            part = kts_segment(feats, max_shots=max_shots, penalty_weight=weight)
            assert part.change_points == want_points, (max_shots, weight)


def test_pruned_dp_matches_full_matrix_reference_on_two_cluster_features():
    # 300 frames are five blocks of ends; the pruning drops splits from the second on
    rng = substream(44, "kts")
    for dims in (8, 64):
        feats = two_cluster_features(rng, 300, dims)
        assert_matches_full_matrix_kts(feats, (30, 100))


def test_pruned_dp_matches_full_matrix_reference_when_the_margin_stops_pruning():
    # a common offset leaves the exact costs alone but raises sum|x|^2, and the margin with
    # it, past the whole video's cost, which bounds every difference the rule compares
    feats = two_cluster_features(substream(45, "kts"), 200, 8) + 1e6
    _, diag_prefix = _prefix_tables(feats)
    assert _prune_margin(diag_prefix, 8) > cost_matrix(feats)[0, 200]
    assert_matches_full_matrix_kts(feats, (20, 66))


def test_pruned_dp_matches_full_matrix_reference_on_tied_splits():
    rng = substream(46, "kts")
    t = 200
    cases = [np.ones((t, 4)), np.zeros((t, 3))]
    for run in (7, 40):
        cases.append(np.repeat(rng.normal(size=(t // run + 1, 4)), run, axis=0)[:t])
    for feats in cases:
        assert_matches_full_matrix_kts(feats, (20, 66))


@pytest.mark.parametrize("scale", [1e-160, 1e140])
def test_pruned_dp_matches_full_matrix_reference_at_extreme_scales(scale):
    # 1e-160 squares to subnormals; 1e140 squares to 1e280, its Gram sums still finite
    feats = two_cluster_features(substream(47, "kts"), 200, 8) * scale
    assert_matches_full_matrix_kts(feats, (20, 66))


def test_advance_starts_drops_a_strictly_dominated_split():
    # best[m-1] over ends 0..3 and the costs C(s, 3): split 1 loses to split 3 by 5 > 0.5
    prev_best = np.array([[np.inf, 0.0, 0.0, 0.0]])
    costs_to_t = np.array([np.inf, 5.0, 0.0, np.inf])
    starts = np.array([1])
    _advance_starts(starts, prev_best, costs_to_t, 3, 0.5, np.empty(16))
    assert starts.tolist() == [2]
    # every split before t dominated: the scan starts at t itself
    starts = np.array([1])
    _advance_starts(starts, prev_best, np.array([np.inf, 5.0, 5.0, np.inf]), 3, 0.5, np.empty(16))
    assert starts.tolist() == [3]


def test_advance_starts_keeps_tied_splits_and_splits_within_the_margin():
    prev_best = np.array([[np.inf, 0.0, 0.0, 1.0]])
    starts = np.array([1])
    # 0 + 1 == 1 + 0: an exact tie stays live, so the earliest split still wins ties
    _advance_starts(starts, prev_best, np.array([np.inf, 1.0, 5.0, np.inf]), 3, 0.0, np.empty(16))
    assert starts.tolist() == [1]
    # 0 + 1.25 is above 1 but within the margin of 0.5
    _advance_starts(starts, prev_best, np.array([np.inf, 1.25, 5.0, np.inf]), 3, 0.5, np.empty(16))
    assert starts.tolist() == [1]


def test_advance_starts_never_moves_a_start_back_and_chunks_alike():
    # layer rows with starts 1 and 2: split 1 is live for both at t, split 2 only for neither
    prev_best = np.array([[np.inf, 0.0, 9.0, 0.0, 0.0], [np.inf, 0.0, 9.0, 0.0, 0.0]])
    costs_to_t = np.array([np.inf, 0.0, 0.0, 0.0, np.inf])
    for scratch in (np.empty(3), np.empty(64)):  # one layer of 3 splits per chunk, then all
        starts = np.array([1, 2])
        _advance_starts(starts, prev_best, costs_to_t, 4, 0.0, scratch)
        assert starts.tolist() == [1, 3]


def test_first_live_splits_move_past_m_minus_one_on_two_cluster_features():
    t, dims, max_shots = 640, 64, 64
    feats = two_cluster_features(substream(48, "kts"), t, dims)
    best, _ = _dp_tables(feats, max_shots)
    _, diag_prefix = _prefix_tables(feats)
    starts = np.arange(1, max_shots)  # layers m = 2..max_shots start at m - 1
    initial = starts.copy()
    costs_to_t = cost_matrix(feats)[:, t]
    margin = _prune_margin(diag_prefix, dims)
    _advance_starts(starts, best[1:max_shots], costs_to_t, t, margin, np.empty(64 * (t + 1)))
    assert np.all(starts >= initial)
    assert np.count_nonzero(starts > initial) > 0.75 * len(starts)


@pytest.mark.parametrize("t, dims", [(1000, 8), (200, 4096)])
def test_kts_bytes_covers_the_traced_peak(t, dims):
    # float32 features, as read_features returns them; KTS widens them to float64
    feats = substream(49, "kts", dims).normal(size=(t, dims)).astype(np.float32)
    with traced_peak() as traced:
        kts_segment(feats)
    peak = traced.peak
    assert kts_bytes(t, dims, None) >= peak


def test_kts_segment_peak_below_one_and_a_half_prefix_tables():
    # one (T+1)^2 prefix table; the cost rows exist only one block of ends at a time
    t = 1000
    feats = substream(42, "kts").normal(size=(t, 8))
    with traced_peak() as traced:
        kts_segment(feats)
    peak = traced.peak
    assert peak < 1.5 * 8 * (t + 1) ** 2


def test_float32_features_match_their_float64_widening():
    # read_features and data.Video hold float32; KTS widens it, and the widening is exact
    rng = substream(43, "kts")
    for t in (57, 200):
        feats32 = rng.normal(size=(t, 16)).astype(np.float32)
        feats64 = feats32.astype(np.float64)
        for weight in (0.0, 1.0, 20.0):
            want = kts_segment(feats64, max_shots=t // 4, penalty_weight=weight)
            got = kts_segment(feats32, max_shots=t // 4, penalty_weight=weight)
            assert got.change_points == want.change_points
        want_costs = min_costs(feats64, t // 4)
        assert min_costs(feats32, t // 4).tobytes() == want_costs.tobytes()


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
    dp = min_costs(feats, 6)
    assert np.all(np.diff(dp) <= 1e-12)


def test_frame_order_changes_costs():
    block_a = np.tile(np.array([5.0, 0.0]), (6, 1))
    block_b = np.tile(np.array([0.0, 5.0]), (6, 1))
    ordered = np.vstack([block_a, block_b])
    interleaved = ordered[[0, 6, 1, 7, 2, 8, 3, 9, 4, 10, 5, 11]]
    assert min_costs(ordered, 2)[1] < 1e-9
    assert min_costs(interleaved, 2)[1] > 1.0


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
    for penalty in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="penalty_weight"):
            kts_segment(np.ones((4, 2)), penalty_weight=penalty)


def test_kts_memory_bound_raises_before_allocating():
    feats = np.ones((20000, 1))
    with traced_peak() as traced:
        with pytest.raises(ConfigurationError, match=r"20000 frames .* bytes, over the \d+-byte"):
            kts_segment(feats)
    peak = traced.peak
    assert peak < 2**20  # one (T+1)^2 matrix alone would be 3.2 GB


def test_min_costs_memory_bound_raises_before_allocating():
    feats = np.ones((20000, 1))
    with traced_peak() as traced:
        with pytest.raises(ConfigurationError, match=r"20000 frames .* bytes, over the \d+-byte"):
            min_costs(feats, None)
    peak = traced.peak
    assert peak < 2**20


def test_default_max_shots_frame_limit():
    # at D=1024: the float64 features, one (T+1)^2 prefix table, two (T // 10 + 1, T+1)
    # DP tables, three float and two boolean blocks of 64 rows, and numpy's buffers
    check_memory(14448, 1024, None, "features")
    with pytest.raises(ConfigurationError, match="features: KTS over 14449 frames"):
        check_memory(14449, 1024, None, "features")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e200])
def test_kts_rejects_non_finite_features_and_overflowing_gram_sums(bad):
    feats = np.ones((12, 3))
    feats[5, 1] = bad  # 1e200 is finite, but its square overflows
    with pytest.raises(ValueError, match="non-finite"):
        kts_segment(feats)


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
