import json
import math

import numpy as np
import pytest

from hiersum.kts import kts_segment, partition_from_change_points
from hiersum.seeding import substream
from hiersum.summarize import (
    Summary,
    assemble_summary,
    knapsack_select,
    make_summary,
    summary_to_json,
)
from tests.oracles import brute_knapsack


def dp_value(values, selected):
    total = 0.0
    for i in reversed(selected):
        total = values[i] + total
    return total


# --- knapsack ---------------------------------------------------------------------


def test_knapsack_documented_tie():
    # 0.8 + 0.1 rounds to exactly 0.9, so {0} and {1, 2} tie; smallest wins
    assert 0.8 + 0.1 == 0.9
    assert knapsack_select([0.9, 0.8, 0.1], [5, 3, 2], 5) == [0]
    _, brute, _ = brute_knapsack([0.9, 0.8, 0.1], [5, 3, 2], 5)
    assert brute == (0,)


def test_knapsack_dyadic_tie_prefers_smaller_indices():
    assert knapsack_select([0.5, 0.25, 0.25], [4, 2, 2], 4) == [0]
    assert knapsack_select([0.25, 0.25, 0.5], [2, 2, 4], 4) == [0, 1]


def test_knapsack_all_fit():
    assert knapsack_select([0.2, 0.9, 0.4], [1, 2, 3], 6) == [0, 1, 2]


def test_knapsack_zero_capacity_and_zero_values():
    assert knapsack_select([0.5, 0.5], [1, 1], 0) == []
    assert knapsack_select([0.0, 0.0], [1, 1], 2) == []  # nothing raises the value


def test_knapsack_matches_brute_force_random():
    rng = substream(71, "knap")
    for trial in range(60):
        s = int(rng.integers(1, 11))
        if trial % 2 == 0:
            values = rng.random(s)
        else:
            values = rng.integers(0, 65, size=s) / 64.0  # exact ties are common
        lengths = rng.integers(1, 8, size=s)
        capacity = int(rng.integers(0, int(lengths.sum()) + 2))
        got = knapsack_select(values, lengths, capacity)
        want_val, want_set, _ = brute_knapsack(list(values), list(lengths), capacity)
        assert tuple(got) == want_set
        assert dp_value(values, got) == want_val
        assert sum(int(lengths[i]) for i in got) <= capacity


def test_knapsack_raising_value_never_hurts():
    rng = substream(72, "knap")
    for _ in range(10):
        values = rng.random(8)
        lengths = rng.integers(1, 5, size=8)
        capacity = 10
        base = dp_value(values, knapsack_select(values, lengths, capacity))
        bumped = values.copy()
        bumped[int(rng.integers(0, 8))] += 0.5
        after = dp_value(bumped, knapsack_select(bumped, lengths, capacity))
        assert after >= base


def test_knapsack_validation():
    with pytest.raises(ValueError, match="same length"):
        knapsack_select([0.1, 0.2], [1], 3)
    with pytest.raises(ValueError, match="positive"):
        knapsack_select([0.1], [0], 3)
    with pytest.raises(ValueError, match="capacity"):
        knapsack_select([0.1], [1], -1)


# --- summary assembly --------------------------------------------------------------


def test_full_budget_selects_everything():
    part = partition_from_change_points([4, 9], 15)
    scores = substream(73, "s").uniform(0.1, 0.9, size=15)
    summary = assemble_summary(part, scores, budget_fraction=1.0)
    assert summary.selected_shots == (0, 1, 2)
    assert summary.frame_mask.sum() == 15
    assert summary.frame_mask.tolist() == [1] * 15


def test_top_shot_fills_budget_exactly():
    part = partition_from_change_points([3], 6)
    scores = np.array([0.1, 0.1, 0.1, 0.9, 0.9, 0.9])
    summary = assemble_summary(part, scores, budget_fraction=0.5)
    assert summary.selected_shots == (1,)
    assert summary.frame_mask.tolist() == [0, 0, 0, 1, 1, 1]


def test_budget_capacity_rounding_guard():
    # 0.29 * 100 sits one ulp below 29; the epsilon keeps the 29th frame
    part = partition_from_change_points(list(range(1, 100)), 100)
    scores = np.full(100, 0.5)
    summary = assemble_summary(part, scores, budget_fraction=0.29)
    assert summary.frame_mask.sum() == 29
    assert summary.selected_shots == tuple(range(29))  # equal values, lex smallest


def test_budget_invariant_random():
    rng = substream(74, "s")
    for _ in range(20):
        t = int(rng.integers(10, 60))
        points = sorted(rng.choice(np.arange(1, t), size=int(rng.integers(1, 5)), replace=False))
        part = partition_from_change_points(points, t)
        scores = rng.random(t)
        fraction = float(rng.uniform(0.05, 1.0))
        summary = assemble_summary(part, scores, budget_fraction=fraction)
        assert summary.frame_mask.sum() <= math.floor(fraction * t + 1e-9)


def test_budget_fraction_validated():
    part = partition_from_change_points([2], 4)
    for bad in (0.0, -0.2, 1.5):
        with pytest.raises(ValueError, match="budget_fraction"):
            assemble_summary(part, np.ones(4), budget_fraction=bad)


def test_make_summary_recovers_planted_shots():
    # ten well-separated feature blocks; high scores concentrated in two of them
    rng = substream(75, "s")
    centers = 4.0 * np.eye(10)
    feats = np.repeat(centers, 5, axis=0) + 0.01 * rng.normal(size=(50, 10))
    scores = np.full(50, 0.1)
    scores[10:15] = 0.9
    scores[35:40] = 0.9
    summary = make_summary(feats, scores, budget_fraction=0.2, max_shots=10, penalty_weight=0.1)
    partition = kts_segment(feats, max_shots=10, penalty_weight=0.1)  # the one make_summary uses
    assert partition.num_shots == 10
    assert partition.change_points == tuple(range(5, 50, 5))
    assert summary.selected_shots == (2, 7)
    assert np.array_equal(summary.frame_mask, partition.frame_mask(summary.selected_shots))
    keyframes = np.zeros(50, dtype=np.uint8)
    keyframes[10:15] = 1
    keyframes[35:40] = 1
    covered = int((summary.frame_mask & keyframes).sum())
    assert covered >= 0.8 * keyframes.sum()


def test_summary_json_roundtrip():
    part = partition_from_change_points([3], 6)
    summary = assemble_summary(part, np.array([0.9, 0.9, 0.9, 0.1, 0.1, 0.1]), 0.5)
    doc = summary_to_json("vid_07", summary)
    assert doc == {
        "video_id": "vid_07",
        "budget_fraction": 0.5,
        "selected_shots": [0],
        "frame_mask": [1, 1, 1, 0, 0, 0],
    }
    assert json.loads(json.dumps(doc, sort_keys=True)) == doc
