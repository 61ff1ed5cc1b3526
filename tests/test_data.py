import json
import math

import numpy as np
import pytest

from hiersum.data import (
    AnnotationSet,
    FeatureSequence,
    ValidationError,
    VideoEntry,
    block_means,
    budget_count,
    derive_keyframes,
    derive_task_labels,
    generate_synthetic,
    load_dataset,
    load_manifest,
    num_subtasks,
    read_annotations,
    read_features,
    save_manifest,
    subtask_bounds,
    write_annotations,
    write_features,
    DatasetManifest,
)
from hiersum.kts import partition_from_change_points
from hiersum.rewards import sub_reward, sub_reward_score_grad
from hiersum.seeding import substream


# --- subtask tiling ---------------------------------------------------------


def test_tiling_even():
    bounds = subtask_bounds(40, 20)
    assert bounds.tolist() == [0, 20, 40]
    assert num_subtasks(40, 20) == 2


def test_tiling_short_last():
    bounds = subtask_bounds(50, 20)
    assert bounds.tolist() == [0, 20, 40, 50]
    assert np.diff(bounds)[-1] == 10


def test_tiling_properties(rng):
    for _ in range(50):
        t = int(rng.integers(1, 120))
        n = int(rng.integers(1, 40))
        bounds = subtask_bounds(t, n)
        assert bounds.dtype == np.int64
        assert bounds.size - 1 == math.ceil(t / n)
        lengths = np.diff(bounds)
        assert bounds[0] == 0 and bounds[-1] == t
        assert np.all((lengths >= 1) & (lengths <= n))
        assert np.all(lengths[:-1] == n)


def test_tiling_rejects_bad_args():
    with pytest.raises(ValueError):
        subtask_bounds(0, 4)
    with pytest.raises(ValueError):
        subtask_bounds(4, 0)


# --- partitions against per-block loop oracles ----------------------------------
# The oracles are written block by block, with no shared code with the module.

# (T, subtask_size): T=1, T < size, T % size == 0, size 1, short last blocks
PARTITION_GRID = [
    (1, 1), (1, 20), (3, 20), (19, 20), (20, 20), (40, 20), (200, 20),
    (7, 1), (40, 1), (7, 3), (19, 7), (41, 20), (50, 20), (201, 20), (10, 4),
]  # fmt: skip


def loop_blocks(num_frames, subtask_size):
    """(start, end) per block: every subtask_size frames from 0, the last one clipped to T."""
    return [(s, min(s + subtask_size, num_frames)) for s in range(0, num_frames, subtask_size)]


@pytest.mark.parametrize("t, n", PARTITION_GRID)
def test_subtask_bounds_match_loop_oracle(t, n):
    blocks = loop_blocks(t, n)
    bounds = subtask_bounds(t, n)
    assert np.array_equal(bounds, [0] + [end for _, end in blocks])
    assert num_subtasks(t, n) == len(blocks)


@pytest.mark.parametrize("t, n", PARTITION_GRID)
def test_block_means_match_loop_oracle(t, n):
    values = substream(11, "means", t, n).uniform(0.0, 1.0, size=t)
    want = np.array([values[a:b].mean() for a, b in loop_blocks(t, n)])
    got = block_means(values, subtask_bounds(t, n))
    assert got.dtype == np.float64
    assert np.array_equal(got, want)


@pytest.mark.parametrize("t, n", PARTITION_GRID)
def test_task_labels_match_loop_oracle(t, n):
    rng = substream(11, "labels", t, n)
    for keyframes in (
        (rng.random(t) < 0.15).astype(np.uint8),
        np.zeros(t, dtype=np.uint8),
        np.ones(t, dtype=np.uint8),
    ):
        want = [int(keyframes[a:b].any()) for a, b in loop_blocks(t, n)]
        got = derive_task_labels(keyframes, n)
        assert got.dtype == np.uint8
        assert np.array_equal(got, want)


@pytest.mark.parametrize("t, n", PARTITION_GRID)
def test_sub_reward_score_grad_matches_loop_oracle(t, n):
    blocks = loop_blocks(t, n)
    rng = substream(11, "grad", t, n)
    means = rng.uniform(0.1, 0.9, size=len(blocks))
    probs = rng.uniform(0.1, 0.9, size=len(blocks))
    probs[::3] = means[::3]  # agreement: the subgradient 0
    r = sub_reward(means, probs)
    want = np.zeros(t)
    for i, (a, b) in enumerate(blocks):
        want[a:b] = -r * np.sign(means[i] - probs[i]) / (len(blocks) * (b - a))
    assert np.array_equal(sub_reward_score_grad(means, probs, subtask_bounds(t, n)), want)


def test_block_means_over_shot_partition_bounds(rng):
    for _ in range(20):
        t = int(rng.integers(1, 150))
        cuts = rng.choice(np.arange(1, t), size=min(int(rng.integers(0, 12)), t - 1), replace=False)
        part = partition_from_change_points(sorted(cuts.tolist()), t)
        scores = rng.random(t)
        want = np.array([scores[a:b].mean() for a, b in part.shots])
        assert np.array_equal(block_means(scores, part.bounds), want)
        assert part.bounds.tolist() == [0, *part.change_points, t]


# --- keyframe and label derivation -----------------------------------------


def test_keyframes_top_one():
    assert derive_keyframes([0.1, 0.9, 0.5, 0.2], 0.25).tolist() == [0, 1, 0, 0]


def test_keyframes_tie_breaks_by_index():
    assert derive_keyframes([0.3, 0.3, 0.3, 0.3], 0.5).tolist() == [1, 1, 0, 0]


def test_keyframes_count_matches_sort_oracle(rng):
    for _ in range(20):
        scores = rng.random(100)
        p = derive_keyframes(scores, 0.15)
        assert int(p.sum()) == 15
        # independent oracle: sort by (-score, index), take the first 15
        order = sorted(range(100), key=lambda i: (-scores[i], i))
        expected = sorted(order[:15])
        assert sorted(np.flatnonzero(p).tolist()) == expected


def test_budget_count_rounding():
    assert budget_count(0.15, 200) == 30
    assert budget_count(0.15, 40) == 6
    # 0.07 * 100 floats to 7.000000000000001; the guard keeps ceil honest
    assert budget_count(0.07, 100) == 7
    assert budget_count(0.5, 3) == 2


def test_keyframes_input_validation():
    with pytest.raises(ValueError):
        derive_keyframes([], 0.5)
    with pytest.raises(ValueError):
        derive_keyframes([0.1, np.nan], 0.5)
    with pytest.raises(ValueError):
        derive_keyframes([0.1, 0.2], 1.0)


def test_task_labels_examples():
    assert derive_task_labels([0, 0, 1, 0], 2).tolist() == [0, 1]
    assert derive_task_labels([0, 0, 0, 0], 3).tolist() == [0, 0]
    assert derive_task_labels([1, 0, 0, 0, 0], 2).tolist() == [1, 0, 0]


def test_label_consistency_property(rng):
    for _ in range(20):
        t = int(rng.integers(4, 80))
        n = int(rng.integers(1, 12))
        scores = rng.random(t)
        p = derive_keyframes(scores, 0.15)
        y = derive_task_labels(p, n)
        bounds = subtask_bounds(t, n)
        for i, (start, end) in enumerate(zip(bounds[:-1], bounds[1:])):
            assert y[i] == int(p[start:end].any())


# --- feature files ----------------------------------------------------------


def test_feature_roundtrip_bit_exact(tmp_path, rng):
    # values already representable in float32 survive the storage round trip
    feats = rng.standard_normal((17, 5)).astype(np.float32).astype(np.float64)
    path = tmp_path / "x.vsf"
    write_features(path, feats)
    back = read_features(path)
    assert back.dtype == np.float64
    assert np.array_equal(back, feats)


def test_feature_file_layout(tmp_path):
    path = tmp_path / "x.vsf"
    write_features(path, [[1.0, 2.0], [3.0, 4.0]])
    raw = path.read_bytes()
    assert raw[:4] == b"VSF1"
    assert int.from_bytes(raw[4:8], "little") == 2
    assert int.from_bytes(raw[8:12], "little") == 2
    assert len(raw) == 12 + 2 * 2 * 4
    assert np.frombuffer(raw[12:], dtype="<f4").tolist() == [1.0, 2.0, 3.0, 4.0]


def test_feature_file_errors(tmp_path):
    bad_magic = tmp_path / "bad.vsf"
    bad_magic.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValidationError, match="magic"):
        read_features(bad_magic)
    short = tmp_path / "short.vsf"
    short.write_bytes(b"VSF1\x02")
    with pytest.raises(ValidationError, match="truncated"):
        read_features(short)
    truncated = tmp_path / "trunc.vsf"
    write_features(truncated, [[1.0, 2.0], [3.0, 4.0]])
    truncated.write_bytes(truncated.read_bytes()[:-4])
    with pytest.raises(ValidationError, match="payload"):
        read_features(truncated)
    for shape in ((0, 3), (3, 0)):
        empty = tmp_path / "empty.vsf"
        write_features(empty, np.zeros(shape))
        with pytest.raises(ValidationError, match=f"{empty}: empty"):
            read_features(empty)


# --- annotations and manifest -----------------------------------------------


def test_annotation_roundtrip(tmp_path):
    path = tmp_path / "a.json"
    scores = [[0.1, 0.8, 0.3], [0.2, 0.9, 0.1]]
    summaries = [[0, 1, 0], [0, 1, 1]]
    write_annotations(path, scores, summaries)
    s, u = read_annotations(path)
    assert np.allclose(s, scores)
    assert np.array_equal(u, summaries)
    write_annotations(path, scores)
    s, u = read_annotations(path)
    assert u is None


def test_annotation_set_validation():
    with pytest.raises(ValidationError, match="\\[0, 1\\]"):
        AnnotationSet.from_scores([[0.2, 1.4]])
    with pytest.raises(ValidationError, match="shape"):
        AnnotationSet.from_scores([[0.2, 0.4]], user_summaries=[[1, 0, 1]])
    ann = AnnotationSet.from_scores([[0.1, 0.9], [0.3, 0.7]])
    assert np.allclose(ann.mean_scores, [0.2, 0.8])
    assert ann.keyframes.tolist() == [0, 1]
    assert derive_task_labels(ann.keyframes, 1).tolist() == [0, 1]


def test_feature_sequence_validation():
    with pytest.raises(ValidationError, match="non-finite"):
        FeatureSequence("v", np.array([[1.0, np.inf]]))
    with pytest.raises(ValidationError, match="2-D"):
        FeatureSequence("v", np.zeros(4))


def test_manifest_roundtrip_and_errors(tmp_path):
    manifest = DatasetManifest(
        name="demo",
        feature_dim=3,
        subtask_size=5,
        videos=[VideoEntry("v1", "v1.vsf", "v1.json")],
    )
    path = tmp_path / "manifest.json"
    save_manifest(path, manifest)
    back = load_manifest(path)
    assert back.name == "demo"
    assert back.f_aggregate == "mean"
    assert back.videos[0].video_id == "v1"
    assert back.root == tmp_path

    doc = json.loads(path.read_text())
    doc["f_aggregate"] = "median"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match="f_aggregate"):
        load_manifest(path)
    del doc["f_aggregate"], doc["videos"]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match="videos"):
        load_manifest(path)


def test_load_dataset_validates_shapes(tmp_path):
    write_features(tmp_path / "v1.vsf", np.zeros((40, 3)) + 0.5)
    write_annotations(tmp_path / "v1.json", np.full((2, 39), 0.5))
    manifest = DatasetManifest(
        name="demo", feature_dim=3, subtask_size=5,
        videos=[VideoEntry("v1", "v1.vsf", "v1.json")],
    )
    save_manifest(tmp_path / "manifest.json", manifest)
    with pytest.raises(ValidationError, match="v1"):
        load_dataset(tmp_path / "manifest.json")


def test_load_dataset_missing_file(tmp_path):
    manifest = DatasetManifest(
        name="demo", feature_dim=3, subtask_size=5,
        videos=[VideoEntry("v1", "missing.vsf", "missing.json")],
    )
    save_manifest(tmp_path / "manifest.json", manifest)
    with pytest.raises(FileNotFoundError, match="missing.vsf"):
        load_dataset(tmp_path / "manifest.json")


# --- synthetic generator ----------------------------------------------------


def read_tree_bytes(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


def test_synthetic_deterministic(tmp_path):
    a = generate_synthetic(tmp_path / "a", seed=7, videos=3, frames=30, dims=4, subtask_size=10)
    b = generate_synthetic(tmp_path / "b", seed=7, videos=3, frames=30, dims=4, subtask_size=10)
    assert read_tree_bytes(a.parent) == read_tree_bytes(b.parent)
    c = generate_synthetic(tmp_path / "c", seed=8, videos=3, frames=30, dims=4, subtask_size=10)
    assert read_tree_bytes(c.parent) != read_tree_bytes(a.parent)


def test_synthetic_keyframe_count(tmp_path):
    manifest = generate_synthetic(
        tmp_path, seed=3, videos=2, frames=200, dims=4, subtask_size=20,
        keyframe_fraction=0.15,
    )
    ds = load_dataset(manifest)
    for video in ds.videos:
        assert int(video.annotations.keyframes.sum()) == 30


def test_synthetic_cluster_separation(tmp_path):
    manifest = generate_synthetic(tmp_path, seed=5, videos=4, frames=120, dims=8, subtask_size=20)
    ds = load_dataset(manifest)
    for video in ds.videos:
        key = video.annotations.keyframes.astype(bool)
        feats = video.features.features
        center_key = feats[key].mean(axis=0)
        center_other = feats[~key].mean(axis=0)
        pooled = np.concatenate([feats[key] - center_key, feats[~key] - center_other])
        within_std = pooled.std()
        gap = np.linalg.norm(center_key - center_other)
        assert gap / within_std >= 4.0


def test_synthetic_rejects_bad_args(tmp_path):
    with pytest.raises(ValueError):
        generate_synthetic(tmp_path, seed=0, videos=0)
    with pytest.raises(ValueError):
        generate_synthetic(tmp_path, seed=0, keyframe_fraction=1.5)
