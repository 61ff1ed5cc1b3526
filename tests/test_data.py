import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from hiersum.data import (
    ValidationError,
    Video,
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
    synthetic_video_bytes,
    write_annotations,
    write_features,
    DatasetManifest,
)
from hiersum.kts import partition_from_change_points
from hiersum.rewards import sub_reward, sub_reward_score_grad
from hiersum.seeding import substream
from tests.conftest import traced_peak


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
    assert derive_keyframes([0.1, 0.9, 0.5, 0.2]).tolist() == [0, 1, 0, 0]


def test_keyframes_tie_breaks_by_index():
    # ceil(0.15 * 20) = 3 of 20 equal scores
    assert derive_keyframes([0.3] * 20).tolist() == [1, 1, 1] + [0] * 17


def test_keyframes_count_matches_sort_oracle(rng):
    for _ in range(20):
        scores = rng.random(100)
        p = derive_keyframes(scores)
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
        derive_keyframes([])
    with pytest.raises(ValueError):
        derive_keyframes([0.1, np.nan])


def test_task_labels_examples():
    assert derive_task_labels([0, 0, 1, 0], 2).tolist() == [0, 1]
    assert derive_task_labels([0, 0, 0, 0], 3).tolist() == [0, 0]
    assert derive_task_labels([1, 0, 0, 0, 0], 2).tolist() == [1, 0, 0]


def test_label_consistency_property(rng):
    for _ in range(20):
        t = int(rng.integers(4, 80))
        n = int(rng.integers(1, 12))
        scores = rng.random(t)
        p = derive_keyframes(scores)
        y = derive_task_labels(p, n)
        bounds = subtask_bounds(t, n)
        for i, (start, end) in enumerate(zip(bounds[:-1], bounds[1:])):
            assert y[i] == int(p[start:end].any())


# --- feature files ----------------------------------------------------------


def test_feature_roundtrip_bit_exact(tmp_path, rng):
    # features come back as the float32 the file stores, bit for bit, whether
    # written from float32 or from float64 values that float32 represents
    narrow = rng.standard_normal((17, 5)).astype(np.float32)
    path = tmp_path / "x.vsf"
    for feats in (narrow, narrow.astype(np.float64)):
        write_features(path, feats)
        back = read_features(path)
        assert back.dtype == np.float32 and back.shape == (17, 5)
        assert back.tobytes() == narrow.tobytes()
        assert back.astype(np.float64).tobytes() == narrow.astype(np.float64).tobytes()


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


@pytest.mark.parametrize(
    "frames, dims, users",
    [(2000, 512, 3), (1000, 4, 50)],
    ids=["features_dominate", "users_dominate"],
)
def test_synthetic_video_estimate_covers_the_traced_peak(tmp_path, frames, dims, users):
    generate_synthetic(tmp_path, 0, videos=1, frames=frames, dims=dims, users=users)  # warm
    with traced_peak() as traced:
        generate_synthetic(tmp_path, 0, videos=2, frames=frames, dims=dims, users=users)
    # the estimate bounds a whole dataset, one video at a time, and not loosely
    need = synthetic_video_bytes(frames, dims, users)
    assert traced.peak <= need <= 2 * traced.peak, (traced.peak, need)


def test_loaded_dataset_holds_no_feature_payload(tmp_path):
    manifest = generate_synthetic(tmp_path, 12, videos=4, frames=100, dims=256)
    tracemalloc.start()
    try:
        dataset = load_dataset(manifest)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    annotation_bytes = sum(
        v.per_user_scores.nbytes + v.user_summaries.nbytes + v.mean_scores.nbytes + v.keyframes.nbytes
        for v in dataset.videos
    )
    # the slack covers the Python objects; the 400 KB of float32 features are not held
    assert held <= annotation_bytes + 64 * 1024, (held, annotation_bytes)
    assert [v.shape for v in dataset.videos] == [(100, 256)] * 4


def test_loaded_video_reads_its_file_when_its_features_are_used(tmp_path):
    manifest = generate_synthetic(tmp_path, 12, videos=2, frames=30, dims=4)
    video = load_dataset(manifest).videos[1]
    assert video.path == tmp_path / "video001.vsf" and video.num_frames == 30
    assert not hasattr(video, "features")
    want = read_features(video.path)
    held = video.read()
    assert held is not video and held.read() is held and held.path is None
    assert held.features.dtype == np.float32 and np.array_equal(held.features, want)
    assert held.keyframes is video.keyframes and held.per_user_scores is video.per_user_scores
    built = Video("v", want, video.per_user_scores)
    assert built.read() is built and built.features is want


@pytest.mark.parametrize(
    "change, message",
    [
        ("nan", "features contain non-finite values"),
        ("zero_frame", "frame 3 has all-zero features"),
        ("fewer_frames", "29x4 features, but 30x4 when loaded"),
        ("wider", "30x5 features, but 30x4 when loaded"),
        ("truncated", "expected 480 payload bytes for 30x4, got 476"),
        ("bad_magic", "bad magic"),
    ],
)
def test_feature_file_changed_after_load_is_rejected_when_read_again(tmp_path, change, message):
    manifest = generate_synthetic(tmp_path, 12, videos=2, frames=30, dims=4)
    video = load_dataset(manifest).videos[0]
    path = tmp_path / "video000.vsf"
    feats = read_features(path).copy()
    if change == "nan":
        feats[7, 2] = np.nan
    elif change == "zero_frame":
        feats[3] = 0.0
    elif change == "fewer_frames":
        feats = feats[:29]
    elif change == "wider":
        feats = np.hstack([feats, feats[:, :1]])
    write_features(path, feats)
    if change == "truncated":
        path.write_bytes(path.read_bytes()[:-4])
    elif change == "bad_magic":
        path.write_bytes(b"XXXX" + path.read_bytes()[4:])
    with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: changed since it was loaded: .*{message}"):
        video.read()


def test_dataset_by_id_finds_each_video_and_names_a_missing_one(tmp_path):
    dataset = load_dataset(generate_synthetic(tmp_path, 12, videos=3, frames=20, dims=4))
    assert [dataset.by_id(video_id) for video_id in dataset.video_ids] == dataset.videos
    with pytest.raises(KeyError, match="no video 'ghost' in dataset 'synthetic'"):
        dataset.by_id("ghost")


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
    feats = np.ones((2, 3))
    with pytest.raises(ValidationError, match="\\[0, 1\\]"):
        Video("v", feats, [[0.2, 1.4]])
    with pytest.raises(ValidationError, match="shape"):
        Video("v", feats, [[0.2, 0.4]], user_summaries=[[1, 0, 1]])
    video = Video("v", feats, [[0.1, 0.9], [0.3, 0.7]])
    assert np.allclose(video.mean_scores, [0.2, 0.8])
    assert video.keyframes.tolist() == [0, 1]
    assert derive_task_labels(video.keyframes, 1).tolist() == [0, 1]


def test_feature_sequence_validation():
    with pytest.raises(ValidationError, match="non-finite"):
        Video("v", np.array([[1.0, np.inf]]), [[0.5]])
    with pytest.raises(ValidationError, match="2-D"):
        Video("v", np.zeros(4), [[0.5] * 4])


def test_video_checks_scores_against_frames():
    with pytest.raises(ValidationError, match="video 'v': 3 feature rows .* shape \\(2, 4\\)"):
        Video("v", np.ones((3, 2)), np.full((2, 4), 0.5))
    # the frame count mismatch is reported before the faults of either array
    with pytest.raises(ValidationError, match="video 'v': 2 feature rows"):
        Video("v", np.array([[1.0, np.nan], [1.0, 1.0]]), [[np.nan]])
    video = Video("v", np.ones((3, 2), dtype=np.float32), [[0.5, 0.5, 0.5]], [[True, False, True]])
    # float32 features are held as given; anything else is widened to float64
    assert video.features.dtype == np.float32 and video.per_user_scores.dtype == np.float64
    assert Video("v", [[1, 2]] * 3, [[0.5] * 3]).features.dtype == np.float64
    assert Video("v", np.ones((3, 2), dtype=np.float16), [[0.5] * 3]).features.dtype == np.float64
    assert video.user_summaries.dtype == np.uint8 and video.user_summaries.tolist() == [[1, 0, 1]]
    assert video.num_frames == 3


@pytest.mark.parametrize(
    "summaries", [[[0.5, np.nan, -3.0]], [[1, 0, 2]], [[1.0, 0.0, np.inf]], [[1.0, -0.0, 1e-9]]]
)
def test_video_rejects_user_summaries_that_are_not_0_or_1(summaries):
    with pytest.raises(ValidationError, match="video 'v': user_summaries must hold only 0 and 1"):
        Video("v", np.ones((3, 2)), [[0.5] * 3], summaries)


def test_json_booleans_load_as_user_summaries(tmp_path):
    path = tmp_path / "annotations.json"
    doc = {"per_user_scores": [[0.5] * 3], "user_summaries": [[True, False, True]]}
    path.write_text(json.dumps(doc))
    video = Video("v", np.ones((3, 2)), *read_annotations(path))
    assert video.user_summaries.tolist() == [[1, 0, 1]]


def test_manifest_roundtrip_and_errors(tmp_path):
    manifest = DatasetManifest(
        name="demo",
        feature_dim=3,
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


@pytest.mark.parametrize("legacy", [20, 0, "x"])
def test_manifest_legacy_subtask_size_is_ignored(tmp_path, legacy):
    manifest = generate_synthetic(tmp_path, seed=2, videos=2, frames=30, dims=4)
    plain = load_dataset(manifest)
    doc = json.loads(manifest.read_text())
    doc["subtask_size"] = legacy
    manifest.write_text(json.dumps(doc))
    loaded = load_dataset(manifest)
    assert loaded.manifest == plain.manifest
    for a, b in zip(loaded.videos, plain.videos, strict=True):
        a, b = a.read(), b.read()
        for field in ("features", "per_user_scores", "mean_scores", "keyframes", "user_summaries"):
            assert np.array_equal(getattr(a, field), getattr(b, field))


def test_load_dataset_validates_shapes(tmp_path):
    write_features(tmp_path / "v1.vsf", np.zeros((40, 3)) + 0.5)
    write_annotations(tmp_path / "v1.json", np.full((2, 39), 0.5))
    manifest = DatasetManifest(
        name="demo", feature_dim=3,
        videos=[VideoEntry("v1", "v1.vsf", "v1.json")],
    )
    save_manifest(tmp_path / "manifest.json", manifest)
    with pytest.raises(ValidationError, match="v1"):
        load_dataset(tmp_path / "manifest.json")


def test_load_dataset_missing_file(tmp_path):
    manifest = DatasetManifest(
        name="demo", feature_dim=3,
        videos=[VideoEntry("v1", "missing.vsf", "missing.json")],
    )
    save_manifest(tmp_path / "manifest.json", manifest)
    with pytest.raises(FileNotFoundError, match="missing.vsf"):
        load_dataset(tmp_path / "manifest.json")


# --- synthetic generator ----------------------------------------------------


def read_tree_bytes(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


def test_synthetic_deterministic(tmp_path):
    a = generate_synthetic(tmp_path / "a", seed=7, videos=3, frames=30, dims=4)
    b = generate_synthetic(tmp_path / "b", seed=7, videos=3, frames=30, dims=4)
    assert read_tree_bytes(a.parent) == read_tree_bytes(b.parent)
    c = generate_synthetic(tmp_path / "c", seed=8, videos=3, frames=30, dims=4)
    assert read_tree_bytes(c.parent) != read_tree_bytes(a.parent)


def test_synthetic_keyframe_count(tmp_path):
    manifest = generate_synthetic(
        tmp_path, seed=3, videos=2, frames=200, dims=4,
        keyframe_fraction=0.15,
    )
    ds = load_dataset(manifest)
    for video in ds.videos:
        assert int(video.keyframes.sum()) == 30


def test_synthetic_cluster_separation(tmp_path):
    manifest = generate_synthetic(tmp_path, seed=5, videos=4, frames=120, dims=8)
    ds = load_dataset(manifest)
    for video in ds.videos:
        key = video.keyframes.astype(bool)
        feats = video.read().features
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
