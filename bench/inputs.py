"""Seeded synthetic datasets written in hiersum's on-disk formats.

The benchmark makes its own inputs so that the program only ever sees files:
the benchmark seed picks the features, annotations and which video gets
which length, never the amount of work. Every video is two Gaussian
clusters, one for a few contiguous keyframe blocks and one for the rest, so
a Manager trained on the weak window labels has something to learn. The
formats follow the project README: a VSF1 feature file (magic, T and D as
little-endian uint32, then T*D little-endian float32), a JSON annotation
file with per-user scores and summaries, and a JSON manifest.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

KEYFRAME_FRACTION = 0.15
SUBTASK_SIZE = 20
USERS = 3
CLUSTER_SEPARATION = 6.0
VSF_HEADER = struct.Struct("<4sII")


def keyframe_count(num_frames):
    return max(1, math.ceil(KEYFRAME_FRACTION * num_frames - 1e-9))


def keyframe_blocks(rng, num_frames, num_keyframes):
    """Boolean mask holding num_keyframes frames in 2 to 4 contiguous blocks."""
    blocks = min(int(rng.integers(2, 5)), num_keyframes)
    sizes = np.full(blocks, num_keyframes // blocks)
    sizes[: num_keyframes % blocks] += 1
    gaps = rng.multinomial(num_frames - num_keyframes, np.full(blocks + 1, 1.0 / (blocks + 1)))
    mask = np.zeros(num_frames, dtype=bool)
    pos = 0
    for gap, size in zip(gaps[:-1], sizes):
        pos += int(gap)
        mask[pos : pos + size] = True
        pos += int(size)
    return mask


def write_features(path, feats32):
    with open(path, "wb") as fh:
        fh.write(VSF_HEADER.pack(b"VSF1", *feats32.shape))
        fh.write(feats32.astype("<f4").tobytes(order="C"))


def read_features(path):
    """(T, D) float64 matrix from a VSF1 file, as the program would see it."""
    with open(path, "rb") as fh:
        magic, t, d = VSF_HEADER.unpack(fh.read(VSF_HEADER.size))
        if magic != b"VSF1":
            raise ValueError(f"{path}: not a VSF1 file")
        return np.frombuffer(fh.read(), dtype="<f4").astype(np.float64).reshape(t, d)


def write_dataset(out_dir, rng, lengths, dim):
    """Write one video per entry of lengths; returns the manifest path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    videos = []
    for index, frames in enumerate(lengths):
        video_id = f"video{index:03d}"
        mask = keyframe_blocks(rng, frames, keyframe_count(frames))
        center_other = rng.normal(0.0, 1.0, dim)
        direction = rng.normal(0.0, 1.0, dim)
        center_key = center_other + CLUSTER_SEPARATION * direction / np.linalg.norm(direction)
        feats = np.where(mask[:, None], center_key, center_other)
        feats += rng.normal(0.0, 1.0, (frames, dim))
        base = np.where(mask, 0.75, 0.25)
        scores = np.clip(base + rng.uniform(-0.15, 0.15, (USERS, frames)), 0.0, 1.0)
        summaries = np.zeros((USERS, frames), dtype=int)
        for user in range(USERS):
            summaries[user, np.argsort(-scores[user], kind="stable")[: keyframe_count(frames)]] = 1
        write_features(out / f"{video_id}.vsf", feats.astype(np.float32))
        with open(out / f"{video_id}.json", "w", encoding="utf-8") as fh:
            json.dump({"per_user_scores": scores.tolist(), "user_summaries": summaries.tolist()}, fh)
        videos.append({"id": video_id, "features": f"{video_id}.vsf", "annotations": f"{video_id}.json"})
    manifest = {
        "name": "bench",
        "feature_dim": dim,
        "subtask_size": SUBTASK_SIZE,
        "f_aggregate": "mean",
        "videos": videos,
    }
    path = out / "manifest.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
    return path


def video_files(manifest_path):
    """{video id: (feature path, annotation path)} from a manifest."""
    root = Path(manifest_path).parent
    with open(manifest_path, encoding="utf-8") as fh:
        videos = json.load(fh)["videos"]
    return {v["id"]: (root / v["features"], root / v["annotations"]) for v in videos}


def mean_scores(annotation_path):
    with open(annotation_path, encoding="utf-8") as fh:
        return np.asarray(json.load(fh)["per_user_scores"], dtype=np.float64).mean(axis=0)


def window_labels(scores, subtask_size):
    """Weak labels: 1 for every window holding one of the top 15% frames."""
    keyframes = np.zeros(scores.size, dtype=bool)
    keyframes[np.argsort(-scores, kind="stable")[: keyframe_count(scores.size)]] = True
    return np.array(
        [keyframes[s : s + subtask_size].any() for s in range(0, scores.size, subtask_size)],
        dtype=np.float64,
    )
