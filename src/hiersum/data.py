"""Dataset types, on-disk formats, ground-truth derivation, frame partitions, and a
synthetic generator.

A frame partition (the subtasks of a video, or its KTS shots) is one int64
bounds array ``[0, b1, ..., T]``: block i is ``[bounds[i], bounds[i + 1])``.
subtask_bounds tiles a video into fixed-size subtasks, and block_means takes
the mean of per-frame values over each block of any partition.

On disk, a dataset is a JSON manifest pointing at one binary feature file and
one JSON annotation file per video. Feature files carry the magic ``VSF1``,
then the frame count T and feature dimension D as unsigned 32-bit
little-endian integers, then T*D IEEE-754 float32 little-endian values in
row-major order. Annotation files store per-user importance scores (and
optionally per-user binary summaries); keyframes and task-level labels are
derived, never stored, the labels at train time from the run's subtask size.

load_dataset reads and checks every feature file once, then keeps each
video's path and shape but not its payload: a computation reads the file
again, with the same checks, when it uses the features, and holds the float32
matrix the file stores, 4*T*D bytes, only while it does. All arithmetic is
float64: every computation that reads the features widens them first, one
video at a time, and the widening is exact.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .seeding import substream

FEATURE_MAGIC = b"VSF1"
_FEATURE_HEADER = struct.Struct("<4sII")

DEFAULT_KEYFRAME_FRACTION = 0.15


class ValidationError(ValueError):
    """Dataset contents violate a format or consistency rule."""


class ConfigurationError(RuntimeError):
    """A run directory, checkpoint, or dataset does not fit the requested operation."""


def budget_count(fraction, total):
    """ceil(fraction * total) with a guard against float products landing
    one ulp off an exact integer (0.15 * 200 style)."""
    return max(1, math.ceil(fraction * total - 1e-9))


def subtask_bounds(num_frames, subtask_size):
    """Bounds ``[0, s, 2s, ..., T]`` of the blocks of ``subtask_size`` frames tiling ``[0, T)``.

    Block i is ``[bounds[i], bounds[i + 1])``. Only the last block may be
    shorter; there is no padding.
    """
    if subtask_size < 1:
        raise ValueError(f"subtask_size must be >= 1, got {subtask_size}")
    if num_frames < 1:
        raise ValueError(f"num_frames must be >= 1, got {num_frames}")
    return np.append(np.arange(0, num_frames, subtask_size, dtype=np.int64), num_frames)


def num_subtasks(num_frames, subtask_size):
    return subtask_bounds(num_frames, subtask_size).size - 1


def block_means(values, bounds):
    """Mean of ``values`` over each block ``[bounds[i], bounds[i + 1])`` of a frame partition.

    Each block takes its own ``.mean()``: ``np.add.reduceat`` over the starts,
    divided by the lengths, would move many means by an ulp.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.shape[0] != bounds[-1]:
        raise ValueError(f"{values.shape[0]} values for a partition of {bounds[-1]} frames")
    edges = np.asarray(bounds).tolist()
    return np.array([values[start:end].mean() for start, end in zip(edges[:-1], edges[1:])])


def derive_keyframes(mean_scores):
    """Mark the ceil(DEFAULT_KEYFRAME_FRACTION * T) highest-scoring frames as keyframes.

    Ties break toward the lower frame index.
    """
    scores = np.asarray(mean_scores, dtype=np.float64)
    if scores.ndim != 1 or scores.size < 1:
        raise ValueError("mean_scores must be a non-empty 1-D vector")
    if not np.all(np.isfinite(scores)):
        raise ValueError("mean_scores contain non-finite values")
    k = budget_count(DEFAULT_KEYFRAME_FRACTION, scores.size)
    order = np.argsort(-scores, kind="stable")
    keyframes = np.zeros(scores.size, dtype=np.uint8)
    keyframes[order[:k]] = 1
    return keyframes


def derive_task_labels(keyframes, subtask_size):
    """Label each subtask 1 iff any of its frames is a keyframe."""
    p = np.asarray(keyframes).astype(bool)
    starts = subtask_bounds(p.size, subtask_size)[:-1]
    return np.logical_or.reduceat(p, starts).astype(np.uint8)


# ---------------------------------------------------------------------------
# file formats


def write_features(path, features):
    """Write a (T, D) matrix in the binary feature format."""
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim != 2:
        raise ValueError("features must be 2-D")
    t, d = feats.shape
    payload = feats.astype("<f4").tobytes(order="C")
    with open(path, "wb") as fh:
        fh.write(_FEATURE_HEADER.pack(FEATURE_MAGIC, t, d))
        fh.write(payload)


def read_features(path):
    """Read a binary feature file back into a read-only (T, D) float32 matrix over its payload."""
    path = Path(path)
    with open(path, "rb") as fh:
        header = fh.read(_FEATURE_HEADER.size)
        if len(header) != _FEATURE_HEADER.size:
            raise ValidationError(f"{path}: truncated feature header")
        magic, t, d = _FEATURE_HEADER.unpack(header)
        if magic != FEATURE_MAGIC:
            raise ValidationError(f"{path}: bad magic {magic!r}, expected {FEATURE_MAGIC!r}")
        if t < 1 or d < 1:
            raise ValidationError(f"{path}: empty {t}x{d} feature matrix")
        payload = fh.read()
    expected = 4 * t * d
    if len(payload) != expected:
        raise ValidationError(
            f"{path}: expected {expected} payload bytes for {t}x{d}, got {len(payload)}"
        )
    return np.frombuffer(payload, dtype="<f4").reshape(t, d)


def check_finite_features(features, where):
    """Raise ValidationError naming `where` unless every feature value is finite."""
    if not np.all(np.isfinite(features)):
        raise ValidationError(f"{where}: features contain non-finite values")


def write_annotations(path, per_user_scores, user_summaries=None):
    doc = {"per_user_scores": np.asarray(per_user_scores, dtype=np.float64).tolist()}
    if user_summaries is not None:
        doc["user_summaries"] = np.asarray(user_summaries).astype(int).tolist()
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


def json_text(doc, where, **kwargs):
    """doc as JSON text ending in a newline, for the file or stream named by where.

    NaN and infinity are not JSON: a doc holding one raises ValueError naming
    where, so callers serialize before opening a file and leave none behind.
    """
    try:
        return json.dumps(doc, allow_nan=False, **kwargs) + "\n"
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def _read_json_object(path, what):
    """Parse a JSON file that must hold an object; anything else is a ValidationError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValidationError(f"{path}: invalid {what} JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: {what} JSON is not an object")
    return doc


def read_annotations(path):
    path = Path(path)
    doc = _read_json_object(path, "annotation")
    if "per_user_scores" not in doc:
        raise ValidationError(f"{path}: missing 'per_user_scores'")
    try:
        scores = np.asarray(doc["per_user_scores"], dtype=np.float64)
        summaries = None
        if doc.get("user_summaries") is not None:
            summaries = np.asarray(doc["user_summaries"], dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{path}: annotations are not numeric arrays ({exc})") from None
    return scores, summaries


@dataclass(frozen=True)
class VideoEntry:
    video_id: str
    features: str  # path relative to the manifest
    annotations: str


@dataclass
class DatasetManifest:
    name: str
    feature_dim: int
    videos: list[VideoEntry]
    f_aggregate: str = "mean"  # per-user F-score combination: "max" or "mean"
    root: Path | None = None  # directory of the manifest file, not serialized

    def to_json(self):
        doc = {
            "name": self.name,
            "feature_dim": int(self.feature_dim),
            "f_aggregate": self.f_aggregate,
            "videos": [
                {"id": v.video_id, "features": v.features, "annotations": v.annotations}
                for v in self.videos
            ],
        }
        return doc


def save_manifest(path, manifest):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest.to_json(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_manifest(path):
    """Read and check a manifest; unknown keys (older ones carry subtask_size) are ignored."""
    path = Path(path)
    doc = _read_json_object(path, "manifest")
    for key in ("name", "feature_dim", "videos"):
        if key not in doc:
            raise ValidationError(f"{path}: manifest missing '{key}'")
    if type(doc["feature_dim"]) is not int or doc["feature_dim"] < 1:
        raise ValidationError(f"{path}: 'feature_dim' must be a positive integer")
    f_aggregate = doc.get("f_aggregate", "mean")
    if f_aggregate not in ("max", "mean"):
        raise ValidationError(f"{path}: f_aggregate must be 'max' or 'mean'")
    if not isinstance(doc["videos"], list):
        raise ValidationError(f"{path}: 'videos' must be a list")
    keys = ("id", "features", "annotations")
    for i, v in enumerate(doc["videos"]):
        if not (isinstance(v, dict) and all(isinstance(v.get(k), str) for k in keys)):
            raise ValidationError(f"{path}: video entry {i} needs string fields {keys}")
    videos = [
        VideoEntry(video_id=v["id"], features=v["features"], annotations=v["annotations"])
        for v in doc["videos"]
    ]
    seen = set()
    for video in videos:
        if video.video_id in seen:
            raise ValidationError(f"{path}: duplicate video id '{video.video_id}'")
        seen.add(video.video_id)
    return DatasetManifest(
        name=doc["name"],
        feature_dim=doc["feature_dim"],
        videos=videos,
        f_aggregate=f_aggregate,
        root=path.parent,
    )


class Video:
    """One video's frame features and multi-user importance scores, checked together.

    The checks name the video and raise ValidationError. mean_scores and the
    keyframes are derived from the scores; user_summaries, when given, must
    hold only 0 and 1 (or booleans) and are kept as uint8 masks.

    features is a (T, D) matrix, one row per (already subsampled) frame:
    float32 is kept as given (as a feature file stores it) and anything else
    becomes float64; computations widen it to float64. Given the path of the
    feature file it was read from, a video keeps that path and the shape but
    not the matrix, and each access to `features` reads the file again
    (with_features).
    """

    def __init__(self, video_id, features, per_user_scores, user_summaries=None, path=None):
        feats = features
        if not (isinstance(feats, np.ndarray) and feats.dtype == np.float32):
            feats = np.asarray(feats, dtype=np.float64)
        scores = np.asarray(per_user_scores, dtype=np.float64)
        if feats.ndim != 2 or feats.shape[0] < 1 or feats.shape[1] < 1:
            raise ValidationError(f"video '{video_id}': features must be a non-empty 2-D matrix")
        if scores.ndim != 2 or scores.shape[1] != feats.shape[0]:
            raise ValidationError(
                f"video '{video_id}': {feats.shape[0]} feature rows but "
                f"annotation scores have shape {scores.shape}"
            )
        check_finite_features(feats, f"video '{video_id}'")
        zero_frames = np.flatnonzero(~feats.any(axis=1))
        if zero_frames.size:
            # cosine dissimilarity in the diversity reward is undefined for them
            raise ValidationError(
                f"video '{video_id}': frame {zero_frames[0]} has all-zero features"
            )
        if scores.shape[0] < 1:
            raise ValidationError(
                f"video '{video_id}': per_user_scores must be a non-empty U x T matrix"
            )
        if not np.all(np.isfinite(scores)):
            raise ValidationError(f"video '{video_id}': per_user_scores contain non-finite values")
        if scores.min() < 0.0 or scores.max() > 1.0:
            raise ValidationError(f"video '{video_id}': per_user_scores must lie in [0, 1]")
        if user_summaries is not None:
            summaries = np.asarray(user_summaries)
            if summaries.shape != scores.shape:
                raise ValidationError(
                    f"video '{video_id}': user_summaries shape {summaries.shape} "
                    f"does not match per_user_scores shape {scores.shape}"
                )
            bad = np.argwhere(~np.isin(summaries, (0, 1)))
            if bad.size:
                user, frame = bad[0]
                raise ValidationError(
                    f"video '{video_id}': user_summaries must hold only 0 and 1, "
                    f"but user {user} frame {frame} is {summaries[user, frame]}"
                )
            user_summaries = summaries.astype(np.uint8)
        self.video_id = video_id
        self.per_user_scores = scores  # (U, T) float64 in [0, 1]
        self.user_summaries = user_summaries  # (U, T) uint8, or None
        self.mean_scores = scores.mean(axis=0)  # (T,)
        self.keyframes = derive_keyframes(self.mean_scores)  # (T,) uint8
        self.shape = feats.shape
        self.path = None if path is None else Path(path)
        self._features = feats if path is None else None

    @property
    def features(self):
        return self.with_features()._features

    @property
    def num_frames(self):
        return self.shape[0]

    def with_features(self):
        """This video holding its features matrix: itself if it holds one, else a copy read now.

        The copy comes from the same reader and the same checks as the first
        read, and must have the shape recorded then; a file that changed
        since raises ValidationError naming it. Code that uses a video's
        features more than once in one computation holds this copy.
        """
        if self._features is not None:
            return self
        try:
            video = Video(
                self.video_id, read_features(self.path), self.per_user_scores, self.user_summaries
            )
            if video.shape != self.shape:
                raise ValidationError(
                    f"{video.shape[0]}x{video.shape[1]} features, "
                    f"but {self.shape[0]}x{self.shape[1]} when loaded"
                )
        except ValidationError as exc:
            raise ValidationError(f"{self.path}: changed since it was loaded: {exc}") from None
        return video


@dataclass
class Dataset:
    manifest: DatasetManifest
    videos: list[Video]
    _by_id: dict = field(init=False, repr=False)

    def __post_init__(self):
        self._by_id = {video.video_id: video for video in self.videos}

    @property
    def video_ids(self):
        return [v.video_id for v in self.videos]

    def by_id(self, video_id):
        try:
            return self._by_id[video_id]
        except KeyError:
            raise KeyError(f"no video '{video_id}' in dataset '{self.manifest.name}'") from None


def load_dataset(manifest_path):
    """Load and check every video a manifest lists, keeping no feature payload.

    Each feature file is read and checked once here, before the dataset is
    returned; the loaded Video keeps its path and shape, and reads the file
    again when its features are used.
    """
    manifest = load_manifest(manifest_path)
    videos = []
    for entry in manifest.videos:
        path = manifest.root / entry.features
        feats = read_features(path)
        scores, summaries = read_annotations(manifest.root / entry.annotations)
        if feats.shape[1] != manifest.feature_dim:
            raise ValidationError(
                f"video '{entry.video_id}': feature dim {feats.shape[1]} "
                f"does not match manifest feature_dim {manifest.feature_dim}"
            )
        videos.append(Video(entry.video_id, feats, scores, user_summaries=summaries, path=path))
    return Dataset(manifest=manifest, videos=videos)


# ---------------------------------------------------------------------------
# synthetic data

_CLUSTER_SEPARATION = 6.0  # center distance in within-cluster standard deviations
_SCORE_BASE_KEY = 0.75
_SCORE_BASE_OTHER = 0.25
_SCORE_JITTER = 0.15


def _plant_keyframe_blocks(rng, num_frames, num_keyframes):
    """Place the keyframes as a few contiguous blocks, like real highlight segments."""
    blocks = int(rng.integers(2, 5))
    blocks = max(1, min(blocks, num_keyframes))
    sizes = np.full(blocks, num_keyframes // blocks, dtype=int)
    sizes[: num_keyframes % blocks] += 1
    gaps = rng.multinomial(num_frames - num_keyframes, np.full(blocks + 1, 1.0 / (blocks + 1)))
    mask = np.zeros(num_frames, dtype=bool)
    pos = 0
    for gap, size in zip(gaps[:-1], sizes):
        pos += int(gap)
        mask[pos : pos + size] = True
        pos += size
    return mask


def synthetic_video_bytes(frames, dims, users):
    """Bytes generate_synthetic holds at most while it makes and writes one video.

    Three float64 (T, D) feature arrays while the noise is added (numpy
    often reuses the noise's buffer, so two), and about 64 bytes per user
    score: the float64 (U, T) scores and summaries, their temporaries, and
    the Python lists the annotation JSON is written from. Videos are made
    one at a time, so this bounds a whole dataset.
    """
    return 24 * frames * dims + 64 * users * frames


def generate_synthetic(
    out_dir,
    seed,
    videos=20,
    frames=200,
    dims=16,
    keyframe_fraction=DEFAULT_KEYFRAME_FRACTION,
    users=3,
    name="synthetic",
):
    """Write a linearly separable synthetic dataset; returns the manifest path.

    Keyframe frames draw features around one Gaussian cluster center and the
    remaining frames around another, with the centers 6 within-cluster
    standard deviations apart. Per-user scores sit high on keyframes and low
    elsewhere with small jitter, so the derived keyframes recover the planted
    ones. Output is byte-identical for a given seed.
    """
    if min(videos, frames, dims, users) < 1:
        raise ValueError("videos, frames, dims, and users must be positive")
    if not 0.0 < keyframe_fraction < 1.0:
        raise ValueError(f"keyframe_fraction must be in (0, 1), got {keyframe_fraction}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    num_key = budget_count(keyframe_fraction, frames)
    entries = []
    for index in range(videos):
        rng = substream(seed, "video", index)
        video_id = f"video{index:03d}"
        mask = _plant_keyframe_blocks(rng, frames, num_key)

        center_other = rng.normal(0.0, 1.0, dims)
        direction = rng.normal(0.0, 1.0, dims)
        direction /= np.linalg.norm(direction)
        center_key = center_other + _CLUSTER_SEPARATION * direction
        feats = np.where(mask[:, None], center_key, center_other)
        feats = feats + rng.normal(0.0, 1.0, (frames, dims))

        base = np.where(mask, _SCORE_BASE_KEY, _SCORE_BASE_OTHER)
        scores = np.clip(
            base + rng.uniform(-_SCORE_JITTER, _SCORE_JITTER, (users, frames)), 0.0, 1.0
        )
        summaries = np.zeros((users, frames), dtype=np.uint8)
        for u in range(users):
            top = np.argsort(-scores[u], kind="stable")[:num_key]
            summaries[u, top] = 1

        feat_name = f"{video_id}.vsf"
        ann_name = f"{video_id}.json"
        write_features(out / feat_name, feats)
        write_annotations(out / ann_name, scores, summaries)
        entries.append(VideoEntry(video_id=video_id, features=feat_name, annotations=ann_name))

    manifest = DatasetManifest(
        name=name,
        feature_dim=dims,
        videos=entries,
        f_aggregate="mean",
        root=out,
    )
    manifest_path = out / "manifest.json"
    save_manifest(manifest_path, manifest)
    return manifest_path
