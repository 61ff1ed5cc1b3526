"""Evaluation: F score against user summaries, rank correlations, CV reports.

Precision here is overlap / |ground truth| and recall is overlap /
|generated summary|. That is the reverse of the usual naming convention,
kept deliberately; the F score is invariant under the swap. Kendall's tau
uses the tie-corrected tau-b form with exact integer pair counts; Spearman's
rho is the Pearson correlation of average ranks.

evaluate_run reads a fold's held-out videos from their feature files one
scoring batch (policy.SCORE_BATCH videos) at a time, scores them in one
policy.greedy_scores call, measures them, and drops them before the next
batch, so a run holds at most SCORE_BATCH videos' features at a time. The
checkpoints it loads hold their parameters only, with no gradients
(nn.ParamStore).
"""

from __future__ import annotations

import json
import logging
import math
import time
import warnings
from pathlib import Path

import numpy as np

from .data import ConfigurationError, json_text, num_subtasks
from .kts import check_memory
from .nn import load_checkpoint
from .policy import SCORE_BATCH, check_checkpoint, greedy_scores
from .summarize import DEFAULT_BUDGET_FRACTION, make_summary

log = logging.getLogger("hiersum.evaluation")

# the report keys each `evaluate --metric` choice computes, and no others
METRIC_KEYS = {"f": ("F",), "tau": ("tau",), "rho": ("rho",), "all": ("F", "tau", "rho")}
METRIC_CHOICES = tuple(METRIC_KEYS)
# frames per row block of kendall_tau's pair counts: O(64 n) scratch, 0.7 MB at
# n=400, and faster there than blocks of 32, 128 or 256
_TAU_BLOCK_ROWS = 64


def f_score(truth_mask, generated_mask):
    """Return (precision, recall, F) between two binary frame masks.

    precision = overlap / |truth|, recall = overlap / |generated|.
    """
    a = np.asarray(truth_mask).astype(bool)
    b = np.asarray(generated_mask).astype(bool)
    if a.shape != b.shape:
        raise ValueError(f"mask lengths differ: {a.shape[0]} vs {b.shape[0]}")
    size_a = int(a.sum())
    size_b = int(b.sum())
    if size_a == 0 or size_b == 0:
        warnings.warn("empty summary mask; F score defined as 0", stacklevel=2)
        return 0.0, 0.0, 0.0
    overlap = int((a & b).sum())
    if overlap == 0:
        return 0.0, 0.0, 0.0
    precision = overlap / size_a
    recall = overlap / size_b
    return precision, recall, 2.0 * precision * recall / (precision + recall)


def f_score_multi(user_summaries, generated_mask, mode):
    """Combine per-user F scores by max or mean."""
    if mode not in ("max", "mean"):
        raise ValueError(f"mode must be 'max' or 'mean', got {mode!r}")
    values = [f_score(user, generated_mask)[2] for user in np.asarray(user_summaries)]
    if not values:
        raise ValueError("need at least one user summary")
    return max(values) if mode == "max" else sum(values) / len(values)


def _tie_term(values):
    _, counts = np.unique(values, return_counts=True)
    return int((counts * (counts - 1) // 2).sum())


def kendall_tau(pred, truth):
    """Tie-corrected Kendall tau-b from exact integer pair counts."""
    p = np.asarray(pred, dtype=np.float64)
    q = np.asarray(truth, dtype=np.float64)
    if p.shape != q.shape or p.ndim != 1 or p.shape[0] < 2:
        raise ValueError("need two equal-length vectors with at least 2 entries")
    n = p.shape[0]
    concordant = 0
    discordant = 0
    for i0 in range(0, n - 1, _TAU_BLOCK_ROWS):
        i1 = min(i0 + _TAU_BLOCK_ROWS, n - 1)
        # s[r, c] compares frames i0+r and i0+c; only c > r is a pair
        s = np.sign(p[i0:] - p[i0:i1, None]) * np.sign(q[i0:] - q[i0:i1, None])
        s = np.triu(s, 1)
        concordant += int(np.count_nonzero(s > 0))
        discordant += int(np.count_nonzero(s < 0))
    n0 = n * (n - 1) // 2
    n1 = _tie_term(p)
    n2 = _tie_term(q)
    if n0 == n1 or n0 == n2:
        warnings.warn("constant input; Kendall tau defined as 0", stacklevel=2)
        return 0.0
    return (concordant - discordant) / math.sqrt((n0 - n1) * (n0 - n2))


def _average_ranks(values):
    """1-based ranks of a 1-D vector, each tie group sharing the mean of its ranks.

    Equals scipy.stats.rankdata(values, method="average") bit for bit,
    including all-NaN ranks for a vector holding a NaN.
    """
    if np.isnan(values).any():
        return np.full(values.shape, np.nan)
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    ends = np.append(starts[1:], values.size)
    ranks = np.empty(values.size)
    # the group sorted into positions [start, end) holds ranks start + 1 .. end
    ranks[order] = np.repeat(0.5 * (starts + ends + 1), ends - starts)
    return ranks


def spearman_rho(pred, truth):
    """Pearson correlation of average ranks (ties share the mean rank)."""
    p = np.asarray(pred, dtype=np.float64)
    q = np.asarray(truth, dtype=np.float64)
    if p.shape != q.shape or p.ndim != 1 or p.shape[0] < 2:
        raise ValueError("need two equal-length vectors with at least 2 entries")
    ra = _average_ranks(p)
    rb = _average_ranks(q)
    da = ra - ra.mean()
    db = rb - rb.mean()
    denom = math.sqrt(np.sum(da * da) * np.sum(db * db))
    if denom == 0.0:
        warnings.warn("constant input; Spearman rho defined as 0", stacklevel=2)
        return 0.0
    return float(np.sum(da * db)) / denom


# ---------------------------------------------------------------------------
# run evaluation harness


def video_truth_masks(video):
    """Per-user binary summaries if annotated, else the derived keyframes."""
    if video.user_summaries is not None:
        return video.user_summaries
    return video.keyframes[None, :]


def video_f_for_mask(video, frame_mask, mode):
    return f_score_multi(video_truth_masks(video), frame_mask, mode)


def evaluate_video(
    video,
    scores,
    keys,
    f_mode,
    budget_fraction=DEFAULT_BUDGET_FRACTION,
    max_shots=None,
    penalty_weight=1.0,
):
    """Return the metrics named in keys ("F", "tau", "rho") of one video's model scores.

    Only "F" segments the video and runs the knapsack; tau and rho compare
    the scores with the mean human scores directly.
    """
    result = {"video_id": video.video_id}
    if "F" in keys:
        summary = make_summary(
            video.features,
            scores,
            budget_fraction=budget_fraction,
            max_shots=max_shots,
            penalty_weight=penalty_weight,
        )
        result["F"] = video_f_for_mask(video, summary.frame_mask, f_mode)
    if "tau" in keys:
        result["tau"] = kendall_tau(scores, video.mean_scores)
    if "rho" in keys:
        result["rho"] = spearman_rho(scores, video.mean_scores)
    return result


def load_run_folds(run_dir):
    folds_path = Path(run_dir) / "folds.json"
    if not folds_path.exists():
        raise ConfigurationError(f"{run_dir}: missing folds.json (not a training run?)")
    with open(folds_path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigurationError(f"{folds_path}: not valid JSON ({exc})") from None
    if not isinstance(doc, dict) or "folds" not in doc:
        raise ConfigurationError(f"{folds_path}: missing field 'folds'")
    folds = doc["folds"]
    if not (
        isinstance(folds, list)
        and folds
        and all(isinstance(ids, list) for ids in folds)
        and all(isinstance(video_id, str) for ids in folds for video_id in ids)
    ):
        raise ConfigurationError(
            f"{folds_path}: field 'folds' must be a non-empty list of lists of video ids"
        )
    seen = set()
    for k, ids in enumerate(folds):
        if not ids:
            raise ConfigurationError(f"{folds_path}: fold {k} holds out no videos")
        for video_id in ids:
            if video_id in seen:
                raise ConfigurationError(f"{folds_path}: video '{video_id}' is held out twice")
            seen.add(video_id)
    setting = doc.get("setting", "canonical")
    if setting not in ("canonical", "single"):
        raise ConfigurationError(
            f"{folds_path}: field 'setting' is {setting!r}, not 'canonical' or 'single'"
        )
    return folds, setting


def evaluate_run(
    run_dir,
    dataset,
    metric="all",
    budget_fraction=DEFAULT_BUDGET_FRACTION,
    max_shots=None,
    penalty_weight=1.0,
):
    """Evaluate every fold checkpoint of a training run on its held-out videos.

    Each fold's videos are scored and measured in batches (_evaluate_fold);
    the metrics METRIC_KEYS[metric] names run per video, and only those
    (evaluate_video). The dataset holds no features (data.load_dataset).
    Every held-out video is checked before the first fold: against
    kts.check_memory when F is wanted, and for the 2 frames tau and rho need
    when either is wanted. The report's labels_per_video is the mean count
    of weak labels over the evaluated videos, each at the subtask size of
    its own fold's checkpoint.
    """
    if metric not in METRIC_KEYS:
        raise ValueError(f"metric must be one of {METRIC_CHOICES}, got {metric!r}")
    keys = METRIC_KEYS[metric]
    run_dir = Path(run_dir)
    folds, setting = load_run_folds(run_dir)
    for video_ids in folds:
        for video_id in video_ids:
            try:
                num_frames = dataset.by_id(video_id).num_frames
            except KeyError:
                raise ConfigurationError(
                    f"{run_dir / 'folds.json'}: video '{video_id}' is not in "
                    f"dataset '{dataset.manifest.name}'"
                ) from None
            if "F" in keys:
                feature_dim = dataset.manifest.feature_dim
                check_memory(num_frames, feature_dim, max_shots, f"video '{video_id}'")
            if num_frames < 2 and ("tau" in keys or "rho" in keys):
                raise ConfigurationError(
                    f"video '{video_id}' has {num_frames} frame, but tau and rho need at least 2"
                )
    source = f"dataset '{dataset.manifest.name}'"
    labels = []
    per_fold = []
    for k, video_ids in enumerate(folds):
        start = time.perf_counter()
        ckpt_path = run_dir / f"fold{k}.ckpt"
        if not ckpt_path.exists():
            raise ConfigurationError(f"missing fold checkpoint {ckpt_path}")
        store, meta = load_checkpoint(ckpt_path)
        check_checkpoint(ckpt_path, store, meta, dataset.manifest.feature_dim, source)
        videos = [dataset.by_id(video_id) for video_id in video_ids]
        labels.extend(num_subtasks(v.num_frames, meta["subtask_size"]) for v in videos)
        results = _evaluate_fold(
            store,
            videos,
            meta["subtask_size"],
            keys,
            dataset.manifest.f_aggregate,
            budget_fraction=budget_fraction,
            max_shots=max_shots,
            penalty_weight=penalty_weight,
        )
        entry = {"fold": k, "num_videos": len(results)}
        for key in keys:
            entry[key] = float(np.mean([r[key] for r in results]))
        per_fold.append(entry)
        log.info(
            "fold %d: %d videos%s (%.3f s)",
            k,
            len(results),
            "".join(f", {key}={entry[key]:.4f}" for key in keys),
            time.perf_counter() - start,
        )

    report = {
        "dataset": dataset.manifest.name,
        "setting": setting,
        "per_fold": per_fold,
        "labels_per_video": float(np.mean(labels)),
    }
    for key in keys:
        report[f"mean_{key}"] = float(np.mean([entry[key] for entry in per_fold]))
    return report


def _evaluate_fold(store, videos, subtask_size, keys, f_mode, **summary_options):
    """evaluate_video of each of a fold's videos under its checkpoint's store.

    The videos go SCORE_BATCH at a time, each batch scored by one
    greedy_scores call. A batch's features are read once here (Video.read),
    for both the scores and the segmentation, and freed before the next
    batch reads its own.
    """
    results = []
    for first in range(0, len(videos), SCORE_BATCH):
        batch = [video.read() for video in videos[first : first + SCORE_BATCH]]
        scores = greedy_scores(store, [v.features for v in batch], subtask_size)
        results += [
            evaluate_video(video, video_scores, keys, f_mode, **summary_options)
            for video, video_scores in zip(batch, scores)
        ]
        del batch, scores  # before the next batch is read
    return results


def save_report(path, report):
    """Write the report as indented JSON; one with a NaN or infinity raises
    ValueError before the file is opened (data.json_text)."""
    text = json_text(report, path, indent=2, sort_keys=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
