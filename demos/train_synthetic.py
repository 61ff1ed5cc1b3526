"""End-to-end training on a synthetic dataset.

Generates a small labeled corpus, trains the two-level policy for a few
epochs, then compares summaries built from the trained frame scores against
summaries built from uniform random scores. Both sides go through the same
segmentation and knapsack pipeline, so the gap is all signal.

Takes about 40 seconds.

Run:  python3 demos/train_synthetic.py
"""

import tempfile
from pathlib import Path

import numpy as np

from hiersum import TrainConfig, generate_synthetic, greedy_scores, load_dataset, make_summary, substream, train
from hiersum.evaluation import video_f_for_mask
from hiersum.summarize import DEFAULT_BUDGET_FRACTION

SEED = 0


def main(data_dir):
    manifest_path = generate_synthetic(
        Path(data_dir) / "train_demo", seed=SEED, videos=20, frames=200, dims=16, users=3
    )
    # the loaded dataset keeps each feature file's path, not its payload: training
    # and scoring read the files again, so they stay on disk until the end
    dataset = load_dataset(manifest_path)
    print(f"dataset: {len(dataset.videos)} videos x {dataset.videos[0].num_frames} frames, "
          f"feature dim {dataset.manifest.feature_dim}")

    config = TrainConfig(epochs=40, seed=SEED)
    print(f"\ntraining for {config.epochs} epochs "
          f"({config.episodes} episodes/video, alpha={config.alpha}) ...")
    store, history = train(dataset.videos, dataset.manifest.feature_dim, config)

    rewards = [e["reward"] for e in history if e["phase"] == "worker"]
    lo, hi = min(rewards), max(rewards)
    print(f"\nmean episode reward per epoch ({lo:.4f} .. {hi:.4f}):")
    for epoch, r in enumerate(rewards):
        bar = "#" * int((r - lo) / (hi - lo + 1e-12) * 50)
        print(f"  epoch {epoch:2d}  {r:.4f}  {bar}")

    # random baseline: same pipeline, scores drawn uniform per video
    mode = dataset.manifest.f_aggregate
    rows = []
    for video in dataset.videos:
        feats = video.read().features
        scores = greedy_scores(store, [feats], config.subtask_size)[0]
        summary = make_summary(feats, scores)
        f_trained = video_f_for_mask(video, summary.frame_mask, mode)

        rand = substream(SEED, "baseline", video.video_id).random(video.num_frames)
        summary = make_summary(feats, rand)
        f_random = video_f_for_mask(video, summary.frame_mask, mode)
        rows.append((video.video_id, f_trained, f_random))

    print(f"\nkeyshot F ({mode} over users), budget {DEFAULT_BUDGET_FRACTION:.2f}:")
    print(f"  {'video':10s} {'trained':>8s} {'random':>8s}")
    for video_id, f_trained, f_random in rows:
        print(f"  {video_id:10s} {f_trained:8.4f} {f_random:8.4f}")

    mean_trained = float(np.mean([r[1] for r in rows]))
    mean_random = float(np.mean([r[2] for r in rows]))
    print(f"  {'mean':10s} {mean_trained:8.4f} {mean_random:8.4f}"
          f"   (gap {mean_trained - mean_random:+.4f})")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        main(tmp)
