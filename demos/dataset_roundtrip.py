"""Generate a small synthetic dataset, reload it, and inspect what is inside.

Run:  python3 demos/dataset_roundtrip.py [out_dir]

Without out_dir the datasets go to a temporary directory that is removed
when the demo ends; a given out_dir (and its sibling demo_data_again) is kept.
"""

import sys
import tempfile
from pathlib import Path

import numpy as np

from hiersum import derive_task_labels, generate_synthetic, load_dataset, subtask_views
from hiersum.data import budget_count


def main(out_dir):
    manifest_path = generate_synthetic(
        out_dir, seed=42, videos=5, frames=80, dims=8, subtask_size=20, users=3
    )
    print(f"wrote dataset under {out_dir}")
    print(f"manifest: {manifest_path}")

    dataset = load_dataset(manifest_path)
    print(f"\ndataset '{dataset.manifest.name}': {len(dataset.videos)} videos, "
          f"feature dim {dataset.manifest.feature_dim}, "
          f"F aggregation '{dataset.manifest.f_aggregate}'")

    video = dataset.videos[0]
    ann = video.annotations
    print(f"\nfirst video: {video.video_id}")
    print(f"  features        {video.features.features.shape}")
    print(f"  per-user scores {ann.per_user_scores.shape}")
    print(f"  keyframes       {int(ann.keyframes.sum())} of {video.num_frames} "
          f"(budget_count(0.15, {video.num_frames}) = {budget_count(0.15, video.num_frames)})")

    # weak labels: one bit per fixed-length subtask saying "contains a keyframe",
    # derived at train time from the run's subtask size
    views = subtask_views(video.num_frames, 20)
    labels = derive_task_labels(ann.keyframes, 20)
    print(f"  subtasks        {[(v.start, v.end) for v in views]}")
    print(f"  task labels     {labels.tolist()}")
    for v in views:
        inside = int(ann.keyframes[v.start:v.end].sum())
        print(f"    subtask {v.index}: {inside:2d} keyframes -> label {labels[v.index]}")

    # the generator is a pure function of its seed
    again = generate_synthetic(
        out_dir.parent / "demo_data_again", seed=42, videos=5, frames=80, dims=8,
        subtask_size=20, users=3,
    )
    same = load_dataset(again)
    identical = all(
        np.array_equal(a.features.features, b.features.features)
        for a, b in zip(dataset.videos, same.videos)
    )
    print(f"\nregenerated with the same seed -> identical features: {identical}")


if __name__ == "__main__":
    if len(sys.argv) > 1:
        main(Path(sys.argv[1]))  # a directory the caller chose is left in place
    else:
        with tempfile.TemporaryDirectory() as tmp:
            main(Path(tmp) / "demo_data")
