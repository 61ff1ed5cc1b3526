"""Generate a small synthetic dataset, reload it, and inspect what is inside.

Run:  python3 demos/dataset_roundtrip.py [out_dir]

The demo writes two datasets, demo_data and demo_data_again, into out_dir,
which it keeps. Without out_dir they go to a temporary directory that is
removed when the demo ends.
"""

import sys
import tempfile
from pathlib import Path

import numpy as np

from hiersum import derive_task_labels, generate_synthetic, load_dataset, subtask_bounds
from hiersum.data import budget_count


def main(out_dir):
    manifest_path = generate_synthetic(
        out_dir / "demo_data", seed=42, videos=5, frames=80, dims=8, users=3
    )
    print(f"wrote dataset under {out_dir}")
    print(f"manifest: {manifest_path}")

    dataset = load_dataset(manifest_path)
    print(f"\ndataset '{dataset.manifest.name}': {len(dataset.videos)} videos, "
          f"feature dim {dataset.manifest.feature_dim}, "
          f"F aggregation '{dataset.manifest.f_aggregate}'")

    video = dataset.videos[0]
    print(f"\nfirst video: {video.video_id}")
    print(f"  features        {video.shape}")
    print(f"  per-user scores {video.per_user_scores.shape}")
    print(f"  keyframes       {int(video.keyframes.sum())} of {video.num_frames} "
          f"(budget_count(0.15, {video.num_frames}) = {budget_count(0.15, video.num_frames)})")

    # weak labels: one bit per fixed-length subtask saying "contains a keyframe",
    # derived at train time from the run's subtask size
    bounds = subtask_bounds(video.num_frames, 20)
    labels = derive_task_labels(video.keyframes, 20)
    print(f"  subtask bounds  {bounds.tolist()}")
    print(f"  task labels     {labels.tolist()}")
    for i, (start, end) in enumerate(zip(bounds[:-1], bounds[1:])):
        inside = int(video.keyframes[start:end].sum())
        print(f"    subtask {i} [{start}, {end}): {inside:2d} keyframes -> label {labels[i]}")

    # the generator is a pure function of its seed
    again = generate_synthetic(
        out_dir / "demo_data_again", seed=42, videos=5, frames=80, dims=8, users=3
    )
    same = load_dataset(again)
    identical = all(
        np.array_equal(a.read().features, b.read().features)
        for a, b in zip(dataset.videos, same.videos)
    )
    print(f"\nregenerated with the same seed -> identical features: {identical}")


if __name__ == "__main__":
    if len(sys.argv) > 1:
        main(Path(sys.argv[1]))  # a directory the caller chose is left in place
    else:
        with tempfile.TemporaryDirectory() as tmp:
            main(Path(tmp))
