"""What the episode reward pays for.

Diversity likes selections whose features point in different directions;
representativeness likes selections close to every frame; the subgoal term
pays the Worker for matching the Manager's per-subtask probability with its
mean frame score.

Run:  python3 demos/rewards_tour.py
"""

import numpy as np

from hiersum import (
    block_means,
    diversity_reward,
    episode_reward,
    representativeness_reward,
    sub_reward,
    substream,
    subtask_bounds,
)
from hiersum.rewards import combine

rng = substream(3, "demo")

# two tight clusters of frames, far apart
cluster_a = np.array([3.0, 0.0]) + 0.1 * rng.normal(size=(10, 2))
cluster_b = np.array([0.0, 3.0]) + 0.1 * rng.normal(size=(10, 2))
feats = np.vstack([cluster_a, cluster_b])

selections = {
    "one frame": [0],
    "two frames, same cluster": [0, 1],
    "two frames, both clusters": [0, 10],
    "five frames, one cluster": [0, 1, 2, 3, 4],
    "one frame per cluster + spares": [0, 5, 10, 15],
    "everything": list(range(20)),
}

print(f"{'selection':32s} {'R_d':>7s} {'R_rep':>7s}")
for label, selected in selections.items():
    r_d = diversity_reward(feats, selected)
    r_rep = representativeness_reward(feats, selected)
    print(f"{label:32s} {r_d:7.4f} {r_rep:7.4f}")

print("\nsubgoal agreement: exp(-mean |worker subtask mean - manager probability|)")
for means, probs in [
    ([0.8, 0.2], [0.8, 0.2]),
    ([0.6, 0.4], [0.8, 0.2]),
    ([1.0], [0.0]),
]:
    print(f"  means {means} vs probs {probs} -> {sub_reward(means, probs):.5f}")

print("\nmixing weight alpha (1.0 = only diversity/representativeness):")
for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
    print(f"  alpha {alpha:4.2f}: combine(0.8, 0.4) = {combine(0.8, 0.4, alpha):.3f}")

# full breakdown for one sampled-looking episode
scores = np.clip(rng.uniform(0.2, 0.8, size=20), 0.0, 1.0)
score_means = block_means(scores, subtask_bounds(20, 10))
bd = episode_reward(feats, np.array([0, 4, 10, 17]), score_means, np.array([0.7, 0.6]))
print(f"\nfull breakdown: R_d={bd.r_d:.4f} R_rep={bd.r_rep:.4f} "
      f"R_dr={bd.r_dr:.4f} R_sub={bd.r_sub:.4f} -> R={bd.r:.4f} (alpha={bd.alpha})")
