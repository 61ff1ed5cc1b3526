"""Change-point detection on synthetic signals.

The segmenter scores every candidate shot by its within-segment scatter
(computed from a Gram matrix in O(1) per lookup), solves the best m-shot
partition for every m by dynamic programming, and picks m with a penalized
criterion.

Run:  python3 demos/segmentation_demo.py
"""

import numpy as np

from hiersum import kts_segment, substream

rng = substream(7, "demo")

# clean two-block signal: the boundary must land exactly at frame 10
clean = np.vstack([np.tile([5.0, 0.0], (10, 1)), np.tile([0.0, 5.0], (10, 1))])
part = kts_segment(clean)
print(f"two clean blocks of 10 -> change points {part.change_points}, "
      f"shots {part.shots}")

# four noisy blocks with distinct directions
centers = 4.0 * np.eye(4)
noisy = np.repeat(centers, 15, axis=0) + 0.3 * rng.normal(size=(60, 4))
part = kts_segment(noisy, max_shots=6)
print(f"\nfour noisy blocks of 15 -> {part.num_shots} shots at {part.change_points}")

# the penalty weight trades boundary recall against over-segmentation
print("\npenalty sweep on the same signal:")
for weight in (0.0, 1.0, 5.0, 25.0):
    part = kts_segment(noisy, max_shots=6, penalty_weight=weight)
    print(f"  weight {weight:5.1f} -> {part.num_shots} shots at {part.change_points}")
