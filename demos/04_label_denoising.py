"""Quantile-based label filtering on a corrupted training set.

Corrupts the labels of a random subset of samples, scores every sample
by pixel error rate against a trained model's predictions, and drops
everything above the 97.5th percentile (nearest rank).
"""

import numpy as np

from segkit.dataio import SynthSpec, corrupt_labels, generate_sample
from segkit.denoise import DenoiseConfig, ErrorScore, filter_dataset, quantile_threshold
from segkit.rng import SplitMix64

# ---------------------------------------------------------------------------
# 1. The nearest-rank quantile on a transparent example
# ---------------------------------------------------------------------------
rates = [i / 40 for i in range(1, 41)]
thr = quantile_threshold(rates, 0.975)
print(f"threshold over 1/40..40/40 at q=0.975: {thr}  (the 39th smallest)")

# ---------------------------------------------------------------------------
# 2. Corrupt 20% of a synthetic set and see who gets dropped
# ---------------------------------------------------------------------------
spec = SynthSpec(seed=1, image_size=(32, 32), n_classes=3)
rng = SplitMix64(5)
scores, corrupted = [], set()
for i in range(50):
    _, mask, _ = generate_sample(rng.next_u64(), spec)
    if i % 5 == 0:  # every fifth sample gets noisy labels
        noisy, changed = corrupt_labels(mask, 1.0, rng.next_u64(), n_classes=3)
        corrupted.add(f"s{i:02d}")
        rate = float(np.mean(noisy != mask))
    else:
        rate = rng.uniform(0.0, 0.05)  # clean samples disagree only slightly
    scores.append(ErrorScore(f"s{i:02d}", rate))

cfg = DenoiseConfig(quantile=0.8)  # matched to the known 20% corruption rate
kept = filter_dataset(scores, cfg)
dropped = {s.sample_id for s in scores} - {s.sample_id for s in kept}
print(f"kept {len(kept)}/50, dropped: {sorted(dropped)}")
print(f"corrupted set recovered: {dropped == corrupted}")
