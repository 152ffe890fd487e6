"""End-to-end: synthesize a dataset, train the toy segmenter, evaluate
with per-robot weighted mIoU, and run the filter-retrain loop.

Small settings throughout; finishes in under a minute.
"""

import numpy as np

from segkit.dataio import SynthSpec, corrupt_labels, generate_sample
from segkit.denoise import DenoiseConfig
from segkit.metrics import GOOSE_WEIGHTS, ConfusionMatrix, miou, weighted_miou
from segkit.rng import SplitMix64
from segkit.segnet import (
    ModelConfig,
    TrainConfig,
    build_model,
    predict,
    train,
    train_with_denoise,
)

spec = SynthSpec(seed=1, image_size=(32, 32), n_classes=3, noise=0.1)
rng = SplitMix64(5)


def make(n):
    out = []
    for _ in range(n):
        img, mask, _ = generate_sample(rng.next_u64(), spec)
        out.append((img[None], mask))
    return out


train_pairs, val_pairs = make(48), make(16)

mc = ModelConfig(patch_size=4, embed_dim=32, n_blocks=1, n_heads=2, n_classes=3, seed=0)
model = build_model(mc)
report = train(model, train_pairs, TrainConfig(epochs=6, learning_rate=1e-3, seed=0),
               val_pairs=val_pairs)
print("val mIoU per epoch:", [f"{v:.3f}" for v in report.val_mious])

# per-robot aggregation: round-robin assignment, then the fixed platform weights
robots = list(GOOSE_WEIGHTS)
per_robot = {}
for r_i, robot in enumerate(robots):
    cm = ConfusionMatrix(3)
    for i, (img, mask) in enumerate(val_pairs):
        if i % len(robots) == r_i:
            cm.update(predict(model, img), mask)
    per_robot[robot] = miou(cm)
print("per-robot mIoU:", {k: f"{v:.3f}" for k, v in per_robot.items()})
print(f"weighted mIoU : {weighted_miou(per_robot):.3f}")

# filter-retrain: corrupt a third of the labels, let the loop drop them
noisy = []
for i, (img, mask) in enumerate(train_pairs):
    if i % 3 == 0:
        mask, _ = corrupt_labels(mask, 0.5, 1000 + i, n_classes=3)
    noisy.append((f"s{i:02d}", img, mask))
tc = TrainConfig(epochs=6, learning_rate=1e-3, seed=0,
                 denoise=DenoiseConfig(quantile=2 / 3))
model2, report2, freport = train_with_denoise(build_model(mc), noisy, tc, val_pairs=val_pairs)
print(f"dropped {len(freport.dropped_ids)}/48 samples "
      f"(threshold {freport.threshold:.3f})")
print(f"retrained val mIoU: {report2.val_mious[-1]:.3f}")
