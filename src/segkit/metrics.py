"""Confusion-matrix IoU machinery and the per-robot weighted mIoU aggregation.

Counts accumulate as exact integers (rows = ground truth, columns =
prediction); division happens only at read-out in f64.  Classes absent from
both prediction and ground truth have undefined IoU and are skipped, not
scored as 0 or 1.  The challenge's "other" class is a normal class index
placed in the exclusion set, so it still shows up in the confusion counts
but never in mIoU.  Ground-truth pixels labelled ``IGNORE`` are not counted.
"""

import numpy as np

from .errors import MissingRobotError, SegkitError, ShapeMismatchError

__all__ = [
    "IGNORE",
    "ConfusionMatrix",
    "GOOSE_WEIGHTS",
    "class_iou",
    "miou",
    "weighted_miou",
    "miou_bruteforce",
]

IGNORE = -1  # the label of an unlabelled pixel; 255 in a P5 mask file

# Test-split proportions of the four robot platforms.
GOOSE_WEIGHTS = {"MuCAR-3": 0.67, "ALICE": 0.24, "Spot v2": 0.06, "Spot v1": 0.03}


class ConfusionMatrix:
    def __init__(self, n_classes: int):
        self.n_classes = int(n_classes)
        self.counts = np.zeros((self.n_classes, self.n_classes), dtype=np.int64)

    def update(self, pred, gt) -> "ConfusionMatrix":
        pred = np.asarray(pred)
        gt = np.asarray(gt)
        if pred.shape != gt.shape:
            raise ShapeMismatchError(f"pred {pred.shape} vs gt {gt.shape}")
        valid = gt != IGNORE
        k = self.n_classes
        if np.any((gt[valid] < 0) | (gt[valid] >= k)) or np.any((pred[valid] < 0) | (pred[valid] >= k)):
            raise SegkitError(f"class ids must be in [0,{k})")
        idx = k * gt[valid].astype(np.int64) + pred[valid].astype(np.int64)
        self.counts += np.bincount(idx, minlength=k * k).reshape(k, k)
        return self

    def merge(self, other: "ConfusionMatrix") -> "ConfusionMatrix":
        if other.n_classes != self.n_classes:
            raise ShapeMismatchError("class counts differ")
        self.counts += other.counts
        return self


def class_iou(cm: ConfusionMatrix, k: int):
    """IoU of class k, or None when the class is absent from both masks (0/0)."""
    if not 0 <= k < cm.n_classes:
        raise SegkitError(f"class {k} for K={cm.n_classes}")
    inter = int(cm.counts[k, k])
    union = int(cm.counts[k, :].sum() + cm.counts[:, k].sum() - cm.counts[k, k])
    if union == 0:
        return None
    return inter / union


def miou(cm: ConfusionMatrix, excluded_classes=()) -> float:
    excluded = set(excluded_classes)
    vals = [class_iou(cm, k) for k in range(cm.n_classes) if k not in excluded]
    vals = [v for v in vals if v is not None]
    if not vals:
        raise SegkitError("no class with defined IoU remains")
    return float(sum(vals) / len(vals))


def weighted_miou(per_robot: dict, weights: dict = GOOSE_WEIGHTS) -> float:
    missing = [r for r in weights if r not in per_robot]
    if missing:
        raise MissingRobotError(f"missing robots: {missing}")
    return float(sum(w * per_robot[r] for r, w in weights.items()))


def miou_bruteforce(pred, gt, n_classes: int, excluded_classes=()):
    """Independent mIoU oracle: per-pixel set counting, no confusion matrix."""
    pred = np.asarray(pred).reshape(-1)
    gt = np.asarray(gt).reshape(-1)
    excluded = set(excluded_classes)
    vals = []
    for k in range(n_classes):
        if k in excluded:
            continue
        inter = union = 0
        for p, g in zip(pred, gt):
            if g == IGNORE:
                continue
            in_p = p == k
            in_g = g == k
            if in_p and in_g:
                inter += 1
            if in_p or in_g:
                union += 1
        if union > 0:
            vals.append(inter / union)
    if not vals:
        raise SegkitError("no class with defined IoU remains")
    return float(sum(vals) / len(vals))
