"""Unit tests for confusion-matrix mIoU and per-robot weighted aggregation."""

import numpy as np
import pytest

from segkit.errors import MissingRobotError, SegkitError, ShapeMismatchError
from segkit.metrics import (
    GOOSE_WEIGHTS,
    ConfusionMatrix,
    class_iou,
    miou,
    miou_bruteforce,
    weighted_miou,
)
from segkit.rng import SplitMix64


def _random_masks(rng, shape, k, ignore_frac=0.1):
    pred = (rng.uniform_array(shape) * k).astype(np.int64).clip(0, k - 1)
    gt = (rng.uniform_array(shape) * k).astype(np.int64).clip(0, k - 1)
    ignore = rng.uniform_array(shape) < ignore_frac
    gt = np.where(ignore, -1, gt)
    return pred, gt


class TestConfusionMatrix:
    def test_update_counts(self):
        cm = ConfusionMatrix(3)
        cm.update(np.array([0, 1, 2, 2]), np.array([0, 1, 1, 2]))
        assert cm.counts[1, 2] == 1 and cm.counts.trace() == 3
        assert cm.counts.sum() == 4

    def test_ignore_pixels_not_counted(self):
        cm = ConfusionMatrix(2)
        cm.update(np.array([0, 1]), np.array([-1, 1]))
        assert cm.counts.sum() == 1

    def test_class_out_of_range(self):
        with pytest.raises(SegkitError, match=r"^class ids must be in \[0,2\)$"):
            ConfusionMatrix(2).update(np.array([3]), np.array([0]))
        with pytest.raises(SegkitError, match="^class 5 for K=2$"):
            class_iou(ConfusionMatrix(2), 5)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            ConfusionMatrix(2).update(np.zeros(3, dtype=int), np.zeros(4, dtype=int))

    def test_update_order_independent(self):
        rng = SplitMix64(1)
        pred, gt = _random_masks(rng, (8, 8), 4)
        a = ConfusionMatrix(4).update(pred, gt)
        b = ConfusionMatrix(4)
        for i in range(8):  # row by row, reversed
            b.update(pred[7 - i], gt[7 - i])
        assert np.array_equal(a.counts, b.counts)

    def test_merge(self):
        rng = SplitMix64(2)
        p1, g1 = _random_masks(rng, (6, 6), 3)
        p2, g2 = _random_masks(rng, (6, 6), 3)
        whole = ConfusionMatrix(3).update(p1, g1).update(p2, g2)
        merged = ConfusionMatrix(3).update(p1, g1).merge(ConfusionMatrix(3).update(p2, g2))
        assert np.array_equal(whole.counts, merged.counts)
        with pytest.raises(ShapeMismatchError):
            ConfusionMatrix(3).merge(ConfusionMatrix(4))


class TestIoU:
    def test_worked_2x2_example(self):
        gt = np.array([[0, 0], [1, 1]])
        pred = np.array([[0, 1], [1, 1]])
        cm = ConfusionMatrix(2).update(pred, gt)
        assert class_iou(cm, 0) == 1 / 2
        assert class_iou(cm, 1) == 2 / 3
        assert abs(miou(cm) - 7 / 12) < 1e-15

    def test_absent_class_is_undefined_not_zero(self):
        cm = ConfusionMatrix(3).update(np.array([0, 1]), np.array([0, 1]))
        assert class_iou(cm, 2) is None
        assert miou(cm) == 1.0  # class 2 skipped

    def test_all_classes_excluded(self):
        cm = ConfusionMatrix(2).update(np.array([0]), np.array([0]))
        with pytest.raises(SegkitError, match="^no class with defined IoU remains$"):
            miou(cm, excluded_classes=(0, 1))

    def test_iou_bounds(self):
        rng = SplitMix64(3)
        for _ in range(20):
            pred, gt = _random_masks(rng, (10, 10), 5)
            cm = ConfusionMatrix(5).update(pred, gt)
            for k in range(5):
                v = class_iou(cm, k)
                assert v is None or 0.0 <= v <= 1.0

    def test_oracle_equivalence_100_trials(self):
        rng = SplitMix64(4)
        for _ in range(100):
            pred, gt = _random_masks(rng, (16, 16), 9)
            cm = ConfusionMatrix(9).update(pred, gt)
            assert miou(cm) == miou_bruteforce(pred, gt, 9)

    def test_oracle_equivalence_with_exclusions(self):
        rng = SplitMix64(5)
        for _ in range(10):
            pred, gt = _random_masks(rng, (16, 16), 9)
            cm = ConfusionMatrix(9).update(pred, gt)
            assert miou(cm, excluded_classes=(0, 8)) == miou_bruteforce(
                pred, gt, 9, excluded_classes=(0, 8))

    def test_permutation_invariance(self):
        rng = SplitMix64(6)
        perm = np.array([2, 0, 3, 1, 4])
        for _ in range(10):
            pred, gt = _random_masks(rng, (12, 12), 5)
            base = miou(ConfusionMatrix(5).update(pred, gt), excluded_classes=(1,))
            pp = np.where(pred >= 0, perm[pred], pred)
            gp = np.where(gt >= 0, perm[gt], gt)
            relabeled = miou(ConfusionMatrix(5).update(pp, gp),
                             excluded_classes=(int(perm[1]),))
            assert abs(base - relabeled) < 1e-12


class TestWeightedAggregation:
    def test_weights_sum_to_one(self):
        assert sum(GOOSE_WEIGHTS.values()) == 1.0
        assert GOOSE_WEIGHTS["MuCAR-3"] == 0.67
        assert GOOSE_WEIGHTS["ALICE"] == 0.24

    def test_hand_example(self):
        per_robot = {"MuCAR-3": 0.9, "ALICE": 0.8, "Spot v2": 0.7, "Spot v1": 0.6}
        assert abs(weighted_miou(per_robot) - 0.855) < 1e-12

    def test_missing_robot(self):
        with pytest.raises(MissingRobotError):
            weighted_miou({"MuCAR-3": 0.9})

    def test_extra_robots_ignored(self):
        per_robot = {r: 0.5 for r in GOOSE_WEIGHTS}
        per_robot["Unknown"] = 0.0
        assert abs(weighted_miou(per_robot) - 0.5) < 1e-12
