"""Unit tests for quantile-based label denoising."""

import math

import numpy as np
import pytest

from segkit.denoise import (
    DenoiseConfig,
    ErrorScore,
    filter_dataset,
    pixel_error_rate,
    quantile_threshold,
)
from segkit.errors import ConfigInvalidError, SegkitError, ShapeMismatchError
from segkit.rng import SplitMix64


def _scores(rates):
    return [ErrorScore(sample_id=f"s{i}", error_rate=r)
            for i, r in enumerate(rates)]


class TestPixelErrorRate:
    def test_hand_values(self):
        gt = np.array([[0, 1], [2, 0]])
        pred = np.array([[0, 1], [0, 0]])
        assert pixel_error_rate(pred, gt) == 0.25

    def test_ignore_index(self):
        gt = np.array([[0, -1], [-1, -1]])
        pred = np.array([[1, 0], [0, 0]])
        assert pixel_error_rate(pred, gt) == 1.0

    def test_all_ignored_is_zero(self):
        assert pixel_error_rate(np.zeros((2, 2)), np.full((2, 2), -1)) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            pixel_error_rate(np.zeros((2, 2)), np.zeros((3, 3)))

    def test_deterministic(self):
        rng = SplitMix64(0)
        pred = (rng.uniform_array((16, 16)) * 3).astype(int)
        gt = (rng.uniform_array((16, 16)) * 3).astype(int)
        assert pixel_error_rate(pred, gt) == pixel_error_rate(pred, gt)


class TestQuantileThreshold:
    def test_nearest_rank_definition(self):
        # ceil(0.975 * 40) = 39 -> 39th smallest of 1..40 is 39
        assert quantile_threshold(list(range(1, 41)), 0.975) == 39

    def test_empty_list(self):
        with pytest.raises(ShapeMismatchError, match="^quantile of empty list$"):
            quantile_threshold([], 0.5)

    def test_q_out_of_range(self):
        with pytest.raises(ValueError):
            quantile_threshold([1.0], 0.0)
        with pytest.raises(ValueError):
            quantile_threshold([1.0], 1.0)

    def test_array_input_is_read_flat(self):
        errs = np.array([[0.1, 0.2], [0.3, 0.9]], dtype=np.float32)
        # ceil(0.75 * 4) = 3 -> the 3rd smallest
        assert quantile_threshold(errs, 0.75) == np.float32(0.3)
        rng = SplitMix64(4)
        for n in (1, 7, 64):
            a = rng.uniform_array((n,), 0.0, 1.0)
            for q in (0.1, 0.5, 0.975):
                want = sorted(a.tolist())[math.ceil(q * n) - 1]
                assert quantile_threshold(a, q) == quantile_threshold(a.tolist(), q) == want


class TestFilterDataset:
    @pytest.mark.parametrize("n,expected_drops", [(40, 1), (200, 5), (1000, 25)])
    def test_exact_drop_counts_distinct_scores(self, n, expected_drops):
        rng = SplitMix64(n)
        rates = list(rng.uniform_array((n,), 0.0, 1.0))
        assert len(set(rates)) == n
        kept = filter_dataset(_scores(rates), DenoiseConfig())
        assert len(kept) == n - expected_drops
        kept_rates = {s.error_rate for s in kept}
        dropped_rates = set(rates) - kept_rates
        assert max(kept_rates) < min(dropped_rates)

    def test_all_ties_drop_nothing(self):
        kept = filter_dataset(_scores([0.3] * 50), DenoiseConfig())
        assert len(kept) == 50

    def test_never_drops_minimum(self):
        rng = SplitMix64(1)
        for trial in range(20):
            rates = list(rng.uniform_array((30,), 0.0, 1.0))
            kept = filter_dataset(_scores(rates), DenoiseConfig(quantile=0.5))
            assert min(rates) in {s.error_rate for s in kept}

    def test_monotonicity_under_perturbation(self):
        # raising one sample's error rate (a) never rescues that sample if it
        # was dropped and (b) never evicts any other previously kept sample
        rng = SplitMix64(2)
        cfg = DenoiseConfig(quantile=0.9)
        for trial in range(100):
            rates = list(rng.uniform_array((25,), 0.0, 1.0))
            base_kept = {s.sample_id for s in filter_dataset(_scores(rates), cfg)}
            i = rng.randint(0, len(rates))
            bumped = list(rates)
            bumped[i] = min(1.0, bumped[i] + rng.uniform(0.0, 1.0))
            new_kept = {s.sample_id for s in filter_dataset(_scores(bumped), cfg)}
            if f"s{i}" not in base_kept:
                assert f"s{i}" not in new_kept
            for j in range(25):
                if j != i and f"s{j}" in base_kept:
                    assert f"s{j}" in new_kept

    def test_keep_decision_monotone_in_score(self):
        # whenever a sample is kept, every sample with a lower or equal score
        # is kept too
        rng = SplitMix64(3)
        for trial in range(20):
            rates = list(rng.uniform_array((30,), 0.0, 1.0))
            kept = filter_dataset(_scores(rates), DenoiseConfig(quantile=0.8))
            cutoff = max(s.error_rate for s in kept)
            assert all(f"s{j}" in {s.sample_id for s in kept}
                       for j, r in enumerate(rates) if r <= cutoff)

    def test_order_preserved(self):
        rates = [0.5, 0.1, 0.9, 0.2]
        kept = filter_dataset(_scores(rates), DenoiseConfig(quantile=0.6))
        ids = [s.sample_id for s in kept]
        assert ids == sorted(ids, key=lambda s: int(s[1:]))

    def test_unscored_record_rejected(self):
        bad = _scores([0.1, 0.2])
        bad[1].error_rate = None
        with pytest.raises(SegkitError, match="^record 's1' has no error score$"):
            filter_dataset(bad, DenoiseConfig())


class TestConfigAndWeights:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            DenoiseConfig(quantile=1.5)
        with pytest.raises(ValueError):
            DenoiseConfig(mode="bogus")
        with pytest.raises(ValueError):
            DenoiseConfig(mode="downweight_pixels")
        assert DenoiseConfig().quantile == 0.975

    def test_config_error_is_typed_and_a_value_error(self):
        with pytest.raises(ConfigInvalidError, match="quantile"):
            DenoiseConfig(quantile=0.0)
        assert issubclass(ConfigInvalidError, ValueError)
