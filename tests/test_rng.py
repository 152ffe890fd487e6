"""Unit tests for the deterministic RNG."""

import numpy as np

from segkit.rng import SplitMix64


def test_same_seed_same_stream():
    a = SplitMix64(42)
    b = SplitMix64(42)
    assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]


def test_uniform_array_matches_scalar_stream_determinism():
    a = SplitMix64(7).uniform_array((100,), -1, 1)
    b = SplitMix64(7).uniform_array((100,), -1, 1)
    assert np.array_equal(a, b)
    assert a.min() >= -1 and a.max() <= 1


def test_randint_bounds_and_coverage():
    rng = SplitMix64(3)
    draws = [rng.randint(0, 5) for _ in range(500)]
    assert min(draws) == 0 and max(draws) == 4
    assert set(draws) == {0, 1, 2, 3, 4}


def test_shuffle_is_permutation():
    rng = SplitMix64(9)
    xs = list(range(20))
    ys = list(xs)
    rng.shuffle(ys)
    assert sorted(ys) == xs and ys != xs
