"""Deterministic seeded PRNG (SplitMix64) for reproducible initialization,
shuffling and synthetic data generation.

All randomness in the toolkit flows through this generator so that runs are
bitwise reproducible from their seeds, independent of numpy's global state.
"""

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix(z: np.ndarray) -> np.ndarray:
    """Finalization mix of SplitMix64, vectorized over uint64 arrays."""
    with np.errstate(over="ignore"):
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))


class SplitMix64:
    """SplitMix64: 64-bit state, one multiply-shift-xor round per output."""

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK
        z = int(_mix(np.uint64(self.state)))
        return z

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        # 53 mantissa bits -> uniform double in [0, 1)
        u = self.next_u64() >> 11
        return lo + (hi - lo) * (u / float(1 << 53))

    def uniform_array(self, shape, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
        """Vectorized block of uniforms; consumes n states from the stream."""
        n = int(np.prod(shape))
        ks = np.arange(1, n + 1, dtype=np.uint64)
        with np.errstate(over="ignore"):
            states = np.uint64(self.state) + ks * np.uint64(_GAMMA)
        self.state = (self.state + n * _GAMMA) & _MASK
        u = _mix(states) >> np.uint64(11)
        vals = u.astype(np.float64) / float(1 << 53)
        return (lo + (hi - lo) * vals).reshape(shape)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi)."""
        if hi <= lo:
            raise ValueError("empty range")
        span = hi - lo
        # rejection sampling to avoid modulo bias
        limit = (_MASK + 1) - ((_MASK + 1) % span)
        while True:
            v = self.next_u64()
            if v < limit:
                return lo + v % span

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(0, i + 1)
            items[i], items[j] = items[j], items[i]
