"""Rotary position embeddings as pure geometry, on attention's own tables.

Shows the three properties that make RoPE useful: rotations preserve
vector norms, attention logits depend only on relative offsets, and
rotations compose additively in position.  Every rotation here is the one
the segmentation model's attention runs: its pair rotation over the cosine
and sine tables it caches for a patch grid, one row per patch.
"""

import numpy as np

from segkit.rng import SplitMix64
from segkit.rope import _rotate_pairs, _window_layout, freq_table

print("frequencies:", freq_table(8))  # 1, 0.1, 0.01, 0.001 for d=8

# global attention over a 32x32 patch grid, head width 8: row-major tables
rows = cols = 32
_, _, _, c2, s2 = _window_layout(rows, cols, 0, 0, 8, np.dtype(np.float64))
c2, s2 = c2.reshape(rows, cols, 8), s2.reshape(rows, cols, 8)


def rot(x, pos):
    """x rotated at the patch pos = (row, col)."""
    return _rotate_pairs(x, c2[pos], s2[pos])


rng = SplitMix64(0)
q = rng.uniform_array((8,), -1, 1)
k = rng.uniform_array((8,), -1, 1)

# norm preservation
for p in ((0, 0), (1, 0), (17, 3), (31, 30)):
    print(f"p={str(p):8s}  |q|={np.linalg.norm(q):.12f}  |R(p)q|={np.linalg.norm(rot(q, p)):.12f}")

# relative-position property: <R(m)q, R(n)k> depends only on m - n
base = float(rot(q, (7, 2)) @ rot(k, (3, 5)))
shifted = float(rot(q, (27, 12)) @ rot(k, (23, 15)))
print(f"logit at (7,2),(3,5)    : {base:.12f}")
print(f"logit at (27,12),(23,15): {shifted:.12f}  (same offset, same logit)")

# composition: R(a+b) == R(b) applied after R(a)
once = rot(q, (11, 9))
twice = rot(rot(q, (4, 6)), (7, 3))
print("composition max dev:", float(np.max(np.abs(once - twice))))

# axial: the row turns the first half of the pairs, the column the second
print("column 5 leaves the first half:", np.array_equal(rot(q, (0, 5))[:4], q[:4]))
