"""Rotary position embeddings as pure geometry.

Shows the three properties that make RoPE useful: rotations preserve
vector norms, attention logits depend only on relative offsets, and
rotations compose additively in position.
"""

import numpy as np

from segkit.rng import SplitMix64
from segkit.rope import angles, axial_angles, freq_table, rotate
from segkit.tensor import Tensor

ft = freq_table(8)
print("frequencies:", ft)  # 1, 0.1, 0.01, 0.001 for d=8, base=1e4

rng = SplitMix64(0)
q = Tensor(rng.uniform_array((8,), -1, 1))
k = Tensor(rng.uniform_array((8,), -1, 1))

# norm preservation
for p in (0, 1, 17, 400):
    r = rotate(q, angles(p, ft))
    print(f"p={p:3d}  |q|={np.linalg.norm(q.data):.12f}  "
          f"|R(p)q|={np.linalg.norm(r.data):.12f}")

# relative-position property: <R(m)q, R(n)k> depends only on m - n
base = float(rotate(q, angles(7, ft)).data @ rotate(k, angles(3, ft)).data)
shifted = float(rotate(q, angles(27, ft)).data @ rotate(k, angles(23, ft)).data)
print(f"logit at (7,3)  : {base:.12f}")
print(f"logit at (27,23): {shifted:.12f}  (same offset, same logit)")

# composition: R(a+b) == R(b) applied after R(a)
once = rotate(q, angles(11, ft)).data
twice = rotate(rotate(q, angles(4, ft)), angles(7, ft)).data
print("composition max dev:", float(np.max(np.abs(once - twice))))

# the 2D variant rotates the first half by row and the second half by column
r2 = rotate(q, axial_angles((2, 5), ft))
print("axial 2D rotation preserves norm too:",
      f"{np.linalg.norm(r2.data):.12f}")
