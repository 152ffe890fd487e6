"""The reference rotation the attention tests compare against: the
pairwise form, written apart from ``segkit.rope``'s pair-swap kernel."""

import numpy as np


def rotate_pairs_reference(x, cos, sin):
    """The pairs (e, o) = (x_{2i}, x_{2i+1}) of x's last axis rotated by
    the angles whose cosines and sines cos and sin [..., i] hold:
    (e·c - o·s, e·s + o·c)."""
    even = x[..., 0::2]
    odd = x[..., 1::2]
    out = np.empty_like(x)
    out[..., 0::2] = even * cos - odd * sin
    out[..., 1::2] = even * sin + odd * cos
    return out
