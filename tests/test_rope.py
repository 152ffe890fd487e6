"""Unit tests for rotary positional embeddings."""

import numpy as np
import pytest

from segkit.errors import DimNotDivisibleBy4Error, OddHeadDimError, ShapeMismatchError
from segkit.rng import SplitMix64
from segkit.rope import (
    FreqTable,
    PatchGrid,
    angles,
    axial_angles,
    freq_table,
    rope_attention,
    rotate,
)
from segkit.tensor import Tensor


def test_freq_table_spot_values_d8():
    ft = freq_table(8)
    assert ft.freqs[0] == 1.0
    assert ft.freqs[1] == 0.1
    assert np.all(np.diff(ft.freqs) < 0)


def test_freq_table_rejects_odd_dim():
    with pytest.raises(OddHeadDimError):
        freq_table(7)
    with pytest.raises(OddHeadDimError):
        freq_table(0)


def test_half_table():
    ft = freq_table(8)
    half = ft.half_table()
    assert half.head_dim == 4
    assert half.freqs.shape == (2,)


def test_patch_grid_positions_row_major():
    pos = PatchGrid(2, 3).positions()
    assert pos.tolist() == [[0, 0], [0, 1], [0, 2], [1, 0], [1, 1], [1, 2]]


def test_norm_preservation_f64():
    ft = freq_table(8)
    rng = SplitMix64(0)
    for _ in range(1000):
        x = Tensor(rng.uniform_array((8,), -2, 2))
        p = rng.randint(0, 500)
        y = rotate(x, angles(p, ft))
        assert abs(np.linalg.norm(y.data) - np.linalg.norm(x.data)) < 1e-12


def test_norm_preservation_f32():
    ft = freq_table(8)
    rng = SplitMix64(1)
    for _ in range(200):
        x = Tensor(rng.uniform_array((8,), -2, 2).astype(np.float32))
        y = rotate(x, angles(rng.randint(0, 100), ft))
        assert abs(float(np.linalg.norm(y.data)) - float(np.linalg.norm(x.data))) < 1e-6


def test_relative_shift_identity():
    ft = freq_table(8)
    rng = SplitMix64(2)
    for _ in range(200):
        q = Tensor(rng.uniform_array((8,), -1, 1))
        k = Tensor(rng.uniform_array((8,), -1, 1))
        p1, p2 = rng.randint(0, 50), rng.randint(0, 50)
        delta = rng.randint(0, 20)
        a = float(rotate(q, angles(p1, ft)).data @ rotate(k, angles(p2, ft)).data)
        b = float(rotate(q, angles(p1 + delta, ft)).data
                  @ rotate(k, angles(p2 + delta, ft)).data)
        assert abs(a - b) < 1e-5


def test_composition():
    ft = freq_table(8)
    rng = SplitMix64(3)
    for _ in range(200):
        x = Tensor(rng.uniform_array((8,), -1, 1))
        p1, p2 = rng.randint(0, 40), rng.randint(0, 40)
        once = rotate(x, angles(p1 + p2, ft)).data
        twice = rotate(rotate(x, angles(p1, ft)), angles(p2, ft)).data
        assert np.max(np.abs(once - twice)) < 1e-6


def test_rotate_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        rotate(Tensor(np.zeros(6)), angles(1, freq_table(8)))
    with pytest.raises(ShapeMismatchError):
        rotate(Tensor(np.zeros(8)), 0.5)  # one angle per pair, not a scalar


def test_rotate_2d_needs_dim_divisible_by_4():
    with pytest.raises(DimNotDivisibleBy4Error):
        axial_angles((0, 0), freq_table(6))


def test_rotate_2d_matches_axial_halves():
    ft = freq_table(8)
    rng = SplitMix64(4)
    half = ft.half_table()
    for _ in range(50):
        x = rng.uniform_array((8,), -1, 1)
        py, px = rng.randint(0, 9), rng.randint(0, 9)
        got = rotate(Tensor(x), axial_angles((py, px), ft)).data
        lo = rotate(Tensor(x[:4].copy()), angles(py, half)).data
        hi = rotate(Tensor(x[4:].copy()), angles(px, half)).data
        assert np.max(np.abs(got - np.concatenate([lo, hi]))) < 1e-12


def test_rotate_2d_relative_shift_both_axes():
    ft = freq_table(8)
    rng = SplitMix64(5)
    for _ in range(100):
        q = Tensor(rng.uniform_array((8,), -1, 1))
        k = Tensor(rng.uniform_array((8,), -1, 1))
        p1 = (rng.randint(0, 10), rng.randint(0, 10))
        p2 = (rng.randint(0, 10), rng.randint(0, 10))
        dy, dx = rng.randint(0, 5), rng.randint(0, 5)
        a = float(rotate(q, axial_angles(p1, ft)).data @ rotate(k, axial_angles(p2, ft)).data)
        b = float(rotate(q, axial_angles((p1[0] + dy, p1[1] + dx), ft)).data
                  @ rotate(k, axial_angles((p2[0] + dy, p2[1] + dx), ft)).data)
        assert abs(a - b) < 1e-5


def test_rope_attention_matches_manual_recompute():
    ft = freq_table(8)
    grid = PatchGrid(2, 2)
    rng = SplitMix64(6)
    q = rng.uniform_array((4, 8), -1, 1)
    k = rng.uniform_array((4, 8), -1, 1)
    v = rng.uniform_array((4, 5), -1, 1)
    out = rope_attention(Tensor(q), Tensor(k), Tensor(v), grid, ft).data

    pos = grid.positions()
    qr = np.stack([rotate(Tensor(q[i].copy()), axial_angles(tuple(pos[i]), ft)).data
                   for i in range(4)])
    kr = np.stack([rotate(Tensor(k[i].copy()), axial_angles(tuple(pos[i]), ft)).data
                   for i in range(4)])
    scores = qr @ kr.T / np.sqrt(8.0)
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    attn = e / e.sum(axis=1, keepdims=True)
    assert np.max(np.abs(out - attn @ v)) < 1e-10
    # convexity of the attention weights
    assert np.all(attn >= 0)
    assert np.max(np.abs(attn.sum(axis=1) - 1.0)) < 1e-6


def test_rope_attention_convex_combination_property():
    # constant V columns must pass through attention unchanged
    ft = freq_table(8)
    grid = PatchGrid(2, 2)
    rng = SplitMix64(7)
    q = Tensor(rng.uniform_array((4, 8), -1, 1))
    k = Tensor(rng.uniform_array((4, 8), -1, 1))
    v = Tensor(np.tile(np.array([2.0, -3.0, 0.5]), (4, 1)))
    out = rope_attention(q, k, v, grid, ft).data
    assert np.max(np.abs(out - v.data)) < 1e-6


def test_rope_attention_batched_matches_per_slice():
    # [N, h, T, d] inputs attend slice by slice, as N*h separate [T, d] calls
    ft = freq_table(8)
    grid = PatchGrid(2, 3)
    rng = SplitMix64(8)
    q, k, v = (rng.uniform_array((2, 3, 6, 8), -1, 1) for _ in range(3))
    out = rope_attention(Tensor(q), Tensor(k), Tensor(v), grid, ft).data
    for n in range(2):
        for h in range(3):
            ref = rope_attention(Tensor(q[n, h]), Tensor(k[n, h]), Tensor(v[n, h]), grid, ft).data
            assert np.max(np.abs(out[n, h] - ref)) < 1e-12


def test_rope_attention_token_count_mismatch():
    ft = freq_table(8)
    with pytest.raises(ShapeMismatchError):
        rope_attention(Tensor(np.zeros((3, 8))), Tensor(np.zeros((3, 8))),
                       Tensor(np.zeros((3, 8))), PatchGrid(2, 2), ft)


def test_freq_table_frozen():
    ft = freq_table(8)
    assert isinstance(ft, FreqTable)
    with pytest.raises(Exception):
        ft.base = 2.0
