"""Unit tests for rotary positional embeddings."""

import numpy as np
import pytest

from segkit.errors import ShapeMismatchError
from segkit.rng import SplitMix64
from segkit.gradcheck import TOL, check_function
from segkit.rope import (
    _pair_tables,
    _rotate_pairs,
    _window_layout,
    axial_angles,
    freq_table,
    rope_attention,
)
from segkit.tensor import Tensor, mul, tsum

from pairwise_rotation import rotate_pairs_reference


def _positions(rows, cols):
    """Row-major (row, col) pairs of a rows x cols patch grid, [rows*cols, 2]."""
    return np.argwhere(np.ones((rows, cols), dtype=bool))


def _rotated(x, pos):
    """x [..., d] rotated at the 2D positions pos [..., 2] as attention
    rotates: its kernel, over the tables of the axial angles."""
    return _rotate_pairs(x, *_pair_tables(axial_angles(pos, freq_table(x.shape[-1])), x.dtype))


def _position(rng, hi):
    return np.array([rng.randint(0, hi), rng.randint(0, hi)])


def test_freq_table_spot_values_d8():
    ft = freq_table(8)
    assert ft.dtype == np.float64 and ft.shape == (4,)
    assert ft[0] == 1.0
    assert ft[1] == 0.1
    assert np.all(np.diff(ft) < 0)


def test_freq_table_rejects_odd_dim():
    with pytest.raises(ShapeMismatchError, match="^head_dim must be even and >= 2, got 7$"):
        freq_table(7)
    with pytest.raises(ShapeMismatchError, match="^head_dim must be even and >= 2, got 0$"):
        freq_table(0)


def test_norm_preservation_f64():
    rng = SplitMix64(0)
    for _ in range(1000):
        x = rng.uniform_array((8,), -2, 2)
        y = _rotated(x, _position(rng, 500))
        assert abs(np.linalg.norm(y) - np.linalg.norm(x)) < 1e-12


def test_norm_preservation_f32():
    rng = SplitMix64(1)
    for _ in range(200):
        x = rng.uniform_array((8,), -2, 2).astype(np.float32)
        y = _rotated(x, _position(rng, 100))
        assert y.dtype == np.float32
        assert abs(float(np.linalg.norm(y)) - float(np.linalg.norm(x))) < 1e-6


def test_relative_shift_identity():
    rng = SplitMix64(2)
    for _ in range(200):
        q = rng.uniform_array((8,), -1, 1)
        k = rng.uniform_array((8,), -1, 1)
        p1, p2 = _position(rng, 50), _position(rng, 50)
        delta = _position(rng, 20)
        a = float(_rotated(q, p1) @ _rotated(k, p2))
        b = float(_rotated(q, p1 + delta) @ _rotated(k, p2 + delta))
        assert abs(a - b) < 1e-5


def test_composition():
    rng = SplitMix64(3)
    for _ in range(200):
        x = rng.uniform_array((8,), -1, 1)
        p1, p2 = _position(rng, 40), _position(rng, 40)
        once = _rotated(x, p1 + p2)
        twice = _rotated(_rotated(x, p1), p2)
        assert np.max(np.abs(once - twice)) < 1e-6


def test_rotate_2d_needs_dim_divisible_by_4():
    with pytest.raises(ShapeMismatchError, match="^head_dim 6 must be divisible by 4$"):
        axial_angles((0, 0), freq_table(6))


def test_rotate_2d_matches_axial_halves():
    # the row index turns the first half's pairs, the column index the
    # second half's, each at the half-width table
    rng = SplitMix64(4)
    half = freq_table(4)
    for _ in range(50):
        x = rng.uniform_array((8,), -1, 1)
        py, px = rng.randint(0, 9), rng.randint(0, 9)
        got = _rotated(x, (py, px))
        lo = rotate_pairs_reference(x[:4], np.cos(py * half), np.sin(py * half))
        hi = rotate_pairs_reference(x[4:], np.cos(px * half), np.sin(px * half))
        assert np.max(np.abs(got - np.concatenate([lo, hi]))) < 1e-12


def test_rotate_2d_relative_shift_both_axes():
    # on the cached tables attention rotates with: a 12x12 grid, global
    rows = cols = 12
    _, _, _, c2, s2 = _window_layout(rows, cols, 0, 0, 8, np.dtype(np.float64))
    c2, s2 = c2.reshape(rows, cols, 8), s2.reshape(rows, cols, 8)

    def rot(x, pos):
        return _rotate_pairs(x, c2[tuple(pos)], s2[tuple(pos)])

    rng = SplitMix64(5)
    for _ in range(100):
        q = rng.uniform_array((8,), -1, 1)
        k = rng.uniform_array((8,), -1, 1)
        p1, p2 = _position(rng, 7), _position(rng, 7)
        delta = _position(rng, 5)
        a = float(rot(q, p1) @ rot(k, p2))
        b = float(rot(q, p1 + delta) @ rot(k, p2 + delta))
        assert abs(a - b) < 1e-5


def _pack(q, k, v):
    """One head's q, k, v [T, d] as a packed [1, T, 3d] input."""
    return Tensor(np.concatenate([q, k, v], axis=-1)[None])


def test_rope_attention_matches_manual_recompute():
    rng = SplitMix64(6)
    q, k, v = (rng.uniform_array((4, 8), -1, 1) for _ in range(3))
    out = rope_attention(_pack(q, k, v), (2, 2), 1).data[0]

    theta = axial_angles(_positions(2, 2), freq_table(8))
    qr = rotate_pairs_reference(q, np.cos(theta), np.sin(theta))
    kr = rotate_pairs_reference(k, np.cos(theta), np.sin(theta))
    scores = qr @ kr.T / np.sqrt(8.0)
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    attn = e / e.sum(axis=1, keepdims=True)
    assert np.max(np.abs(out - attn @ v)) < 1e-10
    # convexity of the attention weights
    assert np.all(attn >= 0)
    assert np.max(np.abs(attn.sum(axis=1) - 1.0)) < 1e-6


def test_rope_attention_convex_combination_property():
    # constant V columns must pass through attention unchanged
    rng = SplitMix64(7)
    q, k = rng.uniform_array((4, 8), -1, 1), rng.uniform_array((4, 8), -1, 1)
    v = np.tile(np.array([2.0, -3.0, 0.5, 1.0, 0.0, -1.5, 4.0, 0.25]), (4, 1))
    out = rope_attention(_pack(q, k, v), (2, 2), 1).data[0]
    assert np.max(np.abs(out - v)) < 1e-6


def test_rope_attention_batched_matches_per_slice():
    # [N, T, 3d] inputs with 3 heads attend sample by sample and head by head
    grid = (2, 3)
    rng = SplitMix64(8)
    qkv = rng.uniform_array((2, 6, 3 * 3 * 8), -1, 1)
    out = rope_attention(Tensor(qkv), grid, 3).data
    for n in range(2):
        for h in range(3):
            q, k, v = (qkv[n, :, j * 24 + h * 8:j * 24 + (h + 1) * 8] for j in range(3))
            ref = rope_attention(_pack(q, k, v), grid, 1).data[0]
            assert np.max(np.abs(out[n, :, h * 8:(h + 1) * 8] - ref)) < 1e-12


def test_rope_attention_token_count_mismatch():
    with pytest.raises(ShapeMismatchError):
        rope_attention(Tensor(np.zeros((1, 3, 24))), (2, 2), 1)


def test_rope_attention_rejects_bad_packing_window_and_shift():
    grid = (4, 4)
    x = Tensor(np.zeros((1, 16, 48)))
    for kwargs in (dict(n_heads=0), dict(n_heads=5),
                   dict(n_heads=2, window=3), dict(n_heads=2, window=-2),
                   dict(n_heads=2, window=2, shift=2), dict(n_heads=2, shift=1)):
        with pytest.raises(ShapeMismatchError):
            rope_attention(x, grid, **kwargs)


# (qkv shape, grid, n_heads, window, shift, rope): the layouts of the tests
# in this file, and a grid of one token, where attention's gathered
# [3, N, head, tile, token, dh] buffer has qkv's own layout
_LAYOUTS = [((1, 4, 24), (2, 2), 1, 0, 0, True), ((2, 6, 72), (2, 3), 3, 0, 0, True),
            ((1, 6, 24), (2, 3), 1, 0, 0, True), ((2, 96, 48), (8, 12), 2, 4, 0, True),
            ((2, 96, 48), (8, 12), 2, 4, 2, False), ((2, 16, 48), (4, 4), 2, 4, 2, True),
            ((1, 32, 12), (4, 8), 1, 4, 2, True), ((1, 32, 12), (4, 8), 1, 4, 2, False),
            ((1, 1, 12), (1, 1), 1, 0, 0, True), ((1, 1, 12), (1, 1), 1, 0, 0, False),
            ((1, 1, 12), (1, 1), 2, 0, 0, False)]


@pytest.mark.parametrize("shape,grid,n_heads,window,shift,use_rope", _LAYOUTS)
def test_rope_attention_leaves_its_input_unchanged(shape, grid, n_heads, window, shift, use_rope):
    # it rotates and scales in place, in a buffer that must never be qkv
    qkv = SplitMix64(14).uniform_array(shape, -1, 1)
    before = qkv.tobytes()
    out = rope_attention(Tensor(qkv, requires_grad=True), grid, n_heads, window=window,
                         shift=shift, rope=use_rope)
    out._backward_fn(np.ones(out.shape))
    assert qkv.tobytes() == before


def _dense_windowed(qkv, grid, ft, n_heads, window, shift):
    """Windowed attention as global attention under a [T, T] mask built from
    patch coordinates: two tokens attend when the cyclic shift puts them in
    the same tile and moves neither across an edge the other stays behind."""
    n, t, d3 = qkv.shape
    d = d3 // 3
    dh = d // n_heads
    pos = _positions(*grid)
    allowed = np.ones((t, t), dtype=bool)
    for axis, extent in enumerate(grid):
        s = shift if window < extent else 0
        p = pos[:, axis]
        ps = (p - s) % extent
        allowed &= ps[:, None] // window == ps[None, :] // window
        allowed &= ps[:, None] - ps[None, :] == p[:, None] - p[None, :]
    if ft is not None:
        theta = axial_angles(pos, ft)
        cos, sin = np.cos(theta), np.sin(theta)
    out = np.zeros((n, t, d))
    for b in range(n):
        for h in range(n_heads):
            q, k, v = (qkv[b, :, j * d + h * dh:j * d + (h + 1) * dh].astype(np.float64)
                       for j in range(3))
            if ft is not None:
                q, k = rotate_pairs_reference(q, cos, sin), rotate_pairs_reference(k, cos, sin)
            scores = np.where(allowed, q @ k.T / np.sqrt(dh), -np.inf)
            e = np.exp(scores - scores.max(axis=1, keepdims=True))
            out[b, :, h * dh:(h + 1) * dh] = (e / e.sum(axis=1, keepdims=True)) @ v
    return out


@pytest.mark.parametrize("shift", [0, 2])
@pytest.mark.parametrize("use_rope", [True, False])
def test_windowed_attention_matches_masked_dense_reference(shift, use_rope):
    # non-square 8x12 grid, 4x4 windows: an unshifted and a shifted block
    grid = (8, 12)
    ft = freq_table(8) if use_rope else None
    qkv = SplitMix64(9).uniform_array((2, 96, 3 * 2 * 8), -2, 2).astype(np.float32)
    out = rope_attention(Tensor(qkv), grid, 2, window=4, shift=shift, rope=use_rope).data
    assert out.dtype == np.float32
    ref = _dense_windowed(qkv, grid, ft, 2, 4, shift)
    assert np.max(np.abs(out - ref)) < 1e-6


def test_window_covering_a_square_grid_is_global_attention_bitwise():
    grid = (4, 4)
    qkv = SplitMix64(10).uniform_array((2, 16, 48), -1, 1).astype(np.float32)
    weight = Tensor(SplitMix64(11).uniform_array((2, 16, 16), -1, 1).astype(np.float32))
    outs, grads = [], []
    for window, shift in ((0, 0), (4, 0), (4, 2)):
        x = Tensor(qkv.copy(), requires_grad=True)
        out = rope_attention(x, grid, 2, window=window, shift=shift)
        tsum(mul(out, weight)).backward()
        outs.append(out.data)
        grads.append(x.grad)
    for out, grad in zip(outs[1:], grads[1:]):
        assert np.array_equal(out, outs[0]) and np.array_equal(grad, grads[0])


@pytest.mark.parametrize("use_rope", [True, False])
def test_shifted_window_gradient_matches_central_differences(use_rope):
    # 4x8 grid with 4x4 windows: only the column axis shifts
    grid = (4, 8)
    weight = Tensor(SplitMix64(12).uniform_array((1, 32, 4), -1, 1))
    err = check_function(
        lambda u: tsum(mul(rope_attention(u, grid, 1, window=4, shift=2, rope=use_rope), weight)),
        SplitMix64(13).uniform_array((1, 32, 12), -1, 1))
    assert err <= TOL


def test_window_layout_is_a_cached_read_only_permutation():
    f32 = np.dtype(np.float32)
    perm, inv, mask, c2, s2 = _window_layout(8, 12, 4, 2, 8, f32)
    assert _window_layout(8, 12, 4, 2, 8, f32)[0] is perm
    assert sorted(perm.tolist()) == list(range(96))
    assert np.array_equal(perm[inv], np.arange(96))
    assert mask.shape == (6, 16, 16) and mask.dtype == np.float32
    assert set(np.unique(mask).tolist()) == {0.0, -np.inf}
    # the tables keep each token's global position, in tile order: cosines
    # twice, (c_i, c_i), and sines as (-s_i, +s_i), flat
    theta = axial_angles(_positions(8, 12)[perm], freq_table(8)).astype(f32)
    assert c2.shape == s2.shape == (96 * 8,)
    assert np.array_equal(c2.reshape(96, 4, 2), np.stack([np.cos(theta)] * 2, axis=-1))
    assert np.array_equal(s2.reshape(96, 4, 2), np.stack([-np.sin(theta), np.sin(theta)], -1))
    for arr in (perm, inv, mask, c2, s2):
        assert not arr.flags.writeable
    # unshifted windows wrap nothing; one tile over the whole grid is global
    assert _window_layout(8, 12, 4, 0, None, f32)[2:] == (None, None, None)
    assert _window_layout(4, 4, 4, 2, None, f32) == (None,) * 5


def test_freq_table_frozen():
    ft = freq_table(8)
    assert not ft.flags.writeable
    with pytest.raises(ValueError):
        ft[0] = 2.0


def test_every_other_entry_is_the_half_width_table():
    # axial_angles takes each half's table as freqs[::2]: bitwise the table
    # of half the head dimension
    for d in range(4, 1025, 4):
        assert freq_table(d)[::2].tobytes() == freq_table(d // 2).tobytes()
    # and the attention tables are those of the angles at an explicit half table
    for rows, cols, window, shift, dh in ((8, 12, 4, 0, 8), (8, 12, 4, 2, 16), (4, 4, 0, 0, 12)):
        for dtype in (np.dtype(np.float32), np.dtype(np.float64)):
            perm, _, _, c2, s2 = _window_layout(rows, cols, window, shift, dh, dtype)
            pos = _positions(rows, cols)
            pos = pos if perm is None else pos[perm]
            half = freq_table(dh // 2)
            theta = np.concatenate([pos[:, :1] * half, pos[:, 1:] * half], axis=1)
            want_c2, want_s2 = _pair_tables(theta, dtype)
            assert c2.tobytes() == want_c2.tobytes() and s2.tobytes() == want_s2.tobytes()
