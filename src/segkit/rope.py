"""Rotary positional embedding for 2D image patches, inside attention.

Each query/key vector is split into 2D sub-vector pairs (x_{2i}, x_{2i+1});
pair i is rotated by the angle p * w_i where p is a patch coordinate and
w_i = ROPE_BASE^(-2i/d).  The rotation is axial: the first half of the
head dimension encodes the row index and the second half the column index,
each at the half table: every other entry of the d-wide frequency array,
bitwise the table of head_dim d/2.  Rotations touch Q and K only, so
relative position enters attention purely through the inner product.

Angles are computed in f64 and cast to the input dtype to avoid trig drift
for large positions.  The one rotation, ``_rotate_pairs``, runs in
pair-swap form, x·C2 + swap(x)·S2, with the cosines twice, (c_i, c_i), in
C2 and the sines as (-s_i, +s_i) in S2: bitwise the pairwise
(e·c - o·s, e·s + o·c), signed zeros included.

``rope_attention`` is the segmentation model's multi-head attention as one
graph node over the packed q/k/v projection: global, or within (shifted)
square windows as in a Swin Transformer, with or without the rotation.
Windows are a fixed token permutation of the grid, so rotations keep the
global patch coordinates and stay exactly relative inside a window.  The
softmax, and the row sums of its gradient in the backward, run on a
key-major copy of the scores, where every row's sum runs key by key from +0
whatever the number of rows: a chunk of one image and a chunk of nine give
each image the same bytes.
"""

import functools
import math

import numpy as np

from .errors import ShapeMismatchError
from .tensor import Tensor, _node

__all__ = ["freq_table", "axial_angles", "rope_attention"]

ROPE_BASE = 10000.0


def freq_table(head_dim: int) -> np.ndarray:
    """Read-only f64 frequencies w_i = ROPE_BASE^(-2i/head_dim), shape
    (head_dim/2,), strictly decreasing from 1."""
    if head_dim < 2 or head_dim % 2 != 0:
        raise ShapeMismatchError(f"head_dim must be even and >= 2, got {head_dim}")
    i = np.arange(head_dim // 2, dtype=np.float64)
    freqs = ROPE_BASE ** (-2.0 * i / head_dim)
    freqs.flags.writeable = False
    return freqs


def _rotate_pairs(x: np.ndarray, c2: np.ndarray, s2: np.ndarray, out=None) -> np.ndarray:
    """x·c2 + swap(x)·s2, where swap exchanges x_{2i} and x_{2i+1} along the
    last axis: the pairs of x rotated by the angles whose cosines c2 holds
    twice, (c_i, c_i), and whose sines s2 holds as (-s_i, +s_i), broadcast
    against x, into out (which may be x).  Bitwise the pairwise form
    (e·c - o·s, e·s + o·c), signed zeros included: e·c + o·(-s) is e·c - o·s
    and o·c + e·s is e·s + o·c in IEEE arithmetic."""
    sw = np.empty_like(x)
    sw[..., 0::2] = x[..., 1::2]
    sw[..., 1::2] = x[..., 0::2]
    sw *= s2
    out = np.multiply(x, c2, out)
    out += sw
    return out


def _pair_tables(theta, dtype):
    """(c2, s2) of ``_rotate_pairs`` for the angles theta [..., n], f64, each
    [..., 2n] in dtype."""
    th = np.asarray(theta).astype(dtype)
    cos, sin = np.cos(th), np.sin(th)
    s2 = np.stack([-sin, sin], axis=-1).reshape(cos.shape[:-1] + (-1,))
    return np.repeat(cos, 2, axis=-1), s2


def axial_angles(positions, freqs: np.ndarray) -> np.ndarray:
    """Axial 2D angles of positions [..., 2] (row, column): the row index
    times the half table, then the column index, shape [..., head_dim/2].

    ``freqs`` is the full ``freq_table(head_dim)``; the half table is every
    other entry, freqs[::2], bitwise ``freq_table(head_dim // 2)``.
    """
    if len(freqs) % 2 != 0:
        raise ShapeMismatchError(f"head_dim {2 * len(freqs)} must be divisible by 4")
    half = freqs[::2]
    pos = np.asarray(positions, dtype=np.float64)
    return np.concatenate([pos[..., :1] * half, pos[..., 1:] * half], axis=-1)


@functools.lru_cache(maxsize=16)
def _window_layout(rows: int, cols: int, window: int, shift: int, head_dim, dtype: np.dtype):
    """Read-only (perm, inv, mask, c2, s2) of attention on a patch grid.

    The grid is rolled by -shift along each axis longer than the window and
    cut into window x window tiles.  perm lists the row-major token indices
    tile by tile (tiles row-major, tokens row-major within a tile), so that
    x[:, perm] holds the tiles one after the other; inv is its inverse.
    mask [n_windows, w², w²] is 0 between two tokens of a tile and -inf when
    exactly one of them wrapped around an edge; it is None when none did.
    Global attention (window 0, or one tile covering the grid) has perm,
    inv and mask None and one tile of all T tokens.  c2 and s2, flat
    [T * head_dim], are the ``_rotate_pairs`` tables of the axial angles of
    the tokens' global positions in tile order, at ``freq_table(head_dim)``;
    they are None when head_dim is None.
    """
    perm = inv = mask = c2 = s2 = None
    if window and not window == rows == cols:
        tile = window * window
        sy = shift if window < rows else 0
        sx = shift if window < cols else 0
        # [tile row, tile col, row in tile, col in tile]
        ys = (np.arange(rows) + sy).reshape(rows // window, 1, window, 1)
        xs = (np.arange(cols) + sx).reshape(1, cols // window, 1, window)
        perm = ((ys % rows) * cols + xs % cols).reshape(-1)
        inv = np.argsort(perm)
        wrapped = (2 * (ys >= rows) + (xs >= cols)).reshape(-1, tile)
        if wrapped.any():
            mask = np.where(wrapped[:, :, None] != wrapped[:, None, :], -np.inf, 0.0).astype(dtype)
    if head_dim is not None:
        pos = np.stack(np.divmod(np.arange(rows * cols), cols), axis=1)  # row-major
        th = axial_angles(pos if perm is None else pos[perm], freq_table(head_dim))
        c2, s2 = (a.reshape(-1) for a in _pair_tables(th, dtype))
    for arr in (perm, inv, mask, c2, s2):
        if arr is not None:
            arr.flags.writeable = False
    return perm, inv, mask, c2, s2


def _softmax_rows(p: np.ndarray) -> np.ndarray:
    """Softmax over the last axis of the scores p [..., L]: exp(p - max) / sum.

    Every pass runs on a key-major copy [L, R] of the R rows, and one
    transposed copy returns the result.  numpy reduces the leading axis of a
    C-contiguous [L, R] array in one vectorized sweep per key, so each row's
    sum runs key by key from +0 whenever R >= 2.  R counts at least the L
    queries of a tile, so it is 2 or more wherever a row holds 2 or more
    keys, and a row's bytes do not depend on how many rows share the copy.
    """
    pt = np.ascontiguousarray(p.reshape(-1, p.shape[-1]).T)
    pt -= pt.max(axis=0)
    np.exp(pt, out=pt)
    pt /= pt.sum(axis=0)
    return np.ascontiguousarray(pt.T).reshape(p.shape)


def _row_sums(a: np.ndarray) -> np.ndarray:
    """The sums over the last axis of a [..., L] as [..., 1], key by key
    from +0 as ``_softmax_rows`` takes them: from a key-major copy."""
    at = np.ascontiguousarray(a.reshape(-1, a.shape[-1]).T)
    return at.sum(axis=0).reshape(a.shape[:-1] + (1,))


def _attend(x, n_heads, nw, perm, inv, mask, c2, s2):
    """(out, qs, k, v, p) of attention over qkv x [N, T, 3d] in nw tiles of
    the token order perm (None: the grid's), with the additive mask, and
    rotated by the flat tables c2, s2 unless they are None: the result
    [N, T, d] in grid order, the scaled queries, the keys and the values
    [N, head, tile, token, dh] and the softmax p [N, head, tile, token, token].

    q and k are rotated, and q scaled, in place in the gathered
    [3, N, head, tile, token, dh] buffer, which is always a copy of x: where
    the gather is already in x's order a view would rewrite the caller's
    array, in a model the projection node's recorded value."""
    n, t, d3 = x.shape
    dh = d3 // (3 * n_heads)
    tw = t // nw
    if perm is not None:
        x = np.take(x, perm, axis=1)
    # [N, tile, token, 3, head, dh] -> [3, N, head, tile, token, dh]
    qkv_w = x.reshape(n, nw, tw, 3, n_heads, dh).transpose(3, 0, 4, 1, 2, 5).copy()
    if c2 is not None:  # each multiply runs over one [T * dh] row per head
        qk = qkv_w[:2].reshape(-1, t * dh)
        _rotate_pairs(qk, c2, s2, qk)
    # scaling q rather than the scores is the same up to rounding
    qs, k, v = qkv_w
    qs *= 1.0 / math.sqrt(dh)
    kt = np.ascontiguousarray(np.swapaxes(k, -1, -2))
    p = qs @ kt
    if mask is not None:
        p += mask
    p = _softmax_rows(p)
    out = (p @ v).transpose(0, 2, 3, 1, 4).reshape(n, t, d3 // 3)
    return out if inv is None else np.take(out, inv, axis=1), qs, k, v, p


def rope_attention(qkv: Tensor, grid: tuple[int, int], n_heads: int, window: int = 0,
                   shift: int = 0, rope: bool = True) -> Tensor:
    """Multi-head scaled dot-product attention as one graph node, with rotary
    positions on queries and keys unless rope is False.

    qkv [N, T, 3d] packs the q heads, then the k heads, then the v heads,
    each head dh = d / n_heads wide; the result [N, T, d] concatenates the
    heads' outputs.  grid is the patch grid's (rows, cols), and the T tokens
    are its patches in row-major order.  With rope dh must be a multiple of
    4 (``axial_angles``); the rotation runs at ``freq_table(dh)``.  window 0
    attends over the whole grid; a nonzero window must divide both grid
    extents, and each token then attends within its window x window tile
    after a cyclic shift by shift (0 <= shift < window) along every axis
    longer than the window.  Pairs that the shift wrapped around an edge do
    not attend.  Rotations use the global patch coordinates, so they stay
    relative within a tile.  The window layout and the rotation tables are
    cached per grid, window, shift, head size and dtype.
    """
    x = qkv.data
    if n_heads < 1 or x.ndim != 3 or x.shape[-1] % (3 * n_heads):
        raise ShapeMismatchError(f"qkv {x.shape} does not pack q, k, v of {n_heads} heads")
    n, t, d3 = x.shape
    dh = d3 // (3 * n_heads)
    rows, cols = grid
    if t != rows * cols:
        raise ShapeMismatchError(f"{t} tokens vs {rows}x{cols} grid")
    if window < 0 or (window and (rows % window or cols % window)):
        raise ShapeMismatchError(f"window {window} does not tile the {rows}x{cols} grid")
    if not (0 <= shift < window or shift == window == 0):
        raise ShapeMismatchError(f"shift {shift} outside [0, window {window})")
    layout = _window_layout(rows, cols, window, shift, dh if rope else None, x.dtype)
    perm, inv, _, c2, s2 = layout
    nw = 1 if perm is None else t // (window * window)
    tw = t // nw

    def bwd(g, out, qs, k, v, p):
        if perm is not None:
            g = np.take(g, perm, axis=1)
        g = np.ascontiguousarray(g.reshape(n, nw, tw, n_heads, dh).transpose(0, 3, 1, 2, 4))
        # the gradients of q, k and v [3, N, head, tile, token, dh] in one
        # buffer, rotated back in place and scattered to grid order in one copy
        gqkv = np.empty((3,) + k.shape, dtype=k.dtype)
        gp = g @ np.swapaxes(v, -1, -2)
        np.matmul(np.swapaxes(p, -1, -2), g, out=gqkv[2])
        gs = gp * p  # softmax backward
        np.subtract(gp, _row_sums(gs), out=gs)
        gs *= p
        del gp
        np.matmul(gs, k, out=gqkv[0])
        gqkv[0] *= 1.0 / math.sqrt(dh)
        gqkv[1] = np.swapaxes(np.swapaxes(qs, -1, -2) @ gs, -1, -2)
        del gs
        if c2 is not None:  # the inverse rotation (by -theta) is the adjoint
            gqk = gqkv[:2].reshape(-1, t * dh)
            _rotate_pairs(gqk, c2, -s2, gqk)
        gx = np.empty((n, t, 3, n_heads, dh), dtype=x.dtype)
        gx[:, slice(None) if perm is None else perm] = (
            gqkv.transpose(1, 3, 4, 0, 2, 5).reshape(n, t, 3, n_heads, dh))
        return (gx.reshape(n, t, d3),)

    return _node(_attend, (qkv,), bwd, n_heads, nw, *layout)
