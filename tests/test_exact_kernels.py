"""Byte-exactness of the rewritten training kernels.

Each test holds a plain copy of the earlier per-tap (for Adam, per-tensor;
for attention and layer norm, the pairwise-rotation and row-wise; for
``linear``, the composition of one node per op) form of a kernel, with every sum the kernel takes in a fixed order written out as a
loop in that order, and asserts that the engine's kernel gives the same
bytes: f32 and f64, with -0 (and, where it reaches the kernel, inf and NaN)
in the inputs.  Rerun this file with more than one BLAS thread as well: the
kernels take the same matrix products as the earlier forms, so their bytes
must not depend on how BLAS splits those products.
"""

import math

import numpy as np
import pytest

from segkit.csec import offset_conv
from segkit.optim import Adam
from segkit.rope import _window_layout, axial_angles, freq_table, rope_attention
from segkit.tensor import (
    LN_EPS, Tensor, add, add_bias, conv2d, layer_norm, linear, matmul, relu, upsample_nearest)

from pairwise_rotation import rotate_pairs_reference


def _signed(rng, shape, dtype, zeros=0.2):
    """Normal values over a wide range of scales, with a share of ±0."""
    a = np.asarray(rng.standard_normal(shape) * np.exp(rng.uniform(-6.0, 6.0, shape)))
    a[rng.random(shape) < zeros / 2] = 0.0
    a[rng.random(shape) < zeros / 2] = -0.0
    return a.astype(dtype)


def _bytes_equal(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# -- conv2d -----------------------------------------------------------------


def _conv2d_reference(x, w, g, stride, padding):
    """The per-tap im2col and col2im form: y, gx, gw."""
    n, cin, h, wd = x.shape
    cout, _, kh, kw = w.shape
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (wd + 2 * padding - kw) // stride + 1
    xp = np.zeros((n, cin, h + 2 * padding, wd + 2 * padding), dtype=x.dtype)
    xp[:, :, padding:padding + h, padding:padding + wd] = x
    cols = np.empty((n, cin, kh, kw, ho, wo), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = xp[:, :, i:i + ho * stride:stride, j:j + wo * stride:stride]
    cols = cols.reshape(n, cin * kh * kw, ho * wo)
    w2 = w.reshape(cout, cin * kh * kw)
    y = (w2 @ cols).reshape(n, cout, ho, wo)
    g2 = g.reshape(n, cout, ho * wo)
    gw = (g2 @ cols.transpose(0, 2, 1)).sum(axis=0).reshape(w.shape)
    gcols = (w2.T @ g2).reshape(n, cin, kh, kw, ho, wo)
    gxp = np.zeros_like(xp)
    for i in range(kh):
        for j in range(kw):
            view = gxp[:, :, i:i + ho * stride:stride, j:j + wo * stride:stride]
            view += gcols[:, :, i, j]
    gx = np.ascontiguousarray(gxp[:, :, padding:padding + h, padding:padding + wd])
    return y, gx, gw


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("k", [1, 3, 5])
@pytest.mark.parametrize("padding", [0, 1, 2])
@pytest.mark.parametrize("stride", [1, 2, 3])
def test_conv2d_matches_per_tap_form(stride, padding, k, dtype):
    rng = np.random.default_rng(100 * stride + 10 * padding + k)
    one = max(1, k - 2 * padding)  # a 1x1 output, a one-column product
    for n, cin, cout, h, wd in ((1, 3, 4, 9, 11), (2, 5, 3, 7, 6), (1, 1, 2, 6, 5),
                                (2, 2, 3, one, one)):
        x = _signed(rng, (n, cin, h, wd), dtype)
        w = _signed(rng, (cout, cin, k, k), dtype)
        ho = (h + 2 * padding - k) // stride + 1
        wo = (wd + 2 * padding - k) // stride + 1
        g = _signed(rng, (n, cout, ho, wo), dtype, zeros=0.5)
        xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
        out = conv2d(xt, wt, stride=stride, padding=padding)
        gx, gw = out._backward_fn(g)
        y_ref, gx_ref, gw_ref = _conv2d_reference(x, w, g, stride, padding)
        assert _bytes_equal(out.data, y_ref)
        assert _bytes_equal(gx, gx_ref)
        assert _bytes_equal(gw, gw_ref)


def test_conv2d_input_gradient_of_all_negative_zero_is_positive_zero():
    x = Tensor(np.ones((1, 2, 5, 5), np.float32), requires_grad=True)
    w = Tensor(np.ones((2, 2, 3, 3), np.float32))
    out = conv2d(x, w, stride=1, padding=1)
    gx, _ = out._backward_fn(np.full((1, 2, 5, 5), -0.0, np.float32))
    assert not np.signbit(gx).any()


# -- upsample_nearest -------------------------------------------------------


def _upsample_adjoint_reference(g, f):
    """Each f x f patch summed from +0, its replicas in order: each patch
    row's column replicas, then those row sums."""
    n, c, hf, wf = g.shape
    g6 = g.reshape(n, c, hf // f, f, wf // f, f)
    out = np.zeros((n, c, hf // f, wf // f), g.dtype)
    for a in range(f):
        row = g6[:, :, :, a, :, 0]
        for b in range(1, f):
            row = row + g6[:, :, :, a, :, b]
        out = out + row
    return out


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("f", [1, 2, 3, 4, 8])
@pytest.mark.parametrize("shape", [(2, 3, 5, 4), (1, 2, 3, 1), (1, 1, 1, 3)])
def test_upsample_adjoint_matches_patch_sum(shape, f, dtype):
    rng = np.random.default_rng(f)
    n, c, h, w = shape
    x = Tensor(np.zeros((n, c, h, w), dtype), requires_grad=True)
    out = upsample_nearest(x, f)
    for trial in range(40):
        g = _signed(rng, (n, c, h * f, w * f), dtype, zeros=0.6)
        special = rng.random(g.shape)
        g[special < 0.02] = np.inf
        g[(special >= 0.02) & (special < 0.04)] = -np.inf
        if trial % 4 == 0:  # whole patches of -0
            g[:, :, :f, :f] = -0.0
        with np.errstate(invalid="ignore"):  # inf + -inf
            (gx,) = out._backward_fn(g)
            ref = _upsample_adjoint_reference(g, f)
        assert _bytes_equal(gx, ref)


def test_upsample_adjoint_keeps_nan_where_the_patch_sum_has_it():
    # which NaN a sum returns when two meet is the order of its operands,
    # which numpy does not fix; positions and every other value are exact
    rng = np.random.default_rng(7)
    x = Tensor(np.zeros((2, 3, 5, 4), np.float32), requires_grad=True)
    out = upsample_nearest(x, 3)
    g = _signed(rng, (2, 3, 15, 12), np.float32)
    g[rng.random(g.shape) < 0.05] = np.nan
    g[rng.random(g.shape) < 0.05] = np.inf
    with np.errstate(invalid="ignore"):  # inf + -inf
        (gx,) = out._backward_fn(g)
        ref = _upsample_adjoint_reference(g, 3)
    nan = np.isnan(ref)
    assert nan.any() and np.array_equal(np.isnan(gx), nan)
    assert gx[~nan].tobytes() == ref[~nan].tobytes()


# -- offset_conv ------------------------------------------------------------


def _offset_conv_reference(x, w, taps, g):
    """The taps splatted one corner at a time onto a kernel of side 2r+1,
    then the per-tap conv2d form: y, gx, gw and gt (gt's sums in f64), and
    per tap the sum of the magnitudes of the products gt's sums add."""
    cout, cin, kh, kw = w.shape
    ntaps = kh * kw
    ry, rx = (kh - 1) // 2, (kw - 1) // 2
    raw = taps.astype(np.float64)
    clamped = np.stack([np.clip(raw[:, 0], -kh, kh), np.clip(raw[:, 1], -kw, kw)], axis=1)
    active = clamped == raw
    iy, ix = np.divmod(np.arange(ntaps), kw)
    sy = (iy - ry) + clamped[:, 0]
    sx = (ix - rx) + clamped[:, 1]
    fy, fx = np.floor(sy).astype(int), np.floor(sx).astype(int)
    ay, ax = sy - fy, sx - fx
    r = max(-fy.min(), fy.max() + 1, -fx.min(), fx.max() + 1)
    corners = [[(r + fy[t] + a, r + fx[t] + b, w.dtype.type(wy * wx))
                for a, wy in ((0, 1.0 - ay[t]), (1, ay[t]))
                for b, wx in ((0, 1.0 - ax[t]), (1, ax[t]))]
               for t in range(ntaps)]
    kernel = np.zeros((cout, cin, 2 * r + 1, 2 * r + 1), dtype=w.dtype)
    for t in range(ntaps):
        for i, j, c in corners[t]:
            kernel[:, :, i, j] += w[:, :, iy[t], ix[t]] * c
    y, gx, gk = _conv2d_reference(x, kernel, g, 1, r)
    gw = np.empty_like(w)
    gt = np.zeros_like(taps)
    mag = np.zeros((ntaps, 1))
    for t in range(ntaps):
        parts = [gk[:, :, i, j] * c for i, j, c in corners[t]]
        gw[:, :, iy[t], ix[t]] = parts[0] + parts[1] + parts[2] + parts[3]
        w64 = w[:, :, iy[t], ix[t]].astype(np.float64)
        d00, d01, d10, d11 = (np.sum(w64 * gk[:, :, i, j]) for i, j, _ in corners[t])
        mag[t] = sum(np.abs(w64 * gk[:, :, i, j]).sum() for i, j, _ in corners[t])
        if active[t, 0]:
            gt[t, 0] = (1.0 - ax[t]) * (d10 - d00) + ax[t] * (d11 - d01)
        if active[t, 1]:
            gt[t, 1] = (1.0 - ay[t]) * (d01 - d00) + ay[t] * (d11 - d10)
    return y, gx, gw, gt, mag


def _taps(kind, k, rng):
    ntaps = k * k
    if kind == "zero":
        return np.zeros((ntaps, 2))
    if kind == "integer":
        return rng.integers(-2, 3, (ntaps, 2)).astype(np.float64)
    if kind == "fractional":
        return rng.uniform(-0.4, 0.4, (ntaps, 2))
    if kind == "clamped":
        return rng.uniform(-2.5 * k, 2.5 * k, (ntaps, 2))
    # mixed: per tap one, two or four live corners, and some clamped
    t = rng.uniform(-1.5, 1.5, (ntaps, 2))
    t[::2, 0] = np.round(t[::2, 0])
    t[::3, 1] = np.round(t[::3, 1])
    t[0, :] = [0.0, 0.0]
    t[-1, 0] = 2.0 * k + 1.0
    return t


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("k", [1, 3, 5])
@pytest.mark.parametrize("kind", ["zero", "integer", "fractional", "clamped", "mixed"])
def test_offset_conv_matches_per_corner_form(kind, k, dtype):
    rng = np.random.default_rng(10 * k + len(kind))
    for n, cin, cout, h, wd in ((1, 3, 4, 7, 9), (2, 2, 3, 5, 4), (1, 1, 1, 1, 1)):
        x = _signed(rng, (n, cin, h, wd), dtype)
        w = _signed(rng, (cout, cin, k, k), dtype)
        taps = _taps(kind, k, rng).astype(dtype)
        g = _signed(rng, (n, cout, h, wd), dtype, zeros=0.5)
        xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
        tt = Tensor(taps, requires_grad=True)
        out = offset_conv(xt, wt, tt)
        gx, gk = out._backward_fn(g)  # conv2d's, then the splat's
        gw, gt = out._parents[1]._backward_fn(gk)
        y_ref, gx_ref, gw_ref, gt_ref, mag = _offset_conv_reference(x, w, taps, g)
        assert _bytes_equal(out.data, y_ref)
        assert _bytes_equal(gx, gx_ref)
        assert _bytes_equal(gw, gw_ref)
        # the tap gradient's sums run in another order, in w's dtype: equal
        # to round-off, at f32 that of sums of cin * cout products
        assert gt.dtype == gt_ref.dtype and np.array_equal(gt == 0, gt_ref == 0)
        scale = np.abs(g).sum() * np.abs(w).max() * np.abs(x).max() + 1e-300
        assert np.all(np.abs(gt.astype(np.float64) - gt_ref) <= 1e-12 * scale + (
            0.0 if dtype == np.float64 else 2.0 ** -23 * ((cin * cout + 2) * mag + np.abs(gt_ref))))


# -- Adam -------------------------------------------------------------------


def _adam_reference(params, grads_per_step, lr, b1, b2, eps):
    """Per-tensor Adam; a None gradient counts as zeros."""
    m = {k: np.zeros_like(p) for k, p in params.items()}
    v = {k: np.zeros_like(p) for k, p in params.items()}
    data = dict(params)
    for t, grads in enumerate(grads_per_step, start=1):
        bc1, bc2 = 1.0 - b1 ** t, 1.0 - b2 ** t
        for k in data:
            g = np.zeros_like(data[k]) if grads[k] is None else grads[k]
            m[k] = b1 * m[k] + (1.0 - b1) * g
            v[k] = b2 * v[k] + (1.0 - b2) * g * g
            data[k] = data[k] - lr * (m[k] / bc1) / (np.sqrt(v[k] / bc2) + eps)
    return data


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_flat_adam_matches_per_tensor_adam(dtype):
    rng = np.random.default_rng(11)
    shapes = {"a": (4, 3, 3, 3), "b": (), "c": (7,), "d": (2, 5), "e": (3,)}
    init = {k: _signed(rng, s, dtype) for k, s in shapes.items()}
    steps = []
    for t in range(6):
        grads = {k: _signed(rng, s, dtype, zeros=0.3) for k, s in shapes.items()}
        grads["e"] = None  # never given a gradient: keeps its bytes
        if t in (2, 3):
            grads["c"] = None  # none on some steps only: moves on its moments
        steps.append(grads)
    params = {k: Tensor(v.copy(), requires_grad=True) for k, v in init.items()}
    opt = Adam(params, lr=1e-2, beta1=0.9, beta2=0.99, eps=1e-6)
    for grads in steps:
        for k, p in params.items():
            p.grad = grads[k]
        opt.step()
    ref = _adam_reference(init, steps, 1e-2, 0.9, 0.99, 1e-6)
    for k in shapes:
        assert _bytes_equal(params[k].data, ref[k]), k
    assert params["e"].data.tobytes() == init["e"].tobytes()


def test_adam_refuses_mixed_dtypes():
    # one flat moment buffer would round the f32 parameters in f64
    params = {"f": Tensor(np.zeros(3, np.float32), requires_grad=True),
              "d": Tensor(np.zeros(3, np.float64), requires_grad=True)}
    with pytest.raises(TypeError):
        Adam(params)


# -- rope_attention ---------------------------------------------------------


def _key_by_key(a):
    """The sums over the last axis of a, keepdims, one key after another
    from +0."""
    out = np.zeros(a.shape[:-1] + (1,), a.dtype)
    for j in range(a.shape[-1]):
        out += a[..., j:j + 1]
    return out


def _rope_attention_reference(x, g, grid, freqs, n_heads, window, shift):
    """The pairwise rotation over [tile, token, dh/2] tables and row-wise
    softmax passes, with the sums taken key by key: (out, gx)."""
    n, t, d3 = x.shape
    d = d3 // 3
    dh = d // n_heads
    perm, inv, mask, _, _ = _window_layout(*grid, window, shift, None, x.dtype)
    nw = 1 if perm is None else t // (window * window)
    if freqs is not None:
        pos = np.argwhere(np.ones(grid, dtype=bool))  # row-major (row, col)
        th = axial_angles(pos if perm is None else pos[perm], freqs)
        th = th.astype(x.dtype).reshape(-1, t // nw, dh // 2)
        cos, sin = np.cos(th), np.sin(th)
    if perm is not None:
        x = np.take(x, perm, axis=1)
    qkv_w = np.ascontiguousarray(
        x.reshape(n, nw, t // nw, 3, n_heads, dh).transpose(3, 0, 4, 1, 2, 5))
    qk, v = qkv_w[:2], qkv_w[2]
    if freqs is not None:
        qk = rotate_pairs_reference(qk, cos, sin)
    s = 1.0 / math.sqrt(dh)
    qs, k = qk[0] * s, qk[1]
    kt = np.ascontiguousarray(np.swapaxes(k, -1, -2))
    p = qs @ kt
    if mask is not None:
        p += mask
    p -= np.ascontiguousarray(p.reshape(-1, p.shape[-1]).T).max(axis=0).reshape(
        p.shape[:-1] + (1,))
    np.exp(p, out=p)
    p /= _key_by_key(p)
    out = (p @ v).transpose(0, 2, 3, 1, 4).reshape(n, t, d)
    out = out if inv is None else np.take(out, inv, axis=1)

    if perm is not None:
        g = np.take(g, perm, axis=1)
    g = np.ascontiguousarray(g.reshape(n, nw, t // nw, n_heads, dh).transpose(0, 3, 1, 2, 4))
    gp = g @ np.swapaxes(v, -1, -2)
    gv = np.swapaxes(p, -1, -2) @ g
    gs = gp * p
    np.subtract(gp, _key_by_key(gs), out=gs)
    gs *= p
    gqk = np.empty_like(qk)
    np.matmul(gs, k, out=gqk[0])
    gqk[0] *= s
    gqk[1] = np.swapaxes(np.swapaxes(qs, -1, -2) @ gs, -1, -2)
    if freqs is not None:
        gqk = rotate_pairs_reference(gqk, cos, -sin)
    gx = np.empty((n, nw, t // nw, 3, n_heads, dh), dtype=x.dtype)
    gt = gx.transpose(3, 0, 4, 1, 2, 5)
    gt[:2], gt[2] = gqk, gv
    gx = gx.reshape(n, t, d3)
    return out, (gx if inv is None else np.take(gx, inv, axis=1))


def _equal_up_to_nan(a, b):
    """Same dtype, shape and NaN positions, and the same bytes elsewhere:
    which NaN a sum returns when two meet is the order of its operands."""
    nan = np.isnan(b)
    return (a.dtype == b.dtype and a.shape == b.shape and np.array_equal(np.isnan(a), nan)
            and a[~nan].tobytes() == b[~nan].tobytes())


# grid (rows, cols), window, shift: tiles of 4, 16, 96 and 144 keys; from
# 8 keys on, numpy would sum a contiguous row in another order than key by key
_ATTENTION_CASES = [(grid, w, shift) for grid in ((4, 4), (8, 12)) for w in (0, 2, 4)
                    for shift in sorted({0, w // 2})] + [((12, 12), 0, 0)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n", [1, 4])
@pytest.mark.parametrize("use_rope", [True, False])
@pytest.mark.parametrize("grid,window,shift", _ATTENTION_CASES)
def test_rope_attention_matches_pairwise_row_wise_form(grid, window, shift, use_rope, n, dtype):
    rng = np.random.default_rng(1000 * window + 100 * shift + 10 * n + grid[0])
    n_heads, dh = 2, 8
    freqs = freq_table(dh) if use_rope else None
    shape = (n, grid[0] * grid[1], 3 * n_heads * dh)
    for trial in range(3):
        x = _signed(rng, shape, dtype) if trial else np.full(shape, -0.0, dtype)
        g = _signed(rng, (n, grid[0] * grid[1], n_heads * dh), dtype, zeros=0.5)
        xt = Tensor(x, requires_grad=True)
        out = rope_attention(xt, grid, n_heads, window=window, shift=shift, rope=use_rope)
        (gx,) = out._backward_fn(g)
        out_ref, gx_ref = _rope_attention_reference(x, g, grid, freqs, n_heads, window, shift)
        assert _bytes_equal(out.data, out_ref) and out.data.flags.c_contiguous
        assert _bytes_equal(gx, gx_ref)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("grid,window,shift", [((4, 4), 2, 1), ((8, 12), 4, 2)])
def test_rope_attention_keeps_inf_and_nan_where_the_pairwise_form_has_them(grid, window, shift,
                                                                          dtype):
    rng = np.random.default_rng(window)
    x = _signed(rng, (2, grid[0] * grid[1], 48), dtype)
    x[0, 1, 3] = np.inf  # a q entry: one query row of NaN scores
    x[1, 2, 20] = -np.inf  # a k entry: NaN in every score of its key
    x[1, 5, 40] = np.nan  # a v entry
    g = _signed(rng, (2, grid[0] * grid[1], 16), dtype)
    g[0, 3, 5] = np.inf
    with np.errstate(invalid="ignore"):
        out = rope_attention(Tensor(x, requires_grad=True), grid, 2, window=window, shift=shift)
        (gx,) = out._backward_fn(g)
        out_ref, gx_ref = _rope_attention_reference(x, g, grid, freq_table(8), 2, window, shift)
    assert np.isnan(out_ref).any() and np.isnan(gx_ref).any()
    assert _equal_up_to_nan(out.data, out_ref)
    assert _equal_up_to_nan(gx, gx_ref)


# -- layer_norm -------------------------------------------------------------


def _layer_norm_reference(x, gamma, beta, g):
    d = x.shape[-1]
    mu = x.sum(axis=-1, keepdims=True) / d
    xc = x - mu
    var = (xc * xc).sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = xc * inv
    y = xhat * gamma + beta
    ggamma = (g * xhat).reshape(-1, d).sum(axis=0)
    gbeta = g.reshape(-1, d).sum(axis=0)
    gh = g * gamma
    gx = inv * (gh - gh.sum(axis=-1, keepdims=True) / d
                - xhat * ((gh * xhat).sum(axis=-1, keepdims=True) / d))
    return y, gx, ggamma, gbeta


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(4, 144, 64), (2, 3, 5), (1, 8), (7, 1)])
def test_layer_norm_matches_formula_form(shape, dtype):
    rng = np.random.default_rng(shape[-1])
    d = shape[-1]
    for trial in range(4):
        x = _signed(rng, shape, dtype)
        if trial == 1:
            x[0] = -0.0  # a row of -0: zero variance
        gamma, beta = _signed(rng, (d,), dtype), _signed(rng, (d,), dtype)
        g = _signed(rng, shape, dtype, zeros=0.5)
        if trial == 3:  # inf and NaN wherever they reach
            x.reshape(-1)[::11] = np.inf
            x.reshape(-1)[5::13] = np.nan
            g.reshape(-1)[2::7] = -np.inf
        ts = [Tensor(a, requires_grad=True) for a in (x, gamma, beta)]
        with np.errstate(invalid="ignore", over="ignore"):
            y = layer_norm(*ts)
            got = (y.data,) + tuple(y._backward_fn(g))
            ref = _layer_norm_reference(x, gamma, beta, g)
        for a, b in zip(got, ref):
            assert _equal_up_to_nan(a, b) if trial == 3 else _bytes_equal(a, b)


# -- linear -----------------------------------------------------------------


def _linear_composition(x, w, b, r, use_relu, g):
    """add(r, relu(add_bias(matmul(x, w), b))) with the steps a form has,
    one node per op, and its backward node by node: the value and the
    gradients of x, w and, where given, b and r."""
    chain = [matmul(Tensor(x, requires_grad=True), Tensor(w, requires_grad=True))]
    if b is not None:
        chain.append(add_bias(chain[-1], Tensor(b, requires_grad=True)))
    if use_relu:
        chain.append(relu(chain[-1]))
    if r is not None:
        chain.append(add(Tensor(r, requires_grad=True), chain[-1]))
    y, gb, gr = chain[-1].data, None, None
    if r is not None:
        gr, g = chain.pop()._backward_fn(g)
    if use_relu:
        (g,) = chain.pop()._backward_fn(g)
    if b is not None:
        g, gb = chain.pop()._backward_fn(g)
    gx, gw = chain.pop()._backward_fn(g)
    return [a for a in (y, gx, gw, gb, gr) if a is not None]


def _special(rng, a):
    """a with a share of its entries NaN, +-inf, -0 and subnormal."""
    a = a.copy()
    tiny = np.finfo(a.dtype).smallest_subnormal
    for value in (np.nan, np.inf, -np.inf, -0.0, 3 * tiny, -5 * tiny):
        a[rng.random(a.shape) < 0.04] = value
    return a


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n", [1, 4])
@pytest.mark.parametrize("form", ["bias", "bias_relu", "residual", "bias_residual"])
def test_linear_matches_its_composition(form, n, dtype):
    rng = np.random.default_rng(10 * len(form) + n)
    bias, use_relu, residual = form != "residual", form == "bias_relu", "residual" in form
    for trial in range(4):
        x, r, g = (_signed(rng, (n, 6, k), dtype) for k in (5, 7, 7))
        w, b = _signed(rng, (5, 7), dtype), _signed(rng, (7,), dtype)
        if trial == 1:  # many exact zeros in the product and at relu's kink
            w[:, :3] = -0.0
            b[1::2] = -0.0
        if trial >= 2:  # NaN, inf, -0 and subnormals wherever they reach
            x, w, b, r, g = (_special(rng, a) for a in (x, w, b, r, g))
        b, r = (b if bias else None), (r if residual else None)
        with np.errstate(invalid="ignore", over="ignore"):
            out = linear(*(Tensor(a, requires_grad=True) for a in (x, w, b) if a is not None),
                         relu=use_relu,
                         residual=None if r is None else Tensor(r, requires_grad=True))
            got = [out.data, *out._backward_fn(g)]
            ref = _linear_composition(x, w, b, r, use_relu, g)
        assert len(got) == len(ref)
        for a, e in zip(got, ref):
            assert _bytes_equal(a, e)
