"""Unit tests for the autodiff tensor core."""

import gc
import weakref

import numpy as np
import pytest

from segkit.errors import SegkitError, ShapeMismatchError
from segkit.gradcheck import TOL as ORACLE_TOL, check_function, run_suite
from segkit.rng import SplitMix64
from segkit.tensor import (
    Tensor,
    add,
    add_bias,
    conv2d,
    cross_entropy,
    layer_norm,
    linear,
    matmul,
    mul,
    no_grad,
    permute,
    relu,
    reshape,
    scalar_mul,
    scale,
    sigmoid,
    tmean,
    tsum,
    upsample_nearest,
)

TOL = 1e-4


def _a(shape, seed=0, lo=-1.0, hi=1.0):
    return SplitMix64(seed).uniform_array(shape, lo, hi)


def _t(shape, seed=0, lo=-1.0, hi=1.0):
    return Tensor(_a(shape, seed, lo, hi), requires_grad=True)


def _nll(logits, target):
    """Per-pixel negative log-likelihood [N,H,W] in f64, ignored pixels
    (label -1) read against class 0."""
    z = logits - logits.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    return -np.take_along_axis(logp, np.maximum(target, 0)[:, None], axis=1)[:, 0]


class TestConstruction:
    def test_empty_shape_rejected(self):
        with pytest.raises(ShapeMismatchError, match=r"^zero extent in shape \(2, 0\)$"):
            Tensor(np.empty((2, 0)))

    def test_int_input_promoted_to_f32(self):
        assert Tensor([1, 2, 3]).dtype == np.float32


class TestBackwardMechanics:
    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ShapeMismatchError, match="^backward needs a scalar loss"):
            _t((3,)).backward()

    def test_backward_without_gradient_raises(self):
        # no parameter reaches the loss, or it was computed under no_grad:
        # backward would leave every grad None and the optimizer would skip
        # every parameter
        with pytest.raises(SegkitError, match="^backward on a tensor that requires no gradient"):
            tsum(Tensor(_a((3,)))).backward()
        x = _t((3,))
        with no_grad():
            loss = tsum(x)
        with pytest.raises(SegkitError, match="^backward on a tensor that requires no gradient"):
            loss.backward()
        assert x.grad is None

    def test_gradients_accumulate_until_zero_grad(self):
        x = _t((4,))
        tsum(x).backward()
        g1 = x.grad.copy()
        tsum(x).backward()
        assert np.array_equal(x.grad, 2 * g1)
        x.zero_grad()
        assert x.grad is None

    def test_leaves_given_one_gradient_array_accumulate_apart(self):
        # add's backward hands one array to both parents: each leaf's first
        # gradient must be its own copy, or the second backward adds twice
        x, w = _t((3,)), _t((3,), seed=1)
        for _ in range(2):
            tsum(add(x, w)).backward()
        assert x.grad is not w.grad
        assert np.array_equal(x.grad, np.full(3, 2.0)) and np.array_equal(w.grad, x.grad)

    def test_repeat_backward_deterministic(self):
        x = _t((5,), seed=3)
        w = _t((5,), seed=4)

        def loss():  # w reaches the loss along two paths
            return tsum(mul(layer_norm(x, w, Tensor(np.zeros(5))), w))

        loss().backward()
        gx, gw = x.grad.copy(), w.grad.copy()
        x.zero_grad()
        w.zero_grad()
        loss().backward()
        assert np.array_equal(x.grad, gx)
        assert np.array_equal(w.grad, gw)

    def test_backward_leaves_no_reference_cycle(self):
        # with the cycle collector off, an op's output must die with its last
        # reference: backward may not tie the graph into a reference cycle
        gc.disable()
        try:
            x = _t((4,))
            y = scale(x, 2.0)
            ref = weakref.ref(y)
            loss = tsum(y)
            loss.backward()
            del y, loss
            assert ref() is None
        finally:
            gc.enable()

    def test_only_leaves_keep_grad(self):
        x = _t((4,))
        y = scale(x, 2.0)
        tsum(y).backward()
        assert y.grad is None
        assert np.array_equal(x.grad, np.full(4, 2.0))

    def test_deep_chain_has_no_recursion_limit(self):
        x = _t((2,))
        y = x
        for _ in range(5000):
            y = scale(y, 1.0)
        tsum(y).backward()
        assert np.array_equal(x.grad, np.ones(2))

    def test_diamond_graph_accumulates_both_paths(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = add(mul(x, x), scale(x, 3.0))  # x^2 + 3x
        tsum(y).backward()
        assert abs(float(x.grad[0]) - 7.0) < 1e-6  # 2x + 3


class TestNoGrad:
    def test_results_record_no_graph(self):
        x = _t((2, 3))
        with no_grad():
            y = relu(add(x, x))
            leaf = Tensor(_a((3,)), requires_grad=True)
        assert not y.requires_grad and y._parents == () and y._backward_fn is None
        assert np.array_equal(y.data, relu(add(x, x)).data)
        assert leaf.requires_grad  # an explicit leaf keeps its flag
        z = scale(x, 2.0)  # the graph is recorded again after the block
        assert z.requires_grad and z._parents == (x,)

    def test_flag_restored_after_exception_and_nesting(self):
        x = _t((3,))
        with pytest.raises(ShapeMismatchError):
            with no_grad():
                add(x, _t((4,)))
        assert add(x, x).requires_grad
        with no_grad():
            with no_grad():
                pass
            assert not add(x, x).requires_grad
        assert add(x, x).requires_grad


class TestExactKernels:
    """Fast kernels must give the bytes of the plain numpy formula."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_relu_is_where_by_bytes(self, dtype):
        tiny = np.finfo(dtype).smallest_subnormal
        special = np.array([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, tiny, -tiny,
                            np.finfo(dtype).tiny, np.finfo(dtype).max, -1.5, 2.5], dtype=dtype)
        x = np.concatenate([special, _a((64,), seed=11).astype(dtype)])
        t = Tensor(x, requires_grad=True)
        y = relu(t)
        want = np.where(x > 0, x, 0)
        assert y.dtype == want.dtype == dtype
        assert y.data.tobytes() == want.tobytes()
        # np.fmax keeps -0 or not depending on the length (SIMD body or
        # scalar tail), so every short length of -0 must come out +0
        for n in range(1, 40):
            z = np.full(n, -0.0, dtype=dtype)
            assert relu(Tensor(z)).data.tobytes() == np.where(z > 0, z, 0).tobytes()
        g = _a(x.shape, seed=12).astype(dtype)
        tsum(mul(y, Tensor(g))).backward()
        # a leaf's grad accumulates onto zeros, which turns -0 into +0
        assert t.grad.tobytes() == (np.zeros_like(x) + g * (x > 0)).tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("d", [3, 5, 16, 64, 128, 192])
    def test_layer_norm_matches_mean_reference_by_bytes(self, d, dtype):
        x = (_a((3, 5, d), seed=d) * 7).astype(dtype)
        g = _a((d,), seed=d + 1, lo=0.5, hi=1.5).astype(dtype)
        b = _a((d,), seed=d + 2).astype(dtype)
        up = _a((3, 5, d), seed=d + 3).astype(dtype)
        xt, gt, bt = (Tensor(v, requires_grad=True) for v in (x, g, b))
        y = layer_norm(xt, gt, bt)
        tsum(mul(y, Tensor(up))).backward()
        # the formula with np.mean, as layer_norm read before its means
        # became sums divided by d
        mu = x.mean(axis=-1, keepdims=True)
        xc = x - mu
        inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + 1e-5)
        xhat = xc * inv
        gh = up * g
        gx = inv * (gh - gh.mean(axis=-1, keepdims=True)
                    - xhat * (gh * xhat).mean(axis=-1, keepdims=True))
        want = (xhat * g + b, gx, (up * xhat).reshape(-1, d).sum(axis=0),
                up.reshape(-1, d).sum(axis=0))
        for got, ref in zip((y.data, xt.grad, gt.grad, bt.grad), want):
            assert got.dtype == ref.dtype == dtype
            assert got.tobytes() == ref.tobytes()


class TestGradients:
    """Targeted finite-difference checks beyond the bundled suites."""

    def test_elementwise_ops(self):
        w = SplitMix64(9).uniform_array((6,), -1, 1)
        for f in (
            lambda v: tsum(add(v, Tensor(w))),
            lambda v: tsum(mul(v, Tensor(w))),
            lambda v: tsum(scale(v, -1.7)),
            lambda v: tsum(mul(relu(v), Tensor(w))),
            lambda v: tsum(mul(sigmoid(v), Tensor(w))),
        ):
            assert check_function(f, _a((6,), seed=1)) <= TOL

    def test_shape_ops(self):
        w = SplitMix64(9).uniform_array((6,), -1, 1)
        assert check_function(lambda v: tsum(mul(reshape(v, (6,)), Tensor(w))),
                              _a((2, 3), seed=2)) <= TOL
        assert check_function(lambda v: tsum(mul(reshape(permute(v, (1, 0)), (6,)), Tensor(w))),
                              _a((2, 3), seed=2)) <= TOL
        assert check_function(lambda v: tmean(mul(v, v)), _a((2, 3), seed=2)) <= TOL

    def test_permute(self):
        w = SplitMix64(9).uniform_array((4, 2, 3), -1, 1)
        assert check_function(lambda v: tsum(mul(permute(v, (2, 0, 1)), Tensor(w))),
                              _a((2, 3, 4), seed=2)) <= TOL
        for bad in ((0, 0), (0, 2), (0,), (0, 1, 2), None):
            with pytest.raises(ShapeMismatchError, match="are not a permutation of rank 2$"):
                permute(_t((2, 3)), bad)
        x = _t((2, 3, 4))
        assert np.array_equal(x.T.data, np.swapaxes(x.data, 1, 2))  # .T swaps the last two

    def test_matmul_leading_axes(self):
        w = SplitMix64(8).uniform_array((4, 2), -1, 1)
        x = SplitMix64(7).uniform_array((2, 3, 4), -1, 1)
        assert check_function(lambda v: tsum(matmul(v, Tensor(w))), _a((2, 3, 4), seed=3)) <= TOL
        assert check_function(lambda v: tsum(matmul(Tensor(x), v)), _a((4, 2), seed=4)) <= TOL
        # the folded product equals one 2D product per leading index
        out = matmul(Tensor(x), Tensor(w)).data
        assert np.allclose(out, np.stack([x[i] @ w for i in range(2)]), rtol=0, atol=1e-12)

    def test_matmul_batched(self):
        b = SplitMix64(8).uniform_array((2, 4, 5), -1, 1)
        a = SplitMix64(7).uniform_array((2, 3, 4), -1, 1)
        assert check_function(lambda v: tsum(matmul(v, Tensor(b))), _a((2, 3, 4), seed=3)) <= TOL
        assert check_function(lambda v: tsum(matmul(Tensor(a), v)), _a((2, 4, 5), seed=4)) <= TOL

    @pytest.mark.parametrize("a_shape, b_shape", [((2, 3, 4), (4, 5)), ((2, 3, 4), (2, 4, 5))],
                             ids=["shared-b", "batched"])
    def test_matmul_computes_only_the_gradients_needed(self, a_shape, b_shape):
        a, b = _a(a_shape, seed=1), _a(b_shape, seed=2)
        g = _a(a_shape[:-1] + b_shape[-1:], seed=3)
        both = matmul(Tensor(a, requires_grad=True), Tensor(b, requires_grad=True))
        ga, gb = both._backward_fn(g)
        only_b = matmul(Tensor(a), Tensor(b, requires_grad=True))._backward_fn(g)
        only_a = matmul(Tensor(a, requires_grad=True), Tensor(b))._backward_fn(g)
        assert only_b[0] is None and only_b[1].tobytes() == gb.tobytes()
        assert only_a[1] is None and only_a[0].tobytes() == ga.tobytes()

    def test_getitem_scatter(self):
        assert check_function(lambda v: tsum(v[1:3]), _a((5,), seed=6)) <= TOL

    def test_getitem_backward_sums_repeated_indices(self):
        w = Tensor(_a((4,), seed=7))
        assert check_function(lambda v: tsum(mul(v[np.array([3, 0, 3, 3])], w)),
                              _a((5,), seed=6)) <= TOL
        # every key kind: an element picked twice gets both gradients
        for key, want in ((np.array([0, 0, 1]), [2, 1, 0]), ([2, 2, 2], [0, 0, 3]),
                          (1, [0, 1, 0]), (slice(0, 2), [1, 1, 0]),
                          (np.array([True, False, True]), [1, 0, 1]), (None, [1, 1, 1]),
                          ((None, [1, 1]), [0, 2, 0]), (((1, 1),), [0, 2, 0])):
            x = Tensor(np.zeros(3), requires_grad=True)
            tsum(x[key]).backward()
            assert x.grad.tolist() == want, key
        assert Tensor(np.zeros(3))[1].shape == ()
        x = Tensor(np.zeros((2, 3)), requires_grad=True)
        tsum(x[[1, 1, 0], 2]).backward()
        assert x.grad.tolist() == [[0, 0, 1], [0, 0, 2]]

    def test_linear_and_bias(self):
        w = SplitMix64(8).uniform_array((3, 2), -1, 1)
        b = SplitMix64(9).uniform_array((2,), -1, 1)
        assert check_function(lambda v: tsum(linear(v, Tensor(w), Tensor(b))),
                              _a((4, 3), seed=7)) <= TOL
        assert check_function(lambda v: tsum(add_bias(Tensor(SplitMix64(1).uniform_array((4, 2), -1, 1)), v)),
                              _a((2,), seed=7)) <= TOL

    def test_linear_refusals(self):
        x, w = Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 4)))
        y = Tensor(np.zeros((2, 4)))
        for args, kwargs in (((Tensor(np.zeros((2, 4))), w), {}),
                             ((x, Tensor(np.zeros((1, 3, 4)))), {}),
                             ((x, w, Tensor(np.zeros(3))), {}),
                             ((x, w), {"residual": Tensor(np.zeros((4, 2)))})):
            with pytest.raises(ShapeMismatchError):
                linear(*args, **kwargs)
        # the ReLU mask is read off the output, which a residual would shift
        with pytest.raises(SegkitError, match="relu or a residual, not both$"):
            linear(x, w, relu=True, residual=y)
        # mixed dtypes: in place, a sum with a wider operand would round to the
        # product's dtype
        with pytest.raises(SegkitError, match="^linear operands of dtypes"):
            linear(x, w, Tensor(np.zeros(4, np.float32)))

    def test_scalar_mul_both_sides(self):
        x = SplitMix64(2).uniform_array((3, 3), -1, 1)
        assert check_function(lambda v: tsum(scalar_mul(v, Tensor(np.array(0.7)))),
                              _a((3, 3), seed=2)) <= TOL
        assert check_function(lambda v: tsum(scalar_mul(Tensor(x), v)),
                              np.array(0.7)) <= TOL

    def test_conv2d_strided(self):
        w = SplitMix64(4).uniform_array((2, 3, 3, 3), -1, 1)
        assert check_function(lambda v: tsum(conv2d(v, Tensor(w), stride=2, padding=1)),
                              _a((1, 3, 6, 6), seed=5)) <= TOL

    def test_upsample_nearest(self):
        w = SplitMix64(4).uniform_array((1, 2, 6, 6), -1, 1)
        assert check_function(lambda v: tsum(mul(upsample_nearest(v, 3), Tensor(w))),
                              _a((1, 2, 2, 2), seed=5)) <= TOL

    def test_layer_norm(self):
        g = SplitMix64(5).uniform_array((6,), 0.5, 1.5)
        b = SplitMix64(6).uniform_array((6,), -0.5, 0.5)
        w = SplitMix64(7).uniform_array((4, 6), -1, 1)
        assert check_function(lambda v: tsum(mul(layer_norm(v, Tensor(g), Tensor(b)), Tensor(w))),
                              _a((4, 6), seed=8)) <= TOL

    def test_oracle_conv2d_stays_off_relu_kink(self):
        # this seed draws a conv2d pre-activation next to relu's kink at 0
        worst = run_suite("tensor", trials=1, seed=2064)
        assert max(worst.values()) <= ORACLE_TOL

    def test_check_function_perturbs_a_private_copy(self):
        # f reads the caller's array as well; were that array perturbed in
        # place, the constant factor would move with v and the central
        # difference would read twice the gradient
        x = _a((3, 4), seed=10, lo=0.2, hi=1.0)
        before = x.copy()
        assert check_function(lambda v: tsum(mul(v, Tensor(x))), x) <= TOL
        assert np.array_equal(x, before)
        x.setflags(write=False)
        assert check_function(lambda v: tsum(mul(v, Tensor(x))), x) <= TOL

    def test_cross_entropy_with_ignore_and_weights(self):
        # truncation weighs the 3 highest-loss of the 15 valid pixels 0
        # (ceil(0.75 * 15) = 12 kept); the gap at the cut is far above what a
        # central difference moves a loss, so no pixel crosses it
        target = (_a((1, 4, 4), seed=10, lo=0, hi=3)).astype(int)
        target[0, 1, 2] = -1
        x = _a((1, 3, 4, 4), seed=9, lo=-2, hi=2)
        ranked = np.sort(_nll(x, target)[target != -1])
        assert ranked[12] - ranked[11] > 1e-3
        assert check_function(lambda v: cross_entropy(v, target, truncate=0.75), x) <= TOL


class TestSemantics:
    def test_matmul_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            matmul(_t((2, 3)), _t((2, 3)))
        with pytest.raises(ShapeMismatchError):
            matmul(_t((2, 3, 4)), _t((3, 4, 5)))

    def test_conv2d_even_kernel_rejected(self):
        with pytest.raises(ShapeMismatchError):
            conv2d(_t((1, 1, 4, 4)), _t((1, 1, 2, 2)))

    def test_conv2d_negative_output(self):
        with pytest.raises(ShapeMismatchError, match="^output -2x-2 for input 2x2$"):
            conv2d(_t((1, 1, 2, 2)), _t((1, 1, 5, 5)))

    @pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
    @pytest.mark.parametrize("k", [3, 5])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("padding", [0, 1])
    def test_conv2d_matches_direct_loop(self, padding, stride, k, dtype, tol):
        x = Tensor(_a((2, 3, 7, 8), seed=k).astype(dtype), requires_grad=True)
        w = Tensor(_a((4, 3, k, k), seed=k + 1).astype(dtype), requires_grad=True)
        y = conv2d(x, w, stride=stride, padding=padding)
        g = _a(y.shape, seed=k + 2).astype(dtype)
        tsum(mul(y, Tensor(g))).backward()
        # direct loop in f64: every output pixel is one window dot product
        xp = np.pad(x.data.astype(np.float64), ((0, 0), (0, 0), (padding,) * 2, (padding,) * 2))
        wd = w.data.astype(np.float64)
        ref_y, ref_gxp, ref_gw = np.zeros(y.shape), np.zeros_like(xp), np.zeros_like(wd)
        for n in range(y.shape[0]):
            for o in range(y.shape[1]):
                for i in range(y.shape[2]):
                    for j in range(y.shape[3]):
                        rows = slice(i * stride, i * stride + k)
                        cols = slice(j * stride, j * stride + k)
                        ref_y[n, o, i, j] = (xp[n, :, rows, cols] * wd[o]).sum()
                        ref_gxp[n, :, rows, cols] += g[n, o, i, j] * wd[o]
                        ref_gw[o] += g[n, o, i, j] * xp[n, :, rows, cols]
        ref_gx = ref_gxp[:, :, padding:padding + 7, padding:padding + 8]
        for got, want in ((y.data, ref_y), (x.grad, ref_gx), (w.grad, ref_gw)):
            assert got.dtype == dtype and got.shape == want.shape
            assert np.max(np.abs(got - want)) <= tol * max(1.0, np.max(np.abs(want)))

    def test_elementwise_values(self):
        x = _t((3,), seed=1)
        y = _t((3,), seed=2)
        assert np.array_equal(add(x, y).data, x.data + y.data)
        assert np.array_equal(mul(x, y).data, x.data * y.data)
        assert np.array_equal(relu(x).data, np.maximum(x.data, 0))
        assert np.array_equal(scale(x, 2.5).data, x.data * 2.5)
        with pytest.raises(ShapeMismatchError):
            add(x, _t((4,)))

    def test_cross_entropy_all_ignored_is_zero_with_zero_grad(self):
        for truncate in (None, 0.5):
            logits = _t((1, 3, 2, 2), seed=2)
            loss = cross_entropy(logits, np.full((1, 2, 2), -1), truncate=truncate)
            assert float(loss.data) == 0.0
            loss.backward()
            assert np.all(logits.grad == 0.0)

    def test_cross_entropy_truncation_that_drops_nothing_is_plain(self):
        # ceil(0.99 * 30) = 30: the threshold is the largest valid loss
        target = (_a((2, 4, 4), seed=4, lo=0, hi=3)).astype(int)
        target[0, 0, :2] = -1
        out = []
        for truncate in (None, 0.99):
            logits = Tensor(_a((2, 3, 4, 4), seed=5, lo=-3, hi=3).astype(np.float32),
                            requires_grad=True)
            loss = cross_entropy(logits, target, truncate=truncate)
            loss.backward()
            out.append((loss.data.tobytes(), logits.grad.tobytes()))
        assert out[0] == out[1]

    def test_cross_entropy_truncation_ranks_valid_pixels_only(self):
        # 12 of 16 rows ignored: ceil(0.9 * 64) = 58 of the 64 valid pixels
        # keep their weight, the 6 with the highest loss lose it, and the
        # ignored pixels' logits change neither the count nor the loss
        target = (_a((1, 16, 16), seed=14, lo=0, hi=3)).astype(int)
        target[0, :12] = -1
        valid = target != -1
        x = _a((1, 3, 16, 16), seed=15, lo=-3, hi=3)
        nll = _nll(x, target)
        assert len(set(nll[valid])) == 64
        dropped = valid & (nll > np.sort(nll[valid])[57])
        assert dropped.sum() == 6
        losses = []
        for noise_seed in (16, 17):
            xi = x.copy()
            xi[:, :, :12] = _a((1, 3, 12, 16), seed=noise_seed, lo=-9, hi=9)
            logits = Tensor(xi, requires_grad=True)
            loss = cross_entropy(logits, target, truncate=0.9)
            loss.backward()
            assert np.array_equal(np.all(logits.grad == 0, axis=1) & valid, dropped)
            losses.append(float(loss.data))
        assert losses[0] == losses[1] == pytest.approx(nll[valid & ~dropped].mean(), abs=1e-12)

    def test_cross_entropy_class_out_of_range(self):
        with pytest.raises(SegkitError, match=r"^class ids must be in \[0,3\) or -1$"):
            cross_entropy(_t((1, 3, 2, 2)), np.full((1, 2, 2), 7))
        # 255 is the unlabelled value only on disk; in memory it is a class id
        with pytest.raises(SegkitError, match=r"^class ids must be in \[0,3\) or -1$"):
            cross_entropy(_t((1, 3, 2, 2)), np.full((1, 2, 2), 255))

    def test_cross_entropy_hand_value(self):
        # uniform logits over K classes -> loss = log K
        logits = Tensor(np.zeros((1, 4, 2, 2)))
        loss = cross_entropy(logits, np.zeros((1, 2, 2), dtype=int))
        assert abs(float(loss.data) - np.log(4.0)) < 1e-6
