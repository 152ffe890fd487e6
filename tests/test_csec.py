"""Unit tests for the color shift estimation-and-correction module."""

import numpy as np
import pytest

import segkit.csec as csec_module
from segkit.csec import (
    CsecConfig,
    como_fuse,
    csec_correct,
    init_csec,
    mse_loss,
    offset_conv,
    psnr,
    self_correlation,
    sym_norm,
    train_csec,
)
from segkit.errors import ConfigInvalidError, SegkitError, ShapeMismatchError
from segkit.optim import Adam, fit
from segkit.rng import SplitMix64
from segkit.tensor import Tensor, conv2d, mul, tsum


def _rand(seed, shape, lo=-1.0, hi=1.0):
    return SplitMix64(seed).uniform_array(shape, lo, hi)


# -- offset_conv -------------------------------------------------------------


def test_offset_conv_zero_offsets_equals_conv2d():
    x = Tensor(_rand(0, (1, 2, 6, 6)))
    w = Tensor(_rand(1, (3, 2, 3, 3)))
    taps = Tensor(np.zeros((9, 2)))
    got = offset_conv(x, w, taps).data
    ref = conv2d(x, w, stride=1, padding=1).data
    assert np.max(np.abs(got - ref)) < 1e-12


def _shift_then_conv_oracle(x, w, int_taps):
    """Independent oracle: integer-shift each tap's plane, then weight-sum."""
    n, cin, h, wd = x.shape
    cout, _, kh, kw = w.shape
    ry, rx = (kh - 1) // 2, (kw - 1) // 2
    y = np.zeros((n, cout, h, wd))
    for t in range(kh * kw):
        iy, ix = t // kw, t % kw
        dy = (iy - ry) + int_taps[t, 0]
        dx = (ix - rx) + int_taps[t, 1]
        plane = np.zeros_like(x)
        for yy in range(h):
            for xx in range(wd):
                sy, sx = yy + dy, xx + dx
                if 0 <= sy < h and 0 <= sx < wd:
                    plane[:, :, yy, xx] = x[:, :, sy, sx]
        for o in range(cout):
            for c in range(cin):
                y[:, o] += w[o, c, iy, ix] * plane[:, c]
    return y


def test_offset_conv_integer_offsets_match_oracle():
    x = _rand(2, (1, 2, 5, 5))
    w = _rand(3, (2, 2, 3, 3))
    int_taps = SplitMix64(4).uniform_array((9, 2), -2, 2).round().astype(int)
    got = offset_conv(Tensor(x), Tensor(w), Tensor(int_taps.astype(float))).data
    ref = _shift_then_conv_oracle(x, w, int_taps)
    assert np.max(np.abs(got - ref)) < 1e-10


def test_offset_conv_clamps_taps_and_zeroes_bound_gradient():
    x = Tensor(_rand(5, (1, 1, 4, 4)), requires_grad=True)
    w = Tensor(_rand(6, (1, 1, 3, 3)), requires_grad=True)
    taps = Tensor(np.full((9, 2), 100.0), requires_grad=True)  # clamped to +-3
    out = offset_conv(x, w, taps)
    tsum(out).backward()
    assert np.all(taps.grad == 0.0)


def _int_shift(x, dy, dx):
    """out[..., y, x] = x[..., y+dy, x+dx], zero-filled outside bounds."""
    h, w = x.shape[-2], x.shape[-1]
    out = np.zeros_like(x)
    y0, y1 = max(-dy, 0), min(h, h - dy)
    x0, x1 = max(-dx, 0), min(w, w - dx)
    if y0 < y1 and x0 < x1:
        out[..., y0:y1, x0:x1] = x[..., y0 + dy:y1 + dy, x0 + dx:x1 + dx]
    return out


def _bilinear_shift(x, sy, sx):
    """Fractional translation via bilinear interpolation, zero outside."""
    fy, fx = int(np.floor(sy)), int(np.floor(sx))
    ay, ax = sy - fy, sx - fx
    out = np.zeros_like(x)
    for dy, wy in ((fy, 1.0 - ay), (fy + 1, ay)):
        for dx, wx in ((fx, 1.0 - ax), (fx + 1, ax)):
            out += (wy * wx) * _int_shift(x, dy, dx)
    return out


def _offset_conv_reference(x, w, taps, g):
    """Slow per-tap formulation in f64: shift the whole input once per tap.

    Returns the output and, for upstream gradient g, the gradients in x, w
    and the tap offsets (zero where the clamp binds)."""
    x, w, taps, g = (np.asarray(a, dtype=np.float64) for a in (x, w, taps, g))
    cout, cin, kh, kw = w.shape
    ry, rx = (kh - 1) // 2, (kw - 1) // 2
    clamped = np.stack([np.clip(taps[:, 0], -kh, kh), np.clip(taps[:, 1], -kw, kw)], axis=1)
    y = np.zeros((x.shape[0], cout) + x.shape[2:])
    gx, gw, gt = np.zeros_like(x), np.zeros_like(w), np.zeros_like(taps)
    for t in range(kh * kw):
        iy, ix = t // kw, t % kw
        sy, sx = (iy - ry) + clamped[t, 0], (ix - rx) + clamped[t, 1]
        plane = _bilinear_shift(x, sy, sx)
        y += np.einsum("nchw,oc->nohw", plane, w[:, :, iy, ix])
        gw[:, :, iy, ix] = np.einsum("nchw,nohw->oc", plane, g)
        gplane = np.einsum("nohw,oc->nchw", g, w[:, :, iy, ix])
        gx += _bilinear_shift(gplane, -sy, -sx)
        fy, fx = int(np.floor(sy)), int(np.floor(sx))
        ay, ax = sy - fy, sx - fx
        s00, s01 = _int_shift(x, fy, fx), _int_shift(x, fy, fx + 1)
        s10, s11 = _int_shift(x, fy + 1, fx), _int_shift(x, fy + 1, fx + 1)
        if clamped[t, 0] == taps[t, 0]:
            gt[t, 0] = (gplane * ((1.0 - ax) * (s10 - s00) + ax * (s11 - s01))).sum()
        if clamped[t, 1] == taps[t, 1]:
            gt[t, 1] = (gplane * ((1.0 - ay) * (s01 - s00) + ay * (s11 - s10))).sum()
    return y, gx, gw, gt


def _taps(kind, k, seed):
    if kind == "fractional":
        return _rand(seed, (k * k, 2), -1.5, 1.5)
    if kind == "negative_integer":
        return -SplitMix64(seed).uniform_array((k * k, 2), 1, k).round()
    taps = np.full((k * k, 2), 100.0)  # clamped: both signs, on both axes
    taps[1::2] = -100.0
    taps[::3, 1] *= -1.0
    taps[0] = [0.25, -0.75]  # one free tap among the clamped ones
    return taps


@pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
@pytest.mark.parametrize("k", [3, 5])
@pytest.mark.parametrize("kind", ["fractional", "negative_integer", "clamped"])
def test_offset_conv_matches_per_tap_reference(kind, k, dtype, tol):
    x = Tensor(_rand(k, (2, 3, 7, 6)).astype(dtype), requires_grad=True)
    w = Tensor(_rand(k + 1, (4, 3, k, k)).astype(dtype), requires_grad=True)
    taps = Tensor(_taps(kind, k, k + 2).astype(dtype), requires_grad=True)
    g = _rand(k + 3, (2, 4, 7, 6)).astype(dtype)
    y = offset_conv(x, w, taps)
    tsum(mul(y, Tensor(g))).backward()
    ref = _offset_conv_reference(x.data, w.data, taps.data, g)
    for got, want in zip((y.data, x.grad, w.grad, taps.grad), ref):
        assert got.dtype == dtype and got.shape == want.shape
        assert np.max(np.abs(got - want)) <= tol * max(1.0, np.max(np.abs(want)))


def test_offset_conv_rejects_nonfinite_taps():
    taps = np.zeros((9, 2))
    taps[0, 0] = np.nan
    with pytest.raises(SegkitError, match="^tap offsets contain non-finite values$"):
        offset_conv(Tensor(np.zeros((1, 1, 4, 4))), Tensor(np.zeros((1, 1, 3, 3))),
                    Tensor(taps))


def test_offset_conv_shape_validation():
    with pytest.raises(ShapeMismatchError):
        offset_conv(Tensor(np.zeros((1, 1, 4, 4))), Tensor(np.zeros((1, 2, 3, 3))),
                    Tensor(np.zeros((9, 2))))
    with pytest.raises(ShapeMismatchError):
        offset_conv(Tensor(np.zeros((1, 1, 4, 4))), Tensor(np.zeros((1, 1, 3, 3))),
                    Tensor(np.zeros((4, 2))))


# -- sym_norm ----------------------------------------------------------------


def sym_norm_naive(a, eps=1e-8, symmetrize="as_printed"):
    """Brute-force reimplementation with explicit loops (test oracle)."""
    t = a.shape[0]
    s = np.empty_like(a)
    for i in range(t):
        for j in range(t):
            if symmetrize == "as_printed":
                s[i, j] = a[i, j] + 0.5 * a[j, i]
            else:
                s[i, j] = (a[i, j] + a[j, i]) * 0.5
    dm = np.empty(t)
    for i in range(t):
        dm[i] = 1.0 / np.sqrt(max(s[i, i], eps))
    out = np.empty_like(s)
    for i in range(t):
        for j in range(t):
            out[i, j] = s[i, j] * (dm[i] * dm[j])
    return out


# the ids name the degree matrix too: D is S's diagonal
SYMMETRIZE = pytest.mark.parametrize("symmetrize", ["as_printed", "conventional"],
                                     ids=["diag-as_printed", "diag-conventional"])


@SYMMETRIZE
def test_sym_norm_matches_naive_oracle_exactly(symmetrize):
    rng = SplitMix64(7)
    for _ in range(100):
        a = rng.uniform_array((8, 8), 0.1, 1.0)
        got = sym_norm(Tensor(a), symmetrize=symmetrize).data
        assert np.array_equal(got, sym_norm_naive(a, symmetrize=symmetrize))


def test_sym_norm_symmetric_input_symmetric_output_unit_diag():
    rng = SplitMix64(8)
    for _ in range(20):
        f = rng.uniform_array((6, 4), 0.2, 1.0)
        a = f @ f.T  # symmetric with positive diagonal
        out = sym_norm(Tensor(a)).data
        assert np.max(np.abs(out - out.T)) < 1e-6
        assert np.max(np.abs(np.diag(out) - 1.0)) < 1e-6


def test_sym_norm_diagonal_to_identity():
    d = np.diag(4.0 ** np.arange(-2, 3, dtype=np.float64))
    out = sym_norm(Tensor(d), symmetrize="conventional").data
    assert np.array_equal(out, np.eye(5))
    out_ap = sym_norm(Tensor(d)).data
    assert np.max(np.abs(out_ap - np.eye(5))) < 1e-12


@SYMMETRIZE
def test_sym_norm_batched_matches_per_slice(symmetrize):
    a = _rand(14, (2, 3, 6, 6), 0.1, 1.0)
    got = sym_norm(Tensor(a), symmetrize=symmetrize).data
    assert got.shape == a.shape
    for i in range(2):
        for j in range(3):
            ref = sym_norm(Tensor(a[i, j]), symmetrize=symmetrize).data
            assert np.max(np.abs(got[i, j] - ref)) <= 1e-12


def test_sym_norm_rejects_non_square():
    with pytest.raises(ShapeMismatchError, match="^sym_norm needs square matrices"):
        sym_norm(Tensor(np.zeros((3, 4))))
    with pytest.raises(ShapeMismatchError, match="^sym_norm needs square matrices"):
        sym_norm(Tensor(np.zeros((2, 3, 4))))
    with pytest.raises(ShapeMismatchError, match="^sym_norm needs square matrices"):
        sym_norm(Tensor(np.zeros(3)))
    with pytest.raises(ValueError):
        sym_norm(Tensor(np.eye(3)), symmetrize="bogus")


# -- self_correlation / fusion ----------------------------------------------


def _jacobi_eigenvalues(a, sweeps=50):
    """Plain Jacobi rotation eigen-iteration for symmetric matrices."""
    a = a.copy()
    n = a.shape[0]
    for _ in range(sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                off = max(off, abs(a[p, q]))
                if abs(a[p, q]) < 1e-14:
                    continue
                theta = 0.5 * np.arctan2(2 * a[p, q], a[q, q] - a[p, p])
                c, s = np.cos(theta), np.sin(theta)
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
        if off < 1e-14:
            break
    return np.sort(np.diag(a))


def test_self_correlation_is_psd():
    rng = SplitMix64(9)
    for _ in range(10):
        f = rng.uniform_array((12, 5), -1.0, 1.0)
        corr = self_correlation(Tensor(f)).data
        assert np.max(np.abs(corr - corr.T)) < 1e-12
        assert _jacobi_eigenvalues(corr)[0] >= -1e-6


def test_self_correlation_and_como_fuse_batched_match_per_slice():
    fx, fd, fb = (_rand(15 + i, (3, 8, 4), 0.2, 1.0) for i in range(3))
    weights = {"fuse.gx": Tensor(np.array(0.7)), "fuse.gd": Tensor(np.array(0.5)),
               "fuse.gb": Tensor(np.array(0.3)), "fuse.bias": Tensor(_rand(18, (4,)))}
    corr = self_correlation(Tensor(fx)).data
    fused = como_fuse(Tensor(fx), Tensor(fd), Tensor(fb), weights).data
    assert corr.shape == (3, 8, 8) and fused.shape == (3, 8, 4)
    for n in range(3):
        assert np.max(np.abs(corr[n] - self_correlation(Tensor(fx[n])).data)) <= 1e-12
        ref = como_fuse(Tensor(fx[n]), Tensor(fd[n]), Tensor(fb[n]), weights).data
        assert np.max(np.abs(fused[n] - ref)) <= 1e-12


def test_como_fuse_shape_mismatch():
    weights = {"fuse.gx": Tensor(np.array(1.0)), "fuse.gd": Tensor(np.array(0.1)),
               "fuse.gb": Tensor(np.array(0.1)), "fuse.bias": Tensor(np.zeros(3))}
    with pytest.raises(ShapeMismatchError):
        como_fuse(Tensor(np.ones((4, 3))), Tensor(np.ones((5, 3))),
                  Tensor(np.ones((4, 3))), weights)


# -- full pipeline -----------------------------------------------------------


def test_identity_at_init():
    cfg = CsecConfig()
    params = init_csec(cfg, seed=0)
    rng = SplitMix64(10)
    for _ in range(3):
        img = Tensor(rng.uniform_array((1, 3, 16, 16), 0.02, 0.98).astype(np.float32))
        out = csec_correct(img, params, cfg)
        assert out.data.shape == img.data.shape
        assert float(np.max(np.abs(out.data - img.data))) < 1e-3


@pytest.mark.parametrize("bad", [dict(residual_eps=0.6), dict(residual_eps=0.5),
                                 dict(residual_eps=0.0), dict(kernel=4), dict(kernel=0),
                                 dict(kernel=-1), dict(hidden=0), dict(feat_channels=0)],
                         ids=["residual_eps=0.6", "residual_eps=0.5", "residual_eps=0",
                              "kernel=4", "kernel=0", "kernel=-1", "hidden=0",
                              "feat_channels=0"])
def test_config_checks_itself(bad):
    # residual_eps >= 0.5 clips every residual input to one value, a flat image
    with pytest.raises(ConfigInvalidError, match=next(iter(bad))):
        CsecConfig(**bad)


@pytest.mark.parametrize("kernel", [1, 5])
def test_kernel_other_than_3(kernel):
    cfg = CsecConfig(kernel=kernel)
    params = init_csec(cfg, seed=0)
    rng = SplitMix64(13)
    clean = rng.uniform_array((1, 3, 16, 16), 0.1, 0.9).astype(np.float32)
    corrupted = np.clip(clean ** 2.0, 0.0, 1.0).astype(np.float32)
    out = csec_correct(Tensor(corrupted), params, cfg)
    assert out.data.shape == corrupted.shape
    assert float(np.max(np.abs(out.data - corrupted))) < 1e-3
    losses = train_csec([(corrupted, clean)], params, cfg, epochs=1, lr=5e-3, seed=0)
    assert np.isfinite(losses[0])


def test_output_in_unit_interval():
    cfg = CsecConfig(feat_channels=3, hidden=4)
    params = init_csec(cfg, seed=5, identity=False)
    img = Tensor(SplitMix64(11).uniform_array((1, 3, 8, 8), 0.0, 1.0).astype(np.float32))
    out = csec_correct(img, params, cfg).data
    assert out.min() >= 0.0 and out.max() <= 1.0


def test_csec_correct_batch_matches_single_images():
    imgs = SplitMix64(19).uniform_array((3, 3, 16, 16), 0.05, 0.95).astype(np.float32)
    params = init_csec(CsecConfig(), seed=4, identity=False)
    batched = csec_correct(Tensor(imgs), params).data
    assert batched.shape == imgs.shape
    for n in range(3):
        single = csec_correct(Tensor(imgs[n:n + 1]), params).data
        assert np.max(np.abs(batched[n:n + 1] - single)) <= 1e-6


def test_csec_correct_batch_gradients_sum_single_image_gradients():
    cfg = CsecConfig(feat_channels=3, hidden=4)
    params = init_csec(cfg, seed=5, dtype=np.float64, identity=False)
    imgs = SplitMix64(20).uniform_array((3, 3, 8, 8), 0.05, 0.95)
    w = SplitMix64(21).uniform_array((3, 3, 8, 8), -1.0, 1.0)

    def grads(n0, n1):
        for p in params.values():
            p.zero_grad()
        tsum(mul(csec_correct(Tensor(imgs[n0:n1]), params, cfg), Tensor(w[n0:n1]))).backward()
        return {k: p.grad.copy() for k, p in params.items()}

    batched = grads(0, 3)
    singles = [grads(n, n + 1) for n in range(3)]
    for k, g in batched.items():
        ref = singles[0][k] + singles[1][k] + singles[2][k]
        assert np.max(np.abs(g - ref)) <= 1e-10 * max(1.0, float(np.max(np.abs(ref)))), k


def test_input_validation():
    cfg = CsecConfig()
    params = init_csec(cfg, seed=0)
    assert csec_correct(Tensor(np.zeros((2, 3, 8, 8))), params, cfg).data.shape == (2, 3, 8, 8)
    with pytest.raises(ShapeMismatchError):
        csec_correct(Tensor(np.zeros((1, 4, 8, 8))), params, cfg)  # not 3 channels
    with pytest.raises(ShapeMismatchError):
        csec_correct(Tensor(np.zeros((3, 8, 8))), params, cfg)  # no batch axis
    with pytest.raises(ShapeMismatchError):
        csec_correct(Tensor(np.zeros((1, 3, 10, 10))), params, cfg)  # not % 4
    with pytest.raises(ShapeMismatchError):
        csec_correct(Tensor(np.zeros((1, 3, 68, 68))), params, cfg)  # > 64
    with pytest.raises(SegkitError, match=r"are not all finite and in \[0,1\]$"):
        csec_correct(Tensor(np.full((1, 3, 8, 8), 1.5)), params, cfg)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_pixels_rejected(bad):
    # min and max alone let a NaN through: the output would be NaN
    cfg = CsecConfig()
    image = np.full((1, 3, 8, 8), 0.5, dtype=np.float32)
    image[0, 1, 2, 3] = bad
    with pytest.raises(SegkitError, match=r"are not all finite and in \[0,1\]$"):
        csec_correct(Tensor(image), init_csec(cfg, seed=0), cfg)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("value, taken", [
    (-1e-6, True), (1 + 1e-6, True), (-2e-6, False), (1 + 2e-6, False)])
def test_pixels_within_1e_6_of_the_range_are_taken(value, taken, dtype):
    # float32 rounds 1 + 1e-6 down to 1 + 8 ulp, still inside the tolerance
    cfg = CsecConfig()
    image = np.full((1, 3, 8, 8), 0.5, dtype=dtype)
    image[0, 0, 4, 4] = value
    params = init_csec(cfg, seed=0)
    if taken:
        assert np.isfinite(csec_correct(Tensor(image), params, cfg).data).all()
    else:
        with pytest.raises(SegkitError, match=r"are not all finite and in \[0,1\]$"):
            csec_correct(Tensor(image), params, cfg)


def test_range_checked_once_per_correction(monkeypatch):
    calls = []
    check = csec_module._check_image_range
    monkeypatch.setattr(csec_module, "_check_image_range",
                        lambda image: calls.append(1) or check(image))
    cfg = CsecConfig()
    csec_correct(Tensor(np.full((2, 3, 8, 8), 0.5)), init_csec(cfg, seed=0), cfg)
    assert len(calls) == 1


@pytest.mark.xfail(strict=True, reason="from the identity init the offset branch gets an "
                                       "exactly zero gradient (ROADMAP item 3)")
def test_identity_init_trains_the_offset_branch():
    # cose.w2 = 0 makes the offset maps 0, so the ed/eb tokens F are 0, and
    # the gradient of gamma * sym_norm(F F^T) F at F = 0 is exactly 0; so
    # csec_correct does not run the branch at all, and its tensors get no
    # gradient
    cfg = CsecConfig()
    params = init_csec(cfg, seed=3)
    init = {k: p.data.copy() for k, p in params.items()}
    rng = SplitMix64(5)
    clean = rng.uniform_array((1, 3, 8, 8), 0.1, 0.9).astype(np.float32)
    pairs = [(np.clip(clean * 0.6, 0.0, 1.0), clean)]
    train_csec(pairs, params, cfg, epochs=3, lr=1e-2, seed=0)
    assert not np.array_equal(params["dec.w3"].data, init["dec.w3"])  # the step did run
    assert not np.array_equal(params["cose.w2"].data, init["cose.w2"])


class TestOffsetBranchShortcut:
    """While cose.w2 is all zero, csec_correct leaves the offset branch out:
    the same bytes as the full path, which ``_full_path`` forces."""

    @staticmethod
    def _full_path(monkeypatch):
        monkeypatch.setattr(csec_module, "_offset_branch_is_zero", lambda params: False)

    @staticmethod
    def _count_branch_runs(monkeypatch):
        calls = []
        cose = csec_module.cose_forward
        monkeypatch.setattr(csec_module, "cose_forward",
                            lambda image, params: calls.append(1) or cose(image, params))
        return calls

    @staticmethod
    def _train(seed, dtype):
        """(params, held-out outputs) after training from the identity init."""
        cfg = CsecConfig()
        rng = SplitMix64(seed)
        pairs = []
        for _ in range(4):
            clean = rng.uniform_array((1, 3, 16, 16), 0.05, 0.95).astype(dtype)
            pairs.append((np.clip(clean ** 1.8, 0.0, 1.0), clean))
        params = init_csec(cfg, seed=seed, dtype=dtype)
        train_csec(pairs[:3], params, cfg, epochs=3, lr=5e-3, seed=seed)
        return params, csec_correct(Tensor(pairs[3][0]), params, cfg).data

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("seed", [3, 11])
    def test_shortcut_trains_the_full_paths_bytes(self, monkeypatch, seed, dtype):
        calls = self._count_branch_runs(monkeypatch)
        params, out = self._train(seed, dtype)
        assert not calls  # every step left the branch out
        self._full_path(monkeypatch)
        ref, ref_out = self._train(seed, dtype)
        assert len(calls) == 3 * 3 + 1
        assert out.dtype == ref_out.dtype == dtype and out.tobytes() == ref_out.tobytes()
        assert list(params) == list(ref)
        for k in ref:
            assert params[k].data.tobytes() == ref[k].data.tobytes(), k
        assert not params["cose.w2"].data.any()

    def test_branch_zeroed_mid_run_trains_as_the_full_path(self, monkeypatch):
        # a branch that trained live keeps moving on its moments after
        # cose.w2 is zeroed inside the same Adam run, so the first shortcut
        # step moves cose.w2 off zero and the rest take the full path
        calls = self._count_branch_runs(monkeypatch)

        def run():
            cfg = CsecConfig()
            rng = SplitMix64(5)
            pairs = []
            for _ in range(3):
                clean = rng.uniform_array((1, 3, 8, 8), 0.05, 0.95).astype(np.float32)
                pairs.append((np.clip(clean ** 1.8, 0.0, 1.0), clean))
            params = init_csec(cfg, seed=1, identity=False)
            opt = Adam(params, lr=5e-3)

            def pair_loss(batch):
                corrupted, clean = pairs[batch[0]]
                return mse_loss(csec_correct(Tensor(corrupted), params, cfg), clean)

            losses = list(fit(opt, len(pairs), pair_loss, 2, 1, seed=0))
            params["cose.w2"].data = np.zeros_like(params["cose.w2"].data)
            del calls[:]
            losses += list(fit(opt, len(pairs), pair_loss, 2, 1, seed=1))
            return losses, params

        losses, params = run()
        assert len(calls) == 2 * 3 - 1 and params["cose.w2"].data.any()
        self._full_path(monkeypatch)
        ref_losses, ref = run()
        assert losses == ref_losses
        for k in ref:
            assert params[k].data.tobytes() == ref[k].data.tobytes(), k

    def test_branch_gets_no_gradient(self):
        cfg = CsecConfig()
        params = init_csec(cfg, seed=0)
        image = SplitMix64(1).uniform_array((1, 3, 8, 8), 0.1, 0.9)
        tsum(csec_correct(Tensor(image), params, cfg)).backward()
        frozen = {"cose.w1", "cose.t1", "cose.w2", "cose.t2", "fuse.gd", "fuse.gb"}
        frozen |= {f"{b}.w{i}" for b in ("ed", "eb") for i in (1, 2, 3)}
        assert {k for k, p in params.items() if p.grad is None} == frozen

    def test_one_nonzero_w2_entry_takes_the_full_path(self, monkeypatch):
        calls = self._count_branch_runs(monkeypatch)
        cfg = CsecConfig()
        params = init_csec(cfg, seed=0)
        params["cose.w2"].data[2, 5, 1, 0] = 1e-3
        image = SplitMix64(2).uniform_array((1, 3, 8, 8), 0.1, 0.9)
        csec_correct(Tensor(image), params, cfg)
        assert len(calls) == 1

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_init_never_takes_the_shortcut(self, monkeypatch, seed):
        calls = self._count_branch_runs(monkeypatch)
        cfg = CsecConfig()
        image = SplitMix64(seed).uniform_array((1, 3, 8, 8), 0.1, 0.9)
        csec_correct(Tensor(image), init_csec(cfg, seed=seed, identity=False), cfg)
        assert len(calls) == 1

    @staticmethod
    def _train_spoilt(name, bad):
        """Two steps from the identity init with one branch value (or, for a
        finite ``bad``, all of them) set to bad: the error type training
        raises, or the trained parameters and the output."""
        cfg = CsecConfig()
        params = init_csec(cfg, seed=0)
        if np.isfinite(bad):
            params[name].data[...] = bad
        else:
            params[name].data.reshape(-1)[0] = bad
        clean = SplitMix64(4).uniform_array((1, 3, 8, 8), 0.1, 0.9).astype(np.float32)
        pairs = [(np.clip(clean ** 1.8, 0.0, 1.0), clean)]
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                train_csec(pairs, params, cfg, epochs=2, lr=5e-3, seed=0)
            except SegkitError as exc:
                return type(exc)
            out = csec_correct(Tensor(pairs[0][0]), params, cfg).data
        return [p.data.tobytes() for p in params.values()] + [out.tobytes()]

    # a non-finite value in the branch makes the full path's gradients NaN
    # (0 * inf), and so does a cose.w1 large enough for the first layer to
    # overflow; the shortcut alone would train on as if the branch were
    # finite
    @pytest.mark.parametrize("name, bad", [("ed.w1", np.nan), ("fuse.gd", np.nan),
                                           ("eb.w3", np.inf), ("cose.w1", -np.inf),
                                           ("cose.w1", 1e38)])
    def test_spoilt_branch_trains_as_the_full_path(self, monkeypatch, name, bad):
        got = self._train_spoilt(name, bad)
        monkeypatch.setattr(csec_module, "_offset_branch_is_zero", lambda params: True)
        shortcut = self._train_spoilt(name, bad)
        self._full_path(monkeypatch)
        ref = self._train_spoilt(name, bad)
        assert got == ref and shortcut != ref

    @pytest.mark.parametrize("name", ["cose.t1", "cose.t2"])
    def test_non_finite_tap_offset_still_raises(self, name):
        cfg = CsecConfig()
        params = init_csec(cfg, seed=0)
        params[name].data[4, 1] = np.nan
        with pytest.raises(SegkitError, match="^tap offsets contain non-finite values$"):
            csec_correct(Tensor(np.full((1, 3, 8, 8), 0.5)), params, cfg)


def test_train_csec_overfits_one_pair():
    cfg = CsecConfig()
    params = init_csec(cfg, seed=3)
    rng = SplitMix64(12)
    clean = rng.uniform_array((1, 3, 8, 8), 0.1, 0.9).astype(np.float32)
    corrupted = np.clip(clean ** 2.0, 0.0, 1.0).astype(np.float32)
    losses = train_csec([(corrupted, clean)], params, cfg, epochs=30, lr=5e-3, seed=0)
    assert losses[-1] < 0.25 * losses[0]


_GOOD = np.full((1, 3, 16, 16), 0.5, np.float32)


@pytest.mark.parametrize("corrupted, clean, message", [
    (_GOOD, np.full((1, 3, 8, 8), 0.5, np.float32),
     r"^pair 2: clean image \(1, 3, 8, 8\) vs corrupted \(1, 3, 16, 16\)$"),
    (np.full((3, 16, 16), 0.5, np.float32), np.full((3, 16, 16), 0.5, np.float32),
     r"^pair 2: corrupted image: expected \[1,3,H,W\], got \(3, 16, 16\)$"),
    (np.full((2, 3, 16, 16), 0.5, np.float32), np.full((2, 3, 16, 16), 0.5, np.float32),
     r"^pair 2: corrupted image: expected \[1,3,H,W\], got \(2, 3, 16, 16\)$"),
    (np.full((1, 3, 10, 10), 0.5, np.float32), np.full((1, 3, 10, 10), 0.5, np.float32),
     r"^pair 2: corrupted image: color correction needs .* got 10x10$"),
], ids=["clean-8x8", "no-batch-axis", "two-images", "extent-10"])
def test_train_csec_refuses_a_bad_pair_before_any_step(corrupted, clean, message):
    # seed 2 visits the pairs in the order 0, 1, 3, 2: three steps once
    # changed the parameters before the bad pair raised, at its own step,
    # with a message naming no pair
    cfg = CsecConfig()
    params = init_csec(cfg, seed=1, identity=False)
    before = {k: p.data.tobytes() for k, p in params.items()}
    pairs = [(_GOOD, _GOOD), (_GOOD, _GOOD * 0.9), (corrupted, clean), (_GOOD, _GOOD)]
    with pytest.raises(ShapeMismatchError, match=message):
        train_csec(pairs, params, cfg, epochs=1, seed=2)
    assert {k: p.data.tobytes() for k, p in params.items()} == before


@pytest.mark.parametrize("which", ["corrupted", "clean"])
@pytest.mark.parametrize("bad", [1.5, -0.25, 1 + 2e-6, -2e-6, np.inf, np.nan])
def test_train_csec_refuses_an_out_of_range_pair_before_any_step(which, bad):
    # a corrupted image out of [0,1] once raised at its own step, after three
    # steps had changed the parameters, naming no pair; a clean one never did
    cfg = CsecConfig()
    params = init_csec(cfg, seed=1, identity=False)
    before = {k: p.data.tobytes() for k, p in params.items()}
    image = _GOOD.copy()
    image[0, 1, 5, 7] = bad
    pair = (image, _GOOD) if which == "corrupted" else (_GOOD, image)
    pairs = [(_GOOD, _GOOD), (_GOOD, _GOOD * 0.9), pair, (_GOOD, _GOOD)]
    with pytest.raises(SegkitError, match=rf"^pair 2: {which} image: pixel values "
                                          r"\[.*\] are not all finite and in \[0,1\]$"):
        train_csec(pairs, params, cfg, epochs=1, seed=2)
    assert {k: p.data.tobytes() for k, p in params.items()} == before


@pytest.mark.parametrize("which", ["corrupted", "clean"])
def test_train_csec_takes_pixels_within_the_range_tolerance(which):
    # the up-front check is csec_correct's own, 1e-6 either side of [0,1]
    cfg = CsecConfig()
    params = init_csec(cfg, seed=1, identity=False)
    before = {k: p.data.tobytes() for k, p in params.items()}
    image = _GOOD.copy()
    image[0, 2, 3, :2] = -1e-6, 1 + 1e-6
    pair = (image, _GOOD) if which == "corrupted" else (_GOOD, image)
    losses = train_csec([pair], params, cfg, epochs=1, seed=2)
    assert len(losses) == 1 and np.isfinite(losses[0])
    assert {k: p.data.tobytes() for k, p in params.items()} != before


def test_psnr_refuses_operands_of_different_shapes():
    with pytest.raises(ShapeMismatchError, match=r"^psnr of \(1, 3, 4, 4\) vs \(1, 3, 2, 2\)$"):
        psnr(np.zeros((1, 3, 4, 4)), np.zeros((1, 3, 2, 2)))
    with pytest.raises(ShapeMismatchError):
        psnr(Tensor(np.zeros((1, 3, 4, 4))), np.zeros((3, 4, 4)))


def test_psnr_spot_values():
    a = np.zeros((1, 3, 4, 4))
    assert psnr(a, a) == float("inf")
    b = np.full((1, 3, 4, 4), 0.1)
    assert abs(psnr(a, b) - 20.0) < 1e-9  # mse 0.01 -> 10*log10(100)
    assert abs(float(mse_loss(Tensor(a), b).data) - 0.01) < 1e-9
