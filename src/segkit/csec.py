"""Color Shift Estimation-and-Correction.

Pipeline: an offset-prediction head estimates darkening/brightening offset
maps from the input image via offset-modulated (deformable-sampling)
convolutions, each a ``conv2d`` with a kernel its learned taps are splatted
onto; three conv stacks extract token features from the image and
the two offset maps; the features are fused through self-correlation
matrices put through a symmetrize-and-normalize map with learned fusion
weights; a small upsampling decoder reconstructs the corrected image.

Identity-at-init: the offset head's output layer and the decoder's output
layer are zero-initialized and the decoder carries a residual connection
from the input image, so the untrained module is a near-no-op.  With
``cose.w2`` all zero the offset maps, the ``ed``/``eb`` features, their
fusion terms and every gradient into that branch are exactly zero, so
``csec_correct`` leaves the branch out (``_offset_branch_is_zero``) with the
same bytes.  Its parameters then get no gradient, which Adam reads as zeros,
so training gives the full path's bytes in any optimizer state; from the
identity init it never moves the branch.  ROADMAP item 3 decides its future.

``train_csec`` fits the corrector to (corrupted, clean) pairs one pair per
Adam step through ``optim.fit``, the loop ``segnet.train`` runs too; its
weights are drawn by ``optim.fan_in_uniform`` in the order of
``param_shapes``.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigInvalidError, SegkitError, ShapeMismatchError
from .optim import Adam, fan_in_uniform, fit
from .rng import SplitMix64
from .tensor import (
    Tensor,
    add,
    add_bias,
    conv2d,
    matmul,
    mul,
    relu,
    reshape,
    scalar_mul,
    scale,
    sigmoid,
    tmean,
    upsample_nearest,
)

__all__ = [
    "CsecConfig",
    "offset_conv",
    "cose_forward",
    "self_correlation",
    "sym_norm",
    "como_fuse",
    "decode",
    "check_extents",
    "csec_correct",
    "init_csec",
    "param_shapes",
    "train_csec",
    "psnr",
]


@dataclass
class CsecConfig:
    feat_channels: int = 8
    hidden: int = 16
    kernel: int = 3
    residual_eps: float = 1e-4  # input clip for the logit-space residual

    def __post_init__(self):
        for name in ("feat_channels", "hidden"):
            if getattr(self, name) < 1:
                raise ConfigInvalidError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.kernel < 1 or self.kernel % 2 == 0:
            raise ConfigInvalidError(f"kernel must be odd and at least 1, got {self.kernel}")
        # decode clips its input to [eps, 1 - eps]: from 0.5 on, to one value
        if not 0.0 < self.residual_eps < 0.5:
            raise ConfigInvalidError(f"residual_eps must be in (0, 0.5), got {self.residual_eps}")


# -- deformable sampling ----------------------------------------------------


def offset_conv(x: Tensor, w: Tensor, tap_offsets: Tensor) -> Tensor:
    """Offset-modulated convolution y(p) = sum_i w_i * x(p + p_i + dp_i).

    Stride 1, same-size output (zero padding implied by out-of-bounds
    sampling).  Each kernel tap i samples at its integer grid position p_i
    displaced by a learned fractional offset dp_i, via bilinear
    interpolation.  Offsets are clamped to the kernel extent per axis.
    Differentiable in x, w and tap_offsets.

    Every pixel shares the offsets, so each tap's sample is a fixed mix of at
    most four integer shifts, and the op is ``conv2d`` with the taps' weights
    splatted onto those shifts (``_tap_kernel``).
    """
    if x.data.ndim != 4 or w.data.ndim != 4:
        raise ShapeMismatchError("offset_conv expects NCHW input and OIHW kernel")
    cin = x.data.shape[1]
    _, cin2, kh, kw = w.data.shape
    if cin != cin2:
        raise ShapeMismatchError(f"channels {cin} vs kernel {cin2}")
    if kh % 2 == 0 or kw % 2 == 0:
        raise ShapeMismatchError("kernel extents must be odd")
    if tap_offsets.data.shape != (kh * kw, 2):
        raise ShapeMismatchError(f"tap_offsets must be [{kh * kw},2], got {tap_offsets.data.shape}")
    if not np.all(np.isfinite(tap_offsets.data)):
        raise SegkitError("tap offsets contain non-finite values")
    kernel = _tap_kernel(w, tap_offsets)
    return conv2d(x, kernel, stride=1, padding=kernel.data.shape[-1] // 2)


def _splat(w, tap_offsets):
    """(kernel, pos, weight, frac, active) of ``_tap_kernel``: the kernel
    [cout, cin, 2r+1, 2r+1]; the flat kernel-plane position and the bilinear
    weight, in w's dtype, of each tap's corners [taps, 4]; the fractions of
    the sample points [taps, 2]; and where the clamp passes the offsets."""
    cout, cin, kh, kw = w.shape
    taps = kh * kw
    raw = tap_offsets.astype(np.float64)
    ext = np.array([kh, kw])
    clamped = np.clip(raw, -ext, ext)
    iy, ix = np.divmod(np.arange(taps), kw)
    # [taps, 2] per axis (y, x): the sample point, its floor and its fraction
    s = np.stack([iy - (kh - 1) // 2, ix - (kw - 1) // 2], axis=1) + clamped
    f = np.floor(s)
    frac = s - f
    f = f.astype(int)
    r = int(np.maximum(-f, f + 1).max())
    side = 2 * r + 1
    # [taps, 4] over corners (0,0), (0,1), (1,0), (1,1): the bilinear weight
    # in w's dtype and the flat position in a kernel plane
    lin = np.stack([1.0 - frac, frac], axis=2)  # [taps, axis, corner side]
    weight = (lin[:, 0, :, None] * lin[:, 1, None, :]).reshape(taps, 4).astype(w.dtype)
    pos = ((r + f[:, 0]) * side + r + f[:, 1])[:, None] + np.array([0, 1, side, side + 1])
    k2 = np.zeros((cout * cin, side * side), w.dtype)
    np.add.at(k2, (slice(None), pos.reshape(-1)),
              (w.reshape(cout * cin, taps)[:, :, None] * weight).reshape(cout * cin, -1))
    return k2.reshape(cout, cin, side, side), pos, weight, frac, clamped == raw


def _tap_kernel(w: Tensor, tap_offsets: Tensor) -> Tensor:
    """The square kernel, of side 2r+1, that ``offset_conv`` convolves with:
    each tap's weights times its four bilinear corner weights, added at the
    corners' shifts tap by tap in corner order, from +0.

    r covers every corner of every tap, a zero-weight one too, since at an
    integer offset the one-sided tap gradient reads it.  The side follows
    the floors, so a perturbation that moves an outermost corner changes it;
    the oracle's replay keeps conv2d's recorded padding and holds only off
    such a kink.  Backward takes w's gradient and the tap gradient from the
    kernel's; an axis where the clamp binds gets no tap gradient.
    """
    cout, cin, kh, kw = w.data.shape
    kernel, pos, weight, frac, active = _splat(w.data, tap_offsets.data)
    side = kernel.shape[-1]

    def bwd(g):
        corners = g.reshape(cout * cin, side * side)[:, pos]  # [cout * cin, taps, 4]
        gw = gt = None
        if w.requires_grad:
            p = corners * weight
            gw = (p[..., 0] + p[..., 1] + p[..., 2] + p[..., 3]).reshape(w.data.shape)
        if tap_offsets.requires_grad:
            # d/dsy = (1-ax)(d10-d00) + ax(d11-d01), d/dsx its twin, with d_ab
            # tap t's weights dotted with the kernel gradient at its corner ab
            d = (corners * w.data.reshape(cout * cin, kh * kw)[:, :, None]).sum(axis=0)
            ay, ax = frac[:, 0], frac[:, 1]
            gy = (1.0 - ax) * (d[:, 2] - d[:, 0]) + ax * (d[:, 3] - d[:, 1])
            gx = (1.0 - ay) * (d[:, 1] - d[:, 0]) + ay * (d[:, 3] - d[:, 2])
            gt = np.where(active, np.stack([gy, gx], axis=1), 0.0).astype(tap_offsets.dtype)
        return gw, gt

    return Tensor(kernel, parents=(w, tap_offsets), backward_fn=bwd, call=(_splat,))


# -- COSE: offset estimation ------------------------------------------------


def _check_image_range(image: Tensor):
    """Every pixel finite and in [0,1], up to 1e-6."""
    lo, hi = float(image.data.min()), float(image.data.max())
    if not (lo >= -1e-6 and hi <= 1.0 + 1e-6):  # a NaN fails both comparisons
        raise SegkitError(f"pixel values [{lo:.4g}, {hi:.4g}] are not all finite and in [0,1]")


def cose_forward(image: Tensor, params: dict):
    """Predict (darkening, brightening) offset maps, each of the image's
    shape, from the image (whose range ``csec_correct`` checks)."""
    h1 = relu(offset_conv(image, params["cose.w1"], params["cose.t1"]))
    out = offset_conv(h1, params["cose.w2"], params["cose.t2"])
    c = image.data.shape[1]
    return out[:, :c], out[:, c:]


# -- COMO: correlation-normalized fusion ------------------------------------


def self_correlation(f: Tensor) -> Tensor:
    """A = F F^T over row-per-token features [..., T, c]; symmetric PSD by construction."""
    return matmul(f, f.T)


SYM_NORM_EPS = 1e-8  # sym_norm's lower clamp on the diagonal of S


def _rsqrt(d):
    """(1/sqrt(clamped), clamped) of clamped = max(d, SYM_NORM_EPS)."""
    clamped = np.maximum(d, SYM_NORM_EPS)
    return 1.0 / np.sqrt(clamped), clamped


def _rsqrt_clamp(d: Tensor) -> Tensor:
    """1/sqrt(max(d, SYM_NORM_EPS)) elementwise; zero gradient where the
    clamp binds."""
    y, clamped = _rsqrt(d.data)
    open_mask = d.data > SYM_NORM_EPS

    def bwd(g):
        return (np.where(open_mask, -0.5 * g * y / clamped, 0.0),)

    return Tensor(y, parents=(d,), backward_fn=bwd, call=(_rsqrt,))


def sym_norm(a: Tensor, symmetrize: str = "as_printed") -> Tensor:
    """D^{-1/2} S D^{-1/2} with S the symmetrized matrix and D its diagonal,
    for each square matrix over the last two axes of a [..., T, T].

    symmetrize="as_printed" uses S = (2A + A^T)/2 (so symmetric A scales by
    1.5); "conventional" uses (A + A^T)/2.  Diagonal entries are clamped
    below by SYM_NORM_EPS, so the output diagonal is 1 wherever diag(S)
    exceeds it.
    """
    if a.data.ndim < 2 or a.data.shape[-1] != a.data.shape[-2]:
        raise ShapeMismatchError(f"sym_norm needs square matrices, got {a.data.shape}")
    lead, t = a.data.shape[:-2], a.data.shape[-1]
    if symmetrize == "as_printed":
        s = add(a, scale(a.T, 0.5))  # A + A^T/2 == (2A + A^T)/2
    elif symmetrize == "conventional":
        s = scale(add(a, a.T), 0.5)
    else:
        raise ValueError(f"unknown symmetrize {symmetrize!r}")
    dm = _rsqrt_clamp(s[..., np.arange(t), np.arange(t)])
    outer = matmul(reshape(dm, (*lead, t, 1)), reshape(dm, (*lead, 1, t)))
    return mul(s, outer)


def como_fuse(f_x: Tensor, f_d, f_b, params: dict) -> Tensor:
    """Learned-weight fusion of correlation-normalized feature branches
    [..., T, c], each correlation put through ``sym_norm``'s defaults; the
    scalar weights ``fuse.gx``, ``fuse.gd``, ``fuse.gb`` and the [c] bias
    ``fuse.bias`` are read from params.  An offset branch ``f_d`` or ``f_b``
    given as None is left out: exactly what an all-zero one adds."""
    branches = [(f, params[name]) for f, name in ((f_x, "fuse.gx"), (f_d, "fuse.gd"),
                                                  (f_b, "fuse.gb")) if f is not None]
    if len({f.data.shape for f, _ in branches}) > 1:
        raise ShapeMismatchError("feature branches must share shape")
    acc = None
    for f, gamma in branches:
        norm = sym_norm(self_correlation(f))
        term = scalar_mul(matmul(norm, f), gamma)
        acc = term if acc is None else add(acc, term)
    return add_bias(acc, params["fuse.bias"])


# -- decoder ----------------------------------------------------------------


def decode(params: dict, f_corr: Tensor, image: Tensor, residual_eps: float) -> Tensor:
    """Reconstruct a [N,3,H,W] image in [0,1], ``image``'s size, from token features [N,T,c].

    The decoder output is a residual added to ``image`` in logit space, which
    makes a zero-initialized output layer an identity map.
    """
    h, w = image.data.shape[2:]
    th, tw = h // 4, w // 4
    n, t, c = f_corr.data.shape
    if t != th * tw:
        raise ShapeMismatchError(f"{t} tokens cannot fill a {th}x{tw} grid")
    x = reshape(f_corr.T, (n, c, th, tw))
    x = relu(conv2d(x, params["dec.w1"], stride=1, padding=1))
    x = upsample_nearest(x, 2)
    x = relu(conv2d(x, params["dec.w2"], stride=1, padding=1))
    x = upsample_nearest(x, 2)
    r = conv2d(x, params["dec.w3"], stride=1, padding=1)
    base = np.clip(np.asarray(image.data, dtype=r.dtype), residual_eps, 1.0 - residual_eps)
    logit = np.log(base / (1.0 - base))
    return sigmoid(add(r, Tensor(logit)))


# -- full pipeline ----------------------------------------------------------


def _extract_tokens(x: Tensor, params: dict, prefix: str) -> Tensor:
    """Conv stack 3 -> hidden -> hidden -> c with two stride-2 steps;
    output flattened row-major to [N, T, c] token features."""
    pad = params[prefix + ".w1"].data.shape[-1] // 2  # CsecConfig.kernel // 2
    h1 = relu(conv2d(x, params[prefix + ".w1"], stride=2, padding=pad))
    h2 = relu(conv2d(h1, params[prefix + ".w2"], stride=2, padding=pad))
    h3 = conv2d(h2, params[prefix + ".w3"], stride=1, padding=pad)
    n, c, th, tw = h3.data.shape
    return reshape(h3, (n, c, th * tw)).T


def check_extents(h, w):
    """Raise ShapeMismatchError unless h x w is an image size ``csec_correct`` takes."""
    if h % 4 or w % 4 or h > 64 or w > 64:
        raise ShapeMismatchError(f"color correction needs spatial extents that are multiples "
                                 f"of 4, at most 64, got {h}x{w}")


# the offset branch's parameters other than cose.w2
_OFFSET_BRANCH = ("cose.w1", "cose.t1", "cose.t2", "ed.w1", "ed.w2", "ed.w3", "eb.w1", "eb.w2",
                  "eb.w3", "fuse.gd", "fuse.gb")


def _offset_branch_is_zero(params: dict) -> bool:
    """Whether the offset branch adds exact zeros and gets exactly zero
    gradients: ``cose.w2`` all zero, the branch's other values finite and
    ``cose.w1`` too small for the first offset layer to overflow.
    Otherwise a 0 * inf makes NaN in the full path's forward or backward
    pass, or a non-finite tap offset raises a SegkitError, and the
    full path is taken to keep that.  The test is one BLAS dot: a sum of
    squares is finite only if every entry is, and its bound keeps every
    |w1| sum far below the float32 range."""
    if params["cose.w2"].data.any():
        return False
    v = np.concatenate([params[name].data.reshape(-1) for name in _OFFSET_BRANCH])
    return float(v @ v) < 1e30


def csec_correct(image: Tensor, params: dict, config: CsecConfig = CsecConfig()) -> Tensor:
    """Correct each image of [N,3,H,W]: offsets -> branch features -> fusion -> decode.

    The offset branch runs unless ``_offset_branch_is_zero(params)`` on this
    call; left out, its parameters get no gradient."""
    if not isinstance(image, Tensor):
        image = Tensor(image)
    if image.data.ndim != 4 or image.data.shape[1] != 3:
        raise ShapeMismatchError(f"expected [N,3,H,W], got {image.data.shape}")
    check_extents(*image.data.shape[2:])
    _check_image_range(image)
    f_d = f_b = None
    if not _offset_branch_is_zero(params):
        delta_d, delta_b = cose_forward(image, params)
        f_d = _extract_tokens(delta_d, params, "ed")
        f_b = _extract_tokens(delta_b, params, "eb")
    f_x = _extract_tokens(image, params, "ex")
    return decode(params, como_fuse(f_x, f_d, f_b, params), image, config.residual_eps)


# -- parameters and training ------------------------------------------------


_FUSE_INIT = {"fuse.gx": 1.0, "fuse.gd": 0.1, "fuse.gb": 0.1, "fuse.bias": 0.0}


def param_shapes(config: CsecConfig = CsecConfig()) -> dict:
    """Name -> shape of each CSEC parameter of config, in init_csec's order."""
    hid, c, k = config.hidden, config.feat_channels, config.kernel
    shapes = {"cose.w1": (hid, 3, k, k), "cose.t1": (k * k, 2), "cose.w2": (6, hid, k, k),
              "cose.t2": (k * k, 2)}
    for prefix in ("ex", "ed", "eb"):
        shapes.update({prefix + ".w1": (hid, 3, k, k), prefix + ".w2": (hid, hid, k, k),
                       prefix + ".w3": (c, hid, k, k)})
    shapes.update({"fuse.gx": (), "fuse.gd": (), "fuse.gb": (), "fuse.bias": (c,),
                   "dec.w1": (hid, c, 3, 3), "dec.w2": (hid, hid, 3, 3),
                   "dec.w3": (3, hid, 3, 3)})
    return shapes


def init_csec(config: CsecConfig = CsecConfig(), seed: int = 0, dtype=np.float32,
              identity: bool = True) -> dict:
    """Initialize all CSEC parameters.

    Weights [out, in, kh, kw] are fan_in_uniform, the fusion weights
    _FUSE_INIT's constants.  identity=True
    zero-initializes the offset head's output layer, all tap offsets and
    the decoder's output layer (the identity-at-init contract);
    identity=False draws everything small and random, which is what the
    finite-difference checks want (no flat zero regions).
    """
    rng = SplitMix64(seed)
    p = {}
    for name, shape in param_shapes(config).items():
        if name in _FUSE_INIT:
            value = np.full(shape, _FUSE_INIT[name], dtype)
        elif identity and name in ("cose.t1", "cose.w2", "cose.t2", "dec.w3"):
            value = np.zeros(shape, dtype)
        elif name in ("cose.t1", "cose.t2"):  # tap offsets
            value = rng.uniform_array(shape, -0.4, 0.4).astype(dtype)
        else:
            value = fan_in_uniform(rng, shape, int(np.prod(shape[1:])), dtype)
        p[name] = Tensor(value, requires_grad=True)
    return p


def mse_loss(a: Tensor, b) -> Tensor:
    bt = b if isinstance(b, Tensor) else Tensor(np.asarray(b, dtype=a.dtype))
    diff = add(a, scale(bt, -1.0))
    return tmean(mul(diff, diff))


def psnr(a, b) -> float:
    a = np.asarray(a.data if isinstance(a, Tensor) else a, dtype=np.float64)
    b = np.asarray(b.data if isinstance(b, Tensor) else b, dtype=np.float64)
    mse = float(np.mean((a - b) ** 2))
    if mse == 0.0:
        return float("inf")
    return 10.0 * np.log10(1.0 / mse)


def train_csec(pairs, params: dict, config: CsecConfig = CsecConfig(),
               epochs: int = 20, lr: float = 1e-3, seed: int = 0):
    """Self-supervised training on (corrupted, clean) image pairs with
    mean-squared pixel error, one pair per step of ``optim.fit``.  Returns
    the per-epoch mean loss.  No pairs or epochs < 1 raise
    ConfigInvalidError, and a non-finite loss or gradient
    TrainingDivergedError."""
    def pair_loss(batch):
        corrupted, clean = pairs[batch[0]]
        return mse_loss(csec_correct(Tensor(np.asarray(corrupted)), params, config), clean)

    return list(fit(Adam(params, lr=lr), len(pairs), pair_loss, epochs, 1, seed))
