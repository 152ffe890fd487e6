"""Color Shift Estimation-and-Correction.

Pipeline: an offset-prediction head estimates darkening/brightening offset
maps from the input image via offset-modulated (deformable-sampling)
convolutions, each a ``conv2d`` with a kernel its learned taps are splatted
onto; three conv stacks extract token features from the image and
the two offset maps; the features are fused through self-correlation
matrices put through a symmetrize-and-normalize map with learned fusion
weights; a small upsampling decoder reconstructs the corrected image.

Each ReLU is its convolution's epilogue (``conv2d(..., relu=True)``), and
``sym_norm``, each fusion term gamma * sym_norm(F F^T) F and ``mse_loss``
are one graph node each, with the bytes, value and gradients, of the
one-node-per-operation compositions they replace: a training step from the
identity init records 17 nodes, 37 with the live offset branch.

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

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigInvalidError, SegkitError, ShapeMismatchError
from .optim import Adam, fan_in_uniform, fit
from .rng import SplitMix64
from .tensor import (
    Tensor,
    _matmul,
    _matmul_grads,
    _node,
    _scalar_mul,
    _tmean,
    add,
    add_bias,
    conv2d,
    matmul,
    reshape,
    sigmoid,
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


def offset_conv(x: Tensor, w: Tensor, tap_offsets: Tensor, relu: bool = False) -> Tensor:
    """Offset-modulated convolution y(p) = sum_i w_i * x(p + p_i + dp_i),
    put through ReLU when relu is set (``conv2d``'s epilogue).

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
    return conv2d(x, kernel, stride=1, padding=kernel.data.shape[-1] // 2, relu=relu)


@functools.lru_cache(maxsize=None)
def _tap_grid(kh, kw):
    """[kh * kw, 2]: each tap's integer (y, x) offset from the kernel's
    centre, taps in row-major order.  Shared: never written to."""
    iy, ix = np.divmod(np.arange(kh * kw), kw)
    return np.stack([iy - (kh - 1) // 2, ix - (kw - 1) // 2], axis=1)


def _splat(w, tap_offsets):
    """(kernel, pos, weight, frac, active) of ``_tap_kernel``: the kernel
    [cout, cin, 2r+1, 2r+1]; the flat kernel-plane position and the bilinear
    weight, in w's dtype, of each tap's corners [taps, 4]; the fractions of
    the sample points [taps, 2]; and where the clamp passes the offsets."""
    cout, cin, kh, kw = w.shape
    taps = kh * kw
    raw = tap_offsets.astype(np.float64)
    ext = np.array([kh, kw])
    clamped = np.minimum(np.maximum(raw, -ext), ext)  # np.clip's values, in less time
    # [taps, 2] per axis (y, x): the sample point, its floor and its fraction
    s = _tap_grid(kh, kw) + clamped
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

    def bwd(g, kernel, pos, weight, frac, active):
        side = kernel.shape[-1]
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

    return _node(_splat, (w, tap_offsets), bwd)


# -- COSE: offset estimation ------------------------------------------------


def _check_image_range(image: np.ndarray):
    """Every pixel finite and in [0,1], up to 1e-6."""
    lo, hi = float(np.min(image)), float(np.max(image))
    if not (lo >= -1e-6 and hi <= 1.0 + 1e-6):  # a NaN fails both comparisons
        raise SegkitError(f"pixel values [{lo:.4g}, {hi:.4g}] are not all finite and in [0,1]")


def cose_forward(image: Tensor, params: dict):
    """Predict (darkening, brightening) offset maps, each of the image's
    shape, from the image (whose range ``csec_correct`` checks)."""
    h1 = offset_conv(image, params["cose.w1"], params["cose.t1"], relu=True)
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


def _transposed(x):
    """x with its last two axes swapped, as a C-contiguous copy (``permute``'s)."""
    return np.ascontiguousarray(np.swapaxes(x, -1, -2))


def _sym_norm(a, symmetrize):
    """(y, s, outer, dm, clamped): sym_norm's value y of the arrays a
    [..., T, T] and what its backward reads: the symmetrized s, the outer
    product of dm = 1/sqrt(clamped) with itself, and the clamped diagonal,
    by the composition's operations in its order."""
    t = a.shape[-1]
    if symmetrize == "as_printed":
        s = np.add(a, np.multiply(_transposed(a), 0.5))  # A + A^T/2 == (2A + A^T)/2
    else:
        s = np.multiply(np.add(a, _transposed(a)), 0.5)
    # a C-order copy, as ``Tensor.__getitem__`` makes: indexing after
    # leading axes returns them last in memory, and the outer product's
    # matmul rounds otherwise on that layout
    dm, clamped = _rsqrt(np.ascontiguousarray(s[..., np.arange(t), np.arange(t)]))
    outer = _matmul(dm.reshape(*dm.shape, 1), dm.reshape(*dm.shape[:-1], 1, t))
    return np.multiply(s, outer), s, outer, dm, clamped


def _sym_norm_grad(g, s, outer, dm, clamped, symmetrize):
    """The gradient in a of ``_sym_norm(a, symmetrize)`` for the output
    gradient g: the composition's backward, node by node.  S gets the
    product's gradient, then the diagonal's; dm the outer product's row
    operand's, then its column operand's."""
    t = dm.shape[-1]
    gs = g * outer
    gcol, grow = _matmul_grads(dm.reshape(*dm.shape, 1), dm.reshape(*dm.shape[:-1], 1, t),
                               g * s)
    gdm = grow.reshape(dm.shape) + gcol.reshape(dm.shape)
    # zero gradient where the clamp binds: clamped > SYM_NORM_EPS exactly
    # where the diagonal is, NaN included
    gd = np.where(clamped > SYM_NORM_EPS, -0.5 * gdm * dm / clamped, 0.0)
    # the diagonal's gradient is scattered onto zeros and added: every
    # entry of gs gains a +0, which turns -0 into +0, and the diagonal gd
    # (a -0 in gd adds as the scatter's 0 + gd would, gs being no longer -0)
    gs += 0.0
    diag = gs.reshape(*dm.shape[:-1], t * t)[..., ::t + 1]
    diag += gd
    if symmetrize == "as_printed":
        return gs + _transposed(gs * 0.5)
    gs *= 0.5
    return gs + _transposed(gs)


def sym_norm(a: Tensor, symmetrize: str = "as_printed") -> Tensor:
    """D^{-1/2} S D^{-1/2} with S the symmetrized matrix and D its diagonal,
    for each square matrix over the last two axes of a [..., T, T], as one
    graph node.

    symmetrize="as_printed" uses S = (2A + A^T)/2 (so symmetric A scales by
    1.5); "conventional" uses (A + A^T)/2.  Diagonal entries are clamped
    below by SYM_NORM_EPS, so the output diagonal is 1 wherever diag(S)
    exceeds it, and get no gradient where the clamp binds.  Value and
    gradient are the bytes of the composition of one node per operation
    (transpose, scale, add, diagonal, reciprocal square root, outer product,
    product) that ``_sym_norm`` and ``_sym_norm_grad`` write out.
    """
    if a.data.ndim < 2 or a.data.shape[-1] != a.data.shape[-2]:
        raise ShapeMismatchError(f"sym_norm needs square matrices, got {a.data.shape}")
    if symmetrize not in ("as_printed", "conventional"):
        raise ValueError(f"unknown symmetrize {symmetrize!r}")
    return _node(_sym_norm, (a,), lambda g, y, *saved: (_sym_norm_grad(g, *saved, symmetrize),),
                 symmetrize)


def _como_term(f, gamma):
    """(y, ft, nf, norm, saved): the term y = gamma * nf of the features f
    [..., T, c] and the scalar gamma, nf = norm F, norm = sym_norm(F ft),
    ft = F^T, and what ``_sym_norm`` saved."""
    ft = _transposed(f)
    norm, *saved = _sym_norm(_matmul(f, ft), "as_printed")
    nf = _matmul(norm, f)
    return _scalar_mul(nf, gamma), ft, nf, norm, saved


def _branch_term(f: Tensor, gamma: Tensor) -> Tensor:
    """gamma * sym_norm(self_correlation(f)) f as one graph node, with the
    bytes, value and gradients, of ``scalar_mul(matmul(sym_norm(matmul(f,
    f.T)), f), gamma)``.  F's gradient sums its three uses in the order
    that composition's backward meets them: the right factor, the left one
    of F F^T, then F^T."""
    if gamma.data.size != 1:
        raise ShapeMismatchError(f"fusion weight must be a scalar tensor, got {gamma.data.shape}")
    fd = f.data

    def bwd(g, y, ft, nf, norm, saved):
        gg = np.array((g * nf).sum(), dtype=gamma.dtype) if gamma.requires_grad else None
        if not f.requires_grad:
            return None, gg
        gnorm, gf = _matmul_grads(norm, fd, g * float(gamma.data))
        gf1, gft = _matmul_grads(fd, ft, _sym_norm_grad(gnorm, *saved, "as_printed"))
        return (gf + gf1) + _transposed(gft), gg

    return _node(_como_term, (f, gamma), bwd)


def como_fuse(f_x: Tensor, f_d, f_b, params: dict) -> Tensor:
    """Learned-weight fusion of correlation-normalized feature branches
    [..., T, c]: the sum over branches of gamma * sym_norm(F F^T) F, each
    term one graph node (``_branch_term``), plus the [c] bias ``fuse.bias``.
    The scalar weights ``fuse.gx``, ``fuse.gd`` and ``fuse.gb`` are read
    from params.  An offset branch ``f_d`` or ``f_b`` given as None is left
    out: exactly what an all-zero one adds."""
    branches = [(f, params[name]) for f, name in ((f_x, "fuse.gx"), (f_d, "fuse.gd"),
                                                  (f_b, "fuse.gb")) if f is not None]
    if len({f.data.shape for f, _ in branches}) > 1:
        raise ShapeMismatchError("feature branches must share shape")
    acc = None
    for f, gamma in branches:
        term = _branch_term(f, gamma)
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
    x = conv2d(x, params["dec.w1"], stride=1, padding=1, relu=True)
    x = upsample_nearest(x, 2)
    x = conv2d(x, params["dec.w2"], stride=1, padding=1, relu=True)
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
    h1 = conv2d(x, params[prefix + ".w1"], stride=2, padding=pad, relu=True)
    h2 = conv2d(h1, params[prefix + ".w2"], stride=2, padding=pad, relu=True)
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
    _check_image_range(image.data)
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


def _mse(a, b):
    """(loss, diff): the mean of diff * diff, diff = a + (-1.0 * b)."""
    diff = np.add(a, np.multiply(b, -1.0))
    return _tmean(np.multiply(diff, diff)), diff


def mse_loss(a: Tensor, b) -> Tensor:
    """Mean squared difference of a and b (a tensor or an array of a's
    shape) as one graph node, with the bytes, value and gradients, of
    ``tmean(mul(d, d))`` for ``d = add(a, scale(b, -1.0))``: d's gradient
    is the product's two equal gradients summed."""
    bt = b if isinstance(b, Tensor) else Tensor(np.asarray(b, dtype=a.dtype))
    if a.shape != bt.shape:
        raise ShapeMismatchError(f"{a.shape} vs {bt.shape}")

    def bwd(g, loss, diff):
        p = np.full_like(diff, float(g) / diff.size) * diff
        gd = p + p
        return gd, (gd * -1.0 if bt.requires_grad else None)

    return _node(_mse, (a, bt), bwd)


def psnr(a, b) -> float:
    """Peak signal-to-noise ratio in dB of images in [0,1] of one shape."""
    a = np.asarray(a.data if isinstance(a, Tensor) else a, dtype=np.float64)
    b = np.asarray(b.data if isinstance(b, Tensor) else b, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeMismatchError(f"psnr of {a.shape} vs {b.shape}")
    mse = float(np.mean((a - b) ** 2))
    if mse == 0.0:
        return float("inf")
    return 10.0 * np.log10(1.0 / mse)


def train_csec(pairs, params: dict, config: CsecConfig = CsecConfig(),
               epochs: int = 20, lr: float = 1e-3, seed: int = 0):
    """Self-supervised training on (corrupted, clean) image pairs with
    mean-squared pixel error, one pair per step of ``optim.fit``.  Returns
    the per-epoch mean loss.  Before any step, a pair whose corrupted image
    is not one [1,3,H,W] image of an extent ``check_extents`` takes, or
    whose clean image has another shape, raises ShapeMismatchError naming
    its index, and one with a pixel of either image not finite and in [0,1]
    SegkitError.  No pairs or epochs < 1 raise ConfigInvalidError, and a
    non-finite loss or gradient TrainingDivergedError."""
    for i, (corrupted, clean) in enumerate(pairs):
        shape = np.shape(corrupted)
        try:
            if len(shape) != 4 or shape[:2] != (1, 3):
                raise ShapeMismatchError(f"expected [1,3,H,W], got {shape}")
            check_extents(*shape[2:])
        except ShapeMismatchError as exc:
            raise ShapeMismatchError(f"pair {i}: corrupted image: {exc}") from None
        if np.shape(clean) != shape:
            raise ShapeMismatchError(
                f"pair {i}: clean image {np.shape(clean)} vs corrupted {shape}")
        for what, image in (("corrupted", corrupted), ("clean", clean)):
            try:
                _check_image_range(image)
            except SegkitError as exc:
                raise SegkitError(f"pair {i}: {what} image: {exc}") from None

    def pair_loss(batch):
        corrupted, clean = pairs[batch[0]]
        return mse_loss(csec_correct(Tensor(np.asarray(corrupted)), params, config), clean)

    return list(fit(Adam(params, lr=lr), len(pairs), pair_loss, epochs, 1, seed))
