"""Minimal dense tensor with reverse-mode automatic differentiation.

Numpy holds the flat storage (row-major, NCHW for image data); the graph is
recorded dynamically as ops execute and traversed once, in reverse topological
order, on backward(). f32 is the training element type; gradient-check paths
use f64 because central differences are unreliable in single precision.
Every op is a module function of tensors (``scale`` is the one scalar
multiply); ``Tensor`` has no arithmetic operators, only slicing and ``.T``.
The convolution kernels run a few large numpy operations in place of one
per tap, and give bitwise the sums of the per-tap forms, -0 included.
``Tensor(data, requires_grad)`` makes a leaf and ``_node`` every other
tensor: an op checks its arguments and derives its constants once, then
``_node`` runs its kernel, an array function (a private one, or a numpy
function such as ``np.add``), as ``kernel(*(p.data for p in parents),
*consts)`` and records ``call = (kernel, *consts)``.  So a recomputation
on plain arrays gives the node's bytes by construction; the gradient
oracle recomputes this way only the nodes a perturbed parameter reaches.
A kernel returns the value, or a tuple of the value and what the op's
backward keeps.  Under no_grad nothing is recorded.
An operand that needs no gradient gets none computed in backward.
"""

import ctypes
from contextlib import contextmanager

import numpy as np

from .errors import SegkitError, ShapeMismatchError
from .denoise import quantile_threshold
from .metrics import IGNORE

__all__ = [
    "Tensor",
    "no_grad",
    "matmul",
    "permute",
    "conv2d",
    "cross_entropy",
    "upsample_nearest",
    "layer_norm",
    "add_bias",
]

# Each forward frees its whole graph at once.  glibc hands free memory at the
# top of the heap back to the kernel once it exceeds a trim threshold derived
# from the sizes of past mmap-ed allocations, so left alone, whether the next
# forward reuses that memory or page-faults it back in (about 40% of a chunk-4
# inference forward) depends on the process's allocation history.  Both
# thresholds are pinned at glibc's own dynamic ceilings: M_MMAP_THRESHOLD (-3)
# 32 MiB, M_TRIM_THRESHOLD (-1) 64 MiB.  glibc also gives a thread that finds
# the main arena busy an arena of its own, and memory freed in one arena is
# reused by that arena alone: the threads segnet._predict_masks forwards its
# chunks on each grew one, and perfbench's vit-eval peaked at 66.9 MB against
# 61.4 MB serial (2 threads, 2-vCPU Xeon).  M_ARENA_MAX (-8) 1 keeps every
# thread on the main arena (61.9-63.9 MB).  Other C libraries keep their
# defaults.
try:
    _libc = ctypes.CDLL(None)
    _libc.mallopt(-3, 32 << 20)
    _libc.mallopt(-1, 64 << 20)
    _libc.mallopt(-8, 1)
except (AttributeError, OSError, TypeError):
    pass


LN_EPS = 1e-5  # layer_norm's variance floor

_grad_enabled = True  # read by _node; no_grad clears it


@contextmanager
def no_grad():
    """Within the block, ``_node`` records no graph: op results are tensors
    with no parents, no backward function, no call and ``requires_grad``
    False, so each intermediate is freed as soon as nothing reads it.
    Values are bitwise those of a graph forward.
    A leaf created with ``requires_grad=True`` keeps it.  The previous state
    is restored on exit, also after an exception."""
    global _grad_enabled
    prev, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """Dense n-d array with an optional gradient slot.

    Data is immutable by convention after creation; only ``grad`` mutates.
    Gradients accumulate across backward() calls until ``zero_grad``.
    The constructor makes a leaf; an op's result comes from ``_node``, which
    outside ``no_grad`` records its parents (the op's tensor arguments, in
    order), its backward function and ``call``.
    """

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        if arr.ndim > 0 and 0 in arr.shape:
            raise ShapeMismatchError(f"zero extent in shape {arr.shape}")
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward_fn = None
        self._call = None

    # -- basic introspection ------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    def zero_grad(self):
        self.grad = None

    # -- autograd -----------------------------------------------------------

    def backward(self):
        """Accumulate d(self)/d(leaf) into the ``grad`` of every leaf that
        requires it.  Only leaves (tensors no op produced) keep a gradient;
        intermediate gradients live in a local table and are dropped as soon
        as they have been passed on."""
        if self.data.size != 1:
            raise ShapeMismatchError(f"backward needs a scalar loss, got shape {self.data.shape}")
        if not self.requires_grad:
            raise SegkitError("backward on a tensor that requires no gradient (no "
                              "parameter reaches it, or it was computed under no_grad)")
        # flow gradients through a local table so repeated backward calls
        # (with leaf zeroing in between) stay deterministic
        flow = {id(self): np.ones_like(self.data)}
        for node in reversed(_graph_order(self)):
            g = flow.pop(id(node), None)
            if g is None:
                continue
            if node._backward_fn is None:
                if node.requires_grad:
                    if node.grad is None:
                        # a fresh array, never g itself: add's backward hands
                        # one array to both parents.  g + 0 turns -0 into +0,
                        # as adding g to zeros did
                        node.grad = np.add(g, 0, out=np.empty_like(node.data))
                    else:
                        node.grad += g
                continue
            for parent, pg in zip(node._parents, node._backward_fn(g)):
                if pg is None or not parent.requires_grad:
                    continue
                acc = flow.get(id(parent))
                flow[id(parent)] = pg if acc is None else acc + pg

    # -- slicing and transpose ----------------------------------------------

    def __getitem__(self, key):
        # an integer-array index can pick an element more than once, and
        # gx[key] = g would keep only one of its gradients; np.add.at sums
        # them, but takes about 70x as long on the slices csec takes.  Only
        # a sequence can pick, and testing the type first keeps slice and int
        # keys, most of them, from a conversion per key
        picks = any(isinstance(k, (list, tuple, np.ndarray))
                    and np.asarray(k).dtype.kind in "iu"
                    for k in (key if type(key) is tuple else (key,)))

        def bwd(g, y):
            gx = np.zeros_like(self.data)
            if picks:
                np.add.at(gx, key, g)
            else:
                gx[key] = g
            return (gx,)

        return _node(_getitem, (self,), bwd, key)

    @property
    def T(self):
        """The last two axes swapped."""
        nd = self.data.ndim
        return permute(self, (*range(nd - 2), nd - 1, nd - 2))


def _graph_order(root):
    """root and every node that needs a gradient and root was computed
    from, each after its parents (so root is last).  An iterative post-order
    DFS: no recursion limit, and no closure that keeps the graph alive;
    constant subgraphs get no gradient, so they are not walked."""
    topo, seen = [], {id(root)}
    stack = [(root, iter(root._parents))]
    while stack:
        node, parents = stack[-1]
        for p in parents:
            if p.requires_grad and id(p) not in seen:
                seen.add(id(p))
                stack.append((p, iter(p._parents)))
                break
        else:
            stack.pop()
            topo.append(node)
    return topo


def _node(kernel, parents, backward, *consts):
    """The tensor of ``kernel(*(p.data for p in parents), *consts)``: the
    kernel's result, or its first item when it returns a tuple.  Outside
    ``no_grad`` it records parents, ``call = (kernel, *consts)`` and a
    backward function that returns ``backward(g, *result)``, one gradient
    (or None) per parent.  That function holds the result, not the node,
    so a freed graph leaves no reference cycle."""
    result = kernel(*[p.data for p in parents], *consts)
    if type(result) is not tuple:
        result = (result,)
    out = Tensor(result[0])
    if _grad_enabled:
        out.requires_grad = any(p.requires_grad for p in parents)
        out._parents = parents
        out._backward_fn = lambda g: backward(g, *result)
        out._call = (kernel, *consts)
    return out


# -- elementwise ------------------------------------------------------------


def _getitem(x, key):
    # asarray, not ascontiguousarray: a pick of one element stays 0-d, the
    # shape its backward's gx[key] takes
    return np.asarray(x[key], order="C")


def add(a, b):
    if a.shape != b.shape:
        raise ShapeMismatchError(f"{a.shape} vs {b.shape}")
    return _node(np.add, (a, b), lambda g, y: (g, g))


def mul(a, b):
    if a.shape != b.shape:
        raise ShapeMismatchError(f"{a.shape} vs {b.shape}")
    return _node(np.multiply, (a, b), lambda g, y: (g * b.data, g * a.data))


def scale(a, s):
    s = float(s)
    return _node(np.multiply, (a,), lambda g, y: (g * s,), s)


def _relu(x, out=None):
    # bitwise np.where(x > 0, x, 0), NaN, -0 and subnormals included, without
    # a branchy select: fmax drops NaN and negatives, += 0 turns -0 into +0
    y = np.fmax(x, 0, out)
    y += 0
    return y


def relu(a):
    # y > 0 exactly where a > 0, NaN included
    return _node(_relu, (a,), lambda g, y: (g * (y > 0),))


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def sigmoid(a):
    return _node(_sigmoid, (a,), lambda g, y: (g * y * (1.0 - y),))


def _scalar_mul(x, s):
    return x * float(s)


def scalar_mul(x, s):
    """Multiply tensor x by a learned scalar tensor s (shape ())."""
    if s.data.size != 1:
        raise ShapeMismatchError(f"scalar_mul needs a scalar tensor, got {s.data.shape}")

    def bwd(g, y):
        return g * float(s.data), np.array((g * x.data).sum(), dtype=s.dtype)

    return _node(_scalar_mul, (x, s), bwd)


# -- shape ops --------------------------------------------------------------


def reshape(a, shape):
    shape = tuple(shape)
    return _node(np.reshape, (a,), lambda g, y: (g.reshape(a.data.shape),), shape)


def _permute(x, axes):
    return np.ascontiguousarray(x.transpose(axes))


def permute(a, axes):
    """Reorder the axes of a, as numpy.transpose(a, axes)."""
    nd = a.data.ndim
    # C order both ways: numpy multiplies small strided operands more slowly,
    # and products and sums over a strided view can round differently; the
    # backward reads inverse, built below once the axes are known to be valid
    try:
        axes = tuple(axes)
        out = _node(_permute, (a,), lambda g, y: (_permute(g, inverse),), axes)
    except (ValueError, TypeError) as exc:  # numpy's AxisError is a ValueError
        raise ShapeMismatchError(f"axes {axes} are not a permutation of rank {nd}") from exc
    inverse = [0] * nd  # built in Python: np.argsort costs more than the transpose
    for i, ax in enumerate(axes):
        inverse[ax % nd] = i
    return out


def _tsum(x):
    return np.array(x.sum(), dtype=x.dtype)


def tsum(a):
    return _node(_tsum, (a,), lambda g, y: (np.full_like(a.data, float(g)),))


def _tmean(x):
    return np.array(x.mean(), dtype=x.dtype)


def tmean(a):
    return _node(_tmean, (a,), lambda g, y: (np.full_like(a.data, float(g) / a.data.size),))


# -- linear algebra ---------------------------------------------------------


def _matmul(a, b):
    if b.ndim > 2:
        return a @ b
    k, n = b.shape
    return (a.reshape(-1, k) @ b).reshape(a.shape[:-1] + (n,))  # the leading axes folded


def matmul(a, b):
    """Matrix product over the last two axes.

    a [..., m, k] with b [k, n] (one matrix for every leading index of a), or
    a [..., m, k] with b [..., k, n] when the leading extents are equal.
    """
    ad, bd = a.data, b.data
    if (ad.ndim < 2 or bd.ndim < 2 or ad.shape[-1] != bd.shape[-2]
            or (bd.ndim > 2 and ad.shape[:-2] != bd.shape[:-2])):
        raise ShapeMismatchError(f"matmul {ad.shape} x {bd.shape}")

    # an operand that needs no gradient gets none computed
    if bd.ndim > 2:
        def bwd(g, y):
            return (g @ np.swapaxes(bd, -1, -2) if a.requires_grad else None,
                    np.swapaxes(ad, -1, -2) @ g if b.requires_grad else None)
    else:
        def bwd(g, y):
            g2 = g.reshape(-1, bd.shape[1])
            return ((g2 @ bd.T).reshape(ad.shape) if a.requires_grad else None,
                    ad.reshape(-1, bd.shape[0]).T @ g2 if b.requires_grad else None)

    return _node(_matmul, (a, b), bwd)


def add_bias(a, bias):
    """a[..., c] + bias[c], broadcast over leading axes."""
    if bias.data.ndim != 1 or a.data.shape[-1] != bias.data.shape[0]:
        raise ShapeMismatchError(f"bias {bias.data.shape} vs {a.data.shape}")

    def bwd(g, y):
        return g, g.reshape(-1, bias.data.shape[0]).sum(axis=0)

    return _node(np.add, (a, bias), bwd)


def _linear(x, w, *args):
    """_matmul(x, w), then in place each step of the epilogue args[-1] in
    order: "bias" adds the next of the operands args[:-1] as ``add_bias``
    does, "relu" is ``_relu``, and "residual" adds the product to the next
    operand as ``add(r, y)`` does."""
    *operands, epilogue = args
    y = _matmul(x, w)
    operands = iter(operands)
    for step in epilogue:
        if step == "relu":
            _relu(y, y)
        elif step == "bias":
            np.add(y, next(operands), y)
        else:
            np.add(next(operands), y, y)
    return y


def linear(x, w, b=None, *, relu=False, residual=None):
    """x [..., k] times w [k, n] as one graph node, with an epilogue run in
    place on the fresh product y, in this order: add the bias b [n], apply
    ReLU, add y to residual [..., n].

    Each step is the IEEE operation of ``add_bias(y, b)``, ``relu(y)`` and
    ``add(residual, y)`` on the same operands, and backward returns that
    composition's gradients: g times (y > 0) when relu is on, passed to the
    bias and the product, and g itself for the residual.  So value and
    gradients are the composition's bytes, while the graph keeps only the
    output, which the ReLU mask is read off: relu together with a residual
    is refused.  All operands share one dtype.
    """
    xd, wd = x.data, w.data
    if wd.ndim != 2 or xd.shape[-1:] != wd.shape[:1]:
        raise ShapeMismatchError(f"linear {xd.shape} x {wd.shape}")
    k, n = wd.shape
    if b is not None and b.data.shape != (n,):
        raise ShapeMismatchError(f"bias {b.data.shape} vs {n} outputs")
    if residual is not None and residual.data.shape != xd.shape[:-1] + (n,):
        raise ShapeMismatchError(f"residual {residual.data.shape} vs {xd.shape[:-1] + (n,)}")
    if relu and residual is not None:
        raise SegkitError("linear takes relu or a residual, not both")
    parents = tuple(t for t in (x, w, b, residual) if t is not None)
    if any(t.data.dtype != xd.dtype for t in parents):
        raise SegkitError(f"linear operands of dtypes {[str(t.data.dtype) for t in parents]}")
    epilogue = tuple(step for step, on in (("bias", b is not None), ("relu", relu),
                                           ("residual", residual is not None)) if on)

    def bwd(g, y):
        g2 = (g * (y > 0) if relu else g).reshape(-1, n)
        grads = [(g2 @ wd.T).reshape(xd.shape) if x.requires_grad else None,
                 xd.reshape(-1, k).T @ g2 if w.requires_grad else None]
        if b is not None:
            grads.append(g2.sum(axis=0) if b.requires_grad else None)
        if residual is not None:
            grads.append(g)
        return grads

    return _node(_linear, parents, bwd, epilogue)


# -- convolution ------------------------------------------------------------


def _im2col(xp, kh, kw, stride, ho, wo):
    """[n, c, kh, kw, ho, wo] patches of the C-contiguous xp: one copy of a
    strided view of it."""
    sn, sc, sh, sw = xp.strides
    return np.ndarray((xp.shape[0], xp.shape[1], kh, kw, ho, wo), xp.dtype, xp, 0,
                      (sn, sc, sh, sw, sh * stride, sw * stride)).copy()


def _conv2d(x, w, stride, padding):
    """(y, cols): the cross-correlation y [n, cout, ho, wo] and the im2col
    patches cols [n, cin * kh * kw, ho * wo] it multiplies the kernel with."""
    n, cin, h, wd = x.shape
    cout, _, kh, kw = w.shape
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (wd + 2 * padding - kw) // stride + 1
    if padding:
        xp = np.zeros((n, cin, h + 2 * padding, wd + 2 * padding), dtype=x.dtype)
        xp[:, :, padding:padding + h, padding:padding + wd] = x
    else:
        xp = np.ascontiguousarray(x)
    cols = _im2col(xp, kh, kw, stride, ho, wo).reshape(n, cin * kh * kw, ho * wo)
    return (w.reshape(cout, -1) @ cols).reshape(n, cout, ho, wo), cols


def conv2d(x, w, stride=1, padding=0):
    """Cross-correlation of NCHW x with an OIHW kernel of odd extents.

    Forward is one product of the kernel with the im2col patches.  The input
    gradient is the kernel's transpose times g, scattered back tap by tap in
    tap order (see ``_col2im``).
    """
    if x.data.ndim != 4 or w.data.ndim != 4:
        raise ShapeMismatchError("conv2d expects NCHW input and OIHW kernel")
    n, cin, h, wd = x.data.shape
    cout, cin2, kh, kw = w.data.shape
    if cin != cin2:
        raise ShapeMismatchError(f"channels {cin} vs kernel {cin2}")
    if kh % 2 == 0 or kw % 2 == 0:
        raise ShapeMismatchError("kernel extents must be odd")
    if stride < 1:
        raise ShapeMismatchError("stride must be >= 1")
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (wd + 2 * padding - kw) // stride + 1
    if ho < 1 or wo < 1:
        raise ShapeMismatchError(f"output {ho}x{wo} for input {h}x{wd}")

    def bwd(g, y, cols):
        g2 = g.reshape(n, cout, ho * wo)
        gx = gw = None
        if w.requires_grad:
            gw = (g2 @ cols.transpose(0, 2, 1)).sum(axis=0).reshape(w.data.shape)
        if x.requires_grad:
            hp, wp = h + 2 * padding, wd + 2 * padding
            w2 = w.data.reshape(cout, cin * kh * kw)
            planes = _tap_planes((w2.T @ g2).reshape(n, cin, kh * kw, ho, wo),
                                 (n, cin, hp, wp), stride)
            starts = [i * wp + j for i in range(kh) for j in range(kw)]
            gxp = _col2im(planes, (n, cin, hp, wp), x.dtype, starts)
            gx = np.ascontiguousarray(gxp[:, :, padding:padding + h, padding:padding + wd])
        return gx, gw

    return _node(_conv2d, (x, w), bwd, stride, padding)


def _tap_planes(gcols, shape, stride):
    """For each tap t in order, gcols[:, :, t] of gcols [n, c, taps, ho, wo]
    on zeroed planes of the padded input's ``shape`` [n, c, hp, wp], at
    every stride-th row and column from the origin, as a flat
    [n, c * hp * wp] array.  One buffer serves every tap: use each before
    taking the next."""
    n, c, ntaps, ho, wo = gcols.shape
    buf = np.zeros(shape, dtype=gcols.dtype)
    block = buf[:, :, :ho * stride:stride, :wo * stride:stride]
    for t in range(ntaps):
        block[...] = gcols[:, :, t]
        yield buf.reshape(n, -1)


def _col2im(planes, shape, dtype, starts):
    """The adjoint of gathering windows of a padded input of ``shape``
    [n, c, hp, wp]: each of ``planes``, flat [n, c * hp * wp], is added in
    order at the matching flat offset of ``starts`` of every channel's plane.

    Each add is one contiguous run over every channel of a flat buffer.  The
    planes' padding is exact zeros, and an accumulator that started at +0 is
    never -0, so those zeros change nothing: every element gets the sums of
    per-window strided adds, in their order.
    """
    n, c, hp, wp = shape
    size = c * hp * wp
    flat = np.zeros((n, size + hp * wp), dtype=dtype)
    for plane, o in zip(planes, starts):
        flat[:, o:o + size] += plane
    return flat[:, :size].reshape(shape)


def _upsample_nearest(x, f):
    return x.repeat(f, axis=2).repeat(f, axis=3)


def upsample_nearest(x, factor):
    """Nearest-neighbor upsampling of an NCHW tensor by an integer factor.

    The adjoint sums each f×f patch of g from +0 (so an all-(-0) patch gives
    +0), its replicas in order: each patch row's column replicas, then those
    row sums.
    """
    n, c, h, w = x.data.shape
    f = int(factor)

    def bwd(g, y):
        g6 = g.reshape(n, c, h, f, w, f)
        rows = g6[..., 0].copy()
        for b in range(1, f):
            rows += g6[..., b]
        gx = rows[:, :, :, 0] + 0.0
        for a in range(1, f):
            gx += rows[:, :, :, a]
        return (gx,)

    return _node(_upsample_nearest, (x,), bwd, f)


# -- normalization and losses ----------------------------------------------


def _layer_norm(x, gamma, beta):
    """(y, xhat, inv): the scaled and shifted normalization y, the
    normalized x and the reciprocal deviations [..., 1]."""
    d = x.shape[-1]
    mu = x.sum(axis=-1, keepdims=True)
    mu /= d
    xhat = x - mu  # x - mu until scaled by inv below
    buf = xhat * xhat
    inv = buf.sum(axis=-1, keepdims=True)
    inv /= d
    inv += LN_EPS
    np.sqrt(inv, inv)
    np.divide(1.0, inv, inv)
    xhat *= inv
    # y takes the buffer unless a wider gamma or beta promotes it
    out = buf if gamma.dtype == beta.dtype == buf.dtype else None
    return np.add(np.multiply(xhat, gamma, out), beta, out), xhat, inv


def layer_norm(x, gamma, beta):
    """Normalize the last axis to zero mean / unit variance, then scale-shift.

    Each mean is a sum and one division by d, which is np.mean bit for bit
    without its Python overhead.  Forward and backward run the formula's
    operations in its order, into reused buffers."""
    d = x.data.shape[-1]
    if gamma.data.shape != (d,) or beta.data.shape != (d,):
        raise ShapeMismatchError("layer_norm scale/shift must match last extent")

    def bwd(g, y, xhat, inv):
        buf = g * xhat
        ggamma = buf.reshape(-1, d).sum(axis=0)
        gbeta = g.reshape(-1, d).sum(axis=0)
        gx = g * gamma.data  # gh, then gx in place
        np.multiply(gx, xhat, buf)
        dot = buf.sum(axis=-1, keepdims=True)
        dot /= d
        mean = gx.sum(axis=-1, keepdims=True)
        mean /= d
        gx -= mean
        np.multiply(xhat, dot, buf)
        gx -= buf
        np.multiply(inv, gx, gx)
        return gx, ggamma, gbeta

    return _node(_layer_norm, (x, gamma, beta), bwd)


def _cross_entropy(logits, pick, weights, denom):
    """(loss, logp, nll): the mean over the n samples of each one's
    weighted mean of the per-pixel negative log-likelihoods nll [n, h, w],
    read at the flat indices pick of the log-probabilities logp [n, k, h, w];
    denom [n] holds each sample's weight sum, and a sample whose sum is 0
    adds 0."""
    z = logits - logits.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    nll = -logp.reshape(-1).take(pick)
    n = len(denom)
    sums = (nll * weights).reshape(n, -1).sum(axis=1)
    loss = np.divide(sums, n * denom, out=np.zeros_like(sums), where=denom != 0).sum()
    return np.array(loss, dtype=logits.dtype), logp, nll


def cross_entropy(logits, target, truncate=None):
    """Mean over samples of each sample's mean negative log-likelihood.

    logits: [N,K,H,W]; target: integer array [N,H,W].  A sample's loss is the
    mean over its kept pixels: those not labelled IGNORE, and with truncate=q
    in (0,1) only those whose loss is at most the nearest-rank q quantile of
    the per-pixel loss over the batch's labelled pixels.  Which pixels are kept
    is a constant in backward, and in the recorded call.  A sample with no
    kept pixel adds 0 to the sum but still counts in N, so the batch loss
    equals the mean of N single-sample losses.
    """
    if logits.data.ndim != 4:
        raise ShapeMismatchError("cross_entropy expects [N,K,H,W] logits")
    n, k, h, w = logits.data.shape
    target = np.asarray(target)
    if target.shape != (n, h, w):
        raise ShapeMismatchError(f"target {target.shape} vs logits {logits.data.shape}")
    if target.min() < IGNORE or target.max() >= k:  # IGNORE (-1) is the one id below 0
        raise SegkitError(f"class ids must be in [0,{k}) or {IGNORE}")
    valid = target != IGNORE
    # the flat index in logp of each pixel's target logit, class 0's where
    # the pixel is ignored: a take in place of take_along_axis's index grids
    hw = h * w
    pick = np.maximum(target, 0, dtype=np.intp) * hw
    pick += np.arange(0, n * k * hw, k * hw)[:, None, None] + np.arange(hw).reshape(h, w)
    weights = valid.astype(logits.dtype)
    denom = weights.reshape(n, -1).sum(axis=1)
    if truncate is not None and valid.any():  # one pre-pass reads nll to choose the weights
        nll = _cross_entropy(logits.data, pick, weights, denom)[2]
        weights[nll > quantile_threshold(nll[valid], truncate)] = 0
        denom = weights.reshape(n, -1).sum(axis=1)
    live = denom != 0

    def bwd(g, loss, logp, nll):
        s = np.divide(float(g), n * denom.astype(np.float64),
                      out=np.zeros(n), where=live).astype(logits.dtype)
        gl = np.exp(logp)
        gl.reshape(-1)[pick] -= 1.0
        gl *= weights[:, None]
        gl *= s[:, None, None, None]
        return (gl,)

    return _node(_cross_entropy, (logits,), bwd, pick, weights, denom)
