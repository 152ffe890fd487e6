"""Finite-difference gradient suites for every differentiable operation.

A suite is a table entry of ``_SUITES``: its op checks and its pipeline
check.  The op checks are a generator that draws one trial's f64 inputs
from the suite's ``SplitMix64(seed)`` and yields a named ``(name, f, x)``
for each op; ``run_suite`` runs them ``trials`` times through
``check_function`` and keeps each name's worst relative error.  Every
kernel that a model or corrector graph records has an op check, and so
does each way attention's kernel runs: with and without a window
permutation, a mask and the rotation.  The pipeline check,
``csec_correct.params`` or ``segnet.params``, is built from the seed as
``(name, params, loss_fn)`` and runs once per call whatever the trial
count: it differences every parameter entry (a segnet check takes
seconds), so ``--trials`` repeats only the op checks.  The CLI's gradcheck
subcommand and the acceptance tests both drive these.  A non-finite
gradient or quotient reads as an infinite error, never as a match.

A check evaluates its loss once, with a graph, for the backward gradients.
Each central difference then recomputes only the ops that the perturbed
parameter reaches: every graph node records the array kernel that made its
value and that kernel's constants, and the check runs those of the
parameter's cone again on plain arrays, no ``Tensor`` made and no argument
checked, with their parents' new values; all other nodes keep their graph
values.  The quotients are bitwise those of whole no-graph forwards, since
each node's kernel made its value, no_grad changes no value, and each
replayed kernel sees a full forward's inputs.
"""

import functools

import numpy as np

from . import csec as _csec
from . import rope as _rope
from .rng import SplitMix64
from .segnet import ModelConfig, build_model
from .tensor import (
    Tensor,
    _conv2d,
    _graph_order,
    _matmul,
    add,
    conv2d,
    cross_entropy,
    layer_norm,
    linear,
    matmul,
    mul,
    permute,
    relu,
    reshape,
    sigmoid,
    tmean,
    tsum,
    upsample_nearest,
)

TOL = 1e-4
H_STEP = 1e-5
# A central difference moves a conv2d pre-activation by at most H_STEP times
# an input or weight (|.| <= 1), so a margin 100 times larger keeps it on one
# side of a relu kink.
KINK_MARGIN = 1e-3

__all__ = ["TOL", "run_suite", "SUITES", "check_function"]


def _rand(rng, shape, lo=-1.0, hi=1.0):
    return rng.uniform_array(shape, lo, hi)


def check_function(f, x_arr):
    """Worst relative error between backward and central differences of
    ``f`` at a private f64 copy of ``x_arr`` (the caller's array and anything
    ``f`` reads from it stay unperturbed)."""
    x = Tensor(np.array(x_arr, dtype=np.float64), requires_grad=True)
    return _check_params({"x": x}, lambda: f(x))


def _tensor_checks(rng):
    a = _rand(rng, (3, 4))
    b = _rand(rng, (4, 2))
    yield "matmul", lambda v: tsum(matmul(v, Tensor(b))), a
    x = _rand(rng, (1, 2, 5, 5))
    w = _rand(rng, (3, 2, 3, 3))
    # a constant shift keeps every pre-activation off relu's kink at 0
    pre = conv2d(Tensor(x), Tensor(w), stride=1, padding=1).data
    shift = Tensor(np.where(np.abs(pre) < KINK_MARGIN,
                            np.where(pre < 0, -KINK_MARGIN, KINK_MARGIN), 0.0))

    def conv(xv, wv):
        return tsum(relu(add(conv2d(xv, wv, stride=1, padding=1), shift)))

    yield "conv2d.input", lambda v: conv(v, Tensor(w)), x
    yield "conv2d.kernel", lambda v: conv(Tensor(x), v), w
    m = _rand(rng, (6,))
    other = _rand(rng, (6,))
    yield "mul", lambda v: tsum(mul(v, Tensor(other))), m
    logits = _rand(rng, (1, 4, 3, 3), -2.0, 2.0)
    target = np.array([[rng.randint(0, 4) for _ in range(9)]]).reshape(1, 3, 3)
    yield "cross_entropy", lambda v: cross_entropy(v, target), logits


def _rope_checks(rng):
    # 2x2 windows shifted by 1 on a 2x4 grid: the column shift wraps, so the
    # check covers the window permutation and the mask at a small input
    qkv = _rand(rng, (1, 8, 12))
    out_weight = _rand(rng, (1, 8, 4))
    yield "rope_attention.qkv", lambda v: tsum(mul(
        _rope.rope_attention(v, (2, 4), 1, window=2, shift=1, rope=True), Tensor(out_weight))), qkv
    # global attention, rotated and not: no permutation and no mask; a 1x2
    # grid holds each check to a few dozen entries
    qkv_g = _rand(rng, (1, 2, 12))
    weight_g = _rand(rng, (1, 2, 4))
    yield "rope_attention.global", lambda v: tsum(mul(
        _rope.rope_attention(v, (1, 2), 1), Tensor(weight_g))), qkv_g
    qkv_n = _rand(rng, (1, 2, 3))
    weight_n = _rand(rng, (1, 2, 1))
    yield "rope_attention.no_rope", lambda v: tsum(mul(
        _rope.rope_attention(v, (1, 2), 1, rope=False), Tensor(weight_n))), qkv_n


def _csec_checks(rng):
    x = _rand(rng, (1, 2, 5, 5))
    w = _rand(rng, (2, 2, 3, 3))
    taps = _rand(rng, (9, 2), -0.8, 0.8)
    taps += np.where(np.abs(taps - np.round(taps)) < 0.05, 0.1, 0.0)  # stay off integer kinks
    yield "offset_conv.input", lambda v: tsum(_csec.offset_conv(v, Tensor(w), Tensor(taps))), x
    yield "offset_conv.kernel", lambda v: tsum(_csec.offset_conv(Tensor(x), v, Tensor(taps))), w
    yield "offset_conv.taps", lambda v: tsum(_csec.offset_conv(Tensor(x), Tensor(w), v)), taps
    f = _rand(rng, (4, 3), 0.2, 1.0)
    yield "sym_norm", lambda v: tsum(_csec.sym_norm(matmul(v, Tensor(f.T.copy())))), f
    fx, fd, fb = (_rand(rng, (4, 3), 0.2, 1.0) for _ in range(3))
    fuse = {"fuse.gx": Tensor(np.array(0.7)), "fuse.gd": Tensor(np.array(0.5)),
            "fuse.gb": Tensor(np.array(0.3)), "fuse.bias": Tensor(_rand(rng, (3,)))}
    yield "como_fuse", lambda v: tsum(_csec.como_fuse(v, Tensor(fd), Tensor(fb), fuse)), fx
    z = _rand(rng, (2, 3), -2.0, 2.0)
    z_weight = _rand(rng, (2, 3))
    yield "sigmoid", lambda v: tsum(mul(sigmoid(v), Tensor(z_weight))), z
    yield "tmean", lambda v: tmean(mul(v, v)), _rand(rng, (2, 3))
    # from a stream of their own, as _segnet_checks' linear checks
    yield from _csec_node_checks(SplitMix64(rng.state + 1))


def _csec_node_checks(rng):
    """The corrector's nodes that no check above records: conv2d with its
    ReLU epilogue, over its input and kernel packed into v, at the token
    stacks' stride 2 and padding 1; mse_loss over both operands; and the
    permute that turns feature maps into tokens and back."""
    x = _rand(rng, (1, 1, 3, 3), 0.2, 1.0)  # nonnegative, as an image or a ReLU's output
    w = _rand(rng, (2, 1, 3, 3))
    # each output channel's centre tap grows until its pre-activations lie
    # KINK_MARGIN or more from relu's kink; it reads an input pixel, at
    # least 0.2, at every output
    while (near := (np.abs(_conv2d(x, w, 2, 1)[0]) < KINK_MARGIN).any(axis=(0, 2, 3))).any():
        w[:, 0, 1, 1] += np.where(near, 5 * KINK_MARGIN, 0.0)
    weight = Tensor(_rand(rng, (1, 2, 2, 2)))

    def conv_relu(v):
        xv, wv = reshape(v[:x.size], x.shape), reshape(v[x.size:], w.shape)
        return tsum(mul(conv2d(xv, wv, stride=2, padding=1, relu=True), weight))

    yield "conv2d.relu", conv_relu, np.concatenate([x.reshape(-1), w.reshape(-1)])
    yield "mse_loss", lambda v: _csec.mse_loss(v[0], v[1]), _rand(rng, (2, 1, 3))
    p_weight = Tensor(_rand(rng, (3, 1, 2)))
    yield "permute", lambda v: tsum(mul(permute(v, (2, 0, 1)), p_weight)), _rand(rng, (1, 2, 3))


def _segnet_checks(rng):
    x = _rand(rng, (1, 3, 4))
    gamma, beta = _rand(rng, (4,)), _rand(rng, (4,))
    weight = _rand(rng, (1, 3, 4))

    def ln(xv, gv, bv):
        return tsum(mul(layer_norm(xv, gv, bv), Tensor(weight)))

    yield "layer_norm.x", lambda v: ln(v, Tensor(gamma), Tensor(beta)), x
    yield "layer_norm.gamma", lambda v: ln(Tensor(x), v, Tensor(beta)), gamma
    yield "layer_norm.beta", lambda v: ln(Tensor(x), Tensor(gamma), v), beta
    u = _rand(rng, (1, 2, 2, 2))
    u_weight = _rand(rng, (1, 2, 4, 4))
    yield "upsample_nearest", lambda v: tsum(mul(upsample_nearest(v, 2), Tensor(u_weight))), u
    # from a stream of their own, seeded off the suite's state without
    # advancing it: the checks above draw the same inputs with or without them
    yield from _linear_checks(SplitMix64(rng.state + 1))


def _linear_checks(rng):
    """One check per form of ``linear`` that the model records, over every
    parent at once: v packs x [1, 2, 3], w [3, 2], b [2] and r [1, 2, 2],
    and a form without the bias or the residual leaves that part unread."""
    x, w, b, r = (_rand(rng, shape) for shape in ((1, 2, 3), (3, 2), (2,), (1, 2, 2)))
    weight = Tensor(_rand(rng, (1, 2, 2)))
    # each bias column moves until its pre-activations lie KINK_MARGIN or
    # more from relu's kink, which a difference step moves by at most H_STEP
    while (near := (np.abs(_matmul(x, w) + b) < KINK_MARGIN).any(axis=(0, 1))).any():
        b = b + np.where(near, 2 * KINK_MARGIN, 0.0)
    parts = (x, w, b, r)
    bounds = np.cumsum([0] + [a.size for a in parts])

    def check(v, bias, relu, residual):
        xv, wv, bv, rv = (reshape(v[lo:hi], a.shape) for a, lo, hi in zip(parts, bounds, bounds[1:]))
        y = linear(xv, wv, bv if bias else None, relu=relu, residual=rv if residual else None)
        return tsum(mul(y, weight))

    packed = np.concatenate([a.reshape(-1) for a in parts])
    for form, bias, relu, residual in (("bias", True, False, False),
                                       ("bias_relu", True, True, False),
                                       ("residual", False, False, True),
                                       ("bias_residual", True, False, True)):
        yield (f"linear.{form}",
               functools.partial(check, bias=bias, relu=relu, residual=residual), packed)


def _csec_pipeline(seed):
    """Every learned parameter of a small random-init corrector."""
    cfg = _csec.CsecConfig(feat_channels=3, hidden=4)
    params = _csec.init_csec(cfg, seed=seed + 1, dtype=np.float64, identity=False)
    img = SplitMix64(seed + 2).uniform_array((1, 3, 8, 8), 0.05, 0.95)
    target = SplitMix64(seed + 3).uniform_array((1, 3, 8, 8), 0.05, 0.95)
    return ("csec_correct.params", params,
            lambda: _csec.mse_loss(_csec.csec_correct(Tensor(img), params, cfg), target))


def _segnet_pipeline(seed):
    """Every parameter of a small segmenter; 2x2 windows on the 4x4 patch
    grid of its 16x16 image, so block 1 runs the shift and its mask."""
    cfg = ModelConfig(patch_size=4, embed_dim=16, n_blocks=2, n_heads=2, n_classes=3,
                      window=2, seed=seed)
    model = build_model(cfg, dtype=np.float64)
    rng = SplitMix64(seed + 9)
    img = rng.uniform_array((1, 3, 16, 16), 0.0, 1.0)
    mask = np.array([[rng.randint(0, 3) for _ in range(16 * 16)]]).reshape(1, 16, 16)
    return "segnet.params", model.params, lambda: cross_entropy(model.forward(img), mask)


def _check_params(params, loss_fn):
    """Worst relative error between the backward gradients of loss_fn and
    its central differences with step H_STEP, over every entry of every
    parameter tensor."""
    analytic, numeric = _gradients(params, loss_fn)
    return max((_rel_error(analytic[name], numeric[name]) for name in params), default=0.0)


def _gradients(params, loss_fn):
    """{name: backward gradient} and {name: central-difference quotients},
    flat, of the scalar loss_fn() in every parameter (leaves that require a
    gradient, each perturbed in place entry by entry).  loss_fn runs once;
    each perturbed loss is a ``_replay`` of its graph."""
    for p in params.values():
        p.zero_grad()
    loss = loss_fn()
    loss.backward()
    nodes = _graph_order(loss)
    analytic, numeric = {}, {}
    for name, p in params.items():
        if not p.requires_grad:
            raise ValueError(f"parameter {name!r} requires no gradient")
        analytic[name] = (p.grad if p.grad is not None else np.zeros_like(p.data)).reshape(-1)
        replay = _replay(nodes, p)
        flat = p.data.reshape(-1)
        num = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + H_STEP
            fp = replay()
            flat[i] = orig - H_STEP
            fm = replay()
            flat[i] = orig
            num[i] = (fp - fm) / (2 * H_STEP)
        numeric[name] = num
    return analytic, numeric


def _replay(nodes, p):
    """A function of no arguments that gives float(loss) at p's current data,
    where nodes are a loss's graph, parents first and the loss last.

    It runs again, in order, the recorded kernel of each node that p
    reaches (its cone), on plain arrays: its parents' new values where they
    are in the cone, p's data, and otherwise their graph values, then its
    recorded constants.  Every node outside the cone keeps its value.  The
    loss is then bitwise that of a full forward: ``tensor._node`` made each
    node's value with its recorded kernel, and each cone kernel sees the
    inputs it would see in a full forward.  A value read off p's data
    outside the graph's ops would be missed, as the backward pass misses it.
    """
    slot = {}  # id(cone node) -> its position in plan
    plan = []  # (kernel, its arguments, [(argument index, slot of its new value)])
    for node in nodes:
        if not any(q is p or id(q) in slot for q in node._parents):
            continue
        slot[id(node)] = len(plan)
        plan.append((node._call[0], [*(q.data for q in node._parents), *node._call[1:]],
                     [(i, slot[id(q)]) for i, q in enumerate(node._parents) if id(q) in slot]))
    if not plan:  # p does not reach the loss
        value = float(nodes[-1].data)
        return lambda: value

    def replay():
        values = []
        for kernel, args, links in plan:
            for i, j in links:
                args[i] = values[j]
            value = kernel(*args)
            values.append(value[0] if type(value) is tuple else value)
        return float(values[-1])

    return replay


def _rel_error(a, b, floor=1e-8):
    """Max elementwise relative error with denominator max(|a|,|b|,floor);
    inf where either side holds a non-finite entry."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        return float("inf")
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))


def run_suite(module: str, trials: int = 20, seed: int = 0):
    """Run one named suite: its op checks ``trials`` times over one
    ``SplitMix64(seed)``, then its pipeline check once; returns {check
    name: worst relative error}."""
    if module not in _SUITES:
        raise ValueError(f"unknown module {module!r}")
    op_checks, pipeline = _SUITES[module]
    rng = SplitMix64(seed)
    worst = {}
    for _ in range(trials):
        for name, f, x in op_checks(rng):
            worst[name] = max(worst.get(name, 0.0), check_function(f, x))
    if pipeline is not None:
        name, params, loss_fn = pipeline(seed)
        worst[name] = _check_params(params, loss_fn)
    return worst


# module -> (op checks: a generator of one trial's (name, f, x), drawing its
# inputs from the suite's rng; pipeline check: (name, params, loss_fn) built
# from the seed, or None)
_SUITES = {"tensor": (_tensor_checks, None), "rope": (_rope_checks, None),
           "csec": (_csec_checks, _csec_pipeline), "segnet": (_segnet_checks, _segnet_pipeline)}
SUITES = tuple(_SUITES)
