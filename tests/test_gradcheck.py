"""The gradient oracle's replay: every difference quotient it takes by
recomputing only the nodes a perturbed parameter reaches is bitwise the
quotient of a full forward, and every graph node's recorded kernel gives
the node's value."""

import inspect

import numpy as np
import pytest

import segkit.csec as _csec
import segkit.gradcheck as gradcheck
from segkit.gradcheck import H_STEP, SUITES, check_function, run_suite
from segkit.rng import SplitMix64
from segkit.rope import _attend
from segkit.segnet import ModelConfig, build_model
from segkit.tensor import (
    Tensor, _conv2d, _layer_norm, _linear, _node, _relu, _sigmoid, _upsample_nearest, add,
    cross_entropy, linear, matmul, mul, no_grad, tsum)


def _full_forward_quotients(params, loss_fn):
    """The central differences as the oracle took them before it replayed:
    one whole no-graph forward per perturbed entry."""
    numeric = {}
    with no_grad():
        for name, p in params.items():
            flat = p.data.reshape(-1)
            num = np.zeros_like(flat)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + H_STEP
                fp = float(loss_fn().data)
                flat[i] = orig - H_STEP
                fm = float(loss_fn().data)
                flat[i] = orig
                num[i] = (fp - fm) / (2 * H_STEP)
            numeric[name] = num
    return numeric


@pytest.fixture()
def compared(monkeypatch):
    """Route every check of the suites through both loops; returns the
    number of parameter entries compared, filled in as the suite runs."""
    checked = []
    real = gradcheck._check_params

    def check_both(params, loss_fn):
        before = {k: p.data.copy() for k, p in params.items()}
        want = _full_forward_quotients(params, loss_fn)
        _, got = gradcheck._gradients(params, loss_fn)
        for name, p in params.items():
            assert np.array_equal(p.data, before[name]), name  # restored bitwise
            assert got[name].dtype == want[name].dtype
            assert got[name].tobytes() == want[name].tobytes(), name
            checked.append(got[name].size)
        return real(params, loss_fn)

    monkeypatch.setattr(gradcheck, "_check_params", check_both)
    return checked


@pytest.mark.parametrize("module, seed, trials", [
    ("csec", 0, 1), ("csec", 1, 1), ("segnet", 0, 1), ("segnet", 1, 1),
    ("tensor", 0, 2), ("rope", 0, 2)])
def test_every_quotient_is_the_full_forward_quotient(compared, module, seed, trials):
    # csec's trials repeat only its small checks: one covers the pipeline,
    # whose parameters hold 1,806 entries (segnet's 5,155)
    run_suite(module, trials=trials, seed=seed)
    assert sum(compared) > {"csec": 1806, "segnet": 5154}.get(module, 100)


def test_the_loss_is_evaluated_once():
    # the analytic pass builds the graph; every quotient replays parts of it
    calls = []
    w = Tensor(np.array([0.3, -0.2, 0.5]), requires_grad=True)
    b = Tensor(np.array([0.1, 0.4, -0.7]), requires_grad=True)

    def loss():
        calls.append(1)
        return tsum(mul(add(w, b), w))

    assert gradcheck._check_params({"w": w, "b": b}, loss) < gradcheck.TOL
    assert len(calls) == 1


def test_parameter_that_misses_the_loss_gets_zero_quotients():
    w = Tensor(np.array([[0.3, -0.2], [0.5, 0.1]]), requires_grad=True)
    unused = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    params = {"w": w, "unused": unused}

    def loss():
        tsum(mul(unused, unused))  # computed, but not part of the loss
        return tsum(matmul(w, w))

    analytic, numeric = gradcheck._gradients(params, loss)
    want = _full_forward_quotients(params, loss)
    assert np.array_equal(analytic["unused"], np.zeros(3))
    assert numeric["unused"].tobytes() == want["unused"].tobytes() == np.zeros(3).tobytes()
    assert numeric["w"].tobytes() == want["w"].tobytes()


def test_a_non_finite_value_reads_as_an_infinite_error():
    # max(0.0, nan) is 0.0, so a NaN must not reach a max fold as NaN
    nan_weight = Tensor(np.array([np.nan, 1.0]))
    assert check_function(lambda v: tsum(mul(v, nan_weight)), np.array([0.5, 0.25])) == np.inf
    assert gradcheck._rel_error([1.0, np.inf], [1.0, np.inf]) == np.inf
    assert gradcheck._rel_error([0.5, 1.0], [0.5, np.nan]) == np.inf
    assert gradcheck._rel_error([0.5, 1.0], [0.5, 1.0]) == 0.0


# -- seeded mutants: a wrong backward must fail the checks that cover it ------


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sigmoid_backward_without_its_one_minus_y_fails_the_csec_pipeline(monkeypatch, seed):
    def sigmoid_without_one_minus_y(a):
        return _node(_sigmoid, (a,), lambda g, y: (g * y,))

    monkeypatch.setattr(_csec, "sigmoid", sigmoid_without_one_minus_y)
    assert run_suite("csec", trials=0, seed=seed)["csec_correct.params"] > gradcheck.TOL


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_relu_backward_passing_every_gradient_fails_the_conv_checks(monkeypatch, seed):
    def relu_passing_every_gradient(a):
        return _node(_relu, (a,), lambda g, y: (g,))

    monkeypatch.setattr(gradcheck, "relu", relu_passing_every_gradient)
    worst = run_suite("tensor", trials=2, seed=seed)
    assert worst["conv2d.input"] > gradcheck.TOL
    assert worst["conv2d.kernel"] > gradcheck.TOL
    assert max(worst["matmul"], worst["mul"], worst["cross_entropy"]) <= gradcheck.TOL


def _op_checks(module, seed):
    """{name: worst relative error} of one trial of a suite's op checks,
    without its pipeline check."""
    return {name: check_function(f, x)
            for name, f, x in gradcheck._SUITES[module][0](SplitMix64(seed))}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_layer_norm_backward_without_its_projection_fails_its_x_check(monkeypatch, seed):
    def layer_norm_without_projection(x, gamma, beta):
        def bwd(g, y, xhat, inv):
            d = xhat.shape[-1]
            gh = g * gamma.data  # drops the xhat * mean(gh * xhat) term from gx
            gx = inv * (gh - gh.sum(axis=-1, keepdims=True) / d)
            return gx, (g * xhat).reshape(-1, d).sum(axis=0), g.reshape(-1, d).sum(axis=0)

        return _node(_layer_norm, (x, gamma, beta), bwd)

    monkeypatch.setattr(gradcheck, "layer_norm", layer_norm_without_projection)
    worst = _op_checks("segnet", seed)
    assert worst["layer_norm.x"] > gradcheck.TOL
    assert max(worst["layer_norm.gamma"], worst["layer_norm.beta"],
               worst["upsample_nearest"]) <= gradcheck.TOL


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_upsample_backward_of_one_replica_fails_its_check(monkeypatch, seed):
    def upsample_of_one_replica(x, factor):
        n, c, h, w = x.data.shape
        return _node(_upsample_nearest, (x,), lambda g, y: (
            g.reshape(n, c, h, factor, w, factor)[:, :, :, 0, :, 0].copy(),), factor)

    monkeypatch.setattr(gradcheck, "upsample_nearest", upsample_of_one_replica)
    worst = _op_checks("segnet", seed)
    assert worst["upsample_nearest"] > gradcheck.TOL
    assert max(worst["layer_norm.x"], worst["layer_norm.gamma"],
               worst["layer_norm.beta"]) <= gradcheck.TOL


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_linear_backward_dropping_the_residual_fails_its_residual_checks(monkeypatch, seed):
    def linear_dropping_the_residual(x, w, b=None, *, relu=False, residual=None):
        out = linear(x, w, b, relu=relu, residual=residual)
        if residual is not None:
            bwd = out._backward_fn
            out._backward_fn = lambda g: [*bwd(g)[:-1], None]
        return out

    monkeypatch.setattr(gradcheck, "linear", linear_dropping_the_residual)
    worst = _op_checks("segnet", seed)
    assert worst["linear.residual"] > gradcheck.TOL
    assert worst["linear.bias_residual"] > gradcheck.TOL
    assert max(v for k, v in worst.items() if "residual" not in k) <= gradcheck.TOL


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_como_term_backward_dropping_a_use_of_f_fails_the_fusion_check(monkeypatch, seed):
    # F's gradient less its right factor's share, norm^T (gamma g)
    real = _csec._branch_term

    def term_dropping_the_right_factor(f, gamma):
        out = real(f, gamma)
        norm = _csec.sym_norm(_csec.self_correlation(f)).data
        bwd = out._backward_fn

        def without_the_right_factor(g):
            gf, gg = bwd(g)
            return gf - np.swapaxes(norm, -1, -2) @ (g * float(gamma.data)), gg

        out._backward_fn = without_the_right_factor
        return out

    monkeypatch.setattr(_csec, "_branch_term", term_dropping_the_right_factor)
    worst = _op_checks("csec", seed)
    assert worst["como_fuse"] > gradcheck.TOL
    assert max(v for k, v in worst.items() if k != "como_fuse") <= gradcheck.TOL
    assert run_suite("csec", trials=0, seed=seed)["csec_correct.params"] > 10 * gradcheck.TOL


# -- the kernel contract: call[0](*(p.data for p in parents), *call[1:]) ------


def _op_nodes(loss):
    """Every op node (every node but the leaves) of loss's graph, constant
    ones too."""
    seen, stack, nodes = {id(loss)}, [loss], []
    while stack:
        node = stack.pop()
        for q in node._parents:
            if id(q) not in seen:
                seen.add(id(q))
                stack.append(q)
        if node._parents:
            nodes.append(node)
    return nodes


def _assert_kernels_give_the_values(loss):
    """Run every op node of loss's graph through its recorded kernel on its
    parents' data; each must give the node's bytes, dtype and shape.
    Returns the number of nodes checked."""
    nodes = _op_nodes(loss)
    for node in nodes:
        kernel, *consts = node._call
        value = kernel(*(q.data for q in node._parents), *consts)
        value = np.asarray(value[0] if type(value) is tuple else value)
        assert value.dtype == node.data.dtype, kernel.__name__
        assert value.shape == node.data.shape, kernel.__name__
        assert value.tobytes() == node.data.tobytes(), kernel.__name__
    return len(nodes)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("module", SUITES)
def test_every_suite_node_is_its_kernels_value(monkeypatch, module, seed):
    checked = []

    def build_and_check(params, loss_fn):
        loss = loss_fn()
        loss.backward()  # as the oracle does before it replays
        checked.append(_assert_kernels_give_the_values(loss))
        return 0.0

    monkeypatch.setattr(gradcheck, "_check_params", build_and_check)
    run_suite(module, trials=1, seed=seed)
    assert min(checked) >= 1
    assert sum(checked) > {"tensor": 10, "rope": 5, "csec": 60, "segnet": 30}[module]


@pytest.mark.parametrize("truncate", [None, 0.9])
def test_every_node_of_a_segmenter_training_step_is_its_kernels_value(truncate):
    # the default f32 model on 48x48 images: a 12x12 grid in 4x4 windows,
    # block 1 shifted by 2, so the shift's mask is recorded too; 20 nodes:
    # the embedding, seven per block, the head, the permute, reshape and
    # upsampling to pixel logits, and the loss
    model = build_model(ModelConfig())
    rng = SplitMix64(4)
    images = rng.uniform_array((4, 3, 48, 48)).astype(np.float32)
    masks = np.floor(rng.uniform_array((4, 48, 48), 0.0, 3.0)).astype(np.int64)
    masks[1, :5] = -1  # IGNORE
    loss = cross_entropy(model.forward(images), masks, truncate=truncate)
    loss.backward()
    assert _assert_kernels_give_the_values(loss) == 20


def test_one_token_attention_leaves_the_projection_its_value():
    # a 4x4 image is one patch: attention's gathered qkv buffer has the
    # projection's own layout, and rotating it in place must not rewrite
    # that node's value, _matmul(h, wqkv)
    model = build_model(ModelConfig(window=0))
    image = SplitMix64(8).uniform_array((1, 3, 4, 4)).astype(np.float32)
    loss = cross_entropy(model.forward(image), np.zeros((1, 4, 4), np.int64))
    loss.backward()
    assert _assert_kernels_give_the_values(loss) == 20


@pytest.mark.parametrize("identity", [True, False])
def test_every_node_of_a_csec_training_step_is_its_kernels_value(identity):
    # 17 nodes from the identity init: the image's token stack, two
    # convolutions with their ReLU, one without, a reshape and a permute
    # (5); a fusion term and the bias (2); the decoder's permute, reshape,
    # three convolutions, two upsamplings, the residual add and the sigmoid
    # (9); the loss.  The live offset branch adds two offset_convs of two
    # nodes each (4), the offset maps' two slices (2), their token stacks
    # (10), and two fusion terms with their adds (4): 37
    params = _csec.init_csec(_csec.CsecConfig(), seed=2, identity=identity)
    rng = SplitMix64(5)
    image, clean = (rng.uniform_array((1, 3, 16, 16), 0.05, 0.95).astype(np.float32)
                    for _ in range(2))
    loss = _csec.mse_loss(_csec.csec_correct(Tensor(image), params), clean)
    loss.backward()
    assert _assert_kernels_give_the_values(loss) == (17 if identity else 37)


# -- kernel census: every kernel a training graph records has an op check ----


def _recorded_kernels(loss):
    """The kernel, call[0], of every op node of loss's graph, for each
    ``_linear`` and ``_conv2d`` node its epilogue, and for each ``_attend``
    node whether each of its perm, mask and c2 is None: the branches its
    forward and backward take."""
    recorded = set()
    for node in _op_nodes(loss):
        kernel, *consts = node._call
        recorded.add(kernel)
        if kernel is _linear:
            recorded.add(f"_linear {'+'.join(consts[-1])}")
        if kernel is _conv2d:
            recorded.add(f"_conv2d {'relu' if consts[-1] else 'plain'}")
        if kernel is _attend:
            names = list(inspect.signature(_attend).parameters)[len(node._parents):]
            args = dict(zip(names, consts))
            recorded |= {f"_attend {k}={'None' if args[k] is None else 'set'}"
                         for k in ("perm", "mask", "c2")}
    return recorded


def test_every_recorded_kernel_has_an_op_check():
    # the loss graphs of a live-init corrector, and of the default model,
    # global attention, RoPE off and a model with the corrector, each with
    # and without truncation; every kernel they record, every epilogue of
    # linear and conv2d and every attention branch, is recorded by an op
    # check's own graph too
    rng = SplitMix64(6)
    images = rng.uniform_array((2, 3, 48, 48), 0.05, 0.95).astype(np.float32)
    masks = np.floor(rng.uniform_array((2, 48, 48), 0.0, 3.0)).astype(np.int64)
    params = _csec.init_csec(_csec.CsecConfig(), seed=2, identity=False)
    recorded = _recorded_kernels(_csec.mse_loss(
        _csec.csec_correct(Tensor(images[:1, :, :16, :16]), params), images[1:, :, :16, :16]))
    for cfg in (ModelConfig(), ModelConfig(window=0), ModelConfig(use_rope=False),
                ModelConfig(use_csec=True)):
        model = build_model(cfg)
        for truncate in (None, 0.9):
            recorded |= _recorded_kernels(cross_entropy(model.forward(images), masks,
                                                        truncate=truncate))
    assert {f"_attend {k}={v}" for k in ("perm", "mask", "c2") for v in ("None", "set")} <= recorded
    assert {f"_linear {e}" for e in ("bias", "bias+relu", "residual", "bias+residual")} <= recorded
    assert {"_conv2d relu", "_conv2d plain"} <= recorded
    checked = set()
    for module in SUITES:
        for _, f, x in gradcheck._SUITES[module][0](SplitMix64(0)):
            checked |= _recorded_kernels(f(Tensor(x, requires_grad=True)))
    unchecked = recorded - checked
    assert not unchecked, sorted(k if type(k) is str else k.__name__ for k in unchecked)
