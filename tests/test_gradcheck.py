"""The gradient oracle's replay: every difference quotient it takes by
recomputing only the nodes a perturbed parameter reaches is bitwise the
quotient of a full forward."""

import numpy as np
import pytest

import segkit.gradcheck as gradcheck
from segkit.gradcheck import H_STEP, check_function, run_suite
from segkit.tensor import Tensor, add, matmul, mul, no_grad, relu, tsum


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


def test_unrecorded_cone_node_raises_and_names_the_op(monkeypatch):
    real_init = Tensor.__init__

    def init_forgetting_relu(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        if kwargs.get("call", (None,))[0] is relu:
            self._call = None

    monkeypatch.setattr(Tensor, "__init__", init_forgetting_relu)
    x = np.array([[0.5, -0.25], [1.5, 0.75]])
    with pytest.raises(RuntimeError, match=r"^relu made a graph node with no recorded call"):
        check_function(lambda v: tsum(relu(matmul(v, Tensor(x)))), x)


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
