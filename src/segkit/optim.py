"""Training parameters: the one initializer, Adam and the one training loop.

``fan_in_uniform`` draws every weight of the segmenter (``segnet.build_model``)
and the color corrector (``csec.init_csec``).  ``fit`` trains both
(``segnet.train``, ``csec.train_csec``): it owns the seeded shuffle, the step
(zero_grad, forward, finite-loss check, backward, finite-gradient check, Adam
step), the per-epoch mean loss, and freeing each step's graph before the next
forward.  Per-epoch and per-step telemetry belongs in it.

Adam keeps the moments of all parameters in one flat buffer each and gathers
the gradients into a third, a None gradient as zeros, so a step is a handful
of whole-buffer numpy operations over every parameter.  Every element goes
through the same operations in the same order as a per-tensor update, so the
result is bitwise the same.  Each step writes the parameters back as views of
one new flat array; a tensor with zero gradient and zero moments keeps its
bytes."""

import numpy as np

from .errors import ConfigInvalidError, TrainingDivergedError
from .rng import SplitMix64

__all__ = ["Adam", "fan_in_uniform", "fit"]


def fan_in_uniform(rng: SplitMix64, shape, fan_in, dtype=np.float32) -> np.ndarray:
    """Weights drawn from rng uniform in +-sqrt(3 / fan_in), cast to dtype."""
    limit = float(np.sqrt(3.0 / fan_in))
    return rng.uniform_array(shape, -limit, limit).astype(dtype)


class Adam:
    """Adam over a dict of parameters of one dtype: ``m`` and ``v`` hold the
    moments of every parameter, flat in the dict's order, and ``t`` counts
    the steps taken."""

    def __init__(self, params, lr=3e-4, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = dict(params)
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.t = 0
        dtypes = {p.data.dtype for p in self.params.values()}
        if len(dtypes) > 1:  # one flat buffer would round some in another dtype
            raise TypeError(f"Adam needs parameters of one dtype, got {sorted(map(str, dtypes))}")
        size = sum(p.data.size for p in self.params.values())
        dtype = dtypes.pop() if dtypes else np.float32
        self.m = np.zeros(size, dtype)
        self.v = np.zeros(size, dtype)

    def zero_grad(self):
        for p in self.params.values():
            p.zero_grad()

    def step(self):
        """One update of every parameter, a None gradient counting as zeros.

        A non-finite gradient raises TrainingDivergedError naming the first
        parameter that holds one, before t, the moments or any parameter
        change."""
        params = list(self.params.values())
        g = np.concatenate([np.zeros(p.data.size, p.data.dtype) if p.grad is None
                            else p.grad.ravel() for p in params])
        if not np.isfinite(g).all():
            name = next(k for k, p in self.params.items()
                        if p.grad is not None and not np.isfinite(p.grad).all())
            raise TrainingDivergedError(f"non-finite gradient of {name!r}")
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        m, v = self.m, self.v
        # m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g g;
        # p - lr (m / bc1) / (sqrt(v / bc2) + eps), in two scratch buffers
        step = g * (1.0 - b1)
        m *= b1
        m += step
        np.multiply(g, 1.0 - b2, out=step)
        step *= g
        v *= b2
        v += step
        np.divide(m, bc1, out=step)
        step *= self.lr
        np.divide(v, bc2, out=g)
        np.sqrt(g, out=g)
        g += self.eps
        step /= g
        flat = np.concatenate([p.data.ravel() for p in params])
        flat -= step
        start = 0
        for p in params:
            p.data = flat[start:start + p.data.size].reshape(p.data.shape)
            start += p.data.size


def fit(opt, n_samples, batch_loss, epochs, batch_size, seed):
    """Yield each epoch's mean loss as opt minimizes batch_loss(indices), the mean
    loss of batch_size samples, in an order SplitMix64(seed) reshuffles each epoch.

    No samples, epochs < 1 or batch_size < 1 raise ConfigInvalidError (exit
    2) before any step.  A non-finite batch loss, or a finite one whose
    gradient is not finite, raises TrainingDivergedError (exit 4) naming the
    epoch and step (from 1), the batch's sample indices, the last finite
    epoch-mean loss and, for a gradient, the first parameter that holds a
    non-finite one.  Both checks
    run before the optimizer changes anything, so the parameters, Adam's
    moments and its step count keep the last finite step's values.
    """
    if n_samples < 1:
        raise ConfigInvalidError("training set is empty")
    if epochs < 1 or batch_size < 1:
        raise ConfigInvalidError("need epochs >= 1 and batch_size >= 1")
    order_rng = SplitMix64(seed)
    last = None
    for epoch in range(1, epochs + 1):
        idx = list(range(n_samples))
        order_rng.shuffle(idx)
        total = 0.0
        for step, start in enumerate(range(0, n_samples, batch_size), 1):
            batch = idx[start:start + batch_size]
            try:
                total += _step(opt, batch_loss, batch) * len(batch)
            except TrainingDivergedError as exc:
                raise TrainingDivergedError(
                    f"{exc} at epoch {epoch}, step {step}, samples {batch}; "
                    f"last finite epoch-mean loss {last}", batch) from None
        last = total / n_samples
        yield last


def _step(opt, batch_loss, batch) -> float:
    """One step on batch; returns its loss.  A non-finite loss raises
    TrainingDivergedError before backward, and a non-finite gradient before
    the optimizer step changes anything.  Its graph dies on return."""
    opt.zero_grad()
    loss = batch_loss(batch)
    value = float(loss.data)
    if not np.isfinite(value):
        raise TrainingDivergedError(f"non-finite training loss {value}")
    loss.backward()
    opt.step()
    return value
