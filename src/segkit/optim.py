"""Training parameters: the one initializer, Adam and the one training loop.

``fan_in_uniform`` draws every weight of the segmenter (``segnet.build_model``)
and the color corrector (``csec.init_csec``).  ``fit`` trains both
(``segnet.train``, ``csec.train_csec``): it owns the seeded shuffle, the step
(zero_grad, forward, finite-loss check, backward, Adam step), the per-epoch
mean loss, and freeing each step's graph before the next forward.
Per-epoch and per-step telemetry belongs in it.

Adam keeps the moments of all parameters in one flat buffer each, so a step
is a handful of whole-buffer numpy operations.  Every element goes through the
same operations in the same order as a per-tensor update, so the result is
bitwise the same.  Each step writes the parameters back as views of one new
flat array; a parameter whose gradient is None is left untouched.  The index
that gathers the moments of the others is rebuilt only when the set of
parameters with a gradient changes.
"""

import numpy as np

from .errors import ConfigInvalidError, EmptyDatasetError, TrainingDivergedError
from .rng import SplitMix64

__all__ = ["Adam", "fan_in_uniform", "fit"]


def fan_in_uniform(rng: SplitMix64, shape, fan_in, dtype=np.float32) -> np.ndarray:
    """Weights drawn from rng uniform in +-sqrt(3 / fan_in), cast to dtype."""
    limit = float(np.sqrt(3.0 / fan_in))
    return rng.uniform_array(shape, -limit, limit).astype(dtype)


class Adam:
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
        self._offsets = np.cumsum([0] + [p.data.size for p in self.params.values()])
        dtype = dtypes.pop() if dtypes else np.float32
        self.m = np.zeros(self._offsets[-1], dtype)
        self.v = np.zeros(self._offsets[-1], dtype)
        self._live, self._sel = None, None

    def zero_grad(self):
        for p in self.params.values():
            p.zero_grad()

    def step(self):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        params = list(self.params.values())
        live = [i for i, p in enumerate(params) if p.grad is not None]
        if not live:
            return
        ps = [params[i] for i in live]
        g = np.concatenate([p.grad.ravel() for p in ps])
        if len(live) == len(params):
            m, v = self.m, self.v
        else:
            if live != self._live:
                off = self._offsets
                self._live = live
                self._sel = np.concatenate([np.arange(off[i], off[i + 1]) for i in live])
            sel = self._sel
            m, v = self.m[sel], self.v[sel]
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
        if m is not self.m:
            self.m[sel], self.v[sel] = m, v
        flat = np.concatenate([p.data.ravel() for p in ps])
        flat -= step
        start = 0
        for p in ps:
            p.data = flat[start:start + p.data.size].reshape(p.data.shape)
            start += p.data.size


def fit(opt, n_samples, batch_loss, epochs, batch_size, seed):
    """Yield each epoch's mean loss as opt minimizes batch_loss(indices), the mean
    loss of batch_size samples, in an order SplitMix64(seed) reshuffles each epoch.

    A non-finite batch loss raises TrainingDivergedError naming the epoch and
    step (from 1), the batch's sample indices and the last finite epoch-mean
    loss.  The check runs before backward, so there is no gradient norm to
    report, and the parameters keep the last finite step's values.
    """
    if n_samples < 1:
        raise EmptyDatasetError("training set is empty")
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
            loss = _step(opt, batch_loss, batch)
            if not np.isfinite(loss):
                raise TrainingDivergedError(
                    f"non-finite training loss {loss} at epoch {epoch}, step {step}, "
                    f"samples {batch}; last finite epoch-mean loss {last}", batch)
            total += loss * len(batch)
        last = total / n_samples
        yield last


def _step(opt, batch_loss, batch) -> float:
    """One step on batch; returns its loss, and runs backward and the
    optimizer step only if that is finite.  Its graph dies on return."""
    opt.zero_grad()
    loss = batch_loss(batch)
    value = float(loss.data)
    if np.isfinite(value):
        loss.backward()
        opt.step()
    return value
