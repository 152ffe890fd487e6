"""First-order adaptive-moment optimizer (Adam) over named parameter dicts.

The moments of all parameters live in one flat buffer each, so a step is a
handful of whole-buffer numpy operations.  Every element goes through the
same operations in the same order as a per-tensor update, so the result is
bitwise the same.  Each step writes the parameters back as views of one new
flat array; a parameter whose gradient is None is left untouched.
"""

import numpy as np

__all__ = ["Adam"]


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
            off = self._offsets
            sel = np.concatenate([np.arange(off[i], off[i + 1]) for i in live])
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
