"""Span tracer that measures segkit from outside.

While installed, every public function of the traced segkit modules (plus a
few named methods) is replaced by a wrapper that records one span per call:
name, start, end and the span that was open when it was called.  segkit
modules import ops by name, so a function is patched in every segkit module
namespace that binds it (``segkit.segnet.matmul``, ``segkit.rope.matmul``,
...), not only where it is defined.  ``restore`` puts the originals back.

Spans live in flat arrays while tracing; ``SpanTable`` turns them into
per-name and per-layer self times with numpy.  A span's self time is its
duration minus the time its child spans cover.
"""

import array
import functools
import inspect
import os
import sys
import time
from contextlib import contextmanager

import numpy as np

LAYERS = ("tensor", "rope", "segnet", "optim", "csec", "denoise", "metrics",
          "dataio", "checkpoint", "cli", "gradcheck")

# methods traced besides the module-level public functions
METHODS = {
    "tensor": {"Tensor": ("backward",)},
    "segnet": {"Model": ("forward",)},
    "optim": {"Adam": ("step", "zero_grad")},
    "metrics": {"ConfusionMatrix": ("update",)},
}

BENCH = "bench"  # layer of the spans the benchmark opens itself


class Tracer:
    def __init__(self):
        self.names = []
        self.layers = []
        self._ids = {}
        self.nid = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.stack = [-1]
        self.read_bytes = 0
        self._patches = []

    def _intern(self, name, layer):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return self._ids[name]

    def wrap(self, name, layer, fn, on_call=None):
        nid = self._intern(name, layer)
        ids, parents, starts, ends, stack = self.nid, self.parent, self.start, self.end, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            idx = len(ids)
            ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    @contextmanager
    def span(self, name):
        """A span opened by the benchmark itself, around calls into segkit."""
        idx = len(self.nid)
        self.nid.append(self._intern(name, BENCH))
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter()
            self.stack.pop()

    def _count_bytes(self, args):
        self.read_bytes += os.path.getsize(args[0])

    def install(self):
        """Wrap the public functions of every traced layer, everywhere bound."""
        wrapped = {}
        for layer in LAYERS:
            mod = sys.modules[f"segkit.{layer}"]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    hook = self._count_bytes if obj is mod.__dict__.get("read_pnm") else None
                    wrapped[obj] = self.wrap(f"{layer}.{attr}", layer, obj, on_call=hook)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    orig = cls.__dict__[meth]
                    self._patches.append((cls, meth, orig))
                    setattr(cls, meth, self.wrap(f"{layer}.{cls_name}.{meth}", layer, orig))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "segkit" or mod_name.startswith("segkit.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[obj])

    def restore(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches = []

    def save(self, path):
        """Write every span (name id, parent index, start, end) as .npz."""
        np.savez(path, names=np.array(self.names), layers=np.array(self.layers),
                 name_id=np.frombuffer(self.nid, dtype=np.intc),
                 parent=np.frombuffer(self.parent, dtype=np.intc),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64))


class SpanTable:
    """Per-span durations and self times, with per-name aggregates."""

    def __init__(self, tracer):
        self.names = list(tracer.names)
        self.layers = list(tracer.layers)
        self.index = {n: i for i, n in enumerate(self.names)}
        self.nid = np.frombuffer(tracer.nid, dtype=np.intc).astype(np.int64)
        self.parent = np.frombuffer(tracer.parent, dtype=np.intc).astype(np.int64)
        self.start = np.frombuffer(tracer.start, dtype=np.float64).copy()
        self.end = np.frombuffer(tracer.end, dtype=np.float64).copy()
        self.dur = self.end - self.start
        n, k = len(self.nid), len(self.names)
        child = self.parent >= 0
        covered = np.bincount(self.parent[child], weights=self.dur[child], minlength=n)
        self.self_time = self.dur - covered
        self.calls = np.bincount(self.nid, minlength=k)
        self.dur_by_name = np.bincount(self.nid, weights=self.dur, minlength=k)
        self.self_by_name = np.bincount(self.nid, weights=self.self_time, minlength=k)

    def __len__(self):
        return len(self.nid)

    def count(self, name):
        i = self.index.get(name)
        return 0 if i is None else int(self.calls[i])

    def total_s(self, name):
        i = self.index.get(name)
        return 0.0 if i is None else float(self.dur_by_name[i])

    def incl_ms(self, name):
        """Mean duration per call, children included (0 when never called)."""
        c = self.count(name)
        return 1e3 * self.total_s(name) / c if c else 0.0

    def self_ms(self, name):
        """Mean self time per call (0 when never called)."""
        c = self.count(name)
        return 1e3 * float(self.self_by_name[self.index[name]]) / c if c else 0.0

    def layer_self_s(self, layer):
        ids = [i for i, lay in enumerate(self.layers) if lay == layer]
        return float(self.self_by_name[ids].sum()) if ids else 0.0

    def mask(self, *names):
        ids = [self.index[n] for n in names if n in self.index]
        return np.isin(self.nid, ids)

    def mask_layer(self, layer):
        ids = [i for i, lay in enumerate(self.layers) if lay == layer]
        return np.isin(self.nid, ids)

    def outermost(self, unit_mask):
        """Indices of the unit spans not nested inside another unit span."""
        idx = np.flatnonzero(unit_mask)  # span index order is start order
        if idx.size == 0:
            return idx
        reach = np.maximum.accumulate(self.end[idx])
        prev = np.concatenate([[-np.inf], reach[:-1]])
        return idx[self.start[idx] >= prev]

    def inside(self, span_mask, units):
        """How many spans of span_mask lie inside one of the ``units`` spans."""
        if units.size == 0:
            return 0
        s = np.flatnonzero(span_mask)
        j = np.searchsorted(self.start[units], self.start[s], side="right") - 1
        ok = j >= 0
        ok[ok] = self.end[s[ok]] <= self.end[units[j[ok]]]
        return int(ok.sum())

    def children_of(self, parent_mask):
        """Mask of spans whose parent is a span of parent_mask."""
        has = self.parent >= 0
        out = np.zeros(len(self.nid), dtype=bool)
        out[has] = parent_mask[self.parent[has]]
        return out
