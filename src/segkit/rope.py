"""Rotary positional embedding for 2D image patches.

Each query/key vector is split into 2D sub-vector pairs (x_{2i}, x_{2i+1});
pair i is rotated by the angle p * w_i where p is the integer patch position
and w_i = base^(-2i/d).  The 2D extension is axial: the first half of the
head dimension encodes the row index and the second half the column index,
each with its own frequency table of head_dim d/2.  Rotations touch Q and K
only, so relative position enters attention purely through the inner product.

Angles are computed in f64 and cast to the input dtype to avoid trig drift
for large positions.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DimNotDivisibleBy4Error, OddHeadDimError, ShapeMismatchError
from .tensor import Tensor, matmul, permute, scale, softmax

__all__ = ["FreqTable", "PatchGrid", "freq_table", "angles", "axial_angles", "rotate",
           "rope_attention"]


@dataclass(frozen=True)
class FreqTable:
    head_dim: int
    base: float
    freqs: np.ndarray  # shape (head_dim/2,), f64, strictly decreasing from 1

    def half_table(self) -> "FreqTable":
        """Frequency table for one axis of the axial 2D scheme."""
        return freq_table(self.head_dim // 2, self.base)


@dataclass(frozen=True)
class PatchGrid:
    rows: int
    cols: int

    @property
    def n_patches(self) -> int:
        return self.rows * self.cols

    def positions(self) -> np.ndarray:
        """Row-major (py, px) pairs, shape (rows*cols, 2)."""
        py, px = np.meshgrid(np.arange(self.rows), np.arange(self.cols), indexing="ij")
        return np.stack([py.reshape(-1), px.reshape(-1)], axis=1)


def freq_table(head_dim: int, base: float = 10000.0) -> FreqTable:
    if head_dim < 2 or head_dim % 2 != 0:
        raise OddHeadDimError(f"head_dim must be even and >= 2, got {head_dim}")
    i = np.arange(head_dim // 2, dtype=np.float64)
    freqs = float(base) ** (-2.0 * i / head_dim)
    return FreqTable(head_dim=head_dim, base=float(base), freqs=freqs)


def _rotate_pairs(x: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """Rotate pairs (x_{2i}, x_{2i+1}) by the angles with cosines cos[..., i]
    and sines sin[..., i] (broadcast against the leading axes of x)."""
    even = x[..., 0::2]
    odd = x[..., 1::2]
    out = np.empty_like(x)
    out[..., 0::2] = even * cos - odd * sin
    out[..., 1::2] = even * sin + odd * cos
    return out


def rotate(x: Tensor, theta) -> Tensor:
    """Rotate the pairs (x_{2i}, x_{2i+1}) of the last axis by the angles
    theta[..., i] (f64, cast to x's dtype; broadcast against x's leading axes).

    ``angles`` builds theta for a 1D position, ``axial_angles`` for a 2D one.
    """
    theta = np.asarray(theta, dtype=np.float64)
    if theta.ndim == 0 or x.data.shape[-1] != 2 * theta.shape[-1]:
        raise ShapeMismatchError(f"last extent {x.data.shape[-1]} vs angles {theta.shape}")
    th = theta.astype(x.dtype)
    return _rotation_cs(x, np.cos(th), np.sin(th))


def _rotation_cs(x: Tensor, cos: np.ndarray, sin: np.ndarray) -> Tensor:
    # the inverse rotation (by -theta) is the adjoint
    return Tensor(_rotate_pairs(x.data, cos, sin), parents=(x,),
                  backward_fn=lambda g: (_rotate_pairs(g, cos, -sin),))


def angles(p, freqs: FreqTable) -> np.ndarray:
    """1D angles p * w_i, shape p.shape + (head_dim/2,)."""
    return np.asarray(p, dtype=np.float64)[..., None] * freqs.freqs


def axial_angles(positions, freqs: FreqTable) -> np.ndarray:
    """Axial 2D angles of positions [..., 2] (row, column): the row index
    times the half table, then the column index, shape [..., head_dim/2].

    ``freqs`` is the full-dimension table; each half uses its half_table().
    """
    if freqs.head_dim % 4 != 0:
        raise DimNotDivisibleBy4Error(f"head_dim {freqs.head_dim} must be divisible by 4")
    half = freqs.half_table().freqs
    pos = np.asarray(positions, dtype=np.float64)
    return np.concatenate([pos[..., :1] * half, pos[..., 1:] * half], axis=-1)


@functools.lru_cache(maxsize=16)
def _axial_tables(rows: int, cols: int, head_dim: int, base: float, dtype: np.dtype):
    """Read-only cos and sin tables [rows*cols, head_dim/2] of a patch grid."""
    grid = PatchGrid(rows, cols)
    th = axial_angles(grid.positions(), freq_table(head_dim, base)).astype(dtype)
    cos, sin = np.cos(th), np.sin(th)
    cos.flags.writeable = sin.flags.writeable = False
    return cos, sin


def rope_attention(q: Tensor, k: Tensor, v: Tensor, grid: PatchGrid, freqs: FreqTable) -> Tensor:
    """Scaled dot-product attention with rotary positions on queries and keys.

    q, k: [..., T, d]; v: [..., T, dv] with the same leading axes (batch and
    heads); T must equal grid.rows * grid.cols and d must equal
    freqs.head_dim.  The axial cos/sin tables are built once per
    (grid, head_dim, dtype) and reused.
    """
    shape = q.data.shape
    if len(shape) < 2 or k.data.shape != shape or v.data.shape[:-1] != shape[:-1]:
        raise ShapeMismatchError(f"q {shape}, k {k.data.shape}, v {v.data.shape}")
    t, d = shape[-2:]
    if t != grid.n_patches:
        raise ShapeMismatchError(f"{t} tokens vs {grid.rows}x{grid.cols} grid")
    if d != freqs.head_dim:
        raise ShapeMismatchError(f"last extent {d} != head_dim {freqs.head_dim}")
    cos, sin = _axial_tables(grid.rows, grid.cols, d, freqs.base, q.dtype)
    qr = _rotation_cs(q, cos, sin)
    kr = _rotation_cs(k, cos, sin)
    nd = len(shape)
    # scaling q rather than the [T, T] scores is the same up to rounding
    scores = matmul(scale(qr, 1.0 / np.sqrt(d)), permute(kr, (*range(nd - 2), nd - 1, nd - 2)))
    return matmul(softmax(scores, axis=-1), v)
