"""Flat binary checkpoint format.

Layout (all integers little-endian u32):
  magic bytes ``SMK1``
  tensor count
  per tensor: name length, name bytes (utf-8), rank, extents, f32 payload
"""

import struct

import numpy as np

from .errors import BadMagicError, TruncatedError
from .tensor import Tensor

MAGIC = b"SMK1"

__all__ = ["MAGIC", "save_checkpoint", "load_checkpoint"]


def save_checkpoint(path, params: dict):
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(params)))
        for name, t in params.items():
            arr = (t.data if isinstance(t, Tensor) else np.asarray(t)).astype("<f4")
            nb = name.encode("utf-8")
            fh.write(struct.pack("<I", len(nb)))
            fh.write(nb)
            fh.write(struct.pack("<I", arr.ndim))
            for ext in arr.shape:
                fh.write(struct.pack("<I", ext))
            fh.write(arr.tobytes())


def load_checkpoint(path) -> dict:
    """Read back a checkpoint as name -> Tensor (f32, requires_grad)."""
    with open(path, "rb") as fh:
        buf = fh.read()
    if buf[:4] != MAGIC:
        raise BadMagicError(f"bad checkpoint magic {buf[:4]!r}")
    pos = 4

    def take(n):
        nonlocal pos
        if pos + n > len(buf):
            raise TruncatedError("checkpoint ended early")
        chunk = buf[pos:pos + n]
        pos += n
        return chunk

    (count,) = struct.unpack("<I", take(4))
    params = {}
    for _ in range(count):
        (nlen,) = struct.unpack("<I", take(4))
        raw = take(nlen)
        try:
            name = raw.decode("utf-8")
        except UnicodeDecodeError:
            raise BadMagicError(f"tensor name {raw!r} is not utf-8")
        (rank,) = struct.unpack("<I", take(4))
        shape = tuple(struct.unpack("<I", take(4))[0] for _ in range(rank))
        n = int(np.prod(shape)) if shape else 1
        arr = np.frombuffer(take(4 * n), dtype="<f4").reshape(shape)
        params[name] = Tensor(arr.copy(), requires_grad=True)
    return params
