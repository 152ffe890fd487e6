"""Flat binary checkpoint format, and the model and corrector checkpoints.

Layout, all integers little-endian u32: magic bytes ``SMK1``, tensor count,
then per tensor its name length, utf-8 name bytes, rank, extents and f32 payload.

Model and color-correction checkpoints add f32 entries ``config.kind`` (0
model, 1 corrector) and ``config.<field>`` per ``ModelConfig`` or
``CsecConfig`` field, and a model's corrector as ``csec.*`` and
``config.csec.<field>``.  Older files load: without ``config.kind`` as
either kind, without ``config.window`` as window 0, with a model's
``config.image_size``, the extent it was trained at, dropped unread, and
per-head ``b{i}.h{hd}.w{q,k,v}`` weights fused into ``b{i}.wqkv``.  A loaded
checkpoint must hold exactly the parameters its config builds, by name and
shape, and no ``config.*`` entry its configs do not read, each typed as a
config-file line holding its values (``dataio._parse_like``); a missing,
misshapen, unknown or mistyped one is a ConfigInvalidError, and a parameter
holding a NaN or inf a MalformedFileError.  A ``config.n_blocks`` above the
count of the model's weight tensors, or a per-head block whose
``config.n_heads`` would need more matrices than that, is refused before
any per-block or per-head work.
"""

import math
import struct
from dataclasses import fields as dc_fields

import numpy as np

from .csec import CsecConfig
from .csec import param_shapes as csec_param_shapes
from .dataio import _parse_like
from .errors import ConfigInvalidError, MalformedFileError
from .segnet import Model, ModelConfig, fuse_qkv, param_shapes
from .tensor import Tensor

MAGIC = b"SMK1"

__all__ = ["MAGIC", "save_checkpoint", "load_checkpoint", "save_model_checkpoint",
           "load_model_checkpoint", "save_csec_checkpoint", "load_csec_checkpoint"]


def save_checkpoint(path, params: dict):
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(params)))
        for name, t in params.items():
            arr = (t.data if isinstance(t, Tensor) else np.asarray(t)).astype("<f4")
            nb = name.encode("utf-8")
            fh.write(struct.pack(f"<I{len(nb)}sI{arr.ndim}I", len(nb), nb, arr.ndim, *arr.shape))
            fh.write(arr.tobytes())


def load_checkpoint(path) -> dict:
    """Read back a checkpoint as name -> Tensor (f32, requires_grad).  A
    malformed file, bytes after the last tensor or a tensor name given twice
    included, is a MalformedFileError naming path."""
    with open(path, "rb") as fh:
        buf = fh.read()
    if buf[:4] != MAGIC:
        raise MalformedFileError(f"{path}: bad checkpoint magic {buf[:4]!r}")
    pos = 4

    def take(n):
        nonlocal pos
        if pos + n > len(buf):
            raise MalformedFileError(f"{path}: checkpoint ended early, {n} bytes wanted")
        pos += n
        return buf[pos - n:pos]

    (count,) = struct.unpack("<I", take(4))
    params = {}
    for _ in range(count):
        (nlen,) = struct.unpack("<I", take(4))
        raw = take(nlen)
        try:
            name = raw.decode("utf-8")
        except UnicodeDecodeError:
            raise MalformedFileError(f"{path}: tensor name {raw!r} is not utf-8")
        (rank,) = struct.unpack("<I", take(4))
        shape = struct.unpack(f"<{rank}I", take(4 * rank))
        if 0 in shape:
            raise MalformedFileError(f"{path}: checkpoint tensor {name!r} has a zero extent "
                                     f"{shape}")
        arr = np.frombuffer(take(4 * math.prod(shape)), dtype="<f4").reshape(shape)
        if name in params:
            raise MalformedFileError(f"{path}: checkpoint names tensor {name!r} twice")
        params[name] = Tensor(arr.copy(), requires_grad=True)
    if pos != len(buf):
        raise MalformedFileError(f"{path}: {len(buf) - pos} bytes after the last tensor")
    return params


# -- checkpoints with embedded configuration ---------------------------------

def _pack_config(cfg, prefix) -> dict:
    """Every field of a config dataclass as an f32 ``prefix + name`` entry."""
    return {prefix + f.name: np.array(getattr(cfg, f.name), dtype=np.float32)
            for f in dc_fields(cfg)}


def _config_entry(blob: dict, key, default, path):
    """The ``key`` entry, taken out of blob, typed like ``default`` from its
    values written out: an integral one exactly, any other as the shortest
    decimal that reads back to its f32 (``0.0001``, not ``9.99...e-05``)."""
    if key not in blob:
        raise ConfigInvalidError(f"{path}: checkpoint lacks {key!r}")
    # the shortest decimal of 2**30 would be 1073741800
    text = " ".join(str(int(v)) if v.is_integer() else np.format_float_positional(v, trim="-")
                    for v in np.atleast_1d(blob.pop(key).data))
    try:
        return _parse_like(text, default)
    except (TypeError, ValueError) as exc:
        raise ConfigInvalidError(f"{path}: bad {key!r}: {exc}") from None


def _unpack_config(cls, blob: dict, prefix, path):
    """Rebuild ``cls`` from the entries ``_pack_config`` wrote, taking them
    out of blob; a config its checks refuse is an error naming path."""
    values = {f.name: _config_entry(blob, prefix + f.name, f.default, path)
              for f in dc_fields(cls)}
    try:
        return cls(**values)
    except ConfigInvalidError as exc:
        raise ConfigInvalidError(f"{path}: {exc}") from None


def _refuse_unknown_config(blob: dict, path):
    """Refuse any ``config.*`` entry left in blob once its configs are
    unpacked: no code reads it, so a misspelled field would load as its
    default."""
    for key in sorted(blob):
        if key.startswith("config."):
            raise ConfigInvalidError(f"{path}: {key!r} is no entry of its config")


def _load_kind(path, kind, what) -> dict:
    """load_checkpoint less ``config.kind``, refusing a kind other than ``kind``."""
    blob = load_checkpoint(path)
    if "config.kind" in blob and _config_entry(blob, "config.kind", kind, path) != kind:
        raise ConfigInvalidError(f"{path} is not a {what} checkpoint")
    return blob


def _with_config(params: dict, kind, cfg) -> dict:
    return {**params, "config.kind": np.array(float(kind)), **_pack_config(cfg, "config.")}


def save_model_checkpoint(path, model: Model):
    blob = _with_config(model.params, 0, model.config)
    if model.csec_params is not None:
        blob.update({"csec." + k: t for k, t in model.csec_params.items()})
        blob.update(_pack_config(model.csec_config, "config.csec."))
    save_checkpoint(path, blob)


def load_model_checkpoint(path) -> Model:
    blob = _load_kind(path, 0, "model")
    blob.setdefault("config.window", Tensor(np.zeros((), dtype=np.float32)))
    blob.pop("config.image_size", None)
    cfg = _unpack_config(ModelConfig, blob, "config.", path)
    params = {k: t for k, t in blob.items() if not k.startswith(("config.", "csec."))}
    csec_params = {k[len("csec."):]: t for k, t in blob.items() if k.startswith("csec.")}
    if cfg.n_blocks > len(params):  # each block owns a weight: refused before any block loop
        raise ConfigInvalidError(f"{path}: 'config.n_blocks' is {cfg.n_blocks}, more blocks "
                                 f"than the checkpoint's {len(params)} model weights")
    _fuse_legacy_heads(params, cfg, path)
    csec_cfg = (_unpack_config(CsecConfig, blob, "config.csec.", path) if csec_params
                else CsecConfig())
    _refuse_unknown_config(blob, path)
    try:
        model = Model(cfg, params, csec_params=csec_params or None, csec_config=csec_cfg)
    except ConfigInvalidError as exc:  # config.use_csec disagrees with the csec.* tensors
        raise ConfigInvalidError(f"{path}: {exc}") from None
    _check_params(params, param_shapes(cfg), path)
    if csec_params:
        _check_params(csec_params, csec_param_shapes(csec_cfg), path, "csec.")
    return model


def _check_params(params: dict, shapes: dict, path, prefix=""):
    """Refuse params unless they are shapes' names with shapes' shapes and
    finite values; a NaN or inf is malformed content, a MalformedFileError."""
    for name in sorted(shapes.keys() | params.keys()):
        if name not in params:
            raise ConfigInvalidError(f"{path}: checkpoint lacks {prefix + name!r}")
        if name not in shapes:
            raise ConfigInvalidError(f"{path}: {prefix + name!r} is no parameter of its config")
        if params[name].data.shape != shapes[name]:
            raise ConfigInvalidError(f"{path}: {prefix + name!r} has shape "
                                     f"{params[name].data.shape}, its config builds {shapes[name]}")
        if not np.isfinite(params[name].data).all():
            raise MalformedFileError(f"{path}: {prefix + name!r} holds a non-finite value")


def _fuse_legacy_heads(params: dict, cfg: ModelConfig, path):
    """Pack the per-head ``b{i}.h{hd}.w{q,k,v}`` entries of checkpoints
    written before the heads were fused into each block's ``b{i}.wqkv``.
    A block is per-head when it holds ``b{i}.h0.wq``; its 3 * n_heads names
    are built only then, and only if params can hold that many."""
    for i in range(cfg.n_blocks):
        if f"b{i}.h0.wq" not in params:
            continue
        if 3 * cfg.n_heads > len(params):
            raise ConfigInvalidError(f"{path}: 'config.n_heads' is {cfg.n_heads}, more q/k/v "
                                     f"matrices for block {i} than the checkpoint's "
                                     f"{len(params)} model weights")
        names = [[f"b{i}.h{hd}.w{c}" for c in "qkv"] for hd in range(cfg.n_heads)]
        if not all(n in params for row in names for n in row):
            raise ConfigInvalidError(f"{path}: block {i} lacks some per-head q/k/v matrices")
        heads = [[params.pop(n).data for n in row] for row in names]
        params[f"b{i}.wqkv"] = Tensor(fuse_qkv(heads), requires_grad=True)


def save_csec_checkpoint(path, params: dict, config: CsecConfig = CsecConfig()):
    save_checkpoint(path, _with_config(params, 1, config))


def load_csec_checkpoint(path):
    """(parameters, CsecConfig) of a color-correction checkpoint."""
    blob = _load_kind(path, 1, "color-correction")
    cfg = _unpack_config(CsecConfig, blob, "config.", path)
    _refuse_unknown_config(blob, path)
    _check_params(blob, csec_param_shapes(cfg), path)
    return blob, cfg
