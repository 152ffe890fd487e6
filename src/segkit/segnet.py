"""Toy segmentation model and training pipeline.

Architecture: optional frozen color correction -> patchify -> linear embed
-> transformer blocks (pre-norm, multi-head attention with rotary positions
on queries/keys, MLP, residuals) -> per-patch class logits -> nearest-
neighbor upsampling to pixel logits.  A block is seven graph nodes: layer
norm, the qkv ``matmul``, ``rope_attention``, the output projection as
``tensor.linear`` with the residual added, layer norm, and the MLP's two
``linear`` nodes, bias and ReLU, then bias and the residual added.
``train`` minimizes cross-entropy with Adam through ``optim.fit``, the loop
``csec.train_csec`` runs too, fully deterministic from the seeds; the
model's weights are drawn by ``optim.fan_in_uniform`` in the order of
``param_shapes``.  Validation, scoring and ``segkit eval`` forward _CHUNK
images at a time under ``tensor.no_grad`` and give the masks ``predict``
gives image by image, bit for bit.  The chunk stays small for the cache,
not for graph memory (see ``_CHUNK``).

Attention is Swin-style: with ``ModelConfig.window`` w > 0 each token
attends within its w x w tile of the patch grid, and odd blocks shift the
tiles by w // 2 (``rope.rope_attention``); window 0 attends over the whole
grid.  The model reaches attention only through the module attribute
``rope.rope_attention``, once per block.  No parameter depends on the image
size: each input's extents, multiples of ``patch_size``, give its patch
grid, a plain (rows, cols) pair, and its forward refuses (``_check_extent``)
a grid the window does not tile or an image the corrector cannot take.

A model has color correction exactly when ``ModelConfig.use_csec`` is set,
and then always has CSEC parameters: given ones or the identity-initialized
corrector ``build_model`` draws from ``ModelConfig.seed``.

The loop ``train_with_denoise`` trains every ``segkit train`` run: without
denoising in one plain round, else by one of two modes
(``DenoiseConfig.mode``).  drop_samples trains the given model on the full
set, scores every sample's pixel-wise error rate under it, drops the samples
above the score quantile, and retrains a fresh model built from the same
config on the rest.  truncate_pixels trains the given model once, and every
batch's loss leaves out its valid pixels whose loss lies above the quantile.
"""

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .csec import CsecConfig, check_extents, csec_correct, init_csec
from .denoise import (
    DenoiseConfig,
    ErrorScore,
    filter_dataset,
    pixel_error_rate,
    quantile_threshold,
)
from .errors import ConfigInvalidError, ShapeMismatchError, TrainingDivergedError
from .metrics import ConfusionMatrix, miou
from .optim import Adam, fan_in_uniform, fit
from .rng import SplitMix64
from . import rope
from .tensor import (
    Tensor,
    cross_entropy,
    layer_norm,
    linear,
    matmul,
    no_grad,
    permute,
    reshape,
    upsample_nearest,
)

__all__ = [
    "ModelConfig",
    "TrainConfig",
    "TrainReport",
    "FilterReport",
    "Model",
    "build_model",
    "param_shapes",
    "fuse_qkv",
    "train",
    "predict",
    "train_with_denoise",
]

# Images per inference forward, TrainConfig's default batch_size.  A no-grad
# forward of the default model costs 1.95x as much per image over 128 images
# at once as over chunks of 4 (1.08 vs 0.55 ms/image; 0.54 at 8, 0.64 at 32;
# 1 BLAS thread, 2-vCPU Xeon with 2 MiB of L2 per core): at 4 a block's
# largest activation, the MLP's [4,144,128] f32, is 295 kB and stays in L2,
# at 128 it is 9.4 MB and does not.
_CHUNK = 4


@dataclass
class ModelConfig:
    patch_size: int = 4
    embed_dim: int = 64
    n_blocks: int = 2
    n_heads: int = 4
    n_classes: int = 3
    use_csec: bool = False
    use_rope: bool = True
    window: int = 4  # attention tile side in patches; 0 attends over the whole grid
    seed: int = 0

    def __post_init__(self):
        if self.patch_size < 1 or self.n_heads < 1 or self.window < 0:
            raise ConfigInvalidError("need patch_size >= 1, n_heads >= 1 and window >= 0")
        if self.embed_dim < 4 * self.n_heads or self.embed_dim % (4 * self.n_heads) != 0:
            raise ConfigInvalidError("embed_dim must be a positive multiple of 4 * n_heads")
        if self.n_blocks < 1 or self.n_classes < 2:
            raise ConfigInvalidError("need n_blocks >= 1 and n_classes >= 2")
        # SMK1 checkpoints store the seed as f32, exact up to 2**24
        if abs(self.seed) > 2 ** 24:
            raise ConfigInvalidError(f"seed must be within +-2**24, got {self.seed}")


@dataclass
class TrainConfig:
    epochs: int = 30
    learning_rate: float = 3e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    batch_size: int = 4
    denoise: Optional[DenoiseConfig] = None
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigInvalidError("need epochs >= 1 and batch_size >= 1")
        for name in ("learning_rate", "eps"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ConfigInvalidError(f"{name} must be finite and positive, "
                                         f"got {getattr(self, name)}")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ConfigInvalidError(f"{name} must be in [0, 1), got {getattr(self, name)}")


@dataclass
class TrainReport:
    losses: list = field(default_factory=list)
    val_mious: list = field(default_factory=list)


@dataclass
class FilterReport:
    scores: list  # ErrorScore per sample, original order
    threshold: float
    kept_ids: list
    dropped_ids: list


class Model:
    def __init__(self, config: ModelConfig, params: dict, dtype=np.float32,
                 csec_params: Optional[dict] = None, csec_config: CsecConfig = CsecConfig()):
        if config.use_csec != (csec_params is not None):
            raise ConfigInvalidError(f"use_csec is {config.use_csec} but CSEC parameters are "
                                     f"{'missing' if csec_params is None else 'given'}")
        self.config = config
        self.params = params
        self.dtype = dtype
        self.csec_params = csec_params
        self.csec_config = csec_config

    def forward(self, images) -> Tensor:
        """images [N,3,H,W] -> pixel logits [N,K,H,W]: the patch logits,
        each repeated over its patch's p x p pixels."""
        return upsample_nearest(self.patch_logits(images), self.config.patch_size)

    def patch_logits(self, images) -> Tensor:
        """images [N,3,H,W], H and W positive multiples of p -> logits [N,K,H/p,W/p]."""
        cfg = self.config
        p = cfg.patch_size
        arr = np.asarray(images, dtype=self.dtype)
        if arr.ndim != 4 or arr.shape[1] != 3:
            raise ShapeMismatchError(f"expected [N,3,H,W] with H and W positive multiples of "
                                     f"patch_size {p}, got {arr.shape}")
        n, _, h, w = arr.shape
        _check_extent(cfg, h, w)
        if cfg.use_csec:
            # frozen preprocessing: corrected pixels, no gradient into CSEC
            with no_grad():
                arr = csec_correct(Tensor(arr), self.csec_params, self.csec_config).data
        hp, wp = h // p, w // p
        patches = (arr.reshape(n, 3, hp, p, wp, p)
                   .transpose(0, 2, 4, 1, 3, 5)
                   .reshape(n, hp * wp, 3 * p * p))
        x = linear(Tensor(patches), self.params["embed.w"], self.params["embed.b"])  # [N,T,d]
        for i in range(cfg.n_blocks):
            x = self._mlp(i, self._attention(i, x, (hp, wp)))
        logits = linear(x, self.params["head.w"], self.params["head.b"])  # [N,T,K]
        return reshape(permute(logits, (0, 2, 1)), (n, cfg.n_classes, hp, wp))

    def _attention(self, i, x, grid):
        """x plus multi-head attention over the tokens of the (rows, cols)
        patch grid, with all heads in one product: wqkv's columns are the q
        heads, then the k heads, then the v heads.  Odd blocks shift their
        windows by half a window."""
        pr = self.params
        cfg = self.config
        h = layer_norm(x, pr[f"b{i}.ln1.g"], pr[f"b{i}.ln1.b"])
        heads = rope.rope_attention(matmul(h, pr[f"b{i}.wqkv"]), grid, cfg.n_heads,
                                    window=cfg.window, shift=cfg.window // 2 if i % 2 else 0,
                                    rope=cfg.use_rope)
        return linear(heads, pr[f"b{i}.attn.wo"], residual=x)

    def _mlp(self, i, x):
        """x plus the MLP of block i."""
        pr = self.params
        h = layer_norm(x, pr[f"b{i}.ln2.g"], pr[f"b{i}.ln2.b"])
        h = linear(h, pr[f"b{i}.mlp.w1"], pr[f"b{i}.mlp.b1"], relu=True)
        return linear(h, pr[f"b{i}.mlp.w2"], pr[f"b{i}.mlp.b2"], residual=x)


def _check_extent(config: ModelConfig, h, w):
    """Raise ShapeMismatchError unless config's model takes h x w images:
    positive multiples of patch_size, with use_csec of an extent the
    corrector takes, and whose patch grid the window tiles."""
    p, win = config.patch_size, config.window
    if h < p or w < p or h % p or w % p:
        raise ShapeMismatchError(f"H and W must be positive multiples of patch_size {p}, "
                                 f"got {h}x{w}")
    if config.use_csec:
        check_extents(h, w)
    if win and ((h // p) % win or (w // p) % win):
        raise ShapeMismatchError(f"window {win} does not tile the {h // p}x{w // p} patch grid")


def fuse_qkv(heads) -> np.ndarray:
    """Pack per-head (wq, wk, wv) matrices, each [d, dh], into one [d, 3d]
    matrix whose columns are the q heads, then the k heads, then the v heads."""
    return np.concatenate([hd[j] for j in range(3) for hd in heads], axis=1)


def param_shapes(config: ModelConfig) -> dict:
    """Name -> shape of each parameter of config's model, in build_model's order."""
    d, p, k = config.embed_dim, config.patch_size, config.n_classes
    shapes = {"embed.w": (3 * p * p, d), "embed.b": (d,)}
    for i in range(config.n_blocks):
        shapes.update({f"b{i}.ln1.g": (d,), f"b{i}.ln1.b": (d,), f"b{i}.wqkv": (d, 3 * d),
                       f"b{i}.attn.wo": (d, d), f"b{i}.ln2.g": (d,), f"b{i}.ln2.b": (d,),
                       f"b{i}.mlp.w1": (d, 2 * d), f"b{i}.mlp.b1": (2 * d,),
                       f"b{i}.mlp.w2": (2 * d, d), f"b{i}.mlp.b2": (d,)})
    shapes.update({"head.w": (d, k), "head.b": (k,)})
    return shapes


def build_model(config: ModelConfig, dtype=np.float32, csec_params: Optional[dict] = None,
                csec_config: CsecConfig = CsecConfig()) -> Model:
    """Deterministically initialize a model from config; with use_csec and no
    csec_params, its corrector is the identity-initialized one of csec_config."""
    if config.use_csec and csec_params is None:
        csec_params = init_csec(csec_config, seed=config.seed, dtype=dtype)
    rng = SplitMix64(config.seed)
    d, dh = config.embed_dim, config.embed_dim // config.n_heads
    params = {}
    for name, shape in param_shapes(config).items():
        if name.endswith(".wqkv"):  # drawn per head, q, k, v each, as older checkpoints hold it
            value = fuse_qkv([[fan_in_uniform(rng, (d, dh), d, dtype) for _ in range(3)]
                              for _ in range(config.n_heads)])
        elif len(shape) == 2:
            value = fan_in_uniform(rng, shape, shape[0], dtype)
        else:  # layer-norm gains 1, biases 0
            value = np.full(shape, float(name.endswith(".g")), dtype)
        params[name] = Tensor(value, requires_grad=True)
    return Model(config, params, dtype=dtype, csec_params=csec_params, csec_config=csec_config)


def _stack(pairs):
    """(image [1,3,H,W], mask [H,W]) pairs -> images [N,3,H,W], masks [N,H,W]."""
    return (np.concatenate([image for image, _ in pairs]),
            np.stack([mask for _, mask in pairs]))


def _predict_masks(model: Model, images) -> np.ndarray:
    """Argmax masks [N,H,W] of images [N,3,H,W], _CHUNK images per forward,
    recording no graph; an empty set forwards once, for the model to reject
    it.

    The pixel logits repeat each patch's logits over its p x p pixels, so
    the argmax of the patch logits, repeated p times along both axes, is
    np.argmax over the pixel logits, ties included."""
    p = model.config.patch_size
    with no_grad():
        logits = (model.patch_logits(images[i:i + _CHUNK]).data
                  for i in range(0, max(len(images), 1), _CHUNK))
        grid = np.concatenate([np.argmax(z, axis=1) for z in logits])
    return grid.repeat(p, axis=1).repeat(p, axis=2)


def predict(model: Model, image) -> np.ndarray:
    """Per-pixel argmax mask [H,W] of one image [1,3,H,W]; ties break toward
    the lower class index.  A batch of more than one image is refused before
    any forward."""
    image = np.asarray(image)
    if image.ndim == 4 and len(image) > 1:
        raise ShapeMismatchError(f"predict takes one image, got a batch of {len(image)}")
    return _predict_masks(model, image)[0]


def evaluate_miou(model: Model, pairs) -> float:
    images, masks = _stack(pairs)
    cm = ConfusionMatrix(model.config.n_classes)
    return miou(cm.update(_predict_masks(model, images), masks))


def train(model: Model, dataset, config: TrainConfig, val_pairs=None) -> TrainReport:
    """Optimize cross-entropy over (image [1,3,H,W], mask [H,W]) pairs.

    Each optimizer step runs one forward over a batch of up to batch_size
    samples.  Its loss is the mean over the batch of each sample's own mean
    over its kept pixels: the valid ones, and when config.denoise has mode
    truncate_pixels only those whose loss is at most the batch's
    config.denoise.quantile quantile.  Mode drop_samples needs a second
    round on a filtered set, which train_with_denoise runs.
    """
    dn = config.denoise
    if dn is not None and dn.mode == "drop_samples":
        raise ConfigInvalidError("train does not drop samples; mode drop_samples "
                                 "runs through train_with_denoise")
    for what, pairs in (("training", dataset), ("val", val_pairs or [])):
        hw = np.shape(pairs[0][1]) if len(pairs) else ()  # each set has its first mask's extent
        for i, (image, mask) in enumerate(pairs):
            if len(hw) != 2 or np.shape(image) != (1, 3) + hw or np.shape(mask) != hw:
                raise ShapeMismatchError(f"{what} pair {i}: {np.shape(image)}, "
                                         f"{np.shape(mask)} vs its set's first mask {hw}")
    opt = Adam(model.params, lr=config.learning_rate, beta1=config.beta1,
               beta2=config.beta2, eps=config.eps)
    truncate = dn.quantile if dn is not None and dn.mode == "truncate_pixels" else None
    report = TrainReport()

    def batch_loss(batch):
        images, masks = _stack([dataset[j] for j in batch])
        return cross_entropy(model.forward(images), masks, truncate=truncate)

    for loss in fit(opt, len(dataset), batch_loss, config.epochs, config.batch_size,
                    config.seed):
        report.losses.append(loss)
        if val_pairs:
            report.val_mious.append(evaluate_miou(model, val_pairs))
    return report


def score_samples(model: Model, samples):
    """Pixel-wise error rate of the model on every (id, image, mask) sample."""
    images, masks = _stack([(image, mask) for _, image, mask in samples])
    return [ErrorScore(sample_id=sid, error_rate=pixel_error_rate(pred, mask))
            for (sid, _, _), pred, mask in zip(samples, _predict_masks(model, images), masks)]


def train_with_denoise(model: Model, samples, config: TrainConfig, val_pairs=None):
    """Train the freshly built model by the denoising loop of
    config.denoise.mode, or in one plain round when config.denoise is None.

    drop_samples: train model -> score -> filter -> retrain a fresh model
    built from model's config, dtype and CSEC on the kept samples; both
    rounds train with config less its denoise entry.  truncate_pixels:
    train model once with the truncated loss, then score it; nothing is
    dropped and the report's threshold is nan.  No denoising: train model
    once on all samples; nothing is scored.

    samples: list of (sample_id, image [1,3,H,W], mask [H,W]); pixels
    labelled ``metrics.IGNORE`` are neither scored nor trained on.
    Returns (final model, its TrainReport, FilterReport, or None without
    denoising).  A round that diverges raises TrainingDivergedError naming
    the round and the failing batch's sample ids.
    """
    dn = config.denoise
    if dn is None or dn.mode == "truncate_pixels":
        report = _train_round(model, samples, config, val_pairs,
                              f"round 1 of 1, on all {len(samples)} samples")
        if dn is None:
            return model, report, None
        scores = score_samples(model, samples)
        return model, report, FilterReport(scores=scores, threshold=float("nan"),
                                           kept_ids=[s.sample_id for s in scores],
                                           dropped_ids=[])

    plain = replace(config, denoise=None)
    _train_round(model, samples, plain, None, f"round 1 of 2, on all {len(samples)} samples")
    scores = score_samples(model, samples)
    kept_ids = [s.sample_id for s in filter_dataset(scores, dn)]
    kept_set = set(kept_ids)
    freport = FilterReport(
        scores=scores,
        threshold=quantile_threshold([s.error_rate for s in scores], dn.quantile),
        kept_ids=kept_ids,
        dropped_ids=[s.sample_id for s in scores if s.sample_id not in kept_set])
    model2 = build_model(model.config, dtype=model.dtype, csec_params=model.csec_params,
                         csec_config=model.csec_config)
    report2 = _train_round(model2, [s for s in samples if s[0] in kept_set], plain, val_pairs,
                           f"round 2 of 2, retraining on the {len(kept_ids)} kept samples")
    return model2, report2, freport


def _train_round(model, samples, config, val_pairs, what):
    """train on the (id, image, mask) samples; a divergence names the round
    (``what``) and the batch's sample ids."""
    try:
        return train(model, [(img, mask) for _, img, mask in samples], config,
                     val_pairs=val_pairs)
    except TrainingDivergedError as exc:
        ids = [samples[j][0] for j in exc.samples]
        raise TrainingDivergedError(f"{what}: {exc}; sample ids {ids}", exc.samples) from exc
