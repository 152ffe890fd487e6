"""Unit tests for the toy segmentation model and training pipeline."""

import platform
import resource
from dataclasses import replace

import numpy as np
import pytest

from segkit.checkpoint import load_checkpoint, save_checkpoint
from segkit.csec import CsecConfig, init_csec
from segkit.denoise import DenoiseConfig, pixel_error_rate
from segkit.errors import (
    ConfigInvalidError,
    MalformedFileError,
    SegkitError,
    ShapeMismatchError,
    TrainingDivergedError,
)
from segkit.dataio import SynthSpec, generate_sample
from segkit.metrics import IGNORE, ConfusionMatrix, miou
from segkit.optim import Adam, _step
from segkit.rng import SplitMix64
from segkit import rope, segnet, tensor
from segkit.rope import axial_angles, freq_table
from segkit.segnet import (
    Model,
    ModelConfig,
    TrainConfig,
    _predict_masks,
    _stack,
    build_model,
    evaluate_miou,
    predict,
    score_samples,
    train,
    train_with_denoise,
)
from segkit.tensor import (
    Tensor,
    add,
    cross_entropy,
    layer_norm,
    linear,
    matmul,
    no_grad,
    scale,
)

from pairwise_rotation import rotate_pairs_reference

SMALL = dict(patch_size=4, embed_dim=16, n_blocks=1, n_heads=2, n_classes=3)


def _dataset(seed, n, spec=None):
    spec = spec or SynthSpec(seed=0, image_size=(16, 16), n_classes=3)
    rng = SplitMix64(seed)
    out = []
    for _ in range(n):
        img, mask, _ = generate_sample(rng.next_u64(), spec)
        out.append((img[None], mask))
    return out


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigInvalidError):
            ModelConfig(embed_dim=30, n_heads=4)
        with pytest.raises(ConfigInvalidError):
            ModelConfig(n_blocks=0)
        ModelConfig()

    @pytest.mark.parametrize("bad", [dict(patch_size=0), dict(patch_size=-4), dict(n_heads=0),
                                     dict(window=-1)],
                             ids=["patch_size=0", "patch_size=-4", "n_heads=0", "window=-1"])
    def test_validation_rejects_before_dividing(self, bad):
        # rejected before the checks divide by patch_size or n_heads
        with pytest.raises(ConfigInvalidError):
            ModelConfig(**bad)
        with pytest.raises(ConfigInvalidError):
            build_model(ModelConfig(**bad))

    # each would build a model whose forward cannot run: the heads have no
    # width (an input the forward cannot take is refused by TestInputExtent)
    @pytest.mark.parametrize("bad", [dict(embed_dim=-16), dict(embed_dim=0)],
                             ids=["embed_dim=-16", "embed_dim=0"])
    def test_a_model_that_cannot_run_its_forward_is_refused(self, bad):
        with pytest.raises(ConfigInvalidError):
            ModelConfig(**bad)

    def test_seed_is_one_that_a_checkpoint_holds_exactly(self):
        # SMK1 stores config values as f32, exact for every integer up to 2**24
        for seed in (2 ** 24, -2 ** 24):
            ModelConfig(seed=seed)
        for seed in (2 ** 24 + 1, -2 ** 24 - 1):
            with pytest.raises(ConfigInvalidError, match="seed"):
                ModelConfig(seed=seed)

    def test_window_tiles_the_patch_grid(self):
        # each window tiles the 12x12 grid of a 48x48 image; 0 is global
        img = SplitMix64(1).uniform_array((1, 3, 48, 48), 0, 1)
        for window in (0, 1, 2, 3, 4, 6, 12):
            assert build_model(ModelConfig(window=window)).patch_logits(img).data.shape == \
                (1, 3, 12, 12)
        img = SplitMix64(1).uniform_array((1, 3, 16, 32), 0, 1)
        assert build_model(ModelConfig(window=4)).patch_logits(img).data.shape == (1, 3, 4, 8)

    def test_val_pairs_of_another_size_are_refused(self):
        # as training pairs are, before numpy's concatenation would fail
        val = _dataset(2, 2)
        val[1] = (np.zeros((1, 3, 20, 20), np.float32), np.zeros((20, 20), np.int64))
        with pytest.raises(ShapeMismatchError, match="val pair 1"):
            train(build_model(ModelConfig(**SMALL)), _dataset(1, 2), TrainConfig(epochs=1),
                  val_pairs=val)

    @pytest.mark.parametrize("bad", [dict(epochs=0), dict(batch_size=0), dict(batch_size=-1),
                                     dict(learning_rate=-1.0), dict(learning_rate=0.0),
                                     dict(learning_rate=float("nan")),
                                     dict(learning_rate=float("inf")), dict(beta1=1.5),
                                     dict(beta1=-0.1), dict(beta1=1.0), dict(beta2=1.0),
                                     dict(eps=0.0), dict(eps=float("nan"))],
                             ids=["epochs=0", "batch_size=0", "batch_size=-1",
                                  "learning_rate=-1", "learning_rate=0", "learning_rate=nan",
                                  "learning_rate=inf", "beta1=1.5", "beta1=-0.1", "beta1=1",
                                  "beta2=1", "eps=0", "eps=nan"])
    def test_train_config_validation(self, bad):
        with pytest.raises(ConfigInvalidError):
            TrainConfig(**bad)
        with pytest.raises(ConfigInvalidError):
            train(build_model(ModelConfig(**SMALL)), _dataset(1, 2), TrainConfig(**bad))


def _per_head_forward(model, img):
    """One image through the model with every head computed on its own, as
    the model did before the heads were fused (the reference layout)."""
    cfg, pr = model.config, model.params
    d, p = cfg.embed_dim, cfg.patch_size
    dh = d // cfg.n_heads
    hp, wp = img.shape[2] // p, img.shape[3] // p
    patches = img[0].reshape(3, hp, p, wp, p).transpose(1, 3, 0, 2, 4).reshape(hp * wp, -1)
    x = linear(Tensor(patches), pr["embed.w"], pr["embed.b"])
    for i in range(cfg.n_blocks):
        h = layer_norm(x, pr[f"b{i}.ln1.g"], pr[f"b{i}.ln1.b"])
        wqkv = pr[f"b{i}.wqkv"].data
        outs = []
        for hd in range(cfg.n_heads):
            q, k, v = (matmul(h, Tensor(wqkv[:, j * d + hd * dh:j * d + (hd + 1) * dh]))
                       for j in range(3))
            if cfg.use_rope:
                theta = axial_angles(np.argwhere(np.ones((hp, wp))), freq_table(dh))
                cos, sin = np.cos(theta), np.sin(theta)
                q, k = (Tensor(rotate_pairs_reference(a.data, cos, sin)) for a in (q, k))
            s = scale(matmul(q, k.T), dh ** -0.5).data
            e = np.exp(s - s.max(axis=1, keepdims=True))
            outs.append((e / e.sum(axis=1, keepdims=True)) @ v.data)
        heads = Tensor(np.concatenate(outs, -1))
        x = add(x, matmul(heads, pr[f"b{i}.attn.wo"]))
        x = model._mlp(i, x)
    logits = linear(x, pr["head.w"], pr["head.b"]).data
    return logits.T.reshape(1, -1, hp, wp).repeat(p, axis=2).repeat(p, axis=3)


class TestFusedHeads:
    def test_wqkv_packs_the_per_head_draws(self):
        # the stream is drawn head by head (q, k, v each), so the initial
        # weights equal those of the per-head layout bit for bit
        cfg = ModelConfig(**dict(SMALL, n_blocks=2), seed=5)
        model = build_model(cfg)
        rng = SplitMix64(5)
        d, p = cfg.embed_dim, cfg.patch_size
        dh = d // cfg.n_heads

        def draw(shape, fan_in):
            limit = float(np.sqrt(3.0 / fan_in))
            return rng.uniform_array(shape, -limit, limit).astype(np.float32)

        assert np.array_equal(model.params["embed.w"].data, draw((3 * p * p, d), 3 * p * p))
        for i in range(cfg.n_blocks):
            wqkv = model.params[f"b{i}.wqkv"].data
            assert wqkv.shape == (d, 3 * d)
            for hd in range(cfg.n_heads):
                for j in range(3):
                    cols = slice(j * d + hd * dh, j * d + (hd + 1) * dh)
                    assert np.array_equal(wqkv[:, cols], draw((d, dh), d))
            assert np.array_equal(model.params[f"b{i}.attn.wo"].data, draw((d, d), d))
            assert np.array_equal(model.params[f"b{i}.mlp.w1"].data, draw((d, 2 * d), d))
            assert np.array_equal(model.params[f"b{i}.mlp.w2"].data, draw((2 * d, d), 2 * d))
        assert np.array_equal(model.params["head.w"].data, draw((d, cfg.n_classes), d))

    def test_fused_forward_matches_per_head_reference(self):
        imgs = SplitMix64(4).uniform_array((3, 3, 16, 16), 0, 1)
        for rope in (True, False):
            model = build_model(ModelConfig(**dict(SMALL, n_blocks=2), use_rope=rope, seed=2),
                                dtype=np.float64)
            fused = model.forward(imgs).data
            for j in range(3):
                ref = _per_head_forward(model, imgs[j:j + 1])
                assert np.max(np.abs(fused[j:j + 1] - ref)) < 1e-10

    def test_batched_loss_is_mean_of_per_sample_losses(self):
        model = build_model(ModelConfig(**SMALL, seed=6), dtype=np.float64)
        pairs = _dataset(12, 3)
        masks = [np.full((16, 16), -1), pairs[1][1].copy(), pairs[2][1]]
        masks[1][:5] = -1
        pairs = [(img, m) for (img, _), m in zip(pairs, masks)]
        # ceil(0.999 * N) = N for the batch's N < 1000 valid pixels and for
        # every sample's own: truncation keeps every pixel, batched or not
        truncate = 0.999

        def batch_loss(batch):  # segnet.train's
            images, masks = _stack([pairs[j] for j in batch])
            return cross_entropy(model.forward(images), masks, truncate=truncate)

        # the shared training step; at lr 0 Adam leaves every parameter's value
        mean = _step(Adam(model.params, lr=0.0), batch_loss, [0, 1, 2])
        batched = {k: p.grad.copy() for k, p in model.params.items()}
        for p in model.params.values():
            p.zero_grad()
        losses = []
        for img, mask in pairs:
            loss = cross_entropy(model.forward(img), mask[None], truncate=truncate)
            scale(loss, 1.0 / len(pairs)).backward()
            losses.append(float(loss.data))
        assert losses[0] == 0.0
        assert np.allclose(mean, np.mean(losses), rtol=0, atol=1e-6)
        for k, p in model.params.items():
            assert np.allclose(batched[k], p.grad, rtol=0, atol=1e-6), k


class TestForward:
    def test_shape_contract(self):
        model = build_model(ModelConfig(**SMALL))
        img = SplitMix64(1).uniform_array((1, 3, 16, 16), 0, 1).astype(np.float32)
        logits = model.forward(img)
        assert logits.data.shape == (1, 3, 16, 16)
        mask = predict(model, img)
        assert mask.shape == (16, 16)
        assert mask.min() >= 0 and mask.max() < 3

    def test_batch_contract(self):
        model = build_model(ModelConfig(**SMALL))
        imgs = SplitMix64(1).uniform_array((3, 3, 16, 16), 0, 1).astype(np.float32)
        assert model.forward(imgs).data.shape == (3, 3, 16, 16)
        with pytest.raises(ShapeMismatchError):
            model.forward(imgs[0])
        with pytest.raises(ShapeMismatchError):
            predict(model, imgs)

    def test_csec_batch_matches_single_image_forwards(self):
        csec = init_csec(CsecConfig(), seed=2, identity=False)
        model = build_model(ModelConfig(**SMALL, use_csec=True), csec_params=csec)
        imgs = SplitMix64(3).uniform_array((3, 3, 16, 16), 0, 1).astype(np.float32)
        batched = model.forward(imgs).data
        for n in range(3):
            single = model.forward(imgs[n:n + 1]).data
            assert np.max(np.abs(batched[n:n + 1] - single)) <= 1e-6

    def test_csec_is_on_exactly_with_use_csec(self):
        cfg = ModelConfig(**SMALL, use_csec=True, seed=5)
        model = build_model(cfg)
        identity = init_csec(CsecConfig(), seed=5)
        assert set(model.csec_params) == set(identity)
        for k, p in identity.items():
            assert np.array_equal(model.csec_params[k].data, p.data), k
        with pytest.raises(ConfigInvalidError, match="use_csec"):
            build_model(ModelConfig(**SMALL), csec_params=identity)
        with pytest.raises(ConfigInvalidError, match="use_csec"):
            Model(cfg, model.params)

    def test_argmax_tie_breaks_low(self):
        # predict uses argmax, which resolves ties toward the lower index
        assert int(np.argmax(np.zeros(3))) == 0

    def test_window_covering_the_grid_equals_global_bitwise(self):
        # SMALL's 4x4 patch grid: window 4 is one tile, and block 1's shift
        # applies only along an axis longer than the window
        img = SplitMix64(2).uniform_array((2, 3, 16, 16), 0, 1).astype(np.float32)
        for rope_on in (True, False):
            outs = [build_model(ModelConfig(**dict(SMALL, n_blocks=2), use_rope=rope_on,
                                            window=w)).forward(img).data for w in (0, 4)]
            assert np.array_equal(outs[0], outs[1])

    def test_windows_change_the_output(self):
        img = SplitMix64(2).uniform_array((1, 3, 16, 16), 0, 1).astype(np.float32)
        outs = [build_model(ModelConfig(**dict(SMALL, n_blocks=2), window=w)).forward(img).data
                for w in (0, 2)]
        assert not np.array_equal(outs[0], outs[1])

    @pytest.mark.parametrize("n_blocks", [1, 2, 3])
    def test_forward_attends_only_through_rope_attention(self, monkeypatch, n_blocks):
        # perfbench times attention by wrapping the module attribute
        # rope.rope_attention; a forward that bypassed it would go unmeasured
        calls = []
        inner = rope.rope_attention

        def counted(*args, **kwargs):
            calls.append(kwargs["shift"])
            return inner(*args, **kwargs)

        monkeypatch.setattr(rope, "rope_attention", counted)
        model = build_model(ModelConfig(**dict(SMALL, n_blocks=n_blocks), window=2))
        model.forward(SplitMix64(2).uniform_array((1, 3, 16, 16), 0, 1))
        assert calls == [0, 1, 0][:n_blocks]  # odd blocks shift by half a window

    def test_rope_toggle_changes_output(self):
        img = SplitMix64(2).uniform_array((1, 3, 16, 16), 0, 1).astype(np.float32)
        on = build_model(ModelConfig(**SMALL, use_rope=True)).forward(img).data
        off = build_model(ModelConfig(**SMALL, use_rope=False)).forward(img).data
        assert not np.array_equal(on, off)


class TestInputExtent:
    """A model reads its patch grid from each input.  An input it cannot
    take is refused with a ShapeMismatchError at the first forward: one
    that patches do not tile, a grid its window does not tile, and an
    image its corrector cannot take."""

    @pytest.mark.parametrize("h, w", [(16, 16), (16, 32), (32, 16), (48, 48)])
    def test_one_model_takes_every_extent_its_window_tiles(self, h, w):
        # window 4 tiles the 4x4, 4x8, 8x4 and 12x12 patch grids alike
        model = build_model(ModelConfig(**SMALL))
        imgs = SplitMix64(1).uniform_array((2, 3, h, w), 0, 1)
        assert model.forward(imgs).data.shape == (2, 3, h, w)
        assert np.array_equal(_predict_masks(model, imgs),
                              np.stack([predict(model, imgs[n:n + 1]) for n in range(2)]))

    # 50x50 and 4x6 leave part of a patch over; 2x16 is below one patch, as
    # a negative extent is; 0x0 and 0x16 hold no patch
    @pytest.mark.parametrize("shape", [(1, 3, 50, 50), (1, 3, 4, 6), (1, 3, 2, 16), (1, 3, 0, 0),
                                       (1, 3, 0, 16), (1, 1, 16, 16), (3, 16, 16)],
                             ids=["50x50", "4x6", "2x16", "0x0", "0x16", "one-channel",
                                  "no-batch-axis"])
    def test_input_that_patches_do_not_tile_is_refused(self, shape):
        model = build_model(ModelConfig(**SMALL))
        with pytest.raises(ShapeMismatchError, match="multiples of patch_size 4"):
            model.patch_logits(np.zeros(shape, np.float32))

    @pytest.mark.parametrize("window, h, w", [(5, 48, 48), (4, 48, 40), (3, 16, 16)],
                             ids=["window=5-on-12x12", "window=4-on-12x10", "window=3-on-4x4"])
    def test_window_that_does_not_tile_the_grid_is_refused_at_the_first_forward(self, window,
                                                                                  h, w):
        model = build_model(ModelConfig(window=window))
        with pytest.raises(ShapeMismatchError, match=f"window {window} does not tile"):
            model.forward(SplitMix64(1).uniform_array((1, 3, h, w), 0, 1))

    @pytest.mark.parametrize("cfg, h, w", [(dict(), 80, 80), (dict(), 72, 72),
                                           (dict(patch_size=5, window=0), 20, 30)],
                             ids=["csec-at-80x80", "csec-at-72x72", "csec-at-20x30"])
    def test_image_the_corrector_cannot_take_is_refused_at_the_first_forward(self, cfg, h, w):
        model = build_model(ModelConfig(**cfg, use_csec=True))
        with pytest.raises(ShapeMismatchError, match="color correction"):
            model.forward(SplitMix64(1).uniform_array((1, 3, h, w), 0, 1))


class TestBatchedPrediction:
    """Validation, scoring and eval forward _CHUNK images at a time; their
    masks must be the per-image predict masks, bit for bit."""

    @staticmethod
    def _model(images, use_csec=False):
        """A model whose masks differ from image to image: its head bias is
        centred on the images' mean logits, which an untrained model's one
        dominant class would otherwise swamp."""
        csec = init_csec(CsecConfig(), seed=2, identity=False) if use_csec else None
        model = build_model(ModelConfig(**SMALL, use_csec=use_csec, seed=3), csec_params=csec)
        model.params["head.b"].data -= model.forward(images).data.mean(axis=(0, 2, 3))
        return model

    @pytest.mark.parametrize("use_csec", [False, True])
    def test_masks_equal_per_image_predict(self, use_csec):
        imgs = SplitMix64(4).uniform_array((7, 3, 16, 16), 0, 1).astype(np.float32)
        model = self._model(imgs, use_csec)
        masks = _predict_masks(model, imgs)
        assert masks.shape == (7, 16, 16)
        assert len({m.tobytes() for m in masks}) == 7
        assert np.array_equal(masks, np.stack([predict(model, imgs[n:n + 1])
                                               for n in range(7)]))

    def test_scores_and_miou_equal_per_image_reference(self):
        data = _dataset(13, 7)
        data[2][1][:6] = -1
        model = self._model(np.concatenate([img for img, _ in data]))
        preds = [predict(model, img) for img, _ in data]
        scores = score_samples(model, [(f"s{i}", img, mask) for i, (img, mask) in enumerate(data)])
        assert [s.sample_id for s in scores] == [f"s{i}" for i in range(7)]
        assert [s.error_rate for s in scores] == [pixel_error_rate(p, mask)
                                                  for p, (_, mask) in zip(preds, data)]
        assert len({s.error_rate for s in scores}) > 1
        cm = ConfusionMatrix(3)
        for p, (_, mask) in zip(preds, data):
            cm.update(p, mask)
        assert evaluate_miou(model, data) == miou(cm)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("size,window", [(32, 4), (48, 4), (48, 0), (16, 2)])
    def test_patch_logits_do_not_depend_on_the_chunk(self, size, window, dtype):
        # 32x32 with window 4 softmaxes 256 query rows at N = 1 and 1,024 at N = 4
        imgs = SplitMix64(8).uniform_array((9, 3, size, size), 0, 1).astype(dtype)
        model = build_model(ModelConfig(window=window, seed=5), dtype=dtype)
        with no_grad():
            whole = model.patch_logits(imgs).data
            for chunk in (1, 2, 4):
                parts = [model.patch_logits(imgs[i:i + chunk]).data for i in range(0, 9, chunk)]
                assert np.concatenate(parts).tobytes() == whole.tobytes(), chunk

    @pytest.mark.parametrize("window,use_csec", [(0, False), (4, False), (4, True)])
    def test_no_grad_forward_equals_graph_forward(self, window, use_csec):
        imgs = SplitMix64(6).uniform_array((3, 3, 48, 48), 0, 1).astype(np.float32)
        csec = init_csec(CsecConfig(), seed=2, identity=False) if use_csec else None
        model = build_model(ModelConfig(window=window, use_csec=use_csec, seed=4),
                            csec_params=csec)
        graph = model.forward(imgs)
        assert graph.requires_grad and graph._parents
        with no_grad():
            free = model.forward(imgs)
        assert not free.requires_grad and free._parents == () and free._backward_fn is None
        assert free.data.tobytes() == graph.data.tobytes()

    @pytest.mark.parametrize("use_csec", [False, True])
    def test_masks_equal_argmax_of_pixel_logits(self, use_csec):
        imgs = SplitMix64(7).uniform_array((6, 3, 16, 16), 0, 1).astype(np.float32)
        model = self._model(imgs, use_csec)
        want = np.argmax(model.forward(imgs).data, axis=1)
        got = _predict_masks(model, imgs)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        # an all-tie head: every class's logit is 0 everywhere, and every
        # pixel goes to class 0, as np.argmax breaks ties
        model.params["head.w"].data[:] = 0
        model.params["head.b"].data[:] = 0
        assert not _predict_masks(model, imgs).any()

    @pytest.mark.parametrize("patch_size", [4, 8])
    def test_patch_logit_masks_equal_pixel_logit_argmax(self, patch_size):
        # prediction argmaxes the patch logits, forward upsamples them
        imgs = SplitMix64(8).uniform_array((5, 3, 32, 32), 0, 1).astype(np.float32)
        cfg = ModelConfig(**dict(SMALL, patch_size=patch_size, seed=5))
        model = build_model(cfg)
        model.params["head.b"].data -= model.forward(imgs).data.mean(axis=(0, 2, 3))
        pixel = model.forward(imgs).data
        patch = model.patch_logits(imgs).data
        assert patch.shape == (5, 3, 32 // patch_size, 32 // patch_size)
        assert np.array_equal(pixel, patch.repeat(patch_size, axis=2).repeat(patch_size, axis=3))
        masks = _predict_masks(model, imgs)
        assert len(np.unique(masks)) > 1
        assert np.array_equal(masks, np.argmax(pixel, axis=1))

    @pytest.mark.parametrize("use_csec", [False, True])
    def test_chunks_give_the_per_image_masks(self, monkeypatch, use_csec):
        # 9 images are 3 chunks, the last one partial
        data = _dataset(14, 9)
        images = np.concatenate([img for img, _ in data])
        model = self._model(images, use_csec)
        preds = [predict(model, img) for img, _ in data]
        assert len({p.tobytes() for p in preds}) > 1
        chunks, forward = [], model.patch_logits

        def spy(chunk):
            chunks.append(len(chunk))
            return forward(chunk)

        monkeypatch.setattr(model, "patch_logits", spy)
        assert _predict_masks(model, images).tobytes() == np.stack(preds).tobytes()
        assert chunks == [4, 4, 1]
        scores = score_samples(model, [(f"s{i}", img, mask) for i, (img, mask) in enumerate(data)])
        assert [s.error_rate for s in scores] == [pixel_error_rate(p, mask)
                                                  for p, (_, mask) in zip(preds, data)]
        cm = ConfusionMatrix(3)
        for p, (_, mask) in zip(preds, data):
            cm.update(p, mask)
        assert evaluate_miou(model, data) == miou(cm)
        assert tensor._grad_enabled
        assert model.forward(images[:1])._parents

    @pytest.mark.parametrize("n, use_csec, sizes", [
        (1, False, [1]), (3, True, [3]), (4, False, [4]), (5, True, [4, 1]), (8, True, [4, 4])],
        ids=["1", "3-csec", "4", "5-csec", "8-csec"])
    def test_each_chunk_is_forwarded_once_recording_no_graph(self, monkeypatch, n, use_csec,
                                                             sizes):
        # fewer images than a chunk, one chunk exactly, one image over, two
        # chunks exactly; the corrector's own no_grad, left within a chunk,
        # must not turn graph recording back on for the chunks after it
        imgs = SplitMix64(12).uniform_array((n, 3, 16, 16), 0, 1).astype(np.float32)
        model = self._model(imgs, use_csec)
        want = np.stack([predict(model, imgs[i:i + 1]) for i in range(n)])
        chunks, forward = [], model.patch_logits

        def spy(chunk):
            out = forward(chunk)
            chunks.append((len(chunk), out.requires_grad, out._parents))
            return out

        monkeypatch.setattr(model, "patch_logits", spy)
        assert _predict_masks(model, imgs).tobytes() == want.tobytes()
        assert chunks == [(size, False, ()) for size in sizes]
        assert tensor._grad_enabled

    def test_a_failing_later_chunk_raises_as_the_serial_loop_does(self):
        imgs = SplitMix64(9).uniform_array((9, 3, 16, 16), 0, 1).astype(np.float32)
        model = self._model(imgs, use_csec=True)
        # out of range for the corrector in chunks 2 and 3: chunk 2's error
        # surfaces
        imgs[6, 0, 3, 3] = 1.5
        imgs[8, 1, 2, 2] = 2.5
        with pytest.raises(SegkitError, match=r", 1\.5\] are not all finite"):
            _predict_masks(model, imgs)
        assert tensor._grad_enabled
        assert model.forward(imgs[:1])._parents

    def test_empty_batch_is_rejected(self, monkeypatch):
        # a batch of several images is refused before any forward, an empty
        # one by the model's own forward
        model = build_model(ModelConfig(**SMALL))
        chunks, forward = [], model.patch_logits
        monkeypatch.setattr(model, "patch_logits", lambda x: chunks.append(len(x)) or forward(x))
        with pytest.raises(ShapeMismatchError, match="^predict takes one image, got a batch of 3$"):
            predict(model, np.zeros((3, 3, 16, 16), np.float32))
        assert chunks == []
        with pytest.raises(ShapeMismatchError, match="^zero extent in shape"):
            predict(model, np.zeros((0, 3, 16, 16), np.float32))
        assert chunks == [0]

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc heap trimming")
    def test_repeated_forwards_reuse_the_freed_heap(self):
        """Each chunk frees what its forward allocated; the next chunk must
        reuse that memory, not fault it back in after the heap was trimmed.  Unfixed,
        a default-size chunk faulted in about 2300 pages."""
        imgs = SplitMix64(5).uniform_array((8, 3, 48, 48), 0, 1).astype(np.float32)
        model = build_model(ModelConfig())
        _predict_masks(model, imgs)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(3):
            _predict_masks(model, imgs)
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 200


class TestTraining:
    def test_determinism_bitwise(self):
        data = _dataset(5, 4)
        outs = []
        for _ in range(2):
            model = build_model(ModelConfig(**SMALL, seed=3))
            train(model, data, TrainConfig(epochs=1, seed=3))
            outs.append({k: p.data.copy() for k, p in model.params.items()})
        for k in outs[0]:
            assert np.array_equal(outs[0][k], outs[1][k])

    def test_loss_decreases(self):
        data = _dataset(6, 6)
        model = build_model(ModelConfig(**SMALL, seed=0))
        report = train(model, data, TrainConfig(epochs=4, learning_rate=1e-3, seed=0),
                       val_pairs=data)
        assert report.losses[-1] < report.losses[0]
        assert len(report.val_mious) == 4
        assert 0.0 <= evaluate_miou(model, data) <= 1.0

    def test_val_pairs_may_take_another_extent_than_training_pairs(self):
        # each set is checked against its own first pair
        val = _dataset(9, 2, SynthSpec(seed=0, image_size=(32, 32), n_classes=3))
        model = build_model(ModelConfig(**SMALL, seed=0))
        report = train(model, _dataset(6, 2), TrainConfig(epochs=2, seed=0), val_pairs=val)
        assert len(report.val_mious) == 2
        assert report.val_mious[-1] == evaluate_miou(model, val)
        with pytest.raises(ShapeMismatchError, match="training pair 1"):
            train(model, _dataset(6, 1) + val[:1], TrainConfig(epochs=1))

    def test_empty_dataset(self):
        with pytest.raises(ConfigInvalidError, match="^training set is empty$"):
            train(build_model(ModelConfig(**SMALL)), [], TrainConfig(epochs=1))

    def test_divergence_detected(self):
        data = _dataset(7, 2)
        model = build_model(ModelConfig(**SMALL, seed=0))
        with pytest.raises(TrainingDivergedError), np.errstate(all="ignore"):
            train(model, data, TrainConfig(epochs=10, learning_rate=1e20, seed=0))


class TestDenoiseLoop:
    def test_without_denoise_trains_one_plain_round(self):
        data = _dataset(14, 4)
        samples = [(f"s{i}", img, mask) for i, (img, mask) in enumerate(data)]
        mc, tc = ModelConfig(**SMALL, seed=7), TrainConfig(epochs=2, seed=7)
        model, report, freport = train_with_denoise(build_model(mc), samples, tc,
                                                    val_pairs=data[:2])
        assert freport is None
        plain = build_model(mc)
        assert train(plain, data, tc, val_pairs=data[:2]) == report
        for k, p in model.params.items():
            assert np.array_equal(plain.params[k].data, p.data), k

    def test_train_leaves_drop_mode_to_the_denoise_loop(self):
        tc = TrainConfig(epochs=1, denoise=DenoiseConfig(quantile=0.9))
        with pytest.raises(ConfigInvalidError, match="train_with_denoise"):
            train(build_model(ModelConfig(**SMALL)), _dataset(1, 2), tc)

    def test_noop_filter_equals_plain_retrain(self):
        data = _dataset(8, 5)
        samples = [(f"s{i}", img, mask) for i, (img, mask) in enumerate(data)]
        mc = ModelConfig(**SMALL, seed=1)
        tc = TrainConfig(epochs=2, seed=1,
                         denoise=DenoiseConfig(quantile=0.99))
        # ceil(0.99 * 5) = 5, so the threshold is the maximum score and the
        # filter is a no-op; round 2 must match a plain from-scratch run
        model2, report2, freport = train_with_denoise(build_model(mc), samples, tc)
        assert freport.dropped_ids == []
        plain = build_model(mc)
        plain_report = train(plain, data, TrainConfig(epochs=2, seed=1))
        assert report2.losses == plain_report.losses

    def test_drop_mode_drops_and_reports(self):
        data = _dataset(9, 8)
        samples = [(f"s{i}", img, mask) for i, (img, mask) in enumerate(data)]
        mc = ModelConfig(**SMALL, seed=2)
        tc = TrainConfig(epochs=1, seed=2, denoise=DenoiseConfig(quantile=0.6))
        _, _, freport = train_with_denoise(build_model(mc), samples, tc)
        assert set(freport.kept_ids) | set(freport.dropped_ids) == {f"s{i}" for i in range(8)}
        assert len(freport.scores) == 8

    @pytest.mark.parametrize("mode", ["drop_samples", "truncate_pixels"])
    def test_train_ignore_index_is_the_only_ignore_label(self, mode):
        # IGNORE rows must neither be scored nor index the class
        # probabilities of the loss
        data = _dataset(11, 4)
        for _, mask in data:
            mask[:4] = IGNORE
        samples = [(f"s{i}", img, mask) for i, (img, mask) in enumerate(data)]
        tc = TrainConfig(epochs=1, seed=4, denoise=DenoiseConfig(quantile=0.9, mode=mode))
        model, report, freport = train_with_denoise(build_model(ModelConfig(**SMALL, seed=4)),
                                                    samples, tc)
        assert np.isfinite(report.losses[0])
        if mode == "drop_samples":  # round 1 scores: a plain run on every sample
            model = build_model(ModelConfig(**SMALL, seed=4))
            train(model, data, replace(tc, denoise=None))
        # the model never predicts IGNORE, so a scored ignore row would count as
        # errors: each rate is over the 12 valid rows' 192 pixels only
        assert [s.error_rate for s in freport.scores] == [
            np.count_nonzero(predict(model, img)[4:] != mask[4:]) / (12 * 16)
            for img, mask in data]

    @pytest.mark.parametrize("denoise, rounds", [(DenoiseConfig(quantile=0.5), 2), (None, 1)],
                             ids=["drop_samples", "plain"])
    def test_first_round_divergence_names_round_and_sample_ids(self, denoise, rounds):
        data = _dataset(12, 4)
        data[2] = (np.full_like(data[2][0], np.nan), data[2][1])
        samples = [(f"s{i}", img, mask) for i, (img, mask) in enumerate(data)]
        tc = TrainConfig(epochs=1, batch_size=1, seed=5, denoise=denoise)
        with pytest.raises(TrainingDivergedError, match=rf"round 1 of {rounds}, on all 4 samples: "
                                                        r".*sample ids \['s2'\]"), \
                np.errstate(invalid="ignore"):
            train_with_denoise(build_model(ModelConfig(**SMALL)), samples, tc)

    def test_retrain_divergence_names_round_and_kept_sample_ids(self, monkeypatch):
        # only the retrain sees a NaN image, at its third position: the
        # error's batch positions index the kept samples, its ids name them
        samples = [(f"s{i}", img, mask) for i, (img, mask) in enumerate(_dataset(13, 6))]
        real_train, rounds = segnet.train, []

        def train_poisoning_round_2(model, dataset, config, val_pairs=None):
            rounds.append([next(sid for sid, img, _ in samples if img is pair[0])
                           for pair in dataset])
            if len(rounds) == 2:
                dataset = list(dataset)
                dataset[2] = (np.full_like(dataset[2][0], np.nan), dataset[2][1])
            return real_train(model, dataset, config, val_pairs=val_pairs)

        monkeypatch.setattr(segnet, "train", train_poisoning_round_2)
        tc = TrainConfig(epochs=1, batch_size=1, seed=6, denoise=DenoiseConfig(quantile=0.5))
        with pytest.raises(TrainingDivergedError) as err, np.errstate(invalid="ignore"):
            train_with_denoise(build_model(ModelConfig(**SMALL)), samples, tc)
        kept = rounds[1]
        assert len(rounds) == 2 and len(kept) < 6
        assert str(err.value).startswith(
            f"round 2 of 2, retraining on the {len(kept)} kept samples: non-finite")
        assert str(err.value).endswith(f"samples [2]; last finite epoch-mean loss None; "
                                       f"sample ids {[kept[2]]}")

    def test_truncate_mode_runs(self):
        data = _dataset(10, 4)
        samples = [(f"s{i}", img, mask) for i, (img, mask) in enumerate(data)]
        mc = ModelConfig(**SMALL, seed=3)
        tc = TrainConfig(epochs=1, seed=3,
                         denoise=DenoiseConfig(quantile=0.9, mode="truncate_pixels"))
        model, report, freport = train_with_denoise(build_model(mc), samples, tc)
        assert freport.dropped_ids == [] and np.isnan(freport.threshold)
        assert freport.kept_ids == [sid for sid, _, _ in samples]
        assert len(report.losses) == 1
        # one round: the same as train on the full set with the same config,
        # whose loss differs from the untruncated one
        once = build_model(mc)
        assert train(once, data, tc).losses == report.losses
        for k, p in model.params.items():
            assert np.array_equal(once.params[k].data, p.data), k
        assert train(build_model(mc), data, TrainConfig(epochs=1, seed=3)).losses != report.losses


class TestCheckpoint:
    def test_roundtrip_bitwise(self, tmp_path):
        model = build_model(ModelConfig(**SMALL, seed=4))
        path = tmp_path / "m.smk"
        save_checkpoint(path, model.params)
        back = load_checkpoint(path)
        assert set(back) == set(model.params)
        for k, p in model.params.items():
            assert np.array_equal(back[k].data, p.data)
        assert path.read_bytes()[:4] == b"SMK1"

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.smk"
        path.write_bytes(b"NOPE" + bytes(16))
        with pytest.raises(MalformedFileError, match="bad checkpoint magic b'NOPE'$"):
            load_checkpoint(path)

    def test_truncated(self, tmp_path):
        model = build_model(ModelConfig(**SMALL, seed=4))
        path = tmp_path / "m.smk"
        save_checkpoint(path, model.params)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) // 2])
        with pytest.raises(MalformedFileError, match="checkpoint ended early"):
            load_checkpoint(path)
