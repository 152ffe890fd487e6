"""Tests of the shared initializer and training loop (segkit.optim).

The parent loops below are verbatim copies of the two loops ``optim.fit``
replaced, ``segnet.train``'s and ``csec.train_csec``'s: training through
``fit`` must give their bytes.
"""

import weakref

import numpy as np
import pytest

import segkit.csec as csec
from segkit.csec import CsecConfig, csec_correct, init_csec, mse_loss, train_csec
from segkit.dataio import SynthSpec, corrupt_gamma_region, generate_sample
from segkit.denoise import DenoiseConfig
from segkit.errors import ConfigInvalidError, TrainingDivergedError
from segkit.optim import Adam, fit
from segkit.rng import SplitMix64
from segkit.segnet import ModelConfig, TrainConfig, build_model, evaluate_miou, train
from segkit.tensor import Tensor, cross_entropy, scale


def _parent_segnet_train(model, dataset, config, val_pairs):
    """segnet.train's loop and _train_step as they were; (losses, val mIoUs)."""
    opt = Adam(model.params, lr=config.learning_rate, beta1=config.beta1,
               beta2=config.beta2, eps=config.eps)
    dn = config.denoise
    truncate = dn.quantile if dn is not None and dn.mode == "truncate_pixels" else None
    order_rng = SplitMix64(config.seed)
    losses, mious = [], []
    for _ in range(config.epochs):
        idx = list(range(len(dataset)))
        order_rng.shuffle(idx)
        total = 0.0
        for start in range(0, len(idx), config.batch_size):
            batch = idx[start:start + config.batch_size]
            opt.zero_grad()
            pairs = [dataset[j] for j in batch]
            images = np.concatenate([image for image, _ in pairs])
            masks = np.stack([mask for _, mask in pairs])
            loss = cross_entropy(model.forward(images), masks, truncate=truncate)
            lv = float(loss.data)
            assert np.isfinite(lv)
            loss.backward()
            total += lv * len(pairs)
            opt.step()
        losses.append(total / len(idx))
        if val_pairs:
            mious.append(evaluate_miou(model, val_pairs))
    return losses, mious


def _parent_train_csec(pairs, params, config, epochs, lr, seed):
    """csec.train_csec's loop as it was."""
    opt = Adam(params, lr=lr)
    order_rng = SplitMix64(seed)
    losses = []
    for _ in range(epochs):
        idx = list(range(len(pairs)))
        order_rng.shuffle(idx)
        total = 0.0
        for i in idx:
            corrupted, clean = pairs[i]
            out = csec_correct(Tensor(np.asarray(corrupted)), params, config)
            loss = mse_loss(out, clean)
            opt.zero_grad()
            loss.backward()
            opt.step()
            total += float(loss.data)
        losses.append(total / len(pairs))
    return losses


def _scenes(seed, n, size):
    spec = SynthSpec(seed=0, image_size=(size, size), n_classes=3, shapes_min=1, shapes_max=3)
    rng = SplitMix64(seed)
    out = []
    for _ in range(n):
        img, mask, _ = generate_sample(rng.next_u64(), spec)
        out.append((img[None], mask))
    return out


def _gamma_pairs(seed, n, size):
    return [(corrupt_gamma_region(img[0], 424242)[None], img)
            for img, _ in _scenes(seed, n, size)]


def _assert_same_bytes(got, want):
    assert list(got) == list(want)
    for k in want:
        assert got[k].data.dtype == want[k].data.dtype, k
        assert got[k].data.tobytes() == want[k].data.tobytes(), k


TRUNCATE = DenoiseConfig(mode="truncate_pixels", quantile=0.9)


class TestParentLoops:
    """Bytes of parameters, losses and val mIoUs against the parent loops."""

    @pytest.mark.parametrize("model_cfg, train_cfg", [
        (ModelConfig(seed=1), TrainConfig(epochs=2, learning_rate=2e-3, seed=1)),
        (ModelConfig(window=0, use_rope=False, seed=2),
         TrainConfig(epochs=2, learning_rate=2e-3, batch_size=3, seed=2)),
        (ModelConfig(use_csec=True, seed=3), TrainConfig(epochs=2, learning_rate=2e-3, seed=3)),
        (ModelConfig(seed=4), TrainConfig(epochs=2, learning_rate=2e-3, seed=4,
                                          denoise=TRUNCATE)),
    ], ids=["default", "window0-norope-batch3", "use_csec", "truncate_pixels"])
    def test_segnet_train(self, model_cfg, train_cfg):
        data, val = _scenes(5, 7, 48), _scenes(6, 3, 48)
        ref = build_model(model_cfg)
        ref_losses, ref_mious = _parent_segnet_train(ref, data, train_cfg, val)
        model = build_model(model_cfg)
        report = train(model, data, train_cfg, val_pairs=val)
        assert report.losses == ref_losses and report.val_mious == ref_mious
        assert len(ref_losses) == 2 and np.isfinite(ref_losses).all()
        _assert_same_bytes(model.params, ref.params)

    @pytest.mark.parametrize("seed", [3, 11])
    def test_train_csec(self, seed):
        pairs = _gamma_pairs(seed, 4, 16)
        cfg = CsecConfig()
        ref = init_csec(cfg, seed=seed)
        ref_losses = _parent_train_csec(pairs, ref, cfg, epochs=3, lr=5e-3, seed=seed)
        params = init_csec(cfg, seed=seed)
        assert train_csec(pairs, params, cfg, epochs=3, lr=5e-3, seed=seed) == ref_losses
        _assert_same_bytes(params, ref)


@pytest.mark.parametrize("identity", [True, False])
def test_init_csec_draws_the_parent_bytes(identity):
    # the corrector's weights as its own fan-in uniform copy drew them
    cfg = CsecConfig(feat_channels=5, hidden=7, kernel=5)
    hid, c, k = cfg.hidden, cfg.feat_channels, cfg.kernel
    rng = SplitMix64(9)

    def uni(shape, fan_in):
        limit = float(np.sqrt(3.0 / fan_in))
        return rng.uniform_array(shape, -limit, limit).astype(np.float32)

    def taps():
        return np.zeros((k * k, 2)) if identity else rng.uniform_array((k * k, 2), -0.4, 0.4)

    want = {"cose.w1": uni((hid, 3, k, k), 3 * k * k), "cose.t1": taps(),
            "cose.w2": np.zeros(1) if identity else uni((6, hid, k, k), hid * k * k),
            "cose.t2": taps()}
    for prefix in ("ex", "ed", "eb"):
        want[prefix + ".w1"] = uni((hid, 3, k, k), 3 * k * k)
        want[prefix + ".w2"] = uni((hid, hid, k, k), hid * k * k)
        want[prefix + ".w3"] = uni((c, hid, k, k), hid * k * k)
    want["dec.w1"] = uni((hid, c, 3, 3), c * 9)
    want["dec.w2"] = uni((hid, hid, 3, 3), hid * 9)
    want["dec.w3"] = np.zeros(1) if identity else uni((3, hid, 3, 3), hid * 9)
    got = init_csec(cfg, seed=9, identity=identity)
    for name, arr in want.items():
        if not arr.any():
            assert not got[name].data.any(), name
        else:
            assert got[name].data.tobytes() == arr.astype(np.float32).tobytes(), name


def test_previous_step_graph_is_freed_before_the_next_forward(monkeypatch):
    last_loss, alive = [], []
    real_correct, real_loss = csec.csec_correct, csec.mse_loss

    def correct(*args):
        alive.append(bool(last_loss) and last_loss[-1]() is not None)
        return real_correct(*args)

    def loss(*args):
        out = real_loss(*args)
        last_loss.append(weakref.ref(out))
        return out

    monkeypatch.setattr(csec, "csec_correct", correct)
    monkeypatch.setattr(csec, "mse_loss", loss)
    train_csec(_gamma_pairs(2, 3, 8), init_csec(CsecConfig(), seed=1), epochs=2, lr=1e-3)
    assert alive == [False] * 6


class TestTrainCsecErrors:
    def test_no_pairs(self):
        with pytest.raises(ConfigInvalidError, match="^training set is empty$"):
            train_csec([], init_csec(CsecConfig()))

    def test_no_epochs(self):
        with pytest.raises(ConfigInvalidError):
            train_csec(_gamma_pairs(1, 1, 8), init_csec(CsecConfig()), epochs=0)

    def test_non_finite_loss_stops_at_the_first_step(self):
        # a NaN in the decoder's output layer makes every pixel NaN; a NaN
        # target, which once did the same, is refused before any step
        params = init_csec(CsecConfig(), seed=2)
        params["dec.w3"].data.reshape(-1)[0] = np.nan
        before = {k: p.data.copy() for k, p in params.items()}
        with pytest.raises(TrainingDivergedError,
                           match=r"^non-finite training loss nan at epoch 1, step 1, "
                                 r"samples \[0\]; last finite epoch-mean loss None$"):
            train_csec(_gamma_pairs(1, 1, 8), params, epochs=2)
        _assert_same_bytes(params, {k: Tensor(v) for k, v in before.items()})


class TestNonFiniteGradient:
    """A finite loss whose gradient is not finite stops training at that
    step, with the parameters the last finite step left."""

    @pytest.mark.parametrize("name", ["fuse.gd", "ed.w1"])
    def test_corrector(self, name):
        # the full path: the NaN reaches the tap offsets' gradients
        params = init_csec(CsecConfig(), seed=0)
        params[name].data.reshape(-1)[0] = np.nan
        before = {k: Tensor(p.data.copy()) for k, p in params.items()}
        with pytest.raises(TrainingDivergedError,
                           match=r"^non-finite gradient of 'cose.w1' at epoch 1, step 1, "
                                 r"samples \[[01]\]; last finite epoch-mean loss None$") as err, \
                np.errstate(invalid="ignore"):
            train_csec(_gamma_pairs(1, 2, 8), params, epochs=2)
        assert err.value.exit_code == 4 and len(err.value.samples) == 1
        _assert_same_bytes(params, before)

    def test_segmenter_nan_weight_behind_a_relu(self):
        # relu maps the NaN pre-activations to 0, so the loss stays finite
        model = build_model(ModelConfig(patch_size=4, embed_dim=16, n_blocks=1, n_heads=2))
        model.params["b0.mlp.w1"].data[0, 0] = np.nan
        before = {k: Tensor(p.data.copy()) for k, p in model.params.items()}
        with pytest.raises(TrainingDivergedError,
                           match=r"^non-finite gradient of 'embed.w' at epoch 1, step 1, "
                                 r"samples \[\d, \d\]; last finite epoch-mean loss None$"), \
                np.errstate(invalid="ignore"):
            train(model, _scenes(7, 4, 16), TrainConfig(epochs=2, batch_size=2, seed=0))
        _assert_same_bytes(model.params, before)

    def test_adam_changes_nothing(self):
        params = {k: Tensor(np.linspace(-1.0, 1.0, n), requires_grad=True)
                  for k, n in (("a", 3), ("b", 2), ("c", 4))}
        opt = Adam(params, lr=0.1)
        params["a"].grad = np.array([0.5, -1.0, 2.0])
        params["b"].grad = np.array([1.0, 3.0])
        opt.step()
        t, m, v = opt.t, opt.m.copy(), opt.v.copy()
        before = {k: p.data.copy() for k, p in params.items()}
        params["b"].grad = np.array([1.0, np.inf])
        params["c"].grad = np.array([np.nan, 0.0, 0.0, 0.0])
        with pytest.raises(TrainingDivergedError, match="^non-finite gradient of 'b'$"):
            opt.step()
        assert opt.t == t and opt.m.tobytes() == m.tobytes() and opt.v.tobytes() == v.tobytes()
        for k, p in params.items():
            assert p.data.tobytes() == before[k].tobytes(), k


def test_divergence_names_where_training_failed():
    w = Tensor(np.array(1.0), requires_grad=True)
    batches = []

    def batch_loss(batch):
        batches.append(batch)
        return scale(w, float("inf") if len(batches) == 5 else 0.5)

    # 4 samples in batches of 2: the fifth step is epoch 3's first
    with pytest.raises(TrainingDivergedError) as err:
        for _ in fit(Adam({"w": w}, lr=0.0), 4, batch_loss, 5, 2, seed=0):
            pass
    assert str(err.value) == (f"non-finite training loss inf at epoch 3, step 1, samples "
                              f"{batches[-1]}; last finite epoch-mean loss 0.5")


@pytest.mark.parametrize("n, epochs, batch_size, message", [
    (0, 1, 1, "training set is empty"), (2, 0, 1, "need epochs >= 1"),
    (2, 1, 0, "need epochs >= 1"), (2, 1, -1, "need epochs >= 1")])
def test_fit_checks_before_any_step(n, epochs, batch_size, message):
    steps = []
    opt = Adam({}, lr=0.0)
    with pytest.raises(ConfigInvalidError, match=f"^{message}"):
        next(fit(opt, n, steps.append, epochs, batch_size, seed=0))
    assert steps == []


def test_segnet_divergence_names_where_training_failed():
    data = _scenes(7, 2, 16)
    data[1] = (np.full_like(data[1][0], np.nan), data[1][1])
    model = build_model(ModelConfig(patch_size=4, embed_dim=16, n_blocks=1, n_heads=2))
    with pytest.raises(TrainingDivergedError, match=r"at epoch 1, step 1, samples \[[01], [01]\]; "
                                                    r"last finite epoch-mean loss None"), \
            np.errstate(invalid="ignore"):
        train(model, data, TrainConfig(epochs=2, seed=0))
