"""End-to-end tests of the command-line interface (in-process)."""

import importlib
import json
import os
import pathlib
import pkgutil
import re
import struct
import subprocess
import sys
import textwrap
import time
from dataclasses import fields, replace

import numpy as np
import pytest

import segkit
import segkit.cli as cli
import segkit.gradcheck as gradcheck
from segkit.checkpoint import (
    load_checkpoint,
    load_csec_checkpoint,
    load_model_checkpoint,
    save_checkpoint,
    save_csec_checkpoint,
    save_model_checkpoint,
)
from segkit.cli import main, read_config
from segkit.csec import CsecConfig, csec_correct, init_csec, offset_conv, sym_norm, train_csec
from segkit.dataio import load_manifest, read_pnm, write_pnm
from segkit.denoise import DenoiseConfig, filter_dataset, quantile_threshold
from segkit.errors import ConfigInvalidError, MalformedFileError, SegkitError, ShapeMismatchError
from segkit.metrics import ConfusionMatrix, miou
from segkit.rng import SplitMix64
from segkit.segnet import _CHUNK, Model, ModelConfig, TrainConfig, build_model, predict
from segkit.rope import axial_angles, freq_table
from segkit.tensor import Tensor, conv2d, no_grad, permute, tsum

ROOT = pathlib.Path(__file__).resolve().parent.parent

SPEC = """
seed = 5
n_samples = 12
n_val = 4
image_size = 16, 16
n_classes = 3
"""

TRAIN = """
patch_size = 4
embed_dim = 16
n_blocks = 1
n_heads = 2
n_classes = 3
epochs = 2
learning_rate = 0.001
seed = 0
"""


def _repeat_a_train_id(manifest):
    """Give a manifest's second train record the first one's sample id;
    return that id and the two records' line numbers."""
    lines = manifest.read_text().splitlines(keepends=True)
    first, second = [i for i, ln in enumerate(lines) if ln.rstrip("\n").endswith("\ttrain")][:2]
    sid = lines[first].split("\t")[0]
    lines[second] = "\t".join([sid] + lines[second].split("\t")[1:])
    manifest.write_text("".join(lines))
    return sid, first + 1, second + 1


@pytest.fixture()
def dataset(tmp_path):
    spec = tmp_path / "spec.cfg"
    spec.write_text(SPEC)
    out = tmp_path / "data"
    assert main(["synth", "--spec", str(spec), "--out", str(out)]) == 0
    return out


@pytest.fixture()
def trained(tmp_path, dataset):
    cfg = tmp_path / "train.cfg"
    cfg.write_text(TRAIN)
    out = tmp_path / "run"
    code = main(["train", "--config", str(cfg), "--data", str(dataset / "manifest.tsv"),
                 "--out", str(out)])
    assert code == 0
    return out


class TestSynth:
    def test_outputs_and_provenance(self, tmp_path, dataset):
        records = load_manifest(dataset / "manifest.tsv")
        assert len(records) == 12
        run = json.loads((dataset / "run.json").read_text())
        assert run["command"] == "synth"
        assert run["config"]["n_samples"] == 12
        assert run["version"]

    def test_determinism(self, tmp_path, dataset):
        spec = tmp_path / "spec.cfg"
        out2 = tmp_path / "data2"
        assert main(["synth", "--spec", str(spec), "--out", str(out2)]) == 0
        a = (dataset / "images" / "s0000.ppm").read_bytes()
        b = (out2 / "images" / "s0000.ppm").read_bytes()
        assert a == b

    def test_missing_out_is_usage_error(self, tmp_path, capsys):
        spec = tmp_path / "spec.cfg"
        spec.write_text(SPEC)
        assert main(["synth", "--spec", str(spec)]) == 2
        capsys.readouterr()

    def test_bad_spec_key(self, tmp_path):
        spec = tmp_path / "spec.cfg"
        spec.write_text("bogus_key = 3\n")
        assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "x")]) == 2

    def test_class_ids_beyond_the_mask_format_exit_2(self, tmp_path, capsys):
        # P5 holds a byte and 255 means unlabelled, so class ids stop at 254
        spec = tmp_path / "spec.cfg"
        spec.write_text(SPEC.replace("n_classes = 3", "n_classes = 256"))
        assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "x")]) == 2
        assert "n_classes" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_bands_too_thin_for_a_shape_exit_2_before_writing(self, tmp_path, capsys):
        spec = tmp_path / "spec.cfg"
        spec.write_text(SPEC.replace("n_classes = 3", "n_classes = 20\nposition_banded = true"))
        assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "x")]) == 2
        assert "band height 0" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_malformed_line(self, tmp_path):
        spec = tmp_path / "spec.cfg"
        spec.write_text("no equals sign here\n")
        assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("line", ["image_size = 0, 0", "image_size = -4, 8", "n_val = -3"])
    def test_unreadable_output_exit_2_before_writing(self, tmp_path, capsys, line):
        # a zero extent used to exit 0 with images read_pnm refuses, and a
        # negative one to exit 2 only as a stray numpy ValueError
        spec = tmp_path / "spec.cfg"
        spec.write_text(SPEC.replace("n_val = 4\nimage_size = 16, 16\n",
                                     line + "\nshapes_min = 0\nshapes_max = 0\n"))
        assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "x")]) == 2
        assert f"error: {spec}: {line.split()[0]} must" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_negative_shape_count_exits_2_before_writing(self, tmp_path, capsys):
        # shapes_min = -3, shapes_max = -1 once wrote scenes of plain background
        spec = tmp_path / "spec.cfg"
        spec.write_text(SPEC + "shapes_min = -3\nshapes_max = -1\n")
        assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "x")]) == 2
        assert f"error: {spec}: shapes_min must be >= 0, got -3" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("line", ["noise = nan", "noise = -0.5", "noise = inf",
                                      "twin_delta = nan", "twin_delta = -0.01",
                                      "twin_delta = inf"])
    def test_non_finite_or_negative_noise_and_twin_delta_exit_2(self, tmp_path, capsys, line):
        # a NaN noise amplitude used to write all-black images with exit 0
        spec = tmp_path / "spec.cfg"
        spec.write_text(SPEC + line + "\n")
        assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "x")]) == 2
        key = line.split()[0]
        assert f"error: {spec}: {key} must be finite and >= 0" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_twin_delta_with_two_classes_exits_2_before_writing(self, tmp_path, capsys):
        # class_palette pulls class 2 toward class 1, so with 2 classes a
        # twin_delta used to write the same scenes as none
        spec = tmp_path / "spec.cfg"
        spec.write_text(SPEC.replace("n_classes = 3", "n_classes = 2") + "twin_delta = 0.3\n")
        assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "x")]) == 2
        assert (f"error: {spec}: twin_delta 0.3 needs n_classes >= 3, got 2"
                in capsys.readouterr().err)
        assert not (tmp_path / "x").exists()


class TestTrain:
    def test_checkpoint_and_reports(self, trained):
        blob = (trained / "checkpoint.smk").read_bytes()
        assert blob[:4] == b"SMK1"
        metrics = (trained / "metrics.tsv").read_text().strip().splitlines()
        assert len(metrics) == 3  # header + 2 epochs
        run = json.loads((trained / "run.json").read_text())
        assert run["config"]["train"]["epochs"] == 2

    def test_manifest_without_train_samples_exits_2_before_writing(self, tmp_path, dataset,
                                                                   capsys):
        manifest = dataset / "manifest.tsv"
        manifest.write_text("".join(ln for ln in manifest.read_text().splitlines(True)
                                    if not ln.rstrip("\n").endswith("\ttrain")))
        cfg = tmp_path / "train.cfg"
        cfg.write_text(TRAIN)
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--data", str(manifest),
                     "--out", str(out)]) == 2
        assert "error: " in capsys.readouterr().err
        assert not out.exists()

    def test_denoise_emits_filter_report(self, tmp_path, dataset):
        cfg = tmp_path / "train.cfg"
        cfg.write_text(TRAIN + "quantile = 0.9\n")
        out = tmp_path / "run_dn"
        code = main(["train", "--config", str(cfg),
                     "--data", str(dataset / "manifest.tsv"),
                     "--out", str(out)])
        assert code == 0
        lines = (out / "filter_report.tsv").read_text().strip().splitlines()
        assert len(lines) == 9  # header + 8 train samples
        assert all(line.split("\t")[2] in ("kept", "dropped") for line in lines[1:])

    def test_truncate_mode_trains_once_and_drops_nothing(self, tmp_path, dataset, capsys):
        cfg = tmp_path / "train.cfg"
        cfg.write_text(TRAIN + "quantile = 0.9\nmode = truncate_pixels\n")
        out = tmp_path / "run_tr"
        code = main(["train", "--config", str(cfg),
                     "--data", str(dataset / "manifest.tsv"),
                     "--out", str(out)])
        assert code == 0
        lines = (out / "filter_report.tsv").read_text().strip().splitlines()
        assert len(lines) == 9  # header + 8 train samples
        assert all(line.split("\t")[2] == "kept" for line in lines[1:])
        run = json.loads((out / "run.json").read_text())
        assert run["config"]["train"]["denoise"]["mode"] == "truncate_pixels"
        # the two-round mode's old name is no longer a mode
        cfg.write_text(TRAIN + "mode = downweight_pixels\n")
        code = main(["train", "--config", str(cfg),
                     "--data", str(dataset / "manifest.tsv"),
                     "--out", str(tmp_path / "run_old")])
        assert code == 2
        assert "downweight_pixels" in capsys.readouterr().err

    @pytest.mark.parametrize("key, text", [("patch_size", "0"), ("n_heads", "0"),
                                           ("window", "-1"), ("window", "3"), ("epochs", "0"),
                                           ("batch_size", "0"), ("batch_size", "-1"),
                                           ("learning_rate", "-1"), ("learning_rate", "0"),
                                           ("learning_rate", "nan"), ("beta1", "1.5"),
                                           ("beta2", "1"), ("eps", "0")])
    def test_invalid_values_exit_2(self, tmp_path, dataset, capsys, key, text):
        # each value is a typed config error before training starts: no
        # division by zero, no empty loss list, no run that trains nothing,
        # climbs the loss or diverges at its first steps
        lines = [ln for ln in TRAIN.strip().splitlines() if not ln.startswith(key + " ")]
        cfg = tmp_path / "train.cfg"
        cfg.write_text("\n".join(lines + [f"{key} = {text}"]) + "\n")
        assert main(["train", "--config", str(cfg), "--data", str(dataset / "manifest.tsv"),
                     "--out", str(tmp_path / "run")]) == 2
        assert key in capsys.readouterr().err

    def test_corrector_that_cannot_take_the_images_exits_2_before_writing(self, tmp_path,
                                                                          capsys):
        spec = tmp_path / "spec.cfg"
        spec.write_text("n_samples = 2\nimage_size = 80, 80\n")
        assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "data")]) == 0
        cfg = tmp_path / "train.cfg"
        cfg.write_text("epochs = 1\nuse_csec = true\n")
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--data",
                     str(tmp_path / "data" / "manifest.tsv"), "--out", str(out)]) == 2
        assert "error: color correction needs" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("size, line, cause", [
        (80, "use_csec = true\n", "color correction needs spatial extents that are multiples "
                                  "of 4, at most 64, got 80x80"),
        (20, "", "window 4 does not tile the 5x5 patch grid"),
        (18, "window = 0\n", "H and W must be positive multiples of patch_size 4, got 18x18")],
        ids=["csec-at-80x80", "window-4-at-20x20", "patch-4-at-18x18"])
    def test_extent_the_model_cannot_take_exits_2_naming_the_manifest_before_training(
            self, tmp_path, capsys, monkeypatch, size, line, cause):
        spec = tmp_path / "spec.cfg"
        spec.write_text(SPEC.replace("image_size = 16, 16", f"image_size = {size}, {size}"))
        assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "data")]) == 0
        manifest = tmp_path / "data" / "manifest.tsv"
        first = next(r for r in load_manifest(manifest) if r.split == "train")
        cfg = tmp_path / "train.cfg"
        cfg.write_text(TRAIN + line)
        forwards = []
        monkeypatch.setattr(Model, "patch_logits", lambda *args: forwards.append(args))
        capsys.readouterr()
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--data", str(manifest),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {cause}; the train split of {manifest} holds {size}x{size} images, the "
            f"first {first.image_path} with mask {first.mask_path}\n")
        assert not forwards and not out.exists()

    def test_divergence_exit_code_names_the_round_and_sample_ids(self, tmp_path, dataset,
                                                                 capsys):
        # without denoising the message used to give batch positions only
        cfg = tmp_path / "train.cfg"
        cfg.write_text(TRAIN.replace("learning_rate = 0.001", "learning_rate = 1e20"))
        with np.errstate(all="ignore"):
            code = main(["train", "--config", str(cfg),
                         "--data", str(dataset / "manifest.tsv"),
                         "--out", str(tmp_path / "boom")])
        assert code == 4
        assert re.search(r"^error: round 1 of 1, on all 8 samples: .*; sample ids \['s\d{4}'",
                         capsys.readouterr().err)
        assert not (tmp_path / "boom").exists()

    def test_denoise_divergence_exit_code_names_the_round(self, tmp_path, dataset, capsys):
        cfg = tmp_path / "train.cfg"
        cfg.write_text(TRAIN.replace("learning_rate = 0.001", "learning_rate = 1e20")
                       + "quantile = 0.5\nmode = drop_samples\n")
        with np.errstate(all="ignore"):
            code = main(["train", "--config", str(cfg),
                         "--data", str(dataset / "manifest.tsv"),
                         "--out", str(tmp_path / "boom")])
        assert code == 4
        err = capsys.readouterr().err
        assert "round 1 of 2, on all 8 samples" in err and "sample ids ['s" in err

    def test_drop_samples_with_a_repeated_sample_id_exits_3_before_writing(self, tmp_path,
                                                                          dataset, capsys):
        # the retrain keeps samples by id: a record under a dropped sample's
        # id would go back into training
        manifest = dataset / "manifest.tsv"
        sid, first, second = _repeat_a_train_id(manifest)
        cfg = tmp_path / "train.cfg"
        cfg.write_text(TRAIN + "quantile = 0.8\nmode = drop_samples\n")
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--data", str(manifest),
                     "--out", str(out)]) == 3
        assert (f"error: {manifest}: line {second}: sample id '{sid}' repeats line {first}"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_missing_config_is_io_error(self, tmp_path, dataset, capsys):
        code = main(["train", "--config", str(tmp_path / "none.cfg"),
                     "--data", str(dataset / "manifest.tsv"),
                     "--out", str(tmp_path / "x")])
        assert code == 3
        capsys.readouterr()

    def test_svg_emission(self, tmp_path, dataset):
        cfg = tmp_path / "train.cfg"
        cfg.write_text(TRAIN)
        out = tmp_path / "run_svg"
        assert main(["train", "--config", str(cfg),
                     "--data", str(dataset / "manifest.tsv"),
                     "--out", str(out), "--svg"]) == 0
        svg = (out / "curves.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg

    def test_use_csec_flag(self, tmp_path, dataset):
        cfg = tmp_path / "train.cfg"
        cfg.write_text(TRAIN.replace("epochs = 2", "epochs = 1") + "use_csec = true\n")
        out = tmp_path / "run_csec"
        assert main(["train", "--config", str(cfg),
                     "--data", str(dataset / "manifest.tsv"),
                     "--out", str(out)]) == 0
        model = load_model_checkpoint(out / "checkpoint.smk")
        assert model.config.use_csec and model.csec_params is not None

    @pytest.mark.parametrize("denoise", [False, True])
    def test_csec_checkpoint_config_reaches_the_model(self, tmp_path, dataset, denoise):
        csec_cfg = CsecConfig(hidden=6, residual_eps=2.0 ** -9)
        ckpt = tmp_path / "csec.smk"
        save_csec_checkpoint(ckpt, init_csec(csec_cfg, seed=1), csec_cfg)
        cfg = tmp_path / "train.cfg"
        cfg.write_text(TRAIN.replace("epochs = 2", "epochs = 1") + "use_csec = true\n"
                       + "quantile = 0.9\n" * denoise)
        out = tmp_path / "run_csec_ckpt"
        assert main(["train", "--config", str(cfg), "--data", str(dataset / "manifest.tsv"),
                     "--out", str(out), "--csec-checkpoint", str(ckpt)]) == 0
        assert load_model_checkpoint(out / "checkpoint.smk").csec_config == csec_cfg
        run = json.loads((out / "run.json").read_text())
        assert run["args"]["csec_checkpoint"] == str(ckpt)

    def test_csec_checkpoint_without_use_csec_exits_2(self, tmp_path, dataset, capsys):
        ckpt = tmp_path / "csec.smk"
        save_csec_checkpoint(ckpt, init_csec(CsecConfig(), seed=1))
        cfg = tmp_path / "train.cfg"
        cfg.write_text(TRAIN)
        assert main(["train", "--config", str(cfg), "--data", str(dataset / "manifest.tsv"),
                     "--out", str(tmp_path / "run"), "--csec-checkpoint", str(ckpt)]) == 2
        assert "use_csec" in capsys.readouterr().err

    @pytest.mark.parametrize("extra, line", [(["--denoise"], ""), (["--use-csec"], ""),
                                             ([], "denoise = drop_samples\n"),
                                             ([], "ignore_index = 7\n")],
                             ids=["denoise-flag", "use-csec-flag", "denoise-key",
                                  "ignore-index-key"])
    def test_removed_flags_and_the_denoise_key_exit_2(self, tmp_path, dataset, capsys,
                                                       extra, line):
        cfg = tmp_path / "train.cfg"
        cfg.write_text(TRAIN + line)
        assert main(["train", "--config", str(cfg), "--data", str(dataset / "manifest.tsv"),
                     "--out", str(tmp_path / "run")] + extra) == 2
        capsys.readouterr()

    # every key train accepts, a value other than its field's default, and
    # that value as run.json records it
    KEYS = [("patch_size", "2", 2), ("embed_dim", "24", 24), ("n_blocks", "3", 3),
            ("n_heads", "1", 1), ("n_classes", "4", 4), ("use_csec", "true", True),
            ("use_rope", "false", False), ("window", "2", 2), ("seed", "3", 3),
            ("epochs", "2", 2), ("learning_rate", "0.002", 0.002),
            ("beta1", "0.8", 0.8), ("beta2", "0.99", 0.99), ("eps", "1e-06", 1e-6),
            ("batch_size", "2", 2), ("quantile", "0.9", 0.9),
            ("mode", "truncate_pixels", "truncate_pixels")]

    def test_keys_cover_every_config_field(self):
        settable = {f.name for cls in (ModelConfig, TrainConfig, DenoiseConfig)
                    for f in fields(cls)} - {"denoise"}
        assert {k for k, _, _ in self.KEYS} == settable

    @pytest.mark.parametrize("key, text, value", KEYS, ids=[k for k, _, _ in KEYS])
    def test_every_key_reaches_the_run_record(self, tmp_path, dataset, capsys, key, text,
                                              value):
        default = {f.name: f.default for cls in (ModelConfig, TrainConfig, DenoiseConfig)
                   for f in fields(cls)}[key]
        assert value != (list(default) if isinstance(default, tuple) else default)
        lines = [ln for ln in TRAIN.replace("epochs = 2", "epochs = 1").strip().splitlines()
                 if not ln.startswith(key + " ")]
        cfg = tmp_path / "train.cfg"
        cfg.write_text("\n".join(lines + [f"{key} = {text}"]) + "\n")
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--data", str(dataset / "manifest.tsv"),
                     "--out", str(out)]) == 0
        capsys.readouterr()
        resolved = json.loads((out / "run.json").read_text())["config"]
        sections = [resolved["model"], resolved["train"], resolved["train"]["denoise"] or {}]
        # seed is a field of both ModelConfig and TrainConfig
        assert [s[key] for s in sections if key in s] in ([value], [value, value])


class TestEval:
    def test_eval_without_out_exits_2_and_leaves_the_run_alone(self, tmp_path, dataset, trained,
                                                              monkeypatch, capsys):
        # --out used to default to the working directory, so eval run from
        # inside a train output directory replaced that run's run.json
        before = {f.name: f.read_bytes() for f in trained.iterdir()}
        monkeypatch.chdir(trained)
        assert main(["eval", "--checkpoint", "checkpoint.smk",
                     "--data", str(dataset / "manifest.tsv")]) == 2
        assert "--out" in capsys.readouterr().err
        assert {f.name: f.read_bytes() for f in trained.iterdir()} == before

    def test_report_and_weighting(self, tmp_path, dataset, trained, capsys):
        out = tmp_path / "eval"
        code = main(["eval", "--checkpoint", str(trained / "checkpoint.smk"),
                     "--data", str(dataset / "manifest.tsv"),
                     "--weights", "goose", "--out", str(out)])
        assert code == 0
        report = json.loads((out / "eval_report.json").read_text())
        assert report["weighting"] == "goose"
        assert 0.0 <= report["weighted_miou"] <= 1.0
        assert len(report["class_iou"]) == 3
        assert "weighted mIoU" in capsys.readouterr().out

    def test_uniform_weighting_is_mean(self, tmp_path, dataset, trained):
        out = tmp_path / "eval_u"
        assert main(["eval", "--checkpoint", str(trained / "checkpoint.smk"),
                     "--data", str(dataset / "manifest.tsv"),
                     "--weights", "uniform", "--out", str(out)]) == 0
        report = json.loads((out / "eval_report.json").read_text())
        mean = np.mean(list(report["per_robot_miou"].values()))
        assert abs(report["weighted_miou"] - mean) < 1e-12

    def test_model_trained_at_16x16_evaluates_a_32x32_manifest(self, tmp_path, trained,
                                                                capsys):
        spec = tmp_path / "spec32.cfg"
        spec.write_text(SPEC.replace("image_size = 16, 16", "image_size = 32, 32"))
        assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "data32")]) == 0
        out = tmp_path / "eval32"
        assert main(["eval", "--checkpoint", str(trained / "checkpoint.smk"),
                     "--data", str(tmp_path / "data32" / "manifest.tsv"),
                     "--weights", "uniform", "--out", str(out)]) == 0
        capsys.readouterr()
        report = json.loads((out / "eval_report.json").read_text())
        assert report["samples"] == 4 and 0.0 <= report["weighted_miou"] <= 1.0

    def test_extent_the_window_does_not_tile_exits_2_naming_the_manifest_before_a_forward(
            self, tmp_path, trained, capsys, monkeypatch):
        # trained at 16x16 with window 4: a 20x20 image has a 5x5 patch grid
        spec = tmp_path / "spec20.cfg"
        spec.write_text(SPEC.replace("image_size = 16, 16", "image_size = 20, 20"))
        assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "data20")]) == 0
        manifest = tmp_path / "data20" / "manifest.tsv"
        first = next(r for r in load_manifest(manifest) if r.split == "val")
        forwards = []
        monkeypatch.setattr(Model, "patch_logits", lambda *args: forwards.append(args))
        capsys.readouterr()
        out = tmp_path / "eval20"
        assert main(["eval", "--checkpoint", str(trained / "checkpoint.smk"), "--data",
                     str(manifest), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: window 4 does not tile the 5x5 patch grid; the val split of {manifest} "
            f"holds 20x20 images, the first {first.image_path} with mask {first.mask_path}\n")
        assert not forwards and not out.exists()

    def test_eval_forwards_each_chunk_of_each_robot_once(self, tmp_path, dataset, trained,
                                                        capsys, monkeypatch):
        # the extent check adds no forward: one per chunk of _CHUNK images
        forwards = []
        real = Model.patch_logits

        def counted(model, images):
            forwards.append(len(images))
            return real(model, images)

        monkeypatch.setattr(Model, "patch_logits", counted)
        val = [r for r in load_manifest(dataset / "manifest.tsv") if r.split == "val"]
        per_robot = [sum(r.robot_id == rid for r in val) for rid in {r.robot_id for r in val}]
        assert main(["eval", "--checkpoint", str(trained / "checkpoint.smk"), "--data",
                     str(dataset / "manifest.tsv"), "--weights", "uniform",
                     "--out", str(tmp_path / "ev")]) == 0
        capsys.readouterr()
        assert sorted(forwards) == sorted(min(_CHUNK, n - i) for n in per_robot
                                          for i in range(0, n, _CHUNK))

    def test_missing_robot_exit_5(self, tmp_path, trained, dataset, capsys):
        # a val manifest with fewer than all four robots under goose weighting
        records = load_manifest(dataset / "manifest.tsv")
        val = [r for r in records if r.split == "val"][:1]
        small = tmp_path / "small.tsv"
        from segkit.dataio import save_manifest
        save_manifest(small, val)
        code = main(["eval", "--checkpoint", str(trained / "checkpoint.smk"),
                     "--data", str(small), "--weights", "goose",
                     "--out", str(tmp_path / "e5")])
        assert code == 5
        capsys.readouterr()


class TestCorrect:
    def test_identity_checkpoint_near_noop(self, tmp_path, dataset, capsys):
        ckpt = tmp_path / "csec.smk"
        save_csec_checkpoint(ckpt, init_csec(CsecConfig(), seed=0), CsecConfig())
        src = next((dataset / "images").iterdir())
        dst = tmp_path / "corrected.ppm"
        code = main(["correct", "--checkpoint", str(ckpt), "--in", str(src),
                     "--out", str(dst), "--reference", str(src)])
        assert code == 0
        original = read_pnm(src)
        corrected = read_pnm(dst)
        assert float(np.max(np.abs(original - corrected))) < 1e-3
        assert dst.read_bytes()[:2] == b"P6"
        assert "PSNR improvement" in capsys.readouterr().err

    def test_record_holds_the_config_as_written(self, tmp_path, dataset):
        params = init_csec(CsecConfig(), seed=0)
        ckpt, src, dst = tmp_path / "csec.smk", dataset / "images" / "s0000.ppm", tmp_path / "o.ppm"
        save_csec_checkpoint(ckpt, params, CsecConfig())
        assert main(["correct", "--checkpoint", str(ckpt), "--in", str(src),
                     "--out", str(dst)]) == 0
        record = json.loads((tmp_path / "o.ppm.run.json").read_text())
        assert record["config"]["residual_eps"] == 0.0001
        with no_grad():
            write_pnm(tmp_path / "want.ppm", csec_correct(read_pnm(src), params, CsecConfig()).data)
        assert dst.read_bytes() == (tmp_path / "want.ppm").read_bytes()

    def test_reference_equal_to_input_says_so(self, tmp_path, dataset, capsys):
        # the input's PSNR against itself is infinite, so no gain is finite
        ckpt = tmp_path / "csec.smk"
        save_csec_checkpoint(ckpt, init_csec(CsecConfig(), seed=0), CsecConfig())
        src = dataset / "images" / "s0000.ppm"
        assert main(["correct", "--checkpoint", str(ckpt), "--in", str(src),
                     "--out", str(tmp_path / "o.ppm"), "--reference", str(src)]) == 0
        err = capsys.readouterr().err
        assert "input already matches the reference" in err and "inf" not in err

    def test_p5_input_rejected(self, tmp_path, dataset, capsys):
        ckpt = tmp_path / "csec.smk"
        save_csec_checkpoint(ckpt, init_csec(CsecConfig(), seed=0), CsecConfig())
        mask = next((dataset / "masks").iterdir())
        code = main(["correct", "--checkpoint", str(ckpt), "--in", str(mask),
                     "--out", str(tmp_path / "o.ppm")])
        assert code == 3
        assert str(mask) in capsys.readouterr().err

    def test_p5_reference_rejected(self, tmp_path, dataset, capsys):
        ckpt = tmp_path / "csec.smk"
        save_csec_checkpoint(ckpt, init_csec(CsecConfig(), seed=0), CsecConfig())
        src = next((dataset / "images").iterdir())
        mask = next((dataset / "masks").iterdir())
        out = tmp_path / "o.ppm"
        code = main(["correct", "--checkpoint", str(ckpt), "--in", str(src),
                     "--out", str(out), "--reference", str(mask)])
        assert code == 3
        err = capsys.readouterr().err
        assert str(mask) in err and "PSNR" not in err
        assert not out.exists()

    def test_reference_of_another_size_is_config_error(self, tmp_path, dataset, capsys):
        ckpt = tmp_path / "csec.smk"
        save_csec_checkpoint(ckpt, init_csec(CsecConfig(), seed=0), CsecConfig())
        src = next((dataset / "images").iterdir())
        ref = tmp_path / "small.ppm"
        write_pnm(ref, np.full((1, 3, 8, 8), 0.5))
        out = tmp_path / "o.ppm"
        code = main(["correct", "--checkpoint", str(ckpt), "--in", str(src),
                     "--out", str(out), "--reference", str(ref)])
        assert code == 2
        assert f"{ref}: reference 8x8 vs input 16x16" in capsys.readouterr().err
        assert not out.exists()

    def test_record_beside_output_keeps_other_run_json(self, tmp_path, dataset, capsys):
        ckpt = tmp_path / "csec.smk"
        save_csec_checkpoint(ckpt, init_csec(CsecConfig(), seed=0), CsecConfig())
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        other = run_dir / "run.json"
        other.write_text('{"command": "train"}\n')
        before = other.read_bytes()
        out = run_dir / "fixed.ppm"
        src = next((dataset / "images").iterdir())
        assert main(["correct", "--checkpoint", str(ckpt), "--in", str(src),
                     "--out", str(out)]) == 0
        assert other.read_bytes() == before
        record = json.loads((run_dir / "fixed.ppm.run.json").read_text())
        assert record["command"] == "correct"
        assert record["args"]["out"] == str(out)

    def test_zero_extent_image_is_io_error(self, tmp_path, capsys):
        ckpt = tmp_path / "csec.smk"
        save_csec_checkpoint(ckpt, init_csec(CsecConfig(), seed=0), CsecConfig())
        empty = tmp_path / "empty.ppm"
        empty.write_bytes(b"P6\n0 0\n255\n")
        code = main(["correct", "--checkpoint", str(ckpt), "--in", str(empty),
                     "--out", str(tmp_path / "o.ppm")])
        assert code == 3
        assert "zero extent" in capsys.readouterr().err


class TestFilter:
    def test_filter_writes_manifest_and_report(self, tmp_path, dataset, trained, capsys):
        model = load_model_checkpoint(trained / "checkpoint.smk")
        pred_dir = tmp_path / "preds"
        pred_dir.mkdir()
        records = load_manifest(dataset / "manifest.tsv")
        for r in records:
            if r.split != "train":
                continue
            img = read_pnm(r.image_path)
            write_pnm(pred_dir / (r.sample_id + ".pgm"),
                      predict(model, img).astype(np.uint8))
        out = tmp_path / "filtered"
        code = main(["filter", "--data", str(dataset / "manifest.tsv"),
                     "--pred", str(pred_dir), "--out", str(out),
                     "--quantile", "0.6"])
        assert code == 0
        capsys.readouterr()
        filtered = load_manifest(out / "manifest.tsv")
        n_train_before = sum(r.split == "train" for r in records)
        n_train_after = sum(r.split == "train" for r in filtered)
        assert n_train_after <= n_train_before
        # non-train records pass through untouched
        assert sum(r.split != "train" for r in filtered) == sum(
            r.split != "train" for r in records)
        report = (out / "filter_report.tsv").read_text().strip().splitlines()[1:]
        statuses = {line.split("\t")[2] for line in report}
        assert statuses <= {"kept", "dropped"}


    def test_repeated_sample_id_exits_3_before_writing(self, tmp_path, dataset, capsys):
        # the filter keeps or drops by id: a second record under a dropped
        # sample's id would carry that sample into the new manifest
        manifest = dataset / "manifest.tsv"
        pred_dir = tmp_path / "preds"
        pred_dir.mkdir()
        for r in load_manifest(manifest):  # perfect predictions, but for one id's
            write_pnm(pred_dir / (r.sample_id + ".pgm"), read_pnm(r.mask_path))
        sid, first, second = _repeat_a_train_id(manifest)
        write_pnm(pred_dir / (sid + ".pgm"), (read_pnm(pred_dir / (sid + ".pgm")) + 1) % 3)
        out = tmp_path / "filtered"
        code = main(["filter", "--data", str(manifest), "--pred", str(pred_dir),
                     "--out", str(out), "--quantile", "0.8"])
        assert code == 3
        assert (f"error: {manifest}: line {second}: sample id '{sid}' repeats line {first}"
                in capsys.readouterr().err)
        assert not out.exists()


    @pytest.mark.parametrize("quantile", ["2", "nan", "0", "1", "-0.5"])
    def test_quantile_outside_the_open_unit_interval_exits_2_before_reading(
            self, tmp_path, dataset, capsys, quantile):
        # the --pred directory is missing, which reading it would report as 3
        out = tmp_path / "filtered"
        code = main(["filter", "--data", str(dataset / "manifest.tsv"),
                     "--pred", str(tmp_path / "missing"), "--out", str(out),
                     "--quantile", quantile])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: --quantile: quantile must be in (0,1)")
        assert not out.exists()

    def test_prediction_of_another_size_exits_2_naming_sample_and_file(self, tmp_path,
                                                                       dataset, capsys):
        pred_dir = tmp_path / "preds"
        pred_dir.mkdir()
        records = [r for r in load_manifest(dataset / "manifest.tsv") if r.split == "train"]
        for r in records:
            write_pnm(pred_dir / (r.sample_id + ".pgm"), np.zeros((8, 8), dtype=np.int64))
        code = main(["filter", "--data", str(dataset / "manifest.tsv"),
                     "--pred", str(pred_dir), "--out", str(tmp_path / "filtered")])
        assert code == 2
        err = capsys.readouterr().err
        sid = records[0].sample_id
        assert f"sample {sid!r}" in err and str(pred_dir / (sid + ".pgm")) in err
        assert "(8, 8)" in err and "(16, 16)" in err


class TestUnlabelledPixels:
    """Mask rows 0-3 of every sample hold 255, the on-disk unlabelled
    value; train, eval and filter all leave those pixels out."""

    @pytest.fixture()
    def labels(self, dataset):
        """Unlabel the dataset's rows 0-3 and return its masks as they were."""
        labels = {}
        for r in load_manifest(dataset / "manifest.tsv"):
            mask = read_pnm(r.mask_path)
            labels[r.sample_id] = mask.copy()
            mask[:4] = 255
            write_pnm(r.mask_path, mask)
        return labels

    def test_train_exits_0(self, tmp_path, dataset, labels, capsys):
        cfg = tmp_path / "train.cfg"
        cfg.write_text(TRAIN)
        assert main(["train", "--config", str(cfg), "--data", str(dataset / "manifest.tsv"),
                     "--out", str(tmp_path / "run")]) == 0
        capsys.readouterr()

    def test_eval_exits_0(self, tmp_path, dataset, trained, labels, capsys):
        out = tmp_path / "eval"
        assert main(["eval", "--checkpoint", str(trained / "checkpoint.smk"),
                     "--data", str(dataset / "manifest.tsv"), "--out", str(out)]) == 0
        capsys.readouterr()
        assert len(json.loads((out / "eval_report.json").read_text())["class_iou"]) == 3

    def test_filter_scores_labelled_pixels_only(self, tmp_path, dataset, labels, capsys):
        # predictions equal to every labelled pixel score 0, not 64/256
        pred_dir = tmp_path / "preds"
        pred_dir.mkdir()
        for sid, mask in labels.items():
            write_pnm(pred_dir / (sid + ".pgm"), mask)
        out = tmp_path / "filtered"
        assert main(["filter", "--data", str(dataset / "manifest.tsv"),
                     "--pred", str(pred_dir), "--out", str(out)]) == 0
        capsys.readouterr()
        report = (out / "filter_report.tsv").read_text().strip().splitlines()[1:]
        assert len(report) == 8
        assert {line.split("\t")[1] for line in report} == {"0.000000"}


class TestSplitRefusals:
    """A split a command cannot use is refused with exit 2, naming the
    manifest and the split (and the robot at fault), before any forward and
    without creating --out."""

    @staticmethod
    def _drop_split(manifest, split):
        manifest.write_text("".join(ln for ln in manifest.read_text().splitlines(True)
                                    if not ln.rstrip("\n").endswith("\t" + split)))

    @staticmethod
    def _unlabel(records):
        for r in records:
            write_pnm(r.mask_path, np.full_like(read_pnm(r.mask_path), 255))

    @pytest.fixture()
    def forwards(self, monkeypatch):
        calls = []
        monkeypatch.setattr(Model, "forward", lambda *args: calls.append(args))
        monkeypatch.setattr(Model, "patch_logits", lambda *args: calls.append(args))
        return calls

    def _train(self, tmp_path, manifest):
        cfg = tmp_path / "train.cfg"
        cfg.write_text(TRAIN)
        return main(["train", "--config", str(cfg), "--data", str(manifest),
                     "--out", str(tmp_path / "run")])

    def test_train_without_train_samples(self, tmp_path, dataset, capsys, forwards):
        manifest = dataset / "manifest.tsv"
        self._drop_split(manifest, "train")
        assert self._train(tmp_path, manifest) == 2
        assert capsys.readouterr().err == f"error: {manifest} has no 'train' samples\n"
        assert not forwards and not (tmp_path / "run").exists()

    def test_train_whose_val_masks_hold_no_labelled_pixel(self, tmp_path, dataset, capsys,
                                                          forwards):
        manifest = dataset / "manifest.tsv"
        self._unlabel(r for r in load_manifest(manifest) if r.split == "val")
        assert self._train(tmp_path, manifest) == 2
        assert capsys.readouterr().err == (
            f"error: {manifest}: no mask in the val split holds a labelled pixel, so no "
            f"class has a defined IoU\n")
        assert not forwards and not (tmp_path / "run").exists()

    def test_eval_of_a_split_the_manifest_lacks(self, tmp_path, dataset, trained, capsys,
                                                forwards):
        manifest = dataset / "manifest.tsv"  # SPEC writes no test samples
        out = tmp_path / "eval"
        assert main(["eval", "--checkpoint", str(trained / "checkpoint.smk"), "--data",
                     str(manifest), "--split", "test", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {manifest} has no 'test' samples\n"
        assert not forwards and not out.exists()

    def test_eval_where_one_robots_masks_hold_no_labelled_pixel(self, tmp_path, dataset,
                                                                trained, capsys, forwards):
        manifest = dataset / "manifest.tsv"
        val = [r for r in load_manifest(manifest) if r.split == "val"]
        robot = val[0].robot_id
        assert any(r.robot_id != robot for r in val)  # the other robots keep their labels
        self._unlabel(r for r in val if r.robot_id == robot)
        out = tmp_path / "eval"
        assert main(["eval", "--checkpoint", str(trained / "checkpoint.smk"), "--data",
                     str(manifest), "--weights", "uniform", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {manifest}: no mask of robot {robot!r} in the val split holds a labelled "
            f"pixel, so no class has a defined IoU\n")
        assert not forwards and not out.exists()

    def test_filter_without_train_samples(self, tmp_path, dataset, capsys):
        manifest = dataset / "manifest.tsv"
        self._drop_split(manifest, "train")
        out = tmp_path / "filtered"
        assert main(["filter", "--data", str(manifest), "--pred", str(tmp_path / "missing"),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {manifest} has no 'train' samples\n"
        assert not out.exists()


class TestWrongPnmKind:
    """A P6 where a mask belongs, or a P5 where an image belongs, is an I/O
    error that names the file."""

    @pytest.mark.parametrize("wrong", ["mask", "image"])
    def test_train_exits_3(self, tmp_path, dataset, capsys, wrong):
        bad, other = ((dataset / "masks" / "s0000.pgm", dataset / "images" / "s0000.ppm")
                      if wrong == "mask" else
                      (dataset / "images" / "s0000.ppm", dataset / "masks" / "s0000.pgm"))
        bad.write_bytes(other.read_bytes())
        cfg = tmp_path / "train.cfg"
        cfg.write_text(TRAIN)
        code = main(["train", "--config", str(cfg), "--data", str(dataset / "manifest.tsv"),
                     "--out", str(tmp_path / "run")])
        assert code == 3
        assert str(bad) in capsys.readouterr().err

    def test_filter_pred_exits_3(self, tmp_path, dataset, capsys):
        pred_dir = tmp_path / "preds"
        pred_dir.mkdir()
        for r in load_manifest(dataset / "manifest.tsv"):
            (pred_dir / (r.sample_id + ".pgm")).write_bytes(open(r.image_path, "rb").read())
        code = main(["filter", "--data", str(dataset / "manifest.tsv"),
                     "--pred", str(pred_dir), "--out", str(tmp_path / "filtered")])
        assert code == 3
        assert str(pred_dir / "s0000.pgm") in capsys.readouterr().err


class TestGradcheck:
    def test_single_module_passes(self, tmp_path, capsys):
        assert main(["gradcheck", "--module", "tensor", "--trials", "3",
                     "--out", str(tmp_path / "gc")]) == 0
        assert (tmp_path / "gc" / "run.json").exists()
        assert "ok" in capsys.readouterr().out

    def test_unknown_module_is_usage_error(self, capsys):
        assert main(["gradcheck", "--module", "bogus"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("module,trials", [("tensor", "0"), ("rope", "-3"), ("all", "0")])
    def test_trials_below_one_is_usage_error(self, module, trials, monkeypatch, capsys):
        monkeypatch.setattr(cli, "run_suite", lambda *a, **k: pytest.fail("a suite ran"))
        assert main(["gradcheck", "--module", module, "--trials", trials]) == 2
        out = capsys.readouterr()
        assert out.out == "" and f"--trials must be at least 1, got {trials}" in out.err

    @pytest.mark.parametrize("module, checks", [("segnet", ["segnet.params"]),
                                                ("csec", ["csec_correct.params"])])
    def test_whole_pipeline_checks_run_once_whatever_the_trials(self, monkeypatch, capsys,
                                                               module, checks):
        # as --trials --help says; the op checks of a suite run trials times
        calls = []
        monkeypatch.setattr(gradcheck, "_check_params",
                            lambda params, loss_fn: calls.append(len(params)) or 0.0)
        monkeypatch.setattr(gradcheck, "check_function", lambda f, x: 0.0)
        assert main(["gradcheck", "--module", module, "--trials", "3"]) == 0
        assert len(calls) == 1 and all(c in capsys.readouterr().out for c in checks)

    @pytest.mark.parametrize("module", ["all", "segnet"])
    @pytest.mark.parametrize("seed", [2 ** 24 + 1, -2 ** 24 - 1])
    def test_seed_beyond_the_model_config_limit_exits_2_before_any_suite(
            self, monkeypatch, capsys, module, seed):
        monkeypatch.setattr(cli, "run_suite", lambda *a, **k: pytest.fail("a suite ran"))
        assert main(["gradcheck", "--module", module, "--seed", str(seed)]) == 2
        out = capsys.readouterr()
        assert out.out == "" and f"--seed: seed must be within +-2**24, got {seed}" in out.err

    def test_broken_gradient_negative_control(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "run_suite", lambda *a, **k: {"broken_op": 1.0})
        assert main(["gradcheck", "--module", "tensor"]) == 1
        assert "broken_op" in capsys.readouterr().err


class TestConfigPlumbing:
    def test_read_config_comments_and_spacing(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("# comment\n a = 1 \nb=two # trailing\n\n")
        assert read_config(p) == {"a": "1", "b": "two"}

    def test_repeated_key_exits_2_naming_both_lines(self, tmp_path, capsys):
        # the last value would win without a word: 50 epochs where line 1 says 5
        p = tmp_path / "c.cfg"
        p.write_text("epochs = 5\n# more\n epochs=50\n")
        with pytest.raises(ConfigInvalidError, match=re.escape(
                f"{p}:3: key 'epochs' repeats line 1")):
            read_config(p)
        cfg = tmp_path / "train.cfg"
        cfg.write_text(TRAIN + "epochs = 50\n")
        assert main(["train", "--config", str(cfg), "--data", str(tmp_path / "missing.tsv"),
                     "--out", str(tmp_path / "run")]) == 2
        line = TRAIN.splitlines().index("epochs = 2") + 1
        assert (f"error: {cfg}:{len(TRAIN.splitlines()) + 1}: key 'epochs' repeats line {line}"
                in capsys.readouterr().err)
        assert not (tmp_path / "run").exists()

    def test_hash_inside_a_value_is_not_a_comment(self, tmp_path, capsys):
        # '#' starts a comment at the start of a line or after whitespace
        # only, so '3#4' is refused rather than read as 3
        p = tmp_path / "c.cfg"
        p.write_text("#top\na = 3#4\nb = x\t# tab\nc = #\n")
        assert read_config(p) == {"a": "3#4", "b": "x", "c": ""}
        cfg = tmp_path / "train.cfg"
        cfg.write_text(TRAIN.replace("n_classes = 3", "n_classes = 3#4"))
        assert main(["train", "--config", str(cfg), "--data", str(tmp_path / "missing.tsv"),
                     "--out", str(tmp_path / "run")]) == 2
        assert "bad value for 'n_classes'" in capsys.readouterr().err


class TestNonUtf8Input:
    MANIFEST_HEAD = b"# sample_id\timage_path\tmask_path\trobot_id\tsplit\n"

    @pytest.mark.parametrize("line, message", [
        (b"s0\timages/s0\xff.ppm\tmasks/s0.pgm\trobot_a\ttrain\n", "line 2 is not utf-8"),
        (b"s0\timages/s0.ppm\tmasks/s0.pgm\n", "line 2: expected 5 fields, got 3")],
        ids=["non-utf8", "three-fields"])
    def test_bad_manifest_line_exits_3(self, tmp_path, capsys, line, message):
        cfg = tmp_path / "train.cfg"
        cfg.write_text(TRAIN)
        manifest = tmp_path / "manifest.tsv"
        manifest.write_bytes(self.MANIFEST_HEAD + line)
        code = main(["train", "--config", str(cfg), "--data", str(manifest),
                     "--out", str(tmp_path / "run")])
        assert code == 3
        assert message in capsys.readouterr().err

    def test_non_utf8_manifest_names_its_file(self, tmp_path):
        manifest = tmp_path / "manifest.tsv"
        manifest.write_bytes(self.MANIFEST_HEAD + b"\n\xff\n")
        with pytest.raises(MalformedFileError,
                           match=rf"^{re.escape(str(manifest))}: line 3 is not utf-8$"):
            load_manifest(manifest)

    def test_non_utf8_config_exits_2_naming_its_file(self, tmp_path, capsys):
        cfg = tmp_path / "train.cfg"
        cfg.write_bytes(TRAIN.encode() + b"# caf\xe9\n")
        with pytest.raises(ConfigInvalidError, match=rf"^{re.escape(str(cfg))}: line 10 is not utf-8$"):
            read_config(cfg)
        code = main(["train", "--config", str(cfg), "--data", str(tmp_path / "none.tsv"),
                     "--out", str(tmp_path / "run")])
        assert code == 2
        assert f"{cfg}: line 10 is not utf-8" in capsys.readouterr().err

    def test_text_mode_newlines_still_read(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_bytes(b"a = 1\r\nb = 2\rc = 3\n")
        assert read_config(cfg) == {"a": "1", "b": "2", "c": "3"}


class TestModelCheckpoint:
    CFG = ModelConfig(patch_size=4, embed_dim=16, n_blocks=2, n_heads=2, n_classes=3, seed=7)

    def _per_head_blob(self, tmp_path, model):
        """The model saved the way checkpoints were written before the heads
        were fused: one [d, dh] matrix per head and per q/k/v."""
        path = tmp_path / "fused.smk"
        save_model_checkpoint(path, model)
        blob = load_checkpoint(path)
        cfg = model.config
        dh = cfg.embed_dim // cfg.n_heads
        for i in range(cfg.n_blocks):
            wqkv = blob.pop(f"b{i}.wqkv").data
            for j, c in enumerate("qkv"):
                for hd in range(cfg.n_heads):
                    start = j * cfg.embed_dim + hd * dh
                    blob[f"b{i}.h{hd}.w{c}"] = Tensor(wqkv[:, start:start + dh].copy())
        legacy = tmp_path / "per_head.smk"
        save_checkpoint(legacy, blob)
        return legacy, blob

    def test_per_head_checkpoint_loads_fused(self, tmp_path):
        model = build_model(self.CFG)
        legacy, blob = self._per_head_blob(tmp_path, model)
        assert "b0.h1.wk" in blob and "b0.wqkv" not in blob
        back = load_model_checkpoint(legacy)
        assert set(back.params) == set(model.params)
        for k, p in model.params.items():
            assert np.array_equal(back.params[k].data, p.data), k
        img = SplitMix64(3).uniform_array((1, 3, 16, 16), 0, 1)
        assert np.array_equal(predict(back, img), predict(model, img))
        assert np.allclose(back.forward(img).data, model.forward(img).data, rtol=0, atol=1e-6)

    def test_checkpoint_with_an_image_size_entry_loads_and_evaluates_alike(
            self, tmp_path, dataset, capsys):
        # checkpoints written while ModelConfig had image_size hold it as
        # config.image_size; it is dropped unread
        model = build_model(self.CFG)
        path, legacy = tmp_path / "m.smk", tmp_path / "legacy.smk"
        save_model_checkpoint(path, model)
        blob = load_checkpoint(path)
        assert "config.image_size" not in blob
        blob["config.image_size"] = Tensor(np.full(2, 16.0, dtype=np.float32))
        save_checkpoint(legacy, blob)
        back = load_model_checkpoint(legacy)
        assert back.config == self.CFG
        assert set(back.params) == set(model.params)
        for k, p in model.params.items():
            assert np.array_equal(back.params[k].data, p.data), k
        imgs = SplitMix64(3).uniform_array((2, 3, 16, 16), 0, 1)
        assert np.array_equal(back.forward(imgs).data, model.forward(imgs).data)
        reports = []
        for name, ckpt in (("new", path), ("legacy", legacy)):
            assert main(["eval", "--checkpoint", str(ckpt), "--data",
                         str(dataset / "manifest.tsv"), "--out", str(tmp_path / name)]) == 0
            reports.append((tmp_path / name / "eval_report.json").read_text())
        capsys.readouterr()
        assert reports[0] == reports[1]

    def _edited(self, tmp_path, blob, **config):
        """blob saved with the given config.* entries replaced."""
        for name, value in config.items():
            blob[f"config.{name}"] = Tensor(np.array(value, dtype=np.float32))
        path = tmp_path / "edited.smk"
        save_checkpoint(path, blob)
        return path

    @pytest.mark.parametrize("per_head, config, entry", [
        (False, dict(n_blocks=1e6), "config.n_blocks"),
        (True, dict(embed_dim=2 ** 22, n_heads=2 ** 20), "config.n_heads")],
        ids=["n_blocks", "per-head-n_heads"])
    def test_config_driving_per_block_work_is_refused_at_once(self, tmp_path, dataset, capsys,
                                                              per_head, config, entry):
        # a million blocks used to take 17 s and 2 GB to load before the
        # missing 'b1.attn.wo' was reported; 2**20 heads 3 s per block
        model = build_model(self.CFG)
        if per_head:
            _, blob = self._per_head_blob(tmp_path, model)
        else:
            save_model_checkpoint(tmp_path / "m.smk", model)
            blob = load_checkpoint(tmp_path / "m.smk")
        path = self._edited(tmp_path, blob, **config)
        start = time.perf_counter()
        code = main(["eval", "--checkpoint", str(path), "--data", str(dataset / "manifest.tsv"),
                     "--out", str(tmp_path / "ev")])
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert f"error: {path}: {entry!r} is " in capsys.readouterr().err
        assert not (tmp_path / "ev").exists()

    def test_huge_embed_dim_is_refused_by_shape_within_3_gb(self, tmp_path, dataset):
        # Model used to build its rotation table, embed_dim / 2 f64
        # frequencies, before a tensor was checked: a MemoryError here
        save_model_checkpoint(tmp_path / "m.smk", build_model(self.CFG))
        path = self._edited(tmp_path, load_checkpoint(tmp_path / "m.smk"),
                            embed_dim=2 ** 30, n_heads=1)
        script = textwrap.dedent("""
            import resource, sys
            resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))
            from segkit.checkpoint import load_model_checkpoint
            from segkit.cli import main
            from segkit.errors import ConfigInvalidError
            try:
                load_model_checkpoint(sys.argv[1])
            except ConfigInvalidError as exc:
                print("refused:", exc)
            sys.exit(main(["eval", "--checkpoint", sys.argv[1], "--data", sys.argv[2],
                           "--out", sys.argv[3]]))
            """)
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                            os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", script, str(path),
                               str(dataset / "manifest.tsv"), str(tmp_path / "ev")],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2, proc.stderr
        assert re.match(rf"refused: {re.escape(str(path))}: '[\w.]+' has shape \(\d+(, \d+)*\), "
                        rf"its config builds \(.*1073741824", proc.stdout), proc.stdout
        assert "its config builds" in proc.stderr and not (tmp_path / "ev").exists()

    def test_incomplete_per_head_checkpoint_is_config_error(self, tmp_path):
        legacy, blob = self._per_head_blob(tmp_path, build_model(self.CFG))
        del blob["b1.h0.wv"]
        save_checkpoint(legacy, blob)
        with pytest.raises(ConfigInvalidError):
            load_model_checkpoint(legacy)


class TestCheckpointConfig:
    """The ``config.*`` entries a checkpoint carries: round trip, byte layout
    and malformed checkpoints."""

    # every field differs from its default; residual_eps is exact in f32
    MODEL = ModelConfig(patch_size=8, embed_dim=24, n_blocks=3, n_heads=3, n_classes=4,
                        use_csec=True, use_rope=False, window=0, seed=9)
    CSEC = CsecConfig(feat_channels=5, hidden=7, kernel=5, residual_eps=2.0 ** -9)
    MODEL_FIELDS = ("patch_size", "embed_dim", "n_blocks", "n_heads", "n_classes",
                    "use_csec", "use_rope", "window", "seed")
    CSEC_FIELDS = ("feat_channels", "hidden", "kernel", "residual_eps")

    def _model(self):
        return build_model(self.MODEL, csec_params=init_csec(self.CSEC, seed=3),
                           csec_config=self.CSEC)

    def test_non_default_configs_round_trip(self, tmp_path):
        for cfg in (self.MODEL, self.CSEC):
            assert all(getattr(cfg, f.name) != f.default for f in fields(cfg))
        model = self._model()
        save_model_checkpoint(tmp_path / "m.smk", model)
        back = load_model_checkpoint(tmp_path / "m.smk")
        save_csec_checkpoint(tmp_path / "c.smk", model.csec_params, self.CSEC)
        params, csec_cfg = load_csec_checkpoint(tmp_path / "c.smk")
        for got, want in ((back.config, self.MODEL), (back.csec_config, self.CSEC),
                          (csec_cfg, self.CSEC)):
            assert got == want
            assert [type(getattr(got, f.name)) for f in fields(got)] == \
                [type(getattr(want, f.name)) for f in fields(want)]
        assert set(back.params) == set(model.params)
        assert set(back.csec_params) == set(params) == set(model.csec_params)

    def test_default_corrector_config_reads_back_as_written(self, tmp_path):
        # residual_eps = 1e-4 is not exact in f32: its entry once loaded as
        # the f64 widening of that f32, 9.999999747378752e-05
        save_csec_checkpoint(tmp_path / "c.smk", init_csec(CsecConfig(), seed=0), CsecConfig())
        assert load_csec_checkpoint(tmp_path / "c.smk")[1] == CsecConfig()
        save_model_checkpoint(tmp_path / "m.smk",
                              build_model(replace(TestModelCheckpoint.CFG, use_csec=True)))
        assert load_model_checkpoint(tmp_path / "m.smk").csec_config == CsecConfig()

    def test_bytes_match_hand_built_layout(self, tmp_path):
        model = self._model()
        blob = dict(model.params)
        blob["config.kind"] = np.array(0.0)
        blob.update({"config." + n: np.array(getattr(self.MODEL, n), dtype=np.float32)
                     for n in self.MODEL_FIELDS})
        blob.update({"csec." + k: t for k, t in model.csec_params.items()})
        blob.update({"config.csec." + n: np.array(getattr(self.CSEC, n), dtype=np.float32)
                     for n in self.CSEC_FIELDS})
        save_checkpoint(tmp_path / "hand.smk", blob)
        save_model_checkpoint(tmp_path / "m.smk", model)
        assert (tmp_path / "m.smk").read_bytes() == (tmp_path / "hand.smk").read_bytes()

        blob = dict(model.csec_params)
        blob["config.kind"] = np.array(1.0)
        blob.update({"config." + n: np.array(getattr(self.CSEC, n), dtype=np.float32)
                     for n in self.CSEC_FIELDS})
        save_checkpoint(tmp_path / "hand_c.smk", blob)
        save_csec_checkpoint(tmp_path / "c.smk", model.csec_params, self.CSEC)
        assert (tmp_path / "c.smk").read_bytes() == (tmp_path / "hand_c.smk").read_bytes()

    def test_seed_at_the_f32_bound_round_trips(self, tmp_path):
        for seed in (2 ** 24, -2 ** 24):
            cfg = replace(TestModelCheckpoint.CFG, seed=seed)
            save_model_checkpoint(tmp_path / "m.smk", build_model(cfg))
            assert load_model_checkpoint(tmp_path / "m.smk").config == cfg

    # an entry is typed as a config line holding its stored value would be,
    # so a value such a line is refused for is refused here too, not rounded
    LENIENT = [("n_blocks", 2.5), ("window", 2.9), ("use_rope", 0.5), ("use_rope", 7.0)]

    @pytest.mark.parametrize("name, value", LENIENT,
                             ids=["n_blocks=2.5", "window=2.9", "use_rope=0.5", "use_rope=7"])
    def test_entry_no_config_line_could_hold_exits_2(self, tmp_path, dataset, capsys, name,
                                                     value):
        path = tmp_path / "m.smk"
        save_model_checkpoint(path, build_model(TestModelCheckpoint.CFG))
        blob = load_checkpoint(path)
        blob["config." + name] = Tensor(np.array(value, dtype=np.float32))
        save_checkpoint(path, blob)
        code = main(["eval", "--checkpoint", str(path), "--data",
                     str(dataset / "manifest.tsv"), "--out", str(tmp_path / "ev")])
        assert code == 2
        assert f"error: {path}: bad 'config.{name}'" in capsys.readouterr().err
        assert not (tmp_path / "ev").exists()

    def test_wrong_kind_is_config_error(self, tmp_path):
        model = self._model()
        save_model_checkpoint(tmp_path / "m.smk", model)
        save_csec_checkpoint(tmp_path / "c.smk", model.csec_params, self.CSEC)
        with pytest.raises(ConfigInvalidError):
            load_csec_checkpoint(tmp_path / "m.smk")
        with pytest.raises(ConfigInvalidError):
            load_model_checkpoint(tmp_path / "c.smk")

    def test_missing_model_config_entry_exits_2(self, tmp_path, dataset, capsys):
        path = tmp_path / "m.smk"
        save_model_checkpoint(path, build_model(TestModelCheckpoint.CFG))
        blob = load_checkpoint(path)
        del blob["config.seed"]
        save_checkpoint(path, blob)
        code = main(["eval", "--checkpoint", str(path), "--data",
                     str(dataset / "manifest.tsv"), "--out", str(tmp_path / "ev")])
        assert code == 2
        assert "config.seed" in capsys.readouterr().err
        blob["config.seed"] = Tensor(np.zeros(2))
        save_checkpoint(path, blob)
        with pytest.raises(ConfigInvalidError, match="config.seed"):
            load_model_checkpoint(path)

    @pytest.mark.parametrize("use_rope", [True, False])
    def test_checkpoint_without_window_attends_globally(self, tmp_path, use_rope):
        # checkpoints written before windowed attention carry no config.window;
        # they load as window 0 and predict bitwise as global attention does
        cfg = ModelConfig(patch_size=4, embed_dim=16, n_blocks=2, n_heads=2, n_classes=3,
                          use_rope=use_rope, window=0, seed=7)
        model = build_model(cfg)
        path = tmp_path / "m.smk"
        save_model_checkpoint(path, model)
        blob = load_checkpoint(path)
        del blob["config.window"]
        save_checkpoint(path, blob)
        back = load_model_checkpoint(path)
        assert back.config == cfg and back.config.window == 0
        imgs = SplitMix64(3).uniform_array((2, 3, 32, 32), 0, 1)
        assert np.array_equal(back.forward(imgs).data, model.forward(imgs).data)
        windowed = build_model(ModelConfig(**dict(vars(cfg), window=4)))
        assert not np.array_equal(windowed.forward(imgs).data, model.forward(imgs).data)

    def test_non_scalar_kind_exits_2(self, tmp_path, dataset, capsys):
        model = self._model()
        save_model_checkpoint(tmp_path / "m.smk", model)
        save_csec_checkpoint(tmp_path / "c.smk", model.csec_params, self.CSEC)
        for name in ("m.smk", "c.smk"):
            blob = load_checkpoint(tmp_path / name)
            blob["config.kind"] = Tensor(np.zeros(2))
            save_checkpoint(tmp_path / name, blob)
        assert main(["eval", "--checkpoint", str(tmp_path / "m.smk"), "--data",
                     str(dataset / "manifest.tsv"), "--out", str(tmp_path / "ev")]) == 2
        assert main(["correct", "--checkpoint", str(tmp_path / "c.smk"),
                     "--in", str(dataset / "images" / "s0000.ppm"),
                     "--out", str(tmp_path / "out.ppm")]) == 2
        assert capsys.readouterr().err.count("config.kind") == 2

    def test_use_csec_without_csec_entries_exits_2(self, tmp_path, dataset, capsys):
        path = tmp_path / "m.smk"
        save_model_checkpoint(path, build_model(TestModelCheckpoint.CFG))
        blob = load_checkpoint(path)
        blob["config.use_csec"] = Tensor(np.array(1.0, dtype=np.float32))
        save_checkpoint(path, blob)
        code = main(["eval", "--checkpoint", str(path), "--data",
                     str(dataset / "manifest.tsv"), "--out", str(tmp_path / "ev")])
        assert code == 2
        assert "use_csec" in capsys.readouterr().err

    def test_missing_csec_config_entry_exits_2(self, tmp_path, dataset, capsys):
        path = tmp_path / "c.smk"
        save_csec_checkpoint(path, init_csec(CsecConfig(), seed=0))
        blob = load_checkpoint(path)
        del blob["config.hidden"]
        save_checkpoint(path, blob)
        code = main(["correct", "--checkpoint", str(path),
                     "--in", str(dataset / "images" / "s0000.ppm"),
                     "--out", str(tmp_path / "out.ppm")])
        assert code == 2
        assert "config.hidden" in capsys.readouterr().err

    # a misspelled entry would otherwise load as the field's default
    @pytest.mark.parametrize("use_csec, name", [
        (False, "config.windw"), (False, "config.csec.hidden"), (True, "config.csec.hiden")],
        ids=["model", "csec-entry-without-csec", "csec-of-model"])
    def test_unknown_model_config_entry_exits_2(self, tmp_path, dataset, capsys, use_csec,
                                                name):
        path = tmp_path / "m.smk"
        save_model_checkpoint(path, build_model(replace(TestModelCheckpoint.CFG,
                                                        use_csec=use_csec)))
        blob = load_checkpoint(path)
        blob[name] = Tensor(np.array(2.0, dtype=np.float32))
        save_checkpoint(path, blob)
        code = main(["eval", "--checkpoint", str(path), "--data",
                     str(dataset / "manifest.tsv"), "--out", str(tmp_path / "ev")])
        assert code == 2
        assert repr(name) in capsys.readouterr().err
        with pytest.raises(ConfigInvalidError, match=name):
            load_model_checkpoint(path)

    def test_unknown_csec_config_entry_exits_2(self, tmp_path, dataset, capsys):
        path = tmp_path / "c.smk"
        save_csec_checkpoint(path, init_csec(CsecConfig(), seed=0))
        blob = load_checkpoint(path)
        blob["config.hiden"] = Tensor(np.array(4.0, dtype=np.float32))
        save_checkpoint(path, blob)
        code = main(["correct", "--checkpoint", str(path),
                     "--in", str(dataset / "images" / "s0000.ppm"),
                     "--out", str(tmp_path / "out.ppm")])
        assert code == 2
        assert "'config.hiden'" in capsys.readouterr().err
        with pytest.raises(ConfigInvalidError, match="config.hiden"):
            load_csec_checkpoint(path)

    # each parameter is checked by name and shape against what the stored
    # config builds; an extra name is refused too, since no code would read it
    @pytest.mark.parametrize("name, value", [
        ("dec.w3", None), ("dec.w3", np.zeros((3, 16, 3, 2))), ("dec.w4", np.zeros(1))],
        ids=["missing", "wrong-shape", "unknown"])
    def test_csec_parameter_mismatch_exits_2(self, tmp_path, dataset, capsys, name, value):
        path = tmp_path / "c.smk"
        save_csec_checkpoint(path, init_csec(CsecConfig(), seed=0))
        blob = load_checkpoint(path)
        if value is None:
            del blob[name]
        else:
            blob[name] = Tensor(value)
        save_checkpoint(path, blob)
        code = main(["correct", "--checkpoint", str(path),
                     "--in", str(dataset / "images" / "s0000.ppm"),
                     "--out", str(tmp_path / "out.ppm")])
        assert code == 2
        assert repr(name) in capsys.readouterr().err
        with pytest.raises(ConfigInvalidError, match=name):
            load_csec_checkpoint(path)

    @pytest.mark.parametrize("name, value", [
        ("head.w", None), ("head.w", np.zeros((5, 3))), ("b2.wqkv", np.zeros((16, 48))),
        ("csec.dec.w3", None), ("csec.fuse.gx", np.zeros(2))],
        ids=["missing", "wrong-shape", "unknown", "csec-missing", "csec-wrong-shape"])
    def test_model_parameter_mismatch_exits_2(self, tmp_path, dataset, capsys, name, value):
        path = tmp_path / "m.smk"
        cfg = replace(TestModelCheckpoint.CFG, use_csec=True)
        save_model_checkpoint(path, build_model(cfg))
        blob = load_checkpoint(path)
        if value is None:
            del blob[name]
        else:
            blob[name] = Tensor(value)
        save_checkpoint(path, blob)
        code = main(["eval", "--checkpoint", str(path), "--data",
                     str(dataset / "manifest.tsv"), "--out", str(tmp_path / "ev")])
        assert code == 2
        assert repr(name) in capsys.readouterr().err
        with pytest.raises(ConfigInvalidError, match=name):
            load_model_checkpoint(path)

    @pytest.mark.parametrize("shape, message", [((2 ** 31, 2 ** 31, 4), "checkpoint ended early"),
                                                ((3, 0), "checkpoint tensor 'w' has a zero extent")],
                             ids=["product-overflows-int64", "zero-extent"])
    def test_bad_extents_exit_3(self, tmp_path, dataset, capsys, shape, message):
        path = tmp_path / "m.smk"
        path.write_bytes(b"SMK1" + struct.pack("<II", 1, 1) + b"w"
                         + struct.pack(f"<{1 + len(shape)}I", len(shape), *shape) + bytes(64))
        with pytest.raises(MalformedFileError, match=f"^{re.escape(f'{path}: {message}')}"):
            load_checkpoint(path)
        code = main(["eval", "--checkpoint", str(path), "--data",
                     str(dataset / "manifest.tsv"), "--out", str(tmp_path / "ev")])
        assert code == 3
        assert "checkpoint" in capsys.readouterr().err

    def test_non_utf8_tensor_name_exits_3(self, tmp_path, dataset, capsys):
        path = tmp_path / "m.smk"
        save_model_checkpoint(path, build_model(TestModelCheckpoint.CFG))
        blob = load_checkpoint(path)
        blob["zz"] = Tensor(np.zeros(1))
        save_checkpoint(path, blob)
        data = path.read_bytes()
        assert data.count(b"zz") == 1
        path.write_bytes(data.replace(b"zz", b"\xff\xfe"))
        with pytest.raises(MalformedFileError, match=r"tensor name b'\\xff\\xfe' is not utf-8$"):
            load_checkpoint(path)
        code = main(["eval", "--checkpoint", str(path), "--data",
                     str(dataset / "manifest.tsv"), "--out", str(tmp_path / "ev")])
        assert code == 3
        capsys.readouterr()


class TestMixedImageSizes:
    """A sample whose image and mask differ in size, or are of another size
    than its split's first sample, ends in a typed error naming it, not in
    numpy's concatenation error."""

    @pytest.fixture(params=[("val", "image", 0), ("val", "mask", 0), ("train", "image", 0),
                            ("val", "both", 1), ("train", "both", 2)],
                    ids=["val-image", "val-mask", "train-image", "second-val-pair",
                         "third-train-pair"])
    def odd(self, request, dataset):
        """Rewrite a split's index-th sample's image, mask or both at 20x20
        and return its record."""
        split, part, index = request.param
        r = [r for r in load_manifest(dataset / "manifest.tsv") if r.split == split][index]
        if part in ("image", "both"):
            write_pnm(r.image_path, np.full((1, 3, 20, 20), 0.5))
        if part in ("mask", "both"):
            write_pnm(r.mask_path, np.zeros((20, 20), dtype=np.int64))
        return r

    def _assert_named(self, err, r):
        assert r.sample_id in err and r.image_path in err
        assert "concatenation" not in err and "same shape" not in err

    def test_train_exits_2_naming_the_sample(self, tmp_path, dataset, odd, capsys):
        cfg = tmp_path / "train.cfg"
        cfg.write_text(TRAIN)
        assert main(["train", "--config", str(cfg), "--data", str(dataset / "manifest.tsv"),
                     "--out", str(tmp_path / "run")]) == 2
        self._assert_named(capsys.readouterr().err, odd)

    def test_eval_exits_2_naming_the_sample(self, tmp_path, dataset, trained, odd, capsys):
        assert main(["eval", "--checkpoint", str(trained / "checkpoint.smk"),
                     "--data", str(dataset / "manifest.tsv"), "--split", odd.split,
                     "--out", str(tmp_path / "ev")]) == 2
        self._assert_named(capsys.readouterr().err, odd)


class TestMaskClassIds:
    """A mask holding a class id the model has no logit for is refused,
    naming the sample and its mask file, before any training or prediction
    and before train writes its output directory."""

    @pytest.fixture()
    def bad(self, request, dataset):
        """Give the first record of the split that request.param names a
        mask pixel of class 5, with n_classes 3; return that record."""
        r = next(r for r in load_manifest(dataset / "manifest.tsv") if r.split == request.param)
        mask = read_pnm(r.mask_path).astype(np.int64)
        mask[3, 7] = 5
        write_pnm(r.mask_path, mask)
        return r

    @pytest.mark.parametrize("bad", ["train", "val"], indirect=True)
    def test_train_exits_2_naming_the_mask_before_writing(self, tmp_path, dataset, bad,
                                                          monkeypatch, capsys):
        def no_training(*args, **kwargs):
            raise AssertionError("trained on a mask holding class 5")

        monkeypatch.setattr(cli, "train_with_denoise", no_training)
        cfg = tmp_path / "train.cfg"
        cfg.write_text(TRAIN)
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--data", str(dataset / "manifest.tsv"),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"sample {bad.sample_id!r}" in err and bad.mask_path in err
        assert "class 5, outside [0,3)" in err
        assert not out.exists()

    @pytest.mark.parametrize("bad", ["val"], indirect=True)
    def test_eval_exits_2_naming_the_mask_before_predicting(self, tmp_path, dataset, trained,
                                                            bad, monkeypatch, capsys):
        def no_prediction(*args, **kwargs):
            raise AssertionError("predicted for a mask holding class 5")

        monkeypatch.setattr(cli, "_predict_masks", no_prediction)
        out = tmp_path / "ev"
        assert main(["eval", "--checkpoint", str(trained / "checkpoint.smk"),
                     "--data", str(dataset / "manifest.tsv"), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"sample {bad.sample_id!r}" in err and bad.mask_path in err
        assert "class 5, outside [0,3)" in err
        assert not out.exists()


class TestErrorsNameTheirFile:
    """Config, spec and manifest errors start with the file they are in; the
    exit codes stay those of their classes."""

    @pytest.mark.parametrize("key, line, message", [
        ("epochs", "epochs = x", "bad value for 'epochs'"),
        ("use_rope", "use_rope = maybe", "bad value for 'use_rope'"),
        ("image_size", "image_size = 16, 16", "unknown config keys: ['image_size']"),
        ("windw", "windw = 2", "unknown config keys: ['windw']"),
        ("n_blocks", "n_blocks = 0", "need n_blocks >= 1 and n_classes >= 2")],
        ids=["bad-int", "bad-bool", "removed-key", "unknown-key", "post-init"])
    def test_train_config(self, tmp_path, dataset, capsys, key, line, message):
        lines = [ln for ln in TRAIN.strip().splitlines() if not ln.startswith(key + " ")]
        cfg = tmp_path / "train.cfg"
        cfg.write_text("\n".join(lines + [line]) + "\n")
        assert main(["train", "--config", str(cfg), "--data", str(dataset / "manifest.tsv"),
                     "--out", str(tmp_path / "run")]) == 2
        assert f"error: {cfg}: {message}" in capsys.readouterr().err

    def test_synth_spec(self, tmp_path, capsys):
        spec = tmp_path / "spec.cfg"
        spec.write_text(SPEC + "corruption = fog\n")
        assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "x")]) == 2
        assert f"error: {spec}: unknown corruption 'fog'" in capsys.readouterr().err

    def test_synth_spec_image_size(self, tmp_path, capsys):
        spec = tmp_path / "spec.cfg"
        spec.write_text(SPEC.replace("image_size = 16, 16", "image_size = 16, 16, 16"))
        assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "x")]) == 2
        assert f"error: {spec}: image_size must hold 2 extents" in capsys.readouterr().err

    def test_model_checkpoint(self, tmp_path, dataset, capsys):
        path = tmp_path / "m.smk"
        save_model_checkpoint(path, build_model(TestModelCheckpoint.CFG))
        blob = load_checkpoint(path)
        blob["config.n_blocks"] = Tensor(np.zeros((), dtype=np.float32))
        save_checkpoint(path, blob)
        assert main(["eval", "--checkpoint", str(path), "--data",
                     str(dataset / "manifest.tsv"), "--out", str(tmp_path / "ev")]) == 2
        assert f"error: {path}: need n_blocks >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("line, message", [
        ("s0\timages/s0.ppm\tmasks/s0.pgm\n", "line 2: expected 5 fields, got 3"),
        ("s0\timages/s0.ppm\tmasks/s0.pgm\tr\tholdout\n", "line 2: unknown split 'holdout'")],
        ids=["three-fields", "unknown-split"])
    def test_manifest(self, tmp_path, capsys, line, message):
        cfg = tmp_path / "train.cfg"
        cfg.write_text(TRAIN)
        manifest = tmp_path / "manifest.tsv"
        manifest.write_text("# sample_id\timage_path\tmask_path\trobot_id\tsplit\n" + line)
        assert main(["train", "--config", str(cfg), "--data", str(manifest),
                     "--out", str(tmp_path / "run")]) == 3
        assert f"error: {manifest}: {message}" in capsys.readouterr().err


class TestBinaryReadersNameTheirFile:
    """Checkpoint and PNM errors start with the file they are in, keeping
    their classes and exit codes; a checkpoint with bytes after its last
    tensor, or naming one tensor twice, is refused."""

    @pytest.mark.parametrize("data, message", [
        (b"XXXX" + bytes(8), "bad checkpoint magic b'XXXX'"),
        (b"SMK1\x01\x00", "checkpoint ended early, 4 bytes wanted")],
        ids=["magic", "truncated"])
    def test_eval_checkpoint_exits_3(self, tmp_path, dataset, capsys, data, message):
        path = tmp_path / "bad.smk"
        path.write_bytes(data)
        assert main(["eval", "--checkpoint", str(path), "--data",
                     str(dataset / "manifest.tsv"), "--out", str(tmp_path / "ev")]) == 3
        assert f"error: {path}: {message}" in capsys.readouterr().err

    def test_trailing_bytes_exit_3(self, tmp_path, dataset, capsys):
        path = tmp_path / "m.smk"
        save_model_checkpoint(path, build_model(TestModelCheckpoint.CFG))
        path.write_bytes(path.read_bytes() + bytes(29))
        with pytest.raises(MalformedFileError, match=re.escape(
                f"{path}: 29 bytes after the last tensor")):
            load_checkpoint(path)
        assert main(["eval", "--checkpoint", str(path), "--data",
                     str(dataset / "manifest.tsv"), "--out", str(tmp_path / "ev")]) == 3
        assert f"error: {path}: 29 bytes after the last tensor" in capsys.readouterr().err
        assert not (tmp_path / "ev").exists()

    def test_repeated_tensor_name_exits_3(self, tmp_path, dataset, capsys):
        # the second 'head.b' once replaced the first on load
        path, extra = tmp_path / "m.smk", tmp_path / "extra.smk"
        save_model_checkpoint(path, build_model(TestModelCheckpoint.CFG))
        save_checkpoint(extra, {"head.b": np.full(3, 7.0)})
        data = path.read_bytes()
        (count,) = struct.unpack("<I", data[4:8])
        path.write_bytes(data[:4] + struct.pack("<I", count + 1) + data[8:]
                         + extra.read_bytes()[8:])
        message = f"{path}: checkpoint names tensor 'head.b' twice"
        with pytest.raises(MalformedFileError, match=f"^{re.escape(message)}$"):
            load_checkpoint(path)
        assert main(["eval", "--checkpoint", str(path), "--data",
                     str(dataset / "manifest.tsv"), "--out", str(tmp_path / "ev")]) == 3
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "ev").exists()

    def test_correct_truncated_input_exits_3(self, tmp_path, dataset, capsys):
        ckpt = tmp_path / "csec.smk"
        save_csec_checkpoint(ckpt, init_csec(CsecConfig(), seed=0), CsecConfig())
        src = tmp_path / "cut.ppm"
        src.write_bytes(b"P6\n4 4\n255\n\x00\x00")
        assert main(["correct", "--checkpoint", str(ckpt), "--in", str(src),
                     "--out", str(tmp_path / "o.ppm")]) == 3
        assert f"error: {src}: raster has 2 bytes, needs 48" in capsys.readouterr().err

    def test_eval_truncated_mask_exits_3(self, tmp_path, dataset, trained, capsys):
        r = next(r for r in load_manifest(dataset / "manifest.tsv") if r.split == "val")
        pathlib.Path(r.mask_path).write_bytes(b"P5\n16 16\n255\n\x00")
        assert main(["eval", "--checkpoint", str(trained / "checkpoint.smk"),
                     "--data", str(dataset / "manifest.tsv"),
                     "--out", str(tmp_path / "ev")]) == 3
        assert f"error: {r.mask_path}: raster has 1 bytes, needs 256" in capsys.readouterr().err


class TestCsecConfigInCheckpoints:
    """A corrector config outside CsecConfig's checks is refused on load,
    naming the file, before any image is written."""

    BAD = [("residual_eps", 0.6), ("kernel", 4.0), ("hidden", 0.0)]

    @pytest.mark.parametrize("field, value", BAD, ids=[f for f, _ in BAD])
    def test_correct_exits_2(self, tmp_path, dataset, capsys, field, value):
        path = tmp_path / "c.smk"
        save_csec_checkpoint(path, init_csec(CsecConfig(), seed=0))
        blob = load_checkpoint(path)
        blob["config." + field] = Tensor(np.array(value, dtype=np.float32))
        save_checkpoint(path, blob)
        out = tmp_path / "out.ppm"
        assert main(["correct", "--checkpoint", str(path),
                     "--in", str(dataset / "images" / "s0000.ppm"), "--out", str(out)]) == 2
        assert f"error: {path}: {field} must" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("field, value", BAD, ids=[f for f, _ in BAD])
    def test_eval_of_a_model_with_a_corrector_exits_2(self, tmp_path, dataset, capsys,
                                                      field, value):
        path = tmp_path / "m.smk"
        save_model_checkpoint(path, build_model(replace(TestModelCheckpoint.CFG, use_csec=True)))
        blob = load_checkpoint(path)
        blob["config.csec." + field] = Tensor(np.array(value, dtype=np.float32))
        save_checkpoint(path, blob)
        assert main(["eval", "--checkpoint", str(path), "--data",
                     str(dataset / "manifest.tsv"), "--out", str(tmp_path / "ev")]) == 2
        assert f"error: {path}: {field} must" in capsys.readouterr().err

    @pytest.mark.parametrize("use_csec, want", [(False, "True but CSEC parameters are missing"),
                                                (True, "False but CSEC parameters are given")],
                             ids=["set_on_a_plain_model", "cleared_on_a_corrected_model"])
    def test_use_csec_disagreeing_with_the_tensors_names_the_file(self, tmp_path, dataset,
                                                                   capsys, use_csec, want):
        path = tmp_path / "m.smk"
        save_model_checkpoint(path, build_model(replace(TestModelCheckpoint.CFG,
                                                        use_csec=use_csec)))
        blob = load_checkpoint(path)
        blob["config.use_csec"] = Tensor(np.array(not use_csec, dtype=np.float32))
        save_checkpoint(path, blob)
        assert main(["eval", "--checkpoint", str(path), "--data",
                     str(dataset / "manifest.tsv"), "--out", str(tmp_path / "ev")]) == 2
        assert capsys.readouterr().err == f"error: {path}: use_csec is {want}\n"
        assert not (tmp_path / "ev").exists()


class TestNonFiniteCheckpointValues:
    """A NaN or inf parameter value is malformed checkpoint content: it is
    refused on load, naming the file and the tensor, and exits 3, where it
    would otherwise load and predict garbage."""

    @staticmethod
    def _spoil(path, name, bad, index=0):
        blob = load_checkpoint(path)
        blob[name].data.reshape(-1)[index] = bad
        save_checkpoint(path, blob)

    @pytest.mark.parametrize("name, bad", [("head.w", np.nan), ("b1.ln2.g", np.inf),
                                           ("embed.b", -np.inf)])
    def test_model_checkpoint_exits_3(self, tmp_path, dataset, capsys, name, bad):
        path = tmp_path / "m.smk"
        save_model_checkpoint(path, build_model(TestModelCheckpoint.CFG))
        self._spoil(path, name, bad)
        with pytest.raises(MalformedFileError, match=rf"^{re.escape(str(path))}: {name!r} holds"):
            load_model_checkpoint(path)
        assert main(["eval", "--checkpoint", str(path), "--data",
                     str(dataset / "manifest.tsv"), "--out", str(tmp_path / "ev")]) == 3
        assert f"{path}: {name!r}" in capsys.readouterr().err
        assert not (tmp_path / "ev").exists()

    def test_model_checkpoint_with_a_corrector_exits_3(self, tmp_path, dataset, capsys):
        path = tmp_path / "m.smk"
        save_model_checkpoint(path, build_model(replace(TestModelCheckpoint.CFG, use_csec=True)))
        self._spoil(path, "csec.ed.w2", np.nan, index=5)
        with pytest.raises(MalformedFileError, match="'csec.ed.w2' holds a non-finite value$"):
            load_model_checkpoint(path)
        assert main(["eval", "--checkpoint", str(path), "--data",
                     str(dataset / "manifest.tsv"), "--out", str(tmp_path / "ev")]) == 3
        assert f"{path}: 'csec.ed.w2'" in capsys.readouterr().err

    @pytest.mark.parametrize("name, bad", [("cose.t1", np.nan), ("dec.w3", np.inf),
                                           ("fuse.gd", np.nan)])
    def test_csec_checkpoint_exits_3(self, tmp_path, dataset, capsys, name, bad):
        path = tmp_path / "c.smk"
        save_csec_checkpoint(path, init_csec(CsecConfig(), seed=0))
        self._spoil(path, name, bad)
        with pytest.raises(MalformedFileError, match=rf"^{re.escape(str(path))}: {name!r} holds"):
            load_csec_checkpoint(path)
        out = tmp_path / "out.ppm"
        assert main(["correct", "--checkpoint", str(path),
                     "--in", str(dataset / "images" / "s0000.ppm"), "--out", str(out)]) == 3
        assert f"{path}: {name!r}" in capsys.readouterr().err
        assert not out.exists()


class TestRunRecordArguments:
    """run.json holds every argument of its command, flags included."""

    def test_train(self, tmp_path, dataset, capsys):
        cfg = tmp_path / "train.cfg"
        cfg.write_text(TRAIN.replace("epochs = 2", "epochs = 1"))
        out = tmp_path / "run"
        data = dataset / "manifest.tsv"
        assert main(["train", "--config", str(cfg), "--data", str(data), "--out", str(out),
                     "--svg"]) == 0
        capsys.readouterr()
        assert json.loads((out / "run.json").read_text())["args"] == {
            "config": str(cfg), "data": str(data), "out": str(out), "csec_checkpoint": None,
            "svg": True}

    def test_eval(self, tmp_path, dataset, trained, capsys):
        out = tmp_path / "ev"
        ckpt, data = trained / "checkpoint.smk", dataset / "manifest.tsv"
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(data),
                     "--out", str(out), "--svg"]) == 0
        capsys.readouterr()
        assert json.loads((out / "run.json").read_text())["args"] == {
            "checkpoint": str(ckpt), "data": str(data), "weights": "goose", "split": "val",
            "out": str(out), "svg": True}

    def test_gradcheck(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "run_suite", lambda *a, **k: {"op": 0.0})
        out = tmp_path / "gc"
        assert main(["gradcheck", "--module", "rope", "--trials", "2", "--out", str(out)]) == 0
        capsys.readouterr()
        assert json.loads((out / "run.json").read_text())["args"] == {
            "module": "rope", "trials": 2, "seed": 0, "out": str(out)}


class TestOutputDirectoryOwnership:
    """A command refuses, before any work, an --out directory whose run.json
    records another command or no segkit run, and reruns into its own."""

    def test_eval_into_a_train_run_exits_2(self, tmp_path, dataset, trained, capsys):
        before = {name: (trained / name).read_bytes() for name in ("run.json", "checkpoint.smk")}
        assert main(["eval", "--checkpoint", str(trained / "checkpoint.smk"),
                     "--data", str(dataset / "manifest.tsv"), "--out", str(trained)]) == 2
        assert (f"error: {trained / 'run.json'} records a 'train' run; eval will not write "
                f"over it") in capsys.readouterr().err
        assert {name: (trained / name).read_bytes() for name in before} == before
        assert not (trained / "eval_report.json").exists()

    def test_filter_into_a_synth_dataset_exits_2(self, tmp_path, dataset, capsys):
        pred = tmp_path / "pred"
        pred.mkdir()
        for r in load_manifest(dataset / "manifest.tsv"):
            (pred / (r.sample_id + ".pgm")).write_bytes(pathlib.Path(r.mask_path).read_bytes())
        manifest = (dataset / "manifest.tsv").read_bytes()
        assert main(["filter", "--data", str(dataset / "manifest.tsv"), "--pred", str(pred),
                     "--out", str(dataset)]) == 2
        assert f"{dataset / 'run.json'} records a 'synth' run" in capsys.readouterr().err
        assert (dataset / "manifest.tsv").read_bytes() == manifest
        assert not (dataset / "filter_report.tsv").exists()

    @pytest.mark.parametrize("record", [b"\xff not json", b"[" * 100000, b'["gradcheck"]',
                                        b'{"command": 7}'],
                             ids=["not-utf-8", "nested-too-deep", "not-an-object", "not-a-name"])
    def test_a_run_json_that_is_no_segkit_record_exits_2(self, tmp_path, capsys, record):
        out = tmp_path / "gc"
        out.mkdir()
        (out / "run.json").write_bytes(record)
        assert main(["gradcheck", "--module", "tensor", "--trials", "1", "--out", str(out)]) == 2
        assert f"error: {out / 'run.json'} records no segkit run" in capsys.readouterr().err
        assert (out / "run.json").read_bytes() == record

    def test_eval_reruns_into_its_own_directory(self, tmp_path, dataset, trained, capsys):
        args = ["eval", "--checkpoint", str(trained / "checkpoint.smk"),
                "--data", str(dataset / "manifest.tsv"), "--out", str(tmp_path / "ev")]
        assert main(args) == 0
        first = (tmp_path / "ev" / "eval_report.json").read_bytes()
        assert main(args) == 0
        assert (tmp_path / "ev" / "eval_report.json").read_bytes() == first


README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _readme_exit_codes():
    """Exception class name -> exit code, from the rows of the README's
    exit-code table that name classes."""
    codes = {}
    for line in README.read_text(encoding="utf-8").splitlines():
        row = re.match(r"\|\s*(\d)\s*\|", line)
        if row:
            codes.update({name: int(row.group(1)) for name in re.findall(r"`(\w+Error)`", line)})
    return codes


def _write(tmp, data):
    path = tmp / "f"
    path.write_bytes(data)
    return path


class TestExitCodes:
    """The exit code is the error class's ``exit_code``, as the README's
    table lists it, and ``main`` returns it from its one handler."""

    ERRORS = [SegkitError] + sorted(SegkitError.__subclasses__(), key=lambda c: c.__name__)

    def test_table_names_only_known_classes(self):
        table = _readme_exit_codes()
        known = {c.__name__ for c in self.ERRORS} | {"OSError", "ValueError"}
        assert set(table) <= known
        assert table["SegkitError"] == table["ValueError"] == 2 and table["OSError"] == 3

    def test_errors_module_defines_the_only_exception_classes(self):
        # one class per exit code, and the exit-2 classes code catches by name
        found = {}
        for info in pkgutil.iter_modules(segkit.__path__):
            module = importlib.import_module(f"segkit.{info.name}")
            found.update({obj.__qualname__: obj.__module__ for obj in vars(module).values()
                          if isinstance(obj, type) and issubclass(obj, BaseException)
                          and obj.__module__.startswith("segkit")})
        assert found == dict.fromkeys(["SegkitError", "ShapeMismatchError", "ConfigInvalidError",
                                       "MalformedFileError", "TrainingDivergedError",
                                       "MissingRobotError"], "segkit.errors")

    @pytest.mark.parametrize("cls", ERRORS, ids=[c.__name__ for c in ERRORS])
    def test_every_segkit_error(self, monkeypatch, capsys, cls):
        table = _readme_exit_codes()
        want = table.get(cls.__name__, table["SegkitError"])
        assert cls.exit_code == want

        def fail(*args, **kwargs):
            raise cls("boom")

        monkeypatch.setattr(cli, "run_suite", fail)
        assert main(["gradcheck", "--module", "tensor", "--trials", "1"]) == want
        assert capsys.readouterr().err == "error: boom\n"

    # The raise sites of the classes that went when one class came to stand
    # for each exit code: each fault, the class it raises now and the start
    # of its message, which the change of class left as it was.
    FORMER = {
        "AllClassesExcludedError": (lambda tmp: miou(ConfusionMatrix(2).update(
            np.array([0]), np.array([0])), excluded_classes=(0, 1)),
            SegkitError, "no class with defined IoU remains"),
        "AxisOutOfRangeError": (lambda tmp: permute(Tensor(np.zeros((2, 3))), (0, 0)),
                                ShapeMismatchError, "axes (0, 0) are not a permutation of rank 2"),
        "BadFieldCountError": (lambda tmp: load_manifest(_write(tmp, b"s0\ti\tm\n")),
                               MalformedFileError, "{}: line 1: expected 5 fields, got 3"),
        "BadMagicError": (lambda tmp: read_pnm(_write(tmp, b"P3\n1 1\n255\n0 0 0\n")),
                          MalformedFileError, "{}: unsupported magic b'P3'"),
        "ClassOutOfRangeError": (lambda tmp: ConfusionMatrix(2).update(np.array([3]),
                                                                       np.array([0])),
                                 SegkitError, "class ids must be in [0,2)"),
        "DimNotDivisibleBy4Error": (lambda tmp: axial_angles((0, 0), freq_table(6)),
                                    ShapeMismatchError, "head_dim 6 must be divisible by 4"),
        "DuplicateSampleIdError": (lambda tmp: load_manifest(
            _write(tmp, b"a\ti\tm\tr\ttrain\n" * 2)),
                                   MalformedFileError, "{}: line 2: sample id 'a' repeats line 1"),
        "EmptyDatasetError": (lambda tmp: train_csec([], init_csec(CsecConfig())),
                              ConfigInvalidError, "training set is empty"),
        "EmptyListError": (lambda tmp: quantile_threshold([], 0.5),
                           ShapeMismatchError, "quantile of empty list"),
        "EmptyShapeError": (lambda tmp: Tensor(np.empty((2, 0))),
                            ShapeMismatchError, "zero extent in shape (2, 0)"),
        "InputRangeError": (lambda tmp: csec_correct(Tensor(np.full((1, 3, 8, 8), 1.5)),
                                                     init_csec(CsecConfig()), CsecConfig()),
                            SegkitError, "pixel values [1.5, 1.5] are not all finite and in [0,1]"),
        "MaxvalUnsupportedError": (lambda tmp: read_pnm(_write(tmp, b"P5\n1 1\n99\n\x00")),
                                   MalformedFileError, "{}: maxval 99 unsupported"),
        "NegativeOutputExtentError": (lambda tmp: conv2d(Tensor(np.zeros((1, 1, 2, 2))),
                                                         Tensor(np.zeros((1, 1, 5, 5)))),
                                      ShapeMismatchError, "output -2x-2 for input 2x2"),
        "NoGradientError": (lambda tmp: tsum(Tensor(np.ones(3))).backward(),
                            SegkitError, "backward on a tensor that requires no gradient"),
        "NonFiniteOffsetError": (lambda tmp: offset_conv(
            Tensor(np.zeros((1, 1, 4, 4))), Tensor(np.zeros((1, 1, 3, 3))),
            Tensor(np.full((9, 2), np.nan))),
            SegkitError, "tap offsets contain non-finite values"),
        "NonScalarLossError": (lambda tmp: Tensor(np.ones(3), requires_grad=True).backward(),
                               ShapeMismatchError, "backward needs a scalar loss, got shape (3,)"),
        "NonSquareError": (lambda tmp: sym_norm(Tensor(np.zeros((3, 4)))),
                           ShapeMismatchError, "sym_norm needs square matrices, got (3, 4)"),
        "OddHeadDimError": (lambda tmp: freq_table(7),
                            ShapeMismatchError, "head_dim must be even and >= 2, got 7"),
        "TruncatedError": (lambda tmp: read_pnm(_write(tmp, b"P5\n4")),
                           MalformedFileError, "{}: header ended early"),
        "UnknownSplitError": (lambda tmp: load_manifest(_write(tmp, b"s0\ti\tm\tr\tholdout\n")),
                              MalformedFileError, "{}: line 1: unknown split 'holdout'"),
        "UnscoredRecordError": (lambda tmp: filter_dataset(["s0"], DenoiseConfig()),
                                SegkitError, "record 's0' has no error score"),
    }

    @pytest.mark.parametrize("name", sorted(FORMER))
    def test_every_former_class_site(self, monkeypatch, capsys, tmp_path, name):
        fault, cls, message = self.FORMER[name]
        with pytest.raises(SegkitError) as exc:
            fault(tmp_path)
        assert type(exc.value) is cls
        assert str(exc.value).startswith(message.format(tmp_path / "f"))
        monkeypatch.setattr(cli, "run_suite", lambda *args, **kwargs: fault(tmp_path))
        assert main(["gradcheck", "--module", "tensor", "--trials", "1"]) == cls.exit_code
        assert capsys.readouterr().err == f"error: {exc.value}\n"

    @pytest.mark.parametrize("exc, want", [
        (FileNotFoundError(2, "No such file or directory"), 3), (PermissionError("denied"), 3),
        (ValueError("stray"), 2), (UnicodeDecodeError("utf-8", b"\xff", 0, 1, "bad"), 2)],
        ids=["FileNotFoundError", "PermissionError", "ValueError", "UnicodeDecodeError"])
    def test_other_os_and_value_errors(self, monkeypatch, capsys, exc, want):
        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "run_suite", fail)
        assert main(["gradcheck", "--module", "tensor", "--trials", "1"]) == want
        assert capsys.readouterr().err.startswith("error: ")


def test_bare_import_binds_only_version():
    # each name is imported from its module: the package re-exports none
    script = "import segkit; print(sorted(n for n in vars(segkit) if not n.startswith('_')), " \
             "segkit.__version__)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                                    os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[] 0.1.0\n"
