"""Command-line entry point for the full pipeline.

Subcommands: synth, train, eval, correct, filter, gradcheck.  Outputs are
files and plain-text reports; every run that writes an output directory
also writes a ``run.json`` provenance record (every argument, the resolved
config, seeds, version) sufficient to reproduce it bitwise; ``correct``,
which writes one image, writes its record beside it as ``<out>.run.json``.
A command refuses, before any work, an output directory whose ``run.json``
another command wrote, and reruns into its own.

Exit codes: 0 ok, 1 check failure, 2 usage error; an error ends ``main``
in its one handler, with a ``SegkitError``'s ``exit_code``, 3 for any other
``OSError`` and 2 for any other ``ValueError``.  A config, spec or manifest
error names its file.

Config files are flat ``key = value`` text; a ``#`` at the start of a line
or after whitespace starts a comment, one inside a value is part of it.  A ``train``
config alone sets its run: its keys are the fields of ``ModelConfig``,
``TrainConfig`` and ``DenoiseConfig``; setting ``mode`` or ``quantile`` turns
denoising on, and ``--csec-checkpoint`` only names the weights of the
corrector ``use_csec = true`` turns on.
"""

import argparse
import json
import os
import re
import sys
from dataclasses import asdict, fields as dc_fields

import numpy as np

from . import __version__
from .checkpoint import load_csec_checkpoint, load_model_checkpoint, save_model_checkpoint
from .csec import CsecConfig, csec_correct, psnr
from .dataio import (
    SPLITS,
    SynthSpec,
    _parse_like,
    _read_kind,
    _text_lines,
    load_manifest,
    load_pairs,
    save_manifest,
    synth_dataset,
    write_pnm,
)
from .denoise import DenoiseConfig, ErrorScore, filter_dataset, pixel_error_rate
from .errors import ConfigInvalidError, SegkitError, ShapeMismatchError
from .gradcheck import SUITES, TOL, run_suite
from .metrics import GOOSE_WEIGHTS, IGNORE, ConfusionMatrix, class_iou, miou, weighted_miou
from .segnet import (
    ModelConfig,
    TrainConfig,
    _check_extent,
    _predict_masks,
    _stack,
    build_model,
    train_with_denoise,
)
from .tensor import no_grad

EXIT_OK = 0
EXIT_CHECK = 1
EXIT_CONFIG = 2
EXIT_IO = 3

__all__ = ["main", "read_config"]


# -- config files ------------------------------------------------------------


# a '#' at the start of a line or after whitespace starts a comment; inside
# a value ('n_classes = 3#4') it is part of the value
_COMMENT = re.compile(r"(?:^|\s)#")


def read_config(path) -> dict:
    """Parse a flat ``key = value`` config file into a str -> str dict; a
    key given twice is refused, not read as its last value."""
    cfg, lines = {}, {}  # lines: key -> its line number
    for lineno, line in enumerate(_text_lines(path, ConfigInvalidError), 1):
        line = _COMMENT.split(line, 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigInvalidError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in lines:
            raise ConfigInvalidError(f"{path}:{lineno}: key {key!r} repeats line {lines[key]}")
        lines[key] = lineno
        cfg[key] = value
    return cfg


def apply_config(path, cfg: dict, *objs):
    """Set the dataclass fields of objs that cfg, read from the file at path,
    names from its string values and rerun each one's ``__post_init__``
    checks.  A value that does not parse, a config its checks refuse and a
    key that no field takes are errors naming path.  Returns objs."""
    try:
        for obj in objs:
            for f in dc_fields(obj):
                if f.name in cfg:
                    try:
                        setattr(obj, f.name, _parse_like(cfg[f.name], getattr(obj, f.name)))
                    except (ValueError, TypeError) as exc:
                        raise ConfigInvalidError(f"bad value for {f.name!r}: {exc}")
            obj.__post_init__()
        unknown = set(cfg) - {f.name for obj in objs for f in dc_fields(obj)}
        if unknown:
            raise ConfigInvalidError(f"unknown config keys: {sorted(unknown)}")
    except ConfigInvalidError as exc:
        raise ConfigInvalidError(f"{path}: {exc}") from None
    return objs


def write_filter_report(out_dir, scores, kept_ids):
    """``filter_report.tsv``: each ErrorScore's id, error rate and status."""
    with open(os.path.join(out_dir, "filter_report.tsv"), "w", encoding="utf-8") as fh:
        fh.write("# sample_id\terror_rate\tstatus\n")
        for s in scores:
            status = "kept" if s.sample_id in kept_ids else "dropped"
            fh.write(f"{s.sample_id}\t{s.error_rate:.6f}\t{status}\n")


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _claim_out(args):
    """Refuse an --out directory whose ``run.json`` records another command,
    or is no segkit run record: a command writes over its own runs only."""
    path = os.path.join(args.out, "run.json")
    try:
        with open(path, "rb") as fh:
            record = json.loads(fh.read())
    except FileNotFoundError:
        return
    except (ValueError, RecursionError):  # not utf-8, not JSON, or nested too deep to parse
        record = None
    command = record.get("command") if isinstance(record, dict) else None
    if command != args.command:
        what = f"a {command!r} run" if isinstance(command, str) else "no segkit run"
        raise SegkitError(f"{path} records {what}; {args.command} will not write over it")


def write_run_record(path, args, resolved: dict):
    """The command, every argument, the resolved config and the version."""
    arg_view = {k: v for k, v in vars(args).items() if k not in ("func", "command")}
    _write_json(path, {"command": args.command, "args": arg_view, "config": resolved,
                       "version": __version__})


# -- SVG curve emission ------------------------------------------------------

_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")


def write_curves_svg(path, series: dict):
    """Plot named float series as polylines in a minimal standalone SVG."""
    width, height, pad = 480, 320, 40
    lines = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>',
             f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" y2="{height - pad}" stroke="black"/>',
             f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="black"/>']
    drawable = {k: v for k, v in series.items() if len(v) >= 1}
    if drawable:
        lo = min(min(v) for v in drawable.values())
        hi = max(max(v) for v in drawable.values())
        span = (hi - lo) or 1.0
        for ci, (name, vals) in enumerate(sorted(drawable.items())):
            color = _SVG_COLORS[ci % len(_SVG_COLORS)]
            n = len(vals)
            pts = []
            for i, v in enumerate(vals):
                x = pad + (width - 2 * pad) * (i / max(n - 1, 1))
                y = height - pad - (height - 2 * pad) * ((v - lo) / span)
                pts.append(f"{x:.1f},{y:.1f}")
            lines.append(f'<polyline points="{" ".join(pts)}" fill="none" stroke="{color}"/>')
            lines.append(f'<text x="{pad + 4}" y="{pad + 14 * (ci + 1)}" '
                         f'fill="{color}" font-size="12">{name}</text>')
        lines.append(f'<text x="{pad}" y="{height - pad + 16}" font-size="10">'
                     f'range [{lo:.4g}, {hi:.4g}]</text>')
    lines.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# -- subcommands -------------------------------------------------------------


def cmd_synth(args) -> int:
    spec, = apply_config(args.spec, read_config(args.spec), SynthSpec())
    os.makedirs(args.out, exist_ok=True)
    records, _ = synth_dataset(spec, args.out)
    write_run_record(os.path.join(args.out, "run.json"), args, asdict(spec))
    print(f"wrote {len(records)} samples to {args.out}")
    return EXIT_OK


def _load_split(manifest, records, split, config, required=True):
    """The records of split, read from the file manifest, and their (image,
    mask) pairs; none is an error naming both if required.  A pair of
    another extent than the split's first mask, or whose mask holds a class
    id outside [0, config.n_classes) other than IGNORE, is an error naming
    its files; so is a split of an extent the model of config does not
    take, found without a forward."""
    chosen = [r for r in records if r.split == split]
    if not chosen:
        if required:
            raise ConfigInvalidError(f"{manifest} has no {split!r} samples")
        return chosen, []
    pairs = load_pairs(chosen)
    hw = pairs[0][1].shape
    for r, (image, mask) in zip(chosen, pairs):
        where = f"sample {r.sample_id!r} ({r.image_path}, {r.mask_path})"
        if image.shape[2:] != hw or mask.shape != hw:
            raise ShapeMismatchError(f"{where}: image {image.shape[2:]}, mask {mask.shape} vs "
                                     f"the {split} split's first mask {hw}")
        if mask.max() >= config.n_classes:
            raise SegkitError(f"{where}: mask holds class {mask.max()}, outside "
                              f"[0,{config.n_classes})")
    try:
        _check_extent(config, *hw)
    except ShapeMismatchError as exc:
        raise ShapeMismatchError(
            f"{exc}; the {split} split of {manifest} holds {hw[0]}x{hw[1]} images, the "
            f"first {chosen[0].image_path} with mask {chosen[0].mask_path}") from None
    return chosen, pairs


def _refuse_unlabelled(manifest, split, pairs, robot=None):
    """Refuse (image, mask) pairs of split, of robot if given, whose masks
    hold no labelled pixel: no class has a defined IoU over them."""
    if not any((mask != IGNORE).any() for _, mask in pairs):
        whose = "" if robot is None else f" of robot {robot!r}"
        raise ConfigInvalidError(f"{manifest}: no mask{whose} in the {split} split holds a "
                                 "labelled pixel, so no class has a defined IoU")


def cmd_train(args) -> int:
    cfg = read_config(args.config)
    mc, tc, dn = apply_config(args.config, cfg, ModelConfig(), TrainConfig(), DenoiseConfig())
    if any(f.name in cfg for f in dc_fields(DenoiseConfig)):
        tc.denoise = dn
    if args.csec_checkpoint and not mc.use_csec:
        raise ConfigInvalidError("--csec-checkpoint needs use_csec = true in the config")
    csec_params, csec_cfg = (load_csec_checkpoint(args.csec_checkpoint) if args.csec_checkpoint
                             else (None, CsecConfig()))
    model = build_model(mc, csec_params=csec_params, csec_config=csec_cfg)

    records = load_manifest(args.data)
    train_records, train_pairs = _load_split(args.data, records, "train", mc)
    _, val_pairs = _load_split(args.data, records, "val", mc, required=False)
    if val_pairs:  # val mIoU pools the split's pixels
        _refuse_unlabelled(args.data, "val", val_pairs)

    samples = [(r.sample_id, img, mask) for r, (img, mask) in zip(train_records, train_pairs)]
    model, report, freport = train_with_denoise(model, samples, tc, val_pairs=val_pairs or None)
    os.makedirs(args.out, exist_ok=True)  # after training, so a refused run writes nothing
    if freport:
        write_filter_report(args.out, freport.scores, set(freport.kept_ids))
    save_model_checkpoint(os.path.join(args.out, "checkpoint.smk"), model)
    with open(os.path.join(args.out, "metrics.tsv"), "w", encoding="utf-8") as fh:
        fh.write("# epoch\tloss\tval_miou\n")
        for i, loss in enumerate(report.losses):
            vm = f"{report.val_mious[i]:.6f}" if i < len(report.val_mious) else "nan"
            fh.write(f"{i}\t{loss:.6f}\t{vm}\n")
    if args.svg:
        curves = {"loss": report.losses}
        if report.val_mious:
            curves["val_miou"] = report.val_mious
        write_curves_svg(os.path.join(args.out, "curves.svg"), curves)
    write_run_record(os.path.join(args.out, "run.json"), args,
                     {"model": asdict(mc), "train": asdict(tc)})
    print(f"final loss {report.losses[-1]:.6f}" +
          (f", val mIoU {report.val_mious[-1]:.4f}" if report.val_mious else ""))
    return EXIT_OK


def cmd_eval(args) -> int:
    model = load_model_checkpoint(args.checkpoint)
    chosen, pairs = _load_split(args.data, load_manifest(args.data), args.split, model.config)
    robot_pairs = {}
    for r, pair in zip(chosen, pairs):
        robot_pairs.setdefault(r.robot_id, []).append(pair)
    for rid, robot in robot_pairs.items():  # each robot's mIoU is its own
        _refuse_unlabelled(args.data, args.split, robot, rid)
    k = model.config.n_classes
    overall, robot_miou = ConfusionMatrix(k), {}
    for rid, robot in sorted(robot_pairs.items()):
        images, masks = _stack(robot)
        cm = ConfusionMatrix(k).update(_predict_masks(model, images), masks)
        overall.merge(cm)
        robot_miou[rid] = miou(cm)
    ious = [class_iou(overall, c) for c in range(k)]
    if args.weights == "goose":
        agg = weighted_miou(robot_miou, GOOSE_WEIGHTS)
    else:
        agg = float(np.mean(list(robot_miou.values())))

    print(f"split {args.split}  samples {len(chosen)}")
    print("class IoU:")
    for c, iou in enumerate(ious):
        print(f"  {c:>3}  {'undefined' if iou is None else f'{iou:.4f}'}")
    print("per-robot mIoU:")
    for rid, v in robot_miou.items():
        print(f"  {rid:<10} {v:.4f}")
    print(f"weighted mIoU ({args.weights}): {agg:.4f}")

    report = {
        "split": args.split,
        "samples": len(chosen),
        "class_iou": ious,
        "per_robot_miou": robot_miou,
        "weighting": args.weights,
        "weighted_miou": agg,
    }
    os.makedirs(args.out, exist_ok=True)
    _write_json(os.path.join(args.out, "eval_report.json"), report)
    if args.svg:
        write_curves_svg(os.path.join(args.out, "eval_curves.svg"),
                         {"class_iou": [v or 0.0 for v in ious]})
    write_run_record(os.path.join(args.out, "run.json"), args, report)
    return EXIT_OK


def cmd_correct(args) -> int:
    params, cfg = load_csec_checkpoint(args.checkpoint)
    image = _read_kind(getattr(args, "in"), image=True)
    clean = _read_kind(args.reference, image=True) if args.reference else None
    if clean is not None and clean.shape != image.shape:
        raise ShapeMismatchError(f"{args.reference}: reference {clean.shape[2]}x{clean.shape[3]} "
                                 f"vs input {image.shape[2]}x{image.shape[3]}")
    with no_grad():
        corrected = csec_correct(image, params, cfg)
    write_pnm(args.out, corrected.data)
    if clean is not None:
        before = psnr(image, clean)
        gain = ("none, the input already matches the reference" if np.isinf(before)
                else f"{psnr(corrected, clean) - before:+.2f} dB")
        print(f"PSNR improvement: {gain}", file=sys.stderr)
    write_run_record(args.out + ".run.json", args, asdict(cfg))
    return EXIT_OK


def cmd_filter(args) -> int:
    try:
        dn = DenoiseConfig(quantile=args.quantile)
    except ConfigInvalidError as exc:
        raise ConfigInvalidError(f"--quantile: {exc}") from None
    records = load_manifest(args.data)
    train_records = [r for r in records if r.split == "train"]
    if not train_records:
        raise ConfigInvalidError(f"{args.data} has no 'train' samples")
    scores = []
    for r in train_records:
        mask = _read_kind(r.mask_path, image=False)
        pred_path = os.path.join(args.pred, r.sample_id + ".pgm")
        pred = _read_kind(pred_path, image=False)
        if pred.shape != mask.shape:
            raise ShapeMismatchError(f"sample {r.sample_id!r} ({pred_path}): prediction "
                                     f"{pred.shape} vs mask {mask.shape}")
        scores.append(ErrorScore(sample_id=r.sample_id, error_rate=pixel_error_rate(pred, mask)))
    kept_ids = {s.sample_id for s in filter_dataset(scores, dn)}
    os.makedirs(args.out, exist_ok=True)
    filtered = [r for r in records if r.split != "train" or r.sample_id in kept_ids]
    save_manifest(os.path.join(args.out, "manifest.tsv"), filtered)
    write_filter_report(args.out, scores, kept_ids)
    write_run_record(os.path.join(args.out, "run.json"), args,
                     {"quantile": args.quantile, "kept": len(kept_ids),
                      "dropped": len(scores) - len(kept_ids)})
    print(f"kept {len(kept_ids)} of {len(scores)} train samples")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    if args.trials < 1:
        raise ConfigInvalidError(f"--trials must be at least 1, got {args.trials}")
    modules = list(SUITES) if args.module == "all" else [args.module]
    if "segnet" in modules:  # its test model takes the seed, which ModelConfig bounds
        try:
            ModelConfig(seed=args.seed)
        except ConfigInvalidError as exc:
            raise ConfigInvalidError(f"--seed: {exc}") from None
    failed = []
    for module in modules:
        results = run_suite(module, trials=args.trials, seed=args.seed)
        for op, err in sorted(results.items()):
            ok = err <= TOL
            print(f"{module:<8} {op:<24} {err:.3e}  {'ok' if ok else 'FAIL'}")
            if not ok:
                failed.append(op)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        write_run_record(os.path.join(args.out, "run.json"), args,
                         {"tolerance": TOL, "failed": failed})
    if failed:
        print(f"FAILED: {', '.join(failed)}", file=sys.stderr)
        return EXIT_CHECK
    return EXIT_OK


# -- argument parsing and dispatch -------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="segkit",
                                     description="Segmentation toolkit pipeline.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--spec", required=True, help="key = value spec file")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train the segmentation model", description=(
        "Train as the config file says; its keys are the fields of ModelConfig, TrainConfig "
        "and DenoiseConfig.  Setting mode (drop_samples or truncate_pixels) or quantile "
        "turns denoising on; use_csec = true puts frozen color correction first."))
    p.add_argument("--config", required=True, help="key = value config file")
    p.add_argument("--data", required=True, help="dataset manifest")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--csec-checkpoint", default=None,
                   help="color-correction weights for use_csec = true "
                        "(default: the identity-initialized corrector)")
    p.add_argument("--svg", action="store_true", help="emit loss/mIoU curves as SVG")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True, help="dataset manifest")
    p.add_argument("--weights", choices=("goose", "uniform"), default="goose")
    p.add_argument("--split", choices=SPLITS, default="val")
    p.add_argument("--out", required=True, help="directory for eval_report.json")
    p.add_argument("--svg", action="store_true",
                   help="emit per-class IoU as an SVG polyline over the class ids")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("correct", help="color-correct one image")
    p.add_argument("--checkpoint", required=True, help="color-correction checkpoint")
    p.add_argument("--in", required=True, help="input P6 image")
    p.add_argument("--out", required=True, help="output P6 image")
    p.add_argument("--reference", default=None,
                   help="clean image; reports PSNR improvement on stderr")
    p.set_defaults(func=cmd_correct)

    p = sub.add_parser("filter", help="quantile-filter a manifest by prediction error")
    p.add_argument("--data", required=True, help="dataset manifest")
    p.add_argument("--pred", required=True,
                   help="directory of predicted masks, <sample_id>.pgm")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--quantile", type=float, default=DenoiseConfig.quantile)
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("gradcheck", help="run finite-difference gradient suites")
    p.add_argument("--module", choices=("all",) + SUITES, default="all")
    p.add_argument("--trials", type=int, default=20,
                   help="random trials per op check; the whole-pipeline checks "
                        "csec_correct.params and segnet.params run once")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="optional directory for run.json")
    p.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        if args.command != "correct" and args.out:  # correct's --out is one image
            _claim_out(args)
        return args.func(args)
    except (SegkitError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", EXIT_IO if isinstance(exc, OSError) else EXIT_CONFIG)


if __name__ == "__main__":
    sys.exit(main())
