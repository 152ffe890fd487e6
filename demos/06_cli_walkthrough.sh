#!/bin/sh
# End-to-end walkthrough of the segkit command line.
# Synthesizes a dataset, trains, evaluates, corrects an image, filters
# the training split, and runs the gradient checks.
set -eu

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
cd "$WORK"

cat > spec.cfg <<EOF
seed = 5
n_samples = 12
n_val = 4
image_size = 16, 16
n_classes = 3
EOF

cat > train.cfg <<EOF
patch_size = 4
embed_dim = 16
n_blocks = 1
n_heads = 2
n_classes = 3
epochs = 3
learning_rate = 0.001
seed = 0
EOF

echo "== synth =="
segkit synth --spec spec.cfg --out data
head -3 data/manifest.tsv

echo "== train (with quantile filtering and loss curves) =="
cat >> train.cfg <<EOF
mode = drop_samples
quantile = 0.9
EOF
segkit train --config train.cfg --data data/manifest.tsv --out run --svg
ls run

echo "== eval (weighted per-robot aggregation) =="
segkit eval --checkpoint run/checkpoint.smk --data data/manifest.tsv \
    --weights goose --out eval_out

echo "== correct (identity-initialized corrector is a near no-op) =="
python3 - <<'EOF'
from segkit.checkpoint import save_csec_checkpoint
from segkit.csec import CsecConfig, init_csec
from segkit.dataio import corrupt_gamma_region, read_pnm, write_pnm
save_csec_checkpoint("csec.smk", init_csec(CsecConfig(), seed=0), CsecConfig())
clean = read_pnm("data/images/s0000.ppm")[0]
write_pnm("corrupted.ppm", corrupt_gamma_region(clean, 42))
EOF
segkit correct --checkpoint csec.smk --in corrupted.ppm \
    --out corrected.ppm --reference data/images/s0000.ppm

echo "== filter (standalone, using the trained model's predictions) =="
python3 - <<'EOF'
from pathlib import Path
from segkit.checkpoint import load_model_checkpoint
from segkit.dataio import load_manifest, read_pnm, write_pnm
from segkit.segnet import predict
model = load_model_checkpoint("run/checkpoint.smk")
Path("preds").mkdir()
for r in load_manifest("data/manifest.tsv"):
    if r.split == "train":
        import numpy as np
        mask = predict(model, read_pnm(r.image_path)).astype(np.uint8)
        write_pnm(f"preds/{r.sample_id}.pgm", mask)
EOF
segkit filter --data data/manifest.tsv --pred preds --out filtered --quantile 0.9
head -4 filtered/filter_report.tsv

echo "== gradcheck (reduced trial count for speed) =="
segkit gradcheck --module tensor --trials 3

echo "all steps completed"
