"""segkit: desk-scale toolkit for robust semantic segmentation.

Building blocks: a minimal autodiff tensor library, rotary positional
attention, color-shift correction, quantile label denoising, confusion-
matrix mIoU with per-robot weighting, a toy trainable segmentation model,
and bit-exact PNM/TSV dataset I/O.
"""

from .tensor import Tensor
from .rope import FreqTable, PatchGrid, angles, axial_angles, freq_table, rotate, rope_attention
from .csec import (
    CsecConfig,
    como_fuse,
    cose_forward,
    csec_correct,
    decode,
    init_csec,
    offset_conv,
    self_correlation,
    sym_norm,
    train_csec,
)
from .denoise import (
    DenoiseConfig,
    ErrorScore,
    filter_dataset,
    pixel_error_rate,
    quantile_threshold,
)
from .metrics import GOOSE_WEIGHTS, ConfusionMatrix, class_iou, miou, weighted_miou
from .segnet import (
    Model,
    ModelConfig,
    TrainConfig,
    build_model,
    predict,
    train,
    train_with_denoise,
)
from .dataio import (
    SampleRecord,
    SynthSpec,
    corrupt_gamma_region,
    corrupt_labels,
    load_manifest,
    read_pnm,
    synth_dataset,
    write_pnm,
)
from .checkpoint import load_checkpoint, save_checkpoint

__version__ = "0.1.0"
