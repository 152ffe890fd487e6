"""Quantile-based label denoising.

Every training sample is scored by its pixel-wise error rate under the
current model (``ErrorScore``: the sample id and the share of its
pixels not labelled ``IGNORE`` that are wrong); samples strictly above the
nearest-rank quantile of the score distribution (default 97.5th
percentile) are dropped before retraining (``mode = drop_samples``, run by
``segnet.train_with_denoise``).  The other
mode, ``truncate_pixels``, trains once and gives zero loss weight to each
batch's valid pixels whose loss lies strictly above that quantile
(``cross_entropy(truncate=q)``).  A ``segkit train`` config turns
denoising on by setting either field of ``DenoiseConfig``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigInvalidError, SegkitError, ShapeMismatchError
from .metrics import IGNORE

__all__ = [
    "ErrorScore",
    "DenoiseConfig",
    "pixel_error_rate",
    "quantile_threshold",
    "filter_dataset",
]


@dataclass
class ErrorScore:
    sample_id: str
    error_rate: float


@dataclass
class DenoiseConfig:
    quantile: float = 0.975
    mode: str = "drop_samples"  # or "truncate_pixels"

    def __post_init__(self):
        if not 0.0 < self.quantile < 1.0:
            raise ConfigInvalidError(f"quantile must be in (0,1), got {self.quantile}")
        if self.mode not in ("drop_samples", "truncate_pixels"):
            raise ConfigInvalidError(f"unknown mode {self.mode!r}")


def pixel_error_rate(pred, gt) -> float:
    """Fraction of pixels not labelled IGNORE where prediction and truth
    differ; 0 by convention when every pixel is IGNORE."""
    pred = np.asarray(pred)
    gt = np.asarray(gt)
    if pred.shape != gt.shape:
        raise ShapeMismatchError(f"pred {pred.shape} vs gt {gt.shape}")
    valid = gt != IGNORE
    n = int(valid.sum())
    if n == 0:
        return 0.0
    return float(np.count_nonzero(pred[valid] != gt[valid])) / n


def quantile_threshold(errors, q: float) -> float:
    """Nearest-rank quantile: the ceil(q*N)-th smallest of the N values
    (1-indexed) of a list or array, read flat."""
    errors = np.asarray(errors).reshape(-1)
    if errors.size == 0:
        raise ShapeMismatchError("quantile of empty list")
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must be in (0,1), got {q}")
    rank = math.ceil(q * errors.size)
    return float(np.partition(errors, rank - 1)[rank - 1])


def filter_dataset(records, config: DenoiseConfig):
    """Keep records with error_rate <= threshold; drop strictly greater.

    Original order is preserved among kept records.
    """
    records = list(records)
    for r in records:
        if getattr(r, "error_rate", None) is None:
            raise SegkitError(f"record {getattr(r, 'sample_id', r)!r} has no error score")
    thresh = quantile_threshold([r.error_rate for r in records], config.quantile)
    return [r for r in records if r.error_rate <= thresh]

