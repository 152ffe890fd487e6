"""segkit: desk-scale toolkit for robust semantic segmentation.

Building blocks: a minimal autodiff tensor library, rotary positional
attention, color-shift correction, quantile label denoising, confusion-
matrix mIoU with per-robot weighting, a toy trainable segmentation model,
and bit-exact PNM/TSV dataset I/O.

Importing the package binds only ``__version__``; each name is imported
from its module (``from segkit.rope import rope_attention``).
"""

__version__ = "0.1.0"
