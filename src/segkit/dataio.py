"""Dataset I/O and synthetic data generation.

Interchange formats are deliberately minimal and bit-exact:
  - binary PNM images: P6 (RGB, maxval 255) for images, P5 (one byte per
    pixel: class id 0-254, or 255 = unlabelled, read as IGNORE) for masks
  - plain TSV manifests: sample_id, image_path, mask_path, robot_id, split

Synthetic scenes (flat background plus colored rectangles / disks /
triangles, one class per shape) stand in for real outdoor imagery; their
masks are exact by construction.  Corruption generators produce the
exposure-shift and label-noise fixtures used by the correction and
denoising experiments.
"""

import io
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigInvalidError, MalformedFileError, SegkitError
from .metrics import GOOSE_WEIGHTS, IGNORE
from .rng import SplitMix64

__all__ = [
    "SampleRecord",
    "SynthSpec",
    "ROBOTS",
    "read_pnm",
    "write_pnm",
    "load_manifest",
    "save_manifest",
    "load_pairs",
    "synth_dataset",
    "corrupt_gamma_region",
    "corrupt_labels",
]

ROBOTS = list(GOOSE_WEIGHTS)
SPLITS = ("train", "val", "test")


@dataclass
class SampleRecord:
    sample_id: str
    image_path: str
    mask_path: str
    robot_id: str
    split: str


@dataclass
class SynthSpec:
    seed: int = 0
    n_samples: int = 32
    n_val: int = 0
    n_test: int = 0
    image_size: tuple = (48, 48)
    n_classes: int = 3
    shapes_min: int = 1
    shapes_max: int = 3
    noise: float = 0.08
    twin_delta: float = 0.0  # >0: classes 1 and 2 get near-identical colors
    position_banded: bool = False  # each shape class confined to its own horizontal band
    corruption: str = "none"  # none | gamma_region | label_noise
    label_noise_p: float = 0.1

    def __post_init__(self):
        if len(self.image_size) != 2 or min(self.image_size) < 1:
            # read_pnm refuses a zero extent, and numpy a negative one
            raise ConfigInvalidError(f"image_size must hold 2 extents >= 1, got {self.image_size}")
        for name in ("n_samples", "n_val", "n_test", "shapes_min"):
            if getattr(self, name) < 0:
                raise ConfigInvalidError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not 2 <= self.n_classes <= 255:
            raise ConfigInvalidError(f"n_classes must be in [2,255], got {self.n_classes}")
        if not 0.0 <= self.label_noise_p <= 1.0:
            raise ConfigInvalidError("label_noise_p must be in [0,1]")
        for name in ("noise", "twin_delta"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ConfigInvalidError(f"{name} must be finite and >= 0, "
                                         f"got {getattr(self, name)}")
        if self.twin_delta > 0.0 and self.n_classes < 3:
            # class_palette pulls class 2 toward class 1; with 2 classes there is no class 2
            raise ConfigInvalidError(f"twin_delta {self.twin_delta} needs n_classes >= 3, "
                                     f"got {self.n_classes}")
        if self.corruption not in ("none", "gamma_region", "label_noise"):
            raise ConfigInvalidError(f"unknown corruption {self.corruption!r}")
        if self.n_val + self.n_test > self.n_samples:
            raise ConfigInvalidError("n_val + n_test exceeds n_samples")
        if self.shapes_min > self.shapes_max:
            raise ConfigInvalidError(f"shapes_min {self.shapes_min} exceeds "
                                     f"shapes_max {self.shapes_max}")
        if self.shapes_max >= 1:
            # every range _paint_shape draws from must be non-empty in every
            # band (the whole image unless banded): a disk's radius reaches
            # max(3, bh // 4) - 1 and must fit twice in the band and the width
            h, w = self.image_size
            nb = self.n_classes - 1 if self.position_banded else 1
            for bh in sorted({(k + 1) * h // nb - k * h // nb for k in range(nb)}):
                need = 2 * max(3, bh // 4) - 1
                if bh < 5 or w < need:
                    raise ConfigInvalidError(
                        f"band height {bh} of a {h}x{w} image in {nb} band(s) cannot hold a "
                        f"shape: it needs a band height of at least 5 and an image width of "
                        f"at least {need}")


# -- PNM --------------------------------------------------------------------


def _parse_pnm_header(buf: bytes):
    magic = buf[:2]
    if magic not in (b"P5", b"P6"):
        raise MalformedFileError(f"unsupported magic {magic!r}")
    vals = []
    i = 2
    while len(vals) < 3:
        if i >= len(buf):
            raise MalformedFileError("header ended early")
        c = buf[i:i + 1]
        if c in b" \t\r\n":
            i += 1
        elif c == b"#":
            while i < len(buf) and buf[i:i + 1] != b"\n":
                i += 1
        elif c.isdigit():
            j = i
            while j < len(buf) and buf[j:j + 1].isdigit():
                j += 1
            vals.append(int(buf[i:j]))
            i = j
        else:
            raise MalformedFileError(f"unexpected header byte {c!r}")
    if i >= len(buf) or buf[i:i + 1] not in b" \t\r\n":
        raise MalformedFileError("missing whitespace after maxval")
    i += 1
    width, height, maxval = vals
    if width == 0 or height == 0:
        raise MalformedFileError(f"zero extent {width}x{height} in header")
    if maxval != 255:
        raise MalformedFileError(f"maxval {maxval} unsupported")
    return magic, width, height, i


def read_pnm(path):
    """Read a binary PNM file.

    P6 -> f32 ndarray [1,3,H,W], values scaled to [0,1].
    P5 -> uint8 ndarray [H,W] of class ids (unscaled).
    A malformed file is a MalformedFileError naming path.
    """
    with open(path, "rb") as fh:
        buf = fh.read()
    try:
        magic, width, height, start = _parse_pnm_header(buf)
        channels = 3 if magic == b"P6" else 1
        need = width * height * channels
        raster = buf[start:start + need]
        if len(raster) < need:
            raise MalformedFileError(f"raster has {len(raster)} bytes, needs {need}")
    except MalformedFileError as exc:
        raise MalformedFileError(f"{path}: {exc}") from None
    arr = np.frombuffer(raster, dtype=np.uint8)
    if magic == b"P5":
        return arr.reshape(height, width).copy()
    img = arr.reshape(height, width, 3).astype(np.float32) / 255.0
    return img.transpose(2, 0, 1)[None, :, :, :]


def _read_kind(path, image: bool):
    """read_pnm of a P6 image, or of a P5 mask as int64 with 255 read as IGNORE."""
    data = read_pnm(path)
    if (data.ndim == 4) != image:
        raise MalformedFileError(f"{path}: expected a {'P6 image' if image else 'P5 mask'}")
    return data if image else np.where(data == 255, IGNORE, data.astype(np.int64))


def write_pnm(path, data):
    """Write a binary PNM file; the inverse of read_pnm, byte-exact.

    Integer [H,W] arrays, values in [0,255] or IGNORE (written as 255, the
    inverse of _read_kind), become P5 masks; float image arrays ([1,3,H,W]
    or [3,H,W], values in [0,1]) become P6 with round-half-up.
    """
    data = np.asarray(data)
    if data.ndim == 2 and np.issubdtype(data.dtype, np.integer):
        if np.any(((data < 0) & (data != IGNORE)) | (data > 255)):
            raise SegkitError(f"mask values {data.min()}..{data.max()} are neither "
                              f"IGNORE nor in [0,255]")
        h, w = data.shape
        body = np.where(data == IGNORE, 255, data).astype(np.uint8).tobytes()
        header = b"P5\n%d %d\n255\n" % (w, h)
    else:
        if data.ndim == 4:
            data = data[0]
        if data.ndim != 3 or data.shape[0] != 3:
            raise ValueError(f"expected [3,H,W] image, got {data.shape}")
        scaled = np.floor(data.astype(np.float64) * 255.0 + 0.5)
        bytes_img = np.clip(scaled, 0, 255).astype(np.uint8)
        h, w = data.shape[1], data.shape[2]
        body = bytes_img.transpose(1, 2, 0).tobytes()
        header = b"P6\n%d %d\n255\n" % (w, h)
    with open(path, "wb") as fh:
        fh.write(header + body)


# -- manifests --------------------------------------------------------------


def _text_lines(path, error):
    """The lines of the utf-8 text file at path, newlines translated as a
    text-mode read translates them; a byte that is not utf-8 raises
    ``error`` naming the file and the line."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return io.StringIO(raw.decode("utf-8"), newline=None)
    except UnicodeDecodeError as exc:
        lineno = raw.count(b"\n", 0, exc.start) + 1
        raise error(f"{path}: line {lineno} is not utf-8") from None


def _parse_like(text, current):
    """Parse ``text`` with the type of the existing field value ``current``."""
    if isinstance(current, bool):
        low = text.lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ConfigInvalidError(f"expected a boolean, got {text!r}")
    if isinstance(current, int):
        return int(text)
    if isinstance(current, float):
        return float(text)
    if isinstance(current, tuple):
        parts = text.replace(",", " ").split()
        return tuple(int(p) for p in parts)
    if isinstance(current, str):
        return text
    raise TypeError("not settable from a config file")


def load_manifest(path):
    base = os.path.dirname(os.path.abspath(path))
    records = []
    lines = {}  # sample id -> line number: eval, train and filter key samples by id
    for lineno, line in enumerate(_text_lines(path, MalformedFileError), 1):
        line = line.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 5:
            raise MalformedFileError(f"{path}: line {lineno}: expected 5 fields, "
                                     f"got {len(fields)}")
        sid, img, mask, robot, split = fields
        if split not in SPLITS:
            raise MalformedFileError(f"{path}: line {lineno}: unknown split {split!r}")
        if sid in lines:
            raise MalformedFileError(f"{path}: line {lineno}: sample id {sid!r} "
                                     f"repeats line {lines[sid]}")
        lines[sid] = lineno
        records.append(SampleRecord(
            sample_id=sid,
            image_path=img if os.path.isabs(img) else os.path.join(base, img),
            mask_path=mask if os.path.isabs(mask) else os.path.join(base, mask),
            robot_id=robot,
            split=split,
        ))
    return records


def save_manifest(path, records, relative_to=None):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# sample_id\timage_path\tmask_path\trobot_id\tsplit\n")
        for r in records:
            img, mask = r.image_path, r.mask_path
            if relative_to is not None:
                img = os.path.relpath(img, relative_to)
                mask = os.path.relpath(mask, relative_to)
            fh.write(f"{r.sample_id}\t{img}\t{mask}\t{r.robot_id}\t{r.split}\n")


def load_pairs(records):
    """Load (image [1,3,H,W] f32 ndarray, mask [H,W] int64 ndarray) pairs."""
    return [(_read_kind(r.image_path, image=True), _read_kind(r.mask_path, image=False))
            for r in records]


# -- synthetic scenes -------------------------------------------------------


def class_palette(n_classes, twin_delta=0.0):
    """Distinct base colors per class; background (class 0) is mid-gray.

    twin_delta > 0 pulls the colors of classes 1 and 2 within twin_delta of
    each other, so telling them apart needs spatial context, not just color.
    """
    colors = np.zeros((n_classes, 3), dtype=np.float64)
    colors[0] = (0.45, 0.45, 0.45)
    for k in range(1, n_classes):
        hue = ((k - 1) * 0.618033988749895) % 1.0
        colors[k] = _hsv_to_rgb(hue, 0.85, 0.85)
    if twin_delta > 0.0 and n_classes >= 3:
        colors[2] = np.clip(colors[1] + twin_delta, 0.0, 1.0)
    return colors


def _hsv_to_rgb(h, s, v):
    i = int(h * 6.0) % 6
    f = h * 6.0 - int(h * 6.0)
    p, q, t = v * (1 - s), v * (1 - s * f), v * (1 - s * (1 - f))
    return [(v, t, p), (q, v, p), (p, v, t), (p, q, v), (t, p, v), (v, p, q)][i]


def _paint_shape(rng, h, w, y_lo, y_hi):
    """Return a boolean region for one random shape placed within rows
    [y_lo, y_hi)."""
    bh = y_hi - y_lo
    kind = rng.randint(0, 3)
    yy, xx = np.mgrid[0:h, 0:w]
    if kind == 0:  # rectangle
        rh = rng.randint(max(2, bh // 6), max(3, bh // 2))
        rw = rng.randint(max(2, w // 6), max(3, w // 2))
        y0 = y_lo + rng.randint(0, bh - rh)
        x0 = rng.randint(0, w - rw)
        return (yy >= y0) & (yy < y0 + rh) & (xx >= x0) & (xx < x0 + rw)
    if kind == 1:  # disk
        r = rng.randint(max(2, bh // 8), max(3, bh // 4))
        cy = y_lo + rng.randint(r, bh - r)
        cx = rng.randint(r, w - r)
        return (yy - cy) ** 2 + (xx - cx) ** 2 <= r * r
    # triangle: three random vertices, filled via half-plane tests
    pts = [(y_lo + rng.randint(0, bh), rng.randint(0, w)) for _ in range(3)]
    (ay, ax), (by, bx), (cy, cx) = pts
    d1 = (xx - bx) * (ay - by) - (ax - bx) * (yy - by)
    d2 = (xx - cx) * (by - cy) - (bx - cx) * (yy - cy)
    d3 = (xx - ax) * (cy - ay) - (cx - ax) * (yy - ay)
    neg = (d1 < 0) | (d2 < 0) | (d3 < 0)
    pos = (d1 > 0) | (d2 > 0) | (d3 > 0)
    return ~(neg & pos)


def generate_sample(seed, spec: SynthSpec):
    """One synthetic scene: (image [3,H,W] f32, mask [H,W] int64, area ledger).

    The ledger maps each class id to its pixel count in the finished mask,
    0 for a class no shape shows.
    """
    h, w = spec.image_size
    rng = SplitMix64(seed)
    mask = np.zeros((h, w), dtype=np.int64)
    n_shapes = rng.randint(spec.shapes_min, spec.shapes_max + 1)
    n_bands = spec.n_classes - 1 if spec.position_banded else 1
    for _ in range(n_shapes):
        cls = rng.randint(1, spec.n_classes)
        band = cls - 1 if spec.position_banded else 0
        mask[_paint_shape(rng, h, w, band * h // n_bands, (band + 1) * h // n_bands)] = cls
    ledger = dict(enumerate(np.bincount(mask.ravel(), minlength=spec.n_classes).tolist()))
    palette = class_palette(spec.n_classes, spec.twin_delta)
    image = palette[mask].transpose(2, 0, 1)
    noise = rng.uniform_array((3, h, w), -spec.noise, spec.noise)
    image = np.clip(image + noise, 0.0, 1.0).astype(np.float32)
    return image, mask, ledger


def synth_dataset(spec: SynthSpec, out_dir):
    """Generate a dataset on disk: images/, masks/, manifest.tsv.

    Deterministic: the same spec always yields bitwise-identical files.
    Returns (records, ledgers).
    """
    img_dir = os.path.join(out_dir, "images")
    mask_dir = os.path.join(out_dir, "masks")
    os.makedirs(img_dir, exist_ok=True)
    os.makedirs(mask_dir, exist_ok=True)
    base = SplitMix64(spec.seed)
    sample_seeds = [base.next_u64() for _ in range(spec.n_samples)]
    n_train = spec.n_samples - spec.n_val - spec.n_test
    records, ledgers = [], []
    for i, sseed in enumerate(sample_seeds):
        image, mask, ledger = generate_sample(sseed, spec)
        if spec.corruption == "gamma_region":
            image = corrupt_gamma_region(image, sseed ^ 0xC0FFEE)
        elif spec.corruption == "label_noise":
            mask, _ = corrupt_labels(mask, spec.label_noise_p, sseed ^ 0xBADCAB,
                                     n_classes=spec.n_classes)
        sid = f"s{i:04d}"
        img_path = os.path.join(img_dir, sid + ".ppm")
        mask_path = os.path.join(mask_dir, sid + ".pgm")
        write_pnm(img_path, image)
        write_pnm(mask_path, mask)
        split = "train" if i < n_train else ("val" if i < n_train + spec.n_val else "test")
        records.append(SampleRecord(
            sample_id=sid, image_path=img_path, mask_path=mask_path,
            robot_id=ROBOTS[i % len(ROBOTS)], split=split,
        ))
        ledgers.append(ledger)
    save_manifest(os.path.join(out_dir, "manifest.tsv"), records, relative_to=out_dir)
    return records, ledgers


# -- corruption generators --------------------------------------------------


def corrupt_gamma_region(image, seed, gammas=(0.4, 2.5)):
    """Apply a per-channel gamma drawn from ``gammas`` inside a random
    axis-aligned region covering 25-75% of the image area."""
    arr = np.asarray(image, dtype=np.float32)
    squeeze = arr.ndim == 4
    if squeeze:
        arr = arr[0]
    _, h, w = arr.shape
    rng = SplitMix64(seed)
    # side fractions in [0.5, 0.866] give area fractions in [0.25, 0.75]
    fy = rng.uniform(0.5, 0.866)
    fx = rng.uniform(0.5, 0.866)
    rh = max(1, int(round(fy * h)))
    rw = max(1, int(round(fx * w)))
    y0 = rng.randint(0, h - rh + 1)
    x0 = rng.randint(0, w - rw + 1)
    out = arr.copy()
    for c in range(arr.shape[0]):
        g = gammas[rng.randint(0, len(gammas))]
        patch = out[c, y0:y0 + rh, x0:x0 + rw]
        out[c, y0:y0 + rh, x0:x0 + rw] = np.power(patch, g)
    return out[None] if squeeze else out


def corrupt_labels(mask, p, seed, n_classes):
    """With probability p, overwrite a random rectangular region with a wrong
    class.  Returns (noisy mask, boolean corruption map of changed pixels)."""
    mask = np.asarray(mask)
    rng = SplitMix64(seed)
    changed = np.zeros(mask.shape, dtype=bool)
    if p <= 0.0 or rng.uniform() >= p:
        return mask.copy(), changed
    h, w = mask.shape
    out = mask.copy()
    best = None
    for _ in range(100):
        rh = rng.randint(max(1, h // 2), max(2, 9 * h // 10))
        rw = rng.randint(max(1, w // 2), max(2, 9 * w // 10))
        y0 = rng.randint(0, h - rh + 1)
        x0 = rng.randint(0, w - rw + 1)
        cls = rng.randint(0, n_classes)
        region = np.zeros_like(changed)
        region[y0:y0 + rh, x0:x0 + rw] = True
        diff = region & (out != cls)
        # a corruption should be substantial: at least 20% of pixels flipped
        if diff.sum() >= max(1, (h * w) // 5):
            out[region] = cls
            return out, diff
        if diff.any() and best is None:
            best = (region, diff, cls)
    if best is not None:
        region, diff, cls = best
        out[region] = cls
        return out, diff
    return out, changed
