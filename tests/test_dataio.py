"""Unit tests for PNM I/O, manifests, and the synthetic generators."""

import hashlib
import re

import numpy as np
import pytest

from segkit.dataio import (
    ROBOTS,
    SampleRecord,
    SynthSpec,
    class_palette,
    corrupt_gamma_region,
    corrupt_labels,
    generate_sample,
    load_manifest,
    load_pairs,
    read_pnm,
    save_manifest,
    synth_dataset,
    write_pnm,
)
from segkit.errors import ConfigInvalidError, MalformedFileError, SegkitError
from segkit.metrics import IGNORE
from segkit.rng import SplitMix64


class TestPnm:
    def test_p5_roundtrip_all_values(self, tmp_path):
        for v in range(256):
            path = tmp_path / f"g{v}.pgm"
            write_pnm(path, np.array([[v]], dtype=np.uint8))
            first = path.read_bytes()
            back = read_pnm(path)
            assert back.dtype == np.uint8 and back[0, 0] == v
            write_pnm(path, back)
            assert path.read_bytes() == first

    def test_p6_roundtrip_random_images(self, tmp_path):
        rng = SplitMix64(0)
        path = tmp_path / "img.ppm"
        for _ in range(200):
            raw = (rng.uniform_array((3, 2, 2)) * 255).astype(np.uint8)
            write_pnm(path, raw.astype(np.float64) / 255.0)
            first = path.read_bytes()
            write_pnm(path, read_pnm(path))
            assert path.read_bytes() == first

    def test_p6_header_arithmetic(self, tmp_path):
        path = tmp_path / "t.ppm"
        path.write_bytes(b"P6\n2 1\n255\n" + bytes([255, 0, 0, 0, 0, 255]))
        img = read_pnm(path)
        assert type(img) is np.ndarray and img.dtype == np.float32 and img.shape == (1, 3, 1, 2)
        assert img[0, 0, 0, 0] == 1.0 and img[0, 2, 0, 1] == 1.0

    def test_header_comments_allowed(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5 # comment\n2 # another\n2\n255\n" + bytes(4))
        assert read_pnm(path).shape == (2, 2)

    def test_ascii_variant_rejected(self, tmp_path):
        path = tmp_path / "a.pnm"
        path.write_bytes(b"P3\n1 1\n255\n0 0 0\n")
        with pytest.raises(MalformedFileError, match="unsupported magic b'P3'$"):
            read_pnm(path)

    @pytest.mark.parametrize("header", [b"P6\n0 0\n255\n", b"P6\n0 2\n255\n",
                                        b"P5\n3 0\n255\n"])
    def test_zero_extent_rejected(self, tmp_path, header):
        path = tmp_path / "z.pnm"
        path.write_bytes(header)
        with pytest.raises(MalformedFileError, match="x[0-9] in header$"):
            read_pnm(path)

    def test_unsupported_maxval(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n1 1\n99\n\x00")
        with pytest.raises(MalformedFileError, match="maxval 99 unsupported$"):
            read_pnm(path)

    def test_truncated_raster(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n4 4\n255\n\x00\x00")
        with pytest.raises(MalformedFileError, match="raster has 2 bytes, needs 16$"):
            read_pnm(path)

    @pytest.mark.parametrize("data, message", [
        (b"P3\n1 1\n255\n0 0 0\n", "unsupported magic b'P3'"),
        (b"P6\n0 2\n255\n", "zero extent 0x2 in header"),
        (b"P5\n4", "header ended early"),
        (b"P5\n1 1\n99\n\x00", "maxval 99 unsupported"),
        (b"P6\n4 4\n255\n\x00\x00", "raster has 2 bytes, needs 48")],
        ids=["magic", "zero-extent", "header", "maxval", "raster"])
    def test_errors_name_the_file(self, tmp_path, data, message):
        path = tmp_path / "bad.pnm"
        path.write_bytes(data)
        with pytest.raises(MalformedFileError, match=f"^{re.escape(f'{path}: {message}')}$"):
            read_pnm(path)

    def test_round_half_up(self, tmp_path):
        path = tmp_path / "r.ppm"
        # 0.5/255 * 255 = 0.5 exactly -> rounds up to 1
        img = np.full((3, 1, 1), 0.5 / 255.0)
        write_pnm(path, img)
        assert path.read_bytes()[-3:] == bytes([1, 1, 1])

    @pytest.mark.parametrize("value", [-1, -2, 256, 300])
    def test_mask_values_outside_a_byte_rejected(self, tmp_path, value):
        # as bytes, -2 would wrap to 254 and 300 to 44; -1 is IGNORE, which
        # is written as the unlabelled 255 that the mask readers map back
        path = tmp_path / "m.pgm"
        if value == IGNORE:
            write_pnm(path, np.array([[0, value]]))
            assert read_pnm(path).tolist() == [[0, 255]]
            return
        with pytest.raises(SegkitError, match=r"are neither IGNORE nor in \[0,255\]$"):
            write_pnm(path, np.array([[0, value]]))
        assert not path.exists()
        write_pnm(path, np.array([[0, 255]]))
        assert read_pnm(path).tolist() == [[0, 255]]


class TestManifest:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("")
        assert load_manifest(path) == []

    def test_ordering_comments_and_relative_paths(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("# header\n"
                        "a\timages/a.ppm\tmasks/a.pgm\tMuCAR-3\ttrain\n"
                        "b\timages/b.ppm\tmasks/b.pgm\tALICE\tval\n")
        records = load_manifest(path)
        assert [r.sample_id for r in records] == ["a", "b"]
        assert records[0].image_path == str(tmp_path / "images" / "a.ppm")

    def test_bad_field_count_names_line(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("a\tb\tc\td\n")
        with pytest.raises(MalformedFileError, match="line 1: expected 5 fields, got 4$"):
            load_manifest(path)

    def test_repeated_sample_id_names_file_id_and_both_lines(self, tmp_path):
        # eval, train and filter all key samples by id: a quantile filter
        # that drops an id would keep or drop every record under it at once
        path = tmp_path / "m.tsv"
        path.write_text("# header\n"
                        "a\ti0.ppm\tm0.pgm\tALICE\ttrain\n"
                        "b\ti1.ppm\tm1.pgm\tALICE\ttrain\n"
                        "\n"
                        "a\ti2.ppm\tm2.pgm\tALICE\tval\n")
        with pytest.raises(MalformedFileError) as exc:
            load_manifest(path)
        assert str(exc.value) == f"{path}: line 5: sample id 'a' repeats line 2"
        assert exc.value.exit_code == 3

    def test_unknown_split(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("a\ti.ppm\tm.pgm\tALICE\tholdout\n")
        with pytest.raises(MalformedFileError, match="line 1: unknown split 'holdout'$"):
            load_manifest(path)

    @pytest.mark.parametrize("wrong", ["image", "mask"])
    def test_load_pairs_rejects_the_wrong_pnm_kind(self, tmp_path, wrong):
        image, mask = tmp_path / "i.ppm", tmp_path / "m.pgm"
        write_pnm(image, np.zeros((3, 4, 4)))
        write_pnm(mask, np.zeros((4, 4), dtype=np.uint8))
        paths = (mask, mask) if wrong == "image" else (image, image)
        record = SampleRecord("s0", str(paths[0]), str(paths[1]), "ALICE", "train")
        bad = paths[0] if wrong == "image" else paths[1]
        with pytest.raises(MalformedFileError, match=f"^{re.escape(str(bad))}: expected a P"):
            load_pairs([record])

    def test_load_pairs_reads_255_as_ignore(self, tmp_path):
        image, mask = tmp_path / "i.ppm", tmp_path / "m.pgm"
        write_pnm(image, np.zeros((3, 2, 2)))
        write_pnm(mask, np.array([[0, 255], [254, 1]]))
        assert read_pnm(mask).tolist() == [[0, 255], [254, 1]]
        (_, got), = load_pairs([SampleRecord("s0", str(image), str(mask), "ALICE", "train")])
        assert got.dtype == np.int64 and got.tolist() == [[0, IGNORE], [254, 1]]
        write_pnm(tmp_path / "back.pgm", got)  # the mask codec round-trips
        assert (tmp_path / "back.pgm").read_bytes() == mask.read_bytes()

    def test_save_load_roundtrip(self, tmp_path):
        records = [SampleRecord("s0", str(tmp_path / "i.ppm"), str(tmp_path / "m.pgm"),
                                "ALICE", "train")]
        path = tmp_path / "m.tsv"
        save_manifest(path, records, relative_to=tmp_path)
        back = load_manifest(path)
        assert back[0].image_path == records[0].image_path
        assert back[0].split == "train"


class TestSynthesis:
    def test_determinism_bitwise(self, tmp_path):
        spec = SynthSpec(seed=3, n_samples=6, n_val=2, image_size=(16, 16))
        synth_dataset(spec, tmp_path / "a")
        synth_dataset(spec, tmp_path / "b")
        for sub in ("manifest.tsv", "images/s0000.ppm", "masks/s0005.pgm"):
            assert (tmp_path / "a" / sub).read_bytes() == (tmp_path / "b" / sub).read_bytes()

    def test_degenerate_no_shapes(self):
        spec = SynthSpec(seed=0, n_classes=2, shapes_min=0, shapes_max=0)
        _, mask, ledger = generate_sample(7, spec)
        assert np.all(mask == 0)
        assert ledger[0] == mask.size

    def test_ledger_matches_mask_histogram(self):
        spec = SynthSpec(seed=0, n_classes=4, shapes_min=2, shapes_max=5)
        rng = SplitMix64(9)
        for _ in range(20):
            _, mask, ledger = generate_sample(rng.next_u64(), spec)
            for k in range(4):
                assert ledger[k] == int(np.count_nonzero(mask == k))

    # digests of 8 scenes' images, masks and ledgers per spec; a change to
    # the generator's draws or painting shows here
    @pytest.mark.parametrize("banded, digest", [
        (False, "56df6d3c9d7fad22d0bac2f1231897612e93a65d6ebdaa6f50fd58409db71db6"),
        (True, "8d8c95296208030cbae952a33d8b3869c98b33e19fb6941608c5577604ea892f")],
        ids=["unbanded", "banded"])
    def test_scenes_are_pinned(self, banded, digest):
        spec = SynthSpec(n_classes=4, shapes_min=2, shapes_max=5, image_size=(24, 32),
                         position_banded=banded)
        rng = SplitMix64(5)
        h = hashlib.sha256()
        for _ in range(8):
            image, mask, ledger = generate_sample(rng.next_u64(), spec)
            h.update(image.tobytes())
            h.update(mask.tobytes())
            h.update(repr(sorted(ledger.items())).encode())
        assert h.hexdigest() == digest

    def test_image_mask_color_consistency(self):
        spec = SynthSpec(seed=0, n_classes=3, noise=0.05)
        palette = class_palette(3)
        image, mask, _ = generate_sample(11, spec)
        for k in range(3):
            sel = image[:, mask == k]
            if sel.size == 0:
                continue
            expect = palette[k][:, None]
            # clipping at [0,1] can only shrink the deviation from the base color
            assert np.max(np.abs(sel - expect)) <= spec.noise + 1e-6

    def test_round_robin_robots_and_splits(self, tmp_path):
        spec = SynthSpec(seed=1, n_samples=8, n_val=2, n_test=2, image_size=(16, 16))
        records, _ = synth_dataset(spec, tmp_path)
        assert [r.robot_id for r in records[:4]] == ROBOTS
        assert [r.split for r in records] == ["train"] * 4 + ["val"] * 2 + ["test"] * 2
        pairs = load_pairs(records[:2])
        assert pairs[0][0].shape == (1, 3, 16, 16)
        assert pairs[0][1].dtype == np.int64

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SynthSpec(n_classes=1)
        with pytest.raises(ValueError):
            SynthSpec(corruption="fog")
        with pytest.raises(ValueError):
            SynthSpec(n_samples=4, n_val=3, n_test=2)
        with pytest.raises(ValueError):
            SynthSpec(shapes_min=3, shapes_max=2)

    @pytest.mark.parametrize("kw, field", [
        (dict(image_size=(0, 0), shapes_min=0, shapes_max=0), "image_size"),
        (dict(image_size=(-4, 8), shapes_min=0, shapes_max=0), "image_size"),
        (dict(image_size=(8, 0), shapes_min=0, shapes_max=0), "image_size"),
        (dict(n_val=-3), "n_val"), (dict(n_test=-1), "n_test"),
        (dict(n_samples=-2, n_val=-1, n_test=-1), "n_samples")])
    def test_spec_whose_output_cannot_be_read_back_rejected(self, kw, field):
        # read_pnm refuses a zero extent, and numpy a negative one
        with pytest.raises(ConfigInvalidError, match=f"^{field} "):
            SynthSpec(**kw)

    @pytest.mark.parametrize("lo, hi", [(-3, -1), (-1, 0), (-1, 2)])
    def test_negative_shape_count_rejected(self, lo, hi):
        # -3..-1 shapes once passed and painted every scene plain background
        with pytest.raises(ConfigInvalidError, match=f"^shapes_min must be >= 0, got {lo}$"):
            SynthSpec(shapes_min=lo, shapes_max=hi)

    @pytest.mark.parametrize("kw", [dict(n_classes=20, image_size=(16, 16), position_banded=True),
                                    dict(n_classes=4, image_size=(12, 64), position_banded=True),
                                    dict(image_size=(4, 16)), dict(image_size=(16, 4)),
                                    dict(image_size=(64, 20))])
    def test_spec_whose_band_cannot_hold_a_shape_rejected(self, kw):
        with pytest.raises(ValueError, match="band"):
            SynthSpec(**kw)

    def test_every_accepted_spec_paints(self):
        # a spec passes the checks exactly when no shape can draw an empty range
        rng = SplitMix64(4)
        accepted = rejected = 0
        for h in range(1, 25, 3):
            for w in range(1, 25, 4):
                for n_classes in (2, 3, 6):
                    for banded in (False, True):
                        try:
                            spec = SynthSpec(image_size=(h, w), n_classes=n_classes,
                                             position_banded=banded, shapes_min=3, shapes_max=5)
                        except ValueError:
                            rejected += 1
                            continue
                        accepted += 1
                        for _ in range(4):
                            generate_sample(rng.next_u64(), spec)
        assert accepted and rejected
        SynthSpec(image_size=(2, 2), shapes_min=0, shapes_max=0)  # nothing to paint


class TestCorruption:
    def test_gamma_identity_control(self):
        img = SplitMix64(0).uniform_array((3, 16, 16), 0.0, 1.0)
        out = corrupt_gamma_region(img, 5, gammas=(1.0,))
        assert np.max(np.abs(out - img)) < 1e-6

    def test_gamma_zero_image_fixed_point(self):
        img = np.zeros((3, 16, 16))
        assert np.array_equal(corrupt_gamma_region(img, 5), img)

    def test_gamma_hand_value(self):
        img = np.full((3, 8, 8), 0.5)
        out = corrupt_gamma_region(img, 3, gammas=(2.5,))
        changed = out[out != 0.5]
        assert changed.size > 0
        assert np.allclose(changed, 0.5 ** 2.5, atol=1e-6)  # ~0.1768

    def test_gamma_region_area_fraction(self):
        rng = SplitMix64(1)
        for _ in range(20):
            img = np.full((3, 32, 32), 0.5)
            out = corrupt_gamma_region(img, rng.next_u64(), gammas=(2.5,))
            frac = np.count_nonzero(out[0] != 0.5) / (32 * 32)
            assert 0.2 <= frac <= 0.8

    def test_labels_p_zero_no_change(self):
        mask = np.arange(16).reshape(4, 4) % 3
        out, changed = corrupt_labels(mask, 0.0, 7, n_classes=3)
        assert np.array_equal(out, mask) and not changed.any()

    def test_labels_p_one_changes_wrong_class(self):
        rng = SplitMix64(2)
        for _ in range(20):
            mask = (rng.uniform_array((16, 16)) * 3).astype(np.int64)
            out, changed = corrupt_labels(mask, 1.0, rng.next_u64(), n_classes=3)
            assert changed.sum() >= 1
            assert np.all(out[changed] != mask[changed])
            assert np.array_equal(out[~changed], mask[~changed])

    def test_labels_corruption_is_substantial(self):
        rng = SplitMix64(3)
        for _ in range(10):
            mask = (rng.uniform_array((32, 32)) * 3).astype(np.int64)
            _, changed = corrupt_labels(mask, 1.0, rng.next_u64(), n_classes=3)
            assert changed.sum() >= (32 * 32) // 5
