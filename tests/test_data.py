"""Image I/O, label formats, CSV aggregation, augmentation and scenes."""

import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from yolokit.boxes import BoxCorner, BoxNorm, corner_to_norm, norm_to_corner
from yolokit.data import (_MIN_VISIBLE, COORD_GRID, CSV_HEADER,
                          ClassRegistry, CsvRow, Image, LabeledImage,
                          PlacementError, aggregate_csv, class_shape,
                          dataset_to_rows, expansion_report, flip, format_csv,
                          generate_synthetic_scene, iter_expanded, parse_csv,
                          read_labelimg_corners, read_ppm, read_yolo_labels,
                          rotate, scenario_scene, write_labelimg_corners,
                          write_ppm, write_yolo_labels)

from oracles import color_coverage_ref, tight_box_ref


def checker_image(h=4, w=6):
    arr = np.zeros((h, w, 3), dtype=np.uint8)
    arr[::2, ::2] = (255, 0, 0)
    arr[1::2, 1::2] = (0, 255, 0)
    return Image(arr)


def make_sample(labels=(), size=64, name="sample.ppm"):
    rng = np.random.default_rng(42)
    arr = rng.integers(0, 256, (size, size, 3), dtype=np.uint8)
    return LabeledImage(Image(arr), tuple(labels), name)


# ---------------------------------------------------------------------------
# containers

def test_image_validation():
    with pytest.raises(ValueError):
        Image(np.zeros((4, 4), dtype=np.uint8))
    with pytest.raises(ValueError):
        Image(np.zeros((4, 4, 4), dtype=np.uint8))
    with pytest.raises(ValueError):
        Image(np.zeros((0, 4, 3), dtype=np.uint8))


def test_image_new_and_eq():
    img = Image(np.full((2, 3, 3), (10, 20, 30), np.uint8))
    assert img.width == 3 and img.height == 2
    assert np.all(img.pixels == (10, 20, 30))
    assert img == Image(np.full((2, 3, 3), (10, 20, 30), np.uint8))
    assert img != Image(np.zeros((2, 3, 3), np.uint8))


def test_labeled_image_stem():
    sample = make_sample(name="dir/part_007.ppm")
    assert sample.stem == "part_007"


def test_class_registry_rules():
    reg = ClassRegistry(["a", "b"])
    assert len(reg) == 2 and reg[1] == "b" and reg.index("a") == 0
    assert list(reg) == ["a", "b"]
    with pytest.raises(ValueError):
        ClassRegistry([])
    with pytest.raises(ValueError):
        ClassRegistry(["a", "a"])
    with pytest.raises(ValueError):
        ClassRegistry(["a b"])
    with pytest.raises(ValueError):
        ClassRegistry([""])


def test_class_registry_text_round_trip():
    reg = ClassRegistry(["bolt", "nut", "gear"])
    text = reg.to_text()
    assert text == "bolt\nnut\ngear\n"
    assert ClassRegistry.from_text(text) == reg
    assert ClassRegistry.from_text("\n bolt \n\nnut\n") == ClassRegistry(["bolt", "nut"])
    # a repeated name is named; a line of two names is numbered
    for text, message in (("bolt\nnut\nbolt\n", "duplicate class 'bolt'"),
                          ("bolt\nhex nut\n", "line 2: expected 1 fields, got 2")):
        with pytest.raises(ValueError) as err:
            ClassRegistry.from_text(text)
        assert str(err.value) == message


# ---------------------------------------------------------------------------
# PPM

def test_ppm_round_trip_byte_identical():
    img = checker_image()
    data = write_ppm(img)
    again = read_ppm(data)
    assert again == img
    assert write_ppm(again) == data
    # a strided view is written in row-major pixel order as well
    view = Image(img.pixels.swapaxes(0, 1)[::-1])
    assert write_ppm(view) == b"P6\n4 6\n255\n" + view.pixels.tobytes()


def test_ppm_header_tolerates_comments_and_whitespace():
    img = checker_image(2, 2)
    payload = img.pixels.tobytes()
    data = b"P6 # format\n# a comment line\n  2\t2 \n255\n" + payload
    assert read_ppm(data) == img


def test_ppm_errors():
    img = checker_image(2, 2)
    good = write_ppm(img)
    with pytest.raises(ValueError):
        read_ppm(b"P5" + good[2:])
    with pytest.raises(ValueError):
        read_ppm(b"P6\n2 2\n127\n" + img.pixels.tobytes())
    with pytest.raises(ValueError):
        read_ppm(good[:-1])
    with pytest.raises(ValueError):
        read_ppm(b"P6\n0 2\n255\n")
    with pytest.raises(ValueError):
        read_ppm(b"P6\n2 x\n255\n" + img.pixels.tobytes())


def read_ppm_bytewise(data: bytes) -> Image:
    """Reference: a P6 reader that scans its header one byte at a time."""
    pos = 0
    n = len(data)

    def token() -> bytes:
        nonlocal pos
        while pos < n:
            c = data[pos:pos + 1]
            if c == b"#":
                while pos < n and data[pos:pos + 1] != b"\n":
                    pos += 1
            elif c.isspace():
                pos += 1
            else:
                break
        start = pos
        while pos < n and not data[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise ValueError("truncated header")
        return data[start:pos]

    magic = token()
    if magic != b"P6":
        raise ValueError(f"unsupported format {magic!r} (need binary P6)")
    try:
        width = int(token())
        height = int(token())
        maxval = int(token())
    except ValueError as exc:
        raise ValueError(f"bad header field: {exc}") from None
    if width < 1 or height < 1:
        raise ValueError(f"bad dimensions {width}x{height}")
    if maxval != 255:
        raise ValueError(f"unsupported maxval {maxval} (need 255)")
    pos += 1
    size = width * height * 3
    if n - pos < size:
        raise ValueError(
            f"truncated payload: need {size} bytes, have {max(n - pos, 0)}")
    arr = np.frombuffer(data, dtype=np.uint8, count=size, offset=pos)
    return Image(arr.reshape(height, width, 3).copy())


def ppm_outcome(read, data: bytes):
    try:
        return read(data)
    except ValueError as exc:
        return str(exc)


PPM_TOKENS = st.sampled_from([
    b"P6", b"P5", b"1", b"2", b"255", b"0", b"-1", b"x", b"1_0", b"9" * 30,
    b"#c\n", b"# c 2", b"2#3", b"P6#"])
PPM_SEPARATORS = st.sampled_from([b"", b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c"])


@settings(deadline=None, max_examples=400)
@given(parts=st.lists(st.tuples(PPM_TOKENS, PPM_SEPARATORS), max_size=7),
       tail=st.binary(max_size=16))
@example(parts=[(b"P6", b"\r"), (b"#c\n", b""), (b"1", b"\x0b"), (b"1", b"\x0c"),
                (b"255", b"\r")], tail=b"abc")
def test_ppm_header_scan_matches_the_bytewise_reference(parts, tail):
    data = b"".join(token + sep for token, sep in parts) + tail
    assert ppm_outcome(read_ppm, data) == ppm_outcome(read_ppm_bytewise, data)


# ---------------------------------------------------------------------------
# YOLO label text

def test_yolo_labels_worked_example(registry13):
    labels = read_yolo_labels("12 0.25 0.75 0.1 0.2\n", registry13)
    assert labels == [(12, BoxNorm(0.25, 0.75, 0.1, 0.2))]


def test_yolo_labels_round_trip(registry13):
    labels = [(0, BoxNorm(0.5, 0.5, 0.25, 0.125)),
              (12, BoxNorm(0.1, 0.9, 0.0625, 0.03125))]
    text = write_yolo_labels(labels)
    assert text == ("0 0.500000 0.500000 0.250000 0.125000\n"
                    "12 0.100000 0.900000 0.062500 0.031250\n")
    assert read_yolo_labels(text, registry13) == labels


def test_yolo_labels_errors(registry13):
    with pytest.raises(ValueError) as err:
        read_yolo_labels("0 0.5 0.5 0.1\n", registry13)
    assert "line 1" in str(err.value)
    with pytest.raises(ValueError) as err:
        read_yolo_labels("0 0.5 0.5 0.1 0.1\n13 0.5 0.5 0.1 0.1\n", registry13)
    assert "line 2" in str(err.value)
    with pytest.raises(ValueError):
        read_yolo_labels("x 0.5 0.5 0.1 0.1\n", registry13)
    with pytest.raises(ValueError):
        read_yolo_labels("0 1.5 0.5 0.1 0.1\n", registry13)
    with pytest.raises(ValueError):
        read_yolo_labels("0 0.5 0.5 0.0 0.1\n", registry13)
    with pytest.raises(ValueError) as err:
        read_yolo_labels("0 0.5 x 0.1 0.1\n", registry13)
    assert str(err.value) == "line 1: non-numeric coordinate"
    assert read_yolo_labels("\n   \n", registry13) == []


# ---------------------------------------------------------------------------
# pixel-corner label text

def test_labelimg_worked_example(registry13):
    labels = read_labelimg_corners("gear 10 10 50 50\n", (100, 100), registry13)
    assert labels == [(3, BoxCorner(10.0, 10.0, 50.0, 50.0))]
    from yolokit.boxes import corner_to_norm
    norm = corner_to_norm(labels[0][1], 100, 100)
    assert (norm.cx, norm.cy, norm.w, norm.h) == (0.3, 0.3, 0.4, 0.4)


def test_labelimg_one_pixel_tolerance(registry13):
    labels = read_labelimg_corners("gear -0.5 0 100.5 99\n", (100, 100), registry13)
    box = labels[0][1]
    assert box.x_min == 0.0 and box.x_max == 100.0
    with pytest.raises(ValueError):
        read_labelimg_corners("gear -2 0 50 50\n", (100, 100), registry13)
    with pytest.raises(ValueError):
        read_labelimg_corners("gear 0 0 50 102\n", (100, 100), registry13)


def test_labelimg_errors(registry13):
    with pytest.raises(ValueError):
        read_labelimg_corners("gear 50 0 10 50\n", (100, 100), registry13)
    with pytest.raises(ValueError):
        read_labelimg_corners("gear 0 0 50\n", (100, 100), registry13)
    with pytest.raises(ValueError):
        read_labelimg_corners("gear a 0 50 50\n", (100, 100), registry13)
    for line, message in (("gear nan 0 50 50", "line 2: "),
                          ("gear 0 0 50 nan", "line 2: "),
                          ("cog 0 0 50 50", "line 2: unknown class 'cog'"),
                          ("gear 3 3 3 9", r"line 2: box \(3\.0, 3\.0, 3\.0, 9\.0\) "),
                          # zero height once clamped to the image
                          ("gear 0 100.2 50 100.7", "line 2: box .* zero width or height")):
        with pytest.raises(ValueError, match=message):
            read_labelimg_corners(f"gear 0 0 50 50\n{line}\n", (100, 100), registry13)


def test_labelimg_round_trip(registry13):
    labels = [(0, BoxCorner(1.25, 2.5, 30.0, 40.75))]
    text = write_labelimg_corners(labels, registry13)
    assert text == "bolt 1.25 2.5 30.0 40.75\n"
    assert read_labelimg_corners(text, (100, 100), registry13) == labels
    # NumPy corners read back as floats, and a second write is the same bytes
    for as_number in (np.float64, np.float32):
        labels = [(0, BoxCorner(*map(as_number, (1.1, 2.5, 30.3, 40.75))))]
        text = write_labelimg_corners(labels, registry13)
        # written with `str`, as format_csv writes: a float32 as its shortest digits
        assert text == "bolt 1.1 2.5 30.3 40.75\n"
        back = read_labelimg_corners(text, (100, 100), registry13)
        box = back[0][1]
        assert {type(v) for v in (box.x_min, box.y_min, box.x_max, box.y_max)} == {float}
        assert write_labelimg_corners(back, registry13) == text
        if as_number is np.float64:
            assert back == labels


# ---------------------------------------------------------------------------
# CSV

def test_csv_three_images_seven_lines(registry13):
    samples = []
    boxes = [BoxNorm(0.5, 0.5, 0.25, 0.25), BoxNorm(0.25, 0.25, 0.125, 0.125)]
    for i in range(3):
        samples.append(make_sample(
            [(i, boxes[0]), (i + 1, boxes[1])], name=f"img_{i}.ppm"))
    text = aggregate_csv(samples, registry13)
    lines = text.splitlines()
    assert len(lines) == 7
    assert lines[0] == ",".join(CSV_HEADER)
    rows = parse_csv(text)
    assert len(rows) == 6
    # rows follow image order, and boxes survive the round trip exactly
    assert [r.filename for r in rows] == ["img_0.ppm"] * 2 + ["img_1.ppm"] * 2 + ["img_2.ppm"] * 2
    for row, (_, norm) in zip(rows[:2], samples[0].labels):
        corner = norm_to_corner(norm, 64, 64)
        assert (row.x_min, row.y_min, row.x_max, row.y_max) == (
            corner.x_min, corner.y_min, corner.x_max, corner.y_max)


def test_csv_second_write_byte_identical(registry13):
    # label values as Python floats, then from NumPy float64 and float32 arrays
    for dtype in (None, np.float64, np.float32):
        values = np.array([[0.3, 0.3, 0.2, 0.1], [0.7, 0.1, 0.05, 0.05]], dtype)
        if dtype is None:
            values = values.tolist()
        samples = [make_sample([(3, BoxNorm(*values[0]))], name="z.ppm"),
                   make_sample([(7, BoxNorm(*values[1]))], name="a.ppm")]
        rows = dataset_to_rows(samples, registry13)
        text = format_csv(rows)
        parsed = parse_csv(text)
        assert format_csv(parsed) == text
        assert {type(v) for r in parsed
                for v in (r.x_min, r.y_min, r.x_max, r.y_max)} == {float}
        if dtype is not np.float32:
            assert parsed == rows
        # rows come out sorted by filename
        assert parsed[0].filename == "a.ppm"


def test_csv_parse_errors():
    with pytest.raises(ValueError, match="^empty CSV"):
        parse_csv("")
    with pytest.raises(ValueError, match="^line 1: bad CSV header"):
        parse_csv("bogus,header\n")
    header = ",".join(CSV_HEADER) + "\n"
    good = "a.ppm,64,64,bolt,1,2,3,4\n"
    for body, message in (
            ("a.ppm,64,64,bolt,1,2,3\n", "line 2: CSV row with 7 fields"),
            ("a.ppm,6x4,64,bolt,1,2,3,4\n", "line 2: width '6x4' is not an integer"),
            (good + "\na.ppm,64,6.5,bolt,1,2,3,4\n",
             "line 4: height '6.5' is not an integer"),
            ("a.ppm,64,64,bolt,1,2,x,4\n", "line 2: x_max 'x' is not a finite number"),
            ("a.ppm,64,64,bolt,nan,1,2,3\n", "line 2: x_min 'nan' is not a finite number"),
            ("a.ppm,64,64,bolt,1,2,3,inf\n", "line 2: y_max 'inf' is not a finite number"),
            (good + "a\rb,1\n", "line 3: malformed CSV: "),
            ("a.ppm,-5,64,bolt,9,1,2,3\n", "line 2: image size -5x64 is below 1x1"),
            (good + "a.ppm,64,0,bolt,1,2,3,4\n", "line 3: image size 64x0 is below 1x1"),
            ("a.ppm,64,64,bolt,9,1,2,3\n", "line 2: inverted corners: (9.0, 1.0, 2"),
            ("a.ppm,64,64,bolt,1,4,2,3\n", "line 2: inverted corners: (1.0, 4.0, 2")):
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            parse_csv(header + body)


def test_csv_row_values(registry13):
    sample = make_sample([(0, BoxNorm(0.5, 0.5, 0.5, 0.5))], name="x.ppm")
    row = dataset_to_rows([sample], registry13)[0]
    assert row == CsvRow("x.ppm", 64, 64, "bolt", 16.0, 16.0, 48.0, 48.0)


# ---------------------------------------------------------------------------
# flips

def test_flip_horizontal_pixels_and_labels():
    sample = make_sample([(0, BoxNorm(0.25, 0.5, 0.25, 0.25))])
    flipped = flip(sample, "horizontal")
    assert np.array_equal(flipped.image.pixels, sample.image.pixels[:, ::-1])
    assert flipped.labels == ((0, BoxNorm(0.75, 0.5, 0.25, 0.25)),)


def test_flip_vertical_pixels_and_labels():
    sample = make_sample([(0, BoxNorm(0.5, 0.25, 0.25, 0.25))])
    flipped = flip(sample, "vertical")
    assert np.array_equal(flipped.image.pixels, sample.image.pixels[::-1, :])
    assert flipped.labels == ((0, BoxNorm(0.5, 0.75, 0.25, 0.25)),)


def test_flip_is_involution_on_grid_coordinates():
    # coordinates on the 1/4096 lattice survive two flips bit-exactly
    labels = [(0, BoxNorm(1373 / COORD_GRID, 2977 / COORD_GRID,
                          800 / COORD_GRID, 501 / COORD_GRID))]
    sample = make_sample(labels)
    for axis in ("horizontal", "vertical"):
        twice = flip(flip(sample, axis), axis)
        assert twice.labels == sample.labels
        assert twice.image == sample.image


def test_flip_axis_validation():
    with pytest.raises(ValueError):
        flip(make_sample(), "diagonal")


def test_flip_non_square_both_ways():
    arr = np.arange(3 * 5 * 3, dtype=np.uint8).reshape(3, 5, 3)
    sample = LabeledImage(Image(arr), ((0, BoxNorm(0.25, 0.125, 0.5, 0.25)),),
                          "wide.ppm")
    across = flip(sample, "horizontal")
    assert np.array_equal(across.image.pixels, arr[:, ::-1])
    assert across.labels == ((0, BoxNorm(0.75, 0.125, 0.5, 0.25)),)
    down = flip(sample, "vertical")
    assert np.array_equal(down.image.pixels, arr[::-1, :])
    assert down.labels == ((0, BoxNorm(0.25, 0.875, 0.5, 0.25)),)


# ---------------------------------------------------------------------------
# rotations

def test_rotate_zero_is_copy():
    sample = make_sample([(0, BoxNorm(0.25, 0.5, 0.25, 0.25))])
    out = rotate(sample, 0.0)
    assert out.image == sample.image
    assert out.labels == sample.labels


def test_rotate_90_worked_example():
    sample = make_sample([(0, BoxNorm(0.2, 0.3, 0.1, 0.2))])
    out = rotate(sample, 90.0)
    (cid, box), = out.labels
    assert cid == 0
    assert (box.cx, box.cy, box.w, box.h) == (0.7, 0.2, 0.2, 0.1)


def test_rotate_90_pixel_permutation():
    sample = make_sample(size=5)
    out = rotate(sample, 90.0)
    src = sample.image.pixels
    n = 5
    for i in range(n):
        for j in range(n):
            assert np.array_equal(out.image.pixels[i, j], src[n - 1 - j, i])


def test_rotate_quarter_turns_compose():
    sample = make_sample([(0, BoxNorm(0.25, 0.125, 0.25, 0.125))])
    once = rotate(sample, 90.0)
    twice = rotate(once, 90.0)
    assert twice.image == rotate(sample, 180.0).image
    assert twice.labels == rotate(sample, 180.0).labels
    counter = rotate(sample, -90.0)
    assert counter.image == rotate(sample, 270.0).image
    assert counter.labels == rotate(sample, 270.0).labels


def test_rotate_four_quarters_is_identity():
    labels = [(0, BoxNorm(1373 / COORD_GRID, 2977 / COORD_GRID,
                          800 / COORD_GRID, 501 / COORD_GRID))]
    sample = make_sample(labels)
    out = sample
    for _ in range(4):
        out = rotate(out, 90.0)
    assert out.image == sample.image
    assert out.labels == sample.labels


def test_rotation_composed_with_a_flip():
    labels = [(0, BoxNorm(1373 / COORD_GRID, 2977 / COORD_GRID,
                          800 / COORD_GRID, 501 / COORD_GRID)),
              (1, BoxNorm(0.25, 0.125, 0.5, 0.25))]
    sample = make_sample(labels, size=7)
    half = flip(rotate(sample, 180.0), "horizontal")
    down = flip(sample, "vertical")
    assert half.image == down.image and half.labels == down.labels
    # a quarter turn either way plus the matching mirror is the transpose
    a = flip(rotate(sample, 90.0), "horizontal")
    b = flip(rotate(sample, 270.0), "vertical")
    assert a.image == b.image and a.labels == b.labels
    assert np.array_equal(a.image.pixels, sample.image.pixels.swapaxes(0, 1))
    assert a.labels == tuple((cid, BoxNorm(box.cy, box.cx, box.h, box.w))
                             for cid, box in labels)


def test_rotate_tiny_negative_angle_is_identity():
    # -1e-20 % 360 rounds to 360.0, which must turn as 0 does, pixels and
    # labels alike: on a square canvas and on a non-square one, where a
    # turn of 360 would resample
    labels = [(0, BoxNorm(0.25, 0.5, 0.25, 0.125)),
              (1, BoxNorm(0.5, 0.5, 0.5, 0.25))]
    square = make_sample(labels, size=8)
    wide = LabeledImage(Image(np.random.default_rng(3).integers(
        0, 256, (32, 48, 3), dtype=np.uint8)), tuple(labels), "wide.ppm")
    for sample in (square, wide):
        out = rotate(sample, -1e-20)
        assert out.image == sample.image
        assert out.labels == sample.labels


def test_rotate_45_centered_square_grows_sqrt2():
    sample = make_sample([(0, BoxNorm(0.5, 0.5, 0.2, 0.2))], size=200)
    out = rotate(sample, 45.0)
    (_, box), = out.labels
    assert abs(box.w - 0.2 * math.sqrt(2.0)) < 1e-12
    assert abs(box.h - 0.2 * math.sqrt(2.0)) < 1e-12
    assert abs(box.cx - 0.5) < 1e-12 and abs(box.cy - 0.5) < 1e-12


def test_rotate_45_box_covers_rendered_square():
    arr = np.zeros((200, 200, 3), dtype=np.uint8)
    arr[80:120, 80:120] = (200, 30, 30)
    sample = LabeledImage(Image(arr), ((0, BoxNorm(0.5, 0.5, 0.2, 0.2)),),
                          "square.ppm")
    out = rotate(sample, 45.0)
    (_, box), = out.labels
    corner = norm_to_corner(box, 200, 200)
    coverage = color_coverage_ref(
        out.image.pixels, (200, 30, 30),
        [(corner.x_min, corner.y_min, corner.x_max, corner.y_max)])
    assert coverage == 1.0


def test_rotate_drops_mostly_clipped_labels():
    # object in the extreme corner swings off-canvas under a big rotation
    arr = np.zeros((100, 100, 3), dtype=np.uint8)
    arr[0:10, 0:10] = (10, 200, 10)
    sample = LabeledImage(Image(arr), ((0, BoxNorm(0.05, 0.05, 0.1, 0.1)),),
                          "edge.ppm")
    out = rotate(sample, 45.0)
    assert out.labels == ()


@pytest.mark.parametrize("band_pixels", [1, 7 * 91, 1 << 30])
def test_rotate_resamples_the_same_in_any_band_of_rows(monkeypatch, band_pixels):
    # one row, seven rows, or the whole 37x91 image per band of the
    # inverse map, against that map computed for all pixels at once
    rng = np.random.default_rng(7)
    arr = rng.integers(0, 256, (37, 91, 3), dtype=np.uint8)
    sample = LabeledImage(Image(arr), ((0, BoxNorm(0.5, 0.5, 0.3, 0.4)),), "b.ppm")
    monkeypatch.setattr("yolokit.data._BAND_PIXELS", band_pixels)
    out = rotate(sample, 33.0)
    theta = math.radians(33.0)
    dx = np.arange(91) + 0.5 - 45.5
    dy = (np.arange(37) + 0.5 - 18.5)[:, None]
    src_x = np.floor(math.cos(theta) * dx + math.sin(theta) * dy + 45.5).astype(int)
    src_y = np.floor(-math.sin(theta) * dx + math.cos(theta) * dy + 18.5).astype(int)
    valid = (0 <= src_x) & (src_x < 91) & (0 <= src_y) & (src_y < 37)
    expected = np.zeros_like(arr)
    expected[valid] = arr[src_y[valid], src_x[valid]]
    assert np.array_equal(out.image.pixels, expected)
    assert out.labels == rotate(sample, 33.0).labels


def rotate_masked_scatter(sample, degrees):
    """The resampled path of `rotate` as a validity mask and a scatter into
    a zero canvas, with each label's corners turned as one small array:
    the earlier form of that path, kept as its reference."""
    img = sample.image
    h, w = img.height, img.width
    theta = math.radians(degrees % 360.0 % 360.0)
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    cx0, cy0 = w / 2.0, h / 2.0
    dx = np.arange(w) + 0.5 - cx0
    dy = (np.arange(h) + 0.5 - cy0)[:, None]
    src_x = np.floor(cos_t * dx + sin_t * dy + cx0).astype(np.intp)
    src_y = np.floor(-sin_t * dx + cos_t * dy + cy0).astype(np.intp)
    valid = (0 <= src_x) & (src_x < w) & (0 <= src_y) & (src_y < h)
    pixels = np.zeros_like(img.pixels)
    pixels[valid] = img.pixels[src_y[valid], src_x[valid]]
    labels = []
    for cid, b in sample.labels:
        corner = norm_to_corner(b, w, h)
        xs4 = np.array([corner.x_min, corner.x_max, corner.x_max, corner.x_min])
        ys4 = np.array([corner.y_min, corner.y_min, corner.y_max, corner.y_max])
        rx = cos_t * (xs4 - cx0) - sin_t * (ys4 - cy0) + cx0
        ry = sin_t * (xs4 - cx0) + cos_t * (ys4 - cy0) + cy0
        x_min = max(float(rx.min()), 0.0)
        x_max = min(float(rx.max()), float(w))
        y_min = max(float(ry.min()), 0.0)
        y_max = min(float(ry.max()), float(h))
        if x_max <= x_min or y_max <= y_min:
            continue
        if (x_max - x_min) * (y_max - y_min) < _MIN_VISIBLE * corner.area:
            continue
        labels.append((cid, corner_to_norm(
            BoxCorner(x_min, y_min, x_max, y_max), w, h)))
    return Image(pixels), tuple(labels)


def label_bits(labels):
    return [(cid, tuple(float.hex(v) for v in (b.cx, b.cy, b.w, b.h)))
            for cid, b in labels]


GRID_LABEL = st.tuples(st.integers(0, 12), st.integers(0, COORD_GRID),
                       st.integers(0, COORD_GRID), st.integers(1, COORD_GRID),
                       st.integers(1, COORD_GRID))


@settings(deadline=None, max_examples=300)
@given(degrees=st.one_of(
           st.floats(-720.0, 720.0),
           st.sampled_from([1e-9, -1e-9, 90.0, 180.0, 270.0, -90.0, 450.0])),
       h=st.integers(1, 40), w=st.integers(1, 40),
       pixel_seed=st.integers(0, 2**32 - 1),
       grid_labels=st.lists(GRID_LABEL, min_size=1, max_size=4))
@example(degrees=90.0, h=3, w=7, pixel_seed=0,
         grid_labels=[(0, 2048, 2048, 1024, 4096)])
@example(degrees=-1e-9, h=1, w=1, pixel_seed=1,
         grid_labels=[(1, 2048, 2048, 4096, 4096)])
def test_rotate_resamples_as_the_masked_scatter_does(degrees, h, w, pixel_seed,
                                                     grid_labels):
    deg = degrees % 360.0 % 360.0
    # 0 and quarter turns of a square canvas are exact permutations
    assume(not (deg == 0.0 or (deg % 90.0 == 0.0 and h == w)))
    pixels = np.random.default_rng(pixel_seed).integers(
        0, 256, (h, w, 3), dtype=np.uint8)
    labels = tuple((cid, BoxNorm(*(k / COORD_GRID for k in box)))
                   for cid, *box in grid_labels)
    sample = LabeledImage(Image(pixels), labels, "r.ppm")
    out = rotate(sample, degrees)
    image, expected = rotate_masked_scatter(sample, degrees)
    assert out.image == image
    assert label_bits(out.labels) == label_bits(expected)


def test_rotated_labels_cover_all_of_their_parts(registry13):
    # all-classes scenes at the default margin: every part has its own
    # color, and parts near the border swing partly off the canvas, so
    # some labels are clipped and some are dropped
    for seed in range(6):
        scene = scenario_scene("all-classes", seed, seed, registry13)
        for degrees in (15.0, 45.0, 137.5):
            out = rotate(scene, degrees)
            for cid, norm in out.labels:
                corner = norm_to_corner(norm, 608, 608)
                assert color_coverage_ref(
                    out.image.pixels, class_shape(cid)[1],
                    [(corner.x_min, corner.y_min, corner.x_max,
                      corner.y_max)]) == 1.0, (scene.source_path, degrees, cid)


def test_rotate_non_square_uses_resample_path():
    arr = np.zeros((40, 80, 3), dtype=np.uint8)
    arr[Ellipsis] = (9, 9, 9)
    sample = LabeledImage(Image(arr), (), "wide.ppm")
    out = rotate(sample, 90.0)
    assert out.image.pixels.shape == (40, 80, 3)


# ---------------------------------------------------------------------------
# expansion

def test_iter_expanded_counts_and_names():
    sample = make_sample([(0, BoxNorm(0.5, 0.5, 0.25, 0.25))], name="base.ppm")
    angles = [30.0 * k for k in range(12)]
    variants = list(iter_expanded([sample], angles, ["horizontal", "vertical"]))
    assert len(variants) == 36
    names = [v.source_path for v in variants]
    assert names[0] == "base_r0_fnone.ppm"
    assert "base_r30_fh.ppm" in names
    assert "base_r330_fv.ppm" in names
    assert len(set(names)) == 36


def test_rotate_rejects_a_non_finite_angle():
    sample = make_sample([(0, BoxNorm(0.5, 0.5, 0.25, 0.25))])
    for angle in (math.nan, math.inf, -math.inf, float("1e400")):
        with pytest.raises(ValueError, match=f"^rotation {angle:g} is not a finite"):
            rotate(sample, angle)


def test_iter_expanded_rejects_bad_variants_before_the_first():
    sample = make_sample([(0, BoxNorm(0.5, 0.5, 0.25, 0.25))], name="b.ppm")
    for rotations, flips, message in (
            ([0.0, 360.0, 0.0], [], "repeated rotation 360"),
            ([90.0, -270.0], [], "repeated rotation -270"),
            ([90.0, 450.0], [], "repeated rotation 450"),
            ([90, 90.0], [], "repeated rotation 90"),
            ([0.0, -0.0], [], "repeated rotation -0"),
            # -1e-20 % 360 rounds to 360.0, which is 0 again modulo 360
            ([0.0, -1e-20], [], "repeated rotation -1e-20"),
            # distinct angles that would share the file name `b_r90_fnone`
            ([90.0, 90.0000001], [], "repeated rotation 90"),
            ([0.0], ["horizontal", "diagonal"],
             "axis must be 'horizontal' or 'vertical', got 'diagonal'"),
            ([0.0, 90.0], ["horizontal", "vertical", "horizontal"],
             "repeated flip axis 'horizontal'"),
            ([0.0, math.nan], [], "rotation nan is not a finite angle")):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            iter_expanded([sample], rotations, flips)


def test_iter_expanded_empty_rotations_means_flips_only():
    sample = make_sample([(0, BoxNorm(0.5, 0.5, 0.25, 0.25))], name="b.ppm")
    variants = list(iter_expanded([sample], [], ["horizontal"]))
    assert [v.source_path for v in variants] == ["b_r0_fnone.ppm", "b_r0_fh.ppm"]


def test_expansion_report_counts_images_per_class(registry13):
    samples = [
        make_sample([(0, BoxNorm(0.5, 0.5, 0.2, 0.2)),
                     (0, BoxNorm(0.2, 0.2, 0.1, 0.1))]),  # class 0 once
        make_sample([(0, BoxNorm(0.5, 0.5, 0.2, 0.2)),
                     (1, BoxNorm(0.2, 0.2, 0.1, 0.1))]),
    ]
    report = expansion_report(samples, registry13, floor=2)
    assert report.per_class["bolt"] == 2
    assert report.per_class["nut"] == 1
    assert report.per_class["gear"] == 0
    assert "bolt" not in report.below_floor
    assert "nut" in report.below_floor


# ---------------------------------------------------------------------------
# synthetic scenes

def test_scene_is_deterministic(registry13):
    a = generate_synthetic_scene(7, registry13)
    b = generate_synthetic_scene(7, registry13)
    assert a.image == b.image
    assert a.labels == b.labels
    assert a.source_path == "scene_000007.ppm"
    c = generate_synthetic_scene(8, registry13)
    assert a.image != c.image


def test_scene_labels_are_tight_pixel_boxes(registry13):
    for seed in range(10):
        scene = generate_synthetic_scene(seed, registry13)
        classes = [cid for cid, _ in scene.labels]
        assert len(set(classes)) == len(classes)  # round-robin stays distinct
        for cid, norm in scene.labels:
            _, color = class_shape(cid)
            mask = np.all(scene.image.pixels == color, axis=2)
            want = tight_box_ref(mask)
            corner = norm_to_corner(norm, 608, 608)
            got = (corner.x_min, corner.y_min, corner.x_max, corner.y_max)
            for g, w in zip(got, want):
                assert abs(g - w) <= 1.0  # quantization is far below 1 px


def test_scene_honors_min_gap(registry13):
    scene = generate_synthetic_scene(3, registry13, min_gap=6.0)
    corners = [norm_to_corner(b, 608, 608) for _, b in scene.labels]
    for i in range(len(corners)):
        for j in range(i + 1, len(corners)):
            a, b = corners[i], corners[j]
            gap_x = max(a.x_min - b.x_max, b.x_min - a.x_max)
            gap_y = max(a.y_min - b.y_max, b.y_min - a.y_max)
            assert max(gap_x, gap_y) >= 6.0 - 0.01


def test_scene_coordinates_are_quantized(registry13):
    scene = generate_synthetic_scene(11, registry13)
    for _, b in scene.labels:
        for v in (b.cx, b.cy, b.w, b.h):
            assert v * COORD_GRID == round(v * COORD_GRID)


def test_scene_placement_failure(registry13):
    with pytest.raises(PlacementError):
        generate_synthetic_scene(0, registry13, canvas=64, count_range=(3, 3))
    # a scene has at least one part, and the range must not be empty
    for count_range in ((0, 2), (5, 3)):
        with pytest.raises(ValueError) as err:
            generate_synthetic_scene(0, registry13, count_range=count_range)
        assert str(err.value) == f"bad count_range {count_range}"


def test_scene_class_pool(registry13):
    scene = generate_synthetic_scene(5, registry13, class_pool=[4],
                                     count_range=(3, 3), min_gap=2.0)
    assert [cid for cid, _ in scene.labels] == [4, 4, 4]


def test_scenario_scenes_follow_their_layouts(registry13):
    n = len(registry13)

    def classes(name, index):
        scene = scenario_scene(name, index, index, registry13)
        return sorted(cid for cid, _ in scene.labels)

    for index in range(14):
        single = classes("single-class", index)
        assert 3 <= len(single) <= 6 and set(single) == {index % n}
        group = classes("multi-class-group", index)
        assert group == sorted((index + k) % n for k in range(4))
        assert classes("all-classes", index) == list(range(n))
    with pytest.raises(ValueError, match="unknown scenario 'weird'"):
        scenario_scene("weird", 0, 0, registry13)


def test_class_shape_distinct_for_thirteen():
    pairs = {class_shape(i) for i in range(13)}
    assert len(pairs) == 13
    kind, color = class_shape(0)
    assert kind == "block" and color == (230, 40, 40)
