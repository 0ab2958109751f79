"""Dataset tooling: PPM image I/O, label formats (normalized-center text,
pixel-corner text, aggregate CSV), rotation/flip augmentation with label
transforms, seeded synthetic scenes and the scenario layouts (`scenario_scene`).

Label coordinate conventions follow the two text formats in the wild:
per-image `class_id cx cy w h` lines in normalized center form, and
`class_name x_min y_min x_max y_max` lines in pixel corners. The CSV
aggregate uses pixel corners with one row per box.

Both label formats and `postprocess`'s detection lines are read by
`records.read_records`, which skips blank lines, checks field counts and
puts `line N: ` in front of every error; each format checks only its
fields. `ClassRegistry` also lives in `records` and is re-exported here.
"""

from __future__ import annotations

import csv
import io
import math
import os
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .boxes import BoxCorner, BoxNorm, corner_to_norm, norm_to_corner
from .records import SCENARIOS, ClassRegistry, read_records

# label coordinates are quantized to this grid so that the flip and exact
# 90-degree label maps (x -> 1-x and coordinate swaps) are closed and
# bit-exact over repeated application; 1/4096 of a 608 px canvas is under
# 0.15 px, far inside every stated tolerance
COORD_GRID = 4096


class PlacementError(ValueError):
    """Scene generator could not fit the requested shapes."""


class Image:
    """RGB raster; pixels stored as an (height, width, 3) uint8 array."""

    __slots__ = ("pixels",)

    def __init__(self, pixels):
        arr = np.asarray(pixels, dtype=np.uint8)
        if arr.ndim != 3 or arr.shape[2] != 3:
            raise ValueError(f"pixels must be (h, w, 3), got {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"image dims must be positive, got {arr.shape}")
        self.pixels = arr

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Image):
            return NotImplemented
        return np.array_equal(self.pixels, other.pixels)

    def __repr__(self) -> str:
        return f"Image({self.width}x{self.height})"


@dataclass(frozen=True)
class LabeledImage:
    """An image plus its (class_id, BoxNorm) labels and source name."""

    image: Image
    labels: tuple
    source_path: str

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))

    @property
    def stem(self) -> str:
        base = os.path.basename(self.source_path)
        return os.path.splitext(base)[0]


# ---------------------------------------------------------------------------
# PPM (P6, maxval 255)

# skip whitespace and `#` comments, then take one token's non-space bytes
_PPM_TOKEN = re.compile(rb"(?:\s|#[^\n]*)*(\S*)")


def read_ppm(data: bytes) -> Image:
    """Parse a binary P6 PPM with maxval 255.

    Header tokens may be separated by any whitespace and `#` comments.
    """
    pos = 0
    n = len(data)

    def token() -> bytes:
        nonlocal pos
        match = _PPM_TOKEN.match(data, pos)
        pos = match.end()
        if not match[1]:
            raise ValueError("truncated header")
        return match[1]

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
    pos += 1  # single whitespace byte after maxval
    size = width * height * 3
    if n - pos < size:
        raise ValueError(
            f"truncated payload: need {size} bytes, have {max(n - pos, 0)}")
    # one copy, straight out of `data`
    arr = np.frombuffer(data, dtype=np.uint8, count=size, offset=pos)
    return Image(arr.reshape(height, width, 3).copy())


def write_ppm(image: Image) -> bytes:
    """Canonical P6 serialization (bit-exact round trip with read_ppm)."""
    return b"".join(ppm_parts(image))


def ppm_parts(image: Image) -> tuple[bytes, np.ndarray]:
    """`write_ppm`'s header and the C-contiguous pixel array whose bytes
    follow it, for a file writer to write in turn without joining them."""
    header = f"P6\n{image.width} {image.height}\n255\n".encode("ascii")
    return header, np.ascontiguousarray(image.pixels)


# ---------------------------------------------------------------------------
# Label text formats

def read_yolo_labels(text: str, registry) -> list[tuple[int, BoxNorm]]:
    """Parse `class_id cx cy w h` lines (normalized center form).

    Raises ValueError with the line number for a wrong field count, a
    class_id outside the registry, or coordinates outside their ranges.
    """
    num_classes = len(registry)

    def label(parts):
        try:
            class_id = int(parts[0])
        except ValueError:
            raise ValueError(f"class_id {parts[0]!r} is not an integer") from None
        if not (0 <= class_id < num_classes):
            raise ValueError(f"class_id {class_id} outside 0..{num_classes - 1}")
        try:
            cx, cy, w, h = (float(p) for p in parts[1:])
        except ValueError:
            raise ValueError("non-numeric coordinate") from None
        return class_id, BoxNorm(cx, cy, w, h)

    return read_records(text, 5, label)


def write_yolo_labels(labels: Iterable[tuple[int, BoxNorm]]) -> str:
    """One `class_id cx cy w h` line per label, 6 decimals, LF endings."""
    return "".join(
        f"{cid} {b.cx:.6f} {b.cy:.6f} {b.w:.6f} {b.h:.6f}\n"
        for cid, b in labels)


def read_labelimg_corners(text: str, image_dims: tuple[int, int],
                          registry) -> list[tuple[int, BoxCorner]]:
    """Parse `class_name x_min y_min x_max y_max` pixel-corner lines into
    (class_id, BoxCorner) pairs, each name looked up in `registry`.

    `image_dims` is (width, height). Corners may exceed the image by at
    most one pixel (they are clamped); beyond that is an error, as are
    inverted corners, a box of zero width or height after clamping and
    unknown class names.
    """
    img_w, img_h = image_dims

    def corner(parts):
        class_id = registry.index(parts[0])
        try:
            x_min, y_min, x_max, y_max = (float(p) for p in parts[1:])
        except ValueError:
            raise ValueError("non-numeric coordinate") from None
        if not (x_min <= x_max and y_min <= y_max):
            raise ValueError(f"inverted corners ({x_min}, {y_min}, {x_max}, {y_max})")
        if (x_min < -1.0 or y_min < -1.0 or x_max > img_w + 1.0
                or y_max > img_h + 1.0):
            raise ValueError(f"corners outside {img_w}x{img_h} image "
                             f"beyond 1 px tolerance")
        box = BoxCorner(min(max(x_min, 0.0), float(img_w)),
                        min(max(y_min, 0.0), float(img_h)),
                        min(max(x_max, 0.0), float(img_w)),
                        min(max(y_max, 0.0), float(img_h)))
        if not (box.width > 0 and box.height > 0):
            raise ValueError(f"box ({x_min}, {y_min}, {x_max}, {y_max}) has zero "
                             f"width or height in the {img_w}x{img_h} image")
        return class_id, box

    return read_records(text, 5, corner)


def write_labelimg_corners(labels: Iterable[tuple[int, BoxCorner]], registry) -> str:
    """Inverse of read_labelimg_corners; numbers are written with `str`,
    a float32 as its shortest digits."""
    return "".join(
        " ".join(map(str, (registry[cid], b.x_min, b.y_min, b.x_max, b.y_max))) + "\n"
        for cid, b in labels)


# ---------------------------------------------------------------------------
# CSV aggregation

CSV_HEADER = ("filename", "width", "height", "class",
              "x_min", "y_min", "x_max", "y_max")


class CsvRow(NamedTuple):
    """One box of one image in `CSV_HEADER`'s field order, pixel corners.
    Construction checks nothing; `parse_csv` checks the rows it reads.
    `format_csv` writes its numbers with `str`: a float32 0.1 as `0.1`."""

    filename: str
    width: int
    height: int
    class_name: str
    x_min: float
    y_min: float
    x_max: float
    y_max: float


def dataset_to_rows(dataset: Iterable[LabeledImage], registry) -> list[CsvRow]:
    def image_rows(sample):
        filename = os.path.basename(sample.source_path)
        w, h = sample.image.width, sample.image.height
        corners = [(cid, norm_to_corner(box, w, h)) for cid, box in sample.labels]
        return [CsvRow(filename, w, h, registry[cid],
                       c.x_min, c.y_min, c.x_max, c.y_max) for cid, c in corners]

    # map lets go of each sample before it takes the next, so a lazy
    # dataset is read one image at a time
    rows = [row for per_image in map(image_rows, dataset) for row in per_image]
    rows.sort(key=lambda r: r.filename)  # stable: keeps label order per file
    return rows


def format_csv(rows: Sequence[CsvRow]) -> str:
    """Header plus one row per box, numbers written with `str`: a float's
    shortest repr, so format(parse(format(x))) == format(x) byte for byte;
    a float32 as its shortest digits, which read back as their float."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    writer.writerows(rows)
    return buf.getvalue()


_CSV_KINDS = (str, int, int, str, float, float, float, float)  # per CSV_HEADER field


def _csv_field(name: str, kind, text: str):
    """One CSV field as `kind`; a float must be finite."""
    try:
        value = kind(text)
        if kind is not float or math.isfinite(value):
            return value
    except ValueError:
        pass
    raise ValueError(f"{name} {text!r} is not "
                     + ("an integer" if kind is int else "a finite number"))


def parse_csv(text: str) -> list[CsvRow]:
    """Parse `format_csv` text. Every error but an empty text is a
    ValueError with `line N: ` in front, and a bad number names its field."""
    reader = csv.reader(io.StringIO(text))
    rows: list[CsvRow] = []
    try:
        header = next(reader, None)
        if header is not None and tuple(header) != CSV_HEADER:
            raise ValueError(f"bad CSV header {header!r}")
        for record in filter(None, reader):
            if len(record) != len(CSV_HEADER):
                raise ValueError(f"CSV row with {len(record)} fields: {record!r}")
            row = CsvRow(*map(_csv_field, CSV_HEADER, _CSV_KINDS, record))
            if row.width < 1 or row.height < 1:
                raise ValueError(f"image size {row.width}x{row.height} is below 1x1")
            BoxCorner(*row[4:])  # raises on inverted corners
            rows.append(row)
    except csv.Error as exc:
        raise ValueError(f"line {reader.line_num}: malformed CSV: {exc}") from None
    except ValueError as exc:
        raise ValueError(f"line {reader.line_num}: {exc}") from None
    if header is None:
        raise ValueError("empty CSV (missing header)")
    return rows


def aggregate_csv(dataset: Iterable[LabeledImage], registry) -> str:
    """All boxes of a dataset as CSV text."""
    return format_csv(dataset_to_rows(dataset, registry))


# ---------------------------------------------------------------------------
# Augmentation

# short axis names, as `--flips` and the `_f<tag>` of variant names use them
FLIP_AXES = {"h": "horizontal", "v": "vertical"}

# `rotate` drops a resampled label whose clipped box keeps less than this
# share of its area
_MIN_VISIBLE = 0.2

# destination pixels per band of `rotate`'s inverse map: a band's float64
# and index temporaries are 128 KiB each, however large the image
_BAND_PIXELS = 1 << 14


def _mirror(sample: LabeledImage, swap: bool, flip_x: bool,
            flip_y: bool) -> LabeledImage:
    """Transpose pixels and labels when `swap` is set, then mirror x
    and/or y: each of the eight exact axis-aligned variants. Pixels move
    by permutation, and each label coordinate is copied or becomes
    1.0 - v, so labels on the 1/4096 grid stay on it."""
    pixels = sample.image.pixels
    if swap:
        pixels = pixels.swapaxes(0, 1)
    pixels = pixels[::-1 if flip_y else 1, ::-1 if flip_x else 1]
    labels = []
    for cid, b in sample.labels:
        cx, cy, w, h = (b.cy, b.cx, b.h, b.w) if swap else (b.cx, b.cy, b.w, b.h)
        labels.append((cid, BoxNorm(1.0 - cx if flip_x else cx,
                                    1.0 - cy if flip_y else cy, w, h)))
    return LabeledImage(Image(pixels.copy()), tuple(labels), sample.source_path)


def flip(sample: LabeledImage, axis: str) -> LabeledImage:
    """Mirror pixels and labels. 'horizontal' mirrors x (cx -> 1-cx),
    'vertical' mirrors y (cy -> 1-cy). An involution on both."""
    horizontal = _flip_axis(axis) == "horizontal"
    return _mirror(sample, False, horizontal, not horizontal)


def _flip_axis(axis: str) -> str:
    if axis not in FLIP_AXES.values():
        raise ValueError(f"axis must be 'horizontal' or 'vertical', got {axis!r}")
    return axis


def _angle_tag(angle: float) -> str:
    return f"{angle:g}"


def _finite_degrees(degrees) -> float:
    try:
        degrees = float(degrees)
    except ValueError:
        raise ValueError(f"rotation {degrees!r} is not a number") from None
    if not math.isfinite(degrees):
        raise ValueError(f"rotation {_angle_tag(degrees)} is not a finite angle")
    return degrees


def rotate(sample: LabeledImage, degrees: float) -> LabeledImage:
    """Rotate clockwise about the image center onto a same-size canvas
    (negative degrees turn counter-clockwise).

    0 degrees, and multiples of 90 degrees on a square canvas, use an
    exact pixel permutation and exact label coordinate maps. Any other
    angle (a quarter turn of a non-square canvas too) resamples nearest
    neighbor (off-canvas source pixels become black) and replaces each
    label with the axis-aligned enclosing box of its rotated corners,
    clipped to the canvas; a label whose clipped box area falls below
    `_MIN_VISIBLE` of its original box area is dropped. A non-finite angle
    raises ValueError.
    """
    # a tiny negative angle wraps to 360.0 once; the second % takes it to 0
    deg = _finite_degrees(degrees) % 360.0 % 360.0
    img = sample.image
    h, w = img.height, img.width
    if deg == 0.0 or (deg % 90.0 == 0.0 and h == w):
        k = int(deg // 90.0)  # clockwise quarter turns
        return _mirror(sample, k % 2 == 1, k in (1, 2), k in (2, 3))

    theta = math.radians(deg)
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    cx0, cy0 = w / 2.0, h / 2.0

    # inverse map: for each destination pixel center, rotate back by theta,
    # one band of rows at a time so that the index arrays stay small; an
    # index off the canvas is clipped onto the source's 1-px black border
    dx = np.arange(w) + 0.5 - cx0
    dy = (np.arange(h) + 0.5 - cy0)[:, None]
    source = np.pad(img.pixels, ((1, 1), (1, 1), (0, 0)))
    pixels = np.empty_like(img.pixels)
    rows = max(1, _BAND_PIXELS // w)
    for top in range(0, h, rows):
        band = dy[top:top + rows]
        # clockwise forward is (x cos - y sin, x sin + y cos) with y down,
        # so the inverse uses the transpose
        src_x = np.floor(cos_t * dx + sin_t * band + cx0).astype(np.intp)
        src_y = np.floor(-sin_t * dx + cos_t * band + cy0).astype(np.intp)
        pixels[top:top + rows] = source[np.clip(src_y, -1, h) + 1,
                                        np.clip(src_x, -1, w) + 1]

    labels = []
    for cid, b in sample.labels:
        corner = norm_to_corner(b, w, h)
        offsets = [(x - cx0, y - cy0) for x in (corner.x_min, corner.x_max)
                   for y in (corner.y_min, corner.y_max)]
        rx = [cos_t * x - sin_t * y + cx0 for x, y in offsets]
        ry = [sin_t * x + cos_t * y + cy0 for x, y in offsets]
        x_min, x_max = max(min(rx), 0.0), min(max(rx), float(w))
        y_min, y_max = max(min(ry), 0.0), min(max(ry), float(h))
        if x_max <= x_min or y_max <= y_min:
            continue
        clipped_area = (x_max - x_min) * (y_max - y_min)
        if clipped_area < _MIN_VISIBLE * corner.area:
            continue
        labels.append((cid, corner_to_norm(
            BoxCorner(x_min, y_min, x_max, y_max), w, h)))
    return LabeledImage(Image(pixels), tuple(labels), sample.source_path)


def iter_expanded(samples: Iterable[LabeledImage], rotations: Sequence,
                  flips: Sequence[str]) -> Iterator[LabeledImage]:
    """Every (rotation x flip-state) variant of every sample, made lazily.

    Flip states are identity plus each requested axis; an empty rotation
    list behaves as a single 0-degree rotation (flips-only expansion).
    Variant names follow `<stem>_r<deg>_f<axis>`. A non-number or
    non-finite angle, an angle equal to an earlier one modulo 360 (`rotate`
    turns 0 and 360 alike) or named like it in `<deg>` (90 and 90.0000001
    are both `r90`), an unknown axis or a repeated axis raises ValueError
    from this call, before any sample is read.
    """
    angles = [_finite_degrees(angle) for angle in rotations] or [0.0]
    flips = [_flip_axis(axis) for axis in flips]
    for kind, values, turn, show in (
            ("rotation", angles, lambda angle: angle % 360.0 % 360.0, _angle_tag),
            ("flip axis", flips, str, repr)):
        for i, value in enumerate(values):
            if any(turn(value) == turn(v) or show(value) == show(v)
                   for v in values[:i]):
                raise ValueError(f"repeated {kind} {show(value)}")
    tags = {None: "none", **{axis: tag for tag, axis in FLIP_AXES.items()}}

    def variants():
        for sample in samples:
            ext = os.path.splitext(sample.source_path)[1] or ".ppm"
            for angle in angles:
                rotated = rotate(sample, angle)
                for state in [None, *flips]:
                    variant = rotated if state is None else flip(rotated, state)
                    name = f"{sample.stem}_r{_angle_tag(angle)}_f{tags[state]}{ext}"
                    yield LabeledImage(variant.image, variant.labels, name)

    return variants()


@dataclass(frozen=True)
class ExpansionReport:
    """Per-class image counts of a dataset and which classes miss a floor."""

    per_class: dict
    below_floor: tuple


def expansion_report(samples: Iterable[LabeledImage], registry,
                     floor: int) -> ExpansionReport:
    """Count images containing each class; flag classes under the floor."""
    counts = {name: 0 for name in registry}
    for sample in samples:
        present = {cid for cid, _ in sample.labels}
        for cid in present:
            counts[registry[cid]] += 1
    below = tuple(name for name in registry if counts[name] < floor)
    return ExpansionReport(counts, below)


# ---------------------------------------------------------------------------
# Synthetic scenes

# 13 visually distinct colors, one per class_id
PALETTE = (
    (230, 40, 40), (40, 200, 60), (60, 90, 230), (240, 200, 40),
    (200, 60, 220), (40, 210, 210), (240, 130, 40), (130, 220, 60),
    (90, 60, 200), (220, 80, 140), (100, 180, 120), (180, 160, 90),
    (150, 150, 230),
)

SHAPE_KINDS = ("block", "disc", "wedge", "diamond", "ring", "cross")


def _shape_mask(kind: str, size: int) -> np.ndarray:
    """Boolean (size, size) mask of one parametric shape."""
    ii, jj = np.mgrid[0:size, 0:size]
    c = (size - 1) / 2.0
    r = (size - 1) / 2.0
    if kind == "block":
        return np.ones((size, size), dtype=bool)
    if kind == "disc":
        return (ii - c) ** 2 + (jj - c) ** 2 <= r * r
    if kind == "wedge":
        return jj <= ii
    if kind == "diamond":
        return np.abs(ii - c) + np.abs(jj - c) <= r
    if kind == "ring":
        d2 = (ii - c) ** 2 + (jj - c) ** 2
        return (d2 <= r * r) & (d2 >= (r / 2.0) ** 2)
    if kind == "cross":
        arm = max(1.0, r / 3.0)
        return (np.abs(ii - c) <= arm) | (np.abs(jj - c) <= arm)
    raise ValueError(f"unknown shape kind {kind!r}")


def class_shape(class_id: int) -> tuple[str, tuple[int, int, int]]:
    """Deterministic (shape kind, color) for a class id."""
    return (SHAPE_KINDS[class_id % len(SHAPE_KINDS)],
            PALETTE[class_id % len(PALETTE)])


def _quantize(value: float) -> float:
    """Snap to the 1/COORD_GRID coordinate lattice (exact: the grid step is
    a power of two)."""
    return round(value * COORD_GRID) / COORD_GRID


def _box_gap(a: tuple, b: tuple) -> float:
    """Largest axis separation between two pixel boxes; negative when the
    boxes overlap on both axes."""
    gap_x = max(a[0] - b[2], b[0] - a[2])
    gap_y = max(a[1] - b[3], b[1] - a[3])
    return max(gap_x, gap_y)


def generate_synthetic_scene(seed: int, registry, count_range=(3, 8),
                             min_gap: float = 4.0, *, canvas: int = 608,
                             margin: int = 10,
                             class_pool=None) -> LabeledImage:
    """Render a deterministic scene of parametric shapes with exact labels.

    Each shape's ground-truth box is the tight box of its own rendered
    pixel mask. Classes are assigned round-robin from `class_pool`
    (default: the whole registry), so scenes with count <= pool size get
    all-distinct classes. `min_gap` is the minimum box separation in
    pixels; negative values allow overlap. Raises PlacementError when a
    shape cannot be placed after bounded retries.
    """
    rng = np.random.default_rng(seed)
    lo, hi = count_range
    if not (1 <= lo <= hi):
        raise ValueError(f"bad count_range {count_range}")
    count = int(rng.integers(lo, hi + 1))
    pool = list(class_pool) if class_pool is not None else list(range(len(registry)))
    start = int(rng.integers(0, len(pool)))
    class_ids = [pool[(start + i) % len(pool)] for i in range(count)]

    pixels = np.zeros((canvas, canvas, 3), dtype=np.uint8)
    placed: list[tuple] = []
    labels: list[tuple[int, BoxNorm]] = []
    for class_id in class_ids:
        kind, color = class_shape(class_id)
        ok = False
        for _ in range(200):
            size = int(rng.integers(24, 81))
            limit = canvas - margin - size
            if limit <= margin:
                continue
            x0 = int(rng.integers(margin, limit + 1))
            y0 = int(rng.integers(margin, limit + 1))
            mask = _shape_mask(kind, size)
            rows_any = np.nonzero(mask.any(axis=1))[0]
            cols_any = np.nonzero(mask.any(axis=0))[0]
            box = (x0 + float(cols_any[0]), y0 + float(rows_any[0]),
                   x0 + float(cols_any[-1] + 1), y0 + float(rows_any[-1] + 1))
            if all(_box_gap(box, other) >= min_gap for other in placed):
                ok = True
                break
        if not ok:
            raise PlacementError(
                f"could not place shape {len(placed) + 1}/{count} "
                f"after 200 attempts (min_gap={min_gap})")
        pixels[y0:y0 + size, x0:x0 + size][mask] = color
        placed.append(box)
        norm = corner_to_norm(BoxCorner(*box), canvas, canvas)
        labels.append((class_id, BoxNorm(
            _quantize(norm.cx), _quantize(norm.cy),
            _quantize(norm.w), _quantize(norm.h))))
    return LabeledImage(Image(pixels), tuple(labels),
                        f"scene_{seed:06d}.ppm")


def scenario_scene(scenario: str, index: int, seed: int, registry) -> LabeledImage:
    """Scene `index` of a `records.SCENARIOS` scenario, drawn by
    `generate_synthetic_scene(seed, registry, ...)`. With n classes:
    single-class has 3 to 6 parts of class `index % n`; multi-class-group
    has one part each of the 4 classes from `index % n` on; all-classes
    has one part of each class. Their parts are at least 4, 1 and 2 px apart."""
    n = len(registry)
    layouts = {"single-class": ((3, 6), 4.0, [index % n]),  # count range, gap, pool
               "multi-class-group": ((4, 4), 1.0, [(index + k) % n for k in range(4)]),
               "all-classes": ((n, n), 2.0, None)}  # None: every class
    if scenario not in layouts:
        raise ValueError(f"unknown scenario {scenario!r}, need one of {SCENARIOS}")
    counts, gap, pool = layouts[scenario]
    return generate_synthetic_scene(seed, registry, counts, gap, class_pool=pool)
