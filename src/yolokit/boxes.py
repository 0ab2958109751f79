"""Axis-aligned box geometry: representations, conversions, IoU, the
anchor-based decode that turns raw grid-cell offsets into pixel boxes,
and the detection grid arithmetic (grid sizes, head channels, the cell
responsible for a box) of the detector's one head layout, `STRIDES` and
`SLOTS`, from which `postprocess` and `cli` derive every count.

Two box forms are used throughout. BoxCorner is pixel corners with the
origin at the top-left and y growing downward. BoxNorm is the normalized
center form (cx, cy, w, h as fractions of the image dimensions) used by the
label files.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# YOLOv4's heads by stride in input pixels, fine to coarse; anchor slots per cell
STRIDES = (8, 16, 32)
SLOTS = 3


def sigmoid(x):
    """Logistic function, overflow-safe on both tails. Scalar or ndarray.

    With e = exp(-|x|), which never overflows, the result is 1 / (1 + e)
    for x >= 0 and e / (1 + e) otherwise.
    """
    if isinstance(x, (int, float, np.integer, np.floating)):
        # the array path's steps without its overhead: bit-identical
        v = np.float64(x)
        e = np.exp(-abs(v))
        return float((1.0 if v >= 0.0 else e) / (1.0 + e))
    arr = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(arr))
    out = np.where(arr >= 0.0, 1.0, e)
    out /= 1.0 + e
    if arr.ndim == 0:
        return float(out)
    return out


@dataclass(frozen=True, slots=True)
class BoxCorner:
    """Pixel-corner box. Degenerate (zero-area) boxes are legal; IoU treats
    them as empty."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self):
        # NaN fails the comparisons, so it is rejected too
        if not (self.x_min <= self.x_max and self.y_min <= self.y_max):
            raise ValueError(
                f"inverted corners: ({self.x_min}, {self.y_min}, "
                f"{self.x_max}, {self.y_max})"
            )

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    @property
    def area(self) -> float:
        return self.width * self.height


@dataclass(frozen=True, slots=True)
class BoxNorm:
    """Normalized center-form box; all fields are image fractions."""

    cx: float
    cy: float
    w: float
    h: float

    def __post_init__(self):
        if not (0.0 <= self.cx <= 1.0 and 0.0 <= self.cy <= 1.0):
            raise ValueError(f"center ({self.cx}, {self.cy}) outside [0, 1]")
        if not (0.0 < self.w <= 1.0 and 0.0 < self.h <= 1.0):
            raise ValueError(f"size ({self.w}, {self.h}) outside (0, 1]")


@dataclass(frozen=True, slots=True)
class Anchor:
    """Prior box dimensions in pixels at network input resolution."""

    p_w: float
    p_h: float

    def __post_init__(self):
        if not (0 < self.p_w < np.inf and 0 < self.p_h < np.inf):
            raise ValueError(f"anchor dims must be finite and positive, got ({self.p_w}, {self.p_h})")


@dataclass(frozen=True, slots=True)
class RawPrediction:
    """One anchor slot's unconstrained network outputs at one grid cell.

    Carries its own anchor, grid size and input size, which scoring and
    `decode_box` read, so neither needs a side channel.
    """

    t_x: float
    t_y: float
    t_w: float
    t_h: float
    objectness_logit: float
    class_logits: tuple = field(repr=False)
    cell: tuple  # (row, col)
    anchor: Anchor
    grid_n: int
    input_n: int


def decode_center(t_x: float, t_y: float, cell: tuple, grid_n: int,
                  input_n: int) -> tuple[float, float]:
    """Pixel center of a prediction: ((sigmoid(t) + cell index) * stride).

    The sigmoid confines the offset to (0, 1), so the center always lands
    inside the source cell's pixel extent.
    """
    row, col = cell
    if not (0 <= row < grid_n and 0 <= col < grid_n):
        raise ValueError(f"cell {cell} outside {grid_n}x{grid_n} grid")
    stride = input_n / grid_n
    b_x = (sigmoid(t_x) + col) * stride
    b_y = (sigmoid(t_y) + row) * stride
    return b_x, b_y


def decode_corners(center, t_size, prior, input_n: int) -> np.ndarray:
    """Corners (..., 4) as (x_min, y_min, x_max, y_max) of boxes at `center`
    (x, y) with size `prior` (p_w, p_h) * exp(`t_size` (t_w, t_h)), clamped to
    [0, input_n]. Each pair lies in the last axis; the other axes broadcast."""
    with np.errstate(over="ignore"):  # an infinite size clips to the frame
        half = prior * np.exp(t_size) / 2.0
    corners = np.concatenate((center - half, center + half), axis=-1)
    return np.minimum(np.maximum(corners, 0.0), float(input_n))


def decode_box(raw: RawPrediction) -> BoxCorner:
    """Turn a prediction's raw offsets into a pixel corner box on its grid.

    Center comes from the sigmoid cell offset, size from the anchor scaled
    by exp of the raw width/height outputs. Corners clamp to [0, input_n].
    """
    center = decode_center(raw.t_x, raw.t_y, raw.cell, raw.grid_n, raw.input_n)
    return BoxCorner(*decode_corners(center, (raw.t_w, raw.t_h),
                                     (raw.anchor.p_w, raw.anchor.p_h),
                                     raw.input_n).tolist())


def iou(a: BoxCorner, b: BoxCorner) -> float:
    """Intersection over union; 0 when the union has zero area."""
    ix = min(a.x_max, b.x_max) - max(a.x_min, b.x_min)
    iy = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    inter = ix * iy
    union = a.area + b.area - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def iou_one_to_many(box: tuple, x_min: np.ndarray,
                    y_min: np.ndarray, x_max: np.ndarray,
                    y_max: np.ndarray) -> np.ndarray:
    """IoU of `box` against parallel corner arrays (same math as iou),
    computed in float64.

    `box` is an (x_min, y_min, x_max, y_max) tuple whose entries broadcast
    against the arrays, so column vectors give the IoU matrix of a block of
    boxes against many.
    """
    b_x_min, b_y_min, b_x_max, b_y_max = box
    # iou's steps in its order, each in place, so the bits match
    ix = np.minimum(b_x_max, x_max, dtype=np.float64)
    ix -= np.maximum(b_x_min, x_min)
    iy = np.minimum(b_y_max, y_max, dtype=np.float64)
    iy -= np.maximum(b_y_min, y_min)
    empty = ~((ix > 0.0) & (iy > 0.0))  # a NaN overlap is empty too
    inter = np.multiply(ix, iy, out=ix)
    inter[empty] = 0.0
    union = np.add((b_x_max - b_x_min) * (b_y_max - b_y_min),
                   (x_max - x_min) * (y_max - y_min), out=iy)
    union -= inter
    valid = union > 0.0
    out = np.divide(inter, union, out=inter, where=valid)
    out[~valid] = 0.0
    return out


def corner_to_norm(box: BoxCorner, img_w: float, img_h: float) -> BoxNorm:
    """Pixel corners to normalized center form; corners clamp to the image
    first so the result always satisfies the BoxNorm ranges."""
    if img_w <= 0 or img_h <= 0:
        raise ValueError(f"image dims must be positive, got {img_w}x{img_h}")
    x_min = min(max(box.x_min, 0.0), float(img_w))
    x_max = min(max(box.x_max, 0.0), float(img_w))
    y_min = min(max(box.y_min, 0.0), float(img_h))
    y_max = min(max(box.y_max, 0.0), float(img_h))
    return BoxNorm(
        cx=(x_min + x_max) / 2.0 / img_w,
        cy=(y_min + y_max) / 2.0 / img_h,
        w=(x_max - x_min) / img_w,
        h=(y_max - y_min) / img_h,
    )


def norm_to_corner(box: BoxNorm, img_w: float, img_h: float) -> BoxCorner:
    """Normalized center form back to pixel corners (exact affine)."""
    if img_w <= 0 or img_h <= 0:
        raise ValueError(f"image dims must be positive, got {img_w}x{img_h}")
    half_w = box.w * img_w / 2.0
    half_h = box.h * img_h / 2.0
    cx = box.cx * img_w
    cy = box.cy * img_h
    return BoxCorner(cx - half_w, cy - half_h, cx + half_w, cy + half_h)


def responsible_cell(gt: BoxNorm, grid_n: int) -> tuple[int, int]:
    """Grid cell containing the box center: (floor(cy*n), floor(cx*n)),
    clamped so a center exactly on the far edge maps to the last cell."""
    row = min(int(gt.cy * grid_n), grid_n - 1)
    col = min(int(gt.cx * grid_n), grid_n - 1)
    return row, col


def head_channels(num_classes: int) -> int:
    """Channels of one detection head: SLOTS anchor slots x (4 box terms +
    1 objectness + num_classes)."""
    if num_classes < 1:
        raise ValueError(f"need at least one class, got {num_classes}")
    return SLOTS * (4 + 1 + num_classes)


def grid_sizes(input_n: int) -> tuple[int, ...]:
    """The detection grid edge lengths, one per stride of STRIDES."""
    if input_n <= 0 or input_n % STRIDES[-1] != 0:
        raise ValueError(f"input {input_n} is not a positive multiple of {STRIDES[-1]}")
    return tuple(input_n // stride for stride in STRIDES)


def total_grid_cells(input_n: int) -> int:
    """Total grid cells across the heads: the sum of (N/stride)^2."""
    return sum(n * n for n in grid_sizes(input_n))
