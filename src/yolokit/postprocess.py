"""From raw head tensors to final labeled detections.

Pipeline: extract per-cell anchor-slot predictions from each scale's head
tensor, score them (sigmoid objectness, sigmoid per-class scores, argmax
class), suppress duplicates with greedy NMS, then gate on a confidence
floor. The list functions (`extract_predictions`, `score_predictions`,
`nms`, `two_stage_filter`) run each step on its own; `detect_frame`
composes all four over the scales of `boxes.STRIDES` on arrays and
produces results identical to running the list functions in sequence.

Both paths read a head through one slot table: one row of fields per
anchor slot, numbered through the scales, and one decoder of a slot
number's scale, grid row, column and anchor. They score through one
function, decode boxes through one function and suppress through one
engine. One drop rule decides what `detect_frame` outputs: a slot's
confidence (objectness * class_score) must reach
max(objectness_threshold, confidence_floor). Using the floor before
suppression is exact: NMS pops in descending confidence, so a candidate
below the floor pops after every one at or above it and can suppress
none of them. `detect_frame` scores only the slots whose sigmoid
objectness reaches that threshold, which is exact because class scores
are at most 1. It finds them in two steps: a prefilter compares the raw
objectness logits, as read (float32 from a head file), with a bound that
no logit reaching the threshold falls below; then the exact sigmoid test
runs on the few survivors. Only the survivors' logits and the gated slots' rows are
widened to float64, and only the slots whose confidence reaches the
threshold have their boxes decoded. NMS computes IoU a block of
candidates at a time and walks only the block rows that suppress a later
candidate, so it makes the same keep/suppress decisions as popping one
candidate at a time.

`detect_frame` returns a `Detections`: the kept boxes as columns, checked
once per frame. It is a sequence of `Detection` that builds the objects
only when a caller indexes, iterates or compares it, and
`format_detections` writes its text straight from the columns.

Both paths reject a NaN objectness logit, and a NaN in any row they
score, with one ValueError that names the scale, cell, slot and channel.
Infinite logits are legal.

`RunConfig` holds the anchors and thresholds of the `encode`, `detect`
and `bench` commands, starting from `DetectConfig`'s defaults, and
`parse_run_config` and `format_run_config` its key=value text.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from .boxes import (SLOTS, STRIDES, Anchor, BoxCorner, RawPrediction, decode_corners,
                    grid_sizes, head_channels, iou_one_to_many, responsible_cell,
                    sigmoid)
from .records import ClassRegistry, read_records
from .tensor import ShapeError, Tensor

# YOLOv4's priors in input pixels, SLOTS per scale, fine to coarse
DEFAULT_ANCHORS = (
    Anchor(12, 16), Anchor(19, 36), Anchor(40, 28),
    Anchor(36, 75), Anchor(76, 55), Anchor(72, 146),
    Anchor(142, 110), Anchor(192, 243), Anchor(459, 401),
)


def nine_anchors(anchors) -> tuple:
    """`anchors` as a tuple, which must hold SLOTS priors per stride of STRIDES."""
    anchors = tuple(anchors)
    if len(anchors) != SLOTS * len(STRIDES):
        raise ShapeError(f"need {SLOTS * len(STRIDES)} anchors, got {len(anchors)}")
    return anchors


def check_unit_interval(name: str, value: float) -> None:
    """Raise ValueError naming `name` unless `value` lies in [0, 1] (NaN fails)."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} {value} outside [0, 1]")


@dataclass(frozen=True, slots=True)
class Detection:
    """A scored, class-labeled box. confidence = objectness * class_score."""

    box: BoxCorner
    class_id: int
    class_name: str
    objectness: float
    class_score: float
    confidence: float

    def __post_init__(self):
        if not (0.0 <= self.objectness <= 1.0 and 0.0 <= self.class_score <= 1.0
                and 0.0 <= self.confidence <= 1.0):
            raise ValueError("scores must lie in [0, 1]")


class Detections(Sequence):
    """Detections as columns: class ids, objectness, class scores and
    confidences of n boxes, their (n, 4) corners, and the class names the
    ids index.

    A read-only sequence of Detection. A Detection is built only when a
    row is indexed or iterated; a slice is a Detections. It equals a list
    or a Detections holding equal Detections, in either operand order.
    The rows are checked at once by the rules of Detection and BoxCorner;
    the first failing row raises its message.
    """

    __slots__ = ("class_id", "objectness", "class_score", "confidence",
                 "corners", "class_names")

    def __init__(self, class_id, objectness, class_score, confidence,
                 corners, class_names):
        self.class_id, self.objectness, self.class_score = (
            class_id, objectness, class_score)
        self.confidence, self.corners, self.class_names = (
            confidence, corners, class_names)
        # scores and box sizes in one array: the rows pass when its minimum
        # is at least 0 and the scores' maximum at most 1 (NaN fails both)
        checked = np.array((objectness, class_score, confidence,
                            corners[:, 2] - corners[:, 0],
                            corners[:, 3] - corners[:, 1]))
        if not (checked.min(initial=0.0) >= 0.0
                and checked[:3].max(initial=1.0) <= 1.0):
            for _ in self:  # the first failing row raises its message
                pass

    def __len__(self) -> int:
        return len(self.class_id)

    def __iter__(self):
        names = self.class_names
        for cid, obj, score, conf, box in zip(*(column.tolist() for column in (
                self.class_id, self.objectness, self.class_score,
                self.confidence, self.corners))):
            yield Detection(BoxCorner(*box), cid, names[cid], obj, score, conf)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return Detections(self.class_id[key], self.objectness[key],
                              self.class_score[key], self.confidence[key],
                              self.corners[key], self.class_names)
        row = range(len(self))[key]
        return next(iter(self[row:row + 1]))

    def __eq__(self, other):
        if isinstance(other, Detections):
            other = list(other)
        elif not isinstance(other, list):
            return NotImplemented
        return list(self) == other

    def __repr__(self) -> str:
        return f"Detections({list(self)!r})"


@dataclass(frozen=True, slots=True)
class NmsConfig:
    """Suppression thresholds.

    Detections whose confidence (objectness * class_score) is under
    `objectness_threshold` are dropped before suppression, as darknet's
    `thresh`. `per_class` restricts suppression to pairs sharing a class_id.
    """

    objectness_threshold: float = 0.25
    iou_threshold: float = 0.45
    per_class: bool = False

    def __post_init__(self):
        check_unit_interval("objectness_threshold", self.objectness_threshold)
        check_unit_interval("iou_threshold", self.iou_threshold)


@dataclass(frozen=True, slots=True)
class DetectConfig:
    """Full post-processing configuration for one frame."""

    nms: NmsConfig = NmsConfig()
    confidence_floor: float = 0.5

    def __post_init__(self):
        check_unit_interval("confidence_floor", self.confidence_floor)


_DETECT_DEFAULTS = DetectConfig()  # RunConfig's threshold defaults


@dataclass(frozen=True)
class RunConfig:
    """Anchors and post-processing settings shared by `encode`, `detect`
    and `bench`; `confidence_threshold` is detect_frame's one drop threshold."""

    anchors: tuple = field(default_factory=lambda: DEFAULT_ANCHORS)  # read when built
    confidence_threshold: float = max(_DETECT_DEFAULTS.nms.objectness_threshold,
                                      _DETECT_DEFAULTS.confidence_floor)
    iou_threshold: float = _DETECT_DEFAULTS.nms.iou_threshold
    per_class_nms: bool = _DETECT_DEFAULTS.nms.per_class

    def __post_init__(self):
        nine_anchors(self.anchors)
        self.detect_config()  # NmsConfig and DetectConfig check the thresholds

    def detect_config(self) -> DetectConfig:
        nms = NmsConfig(self.confidence_threshold, self.iou_threshold,
                        per_class=self.per_class_nms)
        return DetectConfig(nms, self.confidence_threshold)


def _parse_anchors(value: str) -> tuple:
    nums = [float(v) for v in value.split(",")]
    count = 2 * SLOTS * len(STRIDES)
    if len(nums) != count:
        raise ValueError(f"anchors needs {count} numbers, got {len(nums)}")
    return tuple(map(Anchor, nums[::2], nums[1::2]))


def _parse_flag(value: str) -> bool:
    if value.lower() not in ("0", "1", "false", "true", "no", "yes"):
        raise ValueError(f"per_class_nms must be 0/1/true/false/yes/no, got {value!r}")
    return value.lower() in ("1", "true", "yes")


# Each RunConfig field's (parse, format) pair, in canonical order.
_RUN_CONFIG_KEYS = {
    "anchors": (_parse_anchors, lambda v: ",".join(
        f"{float(a.p_w)!r},{float(a.p_h)!r}" for a in v)),
    "confidence_threshold": (float, str),
    "iou_threshold": (float, str),
    "per_class_nms": (_parse_flag, lambda flag: "1" if flag else "0"),
}


def parse_run_config(text: str) -> RunConfig:
    """Parse `key=value` lines (#-comments allowed) into a RunConfig.

    Keys are the RunConfig field names. Every error is a ValueError that
    names its config line.
    """
    config = RunConfig()
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            if "=" not in line:
                raise ValueError(f"expected key=value, got {line!r}")
            key, _, value = (part.strip() for part in line.partition("="))
            if key in seen:
                raise ValueError(f"duplicate key {key!r}")
            seen.add(key)
            if key not in _RUN_CONFIG_KEYS:
                raise ValueError(f"unknown config key {key!r}")
            config = replace(config, **{key: _RUN_CONFIG_KEYS[key][0](value)})
        except ValueError as exc:
            raise ValueError(f"config line {lineno}: {exc}") from None
    return config


def format_run_config(config: RunConfig) -> str:
    """Canonical config text; parse_run_config(format_run_config(c)) == c.
    Thresholds are written with `str`, a float32 as its shortest digits."""
    return "".join(f"{key}={fmt(getattr(config, key))}\n"
                   for key, (_, fmt) in _RUN_CONFIG_KEYS.items())


def _head_fields(head: np.ndarray, num_classes: int):
    """View a head's (height, width, channels) array as one row per slot.

    Returns (grid_n, fields), fields of shape (grid_n*grid_n*SLOTS, 5 + C):
    row (row*grid_n + col)*SLOTS + s holds slot s of cell (row, col) as
    [t_x, t_y, t_w, t_h, objectness, class_0 .. class_{C-1}].
    """
    height, width, channels = head.shape
    if height != width:
        raise ShapeError(f"head must be square, got {height}x{width}")
    expect = head_channels(num_classes)
    if channels != expect:
        raise ShapeError(
            f"head has {channels} channels; {num_classes} classes "
            f"requires {SLOTS}*(4+1+{num_classes}) = {expect}")
    return height, head.reshape(height * width * SLOTS, expect // SLOTS)


def _slot_cells(index, grids):
    """Scale, grid row, column and anchor slot of each slot number in
    `index`. Slots are numbered through heads of `grids` cells a side,
    one head after another, cell-major and slot-minor within each head,
    so that scale 0 is the first of `grids`."""
    grids = np.asarray(grids)
    sizes = SLOTS * grids * grids
    starts = np.cumsum(sizes) - sizes
    scale = np.searchsorted(starts, index, side="right") - 1
    cell, slot = np.divmod(index - starts[scale], SLOTS)
    rows, cols = np.divmod(cell, grids[scale])
    return scale, rows, cols, slot


@functools.lru_cache(maxsize=4)
def _slot_geometry(grids: tuple, priors: tuple) -> np.ndarray:
    """Grid column, row, stride and prior width and height of every slot
    of heads with `grids` cells a side (one per stride of STRIDES) and
    `priors` ((p_w, p_h) pairs, SLOTS per head), one read-only row per
    slot as `_slot_cells` numbers them, as `_decode_rows` reads them.
    Cached: a frame takes its slots' rows with one gather."""
    scale, rows, cols, slot = _slot_cells(
        np.arange(SLOTS * sum(g * g for g in grids)), grids)
    strides = np.array(STRIDES, dtype=np.float64)[scale]
    table = np.column_stack(
        (cols, rows, strides, np.array(priors)[SLOTS * scale + slot]))
    table.flags.writeable = False
    return table


def _scale_rows(scales, index, first_scale=0):
    """The `_head_fields` rows at the sorted slot numbers `index` (as
    `_slot_cells` numbers them) of `scales`, (grid_n, fields) pairs,
    widened to float64. A NaN in them raises ValueError naming its scale
    (`first_scale` for the first pair), cell, slot and channel; infinite
    logits are legal: scores and boxes clip them."""
    starts = [0]
    for _, fields in scales:
        starts.append(starts[-1] + fields.shape[0])
    bounds = np.searchsorted(index, starts).tolist()
    gathered = np.concatenate(
        [fields[index[low:high] - start] for (_, fields), start, low, high
         in zip(scales, starts, bounds, bounds[1:])], dtype=np.float64)
    bad = np.isnan(gathered)
    if bad.any():
        i, field = np.argwhere(bad)[0]
        scale, row, col, slot = (int(v[0]) for v in _slot_cells(
            index[i:i + 1], [grid_n for grid_n, _ in scales]))
        raise ValueError(f"scale {first_scale + scale}, cell ({row}, {col}), "
                         f"slot {slot}, channel {slot * gathered.shape[1] + field}: "
                         f"logit is nan")
    return gathered


def extract_predictions(head: Tensor, anchors, num_classes: int,
                        input_n: int, scale_index: int = 0) -> list[RawPrediction]:
    """One RawPrediction per (cell, anchor slot), cell-major slot-minor.

    `anchors` is this scale's SLOTS priors. A head whose channel count
    disagrees with SLOTS*(4+1+num_classes) is rejected, and so is a NaN
    anywhere in it: every slot is scored downstream. `scale_index` is the
    scale that a NaN's message names.
    """
    anchors = tuple(anchors)
    if len(anchors) != SLOTS:
        raise ShapeError(f"need exactly {SLOTS} anchors per scale, got {len(anchors)}")
    grid_n, fields = _head_fields(head.data, num_classes)
    index = np.arange(fields.shape[0])
    fields = _scale_rows([(grid_n, fields)], index, scale_index)
    _, rows, cols, _ = _slot_cells(index, [grid_n])
    return [RawPrediction(
        t_x=vec[0], t_y=vec[1], t_w=vec[2], t_h=vec[3],
        objectness_logit=vec[4], class_logits=tuple(vec[5:]),
        cell=(row, col), anchor=anchors[i % SLOTS], grid_n=grid_n, input_n=input_n,
    ) for i, (vec, row, col) in enumerate(zip(
        fields.tolist(), rows.tolist(), cols.tolist()))]


def _score_arrays(objectness, fields):
    """Vectorized scoring of prediction rows.

    `fields` holds one [t_x, t_y, t_w, t_h, objectness, classes...] row
    per prediction and `objectness` its sigmoid. Returns (class_id,
    class_score, confidence). Ties in the class argmax break toward the
    lowest class index.
    """
    class_scores = sigmoid(fields[:, 5:])
    class_id = np.argmax(class_scores, axis=1)
    class_score = class_scores[np.arange(class_scores.shape[0]), class_id]
    return class_id, class_score, objectness * class_score


def _decode_rows(fields, geometry, input_n):
    """Corners (n, 4) of the boxes of prediction rows `fields` with their
    `_slot_geometry` rows (column, row, stride, p_w, p_h) in `geometry`."""
    center = np.column_stack((sigmoid(fields[:, 0]), sigmoid(fields[:, 1])))
    center += geometry[:, :2]
    center *= geometry[:, 2:3]
    return decode_corners(center, fields[:, 2:4], geometry[:, 3:], input_n)


def score_predictions(raws: list[RawPrediction],
                      class_names) -> list[Detection]:
    """Score and decode raw predictions into Detections named from `class_names`."""
    if not raws:
        return []
    input_n = raws[0].input_n
    for r in raws:
        if r.input_n != input_n:
            raise ShapeError("predictions mix different input sizes")
    fields = np.array([(r.t_x, r.t_y, r.t_w, r.t_h, r.objectness_logit,
                        *r.class_logits) for r in raws])
    geometry = np.array([
        (r.cell[1], r.cell[0], r.input_n / r.grid_n, r.anchor.p_w, r.anchor.p_h)
        for r in raws], dtype=np.float64)

    objectness = sigmoid(fields[:, 4])
    class_id, class_score, confidence = _score_arrays(objectness, fields)
    corners = _decode_rows(fields, geometry, input_n)
    return list(Detections(class_id, objectness, class_score, confidence,
                           corners, class_names))


# Elements in one block's IoU matrix in `_nms_engine`: a block takes as
# many rows as fit, and a single row when one row alone is longer. 256 KB
# per float64 temporary keeps a block's temporaries in a 2 MB L2 cache;
# 2^18 made crowded frames ~20% slower than 2^15 on a 2-core x86-64 host.
_NMS_BLOCK_ELEMENTS = 1 << 15


def _nms_engine(confidence: np.ndarray, corners: np.ndarray,
                class_id: np.ndarray, config: NmsConfig) -> np.ndarray:
    """Greedy suppression over parallel arrays of candidates; returns kept
    indices in pop order (descending confidence, ties to the lower index).
    The caller picks the candidates: every row given may be kept.

    Works on blocks of consecutive pending candidates in pop order: one
    broadcast gives each block row's IoU with every pending candidate,
    then the rows are walked greedily. A row still pending when reached
    is kept and removes the later candidates it suppresses, so every
    decision is the one the one-pop-at-a-time loop makes. The walk visits
    only the rows that suppress a later candidate: any other row is kept
    exactly when it is pending, and changes no later decision.
    """
    # stable sort on negated confidence = pop-max with lowest-index ties
    order = np.argsort(-confidence, kind="stable")
    boxes = corners[order].T
    cls = class_id[order]
    kept = [order[:0]]
    pending = np.arange(order.size)
    while pending.size:
        block = pending[:max(1, _NMS_BLOCK_ELEMENTS // pending.size)]
        # (x_min, y_min, x_max, y_max) rows of the pending candidates
        edges = boxes[:, pending]
        suppress = iou_one_to_many(tuple(edges[:, :block.size, None]),
                                   *edges) >= config.iou_threshold
        if config.per_class:
            pending_cls = cls[pending]
            suppress &= pending_cls[:block.size, None] == pending_cls
        # only the suppressions of later candidates can change a decision
        later = suppress & (block[:, None] < pending)
        removed = np.zeros(pending.size, dtype=bool)
        for r in np.flatnonzero(later.any(axis=1)).tolist():
            if not removed[r]:
                removed |= later[r]
        kept.append(order[block[~removed[:block.size]]])
        pending = pending[block.size:][~removed[block.size:]]
    return np.concatenate(kept)


def nms(detections: list[Detection], config: NmsConfig) -> list[Detection]:
    """Greedy non-max suppression.

    Only detections whose confidence reaches `config.objectness_threshold`
    are candidates; the highest confidence candidate is repeatedly emitted
    while every remaining one overlapping it with IoU >= iou_threshold is
    discarded. Output order is emission (pop) order.
    """
    confidence = np.array([d.confidence for d in detections])
    corners = np.array([(d.box.x_min, d.box.y_min, d.box.x_max, d.box.y_max)
                        for d in detections])
    class_id = np.array([d.class_id for d in detections])
    hit = np.flatnonzero(confidence >= config.objectness_threshold)
    keep = hit[_nms_engine(confidence[hit], corners[hit], class_id[hit], config)]
    return [detections[i] for i in keep.tolist()]


def two_stage_filter(detections: list[Detection],
                     confidence_floor: float) -> list[Detection]:
    """Keep detections with confidence >= confidence_floor, order preserved."""
    check_unit_interval("confidence_floor", confidence_floor)
    return [d for d in detections if d.confidence >= confidence_floor]


@functools.lru_cache(maxsize=8)
def _logit_bound(drop: float) -> np.float32:
    """A float32 below which no logit's float64 `sigmoid` reaches `drop`.

    `sigmoid` is off by under 1e-14, so this is the logit of
    drop - 2**-44, less 1e-12 for the rounding of `log`, rounded down to
    float32; -inf when drop - 2**-44 is not positive. At `drop` 1 it is
    30.5, below where `sigmoid` saturates to exactly 1.0 (about 36.7).
    """
    low = drop - 2.0 ** -44
    if low <= 0.0:
        return np.float32(-np.inf)
    logit = math.log(low) - math.log1p(-low) - 1e-12
    bound = np.float32(logit)
    # compare in float64: NumPy 2 would cast the Python float to float32
    if float(bound) > logit:
        bound = np.nextafter(bound, np.float32(-np.inf))
    return bound


def detect_frame(heads, anchors, config: DetectConfig,
                 class_names) -> Detections:
    """Full post-processing for one frame.

    `heads` are the scale tensors ordered fine to coarse, one per stride
    of STRIDES at one input size; `anchors` are the priors grouped SLOTS
    per scale in the same order. Equivalent to extract -> score -> nms ->
    two_stage_filter, with array internals so a full frame stays cheap:
    the result is a `Detections` of the kept boxes in pop order, equal to
    the list those functions return.

    One drop threshold, max(`config.nms.objectness_threshold`,
    `config.confidence_floor`), decides what is output: only slots whose
    sigmoid objectness reaches it are scored, and only those whose
    confidence reaches it are decoded and enter NMS, which outputs every
    slot it keeps. The gate is exact because class scores are at most 1, so
    confidence = objectness * class_score <= objectness in IEEE arithmetic;
    the floor before NMS is exact because a slot below it pops after every
    slot at or above it. The gated slots keep their original order, so NMS
    breaks confidence ties as the full pipeline does. The gate first
    compares the raw objectness logits (float32 when the heads are) with
    `_logit_bound`, then widens only the survivors and applies the exact
    sigmoid test to them, which keeps the slots one test over all keeps.

    A NaN objectness, or a NaN in a gated slot's row, raises ValueError;
    the rows of slots below the gate are not checked. A head whose shape
    does not fit the class list raises ShapeError naming its scale.
    """
    heads = tuple(heads)
    if len(heads) != len(STRIDES):
        raise ShapeError(f"need {len(STRIDES)} head tensors, got {len(heads)}")
    anchors = nine_anchors(anchors)
    num_classes = len(class_names)
    # the coarsest grid has the last stride, so it fixes the input size
    input_n = heads[-1].height * STRIDES[-1]
    grids = tuple(head.height for head in heads)
    if grids[::-1] == grid_sizes(grids[0] * STRIDES[-1]):
        raise ShapeError(f"head grids {grids} run coarse to fine; heads go "
                         f"fine to coarse (expected {grids[::-1]})")
    if grids != grid_sizes(input_n):
        raise ShapeError(f"head grids {grids} inconsistent with input "
                         f"{input_n} (expected {grid_sizes(input_n)})")
    scales = []
    for scale, head in enumerate(heads):
        try:
            scales.append(_head_fields(head.data, num_classes))
        except ShapeError as exc:
            raise ShapeError(f"scale {scale}: {exc}") from None

    logits = np.concatenate([fields[:, 4] for _, fields in scales])
    drop = max(config.nms.objectness_threshold, config.confidence_floor)
    # the raw-logit prefilter, then the exact test on its survivors; a NaN
    # logit is below neither, so the row check below rejects it
    live = np.flatnonzero(~(logits < _logit_bound(drop)))
    objectness = sigmoid(logits[live])
    exact = ~(objectness < drop)
    live, objectness = live[exact], objectness[exact]
    fields = _scale_rows(scales, live)
    class_id, class_score, confidence = _score_arrays(objectness, fields)

    # only the rows whose confidence reaches the drop threshold need boxes
    hit = np.flatnonzero(confidence >= drop)
    geometry = _slot_geometry(grids, tuple((a.p_w, a.p_h) for a in anchors))
    corners = _decode_rows(fields[hit], geometry[live[hit]], input_n)
    kept = _nms_engine(confidence[hit], corners, class_id[hit], config.nms)
    keep = hit[kept]
    return Detections(class_id[keep], objectness[keep], class_score[keep],
                      confidence[keep], corners[kept], class_names)


# logit magnitude for hard 0/1 targets: sigmoid(12) differs from 1 by 6e-6,
# so an encoded object scores ~0.99999 and background ~4e-11
_HOT_LOGIT = 12.0


def ground_truth_heads(labels, num_classes: int, input_n: int,
                       anchors) -> tuple[Tensor, ...]:
    """Encode ground-truth labels as the heads, one per stride, that decode
    back to those boxes (an identity stub standing in for inference).

    Each label goes to its best-fitting anchor slot (smallest
    |ln(w/p_w)| + |ln(h/p_h)|) at the responsible cell of that slot's
    scale; on a collision the next-best free slot is used. Background
    cells carry objectness and class logits of -12.
    """
    anchors = nine_anchors(anchors)
    grids = grid_sizes(input_n)
    arrays = [np.zeros((g, g, head_channels(num_classes))) for g in grids]
    slots = [_head_fields(arr, num_classes)[1] for arr in arrays]
    for fields in slots:
        fields[:, 4:] = -_HOT_LOGIT

    def logit(p: float) -> float:
        p = min(max(p, 1e-6), 1.0 - 1e-6)
        return math.log(p / (1.0 - p))

    for class_id, box in labels:
        if not (0 <= class_id < num_classes):
            raise ValueError(f"class_id {class_id} outside 0..{num_classes - 1}")
        w_px = box.w * input_n
        h_px = box.h * input_n
        ranked = sorted(range(len(anchors)), key=lambda k: (
            abs(math.log(w_px / anchors[k].p_w))
            + abs(math.log(h_px / anchors[k].p_h))))
        for k in ranked:
            scale, slot = divmod(k, SLOTS)
            g = grids[scale]
            row, col = responsible_cell(box, g)
            vec = slots[scale][(row * g + col) * SLOTS + slot]
            if vec[4] == _HOT_LOGIT:  # taken by an earlier label
                continue
            vec[:4] = (logit(box.cx * g - col), logit(box.cy * g - row),
                       math.log(w_px / anchors[k].p_w),
                       math.log(h_px / anchors[k].p_h))
            vec[4] = vec[5 + class_id] = _HOT_LOGIT
            break
        else:
            raise ValueError(
                f"no free anchor slot for a box at cell "
                f"{responsible_cell(box, grids[0])}; too many coincident boxes")
    return tuple(Tensor(arr, copy=False) for arr in arrays)


def format_detection_line(det: Detection) -> str:
    """`class_name confidence x_min y_min x_max y_max`, 6 decimals."""
    b = det.box
    return (f"{det.class_name} {det.confidence:.6f} "
            f"{b.x_min:.6f} {b.y_min:.6f} {b.x_max:.6f} {b.y_max:.6f}")


def format_detections(dets: Detections) -> str:
    """All detection lines, LF-terminated, each as `format_detection_line`
    writes it, written from the columns of `dets` through one format."""
    table = np.empty((len(dets), 6), dtype=object)
    table[:, 0] = np.asarray(dets.class_names, dtype=object)[dets.class_id]
    table[:, 1] = dets.confidence
    table[:, 2:] = dets.corners
    return ("%s %.6f %.6f %.6f %.6f %.6f\n" * len(table)
            % tuple(table.ravel().tolist()))


def parse_detection_lines(text: str, class_names) -> list[Detection]:
    """Parse the line format back into Detections.

    Only the combined confidence survives serialization, so objectness is
    set to the confidence and class_score to 1. Unknown class names,
    malformed lines and invalid or NaN values raise ValueError with the
    line number.
    """
    registry = ClassRegistry(class_names)

    def detection(parts):
        class_id = registry.index(parts[0])
        conf, x_min, y_min, x_max, y_max = (float(p) for p in parts[1:])
        return Detection(
            box=BoxCorner(x_min, y_min, x_max, y_max),
            class_id=class_id, class_name=parts[0],
            objectness=conf, class_score=1.0, confidence=conf,
        )

    return read_records(text, 6, detection)


def detections_to_json(dets) -> str:
    """Structured JSON array of detections."""
    import json  # only `detect --json` pays for the json package
    payload = [{
        "class_id": d.class_id,
        "class_name": d.class_name,
        "objectness": d.objectness,
        "class_score": d.class_score,
        "confidence": d.confidence,
        "box": {"x_min": d.box.x_min, "y_min": d.box.y_min,
                "x_max": d.box.x_max, "y_max": d.box.y_max},
    } for d in dets]
    return json.dumps(payload, indent=2)
