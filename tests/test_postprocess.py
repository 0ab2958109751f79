"""Head extraction, scoring, suppression and the single-frame pipeline."""

import itertools
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from yolokit import postprocess
from yolokit.boxes import (Anchor, BoxCorner, BoxNorm, iou, iou_one_to_many,
                           norm_to_corner, sigmoid)
from yolokit.postprocess import (Detection, DetectConfig, NmsConfig,
                                 detect_frame, detections_to_json,
                                 extract_predictions, format_detection_line,
                                 format_detections, ground_truth_heads, nms,
                                 parse_detection_lines, score_predictions,
                                 two_stage_filter)
from yolokit.tensor import ShapeError, Tensor

from conftest import make_detection
from oracles import nms_ref, sigmoid_ref

SCALE_ANCHORS = (Anchor(12, 16), Anchor(19, 36), Anchor(40, 28))
NINE_ANCHORS = (Anchor(12, 16), Anchor(19, 36), Anchor(40, 28),
                Anchor(36, 75), Anchor(76, 55), Anchor(72, 146),
                Anchor(142, 110), Anchor(192, 243), Anchor(459, 401))


# ---------------------------------------------------------------------------
# extraction

def test_extract_count_and_order():
    rng = np.random.default_rng(42)
    head = Tensor(rng.normal(0.0, 1.0, (13, 13, 54)))
    raws = extract_predictions(head, SCALE_ANCHORS, 13, 416)
    assert len(raws) == 507
    # cell-major, slot-minor
    assert raws[0].cell == (0, 0) and raws[0].anchor == SCALE_ANCHORS[0]
    assert raws[1].cell == (0, 0) and raws[1].anchor == SCALE_ANCHORS[1]
    assert raws[3].cell == (0, 1)
    assert raws[3 * 13].cell == (1, 0)
    assert raws[-1].cell == (12, 12) and raws[-1].anchor == SCALE_ANCHORS[2]


def test_extract_field_layout():
    data = np.arange(1 * 1 * 21, dtype=float).reshape(1, 1, 21)
    raws = extract_predictions(Tensor(data), SCALE_ANCHORS, 2, 32)
    assert (raws[0].t_x, raws[0].t_y, raws[0].t_w, raws[0].t_h) == (0, 1, 2, 3)
    assert raws[0].objectness_logit == 4.0
    assert raws[0].class_logits == (5.0, 6.0)
    assert raws[1].t_x == 7.0
    assert raws[2].class_logits == (19.0, 20.0)


def test_extract_rejects_bad_heads():
    with pytest.raises(ShapeError):
        extract_predictions(Tensor.zeros(13, 13, 53), SCALE_ANCHORS, 13, 416)
    with pytest.raises(ShapeError):
        extract_predictions(Tensor.zeros(13, 12, 54), SCALE_ANCHORS, 13, 416)
    with pytest.raises(ShapeError):
        extract_predictions(Tensor.zeros(13, 13, 54), SCALE_ANCHORS[:2], 13, 416)


# ---------------------------------------------------------------------------
# scoring

def test_score_matches_scalar_recomputation():
    rng = np.random.default_rng(42)
    head = Tensor(rng.normal(0.0, 2.0, (4, 4, 3 * 9)))
    raws = extract_predictions(head, SCALE_ANCHORS, 4, 128)
    dets = score_predictions(raws, ["a", "b", "c", "d"])
    assert len(dets) == len(raws)
    for raw, det in zip(raws, dets):
        obj = sigmoid_ref(raw.objectness_logit)
        scores = [sigmoid_ref(v) for v in raw.class_logits]
        best = max(range(4), key=lambda i: (scores[i], -i))
        assert det.class_id == best
        assert abs(det.objectness - obj) <= 1e-12
        assert abs(det.class_score - scores[best]) <= 1e-12
        # the stored product is exact over the stored factors
        assert det.confidence == det.objectness * det.class_score


def test_score_argmax_tie_takes_lowest_class():
    raw_vec = [0.0, 0.0, 0.0, 0.0, 1.0, 0.5, 2.5, 2.5]
    head = Tensor(np.array(raw_vec * 3, dtype=float).reshape(1, 1, 24))
    dets = score_predictions(extract_predictions(head, SCALE_ANCHORS, 3, 32),
                             ["a", "b", "c"])
    assert all(d.class_id == 1 for d in dets)


def test_score_names_and_defaults():
    head = Tensor.zeros(1, 1, 21)
    raws = extract_predictions(head, SCALE_ANCHORS, 2, 32)
    named = score_predictions(raws, ["cat", "dog"])
    assert named[0].class_name == "cat"
    assert score_predictions([], ["cat", "dog"]) == []


def test_score_rejects_mixed_input_sizes():
    a = extract_predictions(Tensor.zeros(1, 1, 21), SCALE_ANCHORS, 2, 32)
    b = extract_predictions(Tensor.zeros(1, 1, 21), SCALE_ANCHORS, 2, 64)
    with pytest.raises(ShapeError):
        score_predictions(a + b, ["cat", "dog"])


def test_detection_rejects_out_of_range_scores():
    with pytest.raises(ValueError):
        make_detection((0, 0, 1, 1), 1.5)
    with pytest.raises(ValueError):
        Detection(BoxCorner(0, 0, 1, 1), 0, "x", -0.1, 1.0, 0.0)


def test_config_validation():
    with pytest.raises(ValueError):
        NmsConfig(objectness_threshold=-0.1)
    with pytest.raises(ValueError):
        NmsConfig(iou_threshold=1.5)
    with pytest.raises(ValueError):
        DetectConfig(confidence_floor=2.0)


# ---------------------------------------------------------------------------
# suppression

def test_nms_worked_example():
    b1 = make_detection((0, 0, 10, 10), 0.9)
    b2 = make_detection((1, 1, 11, 11), 0.8)
    b3 = make_detection((20, 20, 30, 30), 0.7)
    config = NmsConfig(objectness_threshold=0.5, iou_threshold=0.5)
    kept = nms([b1, b2, b3], config)
    assert kept == [b1, b3]
    # the suppression hinges on IoU(b1, b2) = 81/119 >= 0.5
    assert iou(b1.box, b2.box) == 81.0 / 119.0


def test_nms_threshold_is_inclusive():
    d = make_detection((0, 0, 10, 10), 0.25)
    assert nms([d], NmsConfig()) == [d]
    assert nms([make_detection((0, 0, 10, 10), 0.2499)], NmsConfig()) == []


def test_nms_confidence_tie_pops_lower_index():
    a = make_detection((0, 0, 10, 10), 0.8)
    b = make_detection((100, 100, 110, 110), 0.8)
    kept = nms([a, b], NmsConfig())
    assert kept == [a, b]
    kept = nms([b, a], NmsConfig())
    assert kept == [b, a]


def test_nms_per_class_keeps_other_classes():
    a = make_detection((0, 0, 10, 10), 0.9, class_id=0)
    b = make_detection((0, 0, 10, 10), 0.8, class_id=1)
    assert nms([a, b], NmsConfig()) == [a]
    assert nms([a, b], NmsConfig(per_class=True)) == [a, b]


def test_nms_matches_brute_force_on_random_instances():
    rng = np.random.default_rng(42)
    for _ in range(300):
        n = int(rng.integers(0, 13))
        dets = []
        for _ in range(n):
            x = float(rng.uniform(0, 80))
            y = float(rng.uniform(0, 80))
            w = float(rng.uniform(1, 40))
            h = float(rng.uniform(1, 40))
            conf = float(np.round(rng.uniform(0.0, 1.0), 1))  # force ties
            obj = float(rng.uniform(0.0, 1.0))
            dets.append(make_detection(
                (x, y, x + w, y + h), conf, class_id=int(rng.integers(3)),
                objectness=obj, class_score=1.0))
        config = NmsConfig(
            objectness_threshold=float(rng.choice([0.0, 0.25, 0.5])),
            iou_threshold=float(rng.choice([0.2, 0.45, 0.9])),
            per_class=bool(rng.integers(2)))
        kept = nms(dets, config)
        want = nms_ref(
            [(d.box.x_min, d.box.y_min, d.box.x_max, d.box.y_max) for d in dets],
            [d.confidence for d in dets], [d.class_id for d in dets],
            [d.objectness for d in dets],
            config.objectness_threshold, config.iou_threshold,
            config.per_class)
        assert [dets[i] for i in want] == kept


@st.composite
def nms_instances(draw):
    """Random detections on an integer grid (zero extents and exact IoU
    ties included), confidences rounded to tenths so ties occur."""
    dets = []
    for _ in range(draw(st.integers(0, 60))):
        x, y = draw(st.integers(0, 60)), draw(st.integers(0, 60))
        w, h = draw(st.integers(0, 30)), draw(st.integers(0, 30))
        dets.append(make_detection(
            (x, y, x + w, y + h), draw(st.integers(0, 10)) / 10,
            class_id=draw(st.integers(0, 2)),
            objectness=draw(st.floats(0.0, 1.0)), class_score=1.0))
    config = NmsConfig(
        objectness_threshold=draw(st.sampled_from([0.0, 0.25, 0.5])),
        iou_threshold=draw(st.sampled_from([0.0, 0.2, 0.45, 0.9, 1.0])),
        per_class=draw(st.booleans()))
    return dets, config


@settings(deadline=None)
@given(nms_instances(), st.sampled_from([1, 64, 512, 1 << 15]))
def test_nms_blocks_match_brute_force(instance, block_elements):
    """Blocks of one row, a few rows, many rows and all rows suppress
    exactly as the one-pop-at-a-time oracle."""
    dets, config = instance
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(postprocess, "_NMS_BLOCK_ELEMENTS", block_elements)
        kept = nms(dets, config)
    want = nms_ref(
        [(d.box.x_min, d.box.y_min, d.box.x_max, d.box.y_max) for d in dets],
        [d.confidence for d in dets], [d.class_id for d in dets],
        [d.objectness for d in dets],
        config.objectness_threshold, config.iou_threshold,
        config.per_class)
    assert [dets[i] for i in want] == kept


@st.composite
def dense_nms_instances(draw):
    """Up to 40 detections on a row of seven w x h boxes, each shifted d
    px from the last: neighbours overlap, so many rows suppress later ones
    and chains occur (A suppresses B, B would suppress C, A does not).
    Boxes repeat (duplicates), some have no width (zero area) and
    confidences are tenths (ties)."""
    w, h = draw(st.integers(4, 10)), draw(st.integers(4, 10))
    d = draw(st.integers(1, 3))
    dets = []
    for _ in range(draw(st.integers(0, 40))):
        x, y = d * draw(st.integers(0, 6)), draw(st.integers(0, 1))
        width = draw(st.sampled_from([w, w, w, 0]))
        dets.append(make_detection(
            (x, y, x + width, y + h), draw(st.integers(0, 10)) / 10,
            class_id=draw(st.integers(0, 1)), class_score=1.0))
    config = NmsConfig(objectness_threshold=0.0,
                       iou_threshold=draw(st.sampled_from([0.0, 0.45, 1.0])),
                       per_class=draw(st.booleans()))
    return dets, config


@settings(max_examples=300, deadline=None)
@given(dense_nms_instances(), st.sampled_from([64, 1 << 15]))
def test_nms_walk_of_the_rows_that_suppress_matches_brute_force(
        instance, block_elements):
    """Walking only the block rows that suppress a later candidate keeps
    what the one-pop-at-a-time oracle keeps, with one-row blocks (64
    elements, over 32 pending) and with one block for all rows."""
    dets, config = instance
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(postprocess, "_NMS_BLOCK_ELEMENTS", block_elements)
        kept = nms(dets, config)
    want = nms_ref(
        [(d.box.x_min, d.box.y_min, d.box.x_max, d.box.y_max) for d in dets],
        [d.confidence for d in dets], [d.class_id for d in dets],
        [d.objectness for d in dets],
        config.objectness_threshold, config.iou_threshold,
        config.per_class)
    assert [dets[i] for i in want] == kept


def test_nms_empty():
    assert nms([], NmsConfig()) == []


# ---------------------------------------------------------------------------
# confidence floor

def test_two_stage_filter():
    dets = [make_detection((0, 0, 1, 1), c) for c in (0.9, 0.5, 0.49, 0.1, 0.7)]
    kept = two_stage_filter(dets, 0.5)
    assert kept == [dets[0], dets[1], dets[4]]
    with pytest.raises(ValueError):
        two_stage_filter(dets, 1.5)


# ---------------------------------------------------------------------------
# full frame

@pytest.fixture(scope="module")
def gated_frame():
    """Heads of a 128 px frame (1,008 slots) with exact confidence ties
    and saturated slots, and their scores through the list path."""
    rng = np.random.default_rng(42)
    arrays = [rng.normal(0.0, 2.0, (g, g, 3 * 9)) for g in (16, 8, 4)]
    for arr in arrays:
        slots = arr.reshape(-1, 9)
        # copied scores at other slots tie their confidences exactly
        src, dst = rng.integers(0, len(slots), (2, 16))
        slots[dst, 4:] = slots[src, 4:]
        # sigmoid(40) == 1.0, so these survive objectness_threshold 1
        slots[rng.integers(0, len(slots), 4), 4:6] = 40.0
    heads = tuple(Tensor(arr) for arr in arrays)
    raws = []
    for scale, head in enumerate(heads):
        raws.extend(extract_predictions(
            head, NINE_ANCHORS[scale * 3:scale * 3 + 3], 4, 128, scale))
    return heads, score_predictions(raws, ["a", "b", "c", "d"])


@pytest.mark.parametrize(
    "threshold,small_blocks,per_class,iou_threshold,floor",
    itertools.product((0.0, 0.25, 1.0), (False, True), (False, True),
                      (0.0, 0.45, 1.0), (0.0, 0.5)))
def test_detect_frame_equals_staged_pipeline(gated_frame, monkeypatch,
                                             threshold, small_blocks,
                                             per_class, iou_threshold, floor):
    heads, scored = gated_frame
    config = DetectConfig(
        nms=NmsConfig(objectness_threshold=threshold,
                      iou_threshold=iou_threshold, per_class=per_class),
        confidence_floor=floor)
    if threshold < 1.0:
        # more candidates than fit in one NMS block: those whose
        # confidence reaches both the threshold and the floor
        suppressed = sum(d.confidence >= max(threshold, floor) for d in scored)
        assert suppressed ** 2 > postprocess._NMS_BLOCK_ELEMENTS
    if small_blocks:
        # one-row blocks while more than 64 candidates are pending
        monkeypatch.setattr(postprocess, "_NMS_BLOCK_ELEMENTS", 64)
    fast = detect_frame(heads, NINE_ANCHORS, config, ["a", "b", "c", "d"])
    staged = two_stage_filter(nms(scored, config.nms),
                              config.confidence_floor)
    assert fast == staged


@pytest.mark.parametrize("threshold,floor", [(0.25, 0.5), (0.5, 0.25),
                                             (0.6, 0.6)])
def test_detect_frame_scores_the_slots_reaching_the_drop_threshold(
        gated_frame, monkeypatch, threshold, floor):
    """Exactly the slots whose objectness reaches max(threshold, floor)
    reach scoring, in slot order."""
    heads, scored = gated_frame
    slots = np.concatenate([head.data.reshape(-1, 9) for head in heads])
    want = [i for i, d in enumerate(scored)
            if d.objectness >= max(threshold, floor)]
    assert want
    score_arrays = postprocess._score_arrays
    seen = []

    def recording_score_arrays(objectness, fields, *rest):
        seen.append(fields)
        return score_arrays(objectness, fields, *rest)

    monkeypatch.setattr(postprocess, "_score_arrays", recording_score_arrays)
    config = DetectConfig(nms=NmsConfig(objectness_threshold=threshold),
                          confidence_floor=floor)
    detect_frame(heads, NINE_ANCHORS, config, ["a", "b", "c", "d"])
    assert len(seen) == 1
    np.testing.assert_array_equal(seen[0], slots[want])


def test_detect_frame_computes_iou_only_above_the_floor(gated_frame,
                                                        monkeypatch):
    heads, scored = gated_frame
    config = DetectConfig(confidence_floor=0.5)
    calls = []

    def recording_iou(box, x_min, y_min, x_max, y_max):
        calls.append((np.column_stack([np.ravel(v) for v in box]).tolist(),
                      np.column_stack([x_min, y_min, x_max, y_max]).tolist()))
        return iou_one_to_many(box, x_min, y_min, x_max, y_max)

    monkeypatch.setattr(postprocess, "iou_one_to_many", recording_iou)
    detect_frame(heads, NINE_ANCHORS, config, ["a", "b", "c", "d"])
    above = sorted((d for d in scored if d.confidence >= 0.5),
                   key=lambda d: -d.confidence)
    boxes = [[d.box.x_min, d.box.y_min, d.box.x_max, d.box.y_max]
             for d in above]
    assert 0 < len(above) < sum(d.confidence >= 0.25 for d in scored)
    # the first block's columns are every pending candidate in pop order
    assert calls[0][1] == boxes
    allowed = set(map(tuple, boxes))
    for rows, columns in calls:
        assert set(map(tuple, rows + columns)) <= allowed


@pytest.mark.parametrize("iou_threshold,per_class,kept",
                         [(0.3, False, 1), (0.45, False, 1),
                          (0.7, False, 2), (0.3, True, 2)])
def test_detect_frame_keeps_a_slot_exactly_at_the_floor(iou_threshold,
                                                        per_class, kept):
    """Box B's confidence is exactly the floor, 0.5 = sigmoid(40) *
    sigmoid(0); it overlaps a higher box A (IoU 0.6) and a lower box C
    (IoU 0.6) that passes the drop key but not the floor."""
    heads = [np.full((g, g, 3 * 8), -12.0) for g in (8, 4, 2)]
    # slots 0-2 of cell (2, 3) on the stride-8 scale, all centered at
    # (28, 20): A is 24x24 of class 0, B 24x14.4 and C 24x8.64 of class 1,
    # so IoU(A, B) = IoU(B, C) = 0.6 and IoU(A, C) = 0.36
    for slot, (p_w, p_h), height, logits in (
            (0, (12, 16), 24.0, (40.0, 40.0, -12.0)),
            (1, (19, 36), 14.4, (40.0, -12.0, 0.0)),
            (2, (40, 28), 8.64, (40.0, -12.0, -1.0))):
        heads[0][2, 3, slot * 8:slot * 8 + 7] = (
            0.0, 0.0, np.log(24.0 / p_w), np.log(height / p_h), *logits)
    heads = [Tensor(arr) for arr in heads]
    config = DetectConfig(nms=NmsConfig(iou_threshold=iou_threshold,
                                        per_class=per_class),
                          confidence_floor=0.5)
    names = ["a", "b", "c"]
    raws = []
    for scale, head in enumerate(heads):
        raws.extend(extract_predictions(
            head, NINE_ANCHORS[scale * 3:scale * 3 + 3], 3, 64, scale))
    scored = score_predictions(raws, names)
    assert sorted(d.confidence for d in scored if d.confidence >= 0.25)[:2] \
        == [sigmoid_ref(-1.0), 0.5]
    fast = detect_frame(heads, NINE_ANCHORS, config, names)
    assert fast == two_stage_filter(nms(scored, config.nms), 0.5)
    assert [d.confidence for d in fast] == [1.0, 0.5][:kept]


def test_detect_frame_hot_cell_yields_single_detection():
    heads = [Tensor(np.full((g, g, 3 * 8), -12.0)) for g in (8, 4, 2)]
    data = heads[0].data.copy()
    # one hot slot: slot 0 (anchor 12x16) of cell (2, 3) on the stride-8
    # scale; the decoded box stays well inside the 64 px frame
    data[2, 3, 0] = 0.0
    data[2, 3, 1] = 0.0
    data[2, 3, 2] = 0.1
    data[2, 3, 3] = -0.1
    data[2, 3, 4] = 12.0
    data[2, 3, 5 + 2] = 12.0
    heads[0] = Tensor(data)
    dets = detect_frame(heads, NINE_ANCHORS, DetectConfig(), ["a", "b", "c"])
    assert len(dets) == 1
    det = dets[0]
    assert det.class_id == 2 and det.class_name == "c"
    stride = 64 / 8
    cx = (sigmoid_ref(0.0) + 3) * stride
    cy = (sigmoid_ref(0.0) + 2) * stride
    assert abs((det.box.x_min + det.box.x_max) / 2 - cx) < 1e-9
    assert abs((det.box.y_min + det.box.y_max) / 2 - cy) < 1e-9
    assert det.confidence > 0.99


def test_detect_frame_clips_an_overflowing_size_without_warning():
    heads = [Tensor(np.full((g, g, 3 * 8), -12.0)) for g in (8, 4, 2)]
    data = heads[0].data.copy()
    # a hot slot whose t_w and t_h of 800 overflow exp
    data[2, 3, :6] = (0.0, 0.0, 800.0, 800.0, 12.0, 12.0)
    heads[0] = Tensor(data)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dets = detect_frame(heads, NINE_ANCHORS, DetectConfig(), ["a", "b", "c"])
    assert [(d.class_name, d.box) for d in dets] == [
        ("a", BoxCorner(0.0, 0.0, 64.0, 64.0))]


def test_both_paths_reject_a_nan_logit_and_keep_infinite_ones():
    names = ["a", "b", "c"]
    config = DetectConfig()

    def paths(*writes):
        """Both paths on a 64 px frame whose one hot slot is scale 0,
        cell (2, 3), slot 1 (channels 8..15), after (scale, row, col,
        channel, value) writes."""
        arrays = [np.full((g, g, 3 * 8), -12.0) for g in (8, 4, 2)]
        arrays[0][2, 3, 8:16] = (0.0, 0.0, 0.1, -0.1, 12.0, 12.0, -12.0, -12.0)
        for scale, row, col, channel, value in writes:
            arrays[scale][row, col, channel] = value
        heads = [Tensor(arr) for arr in arrays]
        results = []
        for run in (
                lambda: detect_frame(heads, NINE_ANCHORS, config, names),
                lambda: two_stage_filter(nms(score_predictions(
                    [r for k, head in enumerate(heads)
                     for r in extract_predictions(
                         head, NINE_ANCHORS[k * 3:k * 3 + 3], 3, 64, k)],
                    names), config.nms), config.confidence_floor)):
            try:
                results.append([(d.class_name, d.box) for d in run()])
            except ValueError as exc:
                results.append(str(exc))
        return results

    clean = paths()
    assert clean[0] == clean[1] and len(clean[0]) == 1
    # a NaN in a class that is not the top class, at the only hot slot
    assert paths((0, 2, 3, 14, np.nan)) == [
        "scale 0, cell (2, 3), slot 1, channel 14: logit is nan"] * 2
    # a NaN objectness at a cold slot of the coarsest scale
    assert paths((2, 1, 0, 20, np.nan)) == [
        "scale 2, cell (1, 0), slot 2, channel 20: logit is nan"] * 2
    # infinite logits clip: a frame-wide box of a certain class
    infinite = paths((0, 2, 3, 10, np.inf), (0, 2, 3, 11, np.inf),
                     (0, 2, 3, 14, -np.inf), (0, 2, 3, 15, np.inf))
    assert infinite[0] == infinite[1] == [("c", BoxCorner(0.0, 0.0, 64.0, 64.0))]


def _ulps_from(x, steps):
    """The value `steps` ulps of `x`'s dtype above `x` (below, when
    negative)."""
    toward = x.dtype.type(np.inf if steps > 0 else -np.inf)
    for _ in range(abs(steps)):
        x = np.nextafter(x, toward)
    return x


@st.composite
def gated_logits(draw):
    """A drop threshold and the 63 objectness logits of a 32 px frame, as
    float32 (a head file) or float64, drawn around the prefilter bound and
    the exact threshold, from the saturated tails and as ±inf, with up to
    two NaNs."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    drop = draw(st.one_of(
        st.sampled_from([0.0, 1.0, float(np.nextafter(0.0, 1.0)),
                         float(np.nextafter(1.0, 0.0)), 1.0 - 2.0 ** -52,
                         0.25, 0.5]),
        st.floats(0.0, 1.0)))
    near = [dtype(postprocess._logit_bound(drop))]
    if 0.0 < drop < 1.0:
        near.append(dtype(np.log(drop) - np.log1p(-drop)))
    width = np.finfo(dtype).bits
    logit = st.one_of(
        st.tuples(st.sampled_from(near), st.integers(-4, 4)).map(
            lambda pair: _ulps_from(*pair)),
        st.floats(30.0, 38.0, width=width), st.floats(-38.0, -30.0, width=width),
        st.sampled_from([np.inf, -np.inf]),
        st.floats(width=width, allow_nan=False))
    logits = np.array(draw(st.lists(logit, min_size=63, max_size=63)), dtype=dtype)
    for index in draw(st.lists(st.integers(0, 62), max_size=2)):
        logits[index] = np.nan
    return drop, logits


@settings(max_examples=300, deadline=None)
@given(gated_logits())
def test_the_raw_logit_prefilter_keeps_every_slot_the_sigmoid_test_keeps(drawn):
    """The slots that reach scoring are exactly those whose float64
    sigmoid reaches the drop threshold, in slot order, from float32 and
    float64 heads; a NaN objectness still raises."""
    drop, logits = drawn
    grids = (4, 2, 1)
    arrays = [np.zeros((g, g, 18), dtype=logits.dtype) for g in grids]
    starts = np.cumsum([0] + [g * g * 3 for g in grids])
    for arr, start, stop in zip(arrays, starts, starts[1:]):
        arr.reshape(-1, 6)[:, 4] = logits[start:stop]
    heads = [Tensor(arr) for arr in arrays]
    assert heads[0].data.dtype == logits.dtype
    config = DetectConfig(nms=NmsConfig(objectness_threshold=drop),
                          confidence_floor=0.0)
    seen = []
    score_arrays = postprocess._score_arrays

    def recording_score_arrays(objectness, fields, *rest):
        seen.append((objectness, fields))
        return score_arrays(objectness, fields, *rest)

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(postprocess, "_score_arrays", recording_score_arrays)
        if np.isnan(logits).any():
            first = int(np.flatnonzero(np.isnan(logits))[0])
            scale = int(np.searchsorted(starts, first, side="right")) - 1
            cell, slot = divmod(first - int(starts[scale]), 3)
            row, col = divmod(cell, grids[scale])
            with pytest.raises(ValueError) as exc:
                detect_frame(heads, NINE_ANCHORS, config, ["a"])
            assert str(exc.value) == (f"scale {scale}, cell ({row}, {col}), slot "
                                      f"{slot}, channel {slot * 6 + 4}: logit is nan")
            assert seen == []
            return
        detect_frame(heads, NINE_ANCHORS, config, ["a"])
    widened = logits.astype(np.float64)
    want = widened[~(sigmoid(widened) < drop)]
    [(objectness, fields)] = seen
    assert fields.dtype == np.float64
    assert fields[:, 4].tobytes() == want.tobytes()
    assert objectness.tobytes() == sigmoid(want).tobytes()


def test_detect_frame_validation():
    heads = [Tensor.zeros(8, 8, 24), Tensor.zeros(4, 4, 24)]
    with pytest.raises(ShapeError):
        detect_frame(heads, NINE_ANCHORS, DetectConfig(), ["a", "b", "c"])
    bad = [Tensor.zeros(8, 8, 24), Tensor.zeros(4, 4, 24), Tensor.zeros(3, 3, 24)]
    with pytest.raises(ShapeError):
        detect_frame(bad, NINE_ANCHORS, DetectConfig(), ["a", "b", "c"])
    good = [Tensor.zeros(8, 8, 24), Tensor.zeros(4, 4, 24), Tensor.zeros(2, 2, 24)]
    with pytest.raises(ShapeError):
        detect_frame(good, NINE_ANCHORS[:6], DetectConfig(), ["a", "b", "c"])


PUBLIC_NAMES = [
    "Anchor", "BoxCorner", "BoxNorm", "RawPrediction", "corner_to_norm",
    "decode_box", "decode_center", "iou", "norm_to_corner", "responsible_cell",
    "sigmoid",
    "CfgError", "NetCensus", "NetGraph", "census", "grid_sizes",
    "head_channels", "parse_cfg", "propagate_shapes", "serialize_cfg",
    "total_grid_cells",
    "ClassRegistry", "Image", "LabeledImage", "aggregate_csv",
    "flip", "generate_synthetic_scene", "read_ppm",
    "read_yolo_labels", "rotate", "write_ppm", "write_yolo_labels",
    "EvalReport", "GroundTruth", "average_precision", "map_50_95",
    "match_detections", "scenario_report",
    "Detection", "DetectConfig", "NmsConfig", "detect_frame",
    "extract_predictions", "ground_truth_heads", "nms", "score_predictions",
    "two_stage_filter",
    "ConvParams", "ShapeError", "Tensor", "concat_channels", "conv2d",
    "csp_block", "leaky_relu", "max_pool", "mish", "residual_block",
    "spp_block", "upsample2x",
    "__version__",
]

# Fresh interpreter: which submodules `import yolokit` loads, whether it
# loads ctypes (it sets nothing outside Python), `__all__`, and the module
# each public name and submodule resolves to.
PACKAGE_PROBE = """
import importlib, json, sys
import yolokit
loaded = sorted(m for m in sys.modules if m.startswith("yolokit."))
loaded_ctypes = "ctypes" in sys.modules
defined = [name for name in yolokit.__all__[:-1] if getattr(yolokit, name) is getattr(
    importlib.import_module(getattr(yolokit, name).__module__), name)]
modules = [m for m in ("tensor", "cfg", "boxes", "postprocess", "data", "metrics")
           if getattr(yolokit, m) is importlib.import_module("yolokit." + m)]
print(json.dumps([loaded, loaded_ctypes, yolokit.__all__, defined, modules,
                  sorted((set(yolokit.__all__) | set(modules)) - set(dir(yolokit)))]))
"""


def test_package_names_resolve_lazily_to_their_modules():
    src = os.path.dirname(os.path.dirname(postprocess.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", PACKAGE_PROBE], env=env,
                         stdout=subprocess.PIPE, check=True, timeout=60)
    loaded, loaded_ctypes, public, defined, modules, unlisted = json.loads(out.stdout)
    assert loaded == []
    assert not loaded_ctypes
    assert public == PUBLIC_NAMES
    assert defined == PUBLIC_NAMES[:-1]
    assert len(modules) == 6
    assert unlisted == []
    import yolokit
    assert yolokit.__version__ == "0.1.0"
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        yolokit.nope


def test_detector_rules_have_one_owner_and_keep_their_messages():
    from yolokit import cli, metrics
    assert cli.DEFAULT_ANCHORS is postprocess.DEFAULT_ANCHORS
    config, defaults = cli.RunConfig(), DetectConfig()
    assert config.detect_config() == defaults
    for make, message in (
            (lambda: NmsConfig(objectness_threshold=1.5),
             "objectness_threshold 1.5 outside [0, 1]"),
            (lambda: NmsConfig(iou_threshold=-0.1), "iou_threshold -0.1 outside [0, 1]"),
            (lambda: DetectConfig(confidence_floor=float("nan")),
             "confidence_floor nan outside [0, 1]"),
            (lambda: two_stage_filter([], 2.0), "confidence_floor 2.0 outside [0, 1]"),
            (lambda: metrics.scenario_report([], "all-classes", 1.5),
             "error_iou_threshold 1.5 outside [0, 1]"),
            (lambda: cli.RunConfig(anchors=NINE_ANCHORS[:8]), "need 9 anchors, got 8"),
            (lambda: detect_frame(ground_truth_heads([], 2, 64, NINE_ANCHORS),
                                  NINE_ANCHORS * 2, defaults, ["a", "b"]),
             "need 9 anchors, got 18"),
            (lambda: ground_truth_heads([], 2, 64, NINE_ANCHORS[:3]),
             "need 9 anchors, got 3")):
        with pytest.raises(ValueError) as exc:
            make()
        assert str(exc.value) == message


# ---------------------------------------------------------------------------
# ground-truth head encoding

def test_ground_truth_heads_decode_back():
    labels = [
        (0, BoxNorm(0.2, 0.3, 0.1, 0.15)),
        (5, BoxNorm(0.7, 0.6, 0.3, 0.2)),
        (12, BoxNorm(0.45, 0.8, 0.05, 0.06)),
    ]
    heads = ground_truth_heads(labels, 13, 608, NINE_ANCHORS)
    assert tuple(h.height for h in heads) == (76, 38, 19)
    names = [str(i) for i in range(13)]
    dets = detect_frame(heads, NINE_ANCHORS, DetectConfig(), names)
    assert len(dets) == len(labels)
    got = {d.class_id: d for d in dets}
    for cid, box in labels:
        want = norm_to_corner(box, 608, 608)
        d = got[cid]
        assert abs(d.box.x_min - want.x_min) < 1e-6
        assert abs(d.box.y_min - want.y_min) < 1e-6
        assert abs(d.box.x_max - want.x_max) < 1e-6
        assert abs(d.box.y_max - want.y_max) < 1e-6
        assert d.confidence > 0.9999


def test_ground_truth_heads_collision_fallback():
    box = BoxNorm(0.5, 0.5, 0.1, 0.1)
    labels = [(i, box) for i in range(4)]
    heads = ground_truth_heads(labels, 13, 608, NINE_ANCHORS)
    # the boxes coincide, so suppression must be per-class to see all four
    config = DetectConfig(nms=NmsConfig(per_class=True))
    dets = detect_frame(heads, NINE_ANCHORS, config,
                        [str(i) for i in range(13)])
    assert sorted(d.class_id for d in dets) == [0, 1, 2, 3]


def test_ground_truth_heads_capacity_error():
    box = BoxNorm(0.5, 0.5, 0.1, 0.1)
    labels = [(0, box)] * 10  # only 9 slots exist at one center
    with pytest.raises(ValueError):
        ground_truth_heads(labels, 13, 608, NINE_ANCHORS)


def test_ground_truth_heads_validation():
    with pytest.raises(ShapeError):
        ground_truth_heads([], 13, 608, NINE_ANCHORS[:3])
    with pytest.raises(ValueError):
        ground_truth_heads([], 13, 600, NINE_ANCHORS)
    with pytest.raises(ValueError):
        ground_truth_heads([(13, BoxNorm(0.5, 0.5, 0.1, 0.1))], 13, 608,
                           NINE_ANCHORS)


# ---------------------------------------------------------------------------
# serialization

def test_format_detection_line():
    det = make_detection((1.0, 2.0, 3.5, 4.25), 0.875, name="gear")
    assert format_detection_line(det) == \
        "gear 0.875000 1.000000 2.000000 3.500000 4.250000"


def test_detection_lines_round_trip():
    dets = [make_detection((10.5, 20.25, 30.0, 40.125), 0.75, class_id=1,
                           name="nut"),
            make_detection((1, 2, 3, 4), 0.5, class_id=0, name="bolt")]
    text = format_detections(dets)
    assert text.endswith("\n") and len(text.splitlines()) == 2
    parsed = parse_detection_lines(text, ["bolt", "nut"])
    for want, got in zip(dets, parsed):
        assert got.class_id == want.class_id
        assert abs(got.confidence - want.confidence) < 1e-6
        assert abs(got.box.x_min - want.box.x_min) < 1e-6


def test_parse_detection_lines_errors():
    with pytest.raises(ValueError) as err:
        parse_detection_lines("gear 0.5 1 2 3\n", ["gear"])
    assert "line 1" in str(err.value)
    with pytest.raises(ValueError):
        parse_detection_lines("cog 0.5 1 2 3 4\n", ["gear"])
    with pytest.raises(ValueError):
        parse_detection_lines("gear zero 1 2 3 4\n", ["gear"])
    for line in ("gear 0.5 nan 2 3 4", "gear 0.5 1 2 3 nan", "gear nan 1 2 3 4"):
        with pytest.raises(ValueError, match="line 1"):
            parse_detection_lines(line + "\n", ["gear"])
    assert parse_detection_lines("\n  \n", ["gear"]) == []


def test_detections_to_json():
    det = make_detection((0, 0, 5, 5), 0.625, class_id=2, name="washer")
    payload = json.loads(detections_to_json([det]))
    assert payload[0]["class_name"] == "washer"
    assert payload[0]["box"]["x_max"] == 5.0
    assert payload[0]["confidence"] == 0.625


# ---------------------------------------------------------------------------
# column result

def test_detect_frame_result_is_a_sequence_of_its_detections(gated_frame):
    heads, scored = gated_frame
    config = DetectConfig(confidence_floor=0.25)
    fast = detect_frame(heads, NINE_ANCHORS, config, ["a", "b", "c", "d"])
    listed = two_stage_filter(nms(scored, config.nms), config.confidence_floor)
    assert isinstance(fast, postprocess.Detections) and len(listed) > 3
    assert fast == listed and listed == fast
    assert not (fast != listed) and fast != listed[:-1] and listed[1:] != fast
    assert len(fast) == len(listed)
    assert list(fast) == [d for d in fast] == listed
    assert (fast[0], fast[2], fast[-1]) == (listed[0], listed[2], listed[-1])
    with pytest.raises(IndexError):
        fast[len(listed)]
    for part in (slice(1, 3), slice(None, None, -2), slice(5, 2)):
        assert isinstance(fast[part], postprocess.Detections)
        assert fast[part] == listed[part] and listed[part] == fast[part]
    assert fast[:] == fast and fast[1:] != fast


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("crowded", [False, True])
def test_column_result_formats_as_its_detections(crowded, dtype):
    """Text and JSON written from the columns equal, byte for byte, what
    the Detections they hold format to, on 608 px frames: sparse (a few
    hot slots in unit noise) and crowded (every logit from N(-3.5, 2))."""
    from yolokit import cli

    rng = np.random.default_rng(5)
    if crowded:
        arrays = [rng.normal(-3.5, 2.0, (g, g, 3 * (5 + 13)))
                  for g in (76, 38, 19)]
    else:
        arrays = [head.data for head in cli._bench_frame(
            rng, 13, 608, cli.DEFAULT_ANCHORS)]
    heads = [Tensor(arr.astype(dtype)) for arr in arrays]
    assert heads[0].data.dtype == dtype
    got = detect_frame(heads, cli.DEFAULT_ANCHORS, DetectConfig(),
                       list(cli.DEFAULT_CLASS_NAMES))
    assert len(got) >= (50 if crowded else 3)
    text = format_detections(got)
    assert text == format_detections(list(got))
    assert text == "".join(format_detection_line(d) + "\n" for d in got)
    assert detections_to_json(got) == detections_to_json(list(got))


def test_column_result_rows_fail_with_the_detection_messages():
    columns = dict(class_id=np.array([0, 1, 0]),
                   objectness=np.array([0.9, 1.0, 0.0]),
                   class_score=np.array([1.0, 0.5, 0.0]),
                   confidence=np.array([0.9, 0.5, 0.0]),
                   corners=np.array([[0.0, 0.0, 4.0, 4.0], [1.0, 1.0, 1.0, 1.0],
                                     [2.0, 3.0, 5.0, 3.0]]))
    names = ["a", "b"]
    dets = postprocess.Detections(**columns, class_names=names)
    assert [d.class_name for d in dets] == ["a", "b", "a"]
    assert postprocess.Detections(**{k: v[:0] for k, v in columns.items()},
                                  class_names=names) == []

    def message(**changes):
        broken = {k: v.copy() for k, v in columns.items()}
        for key, (index, value) in changes.items():
            broken[key][index] = value
        with pytest.raises(ValueError) as exc:
            postprocess.Detections(**broken, class_names=names)
        return str(exc.value)

    for key in ("objectness", "class_score", "confidence"):
        for value in (-0.25, 1.5, np.nan):
            assert message(**{key: (1, value)}) == "scores must lie in [0, 1]"
    assert message(corners=((1, 0), 2.0)) == \
        "inverted corners: (2.0, 1.0, 1.0, 1.0)"
    assert message(corners=((2, 3), 2.5)) == \
        "inverted corners: (2.0, 3.0, 5.0, 2.5)"
    assert message(corners=((0, 1), np.nan)) == \
        "inverted corners: (0.0, nan, 4.0, 4.0)"
    # the first failing row raises, with its own rule's message
    assert message(corners=((0, 2), -1.0), objectness=(1, 2.0)) == \
        "inverted corners: (0.0, 0.0, -1.0, 4.0)"
    assert message(corners=((2, 2), 1.0), objectness=(1, 2.0)) == \
        "scores must lie in [0, 1]"
