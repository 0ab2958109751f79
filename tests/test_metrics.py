"""Matching, average precision, mAP and scenario reports."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from yolokit.boxes import BoxCorner
from yolokit.metrics import (IOU_THRESHOLDS, SCENARIOS, ConfidenceStats,
                             GroundTruth, average_precision, map_50_95,
                             match_detections, report_table, report_to_json,
                             scenario_report)

from conftest import make_detection
from oracles import ap_ref, map_ref, match_ref


def det(x0, y0, x1, y1, conf, cid=0):
    return make_detection((float(x0), float(y0), float(x1), float(y1)),
                          conf, class_id=cid)


def gt(x0, y0, x1, y1, cid=0):
    return GroundTruth(BoxCorner(float(x0), float(y0), float(x1), float(y1)),
                       cid)


def random_sample(rng, num_classes=3, frame=100):
    """One image in oracle tuple form: dets as (conf, class, box tuple),
    gts as (class, box tuple). Confidences round to one decimal so rank
    ties actually occur."""
    gts = []
    for _ in range(int(rng.integers(0, 5))):
        x0, y0 = (float(v) for v in rng.integers(0, frame - 10, 2))
        w, h = (float(v) for v in rng.integers(5, 30, 2))
        gts.append((int(rng.integers(num_classes)),
                    (x0, y0, min(x0 + w, frame), min(y0 + h, frame))))
    dets = []
    for _ in range(int(rng.integers(0, 7))):
        x0, y0 = (float(v) for v in rng.integers(0, frame - 10, 2))
        w, h = (float(v) for v in rng.integers(5, 30, 2))
        dets.append((round(float(rng.uniform(0.05, 1.0)), 1),
                     int(rng.integers(num_classes)),
                     (x0, y0, min(x0 + w, frame), min(y0 + h, frame))))
    return dets, gts


def to_api(sample):
    """Oracle tuple form -> (Detection list, GroundTruth list)."""
    dets, gts = sample
    return ([make_detection(b, conf, class_id=cid) for conf, cid, b in dets],
            [GroundTruth(BoxCorner(*b), cid) for cid, b in gts])


# ---------------------------------------------------------------------------
# matching

def test_iou_threshold_grid():
    assert IOU_THRESHOLDS == (0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85,
                              0.9, 0.95)
    assert SCENARIOS == ("single-class", "multi-class-group", "all-classes")


def test_match_single_pair():
    result = match_detections([det(0, 0, 10, 10, 0.9)],
                              [gt(0, 0, 10, 10)], 0.5)
    entry, = result.entries
    assert entry.gt_index == 0 and entry.iou == 1.0
    assert result.gt_matched == (True,)
    assert result.false_positives == 0 and result.missed == 0


def test_match_threshold_is_inclusive():
    # boxes with IoU exactly 0.5: intersection 1, union 2
    dets = [det(0, 0, 2, 1, 0.9)]
    gts = [gt(0, 0, 1, 1)]
    assert match_detections(dets, gts, 0.5).entries[0].gt_index == 0
    assert match_detections(dets, gts, 0.5000001).entries[0].gt_index is None


def test_match_higher_confidence_claims_first():
    gts = [gt(0, 0, 10, 10)]
    tight = det(0, 0, 10, 10, 0.60)
    loose = det(0, 0, 10, 12, 0.95)  # lower IoU, higher confidence
    result = match_detections([tight, loose], gts, 0.5)
    assert result.entries[0].gt_index is None
    assert result.entries[1].gt_index == 0
    assert result.false_positives == 1


def test_match_confidence_tie_keeps_list_order():
    gts = [gt(0, 0, 10, 10)]
    result = match_detections([det(0, 0, 10, 10, 0.7),
                               det(0, 0, 10, 10, 0.7)], gts, 0.5)
    assert result.entries[0].gt_index == 0
    assert result.entries[1].gt_index is None


def test_match_iou_tie_takes_lower_gt_index():
    gts = [gt(0, 0, 2, 1), gt(0, 1, 2, 2)]
    result = match_detections([det(0, 0, 2, 2, 0.9)], gts, 0.5)
    assert result.entries[0].gt_index == 0
    assert result.gt_matched == (True, False)


def test_match_respects_class():
    result = match_detections([det(0, 0, 10, 10, 0.9, cid=0)],
                              [gt(0, 0, 10, 10, cid=1)], 0.5)
    assert result.entries[0].gt_index is None
    assert result.false_positives == 1 and result.missed == 1


def test_match_random_instances_agree_with_oracle():
    rng = np.random.default_rng(42)
    for _ in range(300):
        sample = random_sample(rng)
        threshold = float(rng.choice([0.3, 0.5, 0.75]))
        api_dets, api_gts = to_api(sample)
        got = match_detections(api_dets, api_gts, threshold)
        flags, taken = match_ref(sample[0], sample[1], threshold)
        assert [e.gt_index is not None for e in got.entries] == flags
        assert list(got.gt_matched) == taken


# ---------------------------------------------------------------------------
# average precision

def test_ap_worked_sequence():
    # ranked flags TP, FP, TP over two ground truths
    sample = ([(0.9, 0, (0.0, 0.0, 10.0, 10.0)),
               (0.8, 0, (80.0, 80.0, 90.0, 90.0)),
               (0.7, 0, (50.0, 50.0, 60.0, 60.0))],
              [(0, (0.0, 0.0, 10.0, 10.0)), (0, (50.0, 50.0, 60.0, 60.0))])
    got = average_precision([to_api(sample)], 0, 0.5)
    assert abs(got - 253.0 / 303.0) < 1e-12
    assert abs(got - ap_ref([sample], 0, 0.5)) < 1e-12


def test_ap_no_ground_truth_raises():
    with pytest.raises(ValueError):
        average_precision([([det(0, 0, 10, 10, 0.9)], [])], 0, 0.5)


def test_ap_no_detections_is_zero():
    assert average_precision([([], [gt(0, 0, 5, 5)])], 0, 0.5) == 0.0


def test_ap_random_datasets_agree_with_oracle():
    rng = np.random.default_rng(42)
    checked = 0
    while checked < 200:
        samples = [random_sample(rng) for _ in range(int(rng.integers(1, 5)))]
        class_id = int(rng.integers(3))
        if not any(cid == class_id for _, gts in samples for cid, _ in gts):
            continue
        threshold = float(rng.choice(IOU_THRESHOLDS))
        got = average_precision([to_api(s) for s in samples], class_id,
                                threshold)
        assert abs(got - ap_ref(samples, class_id, threshold)) < 1e-12
        checked += 1


# ---------------------------------------------------------------------------
# mAP

def test_map_matches_oracle():
    rng = np.random.default_rng(42)
    datasets = []
    for _ in range(30):
        samples = [random_sample(rng) for _ in range(4)]
        datasets.append(samples)
        # one confidence everywhere, and a true positive on every other
        # ground truth: ranks tie across images and classes, so the
        # (image, detection) tie rule decides the curve
        datasets.append([([(0.5, cid, b) for _, cid, b in dets]
                          + [(0.5, cid, b) for cid, b in gts[::2]], gts)
                         for dets, gts in samples])
    for samples in datasets:
        if not any(gts for _, gts in samples):
            continue
        report = map_50_95([to_api(s) for s in samples])
        assert abs(report.map_50_95 - map_ref(samples, IOU_THRESHOLDS)) < 1e-12
        present = sorted({cid for _, gts in samples for cid, _ in gts})
        assert sorted(report.per_class_ap) == present
        map50 = sum(report.per_class_ap[c][0.5] for c in present) / len(present)
        assert abs(report.map_50 - map50) < 1e-12


def test_map_excludes_classes_without_ground_truth():
    # detections for class 1 exist, but only class 0 has ground truth
    dets = [det(0, 0, 10, 10, 0.9, cid=0), det(20, 20, 30, 30, 0.8, cid=1)]
    report = map_50_95([(dets, [gt(0, 0, 10, 10)])])
    assert list(report.per_class_ap) == [0]
    assert report.map_50_95 == 1.0


def test_map_empty_ground_truth_raises():
    with pytest.raises(ValueError):
        map_50_95([([det(0, 0, 5, 5, 0.5)], [])])


# ---------------------------------------------------------------------------
# scenario reports

def clean_image(cid=0, conf=0.9):
    return ([det(10, 10, 40, 40, conf, cid=cid)], [gt(10, 10, 40, 40, cid=cid)])


def test_scenario_error_rate_two_in_fifty():
    samples = [clean_image() for _ in range(48)]
    # one miss: ground truth with no detection at all
    samples.append(([], [gt(5, 5, 20, 20)]))
    # one false positive alongside a good match
    dets, gts = clean_image()
    samples.append((dets + [det(60, 60, 90, 90, 0.8)], gts))
    report = scenario_report(samples, "single-class")
    assert report.scenario == "single-class"
    assert report.failed_images == 2 and report.total_images == 50
    assert abs(report.error_rate - 0.04) < 1e-15


def test_scenario_confidence_stats():
    samples = [clean_image(conf=c) for c in (0.6, 0.8, 1.0)]
    # unmatched detections stay out of the statistics
    samples.append(([det(60, 60, 90, 90, 0.05)], [gt(10, 10, 40, 40)]))
    report = scenario_report(samples, "multi-class-group")
    stats = report.confidence_stats
    assert stats.minimum == 0.6 and stats.maximum == 1.0
    assert abs(stats.mean - 0.8) < 1e-15
    assert report.failed_images == 1


def test_scenario_iou_threshold_config():
    # IoU 0.5 match: passes at the default gate, fails when raised to 0.6
    sample = ([det(0, 0, 2, 1, 0.9)], [gt(0, 0, 1, 1)])
    assert scenario_report([sample], "single-class").error_rate == 0.0
    strict = scenario_report([sample], "single-class",
                             error_iou_threshold=0.6)
    assert strict.error_rate == 1.0


def test_scenario_name_validated():
    with pytest.raises(ValueError):
        scenario_report([clean_image()], "weird")


def test_scenario_iou_threshold_validated():
    for bad in (float("nan"), float("inf"), -0.1, 1.5):
        with pytest.raises(ValueError, match="error_iou_threshold"):
            scenario_report([clean_image()], "single-class",
                            error_iou_threshold=bad)


# small integer boxes on a 12-pixel frame, so IoU ties and exact threshold
# hits happen; confidences from three values, so rank ties happen
small_boxes = st.tuples(st.integers(0, 8), st.integers(0, 8),
                        st.integers(1, 4), st.integers(1, 4)).map(
    lambda b: (float(b[0]), float(b[1]), float(b[0] + b[2]), float(b[1] + b[3])))
small_images = st.tuples(
    st.lists(st.tuples(st.sampled_from([0.3, 0.6, 0.9]), st.integers(0, 2),
                       small_boxes), max_size=5),
    st.lists(st.tuples(st.integers(0, 2), small_boxes), max_size=4))


@settings(deadline=None)
@given(st.lists(small_images, min_size=1, max_size=4), st.booleans())
def test_scenario_report_agrees_with_match_and_ap(images, tied):
    if tied:
        images = [([(0.5, cid, b) for _, cid, b in dets], gts)
                  for dets, gts in images]
    samples = [to_api(image) for image in images]
    present = sorted({g.class_id for _, gts in samples for g in gts})
    if not present:
        return
    per_class_ap = map_50_95(samples).per_class_ap
    for t in sorted({0.0, 0.6, 1.0, *IOU_THRESHOLDS}):
        report = scenario_report(samples, "all-classes", error_iou_threshold=t)
        assert report.per_class_ap == per_class_ap
        results = [match_detections(dets, gts, t) for dets, gts in samples]
        assert report.failed_images == sum(
            1 for r in results if r.false_positives or r.missed)
        conf = [e.detection.confidence for r in results for e in r.entries
                if e.gt_index is not None]
        assert report.confidence_stats == (
            ConfidenceStats(min(conf), max(conf), sum(conf) / len(conf))
            if conf else None)
    assert sorted(per_class_ap) == present
    for c in present:
        for u in IOU_THRESHOLDS:
            assert per_class_ap[c][u] == average_precision(samples, c, u)


def test_reports_read_a_single_use_iterable_once():
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 20:
        samples = [to_api(random_sample(rng)) for _ in range(int(rng.integers(1, 6)))]
        present = sorted({g.class_id for _, gts in samples for g in gts})
        if not present:
            continue
        assert (scenario_report(iter(samples), "all-classes", 0.6)
                == scenario_report(samples, "all-classes", 0.6))
        assert map_50_95(iter(samples)) == map_50_95(samples)
        assert (average_precision(iter(samples), present[0], 0.75)
                == average_precision(samples, present[0], 0.75))
        checked += 1


# ---------------------------------------------------------------------------
# report rendering

def test_report_json_round_trip(registry13):
    report = scenario_report([clean_image(cid=0), clean_image(cid=2)],
                             "all-classes")
    payload = json.loads(report_to_json(report, registry13))
    assert payload["map_50_95"] == 1.0
    assert payload["per_class_ap"]["bolt"]["0.50"] == 1.0
    assert payload["per_class_ap"]["washer"]["0.95"] == 1.0
    assert payload["scenario"] == "all-classes"
    assert payload["error_rate"] == 0.0
    assert payload["confidence"]["mean"] == 0.9


def test_report_table_mentions_classes(registry13):
    report = map_50_95([clean_image(cid=0)])
    table = report_table(report, registry13)
    assert "bolt" in table
    assert "AP@0.50:0.95" in table
    assert table.splitlines()[-1].startswith("mAP")
    assert "1.0000" in table
