"""Detection scoring: greedy matching, average precision with 101-point
interpolation, and mAP averaged over the ten IoU thresholds 0.50 to 0.95.

The dataset unit everywhere is a sequence of (detections, ground_truths)
pairs, one pair per image. Matching is greedy in descending confidence
(ties to the lower original index); each detection may claim at most one
unmatched same-class ground truth, preferring the highest IoU at or above
the threshold (IoU ties to the lower ground-truth index).

AP and mAP match each image once per IoU threshold, all classes together,
and split the ranked true-positive flags by class afterwards; matching
never pairs different classes, so each class gets the flags it would alone.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .boxes import BoxCorner, iou
from .postprocess import Detection

IOU_THRESHOLDS = tuple(round(0.5 + 0.05 * k, 2) for k in range(10))
SCENARIOS = ("single-class", "multi-class-group", "all-classes")


@dataclass(frozen=True)
class GroundTruth:
    """One annotated box."""

    box: BoxCorner
    class_id: int


@dataclass(frozen=True)
class MatchEntry:
    """Outcome for one detection: its matched gt index (or None) and the
    IoU against that gt (0.0 when unmatched)."""

    detection: Detection
    gt_index: int | None
    iou: float


@dataclass(frozen=True)
class MatchResult:
    """Per-detection entries in original detection order, plus which
    ground truths were claimed."""

    entries: tuple
    gt_matched: tuple

    @property
    def false_positives(self) -> int:
        return sum(1 for e in self.entries if e.gt_index is None)

    @property
    def missed(self) -> int:
        return sum(1 for m in self.gt_matched if not m)


@dataclass(frozen=True)
class ConfidenceStats:
    minimum: float
    maximum: float
    mean: float


@dataclass(frozen=True)
class EvalReport:
    """AP per class per IoU threshold plus aggregates.

    `per_class_ap` maps class_id -> {iou_threshold -> AP}; only classes
    present in the ground truth appear. Scenario fields are filled by
    scenario_report and None otherwise.
    """

    per_class_ap: dict
    map_50_95: float
    map_50: float
    scenario: str | None = None
    error_rate: float | None = None
    failed_images: int | None = None
    total_images: int | None = None
    confidence_stats: ConfidenceStats | None = None


def match_detections(dets: Sequence[Detection], gts: Sequence[GroundTruth],
                     iou_threshold: float) -> MatchResult:
    """Greedy confidence-ordered matching for one image."""
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].confidence, i))
    taken = [False] * len(gts)
    matched_gt: list[int | None] = [None] * len(dets)
    matched_iou = [0.0] * len(dets)
    for i in order:
        det = dets[i]
        best_j = None
        best_iou = 0.0
        for j, gt in enumerate(gts):
            if taken[j] or gt.class_id != det.class_id:
                continue
            value = iou(det.box, gt.box)
            if value >= iou_threshold and value > best_iou:
                best_iou = value
                best_j = j
        if best_j is not None:
            taken[best_j] = True
            matched_gt[i] = best_j
            matched_iou[i] = best_iou
    entries = tuple(MatchEntry(dets[i], matched_gt[i], matched_iou[i])
                    for i in range(len(dets)))
    return MatchResult(entries, tuple(taken))


def _ranked_flags(samples, iou_threshold: float):
    """Dataset-wide confidence-ranked TP flags per class, plus the
    ground-truth count per class. Rank ties break by (image index,
    detection index)."""
    ranked = []
    total_gt = Counter()
    for img_idx, (dets, gts) in enumerate(samples):
        total_gt.update(g.class_id for g in gts)
        result = match_detections(dets, gts, iou_threshold)
        for det_idx, entry in enumerate(result.entries):
            ranked.append((-entry.detection.confidence, img_idx, det_idx,
                           entry.detection.class_id,
                           entry.gt_index is not None))
    ranked.sort()
    flags = defaultdict(list)
    for *_, class_id, is_tp in ranked:
        flags[class_id].append(is_tp)
    return flags, total_gt


def _interpolated_ap(flags, total_gt: int) -> float:
    """101-point interpolated AP of one class's ranked TP flags."""
    tp = np.cumsum(flags)
    recall = tp / total_gt
    precision = tp / np.arange(1, tp.size + 1)
    # best precision at any recall >= r, for every rank, plus 0 past the end
    envelope = np.append(np.maximum.accumulate(precision[::-1])[::-1], 0.0)
    best = envelope[np.searchsorted(recall, np.arange(101) / 100.0)]
    # cumsum adds left to right, unlike np.sum's pairwise sum
    return float(np.cumsum(best)[-1]) / 101.0


def average_precision(samples, class_id: int, iou_threshold: float) -> float:
    """101-point interpolated AP for one class at one IoU threshold.

    The precision-recall curve comes from dataset-wide confidence-ranked
    detections; interpolated precision at each recall grid point
    0, 0.01, ..., 1.00 is the maximum precision at any recall >= it.
    Raises ValueError when the class has no ground truth.
    """
    flags, total_gt = _ranked_flags(samples, iou_threshold)
    if total_gt[class_id] == 0:
        raise ValueError(f"class {class_id} has no ground truth")
    return _interpolated_ap(flags[class_id], total_gt[class_id])


def map_50_95(samples) -> EvalReport:
    """AP per present class at each threshold in 0.50:0.95 step 0.05;
    mAP is the mean over classes, then over thresholds."""
    classes = sorted({g.class_id for _, gts in samples for g in gts})
    if not classes:
        raise ValueError("dataset has no ground truth")
    per_class = {c: {} for c in classes}
    for t in IOU_THRESHOLDS:
        flags, total_gt = _ranked_flags(samples, t)
        for c in classes:
            per_class[c][t] = _interpolated_ap(flags[c], total_gt[c])
    per_threshold = [
        sum(per_class[c][t] for c in classes) / len(classes)
        for t in IOU_THRESHOLDS
    ]
    return EvalReport(
        per_class_ap=per_class,
        map_50_95=sum(per_threshold) / len(per_threshold),
        map_50=per_threshold[0],
    )


@dataclass(frozen=True)
class EvalConfig:
    """Scenario evaluation knobs: the IoU threshold used for the
    per-image failure counting."""

    error_iou_threshold: float = 0.5


def scenario_report(samples, scenario: str,
                    config: EvalConfig = EvalConfig()) -> EvalReport:
    """Full report plus scenario error rate and confidence statistics.

    An image fails when it has any unmatched ground truth or any false
    positive at the configured IoU threshold. error_rate is the failed
    fraction of images; confidence statistics cover matched detections.
    """
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}, need one of {SCENARIOS}")
    base = map_50_95(samples)
    failed = 0
    matched_conf: list[float] = []
    for dets, gts in samples:
        result = match_detections(dets, gts, config.error_iou_threshold)
        if result.false_positives or result.missed:
            failed += 1
        matched_conf.extend(e.detection.confidence for e in result.entries
                            if e.gt_index is not None)
    stats = None
    if matched_conf:
        stats = ConfidenceStats(min(matched_conf), max(matched_conf),
                                sum(matched_conf) / len(matched_conf))
    return replace(base, scenario=scenario,
                   error_rate=failed / len(samples),
                   failed_images=failed, total_images=len(samples),
                   confidence_stats=stats)


def report_to_json(report: EvalReport, class_names=None) -> str:
    """EvalReport as pretty JSON; class keys are names when a registry is
    supplied, else decimal class ids."""
    def class_key(cid):
        return class_names[cid] if class_names is not None else str(cid)

    payload = {
        "map_50_95": report.map_50_95,
        "map_50": report.map_50,
        "per_class_ap": {
            class_key(c): {f"{t:.2f}": ap for t, ap in by_thr.items()}
            for c, by_thr in report.per_class_ap.items()
        },
    }
    if report.scenario is not None:
        payload["scenario"] = report.scenario
        payload["error_rate"] = report.error_rate
        payload["failed_images"] = report.failed_images
        payload["total_images"] = report.total_images
        if report.confidence_stats is not None:
            payload["confidence"] = {
                "min": report.confidence_stats.minimum,
                "max": report.confidence_stats.maximum,
                "mean": report.confidence_stats.mean,
            }
    return json.dumps(payload, indent=2)


def report_table(report: EvalReport, class_names=None) -> str:
    """Aligned text table of per-class AP at 0.50, 0.75 and the 0.50:0.95
    mean, with aggregate rows."""
    def class_key(cid):
        return class_names[cid] if class_names is not None else str(cid)

    rows = [("class", "AP@0.50", "AP@0.75", "AP@0.50:0.95")]
    for c, by_thr in report.per_class_ap.items():
        mean_ap = sum(by_thr.values()) / len(by_thr)
        rows.append((class_key(c), f"{by_thr[0.5]:.4f}",
                     f"{by_thr[0.75]:.4f}", f"{mean_ap:.4f}"))
    rows.append(("mAP", f"{report.map_50:.4f}", "", f"{report.map_50_95:.4f}"))
    widths = [max(len(r[i]) for r in rows) for i in range(4)]
    lines = ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
             for row in rows]
    if report.error_rate is not None:
        lines.append(f"scenario {report.scenario}: error rate "
                     f"{report.error_rate:.4f} "
                     f"({report.failed_images}/{report.total_images} images failed)")
        if report.confidence_stats is not None:
            s = report.confidence_stats
            lines.append(f"matched confidence min {s.minimum:.4f} "
                         f"max {s.maximum:.4f} mean {s.mean:.4f}")
    return "\n".join(lines) + "\n"
