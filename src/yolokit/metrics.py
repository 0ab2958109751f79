"""Detection scoring: greedy matching, average precision with 101-point
interpolation, and mAP averaged over the ten IoU thresholds 0.50 to 0.95.

The dataset unit everywhere is a sequence of (detections, ground_truths)
pairs, one pair per image. Matching is greedy in descending confidence
(ties to the lower original index); each detection may claim at most one
unmatched same-class ground truth, preferring the highest IoU at or above
the threshold (IoU ties to the lower ground-truth index).

AP, mAP and the scenario failure count come from one pass that reads each
image once: one IoU per same-class (detection, ground truth) pair, greedy
matching from those at every threshold, and each detection's hit flags,
ranked once by confidence and split by class, since matching never pairs
different classes.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .boxes import BoxCorner, iou
from .postprocess import Detection, check_unit_interval
from .records import SCENARIOS

IOU_THRESHOLDS = tuple(round(0.5 + 0.05 * k, 2) for k in range(10))


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


def _match_image(dets, gts, thresholds) -> list:
    """Greedy matching of one image at each threshold, from one IoU per
    same-class pair. Per threshold: a (gt index or None, IoU) pair for each
    detection in detection order, and the taken flag of each gt."""
    candidates = [[(j, iou(d.box, g.box)) for j, g in enumerate(gts)
                   if g.class_id == d.class_id] for d in dets]
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].confidence, i))
    results = []
    for t in thresholds:
        taken = [False] * len(gts)
        matched = [(None, 0.0)] * len(dets)
        for i in order:
            best = (None, 0.0)  # then a candidates pair: results allocate no tuples
            for pair in candidates[i]:
                j, value = pair
                if not taken[j] and value >= t and value > best[1]:
                    best = pair
            if best[0] is not None:
                taken[best[0]] = True
                matched[i] = best
        results.append((matched, taken))
    return results


def match_detections(dets: Sequence[Detection], gts: Sequence[GroundTruth],
                     iou_threshold: float) -> MatchResult:
    """Greedy confidence-ordered matching for one image."""
    (matched, taken), = _match_image(dets, gts, (iou_threshold,))
    return MatchResult(tuple(MatchEntry(d, *m) for d, m in zip(dets, matched)),
                       tuple(taken))


def _evaluate(samples, thresholds):
    """One pass over `samples`: per threshold, the AP of each class with
    ground truth (class order); then the image count, the images that fail
    at the last threshold and the confidences matched there, in (image,
    detection) order. Equal confidences rank by (image, detection) index."""
    total_gt = Counter()
    confidence, class_ids = [], []
    hits = bytearray()  # one flag per (detection, threshold), row-major
    images = failed = 0
    for dets, gts in samples:
        results = _match_image(dets, gts, thresholds)
        total_gt.update(g.class_id for g in gts)
        for i, d in enumerate(dets):
            confidence.append(d.confidence)
            class_ids.append(d.class_id)
            hits.extend(matched[i][0] is not None for matched, _ in results)
        # each match takes its own truth, so every truth is taken when there
        # are as many detections as truths and every detection matched
        failed += len(dets) != len(gts) or any(j is None for j, _ in results[-1][0])
        images += 1
    flags = np.frombuffer(hits, dtype=bool).reshape(-1, len(thresholds))
    matched_conf = [c for c, hit in zip(confidence, flags[:, -1]) if hit]
    order = np.argsort(-np.array(confidence, dtype=float), kind="stable")
    ranked_class = np.array(class_ids, dtype=int)[order]
    ranked_flags = flags[order]
    by_class = {c: ranked_flags[ranked_class == c] for c in sorted(total_gt)}
    ap = [{c: _interpolated_ap(ranked[:, k], total_gt[c])
           for c, ranked in by_class.items()}
          for k in range(len(thresholds))]
    return ap, (images, failed, matched_conf)


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
    (ap,), _ = _evaluate(samples, (iou_threshold,))
    if class_id not in ap:
        raise ValueError(f"class {class_id} has no ground truth")
    return ap[class_id]


def _map_report(ap) -> EvalReport:
    """The mAP report from `_evaluate` APs, IOU_THRESHOLDS first."""
    if not ap[0]:
        raise ValueError("dataset has no ground truth")
    per_threshold = [sum(by_class.values()) / len(by_class)
                     for by_class in ap[:len(IOU_THRESHOLDS)]]
    return EvalReport(
        per_class_ap={c: dict(zip(IOU_THRESHOLDS, (by_class[c] for by_class in ap)))
                      for c in ap[0]},
        map_50_95=sum(per_threshold) / len(per_threshold),
        map_50=per_threshold[0],
    )


def map_50_95(samples) -> EvalReport:
    """AP per present class at each threshold in 0.50:0.95 step 0.05;
    mAP is the mean over classes, then over thresholds."""
    return _map_report(_evaluate(samples, IOU_THRESHOLDS)[0])


def scenario_report(samples, scenario: str,
                    error_iou_threshold: float = 0.5) -> EvalReport:
    """Full report plus scenario error rate and confidence statistics.

    An image fails when it has any unmatched ground truth or any false
    positive at `error_iou_threshold`, which must be finite and in [0, 1].
    error_rate is the failed fraction of images; confidence statistics
    cover matched detections.
    """
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}, need one of {SCENARIOS}")
    check_unit_interval("error_iou_threshold", error_iou_threshold)
    ap, (images, failed, matched_conf) = _evaluate(
        samples, IOU_THRESHOLDS + (error_iou_threshold,))
    base = _map_report(ap)
    stats = (ConfidenceStats(min(matched_conf), max(matched_conf),
                             sum(matched_conf) / len(matched_conf))
             if matched_conf else None)
    return replace(base, scenario=scenario,
                   error_rate=failed / images,
                   failed_images=failed, total_images=images,
                   confidence_stats=stats)


def report_to_json(report: EvalReport, class_names) -> str:
    """EvalReport as pretty JSON, class keys named from `class_names`."""
    payload = {
        "map_50_95": report.map_50_95,
        "map_50": report.map_50,
        "per_class_ap": {
            class_names[c]: {f"{t:.2f}": ap for t, ap in by_thr.items()}
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


def report_table(report: EvalReport, class_names) -> str:
    """Aligned text table of per-class AP at 0.50, 0.75 and the 0.50:0.95
    mean, with aggregate rows."""
    rows = [("class", "AP@0.50", "AP@0.75", "AP@0.50:0.95")]
    for c, by_thr in report.per_class_ap.items():
        mean_ap = sum(by_thr.values()) / len(by_thr)
        rows.append((class_names[c], f"{by_thr[0.5]:.4f}",
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
