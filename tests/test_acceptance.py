"""Acceptance suite: one test per shipping criterion, C01 through C12.

Each test pins the required value or tolerance and prints a single
C## PASS line with the measured quantities when it holds.
"""

import hashlib
import json
import math
import time

import numpy as np
import pytest

from yolokit import cli, data, metrics, postprocess
from yolokit.boxes import (BoxCorner, BoxNorm, RawPrediction, decode_box,
                           decode_center, grid_sizes, head_channels, iou,
                           norm_to_corner, total_grid_cells)
from yolokit.cfg import census, parse_cfg, propagate_shapes, serialize_cfg
from yolokit.postprocess import (DetectConfig, NmsConfig, detect_frame,
                                 extract_predictions, nms)
from yolokit.tensor import ConvParams, ShapeError, Tensor, conv2d, csp_block, \
    mish, residual_block

from conftest import make_detection
from oracles import (ap_ref, cfg_shapes_ref, color_coverage_ref, conv2d_ref,
                     csp_ref, decode_ref, map_ref, mish_ref, nms_ref)

ANCHORS = cli.DEFAULT_ANCHORS


def _line(cid, detail):
    print(f"{cid} PASS  {detail}")


def _random_conv(rng, in_c, filters, kernel, stride=1, pad=0,
                 activation="linear"):
    return ConvParams(
        rng.normal(0.0, 1.0, (filters, in_c, kernel, kernel)),
        rng.normal(0.0, 1.0, filters),
        stride=stride, pad=pad, activation=activation)


def _rotation_safe_scene(seed, registry, count_range=(3, 8)):
    """Scene whose objects stay fully in-canvas under any rotation about
    the center: every box corner is within sqrt(2)*(304-126) < 304 px of
    it, so no label is ever clipped."""
    return data.generate_synthetic_scene(seed, registry,
                                         count_range=count_range,
                                         min_gap=2.0, margin=126)


def _scenario_dataset(scenario, count, registry, base_seed):
    """A perfect detector's (detections, truths) on scenes 0 to count-1 of
    `scenario`, scene i drawn with seed base_seed + i: one confidence-1.0
    detection per label."""
    samples = []
    for index in range(count):
        scene = data.scenario_scene(scenario, index, base_seed + index, registry)
        truths = [metrics.GroundTruth(norm_to_corner(b, 608, 608), cid)
                  for cid, b in scene.labels]
        samples.append(([postprocess.Detection(t.box, t.class_id, str(t.class_id),
                                               1.0, 1.0, 1.0) for t in truths],
                         truths))
    return samples


def _trained_like_heads(rng, input_n, num_classes):
    """Head tensors with hot ground-truth slots over a noisy background,
    the load profile of a trained detector."""
    labels = []
    for _ in range(6):
        w = float(rng.uniform(0.08, 0.25))
        h = float(rng.uniform(0.08, 0.25))
        cx = float(rng.uniform(w / 2, 1.0 - w / 2))
        cy = float(rng.uniform(h / 2, 1.0 - h / 2))
        labels.append((int(rng.integers(num_classes)),
                       BoxNorm(cx, cy, w, h)))
    heads = postprocess.ground_truth_heads(labels, num_classes, input_n,
                                           ANCHORS)
    return tuple(Tensor(head.data + rng.normal(0.0, 1.0, head.data.shape),
                        copy=False) for head in heads)


# ---------------------------------------------------------------------------

def test_c01_grid_cell_totals():
    total_grid_cells(416)  # warm the bytecode path before timing
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        total = total_grid_cells(416)
        best = min(best, time.perf_counter() - start)
    assert total == 3549
    assert grid_sizes(416) == (52, 26, 13)
    assert best < 1e-3
    _line("C01", f"total_grid_cells(416)=3549, grids (52,26,13), "
                 f"{best * 1e6:.1f} us")


def test_c02_neuron_census(yolov4_text):
    start = time.perf_counter()
    graph = propagate_shapes(parse_cfg(yolov4_text))
    report = census(graph)
    assert report.input_neurons == 1_108_992
    ref_shapes = cfg_shapes_ref(graph.layers)
    assert list(graph.shapes) == list(ref_shapes)
    checked = 0
    for row in report.per_layer:
        h, w, c = ref_shapes[row.index + 1]
        assert row.neurons == h * w * c
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _line("C02", f"input_neurons=1108992, {checked} per-layer neuron rows "
                 f"vs oracle, {elapsed * 1e3:.0f} ms")


def test_c03_head_sizing():
    assert head_channels(13) == 54
    head = Tensor(np.random.default_rng(42).normal(size=(13, 13, 54)))
    preds = extract_predictions(head, ANCHORS[6:], 13, 416, scale_index=2)
    assert len(preds) == 507
    with pytest.raises(ShapeError):
        extract_predictions(Tensor(np.zeros((13, 13, 53))), ANCHORS[6:], 13, 416)
    with pytest.raises(ShapeError):
        extract_predictions(head, ANCHORS[6:], 12, 416)
    _line("C03", "head_channels(13)=54, 13x13x54 -> 507 predictions, "
                 "mismatched widths rejected")


def test_c04_decode_equations():
    rng = np.random.default_rng(42)
    scales = ((52, 8), (26, 16), (13, 32))
    picks = rng.integers(0, 3, 10_000)
    anchor_picks = rng.integers(0, len(ANCHORS), 10_000)
    ts = rng.uniform(-8.0, 8.0, (10_000, 2))
    tws = rng.uniform(-3.0, 3.0, (10_000, 2))
    cells = rng.uniform(0.0, 1.0, (10_000, 2))
    start = time.perf_counter()
    worst = 0.0
    for i in range(10_000):
        grid_n, stride = scales[picks[i]]
        anchor = ANCHORS[anchor_picks[i]]
        row = int(cells[i, 0] * grid_n)
        col = int(cells[i, 1] * grid_n)
        raw = RawPrediction(ts[i, 0], ts[i, 1], tws[i, 0], tws[i, 1],
                            0.0, (0.0,), (row, col), anchor, grid_n, 416)
        box = decode_box(raw)
        center = decode_center(raw.t_x, raw.t_y, raw.cell, grid_n, 416)
        _, _, clamped = decode_ref(raw.t_x, raw.t_y, raw.t_w, raw.t_h,
                                   row, col, grid_n, 416,
                                   anchor.p_w, anchor.p_h)
        for got, want in zip((box.x_min, box.y_min, box.x_max, box.y_max),
                             clamped):
            worst = max(worst, abs(got - want))
        assert col * stride <= center[0] <= (col + 1) * stride
        assert row * stride <= center[1] <= (row + 1) * stride
    elapsed = time.perf_counter() - start
    assert worst <= 1e-12
    assert elapsed < 1.0
    _line("C04", f"10000 decodes, worst |err|={worst:.2e}, centers in-cell, "
                 f"{elapsed * 1e3:.0f} ms")


def test_c05_nms_oracle_equivalence():
    b1 = make_detection((0, 0, 10, 10), 0.9)
    b2 = make_detection((1, 1, 11, 11), 0.8)
    b3 = make_detection((20, 20, 30, 30), 0.7)
    assert iou(b1.box, b2.box) == 81.0 / 119.0
    assert nms([b1, b2, b3], NmsConfig(objectness_threshold=0.5,
                                       iou_threshold=0.5)) == [b1, b3]

    rng = np.random.default_rng(42)
    start = time.perf_counter()
    for _ in range(1000):
        n = int(rng.integers(0, 13))
        dets = []
        for _ in range(n):
            x = float(rng.uniform(0, 80))
            y = float(rng.uniform(0, 80))
            w = float(rng.uniform(1, 40))
            h = float(rng.uniform(1, 40))
            conf = float(np.round(rng.uniform(0.0, 1.0), 1))
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
            [(d.box.x_min, d.box.y_min, d.box.x_max, d.box.y_max)
             for d in dets],
            [d.confidence for d in dets], [d.class_id for d in dets],
            [d.objectness for d in dets],
            config.objectness_threshold, config.iou_threshold,
            config.per_class)
        assert [dets[i] for i in want] == kept
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _line("C05", f"1000 instances identical to brute force, 81/119 example "
                 f"reproduced, {elapsed:.2f} s")


def test_c06_mish_precision():
    rng = np.random.default_rng(42)
    xs = rng.uniform(-30.0, 30.0, 10_000)
    got = mish(xs)
    worst = max(abs(float(g) - mish_ref(float(x)))
                for g, x in zip(got, xs))
    assert worst <= 1e-12
    assert abs(float(mish(1.0)) - 0.8650983882) <= 1e-9
    edges = np.array([0.0, -0.0, 1.0, -1.0, 20.0, -20.0, 709.78, -709.78,
                      745.0, -745.0, 1e4, -1e4, 1e308, -1e308,
                      1.7976931348623157e308, -1.7976931348623157e308,
                      2.2250738585072014e-308, -2.2250738585072014e-308,
                      5e-324, -5e-324])
    assert not np.any(np.isnan(mish(edges)))
    _line("C06", f"10000 points worst |err|={worst:.2e}, mish(1) within "
                 f"1e-9, {edges.size} edge probes NaN-free")


def test_c07_block_semantics():
    rng = np.random.default_rng(42)
    for _ in range(100):
        h = int(rng.integers(2, 7))
        w = int(rng.integers(2, 7))
        c = int(rng.integers(1, 7))
        mid = int(rng.integers(1, 5))
        t = Tensor(rng.normal(0.0, 1.0, (h, w, c)))
        conv1 = ConvParams(np.zeros((mid, c, 1, 1)), np.zeros(mid))
        conv2 = ConvParams(np.zeros((c, mid, 3, 3)), np.zeros(c), pad=1)
        out = residual_block(t, conv1, conv2)
        assert np.array_equal(out.data, t.data)

    csp_worst = 0.0
    for _ in range(10):
        c = 2 * int(rng.integers(2, 7))
        t = Tensor(rng.normal(0.0, 1.0, (6, 6, c)))
        half = c // 2
        branch = (_random_conv(rng, half, half, 1, activation="mish"),
                  _random_conv(rng, half, half, 3, pad=1, activation="mish"))
        transition = _random_conv(rng, c, c, 1, activation="mish")
        out = csp_block(t, 0.5, branch, transition=transition)
        ref = csp_ref(
            t.data, half,
            [(p.weights, p.bias, p.stride, p.pad, p.activation)
             for p in branch],
            (transition.weights, transition.bias, transition.stride,
             transition.pad, transition.activation))
        csp_worst = max(csp_worst, float(np.max(np.abs(out.data - ref))))
    assert csp_worst <= 1e-12

    conv_worst = 0.0
    for _ in range(100):
        h = int(rng.integers(1, 7))
        w = int(rng.integers(1, 7))
        c = int(rng.integers(1, 5))
        f = int(rng.integers(1, 5))
        k = int(rng.integers(1, 4))
        pad = int(rng.integers(0, 3))
        stride = int(rng.integers(1, 3))
        if h + 2 * pad < k or w + 2 * pad < k:
            pad = k  # keep the window applicable
        act = ("linear", "leaky", "mish")[int(rng.integers(3))]
        params = _random_conv(rng, c, f, k, stride=stride, pad=pad,
                              activation=act)
        t = Tensor(rng.normal(0.0, 1.0, (h, w, c)))
        out = conv2d(t, params)
        ref = conv2d_ref(t.data, params.weights, params.bias, stride, pad, act)
        conv_worst = max(conv_worst, float(np.max(np.abs(out.data - ref))))
    assert conv_worst <= 1e-12
    _line("C07", f"100 residual identities exact, csp worst {csp_worst:.2e}, "
                 f"conv worst {conv_worst:.2e} over 100 shapes")


def test_c08_augmentation_correctness(registry13):
    transforms = []
    for k in range(12):
        angle = 30.0 * k
        transforms.append(("rot", angle))
    transforms.extend([("flip", "horizontal"), ("flip", "vertical")])

    low = 1.0
    for seed in range(200):
        scene = _rotation_safe_scene(seed, registry13)
        kind, arg = transforms[seed % len(transforms)]
        moved = data.flip(scene, arg) if kind == "flip" else \
            data.rotate(scene, arg)
        assert len(moved.labels) == len(scene.labels)
        for cid, norm in moved.labels:
            _, color = data.class_shape(cid)
            corner = norm_to_corner(norm, 608, 608)
            coverage = color_coverage_ref(
                moved.image.pixels, color,
                [(corner.x_min, corner.y_min, corner.x_max, corner.y_max)])
            assert coverage >= 0.8
            low = min(low, coverage)

    for seed in range(10):
        scene = _rotation_safe_scene(seed, registry13)
        for axis in ("horizontal", "vertical"):
            twice = data.flip(data.flip(scene, axis), axis)
            assert twice.image == scene.image
            assert twice.labels == scene.labels
        turned = scene
        for _ in range(4):
            turned = data.rotate(turned, 90.0)
        assert turned.image == scene.image
        assert turned.labels == scene.labels

    base = [_rotation_safe_scene(seed, registry13, (13, 13))
            for seed in range(1000, 1009)]
    rotations = [30.0 * k for k in range(12)]
    # keep only the labels of each variant; 324 full canvases would not
    # fit comfortably in memory
    stub = data.Image(np.zeros((1, 1, 3), dtype=np.uint8))
    stripped = [data.LabeledImage(stub, v.labels, v.source_path)
                for v in data.iter_expanded(base, rotations,
                                            ["horizontal", "vertical"])]
    assert len(stripped) == 9 * 12 * 3
    report = data.expansion_report(stripped, registry13, floor=300)
    assert not report.below_floor
    assert all(report.per_class[name] >= 300 for name in registry13)
    _line("C08", f"200 scenes coverage >= 80% (min {low:.3f}), involution "
                 f"and 4x90 exact, expansion floor min "
                 f"{min(report.per_class.values())} >= 300")


def test_c09_evaluation_oracle(registry13):
    rng = np.random.default_rng(42)
    checked = 0
    worst = 0.0
    while checked < 500:
        gts = []
        for _ in range(int(rng.integers(1, 7))):
            x0, y0 = (float(v) for v in rng.integers(0, 90, 2))
            w, h = (float(v) for v in rng.integers(5, 30, 2))
            gts.append((int(rng.integers(3)),
                        (x0, y0, min(x0 + w, 100.0), min(y0 + h, 100.0))))
        dets = []
        for _ in range(int(rng.integers(0, 11))):
            x0, y0 = (float(v) for v in rng.integers(0, 90, 2))
            w, h = (float(v) for v in rng.integers(5, 30, 2))
            dets.append((round(float(rng.uniform(0.05, 1.0)), 1),
                         int(rng.integers(3)),
                         (x0, y0, min(x0 + w, 100.0), min(y0 + h, 100.0))))
        sample = (dets, gts)
        api = ([make_detection(b, conf, class_id=cid)
                for conf, cid, b in dets],
               [metrics.GroundTruth(BoxCorner(*b), cid) for cid, b in gts])

        present = sorted({cid for cid, _ in gts})
        class_id = present[int(rng.integers(len(present)))]
        threshold = float(rng.choice(metrics.IOU_THRESHOLDS))
        got_ap = metrics.average_precision([api], class_id, threshold)
        worst = max(worst, abs(got_ap - ap_ref([sample], class_id, threshold)))

        got_map = metrics.map_50_95([api]).map_50_95
        worst = max(worst, abs(got_map - map_ref([sample],
                                                 metrics.IOU_THRESHOLDS)))
        checked += 1
    assert worst <= 1e-12

    maps = []
    for number, scenario in enumerate(metrics.SCENARIOS, start=1):
        samples = _scenario_dataset(scenario, 50, registry13,
                                    base_seed=2000 + number * 100)
        report = metrics.scenario_report(samples, scenario)
        assert report.map_50_95 == 1.0
        assert report.error_rate == 0.0
        maps.append(report.map_50_95)
    _line("C09", f"500 instances worst |err|={worst:.2e}; perfect detector "
                 f"mAP {maps} on 3x50 scenario images")


def test_c10_end_to_end_pipeline(tmp_path):
    digests = []
    payloads = []
    for run in range(3):
        root = tmp_path / f"run{run}"
        ds = root / "ds"
        heads_dir = root / "heads"
        dets_dir = root / "dets"
        dets_dir.mkdir(parents=True)
        assert cli.main(["synth", "--scenario", "1", "--count", "10",
                         "--seed", "11", "--out", str(ds)]) == 0
        assert cli.main(["encode", str(ds), "--out", str(heads_dir)]) == 0
        stems = sorted(p.stem for p in ds.glob("*.ppm"))
        assert len(stems) == 10
        for stem in stems:
            head_files = [str(heads_dir / f"{stem}.h{k}") for k in range(3)]
            assert cli.main(["detect", "--heads", *head_files,
                             "--classes", str(ds / "classes.txt"),
                             "--out", str(dets_dir / f"{stem}.txt")]) == 0
        report_path = root / "report.json"
        rc = cli.main(["eval", "--detections", str(dets_dir),
                       "--truth", str(ds), "--scenario", "1",
                       "--json", str(report_path)])
        assert rc == 0
        digest = hashlib.sha256()
        for path in sorted(dets_dir.iterdir()) + [report_path]:
            digest.update(path.name.encode())
            digest.update(path.read_bytes())
        digests.append(digest.hexdigest())
        payloads.append(json.loads(report_path.read_text()))
    assert digests[0] == digests[1] == digests[2]
    for payload in payloads:
        assert payload["map_50_95"] == 1.0
        assert payload["error_rate"] == 0.0
        assert payload["failed_images"] == 0
    _line("C10", f"3 runs byte-identical ({digests[0][:12]}...), "
                 f"error rate 0.0, mAP 1.0")


def test_c11_post_processing_latency():
    rng = np.random.default_rng(42)
    heads = _trained_like_heads(rng, 416, 13)
    assert total_grid_cells(416) * 3 == 10_647
    config = DetectConfig()
    names = [f"c{i}" for i in range(13)]
    detect_frame(heads, ANCHORS, config, names)  # warm-up
    timings = []
    for _ in range(15):
        start = time.perf_counter()
        detect_frame(heads, ANCHORS, config, names)
        timings.append(time.perf_counter() - start)
    timings.sort()
    median_ms = timings[len(timings) // 2] * 1000.0
    assert median_ms < 50.0
    _line("C11", f"10647 candidates, median {median_ms:.2f} ms < 50 ms "
                 f"(max {timings[-1] * 1000.0:.2f} ms)")


def test_c12_format_round_trips(yolov4_text, registry13):
    scene = data.generate_synthetic_scene(0, registry13)

    ppm1 = data.write_ppm(data.read_ppm(data.write_ppm(scene.image)))
    ppm2 = data.write_ppm(data.read_ppm(ppm1))
    assert ppm2 == ppm1

    yolo1 = data.write_yolo_labels(scene.labels)
    yolo2 = data.write_yolo_labels(data.read_yolo_labels(yolo1, registry13))
    assert yolo2 == yolo1

    cfg1 = serialize_cfg(parse_cfg(yolov4_text))
    cfg2 = serialize_cfg(parse_cfg(cfg1))
    assert cfg2 == cfg1

    csv1 = data.format_csv(data.dataset_to_rows([scene], registry13))
    csv2 = data.format_csv(data.parse_csv(csv1))
    assert csv2 == csv1
    _line("C12", "PPM, YOLO labels, cfg and CSV second writes byte-identical")
