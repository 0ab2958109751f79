"""End-to-end command-line flows driven through main(argv)."""

import errno
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from yolokit import boxes, cfg, cli, data, postprocess
from yolokit.boxes import Anchor, BoxNorm
from yolokit.tensor import ShapeError, Tensor


def tiny_dataset(root, size=64, label="1 0.250000 0.250000 0.250000 0.250000\n"):
    """classes.txt plus one labeled image."""
    root.mkdir(parents=True, exist_ok=True)
    (root / "classes.txt").write_text("bolt\ngear\n")
    image = data.Image(np.full((size, size, 3), (30, 30, 30), np.uint8))
    (root / "part.ppm").write_bytes(data.write_ppm(image))
    (root / "part.txt").write_text(label)
    return root


# ---------------------------------------------------------------------------
# head tensor files

def test_head_bytes_round_trip():
    rng = np.random.default_rng(42)
    head = Tensor(rng.normal(size=(4, 4, 6)))
    blob = cli.write_head_bytes(head)
    assert blob[:4] == b"YF01"
    back = cli.read_head_bytes(blob)
    assert back.data.shape == (4, 4, 6)
    # values pass through float32 exactly once
    assert np.array_equal(back.data, head.data.astype("<f4").astype(np.float64))
    assert cli.write_head_bytes(back) == blob


def test_head_bytes_keep_their_float32_payload():
    blob = cli.write_head_bytes(Tensor(np.arange(24.0).reshape(2, 2, 6)))
    head = cli.read_head_bytes(blob)
    assert head.data.dtype == np.float32
    assert not head.data.flags.writeable


@pytest.mark.parametrize("crowded", [False, True])
def test_detect_frame_formats_float32_heads_as_their_float64_widening(crowded):
    """Sparse: a few hot slots in unit noise; crowded: every logit drawn
    from N(-3.5, 2), so hundreds of slots pass the gate."""
    rng = np.random.default_rng(11)
    if crowded:
        arrays = [rng.normal(-3.5, 2.0, (g, g, 3 * (5 + 13)))
                  for g in (76, 38, 19)]
    else:
        arrays = [head.data for head in cli._bench_frame(
            rng, 13, 608, cli.DEFAULT_ANCHORS)]
    narrow = [cli.read_head_bytes(cli.write_head_bytes(Tensor(arr)))
              for arr in arrays]
    wide = [Tensor(head.data.astype(np.float64)) for head in narrow]
    names = list(cli.DEFAULT_CLASS_NAMES)
    config = postprocess.DetectConfig()
    got = postprocess.format_detections(postprocess.detect_frame(
        narrow, cli.DEFAULT_ANCHORS, config, names))
    assert got == postprocess.format_detections(postprocess.detect_frame(
        wide, cli.DEFAULT_ANCHORS, config, names))
    assert got.count("\n") >= (50 if crowded else 3)


def test_head_bytes_errors():
    blob = cli.write_head_bytes(Tensor(np.zeros((2, 2, 3))))
    with pytest.raises(ValueError):
        cli.read_head_bytes(b"XXXX" + blob[4:])
    with pytest.raises(ValueError):
        cli.read_head_bytes(blob[:8])
    with pytest.raises(ValueError):
        cli.read_head_bytes(blob[:-4])
    with pytest.raises(ValueError):
        cli.read_head_bytes(blob + b"\x00" * 4)
    with pytest.raises(ShapeError):
        cli.write_head_bytes(Tensor(np.zeros((2, 3, 3))))


# ---------------------------------------------------------------------------
# run configuration

_SIDES = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_UNIT = st.floats(0.0, 1.0)


@settings(max_examples=200, deadline=None)
@given(st.builds(
    postprocess.RunConfig,
    anchors=st.tuples(*[st.builds(Anchor, _SIDES, _SIDES)] * 9),
    confidence_threshold=_UNIT, iou_threshold=_UNIT, per_class_nms=st.booleans()))
@example(postprocess.RunConfig(confidence_threshold=0.6, iou_threshold=0.55,
                               per_class_nms=True))
@example(postprocess.RunConfig())
@example(postprocess.RunConfig(confidence_threshold=np.float64(0.3),
                               iou_threshold=np.float64(0.45)))
@example(postprocess.RunConfig(confidence_threshold=np.float32(0.3),
                               iou_threshold=np.float32(0.45)))
def test_run_config_round_trip(config):
    text = postprocess.format_run_config(config)
    parsed = postprocess.parse_run_config(text)
    assert type(parsed.confidence_threshold) is type(parsed.iou_threshold) is float
    assert postprocess.format_run_config(parsed) == text
    if isinstance(config.confidence_threshold, np.float32):
        # a float32 is written as its shortest digits and read as their float
        assert (parsed.confidence_threshold, parsed.iou_threshold) == (0.3, 0.45)
    else:
        # every anchor dimension and threshold survives the text form exactly
        assert parsed == config


def test_run_config_parsing_details():
    text = ("# comment\n"
            "confidence_threshold = 0.3\n"
            "anchors=1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18\n")
    config = postprocess.parse_run_config(text)
    assert config.confidence_threshold == 0.3
    assert config.anchors[0] == Anchor(1.0, 2.0)
    with pytest.raises(ValueError):
        postprocess.parse_run_config("confidence_threshold\n")
    with pytest.raises(ValueError):
        postprocess.parse_run_config("iou_threshold=0.1\niou_threshold=0.2\n")
    with pytest.raises(ValueError):
        postprocess.parse_run_config("mystery=1\n")
    with pytest.raises(ValueError):
        postprocess.parse_run_config("anchors=1,2\n")
    assert postprocess.parse_run_config("per_class_nms=YES\n").per_class_nms
    assert not postprocess.parse_run_config("per_class_nms=False\n").per_class_nms
    for line in ("per_class_nms=on", "per_class_nms=2", "per_class_nms=",
                 "iou_threshold=abc", "iou_threshold=1.5",
                 "confidence_threshold=nan", "confidence_threshold=1.5",
                 "anchors=1,2", "anchors=1,2,x", "mystery=1",
                 "confidence_threshold", "confidence_threshold=0.5",
                 "seed=0", "objectness_threshold=0.5", "confidence_floor=0.5",
                 "classes=a.txt", "input_n=608", "rotations=90", "flips=h",
                 "anchors=nan,16,19,36,40,28,36,75,76,55,72,146,142,110,192,243,"
                 "459,401"):
        with pytest.raises(ValueError, match="config line 2"):
            postprocess.parse_run_config(f"confidence_threshold=0.3\n{line}\n")


def test_dump_config_round_trips_through_cli(tmp_path, capsys):
    config = postprocess.RunConfig(confidence_threshold=0.3, per_class_nms=True)
    path = tmp_path / "run.cfg"
    path.write_text(postprocess.format_run_config(config))
    assert cli.main(["detect", "--config", str(path), "--dump-config"]) == 0
    out = capsys.readouterr().out
    assert postprocess.parse_run_config(out) == config
    assert out.splitlines()[1] == "confidence_threshold=0.3"
    assert len(out.splitlines()) == 4
    # the dumped defaults read back as the same bytes, and encode as no config does
    assert cli.main(["detect", "--dump-config"]) == 0
    defaults = capsys.readouterr().out
    assert len(defaults.splitlines()) == 4
    path.write_text(defaults)
    assert cli.main(["detect", "--config", str(path), "--dump-config"]) == 0
    assert capsys.readouterr().out == defaults
    ds = tiny_dataset(tmp_path / "ds")
    assert cli.main(["encode", str(ds), "--out", str(tmp_path / "bare")]) == 0
    assert cli.main(["encode", str(ds), "--config", str(path),
                     "--out", str(tmp_path / "configured")]) == 0
    assert files_of(tmp_path / "configured") == files_of(tmp_path / "bare")
    capsys.readouterr()
    # an anchor keeps every digit through the dump
    path.write_text("anchors=12.3456789,16,19,36,40,28,36,75,76,55,72,146,142,110,"
                    "192,243,459,401\n")
    assert cli.main(["detect", "--config", str(path), "--dump-config"]) == 0
    assert capsys.readouterr().out.startswith("anchors=12.3456789,16.0,19.0,")


def test_one_confidence_threshold_reproduces_every_threshold_pair(tmp_path):
    """detect_frame drops boxes below max(objectness_threshold,
    confidence_floor), so confidence_threshold=max(a, b) gives the lines
    of every pair (a, b)."""
    names = ["bolt", "nut", "gear"]
    labels = [(0, BoxNorm(0.3, 0.3, 0.2, 0.25)), (2, BoxNorm(0.7, 0.6, 0.4, 0.3))]
    rng = np.random.default_rng(5)
    heads = []
    for head in postprocess.ground_truth_heads(labels, len(names), 64,
                                               cli.DEFAULT_ANCHORS):
        noisy = head.data + rng.normal(0.0, 2.0, head.data.shape)
        # background objectness and class logits near zero: a dense gate
        noisy.reshape(-1, 5 + len(names))[:, 4:] += 10.0
        heads.append(cli.read_head_bytes(cli.write_head_bytes(Tensor(noisy))))
    grid = (0.0, 0.1, 0.25, 0.3, 0.5, 0.9, 1.0)
    outputs = set()
    for a in grid:
        for b in grid:
            pair = postprocess.DetectConfig(postprocess.NmsConfig(a), b)
            one = postprocess.parse_run_config(f"confidence_threshold={max(a, b)!r}\n")
            lines = postprocess.format_detections(postprocess.detect_frame(
                heads, cli.DEFAULT_ANCHORS, pair, names))
            assert lines == postprocess.format_detections(postprocess.detect_frame(
                heads, cli.DEFAULT_ANCHORS, one.detect_config(), names)), (a, b)
            outputs.add(lines)
    assert len(outputs) >= 3
    # the same through the command line, for one pair
    head_files = [tmp_path / f"frame.h{k}" for k in range(3)]
    for path, head in zip(head_files, heads):
        path.write_bytes(cli.write_head_bytes(head))
    (tmp_path / "classes.txt").write_text("".join(n + "\n" for n in names))
    (tmp_path / "run.cfg").write_text("confidence_threshold=0.3\n")
    out = tmp_path / "frame.txt"
    assert cli.main(["detect", "--config", str(tmp_path / "run.cfg"),
                     "--heads", *map(str, head_files),
                     "--classes", str(tmp_path / "classes.txt"), "--out", str(out)]) == 0
    pair = postprocess.DetectConfig(postprocess.NmsConfig(0.3), 0.1)
    expected = postprocess.format_detections(postprocess.detect_frame(
        heads, cli.DEFAULT_ANCHORS, pair, names))
    assert out.read_text() == expected and expected.count("\n") > 0


# ---------------------------------------------------------------------------
# netinfo

def test_netinfo_census(tmp_path, capsys, yolov4_text):
    path = tmp_path / "net.cfg"
    path.write_text(yolov4_text)
    assert cli.main(["netinfo", str(path)]) == 0
    out = capsys.readouterr().out
    assert "input: 608x608x3" in out
    assert "input neurons: 1108992" in out
    assert "conv layers: 110" in out
    assert "hidden neurons: 114403427" in out
    assert "total parameters: 64429405" in out


def test_netinfo_input_override(tmp_path, capsys, yolov4_text):
    path = tmp_path / "net.cfg"
    path.write_text(yolov4_text)
    assert cli.main(["netinfo", str(path), "--input", "416"]) == 0
    out = capsys.readouterr().out
    assert "input: 416x416x3" in out
    assert f"input neurons: {416 * 416 * 3}" in out
    # parameters do not depend on the input resolution
    assert "total parameters: 64429405" in out


# ---------------------------------------------------------------------------
# full pipeline: synth -> encode -> detect -> eval

@pytest.fixture
def walkthrough(tmp_path, capsys):
    """A two-image scenario-1 dataset, its heads and its detections."""
    ds, heads, dets = tmp_path / "ds", tmp_path / "heads", tmp_path / "dets"
    assert cli.main(["synth", "--scenario", "1", "--count", "2",
                     "--seed", "5", "--out", str(ds)]) == 0
    assert cli.main(["encode", str(ds), "--out", str(heads)]) == 0
    dets.mkdir()
    for stem in ("scene_000005", "scene_000006"):
        assert cli.main(["detect", "--classes", str(ds / "classes.txt"),
                         "--heads", *(str(heads / f"{stem}.h{k}") for k in range(3)),
                         "--out", str(dets / f"{stem}.txt")]) == 0
    capsys.readouterr()
    return ds, heads, dets


def test_pipeline_reaches_perfect_map(walkthrough, tmp_path, capsys):
    ds, _, dets_dir = walkthrough
    stems = sorted(p.stem for p in ds.glob("*.ppm"))
    assert stems == ["scene_000005", "scene_000006"]
    report_path = tmp_path / "report.json"
    # a scenario by its number, and one by its name
    for scenario, name in (("1", "single-class"), ("all-classes", "all-classes")):
        rc = cli.main(["eval", "--detections", str(dets_dir), "--truth", str(ds),
                       "--scenario", scenario, "--json", str(report_path)])
        assert rc == 0
        table = capsys.readouterr().out
        assert "mAP" in table
        payload = json.loads(report_path.read_text())
        assert payload["map_50_95"] == 1.0
        assert payload["error_rate"] == 0.0
        assert payload["scenario"] == name
        assert payload["total_images"] == 2
        assert payload["confidence"]["min"] > 0.99


def test_encode_writes_three_heads_per_image(tmp_path):
    ds = tmp_path / "ds"
    heads_dir = tmp_path / "heads"
    assert cli.main(["synth", "--scenario", "1", "--count", "1",
                     "--seed", "9", "--out", str(ds)]) == 0
    assert cli.main(["encode", str(ds), "--out", str(heads_dir)]) == 0
    files = sorted(p.name for p in heads_dir.iterdir())
    assert files == ["scene_000009.h0", "scene_000009.h1", "scene_000009.h2"]
    fine = cli.read_head_bytes((heads_dir / "scene_000009.h0").read_bytes())
    assert fine.height == 76 and fine.channels == 3 * (5 + 13)
    coarse = cli.read_head_bytes((heads_dir / "scene_000009.h2").read_bytes())
    assert coarse.height == 19


def test_detect_json_output(tmp_path, capsys):
    ds = tmp_path / "ds"
    heads_dir = tmp_path / "heads"
    assert cli.main(["synth", "--scenario", "1", "--count", "1",
                     "--seed", "4", "--out", str(ds)]) == 0
    assert cli.main(["encode", str(ds), "--out", str(heads_dir)]) == 0
    capsys.readouterr()
    head_files = [str(heads_dir / f"scene_000004.h{k}") for k in range(3)]
    assert cli.main(["detect", "--heads", *head_files,
                     "--classes", str(ds / "classes.txt"), "--json"]) == 0
    dets = json.loads(capsys.readouterr().out)
    truth = data.read_yolo_labels((ds / "scene_000004.txt").read_text(),
                                  data.ClassRegistry.from_text(
                                      (ds / "classes.txt").read_text()))
    assert len(dets) == len(truth)
    for det in dets:
        assert set(det) >= {"class_name", "confidence", "box"}
    # the JSON holds the detections of the text lines, in order
    assert cli.main(["detect", "--heads", *head_files,
                     "--classes", str(ds / "classes.txt")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["%s %.6f %.6f %.6f %.6f %.6f" % (
        det["class_name"], det["confidence"], det["box"]["x_min"], det["box"]["y_min"],
        det["box"]["x_max"], det["box"]["y_max"]) for det in dets]


def test_detect_rejects_a_nan_box(tmp_path, capsys):
    (tmp_path / "classes.txt").write_text("bolt\ngear\n")
    heads = postprocess.ground_truth_heads(
        [(1, BoxNorm(0.25, 0.25, 0.25, 0.25))], 2, 64, cli.DEFAULT_ANCHORS)
    head_files = [tmp_path / f"part.h{k}" for k in range(3)]
    # t_x of the hot slot, then its class 0 logit, which is not the top
    # class: the box and the score would both be NaN
    for field in (0, 5):
        for path, head in zip(head_files, heads):
            values = head.data.copy()
            slots = values.reshape(-1, 5 + 2)
            slots[slots[:, 4] > 0, field] = np.nan
            path.write_bytes(cli.write_head_bytes(Tensor(values)))
        out = tmp_path / "part.txt"
        rc = cli.main(["detect", "--heads", *map(str, head_files),
                       "--classes", str(tmp_path / "classes.txt"), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("yolokit: scale ") and "nan" in err
        assert not out.exists()


def test_detect_names_heads_given_coarse_to_fine(tmp_path, capsys):
    (tmp_path / "classes.txt").write_text("bolt\ngear\n")
    heads = postprocess.ground_truth_heads(
        [(1, BoxNorm(0.25, 0.25, 0.25, 0.25))], 2, 64, cli.DEFAULT_ANCHORS)
    head_files = [tmp_path / f"part.h{k}" for k in range(3)]
    for path, head in zip(head_files, heads):
        path.write_bytes(cli.write_head_bytes(head))
    rc = cli.main(["detect", "--heads", *map(str, reversed(head_files)),
                   "--classes", str(tmp_path / "classes.txt")])
    assert rc == 2
    assert capsys.readouterr().err == (
        "yolokit: head grids (2, 4, 8) run coarse to fine; heads go fine to"
        " coarse (expected (8, 4, 2))\n")


def test_detect_names_the_scale_of_a_head_with_the_wrong_channels(tmp_path, capsys):
    (tmp_path / "classes.txt").write_text("\n".join(cli.DEFAULT_CLASS_NAMES) + "\n")
    head_files = [tmp_path / f"part.h{k}" for k in range(3)]
    for path, grid, channels in zip(head_files, (4, 2, 1), (54, 255, 54)):
        path.write_bytes(cli.write_head_bytes(Tensor(np.zeros((grid, grid, channels)))))
    rc = cli.main(["detect", "--heads", *map(str, head_files),
                   "--classes", str(tmp_path / "classes.txt")])
    assert rc == 2
    assert capsys.readouterr().err == (
        "yolokit: scale 1: head has 255 channels; 13 classes requires "
        "3*(4+1+13) = 54\n")


def test_detect_names_a_nan_objectness_and_clips_an_infinite_one(walkthrough, tmp_path,
                                                                  capsys):
    """The objectness logit of cell (0, 0), slot 0 of the finest head: NaN
    exits 2 naming it, and +inf writes the lines of the original head."""
    ds, heads, dets = walkthrough
    fine = cli.read_head_bytes((heads / "scene_000005.h0").read_bytes()).data.copy()
    head_files = [tmp_path / "scene.h0", heads / "scene_000005.h1",
                  heads / "scene_000005.h2"]
    out = tmp_path / "scene.txt"
    argv = ["detect", "--classes", str(ds / "classes.txt"),
            "--heads", *map(str, head_files), "--out", str(out)]
    fine[0, 0, 4] = np.nan
    head_files[0].write_bytes(cli.write_head_bytes(Tensor(fine)))
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == (
        "yolokit: scale 0, cell (0, 0), slot 0, channel 4: logit is nan\n")
    assert not out.exists()
    fine[0, 0, 4] = np.inf
    head_files[0].write_bytes(cli.write_head_bytes(Tensor(fine)))
    assert cli.main(argv) == 0
    assert out.read_bytes() == (dets / "scene_000005.txt").read_bytes()


def test_eval_reports_failures_with_exit_one(tmp_path, capsys):
    ds = tiny_dataset(tmp_path / "truth")
    empty = tmp_path / "dets"
    empty.mkdir()
    rc = cli.main(["eval", "--detections", str(empty), "--truth", str(ds),
                   "--scenario", "2"])
    assert rc == 1


def test_eval_names_detection_files_without_truth(tmp_path, capsys):
    ds = tiny_dataset(tmp_path / "truth")
    dets = tmp_path / "dets"
    dets.mkdir()
    (dets / "part.txt").write_text("")
    argv = ["eval", "--detections", str(dets), "--truth", str(ds)]
    rc = cli.main(argv)
    clean = capsys.readouterr()
    assert clean.err == ""
    (dets / "stray.txt").write_text("")
    (dets / "other.txt").write_text("")
    (dets / "notes.md").write_text("")
    (dets / "classes.txt").write_text((ds / "classes.txt").read_text())
    assert cli.main(argv) == rc
    captured = capsys.readouterr()
    assert captured.out == clean.out
    line, = captured.err.splitlines()
    assert "other.txt, stray.txt" in line
    assert "part.txt" not in line and "notes.md" not in line
    assert "classes.txt" not in line


def test_eval_checks_its_arguments_before_reading_detections(tmp_path, capsys):
    ds = tiny_dataset(tmp_path / "truth")
    dets = tmp_path / "dets"
    dets.mkdir()
    (dets / "part.txt").write_text("gear x 16 16 32 32\n")  # not a confidence
    argv = ["eval", "--detections", str(dets), "--truth", str(ds)]
    assert cli.main(argv + ["--iou", "1.5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("yolokit: error_iou_threshold 1.5") and "part.txt" not in err
    # argparse rejects an unknown scenario before a file is opened
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--scenario", "9"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--scenario: invalid choice: '9'" in err and "part.txt" not in err


# ---------------------------------------------------------------------------
# label tools

def test_labels_convert_both_directions(tmp_path, capsys):
    src = tmp_path / "src"
    src.mkdir()
    (src / "classes.txt").write_text("bolt\ngear\n")
    image = data.Image(np.zeros((128, 128, 3), np.uint8))
    (src / "part.ppm").write_bytes(data.write_ppm(image))
    (src / "part.txt").write_text("gear 16 16 48 48\n")
    as_yolo = tmp_path / "yolo"
    rc = cli.main(["labels", "convert", "--from", "labelimg", "--to", "yolo",
                   "--dir", str(src), "--classes", str(src / "classes.txt"),
                   "--out", str(as_yolo)])
    assert rc == 0
    assert (as_yolo / "part.txt").read_text() == \
        "1 0.250000 0.250000 0.250000 0.250000\n"

    # back-conversion needs the image next to the label file
    (as_yolo / "part.ppm").write_bytes(data.write_ppm(image))
    back = tmp_path / "corners"
    rc = cli.main(["labels", "convert", "--from", "yolo", "--to", "labelimg",
                   "--dir", str(as_yolo), "--classes", str(src / "classes.txt"),
                   "--out", str(back)])
    assert rc == 0
    assert (back / "part.txt").read_text() == "gear 16.0 16.0 48.0 48.0\n"
    assert "converted 1 label files" in capsys.readouterr().out


def test_labels_convert_rejects_one_format_on_both_sides(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    (empty / "classes.txt").write_text("bolt\ngear\n")
    for src in (empty, tiny_dataset(tmp_path / "ds")):
        for fmt in ("yolo", "labelimg"):
            out = tmp_path / f"{src.name}_{fmt}"
            rc = cli.main(["labels", "convert", "--from", fmt, "--to", fmt,
                           "--dir", str(src), "--classes", str(src / "classes.txt"),
                           "--out", str(out)])
            assert rc == 2
            captured = capsys.readouterr()
            assert captured.err == \
                f"yolokit: --from and --to are both {fmt}; nothing to convert\n"
            assert captured.out == "" and not out.exists()


def test_labels_csv_holds_one_image_at_a_time(tmp_path, capsys):
    ds = tmp_path / "ds"
    assert cli.main(["synth", "--scenario", "3", "--count", "6", "--out", str(ds)]) == 0
    capsys.readouterr()
    image_bytes = 608 * 608 * 3
    tracemalloc.start()
    try:
        assert cli.main(["labels", "csv", "--dir", str(ds)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 1 + 6 * 13
    assert peak < 3 * image_bytes, peak / image_bytes
    # the aggregate CSV parses back and writes the same bytes again
    assert data.format_csv(data.parse_csv(out)) == out


def test_labels_csv(tmp_path, capsys):
    ds = tiny_dataset(tmp_path / "ds")
    assert cli.main(["labels", "csv", "--dir", str(ds)]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == ",".join(data.CSV_HEADER)
    assert len(lines) == 2
    assert lines[1].startswith("part.ppm,64,64,gear,")
    out_path = tmp_path / "all.csv"
    assert cli.main(["labels", "csv", "--dir", str(ds),
                     "--out", str(out_path)]) == 0
    assert out_path.read_text() == out


def test_augment_writes_all_variants(tmp_path, capsys):
    ds = tmp_path / "ds"
    ds.mkdir()
    (ds / "classes.txt").write_text("bolt\n")
    rng = np.random.default_rng(3)
    image = data.Image(rng.integers(0, 256, (64, 64, 3), dtype=np.uint8))
    (ds / "a.ppm").write_bytes(data.write_ppm(image))
    (ds / "a.txt").write_text("0 0.500000 0.500000 0.250000 0.250000\n")
    out = tmp_path / "aug"
    rc = cli.main(["augment", str(ds), "--rotations", "0,90", "--flips", "h",
                   "--out", str(out), "--floor", "1"])
    assert rc == 0
    captured = capsys.readouterr()
    assert "wrote 4 images" in captured.out
    assert "bolt: 4" in captured.out
    assert captured.err == ""
    ppms = sorted(p.name for p in out.glob("*.ppm"))
    assert ppms == ["a_r0_fh.ppm", "a_r0_fnone.ppm",
                    "a_r90_fh.ppm", "a_r90_fnone.ppm"]
    variants = data.iter_expanded(
        [data.LabeledImage(image, (), str(ds / "a.ppm"))], [0, 90], ["horizontal"])
    assert {v.stem + ".ppm": data.write_ppm(v.image) for v in variants} == {
        ppm: (out / ppm).read_bytes() for ppm in ppms}
    for ppm in ppms:
        label = out / (ppm[:-4] + ".txt")
        assert label.exists()
        back = data.read_yolo_labels(label.read_text(),
                                     data.ClassRegistry(["bolt"]))
        assert len(back) == 1


def test_augment_rejects_a_non_finite_or_repeated_variant(tmp_path, capsys):
    ds = tiny_dataset(tmp_path / "ds")
    bare = data.Image(np.zeros((64, 64, 3), np.uint8))
    (ds / "bare.ppm").write_bytes(data.write_ppm(bare))  # no labels
    for k, (rotations, flips, message) in enumerate((
            ("nan", "", "rotation nan is not a finite angle"),
            ("1e400", "", "rotation inf is not a finite angle"),
            ("90,-inf", "", "rotation -inf is not a finite angle"),
            ("0,360,0", "h,horizontal", "repeated rotation 360"),
            ("90,-270", "", "repeated rotation -270"),
            ("90,450", "", "repeated rotation 450"),
            ("90,90.0000001", "", "repeated rotation 90"),
            ("0,-1e-20", "", "repeated rotation -1e-20"),
            ("0,90", "v,h,vertical", "repeated flip axis 'vertical'"),
            ("0", "h,x", "axis must be 'horizontal' or 'vertical', got 'x'"),
            ("90,abc", "", "rotation 'abc' is not a number"))):
        out = tmp_path / f"aug{k}"
        rc = cli.main(["augment", str(ds), "--rotations", rotations,
                       "--flips", flips, "--out", str(out), "--floor", "1"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err == f"yolokit: {message}\n" and captured.out == ""
        assert not out.exists()


def test_augment_writes_every_turn_and_flip_of_each_image(walkthrough, tmp_path, capsys):
    """Four quarter turns, each unflipped and flipped on either axis, of
    two scenes are 24 images; a half turn and an x-flip is a y-flip, so
    those two variants are written alike."""
    ds, _, _ = walkthrough
    out = tmp_path / "aug"
    assert cli.main(["augment", str(ds), "--rotations", "0,90,180,270", "--flips", "h,v",
                     "--floor", "1", "--out", str(out)]) == 0
    assert "wrote 24 images" in capsys.readouterr().out
    assert len(list(out.glob("*.ppm"))) == 24
    for ext in ("ppm", "txt"):
        assert (out / f"scene_000005_r180_fh.{ext}").read_bytes() == (
            out / f"scene_000005_r0_fv.{ext}").read_bytes()


def test_augment_reports_floor_breach(tmp_path, capsys):
    ds = tmp_path / "ds"
    ds.mkdir()
    (ds / "classes.txt").write_text("bolt\ngear\n")
    image = data.Image(np.zeros((64, 64, 3), np.uint8))
    (ds / "a.ppm").write_bytes(data.write_ppm(image))
    (ds / "a.txt").write_text("0 0.500000 0.500000 0.250000 0.250000\n")
    out = tmp_path / "aug"
    rc = cli.main(["augment", str(ds), "--out", str(out), "--floor", "2"])
    assert rc == 0
    captured = capsys.readouterr()
    assert "BELOW FLOOR" in captured.out
    assert "gear" in captured.err


# ---------------------------------------------------------------------------
# bench

def test_bench_prints_latency(capsys):
    assert cli.main(["bench", "--frames", "3", "--input", "64",
                     "--classes-count", "2"]) == 0
    out = capsys.readouterr().out
    assert "frames: 3" in out
    assert f"candidates/frame: {84 * 3}" in out
    assert "post-processing latency ms: p50" in out


# ---------------------------------------------------------------------------
# exit codes

def test_exit_code_two_on_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[net\nwidth=608\n")
    assert cli.main(["netinfo", str(bad)]) == 2
    assert capsys.readouterr().err.startswith(f"yolokit: {bad}: line 1: ")
    # a graph error names the file too
    bad.write_text("[net]\nwidth=32\nheight=32\n[route]\nlayers=-5\n")
    assert cli.main(["netinfo", str(bad)]) == 2
    assert capsys.readouterr().err.startswith(
        f"yolokit: {bad}: line 4: [route] reference -5 resolves to layer -5")
    for section in ("[route]\nlayers=abc\n", "[maxpool]\nsize=2\nstride=2\npadding=-1\n"):
        bad.write_text("[net]\nwidth=32\nheight=32\n" + section)
        assert cli.main(["netinfo", str(bad)]) == 2
        assert capsys.readouterr().err.startswith(f"yolokit: {bad}: line 4: ")
    # a labelImg class missing from classes.txt, and a box of zero width
    for line, message in (("cog 1 1 20 20", "line 2: unknown class 'cog'"),
                          ("gear 3 3 3 9", "line 2: box (3.0, 3.0, 3.0, 9.0) has zero "
                                           "width or height in the 64x64 image")):
        src = tiny_dataset(tmp_path / "src", label=f"gear 1 1 20 20\n{line}\n")
        rc = cli.main(["labels", "convert", "--from", "labelimg", "--to", "yolo",
                       "--dir", str(src), "--classes", str(src / "classes.txt"),
                       "--out", str(tmp_path / "converted")])
        assert rc == 2
        assert capsys.readouterr().err == f"yolokit: {src / 'part.txt'}: {message}\n"
    # a class list names its repeated class or its line of two names
    classes = tmp_path / "classes.txt"
    for text, message in (("bolt\nnut\nbolt\n", "duplicate class 'bolt'"),
                          ("bolt\nhex nut\n", "line 2: expected 1 fields, got 2")):
        classes.write_text(text)
        rc = cli.main(["synth", "--scenario", "1", "--count", "1",
                       "--classes", str(classes), "--out", str(tmp_path / "ds")])
        assert rc == 2
        assert capsys.readouterr().err == f"yolokit: {classes}: {message}\n"
        assert not (tmp_path / "ds").exists()


def test_exit_code_three_on_missing_file(tmp_path, capsys):
    assert cli.main(["netinfo", str(tmp_path / "nope.cfg")]) == 3
    assert "I/O error" in capsys.readouterr().err
    ds = tiny_dataset(tmp_path / "truth")
    rc = cli.main(["eval", "--detections", str(tmp_path / "nosuchdir"),
                   "--truth", str(ds)])
    assert rc == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "I/O error" in captured.err and "nosuchdir" in captured.err
    (ds / "classes.txt").unlink()
    assert cli.main(["labels", "csv", "--dir", str(ds)]) == 3
    assert "classes.txt" in capsys.readouterr().err


def test_eval_lists_detections_before_reading_truth_images(tmp_path, capsys):
    ds = tiny_dataset(tmp_path / "truth")
    ppm = ds / "part.ppm"
    ppm.write_bytes(ppm.read_bytes()[:20])  # truncated pixel data
    missing = tmp_path / "nosuchdir"
    argv = ["eval", "--detections", str(missing), "--truth", str(ds)]
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert str(missing) in err and "part.ppm" not in err
    assert cli.main([*argv, "--iou", "1.5"]) == 2
    assert "error_iou_threshold 1.5" in capsys.readouterr().err


def test_synth_exits_two_when_a_scene_cannot_be_placed(tmp_path, capsys):
    classes = tmp_path / "classes.txt"
    classes.write_text("".join(f"c{i}\n" for i in range(200)))
    rc = cli.main(["synth", "--scenario", "3", "--count", "1",
                   "--classes", str(classes), "--out", str(tmp_path / "ds")])
    assert rc == 2
    assert "could not place shape" in capsys.readouterr().err
    assert not (tmp_path / "ds").exists()


def test_synth_takes_a_scenario_by_name_or_number(tmp_path, capsys):
    for number, name in enumerate(data.SCENARIOS, start=1):
        by_name, by_number = tmp_path / name, tmp_path / str(number)
        for scenario, out in ((name, by_name), (str(number), by_number)):
            assert cli.main(["synth", "--scenario", scenario, "--count", "3",
                             "--seed", "7", "--out", str(out)]) == 0
            assert capsys.readouterr().out == f"wrote 3 {name} scenes to {out}\n"
        files = sorted(p.name for p in by_name.iterdir())
        assert len(files) == 7  # classes.txt and three .ppm/.txt pairs
        assert files == sorted(p.name for p in by_number.iterdir())
        for file in files:
            assert (by_name / file).read_bytes() == (by_number / file).read_bytes()


def test_exit_code_two_on_size_mismatch(tmp_path, capsys):
    ds = tiny_dataset(tmp_path / "ds")
    wide = data.Image(np.zeros((64, 96, 3), np.uint8))
    (ds / "wide.ppm").write_bytes(data.write_ppm(wide))
    rc = cli.main(["encode", str(ds), "--out", str(tmp_path / "heads")])
    assert rc == 2
    assert (f"yolokit: {ds / 'wide.ppm'}: image is 96x64, expected 64x64"
            in capsys.readouterr().err)
    assert not (tmp_path / "heads").exists()
    # an --out that existed keeps its files and gains none of the heads
    # written before the failure
    kept = tmp_path / "kept"
    kept.mkdir()
    (kept / "notes.txt").write_text("kept\n")
    assert cli.main(["encode", str(ds), "--out", str(kept)]) == 2
    assert (kept / "notes.txt").read_text() == "kept\n"
    assert sorted(p.name for p in kept.iterdir()) == ["notes.txt"]
    odd = tmp_path / "odd"
    odd.mkdir()
    (odd / "classes.txt").write_text("bolt\n")
    square = data.Image(np.zeros((100, 100, 3), np.uint8))
    (odd / "square.ppm").write_bytes(data.write_ppm(square))
    rc = cli.main(["encode", str(odd), "--out", str(tmp_path / "odd_heads")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "square.ppm" in err and "not a positive multiple of 32" in err
    assert not (tmp_path / "odd_heads").exists()


STEMS = ("a", "b", "c")


def three_image_dataset(root, bad_kind=None, bad_at=None, labelimg=False):
    """classes.txt plus 32x32 images a, b and c with one YOLO (or labelImg)
    label each. The image at index `bad_at` is made bad: a "truncated" PPM,
    an "odd-size" 48x32 image or an "unknown-class" label."""
    root.mkdir()
    (root / "classes.txt").write_text("bolt\ngear\n")
    for i, stem in enumerate(STEMS):
        kind = bad_kind if i == bad_at else None
        ppm = data.write_ppm(data.Image(
            np.full((32, 48 if kind == "odd-size" else 32, 3), 30, np.uint8)))
        (root / f"{stem}.ppm").write_bytes(ppm[:-5] if kind == "truncated" else ppm)
        unknown = kind == "unknown-class"
        (root / f"{stem}.txt").write_text(
            f"{'cog' if unknown else 'gear'} 4 4 20 20\n" if labelimg
            else f"{7 if unknown else 1} 0.5 0.5 0.25 0.25\n")
    return root


def writing_argv(command, ds, out):
    """argv of a command that writes the directory `out` (from dataset `ds`)."""
    return {
        "synth": ["synth", "--scenario", "1", "--count", str(len(STEMS)), "--out", out],
        "augment": ["augment", ds, "--rotations", "0,90", "--floor", "0", "--out", out],
        "encode": ["encode", ds, "--out", out],
        "labels convert": ["labels", "convert", "--from", "labelimg", "--to", "yolo",
                           "--dir", ds, "--classes", f"{ds}/classes.txt", "--out", out],
    }[command]


def files_of(directory):
    """{name: bytes} of the files in `directory`, or None if it is absent."""
    if not directory.exists():
        return None
    return {p.name: p.read_bytes() for p in directory.iterdir()}


def stages_in(directory):
    return sorted(p.name for p in directory.iterdir() if p.name.startswith(".yolokit-"))


@pytest.mark.parametrize("out_exists", [False, True], ids=["absent", "existing"])
@pytest.mark.parametrize("bad_at", [0, 1, 2], ids=["first", "middle", "last"])
@pytest.mark.parametrize("command, bad_kind", [
    ("synth", "raises"),
    ("augment", "truncated"), ("augment", "unknown-class"),
    ("encode", "truncated"), ("encode", "odd-size"), ("encode", "unknown-class"),
    ("labels convert", "truncated"), ("labels convert", "unknown-class"),
])
def test_a_failed_write_leaves_out_as_it_was(tmp_path, monkeypatch, capsys, command,
                                             bad_kind, bad_at, out_exists):
    """A bad input first, in the middle or last makes each command that
    writes a directory exit 2. `--out` stays absent, or holds exactly the
    names and bytes it held, and no stage is left in it or beside it."""
    ds = three_image_dataset(tmp_path / "ds", bad_kind, bad_at,
                             labelimg=command == "labels convert")
    if bad_kind == "raises":
        scene = data.scenario_scene

        def failing_scene(scenario, index, seed, registry):
            if index == bad_at:
                raise data.PlacementError(f"scene {index} cannot be placed")
            return scene(scenario, index, seed, registry)

        monkeypatch.setattr(data, "scenario_scene", failing_scene)
    out = tmp_path / "out"
    if out_exists:
        out.mkdir()
        (out / "notes.txt").write_text("kept\n")
        # a file the command would write first keeps its old bytes
        first = {"encode": "a.h0", "labels convert": "a.txt"}.get(command, "classes.txt")
        (out / first).write_bytes(b"old\n")
    before = files_of(out)
    assert cli.main(writing_argv(command, str(ds), str(out))) == 2
    err = capsys.readouterr().err
    assert err.startswith("yolokit: ")
    if bad_kind != "raises":
        # the message names the bad file
        bad = ds / (STEMS[bad_at] + (".txt" if bad_kind == "unknown-class" else ".ppm"))
        assert err.startswith(f"yolokit: {bad}: "), err
    assert files_of(out) == before
    assert stages_in(tmp_path) == []


@pytest.mark.parametrize("command", ["synth", "augment", "encode", "labels convert"])
def test_a_staged_out_is_made_with_its_parents_and_never_over_a_file(tmp_path, monkeypatch,
                                                                     capsys, command):
    """`--out` under missing directories is made with them; an `--out` that
    is a regular file exits 3 before the first input is read, and keeps its
    bytes; an existing `--out` keeps the files the command does not write."""
    labelimg = command == "labels convert"
    ds = str(three_image_dataset(tmp_path / "ds", labelimg=labelimg))
    bad = str(three_image_dataset(tmp_path / "bad", "truncated", 0, labelimg=labelimg))
    blocked = tmp_path / "blocked"
    blocked.write_bytes(b"a file\n")
    with monkeypatch.context() as m:
        def unplaceable(scenario, index, seed, registry):
            raise data.PlacementError(f"scene {index} cannot be placed")

        m.setattr(data, "scenario_scene", unplaceable)
        # the first input is bad, so exit 3 shows --out was checked first
        assert cli.main(writing_argv(command, bad, str(blocked))) == 3
    assert capsys.readouterr().err.startswith("yolokit: I/O error: ")
    assert blocked.read_bytes() == b"a file\n"
    nested = tmp_path / "new" / "deeper" / "out"
    assert cli.main(writing_argv(command, ds, str(nested))) == 0
    written = files_of(nested)
    assert written
    kept = tmp_path / "kept"
    kept.mkdir()
    (kept / "notes.txt").write_text("kept\n")
    assert cli.main(writing_argv(command, ds, str(kept))) == 0
    assert files_of(kept) == {**written, "notes.txt": b"kept\n"}
    for parent in (tmp_path, nested.parent):
        assert stages_in(parent) == []


@pytest.mark.parametrize("command", ["synth", "augment", "encode", "labels convert"])
def test_an_existing_out_holds_its_own_stage(tmp_path, monkeypatch, command):
    """An existing `--out` is staged inside itself, so the moves stay on its
    filesystem when it is a mount point, and its parent need not be
    writable. Here `os.replace` fails as across filesystems for any move
    into or out of `out`, and `out`'s parent is made read-only (which binds
    only a user other than root)."""
    ds = str(three_image_dataset(tmp_path / "ds", labelimg=command == "labels convert"))
    parent = tmp_path / "parent"
    out = parent / "out"
    out.mkdir(parents=True)
    (out / "notes.txt").write_text("kept\n")
    replace = os.replace

    def mounted_replace(src, dst):
        if (out in Path(src).parents) != (out in Path(dst).parents):
            raise OSError(errno.EXDEV, os.strerror(errno.EXDEV), src)
        replace(src, dst)

    monkeypatch.setattr(os, "replace", mounted_replace)
    parent.chmod(0o555)
    try:
        assert cli.main(writing_argv(command, ds, str(out))) == 0
    finally:
        parent.chmod(0o755)
    written = files_of(out)
    assert written.pop("notes.txt") == b"kept\n"
    assert len(written) >= len(STEMS)
    assert stages_in(parent) == []


def test_the_literal_layout_copies_match_boxes(capsys):
    """`detect --heads` and `cfg.propagate_shapes` keep their own copies of
    the head layout, because importing `cli` or `cfg` loads no numpy; both
    must agree with `boxes.STRIDES`."""
    heads = [f"h{k}" for k in range(len(boxes.STRIDES))]
    parser = cli.build_parser()
    assert parser.parse_args(["detect", "--heads", *heads]).heads == heads
    for wrong in (heads[:-1], heads + ["h"]):
        with pytest.raises(SystemExit):
            parser.parse_args(["detect", "--heads", *wrong])
    capsys.readouterr()

    def input_shape(n):
        graph = cfg.parse_cfg(f"[net]\nwidth={n}\nheight={n}\n")
        return cfg.propagate_shapes(graph).shapes[0]

    with pytest.raises(cfg.CfgError, match="is not a multiple of"):
        input_shape(boxes.STRIDES[-1] + boxes.STRIDES[0])
    n = 2 * boxes.STRIDES[-1]
    assert input_shape(n) == (n, n, 3)


def test_usage_errors_exit_two(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["detect"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command"])
    assert exc.value.code == 2
    synth = ["synth", "--scenario", "1", "--out", str(tmp_path / "s"), "--count"]
    augment = ["augment", str(tiny_dataset(tmp_path / "aug_in")),
               "--out", str(tmp_path / "aug"), "--floor"]
    for argv, message in ((["bench", "--frames", "0"], "at least 1, got 0"),
                          (["bench", "--frames", "-1"], "at least 1, got -1"),
                          (["bench", "--classes-count", "0"], "at least 1, got 0"),
                          (synth + ["-2"], "--count: must be at least 0, got -2"),
                          (synth + ["x"], "--count: invalid int value: 'x'"),
                          (synth + ["1", "--seed", "-1"],
                           "--seed: must be at least 0, got -1"),
                          (synth + ["1", "--scenario", "9"],
                           "--scenario: invalid choice: '9'"),
                          (augment + ["-3"], "--floor: must be at least 0, got -3")):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
    assert not (tmp_path / "s").exists()
    assert not (tmp_path / "aug").exists()
    config = tmp_path / "run.cfg"
    config.write_text("seed=-5\n")
    for argv in (["bench", "--config", str(config)],
                 ["detect", "--config", str(config), "--dump-config"]):
        assert cli.main(argv) == 2
        assert ("run.cfg: config line 1: unknown config key 'seed'"
                in capsys.readouterr().err)
    # the keys that confidence_threshold replaced are rejected by line
    for key in ("objectness_threshold", "confidence_floor"):
        config.write_text(f"{key}=0.3\n")
        assert cli.main(["detect", "--config", str(config), "--dump-config"]) == 2
        assert (f"run.cfg: config line 1: unknown config key '{key}'"
                in capsys.readouterr().err)
    ds = tiny_dataset(tmp_path / "truth")
    for value in ("nan", "1.5", "-1"):
        rc = cli.main(["eval", "--detections", str(tmp_path / "dets"),
                       "--truth", str(ds), "--iou", value])
        assert rc == 2
        assert value in capsys.readouterr().err


# ---------------------------------------------------------------------------
# import closure

# Fresh interpreter: the yolokit submodules, and numpy when it is loaded,
# after `import yolokit.cli`, the exit code of `cli.main(argv)` for the
# JSON argv given, and the same list after it, as the last stdout line.
CLI_PROBE = """
import json, sys
import yolokit.cli
def loaded():
    return sorted(m for m in sys.modules
                  if m == "numpy" or m.startswith("yolokit."))
before = loaded()
code = yolokit.cli.main(json.loads(sys.argv[1]))
print(json.dumps([before, code, loaded()]))
"""

CLI_CLOSURE = ["yolokit.cli", "yolokit.records"]

# what a detect process adds to CLI_CLOSURE
DETECT_MODULES = ["numpy", "yolokit.boxes", "yolokit.postprocess", "yolokit.tensor"]


def fresh_cli(argv):
    """(modules after `import yolokit.cli`, exit code, modules after the
    command) of `argv` run in a new interpreter."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", CLI_PROBE, json.dumps(argv)],
                         env=env, stdout=subprocess.PIPE, check=True, timeout=60)
    return json.loads(out.stdout.splitlines()[-1])


def test_a_detect_process_loads_only_the_modules_detect_runs(walkthrough, tmp_path):
    ds, heads, dets = walkthrough
    head_files = [str(heads / f"scene_000005.h{k}") for k in range(3)]
    for flag, name in (([], "detect.txt"), (["--json"], "detect.json")):
        before, code, after = fresh_cli(
            ["detect", "--classes", str(ds / "classes.txt"), "--heads", *head_files,
             "--out", str(tmp_path / name), *flag])
        assert before == CLI_CLOSURE
        assert code == 0
        assert after == sorted(CLI_CLOSURE + DETECT_MODULES)
    assert (tmp_path / "detect.txt").read_bytes() == (
        dets / "scene_000005.txt").read_bytes()
    assert cli.main(["detect", "--classes", str(ds / "classes.txt"), "--json",
                     "--heads", *head_files, "--out", str(tmp_path / "inproc.json")]) == 0
    assert (tmp_path / "detect.json").read_bytes() == (
        tmp_path / "inproc.json").read_bytes()


@pytest.mark.parametrize("command, extra", [
    ("netinfo", ["yolokit.cfg"]),
    ("synth", ["numpy", "yolokit.boxes", "yolokit.data"]),
    ("eval", DETECT_MODULES + ["yolokit.data", "yolokit.metrics"]),
    ("netinfo --input", ["yolokit.cfg"]),
])
def test_each_command_runs_from_a_fresh_process(walkthrough, tmp_path, command, extra):
    ds, _, dets = walkthrough
    yolov4 = str(Path(cli.__file__).parent / "assets" / "yolov4.cfg")
    argv = {
        "netinfo": ["netinfo", yolov4],
        "netinfo --input": ["netinfo", yolov4, "--input", "416"],
        "synth": ["synth", "--scenario", "2", "--count", "1",
                  "--out", str(tmp_path / "synth")],
        "eval": ["eval", "--detections", str(dets), "--truth", str(ds),
                 "--scenario", "1"],
    }[command]
    before, code, after = fresh_cli(argv)
    assert before == CLI_CLOSURE
    assert code == 0
    assert after == sorted(CLI_CLOSURE + extra)
