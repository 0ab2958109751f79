"""Tests of the benchmark itself: its input generators are fixed by the
seed, its tracer leaves the toolkit as it found it, and the names it
reports are the ones BENCHMARK.json declares.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import io
import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import bench_inputs as gen  # noqa: E402
import bench_trace  # noqa: E402
import bench_workloads  # noqa: E402
import compare  # noqa: E402
import run  # noqa: E402
from yolokit import boxes, cli, data, postprocess  # noqa: E402

# sha256 of the generated inputs; a change here changes what every
# earlier result was measured on
PINNED = {
    "frames": "08b86b41ce7e7e486d463be531e74000a21a040bb5e181dc51bd022fb5e61b84",
    "eval": "77f3fbc5b83e014bc574c459b6657e6aae2681a1386514ede5191391cb563e4c",
}


def _frames_fingerprint(seed):
    parts = []
    for index in range(gen.CROWD_BLOCK):
        kind, blobs = gen.frame_blobs(seed, index)
        parts += [kind, *blobs]
    return gen.fingerprint(*parts)


def test_frame_stream_is_fixed_by_the_seed():
    assert _frames_fingerprint(0) == _frames_fingerprint(0)
    assert _frames_fingerprint(0) != _frames_fingerprint(1)
    assert _frames_fingerprint(0) == PINNED["frames"]
    kinds = [gen.frame_kind(3, i) for i in range(40)]
    for block in range(0, 40, gen.CROWD_BLOCK):
        assert kinds[block:block + gen.CROWD_BLOCK].count("crowded") == 1


def test_sparse_recipe_reproduces_cli_bench_frame():
    assert gen.recipe_matches_cli(cli, 0, frames=3) is True
    assert gen.recipe_matches_cli(cli, 12345) is True


def test_crowded_frames_keep_the_objects_and_crowd_the_gate():
    rng_a = np.random.default_rng(9)
    rng_b = np.random.default_rng(9)
    sparse, occupied = gen.sparse_frame(rng_a)
    crowded, same = gen.crowded_frame(rng_b)
    assert occupied == same
    gated = 0
    for scale, arr in enumerate(crowded):
        g = arr.shape[0]
        slots = arr.reshape(g * g, 3, 5 + gen.NUM_CLASSES)
        for s, row, col, slot in occupied:
            if s == scale:
                assert (slots[row * g + col, slot]
                        == sparse[scale].reshape(g * g, 3, -1)[row * g + col, slot]).all()
        obj = 1.0 / (1.0 + np.exp(-slots[:, :, 4]))
        cls = (1.0 / (1.0 + np.exp(-slots[:, :, 5:]))).max(axis=2)
        gated += int((obj * cls >= 0.25).sum())
    assert 500 < gated < 1500


def test_eval_sets_are_fixed_by_the_seed_and_parse():
    texts = gen.eval_set(5, 0, 30)
    assert texts == gen.eval_set(5, 0, 30)
    assert texts != gen.eval_set(6, 0, 30)
    assert gen.fingerprint(*gen.eval_set(0, 0, 20)[0],
                           *gen.eval_set(0, 0, 20)[1]) == PINNED["eval"]
    registry = data.ClassRegistry(gen.CLASS_NAMES)
    for truth, dets in zip(*texts):
        assert data.read_yolo_labels(truth, registry)
        postprocess.parse_detection_lines(dets, gen.CLASS_NAMES)


def test_tracer_restores_every_wrapped_attribute():
    originals = [getattr(owner, attr)
                 for owner, attr in bench_trace.WRAPPED_ATTRIBUTES]
    tracer = bench_trace.Tracer()
    tracer.install()
    try:
        for (owner, attr), original in zip(bench_trace.WRAPPED_ATTRIBUTES,
                                           originals):
            assert getattr(owner, attr) is not original
        with pytest.raises(RuntimeError):
            tracer.install()
        kind, blobs = gen.frame_blobs(0, 0)
        anchors = tuple(boxes.Anchor(w, h) for w, h in gen.ANCHORS)
        with tracer.root("test.item", 0):
            heads = [cli.read_head_bytes(b) for b in blobs]
            dets = postprocess.detect_frame(heads, anchors,
                                            postprocess.DetectConfig(),
                                            gen.CLASS_NAMES)
    finally:
        tracer.restore()
    for (owner, attr), original in zip(bench_trace.WRAPPED_ATTRIBUTES,
                                       originals):
        assert getattr(owner, attr) is original
    calls, total, own = tracer.stats["postprocess.detect_frame"]
    children = (tracer.total("boxes.sigmoid", 1)
                + tracer.total("boxes.iou_one_to_many", 1))
    assert calls == 1 and tracer.stats["boxes.sigmoid"][0] == 4
    assert own == pytest.approx(total - children, abs=1e-9)
    assert tracer.counts["postprocess.detections"] == len(dets)
    assert tracer.stats["cli.read_head_bytes"][0] == 3


def test_self_time_is_span_time_minus_child_spans():
    tracer = bench_trace.Tracer()

    def child():
        return sum(range(20000))

    hot_child = tracer._wrap(child, "child", True, None)

    def parent():
        tracer.call("child", child, (), {})
        hot_child()
        return sum(range(20000))

    with tracer.root("root", 7):
        tracer.call("parent", parent, (), {})
    _, parent_total, parent_self = tracer.stats["parent"]
    _, child_total, _ = tracer.stats["child"]
    assert parent_self == pytest.approx(parent_total - child_total, abs=1e-9)
    names = [span[1] for span in tracer.spans]
    assert names == ["child", "parent", "root"]  # the hot call is not kept
    assert all(span[5] == 7 for span in tracer.spans)


def test_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} <= set(bench_workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_compare_flags_medians_and_a_single_failure(tmp_path):
    def write(side, seed, latency, ok_frac):
        os.makedirs(tmp_path / side, exist_ok=True)
        result = {"metrics": {"latency_ms_p50": {"value": latency, "unit": "ms"},
                              "setup_s": {"value": 1.0, "unit": "s"},
                              "ok_frac": {"value": ok_frac, "unit": "frac"}}}
        with open(tmp_path / side / f"{seed}.json", "w", encoding="utf-8") as fh:
            json.dump({"result": result, "context": {"workload": "frames"}}, fh)

    # one outlier run on the new side does not move the median
    for seed, latency in enumerate((10.0, 10.2, 9.9, 10.1, 9.8)):
        write("old", seed, latency, 1.0)
        write("new", seed, 100.0 if seed == 0 else latency, 1.0)
    rules = compare.end_to_end_rules()
    old = compare.load_results(str(tmp_path / "old"))
    new = compare.load_results(str(tmp_path / "new"))
    assert list(old) == [("frames", "trace 0")]
    assert compare.compare(old, new, rules, out=io.StringIO()) == 0
    # one failed operation in 1,400 is flagged
    assert compare.flag("ok_frac", 1.0, 1.0 - 1 / 1400, rules) == "WORSE"


def test_throughput_is_the_median_of_block_samples():
    class Count(bench_workloads.Workload):
        name = "count"

        def make_input(self, state, index):
            return index

        def item(self, state, index):
            return sum(range(200))

    workload = Count(ROOT, 0)
    phase = workload.phase(None, 0.05)
    assert len(phase.rates) == len(phase.latencies) // workload.rate_block
    blocks = [workload.rate_block / sum(phase.latencies[i:i + workload.rate_block])
              for i in range(0, len(phase.rates) * workload.rate_block,
                             workload.rate_block)]
    assert phase.rates == pytest.approx(blocks)
    assert run.throughput(phase) == pytest.approx(run.median(blocks))
    assert bench_workloads.Frames.rate_block == gen.CROWD_BLOCK
