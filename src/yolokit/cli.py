"""Batch command-line front end.

Commands: netinfo (cfg census), augment (dataset expansion), labels
(format conversion and CSV aggregation), encode (ground-truth head
tensors), detect (head tensors to detection lines), eval (detections vs
ground truth), synth (scenario dataset generation, each scene from
`data.scenario_scene`), bench (post-processing latency). `synth` and
`eval` take one `--scenario`: a number from 1 or a SCENARIOS name.

`encode`, `detect` and `bench` take a flat key=value run config with
`--config`. Its four keys are the `postprocess.RunConfig` fields:
anchors, confidence_threshold (the one drop threshold), iou_threshold and
per_class_nms. The input size is not a setting: `encode` takes it from
the images and `detect` from the head tensors.

Exit codes: 0 success, 1 evaluation found failures, 2 usage/parse error,
3 I/O error. Data goes to stdout or files; diagnostics go to stderr. A
directory `--out` is written through `_staged`: exit 2 leaves it as it was.

Importing `cli` loads `records` and no numpy. Each command imports the
modules it runs inside its own body, so `netinfo` adds only `cfg` and
loads no numpy, and a `detect` process never loads `cfg`, `data` or
`metrics`.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import struct
import sys
import time
from dataclasses import replace

from .records import SCENARIOS, ClassRegistry

HEAD_MAGIC = b"YF01"
_HEAD_HEADER = struct.Struct("<4sII")  # magic, grid_n, channels

CLASSES_FILE = "classes.txt"  # a dataset directory's class list

DEFAULT_CLASS_NAMES = (
    "bolt", "nut", "washer", "gear", "bearing", "bracket", "spring",
    "clip", "rivet", "spacer", "flange", "dowel", "shim",
)


def __getattr__(name):
    if name == "DEFAULT_ANCHORS":  # loads postprocess on first use (PEP 562)
        from .postprocess import DEFAULT_ANCHORS
        return DEFAULT_ANCHORS
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ---------------------------------------------------------------------------
# Binary head-tensor format: magic, grid_n and channels as little-endian
# u32, then float32 values in (row, column, channel) order.

def write_head_bytes(head) -> bytes:
    if head.height != head.width:
        from .tensor import ShapeError
        raise ShapeError(f"head must be square, got {head.height}x{head.width}")
    header = _HEAD_HEADER.pack(HEAD_MAGIC, head.height, head.channels)
    return header + head.data.astype("<f4").tobytes()


def read_head_bytes(blob: bytes):
    """The Tensor of a head blob, a read-only float32 view of `blob`."""
    if blob[:4] != HEAD_MAGIC:
        raise ValueError(f"bad magic {blob[:4]!r} (expected {HEAD_MAGIC!r})")
    if len(blob) < _HEAD_HEADER.size:
        raise ValueError("truncated header")
    _, grid_n, channels = _HEAD_HEADER.unpack_from(blob)
    expect = _HEAD_HEADER.size + grid_n * grid_n * channels * 4
    if len(blob) != expect:
        raise ValueError(f"payload is {len(blob)} bytes, expected {expect}")
    import numpy as np
    from .tensor import Tensor
    values = np.frombuffer(blob, dtype="<f4", offset=_HEAD_HEADER.size)
    return Tensor(values.reshape(grid_n, grid_n, channels), copy=False)


def _load_config(args):
    """The `--config` file's RunConfig, or the default one."""
    from .postprocess import RunConfig, parse_run_config
    return _load(args.config, parse_run_config) if args.config else RunConfig()


# ---------------------------------------------------------------------------
# I/O helpers

def _load(path: str, parser, *args, binary: bool = False):
    """`parser(content, *args)` of the file at `path`: its bytes when
    `binary` (PPM images and head blobs), its UTF-8 text otherwise. A
    ValueError from decoding or parsing is raised again with the path in
    front."""
    with open(path, "rb") as fh:
        content = fh.read()
    try:
        if not binary:
            content = content.decode("utf-8")
        return parser(content, *args)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


@contextlib.contextmanager
def _staged(out: str):
    """Yield a fresh directory on `out`'s filesystem; its files move into
    `out` when the block ends, and on an exception `out` is left as it was."""
    import tempfile
    if os.path.lexists(out) and not os.path.isdir(out):
        os.makedirs(out)  # FileExistsError before any input is read
    where = out if os.path.isdir(out) else os.path.dirname(os.path.realpath(out))
    os.makedirs(where, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=".yolokit-", dir=where) as stage:
        yield stage
        os.makedirs(out, exist_ok=True)
        for name in os.listdir(stage):
            os.replace(os.path.join(stage, name), os.path.join(out, name))


def _load_dataset_dir(directory: str):
    """A dataset directory's CLASSES_FILE and an iterator over its
    <stem>.ppm/<stem>.txt pairs in name order, which reads one pair per
    step (a missing label file means an unlabeled image)."""
    from . import data
    registry = _load(os.path.join(directory, CLASSES_FILE), ClassRegistry.from_text)
    names = sorted(name for name in os.listdir(directory) if name.endswith(".ppm"))

    def samples():
        for name in names:
            label_path = os.path.join(directory, os.path.splitext(name)[0] + ".txt")
            # no local keeps an image alive while the next one is read
            yield data.LabeledImage(
                _load(os.path.join(directory, name), data.read_ppm, binary=True),
                (_load(label_path, data.read_yolo_labels, registry)
                 if os.path.exists(label_path) else ()),
                os.path.join(directory, name))

    return registry, samples()


def _write_dataset_dir(directory: str, registry, samples) -> list:
    """Write CLASSES_FILE plus <stem>.ppm/<stem>.txt for each LabeledImage
    of `samples`, as `_load_dataset_dir` reads them. Returns the labels
    only, so that a long stream of samples never sits in memory."""
    from . import data
    written = []
    with _staged(directory) as stage:
        _write_text(os.path.join(stage, CLASSES_FILE), registry.to_text())
        for sample in samples:
            with open(os.path.join(stage, sample.stem + ".ppm"), "wb") as fh:
                fh.writelines(data.ppm_parts(sample.image))
            _write_text(os.path.join(stage, sample.stem + ".txt"),
                        data.write_yolo_labels(sample.labels))
            written.append(sample.labels)
    return written


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        _write_text(out_path, text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Commands

def _net_census(text: str, input_n: int | None):
    """Shape-resolved graph and census of cfg `text`, its input size
    replaced by `input_n` when that is given."""
    from . import cfg as cfgmod
    graph = cfgmod.parse_cfg(text)
    if input_n is not None:
        net = graph.layers[0]
        net = replace(net, attributes={**net.attributes, "width": input_n,
                                       "height": input_n})
        graph = cfgmod.NetGraph((net,) + graph.layers[1:])
    graph = cfgmod.propagate_shapes(graph)
    return graph, cfgmod.census(graph)


def cmd_netinfo(args) -> int:
    graph, report = _load(args.cfg, _net_census, args.input)

    rows = [("idx", "kind", "out shape", "neurons", "params")]
    for stat in report.per_layer:
        h, w, c = stat.out_shape
        rows.append((str(stat.index), stat.kind, f"{h}x{w}x{c}",
                     str(stat.neurons), str(stat.params)))
    widths = [max(len(r[i]) for r in rows) for i in range(5)]
    for row in rows:
        print("  ".join(cell.rjust(widths[i]) if i != 1 else cell.ljust(widths[i])
                        for i, cell in enumerate(row)).rstrip())
    in_h, in_w, in_c = graph.shapes[0]
    print(f"input: {in_h}x{in_w}x{in_c}")
    print(f"input neurons: {report.input_neurons}")
    print(f"conv layers: {report.conv_layer_count}")
    print(f"hidden neurons: {report.hidden_neurons}")
    print(f"total parameters: {report.total_parameters}")
    return 0


def cmd_augment(args) -> int:
    import numpy as np
    from . import data
    registry, samples = _load_dataset_dir(args.dataset)
    rotations = args.rotations.split(",") if args.rotations else []
    tokens = args.flips.lower().split(",") if args.flips else []
    # an unknown token passes through, and iter_expanded rejects it by name
    flips = [data.FLIP_AXES.get(t.strip(), t.strip()) for t in tokens]
    written = _write_dataset_dir(
        args.out, registry, data.iter_expanded(samples, rotations, flips))
    stub = data.Image(np.zeros((1, 1, 3), dtype=np.uint8))
    report = data.expansion_report(
        (data.LabeledImage(stub, labels, "") for labels in written),
        registry, floor=args.floor)
    print(f"wrote {len(written)} images to {args.out}")
    for name in registry:
        marker = "  BELOW FLOOR" if name in report.below_floor else ""
        print(f"{name}: {report.per_class[name]}{marker}")
    if report.below_floor:
        print(f"classes below the {args.floor}-image floor: "
              f"{', '.join(report.below_floor)}", file=sys.stderr)
    return 0


def cmd_labels_convert(args) -> int:
    if args.src == args.dst:
        raise ValueError(f"--from and --to are both {args.src}; nothing to convert")
    from . import boxes, data
    registry = _load(args.classes, ClassRegistry.from_text)
    converted = 0
    with _staged(args.out) as stage:
        for name in sorted(os.listdir(args.dir)):
            if not name.endswith(".txt") or name == CLASSES_FILE:
                continue
            stem = os.path.splitext(name)[0]
            image = _load(os.path.join(args.dir, stem + ".ppm"), data.read_ppm, binary=True)
            w, h = image.width, image.height
            label_path = os.path.join(args.dir, name)
            if args.src == "labelimg":
                # converted inside the loader: a box YOLO cannot hold names the file
                out_text = _load(label_path, lambda text: data.write_yolo_labels(
                    (cid, boxes.corner_to_norm(box, w, h))
                    for cid, box in data.read_labelimg_corners(text, (w, h), registry)))
            else:
                labels = _load(label_path, data.read_yolo_labels, registry)
                out_text = data.write_labelimg_corners(
                    ((cid, boxes.norm_to_corner(box, w, h)) for cid, box in labels),
                    registry)
            _write_text(os.path.join(stage, name), out_text)
            converted += 1
    print(f"converted {converted} label files to {args.out}")
    return 0


def cmd_labels_csv(args) -> int:
    from . import data
    registry, samples = _load_dataset_dir(args.dir)
    _emit(data.aggregate_csv(samples, registry), args.out)
    return 0


def cmd_encode(args) -> int:
    from . import postprocess
    config = _load_config(args)
    registry, samples = _load_dataset_dir(args.dataset)
    count = input_n = 0
    with _staged(args.out) as stage:
        for count, sample in enumerate(samples, start=1):
            # the first image fixes the input size, as the heads do for detect
            input_n = input_n or sample.image.width
            try:
                if sample.image.width != input_n or sample.image.height != input_n:
                    raise ValueError(f"image is {sample.image.width}x"
                                     f"{sample.image.height}, expected {input_n}x{input_n}")
                heads = postprocess.ground_truth_heads(
                    sample.labels, len(registry), input_n, config.anchors)
            except ValueError as exc:
                raise ValueError(f"{sample.source_path}: {exc}") from None
            for k, head in enumerate(heads):
                with open(os.path.join(stage, f"{sample.stem}.h{k}"), "wb") as fh:
                    fh.write(write_head_bytes(head))
    print(f"encoded {count} images into head tensors at {args.out}")
    return 0


def cmd_detect(args) -> int:
    from . import postprocess
    config = _load_config(args)
    if args.dump_config:
        sys.stdout.write(postprocess.format_run_config(config))
        return 0
    registry = _load(args.classes, ClassRegistry.from_text)
    heads = [_load(p, read_head_bytes, binary=True) for p in args.heads]
    dets = postprocess.detect_frame(heads, config.anchors,
                                    config.detect_config(), registry.names)
    if args.json:
        _emit(postprocess.detections_to_json(dets) + "\n", args.out)
    else:
        _emit(postprocess.format_detections(dets), args.out)
    return 0


def cmd_eval(args) -> int:
    from . import boxes, metrics, postprocess
    registry, truth = _load_dataset_dir(args.truth)
    listed, paired = set(), set()

    def samples():
        # list --detections, then read one image at a time, all after
        # scenario_report checks its arguments
        listed.update(name for name in os.listdir(args.detections)
                      if name.endswith(".txt") and name != CLASSES_FILE)
        for sample in truth:
            name = sample.stem + ".txt"
            paired.add(name)
            gts = [metrics.GroundTruth(
                boxes.norm_to_corner(box, sample.image.width, sample.image.height), cid)
                for cid, box in sample.labels]
            dets = (_load(os.path.join(args.detections, name),
                          postprocess.parse_detection_lines, registry.names)
                    if name in listed else [])
            yield dets, gts

    report = metrics.scenario_report(samples(), args.scenario, args.iou)
    orphans = sorted(listed - paired)
    if orphans:
        print("no truth image for " + ", ".join(orphans), file=sys.stderr)
    sys.stdout.write(metrics.report_table(report, registry.names))
    if args.json:
        _write_text(args.json, metrics.report_to_json(report, registry.names) + "\n")
    return 1 if report.failed_images else 0


def cmd_synth(args) -> int:
    from . import data
    registry = (_load(args.classes, ClassRegistry.from_text) if args.classes
                else ClassRegistry(DEFAULT_CLASS_NAMES))
    _write_dataset_dir(args.out, registry, (
        data.scenario_scene(args.scenario, i, args.seed + i, registry)
        for i in range(args.count)))
    print(f"wrote {args.count} {args.scenario} scenes to {args.out}")
    return 0


def _bench_frame(rng, num_classes: int, input_n: int, anchors):
    """Head tensors shaped like a trained detector's output: a few hot
    object slots over a quiet background, with unit Gaussian noise on
    every logit."""
    from . import boxes, postprocess, tensor
    labels = []
    for _ in range(int(rng.integers(3, 9))):
        w = float(rng.uniform(0.05, 0.3))
        h = float(rng.uniform(0.05, 0.3))
        cx = float(rng.uniform(w / 2, 1.0 - w / 2))
        cy = float(rng.uniform(h / 2, 1.0 - h / 2))
        labels.append((int(rng.integers(num_classes)), boxes.BoxNorm(cx, cy, w, h)))
    heads = postprocess.ground_truth_heads(labels, num_classes, input_n, anchors)
    return tuple(
        tensor.Tensor(head.data + rng.normal(0.0, 1.0, head.data.shape), copy=False)
        for head in heads)


def cmd_bench(args) -> int:
    import numpy as np
    from . import boxes, postprocess
    config = _load_config(args)
    input_n = args.input
    num_classes = args.classes_count
    rng = np.random.default_rng(0)
    frames = [_bench_frame(rng, num_classes, input_n, config.anchors)
              for _ in range(args.frames)]
    names = [f"c{i}" for i in range(num_classes)]
    det_config = config.detect_config()
    timings = []
    for heads in frames:
        start = time.perf_counter()
        postprocess.format_detections(postprocess.detect_frame(
            heads, config.anchors, det_config, names))
        timings.append((time.perf_counter() - start) * 1000.0)
    timings.sort()
    candidates = boxes.total_grid_cells(input_n) * boxes.SLOTS
    p50 = timings[len(timings) // 2]
    p99 = timings[min(len(timings) - 1, int(len(timings) * 0.99))]
    print(f"frames: {args.frames}  candidates/frame: {candidates}")
    print(f"post-processing latency ms: p50 {p50:.2f}  p99 {p99:.2f}  "
          f"max {timings[-1]:.2f}")
    return 0


# ---------------------------------------------------------------------------

def _int_at_least(minimum: int):
    """An argparse type: an integer no smaller than `minimum`."""
    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be at least {minimum}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names it in "invalid int value: ..."
    return parse


def _add_scenario(parser, **kwargs) -> None:
    """`--scenario`: a number from 1 or a name of SCENARIOS, stored as the name."""
    numbers = {str(k): name for k, name in enumerate(SCENARIOS, start=1)}
    parser.add_argument("--scenario", type=lambda text: numbers.get(text, text),
                        choices=SCENARIOS, help="1|2|3 or a scenario name", **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="yolokit",
        description="Desk-scale detection pipeline toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("netinfo", help="parse a darknet cfg and print a census")
    p.add_argument("cfg")
    p.add_argument("--input", type=int, default=None,
                   help="override input width/height")
    p.set_defaults(func=cmd_netinfo)

    p = sub.add_parser("augment", help="expand a dataset by rotations and flips")
    p.add_argument("dataset")
    p.add_argument("--rotations", default="", help="comma-separated degrees")
    p.add_argument("--flips", default="", help="comma-separated axes (h,v)")
    p.add_argument("--out", required=True)
    p.add_argument("--floor", type=_int_at_least(0), default=300,
                   help="per-class image floor to check")
    p.set_defaults(func=cmd_augment)

    p = sub.add_parser("labels", help="label format tools")
    labels_sub = p.add_subparsers(dest="labels_command", required=True)
    pc = labels_sub.add_parser("convert", help="convert between label formats")
    pc.add_argument("--from", dest="src", required=True,
                    choices=("labelimg", "yolo"))
    pc.add_argument("--to", dest="dst", required=True,
                    choices=("labelimg", "yolo"))
    pc.add_argument("--dir", required=True)
    pc.add_argument("--classes", required=True)
    pc.add_argument("--out", required=True)
    pc.set_defaults(func=cmd_labels_convert)
    pv = labels_sub.add_parser("csv", help="aggregate a dataset into one CSV")
    pv.add_argument("--dir", required=True)
    pv.add_argument("--out", default=None)
    pv.set_defaults(func=cmd_labels_csv)

    p = sub.add_parser("encode",
                       help="encode ground-truth labels as head tensors")
    p.add_argument("dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("detect", help="run post-processing on head tensors")
    # nargs is len(boxes.STRIDES) written out: importing cli loads no numpy
    p.add_argument("--heads", nargs=3, metavar="HEAD",
                   help="three head files, fine to coarse")
    p.add_argument("--classes", help="classes.txt path")
    p.add_argument("--config", default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--json", action="store_true",
                   help="emit JSON instead of detection lines")
    p.add_argument("--dump-config", action="store_true",
                   help="print the effective configuration and exit")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("eval", help="score detections against ground truth")
    p.add_argument("--detections", required=True)
    p.add_argument("--truth", required=True)
    _add_scenario(p, default="all-classes")
    p.add_argument("--iou", type=float, default=0.5,
                   help="IoU threshold in [0, 1] for failure counting")
    p.add_argument("--json", default=None, help="also write a JSON report here")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("synth", help="generate a synthetic scenario dataset")
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    _add_scenario(p, required=True)
    p.add_argument("--count", type=_int_at_least(0), required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--classes", default=None)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("bench", help="measure post-processing latency")
    p.add_argument("--frames", type=_int_at_least(1), default=20)
    p.add_argument("--input", type=int, default=416)
    p.add_argument("--classes-count", type=_int_at_least(1), default=13)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "detect" and not args.dump_config:
        if not args.heads or not args.classes:
            parser.error("detect requires --heads and --classes")
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        code, kind = (3, "I/O error: ") if isinstance(exc, OSError) else (2, "")
        print(f"yolokit: {kind}{exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    raise SystemExit(main())
