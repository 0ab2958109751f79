"""The four benchmark workloads.

Each is a closed loop with one caller in one process. A workload has a
`setup()` (input generation and warm-up, timed as set-up), a `phase()`
that runs items until its time is up, a `replay()` that recomputes the
outputs of the first items untimed, and `checks()` that compare outputs
with reference paths. Toolkit functions are always looked up through
their module at call time, so a tracer's wrappers see every call.

`tensor` has no workload: no CLI command and no pipeline stage calls
`conv2d` or the other forward blocks.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from statistics import median
from time import perf_counter

import numpy as np

import bench_inputs as gen
from yolokit import boxes, cfg, cli, data, metrics, postprocess

import oracles


@dataclass
class Phase:
    """What one timed phase did. `busy` is the time spent inside timed
    spans; the benchmark's own input generation between items is not in
    it. `rates` holds the items per second of consecutive blocks of
    items (of walkthroughs on `cli`); their median is the throughput."""

    latencies: list = field(default_factory=list)   # seconds per item
    busy: float = 0.0
    rates: list = field(default_factory=list)
    outputs: list = field(default_factory=list)     # first items' outputs
    counts: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    def fail(self, where, exc):
        self.attempted += 1
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{where}: {type(exc).__name__}: {exc}")

    def count(self, name, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount

    def absorb(self, other):
        """Add another phase's operation and failure counts to this one."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors += other.errors


def timed(tracer, name, item, fn):
    """Run fn() as one timed span; returns (result, seconds)."""
    if tracer is None:
        start = perf_counter()
        result = fn()
        return result, perf_counter() - start
    with tracer.root(name, item) as span:
        result = fn()
    return result, span.duration


def child_env(root):
    """Environment for a child interpreter that imports this checkout's
    toolkit."""
    env = dict(os.environ)
    env["PYTHONPATH"] = (os.path.join(root, "src") + os.pathsep
                         + env.get("PYTHONPATH", ""))
    return env


def _anchors():
    return tuple(boxes.Anchor(w, h) for w, h in gen.ANCHORS)


# item index of warm-up inputs, outside any run's item range
WARMUP = 10 ** 6


class Workload:
    name = ""
    digest_items = 1
    rate_block = 4  # items per throughput sample

    def __init__(self, root: str, seed: int):
        self.root = root
        self.seed = seed

    def run_items(self, phase, seconds, tracer, make_input, run_item):
        """Closed loop: generate item i's input untimed, then time the
        item, until `seconds` of wall time have passed (at least one
        item). Every `rate_block` finished items add a throughput
        sample."""
        deadline = perf_counter() + seconds
        index = 0
        block_items, block_busy = 0, 0.0
        while index == 0 or perf_counter() < deadline:
            item_input = make_input(index)
            try:
                out, seconds_taken = timed(tracer, f"{self.name}.item", index,
                                           lambda: run_item(item_input))
            except Exception as exc:  # a failed item is counted, not fatal
                phase.fail(f"item {index}", exc)
            else:
                phase.attempted += 1
                phase.latencies.append(seconds_taken)
                phase.busy += seconds_taken
                block_items += 1
                block_busy += seconds_taken
                if block_items == self.rate_block:
                    phase.rates.append(block_items / block_busy)
                    block_items, block_busy = 0, 0.0
                if index < self.digest_items:
                    phase.outputs.append(out)
                self.observe(phase, item_input, out)
            index += 1

    def observe(self, phase, item_input, out):
        """Record workload counts for one finished item."""

    def close(self, state):
        """Remove what set-up left behind."""

    def replay(self, state):
        """Outputs of the first `digest_items` items, recomputed untimed."""
        return [self.item(state, self.make_input(state, i))
                for i in range(self.digest_items)]

    def phase(self, state, seconds, tracer=None) -> Phase:
        phase = Phase()
        self.run_items(phase, seconds, tracer,
                       lambda i: self.make_input(state, i),
                       lambda x: self.item(state, x))
        return phase


# ---------------------------------------------------------------------------

class Frames(Workload):
    """Head blobs from an external inference engine through
    read_head_bytes x3 -> detect_frame -> format_detections."""

    name = "frames"
    digest_items = 8
    # a block holds one crowded frame and three sparse ones
    rate_block = gen.CROWD_BLOCK

    def setup(self):
        state = {
            "anchors": _anchors(),
            "config": postprocess.DetectConfig(),
            "names": list(gen.CLASS_NAMES),
        }
        for index in range(gen.CROWD_BLOCK):  # warm-up on both frame kinds
            self.item(state, self.make_input(state, index))
        return state

    def make_input(self, state, index):
        return gen.frame_blobs(self.seed, index)

    def item(self, state, frame):
        heads = [cli.read_head_bytes(blob) for blob in frame[1]]
        dets = postprocess.detect_frame(heads, state["anchors"],
                                        state["config"], state["names"])
        return postprocess.format_detections(dets)

    def observe(self, phase, frame, out):
        kind = frame[0]
        phase.count(f"{kind}_frames")
        phase.count(f"{kind}_detections", out.count("\n"))

    def _list_path(self, state, heads):
        anchors = state["anchors"]
        raws = []
        for scale, head in enumerate(heads):
            raws += postprocess.extract_predictions(
                head, anchors[3 * scale:3 * scale + 3], gen.NUM_CLASSES,
                gen.INPUT_N, scale)
        return postprocess.score_predictions(raws, state["names"])

    def checks(self, state, phase):
        config = state["config"]
        results = [("frames: input recipe equals cli._bench_frame",
                    gen.recipe_matches_cli(cli, self.seed) is not False)]
        context = {"candidates_per_frame": gen.candidates_per_frame()}
        for kind in ("sparse", "crowded"):
            index = next(i for i in range(64)
                         if gen.frame_kind(self.seed, i) == kind)
            frame = gen.frame_blobs(self.seed, index)
            results.append((f"frames: {kind} generator is deterministic",
                            frame == gen.frame_blobs(self.seed, index)))
            heads = [cli.read_head_bytes(blob) for blob in frame[1]]
            got = postprocess.detect_frame(heads, state["anchors"], config,
                                           state["names"])
            scored = self._list_path(state, heads)
            listed = postprocess.two_stage_filter(
                postprocess.nms(scored, config.nms), config.confidence_floor)
            results.append((f"frames: {kind} detect_frame equals list path",
                            got == listed))
            kept = oracles.nms_ref(
                [(d.box.x_min, d.box.y_min, d.box.x_max, d.box.y_max)
                 for d in scored],
                [d.confidence for d in scored], [d.class_id for d in scored],
                [d.objectness for d in scored],
                config.nms.objectness_threshold, config.nms.iou_threshold)
            ref = [scored[i] for i in kept
                   if scored[i].confidence >= config.confidence_floor]
            results.append((f"frames: {kind} detect_frame equals nms_ref",
                            got == ref))
            context[f"{kind}_gated_candidates"] = sum(
                1 for d in scored
                if d.confidence >= config.nms.objectness_threshold)
            frames = phase.counts.get(f"{kind}_frames", 0)
            if frames:
                context[f"{kind}_detections_per_frame"] = (
                    phase.counts[f"{kind}_detections"] / frames)
            context[f"{kind}_frames"] = frames
        return results, context


# ---------------------------------------------------------------------------

class Eval(Workload):
    """Scoring 1,000-image sets: parse truth labels and detection lines,
    scenario_report, then the JSON and table renderings."""

    name = "eval"
    digest_items = 1
    oracle_images = 40

    def setup(self):
        state = {"registry": data.ClassRegistry(gen.CLASS_NAMES),
                 "names": list(gen.CLASS_NAMES)}
        self.item(state, gen.eval_set(self.seed, WARMUP, 50))  # warm-up
        return state

    def make_input(self, state, index):
        return gen.eval_set(self.seed, index)

    def samples(self, state, texts):
        out = []
        for truth, dets in zip(*texts):
            gts = [metrics.GroundTruth(boxes.norm_to_corner(b, gen.CANVAS,
                                                            gen.CANVAS), c)
                   for c, b in data.read_yolo_labels(truth, state["registry"])]
            out.append((postprocess.parse_detection_lines(dets, state["names"]),
                        gts))
        return out

    def item(self, state, texts):
        report = metrics.scenario_report(self.samples(state, texts),
                                         "all-classes")
        names = state["names"]
        return (metrics.report_to_json(report, names) + "\n"
                + metrics.report_table(report, names))

    def observe(self, phase, texts, out):
        phase.count("images", len(texts[0]))
        phase.count("truth_boxes", sum(t.count("\n") for t in texts[0]))
        phase.count("detections", sum(t.count("\n") for t in texts[1]))
        if "map_50_95" not in phase.counts:
            payload, _ = json.JSONDecoder().raw_decode(out)
            phase.counts["map_50_95"] = payload["map_50_95"]
            phase.counts["failed_images"] = payload["failed_images"]

    def checks(self, state, phase):
        small = gen.eval_set(self.seed, 0, self.oracle_images)
        results = [("eval: generator is deterministic",
                    small == gen.eval_set(self.seed, 0, self.oracle_images))]
        samples = self.samples(state, small)
        got = metrics.map_50_95(samples).map_50_95
        plain = [([(d.confidence, d.class_id,
                    (d.box.x_min, d.box.y_min, d.box.x_max, d.box.y_max))
                   for d in dets],
                  [(g.class_id, (g.box.x_min, g.box.y_min, g.box.x_max,
                                 g.box.y_max)) for g in gts])
                 for dets, gts in samples]
        want = oracles.map_ref(plain, metrics.IOU_THRESHOLDS)
        results.append((f"eval: mAP equals map_ref on {self.oracle_images} "
                         "images", abs(got - want) <= 1e-12))
        images = phase.counts.get("images", 0)
        context = {
            "images_per_set": gen.EVAL_IMAGES,
            "sets": len(phase.latencies),
            "truth_per_image": phase.counts.get("truth_boxes", 0) / max(images, 1),
            "detections_per_image": phase.counts.get("detections", 0) / max(images, 1),
            "first_set_map_50_95": phase.counts.get("map_50_95"),
            "first_set_failed_images": phase.counts.get("failed_images"),
        }
        return results, context


# ---------------------------------------------------------------------------

ROTATIONS = (0.0, 15.0, 90.0, 180.0, 270.0)
FLIPS = ("horizontal", "vertical")
VARIANTS_PER_SCENE = len(ROTATIONS) * (1 + len(FLIPS))


class Prep(Workload):
    """Training-set preparation: cfg census once per run, then per scene
    generate -> rotations x flips -> PPM and label round trips ->
    ground_truth_heads; CSV and expansion report at the end."""

    name = "prep"
    digest_items = 4

    def setup(self):
        path = os.path.join(self.root, "src", "yolokit", "assets", "yolov4.cfg")
        with open(path, encoding="utf-8") as fh:
            cfg_text = fh.read()
        state = {
            "cfg_text": cfg_text,
            "registry": data.ClassRegistry(gen.CLASS_NAMES),
            "anchors": _anchors(),
            # aggregate_csv reads only the size of each image
            "stub": data.Image(np.zeros((gen.CANVAS, gen.CANVAS, 3), np.uint8)),
        }
        self.network(state)
        self.item(state, self.make_input(state, WARMUP))  # warm-up
        return state

    def network(self, state):
        graph = cfg.parse_cfg(state["cfg_text"])
        net = graph.layers[0]
        attrs = dict(net.attributes, width=gen.INPUT_N, height=gen.INPUT_N)
        graph = cfg.NetGraph((cfg.LayerSpec("net", attrs, net.source_line),)
                             + graph.layers[1:])
        report = cfg.census(cfg.propagate_shapes(graph))
        return (f"conv {report.conv_layer_count} params "
                f"{report.total_parameters} hidden {report.hidden_neurons}\n")

    def make_input(self, state, index):
        return gen.scene_seed(self.seed, index)

    def item(self, state, seed):
        registry = state["registry"]
        scene = data.generate_synthetic_scene(seed, registry)
        texts = []
        stubs = []
        for variant in data.iter_expanded([scene], ROTATIONS, FLIPS):
            data.read_ppm(data.write_ppm(variant.image))
            text = data.write_yolo_labels(variant.labels)
            labels = data.read_yolo_labels(text, registry)
            postprocess.ground_truth_heads(labels, gen.NUM_CLASSES,
                                           gen.INPUT_N, state["anchors"])
            texts.append(f"{variant.source_path}\n{text}")
            stubs.append(data.LabeledImage(state["stub"], labels,
                                           variant.source_path))
        return "".join(texts), stubs

    def phase(self, state, seconds, tracer=None) -> Phase:
        phase = Phase()
        census, took = timed(tracer, "prep.network", None,
                             lambda: self.network(state))
        phase.busy += took
        stubs = []

        def run_item(seed):
            out, item_stubs = self.item(state, seed)
            stubs.extend(item_stubs)
            return census + out

        self.run_items(phase, seconds, tracer,
                       lambda i: self.make_input(state, i), run_item)
        registry = state["registry"]
        _, took = timed(tracer, "prep.report", None, lambda: (
            data.aggregate_csv(stubs, registry),
            data.expansion_report(stubs, registry, floor=300)))
        phase.busy += took
        phase.counts["variants"] = len(stubs)
        return phase

    def replay(self, state):
        census = self.network(state)
        return [census + self.item(state, self.make_input(state, i))[0]
                for i in range(self.digest_items)]

    def checks(self, state, phase):
        registry = state["registry"]
        scenes = len(phase.latencies)
        results = [(f"prep: {VARIANTS_PER_SCENE} variants per scene",
                    phase.counts.get("variants") == scenes * VARIANTS_PER_SCENE)]
        round_trips = True
        for i in range(self.digest_items):
            scene = data.generate_synthetic_scene(
                self.make_input(state, i), registry)
            for variant in data.iter_expanded([scene], ROTATIONS, FLIPS):
                text = data.write_yolo_labels(variant.labels)
                again = data.write_yolo_labels(data.read_yolo_labels(text, registry))
                image = data.read_ppm(data.write_ppm(variant.image))
                round_trips &= again == text and image == variant.image
        results.append(("prep: PPM and label round trips", round_trips))
        context = {"scenes": scenes, "variants": phase.counts.get("variants"),
                   "variants_per_scene": VARIANTS_PER_SCENE}
        return results, context


# ---------------------------------------------------------------------------

CLI_IMAGES = 20


class Cli(Workload):
    """The README walkthrough as `python -m yolokit.cli` subprocesses,
    one at a time; the item is one per-image `detect`."""

    name = "cli"
    startup_samples = 10

    def setup(self):
        work = os.path.join(self.root, "perfbench", "out",
                            f"cli-work-{os.getpid()}")
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        return {"work": work, "env": child_env(self.root),
                "synth_seed": self.seed % 100_000}

    def close(self, state):
        shutil.rmtree(state["work"], ignore_errors=True)

    def steps(self, state, root):
        """(command, argv) of one walkthrough; detect once per image,
        the image list being known only after synth has run."""
        ds = os.path.join(root, "ds")
        heads = os.path.join(root, "heads")
        dets = os.path.join(root, "dets")
        cfg_path = os.path.join(self.root, "src", "yolokit", "assets",
                                "yolov4.cfg")
        yield "netinfo", ["netinfo", cfg_path, "--input", str(gen.INPUT_N)]
        yield "synth", ["synth", "--scenario", "3", "--count", str(CLI_IMAGES),
                        "--seed", str(state["synth_seed"]), "--out", ds]
        yield "encode", ["encode", ds, "--out", heads]
        os.makedirs(dets, exist_ok=True)
        for name in sorted(os.listdir(ds)):
            if name.endswith(".ppm"):
                stem = name[:-4]
                yield "detect", ["detect", "--heads",
                                 *(os.path.join(heads, f"{stem}.h{k}")
                                   for k in range(3)),
                                 "--classes", os.path.join(ds, "classes.txt"),
                                 "--out", os.path.join(dets, stem + ".txt")]
        yield "eval", ["eval", "--detections", dets, "--truth", ds,
                       "--scenario", "3", "--json",
                       os.path.join(root, "report.json")]
        yield "labels_csv", ["labels", "csv", "--dir", ds, "--out",
                             os.path.join(root, "dataset.csv")]
        yield "augment", ["augment", ds, "--rotations", "0,15,90", "--flips",
                          "h", "--out", os.path.join(root, "aug")]

    def run_cli(self, state, argv):
        proc = subprocess.run([sys.executable, "-m", "yolokit.cli", *argv],
                              cwd=self.root, env=state["env"],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              timeout=120)
        return proc.returncode, proc.stdout

    def walkthrough(self, state, root, phase, per_command, runner):
        """Run every step with `runner(argv) -> (exit code, stdout)`;
        returns the wall time and the stdout of netinfo."""
        netinfo = b""
        start = perf_counter()
        for command, argv in self.steps(state, root):
            t0 = perf_counter()
            try:
                code, out = runner(argv)
            except Exception as exc:
                phase.fail(command, exc)
                continue
            took = perf_counter() - t0
            per_command.setdefault(command, []).append(took)
            if command == "detect":
                phase.latencies.append(took)
            if command == "netinfo":
                netinfo = out
            if code == 0:
                phase.attempted += 1
            else:
                phase.fail(command, RuntimeError(f"exit code {code}"))
        return perf_counter() - start, netinfo

    def outputs_digest(self, root, netinfo):
        """C10-style digest of a walkthrough's files and the netinfo
        table, and the mAP that eval reported."""
        digest = hashlib.sha256(netinfo)
        for sub in ("ds", "dets", "aug"):
            folder = os.path.join(root, sub)
            for name in sorted(os.listdir(folder)):
                if sub == "aug" and name.endswith(".ppm"):
                    continue  # 60 MB of pixels; their labels are hashed
                digest.update(f"{sub}/{name}".encode())
                with open(os.path.join(folder, name), "rb") as fh:
                    digest.update(fh.read())
        for name in ("report.json", "dataset.csv"):
            digest.update(name.encode())
            with open(os.path.join(root, name), "rb") as fh:
                digest.update(fh.read())
        with open(os.path.join(root, "report.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        return digest.hexdigest(), report["map_50_95"]

    def phase(self, state, seconds, tracer=None) -> Phase:
        phase = Phase()
        phase.counts["per_command"] = per_command = {}
        phase.counts["digests"] = digests = []
        phase.counts["maps"] = maps = []
        deadline = perf_counter() + seconds
        runs = 0
        wall = 0.0
        # start another walkthrough only while at least half of one fits
        while runs == 0 or perf_counter() + wall / 2.0 < deadline:
            root = os.path.join(state["work"], f"w{runs}")
            wall, netinfo = self.walkthrough(
                state, root, phase, per_command,
                lambda argv: self.run_cli(state, argv))
            phase.busy += wall
            phase.rates.append(CLI_IMAGES / wall)
            try:
                digest, map_value = self.outputs_digest(root, netinfo)
            except (OSError, ValueError, KeyError) as exc:
                phase.fail("outputs", exc)
            else:
                digests.append(digest)
                maps.append(map_value)
            shutil.rmtree(root, ignore_errors=True)
            runs += 1
        phase.outputs = digests[:1]
        phase.counts["walkthroughs"] = runs
        phase.counts["images"] = len(phase.latencies)
        return phase

    def replay(self, state):
        return None  # every walkthrough in a phase repeats the same inputs

    def startup(self, state):
        """Wall times of `detect --dump-config` subprocesses."""
        times = []
        for _ in range(self.startup_samples):
            t0 = perf_counter()
            self.run_cli(state, ["detect", "--dump-config"])
            times.append(perf_counter() - t0)
        return times

    def inproc(self, state, label, tracer=None):
        """Replay the walkthrough in this process through `cli.main`;
        returns ({command: [seconds]}, wall seconds, phase)."""
        phase = Phase()
        per_command = {}
        root = os.path.join(state["work"], label)
        item = itertools.count()

        def runner(argv):
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(io.StringIO()):
                if tracer is None:
                    code = cli.main(argv)
                else:
                    command = "labels_csv" if argv[0] == "labels" else argv[0]
                    code, _ = timed(tracer, f"cli.{command}", next(item),
                                    lambda: cli.main(argv))
            return code, sink.getvalue().encode()

        wall, _ = self.walkthrough(state, root, phase, per_command, runner)
        shutil.rmtree(root, ignore_errors=True)
        return per_command, wall, phase

    def checks(self, state, phase):
        digests = phase.counts["digests"]
        maps = phase.counts["maps"]
        results = [
            ("cli: every exit code is 0", phase.failed == 0),
            ("cli: walkthrough outputs byte-identical",
             bool(digests) and len(set(digests)) == 1),
            ("cli: eval reports mAP 1.0", bool(maps) and all(m == 1.0 for m in maps)),
        ]
        context = {
            "walkthroughs": phase.counts["walkthroughs"],
            "images_per_walkthrough": CLI_IMAGES,
            "commands_per_walkthrough": len(gen.CLI_COMMANDS) - 1 + CLI_IMAGES,
            "command_p50_ms": {c: 1000.0 * median(t)
                               for c, t in phase.counts["per_command"].items()},
        }
        return results, context


WORKLOADS = {w.name: w for w in (Frames, Eval, Prep, Cli)}
