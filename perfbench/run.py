"""yolokit benchmark.

    python3 perfbench/run.py --workload {frames,eval,prep,cli} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout. With --trace 0 the last line of
stdout is a JSON object holding the end-to-end metrics; with --trace 1
it holds the per-layer metrics of a traced run. The line before it
("context ...") records the machine, the inputs and the item counts,
and both go to perfbench/out/, together with the spans of a traced run.
See perfbench/NOTES.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import subprocess
import sys
from statistics import median, quantiles
from time import perf_counter

from bench_inputs import CLI_COMMANDS, fingerprint

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_ms_p50": "ms",
    "latency_ms_p90": "ms",
    "ok_frac": "frac",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "boxes.sigmoid.ms": "ms",
    "boxes.iou_one_to_many.ms": "ms",
    "boxes.iou_one_to_many.calls": "count",
    "boxes.iou.ms": "ms",
    "boxes.iou.calls": "count",
    "postprocess.detect_frame.self_ms": "ms",
    "postprocess.detections": "count",
    "postprocess.format_detections.ms": "ms",
    "postprocess.parse_detection_lines.ms": "ms",
    "postprocess.ground_truth_heads.ms": "ms",
    "metrics.scenario_report.s": "s",
    "metrics.match_detections.ms": "ms",
    "metrics.match_detections.calls": "count",
    "metrics.average_precision.self_ms": "ms",
    "metrics.report.ms": "ms",
    "data.rotate.ms.quarter": "ms",
    "data.rotate.ms.other": "ms",
    "data.flip.ms": "ms",
    "data.write_ppm.ms": "ms",
    "data.read_ppm.ms": "ms",
    "data.generate_synthetic_scene.ms": "ms",
    "data.read_yolo_labels.ms": "ms",
    "data.write_yolo_labels.ms": "ms",
    "data.variants": "count",
    "cfg.parse_cfg.ms": "ms",
    "cfg.propagate_shapes.ms": "ms",
    "cfg.census.ms": "ms",
    "cli.read_head_bytes.ms": "ms",
    "cli.startup.ms": "ms",
    **{f"cli.{c}.ms": "ms" for c in CLI_COMMANDS},
    **{f"cli.{c}.inproc_ms": "ms" for c in CLI_COMMANDS},
    "trace.throughput_ratio": "ratio",
    "trace.self_coverage": "frac",
}

SETUP_REPEATS = 5
IMPORT_PROBE = ("import time; t = time.perf_counter(); import numpy, yolokit.cli; "
                "print(time.perf_counter() - t)")


def checkout_ok() -> bool:
    return (os.path.isfile(os.path.join(ROOT, "src", "yolokit", "cli.py"))
            and os.path.isfile(os.path.join(ROOT, "tests", "oracles.py")))


def import_seconds(env) -> float:
    """Import time of numpy and the toolkit in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT,
                         env=env, stdout=subprocess.PIPE, check=True,
                         timeout=60).stdout
    return float(out)


def measure_setup(workload, env):
    """Median over SETUP_REPEATS of (fresh-interpreter import time +
    the workload's input generation and warm-up); returns it with the
    last set-up's state."""
    totals = []
    state = None
    for _ in range(SETUP_REPEATS):
        imports = import_seconds(env)
        start = perf_counter()
        state = workload.setup()
        totals.append(imports + perf_counter() - start)
    return median(totals), totals, state


def p90(values):
    if len(values) < 2:
        return values[0]
    return quantiles(values, n=10, method="inclusive")[8]


def peak_rss_mb(include_children: bool) -> float:
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, when it can be
    asked; None otherwise."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_sha():
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    except OSError:
        return None
    return out.stdout.decode().strip() or None


def source_digest() -> str:
    parts = []
    src = os.path.join(ROOT, "src", "yolokit")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                parts += [os.path.relpath(path, src), fh.read()]
    return fingerprint(*parts)


def layer_metrics(tracer, items, cli_extra):
    def inclusive_ms(name):
        return 1000.0 * tracer.total(name, 1) / items

    def self_ms(name):
        return 1000.0 * tracer.total(name, 2) / items

    def calls(name):
        return tracer.total(name, 0) / items

    def per_call_ms(name):
        return 1000.0 * tracer.total(name, 1) / max(tracer.total(name, 0), 1)

    out = {
        "boxes.sigmoid.ms": inclusive_ms("boxes.sigmoid"),
        "boxes.iou_one_to_many.ms": inclusive_ms("boxes.iou_one_to_many"),
        "boxes.iou_one_to_many.calls": calls("boxes.iou_one_to_many"),
        "boxes.iou.ms": inclusive_ms("boxes.iou"),
        "boxes.iou.calls": calls("boxes.iou"),
        "postprocess.detect_frame.self_ms": self_ms("postprocess.detect_frame"),
        "postprocess.detections": tracer.counts.get("postprocess.detections", 0) / items,
        "postprocess.format_detections.ms": inclusive_ms("postprocess.format_detections"),
        "postprocess.parse_detection_lines.ms": inclusive_ms("postprocess.parse_detection_lines"),
        "postprocess.ground_truth_heads.ms": inclusive_ms("postprocess.ground_truth_heads"),
        "metrics.scenario_report.s": inclusive_ms("metrics.scenario_report") / 1000.0,
        "metrics.match_detections.ms": inclusive_ms("metrics.match_detections"),
        "metrics.match_detections.calls": calls("metrics.match_detections"),
        "metrics.average_precision.self_ms": self_ms("metrics.average_precision"),
        "metrics.report.ms": (inclusive_ms("metrics.report_to_json")
                              + inclusive_ms("metrics.report_table")),
        "data.rotate.ms.quarter": inclusive_ms("data.rotate.quarter"),
        "data.rotate.ms.other": inclusive_ms("data.rotate.other"),
        "data.flip.ms": inclusive_ms("data.flip"),
        "data.write_ppm.ms": inclusive_ms("data.write_ppm"),
        "data.read_ppm.ms": inclusive_ms("data.read_ppm"),
        "data.generate_synthetic_scene.ms": inclusive_ms("data.generate_synthetic_scene"),
        "data.read_yolo_labels.ms": inclusive_ms("data.read_yolo_labels"),
        "data.write_yolo_labels.ms": inclusive_ms("data.write_yolo_labels"),
        "data.variants": tracer.counts.get("data.variants", 0) / items,
        "cfg.parse_cfg.ms": per_call_ms("cfg.parse_cfg"),
        "cfg.propagate_shapes.ms": per_call_ms("cfg.propagate_shapes"),
        "cfg.census.ms": per_call_ms("cfg.census"),
        "cli.read_head_bytes.ms": inclusive_ms("cli.read_head_bytes"),
        "cli.startup.ms": 0.0,
    }
    for command in CLI_COMMANDS:
        out[f"cli.{command}.ms"] = 0.0
        out[f"cli.{command}.inproc_ms"] = 0.0
    out.update(cli_extra)
    root_total, root_self = tracer.root_time
    out["trace.self_coverage"] = 1.0 - root_self / root_total
    return out


def throughput(*phases):
    """Median of the phases' throughput samples (blocks of items, or
    walkthroughs), so that a few seconds of a slower shared host move
    it less than they would move a mean; items / busy time when the
    phases were too short for one sample."""
    rates = [rate for phase in phases for rate in phase.rates]
    if rates:
        return median(rates)
    return (sum(len(phase.latencies) for phase in phases)
            / sum(phase.busy for phase in phases))


def traced_items(workload, state, seconds, tracer):
    """Traced run of an in-process workload: untraced sixths before and
    after the traced two thirds, so that a drift in machine speed does
    not pass for tracing overhead. Returns (phase, metrics, context,
    checks)."""
    before = workload.phase(state, seconds / 6.0)
    tracer.install()
    try:
        phase = workload.phase(state, seconds * 2.0 / 3.0, tracer)
    finally:
        tracer.restore()
    after = workload.phase(state, seconds / 6.0)
    phase.absorb(before)
    phase.absorb(after)
    plain = before.latencies + after.latencies
    metrics_out = layer_metrics(tracer, len(phase.latencies), {})
    metrics_out["trace.throughput_ratio"] = (
        throughput(phase) / throughput(before, after))
    context = {"item_ms": {
        "untraced_mean": 1000.0 * sum(plain) / len(plain),
        "traced_mean": 1000.0 * sum(phase.latencies) / len(phase.latencies),
    }}
    shared = min(len(before.outputs), len(phase.outputs))
    checks = [("tracing leaves outputs unchanged",
               before.outputs[:shared] == phase.outputs[:shared])]
    return phase, metrics_out, context, checks


def traced_cli(workload, state, seconds, tracer):
    """Traced run of `cli`: subprocess walkthroughs for half the time,
    start-up samples, then the walkthrough in-process three times
    (warm-up, untraced, traced). Returns (phase, metrics, context,
    checks)."""
    phase = workload.phase(state, seconds / 2.0)
    startup = workload.startup(state)
    workload.inproc(state, "warm")  # first in-process calls are slower
    _, plain_wall, plain = workload.inproc(state, "plain")
    tracer.install()
    try:
        traced_cmds, traced_wall, traced = workload.inproc(state, "traced", tracer)
    finally:
        tracer.restore()
    phase.absorb(plain)
    phase.absorb(traced)
    cli_extra = {"cli.startup.ms": 1000.0 * median(startup)}
    for command in CLI_COMMANDS:
        cli_extra[f"cli.{command}.ms"] = 1000.0 * median(
            phase.counts["per_command"][command])
        cli_extra[f"cli.{command}.inproc_ms"] = 1000.0 * median(
            traced_cmds[command])
    metrics_out = layer_metrics(tracer, len(traced.latencies), cli_extra)
    metrics_out["trace.throughput_ratio"] = plain_wall / traced_wall
    context = {"inproc_walkthrough_s": {"untraced": plain_wall,
                                        "traced": traced_wall}}
    return phase, metrics_out, context, []


def run(args) -> int:
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE, os.path.join(ROOT, "tests")]
    import bench_workloads
    import numpy
    import yolokit
    from bench_trace import Tracer

    if not os.path.abspath(yolokit.__file__).startswith(os.path.join(ROOT, "src")):
        print(f"yolokit imported from {yolokit.__file__}, not this checkout",
              file=sys.stderr)
        return 2

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    workload = bench_workloads.WORKLOADS[args.workload](ROOT, args.seed)
    setup_s, setup_all, state = measure_setup(
        workload, bench_workloads.child_env(ROOT))
    is_cli = args.workload == "cli"
    tracer = Tracer() if args.trace else None
    try:
        if tracer is None:
            phase, metrics_out, context, checks = (
                workload.phase(state, args.seconds), {}, {}, [])
        elif is_cli:
            phase, metrics_out, context, checks = traced_cli(
                workload, state, args.seconds, tracer)
        else:
            phase, metrics_out, context, checks = traced_items(
                workload, state, args.seconds, tracer)

        workload_checks, extra_context = workload.checks(state, phase)
        checks = workload_checks + checks
        context.update(extra_context)
        replayed = workload.replay(state)
        if replayed is not None:
            checks.append((f"{args.workload}: replay equals timed outputs",
                           replayed[:len(phase.outputs)] == phase.outputs))
            digest = fingerprint(*replayed)
        else:
            digest = phase.outputs[0] if phase.outputs else None
        src_digest = source_digest()
        checks.append((f"{args.workload}: output digest equals earlier runs",
                       same_as_earlier(out_dir, args, src_digest, digest)))
    finally:
        workload.close(state)

    attempted = phase.attempted + len(checks)
    failed = phase.failed + sum(1 for _, ok in checks if not ok)
    if not args.trace:
        latencies = phase.latencies
        metrics_out = {
            "setup_s": setup_s,
            "throughput_per_s": throughput(phase),
            "latency_ms_p50": 1000.0 * median(latencies),
            "latency_ms_p90": 1000.0 * p90(latencies),
            "ok_frac": 1.0 - failed / attempted,
            "peak_rss_mb": peak_rss_mb(include_children=is_cli),
        }
        units = END_TO_END
    else:
        units = PER_LAYER
    if set(metrics_out) != set(units):
        raise RuntimeError(f"metric names differ: {sorted(set(metrics_out) ^ set(units))}")

    context.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "blas_threads": blas_threads(), "git_sha": git_sha(),
        "src_digest": src_digest, "output_digest": digest,
        "setup_s_each": setup_all, "items": len(phase.latencies),
        "busy_s": phase.busy, "attempted": attempted, "failed": failed,
        "checks": {name: ok for name, ok in checks}, "errors": phase.errors,
    })
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics_out.items()},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(out_dir, stem + ".json"), "w", encoding="utf-8") as fh:
        json.dump({"result": result, "context": context}, fh, indent=1)
    if tracer is not None:
        tracer.write(os.path.join(out_dir, f"{args.workload}-seed{args.seed}-spans.json"))
    print("context " + json.dumps(context))
    print(json.dumps(result))
    return 0


def same_as_earlier(out_dir, args, src_digest, digest) -> bool:
    """Compare the output digest with earlier runs of this workload and
    seed on the same source; record it when it is the first."""
    if digest is None:
        return False
    path = os.path.join(out_dir, "digests.json")
    known = {}
    if os.path.isfile(path):
        with open(path, encoding="utf-8") as fh:
            known = json.load(fh)
    key = f"{args.workload}:{args.seed}:{src_digest}"
    if key in known:
        return known[key] == digest
    known[key] = digest
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(known, fh, indent=1)
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("frames", "eval", "prep", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not checkout_ok():
        print(f"{ROOT} is not a yolokit source checkout (need src/yolokit "
              "and tests/oracles.py)", file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
