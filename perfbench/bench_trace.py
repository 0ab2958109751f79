"""In-memory span tracing by wrapping the toolkit's module attributes.

Wrappers go on the attributes that callers actually look up (for
example `postprocess.sigmoid`, which `detect_frame` calls through its
own module globals), so the toolkit itself is not changed. Every wrapped
call keeps per-name totals: calls, inclusive time and self time, where
self time is the span's duration minus the time covered by its child
spans. Spans are also kept as (id, name, start, end, parent, item)
records, except for names listed as hot: those run hundreds of
thousands of times per item and are kept as totals only, so that memory
stays bounded.
"""

from __future__ import annotations

import functools
import json
from time import perf_counter

from yolokit import cfg, cli, data, metrics, postprocess


def _rotate_name(args, kwargs):
    degrees = kwargs.get("degrees", args[1] if len(args) > 1 else 0.0)
    return ("data.rotate.quarter" if float(degrees) % 90.0 == 0.0
            else "data.rotate.other")


def _count_detections(tracer, result):
    tracer.add("postprocess.detections", len(result))


# (owner module, attribute, span name or naming function, hot, on_result)
TARGETS = (
    (postprocess, "sigmoid", "boxes.sigmoid", True, None),
    (postprocess, "iou_one_to_many", "boxes.iou_one_to_many", True, None),
    (metrics, "iou", "boxes.iou", True, None),
    (postprocess, "detect_frame", "postprocess.detect_frame", False,
     _count_detections),
    (postprocess, "format_detections", "postprocess.format_detections",
     False, None),
    (postprocess, "parse_detection_lines",
     "postprocess.parse_detection_lines", True, None),
    (postprocess, "ground_truth_heads", "postprocess.ground_truth_heads",
     False, None),
    (metrics, "scenario_report", "metrics.scenario_report", False, None),
    (metrics, "match_detections", "metrics.match_detections", True, None),
    (metrics, "average_precision", "metrics.average_precision", False, None),
    (metrics, "report_to_json", "metrics.report_to_json", False, None),
    (metrics, "report_table", "metrics.report_table", False, None),
    (data, "rotate", _rotate_name, False, None),
    (data, "flip", "data.flip", False, None),
    (data, "write_ppm", "data.write_ppm", False, None),
    (data, "read_ppm", "data.read_ppm", False, None),
    (data, "generate_synthetic_scene", "data.generate_synthetic_scene",
     False, None),
    (data, "read_yolo_labels", "data.read_yolo_labels", True, None),
    (data, "write_yolo_labels", "data.write_yolo_labels", True, None),
    (data, "aggregate_csv", "data.aggregate_csv", False, None),
    (data, "expansion_report", "data.expansion_report", False, None),
    (cfg, "parse_cfg", "cfg.parse_cfg", False, None),
    (cfg, "propagate_shapes", "cfg.propagate_shapes", False, None),
    (cfg, "census", "cfg.census", False, None),
    (cli, "read_head_bytes", "cli.read_head_bytes", False, None),
)

# generator functions: counted per yielded item, not timed
COUNTED = ((data, "iter_expanded", "data.variants"),)

# the attributes a Tracer replaces, for checking that they come back
WRAPPED_ATTRIBUTES = tuple((owner, attr) for owner, attr, *_ in TARGETS) + \
    tuple((owner, attr) for owner, attr, _ in COUNTED)


class Tracer:
    """Span recorder. `install()` wraps TARGETS, `restore()` puts every
    original back; use `root()` around each benchmark item."""

    def __init__(self):
        self.stats = {}      # name -> [calls, inclusive s, self s]
        self.counts = {}     # name -> int
        self.spans = []      # (id, name, start, end, parent id, item id)
        self.root_time = [0.0, 0.0]  # inclusive and self s of root spans
        self.item = None
        self._stack = []     # open spans: [id, child s]
        self._next_id = 0
        self._saved = []

    # -- recording --------------------------------------------------------

    def add(self, name, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount

    def _enter(self):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [span_id, 0.0]
        self._stack.append(frame)
        return frame, parent

    def _exit(self, name, frame, parent, start, end):
        self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][1] += duration
        else:
            self.root_time[0] += duration
            self.root_time[1] += duration - frame[1]
        entry = self.stats.get(name)
        if entry is None:
            entry = self.stats[name] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - frame[1]
        self.spans.append((frame[0], name, start, end, parent, self.item))

    def call(self, name, fn, args, kwargs):
        frame, parent = self._enter()
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(name, frame, parent, start, perf_counter())

    def root(self, name, item):
        """Context manager for one benchmark item's root span."""
        return _Root(self, name, item)

    # -- installing wrappers ----------------------------------------------

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, hot, on_result in TARGETS:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, hot, on_result))
        for owner, attr, name in COUNTED:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._counting(original, name))

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name, hot, on_result):
        if hot:
            return functools.wraps(fn)(self._hot(fn, name))
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            result = tracer.call(label, fn, args, kwargs)
            if on_result is not None:
                on_result(tracer, result)
            return result
        return wrapper

    def _hot(self, fn, name):
        """The accounting of `call` inlined, without a span record, for
        names called hundreds of thousands of times per item; spans
        opened under a hot call record no parent."""
        entry = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        root_time = self.root_time

        def wrapper(*args, **kwargs):
            frame = [None, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                else:
                    root_time[0] += duration
                    root_time[1] += duration - frame[1]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[1]
        return wrapper

    def _counting(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for value in fn(*args, **kwargs):
                tracer.add(name)
                yield value
        return wrapper

    # -- results ----------------------------------------------------------

    def total(self, name, index):
        entry = self.stats.get(name)
        return entry[index] if entry else 0.0

    def write(self, path):
        """Write the kept spans and the per-name totals as JSON."""
        payload = {
            "fields": ["id", "name", "start", "end", "parent", "item"],
            "spans": self.spans,
            "stats": {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]}
                      for k, v in sorted(self.stats.items())},
            "counts": self.counts,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


class _Root:
    def __init__(self, tracer, name, item):
        self.tracer, self.name, self.item = tracer, name, item

    def __enter__(self):
        self.tracer.item = self.item
        self.frame, self.parent = self.tracer._enter()
        self.start = perf_counter()
        return self

    def __exit__(self, *exc):
        end = perf_counter()
        self.duration = end - self.start
        self.tracer._exit(self.name, self.frame, self.parent, self.start, end)
        return False
