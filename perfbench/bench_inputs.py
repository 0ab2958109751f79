"""Seeded input generators for the benchmark.

The benchmark owns these generators so that a change to the toolkit
cannot change what it is measured on. They depend only on numpy and on
the wire formats the toolkit reads (YF01 head blobs, YOLO label lines,
detection lines), never on toolkit code.

`sparse_frame` is a copy of the "trained-like" recipe of
`yolokit.cli._bench_frame` with the same distributions and the same draw
order, including the ground-truth head encoding of
`postprocess.ground_truth_heads`; `recipe_matches_cli` checks that the
copy reproduces the original bit for bit.
"""

from __future__ import annotations

import hashlib
import math
import struct

import numpy as np

INPUT_N = 608
NUM_CLASSES = 13
CLASS_NAMES = (
    "bolt", "nut", "washer", "gear", "bearing", "bracket", "spring",
    "clip", "rivet", "spacer", "flange", "dowel", "shim",
)
# (p_w, p_h) priors, three per scale, fine to coarse
ANCHORS = ((12, 16), (19, 36), (40, 28), (36, 75), (76, 55), (72, 146),
           (142, 110), (192, 243), (459, 401))
HOT_LOGIT = 12.0
HEAD_MAGIC = b"YF01"

# Crowded frames replace the background objectness and class logits with
# N(CROWD_MEAN, CROWD_SD) draws. At 608 about 10^3 candidates then pass
# the 0.25 confidence gate, so suppression and Detection building
# dominate instead of scoring.
CROWD_MEAN = -3.5
CROWD_SD = 2.0
# one crowded frame in each block of CROWD_BLOCK frames, at a seeded slot
CROWD_BLOCK = 4

EVAL_IMAGES = 1000
CANVAS = 608

# the README walkthrough's steps, in order; labels_csv is `labels csv`
CLI_COMMANDS = ("netinfo", "synth", "encode", "detect", "eval", "labels_csv",
                "augment")


def grid_sizes(input_n: int = INPUT_N) -> tuple[int, int, int]:
    return input_n // 8, input_n // 16, input_n // 32


def candidates_per_frame(input_n: int = INPUT_N) -> int:
    return 3 * sum(g * g for g in grid_sizes(input_n))


def _logit(p: float) -> float:
    p = min(max(p, 1e-6), 1.0 - 1e-6)
    return math.log(p / (1.0 - p))


def encode_labels(labels, num_classes: int = NUM_CLASSES,
                  input_n: int = INPUT_N):
    """Head arrays that decode back to `labels` ((class_id, cx, cy, w, h)
    tuples in image fractions), plus the occupied (scale, row, col, slot)
    set. Same arithmetic as `postprocess.ground_truth_heads`."""
    grids = grid_sizes(input_n)
    per_slot = 5 + num_classes
    arrays = [np.zeros((g, g, 3 * per_slot)) for g in grids]
    for arr, g in zip(arrays, grids):
        arr.reshape(g * g, 3, per_slot)[:, :, 4:] = -HOT_LOGIT
    occupied = set()
    for class_id, cx, cy, w, h in labels:
        w_px = w * input_n
        h_px = h * input_n
        ranked = sorted(range(9), key=lambda k: (
            abs(math.log(w_px / ANCHORS[k][0]))
            + abs(math.log(h_px / ANCHORS[k][1]))))
        for k in ranked:
            scale, slot = divmod(k, 3)
            g = grids[scale]
            row = min(int(cy * g), g - 1)
            col = min(int(cx * g), g - 1)
            if (scale, row, col, slot) in occupied:
                continue
            base = slot * per_slot
            cellvec = arrays[scale][row, col]
            cellvec[base + 0] = _logit(cx * g - col)
            cellvec[base + 1] = _logit(cy * g - row)
            cellvec[base + 2] = math.log(w_px / ANCHORS[k][0])
            cellvec[base + 3] = math.log(h_px / ANCHORS[k][1])
            cellvec[base + 4] = HOT_LOGIT
            cellvec[base + 5 + class_id] = HOT_LOGIT
            occupied.add((scale, row, col, slot))
            break
        else:
            raise ValueError("no free anchor slot")
    return arrays, occupied


def sparse_frame(rng, num_classes: int = NUM_CLASSES,
                 input_n: int = INPUT_N):
    """The `cli._bench_frame` recipe: 3..8 hot object slots over a quiet
    background, unit Gaussian noise on every logit. Returns the three
    float64 head arrays and the occupied slot set."""
    labels = []
    for _ in range(int(rng.integers(3, 9))):
        w = float(rng.uniform(0.05, 0.3))
        h = float(rng.uniform(0.05, 0.3))
        cx = float(rng.uniform(w / 2, 1.0 - w / 2))
        cy = float(rng.uniform(h / 2, 1.0 - h / 2))
        labels.append((int(rng.integers(num_classes)), cx, cy, w, h))
    arrays, occupied = encode_labels(labels, num_classes, input_n)
    return [a + rng.normal(0.0, 1.0, a.shape) for a in arrays], occupied


def crowded_frame(rng, num_classes: int = NUM_CLASSES,
                  input_n: int = INPUT_N):
    """A sparse frame whose background slots then get objectness and
    class logits drawn from N(CROWD_MEAN, CROWD_SD), scale by scale."""
    arrays, occupied = sparse_frame(rng, num_classes, input_n)
    per_slot = 5 + num_classes
    for scale, arr in enumerate(arrays):
        g = arr.shape[0]
        slots = arr.reshape(g * g, 3, per_slot)
        background = np.ones((g * g, 3), dtype=bool)
        for s, row, col, slot in occupied:
            if s == scale:
                background[row * g + col, slot] = False
        slots[background, 4:] = rng.normal(
            CROWD_MEAN, CROWD_SD, (int(background.sum()), 1 + num_classes))
    return arrays, occupied


def head_blob(arr: np.ndarray) -> bytes:
    """YF01 wire form: magic, grid_n and channels as little-endian u32,
    then float32 values row-major."""
    header = HEAD_MAGIC + struct.pack("<II", arr.shape[0], arr.shape[2])
    return header + arr.astype("<f4").tobytes()


def frame_kind(seed: int, index: int) -> str:
    """'crowded' for one seeded slot in each block of CROWD_BLOCK frames,
    else 'sparse'."""
    block = np.random.default_rng([seed, 0xC0FFEE, index // CROWD_BLOCK])
    slot = int(block.integers(CROWD_BLOCK))
    return "crowded" if index % CROWD_BLOCK == slot else "sparse"


def frame_blobs(seed: int, index: int):
    """(kind, three YF01 blobs) of frame `index` of the stream for `seed`."""
    kind = frame_kind(seed, index)
    make = crowded_frame if kind == "crowded" else sparse_frame
    arrays, _ = make(np.random.default_rng([seed, index]))
    return kind, tuple(head_blob(a) for a in arrays)


def recipe_matches_cli(cli_module, seed: int, frames: int = 2):
    """True when `sparse_frame` reproduces `cli._bench_frame` bit for bit
    over `frames` consecutive draws from one generator; None when the
    toolkit no longer has `_bench_frame`."""
    original = getattr(cli_module, "_bench_frame", None)
    if original is None:
        return None
    ours = np.random.default_rng(seed)
    theirs = np.random.default_rng(seed)
    for _ in range(frames):
        mine, _ = sparse_frame(ours)
        heads = original(theirs, NUM_CLASSES, INPUT_N, cli_module.DEFAULT_ANCHORS)
        for a, head in zip(mine, heads):
            if a.dtype != head.data.dtype or not np.array_equal(a, head.data):
                return False
    return True


# ---------------------------------------------------------------------------
# eval: a truth set and a perturbed copy of it as detections

def _clamp(v: float) -> float:
    return min(max(v, 0.0), float(CANVAS))


def eval_set(seed: int, index: int, images: int = EVAL_IMAGES):
    """Truth label texts and detection-line texts for one image set.

    Each image has 3..12 truth boxes. The detections copy the truth with
    misses (8%), class confusions (6%), small jitter or a shift that
    drops the IoU below 0.5 (5%), duplicates at lower confidence (5%),
    plus Poisson(0.6) background false positives per image.
    """
    rng = np.random.default_rng([seed, 0xE7A1, index])
    truth_texts, det_texts = [], []
    for _ in range(images):
        truth, dets = [], []
        for _ in range(int(rng.integers(3, 13))):
            cid = int(rng.integers(NUM_CLASSES))
            w = float(rng.uniform(24.0, 120.0))
            h = float(rng.uniform(24.0, 120.0))
            x0 = float(rng.uniform(0.0, CANVAS - w))
            y0 = float(rng.uniform(0.0, CANVAS - h))
            truth.append(f"{cid} {(x0 + w / 2) / CANVAS:.6f} "
                         f"{(y0 + h / 2) / CANVAS:.6f} {w / CANVAS:.6f} "
                         f"{h / CANVAS:.6f}\n")
            if rng.random() < 0.08:
                continue
            if rng.random() < 0.06:
                cid = (cid + int(rng.integers(1, NUM_CLASSES))) % NUM_CLASSES
            jitter = 0.04 if rng.random() >= 0.05 else 0.4
            dx = float(rng.normal(0.0, jitter * w))
            dy = float(rng.normal(0.0, jitter * h))
            conf = float(rng.uniform(0.3, 1.0))
            box = (f"{_clamp(x0 + dx):.6f} {_clamp(y0 + dy):.6f} "
                   f"{_clamp(x0 + dx + w):.6f} {_clamp(y0 + dy + h):.6f}")
            dets.append(f"{CLASS_NAMES[cid]} {conf:.6f} {box}\n")
            if rng.random() < 0.05:
                dets.append(f"{CLASS_NAMES[cid]} {conf * 0.8:.6f} {box}\n")
        for _ in range(int(rng.poisson(0.6))):
            w = float(rng.uniform(24.0, 120.0))
            h = float(rng.uniform(24.0, 120.0))
            x0 = float(rng.uniform(0.0, CANVAS - w))
            y0 = float(rng.uniform(0.0, CANVAS - h))
            cid = int(rng.integers(NUM_CLASSES))
            conf = float(rng.uniform(0.05, 0.6))
            dets.append(f"{CLASS_NAMES[cid]} {conf:.6f} {x0:.6f} {y0:.6f} "
                        f"{x0 + w:.6f} {y0 + h:.6f}\n")
        truth_texts.append("".join(truth))
        det_texts.append("".join(dets))
    return truth_texts, det_texts


def scene_seed(seed: int, index: int) -> int:
    """Scene seed of `prep` item `index`; distinct across run seeds."""
    return (seed * 1_000_003 + index) % (2 ** 32)


def fingerprint(*parts) -> str:
    """sha256 over byte/str parts, for pinning generated inputs."""
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part.encode() if isinstance(part, str) else part)
    return digest.hexdigest()
