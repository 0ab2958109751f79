"""Box forms, IoU, conversions and the anchor-offset decode."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from yolokit import postprocess
from yolokit.boxes import (Anchor, BoxCorner, BoxNorm, RawPrediction,
                           corner_to_norm, decode_box, decode_center, iou,
                           iou_one_to_many, norm_to_corner, responsible_cell,
                           sigmoid)

from oracles import decode_ref, iou_fraction, iou_ref, sigmoid_ref


def make_raw(rng, grid_n, input_n, anchor, spread=6.0):
    row = int(rng.integers(0, grid_n))
    col = int(rng.integers(0, grid_n))
    return RawPrediction(
        t_x=float(rng.uniform(-spread, spread)),
        t_y=float(rng.uniform(-spread, spread)),
        t_w=float(rng.uniform(-3.0, 3.0)),
        t_h=float(rng.uniform(-3.0, 3.0)),
        objectness_logit=0.0, class_logits=(0.0,),
        cell=(row, col), scale_index=0, anchor=anchor,
        grid_n=grid_n, input_n=input_n)


# ---------------------------------------------------------------------------
# sigmoid

def test_sigmoid_reference_points():
    assert sigmoid(0.0) == 0.5
    assert abs(sigmoid(2.0) - sigmoid_ref(2.0)) < 1e-15
    assert abs(sigmoid(-2.0) - sigmoid_ref(-2.0)) < 1e-15


def test_sigmoid_no_overflow_on_tails():
    assert sigmoid(1000.0) == 1.0
    assert sigmoid(-1000.0) == 0.0
    arr = sigmoid(np.array([-750.0, 750.0]))
    assert not np.isnan(arr).any()


@settings(deadline=None)
@given(st.lists(st.floats(), max_size=40))
def test_sigmoid_array_matches_scalar(drawn):
    """Bit for bit, NaN matching NaN, on signed zeros, infinities, NaN,
    subnormals and magnitudes up to the largest float."""
    rng = np.random.default_rng(42)
    edges = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
             2.2e-308, -2.2e-308, 745.0, -745.0, 1e308, -1e308]
    xs = np.concatenate([rng.normal(0.0, 5.0, 100), edges, drawn])
    arr = sigmoid(xs)
    for i, x in enumerate(xs):
        scalar = sigmoid(float(x))
        assert (np.isnan(arr[i]) and np.isnan(scalar)) or \
            arr[i].tobytes() == np.float64(scalar).tobytes()


# ---------------------------------------------------------------------------
# box containers

def test_box_corner_rejects_inverted():
    with pytest.raises(ValueError):
        BoxCorner(5.0, 0.0, 4.0, 1.0)
    with pytest.raises(ValueError):
        BoxCorner(0.0, 5.0, 1.0, 4.0)
    nan = float("nan")
    for corners in ((nan, 0.0, 1.0, 1.0), (0.0, nan, 1.0, 1.0),
                    (0.0, 0.0, nan, 1.0), (0.0, 0.0, 1.0, nan)):
        with pytest.raises(ValueError):
            BoxCorner(*corners)


def test_box_corner_degenerate_is_legal():
    b = BoxCorner(3.0, 3.0, 3.0, 3.0)
    assert b.area == 0.0
    assert b.width == 0.0 and b.height == 0.0


def test_box_corner_measures():
    b = BoxCorner(1.0, 2.0, 4.0, 8.0)
    assert (b.width, b.height, b.area) == (3.0, 6.0, 18.0)


def test_box_norm_range_checks():
    BoxNorm(0.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        BoxNorm(1.5, 0.5, 0.1, 0.1)
    with pytest.raises(ValueError):
        BoxNorm(0.5, 0.5, 0.0, 0.1)
    with pytest.raises(ValueError):
        BoxNorm(0.5, 0.5, 0.1, 1.1)


def test_anchor_must_be_positive():
    with pytest.raises(ValueError):
        Anchor(0.0, 5.0)
    with pytest.raises(ValueError):
        Anchor(5.0, -1.0)
    for p_w, p_h in ((float("nan"), 5.0), (5.0, float("nan")),
                     (float("inf"), 5.0), (5.0, float("inf"))):
        with pytest.raises(ValueError):
            Anchor(p_w, p_h)


# ---------------------------------------------------------------------------
# IoU

def test_iou_worked_example_one_seventh():
    a = BoxCorner(0.0, 0.0, 2.0, 2.0)
    b = BoxCorner(1.0, 1.0, 3.0, 3.0)
    value = iou(a, b)
    assert value == 1.0 / 7.0
    assert value == float(iou_fraction((0, 0, 2, 2), (1, 1, 3, 3)))


def test_iou_identity_disjoint_touching():
    a = BoxCorner(0.0, 0.0, 4.0, 4.0)
    assert iou(a, a) == 1.0
    assert iou(a, BoxCorner(10.0, 10.0, 12.0, 12.0)) == 0.0
    # shared edge: zero intersection area
    assert iou(a, BoxCorner(4.0, 0.0, 8.0, 4.0)) == 0.0


def test_iou_degenerate_boxes_are_empty():
    point = BoxCorner(1.0, 1.0, 1.0, 1.0)
    assert iou(point, point) == 0.0
    assert iou(point, BoxCorner(0.0, 0.0, 4.0, 4.0)) == 0.0


def test_iou_symmetric_and_matches_exact_fractions():
    rng = np.random.default_rng(42)
    for _ in range(200):
        ax, ay = rng.integers(0, 10, 2)
        bx, by = rng.integers(0, 10, 2)
        a_int = (int(ax), int(ay), int(ax + rng.integers(1, 8)),
                 int(ay + rng.integers(1, 8)))
        b_int = (int(bx), int(by), int(bx + rng.integers(1, 8)),
                 int(by + rng.integers(1, 8)))
        a = BoxCorner(*map(float, a_int))
        b = BoxCorner(*map(float, b_int))
        assert iou(a, b) == iou(b, a)
        assert iou(a, b) == float(iou_fraction(a_int, b_int))


def test_iou_one_to_many_matches_scalar_bitwise():
    rng = np.random.default_rng(42)
    xs = rng.uniform(0.0, 50.0, (64, 2))
    ws = rng.uniform(0.0, 30.0, (64, 2))  # zero extents included
    x_min, y_min = xs[:, 0], xs[:, 1]
    x_max, y_max = xs[:, 0] + ws[:, 0], xs[:, 1] + ws[:, 1]
    box = BoxCorner(10.0, 10.0, 40.0, 35.0)
    vec = iou_one_to_many(box, x_min, y_min, x_max, y_max)
    for i in range(64):
        other = BoxCorner(float(x_min[i]), float(y_min[i]),
                          float(x_max[i]), float(y_max[i]))
        assert vec[i] == iou(box, other)


def iou_one_to_many_ref(box, x_min, y_min, x_max, y_max):
    """The formula iou_one_to_many had before it worked in place."""
    b_x_min, b_y_min, b_x_max, b_y_max = box
    ix = np.minimum(b_x_max, x_max) - np.maximum(b_x_min, x_min)
    iy = np.minimum(b_y_max, y_max) - np.maximum(b_y_min, y_min)
    inter = np.where((ix > 0.0) & (iy > 0.0), ix * iy, 0.0)
    union = ((b_x_max - b_x_min) * (b_y_max - b_y_min)
             + (x_max - x_min) * (y_max - y_min) - inter)
    out = np.zeros_like(inter)
    np.divide(inter, union, out=out, where=union > 0.0)
    return out


# grid coordinates make touching and degenerate boxes common
CORNER = st.one_of(st.integers(-2, 6).map(float),
                   st.floats(-10.0, 10.0),
                   st.sampled_from([np.nan, np.inf, -np.inf]))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4).flatmap(lambda k: st.tuples(
    st.lists(st.tuples(*[CORNER] * 4), min_size=k, max_size=k),
    st.lists(st.tuples(*[CORNER] * 4), min_size=1, max_size=12))))
def test_iou_one_to_many_is_the_old_formula_byte_for_byte(drawn):
    block, many = (np.array(boxes, dtype=np.float64) for boxes in drawn)
    columns = tuple(block[:, k:k + 1] for k in range(4))
    arrays = tuple(many[:, k] for k in range(4))
    with np.errstate(all="ignore"):
        got = iou_one_to_many(columns, *arrays)
        want = iou_one_to_many_ref(columns, *arrays)
        # one box given as scalars
        one = iou_one_to_many(BoxCorner(0.0, 0.0, 3.0, 2.0), *arrays)
        one_want = iou_one_to_many_ref((0.0, 0.0, 3.0, 2.0), *arrays)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert one.tobytes() == one_want.tobytes()


# ---------------------------------------------------------------------------
# decode

def test_decode_center_formula():
    b_x, b_y = decode_center(0.0, 0.0, (4, 7), 13, 416)
    stride = 416 / 13
    assert b_x == (0.5 + 7) * stride
    assert b_y == (0.5 + 4) * stride


def test_decode_center_rejects_out_of_grid_cell():
    with pytest.raises(ValueError):
        decode_center(0.0, 0.0, (13, 0), 13, 416)
    with pytest.raises(ValueError):
        decode_center(0.0, 0.0, (0, -1), 13, 416)


def test_decode_center_stays_inside_cell():
    rng = np.random.default_rng(42)
    for _ in range(500):
        grid_n = int(rng.choice([13, 26, 52]))
        input_n = 416
        raw = make_raw(rng, grid_n, input_n, Anchor(16, 16), spread=25.0)
        b_x, b_y = decode_center(raw.t_x, raw.t_y, raw.cell, grid_n, input_n)
        stride = input_n / grid_n
        row, col = raw.cell
        assert col * stride <= b_x <= (col + 1) * stride
        assert row * stride <= b_y <= (row + 1) * stride


def test_decode_box_matches_scalar_oracle():
    rng = np.random.default_rng(42)
    anchors = [Anchor(12, 16), Anchor(76, 55), Anchor(459, 401)]
    raws = []
    for _ in range(500):
        grid_n, input_n = (13, 416) if rng.integers(2) else (19, 608)
        anchor = anchors[int(rng.integers(3))]
        raw = make_raw(rng, grid_n, input_n, anchor)
        raws.append(raw)
        box = decode_box(raw, anchor, grid_n, input_n)
        _, _, clamped = decode_ref(
            raw.t_x, raw.t_y, raw.t_w, raw.t_h, raw.cell[0], raw.cell[1],
            grid_n, input_n, anchor.p_w, anchor.p_h)
        for got, want in zip((box.x_min, box.y_min, box.x_max, box.y_max), clamped):
            assert type(got) is float
            assert abs(got - want) <= 1e-12
    # the array decode that scoring and `detect` run gives the same boxes
    for input_n in (416, 608):
        same = [raw for raw in raws if raw.input_n == input_n]
        for raw, det in zip(same, postprocess.score_predictions(same, ["c0"])):
            assert det.box == decode_box(raw, raw.anchor, raw.grid_n, input_n)


def test_decode_box_clamps_to_frame():
    # exp(800) overflows to an infinite size, which clips without a warning
    for t_size in (5.0, 800.0):
        raw = RawPrediction(0.0, 0.0, t_size, t_size, 0.0, (0.0,), (0, 0), 0,
                            Anchor(459, 401), 13, 416)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            box = decode_box(raw, Anchor(459, 401), 13, 416)
        assert box.x_min == 0.0 and box.y_min == 0.0
        assert box.x_max == 416.0 and box.y_max == 416.0


# ---------------------------------------------------------------------------
# conversions

def test_norm_to_corner_worked_example():
    box = norm_to_corner(BoxNorm(0.5, 0.5, 0.5, 0.5), 608, 608)
    assert (box.x_min, box.y_min, box.x_max, box.y_max) == (152.0, 152.0, 456.0, 456.0)


def test_corner_to_norm_worked_example():
    norm = corner_to_norm(BoxCorner(10.0, 10.0, 50.0, 50.0), 100, 100)
    assert (norm.cx, norm.cy, norm.w, norm.h) == (0.3, 0.3, 0.4, 0.4)


def test_corner_to_norm_clamps_overhang():
    norm = corner_to_norm(BoxCorner(-10.0, 0.0, 50.0, 120.0), 100, 100)
    assert norm.cx == 0.25 and norm.w == 0.5
    assert norm.cy == 0.5 and norm.h == 1.0


def test_conversion_round_trip():
    rng = np.random.default_rng(42)
    for _ in range(100):
        w = float(rng.uniform(0.05, 0.9))
        h = float(rng.uniform(0.05, 0.9))
        cx = float(rng.uniform(w / 2, 1 - w / 2))
        cy = float(rng.uniform(h / 2, 1 - h / 2))
        norm = BoxNorm(cx, cy, w, h)
        back = corner_to_norm(norm_to_corner(norm, 608, 608), 608, 608)
        assert abs(back.cx - cx) < 1e-12
        assert abs(back.cy - cy) < 1e-12
        assert abs(back.w - w) < 1e-12
        assert abs(back.h - h) < 1e-12


def test_conversions_reject_bad_dims():
    with pytest.raises(ValueError):
        norm_to_corner(BoxNorm(0.5, 0.5, 0.5, 0.5), 0, 10)
    with pytest.raises(ValueError):
        corner_to_norm(BoxCorner(0, 0, 1, 1), 10, -5)


# ---------------------------------------------------------------------------
# responsible cell

def test_responsible_cell_far_edge_clamps():
    assert responsible_cell(BoxNorm(0.999, 0.999, 0.01, 0.01), 13) == (12, 12)
    assert responsible_cell(BoxNorm(1.0, 1.0, 0.01, 0.01), 13) == (12, 12)


def test_responsible_cell_sweep_stays_in_bounds():
    for grid_n in (1, 13, 52):
        for i in range(101):
            v = i / 100.0
            row, col = responsible_cell(BoxNorm(v, 1.0 - v, 0.5, 0.5), grid_n)
            assert 0 <= row < grid_n and 0 <= col < grid_n
            # the claimed cell must actually contain the center
            assert col / grid_n <= v <= (col + 1) / grid_n
            assert row / grid_n <= 1.0 - v <= (row + 1) / grid_n


def test_responsible_cell_matches_floor_rule():
    rng = np.random.default_rng(42)
    for _ in range(300):
        cx = float(rng.uniform(0.0, 1.0))
        cy = float(rng.uniform(0.0, 1.0))
        grid_n = int(rng.choice([7, 13, 26]))
        row, col = responsible_cell(BoxNorm(cx, cy, 0.1, 0.1), grid_n)
        assert row == min(int(cy * grid_n), grid_n - 1)
        assert col == min(int(cx * grid_n), grid_n - 1)
