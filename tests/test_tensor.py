"""Tensor container, activations and the dense forward-pass blocks."""

import math

import numpy as np
import pytest

from yolokit.tensor import (ConvParams, ShapeError, Tensor, concat_channels,
                            conv2d, csp_block, leaky_relu, max_pool, mish,
                            residual_block, spp_block, upsample2x)

from oracles import (conv2d_ref, csp_ref, max_pool_ref, mish_ref,
                     upsample2x_ref)


def random_conv(rng, in_c, filters, kernel, stride=1, pad=0, activation="linear"):
    return ConvParams(
        rng.normal(0.0, 1.0, (filters, in_c, kernel, kernel)),
        rng.normal(0.0, 1.0, filters),
        stride=stride, pad=pad, activation=activation)


# ---------------------------------------------------------------------------
# activations

def test_mish_known_values():
    assert abs(mish(1.0) - 0.8650983882673103) < 1e-15
    assert mish(0.0) == 0.0
    # negative lobe: small, strictly negative, bounded
    v = mish(-20.0)
    assert -0.31 < v < 0.0
    assert abs(v - mish_ref(-20.0)) < 1e-15


def test_mish_matches_high_precision_oracle():
    rng = np.random.default_rng(42)
    for x in rng.uniform(-30.0, 30.0, 500):
        assert abs(mish(float(x)) - mish_ref(float(x))) <= 1e-12


def test_mish_total_on_extreme_doubles():
    probes = [1e308, -1e308, 745.0, -745.0, 5e-324, -5e-324, 0.0,
              float(np.finfo(np.float64).max), float(np.finfo(np.float64).min)]
    for x in probes:
        assert math.isfinite(mish(x)), x
    big = mish(np.array([1e300, -1e300, 30.0, -30.0]))
    assert not np.isnan(big).any()


def test_mish_array_and_scalar_agree():
    xs = np.linspace(-25.0, 25.0, 101)
    arr = mish(xs)
    assert isinstance(mish(1.5), float)
    for i, x in enumerate(xs):
        assert arr[i] == mish(float(x))


def test_mish_continuous_at_softplus_cutoff():
    below = mish(20.0 - 1e-9)
    above = mish(20.0 + 1e-9)
    assert abs(above - below) < 1e-6


def test_leaky_relu():
    assert leaky_relu(3.0) == 3.0
    assert leaky_relu(-2.0) == pytest.approx(-0.2)
    assert leaky_relu(-5.0, slope=0.25) == -1.25
    arr = leaky_relu(np.array([-1.0, 0.0, 2.0]))
    assert np.allclose(arr, [-0.1, 0.0, 2.0])


# ---------------------------------------------------------------------------
# Tensor container

def test_tensor_validation():
    with pytest.raises(ShapeError):
        Tensor(np.zeros((2, 2)))
    with pytest.raises(ShapeError):
        Tensor(np.zeros((0, 2, 3)))
    with pytest.raises(ShapeError):
        Tensor(np.zeros((2, 0, 3)))


def test_tensor_zero_channels_allowed():
    t = Tensor.zeros(2, 3, 0)
    assert t.shape == (2, 3, 0)
    assert t.values.size == 0


def test_tensor_is_immutable():
    t = Tensor.zeros(2, 2, 1)
    with pytest.raises(ValueError):
        t.data[0, 0, 0] = 1.0


def test_tensor_keeps_float32_and_widens_everything_else():
    narrow = np.arange(6, dtype=np.float32).reshape(1, 2, 3)
    kept = Tensor(narrow, copy=False)
    assert kept.data.dtype == np.float32 and np.shares_memory(kept.data, narrow)
    assert Tensor(narrow).data.dtype == np.float32
    for dtype in (np.int32, np.int64, np.float16, np.float64):
        t = Tensor(np.arange(6, dtype=dtype).reshape(1, 2, 3))
        assert t.data.dtype == np.float64
        assert t.data.tolist() == [[[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]]]
    assert Tensor([[[1, 2]]]).data.dtype == np.float64
    # float32 in another byte order is widened as well
    assert Tensor(narrow.astype(">f4")).data.dtype == np.float64


def test_tensor_copies_its_input_by_default():
    arr = np.zeros((1, 1, 1))
    t = Tensor(arr)
    arr[0, 0, 0] = 5.0
    assert t.data[0, 0, 0] == 0.0


def test_tensor_flat_order_is_row_col_channel():
    t = Tensor(np.arange(8).reshape(2, 2, 2))
    assert t.data[0, 0, 1] == 1.0
    assert t.data[0, 1, 0] == 2.0
    assert t.data[1, 0, 0] == 4.0
    assert list(t.values) == list(range(8))


def test_tensor_constructors():
    assert np.array_equal(Tensor.zeros(2, 2, 3).data, np.zeros((2, 2, 3)))
    assert np.array_equal(Tensor.full(1, 2, 2, 7.5).data, np.full((1, 2, 2), 7.5))


# ---------------------------------------------------------------------------
# ConvParams

def test_conv_params_shaped_weight_checks():
    w = np.zeros((2, 4, 3, 3))
    p = ConvParams(w, np.zeros(2))
    assert (p.filters, p.in_channels, p.kernel) == (2, 4, 3)
    assert not np.shares_memory(p.weights, w)
    assert not p.weights.flags.writeable and not p.bias.flags.writeable
    with pytest.raises(ShapeError):
        ConvParams(np.zeros((3, 1, 3, 3)), np.zeros(2))
    with pytest.raises(ShapeError):
        ConvParams(np.zeros((2, 1, 3, 3)), np.zeros(3))
    with pytest.raises(ShapeError):
        ConvParams(np.zeros((2, 1, 3)), np.zeros(2))
    with pytest.raises(ShapeError):
        ConvParams(np.zeros((2, 1, 3, 2)), np.zeros(2))
    with pytest.raises(ValueError):
        ConvParams(np.zeros((0, 1, 3, 3)), np.zeros(0))
    with pytest.raises(ValueError):
        ConvParams(np.zeros((2, 1, 0, 0)), np.zeros(2))


def test_conv_params_rejects_bad_geometry():
    w = np.zeros((1, 1, 1, 1))
    b = np.zeros(1)
    with pytest.raises(ValueError):
        ConvParams(w, b, stride=0)
    with pytest.raises(ValueError):
        ConvParams(w, b, pad=-1)
    with pytest.raises(ValueError):
        ConvParams(w, b, activation="relu")


def test_conv_params_identity():
    rng = np.random.default_rng(42)
    t = Tensor(rng.normal(0.0, 1.0, (3, 4, 5)))
    out = conv2d(t, ConvParams.identity(5))
    assert np.array_equal(out.data, t.data)


# ---------------------------------------------------------------------------
# conv2d

def test_conv2d_single_window_sum():
    t = Tensor(np.array([1, 2, 3, 4]).reshape(2, 2, 1))
    params = ConvParams(np.ones((1, 1, 2, 2)), [0.0])
    out = conv2d(t, params)
    assert out.shape == (1, 1, 1)
    assert out.data[0, 0, 0] == 10.0


def test_conv2d_channel_mismatch():
    t = Tensor.zeros(4, 4, 3)
    params = ConvParams(np.zeros((1, 2, 1, 1)), [0.0])
    with pytest.raises(ShapeError):
        conv2d(t, params)


def test_conv2d_stride_and_pad_shape():
    rng = np.random.default_rng(42)
    t = Tensor(rng.normal(0.0, 1.0, (4, 4, 3)))
    params = random_conv(rng, 3, 5, 3, stride=2, pad=1)
    out = conv2d(t, params)
    assert out.shape == (2, 2, 5)
    ref = conv2d_ref(t.data, params.weights, params.bias, 2, 1)
    assert np.max(np.abs(out.data - ref)) <= 1e-12


def test_conv2d_window_collapse_raises():
    t = Tensor.zeros(2, 2, 1)
    params = ConvParams(np.zeros((1, 1, 5, 5)), [0.0])
    with pytest.raises(ShapeError):
        conv2d(t, params)


def test_conv2d_matches_oracle_across_shapes_and_activations():
    rng = np.random.default_rng(42)
    activations = ("linear", "leaky", "mish")
    for trial in range(40):
        h = int(rng.integers(1, 7))
        w = int(rng.integers(1, 7))
        c = int(rng.integers(1, 5))
        f = int(rng.integers(1, 5))
        k = int(rng.integers(1, 4))
        stride = int(rng.integers(1, 3))
        pad = int(rng.integers(0, 3))
        if (h + 2 * pad - k) // stride + 1 < 1 or (w + 2 * pad - k) // stride + 1 < 1:
            continue
        act = activations[trial % 3]
        t = Tensor(rng.normal(0.0, 1.0, (h, w, c)))
        params = random_conv(rng, c, f, k, stride, pad, act)
        out = conv2d(t, params)
        ref = conv2d_ref(t.data, params.weights, params.bias, stride, pad, act)
        assert out.shape == ref.shape
        assert np.max(np.abs(out.data - ref)) <= 1e-12


# ---------------------------------------------------------------------------
# max_pool

def test_max_pool_basic():
    t = Tensor(np.array([1, 2, 3, 4]).reshape(2, 2, 1))
    out = max_pool(t, 2, 2)
    assert out.shape == (1, 1, 1)
    assert out.data[0, 0, 0] == 4.0
    square = Tensor.zeros(4, 4, 1)
    for kernel, stride, pad, match in ((0, 1, 0, "kernel .* got 0"),
                                       (-1, 1, 0, "kernel .* got -1"),
                                       (2, 0, 0, "stride .* got 0"),
                                       (2, 1, -1, "pad .* got -1")):
        with pytest.raises(ValueError, match=match):
            max_pool(square, kernel, stride, pad)


def test_max_pool_padding_never_wins():
    # every padded window still contains the one real pixel
    t = Tensor.full(1, 1, 2, -7.0)
    out = max_pool(t, 2, 1, pad=1)
    assert out.shape == (2, 2, 2)
    assert np.all(out.data == -7.0)


def test_max_pool_matches_oracle():
    rng = np.random.default_rng(42)
    for _ in range(30):
        h = int(rng.integers(2, 8))
        w = int(rng.integers(2, 8))
        c = int(rng.integers(1, 4))
        k = int(rng.integers(1, 4))
        stride = int(rng.integers(1, 3))
        pad = int(rng.integers(0, 2))
        if (h + 2 * pad - k) // stride + 1 < 1 or (w + 2 * pad - k) // stride + 1 < 1:
            continue
        t = Tensor(rng.normal(0.0, 1.0, (h, w, c)))
        out = max_pool(t, k, stride, pad)
        assert np.array_equal(out.data, max_pool_ref(t.data, k, stride, pad))


# ---------------------------------------------------------------------------
# residual / csp / spp / concat / upsample

def test_residual_zero_weights_is_identity():
    rng = np.random.default_rng(42)
    t = Tensor(rng.normal(0.0, 1.0, (4, 4, 8)))
    conv1 = ConvParams(np.zeros((4, 8, 1, 1)), np.zeros(4))
    conv2 = ConvParams(np.zeros((8, 4, 3, 3)), np.zeros(8), pad=1)
    out = residual_block(t, conv1, conv2)
    assert np.array_equal(out.data, t.data)


def test_residual_matches_composed_oracle():
    rng = np.random.default_rng(42)
    t = Tensor(rng.normal(0.0, 1.0, (4, 4, 8)))
    conv1 = random_conv(rng, 8, 4, 1, activation="mish")
    conv2 = random_conv(rng, 4, 8, 3, pad=1, activation="mish")
    out = residual_block(t, conv1, conv2)
    mid = conv2d_ref(t.data, conv1.weights, conv1.bias, 1, 0, "mish")
    ref = conv2d_ref(mid, conv2.weights, conv2.bias, 1, 1, "mish") + t.data
    assert np.max(np.abs(out.data - ref)) <= 1e-12


def test_residual_geometry_checks():
    t = Tensor.zeros(4, 4, 8)
    one = ConvParams(np.zeros((4, 8, 1, 1)), np.zeros(4))
    three = ConvParams(np.zeros((8, 4, 3, 3)), np.zeros(8), pad=1)
    with pytest.raises(ShapeError):
        residual_block(t, three, three)  # conv1 must be 1x1
    bad = ConvParams(np.zeros((8, 4, 3, 3)), np.zeros(8), pad=0)
    with pytest.raises(ShapeError):
        residual_block(t, one, bad)  # conv2 must pad 1
    shrink = ConvParams(np.zeros((4, 4, 3, 3)), np.zeros(4), pad=1)
    with pytest.raises(ShapeError):
        residual_block(t, one, shrink)  # branch must restore the shape


def test_csp_matches_straight_line_oracle():
    rng = np.random.default_rng(42)
    t = Tensor(rng.normal(0.0, 1.0, (8, 8, 16)))
    branch = (random_conv(rng, 8, 8, 1, activation="mish"),
              random_conv(rng, 8, 8, 3, pad=1, activation="mish"))
    transition = random_conv(rng, 16, 12, 1, activation="mish")
    out = csp_block(t, 0.5, branch, transition=transition)
    ref = csp_ref(
        t.data, 8,
        [(p.weights, p.bias, p.stride, p.pad, p.activation) for p in branch],
        (transition.weights, transition.bias, transition.stride,
         transition.pad, transition.activation))
    assert np.max(np.abs(out.data - ref)) <= 1e-12


def test_csp_split_must_be_whole():
    t = Tensor.zeros(2, 2, 5)
    with pytest.raises(ShapeError):
        csp_block(t, 0.5, (), transition=ConvParams.identity(5))


def test_csp_zero_split_runs_branch_on_everything():
    rng = np.random.default_rng(42)
    t = Tensor(rng.normal(0.0, 1.0, (3, 3, 4)))
    out = csp_block(t, 0.0, (), transition=ConvParams.identity(4))
    assert np.array_equal(out.data, t.data)


def test_csp_branch_must_keep_spatial_dims():
    rng = np.random.default_rng(42)
    t = Tensor(rng.normal(0.0, 1.0, (4, 4, 4)))
    shrink = random_conv(rng, 2, 2, 3)  # no padding: spatial dims drop
    with pytest.raises(ShapeError):
        csp_block(t, 0.5, (shrink,), transition=ConvParams.identity(4))


def test_spp_channels_and_slabs():
    rng = np.random.default_rng(42)
    t = Tensor(rng.normal(0.0, 1.0, (8, 8, 4)))
    out = spp_block(t)
    assert out.shape == (8, 8, 16)
    assert np.array_equal(out.data[:, :, :4], t.data)
    for i, size in enumerate((5, 9, 13)):
        slab = out.data[:, :, 4 * (i + 1):4 * (i + 2)]
        assert np.array_equal(slab, max_pool_ref(t.data, size, 1, (size - 1) // 2))


def test_spp_rejects_even_sizes():
    t = Tensor.zeros(4, 4, 2)
    with pytest.raises(ShapeError):
        spp_block(t, (4,))


def test_spp_empty_sizes_is_identity():
    t = Tensor(np.array([1, 2, 3, 4]).reshape(2, 2, 1))
    assert np.array_equal(spp_block(t, ()).data, t.data)


def test_concat_channels():
    a = Tensor.full(2, 2, 1, 1.0)
    b = Tensor.full(2, 2, 2, 2.0)
    out = concat_channels(a, b)
    assert out.shape == (2, 2, 3)
    assert np.all(out.data[:, :, 0] == 1.0)
    assert np.all(out.data[:, :, 1:] == 2.0)
    with pytest.raises(ShapeError):
        concat_channels(a, Tensor.zeros(3, 2, 1))


def test_concat_with_zero_channel_tensor():
    a = Tensor.full(2, 2, 3, 4.0)
    empty = Tensor.zeros(2, 2, 0)
    assert np.array_equal(concat_channels(a, empty).data, a.data)
    assert np.array_equal(concat_channels(empty, a).data, a.data)


def test_upsample2x_matches_oracle():
    rng = np.random.default_rng(42)
    t = Tensor(rng.normal(0.0, 1.0, (3, 5, 2)))
    out = upsample2x(t)
    assert out.shape == (6, 10, 2)
    assert np.array_equal(out.data, upsample2x_ref(t.data))


def test_upsample_then_pool_round_trip():
    rng = np.random.default_rng(42)
    t = Tensor(rng.normal(0.0, 1.0, (4, 4, 3)))
    back = max_pool(upsample2x(t), 2, 2)
    assert np.array_equal(back.data, t.data)
