"""Dense feature-map tensors and the forward-pass building blocks.

Everything here is a pure function over immutable (height, width, channels)
float64 maps: plain convolution, max pooling, residual and cross-stage
partial blocks, spatial pyramid pooling, nearest-neighbor upsampling and the
activation functions. No batching, no gradients.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

# tanh(softplus(x)) rounds to 1.0 beyond this point
_SOFTPLUS_CUTOFF = 20.0


class ShapeError(ValueError):
    """Input shapes are inconsistent for the requested operation."""


def mish(x):
    """x * tanh(softplus(x)), overflow-safe for every finite double.

    Accepts a scalar or an ndarray. With e = exp(x) and n = e*(e + 2),
    tanh(softplus(x)) = n / (n + 2), so one exp serves both. e is taken at
    min(x, 20): beyond that n + 2 rounds to n and the result is x itself,
    which keeps the function total: no overflow, no NaN, for any finite
    input.
    """
    arr = np.asarray(x, dtype=np.float64)
    e = np.exp(np.minimum(arr, _SOFTPLUS_CUTOFF))
    n = e * (e + 2.0)
    n /= n + 2.0  # in place: each full-size temporary costs page faults
    n *= arr
    if arr.ndim == 0:
        return float(n)
    return n


def leaky_relu(x, slope: float = 0.1):
    """x for x >= 0, slope*x below. Scalar or ndarray."""
    arr = np.asarray(x, dtype=np.float64)
    out = np.where(arr >= 0.0, arr, slope * arr)
    if arr.ndim == 0:
        return float(out)
    return out


# Each activation by its cfg name
_ACTIVATIONS = {"linear": lambda values: values, "leaky": leaky_relu, "mish": mish}
ACTIVATIONS = tuple(_ACTIVATIONS)


def _activate(values: np.ndarray, activation: str) -> np.ndarray:
    if activation not in _ACTIVATIONS:
        raise ValueError(f"unknown activation {activation!r}")
    return _ACTIVATIONS[activation](values)


class Tensor:
    """Immutable height x width x channels map of float values.

    float32 data stays float32, so a head read from a file is used as
    read; anything else is stored as float64. Values are stored row-major
    with the channel index fastest, i.e. flattening yields (row, column,
    channel) order.
    """

    __slots__ = ("data",)

    def __init__(self, data, copy: bool = True):
        arr = np.asarray(data)
        if arr.dtype != np.float32:
            arr = arr.astype(np.float64, copy=False)
        if arr.ndim != 3:
            raise ShapeError(f"tensor data must be 3-D (h, w, c), got {arr.ndim}-D")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ShapeError(f"tensor spatial dims must be positive, got {arr.shape}")
        if copy:
            arr = arr.copy()
        elif not arr.flags.c_contiguous:
            arr = np.ascontiguousarray(arr)
        arr.setflags(write=False)
        self.data = arr

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def channels(self) -> int:
        return self.data.shape[2]

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.data.shape

    def __repr__(self) -> str:
        return f"Tensor({self.height}x{self.width}x{self.channels})"


def _check_window(kernel: int, stride: int, pad: int) -> None:
    if kernel < 1:
        raise ValueError(f"kernel must be positive, got {kernel}")
    if stride < 1:
        raise ValueError(f"stride must be positive, got {stride}")
    if pad < 0:
        raise ValueError(f"pad must be non-negative, got {pad}")


class ConvParams:
    """Weights and settings of one convolution layer.

    `weights` has shape (filters, in_channels, kernel, kernel); the layer's
    geometry is read from it.
    """

    __slots__ = ("stride", "pad", "weights", "bias", "activation")

    def __init__(self, weights, bias, *, stride: int = 1, pad: int = 0,
                 activation: str = "linear"):
        w = np.array(weights, dtype=np.float64, order="C")
        if w.ndim != 4 or w.shape[2] != w.shape[3]:
            raise ShapeError(
                f"weights must be (filters, in_channels, k, k), got shape {w.shape}")
        if w.shape[0] < 1:
            raise ValueError(f"filters must be positive, got {w.shape[0]}")
        _check_window(w.shape[2], stride, pad)
        if activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}, got {activation!r}")
        b = np.array(np.ravel(bias), dtype=np.float64)
        if b.size != w.shape[0]:
            raise ShapeError(f"bias length {b.size} != filters {w.shape[0]}")

        w.setflags(write=False)
        b.setflags(write=False)
        self.stride = stride
        self.pad = pad
        self.weights = w
        self.bias = b
        self.activation = activation

    @property
    def filters(self) -> int:
        return self.weights.shape[0]

    @property
    def in_channels(self) -> int:
        return self.weights.shape[1]

    @property
    def kernel(self) -> int:
        return self.weights.shape[2]


def _window_extent(size: int, kernel: int, stride: int, pad: int, axis: str) -> int:
    out = (size + 2 * pad - kernel) // stride + 1
    if out < 1:
        raise ShapeError(
            f"{axis}: window arithmetic ({size} + 2*{pad} - {kernel})/{stride} + 1 "
            f"yields non-positive output {out}"
        )
    return out


def conv2d(input: Tensor, params: ConvParams) -> Tensor:
    """Plain 2-D convolution with bias and element-wise activation.

    Output spatial dims follow floor((n + 2*pad - kernel)/stride) + 1.
    """
    if input.channels != params.in_channels:
        raise ShapeError(
            f"channels: input has {input.channels}, kernel expects {params.in_channels}"
        )
    k, s, p = params.kernel, params.stride, params.pad
    out_h = _window_extent(input.height, k, s, p, "height")
    out_w = _window_extent(input.width, k, s, p, "width")

    padded = np.pad(input.data, ((p, p), (p, p), (0, 0)))
    out = np.zeros((out_h, out_w, params.filters))
    # accumulate one kernel tap at a time; (out_h, out_w, c_in) @ (c_in, f)
    for ky in range(k):
        for kx in range(k):
            patch = padded[ky:ky + s * out_h:s, kx:kx + s * out_w:s, :]
            out += patch @ params.weights[:, :, ky, kx].T
    out += params.bias
    return Tensor(_activate(out, params.activation), copy=False)


def max_pool(input: Tensor, kernel: int, stride: int, pad: int = 0) -> Tensor:
    """Per-channel window maximum; padding contributes -inf, never a value."""
    _check_window(kernel, stride, pad)
    out_h = _window_extent(input.height, kernel, stride, pad, "height")
    out_w = _window_extent(input.width, kernel, stride, pad, "width")
    padded = np.pad(input.data, ((pad, pad), (pad, pad), (0, 0)),
                    constant_values=-np.inf)
    out = np.full((out_h, out_w, input.channels), -np.inf)
    for ky in range(kernel):
        for kx in range(kernel):
            patch = padded[ky:ky + stride * out_h:stride,
                           kx:kx + stride * out_w:stride, :]
            np.maximum(out, patch, out=out)
    return Tensor(out, copy=False)


def residual_block(input: Tensor, conv1: ConvParams, conv2: ConvParams) -> Tensor:
    """y = F(x) + x with F = conv2 o conv1 (1x1 then 3x3, darknet shape)."""
    if conv1.kernel != 1:
        raise ShapeError(f"residual conv1 must be 1x1, got {conv1.kernel}x{conv1.kernel}")
    if conv2.kernel != 3 or conv2.pad != 1:
        raise ShapeError(
            f"residual conv2 must be 3x3 pad 1, got {conv2.kernel}x{conv2.kernel} pad {conv2.pad}"
        )
    fx = conv2d(conv2d(input, conv1), conv2)
    if fx.shape != input.shape:
        raise ShapeError(f"residual branch produced {fx.shape}, input is {input.shape}")
    return Tensor(fx.data + input.data, copy=False)


def csp_block(input: Tensor, split_fraction=0.5,
              branch: Sequence[ConvParams] = (), *,
              transition: ConvParams) -> Tensor:
    """Cross-stage partial block.

    Channels split into [x1 | x2] in storage order, x1 holding the first
    channels * split_fraction maps. The branch convolutions run on x2 only;
    the output is transition(concat(x1, branch(x2))).
    """
    exact = input.channels * float(split_fraction)
    split = round(exact)
    if abs(exact - split) > 1e-9 or split < 0 or split > input.channels:
        raise ShapeError(
            f"split: {input.channels} channels x fraction {split_fraction} "
            f"is not a whole number"
        )
    x1 = input.data[:, :, :split]
    x2 = Tensor(input.data[:, :, split:])
    for conv in branch:
        x2 = conv2d(x2, conv)
    if x2.height != input.height or x2.width != input.width:
        raise ShapeError(
            f"branch output {x2.shape} lost the input spatial dims "
            f"{input.height}x{input.width}"
        )
    merged = Tensor(np.concatenate([x1, x2.data], axis=2), copy=False)
    return conv2d(merged, transition)


def spp_block(input: Tensor, pool_sizes: Iterable[int] = (5, 9, 13)) -> Tensor:
    """Spatial pyramid pooling: concat input with stride-1 max pools.

    Every pool size must be odd so that pad (size-1)/2 preserves the
    spatial shape; output channels = input.channels * (1 + len(pool_sizes)).
    """
    sizes = list(pool_sizes)
    slabs = [input.data]
    for size in sizes:
        if size % 2 == 0:
            raise ShapeError(f"pool size {size} is even; SPP needs odd sizes")
        slabs.append(max_pool(input, size, 1, (size - 1) // 2).data)
    return Tensor(np.concatenate(slabs, axis=2), copy=False)


def concat_channels(a: Tensor, b: Tensor) -> Tensor:
    """Stack two maps along the channel axis; spatial dims must agree."""
    if a.height != b.height or a.width != b.width:
        raise ShapeError(
            f"spatial mismatch: {a.height}x{a.width} vs {b.height}x{b.width}"
        )
    return Tensor(np.concatenate([a.data, b.data], axis=2), copy=False)


def upsample2x(input: Tensor) -> Tensor:
    """Nearest-neighbor upsampling; height and width double."""
    doubled = np.repeat(np.repeat(input.data, 2, axis=0), 2, axis=1)
    return Tensor(doubled, copy=False)
