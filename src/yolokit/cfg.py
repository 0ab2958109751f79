"""Parser and analyzer for darknet `.cfg` network descriptions.

The format is INI-like: `[section]` headers, `key=value` lines, `#` or `;`
comments, blank lines ignored. Section order is the layer order; `[net]`
must come first and exactly once. Layer indices in `route`/`shortcut`
references follow the darknet convention: the first layer after `[net]` is
index 0, and negative values are relative to the referencing layer.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping, Sequence

# head and grid arithmetic lives with the grid geometry in boxes; public here too
from .boxes import grid_sizes, head_channels, total_grid_cells

_HEADER_RE = re.compile(r"^\[([^\[\]]+)\]$")


class CfgError(ValueError):
    """Malformed cfg text or unresolvable network graph."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


@dataclass(frozen=True)
class LayerSpec:
    """One cfg section: its kind, attribute map and 1-based source line."""

    kind: str
    attributes: Mapping
    source_line: int


class NetGraph:
    """Ordered layer list plus (once propagated) per-layer output shapes.

    `layers[0]` is always the net section; `shapes` aligns with `layers`
    and holds (height, width, channels) tuples, or None before shape
    propagation.
    """

    __slots__ = ("layers", "shapes")

    def __init__(self, layers: Sequence[LayerSpec], shapes=None):
        self.layers = tuple(layers)
        self.shapes = tuple(shapes) if shapes is not None else None

    def __eq__(self, other) -> bool:
        if not isinstance(other, NetGraph):
            return NotImplemented
        return (self.layers == other.layers and self.shapes == other.shapes)

    def __repr__(self) -> str:
        return f"NetGraph({len(self.layers)} sections)"


def _parse_value(text: str):
    """Attribute value: integer, real, comma list of numbers, else string."""
    if "," in text:
        return tuple(_parse_value(part.strip()) for part in text.split(","))
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def _format_value(value) -> str:
    if isinstance(value, tuple):
        return ",".join(_format_value(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def parse_cfg(text: str) -> NetGraph:
    """Parse cfg text into an ordered NetGraph (shapes unresolved).

    Unknown section names are kept as-is so real published files parse.
    Raises CfgError with a line number for grammar violations: a key=value
    line before any header, a line with no `=`, or a duplicate key within
    one section. The net section must exist, be unique and come first.
    """
    layers: list[LayerSpec] = []
    current: dict | None = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].split(";", 1)[0].strip()
        if not line:
            continue
        header = _HEADER_RE.match(line)
        if header:
            name = header.group(1).strip().lower()
            current = {}
            layers.append(LayerSpec(name, current, lineno))
            continue
        if current is None:
            raise CfgError(f"key=value before any [section]: {line!r}", lineno)
        if "=" not in line:
            raise CfgError(f"expected key=value, got {line!r}", lineno)
        key, _, value = line.partition("=")
        key = key.strip().lower()
        if key in current:
            raise CfgError(f"duplicate key {key!r} in [{layers[-1].kind}]", lineno)
        current[key] = _parse_value(value.strip())

    if not layers or layers[0].kind != "net":
        raise CfgError("missing [net] section (must be first)")
    for spec in layers[1:]:
        if spec.kind == "net":
            raise CfgError("[net] declared more than once", spec.source_line)
    return NetGraph(layers)


def serialize_cfg(graph: NetGraph) -> str:
    """Canonical text form: sections in order, keys in stored order."""
    chunks = []
    for spec in graph.layers:
        lines = [f"[{spec.kind}]"]
        lines.extend(f"{k}={_format_value(v)}" for k, v in spec.attributes.items())
        chunks.append("\n".join(lines))
    return "\n\n".join(chunks) + "\n"


def _as_int(attrs: Mapping, key: str, default: int | None, spec: LayerSpec,
            minimum: int | None = None) -> int:
    if key not in attrs:
        if default is None:
            raise CfgError(f"[{spec.kind}] missing required key {key!r}",
                           spec.source_line)
        return default
    value = attrs[key]
    if not isinstance(value, int):
        raise CfgError(f"[{spec.kind}] key {key!r} must be an integer, got {value!r}",
                       spec.source_line)
    if minimum is not None and value < minimum:
        raise CfgError(f"[{spec.kind}] key {key!r} must be at least {minimum}, "
                       f"got {value}", spec.source_line)
    return value


def _as_ints(attrs: Mapping, key: str, spec: LayerSpec) -> tuple[int, ...]:
    """A required integer or comma list of integers, as a tuple."""
    if key not in attrs:
        raise CfgError(f"[{spec.kind}] missing {key!r}", spec.source_line)
    value = attrs[key]
    values = value if isinstance(value, tuple) else (value,)
    if not all(isinstance(v, int) for v in values):
        raise CfgError(f"[{spec.kind}] key {key!r} must be an integer or a list "
                       f"of integers, got {_format_value(value)!r}", spec.source_line)
    return values


def _window_out(size: int, kernel: int, stride: int, total_pad: int,
                spec: LayerSpec, axis: str) -> int:
    out = (size + total_pad - kernel) // stride + 1
    if out < 1:
        raise CfgError(
            f"[{spec.kind}] {axis} collapses: ({size} + {total_pad} - {kernel})"
            f"//{stride} + 1 = {out}", spec.source_line)
    return out


def _resolve_ref(ref: int, own_index: int, spec: LayerSpec) -> int:
    """Darknet layer reference to absolute darknet index (earlier only)."""
    target = own_index + ref if ref < 0 else ref
    if not (0 <= target < own_index):
        raise CfgError(
            f"[{spec.kind}] reference {ref} resolves to layer {target}, "
            f"which is not an earlier layer (own index {own_index})",
            spec.source_line)
    return target


def propagate_shapes(graph: NetGraph) -> NetGraph:
    """Resolve every layer's output (height, width, channels).

    Fails fast (CfgError with the layer's source line) on the first layer
    whose shape cannot be determined. Unknown layer kinds pass their input
    shape through unchanged. Idempotent.
    """
    net = graph.layers[0]
    width = _as_int(net.attributes, "width", None, net, minimum=1)
    height = _as_int(net.attributes, "height", None, net, minimum=1)
    channels = _as_int(net.attributes, "channels", 3, net, minimum=1)
    if width % 32 != 0 or height % 32 != 0:
        raise CfgError(
            f"input {width}x{height} is not a multiple of 32", net.source_line)

    shapes: list[tuple[int, int, int]] = [(height, width, channels)]
    for list_idx in range(1, len(graph.layers)):
        spec = graph.layers[list_idx]
        attrs = spec.attributes
        own = list_idx - 1  # darknet layer index
        prev = shapes[list_idx - 1]
        h, w, c = prev

        if spec.kind == "convolutional":
            filters = _as_int(attrs, "filters", None, spec, minimum=1)
            size = _as_int(attrs, "size", 1, spec, minimum=1)
            stride = _as_int(attrs, "stride", 1, spec, minimum=1)
            if _as_int(attrs, "pad", 0, spec):
                pad = size // 2
            else:
                pad = _as_int(attrs, "padding", 0, spec, minimum=0)
            out = (_window_out(h, size, stride, 2 * pad, spec, "height"),
                   _window_out(w, size, stride, 2 * pad, spec, "width"),
                   filters)
        elif spec.kind == "maxpool":
            # darknet defaults: stride 1, size = stride, padding = size - 1
            # (total padding, not per side)
            stride = _as_int(attrs, "stride", 1, spec, minimum=1)
            size = _as_int(attrs, "size", stride, spec, minimum=1)
            padding = _as_int(attrs, "padding", size - 1, spec, minimum=0)
            out = (_window_out(h, size, stride, padding, spec, "height"),
                   _window_out(w, size, stride, padding, spec, "width"),
                   c)
        elif spec.kind == "route":
            targets = [_resolve_ref(r, own, spec)
                       for r in _as_ints(attrs, "layers", spec)]
            parts = [shapes[t + 1] for t in targets]
            rh, rw = parts[0][0], parts[0][1]
            for t, part in zip(targets, parts):
                if (part[0], part[1]) != (rh, rw):
                    raise CfgError(
                        f"[route] spatial mismatch: layer {targets[0]} is "
                        f"{rh}x{rw} but layer {t} is {part[0]}x{part[1]}",
                        spec.source_line)
            total_c = sum(part[2] for part in parts)
            groups = _as_int(attrs, "groups", 1, spec, minimum=1)
            if groups > 1:
                if total_c % groups:
                    raise CfgError(
                        f"[route] channels {total_c} not divisible by groups {groups}",
                        spec.source_line)
                total_c //= groups
            out = (rh, rw, total_c)
        elif spec.kind == "shortcut":
            target = _resolve_ref(_as_int(attrs, "from", None, spec), own, spec)
            other = shapes[target + 1]
            if other != prev:
                raise CfgError(
                    f"[shortcut] shape mismatch: previous layer is {prev}, "
                    f"layer {target} is {other}", spec.source_line)
            out = prev
        elif spec.kind == "upsample":
            stride = _as_int(attrs, "stride", 2, spec, minimum=1)
            out = (h * stride, w * stride, c)
        else:
            # [yolo] and unknown kinds (e.g. [sam]) pass the shape through
            out = prev
        shapes.append(out)
    return NetGraph(graph.layers, shapes)


@dataclass(frozen=True)
class LayerStat:
    """Census row for one layer (darknet index, net excluded)."""

    index: int
    kind: str
    out_shape: tuple[int, int, int]
    neurons: int
    params: int


@dataclass(frozen=True)
class NetCensus:
    """Aggregate network statistics derived from a shape-resolved graph."""

    conv_layer_count: int
    total_parameters: int
    input_neurons: int
    hidden_neurons: int
    per_layer: tuple


def census(graph: NetGraph) -> NetCensus:
    """Count layers, parameters and neurons.

    Conv parameters: filters*in_channels*k*k weights + filters biases,
    plus 3 per filter (scale, rolling mean, rolling variance) when
    batch_normalize is non-zero, as in darknet, a non-integer value being
    a CfgError. `filters` is the propagated output depth. Neurons per conv
    layer: out_h*out_w*filters.
    """
    if graph.shapes is None:
        graph = propagate_shapes(graph)
    in_h, in_w, in_c = graph.shapes[0]
    rows: list[LayerStat] = []
    conv_count = 0
    total_params = 0
    hidden = 0
    for list_idx in range(1, len(graph.layers)):
        spec = graph.layers[list_idx]
        out = graph.shapes[list_idx]
        params = 0
        neurons = out[0] * out[1] * out[2]
        if spec.kind == "convolutional":
            conv_count += 1
            hidden += neurons
            filters, size = out[2], _as_int(spec.attributes, "size", 1, spec)
            prev_c = graph.shapes[list_idx - 1][2]
            params = filters * prev_c * size * size + filters
            if _as_int(spec.attributes, "batch_normalize", 0, spec):
                params += 3 * filters
        total_params += params
        rows.append(LayerStat(list_idx - 1, spec.kind, out, neurons, params))
    return NetCensus(
        conv_layer_count=conv_count,
        total_parameters=total_params,
        input_neurons=in_h * in_w * in_c,
        hidden_neurons=hidden,
        per_layer=tuple(rows),
    )
