"""Network description parsing, shape propagation and the census."""

import numpy as np
import pytest

from yolokit.boxes import grid_sizes, head_channels, total_grid_cells
from yolokit.cfg import (CfgError, LayerSpec, NetGraph, census, parse_cfg,
                         propagate_shapes, serialize_cfg)

from oracles import cfg_shapes_ref, conv_params_ref, grid_cells_ref

NET_416 = "[net]\nwidth=416\nheight=416\nchannels=3\n"


# ---------------------------------------------------------------------------
# grammar

def test_parse_minimal_net():
    graph = parse_cfg(NET_416)
    assert len(graph.layers) == 1
    assert graph.layers[0].kind == "net"
    assert propagate_shapes(graph).shapes[0] == (416, 416, 3)


def test_parse_value_typing():
    graph = parse_cfg(
        "[net]\nwidth=416\nheight=416\n"
        "[yolo]\nanchors=12,16, 19,36\nignore_thresh=.7\nlabel=stuff\nnum=9\n")
    attrs = graph.layers[1].attributes
    assert attrs["anchors"] == (12, 16, 19, 36)
    assert attrs["ignore_thresh"] == 0.7
    assert attrs["label"] == "stuff"
    assert attrs["num"] == 9


def test_parse_strips_comments_and_blanks():
    graph = parse_cfg(
        "# leading comment\n\n[net]\nwidth=416 # trailing\nheight=416\n"
        "; alt comment style\nchannels=3\n")
    assert graph.layers[0].attributes["width"] == 416
    assert graph.layers[0].attributes["channels"] == 3


def test_parse_error_lines():
    with pytest.raises(CfgError) as err:
        parse_cfg("width=416\n")
    assert "line 1" in str(err.value)
    with pytest.raises(CfgError) as err:
        parse_cfg("[net]\nwidth=416\nbogus line\n")
    assert "line 3" in str(err.value)
    with pytest.raises(CfgError) as err:
        parse_cfg("[net]\nwidth=416\nwidth=608\n")
    assert "duplicate" in str(err.value) and "line 3" in str(err.value)


def test_parse_net_section_rules():
    with pytest.raises(CfgError):
        parse_cfg("[convolutional]\nfilters=1\n")
    with pytest.raises(CfgError):
        parse_cfg(NET_416 + "[net]\nwidth=608\n")
    with pytest.raises(CfgError):
        parse_cfg("")
    # a required key that is missing names its section's line
    for text, message in (
            ("[net]\nheight=32\n", "line 1: [net] missing required key 'width'"),
            (NET_416 + "[convolutional]\nsize=1\n",
             "line 5: [convolutional] missing required key 'filters'")):
        with pytest.raises(CfgError) as err:
            propagate_shapes(parse_cfg(text))
        assert str(err.value) == message


def test_serialize_round_trip():
    text = (NET_416 + "[convolutional]\nbatch_normalize=1\nfilters=32\n"
            "size=3\nstride=1\npad=1\nactivation=mish\n")
    graph = parse_cfg(text)
    out = serialize_cfg(graph)
    reparsed = parse_cfg(out)
    assert [(s.kind, dict(s.attributes)) for s in reparsed.layers] == \
        [(s.kind, dict(s.attributes)) for s in graph.layers]
    assert serialize_cfg(reparsed) == out
    # NumPy scalars are written as plain numbers and read back as floats
    for as_number in (np.float64, np.float32):
        attributes = {"width": 416, "height": 416, "momentum": as_number(0.9),
                      "scales": (as_number(0.1), as_number(0.1))}
        out = serialize_cfg(NetGraph([LayerSpec("net", attributes, 1)]))
        attrs = parse_cfg(out).layers[0].attributes
        assert type(attrs["momentum"]) is float
        assert {type(v) for v in attrs["scales"]} == {float}
        assert serialize_cfg(parse_cfg(out)) == out
        if as_number is np.float64:
            assert attrs == attributes


# ---------------------------------------------------------------------------
# shape propagation

def test_conv_shape_rule():
    graph = propagate_shapes(parse_cfg(
        NET_416 + "[convolutional]\nfilters=32\nsize=3\nstride=1\npad=1\n"))
    assert graph.shapes[1] == (416, 416, 32)


def test_input_must_be_multiple_of_32():
    with pytest.raises(CfgError):
        propagate_shapes(parse_cfg("[net]\nwidth=100\nheight=100\n"))


def test_conv_stride_two_halves():
    graph = propagate_shapes(parse_cfg(
        NET_416 + "[convolutional]\nfilters=64\nsize=3\nstride=2\npad=1\n"))
    assert graph.shapes[1] == (208, 208, 64)


def test_maxpool_default_semantics():
    # stride given alone: size defaults to stride, padding to size-1 total
    graph = propagate_shapes(parse_cfg(
        NET_416 + "[maxpool]\nstride=2\n"))
    assert graph.shapes[1] == (208, 208, 3)
    # spatial-preserving pyramid pool: size 5, stride 1
    graph = propagate_shapes(parse_cfg(
        NET_416 + "[maxpool]\nsize=5\nstride=1\n"))
    assert graph.shapes[1] == (416, 416, 3)


def test_route_concatenates_channels():
    text = (NET_416
            + "[convolutional]\nfilters=8\nsize=1\n"
            + "[convolutional]\nfilters=16\nsize=1\n"
            + "[route]\nlayers=-1,-2\n")
    graph = propagate_shapes(parse_cfg(text))
    assert graph.shapes[3] == (416, 416, 24)


def test_route_absolute_and_groups():
    text = (NET_416
            + "[convolutional]\nfilters=8\nsize=1\n"
            + "[convolutional]\nfilters=16\nsize=1\n"
            + "[route]\nlayers=0\n"
            + "[route]\nlayers=-1\ngroups=2\n")
    graph = propagate_shapes(parse_cfg(text))
    assert graph.shapes[3] == (416, 416, 8)
    assert graph.shapes[4] == (416, 416, 4)
    with pytest.raises(CfgError) as err:
        propagate_shapes(parse_cfg(
            NET_416 + "[convolutional]\nfilters=16\nsize=1\n"
            "[route]\nlayers=-1\ngroups=3\n"))
    assert str(err.value) == "line 8: [route] channels 16 not divisible by groups 3"


def test_route_rejects_forward_and_self_references():
    with pytest.raises(CfgError):
        propagate_shapes(parse_cfg(
            NET_416 + "[convolutional]\nfilters=8\nsize=1\n[route]\nlayers=1\n"))
    with pytest.raises(CfgError):
        propagate_shapes(parse_cfg(NET_416 + "[route]\nlayers=-1\n"))
    with pytest.raises(CfgError) as err:
        propagate_shapes(parse_cfg(
            NET_416 + "[convolutional]\nfilters=8\nsize=1\n[route]\n"))
    assert str(err.value) == "line 8: [route] missing 'layers'"
    # references that are not integers name the [route] line
    for layers in ("abc", "1.5", "", "-1,abc", "-1,1.5"):
        with pytest.raises(CfgError, match=r"^line 8: \[route\] key 'layers' "
                           r"must be an integer or a list of integers"):
            propagate_shapes(parse_cfg(
                NET_416 + "[convolutional]\nfilters=8\nsize=1\n"
                f"[route]\nlayers={layers}\n"))


def test_route_rejects_spatial_mismatch():
    text = (NET_416
            + "[convolutional]\nfilters=8\nsize=1\n"
            + "[convolutional]\nfilters=8\nsize=3\nstride=2\npad=1\n"
            + "[route]\nlayers=-1,-2\n")
    with pytest.raises(CfgError):
        propagate_shapes(parse_cfg(text))


def test_shortcut_requires_matching_shape():
    good = (NET_416
            + "[convolutional]\nfilters=8\nsize=1\n"
            + "[convolutional]\nfilters=4\nsize=1\n"
            + "[convolutional]\nfilters=8\nsize=3\npad=1\n"
            + "[shortcut]\nfrom=-3\n")
    graph = propagate_shapes(parse_cfg(good))
    assert graph.shapes[4] == (416, 416, 8)
    bad = (NET_416
           + "[convolutional]\nfilters=8\nsize=1\n"
           + "[convolutional]\nfilters=4\nsize=1\n"
           + "[shortcut]\nfrom=-2\n")
    with pytest.raises(CfgError):
        propagate_shapes(parse_cfg(bad))
    with pytest.raises(CfgError) as err:
        propagate_shapes(parse_cfg(
            NET_416 + "[convolutional]\nfilters=8\nsize=1\n[shortcut]\n"))
    assert str(err.value) == "line 8: [shortcut] missing required key 'from'"


def test_upsample_and_unknown_kind():
    text = (NET_416
            + "[convolutional]\nfilters=8\nsize=1\n"
            + "[upsample]\nstride=2\n"
            + "[sam]\nfrom=-2\n")
    graph = propagate_shapes(parse_cfg(text))
    assert graph.shapes[2] == (832, 832, 8)
    assert graph.shapes[3] == (832, 832, 8)


def test_window_collapse_is_an_error():
    with pytest.raises(CfgError):
        propagate_shapes(parse_cfg(
            "[net]\nwidth=32\nheight=32\n"
            "[convolutional]\nfilters=8\nsize=3\nstride=2\npad=1\n"
            "[convolutional]\nfilters=8\nsize=3\nstride=2\npad=1\n"
            "[convolutional]\nfilters=8\nsize=3\nstride=2\npad=1\n"
            "[convolutional]\nfilters=8\nsize=3\nstride=2\npad=1\n"
            "[convolutional]\nfilters=8\nsize=3\nstride=2\npad=1\n"
            "[convolutional]\nfilters=8\nsize=33\nstride=1\n"))
    # a zero stride or size or a zero-sized input has no output shape
    for section in ("[convolutional]\nfilters=8\nstride=0\n",
                    "[convolutional]\nfilters=8\nsize=0\n",
                    "[maxpool]\nstride=0\n", "[upsample]\nstride=0\n"):
        with pytest.raises(CfgError, match=r"^line 5: .* must be at least 1, got 0"):
            propagate_shapes(parse_cfg(NET_416 + section))
    # a negative padding would widen the output instead of failing
    for section in ("[convolutional]\nfilters=8\nsize=3\npadding=-2\n",
                    "[maxpool]\nsize=2\nstride=2\npadding=-1\n"):
        with pytest.raises(CfgError, match=r"^line 5: .*'padding' must be at least 0"):
            propagate_shapes(parse_cfg(NET_416 + section))
    with pytest.raises(CfgError, match=r"^line 1: .*'width' must be at least 1"):
        propagate_shapes(parse_cfg("[net]\nwidth=0\nheight=32\n[yolo]\n"))


def test_propagation_is_idempotent():
    graph = propagate_shapes(parse_cfg(
        NET_416 + "[convolutional]\nfilters=32\nsize=3\nstride=1\npad=1\n"))
    again = propagate_shapes(graph)
    assert again.shapes == graph.shapes
    # list arguments are stored as the tuples that parsing gives
    assert again == graph == NetGraph(list(graph.layers), list(graph.shapes))
    assert type(again.layers) is type(again.shapes) is tuple


# ---------------------------------------------------------------------------
# census

def test_census_single_conv_neurons():
    graph = parse_cfg(
        NET_416 + "[convolutional]\nfilters=32\nsize=3\nstride=1\npad=1\n")
    report = census(graph)
    assert report.input_neurons == 416 * 416 * 3
    assert report.hidden_neurons == 5_537_792
    assert report.per_layer[0].neurons == 416 * 416 * 32
    assert report.conv_layer_count == 1


def test_census_parameter_formula():
    plain = census(parse_cfg(
        NET_416 + "[convolutional]\nfilters=32\nsize=3\nstride=1\npad=1\n"))
    assert plain.total_parameters == 32 * 3 * 3 * 3 + 32
    normed = census(parse_cfg(
        NET_416 + "[convolutional]\nbatch_normalize=1\nfilters=32\nsize=3\n"
                  "stride=1\npad=1\n"))
    assert normed.total_parameters == 32 * 3 * 3 * 3 + 32 + 3 * 32
    assert plain.total_parameters == conv_params_ref(32, 3, 3, False)
    assert normed.total_parameters == conv_params_ref(32, 3, 3, True)
    # darknet turns batch norm on for any non-zero value
    two = census(parse_cfg(NET_416 + "[convolutional]\nbatch_normalize=2\nfilters=4\n"))
    assert two.total_parameters == 4 * 3 + 4 + 3 * 4 == 28
    # a batch_normalize that is not an integer is an error, not "off"
    with pytest.raises(CfgError, match=r"^line 5: .*'batch_normalize' must be an integer"):
        census(parse_cfg(NET_416 + "[convolutional]\nbatch_normalize=abc\nfilters=4\n"))


def test_census_full_network(yolov4_text):
    graph = propagate_shapes(parse_cfg(yolov4_text))
    report = census(graph)
    assert report.input_neurons == 1_108_992
    assert report.conv_layer_count == 110
    assert report.total_parameters == 64_429_405
    assert report.hidden_neurons == 114_403_427


def test_full_network_shapes_match_independent_walker(yolov4_text):
    graph = propagate_shapes(parse_cfg(yolov4_text))
    ref_shapes = cfg_shapes_ref(graph.layers)
    assert list(graph.shapes) == list(ref_shapes)
    report = census(graph)
    for row in report.per_layer:
        h, w, c = row.out_shape
        assert row.neurons == h * w * c
        if row.kind == "convolutional":
            spec = graph.layers[row.index + 1]
            prev_c = graph.shapes[row.index][2]
            assert row.params == conv_params_ref(
                int(spec.attributes["filters"]), prev_c,
                int(spec.attributes.get("size", 1)),
                spec.attributes.get("batch_normalize", 0) == 1)
        else:
            assert row.params == 0


def test_full_network_structure(yolov4_text):
    graph = propagate_shapes(parse_cfg(yolov4_text))
    kinds = [spec.kind for spec in graph.layers[1:]]
    assert kinds.count("yolo") == 3
    assert kinds.count("upsample") == 2
    assert kinds.count("maxpool") == 3
    # the three head tensors sit right before their yolo layers
    head_shapes = [graph.shapes[i] for i, spec in enumerate(graph.layers)
                   if spec.kind == "yolo"]
    assert head_shapes == [(76, 76, 255), (38, 38, 255), (19, 19, 255)]


# ---------------------------------------------------------------------------
# grid and head arithmetic

def test_head_channels():
    assert head_channels(13) == 54
    assert head_channels(80) == 255
    assert head_channels(1) == 18
    with pytest.raises(ValueError):
        head_channels(0)


def test_grid_sizes():
    assert grid_sizes(416) == (52, 26, 13)
    assert grid_sizes(608) == (76, 38, 19)
    with pytest.raises(ValueError):
        grid_sizes(400)
    with pytest.raises(ValueError):
        grid_sizes(0)


def test_total_grid_cells():
    assert total_grid_cells(416) == 3549
    assert total_grid_cells(608) == 7581
    assert total_grid_cells(32) == 21
    for n in (32, 416, 608, 1280):
        assert total_grid_cells(n) == grid_cells_ref(n)
