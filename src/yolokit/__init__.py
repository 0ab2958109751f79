"""Desk-scale single-stage detection pipeline toolkit.

Modules:
  tensor       dense feature maps and forward-pass building blocks
  cfg          darknet cfg parsing, shape propagation, network census
  boxes        box geometry, IoU, anchor decode, grid and head arithmetic
  records      class registry, record-line reader, scenario names
  postprocess  prediction extraction, scoring, NMS, confidence gating
  data         image/label I/O, augmentation, synthetic scenes
  metrics      greedy matching, average precision, mAP 0.50:0.95
  cli          batch command-line front end
"""

import importlib

__version__ = "0.1.0"

# Each submodule's public names, in `__all__` order. A name or submodule is
# imported on first use (PEP 562), so `import yolokit.cfg` loads no other one.
_EXPORTS = {
    "boxes": "Anchor BoxCorner BoxNorm RawPrediction corner_to_norm decode_box"
             " decode_center iou norm_to_corner responsible_cell sigmoid",
    "cfg": "CfgError NetCensus NetGraph census grid_sizes head_channels parse_cfg"
           " propagate_shapes serialize_cfg total_grid_cells",
    "data": "ClassRegistry Image LabeledImage aggregate_csv flip"
            " generate_synthetic_scene read_ppm read_yolo_labels rotate write_ppm"
            " write_yolo_labels",
    "metrics": "EvalReport GroundTruth average_precision map_50_95 match_detections"
               " scenario_report",
    "postprocess": "Detection DetectConfig NmsConfig detect_frame extract_predictions"
                   " ground_truth_heads nms score_predictions two_stage_filter",
    "tensor": "ConvParams ShapeError Tensor concat_channels conv2d csp_block"
              " leaky_relu max_pool mish residual_block spp_block upsample2x",
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = [*_OWNER, "__version__"]


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _OWNER:
        return getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
