"""Shared fixtures: the packaged network description and a default class
registry."""

import importlib.resources

import pytest

from yolokit.boxes import BoxCorner
from yolokit.cli import DEFAULT_CLASS_NAMES
from yolokit.data import ClassRegistry
from yolokit.postprocess import Detection


@pytest.fixture(scope="session")
def yolov4_text() -> str:
    ref = importlib.resources.files("yolokit") / "assets" / "yolov4.cfg"
    return ref.read_text()


@pytest.fixture(scope="session")
def registry13() -> ClassRegistry:
    return ClassRegistry(DEFAULT_CLASS_NAMES)


def make_detection(box, confidence, class_id=0, objectness=None,
                   class_score=None, name=None) -> Detection:
    """Detection with consistent score fields from just a box and a
    confidence (objectness defaults to the confidence, class_score to 1)."""
    obj = confidence if objectness is None else objectness
    cls = 1.0 if class_score is None else class_score
    return Detection(
        box=BoxCorner(*box), class_id=class_id,
        class_name=name if name is not None else str(class_id),
        objectness=obj, class_score=cls, confidence=confidence,
    )
